"""Tests of the benchmark's own arithmetic.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (outside the
tier-1 ``testpaths``).  Nothing here runs a workload; ``--quick`` does that.
"""

import json
import re
import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from repro.core import RunMetrics, StageCounters
from repro.video import scenes_from_counts

from . import registry
from .spans import ROOT, Span, layer_table, self_cpu
from .stats import spread, summary, within_bound, worse_by
from .workloads import Prepared, Unit, VerificationError, accuracy, slo_met_frac, verify


# -- order statistics and bounds ---------------------------------------------
def test_summary_matches_the_drivers_quartile_rule():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    s = summary(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["median"], s["q3"]) == (q1, q2, q3)
    assert (s["min"], s["max"], s["n"]) == (1.0, 10.0, 10)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_summary_of_one_sample_has_no_spread():
    assert summary([3.5]) == {"median": 3.5, "min": 3.5, "q1": 3.5, "q3": 3.5, "max": 3.5, "n": 1}
    assert spread([3.5]) == 0.0
    with pytest.raises(ValueError):
        summary([])


def test_worse_by_follows_the_metric_direction():
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(2.0, 2.5, "lower") == pytest.approx(0.25)
    assert worse_by(2.0, 1.0, "lower") == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        worse_by(1.0, 1.0, "sideways")
    with pytest.raises(ValueError):
        worse_by(0.0, 1.0, "lower")


def test_within_bound_is_inclusive_and_one_sided():
    assert within_bound(100.0, 90.0, "higher", 0.10)
    assert not within_bound(100.0, 89.0, "higher", 0.10)
    assert within_bound(100.0, 500.0, "higher", 0.10)  # better is never a regression
    assert not within_bound(1.0, 1.3, "lower", 0.25)


# -- span arithmetic -----------------------------------------------------------
def _span(layer, cpu, wall, frames_in=1, frames_out=1, thread=1, parent=ROOT):
    return Span(layer, 10.0, 10.0 + wall, cpu, frames_in, frames_out, "s0", thread, parent=parent)


def test_self_cpu_is_root_minus_children():
    root = _span("runtime.engine", cpu=2.0, wall=1.5, parent=None)
    children = [_span("models.sdd", 0.25, 0.5), _span("models.snm", 0.5, 0.75)]
    assert self_cpu(root, children) == pytest.approx(1.25)
    # The root may sit in the list it is compared against.
    assert self_cpu(root, children + [root]) == pytest.approx(1.25)


def test_layer_rows_plus_overhead_equal_total_cpu():
    frames = 40
    spans = [
        *[_span("video.render", 0.001, 0.003, thread=1) for _ in range(frames)],
        *[_span("models.sdd", 0.004, 0.010, 16, 5, thread=2) for _ in range(3)],
        _span("models.snm", 0.006, 0.006, 15, 4, thread=3),
        *[_span("models.tyolo", 0.002, 0.004, 2, 1, thread=4) for _ in range(2)],
        *[_span("models.reference", 0.003, 0.009, 1, 1, thread=5) for _ in range(2)],
    ]
    root = _span("runtime.engine", cpu=0.200, wall=0.150, parent=None)
    table = layer_table(root, spans, frames)
    layer_cpu = sum(table[f"{layer}.busy_cpu_s"] for layer in registry.LAYERS.values())
    overhead = table["runtime.engine.overhead_cpu_ms_per_frame"] * frames / 1e3
    assert layer_cpu + overhead == pytest.approx(root.cpu)
    assert table["runtime.engine.process_cpu_ms_per_frame"] == pytest.approx(5.0)
    assert table["models.sdd.calls"] == 3
    assert table["models.sdd.frames_in"] == 48
    assert table["models.sdd.frames_out"] == 15
    assert table["models.sdd.mean_batch"] == pytest.approx(16.0)
    assert table["models.sdd.cpu_ms_per_frame"] == pytest.approx(0.25)
    assert table["runtime.engine.threads"] == 5
    assert table["runtime.engine.gil_stall_s"] == pytest.approx(
        sum((s.end - s.start) - s.cpu for s in spans)
    )


def test_layer_without_calls_reads_zero():
    root = _span("runtime.engine", cpu=0.01, wall=0.01, parent=None)
    table = layer_table(root, [_span("video.render", 0.001, 0.001)], 1)
    assert table["models.snm.calls"] == 0
    assert table["models.snm.cpu_ms_per_frame"] == 0.0
    assert table["models.snm.mean_batch"] == 0.0


# -- accuracy and objective on hand-built outcomes -----------------------------
def _outcome(index, stage, ref_count=None, latency=0.01, stream_id="s0"):
    return SimpleNamespace(stream_id=stream_id, index=index, stage=stage,
                           ref_count=ref_count, latency=latency)


class _Stream:
    stream_id = "s0"

    def __init__(self, counts):
        self._counts = np.asarray(counts)

    def gt_counts(self):
        return self._counts

    def scenes(self):
        return scenes_from_counts(self._counts)


def test_slo_met_frac_counts_failed_and_missing_frames_as_misses():
    outcomes = [
        _outcome(0, "sdd", latency=0.010),
        _outcome(1, "ref", 1, latency=0.100),  # on the limit: met
        _outcome(2, "ref", 1, latency=0.101),
        _outcome(3, "dropped", latency=0.001),
        _outcome(4, "aborted", latency=0.001),
    ]
    # Six offered, five outcomes: the sixth never got one.
    assert slo_met_frac(outcomes, 6, 0.100) == pytest.approx(2 / 6)
    assert slo_met_frac(outcomes, 6, None) == pytest.approx(3 / 6)


def test_scene_and_frame_accuracy_against_ground_truth():
    #          scene A        scene B     scene C (cut by n_frames)
    counts = [0, 1, 1, 0, 0, 2, 2, 2, 0, 1, 1, 1]
    stream = _Stream(counts)
    n = 10
    outcomes = [_outcome(i, "sdd") for i in (0, 3, 4, 8)]
    outcomes += [_outcome(1, "snm"), _outcome(2, "ref", 1)]  # A kept by frame 2
    outcomes += [_outcome(5, "tyolo"), _outcome(6, "ref", 0), _outcome(7, "snm")]  # B: reached, counted empty
    outcomes += [_outcome(9, "snm")]  # C's only offered frame filtered
    acc = accuracy(outcomes, [stream], n, "ref", 1)
    assert acc["scenes"] == 3
    assert acc["scene_recall"] == pytest.approx(1 / 3)
    assert acc["scene_kept_frac"] == pytest.approx(1 - (3 + 1) / n)
    # Positive frames that never reached the terminal stage: 1, 5, 7, 9.
    assert acc["frame_error_rate"] == pytest.approx(4 / n)


def test_number_of_objects_raises_the_bar_for_a_kept_scene():
    stream = _Stream([0, 2, 2, 0])
    outcomes = [_outcome(0, "sdd"), _outcome(1, "ref", 1), _outcome(2, "ref", 1), _outcome(3, "sdd")]
    assert accuracy(outcomes, [stream], 4, "ref", 1)["scene_recall"] == 1.0
    assert accuracy(outcomes, [stream], 4, "ref", 2)["scene_recall"] == 0.0


# -- verification ------------------------------------------------------------------
def _engine_unit(offered, stages, *, outcomes=None, failed=0):
    m = RunMetrics(frames_offered=offered,
                   stages={name: StageCounters(*c) for name, c in stages.items()})
    return Unit(offered, failed, m, {}, outcomes=[None] * (offered if outcomes is None else outcomes))


def _engine_prep():
    return Prepared(registry.WORKLOADS[0], None, [], None, [])


@pytest.mark.parametrize("unit, message", [
    (_engine_unit(10, {"sdd": (10, 4, 6), "ref": (4, 4, 0)}, failed=2), "aborted, dropped"),
    (_engine_unit(10, {"sdd": (10, 4, 6), "ref": (4, 4, 0)}, outcomes=9), "9 outcomes for 10"),
    (_engine_unit(10, {"sdd": (9, 4, 5), "ref": (4, 4, 0)}), "first stage did not see every frame"),
    (_engine_unit(10, {"sdd": (10, 4, 6), "ref": (3, 3, 0)}), "ref entered 3 != sdd passed 4"),
])
def test_verify_names_the_wrong_output(unit, message):
    with pytest.raises(VerificationError, match=message):
        verify(_engine_prep(), [unit])


def test_verify_wants_identical_counters_across_units():
    a = _engine_unit(10, {"sdd": (10, 4, 6), "ref": (4, 4, 0)})
    b = _engine_unit(10, {"sdd": (10, 5, 5), "ref": (5, 5, 0)})
    with pytest.raises(VerificationError, match="differ between repeats"):
        verify(_engine_prep(), [a, b])


# -- registry against the contract ---------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_meets_the_contract_limits():
    doc = registry.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_committed_manifest_is_the_registry():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    assert json.loads(path.read_text()) == registry.manifest()


def test_quick_sizes_keep_every_code_path():
    for w in registry.WORKLOADS:
        q = registry.quick(w)
        assert (q.name, q.kind, q.tor, q.config, q.paced_fps) == (w.name, w.kind, w.tor, w.config, w.paced_fps)
        assert q.run_frames <= q.clip_frames <= w.clip_frames
