"""The cascade kernel, driven by a fake driver: no threads, no event heap.

Both runtimes are thin clocks around :class:`repro.core.kernel.CascadeKernel`;
these tests pin the kernel's own contract (what one settled batch does to
counters, events, histograms, store rows and the planner) and the boundary
that keeps it the only place that behaviour is written.
"""

import ast
from pathlib import Path

import pytest

from repro.core.config import FFSVAConfig
from repro.core.kernel import CascadeKernel, StreamInfo
from repro.core.pipeline import REF, SDD, SNM, TYOLO
from repro.obs import Telemetry

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class _ListStore:
    """A detection store that keeps its rows in memory."""

    def __init__(self):
        self.rows = []

    def append(self, record):
        self.rows.append(record)


class _FakeQueue:
    def __init__(self, depth, name):
        self.depth, self.name, self.high_water, self.items = depth, name, 0, []

    def __len__(self):
        return len(self.items)


def _kernel(config=None, **kwargs):
    kernel = CascadeKernel(config, telemetry=Telemetry(), store=_ListStore(), **kwargs)
    for i in range(2):
        kernel.add_stream(StreamInfo(f"cam-{i}", fps=30.0, kind="car"))
    queues = {
        spec.name: kernel.make_queues(spec, _FakeQueue, range(2)) for spec in kernel.graph
    }
    return kernel, queues


def _events(kernel):
    return [(e.kind, e.stage, e.stream, e.frame) for e in kernel.telemetry.bus.events()]


class TestConstruction:
    def test_queues_follow_the_graph_and_config(self):
        kernel, queues = _kernel()
        assert [q.name for q in queues[SDD]] == ["sdd[0]", "sdd[1]"]
        assert [q.name for q in queues[REF]] == ["ref"]  # merged: one queue
        assert queues[SNM][0].depth == kernel.config.queue_depth(SNM)
        assert queues[REF][0].depth is None  # Section 5.5 overflow-to-storage
        assert len(kernel.queues) == 7
        assert kernel.metrics.n_streams == 2 and list(kernel.metrics.stages) == [
            SDD, SNM, TYOLO, REF,
        ]

    def test_static_batching_runs_unbounded(self):
        _, queues = _kernel(FFSVAConfig(batch_policy="static"))
        assert all(q.depth is None for qs in queues.values() for q in qs)

    def test_reserve_slot_is_filled_later(self):
        kernel, _ = _kernel()
        slot = kernel.add_stream(None)
        assert kernel.metrics.n_streams == 2
        assert "cam-9" not in kernel.lineage_context()["streams"]
        kernel.add_stream(StreamInfo("cam-9", 30.0, "car"), slot)
        assert kernel.metrics.n_streams == 3
        assert kernel.lineage_context()["streams"]["cam-9"] == {"index": slot, "offset": 0}

    def test_adaptive_needs_a_merged_terminal(self):
        from dataclasses import replace

        from repro.core.pipeline import PER_STREAM, StageGraph, ffs_va_graph

        specs = list(ffs_va_graph())
        specs[-1] = replace(specs[-1], fan_in=PER_STREAM)
        with pytest.raises(ValueError, match="merged terminal"):
            CascadeKernel(FFSVAConfig(plan="adaptive"), StageGraph(specs))


class TestSettlement:
    def test_mixed_pass_filter_batch(self):
        kernel, _ = _kernel()
        sdd = kernel.graph[SDD]
        frames = [(0, 0), (0, 1), (0, 2)]
        for s, f in frames:
            kernel.entered(SDD, s, f, 0.5, admitted=True)
        kernel.settle(sdd, frames, [True, False, True], 1.0, 1.25, 0.25, device="cpu0")

        c = kernel.metrics.stages[SDD]
        assert (c.entered, c.passed, c.filtered) == (3, 2, 1)
        assert kernel.first_pass == [2, 0]
        assert kernel.busy == {"cpu0": 0.25}
        assert kernel.stream_costs([0, 1]) == {"cam-0": 2, "cam-1": 0}
        assert _events(kernel) == [
            ("admission", SDD, 0, 0), ("frame_enter", SDD, 0, 0),
            ("admission", SDD, 0, 1), ("frame_enter", SDD, 0, 1),
            ("admission", SDD, 0, 2), ("frame_enter", SDD, 0, 2),
            ("batch_exec", SDD, 0, None),
            ("frame_pass", SDD, 0, 0), ("frame_filter", SDD, 0, 1), ("frame_pass", SDD, 0, 2),
        ]
        hists = kernel.telemetry.histograms
        (wait,) = hists["stage_wait_seconds"].values()
        assert wait.count == 3 and wait.sum == pytest.approx(1.5)  # 3 x (1.0 - 0.5)
        (service,) = hists["stage_service_seconds"].values()
        assert service.count == 3 and service.sum == pytest.approx(0.75)
        assert not any(kernel.enter_t.values())  # every stamp was consumed

        # The driver then moves the batch: survivors to the next stage, the
        # filtered frame to its record.
        assert kernel.target(sdd, 0, 0).name == SNM
        kernel.record(0, 1, SDD, latency=0.75)
        (row,) = kernel.store.rows
        assert (row.stream, row.frame, row.disposition, row.score) == ("cam-0", 1, SDD, 0.0)
        assert row.t == pytest.approx(1 / 30.0)

    def test_terminal_batch(self):
        kernel, _ = _kernel()
        ref = kernel.graph[REF]
        kernel.settle(ref, [(0, 7), (1, 3)], [True, True], 2.0, 2.5, 0.5)
        c = kernel.metrics.stages[REF]
        assert (c.entered, c.passed, c.filtered) == (2, 2, 0)
        assert kernel.first_pass == [0, 0]  # ref is not the first stage
        assert kernel.busy == {}  # no device named: the driver charges it itself
        assert _events(kernel) == [
            ("batch_exec", REF, None, None),  # merged: no lead stream
            ("frame_pass", REF, 0, 7),
            ("frame_pass", REF, 1, 3),
        ]
        kernel.record(0, 7, REF, latency=0.9, score=2.0)
        kernel.record(1, 3, REF, latency=0.8, score=0.0)
        assert [(r.stream, r.frame, r.score, r.disposition) for r in kernel.store.rows] == [
            ("cam-0", 7, 2.0, REF), ("cam-1", 3, 0.0, REF),
        ]
        (latency,) = kernel.telemetry.histograms["frame_latency_seconds"].values()
        assert latency.count == 2

    def test_attached_tail_rows_carry_global_frame_numbers(self):
        kernel, _ = _kernel()
        tail = kernel.add_stream(StreamInfo("cam-0", 30.0, "car", offset=120))
        kernel.record(tail, 3, REF, latency=0.1, score=1.0)
        (row,) = kernel.store.rows
        assert (row.frame, row.t) == (123, pytest.approx(123 / 30.0))
        assert kernel.lineage_context()["streams"]["cam-0"]["offset"] == 120

    def test_finish_reports_the_shared_tail(self):
        kernel, queues = _kernel()
        queues[SNM][1].high_water = 4
        kernel.settle(kernel.graph[SDD], [(0, 0)], [True], 0.0, 1.0, 1.0, device="cpu0")
        kernel.sweep(1.0, force=True)
        m = kernel.finish(2.0)
        assert m.duration == 2.0 and m.device_utilization == {"cpu0": 0.5}
        assert m.queue_high_water["snm[1]"] == 4 and len(m.queue_high_water) == 7
        assert {"telemetry", "admission", "lineage"} <= set(m.extra)
        assert "qplan" not in m.extra
        assert "queue_depth[ref]" in kernel.sampler.names


class TestPlanner:
    CONFIG = FFSVAConfig(plan="adaptive", plan_epoch=4, plan_hysteresis=1)

    def test_observe_first_precedes_routing_across_a_chunk_boundary(self):
        kernel, _ = _kernel(self.CONFIG)
        sdd, terminal = kernel.graph[SDD], kernel.graph.terminal
        log = []
        observe = kernel.planner.observe_first
        kernel.planner.observe_first = lambda *a: (log.append("observe"), observe(*a))

        # One SDD batch spanning chunk 0 (frames 0-3, all filtered: a quiet
        # scene) and the first two frames of chunk 1, which pass.
        frames = [(0, f) for f in range(6)]
        passes = [False] * 4 + [True, True]
        assert kernel.target(sdd, 0, 4).name == SNM  # no plan for chunk 1 yet
        kernel.settle(sdd, frames, passes, 0.0, 0.1, 0.1)
        targets = []
        for (s, f), ok in zip(frames, passes):
            if ok:
                log.append("route")
                targets.append(kernel.target(sdd, s, f))
        # Chunk 0 closed inside the batch; its plan (quiet: stop filtering
        # after SDD) was decided before the first chunk-1 frame was routed.
        assert log == ["observe", "route", "route"]
        assert targets == [terminal, terminal]
        assert kernel.planner.decision_labels()[0][:3] == (0, 1, "quiet")
        assert kernel.finish(1.0).extra["qplan"]["streams"]["cam-0"]["depth"] == SDD

    def test_snm_batches_split_at_chunk_boundaries_only(self):
        kernel, _ = _kernel(self.CONFIG)
        snm = kernel.graph[SNM]
        frames = [(0, 2), (0, 3), (1, 0), (0, 4), (0, 5)]
        assert kernel.plan_groups(snm, frames) == [frames[:3], frames[3:]]
        assert kernel.plan_groups(kernel.graph[TYOLO], frames) == [frames]
        static, _ = _kernel()
        assert static.plan_groups(static.graph[SNM], frames) == [frames]

    def test_private_sampler_feeds_adaptive_batching_without_telemetry(self):
        kernel = CascadeKernel(self.CONFIG.with_(adaptive_batching=True, batch_size=8))
        assert kernel.telemetry is None and kernel.sampler is kernel.planner.sampler
        (snm_q,) = kernel.make_queues(kernel.graph[SNM], _FakeQueue, range(1))
        snm_q.items = [None] * 3
        assert kernel.batch_size() == 8
        kernel.sweep(0.1)
        assert kernel.batch_size() == 3  # follows the sampled SNM queue depth
        assert CascadeKernel(FFSVAConfig()).sampler is None  # nothing to sweep


class TestBoundary:
    """The drivers own clocks, not behaviour: they import none of the
    control-plane classes, and each shared decision is defined once."""

    KERNEL_OWNED = {
        "DetectionRecord", "DetStore", "AdmissionController", "QueryPlanner", "lineage_section",
    }

    @pytest.mark.parametrize("module", ["runtime/engine.py", "sim/simulator.py"])
    def test_drivers_import_no_control_plane_classes(self, module):
        imported = set()
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.name.split(".")[-1] for alias in node.names}
        assert not imported & self.KERNEL_OWNED

    @pytest.mark.parametrize(
        "needle", ["def _depth_for", "def _sample(", "def lineage_context", "DetectionRecord("]
    )
    def test_shared_decisions_are_written_once(self, needle):
        files = [SRC / "core" / "kernel.py"]
        for package in ("runtime", "sim", "baseline"):
            files += sorted((SRC / package).glob("*.py"))
        hits = {f.name: f.read_text().count(needle) for f in files}
        assert {name: n for name, n in hits.items() if n} == {"kernel.py": 1}
