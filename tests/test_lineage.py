"""Frame lineage & critical-path latency attribution (repro.obs.lineage).

The lineage reconstructor folds both runtimes' event streams into per-frame
hop tables (queue_wait / batch_wait / service per stage) and a critical-path
summary.  These tests pin down:

* the decomposition's partition property — component sums equal the
  recorded end-to-end latency (exactly in the simulator; in the threaded
  runtime within 2 ms when paced, where admission and latency both start
  at the frame's due time, and within a measurement tolerance offline,
  where the recorded latency starts as the first stage renders the frame,
  before its chunk's admission is stamped);
* cross-runtime structural equivalence — the same workload produces the
  same hop sequence and dispositions under real threads and the virtual
  clock (the lineage-level extension of the stage-counter guarantee);
* the incompleteness contract — ring eviction yields ``incomplete=True``
  with the surviving hops reported and waits never fabricated;
* the histogram satellites — ``merge`` for cluster-wide aggregation and
  the negative/NaN ``skew_clamped`` guard.
"""

import json
import math
import statistics

import pytest

from repro.core import FFSVAConfig, build_trace
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.obs import (
    EventBus,
    LatencyHistogram,
    Telemetry,
    build_all_lineages,
    build_lineage,
    critical_path_summary,
)
from repro.obs.export import _lineage_reply
from repro.obs.lineage import WAIT_RESOLUTION
from repro.runtime import ThreadedPipeline
from repro.sim import PipelineSimulator
from repro.video import jackson, make_stream
from tests.helpers import make_synth_trace

N_FRAMES = 240


# ---------------------------------------------------------------------------
# histogram satellites: merge + skew clamp
# ---------------------------------------------------------------------------
class TestHistogramGuards:
    def test_negative_and_nan_clamped(self):
        h = LatencyHistogram()
        h.observe(-0.5)
        h.observe(float("nan"))
        h.observe(0.01)
        assert h.count == 3
        assert h.skew_clamped == 2
        # Clamped observations land in the first bucket, not a phantom one.
        assert h.counts[0] == 2
        assert h.sum == pytest.approx(0.01)
        assert h.to_dict()["skew_clamped"] == 2

    def test_merge_identity(self):
        h = LatencyHistogram()
        for v in (0.002, 0.04, 3.0):
            h.observe(v)
        before = h.to_dict()
        h.merge(LatencyHistogram())
        assert h.to_dict() == before

    def test_merge_sums_elementwise(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for v in (0.002, 0.3):
            a.observe(v)
        for v in (0.002, 20.0, -1.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.inf == 1  # 20.0 is above the largest default bound
        assert a.skew_clamped == 1
        assert a.sum == pytest.approx(0.002 + 0.3 + 0.002 + 20.0)

    def test_from_dict_roundtrip(self):
        h = LatencyHistogram()
        for v in (-2.0, 0.004, 7.5):
            h.observe(v)
        assert LatencyHistogram.from_dict(h.to_dict()).to_dict() == h.to_dict()
        # Old snapshots without the field default to zero.
        d = h.to_dict()
        del d["skew_clamped"]
        assert LatencyHistogram.from_dict(d).skew_clamped == 0

    def test_merge_rejects_bound_mismatch(self):
        with pytest.raises(ValueError, match="different bounds"):
            LatencyHistogram().merge(LatencyHistogram(bounds=(0.1, 1.0)))


# ---------------------------------------------------------------------------
# folding unit tests on hand-built event streams
# ---------------------------------------------------------------------------
def _story(bus):
    """One frame's full story: sdd (batch of 2) -> snm (blocked once)."""
    bus.emit("admission", 1.0, "sdd", stream=0, frame=7)
    bus.emit("frame_enter", 1.0, "sdd", stream=0, frame=7)
    bus.emit("frame_enter", 1.2, "sdd", stream=0, frame=8)  # co-member
    bus.emit("batch_exec", 2.0, "sdd", stream=0, n=2, t_start=1.5)
    bus.emit("frame_pass", 2.0, "sdd", stream=0, frame=7, t_start=1.5)
    bus.emit("frame_pass", 2.0, "sdd", stream=0, frame=8, t_start=1.5)
    bus.emit("frame_enter", 2.0, "snm", stream=0, frame=7)
    bus.emit("queue_block", 2.3, "snm", stream=0, frame=7, n=4)
    bus.emit("batch_exec", 3.0, "snm", stream=0, n=1, t_start=2.5)
    bus.emit("frame_filter", 3.0, "snm", stream=0, frame=7, t_start=2.5)


class TestLineageFold:
    def test_decomposition(self):
        bus = EventBus()
        _story(bus)
        lin = build_lineage(bus.events(), 0, 7, terminal="ref")
        assert lin.found and not lin.incomplete
        assert lin.t_admitted == 1.0
        assert [h.stage for h in lin.hops] == ["sdd", "snm"]
        sdd, snm = lin.hops
        # Frame 8 entered at 1.2 and shares the batch: frame 7's first
        # 0.2s is batch formation, the next 0.3s the formed batch queueing.
        assert sdd.batch_wait == pytest.approx(0.2)
        assert sdd.queue_wait == pytest.approx(0.3)
        assert sdd.service == pytest.approx(0.5)
        assert sdd.batch_size == 2 and sdd.batch_id == 0
        assert sdd.disposition == "pass"
        assert snm.gap == pytest.approx(0.0)  # entered snm as sdd finished
        assert snm.batch_wait == pytest.approx(0.0)  # sole member
        assert snm.queue_wait == pytest.approx(0.5)
        assert snm.blocked == 1
        assert snm.disposition == "filtered"
        assert lin.disposition == "filtered"
        # Partition: components sum exactly to last_end - t_admitted.
        assert lin.totals()["total"] == pytest.approx(lin.total_latency)
        assert lin.total_latency == pytest.approx(2.0)

    def test_terminal_maps_to_analyzed(self):
        bus = EventBus()
        bus.emit("admission", 0.0, "ref", stream=1, frame=0)
        bus.emit("frame_enter", 0.0, "ref", stream=1, frame=0)
        bus.emit("batch_exec", 0.4, "ref", stream=1, n=1, t_start=0.1)
        bus.emit("frame_pass", 0.4, "ref", stream=1, frame=0, t_start=0.1)
        lin = build_lineage(bus.events(), 1, 0, terminal="ref")
        assert lin.disposition == "analyzed"

    def test_missing_frame_not_found(self):
        bus = EventBus()
        _story(bus)
        lin = build_lineage(bus.events(), 0, 99, terminal="ref")
        assert not lin.found and lin.hops == []

    def test_ring_eviction_marks_incomplete(self):
        # A 4-slot ring evicts the admission and the sdd/co-member enters;
        # the surviving hops are still reported, with honest zero waits on
        # the hop whose enter was lost.
        bus = EventBus(capacity=4)
        bus.emit("admission", 1.0, "sdd", stream=0, frame=7)
        bus.emit("frame_enter", 1.0, "sdd", stream=0, frame=7)
        bus.emit("batch_exec", 2.0, "sdd", stream=0, n=1, t_start=1.5)
        bus.emit("frame_pass", 2.0, "sdd", stream=0, frame=7, t_start=1.5)
        bus.emit("frame_enter", 2.0, "snm", stream=0, frame=7)
        bus.emit("batch_exec", 3.0, "snm", stream=0, n=1, t_start=2.5)
        bus.emit("frame_filter", 3.0, "snm", stream=0, frame=7, t_start=2.5)
        assert bus.dropped == 3
        lin = build_lineage(bus.events(), 0, 7, terminal="ref",
                            dropped=bus.dropped)
        assert lin.found and lin.incomplete
        assert lin.t_admitted is None
        assert [h.stage for h in lin.hops] == ["sdd", "snm"]
        evicted, survived = lin.hops
        assert not evicted.complete
        assert evicted.batch_wait == 0.0 and evicted.queue_wait == 0.0
        assert evicted.service == pytest.approx(0.5)  # batch window survives
        assert survived.complete
        assert survived.queue_wait == pytest.approx(0.5)
        # Incomplete lineages are excluded from attribution, but counted.
        summary = critical_path_summary(bus.events(), terminal="ref",
                                        dropped=bus.dropped)
        assert summary["frames"] == 1
        assert summary["complete"] == 0
        assert summary["incomplete"] == 1
        assert summary["dropped_events"] == 3

    def test_lineage_reply_warns_on_drops(self):
        tel = Telemetry(capacity=4)
        bus = tel.bus
        bus.emit("admission", 1.0, "sdd", stream=0, frame=7)
        bus.emit("frame_enter", 1.0, "sdd", stream=0, frame=7)
        bus.emit("batch_exec", 2.0, "sdd", stream=0, n=1, t_start=1.5)
        bus.emit("frame_pass", 2.0, "sdd", stream=0, frame=7, t_start=1.5)
        bus.emit("frame_enter", 2.0, "snm", stream=0, frame=7)
        bus.emit("batch_exec", 3.0, "snm", stream=0, n=1, t_start=2.5)
        bus.emit("frame_filter", 3.0, "snm", stream=0, frame=7, t_start=2.5)
        status, _, payload = _lineage_reply(
            tel, None, {"stream": ["0"], "frame": ["7"]}
        )
        body = json.loads(payload)
        assert status == 200
        assert body["incomplete"] is True
        assert "evicted" in body["warning"]
        assert len(body["hops"]) == 2
        # The summary form carries the warning too.
        status, _, payload = _lineage_reply(tel, None, {})
        assert status == 200
        assert "evicted" in json.loads(payload)["warning"]

    def test_lineage_reply_unknown_frame_404(self):
        tel = Telemetry()
        tel.bus.emit("admission", 0.0, "sdd", stream=0, frame=0)
        status, _, payload = _lineage_reply(
            tel, None, {"stream": ["0"], "frame": ["55"]}
        )
        assert status == 404
        assert json.loads(payload)["found"] is False


# ---------------------------------------------------------------------------
# simulator end-to-end (synthetic trace; no training, fully deterministic)
# ---------------------------------------------------------------------------
class TestSimLineage:
    def _run(self):
        trace = make_synth_trace(200, 0.6, 0.3, 0.15, seed=3, with_ref=True)
        tel = Telemetry()
        config = FFSVAConfig()
        sim = PipelineSimulator([trace], config, online=False, telemetry=tel)
        m = sim.run()
        terminal = config.graph().terminal.name
        return sim, tel, m, terminal

    def test_partition_is_exact_offline(self):
        sim, tel, m, terminal = self._run()
        assert m.frames_ingested == 200
        lineages = build_all_lineages(tel.bus.events(), terminal=terminal)
        assert len(lineages) == 200
        assert all(not lin.incomplete for lin in lineages)
        for lin in lineages:
            assert lin.totals()["total"] == pytest.approx(
                lin.total_latency, abs=1e-9
            )
        # The lineage totals ARE the recorded latency samples: offline the
        # simulator measures latency from the admission timestamp.
        mean_lineage = statistics.mean(lin.total_latency for lin in lineages)
        assert mean_lineage == pytest.approx(m.frame_latency.mean, rel=1e-9)

    def test_metrics_carry_lineage_section(self):
        sim, tel, m, terminal = self._run()
        section = m.extra["lineage"]
        assert section["frames"] == 200
        assert section["complete"] == 200
        assert section["components"]
        shares = sum(c["share"] for c in section["components"].values())
        assert shares == pytest.approx(1.0)
        for q in ("p50", "p95", "p99"):
            info = section["quantiles"][q]
            assert info["top"] in info["breakdown"]
        assert (
            section["quantiles"]["p50"]["latency_s"]
            <= section["quantiles"]["p99"]["latency_s"]
        )

    def test_deterministic(self):
        _, tel_a, m_a, terminal = self._run()
        _, tel_b, m_b, _ = self._run()
        la = build_all_lineages(tel_a.bus.events(), terminal=terminal)
        lb = build_all_lineages(tel_b.bus.events(), terminal=terminal)
        assert [lin.structure() for lin in la] == [lin.structure() for lin in lb]
        assert m_a.extra["lineage"] == m_b.extra["lineage"]

    def test_wait_flags_under_load(self):
        # Ten identical streams through one virtual server: the cascade is
        # saturated, so away from warmup frames genuinely wait somewhere.
        trace = make_synth_trace(120, 0.6, 0.3, 0.15, seed=5, with_ref=True)
        traces = [trace.renamed(f"s{i}") for i in range(10)]
        tel = Telemetry()
        config = FFSVAConfig()
        sim = PipelineSimulator(traces, config, online=False, telemetry=tel)
        sim.run()
        lineages = build_all_lineages(
            tel.bus.events(), terminal=config.graph().terminal.name
        )
        late = [
            lin for lin in lineages if lin.frame >= 40 and not lin.incomplete
        ]
        assert late
        waited = sum(any(h.waited for h in lin.hops) for lin in late)
        assert waited / len(late) > 0.5
        # And the flag itself honours the resolution floor.
        for lin in lineages:
            for h in lin.hops:
                expected = (h.batch_wait + h.queue_wait + h.gap) > WAIT_RESOLUTION
                assert h.waited == expected


# ---------------------------------------------------------------------------
# cross-runtime structural equivalence (real models, both executors)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet():
    """Two small trained streams plus their traces (one model zoo)."""
    zoo = ModelZoo()
    streams, traces = [], []
    for i, tor in enumerate((0.25, 0.45)):
        stream = make_stream(jackson(), N_FRAMES, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=120,
            stride=2,
            train_config=TrainConfig(epochs=6, batch_size=32, seed=7),
        )
        streams.append(stream)
        traces.append(build_trace(stream, zoo))
    return streams, traces, zoo


class TestCrossRuntimeLineage:
    @pytest.fixture(scope="class")
    def both(self, fleet):
        streams, traces, zoo = fleet
        config = FFSVAConfig()
        tel_r, tel_s = Telemetry(), Telemetry()
        pipe = ThreadedPipeline(streams, zoo, config, telemetry=tel_r)
        m_real = pipe.run()
        sim = PipelineSimulator(traces, config, online=False, telemetry=tel_s)
        m_sim = sim.run()
        terminal = config.graph().terminal.name
        real = {
            (lin.stream, lin.frame): lin
            for lin in build_all_lineages(
                tel_r.bus.events(), terminal=terminal, dropped=tel_r.bus.dropped
            )
        }
        simulated = {
            (lin.stream, lin.frame): lin
            for lin in build_all_lineages(
                tel_s.bus.events(), terminal=terminal, dropped=tel_s.bus.dropped
            )
        }
        return pipe, m_real, real, m_sim, simulated

    def test_every_frame_reconstructed(self, both):
        pipe, m_real, real, m_sim, simulated = both
        assert set(real) == set(simulated)
        assert len(real) == 2 * N_FRAMES
        assert all(not lin.incomplete for lin in real.values())
        assert all(not lin.incomplete for lin in simulated.values())

    def test_hop_sequences_and_dispositions_match(self, both):
        _, _, real, _, simulated = both
        for key, lin in real.items():
            assert [(h.stage, h.disposition) for h in lin.hops] == [
                (h.stage, h.disposition) for h in simulated[key].hops
            ], f"frame {key} diverged"

    @staticmethod
    def _waiting_stages(lineages):
        """Stages (past ingest) where the majority of visiting frames
        waited beyond the resolution floor."""
        hits: dict[str, list[int]] = {}
        for lin in lineages.values():
            for hop in lin.hops[1:]:
                w, n = hits.setdefault(hop.stage, [0, 0])
                hits[hop.stage] = [w + hop.waited, n + 1]
        return {stage for stage, (w, n) in hits.items() if w / n > 0.5}

    def test_wait_structure_matches_past_ingest(self, both):
        # Per-hop wait *magnitudes* are runtime-specific (real compute vs
        # the calibrated cost model shape the queues differently), and the
        # first hop additionally measures ingest back-pressure (real decode
        # paces the threaded first stage; the simulator replays a trace
        # instantly).  What is structural — and gated here — is *where*
        # waiting happens: past ingest, the same stages are
        # majority-waiting under both executors.
        _, _, real, _, simulated = both
        assert self._waiting_stages(real) == self._waiting_stages(simulated)
        # And within each runtime the flag honours the resolution floor.
        for lineages in (real, simulated):
            for lin in lineages.values():
                for h in lin.hops:
                    assert h.waited == (
                        (h.batch_wait + h.queue_wait + h.gap) > WAIT_RESOLUTION
                    )

    def test_threaded_partition_matches_recorded_latency(self, both):
        pipe, m_real, real, _, _ = both
        ctx = pipe.lineage_context()
        by_index = {v["index"]: sid for sid, v in ctx["streams"].items()}
        outcomes = {(o.stream_id, o.index): o for o in pipe.outcomes}
        diffs = []
        for (s_idx, frame), lin in real.items():
            outcome = outcomes[(by_index[s_idx], frame)]
            diffs.append(abs(lin.totals()["total"] - outcome.latency))
        # Offline the recorded clock starts as the first stage renders the
        # frame (before its chunk's admission is stamped), so the lineage
        # partition undershoots by the rest of the chunk's render; both
        # must stay within a modest measurement tolerance.
        assert max(diffs) < 0.5
        assert statistics.mean(diffs) < 0.1

    @pytest.fixture(scope="class")
    def paced(self, fleet):
        """A paced threaded run (80 fps: 5-frame first-stage holds)."""
        streams, _, zoo = fleet
        config = FFSVAConfig()
        tel = Telemetry()
        pipe = ThreadedPipeline(streams, zoo, config, telemetry=tel)
        pipe.run(online=True, paced_fps=80.0)
        lineages = build_all_lineages(
            tel.bus.events(), terminal=config.graph().terminal.name, dropped=tel.bus.dropped
        )
        return pipe, lineages

    def test_threaded_paced_partition_matches_recorded_latency(self, paced):
        # Paced, the first stage's admission is stamped at each frame's due
        # time, the same origin as its recorded latency: the partition
        # covers the hold and any source lateness, so nothing undershoots.
        pipe, lineages = paced
        ctx = pipe.lineage_context()
        by_index = {v["index"]: sid for sid, v in ctx["streams"].items()}
        outcomes = {(o.stream_id, o.index): o for o in pipe.outcomes}
        assert len(lineages) == len(outcomes) == 2 * N_FRAMES
        for lin in lineages:
            outcome = outcomes[(by_index[lin.stream], lin.frame)]
            assert lin.totals()["total"] == pytest.approx(outcome.latency, abs=0.002)

    def test_sim_partition_matches_recorded_latency(self, both):
        _, _, _, m_sim, simulated = both
        for lin in simulated.values():
            assert lin.totals()["total"] == pytest.approx(
                lin.total_latency, abs=1e-9
            )
        mean_lineage = statistics.mean(
            lin.total_latency for lin in simulated.values()
        )
        assert mean_lineage == pytest.approx(m_sim.frame_latency.mean, rel=1e-9)
