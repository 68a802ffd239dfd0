"""Tests for the simulator's event recording (execution trace)."""

import pytest

from repro.core import FFSVAConfig
from repro.sim import PipelineSimulator

from tests.helpers import make_synth_trace


def run_with_events(n=300, **cfg_kwargs):
    sim = PipelineSimulator(
        [make_synth_trace(n, 0.8, 0.4, 0.2, seed=3)],
        FFSVAConfig(**cfg_kwargs),
        online=False,
        record_events=True,
    )
    metrics = sim.run()
    return sim, metrics


class TestEventRecording:
    def test_disabled_by_default(self):
        sim = PipelineSimulator(
            [make_synth_trace(50, 1.0, 1.0, 1.0)], FFSVAConfig(), online=False
        )
        sim.run()
        assert sim.events == []

    def test_events_cover_all_stage_work(self):
        sim, metrics = run_with_events()
        per_stage = {}
        for _s, _e, _dev, stage, _idx, n, _np in sim.events:
            per_stage[stage] = per_stage.get(stage, 0) + n
        for stage in ("sdd", "snm", "tyolo", "ref"):
            assert per_stage.get(stage, 0) == metrics.stages[stage].entered

    def test_no_device_overlap(self):
        sim, _ = run_with_events()
        spans = {}
        for start, end, dev, *_ in sim.events:
            spans.setdefault(dev, []).append((start, end))
        for dev, intervals in spans.items():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-12, f"{dev} services overlap"

    def test_events_respect_placement(self):
        sim, _ = run_with_events()
        for _s, _e, dev, stage, *_ in sim.events:
            if stage == "sdd":
                assert dev == "cpu0"
            elif stage in ("snm", "tyolo"):
                assert dev == "gpu0"
            else:
                assert dev == "gpu1"

    def test_durations_match_cost_model(self):
        sim, _ = run_with_events()
        for start, end, _dev, stage, _idx, n, _np in sim.events:
            expected = sim.costs.service_time(stage, n)
            assert end - start == pytest.approx(expected, rel=1e-9)

    def test_busy_time_equals_event_time(self):
        sim, metrics = run_with_events()
        by_dev = {}
        for start, end, dev, *_ in sim.events:
            by_dev[dev] = by_dev.get(dev, 0.0) + (end - start)
        for name, dev_busy in by_dev.items():
            recorded = metrics.device_utilization[name] * metrics.duration
            assert recorded == pytest.approx(dev_busy, rel=1e-6)


class TestPaperReferenceBatch:
    """The paper's YOLOv2 runs one frame per call, whatever the reference
    stage's batch rule lets the threaded engine take."""

    def test_every_reference_service_is_one_frame(self):
        traces = [make_synth_trace(400, 1.0, 1.0, 0.9, seed=s, stream_id=f"s{s}") for s in range(3)]
        sim = PipelineSimulator(traces, FFSVAConfig(), online=False, record_events=True)
        m = sim.run()
        sizes = [ev[5] for ev in sim.events if ev[3] == "ref"]
        assert len(sizes) == m.frames_to_ref > 0
        assert set(sizes) == {1}
        # A backlog formed, so a batch rule alone would have batched it.
        assert m.queue_high_water["ref"] > 1
