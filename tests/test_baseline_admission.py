"""Tests for the YOLOv2 baseline simulator and admission control."""

import pytest

from repro.baseline import baseline_offline, baseline_online
from repro.core.admission import (
    AdmissionController,
    InstanceGroup,
    max_realtime_streams,
)
from repro.core.config import FFSVAConfig
from repro.core.metrics import RunMetrics
from repro.obs import Telemetry
from repro.sim import simulate_online

from tests.helpers import make_synth_trace


def traces_for(n_streams, n=900, seed=0):
    return [
        make_synth_trace(n, 0.7, 0.18, 0.10, seed=seed + i, stream_id=f"s{i}")
        for i in range(n_streams)
    ]


class TestBaseline:
    def test_offline_throughput_matches_two_gpus(self):
        # Two GPUs at ~56 FPS end-to-end each -> ~112 FPS aggregate.
        m = baseline_offline(traces_for(1, n=2000))
        assert 100 < m.throughput_fps < 135

    def test_every_frame_reaches_ref(self):
        m = baseline_offline(traces_for(2, n=500))
        assert m.frames_to_ref == 1000

    def test_online_four_streams_realtime(self):
        # The paper: commodity dual-GPU servers run up to four-way YOLOv2.
        m = baseline_online(traces_for(3))
        assert m.realtime()

    def test_online_many_streams_overloaded(self):
        m = baseline_online(traces_for(8))
        assert not m.realtime()

    def test_baseline_max_streams_about_four(self):
        def run(n):
            return baseline_online(traces_for(n, n=600))

        best, _ = max_realtime_streams(run, n_max=12)
        assert 2 <= best <= 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            baseline_offline([])

    def test_utilization_split_across_gpus(self):
        m = baseline_offline(traces_for(1, n=1500))
        u = m.device_utilization
        assert u["gpu0"] > 0.9 and u["gpu1"] > 0.9

    def test_golden_numbers_of_the_dedicated_event_loop(self):
        # The baseline used to be its own hand-written event loop;
        # it is now the ref-only cascade on baseline_placement().  These are
        # that loop's numbers, recorded before it was deleted.
        m = baseline_offline(traces_for(1))
        assert m.duration == pytest.approx(7.805418, abs=1e-6)
        assert m.throughput_fps == pytest.approx(115.305, abs=1e-3)
        assert m.device_utilization["gpu0"] == pytest.approx(1.0)
        assert m.device_utilization["gpu1"] == pytest.approx(1.0)

        m = baseline_online(traces_for(3))
        assert m.duration == pytest.approx(30.001357, abs=1e-6)
        assert m.frames_ingested == 2700 and m.realtime()
        assert m.device_utilization["gpu0"] == pytest.approx(0.7805, abs=1e-4)
        assert m.device_utilization["gpu1"] == pytest.approx(0.7805, abs=1e-4)

        m = baseline_online(traces_for(8))
        assert m.duration == pytest.approx(32.0)
        assert (m.frames_ingested, m.frames_to_ref) == (3698, 3688)
        assert not m.realtime()

        telemetry = Telemetry()
        baseline_online(traces_for(2, n=300), telemetry=telemetry)
        counts = telemetry.bus.counts
        for kind in ("admission", "frame_enter", "batch_exec", "frame_pass"):
            assert counts[kind] == 600, kind

    def test_offline_latency_is_residence_not_clip_length(self):
        # Offline every frame "arrives" at t=0; measuring from there made the
        # mean grow with the clip (3.9 s for 900 frames, 7.8 s for 1800).
        # Measured from ingest it is pipeline residence, whatever the length.
        short = baseline_offline(traces_for(1, n=900)).ref_latency.mean
        long = baseline_offline(traces_for(1, n=1800)).ref_latency.mean
        assert short == pytest.approx(long, rel=0.05)
        assert short < 0.2


class TestAdmissionController:
    def test_needs_full_window(self):
        ctrl = AdmissionController(FFSVAConfig())
        ctrl.observe_tyolo_rate(0.0, 100.0)
        ctrl.observe_tyolo_rate(1.0, 100.0)
        assert not ctrl.can_admit()  # window only 1s of the required 5s

    def test_admits_when_under_threshold(self):
        ctrl = AdmissionController(FFSVAConfig())
        for t in range(7):
            ctrl.observe_tyolo_rate(float(t), 100.0)
        assert ctrl.can_admit()

    def test_refuses_when_over_threshold(self):
        ctrl = AdmissionController(FFSVAConfig())
        for t in range(7):
            ctrl.observe_tyolo_rate(float(t), 150.0)
        assert not ctrl.can_admit()

    def test_single_spike_blocks_admission(self):
        ctrl = AdmissionController(FFSVAConfig())
        for t in range(7):
            ctrl.observe_tyolo_rate(float(t), 100.0 if t != 3 else 200.0)
        assert not ctrl.can_admit()

    def test_window_trims_old_samples(self):
        ctrl = AdmissionController(FFSVAConfig())
        ctrl.observe_tyolo_rate(0.0, 500.0)  # old overload
        for t in range(10, 17):
            ctrl.observe_tyolo_rate(float(t), 100.0)
        assert ctrl.can_admit()

    def test_overload_detection(self):
        ctrl = AdmissionController(FFSVAConfig())
        assert ctrl.overloaded({"snm[0]": 11})
        assert ctrl.overloaded({"tyolo[3]": 3})
        assert not ctrl.overloaded({"snm[0]": 10, "tyolo[0]": 2, "sdd[0]": 99})


class TestMaxRealtimeStreams:
    def test_monotone_system(self):
        # A fake system that supports exactly 7 streams.
        def run(n):
            m = RunMetrics(n_streams=n, frames_offered=100)
            m.frames_ingested = 100 if n <= 7 else 50
            return m

        best, runs = max_realtime_streams(run, n_max=32)
        assert best == 7
        assert 7 in runs

    def test_zero_when_one_stream_fails(self):
        def run(n):
            m = RunMetrics(n_streams=n, frames_offered=100)
            m.frames_ingested = 0
            return m

        best, _ = max_realtime_streams(run, n_max=8)
        assert best == 0

    def test_hits_n_max(self):
        def run(n):
            m = RunMetrics(n_streams=n, frames_offered=100)
            m.frames_ingested = 100
            return m

        best, _ = max_realtime_streams(run, n_max=16)
        assert best == 16

    def test_real_sim_capacity_search(self):
        def run(n):
            return simulate_online(traces_for(n, n=450))

        best, runs = max_realtime_streams(run, n_max=48)
        # With these pass fractions the ref stage (~56 FPS) binds around
        # 56 / (30 * 0.10) ~ 18 streams; GPU0 binds similarly.
        assert 10 <= best <= 30
        assert runs[best].realtime()
        if best + 1 in runs:
            assert not runs[best + 1].realtime()


class TestInstanceGroup:
    def test_assign_round_robin(self):
        group = InstanceGroup(2, lambda tr: RunMetrics())
        group.assign(traces_for(5))
        assert len(group.assignments[0]) == 3
        assert len(group.assignments[1]) == 2

    def test_rebalances_overloaded_instance(self):
        def run(traces):
            m = RunMetrics(n_streams=len(traces), frames_offered=100 * len(traces))
            # Pretend an instance keeps up only with <= 2 streams.
            m.frames_ingested = m.frames_offered if len(traces) <= 2 else int(
                m.frames_offered * 0.8
            )
            return m

        group = InstanceGroup(2, run)
        group.assignments[0] = traces_for(4)
        group.assignments[1] = traces_for(1, seed=100)
        group.epoch()
        assert group.history[-1]["moved"] is not None
        assert len(group.assignments[0]) == 3
        assert len(group.assignments[1]) == 2

    def test_no_move_when_balanced(self):
        def run(traces):
            m = RunMetrics(n_streams=len(traces), frames_offered=100)
            m.frames_ingested = 100
            return m

        group = InstanceGroup(2, run)
        group.assign(traces_for(4))
        group.epoch()
        assert group.history[-1]["moved"] is None

    def test_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            InstanceGroup(0, lambda tr: RunMetrics())

    @staticmethod
    def run_with_ratio(ratios):
        """An evaluator scripting each instance's ingest ratio by position."""
        calls = iter(ratios)

        def run(traces):
            ratio = next(calls)
            m = RunMetrics(n_streams=len(traces), frames_offered=1000)
            m.frames_ingested = int(1000 * ratio)
            return m

        return run

    def test_single_instance_overload_has_nowhere_to_shed(self):
        group = InstanceGroup(1, self.run_with_ratio([0.5]))
        group.assign(traces_for(3))
        group.epoch()
        assert group.history[-1]["moved"] is None
        assert len(group.assignments[0]) == 3

    def test_all_overloaded_makes_no_move(self):
        # Re-forwarding needs a spare-capacity target; when every instance
        # is drowning there is nowhere to send the stream.
        group = InstanceGroup(2, self.run_with_ratio([0.5, 0.6]))
        group.assign(traces_for(4))
        group.epoch()
        assert group.history[-1]["moved"] is None
        assert [len(a) for a in group.assignments] == [2, 2]

    def test_equal_headroom_tie_goes_to_lowest_index(self):
        group = InstanceGroup(3, self.run_with_ratio([0.5, 1.0, 1.0]))
        group.assign(traces_for(6))
        group.epoch()
        entry = group.history[-1]
        assert entry["moved"] is not None
        assert (entry["from"], entry["to"]) == (0, 1)
        assert [len(a) for a in group.assignments] == [1, 3, 2]
