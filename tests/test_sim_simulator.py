"""Tests for the discrete-event pipeline simulator."""

import numpy as np
import pytest

from repro.core.config import FFSVAConfig
from repro.devices.costs import CostModel
from repro.sim import PipelineSimulator, simulate_offline, simulate_online

from tests.helpers import make_synth_trace


def low_tor_trace(n=3000, seed=0, sid="s"):
    return make_synth_trace(n, 0.7, 0.18, 0.10, seed=seed, stream_id=sid)


class TestOfflineSimulation:
    def test_all_frames_processed(self):
        tr = low_tor_trace(2000)
        m = simulate_offline([tr])
        assert m.frames_ingested == 2000
        assert m.stages["sdd"].entered == 2000
        total_done = m.frames_to_ref + sum(
            m.stages[s].filtered for s in ("sdd", "snm", "tyolo")
        )
        assert total_done == 2000

    def test_conservation(self):
        m = simulate_offline([low_tor_trace(2000)])
        m.check_conservation()

    def test_ref_receives_exactly_cascade_survivors(self):
        tr = low_tor_trace(2000, seed=3)
        cfg = FFSVAConfig(filter_degree=0.5, number_of_objects=1)
        m = simulate_offline([tr], cfg)
        expected = int(tr.cascade_pass(0.5, 1, 0).sum())
        assert m.frames_to_ref == expected

    def test_throughput_bounded_by_ref_stage(self):
        # With ~10% of frames reaching the 56 FPS reference model, offline
        # throughput can't exceed ~56/0.10 = 560 FPS (plus a little noise
        # from the exact pass fraction).
        tr = low_tor_trace(3000, seed=1)
        m = simulate_offline([tr])
        ref_frac = m.stage_fraction("ref")
        cm = CostModel()
        bound = cm.effective_fps("ref") / ref_frac
        assert m.throughput_fps <= bound * 1.05
        assert m.throughput_fps > bound * 0.5  # and it gets reasonably close

    def test_high_tor_much_slower_than_low_tor(self):
        lo = simulate_offline([make_synth_trace(1500, 0.9, 0.5, 0.10, seed=2)])
        hi = simulate_offline([make_synth_trace(1500, 1.0, 0.95, 0.90, seed=2, stream_id="hi")])
        assert lo.throughput_fps > 2.0 * hi.throughput_fps

    def test_latency_measures_pipeline_residence(self):
        m = simulate_offline([low_tor_trace(1500, seed=4)])
        # Offline latency is from ingest, so it must be far below makespan.
        assert 0 < m.ref_latency.mean < m.duration / 4

    def test_queue_depths_respected(self):
        cfg = FFSVAConfig(batch_policy="dynamic")
        m = simulate_offline([low_tor_trace(1500, seed=5)], cfg)
        for name, hw in m.queue_high_water.items():
            stage = name.split("[")[0]
            if stage == "ref":
                continue  # ref overflows to storage by default (Section 5.5)
            assert hw <= cfg.queue_depth(stage), f"{name} exceeded threshold"

    def test_static_policy_unbounded_queues(self):
        cfg = FFSVAConfig(batch_policy="static", batch_size=10)
        m = simulate_offline([low_tor_trace(1500, seed=6)], cfg)
        # Static mode has no feedback: the SNM queue may exceed 10.
        snm_hw = max(v for k, v in m.queue_high_water.items() if k.startswith("snm"))
        assert snm_hw > 10

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            PipelineSimulator([], FFSVAConfig())


class TestOnlineSimulation:
    def test_few_streams_realtime(self):
        traces = [low_tor_trace(900, seed=i, sid=f"s{i}") for i in range(4)]
        m = simulate_online(traces)
        assert m.realtime()
        assert m.per_stream_fps == pytest.approx(30.0, rel=0.05)

    def test_many_streams_not_realtime(self):
        traces = [
            make_synth_trace(900, 1.0, 0.9, 0.8, seed=i, stream_id=f"s{i}")
            for i in range(12)
        ]
        m = simulate_online(traces)
        assert not m.realtime()
        assert m.frames_ingested < m.frames_offered

    def test_online_latency_from_arrival(self):
        traces = [low_tor_trace(900, seed=i, sid=f"s{i}") for i in range(2)]
        m = simulate_online(traces)
        assert m.ref_latency.count > 0
        assert m.ref_latency.mean < 2.0  # lightly loaded system

    def test_gpu0_shared_by_snm_and_tyolo(self):
        traces = [low_tor_trace(900, seed=i, sid=f"s{i}") for i in range(8)]
        m = simulate_online(traces)
        assert m.device_utilization["gpu0"] > m.device_utilization["cpu0"]

    def test_tyolo_fps_signal_present(self):
        m = simulate_online([low_tor_trace(900)])
        assert m.extra["tyolo_fps"] >= 0


class TestBatchPolicies:
    def _run(self, policy, batch_size, n_streams=6, seed=10):
        traces = [
            make_synth_trace(1200, 0.8, 0.3, 0.1, seed=seed + i, stream_id=f"s{i}")
            for i in range(n_streams)
        ]
        cfg = FFSVAConfig(batch_policy=policy, batch_size=batch_size)
        return simulate_offline(traces, cfg)

    def test_static_larger_batches_than_dynamic(self):
        m_static = self._run("static", 10)
        m_dyn = self._run("dynamic", 10)
        assert m_static.extra["mean_snm_batch"] >= m_dyn.extra["mean_snm_batch"]

    def test_dynamic_latency_not_worse_than_static(self):
        m_static = self._run("static", 20)
        m_dyn = self._run("dynamic", 20)
        assert m_dyn.frame_latency.mean <= m_static.frame_latency.mean * 1.1

    def test_all_policies_conserve_frames(self):
        for policy in ("static", "feedback", "dynamic"):
            m = self._run(policy, 10)
            m.check_conservation()
            assert m.frames_ingested == 6 * 1200


class TestBypassSemantics:
    def test_full_filtering_proceeds_with_saturated_ref(self):
        # All frames pass SDD+SNM but are dropped by T-YOLO: the reference
        # queue never fills, T-YOLO is never blocked, and the run finishes.
        tr = make_synth_trace(1000, 1.0, 1.0, 0.0, seed=11)
        m = simulate_offline([tr])
        assert m.frames_to_ref == 0
        assert m.stages["tyolo"].filtered == 1000

    def test_zero_pass_trace(self):
        tr = make_synth_trace(500, 0.0, 0.0, 0.0, seed=12)
        m = simulate_offline([tr])
        assert m.stages["sdd"].filtered == 500
        assert m.stages["snm"].entered == 0


class TestDeterminism:
    def test_same_inputs_same_results(self):
        traces = [low_tor_trace(800, seed=i, sid=f"s{i}") for i in range(3)]
        m1 = simulate_online(traces)
        traces2 = [low_tor_trace(800, seed=i, sid=f"s{i}") for i in range(3)]
        m2 = simulate_online(traces2)
        assert m1.duration == m2.duration
        assert m1.frames_to_ref == m2.frames_to_ref
        assert m1.ref_latency.mean == pytest.approx(m2.ref_latency.mean)


class TestStallIsLoud:
    def test_missed_wakeup_raises_instead_of_reporting_a_complete_run(self, monkeypatch):
        """Frames left in queues with no completion and no arrival pending
        used to end the loop quietly: ``truncated`` False, conservation
        green.  Devices that stop starting work are the stand-in for any
        missed wake-up in the event loop's ready sets."""
        sim = PipelineSimulator([low_tor_trace(300)], online=False)
        start, calls = sim._try_start_devices, []

        def start_40_times(now):
            calls.append(now)
            return len(calls) <= 40 and start(now)

        monkeypatch.setattr(sim, "_try_start_devices", start_40_times)
        with pytest.raises(RuntimeError, match=r"stalled.* undisposed.*'sdd\[0\]': 2"):
            sim.run()

    def test_horizon_stop_is_not_a_stall(self):
        traces = [make_synth_trace(300, 1.0, 1.0, 1.0, seed=i, stream_id=f"s{i}") for i in range(8)]
        m = PipelineSimulator(traces, online=True).run(max_virtual_time=2.0)
        assert m.extra["truncated"]
        m.check_conservation()
