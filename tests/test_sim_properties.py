"""Property-based and edge-case tests for the pipeline simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FFSVAConfig
from repro.core.queues import SimQueue
from repro.core.trace import FrameTrace
from repro.devices.costs import CostModel
from repro.sim import PipelineSimulator, simulate_offline, simulate_online

from tests.helpers import make_synth_trace


@st.composite
def trace_strategy(draw):
    n = draw(st.integers(10, 400))
    f1 = draw(st.floats(0.0, 1.0))
    f2 = draw(st.floats(0.0, 1.0)) * f1
    f3 = draw(st.floats(0.0, 1.0)) * f2
    seed = draw(st.integers(0, 2**16))
    return make_synth_trace(n, f1, f2, f3, seed=seed)


@st.composite
def config_strategy(draw):
    return FFSVAConfig(
        filter_degree=draw(st.sampled_from([0.0, 0.5, 1.0])),
        number_of_objects=draw(st.integers(1, 3)),
        relax=draw(st.integers(0, 1)),
        batch_policy=draw(st.sampled_from(["static", "feedback", "dynamic"])),
        batch_size=draw(st.integers(1, 20)),
        num_t_yolo=draw(st.integers(1, 6)),
        ref_overflow_to_storage=draw(st.booleans()),
    )


class TestSimulatorProperties:
    @given(trace=trace_strategy(), cfg=config_strategy())
    @settings(max_examples=40, deadline=None)
    def test_offline_conservation_and_completion(self, trace, cfg):
        m = simulate_offline([trace], cfg)
        m.check_conservation()
        # Every frame reaches a terminal state.
        done = m.frames_to_ref + sum(
            m.stages[s].filtered for s in ("sdd", "snm", "tyolo")
        )
        assert done == len(trace)
        # The reference model sees exactly the cascade survivors.
        expected = int(
            trace.cascade_pass(cfg.filter_degree, cfg.number_of_objects, cfg.relax).sum()
        )
        assert m.frames_to_ref == expected

    @given(trace=trace_strategy(), cfg=config_strategy())
    @settings(max_examples=25, deadline=None)
    def test_online_ingest_never_exceeds_offered(self, trace, cfg):
        m = simulate_online([trace], cfg)
        assert m.frames_ingested <= m.frames_offered
        assert m.ingest_ratio <= 1.0 + 1e-9
        m.check_conservation()

    @given(trace=trace_strategy())
    @settings(max_examples=20, deadline=None)
    def test_latency_at_least_service_time(self, trace):
        cfg = FFSVAConfig()
        m = simulate_offline([trace], cfg)
        if m.ref_latency.count:
            cm = CostModel()
            min_path = (
                cm.per_frame_time("sdd", 1)
                + cm.per_frame_time("snm", cfg.batch_size)
                + cm.per_frame_time("tyolo", cfg.num_t_yolo)
                + cm.service_time("ref", 1)
            )
            # Mean pipeline residence cannot be below the bare service path.
            assert m.ref_latency.mean >= 0.5 * min_path

    @given(
        n_streams=st.integers(1, 5),
        seed=st.integers(0, 100),
        policy=st.sampled_from(["static", "feedback", "dynamic"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_multi_stream_offline_all_complete(self, n_streams, seed, policy):
        traces = [
            make_synth_trace(150, 0.8, 0.4, 0.2, seed=seed + i, stream_id=f"s{i}")
            for i in range(n_streams)
        ]
        cfg = FFSVAConfig(batch_policy=policy)
        m = simulate_offline(traces, cfg)
        assert m.frames_ingested == 150 * n_streams
        assert all(d == 150 for d in m.extra["per_stream_done"])

    @given(trace=trace_strategy())
    @settings(max_examples=15, deadline=None)
    def test_throughput_point_dominates_more_filtering(self, trace):
        """More aggressive filtering can only reduce reference-stage work."""
        loose = simulate_offline([trace], FFSVAConfig(filter_degree=0.0))
        strict = simulate_offline([trace], FFSVAConfig(filter_degree=1.0))
        assert strict.frames_to_ref <= loose.frames_to_ref


class TestSimulatorEdgeCases:
    def test_single_frame_trace(self):
        tr = make_synth_trace(1, 1.0, 1.0, 1.0)
        m = simulate_offline([tr])
        assert m.frames_to_ref == 1

    def test_single_frame_filtered(self):
        tr = make_synth_trace(1, 0.0, 0.0, 0.0)
        m = simulate_offline([tr])
        assert m.stages["sdd"].filtered == 1

    def test_batch_size_one(self):
        tr = make_synth_trace(200, 0.8, 0.4, 0.2, seed=1)
        m = simulate_offline([tr], FFSVAConfig(batch_size=1))
        m.check_conservation()
        assert m.extra["mean_snm_batch"] == pytest.approx(1.0)

    def test_num_t_yolo_larger_than_queue_depth(self):
        tr = make_synth_trace(300, 1.0, 0.9, 0.5, seed=2)
        cfg = FFSVAConfig(num_t_yolo=8)  # tyolo queue depth is only 2
        m = simulate_offline([tr], cfg)
        m.check_conservation()
        assert m.frames_to_ref == int(tr.cascade_pass(cfg.filter_degree).sum())

    def test_bounded_ref_queue_no_deadlock_under_saturation(self):
        # Heavy ref load with the overflow valve CLOSED must still drain.
        tr = make_synth_trace(600, 1.0, 1.0, 1.0, seed=3)
        cfg = FFSVAConfig(ref_overflow_to_storage=False)
        m = simulate_offline([tr], cfg)
        assert m.frames_to_ref == 600
        assert m.queue_high_water["ref"] <= cfg.queue_depth("ref")

    def test_overflow_valve_decouples_filters_from_ref(self):
        """With overflow on, filter progress does not wait for the slow ref."""
        tr = make_synth_trace(600, 1.0, 1.0, 1.0, seed=4, fps=30.0)
        on = simulate_online([tr], FFSVAConfig(ref_overflow_to_storage=True))
        off = simulate_online([tr], FFSVAConfig(ref_overflow_to_storage=False))
        assert on.ingest_ratio >= off.ingest_ratio

    def test_mixed_length_traces(self):
        traces = [
            make_synth_trace(100, 0.8, 0.4, 0.2, seed=5, stream_id="short"),
            make_synth_trace(400, 0.8, 0.4, 0.2, seed=6, stream_id="long"),
        ]
        m = simulate_offline(traces)
        assert m.extra["per_stream_done"] == [100, 400]

    def test_zero_length_trace_rejected_gracefully(self):
        tr = FrameTrace(
            "empty", "car", 30.0,
            sdd_dist=np.empty(0),
            sdd_threshold=0.5,
            snm_prob=np.empty(0, dtype=np.float32),
            c_low=0.2, c_high=0.8,
            tyolo_count=np.empty(0, dtype=np.int64),
            gt_count=np.empty(0, dtype=np.int64),
        )
        m = simulate_offline([tr])
        assert m.frames_ingested == 0

    def test_horizon_truncation_flagged(self):
        # A hopelessly overloaded run within a tiny horizon gets truncated.
        traces = [
            make_synth_trace(600, 1.0, 1.0, 1.0, seed=i, stream_id=f"s{i}")
            for i in range(10)
        ]
        sim = PipelineSimulator(traces, FFSVAConfig(), online=True)
        m = sim.run(max_virtual_time=3.0)
        assert m.extra["truncated"]
        assert m.duration <= 3.0 + 1e-9


class TestEventLoopScaling:
    """Deterministic stand-in for host time: how often the event loop asks a
    queue for its state.  A loop that re-scans every stream and stage on
    every pass probes O(streams) times per frame (78 -> 303 offline from 15
    to 60 streams before the ready sets); one that visits only what could
    act stays flat."""

    @staticmethod
    def probes_per_frame(monkeypatch, n_streams, simulate, config):
        traces = [
            make_synth_trace(300, 0.7, 0.18, 0.10, seed=i, stream_id=f"s{i}")
            for i in range(n_streams)
        ]
        count = [0]
        with monkeypatch.context() as patch:
            for name in ("has_room", "__len__"):
                inner = getattr(SimQueue, name)

                def probe(self, *args, _inner=inner):
                    count[0] += 1
                    return _inner(self, *args)

                patch.setattr(SimQueue, name, probe)
            m = simulate(traces, config)
        return count[0] / m.frames_offered

    @pytest.mark.parametrize(
        "simulate, config, bound",
        [
            (simulate_offline, FFSVAConfig(), 12),
            (simulate_online, FFSVAConfig(batch_policy="feedback", filter_degree=1.0), 30),
        ],
    )
    def test_probes_per_frame_do_not_grow_with_the_fleet(
        self, monkeypatch, simulate, config, bound
    ):
        small = self.probes_per_frame(monkeypatch, 15, simulate, config)
        large = self.probes_per_frame(monkeypatch, 60, simulate, config)
        assert small <= bound and large <= bound
        assert large <= 1.25 * small
