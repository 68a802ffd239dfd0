"""Tests for FFSVAConfig validation and the batch-formation policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import LATENCY_OBJECTIVE, decide_batch, paced_hold
from repro.core.config import FFSVAConfig


class TestFFSVAConfig:
    def test_defaults_match_paper(self):
        cfg = FFSVAConfig()
        assert cfg.queue_depth("sdd") == 2
        assert cfg.queue_depth("snm") == 10
        assert cfg.queue_depth("tyolo") == 2
        assert cfg.admission_tyolo_fps == 140.0
        assert cfg.admission_window == 5.0
        assert cfg.stream_fps == 30.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"filter_degree": -0.1},
            {"filter_degree": 1.1},
            {"number_of_objects": 0},
            {"relax": -1},
            {"batch_policy": "magic"},
            {"batch_size": 0},
            {"num_t_yolo": 0},
            {"stream_fps": 0},
            {"queue_depths": {"sdd": 2, "snm": 10, "tyolo": 2}},  # missing ref
            {"queue_depths": {"sdd": 0, "snm": 10, "tyolo": 2, "ref": 4}},
            {"mosaic_canvas": 12},  # smaller than the 13-cell detector grid
            {"mosaic_gutter": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FFSVAConfig(**kwargs)

    def test_mosaic_promotes_tyolo_to_fused(self):
        from repro.core.pipeline import FUSED, SHARED_RR, TYOLO

        base = FFSVAConfig().graph()[TYOLO]
        assert base.fan_in == SHARED_RR and not base.mosaic
        spec = FFSVAConfig(tyolo_mosaic=True).graph()[TYOLO]
        assert spec.fan_in == FUSED
        assert spec.mosaic
        assert spec.batch.kind == "config"

    def test_with_returns_modified_copy(self):
        base = FFSVAConfig()
        mod = base.with_(filter_degree=1.0)
        assert mod.filter_degree == 1.0
        assert base.filter_degree == 0.5
        assert mod.batch_size == base.batch_size

    def test_bounded_queues_by_policy(self):
        assert FFSVAConfig(batch_policy="dynamic").bounded_queues
        assert FFSVAConfig(batch_policy="feedback").bounded_queues
        assert not FFSVAConfig(batch_policy="static").bounded_queues


class TestDecideBatch:
    def test_empty_queue_waits(self):
        for policy in ("static", "feedback", "dynamic"):
            assert decide_batch(policy, 0, 8, 10) == 0

    def test_static_waits_for_full_batch(self):
        assert decide_batch("static", 7, 8, None) == 0
        assert decide_batch("static", 8, 8, None) == 8
        assert decide_batch("static", 20, 8, None) == 8

    def test_feedback_capped_by_queue_depth(self):
        # BatchSize 16 over a depth-10 queue: target is 10.
        assert decide_batch("feedback", 9, 16, 10) == 0
        assert decide_batch("feedback", 10, 16, 10) == 10

    def test_feedback_full_batch_when_depth_allows(self):
        assert decide_batch("feedback", 8, 8, 10) == 8
        assert decide_batch("feedback", 7, 8, 10) == 0

    def test_dynamic_takes_whats_there(self):
        assert decide_batch("dynamic", 3, 8, 10) == 3
        assert decide_batch("dynamic", 12, 8, 10) == 8

    def test_eof_flushes_partial(self):
        for policy in ("static", "feedback", "dynamic"):
            assert decide_batch(policy, 5, 8, 10, eof=True) == 5

    def test_eof_respects_batch_cap(self):
        assert decide_batch("static", 20, 8, None, eof=True) == 8

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            decide_batch("dynamic", -1, 8, 10)
        with pytest.raises(ValueError):
            decide_batch("dynamic", 1, 0, 10)
        with pytest.raises(ValueError):
            decide_batch("nope", 1, 8, 10)

    @given(
        policy=st.sampled_from(["static", "feedback", "dynamic"]),
        queue_len=st.integers(0, 50),
        batch=st.integers(1, 32),
        depth=st.one_of(st.none(), st.integers(1, 32)),
        eof=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_never_over_pops(self, policy, queue_len, batch, depth, eof):
        n = decide_batch(policy, queue_len, batch, depth, eof=eof)
        assert 0 <= n <= min(queue_len, batch)
        if queue_len > 0 and eof:
            assert n > 0  # flush guarantees progress at end of stream

    @given(queue_len=st.integers(1, 50), batch=st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_property_dynamic_always_progresses(self, queue_len, batch):
        assert decide_batch("dynamic", queue_len, batch, 10) > 0


class TestPacedHold:
    @pytest.mark.parametrize("fps, hold", [(30.0, 2), (40.0, 3), (80.0, 5), (300.0, 16)])
    def test_values_at_the_documented_rates(self, fps, hold):
        assert paced_hold(fps, 16) == hold

    def test_oldest_frame_waits_at_most_half_the_objective(self):
        for fps in (10.0, 30.0, 40.0, 80.0, 120.0):
            assert (paced_hold(fps, 64) - 1) / fps <= LATENCY_OBJECTIVE / 2

    def test_capped_by_the_batch_the_stage_would_take(self):
        assert paced_hold(600.0, 16) == 16
        assert paced_hold(80.0, 3) == 3
        assert paced_hold(80.0, 1) == 1  # a frame-at-a-time caller never holds

    def test_floor_of_one_frame(self):
        assert paced_hold(1.0, 16) == 1
        assert paced_hold(19.0, 16) == 1
        assert paced_hold(0.0, 16) == 1
        assert paced_hold(80.0, 0) == 1

    @given(fps=st.floats(0.0, 2000.0), step=st.floats(0.0, 500.0), cap=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_property_monotone_in_fps(self, fps, step, cap):
        assert 1 <= paced_hold(fps, cap) <= paced_hold(fps + step, cap) <= cap
