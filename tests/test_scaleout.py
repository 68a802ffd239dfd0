"""Multi-stream scale-out: frame plane, process pools, fused SNM batches.

PR 4's machinery moves work across process boundaries and across streams
without being allowed to change a single verdict.  These tests pin the
three layers separately — the shared-memory frame plane (zero-copy
descriptors, ring back-pressure), the :class:`~repro.runtime.procpool.ProcPool`
executor (inline-identical results, exact crash requeue), and cross-stream
SNM fusion (:func:`~repro.core.batching.decide_fused_batch` fairness plus
:class:`~repro.models.snm.FusedSNM` / ``StackedSequential`` bit-identity)
— and then the whole stack end-to-end against both the simulator's
counters and the plain threaded pipeline's per-frame outcomes.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import FFSVAConfig, assert_stage_counts_equal, build_trace
from repro.core.batching import decide_fused_batch, fused_pop_order
from repro.models import ModelZoo
from repro.models.snm import SNM, FusedSNM, SNMConfig, build_snm_network
from repro.nn import StackedSequential, TrainConfig
from repro.runtime import ProcPool, ThreadedPipeline
from repro.sim import PipelineSimulator
from repro.video import SharedFramePlane, jackson, make_stream


# ---------------------------------------------------------------------------
# shared-memory frame plane
# ---------------------------------------------------------------------------
class TestSharedFramePlane:
    def test_write_view_roundtrip(self):
        plane = SharedFramePlane(slots=2, slot_bytes=4096)
        try:
            batch = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
            slot = plane.acquire(batch.nbytes)
            desc = plane.write(slot, batch)
            assert desc.shape == (2, 3, 4)
            assert desc.dtype == "float32"
            assert desc.nbytes == batch.nbytes
            view = plane.view(desc)
            assert np.array_equal(view, batch)
            # The view aliases the slab: a write through it is visible to a
            # fresh view of the same descriptor (that is the zero-copy
            # contract workers rely on).
            view[0, 0, 0] = 99.0
            assert plane.view(desc)[0, 0, 0] == 99.0
            plane.release(slot)
        finally:
            plane.close()
            plane.unlink()

    def test_oversized_payload_rejected(self):
        plane = SharedFramePlane(slots=1, slot_bytes=64)
        try:
            with pytest.raises(ValueError, match="exceeds slot size"):
                plane.acquire(65)
        finally:
            plane.close()
            plane.unlink()

    def test_acquire_blocks_until_release(self):
        plane = SharedFramePlane(slots=1, slot_bytes=64)
        try:
            slot = plane.acquire(8)
            with pytest.raises(TimeoutError):
                plane.acquire(8, timeout=0.05)
            plane.release(slot)
            assert plane.acquire(8, timeout=0.05) == slot
        finally:
            plane.close()
            plane.unlink()

    def test_worker_attach_sees_parent_writes(self):
        plane = SharedFramePlane(slots=1, slot_bytes=256)
        try:
            batch = np.linspace(0, 1, 32, dtype=np.float32).reshape(4, 8)
            desc = plane.write(plane.acquire(batch.nbytes), batch)
            attached = SharedFramePlane.attach(plane.name)
            try:
                assert np.array_equal(attached.view(desc), batch)
            finally:
                attached.close()
        finally:
            plane.close()
            plane.unlink()


# ---------------------------------------------------------------------------
# fused batch formation
# ---------------------------------------------------------------------------
class TestDecideFusedBatch:
    def test_round_robin_fairness(self):
        # 3 streams with plenty queued: a batch of 7 starting at stream 1
        # splits 2/3/2 — one frame per visit, no stream monopolizes.
        takes = decide_fused_batch("dynamic", [10, 10, 10], 7, 10, start=1)
        assert takes == [2, 3, 2]
        assert sum(takes) == 7

    def test_skips_empty_queues(self):
        takes = decide_fused_batch("dynamic", [0, 5, 0, 5], 6, 10)
        assert takes == [0, 3, 0, 3]

    def test_never_takes_more_than_queued(self):
        takes = decide_fused_batch("dynamic", [1, 9], 8, 10)
        assert takes == [1, 7]

    def test_static_waits_for_full_aggregate_batch(self):
        assert decide_fused_batch("static", [3, 3], 10, None) == [0, 0]
        assert sum(decide_fused_batch("static", [6, 5], 10, None)) == 10

    def test_feedback_capped_by_queue_depth(self):
        # Aggregate target = min(batch_size, depth) under feedback, matching
        # decide_batch's semantics applied to the pooled length.
        assert sum(decide_fused_batch("feedback", [4, 4], 16, 6)) == 6
        assert decide_fused_batch("feedback", [2, 2], 16, 6) == [0, 0]

    def test_eof_flushes_partial_queues(self):
        # At EOF the remainder flushes even though a full batch can never
        # form again — including streams whose queues are already empty.
        takes = decide_fused_batch("static", [2, 0, 1], 10, None, eof=True)
        assert takes == [2, 0, 1]
        assert decide_fused_batch("feedback", [1, 0, 0], 8, 4, eof=True) == [1, 0, 0]

    def test_all_empty_keeps_waiting(self):
        assert decide_fused_batch("dynamic", [0, 0, 0], 8, 10) == [0, 0, 0]

    def test_pop_order_matches_distribution(self):
        takes = decide_fused_batch("dynamic", [4, 0, 4, 4], 9, 10, start=2)
        order = fused_pop_order(takes, start=2)
        assert order == [2, 3, 0]  # RR from stream 2, empty stream skipped
        assert all(takes[i] > 0 for i in order)


# ---------------------------------------------------------------------------
# stacked forward pass and fused SNM
# ---------------------------------------------------------------------------
def _toy_snms(k: int) -> list[SNM]:
    """K untrained (random-weight) SNMs with distinct backgrounds and
    calibration bands — bit-identity does not need trained weights."""
    rng = np.random.default_rng(7)
    snms = []
    for i in range(k):
        cfg = SNMConfig(seed=100 + i, temperature=1.5 + 0.5 * i)
        snm = SNM(build_snm_network(cfg), cfg, background=rng.random((60, 80)))
        snm.c_low, snm.c_high = 0.2 + 0.05 * i, 0.7 + 0.02 * i
        snms.append(snm)
    return snms


class TestStackedSequential:
    def test_forward_matches_each_net(self):
        nets = [s.network for s in _toy_snms(3)]
        stacked = StackedSequential(nets)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(17, 1, 50, 50)).astype(np.float32)
        model_idx = rng.integers(0, 3, size=17)
        out = stacked.forward(x, model_idx)
        for k, net in enumerate(nets):
            sel = np.nonzero(model_idx == k)[0]
            if len(sel):
                assert np.array_equal(out[sel], net.predict(x[sel], copy=True))

    def test_repeat_calls_identical(self):
        nets = [s.network for s in _toy_snms(2)]
        stacked = StackedSequential(nets)
        x = np.random.default_rng(1).normal(size=(8, 1, 50, 50)).astype(np.float32)
        idx = np.array([0, 1] * 4)
        first = stacked.forward(x, idx).copy()
        assert np.array_equal(stacked.forward(x, idx), first)

    def test_single_model_stack(self):
        net = build_snm_network(SNMConfig(seed=3))
        stacked = StackedSequential([net])
        x = np.random.default_rng(2).normal(size=(5, 1, 50, 50)).astype(np.float32)
        out = stacked.forward(x, np.zeros(5, dtype=np.intp))
        assert np.array_equal(out, net.predict(x, copy=True))

    def test_mismatched_architectures_rejected(self):
        with pytest.raises(ValueError):
            StackedSequential(
                [
                    build_snm_network(SNMConfig()),
                    build_snm_network(SNMConfig(conv1_channels=4)),
                ]
            )


class TestFusedSNM:
    def test_bit_identical_to_per_stream(self):
        snms = _toy_snms(3)
        fused = FusedSNM(snms)
        rng = np.random.default_rng(5)
        frames = rng.random((20, 60, 80), dtype=np.float32)
        sidx = rng.integers(0, 3, size=20)
        probs = fused.predict_proba(frames, sidx)
        for k, snm in enumerate(snms):
            sel = np.nonzero(sidx == k)[0]
            if len(sel):
                assert np.array_equal(probs[sel], snm.predict_proba(frames[sel]))
        for degree in (0.0, 0.5, 1.0):
            passes = fused.passes(probs, sidx, degree)
            for k, snm in enumerate(snms):
                sel = np.nonzero(sidx == k)[0]
                assert np.array_equal(
                    passes[sel], snm.passes(probs[sel], degree)
                )

    def test_per_stream_thresholds_vectorized(self):
        snms = _toy_snms(2)
        fused = FusedSNM(snms)
        t = fused.t_pre(0.5)
        assert t.shape == (2,)
        assert t[0] == snms[0].t_pre(0.5)
        assert t[1] == snms[1].t_pre(0.5)

    def test_stacked_weights_cached_across_calls(self):
        fused = FusedSNM(_toy_snms(2))
        stacked = fused.stacked
        temps = fused.temps
        t_pre = fused.t_pre(0.5)
        # No member changed: repeated access returns the same objects.
        assert fused.stacked is stacked
        assert fused.temps is temps
        assert fused.t_pre(0.5) is t_pre
        assert not t_pre.flags.writeable

    def test_member_version_bump_invalidates_cache(self):
        snms = _toy_snms(2)
        fused = FusedSNM(snms)
        stacked = fused.stacked
        old_t = fused.t_pre(0.5)
        snms[0].calibrate_thresholds(
            np.linspace(0, 1, 64, dtype=np.float32).reshape(-1, 1, 1)
            * np.ones((64, 60, 80), dtype=np.float32),
            np.arange(64) % 2 == 0,
        )
        assert fused.stacked is not stacked
        assert fused.t_pre(0.5) is not old_t
        assert fused.t_pre(0.5)[0] == snms[0].t_pre(0.5)

    def test_mark_retrained_and_explicit_invalidate(self):
        snms = _toy_snms(2)
        fused = FusedSNM(snms)
        stacked = fused.stacked
        snms[1].mark_retrained()
        rebuilt = fused.stacked
        assert rebuilt is not stacked
        fused.invalidate()
        assert fused.stacked is not rebuilt
        # Cached prediction path stays bit-identical after a rebuild.
        rng = np.random.default_rng(9)
        frames = rng.random((8, 60, 80), dtype=np.float32)
        sidx = rng.integers(0, 2, size=8)
        probs = fused.predict_proba(frames, sidx)
        for k, snm in enumerate(snms):
            sel = np.nonzero(sidx == k)[0]
            if len(sel):
                assert np.array_equal(probs[sel], snm.predict_proba(frames[sel]))


# ---------------------------------------------------------------------------
# process pool
# ---------------------------------------------------------------------------
def _threshold_evaluate(pixels, bundles, zoo, config):
    """Per-frame bundle routing test logic: bundles are float thresholds."""
    means = pixels.mean(axis=(1, 2))
    return means > np.asarray(bundles, dtype=np.float64), np.arange(len(pixels))


def _sleepy_evaluate(pixels, bundles, zoo, config):
    time.sleep(0.8)
    return np.ones(len(pixels), dtype=bool), None


class TestProcPool:
    def test_results_match_inline(self):
        bundles = [0.3, 0.5, 0.7]
        pool = ProcPool(
            "t", _threshold_evaluate, bundles, None, None, 2, slot_bytes=65536
        )
        try:
            rng = np.random.default_rng(0)
            for si in (0, 1, 2, 1):
                pixels = rng.random((6, 10, 12))
                want, want_info = _threshold_evaluate(
                    pixels, [bundles[si]] * 6, None, None
                )
                got, info, busy = pool.run_batch(pixels, [si] * 6, None)
                assert np.array_equal(got, want)
                assert np.array_equal(info, want_info)
                assert busy >= 0.0
        finally:
            stats = pool.shutdown()
        assert stats.tasks == 4
        assert stats.frames == 24
        assert stats.crashed_workers == 0
        assert sum(w["tasks"] for w in stats.per_worker.values()) == 4

    def test_crashed_worker_requeues_inflight(self):
        pool = ProcPool(
            "t", _sleepy_evaluate, [0.0], None, None, 2, slot_bytes=65536
        )
        results = []

        def dispatch():
            pixels = np.zeros((2, 4, 4))
            results.append(pool.run_batch(pixels, [0, 0], None)[0])

        try:
            threads = [threading.Thread(target=dispatch) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.25)  # both workers are mid-sleep on their task
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            stats = pool.shutdown()
        # Both batches resolved correctly despite the crash: the dead
        # worker's in-flight task was requeued onto the survivor.
        assert len(results) == 2
        assert all(np.array_equal(r, [True, True]) for r in results)
        assert stats.crashed_workers == 1
        assert stats.requeued_tasks >= 1
        assert stats.lost_tasks == 0

    def test_abort_returns_conservative_mask(self):
        pool = ProcPool(
            "t", _sleepy_evaluate, [0.0], None, None, 1, slot_bytes=65536
        )
        try:
            abort = threading.Event()
            abort.set()

            # All slots free, so acquire succeeds; the future wait then sees
            # the abort and gives the batch back as all-False immediately.
            passes, info, busy = pool.run_batch(np.zeros((3, 4, 4)), [0, 0, 0], abort)
            assert not passes.any()
        finally:
            pool.shutdown()

    def test_shutdown_never_counts_a_sentinel_exit_as_a_crash(self, monkeypatch):
        # The monitor used to keep polling while shutdown() joined workers
        # that had just exited on their sentinel; a poll landing in that
        # window counted them as crashed.  A short poll makes it land.
        monkeypatch.setattr("repro.runtime.procpool._POLL", 0.001)
        for _ in range(4):
            pool = ProcPool("t", _threshold_evaluate, [0.5], None, None, 2, slot_bytes=4096)
            pool.run_batch(np.zeros((2, 4, 4)), [0, 0], None)
            time.sleep(0.01)  # the monitor is mid-cycle, not just started
            stats = pool.shutdown()
            assert stats.crashed_workers == 0
            assert stats.tasks == 1


# ---------------------------------------------------------------------------
# end to end: the full stack with both features on
# ---------------------------------------------------------------------------
N_FRAMES = 200


@pytest.fixture(scope="module")
def trained_fleet():
    zoo = ModelZoo()
    streams, traces = [], []
    for i, tor in enumerate((0.25, 0.45)):
        stream = make_stream(jackson(), N_FRAMES, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=100,
            stride=2,
            train_config=TrainConfig(epochs=4, batch_size=32, seed=7),
        )
        streams.append(stream)
        traces.append(build_trace(stream, zoo))
    return streams, traces, zoo


class TestScaleOutEndToEnd:
    def test_counters_match_simulator(self, trained_fleet):
        streams, traces, zoo = trained_fleet
        config = FFSVAConfig(executor="process", num_sdd_procs=2, snm_fusion=True)
        m_real = ThreadedPipeline(streams, zoo, config).run()
        m_sim = PipelineSimulator(traces, config, online=False).run()
        m_real.check_conservation()
        m_sim.check_conservation()
        assert_stage_counts_equal(m_real, m_sim)
        assert m_real.frames_to_ref == m_sim.frames_to_ref
        stats = m_real.extra["procpool"]["sdd"]
        assert stats["workers"] == 2
        assert stats["frames"] == m_real.stages["sdd"].entered
        assert stats["crashed_workers"] == 0

    def test_outcomes_identical_to_plain_threaded(self, trained_fleet):
        streams, traces, zoo = trained_fleet

        def outcome_set(config):
            pipe = ThreadedPipeline(streams, zoo, config)
            pipe.run()
            return sorted(
                (o.stream_id, o.index, o.stage, o.ref_count) for o in pipe.outcomes
            )

        plain = outcome_set(FFSVAConfig())
        scaled = outcome_set(
            FFSVAConfig(executor="process", num_sdd_procs=2, snm_fusion=True)
        )
        assert scaled == plain

    def test_fusion_only_counters_match(self, trained_fleet):
        streams, traces, zoo = trained_fleet
        config = FFSVAConfig(snm_fusion=True)
        m_real = ThreadedPipeline(streams, zoo, config).run()
        m_sim = PipelineSimulator(traces, config, online=False).run()
        assert_stage_counts_equal(m_real, m_sim)

    def test_scaled_graph_shape(self):
        config = FFSVAConfig(executor="process", num_sdd_procs=4, snm_fusion=True)
        graph = config.graph()
        by_name = {s.name: s for s in graph}
        assert by_name["sdd"].executor == "process"
        assert by_name["snm"].fan_in == "fused"
        # GPU stages never go to a pool; the terminal stage stays inline.
        assert by_name["tyolo"].executor == "thread"
        assert by_name["ref"].executor == "thread"
