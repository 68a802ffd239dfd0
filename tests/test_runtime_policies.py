"""Threaded-runtime tests for batch policies, online pacing, and flushing."""

import numpy as np
import pytest

from repro.core import FFSVAConfig
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.runtime import ThreadedPipeline
from repro.video import jackson, make_streams


@pytest.fixture(scope="module")
def trained():
    streams = make_streams(jackson(), 2, 800, tor=0.35, seed=91)
    zoo = ModelZoo()
    for s in streams:
        zoo.train_for_stream(
            s,
            n_train_frames=200,
            stride=2,
            train_config=TrainConfig(epochs=8, batch_size=32, seed=5),
        )
    return streams, zoo


def run_policy(streams, zoo, policy, batch_size=6, n_frames=150, **kw):
    cfg = FFSVAConfig(batch_policy=policy, batch_size=batch_size, **kw)
    pipe = ThreadedPipeline(streams, zoo, cfg)
    metrics = pipe.run(n_frames=n_frames)
    return pipe, metrics


class TestBatchPoliciesThreaded:
    @pytest.mark.parametrize("policy", ["static", "feedback", "dynamic"])
    def test_all_policies_complete(self, trained, policy):
        streams, zoo = trained
        pipe, m = run_policy(streams, zoo, policy)
        assert len(pipe.outcomes) == 2 * 150
        m.check_conservation()

    def test_partial_tail_batch_flushes(self, trained):
        # 151 frames with batch 20: the last partial batch must still flush.
        streams, zoo = trained
        pipe, _ = run_policy(streams[:1], zoo, "static", batch_size=20, n_frames=151)
        assert len(pipe.outcomes) == 151

    def test_policies_agree_on_decisions(self, trained):
        """Batching changes scheduling, never filtering decisions."""
        streams, zoo = trained
        results = {}
        for policy in ("static", "feedback", "dynamic"):
            pipe, _ = run_policy(streams[:1], zoo, policy, n_frames=120)
            results[policy] = {
                (o.index, o.stage) for o in pipe.outcomes
            }
        assert results["static"] == results["feedback"] == results["dynamic"]


class TestOnlineThreaded:
    def test_paced_run_completes(self, trained):
        streams, zoo = trained
        cfg = FFSVAConfig(batch_policy="dynamic", batch_size=6)
        pipe = ThreadedPipeline(streams, zoo, cfg)
        # Pace far above real time so the test stays fast but the paced
        # code path (sleep-until-arrival) is exercised.
        m = pipe.run(n_frames=90, online=True, paced_fps=600.0)
        assert len(pipe.outcomes) == 2 * 90
        assert m.duration >= 90 / 600.0

    def test_relax_recovers_frames(self, trained):
        streams, zoo = trained
        strict_pipe, _ = run_policy(
            streams[:1], zoo, "dynamic", n_frames=150, number_of_objects=2, relax=0
        )
        relaxed_pipe, _ = run_policy(
            streams[:1], zoo, "dynamic", n_frames=150, number_of_objects=2, relax=1
        )
        strict_ref = sum(1 for o in strict_pipe.outcomes if o.stage == "ref")
        relaxed_ref = sum(1 for o in relaxed_pipe.outcomes if o.stage == "ref")
        assert relaxed_ref >= strict_ref


class TestReferenceBatching:
    """The reference stage takes what its queue holds (up to its cap) and
    T-YOLO one round-robin cycle over the streams, each batch one detector
    call; the results are those of a one-frame reference, frame for frame."""

    @pytest.fixture(scope="class")
    def hightor(self):
        streams = make_streams(jackson(), 2, 200, tor=0.9, seed=47)
        zoo = ModelZoo()
        for s in streams:
            zoo.train_for_stream(
                s, n_train_frames=100, stride=2, train_config=TrainConfig(epochs=4, batch_size=32, seed=5)
            )
        return streams, zoo

    @staticmethod
    def _run(streams, zoo, store_dir, graph=None):
        from repro.obs import Telemetry
        from repro.store import DetStoreReader

        tel = Telemetry()
        cfg = FFSVAConfig(filter_degree=0.9, result_store_dir=str(store_dir))
        pipe = ThreadedPipeline(streams, zoo, cfg, telemetry=tel, graph=graph)
        m = pipe.run(n_frames=160)
        sizes = [ev.n for ev in tel.bus.events() if ev.kind == "batch_exec" and ev.stage == "ref"]
        outcomes = sorted((o.stream_id, o.index, o.stage, o.ref_count) for o in pipe.outcomes)
        return m, sizes, outcomes, DetStoreReader(store_dir).records()

    def test_batched_reference_matches_one_frame_oracle(self, hightor, tmp_path):
        from dataclasses import replace

        from repro.core.pipeline import BatchRule, StageGraph, ref_spec, sdd_spec, snm_spec, tyolo_spec
        from repro.store import assert_store_rows_equal

        streams, zoo = hightor
        m, sizes, outcomes, rows = self._run(streams, zoo, tmp_path / "batched")
        one = replace(ref_spec(), batch=BatchRule("fixed", 1))
        oracle_graph = StageGraph([sdd_spec(), snm_spec(), tyolo_spec(), one], name="ffs-va")
        m1, sizes1, outcomes1, rows1 = self._run(streams, zoo, tmp_path / "oracle", oracle_graph)

        assert sum(sizes) == m.frames_to_ref > 0
        assert sum(sizes) / len(sizes) > 1, sizes
        assert set(sizes1) == {1}
        assert max(sizes) <= ref_spec().batch.size
        assert outcomes == outcomes1
        assert {k: vars(c) for k, c in m.stages.items()} == {k: vars(c) for k, c in m1.stages.items()}
        assert_store_rows_equal(rows, rows1, context="batched vs one-frame reference")

    def test_streams_of_two_resolutions_share_the_reference_queue(self):
        from repro.video import coral, make_stream

        streams = [
            make_stream(jackson(), 80, tor=0.9, seed=3, stream_id="jackson"),
            make_stream(coral(), 80, tor=0.9, seed=4, stream_id="coral"),
        ]
        assert streams[0].pixels(0).shape != streams[1].pixels(0).shape
        zoo = ModelZoo()
        for s in streams:
            zoo.train_for_stream(
                s, n_train_frames=60, stride=2, train_config=TrainConfig(epochs=2, batch_size=32, seed=5)
            )
        # Every frame reaches the merged reference queue, so its batches mix
        # both resolutions; each must still be served, frame for frame.
        pipe = ThreadedPipeline(streams, zoo, FFSVAConfig(cascade="ref-only"))
        m = pipe.run(n_frames=80)
        assert m.frames_to_ref == len(pipe.outcomes) == 160
        by_frame = {(o.stream_id, o.index): o for o in pipe.outcomes}
        for s in streams:
            background = zoo[s.stream_id].background
            for i in range(80):
                o = by_frame[(s.stream_id, i)]
                assert o.stage == "ref"
                assert o.ref_count == zoo.reference.count(s.pixels(i), background)

    def test_tyolo_batch_is_one_round_robin_cycle(self, hightor):
        from collections import Counter

        from repro.obs import Telemetry

        streams, zoo = hightor
        tel = Telemetry()
        cfg = FFSVAConfig(filter_degree=0.9)
        pipe = ThreadedPipeline(streams, zoo, cfg, telemetry=tel)
        m = pipe.run(n_frames=160)
        assert len(pipe.outcomes) == m.frames_offered
        batches: dict[str, dict[tuple, list]] = {"tyolo": {}, "ref": {}}
        order: dict[str, dict[int, list]] = {"tyolo": {}, "ref": {}}
        for ev in tel.bus.events():
            if ev.kind in ("frame_pass", "frame_filter") and ev.stage in batches:
                batches[ev.stage].setdefault((ev.t_start, ev.ts), []).append(ev.stream)
                order[ev.stage].setdefault(ev.stream, []).append(ev.frame)
        tyolo = list(batches["tyolo"].values())
        assert any(len(set(b)) == 2 for b in tyolo), tyolo
        assert max(max(Counter(b).values()) for b in tyolo) <= cfg.num_t_yolo
        # Each stream's frames still reach both detectors in index order.
        for stage, per_stream in order.items():
            assert set(per_stream) == {0, 1}, stage
            for frames in per_stream.values():
                assert frames == sorted(frames), stage

    def test_two_resolutions_through_the_default_cascade(self):
        from repro.video import coral, make_stream

        streams = [
            make_stream(jackson(), 80, tor=0.9, seed=3, stream_id="jackson"),
            make_stream(coral(), 80, tor=0.9, seed=4, stream_id="coral"),
        ]
        zoo = ModelZoo()
        for s in streams:
            zoo.train_for_stream(
                s, n_train_frames=60, stride=2, train_config=TrainConfig(epochs=2, batch_size=32, seed=5)
            )
        # T-YOLO cycles and reference batches both mix the two frame shapes.
        pipe = ThreadedPipeline(streams, zoo, FFSVAConfig(filter_degree=0.9))
        m = pipe.run(n_frames=80)
        assert len(pipe.outcomes) == 160
        analyzed = [o for o in pipe.outcomes if o.stage == "ref"]
        assert m.frames_to_ref == len(analyzed)
        assert {o.stream_id for o in analyzed} == {"jackson", "coral"}
        by_id = {s.stream_id: s for s in streams}
        for o in analyzed:
            pixels = by_id[o.stream_id].pixels(o.index)
            assert o.ref_count == zoo.reference.count(pixels, zoo[o.stream_id].background)
