"""Source workers and the BLAS cap (DESIGN.md §18).

A ``per_stream`` first stage pulls its own stream in batch-sized chunks —
no prefetch thread, no first-stage queue — and OpenBLAS helpers are capped
while ``run()`` lasts.  Everything here is counted through the
``StageLogic`` seam on stub streams whose frame ``t`` is filled with ``t``:
no training, and every verdict is a function of the frame index.
"""

import dataclasses
import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FFSVAConfig
from repro.core.pipeline import ABORTED, CASCADES, StageGraph, StageLogic
from repro.runtime import ThreadedPipeline
from repro.runtime.blas import _openblas_libs, blas_thread_cap

#: Stage -> keep every k-th frame (nested, so counters are exact).
KEEP = {"sdd": 2, "snm": 4, "tyolo": 8}


class CountingStream:
    """The slice of ``VideoStream`` the engine uses; remembers what was
    rendered, and by which thread."""

    kind, fps, shape = "car", 30.0, (4, 4)

    def __init__(self, stream_id: str, n: int):
        self.stream_id, self.n = stream_id, n
        self.rendered: list[int] = []
        self.threads: set = set()

    def __len__(self) -> int:
        return self.n

    def pixels(self, t: int) -> np.ndarray:
        self.rendered.append(t)
        self.threads.add(threading.current_thread())
        return np.full(self.shape, t, dtype=np.float32)


def zoo_for(streams) -> dict:
    return {s.stream_id: SimpleNamespace(stream_id=s.stream_id) for s in streams}


def probe_graph(cascade: str = "ffs-va", hook=None):
    """``cascade``'s topology with index-driven stub logic.  Returns the
    graph and the list its stages append ``(stage, stream, frames, thread)``
    to per ``evaluate`` call; ``hook(stage, frames)`` runs inside the call."""
    calls: list[tuple] = []

    def logic(name: str) -> StageLogic:
        def evaluate(pixels, bundles, zoo, config):
            frames = pixels[:, 0, 0].astype(int)
            calls.append(
                (name, bundles[0].stream_id, frames.tolist(), threading.current_thread())
            )
            if hook is not None:
                hook(name, frames)
            return frames % KEEP.get(name, 1) == 0, np.ones(len(frames), dtype=int)

        return StageLogic(evaluate, lambda trace, cfg: np.ones(len(trace), dtype=bool))

    specs = [dataclasses.replace(s, logic=logic(s.name)) for s in CASCADES[cascade]]
    return StageGraph(specs, name=f"probe-{cascade}"), calls


def batches(calls, stage, stream=None):
    return [f for name, sid, f, _ in calls if name == stage and stream in (None, sid)]


def assert_all_queues_closed_and_empty(pipe):
    for queues in pipe.stage_queues.values():
        for q in queues:
            assert q.closed and len(q) == 0
    for q in pipe.merged_queues.values():
        assert q.closed and len(q) == 0


class TestSourceWorkers:
    def test_default_cascade_runs_ten_workers_and_full_sdd_chunks(self):
        n = 100
        streams = [CountingStream(f"s{i}", n) for i in range(4)]
        graph, calls = probe_graph()
        pipe = ThreadedPipeline(streams, zoo_for(streams), FFSVAConfig(), graph=graph)
        m = pipe.run()
        # 4 SDD + 4 SNM + 1 T-YOLO + 1 ref; rendering happens on the SDD
        # workers, so the threads seen at the seam are all there are.
        assert m.extra["engine"]["worker_threads"] == 10
        seen = {t for *_, t in calls}.union(*(s.threads for s in streams))
        assert len(seen) == 10
        for s in streams:
            assert s.rendered == list(range(n))
            assert len(batches(calls, "sdd", s.stream_id)) <= math.ceil(n / 16) + 1
        assert len(pipe.outcomes) == m.frames_offered == 4 * n
        assert [m.stages[k].entered for k in ("sdd", "snm", "tyolo", "ref")] == [400, 200, 100, 52]
        m.check_conservation()

    def test_paced_source_never_holds_a_due_frame_back(self):
        stream = CountingStream("s0", 60)
        graph, calls = probe_graph()
        pipe = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph)
        m = pipe.run(online=True, paced_fps=40)
        sizes = [len(f) for f in batches(calls, "sdd")]
        assert sum(sizes) == 60
        assert 60 / len(sizes) <= 1.2
        assert m.duration >= 59 / 40  # the last frame was not offered early
        assert len(pipe.outcomes) == 60

    def test_static_policy_fills_every_first_stage_batch(self):
        stream = CountingStream("s0", 100)
        graph, calls = probe_graph("no-sdd")
        cfg = FFSVAConfig(cascade="no-sdd", batch_policy="static", batch_size=8)
        pipe = ThreadedPipeline([stream], zoo_for([stream]), cfg, graph=graph)
        pipe.run()
        sizes = [len(f) for f in batches(calls, "snm")]
        assert sizes == [8] * 12 + [4]

    def test_pooling_first_stage_keeps_its_prefetchers(self):
        streams = [CountingStream(f"s{i}", 50) for i in range(2)]
        graph, calls = probe_graph("tyolo-only")
        pipe = ThreadedPipeline(streams, zoo_for(streams), FFSVAConfig(), graph=graph)
        m = pipe.run()
        assert m.extra["engine"]["worker_threads"] == 4  # 2 prefetch + T-YOLO + ref
        renderers = streams[0].threads | streams[1].threads
        assert len(renderers) == 2 and renderers.isdisjoint({t for *_, t in calls})
        assert len(pipe.outcomes) == 100
        m.check_conservation()

    def test_first_stage_fault_accounts_for_the_unrendered_tail(self):
        n = 200
        stream = CountingStream("s0", n)

        def hook(stage, frames):
            if stage == "sdd" and frames[0] == 16:
                raise RuntimeError("injected first-stage fault")

        graph, _ = probe_graph(hook=hook)
        pipe = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph)
        with pytest.raises(RuntimeError, match="injected first-stage fault"):
            pipe.run()
        assert stream.rendered == list(range(32))
        self.assert_tail_aborted(pipe, stream, n)

    # The second case has a pooling first stage, i.e. the push prefetcher.
    @pytest.mark.parametrize("cascade, faulty", [("ffs-va", "snm"), ("tyolo-only", "ref")])
    def test_downstream_abort_stops_the_source_mid_stream(self, cascade, faulty):
        n = 2000
        stream = CountingStream("s0", n)

        def hook(stage, frames):
            if stage == faulty and frames[0] > 0:
                raise RuntimeError("injected downstream fault")

        graph, _ = probe_graph(cascade, hook=hook)
        pipe = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph)
        with pytest.raises(RuntimeError, match="injected downstream fault"):
            pipe.run()
        assert len(stream.rendered) < n
        self.assert_tail_aborted(pipe, stream, n)

    @staticmethod
    def assert_tail_aborted(pipe, stream, n):
        assert len(pipe.outcomes) == pipe.metrics.frames_offered == n
        assert sorted(o.index for o in pipe.outcomes) == list(range(n))
        stage_of = {o.index: o.stage for o in pipe.outcomes}
        assert all(stage_of[i] == ABORTED for i in range(len(stream.rendered), n))
        assert_all_queues_closed_and_empty(pipe)

    def test_detach_and_attach_partition_the_stream(self):
        n = 1600
        stream = CountingStream("s0", n)
        twin = CountingStream("s0", n)  # the receiving instance's view of it
        started = threading.Event()

        def slow(stage, frames):
            if stage == "sdd":
                started.set()
                time.sleep(0.005)

        graph_a, _ = probe_graph(hook=slow)
        graph_b, calls_b = probe_graph()
        a = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph_a)
        b = ThreadedPipeline([], zoo_for([twin]), FFSVAConfig(), graph=graph_b, reserve_slots=1)
        runs = [threading.Thread(target=p.run, daemon=True) for p in (a, b)]
        for t in runs:
            t.start()
        assert started.wait(10.0)
        boundary = a.detach_stream(0)
        assert 0 < boundary < n and boundary % 16 == 0  # between chunks
        deadline = time.monotonic() + 10.0
        while not b._running and time.monotonic() < deadline:
            time.sleep(0.001)
        b.attach_stream(twin, start=boundary)  # the boundary is all that crosses
        b.seal()
        for t in runs:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in runs)

        # Each side read exactly its own half of the stream, once.
        assert sorted(o.index for o in a.outcomes) == stream.rendered == list(range(boundary))
        assert sorted(o.index for o in b.outcomes) == twin.rendered == list(range(boundary, n))
        assert batches(calls_b, "sdd")[0][0] == boundary
        assert a.metrics.frames_offered == boundary
        assert b.metrics.frames_offered == n - boundary
        for p in (a, b):
            assert_all_queues_closed_and_empty(p)


def blas_counts() -> list[int]:
    return [get() for get, _ in _openblas_libs()]


@pytest.mark.skipif(not blas_counts(), reason="no OpenBLAS mapped: blas_libs == 0, nothing to cap")
class TestBlasCap:
    def run_probe(self, hook):
        stream = CountingStream("s0", 64)
        graph, _ = probe_graph(hook=hook)
        return ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph).run()

    def test_capped_inside_evaluate_and_restored_after_the_run(self):
        before, inside = blas_counts(), []
        m = self.run_probe(lambda stage, frames: inside.append(blas_counts()))
        engine = m.extra["engine"]
        assert engine["blas_libs"] == len(before)
        assert engine["worker_threads"] == 4
        assert inside and all(c == [engine["blas_threads"]] * len(before) for c in inside)
        assert blas_counts() == before

    def test_restored_after_a_run_that_raised(self):
        before = blas_counts()

        def hook(stage, frames):
            raise RuntimeError("injected fault")

        with pytest.raises(RuntimeError, match="injected fault"):
            self.run_probe(hook)
        assert blas_counts() == before

    def test_overlapping_runs_share_one_cap_and_the_last_restores(self):
        before = blas_counts()
        with blas_thread_cap(10**6) as outer:
            with blas_thread_cap(1) as inner:
                assert inner == outer == {"blas_threads": 1, "blas_libs": len(before)}
            assert blas_counts() == [1] * len(before)
        assert blas_counts() == before
