"""Source workers and the BLAS cap (DESIGN.md §18, §24).

Every first stage pops its streams' feeds in batch-sized chunks — no
prefetch thread, no first-stage queue, the engine's one worker per usable
CPU popping them like any stage input; paced, a pop lets ``paced_hold``
frames come due and times each frame from its due time (§22) — and
OpenBLAS helpers are capped while ``run()`` lasts.
Everything here is counted through the ``StageLogic`` seam on stub streams
whose frame ``t`` is filled with ``t``: no training, and every verdict is
a function of the frame index.
"""

import dataclasses
import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FFSVAConfig
from repro.core.batching import LATENCY_OBJECTIVE, paced_hold
from repro.core.pipeline import (
    ABORTED,
    CASCADES,
    FUSED,
    SHARED_RR,
    StageGraph,
    StageLogic,
    scaled_graph,
)
from repro.obs import Telemetry, build_all_lineages
from repro.runtime import ThreadedPipeline
from repro.runtime.blas import _openblas_libs, blas_thread_cap, usable_cpus

#: Stage -> keep every k-th frame (nested, so counters are exact).
KEEP = {"sdd": 2, "snm": 4, "tyolo": 8}


class CountingStream:
    """The slice of ``VideoStream`` the engine uses; remembers what was
    rendered, when, and by which thread."""

    kind, fps, shape = "car", 30.0, (4, 4)

    def __init__(self, stream_id: str, n: int):
        self.stream_id, self.n = stream_id, n
        self.rendered: list[int] = []
        self.popped: list[float] = []  # time.monotonic() of each render
        self.threads: set = set()

    def __len__(self) -> int:
        return self.n

    def pixels(self, t: int) -> np.ndarray:
        self.rendered.append(t)
        self.popped.append(time.monotonic())
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


def assert_all_queues_empty(pipe):
    """No feed, stage queue or out-buffer holds a frame at the end."""
    assert not any(len(q) for q in [*pipe._feeds, *pipe.kernel.queues])
    assert not pipe._held


class TestSourceWorkers:
    def test_default_cascade_one_worker_per_cpu_full_sdd_chunks(self):
        n = 100
        streams = [CountingStream(f"s{i}", n) for i in range(4)]
        graph, calls = probe_graph()
        pipe = ThreadedPipeline(streams, zoo_for(streams), FFSVAConfig(), graph=graph)
        m = pipe.run()
        # One worker per usable CPU, whatever the stages and streams; it
        # renders and evaluates, so the threads seen at the seam are its own.
        assert m.extra["engine"]["worker_threads"] == usable_cpus()
        seen = {t for *_, t in calls}.union(*(s.threads for s in streams))
        assert 1 <= len(seen) <= usable_cpus()
        assert all(t.name.startswith("engine-worker-") for t in seen)
        for s in streams:
            assert s.rendered == list(range(n))
            assert len(batches(calls, "sdd", s.stream_id)) <= math.ceil(n / 16) + 1
        assert len(pipe.outcomes) == m.frames_offered == 4 * n
        assert [m.stages[k].entered for k in ("sdd", "snm", "tyolo", "ref")] == [400, 200, 100, 52]
        m.check_conservation()

    def test_paced_source_never_holds_a_due_frame_back(self):
        n, fps = 24, 16.0  # below 20 fps the hold is a single frame
        assert paced_hold(fps, 16) == 1
        stream = CountingStream("s0", n)
        graph, calls = probe_graph()
        pipe = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph)
        m = pipe.run(online=True, paced_fps=fps)
        sizes = [len(f) for f in batches(calls, "sdd")]
        assert sum(sizes) == n
        assert n / len(sizes) <= 1.2
        assert m.duration >= (n - 1) / fps  # the last frame was not offered early
        assert len(pipe.outcomes) == n

    def test_paced_source_holds_until_its_batch_is_due(self):
        n, fps = 62, 40.0
        stream = CountingStream("s0", n)
        graph, calls = probe_graph()
        pipe = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph)
        m = pipe.run(online=True, paced_fps=fps)
        k = paced_hold(fps, 16)
        q, tail = divmod(n, k)
        assert (k, tail) == (3, 2)
        assert [len(f) for f in batches(calls, "sdd")] == [k] * q + [tail]
        assert m.extra["engine"]["paced_hold"] == k
        t0 = pipe._feeds[0].t0  # frame i is due at t0 + i / fps
        assert stream.rendered == list(range(n))
        assert all(t >= t0 + i / fps for i, t in enumerate(stream.popped))
        assert m.duration >= (n - 1) / fps  # the last frame was not offered early
        assert len(pipe.outcomes) == n

    def test_paced_latency_runs_from_the_due_time(self):
        n, fps = 40, 40.0
        stream = CountingStream("s0", n)
        stall: list[float] = []

        def hook(stage, frames):
            if stage == "sdd" and not stall:
                t = time.monotonic()
                time.sleep(0.06)
                stall.extend([t, time.monotonic()])

        graph, _ = probe_graph(hook=hook)
        pipe = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph)
        pipe.run(online=True, paced_fps=fps)
        t0 = pipe._feeds[0].t0
        latency = {o.index: o.latency for o in pipe.outcomes}
        came_due = [i for i in range(n) if stall[0] <= t0 + i / fps <= stall[1]]
        assert came_due
        for i in came_due:
            # Popped late because the worker was stalled: that wait counts.
            waited = stream.popped[i] - (t0 + i / fps)
            assert waited > 0 and latency[i] >= waited

    def test_static_policy_fills_every_first_stage_batch(self):
        stream = CountingStream("s0", 100)
        graph, calls = probe_graph("no-sdd")
        cfg = FFSVAConfig(cascade="no-sdd", batch_policy="static", batch_size=8)
        pipe = ThreadedPipeline([stream], zoo_for([stream]), cfg, graph=graph)
        pipe.run()
        sizes = [len(f) for f in batches(calls, "snm")]
        assert sizes == [8] * 12 + [4]

    def test_pooling_first_stage_pulls_its_feeds(self):
        streams = [CountingStream(f"s{i}", 50) for i in range(2)]
        graph, calls = probe_graph("tyolo-only")
        pipe = ThreadedPipeline(streams, zoo_for(streams), FFSVAConfig(), graph=graph)
        m = pipe.run()
        assert m.extra["engine"]["worker_threads"] == usable_cpus()  # no prefetcher
        # Every frame is rendered by the worker serving its T-YOLO batch.
        renderers = streams[0].threads | streams[1].threads
        assert renderers == {t for name, *_, t in calls if name == "tyolo"}
        assert len(renderers) <= usable_cpus()
        assert len(pipe.outcomes) == 100
        m.check_conservation()

    @pytest.mark.parametrize("cascade, fusion", [("tyolo-only", False), ("no-sdd", True)])
    def test_paced_pooling_first_stage_holds_within_the_objective(self, cascade, fusion):
        n, fps = 40, 80.0
        streams = [CountingStream(f"s{i}", n) for i in range(2)]
        graph, _ = probe_graph(cascade)
        graph = scaled_graph(graph, snm_fusion=fusion)
        assert graph.first.fan_in == (FUSED if fusion else SHARED_RR)
        cfg = FFSVAConfig(cascade=cascade, snm_fusion=fusion)
        tel = Telemetry()
        pipe = ThreadedPipeline(streams, zoo_for(streams), cfg, graph=graph, telemetry=tel)
        m = pipe.run(online=True, paced_fps=fps)
        m.check_conservation()
        assert len(pipe.outcomes) == m.frames_offered == 2 * n
        cap = cfg.batch_size if fusion else cfg.num_t_yolo
        assert m.extra["engine"]["paced_hold"] == paced_hold(fps, cap)
        assert 0 <= min(o.latency for o in pipe.outcomes)
        assert max(o.latency for o in pipe.outcomes) <= LATENCY_OBJECTIVE
        # Admission is stamped at each frame's due time, the origin of its
        # recorded latency, so the lineage partition covers all of it.
        lineages = build_all_lineages(
            tel.bus.events(), terminal=graph.terminal.name, dropped=tel.bus.dropped
        )
        by_index = {v["index"]: sid for sid, v in pipe.lineage_context()["streams"].items()}
        outcomes = {(o.stream_id, o.index): o for o in pipe.outcomes}
        assert len(lineages) == len(outcomes)
        for lin in lineages:
            outcome = outcomes[(by_index[lin.stream], lin.frame)]
            assert lin.totals()["total"] == pytest.approx(outcome.latency, abs=0.002)

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

    # The second case has a first stage that pools its streams' feeds.
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
        assert_all_queues_empty(pipe)

    def test_detach_and_attach_partition_the_stream(self):
        self.assert_detach_and_attach_partition("ffs-va", chunk=16)

    # One worker pops every stream's feed, a chunk per visit.
    @pytest.mark.parametrize("cascade, chunk", [("tyolo-only", 2), ("ref-only", 8)])
    def test_detach_and_attach_partition_a_pooled_stream(self, cascade, chunk):
        self.assert_detach_and_attach_partition(cascade, chunk)

    @staticmethod
    def assert_detach_and_attach_partition(cascade, chunk):
        """Instance ``a`` detaches its one stream mid-run at a chunk
        boundary; a reserve slot of instance ``b`` takes it from there."""
        n = 1600
        stream = CountingStream("s0", n)
        twin = CountingStream("s0", n)  # the receiving instance's view of it
        started = threading.Event()
        first = CASCADES[cascade].first.name

        def slow(stage, frames):
            if stage == first:
                started.set()
                time.sleep(0.005)

        graph_a, _ = probe_graph(cascade, hook=slow)
        graph_b, calls_b = probe_graph(cascade)
        a = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph_a)
        b = ThreadedPipeline([], zoo_for([twin]), FFSVAConfig(), graph=graph_b, reserve_slots=1)
        runs = [threading.Thread(target=p.run, daemon=True) for p in (a, b)]
        for t in runs:
            t.start()
        assert started.wait(10.0)
        boundary = a.detach_stream(0)
        assert 0 < boundary < n and boundary % chunk == 0  # between chunks
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
        assert batches(calls_b, first)[0][0] == boundary
        assert a.metrics.frames_offered == boundary
        assert b.metrics.frames_offered == n - boundary
        for p in (a, b):
            assert_all_queues_empty(p)

    def test_detach_mid_hold_partitions_the_stream(self):
        n, fps = 400, 40.0  # 10 s of stream: the detach comes long before its end
        k = paced_hold(fps, 16)
        stream = CountingStream("s0", n)
        twin = CountingStream("s0", n)
        served = threading.Event()

        def hook(stage, frames):
            if stage == "sdd" and frames[0] >= k:
                served.set()

        graph_a, _ = probe_graph(hook=hook)
        graph_b, calls_b = probe_graph()
        a = ThreadedPipeline([stream], zoo_for([stream]), FFSVAConfig(), graph=graph_a)
        b = ThreadedPipeline([], zoo_for([twin]), FFSVAConfig(), graph=graph_b, reserve_slots=1)
        runs = [
            threading.Thread(target=a.run, kwargs={"online": True, "paced_fps": fps}, daemon=True),
            threading.Thread(target=b.run, daemon=True),
        ]
        for t in runs:
            t.start()
        assert served.wait(10.0)
        time.sleep(1 / fps)  # well inside the next hold of k / fps
        boundary = a.detach_stream(0)
        assert 2 * k <= boundary < n
        deadline = time.monotonic() + 10.0
        while not b._running and time.monotonic() < deadline:
            time.sleep(0.001)
        b.attach_stream(twin, start=boundary)
        b.seal()
        for t in runs:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in runs)

        assert sorted(o.index for o in a.outcomes) == stream.rendered == list(range(boundary))
        assert sorted(o.index for o in b.outcomes) == twin.rendered == list(range(boundary, n))
        assert batches(calls_b, "sdd")[0][0] == boundary
        assert a.metrics.frames_offered == boundary
        assert b.metrics.frames_offered == n - boundary
        for p in (a, b):
            assert_all_queues_empty(p)


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
        assert engine["worker_threads"] == usable_cpus()
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
