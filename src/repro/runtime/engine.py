"""Threaded FFS-VA runtime: real models, real queues, real threads.

This is the functional counterpart of the discrete-event simulator: every
stage is an independent thread (Section 3.1.2's "through the parallel and
pipelined structure of multiple threads"), connected by the bounded
:class:`~repro.core.queues.FeedbackQueue` instances that implement the
global feedback mechanism.

The cascade topology is not hard-coded here: workers and queues are
constructed from a :class:`~repro.core.pipeline.StageGraph` (the shared
control plane, by default the config's cascade).  The first stage pops its
streams' sources (``_Feed``) the way later stages pop their queues: one
worker per stream when it is ``per_stream``, one worker over every stream's
feed otherwise.  Each later ``per_stream`` stage has one worker per stream,
each ``shared_rr`` stage a single worker that round-robins over the
per-stream queues, and each ``merged`` stage a single worker draining one
merged queue.

Device placement is honoured with locks: stages hosted on a GPU acquire
that device's lock around inference (SNM and T-YOLO share ``gpu0`` in the
paper, the reference model owns ``gpu1``); CPU stages run lock-free.  On a
CPU-only host this costs nothing but keeps the execution structure
faithful.

The runtime is meant for functional validation and moderate scales; the
paper-scale experiments use :mod:`repro.sim` with the calibrated cost model.
Both are drivers around one :class:`~repro.core.kernel.CascadeKernel`, which
owns every decision that needs no clock (wiring, routing, batch settlement,
records, gauges); what is left here needs threads or wall time.  The two
can be cross-checked with :func:`repro.core.metrics.assert_stage_counts_equal`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..core.batching import batch_floor, decide_fused_batch, fused_pop_order, paced_hold
from ..core.config import FFSVAConfig
from ..core.kernel import CascadeKernel, StreamInfo
from ..core.metrics import LatencyStats, RunMetrics
from ..core.pipeline import (
    ABORTED,
    DROPPED,
    FUSED,
    MERGED,
    PER_STREAM,
    SHARED_RR,
    SNM,
    StageGraph,
    StageSpec,
    cascade,
)
from ..core.queues import FeedbackQueue, QueueClosed
from ..devices.placement import Placement, ffs_va_placement
from ..models.zoo import ModelZoo
from ..obs import Telemetry
from .blas import blas_thread_cap
from .heap import trim_heap
from .procpool import ProcPool
from ..video.stream import VideoStream

__all__ = ["FrameOutcome", "ThreadedPipeline"]


@dataclass(frozen=True)
class FrameOutcome:
    """Where one frame's journey through the cascade ended."""

    stream_id: str
    index: int
    #: The stage that dropped the frame; the terminal stage's name means the
    #: frame was fully analyzed; ``"aborted"`` means the pipeline shut down
    #: while the frame was still in flight.
    stage: str
    ref_count: int | None  # terminal-stage object count (analyzed frames only)
    #: Seconds to the final disposition: from capture (the frame's due time)
    #: when paced, from the first stage's pop offline.
    latency: float


class _Work(NamedTuple):
    """A frame in flight between stages; its first two fields are the
    ``(stream, frame)`` pair the kernel identifies it by."""

    stream_idx: int
    index: int
    pixels: np.ndarray
    t_start: float


@dataclass
class _StreamCtx:
    stream: VideoStream | None
    bundle: object | None


@dataclass
class _Feed:
    """One stream slot's source, which the first stage pops like a queue.

    It offers global stream frames ``[start, start + count)`` once
    :meth:`open` is called: at ``run()`` for the pipeline's own streams, at
    ``attach_stream`` for a reserve slot, whose feed waits open and empty
    until then (``seal`` opens an unused one on an empty range).  ``offered``
    counts the frames popped.  Setting ``stop`` (a detach) ends the feed
    between chunks; ``start + offered``, read under ``lock``, is then the
    exact handoff index: every frame before it was offered here, none after.

    ``pop_batch``/``closed``/``len`` are :class:`FeedbackQueue`'s consumer
    contract: ``len`` is what a pop could return now (every remaining frame
    offline, the due ones when paced), and ``closed`` means no frame will
    come that ``len`` does not count yet.  No feedback is lost: the first
    stage's queue only ever buffered the source (``core/admission.py``).
    """

    pipe: ThreadedPipeline
    slot: int
    start: int = 0
    count: int = 0
    offered: int = 0
    source0: np.ndarray = field(default_factory=lambda: np.zeros(2, dtype=int))
    t0: float = 0.0  # when frame ``start`` is due (paced)
    opened: threading.Event = field(default_factory=threading.Event)
    stop: threading.Event = field(default_factory=threading.Event)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def open(self, start: int, count: int) -> None:
        """Offer frames ``[start, start + count)``, the first of them due now."""
        self.source0 = _source_counts(self.pipe.ctxs[self.slot].stream)
        self.start, self.t0 = start, time.monotonic()
        self.count = count
        self.opened.set()
        self.pipe._wake[self.pipe.graph.first.name].set()

    @property
    def active(self) -> bool:
        """Still offering frames here (re-forwardable)."""
        return not self.stop.is_set() and self.offered < self.count

    def _halted(self) -> bool:
        return self.stop.is_set() or self.pipe._abort.is_set()

    def _due(self) -> int:
        """Frames of the range a pop may have taken by now: all of them
        offline, those already due when paced (none before :meth:`open`)."""
        if not self.opened.is_set():
            return 0
        fps = self.pipe._paced_fps
        if fps is None:
            return self.count
        return min(self.count, int((time.monotonic() - self.t0) * fps) + 1)

    @property
    def closed(self) -> bool:
        return self._halted() or (self.opened.is_set() and self._due() == self.count)

    def __len__(self) -> int:
        return 0 if self._halted() else self._due() - self.offered

    def due_in(self, max_n: int, min_n: int = 1) -> float:
        """Seconds until ``pop_batch(max_n, min_n)`` of an active feed can
        return frames: until ``max(min_n, paced_hold(fps, max_n))`` of them,
        or the rest of the range, are due."""
        fps = self.pipe._paced_fps
        if fps is None:
            return 0.0
        need = min(max(min_n, paced_hold(fps, max_n)), self.count - self.offered)
        return self.t0 + (self.offered + need - 1) / fps - time.monotonic()

    def pop_batch(self, max_n: int, min_n: int = 1, timeout: float | None = None) -> list:
        """Render the next chunk and admit it into the first stage.

        Offline that is ``max_n`` frames, or what is left, at once.  A paced
        feed waits — ``timeout`` at most, then ``[]`` — until :meth:`due_in`
        says so and returns every due frame up to ``max_n``; each frame's
        clock then starts at its due time, not at the pop.  A feed not yet
        opened waits for :meth:`open` the same way.
        """
        if not self.opened.wait(timeout) or not self.active:
            return []
        pipe, fps = self.pipe, self.pipe._paced_fps
        wait = self.due_in(max_n, min_n)
        # Waits on ``stop`` so a detach mid-hold returns at once.
        if wait > 0 and (
            self.stop.wait(wait if timeout is None else min(wait, timeout))
            or self.due_in(max_n, min_n) > 0
        ):
            return []
        with self.lock:
            j, n = self.offered, min(max_n, len(self))  # none once stopped
            stream = pipe.ctxs[self.slot].stream
            works = [
                _Work(
                    self.slot, i, stream.pixels(i),
                    time.monotonic() if fps is None else self.t0 + (i - self.start) / fps,
                )
                for i in range(self.start + j, self.start + j + n)
            ]
            self.offered = j + n
        if pipe.telemetry is not None:
            now, first = pipe._now(), pipe.graph.first.name
            for w in works:
                t = now if fps is None else w.t_start - pipe._t0
                pipe.kernel.entered(first, w.stream_idx, w.index, t, admitted=True)
        return works


class ThreadedPipeline:
    """Run a stage graph end-to-end with real inference on a set of streams.

    With ``reserve_slots > 0`` the pipeline becomes a *cluster instance*:
    it pre-builds that many extra single-use stream slots (feeds, queues and
    workers all exist before any thread starts), so a stream
    can be attached mid-run via :meth:`attach_stream` after another
    instance detached it at a frame boundary with :meth:`detach_stream`.
    In that mode :meth:`run` does not return until :meth:`seal` closes the
    never-used slots — the supervisor seals once every frame in the cluster
    has an outcome.
    """

    def __init__(
        self,
        streams: list[VideoStream],
        zoo: ModelZoo,
        config: FFSVAConfig | None = None,
        placement: Placement | None = None,
        graph: StageGraph | str | None = None,
        telemetry: Telemetry | None = None,
        *,
        reserve_slots: int = 0,
        store=None,
        plan_catalog=None,
    ):
        if not streams and reserve_slots <= 0:
            raise ValueError("need at least one stream")
        for s in streams:
            if s.stream_id not in zoo:
                raise ValueError(
                    f"stream {s.stream_id} has no trained models; call "
                    "zoo.train_for_stream() first"
                )
        cfg = config or FFSVAConfig()
        graph = cascade(graph) if graph is not None else cfg.graph()
        if reserve_slots:
            # Process pools and fused evaluators capture the bundle roster at
            # fork/build time, before a mid-run attach could fill a slot.
            if any(spec.executor == "process" for spec in graph):
                raise ValueError("reserve_slots is incompatible with executor='process'")
            if any(spec.fan_in == FUSED for spec in graph):
                raise ValueError("reserve_slots is incompatible with fused stages")
            if cfg.plan == "adaptive":
                # The planner's chunk accounting and the terminal
                # producer-count bookkeeping assume a fixed stream roster.
                raise ValueError("reserve_slots is incompatible with plan='adaptive'")
        #: The clock-free half of the run (repro.core.kernel): wiring, metrics
        #: and every per-batch decision; this class adds threads and wall time.
        self.kernel = k = CascadeKernel(
            cfg, graph, telemetry=telemetry, store=store, plan_catalog=plan_catalog
        )
        self.config, self.graph, self.metrics = cfg, graph, k.metrics
        self.telemetry, self.admission, self.planner = k.telemetry, k.admission, k.planner
        self.store = k.store
        self.lineage_context = k.lineage_context
        self.zoo = zoo
        self.placement = placement or ffs_va_placement()
        self.ctxs = [_StreamCtx(stream=s, bundle=zoo[s.stream_id]) for s in streams]
        self.ctxs += [_StreamCtx(stream=None, bundle=None) for _ in range(reserve_slots)]
        for ctx in self.ctxs:
            k.add_stream(_stream_info(ctx.stream) if ctx.stream is not None else None)
        n = len(self.ctxs)

        #: Per-slot sources: the first stage's input, whatever its fan-in.
        self._feeds = [_Feed(self, i) for i in range(n)]
        #: Per-stage input queues: the feeds for the first stage, then one
        #: per stream for per_stream/shared_rr stages, a single merged
        #: queue otherwise.
        self.stage_queues: dict[str, list] = {self.graph.first.name: self._feeds}
        self.merged_queues: dict[str, FeedbackQueue] = {}
        for spec in list(self.graph)[1:]:
            queues = k.make_queues(spec, FeedbackQueue, range(n))
            if spec.fan_in == MERGED:
                self.merged_queues[spec.name] = queues[0]
            else:
                self.stage_queues[spec.name] = queues

        # Idle pooling workers park on these instead of spin-polling;
        # producers set the event on every put into (or close of) one of
        # the stage's per-stream queues, and a feed when it opens.
        self._wake = {spec.name: threading.Event() for spec in self.graph}
        # A merged queue is closed by the *last* of its producers.
        self._producers_left = {q: self._producer_count(self.graph[q]) for q in self.merged_queues}
        self._producers_lock = threading.Lock()

        self._devnames = {spec.name: self.placement.hosts(spec)[0] for spec in self.graph}
        self._locks = {spec.name: self._device_lock(spec) for spec in self.graph}
        self._t0 = 0.0  # run-start monotonic reference for telemetry stamps
        self.outcomes: list[FrameOutcome] = []
        self._outcome_lock = threading.Lock()
        self._feed_lock = threading.Lock()
        self._sealed = reserve_slots == 0
        self._paced_fps: float | None = None
        self._running = False
        self._ran = False
        self._errors: list[BaseException] = []
        self._abort = threading.Event()
        #: Process pools keyed by stage name, built in run() *before* any
        #: runtime thread starts (fork-with-threads safety) for specs with
        #: executor="process".
        self._pools: dict[str, ProcPool] = {}
        #: Cross-stream evaluators keyed by stage name for fused stages
        #: whose logic provides build_fused; fused stages without one fall
        #: back to grouping each mega-batch by stream.
        self._fused_eval: dict = {}
        #: Per-degree config clones for plan-driven SNM thresholds, keyed by
        #: filter degree (built lazily; the planner's degree set is small).
        self._degree_cfgs: dict[float, FFSVAConfig] = {}

    # ------------------------------------------------------------------
    # graph-driven construction helpers
    # ------------------------------------------------------------------
    def _producer_count(self, spec: StageSpec) -> int:
        """How many worker threads feed ``spec``'s merged queue."""
        if self.kernel.plan_routing and spec.terminal:
            # Early exits let *every* non-terminal stage's workers route
            # passers straight here, so the queue only closes once all of
            # them are done (each decrements once per worker on finish).
            return sum(
                len(self.ctxs) if s.fan_in == PER_STREAM else 1
                for s in self.graph
                if not s.terminal
            )
        prev = self.graph.upstream(spec.name)[-1]
        return len(self.ctxs) if prev.fan_in == PER_STREAM else 1

    def _loop(self, spec: StageSpec):
        """The worker loop serving ``spec``: a first stage that pools
        streams pops every slot's feed from one worker (``merged`` by
        round-robin, one stream per batch), as a later one pops its queues."""
        if spec.fan_in == FUSED:
            return self._fused_loop
        if spec.fan_in == SHARED_RR or (spec.fan_in == MERGED and spec is self.graph.first):
            return self._shared_loop
        return self._queue_loop

    def _device_lock(self, spec: StageSpec):
        device = self.placement.devices.get(self._devnames[spec.name])
        if device is not None and device.kind == "gpu":
            return device.lock
        return nullcontext()

    def _input_queue(self, spec: StageSpec, stream_idx: int) -> FeedbackQueue:
        if spec.fan_in == MERGED:
            return self.merged_queues[spec.name]
        return self.stage_queues[spec.name][stream_idx]

    def _batch_bounds(self, spec: StageSpec) -> tuple[int, int]:
        """(max_n, min_n) for a per-stream or merged worker's pop_batch."""
        cfg = self.config
        rule = spec.batch
        if rule.kind == "config":
            depth = cfg.queue_depth(spec.depth_key)
            return cfg.batch_size, batch_floor(cfg.batch_policy, cfg.batch_size, depth)
        if rule.kind == "rr_cap":
            return cfg.num_t_yolo, 1
        return rule.size, 1

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _record(self, work: _Work, stage: str, ref_count=None, t_done: float | None = None) -> None:
        """``work``'s journey ended at ``stage``: when its batch completed at
        ``t_done`` (run clock) if a stage disposed of it, now otherwise."""
        t_end = time.monotonic() if t_done is None else self._t0 + t_done
        outcome = FrameOutcome(
            stream_id=self.ctxs[work.stream_idx].stream.stream_id,
            index=work.index,
            stage=stage,
            ref_count=ref_count,
            latency=t_end - work.t_start,
        )
        with self._outcome_lock:
            self.outcomes.append(outcome)
        self.kernel.record(
            work.stream_idx, work.index, stage, outcome.latency,
            float(ref_count) if ref_count is not None else 0.0,
        )

    def _fail(self, exc: BaseException) -> None:
        self._errors.append(exc)
        self._abort.set()

    def _now(self) -> float:
        """Seconds since run start — the telemetry timestamp base (so the
        threaded timeline is comparable with the simulator's virtual one)."""
        return time.monotonic() - self._t0

    def _put(self, spec: StageSpec, queue: FeedbackQueue, work: _Work) -> str:
        """Blocking put into ``spec``'s input: ``"ok"``, ``"dropped"``, or
        ``"abort"``.

        Gives up on abort (a worker dying downstream must not leave its
        producer blocked forever on a full feedback queue).  With
        ``config.queue_put_timeout`` set, a put that stays blocked past the
        deadline — or that finds the downstream queue already closed —
        reports ``"dropped"`` so the caller can give the frame a terminal
        disposition instead of losing it silently.
        """
        k = self.kernel
        traced = k.telemetry is not None
        s_idx, f_idx = work.stream_idx, work.index
        timeout = self.config.queue_put_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._abort.is_set():
            try:
                if queue.put(work, timeout=0.1):
                    if spec.fan_in in (SHARED_RR, FUSED):
                        self._wake[spec.name].set()
                    if traced:
                        k.entered(spec.name, s_idx, f_idx, self._now())
                    return "ok"
            except QueueClosed:
                if traced:
                    k.blocked(spec.name, s_idx, f_idx, self._now(), len(queue))
                return "dropped"
            # Timed out against a full queue: one observed back-pressure stall.
            if traced:
                k.blocked(spec.name, s_idx, f_idx, self._now(), len(queue))
            if deadline is not None and time.monotonic() >= deadline:
                return "dropped"
        return "abort"

    # ------------------------------------------------------------------
    # close protocol
    # ------------------------------------------------------------------
    def _close_input(self, spec: StageSpec, stream_idx: int | None) -> None:
        """A producer finished feeding ``spec`` (for one stream, or all)."""
        if spec.fan_in == MERGED:
            with self._producers_lock:
                self._producers_left[spec.name] -= 1
                last = self._producers_left[spec.name] <= 0
            if last:
                self.merged_queues[spec.name].close()
            return
        queues = self.stage_queues[spec.name]
        targets = queues if stream_idx is None else [queues[stream_idx]]
        for q in targets:
            q.close()
        self._wake[spec.name].set()

    def _downstream_done(self, spec: StageSpec, stream_idx: int | None) -> None:
        nxt = self.graph.next(spec.name)
        if nxt is not None:
            self._close_input(nxt, stream_idx)
        if self.kernel.plan_routing and not spec.terminal and nxt is not None and not nxt.terminal:
            # Under adaptive depth planning this worker was also a potential
            # producer of the terminal queue (early exits); release its
            # share of that producer count.  When ``nxt`` *is* the terminal
            # the decrement above already covered it.
            self._close_input(self.graph.terminal, stream_idx)

    # ------------------------------------------------------------------
    # stage service
    # ------------------------------------------------------------------
    def _stacked_pixels(self, works: list[_Work], scratch: dict | None) -> np.ndarray:
        """Batch pixel tensor for ``works``, reusing the worker's buffer.

        Buffers are preallocated per worker thread (grown once to the
        stage's batch cap) and overwritten on every batch; stage logic
        treats its input as read-only and never retains it past
        ``evaluate``.  They are keyed by frame shape/dtype so a shared
        stage round-robining over streams of different resolutions keeps
        one steady-state buffer per resolution instead of reallocating
        every time consecutive cycles alternate shapes.
        """
        first = works[0].pixels
        if scratch is None:
            return np.stack([w.pixels for w in works])
        n = len(works)
        key = ("pixels", first.shape, first.dtype.str)
        buf = scratch.get(key)
        if buf is None or buf.shape[0] < n:
            cap = max(n, int(scratch.get("cap", 0)))
            buf = scratch[key] = np.empty((cap, *first.shape), dtype=first.dtype)
        out = buf[:n]
        np.stack([w.pixels for w in works], out=out)
        return out

    def _serve(self, spec: StageSpec, works: list[_Work], scratch: dict | None = None) -> bool:
        """Evaluate one batch and route each frame; False aborts the worker.

        The kernel splits the batch into plan-homogeneous groups (one group
        except where an adaptive SNM batch crosses a chunk boundary).
        """
        for group in self.kernel.plan_groups(spec, works):
            if not self._serve_one(spec, group, scratch):
                return False
        return True

    def _serve_by_shape(self, spec: StageSpec, works: list[_Work], scratch: dict) -> bool:
        """Serve a batch that pools streams, one group per frame shape:
        streams can differ in resolution, and a batch tensor needs one
        (a single group in the homogeneous common case)."""
        groups: dict[tuple, list[_Work]] = {}
        for w in works:
            groups.setdefault(w.pixels.shape, []).append(w)
        return all(self._serve(spec, group, scratch) for group in groups.values())

    def _cfg_for_degree(self, degree: float) -> FFSVAConfig:
        cfg = self._degree_cfgs.get(degree)
        if cfg is None:
            cfg = self._degree_cfgs[degree] = self.config.with_(filter_degree=degree)
        return cfg

    def _serve_one(
        self, spec: StageSpec, works: list[_Work], scratch: dict | None = None
    ) -> bool:
        """Evaluate one plan-homogeneous batch and route each frame.

        Every frame of the batch reaches a terminal record or the next
        stage's queue — on failure or abort the leftovers are recorded as
        ``"aborted"`` so no outcome is ever silently lost.
        """
        done = 0
        kernel = self.kernel
        planner = kernel.planner
        cfg = self.config
        deg_vec = None  # per-stream degree vector for the fused SNM path
        if planner is not None and spec.name == SNM:
            if spec.fan_in == FUSED:
                deg_vec = np.full(len(self.ctxs), cfg.filter_degree)
                for w in works:
                    deg_vec[w.stream_idx] = planner.degree_for(w.stream_idx, w.index)
            else:
                d = planner.degree_for(works[0].stream_idx, works[0].index)
                if d != cfg.filter_degree:
                    cfg = self._cfg_for_degree(d)
        try:
            n = len(works)
            pool = self._pools.get(spec.name)
            if pool is None:
                # Singleton batches are the threaded runtime's common case at
                # low load: a (1, H, W) view costs nothing, np.stack copies.
                pixels = works[0].pixels[None] if n == 1 else self._stacked_pixels(works, scratch)
            if pool is not None:
                # Process-pool path: the batch travels as (stream, frame)
                # indices and the worker reads the stored clip itself; no
                # device lock (pools host CPU stages) and no GIL contention —
                # the busy time is the worker's own clock.
                t_exec = self._now()
                passes, info, busy = pool.run_batch(
                    [w.stream_idx for w in works], [w.index for w in works], self._abort
                )
                t_done = self._now()
                if self._abort.is_set():
                    for w in works:
                        self._record(w, ABORTED)
                    return False
            elif spec.fan_in == FUSED:
                sidx = np.fromiter((w.stream_idx for w in works), dtype=np.intp, count=n)
                fused_fn = self._fused_eval.get(spec.name)
                with self._locks[spec.name]:
                    t_exec = self._now()
                    if fused_fn is not None:
                        if deg_vec is not None:
                            passes, info = fused_fn(pixels, sidx, degrees=deg_vec)
                        else:
                            passes, info = fused_fn(pixels, sidx)
                    else:
                        # Generic fused fallback: evaluate the mega-batch
                        # grouped per stream (same results, no weight fusion).
                        passes = np.empty(n, dtype=bool)
                        info = None
                        for k in np.unique(sidx):
                            sel = np.nonzero(sidx == k)[0]
                            kcfg = cfg
                            if deg_vec is not None:
                                kcfg = self._cfg_for_degree(float(deg_vec[int(k)]))
                            p, _ = spec.logic.evaluate(
                                pixels[sel],
                                [self.ctxs[int(k)].bundle] * len(sel),
                                self.zoo,
                                kcfg,
                            )
                            passes[sel] = np.asarray(p, dtype=bool)
                    t_done = self._now()
                busy = t_done - t_exec
            else:
                if spec.fan_in == MERGED:
                    ctxs = self.ctxs
                    bundles = [ctxs[w.stream_idx].bundle for w in works]
                else:
                    # per_stream / shared_rr batches always come from one
                    # stream's queue: one bundle lookup serves the whole batch.
                    bundles = [self.ctxs[works[0].stream_idx].bundle] * n
                with self._locks[spec.name]:
                    t_exec = self._now()
                    passes, info = spec.logic.evaluate(pixels, bundles, self.zoo, cfg)
                    t_done = self._now()
                busy = t_done - t_exec
            passes = np.asarray(passes, dtype=bool).tolist()
            kernel.settle(
                spec, [w[:2] for w in works], passes, t_exec, t_done, busy,
                device=self._devnames[spec.name],
            )
            for i, work in enumerate(works):
                if spec.terminal:
                    detail = None if info is None else int(info[i])
                    self._record(work, spec.name, ref_count=detail, t_done=t_done)
                elif passes[i]:
                    tgt = kernel.target(spec, work.stream_idx, work.index)
                    status = self._put(tgt, self._input_queue(tgt, work.stream_idx), work)
                    if status == "abort":
                        for w in works[i:]:
                            self._record(w, ABORTED)
                        return False
                    if status == "dropped":
                        self._record(work, DROPPED)
                else:
                    self._record(work, spec.name, t_done=t_done)
                done = i + 1
            return True
        except BaseException:
            for w in works[done:]:
                self._record(w, ABORTED)
            raise

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _stage_worker(self, loop, spec: StageSpec, idx: int | None):
        """Thread body of one stage worker running ``loop``: a failure aborts
        the pipeline, and on every exit path the worker releases its share
        of the downstream queue(s) so the close protocol completes."""
        try:
            loop(spec, idx)
        except BaseException as exc:
            self._fail(exc)
        finally:
            self._downstream_done(spec, idx)

    def _park(self, spec: StageSpec, take: int) -> None:
        """Park a pooling worker that served nothing until a producer signals
        (a put, a close, a feed opening) or — over the feeds — the earliest
        paced pop of ``take`` comes due.  The 50 ms cap is only a safety
        net, not a poll interval."""
        wait = 0.05
        if spec is self.graph.first:
            wait = min([wait] + [f.due_in(take) for f in self._feeds if f.active])
        wake = self._wake[spec.name]
        wake.wait(max(0.0, wait))
        wake.clear()

    def _queue_loop(self, spec: StageSpec, idx: int | None):
        """Drain one input queue: stream ``idx``'s queue (or feed) of a
        ``per_stream`` stage, or (``idx=None``) a ``merged`` stage's only
        one."""
        q = self._input_queue(spec, idx)
        max_n, min_n = self._batch_bounds(spec)
        live = spec.batch.kind == "config"
        scratch = {"cap": max_n}  # per-worker batch pixel buffer
        while True:
            take, floor = max_n, min_n
            if live:
                # Under adaptive batching the planner's EWMA target caps
                # (and relaxes the floor of) the batch each iteration.
                cap = self.kernel.batch_size()
                take, floor = min(max_n, cap), min(min_n, cap)
            batch = q.pop_batch(take, min_n=floor, timeout=0.05)
            if not batch:
                if self._abort.is_set() or (q.closed and len(q) == 0):
                    return
                continue
            if idx is None:
                if spec.terminal:
                    # Sorted (stably) by stream, each stream is one run of
                    # the stacked pixels, which the reference reads as a
                    # view (one detector call per stream).  A terminal stage
                    # feeds no queue whose order this could change.
                    batch.sort(key=lambda w: w.stream_idx)
                served = self._serve_by_shape(spec, batch, scratch)
            else:
                served = self._serve(spec, batch, scratch)
            if not served:
                return

    def _shared_loop(self, spec: StageSpec, idx: None = None):
        """Round-robin over a ``shared_rr`` stage's per-stream queues, or a
        pooling first stage's feeds."""
        queues = self.stage_queues[spec.name]
        cap, _ = self._batch_bounds(spec)  # frames taken from one stream per visit
        scratch = {"cap": cap}  # per-worker batch pixel buffer
        while True:
            all_done = True
            any_served = False
            for q in queues:
                if not (q.closed and len(q) == 0):
                    all_done = False
                batch = q.pop_batch(cap, min_n=1, timeout=0.0)
                if not batch:
                    continue
                any_served = True
                if not self._serve(spec, batch, scratch):
                    return
            if all_done or self._abort.is_set():
                return
            if not any_served:
                self._park(spec, cap)

    def _fused_loop(self, spec: StageSpec, idx: None = None):
        """Pool all streams' queues of a ``fused`` stage into mega-batches.

        Batch formation is the shared :func:`decide_fused_batch` policy:
        the configured BatchSize satisfied from the aggregate of the
        per-stream queues, distributed round-robin so no stream can
        monopolize a mega-batch.  The simulator's fused branch runs the
        identical decision function over the identical queue state.
        """
        queues = self.stage_queues[spec.name]
        cfg = self.config
        depth = cfg.queue_depth(spec.depth_key)
        scratch = {"cap": cfg.batch_size}
        rr = 0
        while True:
            # Only this worker pops these queues, so the observed
            # lengths are lower bounds that cannot shrink under us.
            eof = all(q.closed for q in queues)
            lens = [len(q) for q in queues]
            takes = decide_fused_batch(
                cfg.batch_policy, lens, self.kernel.batch_size(), depth, eof=eof, start=rr
            )
            if sum(takes) == 0:
                if self._abort.is_set() or (eof and sum(lens) == 0):
                    return
                self._park(spec, 1)
                continue
            works: list[_Work] = []
            for si in fused_pop_order(takes, rr):
                works.extend(queues[si].pop_batch(takes[si], min_n=1, timeout=0.0))
            rr = (rr + 1) % len(queues)
            if not self._serve_by_shape(spec, works, scratch):
                return

    def _sampler_loop(self, stop: threading.Event) -> None:
        """Tick the kernel's control plane (gauge sweep, admission and
        planner polls) on the wall clock."""
        kernel = self.kernel
        while not stop.wait(kernel.sampler.interval):
            kernel.sweep(self._now())
        kernel.sweep(self._now(), force=True)

    # ------------------------------------------------------------------
    # cluster-instance control (attach / detach / seal)
    # ------------------------------------------------------------------
    def _unused_slots(self) -> list[int]:
        """Reserve slots no stream was ever attached to (single-use)."""
        return [
            f.slot for f, c in zip(self._feeds, self.ctxs)
            if c.stream is None and not f.opened.is_set()
        ]

    def free_slots(self) -> int:
        """Reserve slots still able to accept a re-forwarded stream."""
        with self._feed_lock:
            return 0 if self._sealed else len(self._unused_slots())

    def active_streams(self) -> dict[str, int]:
        """stream_id -> slot for streams still offering frames here."""
        with self._feed_lock:
            return {
                self.ctxs[i].stream.stream_id: i
                for i, f in enumerate(self._feeds)
                if f.active and self.ctxs[i].stream is not None
            }

    def stream_costs(self) -> dict[str, int]:
        """stream_id -> frames past the first stage, for active streams only
        (what the router ranks by when choosing a stream to shed)."""
        return self.kernel.stream_costs(self.active_streams().values())

    def outcome_count(self) -> int:
        with self._outcome_lock:
            return len(self.outcomes)

    def attach_stream(
        self,
        stream: VideoStream,
        *,
        start: int = 0,
        n_frames: int | None = None,
    ) -> int:
        """Attach a re-forwarded stream to a free reserve slot mid-run.

        Offers frames ``[start, end)`` where ``end`` is ``len(stream)``
        capped by ``n_frames``, read from the stream like any other feed's.
        Returns the slot index.
        """
        if stream.stream_id not in self.zoo:
            raise ValueError(f"stream {stream.stream_id} has no trained models")
        end = len(stream) if n_frames is None else min(n_frames, len(stream))
        if start >= end:
            raise ValueError(f"attach range [{start}, {end}) is empty")
        with self._feed_lock:
            if self._abort.is_set():
                raise RuntimeError("pipeline is aborting")
            if not self._running:
                raise RuntimeError("attach_stream requires a running pipeline")
            if self._sealed:
                raise RuntimeError("pipeline is sealed")
            unused = self._unused_slots()
            if not unused:
                raise RuntimeError("no free reserve slot")
            slot = unused[0]
            # Context first, then feed: the slot's workers read ctx/bundle
            # through the slot index once its feed opens.
            self.ctxs[slot] = _StreamCtx(stream=stream, bundle=self.zoo[stream.stream_id])
            self.kernel.add_stream(_stream_info(stream), slot)
            self.metrics.frames_offered += end - start
            self._feeds[slot].open(start, end - start)
        return slot

    def detach_stream(self, slot: int) -> int:
        """Stop offering a stream's frames at the next frame boundary.

        Returns the first frame index *not* offered here — the exact index
        the receiving instance must attach at.  Frames already offered keep
        their in-flight path to an outcome on this instance; the unoffered
        remainder is subtracted from ``frames_offered`` so the
        per-instance invariant ``frames_offered == len(outcomes)`` holds on
        both sides of the handoff.
        """
        feed = self._feeds[slot]
        if not feed.opened.is_set():
            raise ValueError(f"slot {slot} has no active feed")
        feed.stop.set()
        with feed.lock:  # a pop in progress finishes its chunk first
            offered = feed.offered
        with self._feed_lock:
            self.metrics.frames_offered -= feed.count - offered
        return feed.start + offered

    def seal(self) -> None:
        """Close every never-used reserve slot; no further attach is
        possible and :meth:`run` can complete once in-flight work drains."""
        with self._feed_lock:
            if self._sealed:
                return
            self._sealed = True
            for i in self._unused_slots():
                self._feeds[i].open(0, 0)

    # ------------------------------------------------------------------
    def _drain_unfinished(self) -> None:
        """After an abort, give every still-queued frame, and every frame a
        feed never offered, a terminal record.  (A detached feed's
        remainder is not ours: it belongs to whichever instance attaches
        next.)"""
        for q in self.kernel.queues:
            for work in q.drain():
                self._record(work, ABORTED)
        now = time.monotonic()
        for f in self._feeds:
            if not f.stop.is_set():
                for i in range(f.start + f.offered, f.start + f.count):
                    self._record(_Work(f.slot, i, None, now), ABORTED)

    def run(
        self,
        n_frames: int | None = None,
        *,
        online: bool = False,
        paced_fps: float | None = None,
    ) -> RunMetrics:
        """Process every stream to completion and return metrics.

        ``online=True`` paces each source at ``paced_fps`` (default the
        config's ``stream_fps``): the first stage waits for ``paced_hold``
        due frames per batch, and every latency is timed from
        the frame's due time.  Offline mode renders as fast as possible.
        """
        if self._ran:
            # Queues stay closed after a run: a second one would drop every
            # frame at the first put and still return normally.
            raise RuntimeError("ThreadedPipeline.run() is single-use")
        self._ran = True
        # The heap earlier work freed is not this run's footprint.
        trim_heap()
        self._paced_fps = (paced_fps or self.config.stream_fps) if online else None
        counts = {
            i: len(ctx.stream) if n_frames is None else min(n_frames, len(ctx.stream))
            for i, ctx in enumerate(self.ctxs)
            if ctx.stream is not None
        }
        self.metrics.frames_offered += sum(counts.values())

        bundles = [ctx.bundle for ctx in self.ctxs]
        for spec in self.graph:
            if spec.fan_in == FUSED and spec.logic.build_fused is not None:
                fn = self._fused_eval[spec.name] = spec.logic.build_fused(
                    bundles, self.zoo, self.config
                )
                stats = getattr(fn, "mosaic_stats", None)
                if stats is not None:
                    self.kernel.mosaic[spec.name] = stats
        # Worker processes must fork before any runtime thread exists (a
        # multi-threaded parent and the "fork" start method don't mix); they
        # read their batches from the streams they inherit here.
        streams = [ctx.stream for ctx in self.ctxs]
        for spec in self.graph:
            if spec.executor == "process":
                self._pools[spec.name] = ProcPool(
                    spec.name, spec.logic.evaluate, streams, bundles,
                    self.zoo, self.config, self.config.num_sdd_procs,
                )

        # One worker per stream for per_stream stages, else one in all; a
        # reserve slot's workers wait on its feed until attach or seal().
        threads = [
            threading.Thread(
                target=self._stage_worker, args=(self._loop(spec), spec, i), daemon=True
            )
            for spec in self.graph
            for i in (range(len(self.ctxs)) if spec.fan_in == PER_STREAM else [None])
        ]

        self._t0 = t0 = time.monotonic()
        self._running = True
        sampler_stop = None
        if self.kernel.sampler is not None:
            sampler_stop = threading.Event()
            sampler = threading.Thread(
                target=self._sampler_loop, args=(sampler_stop,),
                name="telemetry-sampler", daemon=True,
            )
            sampler.start()
        # The engine's parallelism is its stage threads: BLAS helpers are
        # capped to the cores those leave over, and restored on every exit.
        with blas_thread_cap(len(threads)) as blas:
            for i, count in counts.items():
                self._feeds[i].open(0, count)  # paced: frame 0 is due now
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        with self._feed_lock:  # no attach can land after the drain below
            self._running = False
        duration = time.monotonic() - t0
        if sampler_stop is not None:
            sampler_stop.set()
            sampler.join(timeout=2.0)
        pool_stats = {
            name: pool.shutdown().as_dict() for name, pool in self._pools.items()
        }
        self._pools.clear()
        if self._abort.is_set():
            self._drain_unfinished()
        if self.store is not None:
            # After the drain, so aborted-frame rows persist too; before the
            # error raise, so a failed run still leaves a sealed store.
            self.store.close()
        if self._errors:
            raise RuntimeError(
                f"pipeline worker failed: {self._errors[0]!r}"
            ) from self._errors[0]

        terminal = self.graph.terminal.name
        m = self.kernel.finish(duration)
        # frames_offered is adjusted live by attach (+count) and detach
        # (-unoffered), so its final value is exactly the frames this
        # instance gave a disposition path.
        m.frames_ingested = m.frames_offered
        ref_lat = [o.latency for o in self.outcomes if o.stage == terminal]
        m.frames_to_ref = len(ref_lat)
        m.ref_latency = LatencyStats.from_samples(ref_lat)
        m.frame_latency = LatencyStats.from_samples([o.latency for o in self.outcomes])
        m.extra["engine"] = {"worker_threads": len(threads), **blas}
        if self._paced_fps is not None:
            cap = self._batch_bounds(self.graph.first)[0]
            m.extra["engine"]["paced_hold"] = paced_hold(self._paced_fps, cap)
        # What this run's sources read, and how much of it had to be rendered
        # rather than read back from the stored clip (video/clipstore.py).
        read, rendered = sum(
            (_source_counts(self.ctxs[f.slot].stream) - f.source0 for f in self._feeds),
            np.zeros(2, dtype=int),
        )
        m.extra["source"] = {"frames_read": int(read), "frames_rendered": int(rendered)}
        if pool_stats:
            m.extra["procpool"] = pool_stats
        if self.telemetry is not None:
            m.extra["queue_put_timeouts"] = {
                q.name: q.put_timeouts for q in self.kernel.queues
            }
        return m


def _source_counts(stream) -> np.ndarray:
    """``[frames_read, frames_rendered]`` so far (zeros for a stub stream
    that keeps no such counters)."""
    st = stream.stats() if hasattr(stream, "stats") else {}
    return np.array([st.get("frames_read", 0), st.get("frames_rendered", 0)])


def _stream_info(stream: VideoStream) -> StreamInfo:
    return StreamInfo(stream.stream_id, stream.fps, stream.kind)
