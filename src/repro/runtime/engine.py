"""Threaded FFS-VA runtime: real models, real queues, real threads.

The functional counterpart of the discrete-event simulator runs one worker
thread per usable CPU, all alike.  The paper runs its cascade "through the
parallel and pipelined structure of multiple threads" over three devices —
SDD on the CPUs, SNM and T-YOLO sharing GPU 0, the reference model alone on
GPU 1 (Section 3.1.2).  The engine keeps the devices and their exclusivity,
not a thread per stage and stream: those mostly handed the GIL to each
other (DESIGN.md §24).

A worker takes the scheduler lock, delivers survivors held for full queues,
and starts the next ready batch on an idle device: the device it last
served first, then the others downstream-first, the stages one device
hosts in the kernel's ``stage_order`` (the simulator's
``_try_start_devices`` on the wall clock).  It evaluates and settles the
batch outside the lock.  A ``gpu``-kind device runs one batch
at a time, a ``cpu``-kind one a batch per worker but one per *worker key* —
``(stage, stream)`` for a ``per_stream`` stage, else the stage — so each
stream's frames enter every stage in order.  Stage inputs are the
simulator's bounded :class:`~repro.core.queues.SimQueue` s; a survivor
whose queue is full waits in its key's out-buffer, and the key starts
nothing until that drains — Section 4.3.1's feedback without a blocked
thread.  The first stage pops its streams' sources (``_Feed``) as later
stages pop their queues.  Inputs, keys and devices come from a
:class:`~repro.core.pipeline.StageGraph` and a placement.

Both runtimes are drivers around one
:class:`~repro.core.kernel.CascadeKernel`, which owns every decision that
needs no clock (wiring, routing, batch settlement, records, gauges, device
arbitration); the paper-scale experiments use :mod:`repro.sim`.  The two
can be cross-checked with :func:`repro.core.metrics.assert_stage_counts_equal`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
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
    SNM,
    STAGES,
    StageGraph,
    StageSpec,
    arbitration_batch,
    cascade,
    stage_per_frame_time,
)
from ..core.queues import SimQueue
from ..devices.costs import CostModel
from ..devices.placement import Placement, ffs_va_placement
from ..models.zoo import ModelZoo
from ..obs import Telemetry
from .blas import blas_thread_cap, usable_cpus
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
    pixels: np.ndarray | None  # None until the first stage reads the frame
    t_start: float


@dataclass
class _StreamCtx:
    stream: VideoStream | None
    bundle: object | None


@dataclass
class _Job:
    """One batch a worker started.  Served, it leaves its survivors, each
    with the stage the kernel routes it to, in ``survivors``; until they
    are all delivered it is its worker key's out-buffer, whose head has
    found its queue full since ``since``."""

    spec: StageSpec
    key: object  # (stage, stream) for a per_stream stage, else the stage
    works: list
    gpu: str | None = None  # the gpu-kind device it occupies
    survivors: deque = field(default_factory=deque)
    since: float | None = None


@dataclass
class _Feed:
    """One stream slot's source, which the first stage pops like a queue:
    global frames ``[start, start + count)`` once :meth:`open` ran (at
    ``run()``, or ``attach_stream`` / ``seal`` for a reserve slot), of which
    ``offered`` were popped.  ``stop`` (a detach) ends it between chunks, at
    handoff index ``start + offered``.  ``len`` is what a pop could return
    now (all that is left offline, the due frames when paced); ``closed``
    means no frame will come that ``len`` does not count yet.  Every field
    is read and written under the pipeline's scheduler lock."""

    pipe: ThreadedPipeline
    slot: int
    start: int = 0
    count: int = 0
    offered: int = 0
    source0: np.ndarray = field(default_factory=lambda: np.zeros(2, dtype=int))
    t0: float = 0.0  # when frame ``start`` is due (paced)
    opened: bool = False
    stop: bool = False

    def open(self, start: int, count: int) -> None:
        """Offer frames ``[start, start + count)``, the first of them due now."""
        self.source0 = _source_counts(self.pipe.ctxs[self.slot].stream)
        self.start, self.count, self.t0 = start, count, time.monotonic()
        self.opened = True

    @property
    def active(self) -> bool:
        """Still offering frames here (re-forwardable)."""
        return not self.stop and self.offered < self.count

    def _halted(self) -> bool:
        return self.stop or self.pipe._abort.is_set()

    def _due(self) -> int:
        """Frames of the range a pop may have taken by now: all of them
        offline, those already due when paced (none before :meth:`open`)."""
        if not self.opened:
            return 0
        fps = self.pipe._paced_fps
        if fps is None:
            return self.count
        return min(self.count, int((time.monotonic() - self.t0) * fps) + 1)

    @property
    def closed(self) -> bool:
        return self._halted() or (self.opened and self._due() == self.count)

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

    def pop_batch(self, max_n: int, min_n: int = 1) -> list[_Work]:
        """Take the next chunk, or ``[]``: offline ``max_n`` frames or what is
        left; paced, once :meth:`due_in` allows, every due frame up to
        ``max_n``, each timed from its due time.  The frames come without
        pixels: the popping worker reads them outside the lock."""
        if not self.active or self.due_in(max_n, min_n) > 0:
            return []
        j, n = self.offered, min(max_n, len(self))
        self.offered = j + n
        fps = self.pipe._paced_fps
        return [
            _Work(self.slot, i, None, 0.0 if fps is None else self.t0 + (i - self.start) / fps)
            for i in range(self.start + j, self.start + j + n)
        ]


class ThreadedPipeline:
    """Run a stage graph end-to-end with real inference on a set of streams.

    With ``reserve_slots > 0`` the pipeline becomes a *cluster instance*:
    it pre-builds that many extra single-use stream slots (feeds and queues
    exist before any worker starts), so a stream can be attached mid-run
    via :meth:`attach_stream` after another instance detached it at a frame
    boundary with :meth:`detach_stream`.  In that mode :meth:`run` does not
    return until :meth:`seal` closes the never-used slots — the supervisor
    seals once every frame in the cluster has an outcome.
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
                # The planner's chunk accounting assumes a fixed stream roster.
                raise ValueError("reserve_slots is incompatible with plan='adaptive'")
        #: The clock-free half of the run (repro.core.kernel); this class adds
        #: threads and wall time.
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

        #: Per-slot sources: the first stage's input, whatever its fan-in.
        self._feeds = [_Feed(self, i) for i in range(len(self.ctxs))]
        #: Per-stage inputs: the feeds, then per stream slot queues (a merged
        #: stage's single one).
        self._inputs: dict[str, list] = {graph.first.name: self._feeds}
        for spec in list(graph)[1:]:
            self._inputs[spec.name] = k.make_queues(spec, SimQueue, range(len(self.ctxs)))
        self._pos = {spec.name: i for i, spec in enumerate(graph)}
        #: (max_n, min_n) per pop by each stage's rule; a first stage that
        #: pools its feeds takes one stream's, whatever is there.
        self._bounds = {}
        costs = CostModel()
        #: Per-frame service time device arbitration weighs queued frames by:
        #: the calibrated model's, as in the simulator (1 for a custom stage
        #: without a cost pair, which the model does not know).
        self._arb = {}
        for spec in graph:
            max_n, min_n = arbitration_batch(spec, cfg), 1
            if spec.batch.kind == "config":
                depth = cfg.queue_depth(spec.depth_key)
                min_n = batch_floor(cfg.batch_policy, cfg.batch_size, depth)
            pooled = spec is graph.first and spec.fan_in != PER_STREAM
            self._bounds[spec.name] = (max_n, 1 if pooled else min_n)
            known = spec.cost is not None or spec.name in STAGES
            self._arb[spec.name] = stage_per_frame_time(spec, costs, max_n) if known else 1.0
        self._devnames = devnames = {spec.name: self.placement.hosts(spec)[0] for spec in graph}
        # (device, gpu-kind?, hosted stages), the most downstream first.
        devices = []
        for dev in dict.fromkeys(devnames[spec.name] for spec in reversed(graph.specs)):
            gpu = getattr(self.placement.devices.get(dev), "kind", None) == "gpu"
            devices.append((dev, gpu, [s for s in graph if devnames[s.name] == dev]))
        #: Device a worker last served (None: none yet) -> its scan order: that
        #: device, then the others downstream-first (DESIGN.md §24 says why).
        self._scan = {d[0]: [d] + [e for e in devices if e is not d] for d in devices}
        self._scan[None] = devices

        # Scheduler state: every field below is guarded by ``_cond``'s lock.
        self._cond = threading.Condition(threading.Lock())
        self._jobs: dict = {}  # worker key -> its running _Job
        self._held: dict = {}  # worker key -> its served _Job still holding survivors
        self._gpus_busy: set[str] = set()
        self._rr = dict.fromkeys(self._inputs, 0)  # round-robin cursor per stage
        self._put_timeouts: Counter = Counter()  # queue name -> survivors dropped
        self._sealed = reserve_slots == 0
        self._running = False

        self._t0 = 0.0  # run-start monotonic reference for telemetry stamps
        self.outcomes: list[FrameOutcome] = []
        self._outcome_lock = threading.Lock()
        self._paced_fps: float | None = None
        self._ran = False
        self._errors: list[BaseException] = []
        self._abort = threading.Event()
        #: Per stage name: process pools (executor="process", forked in run()
        #: before any thread starts) and fused stages' build_fused evaluators.
        self._pools: dict[str, ProcPool] = {}
        self._fused_eval: dict = {}
        #: FilterDegree -> config clone, for plan-driven SNM thresholds.
        self._degree_cfgs: dict[float, FFSVAConfig] = {}

    def _take_bounds(self, spec: StageSpec) -> tuple[int, int]:
        """(max_n, min_n) of the next pop at ``spec``: under adaptive
        batching the planner's EWMA target caps (and relaxes the floor of)
        a ``config``-batched stage's batch."""
        max_n, min_n = self._bounds[spec.name]
        if spec.batch.kind == "config" and self.kernel.planner is not None:
            cap = self.kernel.batch_size()
            return min(max_n, cap), min(min_n, cap)
        return max_n, min_n

    def _backlog(self, spec: StageSpec) -> float:
        """Queued service-time at ``spec``, what device arbitration weighs."""
        return sum(len(q) for q in self._inputs[spec.name]) * self._arb[spec.name]

    def _record(self, work: _Work, stage: str, ref_count=None, t_done: float | None = None) -> None:
        """``work``'s journey ended at ``stage``: when its batch completed at
        ``t_done`` (run clock) if a stage disposed of it, now otherwise."""
        t_end = time.monotonic() if t_done is None else self._t0 + t_done
        stream_id = self.ctxs[work.stream_idx].stream.stream_id
        outcome = FrameOutcome(stream_id, work.index, stage, ref_count, t_end - work.t_start)
        with self._outcome_lock:
            self.outcomes.append(outcome)
        score = float(ref_count) if ref_count is not None else 0.0
        self.kernel.record(work.stream_idx, work.index, stage, outcome.latency, score)

    def _fail(self, exc: BaseException) -> None:
        self._errors.append(exc)
        self._abort.set()
        with self._cond:
            self._cond.notify_all()

    def _now(self) -> float:
        """Seconds since run start — the telemetry timestamp base (so the
        threaded timeline is comparable with the simulator's virtual one)."""
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------
    # the scheduler (every method here runs under ``_cond``'s lock)
    # ------------------------------------------------------------------
    def _next_job(self, last: str | None) -> _Job | None:
        """Deliver held survivors, then start the next ready batch — or
        sleep until there may be one.  None once the run is over."""
        while not self._abort.is_set():
            if self._held:
                self._deliver()
            job = self._pick(last)
            if job is not None:
                self._cond.notify()  # an idle worker may find more
                return job
            if self._finished():
                self._cond.notify_all()
                return None
            self._cond.wait(self._wait_time())
        return None

    def _pick(self, last: str | None) -> _Job | None:
        """Start one batch on an idle device: first the device ``last`` the
        worker served, then the others downstream-first; the stages a
        device hosts in the kernel's ``stage_order``."""
        kernel = self.kernel
        for dev, gpu, specs in self._scan[last]:
            if dev in self._gpus_busy:
                continue
            for spec in kernel.stage_order(dev, specs, self._backlog):
                job = self._take(spec)
                if job is not None:
                    if gpu:
                        job.gpu = dev
                        self._gpus_busy.add(dev)
                    kernel.dev_last[dev] = spec.name
                    self._jobs[job.key] = job
                    return job
        return None

    def _take(self, spec: StageSpec) -> _Job | None:
        """Pop ``spec``'s next ready batch for a worker key that is neither
        running a batch nor holding survivors, or None.  Per-stream inputs
        are visited round-robin from the stage's cursor: one stream per
        batch, except at a ``fused`` stage."""
        name, inputs = spec.name, self._inputs[spec.name]
        if spec.fan_in != PER_STREAM and (name in self._jobs or name in self._held):
            return None
        if spec.fan_in == FUSED or (spec.fan_in == MERGED and spec is not self.graph.first):
            works = self._pop_fused(spec) if spec.fan_in == FUSED else self._pop(spec, 0, None)
            return _Job(spec, name, works) if works else None
        rr = self._rr[name]
        for off in range(len(inputs)):
            s = (rr + off) % len(inputs)
            key = (name, s) if spec.fan_in == PER_STREAM else name
            if key in self._jobs or key in self._held:
                continue
            works = self._pop(spec, s, s)
            if works:
                self._rr[name] = (s + 1) % len(inputs)
                return _Job(spec, key, works)
        return None

    def _pop(self, spec: StageSpec, i: int, stream_idx: int | None) -> list:
        """A batch from input ``i``: a feed's next chunk, or up to the
        stage's batch from a queue, which below the batch floor waits until
        no frame of ``stream_idx`` (None: of any stream) can still come."""
        q = self._inputs[spec.name][i]
        take, floor = self._take_bounds(spec)
        if spec is self.graph.first:
            return q.pop_batch(take, floor)
        n = len(q)
        if n == 0 or (n < floor and not self._drained(spec, stream_idx)):
            return []
        return q.pop_batch(take)

    def _pop_fused(self, spec: StageSpec) -> list:
        """A cross-stream mega-batch: the simulator's ``decide_fused_batch``
        over the per-stream queue lengths (a feed's: its due frames), popped
        in ``fused_pop_order``."""
        inputs = self._inputs[spec.name]
        lens = [len(q) for q in inputs]
        if not any(lens):
            return []
        first = spec is self.graph.first
        eof = all(f.closed for f in inputs) if first else self._drained(spec, None)
        cfg, rr = self.config, self._rr[spec.name]
        takes = decide_fused_batch(
            cfg.batch_policy, lens, self.kernel.batch_size(), cfg.queue_depth(spec.depth_key),
            eof=eof, start=rr,
        )
        if not any(takes):
            return []
        self._rr[spec.name] = (rr + 1) % len(inputs)
        return [w for si in fused_pop_order(takes, rr) for w in inputs[si].pop_batch(takes[si])]

    def _drained(self, spec: StageSpec, stream_idx: int | None) -> bool:
        """No frame of stream ``stream_idx`` (None: of any stream) can still
        reach ``spec``: its feed is closed and empty, and no queue, running
        batch or out-buffer of an earlier stage holds one (the simulator's
        ``_upstream_drained``)."""
        feeds = self._feeds if stream_idx is None else [self._feeds[stream_idx]]
        if not all(f.closed and not len(f) for f in feeds):
            return False
        pos = self._pos[spec.name]
        ups = self.graph.upstream(spec.name)[1:]  # the first stage's input is the feeds
        earlier = [w for up in ups for q in self._inputs[up.name] for w in q]
        earlier += [w for j in self._jobs.values() if self._pos[j.spec.name] < pos for w in j.works]
        earlier += [
            w for j in self._held.values() if self._pos[j.spec.name] < pos for w, _ in j.survivors
        ]
        return not any(stream_idx in (None, w.stream_idx) for w in earlier)

    def _deliver(self) -> None:
        """Move held survivors into their queues, in order per worker key,
        while there is room.  A survivor that finds its queue full emits one
        ``queue_block``; with ``queue_put_timeout`` set, one that waited past
        it is dropped: another ``queue_block``, a ``queue_put_timeouts`` count
        and a ``"dropped"`` outcome."""
        timeout = self.config.queue_put_timeout
        kernel = self.kernel
        traced = kernel.telemetry is not None
        now = time.monotonic()
        t = now - self._t0
        for key, job in list(self._held.items()):
            held = job.survivors
            while held:
                work, tgt = held[0]
                q = self._inputs[tgt.name][0 if tgt.fan_in == MERGED else work.stream_idx]
                if q.has_room(1):
                    q.put(work)
                    if traced:
                        kernel.entered(tgt.name, work.stream_idx, work.index, t)
                elif job.since is None:
                    job.since = now
                    if traced:
                        kernel.blocked(tgt.name, work.stream_idx, work.index, t, len(q))
                    break
                elif timeout is not None and now - job.since >= timeout:
                    self._put_timeouts[q.name] += 1
                    if traced:
                        kernel.blocked(tgt.name, work.stream_idx, work.index, t, len(q))
                    self._record(work, DROPPED)
                else:
                    break
                held.popleft()
                job.since = None
            if not held:
                del self._held[key]

    def _finished(self) -> bool:
        """Every feed is closed and drained, and no queue, out-buffer or
        worker holds a frame."""
        busy = self._jobs or self._held or any(len(q) for q in self.kernel.queues)
        return not busy and all(f.closed and not len(f) for f in self._feeds)

    def _wait_time(self) -> float:
        """How long an idle worker sleeps unless notified: until a free
        first-stage key's next paced pop comes due, or a held survivor's
        ``queue_put_timeout`` runs out.  The 50 ms cap is a safety net (the
        planner retargets adaptive batches from the sampler thread)."""
        wait = 0.05
        first = self.graph.first
        if self._paced_fps is not None and self._devnames[first.name] not in self._gpus_busy:
            take = (1, 1) if first.fan_in == FUSED else self._take_bounds(first)
            for f in self._feeds:
                key = (first.name, f.slot) if first.fan_in == PER_STREAM else first.name
                if f.active and key not in self._jobs and key not in self._held:
                    wait = min(wait, f.due_in(*take))
        timeout = self.config.queue_put_timeout
        if timeout is not None and self._held:
            now = time.monotonic()
            wait = min([wait] + [j.since + timeout - now for j in self._held.values()])
        return max(0.0, wait)

    # ------------------------------------------------------------------
    # workers and stage service (outside the lock)
    # ------------------------------------------------------------------
    def _worker(self, scratch_cap: int) -> None:
        """Thread body: start a batch, serve it, free its key and device,
        repeat.  A failure aborts the run; the drain then gives every frame
        without an outcome its ``"aborted"`` one."""
        scratch = {"cap": scratch_cap}  # this worker's batch pixel buffers
        job = last = None
        try:
            while True:
                with self._cond:
                    if job is not None:
                        del self._jobs[job.key]
                        self._gpus_busy.discard(job.gpu)
                        if job.survivors:
                            self._held[job.key] = job  # delivered by _next_job
                        last = self._devnames[job.spec.name]
                    job = self._next_job(last)
                if job is None:
                    return
                try:
                    self._run(job, scratch)
                except BaseException as exc:
                    self._fail(exc)
        except BaseException as exc:
            self._fail(exc)

    def _run(self, job: _Job, scratch: dict) -> None:
        """Read a first-stage chunk, then serve the batch.  A batch that
        pools streams is served one group per frame shape (streams can
        differ in resolution, and a batch tensor needs one), and the kernel
        splits a group where an adaptive SNM batch crosses a plan chunk."""
        spec, works = job.spec, job.works
        first = spec is self.graph.first
        if first:
            works = job.works = self._render(works)
        groups = [works]
        if spec.fan_in == FUSED or (spec.fan_in == MERGED and not first):
            if spec.terminal:
                # Sorted (stably) by stream, each stream is one run of the
                # stacked pixels, which the reference reads as a view (one
                # detector call per stream).  A terminal stage feeds no
                # queue whose order this could change.
                works = sorted(works, key=lambda w: w.stream_idx)
            by_shape: dict[tuple, list[_Work]] = {}
            for w in works:
                by_shape.setdefault(w.pixels.shape, []).append(w)
            groups = by_shape.values()
        for group in groups:
            for part in self.kernel.plan_groups(spec, group):
                if not self._serve(spec, part, scratch, job.survivors):
                    return

    def _render(self, works: list[_Work]) -> list[_Work]:
        """Read a popped chunk with ``stream.pixels(t)``.  Offline a frame's
        clock starts once it is read, paced at its due time; the first
        stage's ``admission`` + ``frame_enter`` stamps go out here."""
        ctxs, fps = self.ctxs, self._paced_fps
        works = [
            _Work(w.stream_idx, w.index, ctxs[w.stream_idx].stream.pixels(w.index),
                  time.monotonic() if fps is None else w.t_start) for w in works
        ]
        if self.telemetry is not None:
            now, first = self._now(), self.graph.first.name
            for w in works:
                t = now if fps is None else w.t_start - self._t0
                self.kernel.entered(first, w.stream_idx, w.index, t, admitted=True)
        return works

    def _stacked_pixels(self, works: list[_Work], scratch: dict) -> np.ndarray:
        """Batch pixel tensor for ``works`` in the worker's buffer for their
        frame shape and dtype, grown once to the largest batch cap and
        overwritten by every batch (stage logic never retains its input
        past ``evaluate``)."""
        first = works[0].pixels
        key = ("pixels", first.shape, first.dtype.str)
        buf = scratch.get(key)
        if buf is None or buf.shape[0] < len(works):
            cap = max(len(works), scratch["cap"])
            buf = scratch[key] = np.empty((cap, *first.shape), dtype=first.dtype)
        return np.stack([w.pixels for w in works], out=buf[: len(works)])

    def _cfg_for_degree(self, degree: float) -> FFSVAConfig:
        if degree == self.config.filter_degree:
            return self.config
        cfg = self._degree_cfgs.get(degree)
        if cfg is None:
            cfg = self._degree_cfgs[degree] = self.config.with_(filter_degree=degree)
        return cfg

    def _serve(self, spec: StageSpec, works: list[_Work], scratch: dict, survivors) -> bool:
        """Evaluate and settle one plan-homogeneous batch, record the frames
        it disposes of and append the others, each with the stage the kernel
        routes it to, to ``survivors``.  False if the run aborted while a
        process pool held the batch."""
        kernel, cfg, n = self.kernel, self.config, len(works)
        planner = kernel.planner
        degrees = None  # per-stream FilterDegree vector of a fused SNM batch
        if planner is not None and spec.name == SNM:
            if spec.fan_in == FUSED:
                degrees = np.full(len(self.ctxs), cfg.filter_degree)
                for w in works:
                    degrees[w.stream_idx] = planner.degree_for(w.stream_idx, w.index)
            else:
                cfg = self._cfg_for_degree(planner.degree_for(works[0].stream_idx, works[0].index))
        pool = self._pools.get(spec.name)
        if pool is None:
            # Singleton batches are the threaded runtime's common case at
            # low load: a (1, H, W) view costs nothing, np.stack copies.
            pixels = works[0].pixels[None] if n == 1 else self._stacked_pixels(works, scratch)
        t_exec = self._now()
        if pool is not None:
            # The batch travels as (stream, frame) indices and the pool's
            # worker reads the stored clip itself, on its own clock.
            passes, info, busy = pool.run_batch(
                [w.stream_idx for w in works], [w.index for w in works], self._abort
            )
            if self._abort.is_set():
                return False
        elif spec.fan_in == FUSED:
            passes, info = self._evaluate_fused(spec, pixels, works, cfg, degrees)
        else:
            # A per_stream / shared_rr batch is one stream's: one bundle.
            lead = None if spec.fan_in == MERGED else works[0].stream_idx
            bundles = [self.ctxs[w.stream_idx if lead is None else lead].bundle for w in works]
            passes, info = spec.logic.evaluate(pixels, bundles, self.zoo, cfg)
        t_done = self._now()
        if pool is None:
            busy = t_done - t_exec
        passes = np.asarray(passes, dtype=bool).tolist()
        device = self._devnames[spec.name]
        kernel.settle(spec, [w[:2] for w in works], passes, t_exec, t_done, busy, device=device)
        for i, work in enumerate(works):
            if spec.terminal:
                detail = None if info is None else int(info[i])
                self._record(work, spec.name, ref_count=detail, t_done=t_done)
            elif passes[i]:
                survivors.append((work, kernel.target(spec, work.stream_idx, work.index)))
            else:
                self._record(work, spec.name, t_done=t_done)
        return True

    def _evaluate_fused(self, spec, pixels, works, cfg, degrees) -> tuple:
        """A fused stage's mega-batch through its cross-stream evaluator, or
        — a stage without one — one stream at a time (same results, no
        weight fusion)."""
        sidx = np.fromiter((w.stream_idx for w in works), dtype=np.intp, count=len(works))
        fused_fn = self._fused_eval.get(spec.name)
        if fused_fn is not None:
            return fused_fn(pixels, sidx, **({} if degrees is None else {"degrees": degrees}))
        passes = np.empty(len(works), dtype=bool)
        for k in np.unique(sidx):
            sel = np.nonzero(sidx == k)[0]
            kcfg = cfg if degrees is None else self._cfg_for_degree(float(degrees[k]))
            bundles = [self.ctxs[int(k)].bundle] * len(sel)
            passes[sel] = np.asarray(spec.logic.evaluate(pixels[sel], bundles, self.zoo, kcfg)[0])
        return passes, None

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
            f.slot for f, c in zip(self._feeds, self.ctxs) if c.stream is None and not f.opened
        ]

    def free_slots(self) -> int:
        """Reserve slots still able to accept a re-forwarded stream."""
        with self._cond:
            return 0 if self._sealed else len(self._unused_slots())

    def active_streams(self) -> dict[str, int]:
        """stream_id -> slot for streams still offering frames here."""
        with self._cond:
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
        self, stream: VideoStream, *, start: int = 0, n_frames: int | None = None
    ) -> int:
        """Attach a re-forwarded stream to a free reserve slot mid-run.

        Offers frames ``[start, end)`` where ``end`` is ``len(stream)``
        capped by ``n_frames``, read from the stream like any other feed's
        by the running workers (no thread starts).  Returns the slot index.
        """
        if stream.stream_id not in self.zoo:
            raise ValueError(f"stream {stream.stream_id} has no trained models")
        end = len(stream) if n_frames is None else min(n_frames, len(stream))
        if start >= end:
            raise ValueError(f"attach range [{start}, {end}) is empty")
        with self._cond:
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
            self.ctxs[slot] = _StreamCtx(stream=stream, bundle=self.zoo[stream.stream_id])
            self.kernel.add_stream(_stream_info(stream), slot)
            self.metrics.frames_offered += end - start
            self._feeds[slot].open(start, end - start)
            self._cond.notify_all()
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
        with self._cond:  # pops happen under it: this is a chunk boundary
            if not feed.opened:
                raise ValueError(f"slot {slot} has no active feed")
            feed.stop = True
            self.metrics.frames_offered -= feed.count - feed.offered
            self._cond.notify_all()
            return feed.start + feed.offered

    def seal(self) -> None:
        """Close every never-used reserve slot; no further attach is
        possible and :meth:`run` can complete once in-flight work drains."""
        with self._cond:
            if self._sealed:
                return
            self._sealed = True
            for i in self._unused_slots():
                self._feeds[i].open(0, 0)
            self._cond.notify_all()

    def _drain_unfinished(self) -> None:
        """After an abort, once every worker has left: give each frame this
        instance offered that has no outcome yet an ``"aborted"`` one —
        queued and held frames first, timed from their start.  (A detached
        feed's unoffered rest belongs to whichever instance attaches it.)"""
        now = time.monotonic()
        pending = [w for q in self.kernel.queues for w in q.pop_batch(len(q))]
        pending += [w for job in self._held.values() for w, _ in job.survivors]
        self._held.clear()
        for f in self._feeds:
            end = f.start + (f.offered if f.stop else f.count)
            pending += [_Work(f.slot, i, None, now) for i in range(f.start, end)]
        done = {(o.stream_id, o.index) for o in self.outcomes}
        for w in pending:
            key = (self.ctxs[w.stream_idx].stream.stream_id, w.index)
            if key not in done:
                done.add(key)
                self._record(w, ABORTED)

    def run(
        self, n_frames: int | None = None, *, online: bool = False, paced_fps: float | None = None
    ) -> RunMetrics:
        """Process every stream to completion and return metrics.

        ``online=True`` paces each source at ``paced_fps`` (default the
        config's ``stream_fps``): the first stage waits for ``paced_hold``
        due frames per batch, and every latency is timed from
        the frame's due time.  Offline mode renders as fast as possible.
        """
        if self._ran:  # the feeds stay spent: a second run would offer nothing
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
        streams = [ctx.stream for ctx in self.ctxs]
        for spec in self.graph:
            if spec.fan_in == FUSED and spec.logic.build_fused is not None:
                fn = self._fused_eval[spec.name] = spec.logic.build_fused(
                    bundles, self.zoo, self.config
                )
                stats = getattr(fn, "mosaic_stats", None)
                if stats is not None:
                    self.kernel.mosaic[spec.name] = stats
            # Worker processes must fork before any runtime thread exists (a
            # multi-threaded parent and the "fork" start method don't mix);
            # they read their batches from the streams they inherit here.
            if spec.executor == "process":
                self._pools[spec.name] = ProcPool(
                    spec.name, spec.logic.evaluate, streams, bundles,
                    self.zoo, self.config, self.config.num_sdd_procs,
                )

        # One worker per usable CPU, whatever the cascade and stream count.
        scratch_cap = max([b[0] for b in self._bounds.values()] + [self.config.batch_size])
        workers = [
            threading.Thread(target=self._worker, args=(scratch_cap,), daemon=True,
                             name=f"engine-worker-{i}")
            for i in range(usable_cpus())
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
        # BLAS helpers get the cores the workers leave over, until any exit.
        with blas_thread_cap(len(workers)) as blas:
            with self._cond:
                for i, count in counts.items():
                    self._feeds[i].open(0, count)  # paced: frame 0 is due now
            for t in workers:
                t.start()
            for t in workers:
                t.join()
        with self._cond:  # no attach can land after the drain below
            self._running = False
        duration = time.monotonic() - t0
        if sampler_stop is not None:
            sampler_stop.set()
            sampler.join(timeout=2.0)
        pool_stats = {name: pool.shutdown().as_dict() for name, pool in self._pools.items()}
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
        m.extra["engine"] = {"worker_threads": len(workers), **blas}
        if self._paced_fps is not None:
            cap = self._bounds[self.graph.first.name][0]
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
            # Survivors dropped per queue after waiting past queue_put_timeout.
            m.extra["queue_put_timeouts"] = {
                q.name: self._put_timeouts[q.name] for q in self.kernel.queues
            }
        return m


def _source_counts(stream) -> np.ndarray:
    """``[frames_read, frames_rendered]`` so far (zeros for a stub stream
    that keeps no such counters)."""
    st = stream.stats() if hasattr(stream, "stats") else {}
    return np.array([st.get("frames_read", 0), st.get("frames_rendered", 0)])


def _stream_info(stream: VideoStream) -> StreamInfo:
    return StreamInfo(stream.stream_id, stream.fps, stream.kind)
