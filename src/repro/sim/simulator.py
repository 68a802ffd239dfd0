"""Discrete-event simulator of the FFS-VA pipeline on a two-GPU server.

The simulator replays precomputed :class:`~repro.core.trace.FrameTrace`
filter decisions through the full pipeline mechanics — bounded feedback
queues, batch policies, the shared T-YOLO round-robin, and the
stage-to-device placement — against the calibrated
:class:`~repro.devices.costs.CostModel`.  It produces the same
:class:`~repro.core.metrics.RunMetrics` the threaded runtime does, but at
paper scale (tens of streams, thousands of frames each) on a virtual clock.

Like the threaded runtime, the simulator is a driver around one
:class:`~repro.core.kernel.CascadeKernel` (which owns the clock-free
decisions: wiring, routing, batch settlement, records, gauges) executing a
:class:`~repro.core.pipeline.StageGraph`: the event-loop's stage table —
which queues exist, how batches form, which streams a worker may serve,
where survivors flow — is derived from the graph, and each stage's verdict
comes from its spec's ``logic.trace_mask``.  Nothing here hard-codes the
SDD → SNM → T-YOLO → ref chain.

Semantics reproduced from the paper:

* Each stage is a logically independent worker thread; stages sharing a
  device (SNM and T-YOLO on GPU 0) interleave their service there
  (Section 3.1.2).
* A stage pushing to a full downstream queue **blocks**: completed
  survivors wait in the worker's hands (an out-buffer) and the worker takes
  no new batch until they are delivered.  Frames the stage *filters out*
  never need downstream room, so a fully-filtered batch proceeds even while
  the next stage is saturated — the paper's "bypass" (Section 4.3.1).
* ``shared_rr`` stages visit the per-stream queues round-robin, taking at
  most ``num_t_yolo`` frames per stream per visit (Sections 3.2.3, 4.3.1).
* ``config``-batched stages follow the static / feedback / dynamic policies
  of Section 4.3.2 via :func:`repro.core.batching.decide_batch`; the static
  policy runs with unbounded queues (no feedback mechanism).
* Online sources deliver frames at ``stream_fps``; a run is real-time when
  ingest keeps pace with arrivals (Section 4.3.1's 30 FPS criterion).
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.batching import batch_floor, decide_batch, decide_fused_batch, fused_pop_order
from ..core.config import FFSVAConfig
from ..core.kernel import CascadeKernel, StreamInfo
from ..core.metrics import LatencyStats, RunMetrics
from ..core.pipeline import (
    FUSED,
    MERGED,
    PER_STREAM,
    SHARED_RR,
    SNM,
    StageGraph,
    StageSpec,
    arbitration_batch,
    call_batch,
    stage_per_frame_time,
    stage_service_time,
)
from ..core.queues import SimQueue
from ..core.trace import FrameTrace
from ..devices.costs import CostModel
from ..devices.placement import Placement, ffs_va_placement
from ..models.mosaic import MosaicStats, Region, effective_regions, plan_mosaics
from ..models.tyolo import TYOLO_GRID
from ..obs import Telemetry

__all__ = ["PipelineSimulator", "simulate_offline", "simulate_online"]


@dataclass
class _StreamState:
    """Mutable per-stream simulation state."""

    trace: FrameTrace
    n: int
    admitted: int = 0  # frames pushed into the first stage's queue
    dropped: int = 0  # frames filtered out at some stage
    analyzed: int = 0  # frames fully processed by the terminal stage
    finish_time: float = 0.0  # virtual time the last frame was disposed of
    #: Head-of-line frame last reported as blocked at the source: the
    #: fixed-point loop retries admission many times per instant, and one
    #: stalled frame is one ``queue_block``.
    blocked: int = -1
    ingest_time: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.ingest_time = np.full(self.n, np.nan)

    @property
    def active(self) -> bool:
        """Still has frames to offer (re-forwardable)."""
        return self.admitted < self.n


class _StageQueue(SimQueue):
    """A stage input queue that knows whom its state changes wake."""

    def __init__(self, depth: int | None, name: str):
        super().__init__(depth, name)
        self.stage: _SimStage | None = None
        #: The stream whose worker this queue can make startable; None when
        #: one worker pools the stage's queue(s) (merged and fused stages).
        self.stream: int | None = None
        #: Producers that found it full, retried when it dequeues: source
        #: indices on a first-stage queue, :class:`_OutBuffer` s elsewhere.
        self.waiters: list = []


@dataclass
class _OutBuffer:
    """Survivors one blocked worker holds, in delivery order, each with the
    queue it was routed to at settlement: ``(stream, frame, queue, stage)``."""

    rank: tuple  # (stage position, first-block order): the drain order
    stage: _SimStage
    key: object  # the worker: stream index (per_stream) or device name
    held: deque = field(default_factory=deque)


@dataclass
class _SimStage:
    """Event-loop state of one graph stage.

    Frames are identified as ``(stream_idx, frame_idx)`` everywhere; the
    pass verdict for every frame of every stream is precomputed from the
    spec's ``trace_mask``.
    """

    spec: StageSpec
    pos: int  # position in graph order
    arb_time: float  # per-frame service time device arbitration weighs by
    passes: list  # ndarray[bool] per stream
    queues: list = field(default_factory=list)  # per-stream (empty if merged)
    merged_q: SimQueue | None = None
    #: Worker -> its :class:`_OutBuffer`, created at the worker's first
    #: block: keyed by stream index for ``per_stream`` stages (each stream
    #: has its own worker), by device name otherwise (one per hosting device).
    out: dict = field(default_factory=dict)
    in_flight: list = field(default_factory=list)  # per-stream counts
    rr: int = 0  # round-robin cursor over streams
    batch_events: int = 0
    queued: int = 0  # frames in the input queue(s), kept by en/dequeue
    floor: int = 1  # fewest queued frames any batch here waits for (batch_floor)
    #: ``fixed`` rule only: the most frames a batch takes, as the cost
    #: model's calls carry them (one at the paper's reference; ``call_batch``).
    take: int = 1
    #: ``per_stream`` / ``shared_rr`` only — sorted stream indices whose
    #: queue a worker could take a batch from (see ``_refresh``).
    startable: list = field(default_factory=list)
    #: Mosaic stages only: per-stream ``regions_by_frame()`` lists (``None``
    #: for a trace without recorded regions — whole-frame fallback) and the
    #: running consolidation statistics.
    regions: list | None = None
    mosaic_stats: MosaicStats | None = None

    def holding(self, key) -> bool:
        """Is worker ``key`` blocked with survivors in its hands?"""
        ob = self.out.get(key)
        return ob is not None and bool(ob.held)


@dataclass
class _Service:
    stage: str
    stream_idx: int | None
    frames: list  # [(stream_idx, frame_idx), ...]
    start: float
    end: float


class PipelineSimulator:
    """One FFS-VA instance processing a fixed set of stream traces.

    Each instant runs three phases to a fixed point — admit arrived frames,
    deliver held survivors, start idle devices — and each phase visits only
    its *ready set*, kept where state changes (:meth:`_enqueue`,
    :meth:`_dequeue`, an out-buffer filling or emptying, the clock reaching
    an arrival).  Invariant: **a skipped visit is one a scan of every stream
    and stage would have made as a no-op**, and visits keep the scan's order,
    so virtual results are the scan's (DESIGN.md "Ready sets").
    """

    def __init__(
        self,
        traces: list[FrameTrace],
        config: FFSVAConfig | None = None,
        cost_model: CostModel | None = None,
        placement: Placement | None = None,
        *,
        online: bool = True,
        record_events: bool = False,
        graph: StageGraph | str | None = None,
        telemetry: Telemetry | None = None,
        store=None,
        plan_catalog=None,
    ):
        if not traces:
            raise ValueError("need at least one stream trace")
        #: The clock-free half of the run (repro.core.kernel): wiring, metrics
        #: and every per-batch decision; this class adds the event heap, the
        #: arrival model and the cost model.
        self.kernel = k = CascadeKernel(
            config, graph, telemetry=telemetry, store=store, plan_catalog=plan_catalog
        )
        self.config, self.graph, self.metrics = k.config, k.graph, k.metrics
        self.telemetry, self.admission, self.planner = k.telemetry, k.admission, k.planner
        self.store = k.store
        self.lineage_context = k.lineage_context
        self.costs = cost_model or CostModel()
        self.placement = placement or ffs_va_placement()
        # Idle devices report too (utilization 0), not only the ones charged.
        k.busy.update(dict.fromkeys(self.placement.devices, 0.0))
        self.online = online

        self.streams: list[_StreamState] = []
        self._pending = 0  # offered frames without a disposition yet
        #: Heap of ``(arrival time, stream)``, one per source whose head frame
        #: is still to come (a detached stream's entry is skipped lazily).
        self._arrivals: list = []
        #: Sources / out-buffers woken since their phase last ran.
        self._src_ready: list = []
        self._out_ready: list = []
        for trace in traces:
            self._new_stream(trace)
        self._stages: dict[str, _SimStage] = {}
        # Adaptive batching retargets anywhere in 1..BatchSize at a sweep.
        adaptive = k.planner is not None and k.planner.adaptive_batching
        for pos, spec in enumerate(self.graph):
            arb = stage_per_frame_time(spec, self.costs, arbitration_batch(spec, self.config))
            stg = self._stages[spec.name] = _SimStage(spec, pos, arb, passes=[])
            stg.take = call_batch(spec, self.costs, spec.batch.size)
            if spec.mosaic:
                stg.regions = []
                stg.mosaic_stats = k.mosaic[spec.name] = MosaicStats()
            self._extend_stage(stg, traces, range(len(traces)))
            if spec.batch.kind == "config":
                stg.floor = batch_floor(
                    self.config.batch_policy,
                    1 if adaptive else self.config.batch_size,
                    (stg.queues or [stg.merged_q])[0].depth,
                )
        self._first = self._stages[self.graph.first.name]

        # Device -> stages hosted there (graph order).
        self._dev_stages: dict[str, list[StageSpec]] = {}
        for spec in self.graph:
            for name in self.placement.hosts(spec):
                self._dev_stages.setdefault(name, []).append(spec)

        self._heap: list = []
        self._seq = itertools.count()
        self._in_service: dict[str, _Service] = {}
        self._dev_last: dict[str, str] = {}
        self._now = 0.0
        self._ref_latencies: list[float] = []
        self._drop_latencies: list[float] = []
        self.record_events = record_events
        #: When enabled: (start, end, device, stage, stream_idx, n, n_pass)
        #: per service, in completion order — a Gantt chart of the run.
        self.events: list[tuple] = []
        #: Lazy per-(stage, stream, degree) verdict masks for plan-driven
        #: FilterDegree switches (the static-config mask in ``_SimStage``
        #: covers the common degree).
        self._degree_masks: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # graph-driven construction helpers
    # ------------------------------------------------------------------
    def _new_stream(self, trace: FrameTrace, arrival_offset: int = 0) -> None:
        idx = len(self.streams)
        self.streams.append(_StreamState(trace=trace, n=len(trace)))
        self.kernel.add_stream(
            StreamInfo(trace.stream_id, trace.fps, trace.kind, arrival_offset)
        )
        self._pending += len(trace)
        if len(trace):
            heapq.heappush(self._arrivals, (self._arrival_time(idx, 0), idx))

    def _extend_stage(self, stg: _SimStage, traces: list[FrameTrace], slots: range) -> None:
        """Give ``stg`` pass masks, in-flight counters and input queues for
        the streams in ``slots`` (all of them at construction, one on attach)."""
        spec = stg.spec
        stg.passes += [
            np.asarray(spec.logic.trace_mask(t, self.config), dtype=bool) for t in traces
        ]
        stg.in_flight += [0] * len(traces)
        made = []
        if spec.fan_in != MERGED:
            made = self.kernel.make_queues(spec, _StageQueue, slots)
            stg.queues += made
        elif stg.merged_q is None:
            made = self.kernel.make_queues(spec, _StageQueue, slots)
            stg.merged_q = made[0]
        for q, slot in zip(made, slots):
            q.stage = stg
            q.stream = slot if spec.fan_in in (PER_STREAM, SHARED_RR) else None
        if spec.mosaic:
            stg.regions += [t.regions_by_frame() for t in traces]

    # ------------------------------------------------------------------
    # ready-set maintenance: the only places queue state changes
    # ------------------------------------------------------------------
    def _enqueue(self, q: _StageQueue, s_idx: int, f_idx: int) -> None:
        """A frame lands in stage queue ``q`` (the caller saw room)."""
        q.put((s_idx, f_idx))
        stg = q.stage
        stg.queued += 1
        if q.stream is not None and len(q) <= stg.floor:  # above it, nothing changes
            self._refresh(stg, q.stream)

    def _dequeue(self, q: _StageQueue, n: int) -> list:
        """A worker takes ``n`` frames off ``q``; whoever waited for room
        there is retried in its phase of the next fixed-point pass."""
        frames = q.pop_batch(n)
        stg = q.stage
        stg.queued -= len(frames)
        if q.waiters:
            (self._src_ready if stg is self._first else self._out_ready).extend(q.waiters)
            q.waiters.clear()
        if q.stream is not None and len(q) < stg.floor:  # at or above it, nothing changes
            self._refresh(stg, q.stream)
        return frames

    def _refresh(self, stg: _SimStage, idx: int) -> None:
        """Keep ``idx`` in ``stg.startable`` iff a worker could take a batch
        from stream ``idx``'s queue: it holds frames, its (per-stream) worker
        holds no survivors, and the batch floor is met — or, the source being
        exhausted, may never be (``_n_take`` then asks ``_upstream_drained``)."""
        n = len(stg.queues[idx])
        want = (
            n > 0
            and (n >= stg.floor or not self.streams[idx].active)
            and not (stg.spec.fan_in == PER_STREAM and stg.holding(idx))
        )
        ready = stg.startable
        i = bisect_left(ready, idx)
        if (i < len(ready) and ready[i] == idx) != want:
            if want:
                ready.insert(i, idx)
            else:
                del ready[i]

    def _exhausted(self, idx: int) -> None:
        """Stream ``idx`` offers no more frames (drained or detached): its
        queues below the floor become candidates for a final flush."""
        for stg in self._stages.values():
            if stg.spec.fan_in in (PER_STREAM, SHARED_RR):
                self._refresh(stg, idx)

    # ------------------------------------------------------------------
    # arrival model
    # ------------------------------------------------------------------
    def _arrival_time(self, idx: int, frame_idx: int) -> float:
        """Local frame ``j`` of a tail trace attached mid-run arrives when
        global frame ``offset + j`` of the original stream would have — the
        frame-boundary contract the threaded cluster's handoff keeps."""
        if not self.online:
            return 0.0
        return (self.kernel.streams[idx].offset + frame_idx) / self.config.stream_fps

    def _top_up_arrivals(self, now: float) -> bool:
        """Admit arrived frames into the first stage while room remains: in
        stream order, from the sources whose head frame the clock just
        reached and the blocked ones whose first-stage queue dequeued."""
        eps = 1e-12
        heap = self._arrivals
        while heap and heap[0][0] <= now + eps:
            self._src_ready.append(heapq.heappop(heap)[1])
        if not self._src_ready:
            return False
        ready, self._src_ready = sorted(self._src_ready), []
        progress = False
        k = self.kernel
        traced = k.telemetry is not None
        first = self._first
        first_name = first.spec.name
        for idx in ready:
            st = self.streams[idx]
            q = first.merged_q if first.merged_q is not None else first.queues[idx]
            while st.admitted < st.n:
                t = self._arrival_time(idx, st.admitted)
                if t > now + eps:
                    heapq.heappush(heap, (t, idx))
                    break
                if not q.has_room(1):
                    # The source holds an arrived frame the full first queue
                    # cannot take: back-pressure has reached the camera.  An
                    # arrival in (now, now + eps] still gets its own event.
                    if t > now:
                        heapq.heappush(heap, (t, idx))
                    else:
                        q.waiters.append(idx)
                    if traced and st.blocked != st.admitted:
                        st.blocked = st.admitted
                        k.blocked(first_name, idx, st.admitted, now, len(q))
                    break
                self._enqueue(q, idx, st.admitted)
                t_in = max(now, t)
                st.ingest_time[st.admitted] = t_in
                if traced:
                    k.entered(first_name, idx, st.admitted, t_in, admitted=True)
                st.admitted += 1
                progress = True
            else:
                self._exhausted(idx)
        return progress

    def _next_pending_arrival(self, now: float) -> float:
        """Earliest future arrival that could enter the pipeline (inf = none)."""
        heap = self._arrivals
        while heap and not self.streams[heap[0][1]].active:
            heapq.heappop(heap)  # detached since it was pushed
        return heap[0][0] if heap else float("inf")

    # ------------------------------------------------------------------
    # out-buffer draining (blocked workers delivering held survivors)
    # ------------------------------------------------------------------
    def _drain_out_buffers(self, now: float) -> bool:
        """Retry, in (stage, first-block) order, the out-buffers whose head
        survivor's queue dequeued since it was found full."""
        if not self._out_ready:
            return False
        ready, self._out_ready = sorted(self._out_ready, key=lambda ob: ob.rank), []
        progress = False
        k = self.kernel
        traced = k.telemetry is not None
        for ob in ready:
            held = ob.held
            while held:
                s_idx, f_idx, target, tname = held[0]
                if not target.has_room(1):
                    target.waiters.append(ob)  # FIFO delivery: head blocks the rest
                    break
                held.popleft()
                self._enqueue(target, s_idx, f_idx)
                if traced:
                    k.entered(tname, s_idx, f_idx, now)
                progress = True
            else:
                if ob.stage.spec.fan_in == PER_STREAM:
                    self._refresh(ob.stage, ob.key)
        return progress

    # ------------------------------------------------------------------
    # work starting
    # ------------------------------------------------------------------
    def _start(self, device_name: str, service: _Service) -> None:
        self._in_service[device_name] = service
        # Devices are charged when a service starts, so a run truncated at
        # its horizon still counts the work in flight.
        busy = self.kernel.busy
        busy[device_name] = busy.get(device_name, 0.0) + (service.end - service.start)
        self._stages[service.stage].batch_events += 1
        heapq.heappush(self._heap, (service.end, next(self._seq), device_name))

    def _upstream_drained(self, spec: StageSpec, stream_idx: int) -> bool:
        """No frame of ``stream_idx`` can ever reach ``spec`` again."""
        st = self.streams[stream_idx]
        if st.admitted < st.n:
            return False
        for up in self.graph.upstream(spec.name):
            ustg = self._stages[up.name]
            if ustg.in_flight[stream_idx]:
                return False
            if ustg.merged_q is not None:
                if any(s == stream_idx for s, _ in ustg.merged_q):
                    return False
            elif len(ustg.queues[stream_idx]):
                return False
            if up.fan_in == PER_STREAM:
                if ustg.holding(stream_idx):
                    return False
            else:
                for ob in ustg.out.values():
                    if any(held[0] == stream_idx for held in ob.held):
                        return False
        return True

    def _n_take(self, spec: StageSpec, q: SimQueue, stream_idx: int | None) -> int:
        """Batch size a worker takes from ``q`` right now (0 = skip)."""
        cfg = self.config
        rule = spec.batch
        n = len(q)
        if rule.kind == "rr_cap":
            return min(n, cfg.num_t_yolo)
        if rule.kind == "config":
            size = self.kernel.batch_size()
            # End of stream only matters below the floor: at or above it a
            # single queue's flush (min(n, BatchSize)) is the policy's batch.
            feeders = range(len(self.streams)) if stream_idx is None else (stream_idx,)
            eof = n < batch_floor(cfg.batch_policy, size, q.depth) and all(
                self._upstream_drained(spec, i) for i in feeders
            )
            return decide_batch(cfg.batch_policy, n, size, q.depth, eof=eof)
        return min(n, self._stages[spec.name].take)

    def _begin(
        self,
        device_name: str,
        spec: StageSpec,
        stream_idx: int | None,
        frames: list,
        now: float,
    ) -> None:
        stg = self._stages[spec.name]
        for s, _ in frames:
            stg.in_flight[s] += 1
        # Process-pool stages are modeled as idealized linear scaling across
        # the configured worker processes (timing only; counters and
        # verdicts are executor-independent).
        parallelism = (
            self.config.num_sdd_procs if spec.executor == "process" else 1
        )
        if spec.mosaic:
            dt = self._mosaic_service_time(stg, frames)
        else:
            dt = stage_service_time(
                spec, self.costs, len(frames), parallelism=parallelism
            )
        self._start(device_name, _Service(spec.name, stream_idx, frames, now, now + dt))

    def _verdicts(self, spec: StageSpec, stg: _SimStage, frames: list) -> list:
        """Pass verdicts of ``spec`` for ``frames``, replayed from the
        traces — under the stream's planned FilterDegree for SNM."""
        planner = self.planner
        if planner is None or spec.name != SNM:
            return [bool(stg.passes[s][f]) for s, f in frames]
        return [
            bool(self._degree_mask(spec, stg, s, planner.degree_for(s, f))[f])
            for s, f in frames
        ]

    def _degree_mask(
        self, spec: StageSpec, stg: _SimStage, s_idx: int, degree: float
    ) -> np.ndarray:
        """Verdict mask of ``spec`` for one stream at one FilterDegree."""
        if degree == self.config.filter_degree:
            return stg.passes[s_idx]
        key = (spec.name, s_idx, degree)
        mask = self._degree_masks.get(key)
        if mask is None:
            cfg = self.config.with_(filter_degree=degree)
            mask = np.asarray(
                spec.logic.trace_mask(self.streams[s_idx].trace, cfg), dtype=bool
            )
            self._degree_masks[key] = mask
        return mask

    def _mosaic_service_time(self, stg: _SimStage, frames: list) -> float:
        """Per-canvas charge for one fused mosaic batch.

        Runs the *same* deterministic packer the threaded engine's fused
        evaluator runs, over the per-frame ROIs recorded in the traces
        (whole-frame fallback for traces that predate region recording), so
        the virtual canvas count is the real canvas count for the same
        batch composition.
        """
        cfg = self.config
        regions: list[Region] = []
        for i, (s, f) in enumerate(frames):
            by_frame = stg.regions[s]
            proposed = None if by_frame is None else by_frame[f]
            for cy0, cx0, cy1, cx1 in effective_regions(proposed, TYOLO_GRID):
                regions.append(Region(i, int(cy0), int(cx0), int(cy1), int(cx1)))
        plan = plan_mosaics(regions, cfg.mosaic_canvas, cfg.mosaic_gutter)
        stg.mosaic_stats.observe(plan, len(frames))
        return self.costs.mosaic_service_time(
            len(frames), plan.n_regions, plan.n_canvases
        )

    def _try_start_stage(self, device_name: str, spec: StageSpec, now: float) -> bool:
        """Start one batch of ``spec`` on ``device_name`` if possible."""
        stg = self._stages[spec.name]
        if not stg.queued or (spec.fan_in != PER_STREAM and stg.holding(device_name)):
            return False  # nothing to take, or this worker is blocked downstream
        if spec.fan_in == MERGED:
            q = stg.merged_q
            n_take = self._n_take(spec, q, None)
            if n_take == 0:
                return False
            self._begin(device_name, spec, None, self._dequeue(q, n_take), now)
            return True

        if spec.fan_in == FUSED:
            lens = [len(q) for q in stg.queues]
            eof = all(
                self._upstream_drained(spec, i) for i in range(len(self.streams))
            )
            takes = decide_fused_batch(
                self.config.batch_policy,
                lens,
                self.kernel.batch_size(),
                stg.queues[0].depth,
                eof=eof,
                start=stg.rr,
            )
            if sum(takes) == 0:
                return False
            frames = []
            for si in fused_pop_order(takes, stg.rr):
                frames += self._dequeue(stg.queues[si], takes[si])
            stg.rr = (stg.rr + 1) % len(self.streams)
            self._begin(device_name, spec, None, frames, now)
            return True

        # Round-robin from the cursor over the startable streams only.
        ready = stg.startable
        start = bisect_left(ready, stg.rr)
        for off in range(len(ready)):
            idx = ready[(start + off) % len(ready)]
            q = stg.queues[idx]
            n_take = self._n_take(spec, q, idx)
            if n_take == 0:
                continue  # below the floor with frames still upstream
            self._begin(device_name, spec, idx, self._dequeue(q, n_take), now)
            stg.rr = (idx + 1) % len(self.streams)
            return True
        return False

    def _stage_order(self, device_name: str, specs: list[StageSpec]) -> list[StageSpec]:
        """Service order for a device hosting several stages.

        The worker threads share the device through the driver, which
        time-slices them roughly in proportion to their pending work.  We
        approximate that by serving whichever stage has more queued
        service-time, falling back to strict alternation on ties — without
        this, a long unbounded SNM backlog (static batching) would starve
        T-YOLO and stall the reference stage behind it.
        """
        if len(specs) == 1:
            return specs
        works = [
            self._stages[sp.name].queued * self._stages[sp.name].arb_time for sp in specs
        ]
        if all(abs(w - works[0]) < 1e-12 for w in works):
            last = self._dev_last.get(device_name, specs[0].name)
            names = [sp.name for sp in specs]
            if last in names:
                i = names.index(last)
                return list(specs[i + 1 :]) + list(specs[: i + 1])
            return list(specs)
        ranked = sorted(range(len(specs)), key=lambda i: (-works[i], i))
        return [specs[i] for i in ranked]

    def _try_start_devices(self, now: float) -> bool:
        """Start at most one service per idle device, per fixed-point pass."""
        any_started = False
        for device_name, specs in self._dev_stages.items():
            if device_name in self._in_service:
                continue  # busy
            for spec in self._stage_order(device_name, specs):
                if self._try_start_stage(device_name, spec, now):
                    self._dev_last[device_name] = spec.name
                    any_started = True
                    break
        return any_started

    def _start_all(self, now: float) -> None:
        """Keep admitting, draining, and starting until a fixed point."""
        progress = True
        while progress:
            progress = False
            progress |= self._top_up_arrivals(now)
            progress |= self._drain_out_buffers(now)
            progress |= self._try_start_devices(now)

    # ------------------------------------------------------------------
    # completion handling
    # ------------------------------------------------------------------
    def _complete(self, device_name: str, now: float) -> None:
        svc = self._in_service.pop(device_name)
        spec = self.graph[svc.stage]
        stg = self._stages[svc.stage]
        k = self.kernel
        traced = k.telemetry is not None
        out_key = svc.stream_idx if spec.fan_in == PER_STREAM else device_name
        n_pass = 0
        # Verdicts are taken as the service completes and settled before any
        # frame is routed — the threaded engine's contract (evaluate, settle,
        # route), group by plan-homogeneous group, so a chunk boundary inside
        # the batch decides the next chunk's plan before its verdicts.
        for frames in k.plan_groups(spec, svc.frames):
            passes = self._verdicts(spec, stg, frames)
            n_pass += sum(passes)
            k.settle(spec, frames, passes, svc.start, now, svc.end - svc.start)
            for (s_idx, f_idx), ok in zip(frames, passes):
                stg.in_flight[s_idx] -= 1
                if spec.terminal or not ok:
                    self._dispose(s_idx, f_idx, now, svc.stage, spec.terminal)
                    continue
                # The kernel picks the stage (next, or the plan's early
                # exit); the survivor lands in this stream's queue there.
                tname = k.target(spec, s_idx, f_idx).name
                tstg = self._stages[tname]
                target = tstg.merged_q if tstg.merged_q is not None else tstg.queues[s_idx]
                if target.has_room(1) and not stg.holding(out_key):
                    self._enqueue(target, s_idx, f_idx)
                    if traced:
                        k.entered(tname, s_idx, f_idx, now)
                else:
                    # The worker is blocked on a full downstream queue and
                    # holds the survivor in its out-buffer.
                    if traced:
                        k.blocked(tname, s_idx, f_idx, now, len(target))
                    ob = stg.out.get(out_key)
                    if ob is None:
                        ob = stg.out[out_key] = _OutBuffer((stg.pos, len(stg.out)), stg, out_key)
                    ob.held.append((s_idx, f_idx, target, tname))
                    if len(ob.held) == 1:
                        # The head survivor's queue wakes this worker.
                        target.waiters.append(ob)
                        if spec.fan_in == PER_STREAM:
                            self._refresh(stg, out_key)
        if self.record_events:
            self.events.append(
                (svc.start, svc.end, device_name, svc.stage, svc.stream_idx,
                 len(svc.frames), n_pass)
            )

    def _dispose(
        self, s_idx: int, f_idx: int, now: float, stage: str, analyzed: bool
    ) -> None:
        """A frame's journey ends at ``stage``: analyzed by the terminal
        stage (its score is the trace's precomputed reference count, the
        value the threaded engine computes live), or filtered out there."""
        st = self.streams[s_idx]
        self._pending -= 1
        st.finish_time = max(st.finish_time, now)
        # Latency runs from arrival when online (the user's clock starts at
        # capture), from ingest when offline (all frames 'arrive' at t=0, so
        # that would grow with the run instead of measuring residence).
        base = self._arrival_time(s_idx, f_idx) if self.online else float(st.ingest_time[f_idx])
        latency = now - base
        score = 0.0
        if analyzed:
            st.analyzed += 1
            self.metrics.frames_to_ref += 1
            self._ref_latencies.append(latency)
            if st.trace.ref_count is not None:
                score = float(st.trace.ref_count[f_idx])
        else:
            st.dropped += 1
            self._drop_latencies.append(latency)
        self.kernel.record(s_idx, f_idx, stage, latency, score)

    # ------------------------------------------------------------------
    # cluster-instance control (attach / detach)
    # ------------------------------------------------------------------
    def attach_stream(self, trace: FrameTrace, *, arrival_offset: int = 0) -> int:
        """Attach a (tail) trace mid-run; returns its stream index.

        Mirrors the threaded engine's ``attach_stream``: the new stream
        gets its own queues, pass masks, and in-flight counters, and its
        frames arrive on the *original* stream's clock via
        ``arrival_offset`` (global index of the trace's first frame).
        """
        if self.planner is not None:
            # The planner's chunk accounting assumes a fixed stream roster
            # (the threaded engine rejects reserve_slots for the same reason).
            raise ValueError("attach_stream is incompatible with plan='adaptive'")
        idx = len(self.streams)
        self._new_stream(trace, arrival_offset)
        for stg in self._stages.values():
            self._extend_stage(stg, [trace], range(idx, idx + 1))
        return idx

    def detach_stream(self, idx: int) -> int:
        """Stop offering stream ``idx``'s frames; returns the global index
        of the first frame *not* admitted here (the attach point for the
        receiving instance).  Frames already admitted keep their in-flight
        path to a disposition, exactly like the threaded detach."""
        st = self.streams[idx]
        self._pending -= st.n - st.admitted
        st.n = st.admitted
        self._exhausted(idx)
        return self.kernel.streams[idx].offset + st.admitted

    def stream_costs(self) -> dict[str, int]:
        """stream_id -> frames past the first stage, active streams only."""
        return self.kernel.stream_costs(
            i for i, st in enumerate(self.streams) if st.active
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def advance(self, until: float | None = None) -> float:
        """Run the event loop up to virtual time ``until`` (or to drain).

        Resumable: the cluster simulator calls this once per router epoch,
        applies attach/detach between calls, and finishes with
        :meth:`finalize`.  Returns the current virtual time.
        """
        now = self._now
        inf = float("inf")
        k = self.kernel
        sampler = k.sampler
        while True:
            self._start_all(now)
            if sampler is not None and sampler.due(now):
                k.sweep(now)
            if not self._pending:
                break
            t_heap = self._heap[0][0] if self._heap else inf
            t_next = min(t_heap, self._next_pending_arrival(now))
            if t_next == inf:
                # Frames remain and nothing will ever move them (a missed
                # wake-up): loud, because the metrics would look complete.
                obs = [ob for stg in self._stages.values() for ob in stg.out.values()]
                holding = {
                    "queues": {q.name: len(q) for q in k.queues if len(q)},
                    "out": {f"{o.stage.spec.name}[{o.key}]": len(o.held) for o in obs if o.held},
                    "sources": {s.trace.stream_id: s.n - s.admitted for s in self.streams if s.active},
                }
                raise RuntimeError(
                    f"simulation stalled at t={now:.6f}: {self._pending} frames undisposed, "
                    f"no completion or arrival pending; still holding {holding}"
                )
            if until is not None and t_next > until:
                now = until
                break
            now = t_next
            while self._heap and self._heap[0][0] <= now + 1e-15:
                _, _, dev = heapq.heappop(self._heap)
                self._complete(dev, now)
        self._now = now
        return now

    def run(self, max_virtual_time: float | None = None) -> RunMetrics:
        """Simulate until all frames are processed (or the horizon ends)."""
        self.advance(max_virtual_time)
        return self.finalize(max_virtual_time)

    def finalize(self, max_virtual_time: float | None = None) -> RunMetrics:
        """Close out an :meth:`advance`-driven run and return metrics."""
        now = self._now
        if self.store is not None:
            self.store.close()  # idempotent: advance()/finalize() may repeat
        self.kernel.sweep(now, force=True)
        m = self.metrics
        m.frames_offered = sum(st.n for st in self.streams)
        m.frames_ingested = sum(st.admitted for st in self.streams)
        m.ref_latency = LatencyStats.from_samples(self._ref_latencies)
        m.frame_latency = LatencyStats.from_samples(
            self._drop_latencies + self._ref_latencies
        )
        m.extra["per_stream_ingested"] = [st.admitted for st in self.streams]
        m.extra["per_stream_done"] = [st.dropped + st.analyzed for st in self.streams]
        m.extra["per_stream_finish_time"] = [st.finish_time for st in self.streams]
        for name, stg in self._stages.items():
            entered = m.stages[name].entered
            m.extra[f"{name}_fps"] = entered / now if now > 0 else 0.0
            if stg.batch_events:
                m.extra[f"mean_{name}_batch"] = entered / stg.batch_events
        m.extra["truncated"] = max_virtual_time is not None and self._pending > 0
        return self.kernel.finish(now)


def simulate_offline(
    traces: list[FrameTrace],
    config: FFSVAConfig | None = None,
    cost_model: CostModel | None = None,
    placement: Placement | None = None,
    *,
    telemetry: Telemetry | None = None,
) -> RunMetrics:
    """Offline analysis: all frames available immediately, run to drain."""
    sim = PipelineSimulator(
        traces, config, cost_model, placement, online=False, telemetry=telemetry
    )
    return sim.run()


def simulate_online(
    traces: list[FrameTrace],
    config: FFSVAConfig | None = None,
    cost_model: CostModel | None = None,
    placement: Placement | None = None,
    *,
    horizon_slack: float = 2.0,
    telemetry: Telemetry | None = None,
) -> RunMetrics:
    """Online analysis: frames arrive at ``stream_fps``, bounded horizon.

    The horizon is the nominal clip duration plus ``horizon_slack`` seconds;
    a system that keeps up ingests everything well inside it, an overloaded
    one shows depressed ingest (and fails :meth:`RunMetrics.realtime`).
    """
    config = config or FFSVAConfig()
    sim = PipelineSimulator(
        traces, config, cost_model, placement, online=True, telemetry=telemetry
    )
    n_max = max(len(t) for t in traces)
    horizon = n_max / config.stream_fps + horizon_slack
    return sim.run(max_virtual_time=horizon)
