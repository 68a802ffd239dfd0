"""The cascade kernel: one run's decisions, written once for every clock.

FFS-VA is one cascade with one feedback-queue control plane, executed here
on two clocks — :class:`~repro.runtime.engine.ThreadedPipeline` (threads,
wall time, real inference) and :class:`~repro.sim.simulator.PipelineSimulator`
(event heap, virtual time, the calibrated cost model).  Everything that does
*not* depend on the clock lives in :class:`CascadeKernel`: run construction
(graph, queue depths, telemetry / admission / planner / store wiring,
``RunMetrics``), per-frame routing, batch settlement (counters, first-pass
costs, planner feed, wait / service histograms, events), the terminal
record (store row + latency), the gauge sweep with its admission and
planner polls, the shared tail of finalisation and the ``/lineage`` context.

A driver owns only what needs its clock: it builds its queues through
:meth:`~CascadeKernel.make_queues`, moves frames between them, times the
batches and calls back here — ``entered`` when a frame lands in a queue,
``settle`` once per evaluated batch, ``target`` / ``record`` per frame of
it, ``sweep`` on its sampling cadence and ``finish`` at the end.  Frames
are ``(stream_idx, frame_idx)`` pairs throughout.  A per-frame feature
added here is cross-runtime by construction (DESIGN.md §16).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..obs import Telemetry
from ..obs.lineage import lineage_section
from ..store.detstore import DetectionRecord, DetStore
from .admission import AdmissionController
from .config import FFSVAConfig
from .metrics import RunMetrics, StageCounters
from .pipeline import FUSED, MERGED, SNM, StageGraph, StageSpec, cascade
from .qplan import QueryPlanner

__all__ = ["StreamInfo", "CascadeKernel"]


@dataclass(frozen=True)
class StreamInfo:
    """What the kernel needs to know about one stream."""

    stream_id: str
    fps: float
    kind: str
    #: Global index of the stream's local frame 0.  Non-zero only for a
    #: tail trace the simulator attached mid-run; the threaded runtime
    #: offers global indices throughout.
    offset: int = 0


class CascadeKernel:
    """Clock-free state and decisions of one pipeline run.

    Safe to call from several worker threads at once: counter updates are
    serialized by one short lock (uncontended, and cheap, under a
    single-threaded driver).
    """

    def __init__(
        self,
        config: FFSVAConfig | None = None,
        graph: StageGraph | str | None = None,
        *,
        telemetry: Telemetry | None = None,
        store: DetStore | None = None,
        plan_catalog=None,
    ):
        self.config = cfg = config or FFSVAConfig()
        self.graph = cascade(graph) if graph is not None else cfg.graph()
        terminal = self.graph.terminal
        adaptive = cfg.plan == "adaptive"
        if adaptive and len(self.graph) > 2 and terminal.fan_in != MERGED:
            raise ValueError(
                "adaptive depth planning needs a merged terminal stage "
                "(early exits route straight to its queue)"
            )
        #: Attached telemetry (None = disabled; every emission site guards
        #: on that with a single branch).  Timestamps are seconds since run
        #: start on the driver's clock, so both runtimes share one schema.
        self.telemetry = tel = (
            telemetry if telemetry is not None else Telemetry.from_config(cfg)
        )
        #: Closed-loop admission: decisions are read off the telemetry
        #: sampler's series (None when telemetry is disabled).
        self.admission = (
            AdmissionController(cfg, sampler=tel.sampler, graph=self.graph)
            if tel is not None
            else None
        )
        #: Content-adaptive query planner (None when plan="static").  It
        #: shares the telemetry sampler when one exists so its activity
        #: series ride the same export plane; otherwise it runs a private
        #: sampler — planning works with telemetry off.
        self.planner = (
            QueryPlanner(
                cfg,
                graph=self.graph,
                sampler=tel.sampler if tel is not None else None,
                catalog=plan_catalog,
            )
            if adaptive
            else None
        )
        #: Adaptive depth planning lets a passer of any non-terminal stage
        #: skip straight to the terminal queue.
        self.plan_routing = adaptive and sum(1 for s in self.graph if not s.terminal) > 1
        #: The sampler :meth:`sweep` feeds — telemetry's, else the private
        #: one of a planner that follows queue depth, else None (no sweeps).
        self.sampler = None
        if tel is not None:
            self.sampler = tel.sampler
        elif self.planner is not None and self.planner.adaptive_batching:
            self.sampler = self.planner.sampler
        #: Persistent detection store (None = no persistence).  An injected
        #: store is used as-is; otherwise config.result_store_dir builds one.
        self.store = (
            store if store is not None else DetStore.from_config(cfg, terminal=terminal.name)
        )
        self.metrics = RunMetrics(
            n_streams=0, stages={spec.name: StageCounters() for spec in self.graph}
        )
        #: Per stream slot (None = a reserve slot no stream has filled yet).
        self.streams: list[StreamInfo | None] = []
        #: Per-slot frames that passed the first stage — the live "cost"
        #: signal the router ranks streams by when choosing what to shed.
        self.first_pass: list[int] = []
        #: Every stage input queue, in graph order (attached streams' queues
        #: follow): the gauge sweep and ``queue_high_water`` read these.
        self.queues: list = []
        #: Accumulated service seconds per device; a device reports its
        #: utilization once it has an entry (a driver may seed idle ones).
        self.busy: dict[str, float] = {}
        #: Fused evaluators' / simulated mosaic stages' ``MosaicStats``,
        #: keyed by stage name (registered by the driver).
        self.mosaic: dict = {}
        #: Telemetry only: stage -> {(stream, frame): enqueue time}, popped
        #: at settlement to split each hop's wait from its service.
        self.enter_t: dict[str, dict] = {spec.name: {} for spec in self.graph}
        self._lock = threading.Lock()
        self._prev = {"t": 0.0, "entered": {}, "busy": {}}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_stream(self, info: StreamInfo | None, slot: int | None = None) -> int:
        """Register a stream and return its slot.

        ``info=None`` appends an empty reserve slot; passing ``slot`` later
        fills it (the threaded cluster instance's mid-run attach).
        """
        if slot is None:
            slot = len(self.streams)
            self.streams.append(info)
            self.first_pass.append(0)
        else:
            self.streams[slot] = info
        if info is not None:
            self.metrics.n_streams += 1
            if self.planner is not None:
                self.planner.register(slot, info.stream_id)
        return slot

    def _depth_for(self, spec: StageSpec) -> int | None:
        cfg = self.config
        if not cfg.bounded_queues:
            return None  # static batching runs without the feedback mechanism
        if spec.terminal and cfg.ref_overflow_to_storage:
            return None  # Section 5.5: terminal overflow goes to storage
        return cfg.queue_depth(spec.depth_key)

    def make_queues(self, spec: StageSpec, factory, slots: range) -> list:
        """``spec``'s input queues for stream slots ``slots``, built with
        ``factory(depth, name)``: one per slot, or the single merged queue.
        The kernel keeps a reference for the gauge sweep and high-water
        reporting; the driver owns every put and pop."""
        depth = self._depth_for(spec)
        if spec.fan_in == MERGED:
            made = [factory(depth, spec.name)]
        else:
            made = [factory(depth, f"{spec.name}[{i}]") for i in slots]
        self.queues.extend(made)
        return made

    # ------------------------------------------------------------------
    # per-frame hooks
    # ------------------------------------------------------------------
    def entered(self, stage: str, s_idx: int, f_idx: int, t: float, *, admitted=False) -> None:
        """A frame landed in ``stage``'s input queue at ``t`` (telemetry
        attached only).  ``admitted`` marks the source's put into the first
        stage, which is also the frame's ``admission``."""
        self.enter_t[stage][(s_idx, f_idx)] = t
        bus = self.telemetry.bus
        if bus.enabled:
            if admitted:
                bus.emit("admission", t, stage, stream=s_idx, frame=f_idx)
            bus.emit("frame_enter", t, stage, stream=s_idx, frame=f_idx)

    def blocked(self, stage: str, s_idx: int, f_idx: int, t: float, depth: int) -> None:
        """A producer found ``stage``'s input queue full (telemetry only)."""
        bus = self.telemetry.bus
        if bus.enabled:
            bus.emit("queue_block", t, stage, stream=s_idx, frame=f_idx, n=depth)

    def batch_size(self) -> int:
        """Frames a ``config``-batched stage forms a batch of right now: the
        configured size, or — under adaptive batching — the planner's EWMA
        queue-depth follower, which never exceeds it."""
        if self.planner is not None:
            return self.planner.batch_target
        return self.config.batch_size

    def target(self, spec: StageSpec, s_idx: int, f_idx: int) -> StageSpec:
        """The stage a survivor of ``spec`` flows into: the next one, or —
        when the stream's plan for this chunk stops filtering at ``spec`` —
        straight to the merged terminal stage."""
        if self.plan_routing and self.planner.exits_at(spec.name, s_idx, f_idx):
            return self.graph.terminal
        return self.graph.next(spec.name)

    def record(
        self, s_idx: int, f_idx: int, disposition: str, latency: float, score: float = 0.0
    ) -> None:
        """One frame reached its final disposition (a stage name, or
        ``"dropped"`` / ``"aborted"``): one durable row, one latency sample.

        The row's time is *stream time* on the global frame index, not the
        driver's clock, and its score the terminal stage's count — which is
        what makes threaded and simulated stores row-for-row comparable.
        """
        if self.store is not None:
            info = self.streams[s_idx]
            g = info.offset + f_idx
            self.store.append(
                DetectionRecord(
                    stream=info.stream_id,
                    frame=g,
                    t=g / info.fps,
                    cls=info.kind,
                    box=None,
                    score=score,
                    disposition=disposition,
                )
            )
        if self.telemetry is not None:
            self.telemetry.observe_latency(
                "frame_latency_seconds", latency, stage=disposition
            )

    # ------------------------------------------------------------------
    # batch settlement
    # ------------------------------------------------------------------
    def plan_groups(self, spec: StageSpec, frames: list) -> list[list]:
        """Split a batch so each group's frames share one plan chunk per
        stream (and therefore one FilterDegree); the driver evaluates and
        settles group by group, so a chunk boundary inside the batch decides
        the next chunk's plan before that chunk's verdicts are taken.  Only
        SNM batches under adaptive planning ever split, and only at the rare
        boundary crossings — the steady state stays one full batch."""
        if self.planner is None or spec.name != SNM:
            return [frames]
        epoch = self.planner.epoch
        groups: list[list] = []
        cur: list = []
        seen: dict[int, int] = {}
        for frame in frames:
            s_idx, chunk = frame[0], frame[1] // epoch
            if cur and seen.get(s_idx, chunk) != chunk:
                groups.append(cur)
                cur, seen = [], {}
            cur.append(frame)
            seen[s_idx] = chunk
        groups.append(cur)
        return groups

    def settle(
        self,
        spec: StageSpec,
        frames: list,
        passes: list,
        t_exec: float,
        t_done: float,
        busy: float,
        device: str | None = None,
    ) -> None:
        """Account for one evaluated batch: everything except moving it.

        ``frames`` are the batch's ``(stream, frame)`` pairs and ``passes``
        their verdicts; service ran over ``[t_exec, t_done]`` and kept its
        executor busy for ``busy`` seconds (charged to ``device`` when the
        driver measures busy time per batch rather than charging the device
        up front).  Call this *before* routing any frame of the batch.
        """
        name = spec.name
        n = len(frames)
        first = name == self.graph.first.name
        with self._lock:
            self.metrics.stages[name].record(n, sum(passes))
            if device is not None:
                self.busy[device] = self.busy.get(device, 0.0) + busy
            if first:
                for (s_idx, _), ok in zip(frames, passes):
                    if ok:
                        self.first_pass[s_idx] += 1
        if first and self.planner is not None:
            # First-stage verdicts reach the planner in frame order per
            # stream, *before* routing: a chunk boundary inside this batch
            # decides the next chunk's plan here, so the plan exists before
            # any of its frames moves on.
            by_stream: dict[int, tuple[list, list]] = {}
            for (s_idx, f_idx), ok in zip(frames, passes):
                fs, ps = by_stream.setdefault(s_idx, ([], []))
                fs.append(f_idx)
                ps.append(ok)
            for s_idx, (fs, ps) in by_stream.items():
                self.planner.observe_first(s_idx, fs, ps)
        tel = self.telemetry
        if tel is None:
            return
        tel.observe_latency("stage_exec_seconds", busy, stage=name)
        # Per-frame wait/service attribution: the hop's queue wait is
        # service start minus the frame's enqueue stamp (a stamp racing the
        # pop reads as zero or slightly negative; the histogram clamps and
        # counts those as skew).  Service is the batch's busy window,
        # charged to every frame it covered.
        enter_t = self.enter_t[name]
        for key in frames:
            tel.observe_latency(
                "stage_wait_seconds", t_exec - enter_t.pop(key, t_exec), stage=name
            )
            tel.observe_latency("stage_service_seconds", busy, stage=name)
        bus = tel.bus
        if not bus.enabled:
            return
        if bus.wants("batch_exec"):
            # Per-stream and round-robin batches come from one stream's queue.
            lead = None if spec.fan_in in (MERGED, FUSED) else frames[0][0]
            bus.emit("batch_exec", t_done, name, stream=lead, t_start=t_exec, n=n)
        # Hoisted per-kind check: a bus sampling only batch_exec skips the
        # whole per-frame emission loop (emit itself also drops unwanted
        # kinds, so this is purely a fast path).
        if bus.wants("frame_pass") or bus.wants("frame_filter"):
            terminal = spec.terminal
            for (s_idx, f_idx), ok in zip(frames, passes):
                bus.emit(
                    "frame_pass" if (terminal or ok) else "frame_filter",
                    t_done, name, stream=s_idx, frame=f_idx, t_start=t_exec,
                )

    # ------------------------------------------------------------------
    # the control-plane tick
    # ------------------------------------------------------------------
    def _sample(self, t: float, *, force: bool = False) -> None:
        """Record one gauge sweep into ``self.sampler``."""
        gauges: dict[str, float] = {f"queue_depth[{q.name}]": len(q) for q in self.queues}
        with self._lock:
            entered = {s: c.entered for s, c in self.metrics.stages.items()}
            busy = dict(self.busy)
        prev = self._prev
        dt = t - prev["t"]
        if dt > 0:
            for stage, n in entered.items():
                gauges[f"stage_fps[{stage}]"] = (n - prev["entered"].get(stage, 0)) / dt
            for device, b in busy.items():
                gauges[f"device_utilization[{device}]"] = min(
                    1.0, (b - prev["busy"].get(device, 0.0)) / dt
                )
        for name, stats in self.mosaic.items():
            gauges[f"mosaic_fill_ratio[{name}]"] = stats.fill_ratio()
            gauges[f"mosaic_regions_per_canvas[{name}]"] = stats.regions_per_canvas()
        self.sampler.observe_many(t, gauges, force=force)
        self._prev = {"t": t, "entered": entered, "busy": busy}

    def sweep(self, t: float, *, force: bool = False) -> None:
        """One tick of the control plane at driver time ``t``: sample the
        gauges, then let admission and the planner read them.  The driver
        calls this whenever ``self.sampler`` is due (and once, forced, at
        the end); a no-op when nothing reads the series."""
        if self.sampler is None:
            return
        self._sample(t, force=force)
        if self.admission is not None:
            self.admission.poll(t)
        if self.planner is not None:
            self.planner.poll(t)

    # ------------------------------------------------------------------
    # finalisation and introspection
    # ------------------------------------------------------------------
    def finish(self, duration: float) -> RunMetrics:
        """The tail of finalisation both drivers share."""
        m = self.metrics
        m.duration = duration
        m.device_utilization = {
            d: min(1.0, b / duration) if duration > 0 else 0.0 for d, b in self.busy.items()
        }
        m.queue_high_water = {q.name: q.high_water for q in self.queues}
        for stats in self.mosaic.values():
            m.extra["mosaic"] = stats.as_dict()
        if self.telemetry is not None:
            m.extra["telemetry"] = self.telemetry.bus.stats()
            m.extra["admission"] = self.admission.summary()
            m.extra["lineage"] = lineage_section(
                self.telemetry, terminal=self.graph.terminal.name
            )
        if self.planner is not None:
            m.extra["qplan"] = self.planner.summary()
        return m

    def stream_costs(self, slots) -> dict[str, int]:
        """stream_id -> frames past the first stage, for stream slots
        ``slots`` (the driver passes the ones still offering frames) — the
        live analogue of the position-cost the offline
        :class:`~repro.core.admission.InstanceGroup` ranks by: the stream
        that pushed the most work into the cascade costs the most to keep."""
        with self._lock:
            return {self.streams[i].stream_id: self.first_pass[i] for i in slots}

    def lineage_context(self) -> dict:
        """Stream-resolution context for the ``/lineage`` endpoint.

        Events carry each driver's own frame indices: global ones in the
        threaded runtime (offset 0), local ones for a tail trace the
        simulator attached mid-run — its ``offset`` lets the endpoint
        translate a global frame number.  The map covers every slot that
        ever carried a stream, so lineage stays queryable after a stream
        drains.
        """
        return {
            "terminal": self.graph.terminal.name,
            "streams": {
                info.stream_id: {"index": i, "offset": info.offset}
                for i, info in enumerate(self.streams)
                if info is not None
            },
            "qplan": self.planner.summary() if self.planner is not None else None,
        }
