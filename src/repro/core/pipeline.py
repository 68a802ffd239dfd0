"""The stage-graph control plane shared by both runtimes.

DESIGN.md's key decision #1 is "one cascade kernel, two clocks".  This
module is the topology half of that shared control plane (the behaviour
half is :mod:`repro.core.kernel`): a :class:`StageGraph` is a
declarative description of a filter cascade — one :class:`StageSpec` per
stage carrying its name, default device, fan-in mode, batch-formation rule,
and a pure :class:`StageLogic` that produces pass/drop verdicts — and both
executors (:class:`~repro.runtime.engine.ThreadedPipeline` and
:class:`~repro.sim.simulator.PipelineSimulator`) construct their queues,
workers, and event tables from it.  The graph is the single source of truth
for stage names and topology; nothing outside this module hard-codes the
SDD → SNM → T-YOLO → ref chain.

A stage declares *what* it computes in two interchangeable forms:

* ``logic.evaluate(pixels, bundles, zoo, config)`` runs real inference on a
  batch of frames (threaded runtime);
* ``logic.trace_mask(trace, config)`` replays the same decision from a
  precomputed :class:`~repro.core.trace.FrameTrace` (simulator).

Keeping both on one object is what makes runtime-vs-simulator
cross-validation a single assertion (see
:func:`repro.core.metrics.assert_stage_counts_equal`).

Registering a custom stage::

    from repro.core.pipeline import (
        PER_STREAM, BatchRule, StageGraph, StageLogic, StageSpec,
        sdd_spec, tyolo_spec, ref_spec,
    )

    blur = StageSpec(
        name="blur",
        device="cpu0",
        fan_in=PER_STREAM,
        batch=BatchRule("fixed", 8),
        logic=StageLogic(
            evaluate=lambda pixels, bundles, zoo, cfg: (laplacian_ok(pixels), None),
            trace_mask=lambda trace, cfg: np.ones(len(trace), dtype=bool),
        ),
        queue_key="sdd",  # reuse an existing queue-depth threshold
        cost=(0.0, 1e-4),  # (per-batch overhead s, per-frame s) for the DES
    )
    graph = StageGraph([sdd_spec(), blur, tyolo_spec(), ref_spec()], name="blur-cascade")
    ThreadedPipeline(streams, zoo, config, graph=graph).run()

The calibrated :class:`~repro.devices.costs.CostModel` only knows the
paper's four stages, so a custom stage must carry its own ``cost`` pair to
run in the simulator; :func:`stage_service_time` dispatches between the
two.  The threaded runtime measures real compute and ignores ``cost``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from ..models.tyolo import count_filter_mask

__all__ = [
    "SDD",
    "SNM",
    "TYOLO",
    "REF",
    "STAGES",
    "ABORTED",
    "DROPPED",
    "PER_STREAM",
    "SHARED_RR",
    "MERGED",
    "FUSED",
    "EXECUTORS",
    "BatchRule",
    "StageLogic",
    "StageSpec",
    "StageGraph",
    "CASCADES",
    "cascade",
    "sdd_spec",
    "snm_spec",
    "tyolo_spec",
    "ref_spec",
    "ffs_va_graph",
    "scaled_graph",
    "effective_batch",
    "arbitration_batch",
    "stage_service_time",
    "stage_per_frame_time",
    "call_batch",
]

# ----------------------------------------------------------------------
# Canonical stage names.  This is the only module where they exist as
# string literals; everything else imports them (or reads them off a graph).
# ----------------------------------------------------------------------
SDD = "sdd"
SNM = "snm"
TYOLO = "tyolo"
REF = "ref"

#: The paper's stages in pipeline order (the default cascade).
STAGES = (SDD, SNM, TYOLO, REF)

#: Terminal disposition of a frame abandoned mid-flight when the pipeline
#: aborts (a worker failed); distinct from every stage name.
ABORTED = "aborted"

#: Terminal disposition of a frame given up at a full or closed inter-stage
#: queue (a ``put`` that exceeded ``FFSVAConfig.queue_put_timeout``, or a
#: downstream queue already closed); distinct from every stage name.
DROPPED = "dropped"

# Fan-in modes: how a stage's input queue(s) relate to the streams (a
# "worker" is one batch in flight at a time: the engine's worker keys).
PER_STREAM = "per_stream"  # one queue and one worker per stream
SHARED_RR = "shared_rr"  # one queue per stream, one worker round-robins
MERGED = "merged"  # a single queue merging all streams
FUSED = "fused"  # one queue per stream, one worker forming cross-stream mega-batches
_FAN_INS = (PER_STREAM, SHARED_RR, MERGED, FUSED)

#: How a stage's work is executed by the threaded runtime: in the worker
#: thread itself, or shipped to a pool of worker processes
#: (:mod:`repro.runtime.procpool`) as ``(stream, frame)`` indices.
EXECUTORS = ("thread", "process")

_BATCH_KINDS = ("fixed", "config", "rr_cap")


@dataclass(frozen=True)
class BatchRule:
    """How a stage forms batches from its input queue(s).

    * ``fixed`` — take up to ``size`` frames, never waiting for more (SDD
      event batching, the reference stage's backlog).
    * ``config`` — apply the configured static/feedback/dynamic policy via
      :func:`repro.core.batching.decide_batch` with ``config.batch_size``
      (the SNM batch mechanism of Section 4.3.2).
    * ``rr_cap`` — take up to ``config.num_t_yolo`` frames per stream per
      round-robin visit (the T-YOLO extraction cap of Section 3.2.3).
    """

    kind: str
    size: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _BATCH_KINDS:
            raise ValueError(f"batch rule kind must be one of {_BATCH_KINDS}")
        if self.size < 1:
            raise ValueError("batch rule size must be >= 1")


@dataclass(frozen=True)
class StageLogic:
    """The pure decision function of a stage, in both executable forms.

    ``evaluate(pixels, bundles, zoo, config)`` receives a stacked pixel
    batch plus the per-frame :class:`~repro.models.zoo.StreamModels`
    bundles (all from one stream except at ``merged`` stages) and returns
    ``(passes, info)``: a boolean pass mask and an optional per-frame info
    array (terminal stages report it as the frame's ``ref_count``).

    ``trace_mask(trace, config)`` returns the same verdict for every frame
    of a precomputed trace at once.

    ``build_fused(bundles, zoo, config)``, when present, supports the
    ``fused`` fan-in mode: called once per run with *all* streams' model
    bundles, it returns ``fused_evaluate(pixels, stream_idx) ->
    (passes, info)`` — an evaluator over cross-stream mega-batches whose
    per-frame stream membership is given by the ``stream_idx`` vector.
    Stages without one still work under ``fused`` fan-in: the runtime
    falls back to grouping the mega-batch by stream and calling
    ``evaluate`` per group.
    """

    evaluate: Callable
    trace_mask: Callable
    build_fused: Callable | None = None


@dataclass(frozen=True)
class StageSpec:
    """Declaration of one pipeline stage."""

    name: str
    device: str  # default device hint (placements may override)
    fan_in: str
    batch: BatchRule
    logic: StageLogic
    #: Queue-depth key into ``FFSVAConfig.queue_depths`` (defaults to name).
    queue_key: str | None = None
    #: Terminal stages consume every frame (no pass/drop routing).
    terminal: bool = False
    #: Optional ``(per_batch_overhead_s, per_frame_s)`` service-time pair
    #: for the simulator.  ``None`` means the stage is one of the paper's
    #: calibrated stages and the cost model resolves it by name.
    cost: tuple[float, float] | None = None
    #: ``"thread"`` runs the stage's logic inline in its worker thread;
    #: ``"process"`` ships batches to a :class:`repro.runtime.procpool.ProcPool`
    #: as frame indices, read back from the stored clip in the worker (CPU
    #: stages only — the flagship user is SDD, which the GIL otherwise
    #: serializes across streams).
    executor: str = "thread"
    #: Object-level consolidation: the stage packs active regions from its
    #: mega-batch onto composite canvases and runs the detector per canvas.
    #: The simulator then charges :meth:`CostModel.mosaic_service_time`
    #: (per-canvas, not per-frame) for this stage's batches.  Only
    #: meaningful with ``fused`` fan-in.
    mosaic: bool = False

    def __post_init__(self) -> None:
        if not self.name or self.name in (ABORTED, DROPPED):
            raise ValueError(f"invalid stage name {self.name!r}")
        if self.fan_in not in _FAN_INS:
            raise ValueError(f"fan_in must be one of {_FAN_INS}")
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}")
        if self.cost is not None and (len(self.cost) != 2 or min(self.cost) < 0):
            raise ValueError("cost must be a (overhead >= 0, per_frame >= 0) pair")
        if self.mosaic and self.fan_in != FUSED:
            raise ValueError("mosaic stages require fused fan-in")

    @property
    def depth_key(self) -> str:
        return self.queue_key or self.name


class StageGraph:
    """An ordered chain of stages — the pipeline definition.

    Both runtimes execute a graph front to back: frames enter the first
    stage, survivors of stage *i* flow to stage *i+1*, and the (single,
    last) terminal stage disposes of every frame that reaches it.
    """

    def __init__(self, specs: Sequence[StageSpec], name: str = "custom"):
        specs = tuple(specs)
        if not specs:
            raise ValueError("a stage graph needs at least one stage")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        for s in specs[:-1]:
            if s.terminal:
                raise ValueError(f"terminal stage {s.name!r} must come last")
        if not specs[-1].terminal:
            raise ValueError("the last stage must be terminal")
        self.specs = specs
        self.name = name
        self._index = {s.name: i for i, s in enumerate(specs)}

    # -- container protocol -------------------------------------------
    def __iter__(self) -> Iterator[StageSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key: str | int) -> StageSpec:
        if isinstance(key, int):
            return self.specs[key]
        return self.specs[self._index[key]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " -> ".join(s.name for s in self.specs)
        return f"StageGraph({self.name!r}: {chain})"

    # -- topology ------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @property
    def first(self) -> StageSpec:
        return self.specs[0]

    @property
    def terminal(self) -> StageSpec:
        return self.specs[-1]

    def next(self, name: str) -> StageSpec | None:
        """The stage downstream of ``name`` (None for the terminal)."""
        i = self._index[name]
        return self.specs[i + 1] if i + 1 < len(self.specs) else None

    def upstream(self, name: str) -> tuple[StageSpec, ...]:
        """All stages strictly before ``name``, in order."""
        return self.specs[: self._index[name]]

    def default_placement_map(self) -> dict[str, list[str]]:
        """Stage → device-name lists from each spec's device hint."""
        return {s.name: [s.device] for s in self.specs}

    # -- trace-side decisions ------------------------------------------
    def trace_masks(self, trace, config) -> dict[str, np.ndarray]:
        """Each stage's pass verdict over a full trace."""
        return {
            s.name: np.asarray(s.logic.trace_mask(trace, config), dtype=bool)
            for s in self.specs
        }

    def cascade_mask(self, trace, config) -> np.ndarray:
        """Frames surviving every stage of the graph."""
        alive = np.ones(len(trace), dtype=bool)
        for s in self.specs:
            alive &= np.asarray(s.logic.trace_mask(trace, config), dtype=bool)
        return alive

    def stage_fractions(self, trace, config) -> dict[str, float]:
        """Fraction of source frames that *reach* each stage (Figure 5)."""
        n = max(len(trace), 1)
        alive = np.ones(len(trace), dtype=bool)
        fractions: dict[str, float] = {}
        for s in self.specs:
            fractions[s.name] = float(alive.sum()) / n
            alive = alive & np.asarray(s.logic.trace_mask(trace, config), dtype=bool)
        return fractions


# ----------------------------------------------------------------------
# Batch-size helpers shared by the planner and the simulator.
# ----------------------------------------------------------------------
def effective_batch(spec: StageSpec, config) -> int:
    """Steady-state batch size the cost model should amortize over."""
    rule = spec.batch
    if rule.kind == "config":
        if config.batch_policy == "static":
            return config.batch_size
        return min(config.batch_size, config.queue_depth(spec.depth_key))
    if rule.kind == "rr_cap":
        return config.num_t_yolo
    return max(1, rule.size)


def arbitration_batch(spec: StageSpec, config) -> int:
    """The most frames one batch at ``spec`` takes by its rule: the threaded
    engine's cap, and the batch size at which both runtimes' device
    arbitration estimates a stage's pending work."""
    rule = spec.batch
    if rule.kind == "config":
        return max(config.batch_size, 1)
    if rule.kind == "rr_cap":
        return config.num_t_yolo
    return max(1, rule.size)


def stage_service_time(
    spec: StageSpec, costs, batch_size: int, parallelism: int = 1
) -> float:
    """Device busy time for one batch at ``spec``.

    The spec's own ``cost`` pair wins (custom stages); otherwise the
    calibrated cost model resolves the stage by name.  ``parallelism`` > 1
    models a process-pool executor (``spec.executor == "process"``): N
    worker processes drain the stage's batches concurrently, so the
    simulator's single service event shrinks by that factor — an idealized
    linear-scaling approximation of the pool (counters are unaffected).
    """
    if spec.cost is not None:
        overhead, per_frame = spec.cost
        dt = overhead + batch_size * per_frame
    else:
        dt = costs.service_time(spec.name, batch_size)
    return dt / max(1, parallelism)


def stage_per_frame_time(spec: StageSpec, costs, batch_size: int) -> float:
    """Amortized per-frame service time at the given batch size, as the
    cost model's calls carry it (:func:`call_batch`)."""
    batch_size = call_batch(spec, costs, batch_size)
    return stage_service_time(spec, costs, batch_size) / batch_size


def call_batch(spec: StageSpec, costs, batch_size: int) -> int:
    """``batch_size`` capped at the frames one call at ``spec`` carries
    under the cost model (one for the paper's reference model); a stage
    with its own ``cost`` pair has no cap."""
    cap = None if spec.cost is not None else costs.frames_per_call(spec.name)
    return batch_size if cap is None else min(batch_size, cap)


# ----------------------------------------------------------------------
# The paper's stage logic.
# ----------------------------------------------------------------------
def _sdd_evaluate(pixels, bundles, zoo, config):
    return bundles[0].sdd.passes(pixels), None


def _sdd_mask(trace, config):
    return trace.sdd_pass()


def _snm_evaluate(pixels, bundles, zoo, config):
    snm = bundles[0].snm
    probs = snm.predict_proba(pixels)
    return snm.passes(probs, config.filter_degree), None


def _snm_mask(trace, config):
    return trace.snm_pass(config.filter_degree)


def _snm_build_fused(bundles, zoo, config):
    """Cross-stream SNM evaluator: one weight-stacked forward per mega-batch.

    Built once per run from every stream's SNM (paper Section 3.1.2: the
    per-stream SNMs are all resident on GPU-0 and batched there).  The
    returned callable is bit-identical to running each stream's
    ``snm.predict_proba`` on its own frames of the batch — see
    :class:`repro.models.snm.FusedSNM`.
    """
    from ..models.snm import FusedSNM

    fused = FusedSNM([b.snm for b in bundles])
    base_degree = config.filter_degree

    def fused_evaluate(pixels, stream_idx, degrees=None):
        # ``degrees`` is the adaptive planner's per-stream FilterDegree
        # vector; None keeps the configured static degree for every stream.
        probs = fused.predict_proba(pixels, stream_idx)
        degree = base_degree if degrees is None else degrees
        return fused.passes(probs, stream_idx, degree), None

    return fused_evaluate


def _tyolo_evaluate(pixels, bundles, zoo, config):
    counts = zoo.tyolo.count_batch(pixels, bundles[0].background)
    return count_filter_mask(counts, config.number_of_objects, config.relax), counts


def _tyolo_build_fused(bundles, zoo, config):
    """Cross-stream mosaic T-YOLO evaluator (object-level consolidation).

    The returned callable packs the active regions of every frame in a
    mega-batch — proposed from the detector's own background-deviation
    response, with the whole-frame fallback of
    :func:`repro.models.mosaic.effective_regions` — onto composite
    canvases, runs blob detection once per canvas, and credits each
    detection back to its source frame.  Counts are exactly those of the
    per-frame path (see models/mosaic.py for why), so the filter verdicts
    are identical; only the detector-invocation count changes.

    The :class:`~repro.models.mosaic.MosaicStats` accumulated across every
    batch of the run ride on the closure as ``fused_evaluate.mosaic_stats``
    for the telemetry plane and the final RunMetrics.
    """
    from ..models.mosaic import (
        MosaicStats,
        Region,
        effective_regions,
        mosaic_counts,
        plan_mosaics,
    )

    det = zoo.tyolo.detector
    grid = det.grid
    stats = MosaicStats()

    def fused_evaluate(pixels, stream_idx, degrees=None):
        # ``degrees`` is accepted for call-site uniformity with the fused
        # SNM evaluator; the mosaic detector has no SNM threshold to vary.
        n = len(pixels)
        stream_idx = np.asarray(stream_idx)
        cells = np.empty((n, grid, grid), dtype=np.float32)
        for s in np.unique(stream_idx):
            mask = stream_idx == s
            cells[mask] = det.response_cells(pixels[mask], bundles[s].background)
        proposed = det.propose_regions(cells)
        regions = [
            Region(i, int(b[0]), int(b[1]), int(b[2]), int(b[3]))
            for i in range(n)
            for b in effective_regions(proposed[i], grid)
        ]
        plan = plan_mosaics(regions, config.mosaic_canvas, config.mosaic_gutter)
        counts = mosaic_counts(det, plan, cells, n)
        stats.observe(plan, n)
        return count_filter_mask(counts, config.number_of_objects, config.relax), counts

    fused_evaluate.mosaic_stats = stats
    return fused_evaluate


def _tyolo_mask(trace, config):
    return trace.tyolo_pass(config.number_of_objects, config.relax)


def _ref_evaluate(pixels, bundles, zoo, config):
    # A merged batch interleaves streams: one detector call per stream (its
    # frames share a bundle, and so a background).  A stream whose frames
    # are one run is served from a view of the batch; only scattered frames
    # are gathered (the threaded engine hands the stage stream-sorted runs).
    n = len(pixels)
    counts = np.empty(n, dtype=np.int64)
    rows: dict[int, list[int]] = {}
    for i, bundle in enumerate(bundles):
        rows.setdefault(id(bundle), []).append(i)
    for sel in rows.values():
        first, last = sel[0], sel[-1]
        if last - first + 1 == len(sel):
            sel = slice(first, last + 1)
        counts[sel] = zoo.reference.count_batch(pixels[sel], bundles[first].background)
    return np.ones(n, dtype=bool), counts


def _all_pass_mask(trace, config):
    return np.ones(len(trace), dtype=bool)


def sdd_spec() -> StageSpec:
    """Stream-specialized difference detector on the CPU (Section 3.2.1)."""
    return StageSpec(
        name=SDD,
        device="cpu0",
        fan_in=PER_STREAM,
        batch=BatchRule("fixed", 16),
        logic=StageLogic(_sdd_evaluate, _sdd_mask),
    )


def snm_spec() -> StageSpec:
    """Stream-specialized tiny CNN on the filter GPU (Section 3.2.2)."""
    return StageSpec(
        name=SNM,
        device="gpu0",
        fan_in=PER_STREAM,
        batch=BatchRule("config"),
        logic=StageLogic(_snm_evaluate, _snm_mask, build_fused=_snm_build_fused),
    )


def tyolo_spec() -> StageSpec:
    """Shared T-YOLO, round-robin over streams (Section 3.2.3)."""
    return StageSpec(
        name=TYOLO,
        device="gpu0",
        fan_in=SHARED_RR,
        batch=BatchRule("rr_cap"),
        logic=StageLogic(_tyolo_evaluate, _tyolo_mask, build_fused=_tyolo_build_fused),
    )


#: Most frames the reference stage takes from its queue at once; it never
#: waits for more.  The detector's cost per frame bottoms out at 4-8 frames
#: a call and climbs again past 16 (DESIGN.md section 23).
REF_BATCH = 8


def ref_spec() -> StageSpec:
    """The full-feature reference model, merged onto its own GPU."""
    return StageSpec(
        name=REF,
        device="gpu1",
        fan_in=MERGED,
        batch=BatchRule("fixed", REF_BATCH),
        logic=StageLogic(_ref_evaluate, _all_pass_mask),
        terminal=True,
    )


def ffs_va_graph() -> StageGraph:
    """The paper's full cascade: SDD → SNM → T-YOLO → reference."""
    return StageGraph([sdd_spec(), snm_spec(), tyolo_spec(), ref_spec()], name="ffs-va")


def scaled_graph(
    graph: StageGraph,
    *,
    executor: str = "thread",
    snm_fusion: bool = False,
    tyolo_mosaic: bool = False,
) -> StageGraph:
    """Apply the scale-out execution options of a config to a stage graph.

    * ``executor="process"`` marks every CPU-hosted stage to run its batches
      on a worker-process pool (the threaded runtime ignores the flag for
      GPU stages, whose device already runs one batch at a time);
    * ``snm_fusion=True`` switches the SNM stage's fan-in to ``fused``: one
      worker pops all streams' queues into cross-stream mega-batches;
    * ``tyolo_mosaic=True`` promotes T-YOLO to a fused mosaic stage: the
      round-robin extraction cap gives way to the shared
      :func:`repro.core.batching.decide_fused_batch` policy, and each
      mega-batch's active regions are consolidated onto composite canvases
      (one detector pass per canvas — see models/mosaic.py).

    Returns the graph unchanged (same object) when no option is active.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}")
    if executor == "thread" and not snm_fusion and not tyolo_mosaic:
        return graph
    specs = []
    changed = False
    for spec in graph:
        if executor == "process" and spec.device.startswith("cpu") and not spec.terminal:
            spec = replace(spec, executor="process")
            changed = True
        if snm_fusion and spec.name == SNM and spec.fan_in == PER_STREAM:
            spec = replace(spec, fan_in=FUSED)
            changed = True
        if tyolo_mosaic and spec.name == TYOLO and spec.fan_in == SHARED_RR:
            spec = replace(
                spec, fan_in=FUSED, batch=BatchRule("config"), mosaic=True
            )
            changed = True
        specs.append(spec)
    if not changed:
        return graph
    return StageGraph(specs, name=graph.name)


#: Named cascade compositions selectable via ``FFSVAConfig.cascade``.
#: The alternatives power the X2 composition ablation: each drops one or
#: more prepositive filters while keeping the same execution machinery.
CASCADES: dict[str, StageGraph] = {
    "ffs-va": ffs_va_graph(),
    "no-sdd": StageGraph([snm_spec(), tyolo_spec(), ref_spec()], name="no-sdd"),
    "no-snm": StageGraph([sdd_spec(), tyolo_spec(), ref_spec()], name="no-snm"),
    "snm-only": StageGraph([snm_spec(), ref_spec()], name="snm-only"),
    "tyolo-only": StageGraph([tyolo_spec(), ref_spec()], name="tyolo-only"),
    "ref-only": StageGraph([ref_spec()], name="ref-only"),
}


def cascade(which: str | StageGraph | None) -> StageGraph:
    """Resolve a cascade name (or pass a graph through; None → default)."""
    if which is None:
        return CASCADES["ffs-va"]
    if isinstance(which, StageGraph):
        return which
    try:
        return CASCADES[which]
    except KeyError:
        raise ValueError(
            f"unknown cascade {which!r}; known: {sorted(CASCADES)}"
        ) from None
