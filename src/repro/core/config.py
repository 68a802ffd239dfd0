"""FFS-VA system configuration.

Collects every knob the paper exposes:

* **FilterDegree** (Section 4.2.1) — aggressiveness of the SNM filter,
  interpolating ``t_pre`` between ``c_low`` and ``c_high``.
* **NumberofObjects** (Section 4.2.2) — minimum target-object intensity a
  frame must show to survive T-YOLO, with the Section 5.3.3 ``relax``
  tolerance.
* **Batch mechanism** (Section 4.3.2) — ``static`` (fixed-size batches,
  unbounded queues), ``feedback`` (fixed-size batches over bounded feedback
  queues), or ``dynamic`` (bounded queues, take-what-is-there batches).
* **Queue depth thresholds** (Section 4.3.1) — "we initially and empirically
  determine 2, 10, and 2 as the queue depth thresholds of the SDD queues,
  SNM queues, and T-YOLO queues respectively."
* **num_t_yolo** — the cap on frames T-YOLO takes from one stream per
  round-robin cycle (inter-stream load balance, Section 3.2.3/4.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..models.tyolo import TYOLO_GRID
from .pipeline import CASCADES, EXECUTORS, STAGES, StageGraph, scaled_graph

__all__ = ["FFSVAConfig", "BatchPolicyName"]

BatchPolicyName = str  # "static" | "feedback" | "dynamic"

_POLICIES = ("static", "feedback", "dynamic")


@dataclass(frozen=True)
class FFSVAConfig:
    """All user-visible FFS-VA parameters with the paper's defaults."""

    # Filter knobs.
    filter_degree: float = 0.5
    number_of_objects: int = 1
    relax: int = 0

    # Batching.
    batch_policy: BatchPolicyName = "dynamic"
    batch_size: int = 10

    # Queue depth thresholds, in frames, keyed by the queue's consumer stage.
    # The paper gives no "ref" bound; this one applies only with
    # ref_overflow_to_storage off, where it also caps the reference batch.
    queue_depths: dict = field(
        default_factory=lambda: {s: d for s, d in zip(STAGES, (2, 10, 2, 4))}
    )

    # Which registered cascade composition to execute (see
    # repro.core.pipeline.CASCADES).  The default is the paper's full
    # SDD -> SNM -> T-YOLO -> reference chain.
    cascade: str = "ffs-va"

    # T-YOLO round-robin extraction cap per stream per cycle.
    num_t_yolo: int = 2

    # --- scale-out execution plane (repro.runtime.procpool) --------------
    # "process" runs CPU-hosted stages (SDD) on a pool of worker processes,
    # sidestepping the GIL: a batch is sent as (stream, frame) indices and
    # each worker reads the stored clips it inherited at fork; "thread" (the
    # default) keeps every stage in its worker thread.
    executor: str = "thread"
    # Worker processes in the SDD pool when executor="process".
    num_sdd_procs: int = 2
    # Fuse the per-stream SNM stages into one worker that pops all streams'
    # queues into cross-stream mega-batches executed as a single
    # weight-stacked forward pass (the paper's GPU-0 batching of SNMs).
    snm_fusion: bool = False
    # Object-level T-YOLO consolidation: promote the T-YOLO stage to fused
    # fan-in and pack each mega-batch's active regions (proposed from the
    # background-deviation response) onto composite canvases, running the
    # detector once per canvas instead of once per frame.  Counts and
    # verdicts are identical to the per-frame path (see models/mosaic.py);
    # incompatible with cluster reserve slots, like every fused stage.
    tyolo_mosaic: bool = False
    # Mosaic canvas side, in detector grid cells.  The default 52 cells is
    # exactly one native 416x416 T-YOLO input (4x4 whole frames, or dozens
    # of sparse regions, per detector pass).
    mosaic_canvas: int = 52
    # Empty-cell gap between mosaic placements, in cells; >= 1 keeps blobs
    # from ever merging across placements under 4-connectivity.
    mosaic_gutter: int = 1

    # Online admission (Section 4.3.1): an instance can accept another stream
    # when T-YOLO's observed rate stays below this for `admission_window`
    # seconds; a stream is re-forwarded away when queues overflow.
    admission_tyolo_fps: float = 140.0
    admission_window: float = 5.0
    # Consecutive overloaded sweeps required before the shed signal trips
    # (and a single calm sweep clears it).  >= 2 means one noisy queue-depth
    # sample can never flap a shed decision.
    admission_hysteresis: int = 2
    # Fraction of a queue's depth threshold at which the overload signal
    # arms.  At the default 1.0 a queue must exceed its full threshold —
    # which a *bounded* queue (capacity == threshold) can never do, so the
    # paper's re-forwarding rule only fires under static (unbounded)
    # batching.  Cluster configs lower this so a bounded queue sitting near
    # capacity counts as overload and a live shed can actually trip.
    admission_depth_fraction: float = 1.0

    # --- cluster serving plane (repro.runtime.cluster) -------------------
    # Pipeline instances the ClusterSupervisor forks; each runs the full
    # threaded engine on its assigned streams.
    cluster_instances: int = 2
    # Seconds between router control epochs (wall seconds for the threaded
    # cluster, virtual seconds for the simulated one).  Each epoch polls
    # every instance and applies at most one shed/re-forward move.
    router_epoch: float = 1.0
    # TCP port for the supervisor's instance control channel; None or 0
    # binds an ephemeral local port.
    router_port: int | None = None
    # Extra single-use stream slots each instance pre-builds so a stream
    # can be re-forwarded *to* it mid-run (queues and workers must exist
    # before the run starts; a used slot is not recycled).
    cluster_reserve_slots: int = 2

    # Frames per second each live stream delivers.
    stream_fps: float = 30.0

    # --- query planner (repro.core.qplan) --------------------------------
    # "adaptive" attaches the content-adaptive QueryPlanner: per-stream
    # plans (cascade exit depth, FilterDegree, batch target) re-decided at
    # every plan_epoch-frame chunk boundary from the first filter stage's
    # observed pass fraction.  "static" (default) keeps the classic single
    # plan for the whole run.
    plan: str = "static"
    # Frames per planning chunk; plan switches take effect exactly at chunk
    # boundaries (about two stream-seconds at the default 30 FPS).
    plan_epoch: int = 64
    # Activity (first-stage pass fraction EWMA) thresholds separating the
    # quiet / mid / busy content bands.
    plan_quiet: float = 0.12
    plan_busy: float = 0.35
    # Schmitt deadband around each band threshold: a band only changes when
    # the signal clears threshold +/- deadband in the new direction.
    plan_deadband: float = 0.03
    # Consecutive chunks beyond the deadband required before a band flips
    # (the Hysteresis streak); >= 2 means one noisy chunk can never flap.
    plan_hysteresis: int = 2
    # EWMA time constant for the activity signal, in *stream* seconds.
    plan_tau: float = 8.0
    # Minimum calibrated scene recall a candidate FilterDegree must keep at
    # the band's exit depth to be eligible.
    plan_min_accuracy: float = 0.95
    # Candidate FilterDegree grid the planner prices per band.
    plan_degrees: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    # Replace the static feedback-queue batch size with an EWMA-smoothed
    # queue-depth follower (only meaningful with plan="adaptive").
    adaptive_batching: bool = False
    # EWMA time constant for the batch-target follower, in clock seconds
    # (wall seconds threaded, virtual seconds simulated).
    plan_batch_tau: float = 2.0

    # --- telemetry (repro.obs) ------------------------------------------
    # Attach the telemetry subsystem: structured pipeline events, per-frame
    # trace spans, and time-series sampling.  Off by default: the hot path
    # then pays a single branch per emission site.
    telemetry: bool = False
    # Serve /metrics (Prometheus text) and /snapshot (JSON) on this local
    # port while telemetry is attached; 0 binds an ephemeral port, None
    # disables the HTTP endpoint.
    telemetry_port: int | None = None
    # Base sampling interval for queue-depth/utilization/throughput series
    # (wall seconds in the threaded runtime, virtual seconds in the DES).
    telemetry_sample_interval: float = 0.05

    # --- detection store (repro.store) ----------------------------------
    # Directory for the persistent detection store.  None (default)
    # disables persistence; a path makes both runtimes append one
    # DetectionRecord per frame outcome into rotated segments there.  A
    # cluster run treats this as the parent: each instance writes its own
    # `instance-N/` store underneath, merged transparently at query time.
    result_store_dir: str | None = None
    # Size at which the live store segment rotates (kilobytes).
    store_segment_kb: int = 256
    # Retention bound: keep at most this many sealed segments (oldest are
    # deleted, with dropped counts in the manifest).  None keeps all.
    store_segments: int | None = None

    # How long a threaded-runtime producer may block pushing one frame into
    # a full downstream queue before giving the frame a terminal "dropped"
    # disposition.  None (the default, and the paper's behaviour) blocks
    # indefinitely — back-pressure propagates to the source.
    queue_put_timeout: float | None = None

    # Section 5.5 remedy, applied by default: frames that survive every
    # filter but find the reference model saturated are "temporarily stored
    # in the storage system, to be processed later" instead of
    # back-pressuring T-YOLO.  The real-time criterion (prefetch >= 30 FPS)
    # then binds on the *filters*, which is the only reading under which the
    # paper's TOR=1.000 experiment can support 5-6 streams on one reference
    # GPU.  Disable to make the reference queue a bounded feedback queue too.
    ref_overflow_to_storage: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.filter_degree <= 1.0:
            raise ValueError("filter_degree must be in [0, 1]")
        if self.number_of_objects < 1:
            raise ValueError("number_of_objects must be >= 1")
        if self.relax < 0:
            raise ValueError("relax must be >= 0")
        if self.batch_policy not in _POLICIES:
            raise ValueError(f"batch_policy must be one of {_POLICIES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_t_yolo < 1:
            raise ValueError("num_t_yolo must be >= 1")
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}")
        if self.num_sdd_procs < 1:
            raise ValueError("num_sdd_procs must be >= 1")
        if self.mosaic_canvas < TYOLO_GRID:
            raise ValueError(
                f"mosaic_canvas must be >= the {TYOLO_GRID}-cell detector grid"
                " (a whole-frame fallback region must fit one canvas)"
            )
        if self.mosaic_gutter < 1:
            raise ValueError("mosaic_gutter must be >= 1 (isolates placements)")
        if self.cascade not in CASCADES:
            raise ValueError(
                f"cascade must be one of {sorted(CASCADES)}, got {self.cascade!r}"
            )
        for key in STAGES:
            if key not in self.queue_depths:
                raise ValueError(f"queue_depths missing stage {key!r}")
        for spec in CASCADES[self.cascade]:
            if spec.depth_key not in self.queue_depths:
                raise ValueError(f"queue_depths missing stage {spec.depth_key!r}")
        for key, depth in self.queue_depths.items():
            if depth < 1:
                raise ValueError(f"queue depth for {key!r} must be >= 1")
        if self.admission_hysteresis < 1:
            raise ValueError("admission_hysteresis must be >= 1")
        if not 0.0 < self.admission_depth_fraction <= 1.0:
            raise ValueError("admission_depth_fraction must be in (0, 1]")
        if self.cluster_instances < 1:
            raise ValueError("cluster_instances must be >= 1")
        if self.router_epoch <= 0:
            raise ValueError("router_epoch must be positive")
        if self.router_port is not None and not 0 <= self.router_port <= 65535:
            raise ValueError("router_port must be in [0, 65535] or None")
        if self.cluster_reserve_slots < 0:
            raise ValueError("cluster_reserve_slots must be >= 0")
        if self.stream_fps <= 0:
            raise ValueError("stream_fps must be positive")
        if self.plan not in ("static", "adaptive"):
            raise ValueError("plan must be 'static' or 'adaptive'")
        if self.plan_epoch < 2:
            raise ValueError("plan_epoch must be >= 2")
        if not 0.0 <= self.plan_quiet < self.plan_busy <= 1.0:
            raise ValueError("need 0 <= plan_quiet < plan_busy <= 1")
        if self.plan_deadband < 0:
            raise ValueError("plan_deadband must be >= 0")
        if self.plan_quiet + self.plan_deadband >= self.plan_busy - self.plan_deadband:
            raise ValueError("plan deadbands around quiet and busy overlap")
        if self.plan_hysteresis < 1:
            raise ValueError("plan_hysteresis must be >= 1")
        if self.plan_tau <= 0:
            raise ValueError("plan_tau must be positive")
        if not 0.0 < self.plan_min_accuracy <= 1.0:
            raise ValueError("plan_min_accuracy must be in (0, 1]")
        if not self.plan_degrees or any(
            not 0.0 <= float(d) <= 1.0 for d in self.plan_degrees
        ):
            raise ValueError("plan_degrees must be a non-empty tuple in [0, 1]")
        if self.plan_batch_tau <= 0:
            raise ValueError("plan_batch_tau must be positive")
        if self.telemetry_port is not None and not 0 <= self.telemetry_port <= 65535:
            raise ValueError("telemetry_port must be in [0, 65535] or None")
        if self.telemetry_sample_interval <= 0:
            raise ValueError("telemetry_sample_interval must be positive")
        if self.store_segment_kb < 1:
            raise ValueError("store_segment_kb must be >= 1")
        if self.store_segments is not None and self.store_segments < 1:
            raise ValueError("store_segments must be >= 1 or None")
        if self.queue_put_timeout is not None and self.queue_put_timeout <= 0:
            raise ValueError("queue_put_timeout must be positive or None")

    def with_(self, **kwargs) -> "FFSVAConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **kwargs)

    def queue_depth(self, stage: str) -> int:
        """Depth threshold of the queue feeding ``stage``."""
        return int(self.queue_depths[stage])

    def graph(self) -> StageGraph:
        """The stage graph this configuration selects, with the scale-out
        execution options (``executor``, ``snm_fusion``, ``tyolo_mosaic``)
        applied."""
        return scaled_graph(
            CASCADES[self.cascade],
            executor=self.executor,
            snm_fusion=self.snm_fusion,
            tyolo_mosaic=self.tyolo_mosaic,
        )

    @property
    def bounded_queues(self) -> bool:
        """Static batching runs without the feedback-queue mechanism."""
        return self.batch_policy != "static"
