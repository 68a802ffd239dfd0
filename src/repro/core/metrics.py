"""Pipeline metrics: per-stage counters, throughput, and latency.

These are the quantities every figure in the evaluation reports:
throughput in FPS (Figures 3, 4, 7, 9, 10), per-frame latency (Figures 3,
4, 9, 10), the ratio of frames executed in each filter (Figure 5), and
output-frame counts (Figure 8).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .pipeline import STAGES

__all__ = [
    "StageCounters",
    "LatencyStats",
    "RunMetrics",
    "assert_stage_counts_equal",
]


@dataclass
class StageCounters:
    """Frames entering, passing, and filtered at one stage."""

    entered: int = 0
    passed: int = 0
    filtered: int = 0

    def record(self, n_in: int, n_passed: int) -> None:
        if n_passed > n_in:
            raise ValueError("cannot pass more frames than entered")
        self.entered += n_in
        self.passed += n_passed
        self.filtered += n_in - n_passed

    @property
    def pass_rate(self) -> float:
        return self.passed / self.entered if self.entered else 0.0


@dataclass
class LatencyStats:
    """Summary of per-frame latencies (seconds)."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    @classmethod
    def from_samples(cls, samples: np.ndarray | list) -> "LatencyStats":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            return cls()
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            max=float(arr.max()),
        )


@dataclass
class RunMetrics:
    """Everything measured in one pipeline run (real or simulated)."""

    n_streams: int = 0
    duration: float = 0.0  # makespan (virtual or wall seconds)
    frames_offered: int = 0  # frames the sources produced
    frames_ingested: int = 0  # frames that entered the pipeline (SDD)
    frames_to_ref: int = 0  # frames that reached the reference model
    stages: dict[str, StageCounters] = field(
        default_factory=lambda: {s: StageCounters() for s in STAGES}
    )
    #: End-to-end latency of frames that completed the reference stage.
    ref_latency: LatencyStats = field(default_factory=LatencyStats)
    #: Latency over all ingested frames (to wherever each frame's journey
    #: ended: the stage that filtered it, or the reference model).  The
    #: threaded runtime times it from capture when paced, from the first
    #: stage's pop offline.
    frame_latency: LatencyStats = field(default_factory=LatencyStats)
    device_utilization: dict[str, float] = field(default_factory=dict)
    queue_high_water: dict[str, int] = field(default_factory=dict)
    #: Extra run-specific data (per-stream rates, admission events, ...).
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def throughput_fps(self) -> float:
        """Aggregate processed frames per second over the run."""
        return self.frames_ingested / self.duration if self.duration > 0 else 0.0

    @property
    def per_stream_fps(self) -> float:
        """Average per-stream processing rate."""
        return self.throughput_fps / self.n_streams if self.n_streams else 0.0

    @property
    def ingest_ratio(self) -> float:
        """Fraction of offered frames the pipeline ingested (1.0 = kept up)."""
        if not self.frames_offered:
            return 1.0
        return self.frames_ingested / self.frames_offered

    def achieved_stream_fps(self, stream_fps: float = 30.0) -> float:
        """Offered rate scaled by the ingest ratio: the per-stream rate the
        sources actually sustained (robust to horizon slack in online runs)."""
        return stream_fps * self.ingest_ratio

    def stage_fraction(self, stage: str) -> float:
        """Fraction of ingested frames executed by ``stage`` (Figure 5)."""
        if not self.frames_ingested:
            return 0.0
        return self.stages[stage].entered / self.frames_ingested

    def realtime(self, stream_fps: float = 30.0, tolerance: float = 0.98) -> bool:
        """Did the run sustain real-time ingest for every stream?

        The paper's criterion: "As long as the foremost prefetching process
        can keep at least 30 FPS, the video stream is being analyzed in
        real-time."  We require the average ingest rate to stay within
        ``tolerance`` of the offered rate.
        """
        if self.frames_offered == 0:
            return True
        return self.frames_ingested >= tolerance * self.frames_offered

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-compatible view of the full metrics record.

        Stage order is preserved (both runtimes emit stages in graph
        order); numpy scalars and array-valued ``extra`` entries are
        converted to plain python so the result always serializes.
        """
        return {
            "n_streams": self.n_streams,
            "duration": self.duration,
            "frames_offered": self.frames_offered,
            "frames_ingested": self.frames_ingested,
            "frames_to_ref": self.frames_to_ref,
            "stages": {name: asdict(c) for name, c in self.stages.items()},
            "ref_latency": asdict(self.ref_latency),
            "frame_latency": asdict(self.frame_latency),
            "device_utilization": dict(self.device_utilization),
            "queue_high_water": dict(self.queue_high_water),
            "extra": _jsonable(self.extra),
        }

    def to_json(self, **dumps_kwargs) -> str:
        """Serialize with :func:`json.dumps` (round-trips via from_json)."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        return cls(
            n_streams=int(data.get("n_streams", 0)),
            duration=float(data.get("duration", 0.0)),
            frames_offered=int(data.get("frames_offered", 0)),
            frames_ingested=int(data.get("frames_ingested", 0)),
            frames_to_ref=int(data.get("frames_to_ref", 0)),
            stages={
                name: StageCounters(**c) for name, c in data.get("stages", {}).items()
            },
            ref_latency=LatencyStats(**data.get("ref_latency", {})),
            frame_latency=LatencyStats(**data.get("frame_latency", {})),
            device_utilization=dict(data.get("device_utilization", {})),
            queue_high_water=dict(data.get("queue_high_water", {})),
            extra=dict(data.get("extra", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunMetrics":
        return cls.from_dict(json.loads(text))

    def check_conservation(self) -> None:
        """Assert flow conservation through the cascade (testing hook).

        Every frame entering a stage is either filtered there or passed to
        the next stage; the next stage cannot see more frames than its
        predecessor passed (it may see fewer while frames are still in
        flight at run end).  Stage order is the insertion order of
        ``stages``, which both runtimes emit in graph order.
        """
        order = list(self.stages)
        for stage in order:
            c = self.stages[stage]
            if c.entered != c.passed + c.filtered:
                raise AssertionError(
                    f"{stage}: entered {c.entered} != passed {c.passed} + filtered {c.filtered}"
                )
        for up, down in zip(order, order[1:]):
            if self.stages[down].entered > self.stages[up].passed:
                raise AssertionError(
                    f"{down} entered {self.stages[down].entered} exceeds "
                    f"{up} passed {self.stages[up].passed}"
                )


def _jsonable(value):
    """Recursively convert numpy/tuple values so json.dumps always works."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def assert_stage_counts_equal(a: RunMetrics, b: RunMetrics) -> None:
    """Assert two runs saw identical per-stage frame flow.

    This is the runtime-vs-simulator cross-validation: the threaded runtime
    and the discrete-event simulator execute the same :class:`StageGraph`
    and emit the same structured counters, so a trace-faithful pair of runs
    must agree on (entered, passed, filtered) at every stage regardless of
    scheduling.
    """
    if set(a.stages) != set(b.stages):
        raise AssertionError(
            f"stage sets differ: {sorted(a.stages)} vs {sorted(b.stages)}"
        )
    for name in a.stages:
        ca, cb = a.stages[name], b.stages[name]
        if (ca.entered, ca.passed, ca.filtered) != (cb.entered, cb.passed, cb.filtered):
            raise AssertionError(
                f"stage {name!r} counters differ: "
                f"(entered={ca.entered}, passed={ca.passed}, filtered={ca.filtered}) vs "
                f"(entered={cb.entered}, passed={cb.passed}, filtered={cb.filtered})"
            )
