"""The benchmark's fixed vocabulary: workloads, metrics, bounds.

Everything a later PR cites by name lives here and nowhere else;
``BENCHMARK.json`` at the repo root is :func:`manifest` written to disk
(``run.py --write-manifest``) and ``test_harness.py`` holds the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "Workload",
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "LAYERS",
    "STAGES",
    "RUN_SECONDS",
    "SLO_SECONDS",
    "manifest",
    "quick",
]

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 12

#: Latency objective of the open-loop workload.
SLO_SECONDS = 0.100

#: Cascade stage -> layer (module) name of the per-layer table.
LAYERS = {
    "render": "video.render",
    "sdd": "models.sdd",
    "snm": "models.snm",
    "tyolo": "models.tyolo",
    "ref": "models.reference",
}
STAGES = tuple(stage for stage in LAYERS if stage != "render")


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``kind`` is ``"engine"`` (ThreadedPipeline on
    real frames) or ``"sim"`` (the discrete-event simulator on traces)."""

    name: str
    why: str
    kind: str
    tor: float
    #: Distinct clips materialised and trained (stream *i* uses
    #: ``seed + 1000 * i``, as ``repro.make_streams`` does).
    streams: int = 2
    #: Length of each clip.  The default training recipe labels every other
    #: frame of the first 1200, fewer on a shorter clip.
    clip_frames: int = 1200
    #: Frames each stream offers in one measured unit (``sim``: per fleet member).
    run_frames: int = 1200
    #: ``FFSVAConfig`` overrides of the measured run.
    config: dict = field(default_factory=dict)
    #: Open loop: each prefetcher offers frames on this schedule.  None =
    #: closed loop (each prefetcher renders the next frame when the bounded
    #: first queue accepts the previous one).
    paced_fps: float | None = None
    #: ``sim`` only: fleet size and the online phase's config overrides.
    fleet: int = 0
    online_config: dict = field(default_factory=dict)
    #: ``ModelZoo.train_for_stream`` keyword overrides (``--quick`` only).
    train: dict = field(default_factory=dict)


WORKLOADS = (
    Workload(
        name="offline-lowtor",
        why="paper's operating point, closed loop, TOR 0.1: render, SDD, SNM and queue hand-off do most "
        "of the work, so filter-path and engine-overhead changes show and detector changes barely do",
        kind="engine",
        tor=0.1,
        # Four clips: at TOR 0.1 per-stream calibration decides how deep
        # frames go, and with two clips throughput differed 19% between seeds.
        streams=4,
        clip_frames=1000,
        run_frames=1000,
    ),
    Workload(
        name="offline-hightor",
        why="closed loop, TOR 0.9: ~90% of frames reach T-YOLO and the reference model, so the filters "
        "are pure overhead; detector-side changes show here, filter-side changes must not",
        kind="engine",
        tor=0.9,
        run_frames=640,
    ),
    Workload(
        name="online-paced",
        why="open loop, 80 fps per stream (half of capacity), TOR 0.9: singleton batches, near-empty queues; "
        "throughput bought with bigger batches or deeper buffers shows as a missed latency objective",
        kind="engine",
        # TOR 0.9, and the whole (short) clip offered: at TOR 0.3 per-stream
        # calibration moved CPU per frame 2.3-3.1 ms and the objective
        # 0.54-0.92 between seeds, and a prefix of a longer clip misses its TOR.
        tor=0.9,
        clip_frames=320,
        run_frames=320,
        paced_fps=80.0,
    ),
    Workload(
        name="sim-fleet",
        why="30-stream fleet on the simulator, online feedback batching then offline dynamic: simulator "
        "and shared core/ control plane do all the work, models and engine none; virtual results are exact",
        kind="sim",
        tor=0.1,
        streams=3,
        clip_frames=1500,
        run_frames=600,
        fleet=30,
        config={"filter_degree": 1.0, "batch_policy": "dynamic", "batch_size": 10},
        online_config={"batch_policy": "feedback"},
    ),
)


def quick(w: Workload) -> Workload:
    """Tiny sizes for ``--quick``: exercises every code path, measures nothing."""
    return replace(
        w,
        clip_frames=min(w.clip_frames, 360),
        run_frames=120 if w.kind == "sim" else 240,
        fleet=min(w.fleet, 6),
        train={"n_train_frames": 180},
    )


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the parent's median by which the metric may worsen before it
    #: counts as a regression (None: per-layer metric, not gated).
    bound: float | None
    why: str


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "median seconds to onboard one stream: materialise the clip, train SDD+SNM with the "
           "default recipe, and (sim-fleet) build its trace; work moved out of the run shows here"),
    Metric("throughput_fps", "1/s", "higher", 0.25,
           "frames given a disposition per wall second of one unit, pipeline construction included "
           "(online-paced: offered rate x how late the source ran; sim-fleet: simulated frames per host second)"),
    Metric("cpu_ms_per_frame", "ms", "lower", 0.25,
           "process CPU (all threads) per frame of one unit; on a 2-core host throughput can hide "
           "work that CPU cost does not"),
    Metric("slo_met_frac", "frac", "higher", 0.10,
           "share of offered frames that met the workload's service objective: offline-* a "
           "non-failed disposition; online-paced a disposition within 100 ms of prefetch (failed "
           "frames miss); sim-fleet ingested inside the online horizon at 30 streams"),
    Metric("frame_accuracy", "frac", "higher", 0.15,
           "1 - ground-truth-positive frames filtered / all frames (paper's frame error rate)"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           "process peak resident set up to the end of the measured units (set-up included)"),
)


def _layer_rows() -> list[Metric]:
    rows = []
    for layer in LAYERS.values():
        rows += [
            Metric(f"{layer}.calls", "count", "lower", None, "calls into the layer (traced run)"),
            Metric(f"{layer}.frames_in", "count", "lower", None, "frames handed to the layer"),
            Metric(f"{layer}.frames_out", "count", "higher", None, "frames the layer passed on"),
            Metric(f"{layer}.busy_cpu_s", "s", "lower", None, "thread CPU inside the layer"),
            Metric(f"{layer}.busy_wall_s", "s", "lower", None, "wall time inside the layer"),
            Metric(f"{layer}.cpu_ms_per_frame", "ms", "lower", None, "busy_cpu_s per frame in"),
            Metric(f"{layer}.mean_batch", "count", "higher", None, "frames per call"),
            Metric(f"{layer}.iso_ms_per_frame", "ms", "lower", None,
                   "same public call on a fixed batch, one thread (single-threaded baseline)"),
        ]
    return rows


PER_LAYER = (
    *_layer_rows(),
    *(Metric(f"core.queues.{s}.wait_s", "s", "lower", None,
             "queue + batch wait of frames entering the stage (lineage)") for s in STAGES),
    *(Metric(f"core.queues.{s}.high_water", "count", "lower", None,
             "deepest the stage's input queue got") for s in STAGES),
    Metric("core.queues.handoff_us_per_frame", "us", "lower", None,
           "isolated FeedbackQueue put + pop_batch per frame"),
    Metric("runtime.engine.process_cpu_ms_per_frame", "ms", "lower", None,
           "traced unit's process CPU per frame: layer rows + overhead sum to this"),
    Metric("runtime.engine.overhead_cpu_ms_per_frame", "ms", "lower", None,
           "process CPU outside every layer span (engine, queues, GIL hand-over, BLAS helper threads)"),
    Metric("runtime.engine.gil_stall_s", "s", "lower", None,
           "sum of layer wall - CPU: time layers held a span open without running"),
    Metric("runtime.engine.threads", "count", "lower", None, "threads that executed a layer call"),
    Metric("runtime.engine.frame_latency_p50_ms", "ms", "lower", None, "all dispositions, untraced units"),
    Metric("runtime.engine.frame_latency_mean_ms", "ms", "lower", None, "all dispositions"),
    Metric("runtime.engine.frame_latency_p99_ms", "ms", "lower", None, "all dispositions"),
    Metric("runtime.engine.result_latency_p50_ms", "ms", "lower", None, "frames reaching the terminal stage"),
    Metric("runtime.engine.result_latency_p95_ms", "ms", "lower", None, "frames reaching the terminal stage"),
    Metric("runtime.engine.latency_samples", "count", "higher", None, "frames behind the frame_latency figures"),
    Metric("runtime.engine.result_samples", "count", "higher", None, "frames behind the result_latency figures"),
    Metric("runtime.engine.realtime_ratio", "frac", "higher", None,
           "ideal / actual duration of the paced source (online only)"),
    Metric("runtime.engine.source_late_ms_p99", "ms", "lower", None,
           "pixels() call time - due time of the paced source (online only)"),
    Metric("runtime.engine.tracing_overhead_frac", "frac", "lower", None,
           "1 - traced / untraced throughput"),
    Metric("runtime.engine.run_rss_mb", "MB", "lower", None, "resident set at the end of a unit"),
    Metric("devices.cpu0_util", "frac", "higher", None, "engine's own busy accounting"),
    Metric("devices.gpu0_util", "frac", "higher", None, "engine's own busy accounting"),
    Metric("devices.gpu1_util", "frac", "higher", None, "engine's own busy accounting"),
    Metric("obs.bus.events_published", "count", "lower", None, "traced unit"),
    Metric("obs.bus.ring_drops", "count", "lower", None, "events evicted from the ring"),
    Metric("obs.bus.emit_us_per_event", "us", "lower", None, "isolated EventBus.emit"),
    Metric("store.detstore.rows", "count", "higher", None, "rows the traced unit's sink wrote"),
    Metric("store.detstore.append_us_per_row", "us", "lower", None, "isolated DetStore.append"),
    Metric("store.detstore.bytes_per_row", "B", "lower", None, "sealed segment bytes / rows"),
    Metric("store.query.count_ms", "ms", "lower", None, "count_detections over the traced unit's store"),
    Metric("store.query.window_ms", "ms", "lower", None, "window_aggregate(1 s) over the same store"),
    Metric("analytics.scenes", "count", "higher", None, "ground-truth scenes in the offered frames"),
    Metric("analytics.scene_recall", "frac", "higher", None,
           "scenes with a frame reaching the terminal stage with ref_count >= NumberofObjects / scenes"),
    Metric("analytics.scene_kept_frac", "frac", "higher", None,
           "1 - share of offered frames in scenes that lost every frame (paper's <2% scene-loss figure)"),
    Metric("analytics.frame_error_rate", "frac", "lower", None, "ground-truth-positive frames filtered / all"),
    Metric("sim.simulator.host_s_online", "s", "lower", None, "host seconds of simulate_online (sim-fleet)"),
    Metric("sim.simulator.host_s_offline", "s", "lower", None, "host seconds of simulate_offline"),
    Metric("sim.simulator.host_us_per_frame", "us", "lower", None, "host time per simulated frame"),
    *(Metric(f"sim.simulator.virtual_{s}_entered", "count", "lower", None,
             "frames entering the stage in simulate_offline (exact)") for s in STAGES),
    Metric("sim.simulator.virtual_cpu0_util", "frac", "higher", None, "simulate_offline (exact)"),
    Metric("sim.simulator.virtual_gpu0_util", "frac", "higher", None, "simulate_offline (exact)"),
    Metric("sim.simulator.virtual_gpu1_util", "frac", "higher", None, "simulate_offline (exact)"),
    Metric("sim.simulator.bottleneck_util", "frac", "higher", None,
           "busiest device's utilisation in simulate_offline: virtual FPS over its content-dependent bound (exact)"),
    Metric("sim.simulator.offline_virtual_fps", "1/s", "higher", None,
           "simulate_offline virtual FPS (exact per seed; varies ~2x across seeds)"),
    Metric("sim.simulator.online_ingest_ratio", "frac", "higher", None, "sim-fleet online phase (exact)"),
    Metric("sim.simulator.online_latency_p50_ms", "ms", "lower", None, "sim-fleet online phase, virtual (exact)"),
    Metric("core.trace.build_s_per_kframe", "s", "lower", None, "build_trace per 1000 frames"),
    Metric("models.zoo.train_s_per_stream", "s", "lower", None, "median train_for_stream"),
    Metric("host.calib_matmul_ms", "ms", "lower", None,
           "fixed float32 matmul loop: divide timings by it to compare hosts"),
    Metric("host.nproc", "count", "higher", None, "CPUs this process may run on"),
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
