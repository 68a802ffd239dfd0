"""Single-thread baselines: each layer's public call on a fixed batch.

The traced run says what a layer costs inside the threaded engine; these
rows say what the same call costs alone in one thread, so the gap between
the two is the engine's (GIL hand-over, cache eviction), not the kernel's.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from repro import DetectionRecord, DetStore
from repro.core import FeedbackQueue
from repro.obs import EventBus

from .registry import LAYERS

__all__ = ["interleaved_median_ms", "calib_matmul_ms", "layer_rows", "plumbing_rows"]


def interleaved_median_ms(calls: dict, *, reps: int, warmup: int = 2) -> dict[str, float]:
    """Median wall ms of each callable, sampled round-robin.

    Taking one sample of every callable per round (instead of timing each
    in its own block) exposes all of them to the same background load, so
    their ratios survive drift over the measurement window.
    """
    for _ in range(warmup):
        for fn in calls.values():
            fn()
    samples: dict[str, list[float]] = {name: [] for name in calls}
    for _ in range(reps):
        for name, fn in calls.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append((time.perf_counter() - t0) * 1e3)
    return {name: statistics.median(vals) for name, vals in samples.items()}


def calib_matmul_ms() -> float:
    """A fixed float32 matmul loop; timings divided by it compare across hosts."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256), dtype=np.float32)
    b = rng.standard_normal((256, 256), dtype=np.float32)

    def loop():
        c = a
        for _ in range(10):
            c = c @ b
            c /= np.abs(c).max()
        return c

    return interleaved_median_ms({"matmul": loop}, reps=15)["matmul"]


def layer_rows(prep, reps: int = 15) -> dict[str, float]:
    """``<layer>.iso_ms_per_frame`` on stream 0, at each stage's own batch cap."""
    cfg, zoo, stream = prep.config, prep.zoo, prep.streams[0]
    bundle = zoo[stream.stream_id]
    graph = cfg.graph()
    n = prep.workload.run_frames
    batch_of = {"sdd": 16, "snm": cfg.batch_size, "tyolo": cfg.num_t_yolo, "ref": 1}
    # Evenly spaced frames, so busy and idle content are both in every batch.
    render_ts = [int(t) for t in np.linspace(0, n - 1, 16)]
    calls = {LAYERS["render"]: lambda: [stream.pixels(t) for t in render_ts]}
    frames = {LAYERS["render"]: len(render_ts)}
    for spec in graph:
        size = batch_of[spec.name]
        px = stream.pixel_batch(np.linspace(0, n - 1, size).astype(int))
        bundles = [bundle] * size
        calls[LAYERS[spec.name]] = (
            lambda ev=spec.logic.evaluate, px=px, bundles=bundles: ev(px, bundles, zoo, cfg)
        )
        frames[LAYERS[spec.name]] = size
    medians = interleaved_median_ms(calls, reps=reps)
    return {f"{layer}.iso_ms_per_frame": medians[layer] / frames[layer] for layer in medians}


def plumbing_rows(tmp: Path, n: int = 2000) -> dict[str, float]:
    """Isolated queue hand-off, event emission and store append."""
    batch = 10
    queue = FeedbackQueue(batch, "iso")
    bus = EventBus()
    shutil.rmtree(tmp, ignore_errors=True)
    store = DetStore(tmp)
    record = DetectionRecord("iso", 0, 0.0, "car", None, 1.0, "ref")

    def handoff():
        for _ in range(n // batch):
            for i in range(batch):
                queue.put(i)
            queue.pop_batch(batch)

    def emit():
        for i in range(n):
            bus.emit("frame_pass", 0.0, "sdd", stream=0, frame=i, t_start=0.0)

    def append():
        for _ in range(n):
            store.append(record)

    try:
        ms = interleaved_median_ms(
            {"handoff": handoff, "emit": emit, "append": append}, reps=5, warmup=1
        )
    finally:
        store.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "core.queues.handoff_us_per_frame": 1e3 * ms["handoff"] / n,
        "obs.bus.emit_us_per_event": 1e3 * ms["emit"] / n,
        "store.detstore.append_us_per_row": 1e3 * ms["append"] / n,
    }
