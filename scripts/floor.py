"""The engine's CPU cost per frame against a single-thread floor.

For each engine workload of the benchmark (sizes imported from
``benchmarks/e2e/registry.py``), builds and trains its streams the way the
benchmark does, then measures two things on them:

* the floor: one thread making the same ``StageLogic.evaluate`` calls the
  engine makes, each stage at its engine batch cap (SDD 16, SNM
  ``batch_size``, T-YOLO ``num_t_yolo``, the reference 8), survivors of one
  stage batched into the next and every frame read once with
  ``stream.pixels(t)``, with OpenBLAS held at one thread;
* the engine: ``ThreadedPipeline.run`` on the same streams, offline or
  paced as the workload is.

It prints the CPU-ms per frame of both (process CPU, every thread) and
their ratio: what the engine's threads, queues and scheduling cost on top
of the work itself.  Each figure is the median of ``--repeats`` runs,
after one untimed pass that stores every clip.

    python scripts/floor.py                           # every engine workload
    python scripts/floor.py --workload offline-lowtor --repeats 5
    python scripts/floor.py --quick                   # tiny sizes (CI)
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.registry import WORKLOADS, quick  # noqa: E402
from repro.core import FFSVAConfig  # noqa: E402
from repro.core.pipeline import arbitration_batch  # noqa: E402
from repro.models import ModelZoo  # noqa: E402
from repro.runtime import ThreadedPipeline  # noqa: E402
from repro.runtime.blas import blas_thread_cap, usable_cpus  # noqa: E402
from repro.video import jackson, make_stream  # noqa: E402


def floor_pass(streams, zoo, cfg: FFSVAConfig, n_frames: int) -> None:
    """Every frame of every stream through the cascade on this thread."""
    graph = cfg.graph()
    for stream in streams:
        bundle = zoo[stream.stream_id]
        alive = [(t, None) for t in range(min(n_frames, len(stream)))]
        for spec in graph:
            cap, survivors = arbitration_batch(spec, cfg), []  # the engine's cap
            for i in range(0, len(alive), cap):
                chunk = alive[i : i + cap]
                if spec is graph.first:
                    chunk = [(t, stream.pixels(t)) for t, _ in chunk]
                pixels = np.stack([p for _, p in chunk])
                passes, _ = spec.logic.evaluate(pixels, [bundle] * len(chunk), zoo, cfg)
                survivors += [c for c, ok in zip(chunk, passes) if ok]
            alive = survivors


def engine_run(streams, zoo, cfg: FFSVAConfig, n_frames: int, paced_fps) -> None:
    pipe = ThreadedPipeline(streams, zoo, cfg)
    m = pipe.run(n_frames, online=paced_fps is not None, paced_fps=paced_fps)
    assert len(pipe.outcomes) == m.frames_offered


def timed(fn, *args) -> tuple[float, float]:
    """(CPU seconds of the whole process, wall seconds) of ``fn(*args)``."""
    w0, c0 = time.perf_counter(), time.process_time()
    fn(*args)
    return time.process_time() - c0, time.perf_counter() - w0


def measure(w, seed: int, repeats: int) -> dict:
    cfg = FFSVAConfig(**w.config)
    zoo = ModelZoo()
    streams = []
    for i in range(w.streams):
        stream = make_stream(
            jackson(), w.clip_frames, tor=w.tor, seed=seed + 1000 * i, stream_id=f"{w.name}-{i}"
        )
        zoo.train_for_stream(stream, **w.train)
        streams.append(stream)
    frames = sum(min(w.run_frames, len(s)) for s in streams)
    floor_pass(streams, zoo, cfg, w.run_frames)  # stores every clip
    floor, engine = [], []
    for _ in range(repeats):
        # One BLAS thread: blas_thread_cap(n) keeps usable_cpus // n.
        with blas_thread_cap(usable_cpus()):
            floor.append(timed(floor_pass, streams, zoo, cfg, w.run_frames))
        engine.append(timed(engine_run, streams, zoo, cfg, w.run_frames, w.paced_fps))

    def per_frame(runs) -> tuple[float, float]:
        cpu = statistics.median(c for c, _ in runs)
        wall = statistics.median(s for _, s in runs)
        return 1e3 * cpu / frames, frames / wall

    (floor_ms, floor_fps), (engine_ms, engine_fps) = per_frame(floor), per_frame(engine)
    return {
        "floor_cpu_ms": floor_ms,
        "engine_cpu_ms": engine_ms,
        "ratio": engine_ms / floor_ms,
        "floor_fps": floor_fps,
        "engine_fps": engine_fps,
    }


def main(argv=None) -> int:
    engine_workloads = [w for w in WORKLOADS if w.kind == "engine"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=[w.name for w in engine_workloads],
                    help="engine workload to measure (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, one repeat")
    args = ap.parse_args(argv)
    chosen = [w for w in engine_workloads if not args.workload or w.name in args.workload]
    if args.quick:
        chosen, args.repeats = [quick(w) for w in chosen[:1]], 1
    print(f"{usable_cpus()} usable CPUs, median of {args.repeats}")
    print(f"{'workload':<16} {'floor ms/f':>10} {'engine ms/f':>11} {'ratio':>6} "
          f"{'floor fps':>9} {'engine fps':>10}")
    for w in chosen:
        r = measure(w, args.seed, args.repeats)
        print(f"{w.name:<16} {r['floor_cpu_ms']:>10.3f} {r['engine_cpu_ms']:>11.3f} "
              f"{r['ratio']:>6.2f} {r['floor_fps']:>9.0f} {r['engine_fps']:>10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
