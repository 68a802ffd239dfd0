"""The engine's CPU cost per frame against a single-thread floor.

For each engine workload of the benchmark (sizes imported from
``benchmarks/e2e/registry.py``), builds and trains its streams the way the
benchmark does, then measures two things on them:

* the floor: one thread making the same ``StageLogic.evaluate`` calls the
  engine makes, each stage at its engine batch cap and fan-in — SDD (16)
  and SNM (``batch_size``) one stream a call, T-YOLO one round-robin cycle
  of ``num_t_yolo`` frames per stream a call, the reference ``REF_BATCH``
  frames of any streams a call — survivors of one stage batched into the
  next in the order it passed them and every frame read once with
  ``stream.pixels(t)``, with OpenBLAS held at one thread.  For a paced
  workload the floor serves each stream's ``paced_hold(fps, cap)``-frame
  first-stage batches through the whole cascade as they come due and
  sleeps on the due clock between them, so the cost of a call made after
  an idle gap counts in the floor too, not as engine overhead;
* the engine: ``ThreadedPipeline.run`` on the same streams, offline or
  paced as the workload is.

It prints the CPU-ms per frame of both (process CPU, every thread) and
their ratio: what the engine's threads, queues and scheduling cost on top
of the work itself.  Each figure is the median of ``--repeats`` runs,
after one untimed pass that stores every clip.

    python scripts/floor.py                           # every engine workload
    python scripts/floor.py --workload offline-lowtor --repeats 5
    python scripts/floor.py --quick                   # tiny sizes (CI, ~10 s)
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.registry import WORKLOADS, quick  # noqa: E402
from repro.core import FFSVAConfig  # noqa: E402
from repro.core.batching import paced_hold  # noqa: E402
from repro.core.pipeline import MERGED, SHARED_RR, arbitration_batch  # noqa: E402
from repro.models import ModelZoo  # noqa: E402
from repro.runtime import ThreadedPipeline  # noqa: E402
from repro.runtime.blas import blas_thread_cap, usable_cpus  # noqa: E402
from repro.video import jackson, make_stream  # noqa: E402


def floor_pass(streams, zoo, cfg: FFSVAConfig, n_frames: int) -> None:
    """Every frame of every stream through the cascade on this thread."""
    alive = [(i, t, None) for i, s in enumerate(streams) for t in range(min(n_frames, len(s)))]
    cascade_pass(streams, zoo, cfg, alive)


def paced_floor_pass(streams, zoo, cfg: FFSVAConfig, n_frames: int, fps: float) -> None:
    """Each stream's first-stage batches of ``paced_hold(fps, cap)`` frames
    through the whole cascade as they come due, sleeping on the due clock
    between them: frame ``t`` is due ``t / fps`` after the start, and a
    batch when its last frame is."""
    cap = arbitration_batch(cfg.graph().first, cfg)
    hold = paced_hold(fps, cap)
    due = sorted(
        ((min(t + hold, n) - 1) / fps, i, t, min(t + hold, n))
        for i, n in enumerate(min(n_frames, len(s)) for s in streams)
        for t in range(0, n, hold)
    )
    t0 = time.monotonic()
    for at, i, start, stop in due:
        time.sleep(max(0.0, t0 + at - time.monotonic()))
        cascade_pass(streams, zoo, cfg, [(i, t, None) for t in range(start, stop)])


def cascade_pass(streams, zoo, cfg: FFSVAConfig, alive: list) -> None:
    """``alive`` ``(stream, frame, None)`` triples through the cascade on
    this thread, each stage's survivors batched into the next in the order
    it passed them."""
    graph = cfg.graph()
    bundles = [zoo[s.stream_id] for s in streams]
    for spec in graph:
        survivors = []
        for batch in batches(spec, alive, arbitration_batch(spec, cfg), len(streams)):
            if spec is graph.first:
                batch = [(i, t, streams[i].pixels(t)) for i, t, _ in batch]
            pixels = np.stack([p for _, _, p in batch])
            passes, _ = spec.logic.evaluate(pixels, [bundles[i] for i, _, _ in batch], zoo, cfg)
            survivors += [w for w, ok in zip(batch, passes) if ok]
        alive = survivors


def batches(spec, alive: list, cap: int, n_streams: int):
    """``alive`` cut into the engine's batches at ``spec``: ``cap`` frames
    of one stream, a round-robin cycle of ``cap`` per stream (``shared_rr``),
    or ``cap`` frames in arrival order (``merged``)."""
    if spec.fan_in == MERGED:
        yield from (alive[i : i + cap] for i in range(0, len(alive), cap))
        return
    per_stream = [[w for w in alive if w[0] == i] for i in range(n_streams)]
    if spec.fan_in == SHARED_RR:
        for i in range(0, max(map(len, per_stream), default=0), cap):
            yield [w for frames in per_stream for w in frames[i : i + cap]]
        return
    for frames in per_stream:
        yield from (frames[i : i + cap] for i in range(0, len(frames), cap))


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
    floor_args = (floor_pass, streams, zoo, cfg, w.run_frames)
    if w.paced_fps is not None:
        floor_args = (paced_floor_pass, streams, zoo, cfg, w.run_frames, w.paced_fps)
    for _ in range(repeats):
        # One BLAS thread: blas_thread_cap(n) keeps usable_cpus // n.
        with blas_thread_cap(usable_cpus()):
            floor.append(timed(*floor_args))
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
        # The first workload, plus a paced one cut to 80 frames a stream
        # (a second at 80 fps), so that the paced floor runs too.
        paced = [replace(quick(w), run_frames=80) for w in chosen[1:] if w.paced_fps]
        chosen, args.repeats = [quick(w) for w in chosen[:1]] + paced[:1], 1
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
