"""Scale-out benchmarks: process-pool SDD and cross-stream SNM fusion.

The scale-out machinery changes *where* stage work executes, not *what*
it computes, so this suite gates on bit-identity and records throughput:

* **SDD pool sweep** — the flagship process-pool stage at 8 streams, for
  worker counts {1, 2, 4}: inline threaded evaluation (GIL-bound) vs
  :class:`~repro.runtime.procpool.ProcPool` dispatch, at equal dispatcher
  concurrency.  A batch is ``(stream, frame indices)``: the inline path
  reads it from the stored clip in the dispatching thread, a pool worker
  in its own process.  The pool's pass masks must equal the inline masks
  exactly.
* **SNM fusion** — a mixed 8-stream mega-batch through
  :class:`~repro.models.snm.FusedSNM`'s weight-stacked forward vs the same
  frames through each stream's own ``predict_proba`` sequentially.  Probs
  and pass masks must be bit-identical (that is the fusion contract).
* **End-to-end** — the full threaded pipeline with
  ``executor="process", snm_fusion=True`` cross-checked against the
  simulator (``assert_stage_counts_equal``) and against a plain threaded
  run (identical per-frame outcomes).

Timings land in ``BENCH_scaleout.json`` at the repo root.  They are data,
not gates: on a single-CPU container the pool *cannot* beat the GIL (there
is no second core to scale onto, and IPC adds overhead), so the recorded
curve is honest about the host — ``meta.cpus`` says what the numbers mean.
Correctness is the only thing that can fail the run.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_scaleout            # full run
    PYTHONPATH=src python -m benchmarks.bench_scaleout --quick    # CI smoke
    PYTHONPATH=src python -m benchmarks.bench_scaleout --check    # correctness only
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core import FFSVAConfig, assert_stage_counts_equal, build_trace
from repro.core.pipeline import _sdd_evaluate
from repro.models import ModelZoo
from repro.models.snm import FusedSNM
from repro.nn import TrainConfig
from repro.runtime import ProcPool, ThreadedPipeline
from repro.sim import PipelineSimulator
from repro.video import jackson, make_stream

from .bench_hotpath import median_pair_ms
from .common import print_table, record_bench

#: Stream fan-out for the pool sweep (the acceptance scenario: 8 streams'
#: SDD work, drained by 1, 2, then 4 workers).
N_STREAMS = 8

#: SDD's fixed batch rule size (``sdd_spec().batch.size``).
SDD_BATCH = 16

#: Worker counts swept by the SDD throughput measurement.
WORKER_COUNTS = (1, 2, 4)


def _trained_fleet(quick: bool):
    """Two trained jackson streams plus their traces (one model zoo)."""
    n_frames = 120 if quick else 240
    zoo = ModelZoo()
    streams, traces = [], []
    for i, tor in enumerate((0.25, 0.45)):
        stream = make_stream(jackson(), n_frames, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=100,
            stride=2,
            train_config=TrainConfig(epochs=4, batch_size=32, seed=7),
        )
        streams.append(stream)
        traces.append(build_trace(stream, zoo))
    return streams, traces, zoo


def _replicated(streams, zoo, n: int):
    """``n`` stream contexts cycling over the trained streams' bundles."""
    reps = [streams[i % len(streams)] for i in range(n)]
    bundles = [zoo[s.stream_id] for s in reps]
    return reps, bundles


def _sdd_work_items(streams, n_batches: int):
    """Per-stream SDD batches: ``(stream_idx, frame_idxs)`` pairs, 8 streams.

    Mirrors the runtime's dispatch shape — SDD is ``per_stream``, so every
    batch carries frames of exactly one stream.  Every frame is already
    stored (tracing read the whole clip), so no path renders.
    """
    reps = [streams[i % len(streams)] for i in range(N_STREAMS)]
    return [
        (si, [(b * SDD_BATCH + k) % len(stream) for k in range(SDD_BATCH)])
        for si, stream in enumerate(reps)
        for b in range(n_batches)
    ]


# ---------------------------------------------------------------------------
# SDD pool sweep
# ---------------------------------------------------------------------------
def check_sdd_pool(streams, zoo) -> bool:
    """Pool pass masks must equal inline evaluation exactly."""
    reps, bundles = _replicated(streams, zoo, N_STREAMS)
    config = FFSVAConfig()
    items = _sdd_work_items(streams, n_batches=2)
    pool = ProcPool("sdd", _sdd_evaluate, reps, bundles, zoo, config, 2)
    try:
        for si, ts in items:
            want, _ = _sdd_evaluate(reps[si].pixel_batch(ts), [bundles[si]], zoo, config)
            got, _, _ = pool.run_batch([si] * len(ts), ts, None)
            if not np.array_equal(np.asarray(got), np.asarray(want)):
                return False
    finally:
        pool.shutdown()
    return True


def _timed_drain(items, submit, concurrency: int) -> float:
    """Wall seconds to push every item through ``submit`` with N dispatchers."""
    abort = threading.Event()
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as ex:
        futs = [ex.submit(submit, si, ts, abort) for si, ts in items]
        for f in futs:
            f.result()
    return time.perf_counter() - t0


def sweep_sdd_pool(streams, zoo, quick: bool) -> dict:
    """SDD throughput at 8 streams, threads vs process pool, 1/2/4 workers."""
    fleet, bundles = _replicated(streams, zoo, N_STREAMS)
    config = FFSVAConfig()
    n_batches = 3 if quick else 10
    reps = 1 if quick else 3
    items = _sdd_work_items(streams, n_batches=n_batches)
    total_frames = len(items) * SDD_BATCH

    def inline_submit(si, ts, abort):
        return _sdd_evaluate(fleet[si].pixel_batch(ts), [bundles[si]], zoo, config)

    sweep: dict[str, dict] = {}
    rows = []
    for workers in WORKER_COUNTS:
        thread_times, pool_times = [], []
        for _ in range(reps):
            thread_times.append(_timed_drain(items, inline_submit, workers))
            pool = ProcPool("sdd", _sdd_evaluate, fleet, bundles, zoo, config, workers)
            try:
                pool_times.append(
                    _timed_drain(
                        items,
                        lambda si, ts, ab: pool.run_batch([si] * len(ts), ts, ab),
                        workers,
                    )
                )
            finally:
                pool.shutdown()
        t_thread = statistics.median(thread_times)
        t_pool = statistics.median(pool_times)
        thread_fps = total_frames / t_thread
        pool_fps = total_frames / t_pool
        sweep[str(workers)] = {
            "thread_fps": round(thread_fps, 1),
            "process_fps": round(pool_fps, 1),
            "process_over_thread": round(pool_fps / thread_fps, 3),
        }
        rows.append([f"{workers} worker(s)", thread_fps, pool_fps, pool_fps / thread_fps])
    print_table(
        f"SDD throughput, {N_STREAMS} streams x {total_frames} frames (FPS)",
        ["workers", "thread", "process", "proc/thread"],
        rows,
    )
    one = sweep[str(WORKER_COUNTS[0])]["process_fps"]
    four = sweep[str(WORKER_COUNTS[-1])]["process_fps"]
    return {
        "n_streams": N_STREAMS,
        "batch_n": SDD_BATCH,
        "total_frames": total_frames,
        "workers": sweep,
        "pool_scaling_1_to_4": round(four / one, 3) if one else None,
    }


# ---------------------------------------------------------------------------
# SNM fusion
# ---------------------------------------------------------------------------
def _mega_batch(streams, per_stream: int):
    """A mixed mega-batch interleaving ``N_STREAMS`` streams' frames."""
    reps = [streams[i % len(streams)] for i in range(N_STREAMS)]
    frames, sidx = [], []
    for k in range(per_stream):
        for si, stream in enumerate(reps):
            frames.append(stream.pixels((k * N_STREAMS + si) % len(stream)))
            sidx.append(si)
    return np.stack(frames), np.asarray(sidx, dtype=np.intp)


def _per_stream_proba(snms, pixels, sidx):
    out = np.empty(len(pixels), dtype=np.float32)
    for k in np.unique(sidx):
        sel = np.nonzero(sidx == k)[0]
        out[sel] = snms[int(k)].predict_proba(pixels[sel])
    return out


def check_snm_fusion(streams, zoo) -> bool:
    """Fused probabilities and pass masks must be bit-identical."""
    _, bundles = _replicated(streams, zoo, N_STREAMS)
    snms = [b.snm for b in bundles]
    fused = FusedSNM(snms)
    pixels, sidx = _mega_batch(streams, per_stream=5)
    got = fused.predict_proba(pixels, sidx)
    want = _per_stream_proba(snms, pixels, sidx)
    if not np.array_equal(got, want):
        return False
    for degree in (0.3, 1.0):
        want_pass = np.empty(len(pixels), dtype=bool)
        for k in np.unique(sidx):
            sel = np.nonzero(sidx == k)[0]
            want_pass[sel] = snms[int(k)].passes(want[sel], degree)
        if not np.array_equal(fused.passes(got, sidx, degree), want_pass):
            return False
    # Second call exercises the post-self-check steady state.
    return np.array_equal(fused.predict_proba(pixels, sidx), want)


def time_snm_fusion(streams, zoo, quick: bool) -> dict:
    _, bundles = _replicated(streams, zoo, N_STREAMS)
    snms = [b.snm for b in bundles]
    fused = FusedSNM(snms)
    pixels, sidx = _mega_batch(streams, per_stream=5)
    before, after = median_pair_ms(
        lambda: _per_stream_proba(snms, pixels, sidx),
        lambda: fused.predict_proba(pixels, sidx),
        reps=20 if quick else 80,
    )
    speedup = before / after if after > 0 else float("inf")
    print_table(
        f"SNM mega-batch, {len(pixels)} frames x {N_STREAMS} streams (median ms)",
        ["case", "before", "after", "speedup"],
        [["snm fused forward", before, after, speedup]],
    )
    return {
        "mega_batch": len(pixels),
        "n_streams": N_STREAMS,
        "per_stream_ms": round(before, 4),
        "fused_ms": round(after, 4),
        "speedup": round(speedup, 2),
    }


# ---------------------------------------------------------------------------
# end-to-end
# ---------------------------------------------------------------------------
def run_e2e(streams, traces, zoo) -> tuple[dict | None, str | None]:
    """Full pipeline with both features on: counters must match the
    simulator, outcomes must match the plain threaded path."""
    scale = FFSVAConfig(executor="process", num_sdd_procs=2, snm_fusion=True)
    scale_pipe = ThreadedPipeline(streams, zoo, scale)
    m_real = scale_pipe.run()
    m_sim = PipelineSimulator(traces, scale, online=False).run()
    try:
        assert_stage_counts_equal(m_real, m_sim)
    except AssertionError as exc:
        return None, f"threaded-vs-simulator counters diverge: {exc}"

    base_pipe = ThreadedPipeline(streams, zoo, FFSVAConfig())
    base_pipe.run()

    def outcome_set(pipe):
        return sorted(
            (o.stream_id, o.index, o.stage, o.ref_count) for o in pipe.outcomes
        )

    if outcome_set(scale_pipe) != outcome_set(base_pipe):
        return None, "process+fusion outcomes diverge from the plain threaded path"
    fps = m_real.frames_ingested / m_real.duration if m_real.duration else 0.0
    return {
        "n_streams": len(streams),
        "n_frames": m_real.frames_ingested,
        "frames_to_ref": m_real.frames_to_ref,
        "sim_frames_to_ref": m_sim.frames_to_ref,
        "throughput_fps": round(fps, 1),
        "procpool": m_real.extra.get("procpool"),
    }, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke: fewer reps/frames")
    ap.add_argument("--check", action="store_true", help="correctness only, no timing")
    ap.add_argument("--no-e2e", action="store_true", help="skip the end-to-end runs")
    ap.add_argument("--out", default=None, help="override the BENCH_scaleout.json path")
    args = ap.parse_args(argv)

    # Say up front what the numbers will mean: worker scaling is a property
    # of the host's core count, and on one CPU the pool cannot win.
    cpus = os.cpu_count() or 1
    print(f"host: {cpus} cpu(s), {platform.machine()}, python {platform.python_version()}")
    if cpus <= 1:
        print(
            "WARNING: single-CPU host — process-pool throughput cannot beat "
            "the inline path here (no second core to scale onto; IPC only "
            "adds overhead).  Correctness checks are unaffected, but treat "
            "every recorded worker-scaling number as a floor, not a curve.",
            file=sys.stderr,
        )

    streams, traces, zoo = _trained_fleet(args.quick)
    failures = []
    if not check_sdd_pool(streams, zoo):
        failures.append("sdd pool masks != inline masks")
    if not check_snm_fusion(streams, zoo):
        failures.append("fused SNM != per-stream sequential prediction")
    e2e = None
    if not args.no_e2e:
        e2e, err = run_e2e(streams, traces, zoo)
        if err:
            failures.append(err)
    if failures:
        print(f"FAIL: scale-out paths diverge from the inline paths: {failures}",
              file=sys.stderr)
        return 1
    n_checks = 2 + (0 if args.no_e2e else 1)
    print(f"correctness: all {n_checks} scale-out paths identical to their inline paths")
    if args.check:
        return 0

    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": cpus,
            "single_cpu_host": cpus <= 1,
            "mode": "quick" if args.quick else "full",
        },
        "sdd_pool_sweep": sweep_sdd_pool(streams, zoo, args.quick),
        "snm_fusion": time_snm_fusion(streams, zoo, args.quick),
    }
    if e2e is not None:
        payload["e2e_process_fused"] = e2e
        print(f"\ne2e process+fused run: {e2e}")
    path = record_bench("scaleout", payload, path=args.out)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
