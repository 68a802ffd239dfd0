"""Command line of the benchmark: one worker mode, one suite mode.

``--trace 0|1`` selects the worker: one workload, in this process, a JSON
result on the last line of stdout (the contract ``BENCHMARK.json`` is
checked against).  Without ``--trace`` the suite runs every selected
workload, both variants, each in its own sequential subprocess, and prints
one report.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .registry import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest, quick
from .stats import summary, within_bound, worse_by

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MANIFEST_PATH = HERE.parents[1] / "BENCHMARK.json"

#: End-to-end metrics that are functions of the seed alone: two runs of one
#: seed must agree on them bit for bit.
EXACT = ("frame_accuracy",)


def parse_args(argv=None) -> argparse.Namespace:
    names = [w.name for w in WORKLOADS]
    p = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names, metavar="NAME",
                   help=f"workload to run (repeatable; default all): {', '.join(names)}")
    p.add_argument("--seed", type=int, default=40,
                   help="the only input to workload generation; stream i uses seed+i")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="how long one run measures")
    p.add_argument("--repeats", type=int, default=3,
                   help="measured units per run at least (more while --seconds lasts)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="worker mode: 0 prints the end-to-end metrics, 1 the per-layer ones")
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, correctness only; results are never written")
    p.add_argument("--selfcheck", action="store_true",
                   help="run the measured set twice; fail if an end-to-end metric disagrees beyond its bound")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
                   help="ad-hoc FFSVAConfig field for every workload; printed, never written")
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json from the registry and exit")
    args = p.parse_args(argv)
    args.workload = args.workload or names
    try:
        args.config = dict(_parse_override(item) for item in args.overrides)
    except ValueError as exc:
        p.error(str(exc))
    if args.trace is not None and len(args.workload) != 1:
        p.error("--trace runs exactly one --workload")
    return args


def _parse_override(item: str) -> tuple[str, object]:
    key, sep, text = item.partition("=")
    if not sep or not key:
        raise ValueError(f"--set wants KEY=VALUE, got {item!r}")
    try:
        return key, ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return key, text


# ----------------------------------------------------------------------
# worker: one workload in this process
# ----------------------------------------------------------------------
def run_worker(args) -> int:
    os.environ["REPRO_TRACE_CACHE"] = "off"
    # Imported here so `--help` and `--write-manifest` work without repro.
    from . import isolated, workloads

    w = next(w for w in WORKLOADS if w.name == args.workload[0])
    if args.quick:
        w = quick(w)
        args.seconds, args.repeats = 0.0, min(args.repeats, 2)
    out_dir = OUT / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    traced = bool(args.trace)

    layer: dict[str, float] = {}
    if traced:
        layer["host.calib_matmul_ms"] = isolated.calib_matmul_ms()
        layer["host.nproc"] = len(os.sched_getaffinity(0))
    prep = workloads.prepare(w, args.seed, args.config)
    layer["models.zoo.train_s_per_stream"] = statistics.median(prep.train_samples)
    if traced:
        out_dir.mkdir(parents=True, exist_ok=True)
        layer.update(isolated.plumbing_rows(out_dir / "iso-store"))
        if w.kind == "engine":
            layer.update(isolated.layer_rows(prep))

    # One discarded warm-up so lazily built plans and buffers exist.
    workloads.run_unit(prep, n_frames=min(w.run_frames, 300))
    t_end = time.perf_counter() + args.seconds
    traced_units = []
    if traced and w.kind == "engine":
        # One unwrapped unit to measure the tracing overhead against, then
        # the traced ones the layer table comes from.
        units = [workloads.run_unit(prep)]
        traced_units = _measure(lambda: workloads.run_unit(prep, out_dir=out_dir),
                                max(1, args.repeats - 1), t_end)
    else:
        units = _measure(lambda: workloads.run_unit(prep), args.repeats, t_end)
    peak = workloads.peak_rss_mb()

    correct, problem = True, ""
    try:
        layer_extra = workloads.verify(prep, units + traced_units)
    except AssertionError as exc:
        correct, problem, layer_extra = False, str(exc), {}

    e2e = _medians([u.e2e for u in units])
    e2e.update(setup_s=statistics.median(prep.setup_samples), peak_rss_mb=peak)
    # Layer rows come from the traced units when there are any, latency
    # rows always from the unwrapped ones.
    layer.update(_medians([u.layer for u in traced_units or units]))
    layer.update(_medians([u.latency for u in units]))
    if traced_units:
        traced_fps = statistics.median(u.e2e["throughput_fps"] for u in traced_units)
        layer["runtime.engine.tracing_overhead_frac"] = 1.0 - traced_fps / e2e["throughput_fps"]
        traced_units[-1].recorder.dump(out_dir / "spans.json")
    layer.update(layer_extra)

    if traced:
        # A per-layer row that does not exist on this workload reads 0.
        specs, values = PER_LAYER, {m.name: layer.get(m.name, 0.0) for m in PER_LAYER}
        unknown = set(layer) - set(values)
        if unknown:
            raise RuntimeError(f"rows missing from the registry: {sorted(unknown)}")
    else:
        specs, values = END_TO_END, e2e
    metrics = {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in specs}
    _print_table(w.name, args, specs, metrics,
                 {name: summary(u.e2e[name] for u in units) for name in units[0].e2e})
    if not correct:
        print(f"VERIFICATION FAILED: {problem}")
    all_units = units + traced_units
    print(json.dumps({
        "correct": correct,
        "attempted": sum(u.frames for u in all_units),
        "failed": sum(u.failed for u in all_units),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _medians(rows: list[dict]) -> dict:
    """Per-key median over dicts that share their keys."""
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


def _measure(run, floor: int, t_end: float) -> list:
    """Units until ``floor`` of them exist and the measuring time is used up."""
    units = []
    while len(units) < floor or time.perf_counter() < t_end:
        units.append(run())
    return units


def _print_table(name, args, specs, metrics, unit_stats) -> None:
    note = f" --set {args.config}" if args.config else ""
    print(f"== {name} (seed {args.seed}{', quick' if args.quick else ''}{note})")
    for m in specs:
        bound = "" if m.bound is None else f"  bound {m.bound:.0%}"
        stats = unit_stats.get(m.name)
        spread = "" if stats is None else (
            f"  [min {stats['min']:.6g} q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
            f"max {stats['max']:.6g} n={stats['n']}]"
        )
        print(f"{m.name:48s} {metrics[m.name]['value']:>14.6g} {m.unit:6s} {m.better:6s}{bound}{spread}")


# ----------------------------------------------------------------------
# suite: every selected workload, each variant in its own subprocess
# ----------------------------------------------------------------------
def _spawn(args, workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--repeats", str(args.repeats), "--trace", str(trace)]
    cmd += ["--quick"] * args.quick
    for item in args.overrides:
        cmd += ["--set", item]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.rstrip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result["failed"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} frames failed")
    return result


def run_suite(args) -> int:
    results: dict[str, dict] = {}
    status = 0
    for name in args.workload:
        first = _spawn(args, name, 0)
        results[name] = {"end_to_end": first["metrics"], "per_layer": _spawn(args, name, 1)["metrics"]}
        if args.selfcheck:
            second = _spawn(args, name, 0)["metrics"]
            for m in END_TO_END:
                a, b = first["metrics"][m.name]["value"], second[m.name]["value"]
                if m.name in EXACT:
                    ok, detail = a == b, "must repeat exactly"
                else:
                    ok = within_bound(a, b, m.better, m.bound) and within_bound(b, a, m.better, m.bound)
                    detail = f"second worse by {worse_by(a, b, m.better):+.1%}, bound {m.bound:.0%}"
                print(f"selfcheck {name:16s} {m.name:20s} {a:.6g} -> {b:.6g}  {detail}  "
                      f"{'ok' if ok else 'DISAGREES'}")
                status |= not ok
    if args.quick or args.config:
        print("results not written (--quick / --set)")
    else:
        OUT.mkdir(exist_ok=True)
        path = OUT / "results.json"
        path.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": results}, indent=1))
        print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        MANIFEST_PATH.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {MANIFEST_PATH}")
        return 0
    return run_worker(args) if args.trace is not None else run_suite(args)
