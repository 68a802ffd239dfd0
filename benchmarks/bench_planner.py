"""Content-adaptive query planner benchmark: adaptive vs fixed plans.

PR 9's planner picks, per stream and per ``plan_epoch``-frame chunk, a
cascade exit depth, an SNM FilterDegree, and (optionally) a batch-size
target from the observed first-filter pass fraction.  This suite gates on
the planner's determinism contract and records the Pareto comparison
against every fixed ``(cascade, FilterDegree)`` operating point:

* **Cross-runtime determinism** — the threaded engine and the
  discrete-event simulator must derive the *identical* decision log and
  identical per-stage frame counts on a quiet/busy stream pair that forces
  mid-run plan churn (``--check`` gate).
* **Reach conservation** — the analytic per-frame reach reconstruction
  (replaying ``plan_for``/``degree_for`` over the trace masks) must account
  for exactly the frames the runtime delivered to the reference stage, for
  both fixed and adaptive runs (``--check`` gate).  This is what makes the
  recall numbers below trustworthy: the accuracy model and the runtime
  agree frame-for-frame on who reached the reference model.
* **Pareto sweep** — offline DES throughput and event-level (scene) recall
  for every fixed cascade x FilterDegree point versus one calibrated
  adaptive run on a mixed quiet/busy fleet.  The claim recorded in
  ``BENCH_planner.json``: no fixed point dominates adaptive, and adaptive
  beats the best *accuracy-qualified* fixed point (recall >= adaptive's)
  on throughput.
* **Lineage depth split** — the adaptive run carries telemetry, and every
  complete frame lineage (the same reconstruction ``/lineage`` and
  ``ffs-va explain`` serve) is bucketed by the planner depth in effect for
  its chunk, splitting its end-to-end latency into wait (gap + batch +
  queue) vs service seconds.  Recorded under ``adaptive.lineage_split`` —
  what each depth choice costs, and where.

Event-level accuracy is scene recall: a scene is a maximal run of frames
whose ground-truth count meets ``number_of_objects``, detected when any of
its frames survives every executed filter and reaches the reference model
(the same metric ``PlanCatalog`` calibrates against).

Usage::

    PYTHONPATH=src python -m benchmarks.bench_planner            # full run
    PYTHONPATH=src python -m benchmarks.bench_planner --quick    # CI smoke
    PYTHONPATH=src python -m benchmarks.bench_planner --check    # gates only
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

import numpy as np

from repro.core import FFSVAConfig, assert_stage_counts_equal, build_trace
from repro.core.pipeline import cascade
from repro.core.qplan import PlanCatalog, _runs
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.obs import Telemetry, build_all_lineages
from repro.runtime import ThreadedPipeline
from repro.sim import PipelineSimulator
from repro.video import jackson, make_stream

from .common import OPERATING_POINT, get_trace, print_table, record_bench

#: The mixed fleet the sweep runs on, as (workload, tor, seed, phases)
#: clips (each extra phase is a rotated copy, the same idiom
#: :func:`benchmarks.common.fleet` uses).  Three content classes:
#:
#: * **gap** — low-traffic clips whose specialized SDD has a moderate
#:   false-positive rate and whose multi-object scenes the T-YOLO count
#:   filter misses *entirely*: the full cascade scores zero on them, an
#:   SDD exit catches them.  These are where adaptive buys recall.
#: * **clean** — genuinely quiet clips with a sharp SDD (pass fraction
#:   ~0.05): an SDD exit costs almost nothing in reference load.
#: * **busy** — high-traffic clips that need the full cascade: any fixed
#:   plan shallow enough to match adaptive's recall forwards half their
#:   frames to the 15 ms/frame reference model.
GAP_CLIPS = (("jackson", 0.06, 5, 1), ("coral", 0.06, 6, 1))
CLEAN_CLIPS = (("jackson", 0.05, 0, 2), ("jackson", 0.05, 10, 2))
BUSY_CLIPS = tuple(("coral", 0.55, s, 1) for s in range(4))

#: Fixed operating points swept: every cascade that evaluates the SNM is
#: crossed with the full FilterDegree menu; SNM-free cascades have exactly
#: one operating point each.  ``ref-only`` is the recall anchor (everything
#: reaches the reference model).
SNM_CASCADES = ("ffs-va", "no-sdd", "snm-only")
PLAIN_CASCADES = ("no-snm", "tyolo-only", "ref-only")

#: Base configuration for every point: the paper's throughput-leaning
#: operating point on a multi-object query (``number_of_objects=2``) —
#: the regime where T-YOLO's count threshold is the recall-binding filter.
#: The planner thresholds are set to the fleet's content classes (the
#: clean clips' SDD pass fraction sits near 0.05, the gap clips' near
#: 0.28, the busy clips' near 0.78), and the accuracy floor sits below the
#: pooled full-depth scene recall so the calibrated catalog can trade
#: FilterDegree on cost rather than collapsing to its max-recall fallback.
BASE = OPERATING_POINT.with_(number_of_objects=2)
PLAN = dict(
    plan="adaptive",
    plan_epoch=64,
    plan_quiet=0.33,
    plan_busy=0.5,
    plan_min_accuracy=0.6,
)


def _plan_cfg(**overrides):
    base = dict(PLAN)
    base.update(overrides)
    return BASE.with_(**base)


# ---------------------------------------------------------------------------
# analytic reach + scene recall
# ---------------------------------------------------------------------------
def _filters(graph):
    return [s.name for s in graph if not s.terminal]


def fixed_reach(traces, graph, cfg) -> list[np.ndarray]:
    """Per-trace mask of frames that survive every filter in ``graph``."""
    out = []
    for trace in traces:
        alive = np.ones(len(trace), dtype=bool)
        for name in _filters(graph):
            alive &= np.asarray(graph[name].logic.trace_mask(trace, cfg), dtype=bool)
        out.append(alive)
    return out


def adaptive_reach(traces, graph, cfg, planner) -> list[np.ndarray]:
    """Per-trace reach under the planner's per-chunk (depth, degree) log.

    ``plan_for`` is clamped exactly as the runtimes clamp it, so the
    post-run reconstruction walks the same plan per frame the live routing
    used; the conservation gate (reach count == ``frames_to_ref``) holds
    this equivalence to account-level exactness.
    """
    filters = _filters(graph)
    masks: dict[tuple, np.ndarray] = {}
    out = []
    for s, trace in enumerate(traces):
        alive = np.ones(len(trace), dtype=bool)
        for lo in range(0, len(trace), planner.epoch):
            hi = min(lo + planner.epoch, len(trace))
            plan = planner.plan_for(s, lo)
            dcfg = cfg.with_(filter_degree=plan.filter_degree)
            for name in filters[: filters.index(plan.depth) + 1]:
                key = (s, name, float(plan.filter_degree))
                if key not in masks:
                    masks[key] = np.asarray(
                        graph[name].logic.trace_mask(trace, dcfg), dtype=bool
                    )
                alive[lo:hi] &= masks[key][lo:hi]
        out.append(alive)
    return out


def scene_recall(traces, reach, number_of_objects: int) -> float:
    """Fraction of ground-truth scenes with >= 1 frame reaching the ref."""
    detected = total = 0
    for trace, alive in zip(traces, reach):
        positive = np.asarray(trace.gt_count) >= number_of_objects
        for lo, hi in _runs(positive):
            total += 1
            detected += bool(alive[lo:hi].any())
    return detected / total if total else 1.0


def _conservation(reach, metrics) -> str | None:
    """The analytic reach must equal the frames the run delivered to ref."""
    want = int(sum(int(a.sum()) for a in reach))
    got = int(metrics.frames_to_ref)
    if want != got:
        return f"analytic reach {want} != frames_to_ref {got}"
    return None


# ---------------------------------------------------------------------------
# determinism + conservation gates (--check)
# ---------------------------------------------------------------------------
def _trained_fleet(quick: bool):
    """One quiet and one busy trained jackson stream (forces plan churn)."""
    n_frames = 240
    zoo = ModelZoo()
    streams, traces = [], []
    for i, tor in enumerate((0.05, 0.6)):
        stream = make_stream(jackson(), n_frames, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=100 if quick else 120,
            stride=2,
            train_config=TrainConfig(epochs=4 if quick else 6, batch_size=32, seed=7),
        )
        streams.append(stream)
        traces.append(build_trace(stream, zoo))
    return streams, traces, zoo


def check_cross_runtime(streams, traces, zoo) -> list[str]:
    """Threaded and simulated runs must agree on the decision log, the
    per-stage frame counts, and the analytic reach reconstruction."""
    cfg = BASE.with_(plan="adaptive", plan_epoch=32, number_of_objects=1)
    failures: list[str] = []
    eng = ThreadedPipeline(streams, zoo, cfg)
    m_eng = eng.run(len(streams[0]))
    sim = PipelineSimulator(traces, cfg, online=False)
    m_sim = sim.run()
    try:
        assert_stage_counts_equal(m_eng, m_sim)
    except AssertionError as exc:
        failures.append(f"threaded-vs-simulator counters diverge: {exc}")
    log_eng = eng.planner.decision_labels()
    log_sim = sim.planner.decision_labels()
    if log_eng != log_sim:
        failures.append(
            f"decision logs diverge: threaded={log_eng} sim={log_sim}"
        )
    if not log_eng:
        failures.append("no plan transitions on the quiet/busy pair")
    reach = adaptive_reach(traces, sim.graph, cfg, sim.planner)
    err = _conservation(reach, m_sim)
    if err:
        failures.append(f"adaptive reach reconstruction: {err}")
    return failures


def check_fixed_conservation(traces) -> list[str]:
    """The cascade-mask accounting must match a static run exactly."""
    failures = []
    for name in ("ffs-va", "tyolo-only"):
        cfg = BASE.with_(cascade=name, number_of_objects=1)
        m = PipelineSimulator(traces, cfg, online=False, graph=name).run()
        err = _conservation(fixed_reach(traces, cascade(name), cfg), m)
        if err:
            failures.append(f"fixed reach ({name}): {err}")
    return failures


# ---------------------------------------------------------------------------
# Pareto sweep (DES)
# ---------------------------------------------------------------------------
def _mixed_fleet(quick: bool):
    n_frames = 400 if quick else 1500
    clips = GAP_CLIPS + CLEAN_CLIPS + BUSY_CLIPS
    if quick:
        clips = (GAP_CLIPS[0], CLEAN_CLIPS[0][:3] + (1,)) + BUSY_CLIPS[:2]
    traces = []
    for workload, tor, seed, phases in clips:
        base = get_trace(workload, tor, n_frames=n_frames, seed=seed)
        for p in range(phases):
            tr = base.rotated(p * 997) if p else base
            traces.append(tr.renamed(f"{workload}-{tor}-s{seed}p{p}"))
    return traces, n_frames


def _run_fixed(traces, name: str, degree: float) -> dict:
    cfg = BASE.with_(cascade=name, filter_degree=degree)
    sim = PipelineSimulator(traces, cfg, online=False, graph=name)
    m = sim.run()
    reach = fixed_reach(traces, sim.graph, cfg)
    err = _conservation(reach, m)
    return {
        "plan": f"{name}@{degree:g}",
        "cascade": name,
        "degree": degree,
        "throughput_fps": round(m.throughput_fps, 1),
        "recall": round(scene_recall(traces, reach, cfg.number_of_objects), 4),
        "conservation_error": err,
    }


def lineage_depth_split(sim, telemetry) -> dict:
    """Lineage-derived wait/service seconds grouped by in-effect plan depth.

    Replays the run's event ring through the lineage reconstructor (the
    same fold ``/lineage`` serves) and buckets every complete frame by the
    cascade exit depth the planner had in effect for its chunk.  The split
    answers *what the planner's depth choice costs where*: a deeper plan
    buys recall with service seconds, a shallow one trades them for queue
    waits upstream of the exit.  Only complete lineages participate (the
    incompleteness contract — size the ring to the run, never fabricate).
    """
    lineages = build_all_lineages(
        telemetry.bus.events(),
        terminal=sim.graph.terminal.name,
        dropped=telemetry.bus.dropped,
    )
    planner = sim.planner
    by_depth: dict[str, dict] = {}
    incomplete = 0
    for lin in lineages:
        if not lin.hops or lin.incomplete:
            incomplete += 1
            continue
        depth = planner.plan_for(lin.stream, lin.frame).depth
        totals = lin.totals()
        row = by_depth.setdefault(
            depth, {"frames": 0, "wait_s": 0.0, "service_s": 0.0}
        )
        row["frames"] += 1
        row["wait_s"] += totals["gap"] + totals["batch_wait"] + totals["queue_wait"]
        row["service_s"] += totals["service"]
    for row in by_depth.values():
        denom = row["wait_s"] + row["service_s"]
        row["wait_s"] = round(row["wait_s"], 4)
        row["service_s"] = round(row["service_s"], 4)
        row["wait_share"] = round(row["wait_s"] / denom, 4) if denom > 0 else 0.0
    return {
        "by_depth": dict(sorted(by_depth.items())),
        "frames": len(lineages),
        "incomplete": incomplete,
        "dropped_events": telemetry.bus.dropped,
    }


def _run_adaptive(traces) -> dict:
    cfg = _plan_cfg(adaptive_batching=True)
    catalog = PlanCatalog.build(cfg, traces=traces)
    # The event ring must hold the whole run for the lineage split to see
    # every frame: ~7 events/frame (admission + enter/disposition per hop
    # + shared batch_execs) across the fleet.
    telemetry = Telemetry(capacity=1 << 20)
    sim = PipelineSimulator(
        traces, cfg, online=False, plan_catalog=catalog, telemetry=telemetry
    )
    m = sim.run()
    reach = adaptive_reach(traces, sim.graph, cfg, sim.planner)
    err = _conservation(reach, m)
    qplan = m.extra["qplan"]
    lineage = lineage_depth_split(sim, telemetry)
    if lineage["dropped_events"]:
        print(
            f"WARNING: lineage ring evicted {lineage['dropped_events']} "
            "events; depth split covers a subset",
            file=sys.stderr,
        )
    print_table(
        "Lineage wait/service split by in-effect plan depth (adaptive run)",
        ["depth", "frames", "wait s", "service s", "wait share"],
        [
            [d, r["frames"], r["wait_s"], r["service_s"], r["wait_share"]]
            for d, r in lineage["by_depth"].items()
        ],
    )
    return {
        "plan": "adaptive",
        "cascade": cfg.cascade,
        "throughput_fps": round(m.throughput_fps, 1),
        "recall": round(scene_recall(traces, reach, cfg.number_of_objects), 4),
        "conservation_error": err,
        "catalog": {
            "depth_by_band": list(catalog.depth_by_band),
            "degree_by_band": list(catalog.degree_by_band),
        },
        "bands": {
            sid: st["band"] for sid, st in sorted(qplan["streams"].items())
        },
        "decisions": len(qplan["decisions"]),
        "lineage_split": lineage,
    }


def sweep_pareto(quick: bool) -> tuple[dict, list[str]]:
    traces, n_frames = _mixed_fleet(quick)
    degrees = (0.0, 0.5, 1.0) if quick else BASE.plan_degrees
    cascades = ("ffs-va",) if quick else SNM_CASCADES
    plain = ("tyolo-only", "ref-only") if quick else PLAIN_CASCADES

    points = []
    for name in cascades:
        for d in degrees:
            points.append(_run_fixed(traces, name, d))
    for name in plain:
        points.append(_run_fixed(traces, name, BASE.filter_degree))
    adaptive = _run_adaptive(traces)

    failures = [
        f"{p['plan']}: {p['conservation_error']}"
        for p in points + [adaptive]
        if p["conservation_error"]
    ]

    a_tps, a_rec = adaptive["throughput_fps"], adaptive["recall"]
    dominating = [
        p["plan"]
        for p in points
        if p["throughput_fps"] >= a_tps
        and p["recall"] >= a_rec
        and (p["throughput_fps"] > a_tps or p["recall"] > a_rec)
    ]
    qualified = [p for p in points if p["recall"] >= a_rec]
    best_q = max(qualified, key=lambda p: p["throughput_fps"], default=None)
    speedup = a_tps / best_q["throughput_fps"] if best_q else float("inf")

    rows = [
        [p["plan"], p["throughput_fps"], p["recall"]]
        for p in sorted(points, key=lambda p: -p["throughput_fps"])
    ]
    rows.append(["adaptive", a_tps, a_rec])
    print_table(
        f"Offline DES throughput vs scene recall ({len(traces)} streams, "
        f"{n_frames} frames each)",
        ["plan", "fps", "recall"],
        rows,
    )
    summary = {
        "n_streams": len(traces),
        "n_frames": n_frames,
        "fleet": [t.stream_id for t in traces],
        "plan_overrides": PLAN,
        "fixed_points": points,
        "adaptive": adaptive,
        "dominating_fixed_points": dominating,
        "best_qualified_fixed": best_q["plan"] if best_q else None,
        "speedup_vs_best_qualified": (
            round(speedup, 2) if best_q else None
        ),
    }
    return summary, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke: fewer points/frames")
    ap.add_argument("--check", action="store_true", help="gates only, no sweep")
    ap.add_argument("--out", default=None, help="override the BENCH_planner.json path")
    args = ap.parse_args(argv)

    cpus = os.cpu_count() or 1
    print(f"host: {cpus} cpu(s), {platform.machine()}, python {platform.python_version()}")

    streams, traces, zoo = _trained_fleet(args.quick)
    failures = check_cross_runtime(streams, traces, zoo)
    failures += check_fixed_conservation(traces)
    if failures:
        print(f"FAIL: planner determinism/conservation gates: {failures}",
              file=sys.stderr)
        return 1
    print("correctness: decision logs identical across runtimes; "
          "reach reconstruction exact (fixed + adaptive)")
    if args.check:
        return 0

    sweep, failures = sweep_pareto(args.quick)
    if failures:
        print(f"FAIL: sweep conservation: {failures}", file=sys.stderr)
        return 1
    if sweep["dominating_fixed_points"]:
        print(
            f"WARNING: fixed point(s) {sweep['dominating_fixed_points']} "
            "dominate the adaptive plan",
            file=sys.stderr,
        )
    target = 1.3
    if (sweep["speedup_vs_best_qualified"] or 0) < target:
        # Data, not a gate (cost-model calibration moves absolutes), but the
        # adaptive claim is the point of the planner — say so loudly.
        print(
            f"WARNING: adaptive speedup {sweep['speedup_vs_best_qualified']}x over "
            f"best accuracy-qualified fixed point "
            f"({sweep['best_qualified_fixed']}) is below the {target}x target",
            file=sys.stderr,
        )
    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": cpus,
            "mode": "quick" if args.quick else "full",
        },
        "pareto_sweep": sweep,
    }
    path = record_bench("planner", payload, path=args.out)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
