"""Command-line interface for the FFS-VA reproduction.

Usage (also available as ``python -m repro``)::

    ffs-va workloads
    ffs-va train    --workload jackson --tor 0.3 --frames 2400 --out models/
    ffs-va analyze  --workload jackson --tor 0.3 --frames 600
    ffs-va simulate --workload jackson --tor 0.103 --streams 20 --mode online
    ffs-va plan     --workload jackson --tor 0.103
    ffs-va explain  --workload jackson --frames 600 --stream stream-0 --frame 120

Every command synthesizes its stream deterministically from the workload
preset, TOR and seed, so results are reproducible from the command line
alone.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .baseline import baseline_offline, baseline_online
from .core.config import FFSVAConfig
from .core.pipeline import CASCADES
from .core.planner import offline_throughput_bound, plan_capacity
from .core.tracecache import workload_trace
from .models import ModelZoo
from .obs import Telemetry, TelemetryServer
from .sim import PipelineSimulator
from .video.workloads import coral, jackson, make_stream

__all__ = ["main", "build_parser"]

_WORKLOADS = {"jackson": jackson, "coral": coral}


def _add_stream_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", choices=sorted(_WORKLOADS), default="jackson")
    p.add_argument("--tor", type=float, default=None, help="target-object ratio")
    p.add_argument("--frames", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter-degree", type=float, default=0.5)
    p.add_argument("--number-of-objects", type=int, default=1)
    p.add_argument("--relax", type=int, default=0)
    p.add_argument(
        "--batch-policy", choices=["static", "feedback", "dynamic"], default="dynamic"
    )
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument(
        "--cascade",
        choices=sorted(CASCADES),
        default="ffs-va",
        help="which registered stage-graph composition to execute",
    )
    p.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="run CPU-hosted stages (SDD) inline in worker threads, or on a "
             "pool of worker processes that read each batch's frames by index "
             "from the stored clips they inherit",
    )
    p.add_argument(
        "--num-sdd-procs", type=int, default=2, metavar="N",
        help="worker processes in the SDD pool when --executor process",
    )
    p.add_argument(
        "--snm-fusion", action="store_true",
        help="fuse the per-stream SNMs into one worker forming cross-stream "
             "mega-batches executed as a single weight-stacked forward pass",
    )
    p.add_argument(
        "--tyolo-mosaic", action="store_true",
        help="object-level T-YOLO consolidation: pack each cross-stream "
             "mega-batch's active regions onto composite canvases and run "
             "the detector once per canvas instead of once per frame",
    )
    p.add_argument(
        "--mosaic-canvas", type=int, default=52, metavar="CELLS",
        help="mosaic canvas side in detector grid cells (52 = one native "
             "416x416 T-YOLO input)",
    )
    p.add_argument(
        "--mosaic-gutter", type=int, default=1, metavar="CELLS",
        help="empty-cell gap between mosaic placements (>= 1)",
    )
    p.add_argument(
        "--plan", choices=["static", "adaptive"], default="static",
        help="query planning: 'adaptive' re-decides each stream's cascade "
             "exit depth and SNM FilterDegree every plan epoch from observed "
             "content (first-filter pass fraction)",
    )
    p.add_argument(
        "--plan-epoch", type=int, default=64, metavar="FRAMES",
        help="frames per planning chunk with --plan adaptive",
    )
    p.add_argument(
        "--adaptive-batching", action="store_true",
        help="let the planner steer the SNM batch-size target from an EWMA "
             "of observed queue depth (requires --plan adaptive)",
    )


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry", action="store_true",
        help="attach the telemetry subsystem (events, spans, time-series)",
    )
    p.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve /metrics and /snapshot on this local port (0 = ephemeral); "
             "implies --telemetry",
    )
    p.add_argument(
        "--telemetry-linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the telemetry endpoint up this long after the run",
    )
    p.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the run's RunMetrics as JSON to PATH",
    )
    p.add_argument(
        "--trace-json", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON (chrome://tracing) to PATH; "
             "requires --telemetry",
    )
    p.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a rotated/segmented Chrome trace (trace-NNNNN.json files "
             "plus manifest.json) into DIR for long runs; implies --telemetry",
    )
    p.add_argument(
        "--trace-segment-kb", type=int, default=1024, metavar="KB",
        help="max serialized size of one trace segment (with --trace-dir)",
    )
    p.add_argument(
        "--trace-segments", type=int, default=None, metavar="N",
        help="keep at most N newest trace segments on disk (with --trace-dir)",
    )


def _add_store_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persist one DetectionRecord per frame outcome into a segmented "
             "store under DIR (query later with `repro query DIR`); cluster "
             "runs write per-instance stores DIR/instance-N/",
    )
    p.add_argument(
        "--store-segment-kb", type=int, default=256, metavar="KB",
        help="rotate store segments at this size (with --store-dir)",
    )
    p.add_argument(
        "--store-segments", type=int, default=None, metavar="N",
        help="keep at most N newest store segments (with --store-dir)",
    )


def _config_from(args) -> FFSVAConfig:
    telemetry = bool(
        getattr(args, "telemetry", False)
        or getattr(args, "telemetry_port", None) is not None
        or getattr(args, "trace_json", None)
        or getattr(args, "trace_dir", None)
    )
    return FFSVAConfig(
        filter_degree=args.filter_degree,
        number_of_objects=args.number_of_objects,
        relax=args.relax,
        batch_policy=args.batch_policy,
        batch_size=args.batch_size,
        cascade=args.cascade,
        executor=getattr(args, "executor", "thread"),
        num_sdd_procs=getattr(args, "num_sdd_procs", 2),
        snm_fusion=bool(getattr(args, "snm_fusion", False)),
        tyolo_mosaic=bool(getattr(args, "tyolo_mosaic", False)),
        mosaic_canvas=getattr(args, "mosaic_canvas", 52),
        mosaic_gutter=getattr(args, "mosaic_gutter", 1),
        plan=getattr(args, "plan", "static"),
        plan_epoch=getattr(args, "plan_epoch", 64),
        adaptive_batching=bool(getattr(args, "adaptive_batching", False)),
        telemetry=telemetry,
        telemetry_port=getattr(args, "telemetry_port", None),
        result_store_dir=getattr(args, "store_dir", None),
        store_segment_kb=getattr(args, "store_segment_kb", 256),
        store_segments=getattr(args, "store_segments", None),
    )


def _stream_from(args):
    spec = _WORKLOADS[args.workload]()
    return make_stream(spec, args.frames, tor=args.tor, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffs-va",
        description="FFS-VA: a fast filtering system for large-scale video analytics",
    )
    parser.add_argument("--version", action="version", version=f"ffs-va {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the evaluation workload presets")

    p = sub.add_parser("train", help="train a stream's specialized models")
    _add_stream_args(p)
    p.add_argument("--out", default=None, help="directory to save the models into")
    p.add_argument("--train-frames", type=int, default=400)

    p = sub.add_parser("analyze", help="run the real threaded pipeline offline")
    _add_stream_args(p)
    _add_config_args(p)
    _add_telemetry_args(p)
    _add_store_args(p)
    p.add_argument("--train-frames", type=int, default=300)

    p = sub.add_parser("simulate", help="paper-scale simulation on the virtual server")
    _add_stream_args(p)
    _add_config_args(p)
    _add_telemetry_args(p)
    _add_store_args(p)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--mode", choices=["offline", "online"], default="offline")
    p.add_argument(
        "--baseline", action="store_true",
        help="run the YOLOv2-on-everything baseline instead of the FFS-VA "
             "cascade (same telemetry schema, so traces overlay)",
    )

    p = sub.add_parser("plan", help="analytic capacity plan for a workload")
    _add_stream_args(p)
    _add_config_args(p)

    p = sub.add_parser(
        "cluster",
        help="N pipeline instances behind a live stream router (shed/re-forward)",
    )
    _add_stream_args(p)
    _add_config_args(p)
    _add_store_args(p)
    p.add_argument("--streams", type=int, default=4)
    p.add_argument("--instances", type=int, default=2)
    p.add_argument(
        "--mode", choices=["sim", "threaded"], default="sim",
        help="sim: virtual-clock ClusterSimulator over workload traces; "
             "threaded: real forked pipeline instances (trains models first)",
    )
    p.add_argument("--router-epoch", type=float, default=0.25, metavar="SECONDS")
    p.add_argument(
        "--depth-fraction", type=float, default=0.5,
        help="admission_depth_fraction: queue fill fraction that arms the "
             "overload signal (1.0 can never trip on bounded queues)",
    )
    p.add_argument("--reserve-slots", type=int, default=2)
    p.add_argument(
        "--admission-fps", type=float, default=140.0,
        help="rate-stage FPS threshold below which an instance can admit",
    )
    p.add_argument("--train-frames", type=int, default=200,
                   help="training frames per stream (threaded mode)")

    p = sub.add_parser(
        "explain",
        help="run a workload with telemetry and explain one frame's lineage "
             "(per-hop queue/batch/service latency decomposition)",
    )
    _add_stream_args(p)
    _add_config_args(p)
    _add_store_args(p)
    p.add_argument(
        "--stream", default=None,
        help="stream id to explain (default: the first stream)",
    )
    p.add_argument(
        "--frame", type=int, default=None, metavar="N",
        help="global frame index to explain; omit for the critical-path "
             "summary over every observed frame",
    )
    p.add_argument(
        "--runtime", choices=["sim", "threaded"], default="sim",
        help="sim: virtual-clock simulator (deterministic lineage); "
             "threaded: the real pipeline (trains models first)",
    )
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--mode", choices=["offline", "online"], default="offline")
    p.add_argument("--train-frames", type=int, default=300,
                   help="training frames per stream (threaded runtime)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw /lineage JSON body instead of a table")

    p = sub.add_parser(
        "query",
        help="query a persisted detection store (no pipeline in the loop)",
    )
    p.add_argument(
        "store",
        help="store directory from a --store-dir run (or a cluster parent "
             "holding instance-N/ stores, merged transparently)",
    )
    p.add_argument("--q", choices=["count", "topk", "windows"], default="count")
    p.add_argument("--stream", default=None, help="restrict to one stream id")
    p.add_argument("--cls", default=None, help="restrict to one object class")
    p.add_argument("--t0", type=float, default=None, metavar="SECONDS")
    p.add_argument("--t1", type=float, default=None, metavar="SECONDS")
    p.add_argument("--k", type=int, default=5, help="top-k size (--q topk)")
    p.add_argument("--window", type=float, default=1.0,
                   help="bin width in seconds (--q windows)")
    p.add_argument(
        "--disposition", default="detected",
        help='"detected" (terminal stage), "any", or a literal stage name',
    )
    p.add_argument(
        "--replay", action="store_true",
        help="re-decode the matched frames of --stream, one resident at a "
             "time (requires --stream; the stream is re-synthesized from "
             "--workload/--tor/--frames/--seed)",
    )
    _add_stream_args(p)
    return parser


def _cmd_workloads(args) -> int:
    print(f"{'name':<10} {'object':<8} {'paper res':<10} {'fps':<5} {'base TOR'}")
    for name, fn in sorted(_WORKLOADS.items()):
        spec = fn()
        w, h = spec.paper_resolution
        print(f"{name:<10} {spec.kind:<8} {w}*{h:<6} {spec.fps:<5.0f} {spec.base_tor}")
    return 0


def _cmd_train(args) -> int:
    stream = _stream_from(args)
    print(f"training on {stream.stream_id} ({len(stream)} frames, TOR={stream.tor():.3f})")
    zoo = ModelZoo()
    bundle = zoo.train_for_stream(stream, n_train_frames=args.train_frames)
    for key, value in bundle.train_info.items():
        print(f"  {key}: {value}")
    if args.out:
        path = zoo.save_stream(stream.stream_id, args.out)
        print(f"saved to {path}")
    return 0


def _write_artifacts(args, metrics, telemetry, terminal: str) -> None:
    """Persist the optional --metrics-json / --trace-json outputs."""
    if getattr(args, "metrics_json", None):
        with open(args.metrics_json, "w") as fh:
            fh.write(metrics.to_json(indent=2))
        print(f"metrics written to {args.metrics_json}")
    if getattr(args, "trace_json", None) and telemetry is not None:
        telemetry.dump_chrome_trace(args.trace_json, terminal=terminal)
        print(f"chrome trace written to {args.trace_json} (open in chrome://tracing)")
    if getattr(args, "trace_dir", None) and telemetry is not None:
        manifest = telemetry.dump_rotating_trace(
            args.trace_dir,
            terminal=terminal,
            max_bytes=max(4096, getattr(args, "trace_segment_kb", 1024) * 1024),
            max_segments=getattr(args, "trace_segments", None),
        )
        print(f"rotated trace: {len(manifest['segments'])} segment(s) in "
              f"{args.trace_dir} (manifest.json indexes them)")
    if telemetry is not None:
        stats = telemetry.bus.stats()
        print(f"telemetry: {stats['published']} events "
              f"({stats['dropped']} dropped, {len(telemetry.sampler.names)} series)")


def _linger(server: TelemetryServer | None, seconds: float) -> None:
    if server is None:
        return
    if seconds > 0:
        import time

        time.sleep(seconds)
    server.stop()


def _cmd_analyze(args) -> int:
    from .api import FFSVA

    config = _config_from(args)
    stream = _stream_from(args)
    system = FFSVA(config)
    system.train(stream, n_train_frames=args.train_frames)
    report = system.analyze_offline(stream)
    m = report.metrics
    engine = m.extra["engine"]
    print(f"processed {m.frames_ingested} frames in {m.duration:.1f}s "
          f"({m.throughput_fps:.0f} FPS real compute, {engine['worker_threads']} worker "
          f"threads, BLAS capped at {engine['blas_threads']} in {engine['blas_libs']} libs)")
    for spec in config.graph():
        c = m.stages[spec.name]
        print(f"  {spec.name:>6}: executed {c.entered:5d}  filtered {c.filtered:5d}")
    print(f"{len(report.events)} event frames confirmed by the reference model")
    terminal = config.graph().terminal.name
    _write_artifacts(args, m, report.telemetry, terminal)
    if report.telemetry is not None and config.telemetry_port is not None:
        server = report.telemetry.serve(lambda: m, port=config.telemetry_port)
        print(f"telemetry endpoint: {server.url}/metrics (and /snapshot)")
        _linger(server, args.telemetry_linger)
    return 0


def _cmd_simulate(args) -> int:
    config = _config_from(args)
    base = workload_trace(
        _WORKLOADS[args.workload](), args.frames, tor=args.tor, seed=args.seed
    )
    traces = [base.rotated(997 * i).renamed(f"stream-{i}") for i in range(args.streams)]
    telemetry = Telemetry.from_config(config)
    online = args.mode == "online"
    # The baseline is the ref-only cascade behind two functions, so it has
    # no simulator object to watch: its metrics exist once the run returns.
    sim = m = None
    if not args.baseline:
        sim = PipelineSimulator(traces, config, online=online, telemetry=telemetry)
    server = None
    if telemetry is not None and config.telemetry_port is not None:
        # Serve live state: scraping /metrics mid-run sees the run so far.
        server = telemetry.serve(
            lambda: sim.metrics if sim is not None else m, port=config.telemetry_port
        )
        print(f"telemetry endpoint: {server.url}/metrics")
    if args.baseline:
        run = baseline_online if online else baseline_offline
        m = run(traces, config, telemetry=telemetry)
    elif online:
        horizon = max(len(t) for t in traces) / config.stream_fps + 2.0
        m = sim.run(max_virtual_time=horizon)
    else:
        m = sim.run()
    print(f"{args.mode} simulation of {args.streams} stream(s):")
    print(f"  throughput: {m.throughput_fps:.1f} FPS aggregate "
          f"({m.per_stream_fps:.1f}/stream)")
    if args.mode == "online":
        print(f"  real-time: {'yes' if m.realtime() else 'NO'} "
              f"(ingest ratio {m.ingest_ratio:.3f})")
    print(f"  latency: mean {m.frame_latency.mean:.3f}s  p95 {m.frame_latency.p95:.3f}s")
    terminal = config.graph().terminal.name
    print(f"  frames to reference model: {m.frames_to_ref} "
          f"({m.stage_fraction(terminal):.1%} of input)")
    for dev, util in sorted(m.device_utilization.items()):
        print(f"  {dev} utilization: {util:.0%}")
    if sim is not None and sim.store is not None:
        print(f"  detection store: {sim.store.rows_appended} rows in "
              f"{config.result_store_dir} (query with `ffs-va query`)")
    _write_artifacts(args, m, telemetry, terminal)
    _linger(server, args.telemetry_linger)
    return 0


def _cmd_plan(args) -> int:
    config = _config_from(args)
    trace = workload_trace(
        _WORKLOADS[args.workload](), args.frames, tor=args.tor, seed=args.seed
    )
    plan = plan_capacity(trace, config)
    bound = offline_throughput_bound(trace, config)
    print(f"capacity plan for {args.workload} at TOR={trace.tor():.3f}:")
    print(f"  max real-time streams: {plan.max_streams} "
          f"(bottleneck: {plan.bottleneck_device})")
    for dev, demand in sorted(plan.device_demand.items()):
        print(f"  {dev}: {demand:.4f} device-seconds per stream-second")
    print(f"  offline throughput bound (1 stream): {bound:.0f} FPS")
    return 0


def _cmd_cluster(args) -> int:
    config = _config_from(args).with_(
        telemetry=True,
        cluster_instances=args.instances,
        router_epoch=args.router_epoch,
        admission_depth_fraction=args.depth_fraction,
        cluster_reserve_slots=args.reserve_slots,
        admission_tyolo_fps=args.admission_fps,
    )
    moves: list
    if args.mode == "sim":
        from .sim.cluster import ClusterSimulator

        base = workload_trace(
            _WORKLOADS[args.workload](), args.frames, tor=args.tor, seed=args.seed
        )
        traces = [
            base.rotated(997 * i).renamed(f"stream-{i}") for i in range(args.streams)
        ]
        result = ClusterSimulator(traces, config, online=True).run()
        metrics, moves = result.instances, result.moves
        print(f"simulated cluster: {args.instances} instance(s), "
              f"{args.streams} stream(s), virtual time {result.virtual_time:.2f}s")
    else:
        from .runtime.cluster import ClusterSupervisor

        spec = _WORKLOADS[args.workload]()
        streams = [
            make_stream(spec, args.frames, tor=args.tor, seed=args.seed + i)
            for i in range(args.streams)
        ]
        zoo = ModelZoo()
        for s in streams:
            zoo.train_for_stream(s, n_train_frames=args.train_frames)
        result = ClusterSupervisor(streams, zoo, config).run(args.frames, online=True)
        metrics, moves = result.instances, result.moves
        print(f"threaded cluster: {args.instances} instance(s), "
              f"{args.streams} stream(s)")
    for i, m in enumerate(metrics):
        print(f"  instance {i}: streams {m.n_streams}  offered {m.frames_offered}  "
              f"ingested {m.frames_ingested}  to-ref {m.frames_to_ref}")
    if moves:
        for stream, src, dst in moves:
            print(f"  re-forwarded {stream}: instance {src} -> {dst}")
    else:
        print("  no shed/re-forward was needed")
    total = sum(m.frames_offered for m in metrics)
    print(f"  cluster total: {total} frames offered across "
          f"{sum(m.n_streams for m in metrics)} placements")
    return 0


def _print_attribution(body: dict) -> None:
    """Render the critical-path summary (no --frame) as a terminal report."""
    print(f"critical-path attribution over {body['frames']} frame(s) "
          f"({body['complete']} complete, {body['incomplete']} incomplete)")
    if body.get("warning"):
        print(f"  warning: {body['warning']}")
    for name, comp in list(body["components"].items())[:8]:
        print(f"  {name:<24} {comp['seconds'] * 1e3:10.1f} ms  {comp['share']:6.1%}")
    for q, info in body.get("quantiles", {}).items():
        if info is None:
            continue
        print(f"  {q}: stream {info['stream']} frame {info['frame']} — "
              f"{info['latency_s'] * 1e3:.1f} ms, dominated by {info['top']}")


def _print_lineage(body: dict) -> None:
    """Render one frame's hop table."""
    tag = "  [INCOMPLETE: ring evicted part of this story]" if body["incomplete"] else ""
    print(f"frame {body['frame']} of stream {body['stream']} — "
          f"disposition: {body['disposition'] or 'unknown'}{tag}")
    if body.get("plan"):
        decided = " ".join(f"{k}={v}" for k, v in sorted(body["plan"].items()))
        print(f"  plan in effect: {decided}")
    header = (f"  {'hop':>3}  {'stage':<8} {'gap ms':>9} {'batch ms':>9} "
              f"{'queue ms':>9} {'svc ms':>9} {'bsz':>4} {'batch#':>6}  outcome")
    print(header)
    for i, hop in enumerate(body["hops"]):
        note = hop["disposition"] + ("" if hop["complete"] else "  (enter evicted)")
        if hop["blocked"]:
            note += f"  blocked x{hop['blocked']}"
        print(f"  {i:>3}  {hop['stage']:<8} {hop['gap'] * 1e3:>9.3f} "
              f"{hop['batch_wait'] * 1e3:>9.3f} {hop['queue_wait'] * 1e3:>9.3f} "
              f"{hop['service'] * 1e3:>9.3f} "
              f"{hop['batch_size'] if hop['batch_size'] is not None else '-':>4} "
              f"{hop['batch_id'] if hop['batch_id'] is not None else '-':>6}  {note}")
    t = body["totals"]
    print(f"  totals: gap {t['gap'] * 1e3:.3f} + batch_wait {t['batch_wait'] * 1e3:.3f}"
          f" + queue_wait {t['queue_wait'] * 1e3:.3f} + service {t['service'] * 1e3:.3f}"
          f" = {t['total'] * 1e3:.3f} ms"
          f" (recorded end-to-end {body['total_latency'] * 1e3:.3f} ms)")


def _print_store_row(store_dir: str, stream_id: str, frame: int) -> None:
    """Join the explained frame against its persisted DetectionRecord."""
    from .store import open_store

    try:
        reader = open_store(store_dir)
    except FileNotFoundError:
        return
    row = None
    for rec in reader.iter_records():
        if rec.stream == stream_id and rec.frame == frame:
            row = rec
    if row is None:
        print(f"  store: no persisted record for {stream_id}#{frame}")
    else:
        print(f"  store: disposition={row.disposition} cls={row.cls} "
              f"score={row.score:g} t={row.t:.2f}s")


def _cmd_explain(args) -> int:
    import json as _json

    from .obs.export import _lineage_reply

    config = _config_from(args).with_(telemetry=True)
    telemetry = Telemetry.from_config(config)
    if args.runtime == "sim":
        base = workload_trace(
            _WORKLOADS[args.workload](), args.frames, tor=args.tor, seed=args.seed
        )
        traces = [
            base.rotated(997 * i).renamed(f"stream-{i}") for i in range(args.streams)
        ]
        sim = PipelineSimulator(
            traces, config, online=(args.mode == "online"), telemetry=telemetry
        )
        if args.mode == "offline":
            sim.run()
        else:
            horizon = max(len(t) for t in traces) / config.stream_fps + 2.0
            sim.run(max_virtual_time=horizon)
        context = sim.lineage_context
    else:
        from .runtime.engine import ThreadedPipeline

        spec = _WORKLOADS[args.workload]()
        streams = [
            make_stream(spec, args.frames, tor=args.tor, seed=args.seed + i)
            for i in range(args.streams)
        ]
        zoo = ModelZoo()
        for s in streams:
            zoo.train_for_stream(s, n_train_frames=args.train_frames)
        pipeline = ThreadedPipeline(streams, zoo, config, telemetry=telemetry)
        pipeline.run(args.frames, online=(args.mode == "online"))
        context = pipeline.lineage_context

    ctx = context()
    query: dict = {}
    stream_q = args.stream
    if args.frame is not None:
        if stream_q is None:
            smap = ctx.get("streams", {})
            stream_q = (
                min(smap, key=lambda k: smap[k]["index"]) if smap else "0"
            )
        query = {"stream": [stream_q], "frame": [str(args.frame)]}
    status, _, payload = _lineage_reply(telemetry, context, query)
    body = _json.loads(payload)
    if args.json:
        print(_json.dumps(body, indent=2))
        return 0 if status == 200 else 1
    if args.frame is None:
        _print_attribution(body)
        return 0
    if not body.get("found"):
        print(f"frame {args.frame} of {stream_q}: no surviving lineage "
              f"({body.get('warning') or 'frame never observed'})",
              file=sys.stderr)
        return 1
    _print_lineage(body)
    if config.result_store_dir is not None:
        _print_store_row(config.result_store_dir, stream_q, args.frame)
    return 0


def _cmd_query(args) -> int:
    from .store import (
        count_detections,
        open_store,
        replay_detections,
        top_k_streams,
        window_aggregate,
    )

    try:
        reader = open_store(args.store)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = args.t0 if args.t0 is not None else float("-inf")
    t1 = args.t1 if args.t1 is not None else float("inf")
    if args.q == "count":
        n = count_detections(
            reader, stream=args.stream, cls=args.cls,
            t0=t0, t1=t1, disposition=args.disposition,
        )
        print(n)
    elif args.q == "topk":
        for stream_id, n in top_k_streams(
            reader, args.k, cls=args.cls, t0=t0, t1=t1, disposition=args.disposition
        ):
            print(f"{stream_id}\t{n}")
    else:
        for b in window_aggregate(
            reader, args.window, stream=args.stream, cls=args.cls,
            t0=args.t0, t1=args.t1, disposition=args.disposition,
        ):
            print(f"[{b['t0']:8.2f}, {b['t1']:8.2f})  count={b['count']:<5d} "
                  f"score_max={b['score_max']:g}")
    if reader.missing:
        print(f"note: {len(reader.missing)} segment(s) rotated out of retention",
              file=sys.stderr)
    if args.replay:
        if not args.stream:
            print("error: --replay requires --stream", file=sys.stderr)
            return 2
        stream = _stream_from(args)
        result = replay_detections(
            reader, stream,
            t0=t0, t1=t1, stream_id=args.stream,
            disposition=args.disposition,
        )
        st = result.clip_stats
        print(f"replayed {len(result.frames)} frame(s): "
              f"{st['frames_rendered']} rendered of {st['frames_read']} read, "
              f"{st['stored_bytes'] / 2**20:.1f} MiB stored on disk, "
              f"{st['resident_bytes']} B resident")
    return 0


_COMMANDS = {
    "workloads": _cmd_workloads,
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "plan": _cmd_plan,
    "cluster": _cmd_cluster,
    "explain": _cmd_explain,
    "query": _cmd_query,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
