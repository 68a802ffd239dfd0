"""Set-up, measured units and verification of the four workloads."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    DetStore,
    FFSVAConfig,
    ModelZoo,
    Telemetry,
    build_trace,
    count_detections,
    jackson,
    make_stream,
    open_store,
    scene_accuracy,
    simulate_offline,
    simulate_online,
    window_aggregate,
)
from repro.core import assert_stage_counts_equal
from repro.runtime import ThreadedPipeline

from .registry import SLO_SECONDS, STAGES, Workload
from .spans import Span, SpanRecorder, StreamProxy, layer_table, traced_graph

__all__ = ["Prepared", "Unit", "prepare", "run_unit", "verify", "VerificationError"]

#: Terminal dispositions that count as a failed frame.
FAILED = ("aborted", "dropped")

#: Onboarding samples behind ``setup_s``: at least this many, and more
#: while they are cheap (the 320-frame clips onboard in half a second, and
#: three such samples' median moved 20% between two sets of ten runs).
SETUP_SAMPLES = 3
SETUP_MIN_SECONDS = 5.0

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class VerificationError(AssertionError):
    """An output of the program under test is wrong.  ``repro``'s own
    checks raise plain ``AssertionError``; callers catch that."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


@dataclass
class Prepared:
    """Everything one workload's units run on."""

    workload: Workload
    config: FFSVAConfig
    streams: list
    zoo: ModelZoo
    traces: list  # sim only: the clips' traces
    fleet: list = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    train_samples: list[float] = field(default_factory=list)
    trace_s_per_kframe: list[float] = field(default_factory=list)


def _onboard(w: Workload, seed: int, i: int, zoo: ModelZoo, prep: Prepared):
    """Materialise, train and (sim) trace stream ``i``; one ``setup_s`` sample."""
    t0 = time.perf_counter()
    stream = make_stream(jackson(), w.clip_frames, tor=w.tor, seed=seed + 1000 * i, stream_id=f"{w.name}-{i}")
    t1 = time.perf_counter()
    zoo.train_for_stream(stream, **w.train)
    t2 = time.perf_counter()
    trace = None
    if w.kind == "sim":
        trace = build_trace(stream, zoo)
        prep.trace_s_per_kframe.append((time.perf_counter() - t2) / len(stream) * 1e3)
    prep.setup_samples.append(time.perf_counter() - t0)
    prep.train_samples.append(t2 - t1)
    return stream, trace


def prepare(w: Workload, seed: int, overrides: dict) -> Prepared:
    """Timed set-up.  ``seed`` is the only input to workload generation."""
    prep = Prepared(w, FFSVAConfig(**{**w.config, **overrides}), [], ModelZoo(), [])
    for i in range(w.streams):
        stream, trace = _onboard(w, seed, i, prep.zoo, prep)
        prep.streams.append(stream)
        if trace is not None:
            prep.traces.append(trace)
    # Further samples re-onboard stream 0 into a scratch zoo; the first
    # call's one-off page-fault warm-up is one sample, so the median drops it.
    while len(prep.setup_samples) < SETUP_SAMPLES or sum(prep.setup_samples) < SETUP_MIN_SECONDS:
        _onboard(w, seed, 0, ModelZoo(), prep)
    if w.kind == "sim":
        # Phase-rotated members, as the paper cuts non-overlapping clips out
        # of one video: member k starts k fleet-th of the way into its clip.
        for k in range(w.fleet):
            base = prep.traces[k % len(prep.traces)]
            offset = (k // len(prep.traces)) * len(base) * len(prep.traces) // w.fleet
            prep.fleet.append(
                base.rotated(offset).sliced(0, w.run_frames).renamed(f"{w.name}-member-{k}")
            )
    return prep


@dataclass
class Unit:
    """One measured run and what it produced."""

    frames: int  # attempted
    failed: int
    metrics: object  # RunMetrics (sim: the offline phase's)
    e2e: dict[str, float]
    layer: dict[str, float] = field(default_factory=dict)
    #: Latency rows, kept apart: they are reported from unwrapped units only.
    latency: dict[str, float] = field(default_factory=dict)
    outcomes: list = field(default_factory=list)
    online_metrics: object = None  # sim: the online phase's RunMetrics
    recorder: SpanRecorder | None = None


def slo_met_frac(outcomes, offered: int, deadline: float | None) -> float:
    """Share of offered frames that met the service objective: a non-failed
    disposition, within ``deadline`` seconds of prefetch when there is one.
    A frame without an outcome misses."""
    met = sum(
        o.stage not in FAILED and (deadline is None or o.latency <= deadline) for o in outcomes
    )
    return met / offered


def _accuracy_figures(scenes: int, detected: int, lost_frames: int, missed: int, total: int) -> dict:
    return {
        "scenes": scenes,
        "scene_recall": detected / scenes if scenes else 1.0,
        "scene_kept_frac": 1.0 - lost_frames / total,
        "frame_error_rate": missed / total,
    }


def accuracy(outcomes, streams, n_frames: int, terminal: str, number_of_objects: int) -> dict:
    """Scene and frame accuracy of engine outcomes against ground truth."""
    kept = {s.stream_id: np.zeros(n_frames, dtype=bool) for s in streams}
    reached = {s.stream_id: np.zeros(n_frames, dtype=bool) for s in streams}
    for o in outcomes:
        if o.stage == terminal:
            reached[o.stream_id][o.index] = True
            kept[o.stream_id][o.index] = (o.ref_count or 0) >= number_of_objects
    scenes = detected = lost_frames = missed = 0
    for s in streams:
        positive = s.gt_counts()[:n_frames] >= number_of_objects
        missed += int((positive & ~reached[s.stream_id]).sum())
        for start, stop in s.scenes():
            stop = min(stop, n_frames)
            if start >= stop:
                continue
            scenes += 1
            if kept[s.stream_id][start:stop].any():
                detected += 1
            else:
                lost_frames += stop - start
    return _accuracy_figures(scenes, detected, lost_frames, missed, n_frames * len(streams))


def trace_accuracy(traces, config: FFSVAConfig) -> dict:
    """The same figures for simulated runs, from the traces the simulator
    takes its decisions from."""
    scenes = detected = lost_frames = missed = total = 0
    for tr in traces:
        acc = scene_accuracy(tr, config, use_oracle_scenes=False)
        scenes += acc.n_scenes
        detected += acc.n_detected
        lost_frames += acc.lost_frames
        survived = tr.cascade_pass(config.filter_degree, config.number_of_objects, config.relax)
        missed += int(((tr.gt_count >= config.number_of_objects) & ~survived).sum())
        total += len(tr)
    return _accuracy_figures(scenes, detected, lost_frames, missed, total)


def _engine_unit(prep: Prepared, n_frames: int, out_dir: Path | None) -> Unit:
    w, cfg = prep.workload, prep.config
    traced = out_dir is not None
    recorder = tel = store = None
    streams, graph = prep.streams, None
    if traced:
        recorder = SpanRecorder()
        streams = [StreamProxy(s, recorder) for s in prep.streams]
        graph = traced_graph(cfg.graph(), recorder)
        tel = Telemetry(capacity=1 << 20)  # ring large enough that lineage is complete
        store_dir = out_dir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        store = DetStore(store_dir)
    online = w.paced_fps is not None
    w0, c0 = time.perf_counter(), time.process_time()
    pipe = ThreadedPipeline(streams, prep.zoo, cfg, graph=graph, telemetry=tel, store=store)
    m = pipe.run(n_frames, online=online, paced_fps=w.paced_fps)
    c1, w1 = time.process_time(), time.perf_counter()
    wall, cpu = w1 - w0, c1 - c0

    offered = m.frames_offered
    outcomes = pipe.outcomes
    failed = sum(o.stage in FAILED for o in outcomes) + abs(offered - len(outcomes))
    acc = accuracy(outcomes, prep.streams, n_frames, pipe.graph.terminal.name, cfg.number_of_objects)
    e2e = {
        "throughput_fps": offered / wall,
        "cpu_ms_per_frame": 1e3 * cpu / offered,
        "slo_met_frac": slo_met_frac(outcomes, offered, SLO_SECONDS if online else None),
        "frame_accuracy": 1.0 - acc["frame_error_rate"],
    }
    latency = {
        "runtime.engine.frame_latency_p50_ms": 1e3 * m.frame_latency.p50,
        "runtime.engine.frame_latency_mean_ms": 1e3 * m.frame_latency.mean,
        "runtime.engine.frame_latency_p99_ms": 1e3 * m.frame_latency.p99,
        "runtime.engine.result_latency_p50_ms": 1e3 * m.ref_latency.p50,
        "runtime.engine.result_latency_p95_ms": 1e3 * m.ref_latency.p95,
        "runtime.engine.latency_samples": m.frame_latency.count,
        "runtime.engine.result_samples": m.ref_latency.count,
    }
    layer = {
        "runtime.engine.realtime_ratio": (n_frames / w.paced_fps) / m.duration if online else 0.0,
        "runtime.engine.run_rss_mb": rss_mb(),
        **_accuracy_rows(acc),
        **{f"devices.{d}_util": m.device_utilization.get(d, 0.0) for d in ("cpu0", "gpu0", "gpu1")},
    }
    for stage in STAGES:
        depths = [v for k, v in m.queue_high_water.items() if k.split("[")[0] == stage]
        layer[f"core.queues.{stage}.high_water"] = max(depths, default=0)
    if traced:
        root = Span("runtime.engine", w0, w1, cpu, offered, len(outcomes), None,
                    threading.get_ident(), parent=None)
        layer.update(layer_table(root, recorder.spans, offered))
        recorder.add(root)
        layer.update(_traced_rows(m, recorder, store, store_dir, w.paced_fps))
    return Unit(offered, failed, m, e2e, layer, latency, outcomes, recorder=recorder)


def _traced_rows(m, recorder: SpanRecorder, store: DetStore, store_dir: Path, paced_fps) -> dict:
    """Wait, bus and sink numbers only a traced unit has."""
    rows: dict[str, float] = {}
    components = m.extra["lineage"]["components"]
    for stage in STAGES:
        rows[f"core.queues.{stage}.wait_s"] = sum(
            components.get(f"{stage}/{part}", {}).get("seconds", 0.0)
            for part in ("queue_wait", "batch_wait")
        )
    bus = m.extra["telemetry"]
    rows["obs.bus.events_published"] = bus["published"]
    rows["obs.bus.ring_drops"] = bus["dropped"]
    manifest = store.close()  # the engine already sealed it; close() is idempotent
    rows["store.detstore.rows"] = store.rows_appended
    rows["store.detstore.bytes_per_row"] = (
        sum(seg["bytes"] for seg in manifest["segments"]) / max(store.rows_appended, 1)
    )
    reader = open_store(store_dir)
    t0 = time.perf_counter()
    count_detections(reader)
    t1 = time.perf_counter()
    window_aggregate(reader, 1.0)
    rows["store.query.count_ms"] = 1e3 * (t1 - t0)
    rows["store.query.window_ms"] = 1e3 * (time.perf_counter() - t1)
    late = 0.0
    if paced_fps is not None:
        # How late the paced source asked for each frame: prefetcher j-th
        # call is due j / paced_fps after its first.
        lateness = []
        by_stream: dict[str, list[Span]] = {}
        for s in recorder.spans:
            if s.frame is not None:
                by_stream.setdefault(s.stream, []).append(s)
        for spans in by_stream.values():
            t_first = spans[0].start
            lateness += [s.start - (t_first + j / paced_fps) for j, s in enumerate(spans)]
        late = 1e3 * float(np.percentile(lateness, 99))
    rows["runtime.engine.source_late_ms_p99"] = late
    return rows


def _accuracy_rows(acc: dict) -> dict:
    return {f"analytics.{name}": value for name, value in acc.items()}


def _sim_rows(m, host_s: float) -> dict:
    return {
        "sim.simulator.host_s_offline": host_s,
        "sim.simulator.bottleneck_util": max(m.device_utilization.values()),
        "sim.simulator.offline_virtual_fps": m.throughput_fps,
        **{f"sim.simulator.virtual_{s}_entered": m.stages[s].entered for s in STAGES},
        **{
            f"sim.simulator.virtual_{d}_util": m.device_utilization.get(d, 0.0)
            for d in ("cpu0", "gpu0", "gpu1")
        },
    }


def _sim_unit(prep: Prepared) -> Unit:
    w = prep.workload
    online_cfg = prep.config.with_(**w.online_config)
    w0, c0 = time.perf_counter(), time.process_time()
    mo = simulate_online(prep.fleet, online_cfg)
    w1 = time.perf_counter()
    mf = simulate_offline(prep.fleet, prep.config)
    c2, w2 = time.process_time(), time.perf_counter()
    wall, cpu = w2 - w0, c2 - c0
    frames = mo.frames_offered + mf.frames_offered
    acc = trace_accuracy(prep.traces, online_cfg)
    e2e = {
        "throughput_fps": frames / wall,
        "cpu_ms_per_frame": 1e3 * cpu / frames,
        "slo_met_frac": mo.ingest_ratio,
        "frame_accuracy": 1.0 - acc["frame_error_rate"],
    }
    layer = {
        **_sim_rows(mf, w2 - w1),
        "sim.simulator.host_s_online": w1 - w0,
        "sim.simulator.host_us_per_frame": 1e6 * wall / frames,
        "sim.simulator.online_ingest_ratio": mo.ingest_ratio,
        "sim.simulator.online_latency_p50_ms": 1e3 * mo.frame_latency.p50,
        "runtime.engine.run_rss_mb": rss_mb(),
        **_accuracy_rows(acc),
    }
    # The simulator accounts for every frame or raises; a frame offered to
    # the offline phase and never ingested is a failure.
    failed = mf.frames_offered - mf.frames_ingested
    return Unit(frames, failed, mf, e2e, layer, online_metrics=mo)


def run_unit(prep: Prepared, *, n_frames: int | None = None, out_dir: Path | None = None) -> Unit:
    """One measured unit; ``out_dir`` makes it the traced variant."""
    if prep.workload.kind == "sim":
        return _sim_unit(prep)
    return _engine_unit(prep, n_frames or prep.workload.run_frames, out_dir)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def _counters(m) -> dict:
    return {name: (c.entered, c.passed, c.filtered) for name, c in m.stages.items()}


def verify(prep: Prepared, units: list[Unit]) -> dict[str, float]:
    """Untimed output checks; returns the per-layer rows the cross-runtime
    check produces on the way.

    Raises ``AssertionError`` (:class:`VerificationError` for the checks
    made here) on the first wrong output.
    """
    w = prep.workload
    first = units[0]
    for u in units:
        _check(u.failed == 0, f"{u.failed} frames aborted, dropped or unaccounted")
        u.metrics.check_conservation()
    if w.kind == "sim":
        for u in units[1:]:
            _check(u.metrics.to_dict() == first.metrics.to_dict(),
                   "simulate_offline is not repeatable")
            _check(u.online_metrics.to_dict() == first.online_metrics.to_dict(),
                   "simulate_online is not repeatable")
        return {"core.trace.build_s_per_kframe": statistics.median(prep.trace_s_per_kframe)}

    for u in units:
        m = u.metrics
        _check(len(u.outcomes) == m.frames_offered,
               f"{len(u.outcomes)} outcomes for {m.frames_offered} offered frames")
        names = list(m.stages)
        _check(m.stages[names[0]].entered == m.frames_offered, "first stage did not see every frame")
        for up, down in zip(names, names[1:]):
            _check(m.stages[down].entered == m.stages[up].passed,
                   f"{down} entered {m.stages[down].entered} != {up} passed {m.stages[up].passed}")
        _check(_counters(m) == _counters(first.metrics), "stage counters differ between repeats")

    n = w.run_frames
    t0 = time.perf_counter()
    traces = [build_trace(s, prep.zoo, n_frames=n) for s in prep.streams]
    t1 = time.perf_counter()
    sim = simulate_offline(traces, prep.config)
    host_s = time.perf_counter() - t1
    assert_stage_counts_equal(first.metrics, sim)
    return {
        **_sim_rows(sim, host_s),
        "sim.simulator.host_us_per_frame": 1e6 * host_s / sim.frames_offered,
        "core.trace.build_s_per_kframe": (t1 - t0) / (n * len(prep.streams)) * 1e3,
    }
