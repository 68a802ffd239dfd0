"""CI smoke test for the telemetry subsystem — fast and in-process.

Runs a short simulated analysis with telemetry attached, then exercises
every plane end to end:

* the event bus saw all six event kinds' worth of traffic and the per-stage
  disposition events reproduce ``RunMetrics.stages`` exactly;
* per-frame spans reconstruct and the Chrome trace JSON loads;
* the HTTP export plane serves ``/metrics`` (Prometheus text, per-stage
  counters matching the run) and ``/snapshot`` (JSON) over a real socket;
* ``RunMetrics`` round-trips through its JSON form;
* the YOLOv2-everywhere baseline emits the same event schema and serves the
  same ``/metrics`` exposition over a real socket;
* a long run segments into a rotated multi-file trace with a manifest, and
  the ``/traces`` endpoint serves those segments back by time range over a
  real socket (retention-aware: rotated-out files are reported, not 500s);
* two instances' ``/metrics`` aggregate into one labeled exposition whose
  ``ffsva_cluster_*`` sums match the per-instance ledgers;
* the CLI accepts ``--telemetry``/``--metrics-json``/``--trace-json`` and
  writes loadable artifacts.

Exit code 0 means the telemetry story works on this interpreter; any
assertion failure or exception fails the CI step.
"""

import json
import sys
import tempfile
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.core import FFSVAConfig, RunMetrics, workload_trace  # noqa: E402
from repro.obs import EVENT_KINDS, Telemetry  # noqa: E402
from repro.sim import PipelineSimulator  # noqa: E402
from repro.video import jackson  # noqa: E402

N_FRAMES = 400


def check_simulator_run(tmp: Path) -> None:
    config = FFSVAConfig(telemetry=True)
    telemetry = Telemetry.from_config(config)
    trace = workload_trace(jackson(), N_FRAMES, tor=0.3, seed=3)
    sim = PipelineSimulator([trace], config, online=False, telemetry=telemetry)
    metrics = sim.run()

    # Event plane: schema and counter agreement.
    events = telemetry.bus.events()
    assert events, "telemetry run produced no events"
    assert telemetry.bus.dropped == 0
    assert {e.kind for e in events} <= set(EVENT_KINDS)
    for stage, c in metrics.stages.items():
        dispositions = [
            e for e in events
            if e.stage == stage and e.kind in ("frame_pass", "frame_filter")
        ]
        assert len(dispositions) == c.entered, (
            f"{stage}: {len(dispositions)} disposition events != {c.entered} entered"
        )

    # Trace plane: spans reconstruct, Chrome JSON loads from disk.
    spans = telemetry.spans(terminal="ref")
    assert spans
    trace_path = tmp / "trace.json"
    telemetry.dump_chrome_trace(trace_path, terminal="ref")
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"], "chrome trace has no events"

    # Export plane over a real socket.
    server = telemetry.serve(lambda: metrics, port=0)
    try:
        text = urllib.request.urlopen(f"{server.url}/metrics", timeout=5).read().decode()
        for stage, c in metrics.stages.items():
            needle = f'ffsva_stage_frames_entered_total{{stage="{stage}"}} {c.entered}'
            assert needle in text, f"missing {needle!r} in /metrics"
        snap = json.loads(
            urllib.request.urlopen(f"{server.url}/snapshot", timeout=5).read()
        )
        assert snap["metrics"]["frames_ingested"] == metrics.frames_ingested
        assert snap["series"], "no sampled time-series in /snapshot"
    finally:
        server.stop()

    # Metrics serialization round-trip.
    clone = RunMetrics.from_json(metrics.to_json())
    assert clone.to_dict() == metrics.to_dict()
    print(
        f"simulator: {telemetry.bus.published} events, {len(spans)} spans, "
        f"{len(telemetry.sampler.names)} series — ok"
    )


def check_baseline_run(tmp: Path) -> None:
    """The baseline runtime speaks the same telemetry dialect."""
    from repro.baseline import baseline_offline  # noqa: E402

    telemetry = Telemetry()
    trace = workload_trace(jackson(), N_FRAMES, tor=0.3, seed=3)
    metrics = baseline_offline([trace], telemetry=telemetry)

    events = telemetry.bus.events()
    assert events, "baseline run produced no events"
    kinds = {e.kind for e in events}
    assert kinds <= set(EVENT_KINDS)
    assert {"admission", "frame_enter", "batch_exec", "frame_pass"} <= kinds
    spans = telemetry.spans(terminal="ref")
    assert sum(1 for s in spans if s.disposition == "analyzed") == N_FRAMES

    server = telemetry.serve(lambda: metrics, port=0)
    try:
        text = urllib.request.urlopen(f"{server.url}/metrics", timeout=5).read().decode()
        needle = f'ffsva_stage_frames_entered_total{{stage="ref"}} {N_FRAMES}'
        assert needle in text, f"missing {needle!r} in baseline /metrics"
        assert "ffsva_telemetry_events_total" in text
        assert 'ffsva_sample_gauge{series="stage_fps[ref]"}' in text
    finally:
        server.stop()
    print(
        f"baseline: {telemetry.bus.published} events, {len(spans)} spans, "
        "/metrics served — ok"
    )


def check_rotating_trace(tmp: Path) -> None:
    """A longer run rotates into bounded segments plus a manifest."""
    max_bytes = 16384
    telemetry = Telemetry()
    trace = workload_trace(jackson(), 3 * N_FRAMES, tor=0.3, seed=9)
    PipelineSimulator(
        [trace], FFSVAConfig(telemetry=True), online=False, telemetry=telemetry
    ).run()
    out = tmp / "segments"
    manifest = telemetry.dump_rotating_trace(out, max_bytes=max_bytes, label="ffsva")
    segments = manifest["segments"]
    assert len(segments) >= 2, "long run did not rotate into multiple segments"
    for entry in segments:
        path = out / entry["file"]
        assert path.stat().st_size <= max_bytes, (
            f"{entry['file']}: {path.stat().st_size} bytes > {max_bytes}"
        )
        assert json.loads(path.read_text())["traceEvents"]
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest
    print(f"rotating trace: {len(segments)} segments, all <= {max_bytes} B — ok")

    # /traces endpoint: the manifest, a time-ranged merge, and retention.
    from repro.obs import TelemetryServer  # noqa: E402

    server = TelemetryServer(
        lambda: (RunMetrics(), Telemetry()), port=0, trace_dir=str(out)
    ).start()
    try:
        served = json.loads(
            urllib.request.urlopen(f"{server.url}/traces", timeout=5).read()
        )
        assert served["segments"] == segments
        t0, t1 = segments[0]["t_start"], segments[0]["t_end"]
        ranged = json.loads(
            urllib.request.urlopen(
                f"{server.url}/traces?t0={t0}&t1={t1}&merge=1", timeout=5
            ).read()
        )
        assert ranged["segments"], "time range matched no segments"
        assert ranged["traceEvents"], "merged trace is empty"
        assert ranged["missing"] == []
        # Simulate retention: delete the oldest segment file and re-query.
        (out / segments[0]["file"]).unlink()
        ranged = json.loads(
            urllib.request.urlopen(
                f"{server.url}/traces?t0=0&t1=1e9", timeout=5
            ).read()
        )
        assert ranged["missing"] == [segments[0]["file"]]
    finally:
        server.stop()
    print("traces endpoint: manifest, time-range merge, retention — ok")


def check_aggregated_metrics(tmp: Path) -> None:
    """Two instance endpoints roll up into one cluster exposition."""
    from repro.obs import (  # noqa: E402
        ClusterMetricsServer,
        MetricsAggregator,
        TelemetryServer,
        parse_prometheus,
    )

    config = FFSVAConfig(telemetry=True)
    runs = []
    for seed in (3, 5):
        telemetry = Telemetry.from_config(config)
        trace = workload_trace(jackson(), N_FRAMES, tor=0.3, seed=seed)
        metrics = PipelineSimulator(
            [trace], config, online=False, telemetry=telemetry
        ).run()
        runs.append((metrics, telemetry))

    servers = [
        TelemetryServer(lambda m=m, t=t: (m, t), port=0).start() for m, t in runs
    ]
    try:
        aggregator = MetricsAggregator(
            {str(i): s.url for i, s in enumerate(servers)}
        )
        with ClusterMetricsServer(aggregator, port=0) as cluster:
            text = urllib.request.urlopen(
                f"{cluster.url}/metrics", timeout=5
            ).read().decode()
            instances = json.loads(
                urllib.request.urlopen(f"{cluster.url}/instances", timeout=5).read()
            )
        assert instances["errors"] == {}, instances["errors"]
        samples = parse_prometheus(text)
        per_instance = {
            labels["instance"]: value
            for name, labels, value in samples
            if name == "ffsva_frames_offered_total"
        }
        for i, (metrics, _) in enumerate(runs):
            assert per_instance[str(i)] == metrics.frames_offered
        sums = [v for n, _, v in samples if n == "ffsva_cluster_frames_offered_total"]
        expected = float(sum(m.frames_offered for m, _ in runs))
        assert sums == [expected], f"cluster sum {sums} != {expected}"
        errors = [v for n, _, v in samples if n == "ffsva_cluster_scrape_errors_total"]
        assert errors == [0.0]
    finally:
        for s in servers:
            s.stop()
    print(
        f"aggregated metrics: {len(servers)} instances, cluster sum "
        f"{int(expected)} frames — ok"
    )


def check_cli(tmp: Path) -> None:
    metrics_path = tmp / "metrics.json"
    trace_path = tmp / "cli_trace.json"
    rc = cli_main([
        "simulate", "--workload", "jackson", "--tor", "0.3",
        "--frames", str(N_FRAMES), "--telemetry",
        "--metrics-json", str(metrics_path), "--trace-json", str(trace_path),
    ])
    assert rc == 0
    m = RunMetrics.from_json(metrics_path.read_text())
    assert m.frames_ingested == N_FRAMES
    assert json.loads(trace_path.read_text())["traceEvents"]
    print("cli: metrics + chrome trace artifacts written — ok")


def main() -> int:
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        check_simulator_run(tmp)
        check_baseline_run(tmp)
        check_rotating_trace(tmp)
        check_aggregated_metrics(tmp)
        check_cli(tmp)
    print("telemetry smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
