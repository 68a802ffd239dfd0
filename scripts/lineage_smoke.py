"""CI smoke test for frame lineage & critical-path attribution.

Runs fast, in-process, over real sockets:

* ``/lineage?stream=&frame=`` serves one frame's hop table from a live
  :class:`TelemetryServer` (stream-id resolution via the pipeline's lineage
  context, partition property on the decomposition, 404 on unknown frames);
* ``/lineage`` without a frame serves the critical-path summary whose
  component shares sum to 1;
* the cluster plane stitches a handed-off stream across two instance
  endpoints: the source served frames ``[0, k)``, the destination the tail
  ``[k, end)`` on the handoff contract (``FrameTrace.sliced`` +
  ``arrival_offset``), and ``/lineage`` on the aggregator finds both sides,
  labels which side of the boundary the frame ran on, and merges cluster-wide
  wait/service histograms (``ffsva_cluster_stage_wait_seconds_hist_*``);
* ``ffs-va explain`` exits 0 and emits a parseable ``--json`` body;
* the telemetry-off hot path is unchanged: no lineage state is stamped, no
  lineage section appears in the metrics, and the counters equal a
  telemetry-on run's (overhead is reported, not gated — CI clocks are noisy).

Writes a ``LINEAGE_smoke.json`` summary artifact.  Exit code 0 means the
lineage story works on this interpreter.
"""

import dataclasses
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.core import FFSVAConfig, workload_trace  # noqa: E402
from repro.obs import (  # noqa: E402
    ClusterMetricsServer,
    MetricsAggregator,
    Telemetry,
    parse_prometheus,
)
from repro.sim import PipelineSimulator  # noqa: E402
from repro.video import jackson  # noqa: E402

N_FRAMES = 400
BOUNDARY = 160  # forced handoff: src served [0, 160), dst [160, 400)


def _get_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _run_sim(trace, config=None, telemetry=None):
    config = config or FFSVAConfig(telemetry=True)
    sim = PipelineSimulator(
        [trace] if not isinstance(trace, list) else trace,
        config,
        online=False,
        telemetry=telemetry,
    )
    metrics = sim.run()
    return sim, metrics


def check_live_lineage_endpoint() -> dict:
    """/lineage over a real socket: one frame's story plus the summary."""
    trace = workload_trace(jackson(), N_FRAMES, tor=0.3, seed=3)
    telemetry = Telemetry()
    sim, metrics = _run_sim(trace, telemetry=telemetry)
    server = telemetry.serve(
        lambda: metrics, port=0, lineage=sim.lineage_context
    )
    url = server.url
    try:
        status, body = _get_json(
            f"{server.url}/lineage?stream={trace.stream_id}&frame=25"
        )
        assert status == 200, body
        assert body["found"] and not body["incomplete"], body
        assert body["hops"], "no hops reconstructed"
        assert body["frame_local"] == 25
        for hop in body["hops"]:
            assert hop["complete"]
        totals = body["totals"]
        assert abs(totals["total"] - body["total_latency"]) < 1e-9, (
            f"partition {totals['total']} != recorded {body['total_latency']}"
        )

        status, summary = _get_json(f"{server.url}/lineage")
        assert status == 200
        assert summary["frames"] == N_FRAMES
        assert summary["incomplete"] == 0
        shares = sum(c["share"] for c in summary["components"].values())
        assert abs(shares - 1.0) < 1e-9, shares
        assert summary["quantiles"]["p99"]["top"] in summary["components"]

        status, missing = _get_json(
            f"{server.url}/lineage?stream={trace.stream_id}&frame=99999"
        )
        assert status == 404 and missing["found"] is False

        status, unknown = _get_json(f"{server.url}/lineage?stream=nope&frame=1")
        assert status == 404 and "unknown stream" in unknown["error"]
    finally:
        server.stop()
    print(
        f"lineage endpoint: frame story + summary over {url} — ok"
    )
    return {"frames": summary["frames"], "p99": summary["quantiles"]["p99"]}


def check_cluster_stitch() -> dict:
    """Cluster /lineage finds both sides of a handed-off stream."""
    base = workload_trace(jackson(), N_FRAMES, tor=0.3, seed=7)
    # The handoff contract: source ran [0, BOUNDARY), destination attached
    # the tail from exactly BOUNDARY on the original arrival clock.
    src_trace = base.sliced(0, BOUNDARY)
    dst_trace = base.sliced(BOUNDARY, N_FRAMES)
    config = FFSVAConfig(telemetry=True)

    tel_src = Telemetry()
    sim_src = PipelineSimulator(
        [src_trace], config, online=False, telemetry=tel_src
    )
    m_src = sim_src.run()
    tel_dst = Telemetry()
    sim_dst = PipelineSimulator([dst_trace], config, online=False, telemetry=tel_dst)
    # Stand in for a mid-run attach: the tail's frames are numbered from
    # BOUNDARY (the kernel keeps each stream's global-index offset).
    sim_dst.kernel.streams[0] = dataclasses.replace(
        sim_dst.kernel.streams[0], offset=BOUNDARY
    )
    m_dst = sim_dst.run()

    servers = [
        tel_src.serve(lambda: m_src, port=0, lineage=sim_src.lineage_context),
        tel_dst.serve(lambda: m_dst, port=0, lineage=sim_dst.lineage_context),
    ]
    handoffs = [
        {"stream": base.stream_id, "src": 0, "dst": 1, "boundary": BOUNDARY}
    ]
    try:
        aggregator = MetricsAggregator(
            {str(i): s.url for i, s in enumerate(servers)}
        )
        with ClusterMetricsServer(
            aggregator, port=0, handoffs=lambda: handoffs
        ) as cluster:
            # A frame each side of the boundary resolves to the right
            # instance with the right handoff side label.
            for frame, inst, side in ((40, "0", "src"), (200, "1", "dst")):
                status, body = _get_json(
                    f"{cluster.url}/lineage?stream={base.stream_id}&frame={frame}"
                )
                assert status == 200, (frame, body)
                assert body["found"], (frame, body)
                assert body["errors"] == {}, body["errors"]
                found_on = [
                    label
                    for label, reply in body["instances"].items()
                    if reply.get("found")
                ]
                assert found_on == [inst], (frame, found_on)
                assert body["handoff"]["side"] == side, (frame, body["handoff"])
                assert body["handoff"]["boundary"] == BOUNDARY
                assert all(h["instance"] == inst for h in body["hops"])
            status, nobody = _get_json(
                f"{cluster.url}/lineage?stream={base.stream_id}&frame=99999"
            )
            assert status == 404 and nobody["found"] is False

            # Cluster-wide histogram merge: the aggregated exposition's
            # wait/service histogram count equals the per-instance sums.
            text = urllib.request.urlopen(
                f"{cluster.url}/metrics", timeout=5
            ).read().decode()
        samples = parse_prometheus(text)
        for family in ("stage_wait_seconds", "stage_service_seconds"):
            name = f"ffsva_cluster_{family}_hist_count"
            merged = {
                labels["stage"]: value
                for n, labels, value in samples
                if n == name
            }
            assert merged, f"no {name} series in cluster /metrics"
            for stage, value in merged.items():
                expected = sum(
                    h.count
                    for tel in (tel_src, tel_dst)
                    for key, h in tel.histograms.get(family, {}).items()
                    if dict(key).get("stage") == stage
                )
                assert value == float(expected), (stage, value, expected)
    finally:
        for s in servers:
            s.stop()
    print(
        f"cluster stitch: boundary {BOUNDARY}, both sides found, labeled, "
        "histograms merged — ok"
    )
    return {"boundary": BOUNDARY, "instances": 2}


def check_cli_explain(tmp: Path) -> dict:
    """`ffs-va explain` exits 0, with a parseable --json body."""
    argv = [
        "explain", "--workload", "jackson", "--tor", "0.3",
        "--frames", str(N_FRAMES), "--frame", "25",
    ]
    assert cli_main(argv) == 0

    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv + ["--json"])
    assert rc == 0
    body = json.loads(buf.getvalue())
    assert body["found"] and body["hops"]

    # Summary form (no --frame) also exits 0.
    assert cli_main([
        "explain", "--workload", "jackson", "--tor", "0.3",
        "--frames", str(N_FRAMES),
    ]) == 0
    print("cli explain: frame table, --json body, summary — ok")
    return {"hops": len(body["hops"]), "disposition": body["disposition"]}


def check_telemetry_off_overhead() -> dict:
    """With telemetry off, the lineage plane leaves no trace on the hot path."""
    trace = workload_trace(jackson(), N_FRAMES, tor=0.3, seed=3)

    t0 = time.perf_counter()
    sim_off, m_off = _run_sim(trace, config=FFSVAConfig(), telemetry=None)
    t_off = time.perf_counter() - t0

    t0 = time.perf_counter()
    telemetry = Telemetry()
    sim_on, m_on = _run_sim(trace, telemetry=telemetry)
    t_on = time.perf_counter() - t0

    # No lineage state was ever stamped without telemetry...
    assert not any(sim_off.kernel.enter_t.values())
    assert "lineage" not in m_off.extra
    assert "stage_wait_seconds" not in (sim_off.telemetry or Telemetry()).histograms
    # ...and attaching it changes observability, never the outcome.
    assert m_on.extra["lineage"]["frames"] == N_FRAMES
    assert "stage_wait_seconds" in telemetry.histograms
    for stage, c in m_off.stages.items():
        c_on = m_on.stages[stage]
        assert (c.entered, c.passed, c.filtered) == (
            c_on.entered, c_on.passed, c_on.filtered
        ), stage
    ratio = t_on / t_off if t_off > 0 else float("inf")
    # Informational: CI wall clocks are too noisy to hard-gate a ratio.
    print(
        f"telemetry-off overhead: off {t_off * 1e3:.0f} ms, "
        f"on {t_on * 1e3:.0f} ms (x{ratio:.2f}) — hot path clean, ok"
    )
    return {"t_off_s": t_off, "t_on_s": t_on, "ratio": ratio}


def main() -> int:
    import tempfile

    summary = {}
    with tempfile.TemporaryDirectory() as d:
        summary["endpoint"] = check_live_lineage_endpoint()
        summary["cluster"] = check_cluster_stitch()
        summary["cli"] = check_cli_explain(Path(d))
        summary["overhead"] = check_telemetry_off_overhead()
    out = Path(__file__).resolve().parent.parent / "LINEAGE_smoke.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"lineage smoke: all checks passed ({out.name} written)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
