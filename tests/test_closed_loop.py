"""Closed-loop observability integration tests.

Four planes, one loop:

* **admission** — both runtimes drive the same sampler-fed
  :class:`~repro.core.admission.AdmissionController`, so configs with a
  deterministic outcome must produce *identical* decision logs on the wall
  clock and the virtual clock;
* **baseline telemetry** — the YOLOv2-everywhere baseline emits the same
  six-kind event schema as the cascade, so its trace overlays the FFS-VA
  trace on one timeline;
* **rotating trace export** — long runs segment into bounded files with a
  manifest, and ``max_segments`` caps total disk;
* **dashboard** — the committed Grafana JSON matches the generated model
  and every panel queries only exported metric families.
"""

import json

import pytest

from repro.baseline import baseline_offline, baseline_online
from repro.core import FFSVAConfig, build_trace
from repro.core.pipeline import STAGES
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.obs import (
    EVENT_KINDS,
    Telemetry,
    build_spans,
    overlay_chrome_trace,
    render_prometheus,
)
from repro.obs.trace import RotatingTraceWriter, dump_rotating_trace
from repro.runtime import ThreadedPipeline
from repro.sim import PipelineSimulator
from repro.video import jackson, make_stream

from tests.helpers import make_synth_trace

N_FRAMES = 240


@pytest.fixture(scope="module")
def fleet():
    """Two small trained streams plus their traces (one model zoo)."""
    zoo = ModelZoo()
    streams, traces = [], []
    for i, tor in enumerate((0.25, 0.45)):
        stream = make_stream(jackson(), N_FRAMES, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=120,
            stride=2,
            train_config=TrainConfig(epochs=6, batch_size=32, seed=7),
        )
        streams.append(stream)
        traces.append(build_trace(stream, zoo))
    return streams, traces, zoo


def _loop_config(**overrides):
    """Telemetry-on config with shed disabled (huge queue thresholds) so the
    admission decision sequence is deterministic across runtimes."""
    base = dict(
        telemetry=True,
        queue_depths={s: 10_000 for s in STAGES},
    )
    base.update(overrides)
    return FFSVAConfig(**base)


# ---------------------------------------------------------------------------
# cross-runtime admission equivalence
# ---------------------------------------------------------------------------
class TestCrossRuntimeAdmission:
    #: The threaded run is paced so that its schedule, not the host's speed,
    #: makes it outlast the 0.15 s admission window: 240 frames at 300 fps
    #: last 0.8 s, more than five windows.
    PACED = dict(online=True, paced_fps=300.0)

    def _labels(self, metrics):
        admission = metrics.extra["admission"]
        return [d["state"] for d in admission["decisions"]]

    def test_both_runtimes_admit_identically(self, fleet):
        # Threshold far above any achievable rate + a short window: every
        # runtime must conclude "spare capacity" exactly once.
        streams, traces, zoo = fleet
        config = _loop_config(admission_tyolo_fps=1e9, admission_window=0.15)
        m_real = ThreadedPipeline(streams, zoo, config).run(**self.PACED)
        m_sim = PipelineSimulator(traces, config, online=False).run()
        assert self._labels(m_real) == ["admit"]
        assert self._labels(m_sim) == ["admit"]
        assert m_real.extra["admission"]["rate_stage"] == "tyolo"
        assert m_sim.extra["admission"]["rate_stage"] == "tyolo"

    def test_both_runtimes_hold_identically(self, fleet):
        # A zero threshold can never be satisfied (strict <): no
        # transition is ever logged by either runtime.
        streams, traces, zoo = fleet
        config = _loop_config(admission_tyolo_fps=0.0, admission_window=0.15)
        m_real = ThreadedPipeline(streams, zoo, config).run(**self.PACED)
        m_sim = PipelineSimulator(traces, config, online=False).run()
        assert self._labels(m_real) == []
        assert self._labels(m_sim) == []
        assert m_real.extra["admission"]["state"] == "hold"
        assert m_sim.extra["admission"]["state"] == "hold"

    def test_sampler_carries_the_admission_signals(self, fleet):
        # The series the controller reads must actually be swept by the
        # runtime: stage_fps for the rate stage, queue_depth for the queues.
        _, traces, _ = fleet
        telemetry = Telemetry.from_config(_loop_config())
        sim = PipelineSimulator(traces, _loop_config(), online=False, telemetry=telemetry)
        sim.run()
        names = telemetry.sampler.names
        assert "stage_fps[tyolo]" in names
        assert any(n.startswith("queue_depth[") for n in names)
        assert sim.admission.sampler is telemetry.sampler


# ---------------------------------------------------------------------------
# baseline telemetry schema + overlay
# ---------------------------------------------------------------------------
def _baseline_traces(n_streams, n=300, seed=0):
    return [
        make_synth_trace(n, 0.7, 0.18, 0.10, seed=seed + i, stream_id=f"s{i}")
        for i in range(n_streams)
    ]


class TestBaselineTelemetry:
    def test_emits_shared_event_schema(self):
        telemetry = Telemetry()
        baseline_online(_baseline_traces(2), telemetry=telemetry)
        kinds = {e.kind for e in telemetry.bus.events()}
        assert kinds <= set(EVENT_KINDS)
        assert {"admission", "frame_enter", "batch_exec", "frame_pass"} <= kinds

    def test_blocked_streams_emit_queue_block(self):
        # Overload the two GPUs so the ref queue backs up.
        telemetry = Telemetry()
        baseline_online(_baseline_traces(8), telemetry=telemetry)
        kinds = {e.kind for e in telemetry.bus.events()}
        assert "queue_block" in kinds

    def test_samples_and_latency_histograms(self):
        telemetry = Telemetry()
        metrics = baseline_offline(_baseline_traces(1), telemetry=telemetry)
        names = telemetry.sampler.names
        assert "queue_depth[ref]" in names
        assert "stage_fps[ref]" in names
        assert any(n.startswith("device_utilization[") for n in names)
        rendered = render_prometheus(metrics, telemetry)
        assert "ffsva_frame_latency_seconds_hist_bucket" in rendered
        assert "ffsva_stage_exec_seconds_hist_bucket" in rendered

    def test_spans_build_from_baseline_events(self):
        telemetry = Telemetry()
        baseline_online(_baseline_traces(1, n=120), telemetry=telemetry)
        spans = build_spans(telemetry.bus.events(), terminal="ref")
        analyzed = [s for s in spans if s.disposition == "analyzed"]
        assert len(analyzed) == 120
        assert all(s.stage == "ref" for s in spans)
        assert all(s.t_end >= s.t_start >= 0.0 for s in spans)

    def test_overlay_puts_both_runs_on_one_timeline(self, fleet):
        _, traces, _ = fleet
        tel_ffsva = Telemetry()
        PipelineSimulator(traces, _loop_config(), online=False, telemetry=tel_ffsva).run()
        tel_base = Telemetry()
        baseline_online(_baseline_traces(1, n=120), telemetry=tel_base)
        merged = overlay_chrome_trace(
            {"ffsva": tel_ffsva.spans(), "baseline": tel_base.spans()}
        )
        names = {
            e["args"]["name"]
            for e in merged["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert any(n.startswith("ffsva:stream-") for n in names)
        assert any(n.startswith("baseline:stream-") for n in names)
        # Disjoint pid ranges keep the runs as separate Perfetto processes.
        ffsva_pids = {
            e["pid"]
            for e in merged["traceEvents"]
            if e.get("name") == "process_name"
            and e["args"]["name"].startswith("ffsva:")
        }
        base_pids = {
            e["pid"]
            for e in merged["traceEvents"]
            if e.get("name") == "process_name"
            and e["args"]["name"].startswith("baseline:")
        }
        assert ffsva_pids and base_pids and not (ffsva_pids & base_pids)


# ---------------------------------------------------------------------------
# rotating trace export
# ---------------------------------------------------------------------------
class TestRotatingTraceExport:
    @pytest.fixture(scope="class")
    def long_run_spans(self):
        telemetry = Telemetry()
        trace = make_synth_trace(1500, 0.8, 0.5, 0.3, seed=5)
        PipelineSimulator(
            [trace], FFSVAConfig(telemetry=True), online=False, telemetry=telemetry
        ).run()
        spans = telemetry.spans()
        assert len(spans) > 1500  # multiple stage visits per frame
        return spans

    def test_segments_respect_byte_bound(self, long_run_spans, tmp_path):
        manifest = dump_rotating_trace(tmp_path, long_run_spans, max_bytes=16384)
        assert len(manifest["segments"]) >= 2
        for entry in manifest["segments"]:
            path = tmp_path / entry["file"]
            assert path.stat().st_size <= 16384
            assert path.stat().st_size == entry["bytes"]
            # Every segment is a self-contained, loadable trace.
            data = json.loads(path.read_text())
            assert data["traceEvents"]
            assert any(e.get("name") == "process_name" for e in data["traceEvents"])

    def test_manifest_indexes_segments_in_time_order(self, long_run_spans, tmp_path):
        manifest = dump_rotating_trace(tmp_path, long_run_spans, max_bytes=16384)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        segs = manifest["segments"]
        assert sum(s["spans"] for s in segs) == len(long_run_spans)
        starts = [s["t_start"] for s in segs]
        assert starts == sorted(starts)
        assert manifest["dropped_segments"] == 0

    def test_max_segments_bounds_disk(self, long_run_spans, tmp_path):
        manifest = dump_rotating_trace(
            tmp_path, long_run_spans, max_bytes=16384, max_segments=2
        )
        assert manifest["dropped_segments"] > 0
        assert len(manifest["segments"]) == 2
        files = sorted(p.name for p in tmp_path.glob("trace-*.json"))
        assert files == [s["file"] for s in manifest["segments"]]

    def test_max_span_rolls_segments(self, long_run_spans, tmp_path):
        manifest = dump_rotating_trace(
            tmp_path, long_run_spans, max_bytes=50_000_000, max_span=2.0
        )
        assert len(manifest["segments"]) >= 2
        # The roll check fires on t_end, but a span entering long before it
        # executes can stretch a segment's extent by its queue residency.
        residency = max(s.t_end - s.t_enter for s in long_run_spans)
        for entry in manifest["segments"]:
            assert entry["t_end"] - entry["t_start"] <= 2.0 + residency

    def test_writer_validates_and_guards_close(self, tmp_path):
        with pytest.raises(ValueError):
            RotatingTraceWriter(tmp_path, max_bytes=100)
        with pytest.raises(ValueError):
            RotatingTraceWriter(tmp_path, max_span=0.0)
        with pytest.raises(ValueError):
            RotatingTraceWriter(tmp_path, max_segments=0)
        writer = RotatingTraceWriter(tmp_path)
        manifest = writer.close()
        assert manifest["segments"] == []

    def test_telemetry_dump_helper(self, tmp_path):
        telemetry = Telemetry()
        trace = make_synth_trace(300, 0.8, 0.5, 0.3, seed=6)
        PipelineSimulator(
            [trace], FFSVAConfig(telemetry=True), online=False, telemetry=telemetry
        ).run()
        manifest = telemetry.dump_rotating_trace(tmp_path, max_bytes=8192)
        assert manifest["segments"]
        assert (tmp_path / "manifest.json").exists()


# ---------------------------------------------------------------------------
# dashboard plane
# ---------------------------------------------------------------------------
class TestDashboardPlane:
    def test_generated_dashboard_validates_against_registry(self):
        from repro.obs.dashboard import grafana_dashboard, validate_dashboard

        assert validate_dashboard(grafana_dashboard()) == []

    def test_every_panel_family_is_served_by_a_live_run(self):
        from repro.obs.dashboard import validate_dashboard

        telemetry = Telemetry()
        trace = make_synth_trace(300, 0.8, 0.5, 0.3, seed=7)
        metrics = PipelineSimulator(
            [trace], FFSVAConfig(telemetry=True), online=False, telemetry=telemetry
        ).run()
        rendered = render_prometheus(metrics, telemetry)
        assert validate_dashboard(rendered=rendered) == []

    def test_committed_json_matches_generated_model(self):
        from pathlib import Path

        from repro.obs.dashboard import dashboard_json

        path = Path(__file__).resolve().parent.parent / "dashboards" / "grafana_ffsva.json"
        assert path.exists(), "run scripts/validate_dashboard.py --write"
        assert path.read_text() == dashboard_json()

    def test_extract_families_resolves_derived_series(self):
        from repro.obs.dashboard import extract_families

        fams = extract_families(
            "histogram_quantile(0.99, rate("
            "ffsva_frame_latency_seconds_hist_bucket[5m])) "
            "/ ffsva_throughput_fps"
        )
        assert fams == {"frame_latency_seconds_hist", "throughput_fps"}

    def test_unknown_family_is_reported(self):
        from repro.obs.dashboard import grafana_dashboard, validate_dashboard

        dashboard = grafana_dashboard()
        dashboard["panels"][0]["targets"][0]["expr"] = "ffsva_not_a_family_total"
        problems = validate_dashboard(dashboard)
        assert problems and "not_a_family" in problems[0]
