"""Detection store + query tier: serializers, segments, queries, serving.

The acceptance spine is cross-runtime: a threaded run, a simulated run,
and a two-instance (simulated) cluster run with a forced mid-run stream
handoff over the same workload must answer count/top-k queries
identically from their persisted stores — the store-level analogue of
``assert_stage_counts_equal``.
"""

import json
import os
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.detection_eval import evaluate_map_from_store
from repro.core import FFSVAConfig, build_trace
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.obs.export import ClusterMetricsServer, MetricsAggregator, TelemetryServer
from repro.runtime import ThreadedPipeline
from repro.sim import PipelineSimulator
from repro.sim.cluster import ClusterSimulator
from repro.store import (
    DetectionRecord,
    DetStore,
    DetStoreReader,
    MultiReader,
    assert_store_rows_equal,
    count_detections,
    open_store,
    recover_store,
    replay_detections,
    top_k_streams,
    window_aggregate,
)
from repro.store.server import SubscriptionHub, query_reply, sse_event
from repro.video import jackson, make_stream
from tests.helpers import make_synth_trace

N_FRAMES = 160


# ---------------------------------------------------------------------------
# serializer property tests (satellite a)
# ---------------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)
_records = st.builds(
    DetectionRecord,
    stream=_text,
    frame=st.integers(min_value=-(2**62), max_value=2**62),
    t=_finite,
    cls=_text,
    box=st.one_of(st.none(), st.tuples(_finite, _finite, _finite, _finite)),
    score=_finite,
    disposition=st.sampled_from(["ref", "sdd", "snm", "tyolo", "dropped", "aborted"]),
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestRecordSerializers:
    @settings(max_examples=120, deadline=None)
    @given(rec=_records)
    def test_json_round_trip_is_bit_stable(self, rec):
        back = DetectionRecord.from_json(rec.to_json())
        assert back == rec
        assert _bits(back.t) == _bits(rec.t)
        assert _bits(back.score) == _bits(rec.score)
        if rec.box is not None:
            for a, b in zip(back.box, rec.box):
                assert _bits(a) == _bits(b)

    @settings(max_examples=120, deadline=None)
    @given(rec=_records)
    def test_binary_round_trip_is_bit_stable(self, rec):
        back = DetectionRecord.from_bytes(rec.to_bytes())
        assert back == rec
        assert _bits(back.t) == _bits(rec.t)
        assert back.disposition == rec.disposition

    @settings(max_examples=60, deadline=None)
    @given(rec=_records)
    def test_formats_agree(self, rec):
        assert DetectionRecord.from_json(rec.to_json()) == DetectionRecord.from_bytes(
            rec.to_bytes()
        )

    def test_binary_rejects_trailing_garbage(self):
        rec = DetectionRecord("s", 1, 0.5, "car", None, 1.0, "ref")
        with pytest.raises(ValueError):
            DetectionRecord.from_bytes(rec.to_bytes() + b"xx")


# ---------------------------------------------------------------------------
# segment lifecycle edge cases (satellite c)
# ---------------------------------------------------------------------------


def _fixed_width_record(i: int) -> DetectionRecord:
    """Records whose jsonl encoding has identical width for i in [10, 99]."""
    assert 10 <= i <= 99
    return DetectionRecord("sX", i, float(i), "car", None, 1.0, "ref")


class TestSegmentLifecycle:
    def test_rotation_at_exact_byte_boundary(self, tmp_path):
        width = len(_fixed_width_record(10).to_json().encode()) + 1  # newline
        per_seg = -(-512 // width)  # ceil: segment_bytes is an exact multiple
        store = DetStore(tmp_path, segment_bytes=per_seg * width, terminal="ref")
        n = per_seg * 3  # exactly three boundary-full segments
        for i in range(n):
            store.append(_fixed_width_record(10 + i % 90))
        manifest = store.close()
        segs = manifest["segments"]
        # A record landing exactly on the boundary stays in its segment: every
        # sealed segment is exactly full, none ever exceeds the bound.
        assert [s["rows"] for s in segs] == [per_seg] * 3
        assert all(s["bytes"] == store.segment_bytes for s in segs)
        assert len(DetStoreReader(tmp_path).records()) == n

    def test_retention_deletes_oldest_and_counts_drops(self, tmp_path):
        store = DetStore(tmp_path, segment_bytes=512, max_segments=2, terminal="ref")
        for i in range(60):
            store.append(_fixed_width_record(10 + i % 90))
        manifest = store.close()
        assert len(manifest["segments"]) <= 2
        assert manifest["dropped_segments"] > 0
        assert manifest["dropped_rows"] > 0
        on_disk = [n for n in os.listdir(tmp_path) if n.startswith("det-")]
        assert sorted(on_disk) == sorted(s["file"] for s in manifest["segments"])
        # Surviving rows = appended - dropped, all still readable.
        reader = DetStoreReader(tmp_path)
        assert len(reader.records()) == 60 - manifest["dropped_rows"]

    def test_segment_deleted_mid_query_is_reported_not_fatal(self, tmp_path):
        store = DetStore(tmp_path, segment_bytes=512, terminal="ref")
        for i in range(40):
            store.append(_fixed_width_record(10 + i))
        manifest = store.close()
        victim = manifest["segments"][0]
        # The reader trusts the manifest it just read; retention (or an
        # operator) deletes the oldest segment before the file is opened.
        os.remove(tmp_path / victim["file"])
        reader = DetStoreReader(tmp_path)
        rows = reader.records()
        assert victim["file"] in reader.missing
        assert len(rows) == 40 - victim["rows"]

    def test_crash_mid_segment_write_reads_prefix_and_recovers(self, tmp_path):
        store = DetStore(tmp_path, segment_bytes=100_000, terminal="ref")
        for i in range(30):
            store.append(_fixed_width_record(10 + i))
        store.flush()
        # Simulated crash: the process dies mid-append — the live segment has
        # a truncated last line and the manifest never saw a seal.
        live = [n for n in os.listdir(tmp_path) if n.startswith("det-")]
        assert len(live) == 1
        path = tmp_path / live[0]
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        # An unsuspecting reader sees every complete row, no error.
        reader = DetStoreReader(tmp_path)
        assert len(reader.records()) == 29
        assert reader.manifest()["segments"] == []  # live file was unmanifested
        # recover_store seals what survived into a fresh manifest.
        manifest = recover_store(tmp_path)
        assert manifest["recovered"] is True
        assert [s["rows"] for s in manifest["segments"]] == [29]
        assert manifest["segments"][0]["detected"] == 29
        assert len(DetStoreReader(tmp_path).records()) == 29

    def test_time_index_prunes_untouched_segments(self, tmp_path):
        store = DetStore(tmp_path, segment_bytes=512, terminal="ref")
        for i in range(60):
            store.append(_fixed_width_record(10 + i))  # t = 10..69
        manifest = store.close()
        assert len(manifest["segments"]) >= 4
        reader = DetStoreReader(tmp_path)
        all_rows = reader.records()
        opened_all = list(reader.last_opened)
        some = reader.records(t0=30.0, t1=35.0)
        assert [r.frame for r in some] == list(range(30, 36))
        assert len(reader.last_opened) < len(opened_all)
        assert len(all_rows) == 60

    def test_closed_store_rejects_appends(self, tmp_path):
        store = DetStore(tmp_path, terminal="ref")
        store.close()
        with pytest.raises(RuntimeError):
            store.append(_fixed_width_record(10))

    def test_from_config_disabled_by_default(self):
        assert DetStore.from_config(FFSVAConfig(), terminal="ref") is None


# ---------------------------------------------------------------------------
# query engine
# ---------------------------------------------------------------------------


@pytest.fixture
def small_store(tmp_path):
    store = DetStore(tmp_path, terminal="ref")
    for i in range(30):
        stream = "s0" if i % 3 else "s1"
        disp = "ref" if i % 2 else "sdd"
        store.append(
            DetectionRecord(stream, i, i / 30.0, "car", None, float(i % 2), disp)
        )
    store.close()
    return DetStoreReader(tmp_path)


class TestQueries:
    def test_count_with_filters(self, small_store):
        total = count_detections(small_store, disposition="any")
        assert total == 30
        detected = count_detections(small_store)
        assert detected == 15
        assert count_detections(small_store, disposition="sdd") == 15
        s0 = count_detections(small_store, stream="s0")
        s1 = count_detections(small_store, stream="s1")
        assert s0 + s1 == detected

    def test_empty_range_and_unknown_stream(self, small_store):
        assert count_detections(small_store, t0=100.0, t1=200.0) == 0
        assert count_detections(small_store, stream="nope") == 0
        assert count_detections(small_store, cls="zebra") == 0
        assert top_k_streams(small_store, 3, t0=100.0) == []
        assert window_aggregate(small_store, 1.0, stream="nope") == []

    def test_top_k_order_and_ties(self, small_store):
        top = top_k_streams(small_store, 5)
        assert top[0][0] == "s0" and top[0][1] > top[1][1]
        assert top_k_streams(small_store, 1) == top[:1]

    def test_window_aggregate_conserves_counts(self, small_store):
        bins = window_aggregate(small_store, 0.25, disposition="any")
        assert sum(b["count"] for b in bins) == 30
        for b in bins:
            assert b["t1"] - b["t0"] == pytest.approx(0.25)
        assert max(b["score_max"] for b in bins) == 1.0

    def test_open_store_single_vs_cluster_layout(self, tmp_path):
        parent = tmp_path / "cluster"
        for i, n in enumerate((4, 6)):
            sub = DetStore(parent / f"instance-{i}", terminal="ref")
            for j in range(n):
                sub.append(DetectionRecord(f"s{i}", j, j / 30.0, "car", None, 1.0, "ref"))
            sub.close()
        merged = open_store(parent)
        assert isinstance(merged, MultiReader)
        assert count_detections(merged) == 10
        solo = open_store(parent / "instance-1")
        assert isinstance(solo, DetStoreReader)
        assert count_detections(solo) == 6
        with pytest.raises(FileNotFoundError):
            open_store(tmp_path / "nothing-here")


# ---------------------------------------------------------------------------
# cross-runtime + cluster-handoff acceptance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet():
    """Two small trained streams plus with-ref traces (one model zoo)."""
    zoo = ModelZoo()
    streams, traces = [], []
    for i, tor in enumerate((0.3, 0.5)):
        stream = make_stream(jackson(), N_FRAMES, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=100,
            stride=2,
            train_config=TrainConfig(epochs=4, batch_size=32, seed=7),
        )
        streams.append(stream)
        traces.append(build_trace(stream, zoo, with_ref=True))
    return streams, traces, zoo


def _answers(reader):
    return {
        "detected": count_detections(reader),
        "any": count_detections(reader, disposition="any"),
        "topk": top_k_streams(reader, 5),
    }


class TestCrossRuntimeStoreEquivalence:
    def test_threaded_sim_and_handoff_cluster_answer_identically(
        self, fleet, tmp_path
    ):
        streams, traces, zoo = fleet
        cfg = FFSVAConfig(store_segment_kb=4)

        # 1. Threaded run with real inference.
        pipe = ThreadedPipeline(
            streams, zoo, cfg.with_(result_store_dir=str(tmp_path / "threaded"))
        )
        pipe.run()
        threaded = DetStoreReader(tmp_path / "threaded")

        # 2. Simulated run over the traces of the same models.
        sim = PipelineSimulator(
            traces,
            cfg.with_(result_store_dir=str(tmp_path / "sim")),
            online=False,
        )
        sim.run()
        simulated = DetStoreReader(tmp_path / "sim")

        # Row-for-row equality, not just aggregate agreement.
        assert_store_rows_equal(threaded, simulated, context="threaded vs sim")

        # 3. Two-instance cluster with a forced mid-run handoff: stream 0
        #    moves from instance 0 to instance 1 at a frame boundary k.
        parent = tmp_path / "cluster"
        inst = [
            PipelineSimulator(
                [traces[i]],
                cfg.with_(result_store_dir=str(parent / f"instance-{i}")),
                online=True,
            )
            for i in range(2)
        ]
        for i in range(2):
            inst[i].advance(2.0)
        k = inst[0].detach_stream(0)
        assert 0 < k < N_FRAMES, "handoff must happen mid-stream"
        inst[1].attach_stream(traces[0].sliced(k, N_FRAMES), arrival_offset=k)
        for i in range(2):
            inst[i].advance()
            inst[i].finalize()
        cluster = open_store(parent)

        a_threaded, a_sim, a_cluster = (
            _answers(threaded),
            _answers(simulated),
            _answers(cluster),
        )
        assert a_threaded == a_sim == a_cluster
        assert a_threaded["any"] == 2 * N_FRAMES

        # The handoff preserved exactly-one-record-per-outcome: merging the
        # instance stores reproduces the solo run's rows exactly.
        assert_store_rows_equal(simulated, cluster, context="sim vs cluster")

    def test_store_backed_evaluation(self, fleet, tmp_path):
        streams, traces, zoo = fleet
        sim = PipelineSimulator(
            [traces[0]],
            FFSVAConfig(result_store_dir=str(tmp_path / "ev")),
            online=False,
        )
        sim.run()
        reader = DetStoreReader(tmp_path / "ev")
        result = evaluate_map_from_store(zoo.reference, streams[0], reader)
        assert result["n_frames"] == count_detections(reader, stream=streams[0].stream_id)
        assert result["n_frames"] > 0
        assert 0.0 <= result["map"] <= 1.0

    def test_replay_respects_memory_budget(self, fleet, tmp_path):
        streams, traces, zoo = fleet
        sim = PipelineSimulator(
            [traces[0]],
            FFSVAConfig(result_store_dir=str(tmp_path / "rp")),
            online=False,
        )
        sim.run()
        reader = DetStoreReader(tmp_path / "rp")
        stream = streams[0]
        before = stream.stats()
        result = replay_detections(reader, stream, detector=zoo.reference)
        assert result.frames == [
            r.frame for r in sorted(reader.records(), key=lambda r: r.frame)
            if r.disposition == "ref"
        ]
        assert len(result.frames) > 8
        # The fleet fixture trained on and traced this stream, so every
        # replayed frame is read back from its stored clip: nothing rendered,
        # one frame resident at a time, the clip itself on disk.
        after = result.clip_stats
        assert after["frames_rendered"] == before["frames_rendered"]
        assert after["frames_read"] - before["frames_read"] == len(result.frames)
        h, w = stream.shape
        assert after["resident_bytes"] < h * w * 4 < after["stored_bytes"]
        # Replay-produced records carry boxes the live sink never stores.
        assert all(r.disposition == "replay" and r.box is not None
                   for r in result.records)

    def test_cluster_simulator_writes_per_instance_stores(self, tmp_path):
        traces = [
            make_synth_trace(90, 0.8, 0.6, 0.4, seed=s, stream_id=f"st{s}",
                             with_ref=True)
            for s in range(4)
        ]
        parent = tmp_path / "csim"
        cfg = FFSVAConfig(
            cluster_instances=2,
            result_store_dir=str(parent),
            store_segment_kb=4,
        )
        ClusterSimulator(traces, cfg, online=True).run()
        assert sorted(os.listdir(parent)) == ["instance-0", "instance-1"]
        merged = open_store(parent)
        assert count_detections(merged, disposition="any") == 4 * 90
        solo = PipelineSimulator(
            traces,
            FFSVAConfig(result_store_dir=str(tmp_path / "solo")),
            online=True,
        )
        solo.run()
        assert _answers(merged) == _answers(open_store(tmp_path / "solo"))


# ---------------------------------------------------------------------------
# serving surface: /query, /subscribe (SSE + long-poll), /snapshot, fan-out
# ---------------------------------------------------------------------------


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


class TestServingSurface:
    def _store(self, directory, n=20):
        store = DetStore(directory, terminal="ref")
        for i in range(n):
            store.append(
                DetectionRecord(
                    "s0" if i % 2 else "s1", i, i / 30.0, "car", None,
                    1.0, "ref" if i % 4 else "sdd",
                )
            )
        return store

    def test_query_endpoint_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        store.close()
        server = TelemetryServer(lambda: (None, None), store_dir=str(tmp_path)).start()
        try:
            doc = _get_json(f"{server.url}/query?q=count")
            assert doc["count"] == 15
            doc = _get_json(f"{server.url}/query?q=count&disposition=any&stream=s0")
            assert doc["count"] == 10
            doc = _get_json(f"{server.url}/query?q=topk&k=1")
            assert len(doc["top"]) == 1
            doc = _get_json(f"{server.url}/query?q=windows&window=0.25&disposition=any")
            assert sum(b["count"] for b in doc["windows"]) == 20
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get_json(f"{server.url}/query?q=bogus")
            assert exc.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get_json(f"{server.url}/query?q=count&t0=abc")
            assert exc.value.code == 400
        finally:
            server.stop()

    def test_snapshot_carries_store_section(self, tmp_path):
        store = self._store(tmp_path, n=5)
        server = TelemetryServer(lambda: (None, None), store=store).start()
        try:
            snap = _get_json(f"{server.url}/snapshot")
            assert snap["store"]["seq"] == 5
            assert len(snap["store"]["recent"]) == 0  # appended before the hub
            store.append(DetectionRecord("s9", 99, 3.3, "car", None, 1.0, "ref"))
            snap = _get_json(f"{server.url}/snapshot")
            assert snap["store"]["recent"][-1]["stream"] == "s9"
        finally:
            server.stop()
            store.close()

    def test_long_poll_subscription(self, tmp_path):
        store = self._store(tmp_path, n=0)
        server = TelemetryServer(lambda: (None, None), store=store).start()
        try:
            doc = _get_json(f"{server.url}/subscribe?mode=poll&after=0")
            assert doc == {"next": 0, "records": []}
            store.append(DetectionRecord("s0", 1, 0.1, "car", None, 1.0, "ref"))
            store.append(DetectionRecord("s0", 2, 0.2, "car", None, 0.0, "sdd"))
            doc = _get_json(f"{server.url}/subscribe?mode=poll&after=0")
            assert doc["next"] == 2
            assert [r["frame"] for r in doc["records"]] == [1, 2]
            doc = _get_json(f"{server.url}/subscribe?mode=poll&after=2")
            assert doc["records"] == []
        finally:
            server.stop()
            store.close()

    def test_sse_subscription_over_real_socket(self, tmp_path):
        store = self._store(tmp_path, n=0)
        server = TelemetryServer(lambda: (None, None), store=store).start()
        got = {}

        def _subscribe():
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
                s.sendall(
                    b"GET /subscribe?max_events=3&timeout=8 HTTP/1.0\r\n\r\n"
                )
                buf = b""
                while b"\n\n" not in buf.partition(b"\r\n\r\n")[2] or \
                        buf.count(b"data: ") < 3:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    buf += chunk
                got["raw"] = buf

        sub = threading.Thread(target=_subscribe)
        sub.start()
        try:
            # Wait for the subscriber to register before appending.
            for _ in range(100):
                if store._listeners and len(
                    server._hub._subs if server._hub else []
                ):
                    break
                threading.Event().wait(0.05)
            for i in range(3):
                store.append(
                    DetectionRecord("s0", i, i / 30.0, "car", None, 1.0, "ref")
                )
            sub.join(timeout=10)
            assert not sub.is_alive()
            head, _, body = got["raw"].partition(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n")[0]
            assert b"text/event-stream" in head
            events = [e for e in body.split(b"\n\n") if e.strip()]
            assert len(events) == 3
            assert events[0].startswith(b"id: 1\ndata: ")
            payload = json.loads(events[0].split(b"data: ", 1)[1])
            assert payload["frame"] == 0 and payload["disposition"] == "ref"
        finally:
            server.stop()
            store.close()

    def test_sse_event_format(self):
        rec = DetectionRecord("s0", 7, 0.5, "car", None, 2.0, "ref")
        raw = sse_event(3, rec)
        assert raw.startswith(b"id: 3\ndata: {")
        assert raw.endswith(b"}\n\n")

    def test_hub_close_unblocks_subscribers(self, tmp_path):
        store = self._store(tmp_path, n=0)
        hub = SubscriptionHub(store)
        q = hub.subscribe()
        hub.close()
        assert q.get(timeout=1) == (None, None)
        last, items = hub.since(0, wait=5.0)  # returns immediately when closed
        assert items == []
        store.close()

    def test_query_reply_cluster_fanout_and_missing(self, tmp_path):
        for i, n in enumerate((3, 5)):
            sub = DetStore(tmp_path / f"i{i}", terminal="ref")
            for j in range(n):
                sub.append(DetectionRecord(f"s{i}", j, j / 30.0, "car", None, 1.0, "ref"))
            sub.close()
        targets = {
            "0": str(tmp_path / "i0"),
            "1": str(tmp_path / "i1"),
            "2": str(tmp_path / "gone"),
        }
        status, _, body = query_reply(targets, {"q": ["count"]})
        doc = json.loads(body)
        assert status == 200
        assert doc["count"] == 8
        assert doc["missing_instances"] == ["2"]
        status, _, _ = query_reply({"0": str(tmp_path / "gone")}, {"q": ["count"]})
        assert status == 404

    def test_cluster_metrics_server_merged_query(self, tmp_path):
        for i in range(2):
            sub = DetStore(tmp_path / f"instance-{i}", terminal="ref")
            for j in range(4):
                sub.append(DetectionRecord(f"s{i}", j, j / 30.0, "car", None, 1.0, "ref"))
            sub.close()
        agg = MetricsAggregator({})
        server = ClusterMetricsServer(
            agg,
            store_dirs={str(i): str(tmp_path / f"instance-{i}") for i in range(2)},
        ).start()
        try:
            doc = _get_json(f"{server.url}/query?q=count")
            assert doc["count"] == 8
            doc = _get_json(f"{server.url}/query?q=topk&k=2")
            assert {d["stream"] for d in doc["top"]} == {"s0", "s1"}
        finally:
            server.stop()
