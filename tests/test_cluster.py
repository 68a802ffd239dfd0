"""Cluster serving plane tests.

Layer by layer: the pure policy core (``pick_move`` / ``estimate_headroom``),
the replayable :class:`StreamRouter`, the :class:`DescriptorChannel` handoff
wire, the simulated cluster over virtual clocks, and finally the threaded
end-to-end — two real pipeline-instance processes, a forced load spike, and
a stream observed re-forwarding mid-run with frame conservation across the
handoff.
"""

import dataclasses
import socket
import threading
import time

import pytest

from repro.core.admission import InstanceView, estimate_headroom, pick_move
from repro.core.config import FFSVAConfig
from repro.core.pipeline import StageGraph, ffs_va_graph
from repro.devices.costs import CostModel
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.obs import SignalReader, TimeSeriesSampler
from repro.obs.export import parse_prometheus
from repro.runtime.cluster import ClusterSupervisor, _instance_main
from repro.runtime.router import InstanceReport, StreamRouter
from repro.sim import ClusterSimulator
from repro.video import jackson, make_stream
from repro.video.frame import DescriptorChannel

from tests.helpers import make_synth_trace
from tests.test_source_workers import CountingStream, probe_graph, zoo_for


def view(state="hold", headroom=0.0, costs=()):
    return InstanceView(state=state, headroom=headroom, costs=dict(costs))


# ---------------------------------------------------------------------------
# policy core
# ---------------------------------------------------------------------------
class TestPickMove:
    def test_no_shedder_no_move(self):
        views = [view("admit", 50.0, {"a": 1.0}), view("hold", 10.0, {"b": 1.0})]
        assert pick_move(views) is None

    def test_single_stream_shedder_never_moves(self):
        # Nothing may leave an instance streamless.
        views = [view("shed", 0.0, {"a": 9.0}), view("admit", 50.0, {"b": 1.0})]
        assert pick_move(views) is None

    def test_no_admit_target_no_move(self):
        views = [
            view("shed", 0.0, {"a": 2.0, "b": 1.0}),
            view("hold", 10.0, {"c": 1.0}),
        ]
        assert pick_move(views) is None

    def test_moves_most_expensive_stream_to_most_headroom(self):
        views = [
            view("shed", 0.0, {"cheap": 1.0, "dear": 9.0}),
            view("admit", 20.0, {"x": 1.0}),
            view("admit", 80.0, {"y": 1.0}),
        ]
        move = pick_move(views)
        assert (move.stream, move.src, move.dst) == ("dear", 0, 2)

    def test_most_pressed_shedder_wins(self):
        views = [
            view("shed", 5.0, {"a": 1.0, "b": 1.0}),
            view("shed", 1.0, {"c": 1.0, "d": 2.0}),
            view("admit", 50.0, {"e": 1.0}),
        ]
        move = pick_move(views)
        assert move.src == 1 and move.stream == "d"

    def test_cost_tie_breaks_to_smallest_stream_id(self):
        views = [
            view("shed", 0.0, {"s-b": 3.0, "s-a": 3.0}),
            view("admit", 50.0, {"x": 1.0}),
        ]
        assert pick_move(views).stream == "s-a"

    def test_headroom_tie_breaks_to_lowest_instance(self):
        views = [
            view("shed", 0.0, {"a": 1.0, "b": 2.0}),
            view("admit", 40.0, {"x": 1.0}),
            view("admit", 40.0, {"y": 1.0}),
        ]
        assert pick_move(views).dst == 1


class TestEstimateHeadroom:
    def reader(self, points):
        sampler = TimeSeriesSampler(interval=0.05)
        for t, v in points:
            sampler.observe("stage_fps[tyolo]", t, v, force=True)
        return SignalReader(sampler)

    def test_no_samples_claims_zero(self):
        cfg = FFSVAConfig(admission_tyolo_fps=140.0)
        r = self.reader([])
        assert estimate_headroom(r, cfg, "stage_fps[tyolo]") == 0.0

    def test_headroom_is_threshold_minus_ewma(self):
        cfg = FFSVAConfig(admission_tyolo_fps=140.0, admission_window=5.0)
        r = self.reader([(float(t), 40.0) for t in range(10)])
        assert estimate_headroom(r, cfg, "stage_fps[tyolo]") == pytest.approx(100.0)

    def test_rate_at_or_over_threshold_means_none(self):
        cfg = FFSVAConfig(admission_tyolo_fps=140.0, admission_window=5.0)
        r = self.reader([(float(t), 200.0) for t in range(10)])
        assert estimate_headroom(r, cfg, "stage_fps[tyolo]") == 0.0


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------
def report(state="hold", headroom=0.0, costs=(), free_slots=2, outcomes=0, offered=0):
    return InstanceReport(
        state=state,
        headroom=headroom,
        costs=dict(costs),
        free_slots=free_slots,
        outcomes=outcomes,
        offered=offered,
    )


class TestStreamRouter:
    def test_step_records_reports_and_move(self):
        router = StreamRouter()
        move = router.step(
            [
                report("shed", 0.0, {"a": 2.0, "b": 1.0}),
                report("admit", 50.0, {"c": 1.0}),
            ]
        )
        assert (move.stream, move.src, move.dst) == ("a", 0, 1)
        entry = router.log[0]
        assert entry["epoch"] == 0
        assert entry["move"] == {"stream": "a", "src": 0, "dst": 1}
        assert entry["vetoed"] is None
        assert entry["reports"][1]["state"] == "admit"
        assert router.moves() == [("a", 0, 1)]

    def test_full_target_vetoes_but_is_recorded(self):
        router = StreamRouter()
        move = router.step(
            [
                report("shed", 0.0, {"a": 2.0, "b": 1.0}),
                report("admit", 50.0, {"c": 1.0}, free_slots=0),
            ]
        )
        assert move is None
        assert router.moves() == []
        assert router.log[0]["vetoed"] == {"stream": "a", "src": 0, "dst": 1}
        assert router.summary()["vetoed"] == 1

    def test_replay_reproduces_moves_and_vetoes(self):
        router = StreamRouter()
        router.step([report("hold", 0.0, {"a": 1.0}), report("hold", 0.0, {"b": 1.0})])
        router.step(
            [
                report("shed", 0.0, {"a": 2.0, "b": 1.0}),
                report("admit", 50.0, {"c": 1.0}),
            ]
        )
        router.step(
            [
                report("shed", 0.0, {"c": 2.0, "d": 1.0}),
                report("admit", 50.0, {"e": 1.0}, free_slots=0),
            ]
        )
        replayed = StreamRouter.replay(router.log)
        assert replayed.moves() == router.moves()
        assert [e["vetoed"] for e in replayed.log] == [e["vetoed"] for e in router.log]
        assert replayed.summary() == router.summary()


# ---------------------------------------------------------------------------
# handoff wire
# ---------------------------------------------------------------------------
class TestDescriptorChannel:
    def pair(self):
        a, b = socket.socketpair()
        return DescriptorChannel(a), DescriptorChannel(b)

    def test_message_round_trip(self):
        tx, rx = self.pair()
        try:
            tx.send({"cmd": "poll", "free_slots": 2, "costs": {"s": 1.5}})
            msg = rx.recv(timeout=5.0)
            assert msg == {"cmd": "poll", "free_slots": 2, "costs": {"s": 1.5}}
        finally:
            tx.close()
            rx.close()

    def test_eof_returns_none(self):
        tx, rx = self.pair()
        tx.close()
        try:
            assert rx.recv(timeout=5.0) is None
        finally:
            rx.close()

    def test_timeout_raises(self):
        tx, rx = self.pair()
        try:
            with pytest.raises(TimeoutError):
                rx.recv(timeout=0.05)
        finally:
            tx.close()
            rx.close()


class TestInstanceControl:
    """The instance side of the control channel, driven in-process over a
    real socket with stub streams (tests/test_source_workers.py)."""

    def test_detach_of_a_stream_that_finished_offering_replies_at_its_end(self):
        # The router picks its stream from the previous poll's costs; when
        # the stream pulls its last chunk in between, detach must still
        # answer (next == end, so nothing is attached), not end the loop.
        n = 64
        stream = CountingStream("s0", n)
        graph, _ = probe_graph()
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(30.0)
        inst = threading.Thread(
            target=_instance_main,
            args=(0, listener.getsockname(), [stream], [stream], zoo_for([stream]),
                  FFSVAConfig(cluster_reserve_slots=1), graph, None, False, None, None),
            daemon=True,
        )
        inst.start()
        conn, _ = listener.accept()
        chan = DescriptorChannel(conn)
        rpc = ClusterSupervisor._rpc
        try:
            assert chan.recv(timeout=30.0)["cmd"] == "hello"
            deadline = time.monotonic() + 30.0
            while (poll := rpc(chan, {"cmd": "poll"}))["outcomes"] < n:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert poll["costs"] == {}  # no longer offering: not sheddable
            assert rpc(chan, {"cmd": "detach", "stream": "s0"}) == {"next": n, "end": n}
            rpc(chan, {"cmd": "seal"})
            final = rpc(chan, {"cmd": "finish"})
            assert final["metrics"]["frames_offered"] == len(final["outcomes"]) == n
            rpc(chan, {"cmd": "stop"})
        finally:
            chan.close()
            listener.close()
            inst.join(timeout=10.0)
        assert not inst.is_alive()


# ---------------------------------------------------------------------------
# simulated cluster
# ---------------------------------------------------------------------------
def cluster_sim_config(**over):
    base = dict(
        telemetry=True,
        telemetry_sample_interval=0.02,
        cluster_instances=2,
        cluster_reserve_slots=2,
        router_epoch=0.25,
        admission_depth_fraction=0.4,
        admission_window=0.4,
        admission_hysteresis=2,
        admission_tyolo_fps=60.0,
        stream_fps=30.0,
    )
    base.update(over)
    return FFSVAConfig(**base)


#: Cumulative (sdd, snm, tyolo) survival fractions: the hot stream is
#: decisively heavier than the warm one so the cost ranking cannot flip on
#: sampling noise, yet either alone fits a 35 frames/s T-YOLO — only the
#: round-robin pairing of hot+warm on instance 0 overloads it.
HOT, WARM, IDLE = (0.95, 0.9, 0.4), (0.55, 0.5, 0.2), (0.05, 0.02, 0.01)


def skewed_traces(n=240, ids=("s-hot", "s-idle-a", "s-warm", "s-idle-b")):
    """Round-robin pairs one hot + one warm stream on instance 0."""
    return [
        make_synth_trace(n, *frac, seed=1 + i, stream_id=sid)
        for i, (sid, frac) in enumerate(zip(ids, (HOT, IDLE, WARM, IDLE)))
    ]


SLOW_TYOLO = CostModel(tyolo_infer=1.0 / 35)


class TestClusterSimulator:
    def test_overloaded_instance_sheds_hot_stream(self):
        sim = ClusterSimulator(skewed_traces(), cluster_sim_config(), SLOW_TYOLO)
        res = sim.run()
        assert res.moves, "expected at least one shed/re-forward"
        assert res.moves[0] == ("s-hot", 0, 1)

    def test_frame_conservation_across_handoff(self):
        traces = skewed_traces()
        planned = sum(len(tr) for tr in traces)
        res = ClusterSimulator(traces, cluster_sim_config(), SLOW_TYOLO).run()
        assert res.moves
        assert res.total_offered == planned
        # The receiving instance really took the stream on (n_streams counts
        # the attach), and nobody admitted more than it was offered.
        assert [m.n_streams for m in res.instances] == [2, 3]
        for m in res.instances:
            assert 0 < m.frames_ingested <= m.frames_offered

    def test_router_log_replays_deterministically(self):
        res = ClusterSimulator(skewed_traces(), cluster_sim_config(), SLOW_TYOLO).run()
        assert StreamRouter.replay(res.router_log).moves() == res.moves

    def test_no_overload_no_moves(self):
        traces = [
            make_synth_trace(120, 0.05, 0.02, 0.01, seed=i, stream_id=f"s{i}")
            for i in range(4)
        ]
        res = ClusterSimulator(traces, cluster_sim_config()).run()
        assert res.moves == []
        assert res.total_offered == sum(len(tr) for tr in traces)

    def test_requires_a_stream_per_instance(self):
        with pytest.raises(ValueError):
            ClusterSimulator(
                skewed_traces()[:1], cluster_sim_config(cluster_instances=2)
            )


# ---------------------------------------------------------------------------
# threaded end-to-end
# ---------------------------------------------------------------------------
def slow_tyolo_graph(delay: float) -> StageGraph:
    """The paper cascade with T-YOLO slowed to ~1/delay frames/s.

    The sleep releases the GIL, so the load spike is host-speed independent:
    two busy streams exceed the stage's capacity on any machine.
    """
    specs = []
    for spec in ffs_va_graph():
        if spec.name != "tyolo":
            specs.append(spec)
            continue
        inner = spec.logic

        def evaluate(pixels, bundles, zoo, config, _inner=inner.evaluate, _d=delay):
            time.sleep(_d * len(pixels))
            return _inner(pixels, bundles, zoo, config)

        specs.append(
            dataclasses.replace(spec, logic=dataclasses.replace(inner, evaluate=evaluate))
        )
    return StageGraph(specs, name="ffs-va-slow-tyolo")


N_FRAMES = 200


@pytest.fixture(scope="module")
def cluster_fleet():
    """Four trained streams whose round-robin split overloads instance 0."""
    zoo = ModelZoo()
    streams = []
    # i % 2 placement: instance 0 gets {seed 60 (hot), seed 62 (warm)},
    # instance 1 gets the two idle streams.
    for i, tor in enumerate((0.9, 0.05, 0.45, 0.05)):
        s = make_stream(jackson(), N_FRAMES, tor=tor, seed=60 + i)
        zoo.train_for_stream(
            s,
            n_train_frames=80,
            stride=2,
            train_config=TrainConfig(epochs=3, batch_size=32, seed=7),
        )
        streams.append(s)
    return streams, zoo


@pytest.fixture(scope="module")
def threaded_run(cluster_fleet):
    """One shared threaded cluster run (real processes, paced ingest)."""
    streams, zoo = cluster_fleet
    sup = ClusterSupervisor(
        streams, zoo, cluster_sim_config(), graph=slow_tyolo_graph(0.025)
    )
    return streams, sup.run(N_FRAMES, online=True)


class TestClusterThreadedEndToEnd:
    def test_load_spike_reforwards_a_stream_mid_run(self, threaded_run):
        streams, res = threaded_run
        planned = len(streams) * N_FRAMES

        # A move actually happened, and it is the expensive stream leaving
        # the overloaded instance for the idle one.
        assert res.moves, "expected the load spike to force a re-forward"
        hot = streams[0].stream_id
        assert res.moves[0] == (hot, 0, 1)

        # Mid-run: instance 0 delivered a prefix of the hot stream up to the
        # first handoff boundary, instance 1 picked up from exactly there,
        # and between them (the router may legally shuttle the stream again)
        # every index has exactly one owner.
        src_hot = [i for s, i, _ in res.outcomes[0] if s == hot]
        dst_hot = [i for s, i, _ in res.outcomes[1] if s == hot]
        assert src_hot and dst_hot, "handoff should split the stream mid-run"
        boundary = min(dst_hot)
        assert 0 < boundary < N_FRAMES
        assert set(range(boundary)) <= set(src_hot)
        assert sorted(src_hot + dst_hot) == list(range(N_FRAMES))

        # Frame conservation: per instance and globally, every planned
        # frame has exactly one outcome.
        for metrics, outcomes in zip(res.instances, res.outcomes):
            assert metrics.frames_offered == len(outcomes)
        assert res.total_offered == res.total_outcomes == planned
        seen = set()
        for outcomes in res.outcomes:
            for sid, idx, _stage in outcomes:
                assert (sid, idx) not in seen, "frame processed twice"
                seen.add((sid, idx))
        assert len(seen) == planned

    def test_aggregated_metrics_sum_per_instance_ledgers(self, threaded_run):
        streams, res = threaded_run
        samples = parse_prometheus(res.aggregated_metrics)
        total = {
            (name, labels.get("instance")): value
            for name, labels, value in samples
            if name == "ffsva_frames_offered_total"
        }
        for i, m in enumerate(res.instances):
            assert total[("ffsva_frames_offered_total", str(i))] == m.frames_offered
        cluster_sum = [
            value
            for name, labels, value in samples
            if name == "ffsva_cluster_frames_offered_total"
        ]
        assert cluster_sum == [res.total_offered]
        errors = [
            value
            for name, _, value in samples
            if name == "ffsva_cluster_scrape_errors_total"
        ]
        assert errors == [0.0]

    def test_threaded_and_simulated_logs_agree(self, threaded_run):
        """The acceptance contract: equivalent load skew, equivalent logs.

        The simulated twin observes the same shape of world — the same
        stream ids, the same hot/warm/idle skew, a T-YOLO pegged at ~50
        frames/s — and both runtimes must (a) replay their own logs
        deterministically and (b) decide the same first re-forward.
        """
        streams, res = threaded_run
        assert StreamRouter.replay(res.router_log).moves() == res.moves

        ids = tuple(s.stream_id for s in streams)
        traces = skewed_traces(N_FRAMES, ids=ids)
        sim_res = ClusterSimulator(traces, cluster_sim_config(), SLOW_TYOLO).run()
        assert StreamRouter.replay(sim_res.router_log).moves() == sim_res.moves
        assert sim_res.moves and res.moves
        assert sim_res.moves[0] == res.moves[0]
        # Both logs veto or move through the identical report schema.
        for log in (res.router_log, sim_res.router_log):
            assert all(
                set(entry) == {"epoch", "reports", "move", "vetoed"} for entry in log
            )
