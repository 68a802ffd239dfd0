"""The engine's scheduler: one worker per usable CPU (DESIGN.md §24).

Counted through the ``StageLogic`` seam on the stub streams of
``tests/test_source_workers.py`` (frame ``t`` is filled with ``t``, every
verdict is a function of the index): no training, no models.
"""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.core import FFSVAConfig
from repro.core.batching import LATENCY_OBJECTIVE
from repro.core.pipeline import ABORTED, CASCADES
from repro.obs import Telemetry
from repro.runtime import ThreadedPipeline
from repro.runtime.blas import usable_cpus
from tests.test_source_workers import CountingStream, probe_graph, zoo_for

#: Where the paper's placement runs each stage (devices/placement.py).
DEVICE = {"sdd": "cpu0", "snm": "gpu0", "tyolo": "gpu0", "ref": "gpu1"}


class DeviceProbe:
    """An ``evaluate`` hook counting the batches in flight per device,
    each held open for ``hold`` seconds so that overlaps are observable."""

    def __init__(self, hold: float = 0.002):
        self.hold = hold
        self.lock = threading.Lock()
        self.now: Counter = Counter()
        self.peak: Counter = Counter()
        self.overlap: Counter = Counter()  # batches of other streams in flight, per stage
        self.active: dict = {}

    def __call__(self, stage, frames):
        device = DEVICE[stage]
        me = threading.get_ident()
        with self.lock:
            self.now[device] += 1
            self.peak[device] = max(self.peak[device], self.now[device])
            if any(s == stage for s in self.active.values()):
                self.overlap[stage] += 1
            self.active[me] = stage
        time.sleep(self.hold)
        with self.lock:
            self.now[device] -= 1
            del self.active[me]


def run_probe(cascade="ffs-va", streams=2, n=64, hook=None, config=None):
    streams = [CountingStream(f"s{i}", n) for i in range(streams)]
    graph, calls = probe_graph(cascade, hook=hook)
    pipe = ThreadedPipeline(
        streams, zoo_for(streams), config or FFSVAConfig(cascade=cascade), graph=graph
    )
    return pipe, pipe.run(), calls


class TestWorkers:
    @pytest.mark.parametrize("cascade", list(CASCADES))
    @pytest.mark.parametrize("n_streams", [1, 2, 4])
    def test_one_worker_per_usable_cpu(self, cascade, n_streams):
        pipe, m, calls = run_probe(cascade, streams=n_streams, n=24)
        assert m.extra["engine"]["worker_threads"] == usable_cpus()
        assert len({t for *_, t in calls}) <= usable_cpus()
        assert len(pipe.outcomes) == m.frames_offered == 24 * n_streams
        m.check_conservation()

    def test_gpu_devices_run_one_batch_at_a_time(self):
        probe = DeviceProbe()
        _, m, _ = run_probe(streams=4, n=96, hook=probe)
        assert probe.peak["gpu0"] == 1  # SNM and T-YOLO share it
        assert probe.peak["gpu1"] == 1
        assert probe.peak["cpu0"] <= usable_cpus()
        m.check_conservation()

    @pytest.mark.skipif(usable_cpus() < 2, reason="one worker cannot overlap batches")
    def test_two_streams_sdd_batches_overlap(self):
        probe = DeviceProbe(hold=0.005)
        run_probe(streams=2, n=200, hook=probe)
        assert probe.peak["cpu0"] >= 2
        assert probe.overlap["sdd"] >= 1

    @pytest.mark.parametrize("cascade", ["ffs-va", "tyolo-only", "no-sdd"])
    @pytest.mark.parametrize("n_streams", [1, 3])
    def test_each_stream_enters_every_stage_in_index_order(self, cascade, n_streams):
        probe = DeviceProbe(0.0005)

        def hook(stage, frames):
            probe(stage, frames)
            if frames[0] % 32 == 0:
                time.sleep(0.003)  # a later batch would overtake this one

        streams = [CountingStream(f"s{i}", 160) for i in range(n_streams)]
        graph, _ = probe_graph(cascade, hook=hook)
        tel = Telemetry()
        pipe = ThreadedPipeline(
            streams, zoo_for(streams), FFSVAConfig(cascade=cascade), graph=graph, telemetry=tel
        )
        m = pipe.run()
        entered: dict = {}
        for ev in tel.bus.events():
            if ev.kind == "frame_enter":
                entered.setdefault((ev.stage, ev.stream), []).append(ev.frame)
        assert tel.bus.dropped == 0
        for spec in pipe.graph:
            seen = [entered.get((spec.name, s), []) for s in range(n_streams)]
            assert all(f == sorted(set(f)) for f in seen), spec.name
            assert sum(map(len, seen)) == m.stages[spec.name].entered

    def test_no_bounded_queue_exceeds_its_depth(self):
        def hook(stage, frames):
            if stage == "tyolo":
                time.sleep(0.003)  # back-pressure all the way to the feeds

        pipe, m, _ = run_probe(streams=3, n=240, hook=hook,
                               config=FFSVAConfig(ref_overflow_to_storage=False))
        bounded = [q for q in pipe.kernel.queues if q.depth is not None]
        assert bounded
        assert all(q.high_water <= q.depth for q in bounded)
        assert any(q.high_water == q.depth for q in bounded)  # the bound was reached
        assert m.queue_high_water == {q.name: q.high_water for q in pipe.kernel.queues}


def test_stress_more_workers_than_cores(monkeypatch):
    """Eight workers on a short switch interval: every frame still gets
    exactly one outcome, the counters match the index-driven verdicts, and
    no GPU-kind device ever runs two batches."""
    monkeypatch.setattr("repro.runtime.engine.usable_cpus", lambda: 8)
    probe = DeviceProbe(hold=0.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pipe, m, calls = run_probe(streams=4, n=400, hook=probe)
    finally:
        sys.setswitchinterval(interval)
    assert m.extra["engine"]["worker_threads"] == 8
    keys = [(o.stream_id, o.index) for o in pipe.outcomes]
    assert len(keys) == len(set(keys)) == m.frames_offered == 1600
    assert [m.stages[k].entered for k in ("sdd", "snm", "tyolo", "ref")] == [1600, 800, 400, 200]
    assert probe.peak["gpu0"] == probe.peak["gpu1"] == 1
    m.check_conservation()


def run_paced(fps, n, hook=None, telemetry=None):
    """Two stub streams of ``n`` frames paced at ``fps``."""
    streams = [CountingStream(f"s{i}", n) for i in range(2)]
    graph, calls = probe_graph(hook=hook)
    pipe = ThreadedPipeline(streams, zoo_for(streams), FFSVAConfig(), graph=graph,
                            telemetry=telemetry)
    m = pipe.run(online=True, paced_fps=fps)
    return pipe, m, calls


class TestPeerWakes:
    """Paced, a worker that starts a batch wakes an idle peer only when
    waiting work is late (DESIGN.md §26).  Two workers, whatever the host's
    core count."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.engine.usable_cpus", lambda: 2)

    def test_light_paced_load_wakes_no_peer(self):
        # Nothing is late here, so no wake is due; a host stall past
        # LATE_AFTER may make one batch's start send one, hence the slack.
        # Waking at every start would send one per batch.
        tel = Telemetry()
        pipe, m, _ = run_paced(40.0, 40, telemetry=tel)
        batches = sum(ev.kind == "batch_exec" for ev in tel.bus.events())
        assert m.extra["engine"]["peer_wakes"] <= batches // 8
        assert len(pipe.outcomes) == m.frames_offered == 80
        on_time = sum(o.latency <= LATENCY_OBJECTIVE for o in pipe.outcomes)
        assert on_time >= 0.9 * len(pipe.outcomes)

    def test_offline_runs_wake_a_peer_at_every_start(self):
        tel = Telemetry()
        streams = [CountingStream(f"s{i}", 48) for i in range(2)]
        graph, _ = probe_graph()
        pipe = ThreadedPipeline(streams, zoo_for(streams), FFSVAConfig(), graph=graph,
                                telemetry=tel)
        m = pipe.run()
        batches = sum(ev.kind == "batch_exec" for ev in tel.bus.events())
        assert m.extra["engine"]["peer_wakes"] == batches > 0

    def test_paced_overload_wakes_a_peer_and_both_serve(self):
        def hook(stage, frames):
            # 4 ms a frame at SDD, 2 at the rest: about 1.15 s of work a
            # second at 2 x 100 fps, more than one worker can serve.
            time.sleep((0.004 if stage == "sdd" else 0.002) * len(frames))

        pipe, m, calls = run_paced(100.0, 100, hook=hook)
        assert m.extra["engine"]["peer_wakes"] > 0
        assert len({thread for *_, thread in calls}) == 2
        keys = [(o.stream_id, o.index) for o in pipe.outcomes]
        assert len(keys) == len(set(keys)) == m.frames_offered == 200
        latencies = sorted(o.latency for o in pipe.outcomes)
        assert latencies[len(latencies) // 2] <= LATENCY_OBJECTIVE  # two keep up
        m.check_conservation()


class TestAttachAndAbort:
    def test_attach_starts_no_thread(self):
        stream = CountingStream("s0", 200)
        graph, _ = probe_graph()
        b = ThreadedPipeline([], zoo_for([stream]), FFSVAConfig(), graph=graph, reserve_slots=1)
        runner = threading.Thread(target=b.run, daemon=True)
        runner.start()
        deadline = time.monotonic() + 10.0
        while not b._running and time.monotonic() < deadline:
            time.sleep(0.001)
        before = set(threading.enumerate())
        b.attach_stream(stream)
        assert set(threading.enumerate()) <= before
        b.seal()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert sorted(o.index for o in b.outcomes) == list(range(200))
        assert b.metrics.frames_offered == 200

    def test_abort_gives_held_survivors_one_disposition(self):
        held_at_abort = []
        pipe_ref = []

        def hook(stage, frames):
            if stage != "tyolo":
                return
            time.sleep(0.004)  # T-YOLO falls behind: SNM keys hold survivors
            pipe = pipe_ref[0]
            if frames[0] >= 64:
                deadline = time.monotonic() + 2.0
                while not pipe._held and time.monotonic() < deadline:
                    time.sleep(0.001)
                held_at_abort.append(sum(len(j.survivors) for j in list(pipe._held.values())))
                raise RuntimeError("injected T-YOLO fault")

        n, n_streams = 400, 3
        streams = [CountingStream(f"s{i}", n) for i in range(n_streams)]
        graph, _ = probe_graph(hook=hook)
        pipe = ThreadedPipeline(streams, zoo_for(streams), FFSVAConfig(), graph=graph)
        pipe_ref.append(pipe)
        with pytest.raises(RuntimeError, match="injected T-YOLO fault"):
            pipe.run()
        assert held_at_abort and held_at_abort[0] > 0
        keys = [(o.stream_id, o.index) for o in pipe.outcomes]
        assert len(keys) == len(set(keys)) == pipe.metrics.frames_offered == n * n_streams
        assert sum(o.stage == ABORTED for o in pipe.outcomes) > 0
        assert not pipe._held
        assert not any(len(q) for q in [*pipe._feeds, *pipe.kernel.queues])
