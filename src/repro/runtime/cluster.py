"""Cluster serving plane: N pipeline-instance processes behind one router.

:class:`ClusterSupervisor` is the actuation half of the cluster design
(the decision half is :mod:`repro.runtime.router` over the pure policy in
:mod:`repro.core.admission`):

* it **forks** ``config.cluster_instances`` processes *before creating any
  thread of its own* (fork-with-threads is unsound), each running
  :func:`_instance_main` — a full :class:`~repro.runtime.engine.ThreadedPipeline`
  over that instance's round-robin share of the streams, with
  ``cluster_reserve_slots`` spare slots so a stream can be re-forwarded
  *to* it mid-run;
* each instance keeps a :class:`~repro.video.frame.DescriptorChannel`
  control socket back to the supervisor and serves its own ``/metrics``;
* every ``router_epoch`` seconds the supervisor polls all instances
  (admission state, EWMA headroom, live per-stream costs) and lets the
  :class:`~repro.runtime.router.StreamRouter` pick at most one
  shed/re-forward move, which is actuated as::

      detach(src)  ->  frame boundary k
      attach(dst, stream, start=k)

  Only the boundary crosses the channel: the receiving instance reads
  frames ``k`` onward from the stream it inherited at fork, like any other
  feed (the shedding instance never offered them, so it has nothing to
  hand over).

**Frame conservation across a handoff** (the invariant the cluster tests
assert): ``detach`` returns ``k = start + offered``, the first index never
offered on the source; the target attaches at exactly ``k``.  The source's
``frames_offered`` drops by its unoffered remainder and the target's rises
by the same amount, so per instance ``frames_offered == len(outcomes)``
holds at the end and globally every frame has exactly one outcome.

The supervisor also aggregates every instance's ``/metrics`` into one
labeled exposition via :class:`~repro.obs.export.MetricsAggregator`.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from dataclasses import dataclass, field

from ..core.admission import estimate_headroom
from ..core.config import FFSVAConfig
from ..core.metrics import RunMetrics
from ..core.pipeline import StageGraph
from ..models.zoo import ModelZoo
from ..obs import Telemetry
from ..obs.export import ClusterMetricsServer, MetricsAggregator
from ..video.frame import DescriptorChannel
from ..video.stream import VideoStream
from .engine import ThreadedPipeline
from .router import InstanceReport, StreamRouter

__all__ = ["ClusterSupervisor", "ClusterResult"]


def _planned(stream: VideoStream, n_frames: int | None) -> int:
    return len(stream) if n_frames is None else min(n_frames, len(stream))


# ---------------------------------------------------------------------------
# instance process
# ---------------------------------------------------------------------------


def _instance_main(
    instance_id: int,
    addr: tuple[str, int],
    assigned: list[VideoStream],
    roster: list[VideoStream],
    zoo: ModelZoo,
    config: FFSVAConfig,
    graph: StageGraph | None,
    n_frames: int | None,
    online: bool,
    paced_fps: float | None,
    trace_dir: str | None,
) -> None:
    """One pipeline instance: engine + telemetry endpoint + control loop.

    Runs in a forked child.  ``assigned`` is the initial stream share;
    ``roster`` is every cluster stream, so an ``attach`` command can
    resolve any re-forwarded stream id without pickling stream objects
    over the wire (fork shares them).
    """
    sock = socket.create_connection(addr)
    chan = DescriptorChannel(sock)
    tel = Telemetry(sample_interval=config.telemetry_sample_interval)
    if config.result_store_dir is not None:
        # Each instance persists into its own store under the configured
        # parent; open_store() on the parent merges them at query time.
        config = config.with_(
            result_store_dir=os.path.join(
                config.result_store_dir, f"instance-{instance_id}"
            )
        )
    pipeline = ThreadedPipeline(
        assigned,
        zoo,
        config,
        graph=graph,
        telemetry=tel,
        reserve_slots=config.cluster_reserve_slots,
    )
    server = tel.serve(
        lambda: pipeline.metrics, port=0, trace_dir=trace_dir, store=pipeline.store,
        lineage=pipeline.lineage_context,
    )
    by_id = {s.stream_id: s for s in roster}
    ends = {s.stream_id: _planned(s, n_frames) for s in roster}

    result: dict = {}

    def _run():
        result["metrics"] = pipeline.run(n_frames, online=online, paced_fps=paced_fps)

    runner = threading.Thread(target=_run, name=f"instance-{instance_id}", daemon=True)
    runner.start()
    chan.send({"cmd": "hello", "instance": instance_id, "metrics_url": server.url})

    try:
        while True:
            msg = chan.recv(timeout=60.0)
            if msg is None:
                break
            cmd = msg["cmd"]
            if cmd == "poll":
                adm = pipeline.admission
                chan.send(
                    {
                        "state": adm.state,
                        "headroom": estimate_headroom(
                            adm.reader, config, adm.rate_series
                        ),
                        "costs": pipeline.stream_costs(),
                        "free_slots": pipeline.free_slots(),
                        "outcomes": pipeline.outcome_count(),
                        "offered": pipeline.metrics.frames_offered,
                        "done": not runner.is_alive(),
                    }
                )
            elif cmd == "detach":
                # The router chose from the previous poll, so the stream may
                # have finished offering since: look among every slot, not
                # only the active ones (the latest slot is its live one).  A
                # finished feed detaches at its end, and nothing is attached.
                sid = msg["stream"]
                slot = max(
                    i for i, c in enumerate(pipeline.ctxs)
                    if c.stream is not None and c.stream.stream_id == sid
                )
                chan.send({"next": pipeline.detach_stream(slot), "end": ends[sid]})
            elif cmd == "attach":
                slot = pipeline.attach_stream(
                    by_id[msg["stream"]],
                    start=int(msg["start"]),
                    n_frames=int(msg["end"]),
                )
                chan.send({"slot": slot})
            elif cmd == "seal":
                pipeline.seal()
                chan.send({"ok": True})
            elif cmd == "finish":
                runner.join(timeout=120.0)
                metrics = result.get("metrics")
                if trace_dir is not None and tel is not None:
                    tel.dump_rotating_trace(trace_dir, label=f"instance-{instance_id}")
                chan.send(
                    {
                        "metrics": None if metrics is None else metrics.to_dict(),
                        "outcomes": [
                            [o.stream_id, o.index, o.stage]
                            for o in pipeline.outcomes
                        ],
                        "admission": pipeline.admission.summary(),
                    }
                )
            elif cmd == "stop":
                chan.send({"ok": True})
                break
            else:  # pragma: no cover - protocol defense
                chan.send({"error": f"unknown command {cmd!r}"})
    finally:
        server.stop()
        chan.close()


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------


@dataclass
class ClusterResult:
    """Everything one cluster run produced, per instance and aggregated."""

    instances: list[RunMetrics]
    outcomes: list[list[tuple[str, int, str]]]  # per instance: (stream, idx, stage)
    admission: list[dict]
    router_log: list[dict] = field(default_factory=list)
    moves: list[tuple[str, int, int]] = field(default_factory=list)
    aggregated_metrics: str = ""
    metrics_urls: list[str] = field(default_factory=list)

    @property
    def total_offered(self) -> int:
        return sum(m.frames_offered for m in self.instances)

    @property
    def total_outcomes(self) -> int:
        return sum(len(o) for o in self.outcomes)


class ClusterSupervisor:
    """Launch N pipeline instances and route streams between them live."""

    def __init__(
        self,
        streams: list[VideoStream],
        zoo: ModelZoo,
        config: FFSVAConfig | None = None,
        *,
        graph: StageGraph | None = None,
        trace_dir: str | None = None,
    ):
        if not streams:
            raise ValueError("need at least one stream")
        self.config = config or FFSVAConfig()
        self.streams = list(streams)
        self.zoo = zoo
        self.graph = graph
        self.trace_dir = trace_dir
        n = self.config.cluster_instances
        #: Initial placement: the same round-robin rule InstanceGroup.assign
        #: uses, so offline and live partitions agree.
        self.partition: list[list[VideoStream]] = [[] for _ in range(n)]
        for i, s in enumerate(self.streams):
            self.partition[i % n].append(s)
        self.router = StreamRouter()
        #: Applied handoffs with their frame boundary — everything the
        #: cluster ``/lineage`` endpoint needs to label which side of a
        #: migration a frame ran on.  (``router.moves()`` knows src/dst but
        #: not the boundary; that is only decided at detach time.)
        self.handoffs: list[dict] = []

    # -- control-channel RPC -------------------------------------------
    @staticmethod
    def _rpc(chan: DescriptorChannel, msg: dict, timeout: float = 60.0) -> dict:
        chan.send(msg)
        reply = chan.recv(timeout=timeout)
        if reply is None:
            raise ConnectionError(f"instance closed channel during {msg['cmd']!r}")
        return reply

    def run(
        self,
        n_frames: int | None = None,
        *,
        online: bool = True,
        paced_fps: float | None = None,
        max_wall: float | None = None,
    ) -> ClusterResult:
        """Run every stream to completion across the instance fleet."""
        cfg = self.config
        n_inst = cfg.cluster_instances
        total_planned = sum(_planned(s, n_frames) for s in self.streams)
        listener = socket.create_server(("127.0.0.1", cfg.router_port or 0))
        listener.listen(n_inst)

        # Fork every instance before the supervisor creates any thread of
        # its own (HTTP servers, aggregator scrapes) — a multi-threaded
        # parent and the "fork" start method don't mix.
        ctx = multiprocessing.get_context("fork")
        procs = []
        for i in range(n_inst):
            inst_trace = (
                None
                if self.trace_dir is None
                else os.path.join(self.trace_dir, f"instance-{i}")
            )
            p = ctx.Process(
                target=_instance_main,
                args=(
                    i,
                    listener.getsockname(),
                    self.partition[i],
                    self.streams,
                    self.zoo,
                    cfg,
                    self.graph,
                    n_frames,
                    online,
                    paced_fps,
                    inst_trace,
                ),
                daemon=True,
            )
            p.start()
            procs.append(p)

        chans: dict[int, DescriptorChannel] = {}
        urls: dict[int, str] = {}
        aggregator = None
        agg_server = None
        try:
            listener.settimeout(30.0)
            while len(chans) < n_inst:
                conn, _ = listener.accept()
                chan = DescriptorChannel(conn)
                hello = chan.recv(timeout=30.0)
                chans[hello["instance"]] = chan
                urls[hello["instance"]] = hello["metrics_url"]
            metrics_urls = [urls[i] for i in range(n_inst)]
            aggregator = MetricsAggregator(
                {f"{i}": url for i, url in enumerate(metrics_urls)}
            )
            store_dirs = None
            if cfg.result_store_dir is not None:
                store_dirs = {
                    f"{i}": os.path.join(cfg.result_store_dir, f"instance-{i}")
                    for i in range(n_inst)
                }
            agg_server = ClusterMetricsServer(
                aggregator,
                port=0,
                store_dirs=store_dirs,
                handoffs=lambda: list(self.handoffs),
            ).start()

            if online:
                fps = paced_fps or cfg.stream_fps
                longest = max(_planned(s, n_frames) for s in self.streams)
                horizon = longest / fps * 4.0 + 30.0
            else:
                horizon = 120.0
            if max_wall is not None:
                horizon = max_wall

            t0 = time.monotonic()
            while True:
                time.sleep(cfg.router_epoch)
                reports = []
                for i in range(n_inst):
                    r = self._rpc(chans[i], {"cmd": "poll"})
                    reports.append(
                        InstanceReport(
                            state=r["state"],
                            headroom=float(r["headroom"]),
                            costs={k: float(v) for k, v in r["costs"].items()},
                            free_slots=int(r["free_slots"]),
                            outcomes=int(r["outcomes"]),
                            offered=int(r["offered"]),
                        )
                    )
                if sum(r.outcomes for r in reports) >= total_planned:
                    break
                if time.monotonic() - t0 > horizon:
                    raise RuntimeError(
                        f"cluster run exceeded its {horizon:.0f}s horizon "
                        f"({sum(r.outcomes for r in reports)}/{total_planned} outcomes)"
                    )
                move = self.router.step(reports)
                if move is not None:
                    self._actuate(chans, move)
            for i in range(n_inst):
                self._rpc(chans[i], {"cmd": "seal"})
            aggregated = aggregator.render()
            finals = [self._rpc(chans[i], {"cmd": "finish"}, timeout=180.0) for i in range(n_inst)]
            for i in range(n_inst):
                self._rpc(chans[i], {"cmd": "stop"})
            result = ClusterResult(
                instances=[RunMetrics.from_dict(f["metrics"]) for f in finals],
                outcomes=[
                    [(s, int(i_), st) for s, i_, st in f["outcomes"]] for f in finals
                ],
                admission=[f["admission"] for f in finals],
                router_log=self.router.log,
                moves=self.router.moves(),
                aggregated_metrics=aggregated,
                metrics_urls=metrics_urls,
            )
            for p in procs:
                p.join(timeout=30.0)
            return result
        finally:
            for chan in chans.values():
                chan.close()
            if agg_server is not None:
                agg_server.stop()
            listener.close()
            for p in procs:
                if p.is_alive():
                    p.terminate()
                p.join(timeout=5.0)

    def _actuate(self, chans: dict[int, DescriptorChannel], move) -> None:
        """Apply one router move: detach at a boundary, then re-forward."""
        src, dst = chans[move.src], chans[move.dst]
        handoff = self._rpc(src, {"cmd": "detach", "stream": move.stream})
        self.handoffs.append(
            {
                "stream": move.stream,
                "src": move.src,
                "dst": move.dst,
                "boundary": int(handoff["next"]),
            }
        )
        if handoff["next"] < handoff["end"]:
            self._rpc(
                dst,
                {
                    "cmd": "attach",
                    "stream": move.stream,
                    "start": handoff["next"],
                    "end": handoff["end"],
                },
            )
