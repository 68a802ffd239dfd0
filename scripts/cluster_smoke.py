"""CI smoke test for the cluster serving plane — real processes, forced shed.

Launches a two-instance :class:`ClusterSupervisor` over four streams whose
round-robin placement pairs the two busiest on instance 0, with the T-YOLO
stage slowed enough that the pair overloads it on any host.  The run must:

* re-forward a stream mid-run (the router's shed/re-forward move fires);
* conserve frames across the handoff — per instance
  ``frames_offered == len(outcomes)``, globally every planned frame has
  exactly one outcome, and no frame is processed by two instances;
* serve one aggregated ``/metrics`` whose per-instance samples and
  ``ffsva_cluster_*`` sums equal the per-instance ``RunMetrics`` ledgers;
* produce a router decision log that replays deterministically, and that a
  simulated cluster fed the equivalent load skew reproduces.

Beforehand it runs two of the streams once through a ``ThreadedPipeline``
with ``executor="process"``.  Frames cross both process boundaries — pool
worker and cluster handoff — as ``(stream, frame index)`` only, so after
the pool run and the forced handoff ``/dev/shm`` must hold no entry it did
not hold at the start: neither path creates (or leaks) a shared-memory
segment.

Exit code 0 means the cluster story works on this interpreter.
"""

import dataclasses
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import FFSVAConfig  # noqa: E402
from repro.core.pipeline import StageGraph, ffs_va_graph  # noqa: E402
from repro.devices.costs import CostModel  # noqa: E402
from repro.models import ModelZoo  # noqa: E402
from repro.nn import TrainConfig  # noqa: E402
from repro.obs import parse_prometheus  # noqa: E402
from repro.runtime import ClusterSupervisor, StreamRouter, ThreadedPipeline  # noqa: E402
from repro.sim import ClusterSimulator  # noqa: E402
from repro.video import jackson, make_stream  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.helpers import make_synth_trace  # noqa: E402

N_FRAMES = 200
TORS = (0.9, 0.05, 0.45, 0.05)  # i % 2 pairs hot+warm on instance 0


def slow_tyolo_graph(delay: float) -> StageGraph:
    """The paper cascade with T-YOLO pegged at ~1/delay frames/s."""
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


def cluster_config() -> FFSVAConfig:
    return FFSVAConfig(
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


def shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def main() -> int:
    shm_before = shm_entries()
    zoo = ModelZoo()
    streams = []
    for i, tor in enumerate(TORS):
        s = make_stream(jackson(), N_FRAMES, tor=tor, seed=60 + i)
        zoo.train_for_stream(
            s,
            n_train_frames=80,
            stride=2,
            train_config=TrainConfig(epochs=3, batch_size=32, seed=7),
        )
        streams.append(s)

    # The process executor: pool workers read their batches by index.
    pair = streams[:2]
    pipe = ThreadedPipeline(pair, zoo, FFSVAConfig(executor="process", num_sdd_procs=2))
    m = pipe.run(N_FRAMES)
    assert m.frames_offered == len(pipe.outcomes) == len(pair) * N_FRAMES
    pool = m.extra["procpool"]["sdd"]
    assert pool["frames"] == m.stages["sdd"].entered and pool["crashed_workers"] == 0, pool

    sup = ClusterSupervisor(
        streams, zoo, cluster_config(), graph=slow_tyolo_graph(0.025)
    )
    res = sup.run(N_FRAMES, online=True)
    planned = len(streams) * N_FRAMES

    # The load spike forced a re-forward of the hot stream.
    assert res.moves, "no shed/re-forward fired under forced overload"
    hot = streams[0].stream_id
    assert res.moves[0] == (hot, 0, 1), f"unexpected first move {res.moves[0]}"

    # Frame conservation across the handoff.
    for i, (metrics, outcomes) in enumerate(zip(res.instances, res.outcomes)):
        assert metrics.frames_offered == len(outcomes), (
            f"instance {i}: offered {metrics.frames_offered} != "
            f"{len(outcomes)} outcomes"
        )
    assert res.total_offered == res.total_outcomes == planned
    seen = set()
    for outcomes in res.outcomes:
        for sid, idx, _stage in outcomes:
            assert (sid, idx) not in seen, f"frame ({sid}, {idx}) processed twice"
            seen.add((sid, idx))

    # Aggregated /metrics (a real scrape of every instance's live endpoint)
    # agrees with the per-instance RunMetrics ledgers.
    samples = parse_prometheus(res.aggregated_metrics)
    per_instance = {
        labels["instance"]: value
        for name, labels, value in samples
        if name == "ffsva_frames_offered_total"
    }
    for i, m in enumerate(res.instances):
        assert per_instance[str(i)] == m.frames_offered, (
            f"instance {i}: aggregated {per_instance[str(i)]} != "
            f"RunMetrics {m.frames_offered}"
        )
    sums = [v for n, _, v in samples if n == "ffsva_cluster_frames_offered_total"]
    assert sums == [float(res.total_offered)], sums
    errors = [v for n, _, v in samples if n == "ffsva_cluster_scrape_errors_total"]
    assert errors == [0.0], f"scrape errors during aggregation: {errors}"

    # Decision-log determinism: replay, and the simulated twin's first move.
    assert StreamRouter.replay(res.router_log).moves() == res.moves
    fracs = ((0.95, 0.9, 0.4), (0.05, 0.02, 0.01), (0.55, 0.5, 0.2), (0.05, 0.02, 0.01))
    traces = [
        make_synth_trace(N_FRAMES, *frac, seed=1 + i, stream_id=s.stream_id)
        for i, (s, frac) in enumerate(zip(streams, fracs))
    ]
    sim_res = ClusterSimulator(
        traces, cluster_config(), CostModel(tyolo_infer=1.0 / 35)
    ).run()
    assert sim_res.moves and sim_res.moves[0] == res.moves[0], (
        f"simulated twin decided {sim_res.moves[:1]}, threaded {res.moves[:1]}"
    )

    leaked = sorted(shm_entries() - shm_before)
    assert not leaked, f"/dev/shm gained {leaked} across the pool run and the handoff"

    print(
        f"cluster smoke: {len(res.instances)} instances, moves={res.moves}, "
        f"{res.total_offered}/{planned} frames conserved, aggregated metrics "
        f"consistent, process executor {pool['frames']} SDD frames in "
        f"{pool['workers']} workers, /dev/shm unchanged — ok"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
