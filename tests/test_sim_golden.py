"""Byte-identity pins for the simulator's virtual results.

Every case below runs a small fleet through :class:`PipelineSimulator` (or
the cluster twin) and hashes what came out: ``RunMetrics.to_dict()`` as
sorted-key JSON and — for the telemetry-on variant — the ordered event
sequence ``(kind, stage, stream, frame, t)``.  The digests in
``sim_golden_digests.json`` were produced by the scan-everything event loop
at the commit *before* the ready-set loop replaced it; an event-loop change
that skips a visit the old loop would have acted on, or visits in another
order, moves at least one of them.

Regenerate (only when a change is *meant* to move virtual results)::

    PYTHONPATH=src:. python tests/test_sim_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import FFSVAConfig
from repro.devices.costs import CostModel
from repro.obs import Telemetry
from repro.sim import PipelineSimulator
from repro.sim.cluster import ClusterSimulator

from tests.helpers import make_synth_trace
from tests.test_cluster import SLOW_TYOLO, cluster_sim_config, skewed_traces

DIGESTS = Path(__file__).with_name("sim_golden_digests.json")
FPS = 30.0


def fleet(n_streams=6, n=150, fracs=(0.7, 0.18, 0.10)):
    return [
        make_synth_trace(n, *fracs, seed=11 + i, stream_id=f"g{i}", with_ref=True)
        for i in range(n_streams)
    ]


def run_once(config, *, online, traced, traces=None, horizon=None):
    tel = Telemetry(sample_interval=config.telemetry_sample_interval) if traced else None
    sim = PipelineSimulator(traces or fleet(), config, online=online, telemetry=tel)
    if online and horizon is None:
        horizon = max(st.n for st in sim.streams) / config.stream_fps + 2.0
    return [sim.run(horizon)], [tel]


def handoff_schedule(config, *, traced, **_):
    """``advance(until)`` epochs with one detach and one tail re-attach on
    the original arrival clock — what ``sim/cluster.py`` does to an instance."""
    traces = fleet(4, 180, (0.9, 0.6, 0.3))
    tel = Telemetry(sample_interval=config.telemetry_sample_interval) if traced else None
    sim = PipelineSimulator(traces, config, online=True, telemetry=tel)
    sim.advance(1.0)
    boundary = sim.detach_stream(1)
    sim.advance(1.7)
    sim.attach_stream(traces[1].sliced(boundary, len(traces[1])), arrival_offset=boundary)
    sim.advance(2.5)
    sim.advance(None)
    return [sim.finalize(None)], [tel]


def eps_corner(config, *, traced, **_):
    """A blocked head frame whose arrival lies in ``(now, now + 1e-12]``:
    SDD is slowed to a crawl, so frame 0 is in service and frames 1-2 fill
    the depth-2 first queue; the clock is parked a hair before frame 3's
    arrival, and that arrival must still get its own event."""
    tel = Telemetry(sample_interval=1e-13) if traced else None
    sim = PipelineSimulator(
        [make_synth_trace(40, 1.0, 1.0, 1.0, seed=3)],
        config,
        CostModel(sdd_infer=0.5),
        online=True,
        telemetry=tel,
    )
    sim.advance(3 / FPS - 5e-13)
    sim.advance(0.6)
    return [sim.finalize(0.6)], [tel]


def cluster_shed(config, **_):
    """Two instances, T-YOLO slowed so the router sheds the hot stream."""
    sim = ClusterSimulator(skewed_traces(), config, SLOW_TYOLO)
    res = sim.run()
    assert res.moves, "the golden cluster case must force a shed"
    metrics = res.instances
    metrics[0].extra["cluster"] = {"moves": res.moves, "handoffs": res.handoffs}
    return metrics, [inst.telemetry for inst in sim.instances]


def cfg(**over):
    return FFSVAConfig(stream_fps=FPS, **over)


#: name -> (runner, config, runner kwargs).  Every case runs with telemetry
#: off and on, except the cluster, whose instances always carry telemetry.
CASES = {
    **{
        f"{mode}-{policy}": (run_once, cfg(batch_policy=policy), {"online": mode == "online"})
        for mode in ("online", "offline")
        for policy in ("dynamic", "feedback", "static")
    },
    "offline-feedback-degree1": (
        run_once, cfg(batch_policy="feedback", filter_degree=1.0), {"online": False}
    ),
    **{
        f"{mode}-{name}": (run_once, cfg(cascade=name), {"online": mode == "online"})
        for mode in ("online", "offline")
        for name in ("no-sdd", "ref-only")
    },
    "online-bounded-ref": (run_once, cfg(ref_overflow_to_storage=False), {"online": True}),
    "offline-snm-fusion": (run_once, cfg(snm_fusion=True), {"online": False}),
    "online-snm-fusion-feedback": (
        run_once, cfg(snm_fusion=True, batch_policy="feedback"), {"online": True}
    ),
    "offline-tyolo-mosaic": (run_once, cfg(tyolo_mosaic=True), {"online": False}),
    "online-tyolo-mosaic": (run_once, cfg(tyolo_mosaic=True), {"online": True}),
    "offline-adaptive": (run_once, cfg(plan="adaptive", plan_epoch=32), {"online": False}),
    "online-adaptive-batching": (
        run_once,
        cfg(plan="adaptive", plan_epoch=32, adaptive_batching=True, batch_policy="feedback"),
        {"online": True},
    ),
    "online-overloaded-truncated": (
        run_once,
        cfg(),
        {"online": True, "traces": fleet(10, 200, (1.0, 1.0, 1.0)), "horizon": 3.0},
    ),
    "handoff-schedule": (handoff_schedule, cfg(batch_policy="feedback"), {}),
    "eps-corner": (eps_corner, cfg(), {}),
    "cluster-forced-shed": (cluster_shed, cluster_sim_config(), {}),
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def digests(name: str) -> dict[str, str]:
    runner, config, kwargs = CASES[name]
    out = {}
    for traced in (True,) if runner is cluster_shed else (False, True):
        metrics, telemetries = runner(config, **kwargs, traced=traced)
        tag = "traced" if traced else "plain"
        out[f"{tag}.metrics"] = digest([m.to_dict() for m in metrics])
        if traced:
            out["traced.events"] = digest(
                [
                    [(e.kind, e.stage, e.stream, e.frame, e.ts) for e in tel.bus.events()]
                    for tel in telemetries
                ]
            )
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_virtual_results_match_golden(name):
    golden = json.loads(DIGESTS.read_text())
    assert digests(name) == golden[name]


def test_overloaded_case_truncates_and_eps_corner_fires():
    """The matrix really contains the corners it claims to pin."""
    runner, config, kwargs = CASES["online-overloaded-truncated"]
    (m,), _ = runner(config, **kwargs, traced=False)
    assert m.extra["truncated"] and m.frames_ingested < m.frames_offered
    (m,), (tel,) = eps_corner(cfg(), traced=True)
    stamps = {t for name in tel.sampler.names for t, _ in tel.sampler.points(name)}
    assert {3 / FPS - 5e-13, 3 / FPS} <= stamps


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({n: digests(n) for n in sorted(CASES)}, indent=1) + "\n")
    print(f"wrote {DIGESTS}")
