"""Online stream admission and inter-instance load balancing (Section 4.3.1).

The paper's rules:

* "when the execution speed of T-YOLO is lower than a certain level
  (e.g., 140 FPS) for a period of time (e.g., 5s), it means this FFS-VA
  instance has spare ability to serve extra streams.  Consequently, a new
  stream can be considered to add into the instance."
* "when any queue of T-YOLO or SNM is longer than its predefined threshold,
  it means that the FFS-VA instance overloads.  The corresponding video
  stream is re-forwarded to another FFS-VA instance with spare capacity
  immediately."

:class:`AdmissionController` turns those two rules into signals — but it
holds **no measurement state of its own**.  Both the throughput window and
the queue depths are read from the ``repro.obs`` time-series sampler
through :class:`~repro.obs.control.SignalReader`, so the threaded engine,
the simulator, and any offline replay of a recorded series all make the
*same* decision from the same data (the closed loop).
:func:`max_realtime_streams` searches for the largest stream count an
instance sustains in real time — the quantity Figures 3, 4, and 6a report.

The *cluster policy core* lives here too, deliberately free of any runtime
machinery so the threaded serving plane (``repro.runtime.router``), the
simulated one (``repro.sim.cluster``), and the offline
:class:`InstanceGroup` all share one decision function:
:func:`pick_move` maps a vector of :class:`InstanceView` reports to at most
one :class:`Move` per epoch, and :func:`estimate_headroom` turns a sampled
rate series into the spare-capacity scalar those views carry (via
:meth:`~repro.obs.control.SignalReader.ewma`, so irregular sampling
intervals are weighted correctly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..obs.control import Hysteresis, SignalReader
from ..obs.sampler import TimeSeriesSampler
from .config import FFSVAConfig
from .metrics import RunMetrics
from .trace import FrameTrace

__all__ = [
    "AdmissionController",
    "max_realtime_streams",
    "InstanceGroup",
    "InstanceView",
    "Move",
    "pick_move",
    "estimate_headroom",
]


class AdmissionController:
    """Sampler-driven admission / overload signals for one instance.

    Decisions are a pure function of the sampled series: ``can_admit``
    reads ``stage_fps[<rate_stage>]`` (T-YOLO in the paper's cascade) and
    ``overloaded`` reads the ``queue_depth[...]`` gauges both runtimes
    sweep into the same sampler.  ``poll`` combines them into a debounced
    admit/hold/shed state machine and logs only the *transitions*, so two
    runs that saw equivalent series produce identical decision logs even
    when their clocks differ.
    """

    def __init__(
        self,
        config: FFSVAConfig | None = None,
        sampler: TimeSeriesSampler | None = None,
        *,
        graph=None,
        rate_stage: str | None = None,
    ):
        self.config = config or FFSVAConfig()
        self.sampler = sampler or TimeSeriesSampler(
            interval=self.config.telemetry_sample_interval
        )
        self.reader = SignalReader(self.sampler)
        if graph is None:
            graph = self.config.graph()
        if rate_stage is None:
            # The paper watches T-YOLO — the last filter before the
            # reference model.  Generalized: the non-terminal stage closest
            # to the terminal one (the terminal itself for ref-only).
            non_terminal = [spec.name for spec in graph if not spec.terminal]
            rate_stage = non_terminal[-1] if non_terminal else graph.terminal.name
        self.rate_stage = rate_stage
        self.rate_series = f"stage_fps[{rate_stage}]"
        # Monitored queues: every stage except the first (it pops its
        # streams' sources, not a queue) and the terminal stage (whose
        # overflow policy is handled separately).  Queue names arrive in the
        # runtimes' ``stage[i]`` / ``stage`` forms.
        self._monitored = {
            spec.name: self.config.queue_depth(spec.depth_key)
            * self.config.admission_depth_fraction
            for spec in graph
            if spec.name != graph.first.name and not spec.terminal
        }
        self._shed = Hysteresis(up=self.config.admission_hysteresis, down=1)
        #: Decision transitions: ``{"t": float, "state": "admit|hold|shed"}``.
        self.decisions: list[dict] = []
        self.state = "hold"

    def observe_tyolo_rate(self, time: float, fps: float) -> None:
        """Record a throughput sample *into the shared series*.

        Compatibility shim for callers that measured the rate themselves;
        runtimes normally feed the series via their sampler sweeps.
        """
        self.sampler.observe(self.rate_series, time, fps, force=True)

    def can_admit(self, now: float | None = None) -> bool:
        """Spare capacity: the rate stage stayed under the threshold all
        window long.

        Requires the retained points to actually cover ``admission_window``
        seconds; a half-empty window is not yet evidence.
        """
        return self.reader.all_below(
            self.rate_series,
            self.config.admission_tyolo_fps,
            self.config.admission_window,
            now,
        )

    def overloaded(self, queue_depths: dict[str, int] | None = None) -> bool:
        """Any mid-cascade queue beyond its threshold means overload.

        With no explicit depths, the latest ``queue_depth[...]`` gauges are
        read from the sampler (the closed-loop path); passing a dict keeps
        the raw-signal form available for tests and external monitors.
        """
        if queue_depths is None:
            queue_depths = self.reader.latest_map("queue_depth")
        for name, depth in queue_depths.items():
            threshold = self._monitored.get(name.split("[")[0])
            if threshold is not None and depth > threshold:
                return True
        return False

    def poll(self, now: float) -> str:
        """One control sweep: debounce overload, combine with admission.

        Returns the current state and appends to :attr:`decisions` only on
        transitions.  Shed dominates admit; overload must persist for
        ``config.admission_hysteresis`` consecutive polls before the state
        trips (one calm poll clears it).
        """
        shed = self._shed.update(self.overloaded())
        if shed:
            state = "shed"
        elif self.can_admit(now):
            state = "admit"
        else:
            state = "hold"
        if state != self.state:
            self.decisions.append({"t": float(now), "state": state})
            self.state = state
        return state

    def decision_labels(self) -> list[str]:
        """Just the transition labels — clock-free, cross-runtime comparable."""
        return [d["state"] for d in self.decisions]

    def summary(self) -> dict:
        """JSON-able record for ``RunMetrics.extra["admission"]``."""
        return {
            "rate_stage": self.rate_stage,
            "state": self.state,
            "decisions": [dict(d) for d in self.decisions],
        }


def max_realtime_streams(
    run_with_n: Callable[[int], RunMetrics],
    *,
    n_max: int = 64,
    stream_fps: float = 30.0,
    tolerance: float = 0.98,
) -> tuple[int, dict[int, RunMetrics]]:
    """Largest N for which ``run_with_n(N)`` sustains real-time ingest.

    Uses an exponential probe followed by bisection, so expensive simulations
    run O(log n_max) times.  Returns the maximum N (0 if even one stream
    fails) plus all evaluated runs keyed by N.
    """
    runs: dict[int, RunMetrics] = {}

    def ok(n: int) -> bool:
        if n not in runs:
            runs[n] = run_with_n(n)
        return runs[n].realtime(stream_fps, tolerance)

    if not ok(1):
        return 0, runs
    lo = 1
    hi = 2
    while hi <= n_max and ok(hi):
        lo = hi
        hi *= 2
    if hi > n_max:
        hi = n_max + 1
        if lo < n_max and ok(n_max):
            return n_max, runs
    # Invariant: ok(lo), not ok(hi).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, runs


# ---------------------------------------------------------------------------
# cluster policy core (pure; shared by runtime.router, sim.cluster, and
# InstanceGroup)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceView:
    """One instance's state as the router sees it at an epoch boundary.

    ``state`` is the instance's admission state (``admit``/``hold``/
    ``shed``), ``headroom`` its spare-capacity estimate (higher = more
    spare; only the relative order matters to the policy), and ``costs``
    maps each *re-forwardable* stream to its observed expense (frames that
    passed the first filter, in the live runtimes).  Streams that already
    delivered every frame must not appear in ``costs``.
    """

    state: str
    headroom: float
    costs: Mapping[str, float]


@dataclass(frozen=True)
class Move:
    """One re-forwarding decision: ``stream`` leaves ``src`` for ``dst``."""

    stream: str
    src: int
    dst: int


def pick_move(views: Sequence[InstanceView]) -> Move | None:
    """The paper's re-forwarding rule as a pure function of instance views.

    At most one move per epoch: the most-pressed overloaded instance (state
    ``shed``, more than one live stream, lowest headroom — ties to the
    lowest index) sheds its most expensive stream (ties to the smallest
    stream id) to the spare-capacity instance (state ``admit``) with the
    most headroom (ties to the lowest index).  Returns ``None`` when no
    instance is shedding, the shedder serves a single stream (nothing may
    leave an instance streamless), or nowhere reports spare capacity.
    """
    sources = [
        i for i, v in enumerate(views) if v.state == "shed" and len(v.costs) > 1
    ]
    if not sources:
        return None
    src = min(sources, key=lambda i: (views[i].headroom, i))
    targets = [i for i, v in enumerate(views) if i != src and v.state == "admit"]
    if not targets:
        return None
    dst = min(targets, key=lambda i: (-views[i].headroom, i))
    costs = views[src].costs
    stream = min(costs, key=lambda sid: (-costs[sid], sid))
    return Move(stream=stream, src=src, dst=dst)


def estimate_headroom(
    reader: SignalReader,
    config: FFSVAConfig,
    rate_series: str,
    *,
    now: float | None = None,
) -> float:
    """Spare rate capacity of one instance, from its sampled series.

    The admission threshold minus the EWMA-smoothed observed rate of the
    rate stage (T-YOLO in the paper's cascade): an instance running well
    under the "140 FPS" level has headroom in proportion.  The EWMA's time
    constant is the admission window, and its irregular-interval weighting
    means sampler decimation cannot bias the estimate.  No samples yet —
    or a rate at/over the threshold — mean zero claimed headroom.
    """
    rate = reader.ewma(rate_series, config.admission_window, now)
    if rate is None:
        return 0.0
    return max(0.0, config.admission_tyolo_fps - rate)


class InstanceGroup:
    """A set of FFS-VA instances with re-forwarding between them.

    The group assigns streams greedily and applies the paper's rules after
    each evaluation epoch: overloaded instances shed their most expensive
    stream to the instance with the most headroom.  The decision itself is
    :func:`pick_move` over ingest-ratio views — the same policy core the
    live cluster router and the simulated cluster run every epoch.
    """

    def __init__(
        self,
        n_instances: int,
        run_instance: Callable[[list[FrameTrace]], RunMetrics],
        config: FFSVAConfig | None = None,
    ):
        if n_instances < 1:
            raise ValueError("need at least one instance")
        self.config = config or FFSVAConfig()
        self.run_instance = run_instance
        self.assignments: list[list[FrameTrace]] = [[] for _ in range(n_instances)]
        self.history: list[dict] = []

    def assign(self, traces: Sequence[FrameTrace]) -> None:
        """Initial round-robin placement of streams onto instances."""
        for i, tr in enumerate(traces):
            self.assignments[i % len(self.assignments)].append(tr)

    def epoch(self) -> list[RunMetrics]:
        """Evaluate every instance once and apply one re-forwarding step."""
        results = [
            self.run_instance(traces) if traces else RunMetrics(n_streams=0)
            for traces in self.assignments
        ]
        # Ingest ratio is the headroom signal (1.0 = keeping up).  Ratios
        # map onto admission states: an instance dropping >2% of its input
        # is shedding, one ingesting everything has spare capacity, and
        # the band between is "hold".  Stream cost is the assignment
        # position, so the most expensive stream is the most recently
        # placed one — the paper re-forwards the stream whose addition
        # tipped the instance over.
        ratios = [
            (m.frames_ingested / m.frames_offered) if m.frames_offered else 1.0
            for m in results
        ]
        views = [
            InstanceView(
                state="shed" if r < 0.98 else ("admit" if r >= 0.999 else "hold"),
                headroom=r,
                costs={tr.stream_id: pos for pos, tr in enumerate(traces)},
            )
            for r, traces in zip(ratios, self.assignments)
        ]
        move = pick_move(views)
        moved = None
        if move is not None:
            src = self.assignments[move.src]
            moved = src.pop(
                next(i for i, tr in enumerate(src) if tr.stream_id == move.stream)
            )
            self.assignments[move.dst].append(moved)
        self.history.append(
            {
                "ratios": ratios,
                "moved": None if moved is None else moved.stream_id,
                "from": move.src if moved is not None else None,
                "to": move.dst if moved is not None else None,
            }
        )
        return results
