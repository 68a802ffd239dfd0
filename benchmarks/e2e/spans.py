"""Layer-boundary spans recorded from the benchmark's side of the API.

Nothing under ``src/`` is instrumented: the traced run hands the engine a
``StageGraph`` whose ``StageLogic.evaluate`` callables are wrapped and
``VideoStream`` proxies whose ``pixels()`` is timed.  Each call records one
:class:`Span`; spans stay in memory and are dumped once at exit.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core import StageGraph

from .registry import LAYERS

__all__ = ["Span", "SpanRecorder", "StreamProxy", "traced_graph", "self_cpu", "layer_table"]

#: Span id of the unit's root span (``runtime.engine``); every layer span
#: names it as the span that caused it.
ROOT = 0


@dataclass(frozen=True)
class Span:
    layer: str
    start: float  # time.perf_counter()
    end: float
    cpu: float  # CPU seconds: thread_time for layer spans, process_time for the root
    frames_in: int
    frames_out: int
    stream: str | None
    thread: int
    frame: int | None = None  # source frame index (render spans only)
    parent: int | None = ROOT


class SpanRecorder:
    """Append-only span list shared by every wrapped call of one unit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, span: Span) -> None:
        self.spans.append(span)  # list.append is atomic under the GIL

    def dump(self, path) -> None:
        """One JSON row per span; ``batch`` is the call's ordinal at its layer."""
        ordinal: dict[str, int] = {}
        rows = []
        for s in self.spans:
            row = dataclasses.asdict(s)
            row["batch"] = ordinal[s.layer] = ordinal.get(s.layer, -1) + 1
            rows.append(row)
        with open(path, "w") as fh:
            json.dump(rows, fh, separators=(",", ":"))


class StreamProxy:
    """Delegates to a ``VideoStream``, timing ``pixels()``."""

    def __init__(self, stream, recorder: SpanRecorder):
        self._stream = stream
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __len__(self) -> int:
        return len(self._stream)

    def pixels(self, t: int) -> np.ndarray:
        w0, c0 = time.perf_counter(), time.thread_time()
        out = self._stream.pixels(t)
        c1, w1 = time.thread_time(), time.perf_counter()
        self._recorder.add(
            Span(LAYERS["render"], w0, w1, c1 - c0, 1, 1,
                 self._stream.stream_id, threading.get_ident(), frame=t)
        )
        return out


def traced_graph(graph: StageGraph, recorder: SpanRecorder) -> StageGraph:
    """``graph`` with every stage's ``evaluate`` wrapped in a span."""

    def wrap(layer: str, evaluate):
        def traced(pixels, bundles, zoo, config):
            w0, c0 = time.perf_counter(), time.thread_time()
            passes, info = evaluate(pixels, bundles, zoo, config)
            c1, w1 = time.thread_time(), time.perf_counter()
            streams = {b.stream_id for b in bundles}
            recorder.add(
                Span(layer, w0, w1, c1 - c0, len(pixels), int(np.count_nonzero(passes)),
                     streams.pop() if len(streams) == 1 else None, threading.get_ident())
            )
            return passes, info

        return traced

    specs = [
        dataclasses.replace(
            spec,
            logic=dataclasses.replace(
                spec.logic, evaluate=wrap(LAYERS[spec.name], spec.logic.evaluate)
            ),
        )
        for spec in graph
    ]
    return StageGraph(specs, name=graph.name)


def self_cpu(root: Span, spans: list[Span]) -> float:
    """CPU seconds of ``root`` not covered by its child spans.

    Layer spans overlap in wall time (they run on different threads), so
    the self-time rule is applied on the CPU clock: the root carries the
    process's CPU, each child its own thread's, and the difference is what
    the process burnt outside every layer.
    """
    return root.cpu - sum(s.cpu for s in spans if s.parent == ROOT and s is not root)


def layer_table(root: Span, spans: list[Span], frames_offered: int) -> dict[str, float]:
    """Per-layer rows plus the engine rows that make them sum to the total."""
    out: dict[str, float] = {}
    for layer in LAYERS.values():
        mine = [s for s in spans if s.layer == layer]
        frames_in = sum(s.frames_in for s in mine)
        cpu = sum(s.cpu for s in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.frames_in"] = frames_in
        out[f"{layer}.frames_out"] = sum(s.frames_out for s in mine)
        out[f"{layer}.busy_cpu_s"] = cpu
        out[f"{layer}.busy_wall_s"] = sum(s.end - s.start for s in mine)
        out[f"{layer}.cpu_ms_per_frame"] = 1e3 * cpu / frames_in if frames_in else 0.0
        out[f"{layer}.mean_batch"] = frames_in / len(mine) if mine else 0.0
    out["runtime.engine.process_cpu_ms_per_frame"] = 1e3 * root.cpu / frames_offered
    out["runtime.engine.overhead_cpu_ms_per_frame"] = 1e3 * self_cpu(root, spans) / frames_offered
    out["runtime.engine.gil_stall_s"] = sum(
        (s.end - s.start) - s.cpu for s in spans if s is not root
    )
    out["runtime.engine.threads"] = len({s.thread for s in spans if s is not root})
    return out
