"""Query-driven frame replay from the stream's stored clip.

The store records *which* frames the cascade analyzed; replay brings their
*pixels* back.  :func:`replay_detections` takes a query result (a reader +
filters), reads exactly the matching frames of one stream — one frame
resident at a time, from the stored clip
(:class:`~repro.video.clipstore.StoredClip`) wherever the run that produced
the rows already rendered them — and can optionally re-run a detector over
them to attach boxes the live sinks never record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .detstore import DetectionRecord
from .query import detected_frames

__all__ = ["ReplayResult", "replay_detections"]

_INF = float("inf")


@dataclass
class ReplayResult:
    """What a replay produced, plus the stream's read counters after it."""

    records: list[DetectionRecord] = field(default_factory=list)
    frames: list[int] = field(default_factory=list)
    clip_stats: dict = field(default_factory=dict)


def replay_detections(
    reader,
    stream,
    *,
    t0: float = -_INF,
    t1: float = _INF,
    stream_id: str | None = None,
    detector=None,
    detector_cls: str = "object",
    disposition: str = "detected",
) -> ReplayResult:
    """Re-decode the frames a query matches, one frame resident at a time.

    ``stream`` is the :class:`~repro.video.stream.VideoStream` (or synth
    stream) holding the pixels; ``stream_id`` is its id in the store
    (defaults to ``stream.stream_id``).  Frames the store knows but the
    clip no longer covers (shorter re-render, retention of the source) are
    skipped rather than fatal.  With ``detector`` set, each replayed frame
    runs ``detector.detect(pixels, background)`` and every detection
    becomes a box-filled record with ``disposition="replay"``; without it
    the result just carries the decoded frame indices and ``stream.stats()``.
    """
    if stream_id is None:
        stream_id = getattr(stream, "stream_id", None) or str(stream)
    frames = detected_frames(reader, stream_id, t0=t0, t1=t1, disposition=disposition)
    background = stream.reference_image() if detector is not None else None
    fps = float(getattr(stream, "fps", 30.0))
    records: list[DetectionRecord] = []
    replayed: list[int] = []
    for f in frames:
        if not 0 <= f < len(stream):
            continue
        px = stream.pixels(f)
        replayed.append(f)
        if detector is None:
            continue
        for det in detector.detect(px, background):
            records.append(
                DetectionRecord(
                    stream=stream_id,
                    frame=f,
                    t=f / fps,
                    cls=detector_cls,
                    box=(
                        float(det.x0),
                        float(det.y0),
                        float(det.x1),
                        float(det.y1),
                    ),
                    score=float(det.confidence),
                    disposition="replay",
                )
            )
    return ReplayResult(records=records, frames=replayed, clip_stats=stream.stats())
