"""Frame traces: precomputed filter observables for a stream.

The simulated runtime must make the *same filtering decisions* the real
models make, at paper-scale frame counts.  The key observation is that every
threshold in FFS-VA is applied to a scalar the models compute per frame:

=========  =========================  ===========================
Filter      Observable                 Decision
=========  =========================  ===========================
SDD         distance to reference      pass iff distance > delta_diff
SNM         probability c              pass iff c >= t_pre(FilterDegree)
T-YOLO      detected object count      pass iff count >= NumberofObjects-relax
reference   detected object count      (final analysis / accuracy oracle)
=========  =========================  ===========================

A :class:`FrameTrace` stores those observables for every frame of a clip,
computed **once** by the real models in vectorized batches.  Any
combination of FilterDegree / NumberofObjects / relax / batch mechanism can
then be evaluated without re-running inference — which is exactly what the
threshold-sensitivity experiments (Figures 7 and 8) sweep.

Traces also power multi-stream experiments cheaply: the paper extracts
non-overlapping clips of one video to simulate many streams, and
:meth:`FrameTrace.rotated` provides the analogous trick (same scene
statistics, shifted phase).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..models.tyolo import count_filter_mask
from ..models.zoo import ModelZoo, StreamModels
from ..video.ops import FRAME_CHUNK
from ..video.stream import VideoStream

__all__ = ["FrameTrace", "build_trace"]


@dataclass(frozen=True)
class FrameTrace:
    """Per-frame filter observables for one stream clip."""

    stream_id: str
    kind: str
    fps: float
    sdd_dist: np.ndarray
    sdd_threshold: float
    snm_prob: np.ndarray
    c_low: float
    c_high: float
    tyolo_count: np.ndarray
    gt_count: np.ndarray
    ref_count: np.ndarray | None = None
    #: Proposed T-YOLO active-cell ROIs as one flat ``(R, 5)`` int array of
    #: ``(frame, cy0, cx0, cy1, cx1)`` rows, sorted by frame.  These are the
    #: *raw* merged-blob boxes (config-independent); the whole-frame
    #: fallback is applied at use time by
    #: :func:`repro.models.mosaic.effective_regions`.  ``None`` marks a
    #: trace recorded before region proposal existed.
    mosaic_regions: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.sdd_dist)
        for name in ("snm_prob", "tyolo_count", "gt_count"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch ({len(getattr(self, name))} != {n})")
        if self.ref_count is not None and len(self.ref_count) != n:
            raise ValueError("ref_count length mismatch")
        if self.mosaic_regions is not None:
            r = self.mosaic_regions
            if r.ndim != 2 or r.shape[1] != 5:
                raise ValueError("mosaic_regions must be an (R, 5) array")
            if len(r) and (r[:, 0].min() < 0 or r[:, 0].max() >= n):
                raise ValueError("mosaic_regions frame index out of range")

    def __len__(self) -> int:
        return len(self.sdd_dist)

    # -- decisions -------------------------------------------------------
    def sdd_pass(self) -> np.ndarray:
        """Mask of frames SDD forwards (content differs from background)."""
        return self.sdd_dist > self.sdd_threshold

    def t_pre(self, filter_degree: float) -> float:
        """Equation 2 on this trace's calibrated thresholds."""
        if not 0.0 <= filter_degree <= 1.0:
            raise ValueError("filter_degree must be in [0, 1]")
        return (self.c_high - self.c_low) * filter_degree + self.c_low

    def snm_pass(self, filter_degree: float) -> np.ndarray:
        """Mask of frames SNM forwards at the given FilterDegree."""
        return self.snm_prob >= self.t_pre(filter_degree)

    def tyolo_pass(self, number_of_objects: int = 1, relax: int = 0) -> np.ndarray:
        """Mask of frames T-YOLO forwards at the given intensity threshold."""
        return count_filter_mask(self.tyolo_count, number_of_objects, relax)

    def cascade_pass(
        self, filter_degree: float, number_of_objects: int = 1, relax: int = 0
    ) -> np.ndarray:
        """Frames that survive all three filters (reach the reference model)."""
        return (
            self.sdd_pass()
            & self.snm_pass(filter_degree)
            & self.tyolo_pass(number_of_objects, relax)
        )

    def tor(self) -> float:
        """Ground-truth target-object ratio of the clip."""
        return float((self.gt_count > 0).mean()) if len(self) else 0.0

    def regions_by_frame(self) -> list[np.ndarray] | None:
        """Per-frame ``(R, 4)`` ROI arrays, or ``None`` when unrecorded.

        Splits the flat :attr:`mosaic_regions` table by frame; frames with
        no active cells get an empty array (they cost no canvas space).
        """
        if self.mosaic_regions is None:
            return None
        flat = self.mosaic_regions
        order = np.argsort(flat[:, 0], kind="stable")
        flat = flat[order]
        splits = np.searchsorted(flat[:, 0], np.arange(len(self) + 1))
        return [flat[splits[i] : splits[i + 1], 1:] for i in range(len(self))]

    # -- transforms ------------------------------------------------------
    def rotated(self, offset: int) -> "FrameTrace":
        """Circularly shift the clip by ``offset`` frames (a phase-shifted
        'non-overlapping clip' with identical content statistics)."""
        offset %= max(len(self), 1)
        roll = lambda a: None if a is None else np.roll(a, -offset)
        regions = self.mosaic_regions
        if regions is not None and len(regions):
            regions = regions.copy()
            regions[:, 0] = (regions[:, 0] - offset) % len(self)
            regions = regions[np.lexsort(regions.T[::-1])]
        return replace(
            self,
            sdd_dist=roll(self.sdd_dist),
            snm_prob=roll(self.snm_prob),
            tyolo_count=roll(self.tyolo_count),
            gt_count=roll(self.gt_count),
            ref_count=roll(self.ref_count),
            mosaic_regions=regions,
        )

    def sliced(self, start: int, stop: int) -> "FrameTrace":
        """A sub-clip trace over ``[start, stop)``."""
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"bad slice [{start}, {stop}) for trace of {len(self)}")
        cut = lambda a: None if a is None else a[start:stop]
        regions = self.mosaic_regions
        if regions is not None:
            keep = (regions[:, 0] >= start) & (regions[:, 0] < stop)
            regions = regions[keep].copy()
            regions[:, 0] -= start
        return replace(
            self,
            sdd_dist=cut(self.sdd_dist),
            snm_prob=cut(self.snm_prob),
            tyolo_count=cut(self.tyolo_count),
            gt_count=cut(self.gt_count),
            ref_count=cut(self.ref_count),
            mosaic_regions=regions,
        )

    def renamed(self, stream_id: str) -> "FrameTrace":
        return replace(self, stream_id=stream_id)


def build_trace(
    stream: VideoStream,
    zoo: ModelZoo | None = None,
    *,
    with_ref: bool = False,
    n_frames: int | None = None,
    **train_kwargs,
) -> FrameTrace:
    """Run the real models over ``stream`` and record their observables.

    The clip is read and run :data:`~repro.video.ops.FRAME_CHUNK` frames at
    a time, so the pass holds one chunk of pixels and workspace however long
    the clip; at the end it hands the bundle's and the shared detectors'
    workspaces back.

    Parameters
    ----------
    zoo:
        A :class:`ModelZoo`; the stream's specialized models are trained on
        demand if not yet registered.
    with_ref:
        Also run the reference model over *every* frame (needed by accuracy
        experiments, expensive otherwise).
    n_frames:
        Trace only the first ``n_frames`` frames.
    """
    zoo = zoo or ModelZoo()
    if stream.stream_id not in zoo:
        zoo.train_for_stream(stream, **train_kwargs)
    bundle: StreamModels = zoo[stream.stream_id]

    n = len(stream) if n_frames is None else min(n_frames, len(stream))
    sdd_dist = np.empty(n, dtype=np.float64)
    snm_prob = np.empty(n, dtype=np.float32)
    tyolo_count = np.empty(n, dtype=np.int64)
    ref_count = np.empty(n, dtype=np.int64) if with_ref else None
    region_rows: list[np.ndarray] = []

    for start in range(0, n, FRAME_CHUNK):
        stop = min(start + FRAME_CHUNK, n)
        px = stream.pixel_batch(np.arange(start, stop))
        sdd_dist[start:stop] = bundle.sdd.distances(px)
        snm_prob[start:stop] = bundle.snm.predict_proba(px)
        counts, regions = zoo.tyolo.count_and_regions(px, bundle.background)
        tyolo_count[start:stop] = counts
        for j, boxes in enumerate(regions):
            if len(boxes):
                frames_col = np.full((len(boxes), 1), start + j, dtype=np.int64)
                region_rows.append(np.hstack([frames_col, boxes]))
        if ref_count is not None:
            ref_count[start:stop] = zoo.reference.count_batch(px, bundle.background)
    bundle.release()
    zoo.tyolo.detector.release()
    zoo.reference.detector.release()

    mosaic_regions = (
        np.concatenate(region_rows)
        if region_rows
        else np.zeros((0, 5), dtype=np.int64)
    )

    return FrameTrace(
        stream_id=stream.stream_id,
        kind=stream.kind,
        fps=stream.fps,
        sdd_dist=sdd_dist,
        sdd_threshold=bundle.sdd.threshold,
        snm_prob=snm_prob,
        c_low=bundle.snm.c_low,
        c_high=bundle.snm.c_high,
        tyolo_count=tyolo_count,
        gt_count=stream.gt_counts()[:n].astype(np.int64),
        ref_count=ref_count,
        mosaic_regions=mosaic_regions,
    )
