"""Grid-cell object detection backbone shared by T-YOLO and the reference model.

The paper's third filter is Tiny-YOLO-Voc: "T-YOLO divides the input image
into a 13*13 grid cells automatically.  Each grid cell predicts 5 bounding
boxes and confidence scores for these boxes.  If the confidence score
exceeds the threshold (e.g., 0.2), one target object is considered to appear
in the image."  The reference model is full YOLOv2 — the same idea at higher
fidelity.

We reproduce both as instances of one *real* detection algorithm whose
fidelity is controlled by its working resolution and grid granularity:

1. resize the frame and the scene's reference background to
   ``resolution`` × ``resolution``,
2. correct for global lighting drift by scaling the background to the
   frame's median luminance (surveillance lighting is multiplicative), then
   take the absolute deviation as a per-pixel foreground response,
3. pool the response into ``grid`` × ``grid`` cells,
4. mark cells whose response exceeds an activation threshold, group
   connected active cells into detections (connected components play the
   role of non-maximum suppression: one detection per blob), and
5. score each detection with a confidence from its peak cell response,
   keeping those above ``conf_threshold``.

Where the real T-YOLO separates objects from background via *learned
appearance*, our substitute uses the fixed-viewpoint scene prior
(background subtraction) — the detector parameters stay generic and shared
across streams; only the per-stream scene reference differs, just as a
trained detector implicitly knows typical backgrounds.  DESIGN.md section 2
records this substitution.

The **fidelity gap** between T-YOLO (13×13 cells) and the reference model
(a much finer grid) is structural, exactly as in the paper: at 13×13, two
small objects closer than one cell merge into one detection (under-counting
dense crowds — the Section 5.3.3 person-detection error mode) and objects
barely entering the frame activate no cell strongly enough (missing partial
appearances — the other documented error mode).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..video.ops import (
    FRAME_CHUNK,
    block_reduce_mean,
    frame_median,
    get_resize_plan,
    resize_bilinear,
)

__all__ = ["Backgrounds", "Detection", "GridDetector", "classify_kind"]

#: A detector call's scene reference: one ``(H, W)`` background for the
#: whole batch, or a sequence of them, one per frame (a batch that mixes
#: streams).
Backgrounds = np.ndarray | Sequence[np.ndarray]


def _merge_overlaps(boxes) -> np.ndarray:
    """Merge overlapping half-open boxes to a fixed point, sorted.

    Input boxes are ``(y0, x0, y1, x1)`` tuples; the result is an
    ``(R, 4)`` int64 array of pairwise-disjoint boxes whose union covers
    every input box (merging only grows boxes, so any cell covered before
    is covered after).
    """
    boxes = [tuple(int(v) for v in b) for b in boxes]
    merged = True
    while merged:
        merged = False
        out: list[tuple[int, int, int, int]] = []
        for b in boxes:
            for i, o in enumerate(out):
                if b[0] < o[2] and o[0] < b[2] and b[1] < o[3] and o[1] < b[3]:
                    out[i] = (
                        min(o[0], b[0]),
                        min(o[1], b[1]),
                        max(o[2], b[2]),
                        max(o[3], b[3]),
                    )
                    merged = True
                    break
            else:
                out.append(b)
        boxes = out
    boxes.sort()
    return np.array(boxes, dtype=np.int64).reshape(-1, 4)


@dataclass(frozen=True)
class Detection:
    """One detected object in original-frame coordinates."""

    x0: float
    y0: float
    x1: float
    y1: float
    confidence: float
    kind: str

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)


def classify_kind(width: float, height: float) -> str:
    """Assign a class label from box geometry.

    Vehicles present wider-than-tall boxes, pedestrians taller-than-wide —
    the standard aspect-ratio prior.  This keeps the detector genuinely
    multi-class (the paper's T-YOLO detects 20 VOC classes; we model the two
    the evaluation uses).
    """
    if height <= 0:
        return "car"
    return "car" if width / height >= 1.0 else "person"


# Typical foreground deviation produced by an object; maps raw responses onto
# a [0, 1]-ish confidence scale compatible with the paper's conf > 0.2.
_RESPONSE_SCALE = 0.25

# 4-connectivity, built once: ``ndimage.label`` rebuilds it on every call
# when none is passed.
_CROSS = ndimage.generate_binary_structure(2, 1)

# Backgrounds one detector keeps resized at a time: every stream of a node
# shares the detector, and each brings its own.  Past the bound the oldest
# entry goes (and is resized again on that stream's next turn).
_BG_CACHE_SIZE = 64


class GridDetector:
    """Background-deviation grid detector (see module docstring).

    Parameters
    ----------
    grid:
        Number of cells per side (13 for T-YOLO).
    resolution:
        Working resolution per side; must be a multiple of ``grid``.
    conf_threshold:
        Minimum detection confidence (paper default 0.2).
    cell_activation:
        Minimum normalized cell response for a cell to participate in a
        detection blob.
    name:
        Used in cost-model lookups and reporting.
    """

    def __init__(
        self,
        grid: int = 13,
        resolution: int = 104,
        conf_threshold: float = 0.2,
        cell_activation: float = 0.15,
        name: str = "griddet",
    ):
        if resolution % grid != 0:
            raise ValueError(f"resolution {resolution} must be a multiple of grid {grid}")
        if not 0.0 < conf_threshold < 1.0:
            raise ValueError("conf_threshold must be in (0, 1)")
        self.grid = grid
        self.resolution = resolution
        self.cell = resolution // grid
        self.conf_threshold = conf_threshold
        self.cell_activation = cell_activation
        self.name = name
        # id(background) -> (background, resized, median of resized), one
        # entry per stream sharing this detector.
        self._bg_cache: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        #: Steady-state workspace, ``(3, frames, resolution, resolution)``:
        #: the resized chunk, the median's partition copy and the deviation.
        self._work: np.ndarray | None = None

    def release(self) -> None:
        """Drop the chunk-sized workspace; it re-grows on first use."""
        self._work = None

    def workspace_bytes(self) -> int:
        """Bytes of the chunk-sized workspace held right now."""
        return 0 if self._work is None else self._work.nbytes

    # ------------------------------------------------------------------
    def _resized_background(
        self, background: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Cached ``(background, resized to working resolution, its median)``."""
        # Entries hold a strong reference to their source array and match by
        # identity: an ``id()`` key alone can collide when a background is
        # garbage-collected and a new array lands at the same address,
        # silently serving a stale resize.  Keeping the reference alive makes
        # address reuse impossible while cached.
        entry = self._bg_cache.get(id(background))
        if entry is None or entry[0] is not background:
            resized = resize_bilinear(
                background, (self.resolution, self.resolution), copy=True
            )
            entry = (background, resized, float(np.median(resized)) or 1.0)
            if len(self._bg_cache) >= _BG_CACHE_SIZE:
                del self._bg_cache[next(iter(self._bg_cache))]
            self._bg_cache[id(background)] = entry
        return entry

    def response_cells(self, frames: np.ndarray, background: Backgrounds) -> np.ndarray:
        """Normalized per-cell foreground response, ``(N, grid, grid)``.

        Vectorized over the batch, whose frames may each bring their own
        background; this is the detector's hot path.
        """
        batch = np.asarray(frames, dtype=np.float32)
        single = batch.ndim == 2
        if single:
            batch = batch[None]
        backgrounds = self._per_frame(background, len(batch))
        g = self.grid
        cells = np.empty((len(batch), g, g), dtype=np.float32)
        for start in range(0, len(batch), FRAME_CHUNK):
            stop = start + FRAME_CHUNK
            cells[start:stop] = self._chunk_cells(batch[start:stop], backgrounds[start:stop])
        return cells[0] if single else cells

    @staticmethod
    def _per_frame(background: Backgrounds, n: int) -> list:
        """``background`` as one array per frame of an ``n``-frame batch."""
        if isinstance(background, np.ndarray):
            return [background] * n
        backgrounds = list(background)
        if len(backgrounds) != n:
            raise ValueError(f"{len(backgrounds)} backgrounds for {n} frames")
        return backgrounds

    def _chunk_cells(self, batch: np.ndarray, backgrounds: list) -> np.ndarray:
        """:meth:`response_cells` of at most :data:`FRAME_CHUNK` frames.

        Everything as large as the resized chunk lives in the workspace,
        grown to the largest chunk seen and sliced (batch sizes vary from
        call to call, and a buffer per size would churn the heap); the
        arithmetic runs in place there.  A run of frames that share a
        background shares one multiply.
        """
        n, res = len(batch), self.resolution
        work = self._work
        if work is None or work.shape[1] < n:
            work = self._work = np.empty((3, n, res, res), dtype=np.float32)
        resized, part, dev = work[0, :n], work[1, :n], work[2, :n]
        plan = get_resize_plan(batch.shape[1:], (res, res))
        if plan.identity:
            resized = batch
        else:
            plan.apply(batch, out=resized)
        med = frame_median(resized, part)
        start = 0
        while start < n:
            bg = backgrounds[start]
            stop = start + 1
            while stop < n and backgrounds[stop] is bg:
                stop += 1
            _, bg_res, bg_med = self._resized_background(bg)
            # Global multiplicative lighting correction per frame.
            gain = (med[start:stop] / bg_med)[:, None, None].astype(np.float32)
            np.multiply(bg_res[None], gain, out=dev[start:stop])
            start = stop
        np.subtract(resized, dev, out=dev)
        np.abs(dev, out=dev)
        return block_reduce_mean(dev, self.cell) / _RESPONSE_SCALE

    def cell_blobs(self, cells: np.ndarray) -> list[tuple[tuple[int, int, int, int], float]]:
        """Connected active-cell blobs of one response map, above threshold.

        Returns ``((cy0, cx0, cy1, cx1), confidence)`` per blob in cell
        coordinates, keeping only blobs whose peak response clears
        ``conf_threshold``.  Works on any-shaped cell map — the detector's
        native ``grid`` × ``grid`` responses and larger mosaic canvases
        alike — because only the activation/confidence thresholds matter
        here, never the map size.
        """
        active = cells > self.cell_activation
        if not active.any():
            return []
        labels, _ = ndimage.label(active)
        blobs: list[tuple[tuple[int, int, int, int], float]] = []
        for blob_idx, slc in enumerate(ndimage.find_objects(labels), start=1):
            if slc is None:
                continue
            blob_cells = cells[slc] * (labels[slc] == blob_idx)
            confidence = float(np.clip(blob_cells.max(), 0.0, 1.0))
            if confidence < self.conf_threshold:
                continue
            y_sl, x_sl = slc
            blobs.append(((y_sl.start, x_sl.start, y_sl.stop, x_sl.stop), confidence))
        return blobs

    def propose_regions(self, cells: np.ndarray) -> list[np.ndarray] | np.ndarray:
        """Per-frame active ROIs: merged connected-blob bounding boxes.

        ``cells`` is an ``(N, grid, grid)`` batch (or one ``(grid, grid)``
        map).  Returns, per frame, an ``(R, 4)`` int array of
        ``(cy0, cx0, cy1, cx1)`` half-open cell-space boxes such that every
        active cell lies in **exactly one** box: the bounding boxes of the
        4-connected blobs, merged to a fixed point wherever they overlap.
        (Two merely touching boxes never share a blob under 4-connectivity,
        so only genuine overlap merges.)  No confidence filtering happens
        here — sub-threshold blobs are proposed too, which is what makes
        detection on a packed region *exactly* detection on the source
        frame restricted to that region.
        """
        batch = np.asarray(cells)
        single = batch.ndim == 2
        if single:
            batch = batch[None]
        out = self._regions(self._label(batch)[0], *batch.shape[:2])
        return out[0] if single else out

    def _label(self, cells: np.ndarray) -> tuple[np.ndarray, int]:
        """4-connected blobs of an ``(N, gh, gw)`` batch in one labelling pass.

        The active-cell masks are stacked with a zero separator row below
        each frame, so no component spans two frames; returns the
        ``(N * (gh + 1), gw)`` label image and the number of blobs.
        """
        n, gh, gw = cells.shape
        stacked = np.zeros((n, gh + 1, gw), dtype=bool)
        np.greater(cells, self.cell_activation, out=stacked[:, :gh])
        return ndimage.label(stacked.reshape(n * (gh + 1), gw), _CROSS)

    def _regions(self, labels: np.ndarray, n: int, gh: int) -> list[np.ndarray]:
        """:meth:`propose_regions` of a batch already labelled by :meth:`_label`."""
        per_frame: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        for slc in ndimage.find_objects(labels):
            if slc is None:
                continue
            y_sl, x_sl = slc
            frame = y_sl.start // (gh + 1)
            base = frame * (gh + 1)
            per_frame[frame].append(
                (y_sl.start - base, x_sl.start, y_sl.stop - base, x_sl.stop)
            )
        return [_merge_overlaps(boxes) for boxes in per_frame]

    def _blob_counts(self, cells: np.ndarray, labels: np.ndarray, n_labels: int) -> np.ndarray:
        """Detections per frame of a batch already labelled by :meth:`_label`.

        ``len(self.cell_blobs(c))`` for each map without building the blobs:
        a blob's peak clears ``conf_threshold`` exactly when one of its
        cells does, so the blobs owning such a cell are counted per frame.
        """
        n, gh, _ = cells.shape
        labels = labels.reshape(n, gh + 1, -1)[:, :gh]
        where = np.nonzero(labels)
        # float64, as cell_blobs compares the peak as a Python float.
        strong = cells[where].astype(np.float64) >= self.conf_threshold
        owner = np.full(n_labels + 1, n, dtype=np.intp)  # n = no strong cell
        owner[labels[where][strong]] = where[0][strong]
        return np.bincount(owner, minlength=n + 1)[:n]

    def _detect_from_cells(
        self, cells: np.ndarray, frame_hw: tuple[int, int]
    ) -> list[Detection]:
        """Group active cells into detections for a single response map."""
        h, w = frame_hw
        sy = h / self.grid
        sx = w / self.grid
        detections: list[Detection] = []
        for (cy0, cx0, cy1, cx1), confidence in self.cell_blobs(cells):
            x0, x1 = cx0 * sx, cx1 * sx
            y0, y1 = cy0 * sy, cy1 * sy
            kind = classify_kind(x1 - x0, y1 - y0)
            detections.append(Detection(x0, y0, x1, y1, confidence, kind))
        return detections

    # ------------------------------------------------------------------
    def detect(self, frame: np.ndarray, background: Backgrounds) -> list[Detection]:
        """Detect objects in a single ``(H, W)`` frame."""
        cells = self.response_cells(frame, background)
        return self._detect_from_cells(cells, frame.shape[-2:])

    def detect_batch(
        self, frames: np.ndarray, background: Backgrounds
    ) -> list[list[Detection]]:
        """Detect objects in an ``(N, H, W)`` batch."""
        cells = self.response_cells(frames, background)
        hw = frames.shape[-2:]
        return [self._detect_from_cells(c, hw) for c in cells]

    def count(
        self, frame: np.ndarray, background: Backgrounds, kind: str | None = None
    ) -> int:
        """Number of detections (optionally restricted to ``kind``)."""
        return int(self.count_batch(np.asarray(frame)[None], background, kind)[0])

    def count_batch(
        self, frames: np.ndarray, background: Backgrounds, kind: str | None = None
    ) -> np.ndarray:
        """Vector of per-frame detection counts for an ``(N, H, W)`` batch."""
        return self._count(frames, background, kind, regions=False)[0]

    def count_and_regions(
        self, frames: np.ndarray, background: Backgrounds, kind: str | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-frame counts plus proposed ROIs from one response pass.

        Trace building records both observables; the response cells are
        computed and labelled once, and both the counts and the
        :meth:`propose_regions` boxes derive from that.
        """
        return self._count(frames, background, kind, regions=True)

    def _count(
        self, frames: np.ndarray, background: Backgrounds, kind: str | None, regions: bool
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Counts (and ROIs if asked) of ``frames``, :data:`FRAME_CHUNK` at a time."""
        frames = np.asarray(frames)
        backgrounds = self._per_frame(background, len(frames))
        counts = np.empty(len(frames), dtype=np.int64)
        rois: list[np.ndarray] = []
        for start in range(0, len(frames), FRAME_CHUNK):
            stop = start + FRAME_CHUNK
            cells = self.response_cells(frames[start:stop], backgrounds[start:stop])
            labels, n_labels = self._label(cells)
            if kind is None:
                chunk = self._blob_counts(cells, labels, n_labels)
            else:  # class comes from box geometry: build the detections
                hw = frames.shape[-2:]
                chunk = [
                    sum(d.kind == kind for d in self._detect_from_cells(c, hw))
                    for c in cells
                ]
            counts[start : start + len(cells)] = chunk
            if regions:
                rois.extend(self._regions(labels, *cells.shape[:2]))
        return counts, rois
