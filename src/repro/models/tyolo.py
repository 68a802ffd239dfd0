"""T-YOLO — the shared small object-detection filter (third cascade stage).

Configures the :class:`~repro.models.griddet.GridDetector` backbone to the
paper's Tiny-YOLO-Voc operating point: a 13×13 grid over 416×416 inputs,
five boxes per cell collapsed into one blob detection, confidence
threshold 0.2, ~220 FPS, 1.2 GB of GPU memory, shared by all streams.

On top of raw detection this module implements the filter semantics of
Sections 3.2.3 and 4.2.2: a frame survives only if its target-object count
reaches **NumberofObjects**; a ``relax`` tolerance of one or two objects
implements the accuracy/efficiency trade-off studied in Figure 8 ("if one
or two object misjudgment can be tolerated by relaxing the filtering
threshold, the error rate will be greatly reduced").
"""

from __future__ import annotations

import numpy as np

from .griddet import Backgrounds, Detection, GridDetector

__all__ = ["TYolo", "count_filter_mask"]

#: Paper-reported T-YOLO characteristics, used by the device cost model.
TYOLO_INPUT_SIZE = 416
TYOLO_MEMORY_BYTES = int(1.2 * 2**30)
TYOLO_RAW_FPS = 220.0
#: Grid cells per side of the detector (416 px inputs at 32 px per cell).
#: A mosaic canvas of ``TYOLO_GRID`` cells is exactly one native input.
TYOLO_GRID = 13


def count_filter_mask(
    counts: np.ndarray, number_of_objects: int, relax: int = 0
) -> np.ndarray:
    """Frames that survive the intensity filter.

    A frame passes when its detected target count is at least
    ``number_of_objects - relax`` (relaxed filtering keeps borderline frames
    so the reference model gets a second look).
    """
    if number_of_objects < 1:
        raise ValueError("NumberofObjects must be >= 1")
    if relax < 0:
        raise ValueError("relax must be >= 0")
    effective = max(1, number_of_objects - relax)
    return np.asarray(counts) >= effective


class TYolo:
    """Shared generic detector with count-based filtering."""

    def __init__(self, conf_threshold: float = 0.2, cell_activation: float = 0.15):
        self.detector = GridDetector(
            grid=TYOLO_GRID,
            resolution=104,
            conf_threshold=conf_threshold,
            cell_activation=cell_activation,
            name="tyolo",
        )

    @property
    def grid(self) -> int:
        return self.detector.grid

    def detect(self, frame: np.ndarray, background: np.ndarray) -> list[Detection]:
        """All detections in one frame (any class)."""
        return self.detector.detect(frame, background)

    def count(
        self, frame: np.ndarray, background: np.ndarray, kind: str | None = None
    ) -> int:
        """Detected target-object count in one frame."""
        return self.detector.count(frame, background, kind)

    def count_batch(
        self, frames: np.ndarray, background: Backgrounds, kind: str | None = None
    ) -> np.ndarray:
        """Per-frame detected counts for a batch."""
        return self.detector.count_batch(frames, background, kind)

    def count_and_regions(
        self, frames: np.ndarray, background: np.ndarray, kind: str | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-frame counts plus proposed active-cell ROIs (one pass)."""
        return self.detector.count_and_regions(frames, background, kind)

    def passes(
        self,
        frames: np.ndarray,
        background: np.ndarray,
        *,
        kind: str | None = None,
        number_of_objects: int = 1,
        relax: int = 0,
    ) -> np.ndarray:
        """Mask of frames forwarded to the reference model."""
        counts = self.count_batch(frames, background, kind)
        return count_filter_mask(counts, number_of_objects, relax)
