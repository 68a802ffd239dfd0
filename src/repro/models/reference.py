"""Reference model — the full-feature back-end detector (YOLOv2 stand-in).

The paper uses YOLOv2 (416×416 inputs, ~67 FPS raw / 56 FPS end-to-end, one
GPU to itself) both as the final high-precision stage of FFS-VA and as the
baseline system it is compared against.  It also plays oracle: Section 4.1
labels every training frame for SDD/SNM "by using YOLOv2".

Our stand-in runs the same grid-detection algorithm as T-YOLO at 4× the
grid granularity with more permissive activation, so it resolves dense
groups and partial appearances that T-YOLO misses — reproducing the
documented fidelity gap between the two models.
"""

from __future__ import annotations

import numpy as np

from .griddet import Backgrounds, Detection, GridDetector

__all__ = ["ReferenceModel"]

#: Paper-reported reference-model characteristics for the cost model.
REFERENCE_INPUT_SIZE = 416
REFERENCE_RAW_FPS = 67.0
REFERENCE_MEMORY_BYTES = int(2.0 * 2**30)


class ReferenceModel:
    """Full-feature detector: fine grid, permissive thresholds."""

    def __init__(self, conf_threshold: float = 0.15, cell_activation: float = 0.12):
        self.detector = GridDetector(
            grid=52,
            resolution=208,
            conf_threshold=conf_threshold,
            cell_activation=cell_activation,
            name="reference",
        )

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

    def label_frames(
        self, frames: np.ndarray, background: np.ndarray, kind: str | None = None
    ) -> np.ndarray:
        """Binary presence labels used to train/calibrate SDD and SNM."""
        return (self.count_batch(frames, background, kind) > 0).astype(np.int64)
