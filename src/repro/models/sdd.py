"""Specialized Difference Detector (SDD) — the cascade's first filter.

From Section 3.2.1: "SDD calculates the distance between the reference image
and the unlabeled frame to determine whether these two frames are identical.
...  The distance between two video frames can be characterized by Mean
Square Error (MSE), Normalized Root Mean Square Error (NRMSE), or Sum of
Absolute Differences (SAD)."  Frames whose distance stays below the
threshold ``delta_diff`` are background and are filtered out.

The threshold is stream-specific (dynamic backgrounds need a larger
``delta_diff``) and is calibrated on labelled frames so that the filter's
false-negative rate stays within budget — the paper's "relaxed filtering
conditions" (Section 3.3) correspond to a small positive ``relax_margin``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..video.ops import FRAME_CHUNK, get_resize_plan, resize_bilinear

__all__ = ["mse", "nrmse", "sad", "SDD", "calibrate_sdd", "sdd_threshold"]

#: SDD's working input size; the paper quotes "100*100-pixel images at 100K FPS".
SDD_INPUT = (100, 100)


def _batched(frames: np.ndarray) -> np.ndarray:
    arr = np.asarray(frames, dtype=np.float32)
    return arr[None] if arr.ndim == 2 else arr


def mse(frames: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Mean squared error distance per frame."""
    batch = _batched(frames)
    d = batch - reference
    return np.mean(d * d, axis=(1, 2))


def nrmse(frames: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Root MSE normalized by the reference's dynamic range."""
    rng = float(reference.max() - reference.min())
    denom = rng if rng > 1e-9 else 1.0
    return np.sqrt(mse(frames, reference)) / denom


def sad(frames: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Mean absolute difference per frame (SAD normalized by pixel count)."""
    batch = _batched(frames)
    return np.mean(np.abs(batch - reference), axis=(1, 2))


_METRICS = {"mse": mse, "nrmse": nrmse, "sad": sad}


class SDD:
    """Per-stream background-difference filter.

    Parameters
    ----------
    reference:
        The stream's reference image (average of dozens of background
        frames), at any resolution; it is resized to :data:`SDD_INPUT`.
    threshold:
        ``delta_diff``; frames with distance <= threshold are background.
    metric:
        One of ``"mse"``, ``"nrmse"``, ``"sad"``.
    """

    def __init__(self, reference: np.ndarray, threshold: float, metric: str = "mse"):
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.reference = resize_bilinear(
            np.asarray(reference, dtype=np.float32), SDD_INPUT, copy=True
        )
        self.threshold = float(threshold)
        self.metric = metric
        self._metric_fn = _METRICS[metric]
        self._resized: np.ndarray | None = None  # steady-state resize buffer

    def release(self) -> None:
        """Drop the resize buffer; it re-grows to the next batch on first use."""
        self._resized = None

    def workspace_bytes(self) -> int:
        """Bytes of batch-sized scratch held right now."""
        return 0 if self._resized is None else self._resized.nbytes

    def distances(self, frames: np.ndarray) -> np.ndarray:
        """Distance of each frame to the reference (after resize).

        Runs on the cached :class:`~repro.video.ops.ResizePlan` for the
        incoming frame shape, :data:`~repro.video.ops.FRAME_CHUNK` frames at
        a time, resizing into a per-instance buffer so the steady state
        allocates nothing but the gather temporaries, and no call holds more
        than one chunk.
        """
        batch = _batched(frames)
        plan = get_resize_plan(batch.shape[1:], SDD_INPUT)
        dist = np.empty(len(batch), dtype=np.float32)
        for start in range(0, len(batch), FRAME_CHUNK):
            chunk = batch[start : start + FRAME_CHUNK]
            if not plan.identity:
                # Grown to the largest chunk seen and sliced, as the detectors'.
                n, buf = len(chunk), self._resized
                if buf is None or len(buf) < n:
                    buf = self._resized = np.empty((n, *SDD_INPUT), dtype=np.float32)
                chunk = plan.apply(chunk, out=buf[:n])
            dist[start : start + FRAME_CHUNK] = self._metric_fn(chunk, self.reference)
        return dist

    def passes(self, frames: np.ndarray) -> np.ndarray:
        """Boolean mask: True = content change, frame continues downstream."""
        return self.distances(frames) > self.threshold

    def filter_out(self, frames: np.ndarray) -> np.ndarray:
        """Boolean mask: True = background frame, dropped by the filter."""
        return ~self.passes(frames)


def calibrate_sdd(
    reference: np.ndarray,
    frames: np.ndarray,
    labels: np.ndarray,
    *,
    metric: str = "mse",
    fn_budget: float = 0.01,
    relax_margin: float = 0.9,
) -> SDD:
    """Pick ``delta_diff`` from labelled frames.

    The threshold is set as high as possible (maximum filtering power)
    subject to the fraction of *target* frames scored below it — false
    negatives — staying within ``fn_budget``.  The resulting threshold is
    then multiplied by ``relax_margin`` < 1, implementing the paper's advice
    to "set the real filtering threshold slightly below the target
    threshold" so later filters get a second look at borderline frames.

    Parameters
    ----------
    frames, labels:
        Labelled calibration set; ``labels`` nonzero marks target frames
        (as produced by the reference model, per Section 4.1).
    """
    probe = SDD(reference, threshold=0.0, metric=metric)
    dist = probe.distances(frames)
    threshold = sdd_threshold(dist, labels, fn_budget=fn_budget, relax_margin=relax_margin)
    return SDD(reference, threshold=threshold, metric=metric)


def sdd_threshold(
    dist: np.ndarray,
    labels: np.ndarray,
    *,
    fn_budget: float = 0.01,
    relax_margin: float = 0.9,
) -> float:
    """``delta_diff`` from the calibration frames' distances to the reference.

    The rule of :func:`calibrate_sdd`, on distances an onboarding pass has
    already computed chunk by chunk, so the frames need not be held.
    """
    labels = np.asarray(labels).astype(bool)
    if len(dist) != len(labels):
        raise ValueError("frames and labels must have equal length")
    if len(dist) == 0:
        raise ValueError("need at least one calibration frame")
    target_dist = np.sort(dist[labels])
    if len(target_dist) == 0:
        # No target frames observed: any motion is interesting; fall back to
        # a threshold just above the background-distance noise floor.
        threshold = float(np.quantile(dist, 0.95))
    else:
        # Largest threshold keeping FN rate <= budget: the fn_budget quantile
        # of target-frame distances.
        k = int(np.floor(fn_budget * len(target_dist)))
        k = min(k, len(target_dist) - 1)
        threshold = float(target_dist[k])
    return threshold * relax_margin
