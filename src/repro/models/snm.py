"""Specialized Network Model (SNM) — the cascade's second filter.

From Section 3.2.2: "SNM is a three-layer CNN (CONV, CONV, and FC)" that
predicts the probability ``c`` that the target object appears in the frame.
Two calibrated thresholds ``c_low`` and ``c_high`` bracket the uncertain
region; the operating threshold interpolates between them via the
user-facing **FilterDegree** knob (Equation 2):

    t_pre = (c_high - c_low) * FilterDegree + c_low

Frames with ``c >= t_pre`` continue to T-YOLO; the rest are filtered out.

Each SNM is trained per stream on frames labelled by the reference model
(Section 4.1), exactly like NoScope's specialized models.  Training and
inference run on the real :mod:`repro.nn` framework; the paper quotes
50*50-pixel inputs at 5K FPS and ~200 KB of GPU memory.

Being *stream-specialized*, the SNM conditions on its stream's scene: the
network input is the lighting-corrected deviation of the frame from the
stream's reference background (the same fixed-viewpoint prior the real SNM
absorbs into its learned weights).  This is what lets a three-layer CNN hit
the >95% accuracy the paper reports for specialized models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    StackedSequential,
    TrainConfig,
    softmax,
    train_classifier,
)
from ..video.ops import FRAME_CHUNK, frame_median, get_resize_plan, resize_bilinear

__all__ = ["SNMConfig", "SNM", "FusedSNM", "train_snm", "fit_snm"]


@dataclass(frozen=True)
class SNMConfig:
    """Architecture and calibration settings for one SNM."""

    input_size: int = 50
    conv1_channels: int = 8
    conv2_channels: int = 16
    #: Quantile budgets used to place c_low / c_high on validation data:
    #: c_low has at most this fraction of target frames below it, and c_high
    #: at most this fraction of non-target frames above it.
    tail_budget: float = 0.02
    #: Softmax temperature applied at inference.  A well-separated binary
    #: classifier saturates its probabilities near 0/1, which would leave the
    #: FilterDegree knob (Eq. 2) with nothing to interpolate over; mild
    #: temperature scaling restores a usable confidence continuum without
    #: changing the ranking of frames.
    temperature: float = 2.5
    seed: int = 0


def build_snm_network(cfg: SNMConfig) -> Sequential:
    """The paper's three-layer CNN: CONV, CONV, FC."""
    rng = np.random.default_rng(cfg.seed)
    s = cfg.input_size
    # conv1: 5x5 stride 2 -> pool 2; conv2: 3x3 -> pool 2.
    c1 = (s - 5) // 2 + 1
    p1 = c1 // 2
    c2 = p1 - 3 + 1
    p2 = c2 // 2
    if p2 < 1:
        raise ValueError(f"input_size {s} too small for the SNM architecture")
    return Sequential(
        [
            Conv2D(1, cfg.conv1_channels, 5, stride=2, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(cfg.conv1_channels, cfg.conv2_channels, 3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(cfg.conv2_channels * p2 * p2, 2, rng=rng),
        ]
    )


#: Typical foreground deviation of an object; scales the difference image to
#: an O(1) input range for the network.
_DIFF_SCALE = 0.25


class SNM:
    """Per-stream binary classifier with calibrated decision thresholds."""

    def __init__(
        self,
        network: Sequential,
        config: SNMConfig | None = None,
        background: np.ndarray | None = None,
    ):
        self.config = config or SNMConfig()
        self.network = network
        self.c_low = 0.0
        self.c_high = 1.0
        #: Monotonic revision of decision-relevant state (thresholds,
        #: background, weights).  :class:`FusedSNM` keys its cached stacked
        #: tensors on the member versions, so bumping this (automatic on
        #: recalibration / background change, via :meth:`mark_retrained`
        #: after in-place weight updates) invalidates every fused cache.
        self.version = 0
        self._bg_small: np.ndarray | None = None
        self._bg_med: float = 1.0
        self._resized: np.ndarray | None = None  # steady-state resize buffer
        if background is not None:
            self.set_background(background)

    def set_background(self, background: np.ndarray) -> None:
        """Install the stream's reference background (resized once)."""
        s = self.config.input_size
        self._bg_small = resize_bilinear(
            np.asarray(background, dtype=np.float32), (s, s), copy=True
        )
        self._bg_med = float(np.median(self._bg_small)) or 1.0
        self.version += 1

    def mark_retrained(self) -> None:
        """Signal that the network's weights changed in place."""
        self.version += 1

    def release(self) -> None:
        """Drop the batch-sized workspace (resize buffer, the layers' caches
        and scratch); it re-grows to the next batch on first use."""
        self._resized = None
        self.network.release()

    def workspace_bytes(self) -> int:
        """Bytes of batch-sized scratch held right now (resize buffer, the
        layers' backward caches and inference scratch)."""
        held = 0 if self._resized is None else self._resized.nbytes
        return held + self.network.workspace_bytes()

    # ------------------------------------------------------------------
    def preprocess(self, frames: np.ndarray) -> np.ndarray:
        """Produce the network input: scaled background deviation.

        Resizes to the SNM input size, corrects global multiplicative
        lighting drift, subtracts the stream background, and scales.
        """
        if self._bg_small is None:
            raise RuntimeError("SNM background not set; call set_background() first")
        batch = np.asarray(frames, dtype=np.float32)
        if batch.ndim == 2:
            batch = batch[None]
        s = self.config.input_size
        plan = get_resize_plan(batch.shape[1:], (s, s))
        if plan.identity:
            resized = batch
        else:
            # Grown to the largest batch seen and sliced, as the detectors'.
            n, buf = batch.shape[0], self._resized
            if buf is None or len(buf) < n:
                buf = self._resized = np.empty((n, s, s), dtype=np.float32)
            resized = plan.apply(batch, out=buf[:n])
        bg = self._bg_small
        gain = (frame_median(resized) / self._bg_med)[:, None, None]
        diff = (resized - bg[None] * gain) / _DIFF_SCALE
        return diff[:, None, :, :]

    def predict_proba(self, frames: np.ndarray) -> np.ndarray:
        """Predicted probability ``c`` of the target object, per frame.

        Walks the batch :data:`~repro.video.ops.FRAME_CHUNK` frames at a
        time, so neither the resize buffer nor the layers' scratch outgrows
        one chunk.
        """
        batch = np.asarray(frames, dtype=np.float32)
        if batch.ndim == 2:
            batch = batch[None]
        probs = np.empty(len(batch), dtype=np.float32)
        for start in range(0, len(batch), FRAME_CHUNK):
            stop = start + FRAME_CHUNK
            probs[start:stop] = self.input_proba(self.preprocess(batch[start:stop]))
        return probs

    def input_proba(self, x: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` of inputs :meth:`preprocess` already made."""
        temp = max(self.config.temperature, 1e-6)
        probs = np.empty(len(x), dtype=np.float32)
        for start in range(0, len(x), FRAME_CHUNK):
            stop = start + FRAME_CHUNK
            # Zero-alloc forward pass; the scratch logits are consumed here.
            logits = self.network.predict(x[start:stop], copy=False) / temp
            probs[start:stop] = softmax(logits)[:, 1]
        return probs

    # ------------------------------------------------------------------
    def t_pre(self, filter_degree: float) -> float:
        """Operating threshold for a FilterDegree in [0, 1] (paper Eq. 2)."""
        if not 0.0 <= filter_degree <= 1.0:
            raise ValueError(
                f"FilterDegree must be in [0, 1], got {filter_degree} "
                "(the paper excludes t_pre outside [c_low, c_high])"
            )
        return (self.c_high - self.c_low) * filter_degree + self.c_low

    def passes(self, probs: np.ndarray, filter_degree: float) -> np.ndarray:
        """Mask of frames that continue to T-YOLO (c >= t_pre)."""
        return np.asarray(probs) >= self.t_pre(filter_degree)

    def calibrate_thresholds(self, frames: np.ndarray, labels: np.ndarray) -> None:
        """Place ``c_low``/``c_high`` from a labelled validation set.

        ``c_low`` is chosen so that almost no target frames score below it
        (FilterDegree 0 keeps essentially everything interesting);
        ``c_high`` so that almost no background frames score above it
        (FilterDegree 1 output is high-credibility).
        """
        if len(frames) != len(labels):
            raise ValueError("frames and labels must have equal length")
        self.calibrate_on_probs(self.predict_proba(frames), labels)

    def calibrate_on_probs(self, probs: np.ndarray, labels: np.ndarray) -> None:
        """:meth:`calibrate_thresholds` from the set's predicted ``c``."""
        labels = np.asarray(labels).astype(bool)
        if len(probs) != len(labels):
            raise ValueError("frames and labels must have equal length")
        budget = self.config.tail_budget
        pos, neg = probs[labels], probs[~labels]
        q_pos_low = float(np.quantile(pos, budget)) if len(pos) else 0.5
        q_neg_high = float(np.quantile(neg, 1.0 - budget)) if len(neg) else 0.5
        # The uncertain band is bounded by "negatives rarely score above this"
        # and "positives rarely score below this".  With a cleanly separating
        # classifier q_neg_high < q_pos_low (the band is a margin); with an
        # overlapping one the order flips (the band is the confusion region).
        # Either way the band spans between the two quantiles.
        c_low = min(q_pos_low, q_neg_high)
        c_high = max(q_pos_low, q_neg_high)
        if c_high - c_low < 2e-3:
            mid = (c_high + c_low) / 2.0
            c_low, c_high = mid - 1e-3, mid + 1e-3
        self.c_low = float(np.clip(c_low, 0.0, 1.0))
        self.c_high = float(np.clip(c_high, self.c_low + 1e-6, 1.0))
        self.version += 1


class FusedSNM:
    """All streams' SNMs evaluated as one cross-stream mega-batch.

    The fused SNM stage (``fan_in="fused"``) pops frames from every stream's
    queue into one batch; this wrapper runs the per-stream preprocessing,
    executes the K three-layer CNNs as one weight-stacked forward pass
    (:class:`repro.nn.StackedSequential`), and applies each stream's own
    temperature and calibrated ``t_pre`` threshold.

    Per-frame results are bit-identical to calling each stream's
    :meth:`SNM.predict_proba` / :meth:`SNM.passes` on that stream's frames
    alone: preprocessing, softmax, and thresholding are per-frame
    operations, and the stacked forward pass self-checks its batched conv
    path against the grouped per-model reference (falling back to it on any
    mismatch), so batch composition can never change a verdict.

    The stacked weight tensors, the per-stream temperature vector, and the
    per-degree ``t_pre`` threshold vectors are cached keyed on the member
    SNMs' :attr:`~SNM.version` counters: recalibrating or retraining any
    member (which bumps its version) rebuilds them on next use, and
    :meth:`invalidate` forces a rebuild explicitly.
    """

    def __init__(self, snms: list[SNM]):
        if not snms:
            raise ValueError("FusedSNM needs at least one SNM")
        self.snms = list(snms)
        self._cache_key: tuple | None = None
        self._t_pre_cache: dict[tuple, np.ndarray] = {}
        self._refresh()

    def _versions(self) -> tuple:
        return tuple(s.version for s in self.snms)

    def _refresh(self) -> None:
        self._stacked = StackedSequential([s.network for s in self.snms])
        # float32(temp) is the same cast NEP-50 applies when SNM divides its
        # float32 logits by the python-float temperature.
        self._temps = np.array(
            [max(s.config.temperature, 1e-6) for s in self.snms], dtype=np.float32
        )
        self._t_pre_cache = {}
        self._cache_key = self._versions()

    def _ensure_current(self) -> None:
        if self._cache_key != self._versions():
            self._refresh()

    def invalidate(self) -> None:
        """Drop every cached tensor; the next use rebuilds from the SNMs."""
        self._cache_key = None

    @property
    def stacked(self) -> StackedSequential:
        self._ensure_current()
        return self._stacked

    @property
    def temps(self) -> np.ndarray:
        self._ensure_current()
        return self._temps

    def preprocess(self, frames: np.ndarray, stream_idx: np.ndarray) -> np.ndarray:
        """Each stream's own background-deviation preprocessing, scattered
        back into mega-batch order."""
        stream_idx = np.asarray(stream_idx)
        batch = np.asarray(frames, dtype=np.float32)
        s = self.snms[0].config.input_size
        x = np.empty((len(batch), 1, s, s), dtype=np.float32)
        for k in np.unique(stream_idx):
            sel = np.nonzero(stream_idx == k)[0]
            x[sel] = self.snms[int(k)].preprocess(batch[sel])
        return x

    def predict_proba(self, frames: np.ndarray, stream_idx: np.ndarray) -> np.ndarray:
        """Probability ``c`` per frame, each under its own stream's model."""
        stream_idx = np.asarray(stream_idx)
        x = self.preprocess(frames, stream_idx)
        logits = self.stacked.forward(x, stream_idx)
        logits /= self.temps[stream_idx][:, None]
        return softmax(logits)[:, 1].astype(np.float32, copy=False)

    def t_pre(self, filter_degree) -> np.ndarray:
        """Per-stream operating thresholds (paper Eq. 2) as a vector.

        ``filter_degree`` is either one scalar degree applied to every
        stream, or a per-stream sequence of degrees (the adaptive planner's
        case — each stream may run a different threshold).  Cached per
        degree *vector* — a tuple key, so two streams on different degrees
        can never alias one scalar's cache line — and returned read-only;
        invalidated when any member SNM recalibrates.
        """
        self._ensure_current()
        if np.ndim(filter_degree) == 0:
            key = (float(filter_degree),) * len(self.snms)
        else:
            key = tuple(float(d) for d in filter_degree)
            if len(key) != len(self.snms):
                raise ValueError(
                    f"per-stream degree vector has {len(key)} entries for "
                    f"{len(self.snms)} streams"
                )
        cached = self._t_pre_cache.get(key)
        if cached is None:
            cached = np.array([s.t_pre(d) for s, d in zip(self.snms, key)])
            cached.setflags(write=False)
            self._t_pre_cache[key] = cached
        return cached

    def passes(
        self, probs: np.ndarray, stream_idx: np.ndarray, filter_degree
    ) -> np.ndarray:
        """Mask of frames that continue to T-YOLO, per-stream thresholds.

        ``filter_degree`` may be a scalar or a per-stream degree vector
        (see :meth:`t_pre`).
        """
        return np.asarray(probs) >= self.t_pre(filter_degree)[np.asarray(stream_idx)]


def train_snm(
    frames: np.ndarray,
    labels: np.ndarray,
    background: np.ndarray,
    config: SNMConfig | None = None,
    train_config: TrainConfig | None = None,
) -> SNM:
    """Train and calibrate an SNM from labelled frames (see :func:`fit_snm`)."""
    cfg = config or SNMConfig()
    snm = SNM(build_snm_network(cfg), cfg, background=background)
    fit_snm(snm, snm.preprocess(frames), labels, train_config)
    snm.release()
    return snm


def fit_snm(
    snm: SNM,
    x: np.ndarray,
    labels: np.ndarray,
    train_config: TrainConfig | None = None,
) -> None:
    """Train ``snm`` on inputs its :meth:`~SNM.preprocess` made, then calibrate.

    Follows Section 4.1: labelled data is split into a training set and a
    test set; the model learns on the former and the thresholds
    ``c_low``/``c_high`` are selected on the latter.  Taking the network
    inputs rather than frames lets onboarding preprocess its clip a chunk at
    a time and keep only the 50x50 inputs.  The layers keep the workspace
    training grew; :meth:`SNM.release` drops it.
    """
    cfg = snm.config
    labels = np.asarray(labels).astype(np.int64)
    if len(x) != len(labels):
        raise ValueError("frames and labels must have equal length")
    tc = train_config or TrainConfig(epochs=10, batch_size=64, lr=0.04, seed=cfg.seed)
    # Hold out a calibration split distinct from the train/val split used
    # inside train_classifier.
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(x))
    n_cal = max(1, len(x) // 5)
    cal_idx, fit_idx = order[:n_cal], order[n_cal:]
    train_classifier(snm.network, x[fit_idx], labels[fit_idx], tc)
    snm.calibrate_on_probs(snm.input_proba(x[cal_idx]), labels[cal_idx])
