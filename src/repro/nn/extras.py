"""Optional training machinery: batch normalization, Adam, augmentation.

The paper's Section 2.1 recipe designs "a set of new CNN architectures ...
inheriting from the characteristics of the corresponding successful CNN
models" and picks the best by accuracy and execution time.  These utilities
support that architecture search beyond the plain conv/pool/FC + SGD
baseline: BatchNorm2D stabilizes deeper candidates, Adam converges faster
on small labelled sets, and horizontal-flip/shift augmentation stretches
the few hundred labelled frames each stream provides.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer
from .network import Sequential

__all__ = ["BatchNorm2D", "Adam", "augment_flips_shifts"]


class BatchNorm2D(Layer):
    """Batch normalization over the channel axis of ``(N, C, H, W)`` input."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.eps = eps
        self.momentum = momentum
        self.params = {
            "W": np.ones(channels, dtype=np.float32),  # gamma (scale)
            "b": np.zeros(channels, dtype=np.float32),  # beta (shift)
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != len(self.running_mean):
            raise ValueError(
                f"expected (N, {len(self.running_mean)}, H, W), got {x.shape}"
            )
        axes = (0, 2, 3)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mean
            self.running_var = m * self.running_var + (1 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        std = np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None, None]) / std[None, :, None, None]
        self._cache = (xhat, std, x.shape)
        return (
            self.params["W"][None, :, None, None] * xhat
            + self.params["b"][None, :, None, None]
        )

    def infer(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != len(self.running_mean):
            raise ValueError(
                f"expected (N, {len(self.running_mean)}, H, W), got {x.shape}"
            )
        std = np.sqrt(self.running_var + self.eps)
        xhat = (x - self.running_mean[None, :, None, None]) / std[None, :, None, None]
        return (
            self.params["W"][None, :, None, None] * xhat
            + self.params["b"][None, :, None, None]
        )

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        xhat, std, shape = self._cache
        n = shape[0] * shape[2] * shape[3]
        axes = (0, 2, 3)
        self.grads["W"] += (dout * xhat).sum(axis=axes)
        self.grads["b"] += dout.sum(axis=axes)
        gamma = self.params["W"][None, :, None, None]
        dxhat = dout * gamma
        # Standard batchnorm backward (training-mode statistics).
        dx = (
            dxhat
            - dxhat.mean(axis=axes, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True)
        ) / std[None, :, None, None]
        return dx.astype(dout.dtype, copy=False)


class Adam:
    """Adam optimizer (Kingma & Ba) over a :class:`Sequential`'s parameters."""

    def __init__(
        self,
        net: Sequential,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1 - b1**self._t
        bias2 = 1 - b2**self._t
        for tag, params, grads in self.net.parameters():
            for name, p in params.items():
                g = grads[name]
                if self.weight_decay and name == "W":
                    g = g + self.weight_decay * p
                key = f"{tag}/{name}"
                m = self._m.setdefault(key, np.zeros_like(p))
                v = self._v.setdefault(key, np.zeros_like(p))
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        self.net.zero_grads()


def augment_flips_shifts(
    x: np.ndarray,
    y: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
    flip_prob: float = 0.5,
    max_shift: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """One augmented copy of each sample: random horizontal flip + shift.

    Works on ``(N, C, H, W)`` batches; shifts pad with edge values so the
    synthetic background statistics survive.  Returns the concatenation of
    the original and augmented sets (labels duplicated).
    """
    if x.ndim != 4:
        raise ValueError(f"expected (N, C, H, W), got {x.shape}")
    rng = rng or np.random.default_rng()
    aug = x.copy()
    n = len(x)
    flips = rng.random(n) < flip_prob
    aug[flips] = aug[flips, :, :, ::-1]
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
        for i, (dy, dx_) in enumerate(shifts):
            if dy or dx_:
                aug[i] = np.roll(aug[i], (int(dy), int(dx_)), axis=(1, 2))
    return np.concatenate([x, aug]), np.concatenate([y, y])
