"""Neural-network layers with forward and backward passes, in pure NumPy.

FFS-VA's stream-specialized network model (SNM) is "a three-layer CNN
(CONV, CONV, and FC)" trained per stream with stochastic gradient descent
(paper Sections 2.1 and 3.2.2).  The original uses Darknet/CUDA; this module
is the reproduction's substrate: a minimal but real deep-learning framework
sufficient to train and run such models.

Conventions
-----------
* Activations are ``float32`` arrays shaped ``(N, C, H, W)`` for spatial
  layers and ``(N, D)`` for dense layers.
* ``forward`` caches whatever the corresponding ``backward`` needs;
  ``backward`` receives the loss gradient w.r.t. the layer output and
  returns the gradient w.r.t. the layer input, accumulating parameter
  gradients in ``grads``.  ``backward(dout, input_grad=False)`` is for the
  first layer of a network being trained, whose input gradient nobody
  reads: same parameter gradients, and a layer that would pay for the
  input gradient skips it and returns ``None``.
* Convolution is implemented via **im2col** so the inner loop is a single
  GEMM — the standard trick for CPU inference performance (see the
  hpc-parallel guides: vectorize, avoid Python-level pixel loops).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "Flatten",
    "Dropout",
    "im2col",
    "col2im",
]


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N * OH * OW, C * kh * kw)`` patches.

    Returns the patch matrix plus the output spatial dims ``(OH, OW)``.
    Uses stride tricks (a view, no copy) for the window extraction and one
    reshape-copy to produce the GEMM operand.  ``out``, when given, receives
    that copy (it must be C-contiguous ``float32`` of the patch-matrix
    shape), so steady-state inference reuses one scratch buffer instead of
    allocating per call.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel {kh}x{kw} stride {stride} pad {pad} too large for input {h}x{w}"
        )
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (N, OH, OW, C, kh, kw) -> rows are receptive fields.
    perm = windows.transpose(0, 2, 3, 1, 4, 5)
    rows, width = n * oh * ow, c * kh * kw
    if out is not None:
        if out.shape != (rows, width):
            raise ValueError(f"out must have shape {(rows, width)}, got {out.shape}")
        np.copyto(out.reshape(n, oh, ow, c, kh, kw), perm)
        return out, oh, ow
    cols = perm.reshape(rows, width)
    if not cols.flags.c_contiguous:  # reshape of the strided view usually copies
        cols = np.ascontiguousarray(cols)
    return cols, oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Fold patch gradients back to an input-shaped gradient (im2col adjoint)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    dx = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    # Scatter-add each kernel offset in one vectorized slice assignment.
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[
                :, :, :, :, i, j
            ]
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx


def _scratch(bufs: dict[str, np.ndarray], key: str, shape: tuple, dtype=np.float32) -> np.ndarray:
    """A reusable per-layer buffer: reallocated only when the shape changes.

    The returned array is *owned by the layer* and overwritten by the next
    inference call with the same shapes — callers must not hold onto it.
    """
    buf = bufs.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype)
        bufs[key] = buf
    return buf


def _nbytes(obj) -> int:
    """Bytes of the arrays in ``obj``, an array or a (nested) tuple/list."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    return 0


class Layer:
    """Base class: stateless by default, parameterized layers override.

    ``forward`` caches what ``backward`` needs; :meth:`infer` is the
    inference fast path — same outputs, no backward caches, and (where a
    layer overrides it) per-layer scratch buffers reused across calls.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.training = True
        #: Inference scratch store (see :func:`_scratch`); not thread-safe —
        #: one network instance serves one worker at a time.
        self._bufs: dict[str, np.ndarray] = {}
        #: What the last ``forward`` left for ``backward``.
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:  # pragma: no cover - interface
        raise NotImplementedError

    def release(self) -> None:
        """Drop the backward cache and the inference scratch.

        Both are sized by the last batch seen and re-grow on next use; the
        parameters are all a trained layer needs to keep.
        """
        self._cache = None
        self._bufs.clear()

    def workspace_bytes(self) -> int:
        """Bytes the backward cache and the inference scratch hold now."""
        return _nbytes(self._cache) + sum(buf.nbytes for buf in self._bufs.values())

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without backward caching; defaults to ``forward``."""
        return self.forward(x)

    def zero_grads(self) -> None:
        for k in self.grads:
            self.grads[k][...] = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with He-uniform init."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        bound = np.sqrt(6.0 / in_features)
        self.params = {
            "W": rng.uniform(-bound, bound, size=(in_features, out_features)).astype(np.float32),
            "b": np.zeros(out_features, dtype=np.float32),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects (N, D) input, got shape {x.shape}")
        self._cache = x
        return x @ self.params["W"] + self.params["b"]

    def infer(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects (N, D) input, got shape {x.shape}")
        w = self.params["W"]
        out = _scratch(self._bufs, "y", (x.shape[0], w.shape[1]), np.result_type(x, w))
        np.matmul(x, w, out=out)
        out += self.params["b"]
        return out

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray | None:
        assert self._cache is not None, "backward called before forward"
        self.grads["W"] += self._cache.T @ dout
        self.grads["b"] += dout.sum(axis=0)
        return dout @ self.params["W"].T if input_grad else None


class Conv2D(Layer):
    """2-D convolution (cross-correlation) via im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        pad: int = 0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel_size * kernel_size
        bound = np.sqrt(6.0 / fan_in)
        self.params = {
            "W": rng.uniform(
                -bound, bound, size=(out_channels, in_channels, kernel_size, kernel_size)
            ).astype(np.float32),
            "b": np.zeros(out_channels, dtype=np.float32),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got shape {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.pad
        cols, oh, ow = im2col(x, k, k, s, p)
        wmat = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ wmat.T + self.params["b"]
        n = x.shape[0]
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols, oh, ow)
        return np.ascontiguousarray(out)

    def infer(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got shape {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.pad
        n, c, h, w = x.shape
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        bufs = self._bufs
        dtype = np.result_type(x, self.params["W"])
        cols_buf = _scratch(bufs, "cols", (n * oh * ow, c * k * k), dtype)
        cols, oh, ow = im2col(x, k, k, s, p, out=cols_buf)
        wmat = self.params["W"].reshape(self.out_channels, -1)
        gemm = _scratch(bufs, "gemm", (n * oh * ow, self.out_channels), dtype)
        np.matmul(cols, wmat.T, out=gemm)
        gemm += self.params["b"]
        out = _scratch(bufs, "y", (n, self.out_channels, oh, ow), dtype)
        np.copyto(out, gemm.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2))
        return out

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray | None:
        assert self._cache is not None, "backward called before forward"
        x_shape, cols, oh, ow = self._cache
        n = x_shape[0]
        k, s, p = self.kernel_size, self.stride, self.pad
        dflat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        self.grads["W"] += (dflat.T @ cols).reshape(self.params["W"].shape)
        self.grads["b"] += dflat.sum(axis=0)
        if not input_grad:
            return None
        wmat = self.params["W"].reshape(self.out_channels, -1)
        return col2im(dflat @ wmat, x_shape, k, k, s, p, oh, ow)


class MaxPool2D(Layer):
    """Non-overlapping max pooling with square window ``size``."""

    def __init__(self, size: int = 2):
        super().__init__()
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size

    def _windows(self, x: np.ndarray) -> list[np.ndarray]:
        """The ``size**2`` strided slices of ``x`` holding one element of every
        whole window each, all shaped like the pooled output."""
        h, w = x.shape[2:]
        s = self.size
        oh, ow = h // s, w // s
        if oh == 0 or ow == 0:
            raise ValueError(f"pool size {s} too large for input {h}x{w}")
        return [
            x[:, :, i : i + oh * s : s, j : j + ow * s : s] for i in range(s) for j in range(s)
        ]

    @staticmethod
    def _maxima(wins: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        """Window maxima into ``out``: ``size**2`` elementwise maxima over the
        slices beat one reduction over a 6-D view, and max is exact, so the
        result matches ``view.max(axis=(3, 5))`` bitwise."""
        np.copyto(out, wins[0])
        for win in wins[1:]:
            np.maximum(out, win, out=out)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        wins = self._windows(x)
        out = self._maxima(wins, np.empty(wins[0].shape, x.dtype))
        # Masks of the argmax positions (every tied one), used to route gradients.
        self._cache = (x.shape, [win == out for win in wins])
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        # No argmax masks: inference never routes gradients.
        wins = self._windows(x)
        return self._maxima(wins, _scratch(self._bufs, "y", wins[0].shape, x.dtype))

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        x_shape, masks = self._cache
        # Ties split the gradient; normalize by the tie count per window.
        ties = masks[0].astype(dout.dtype)
        for mask in masks[1:]:
            ties += mask
        share = dout / ties
        # Only rows/columns beyond the last whole window keep the fill.
        dx = np.zeros(x_shape, dtype=dout.dtype)
        for mask, win in zip(masks, self._windows(dx)):
            np.multiply(mask, share, out=win)
        return dx


class ReLU(Layer):
    """Rectified linear activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0, out=_scratch(self._bufs, "y", x.shape, x.dtype))

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        return dout * self._cache


class Flatten(Layer):
    """Collapse all but the batch dimension."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        return dout.reshape(self._cache)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.5, *, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng or np.random.default_rng()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.rate
        self._cache = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._cache

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        if self._cache is None:
            return dout
        return dout * self._cache
