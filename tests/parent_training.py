"""The training-path formulas the shipped ``repro.nn`` kernels replaced.

Kept verbatim (only the cache attribute is the shipped ``_cache``) as the
reference the differential and property tests compare against: the shipped
``MaxPool2D.forward/backward``, ``ReLU.forward`` and ``Sequential.backward``
promise these functions' results bit for bit.  Each is written as a method
so a test can ``monkeypatch.setattr(MaxPool2D, "forward", pool_forward)``.
"""

import numpy as np


def pool_forward(self, x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    s = self.size
    oh, ow = h // s, w // s
    if oh == 0 or ow == 0:
        raise ValueError(f"pool size {s} too large for input {h}x{w}")
    view = x[:, :, : oh * s, : ow * s].reshape(n, c, oh, s, ow, s)
    out = view.max(axis=(3, 5))
    mask = view == out[:, :, :, None, :, None]
    self._cache = (x.shape, mask, oh, ow)
    return out


def pool_backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
    x_shape, mask, oh, ow = self._cache
    n, c, h, w = x_shape
    s = self.size
    ties = mask.sum(axis=(3, 5), keepdims=True)
    dwin = mask * (dout[:, :, :, None, :, None] / ties)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[:, :, : oh * s, : ow * s] = dwin.reshape(n, c, oh * s, ow * s)
    return dx


def relu_forward(self, x: np.ndarray) -> np.ndarray:
    self._cache = x > 0
    return np.where(self._cache, x, 0.0).astype(x.dtype, copy=False)


def sequential_backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
    """Every layer computes its input gradient, the first one included."""
    for layer in reversed(self.layers):
        dout = layer.backward(dout)
    return dout
