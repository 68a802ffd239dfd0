"""Low-level image operations used throughout FFS-VA.

The original system relies on OpenCV for frame resizing before each filter
stage (the paper reports resize costs of 40/150/400 microseconds for the
SDD/SNM/T-YOLO input sizes).  This module provides the small set of
vectorized NumPy equivalents the reproduction needs: bilinear resize, block
mean-pooling, and normalization helpers.  Everything operates on grayscale
``float32`` images with values in ``[0, 1]`` shaped ``(H, W)`` or batches
shaped ``(N, H, W)``.

Resizing is the cascade's per-frame tax: every stage pays it on every frame
before any model runs.  Steady-state streams resize the same ``(in_hw,
out_hw)`` pair millions of times, so the gather indices and interpolation
weights are precomputed once into a :class:`ResizePlan` (LRU-cached per
shape pair via :func:`get_resize_plan`) and each call does only
fancy-indexed gathers plus fused multiply-adds — never index math.

:func:`frame_median` and :func:`block_reduce_mean` are the other two passes
every detector call makes over a frame; both return exactly what the NumPy
expression they replace returns (DESIGN.md section 8).
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

__all__ = [
    "ResizePlan",
    "get_resize_plan",
    "resize_bilinear",
    "frame_median",
    "block_reduce_mean",
    "to_float01",
    "normalize_unit",
]

#: Frames per pass of every batched kernel and bulk pass (resize, the
#: detectors, SDD distances, SNM inference, onboarding's label pass and
#: trace building).  Per-frame results are independent, so walking a large
#: batch in chunks changes nothing but the size of the temporaries and
#: workspaces, which stay one chunk deep however long the clip (a 600-frame
#: label pass at 208x208 would otherwise hold ~100 MB per intermediate).
#: It equals SDD's fixed batch and the reference stage's ``REF_BATCH``, so
#: no engine call at those stages is split (DESIGN.md section 27).
FRAME_CHUNK = 16


class ResizePlan:
    """Precomputed bilinear-resize gathers and weights for one shape pair.

    Sample positions follow the "half-pixel centers" convention so that up-
    and down-scaling are both well behaved at the borders.  Bilinear
    interpolation is separable, and :meth:`apply` runs it that way: every
    *used* source row is interpolated along x once (two gathers of
    ``(N, R*OW)``), then output rows are blended from those (two row
    copies of ``(N, OH, OW)``).  Each output pixel sees the same operands
    in the same order as the four-neighbour formula
    ``(a*(1-wx) + b*wx)*(1-wy) + (c*(1-wx) + d*wx)*wy``, so results are
    bit-identical to it; an up-sample simply stops repeating the x pass for
    every output row that shares a source row.

    The index/weight tables are immutable after construction; the only
    mutable state is a *thread-local* pool of scratch buffers (reallocating
    them per call costs as much as the gathers at stage-batch sizes).
    Batches are walked in chunks of :data:`FRAME_CHUNK` frames, so the pool
    never outgrows one chunk however large a call is.  Thread locality keeps
    one plan safely shared across threads (the per-stream and shared-stage
    workers of the threaded runtime all hit the same LRU cache).
    """

    __slots__ = (
        "in_hw",
        "out_hw",
        "identity",
        "_i0",
        "_i1",
        "_r0",
        "_r1",
        "_wx",
        "_iwx",
        "_wy",
        "_iwy",
        "_tls",
    )

    def __init__(self, in_hw: tuple[int, int], out_hw: tuple[int, int]):
        h, w = int(in_hw[0]), int(in_hw[1])
        oh, ow = int(out_hw[0]), int(out_hw[1])
        if h <= 0 or w <= 0:
            raise ValueError(f"input size must be positive, got {in_hw}")
        if oh <= 0 or ow <= 0:
            raise ValueError(f"output size must be positive, got {out_hw}")
        self.in_hw = (h, w)
        self.out_hw = (oh, ow)
        self.identity = (oh, ow) == (h, w)
        self._tls = threading.local()
        if self.identity:
            self._i0 = self._i1 = self._r0 = self._r1 = None
            self._wy = self._iwy = self._wx = self._iwx = None
            return

        ys = (np.arange(oh, dtype=np.float32) + 0.5) * (h / oh) - 0.5
        xs = (np.arange(ow, dtype=np.float32) + 0.5) * (w / ow) - 0.5
        ys = np.clip(ys, 0.0, h - 1.0)
        xs = np.clip(xs, 0.0, w - 1.0)
        y0 = np.floor(ys).astype(np.intp)
        x0 = np.floor(xs).astype(np.intp)
        y1 = np.minimum(y0 + 1, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)

        # x pass: flattened gather indices of the left/right neighbours into
        # a row-major (H*W) image, for the source rows some output row uses.
        # y pass: each output row's top/bottom position among those rows.
        rows, pos = np.unique(np.concatenate([y0, y1]), return_inverse=True)
        self._r0, self._r1 = pos[:oh], pos[oh:]
        self._i0 = (rows[:, None] * w + x0[None, :]).ravel()
        self._i1 = (rows[:, None] * w + x1[None, :]).ravel()
        # Weights are tiled to the flattened operands they scale, so every
        # multiply is one long contiguous loop, not a short one per row.
        self._wx = np.tile((xs - x0).astype(np.float32), len(rows))
        self._iwx = np.float32(1.0) - self._wx
        self._wy = np.repeat((ys - y0).astype(np.float32), ow).reshape(oh, ow)
        self._iwy = np.float32(1.0) - self._wy

    def apply(self, img: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Resize ``img`` (``(H, W)`` or ``(N, H, W)``) using this plan.

        ``out``, when given, must be a ``float32`` array of the batch output
        shape ``(N, OH, OW)`` (or ``(OH, OW)`` for a single image); the
        result is written into it and returned, so steady-state callers run
        allocation-free.

        Identity plans return the input itself (as ``float32``) — see
        :func:`resize_bilinear` for the aliasing contract.
        """
        arr = np.asarray(img, dtype=np.float32)
        single = arr.ndim == 2
        if single:
            arr = arr[None]
        if arr.ndim != 3:
            raise ValueError(f"expected (H, W) or (N, H, W) image, got shape {arr.shape}")
        if arr.shape[1:] != self.in_hw:
            raise ValueError(
                f"plan built for input {self.in_hw}, got image of shape {arr.shape[1:]}"
            )
        if self.identity:
            res = arr[0] if single else arr
            if out is not None:
                np.copyto(out, res)
                return out
            return res
        n = arr.shape[0]
        oh, ow = self.out_hw
        if out is None:
            target = np.empty((n, oh, ow), dtype=np.float32)
        else:
            target = out[None] if (single and out.ndim == 2) else out
            if target.shape != (n, oh, ow):
                raise ValueError(
                    f"out must have shape {(n, oh, ow)}, got {out.shape}"
                )
        flat = arr.reshape(n, -1)
        for start in range(0, n, FRAME_CHUNK):
            stop = start + FRAME_CHUNK
            self._apply_chunk(flat[start:stop], target[start:stop])
        if out is not None:
            return out
        return target[0] if single else target

    def _apply_chunk(self, flat: np.ndarray, target: np.ndarray) -> None:
        """Resize ``flat`` (``(M, H*W)``, ``M <= FRAME_CHUNK``) into ``target``."""
        m = len(flat)
        left, right, bottom = (buf[:m] for buf in self._scratch())
        # Mode "clip" skips the wraparound branch; the indices are in range
        # by construction.  All arithmetic is in place on the scratch.
        np.take(flat, self._i0, axis=1, out=left, mode="clip")
        np.take(flat, self._i1, axis=1, out=right, mode="clip")
        np.multiply(left, self._iwx, out=left)
        np.multiply(right, self._wx, out=right)
        np.add(left, right, out=left)  # every used source row, x-interpolated
        rows = left.reshape(m, -1, self.out_hw[1])
        np.take(rows, self._r0, axis=1, out=target, mode="clip")
        np.take(rows, self._r1, axis=1, out=bottom, mode="clip")
        np.multiply(target, self._iwy, out=target)
        np.multiply(bottom, self._wy, out=bottom)
        np.add(target, bottom, out=target)

    def _scratch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This thread's buffers: two x-pass operands and the bottom rows."""
        bufs = getattr(self._tls, "bufs", None)
        if bufs is None:
            bufs = self._tls.bufs = (
                np.empty((FRAME_CHUNK, len(self._i0)), dtype=np.float32),
                np.empty((FRAME_CHUNK, len(self._i0)), dtype=np.float32),
                np.empty((FRAME_CHUNK, *self.out_hw), dtype=np.float32),
            )
        return bufs

    def __call__(self, img: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.apply(img, out=out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResizePlan({self.in_hw} -> {self.out_hw})"


@lru_cache(maxsize=128)
def _cached_plan(h: int, w: int, oh: int, ow: int) -> ResizePlan:
    return ResizePlan((h, w), (oh, ow))


def get_resize_plan(in_hw: tuple[int, int], out_hw: tuple[int, int]) -> ResizePlan:
    """The process-wide cached :class:`ResizePlan` for a shape pair.

    Steady-state stage preprocessing calls this per batch; after the first
    call for a ``(in_hw, out_hw)`` pair the plan lookup is a dict hit.
    """
    return _cached_plan(int(in_hw[0]), int(in_hw[1]), int(out_hw[0]), int(out_hw[1]))


def resize_bilinear(
    img: np.ndarray, out_hw: tuple[int, int], *, copy: bool = False
) -> np.ndarray:
    """Resize ``img`` to ``out_hw = (H, W)`` with bilinear interpolation.

    Accepts a single image ``(H, W)`` or a batch ``(N, H, W)``; the batch
    dimension is preserved.  Runs on the LRU-cached :class:`ResizePlan` for
    the shape pair, so repeated calls pay no index math.

    When the output size equals the input size the input is returned
    **as-is** (for ``float32`` input, an alias of ``img``; other dtypes are
    converted and therefore copied).  Pass ``copy=True`` to force an owned
    array — do so whenever the caller mutates the result or outlives the
    source buffer.
    """
    arr = np.asarray(img, dtype=np.float32)
    single = arr.ndim == 2
    batch = arr[None] if single else arr
    if batch.ndim != 3:
        raise ValueError(f"expected (H, W) or (N, H, W) image, got shape {arr.shape}")
    plan = get_resize_plan(batch.shape[1:], out_hw)
    if plan.identity:
        return arr.copy() if copy else arr
    out = plan.apply(batch)
    return out[0] if single else out


def frame_median(batch: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Per-frame median of an ``(N, H, W)`` float32 batch, as ``(N,)``.

    Equal to ``np.median(batch, axis=(1, 2))`` for **finite** input at a
    fraction of its cost: one single-``kth`` selection of the upper middle
    element, then the largest element of the lower part for even pixel
    counts (``np.median`` selects both middles and a NaN sentinel in one
    three-``kth`` pass).  NaNs are not propagated — callers pass rendered
    or resized frames, which are finite.

    The selection runs on a copy of ``batch``: a fresh one, or ``scratch``
    (a C-contiguous float32 array of ``batch``'s shape, overwritten) when
    given.  ``np.partition`` copies and partitions in place the same way,
    so the result does not depend on which.
    """
    flat = batch.reshape(len(batch), -1)
    k = flat.shape[1] // 2
    if scratch is None:
        part = np.partition(flat, k, axis=1)
    else:
        part = scratch.reshape(flat.shape)
        np.copyto(part, flat)
        part.partition(k, axis=1)
    upper = part[:, k]
    if flat.shape[1] % 2:
        return upper.copy()  # not a view that pins the partitioned copy
    return (part[:, :k].max(axis=1) + upper) / np.float32(2.0)


def block_reduce_mean(img: np.ndarray, factor: int) -> np.ndarray:
    """Downsample by an integer ``factor`` using non-overlapping block means.

    Trailing rows/columns that do not fill a complete block are dropped,
    mirroring the behaviour of area-interpolation decimation.

    The result is that of ``blocks.mean(axis=(2, 4))`` over the
    ``(N, H/f, f, W/f, f)`` view.  For the detectors' factors (4 and 8) the
    same additions run as whole-array adds in the order NumPy's reduction
    performs them on a C-contiguous image — each block row summed first
    (left to right below 8 elements, the pairwise tree at 8), block rows
    then accumulated top to bottom — which is bit-identical and skips the
    5-D iterator.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    arr = np.asarray(img, dtype=np.float32)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    n, h, w = arr.shape
    hh, ww = h // factor, w // factor
    if hh == 0 or ww == 0:
        raise ValueError(f"factor {factor} too large for image of shape {(h, w)}")
    blocks = arr[:, : hh * factor, : ww * factor].reshape(n, hh, factor, ww, factor)
    # With one block column NumPy folds the two block axes into one
    # reduction, and another layout iterates in another order: reduce there.
    if factor in (4, 8) and ww > 1 and arr.flags.c_contiguous:
        c = [blocks[..., k] for k in range(factor)]
        if factor == 4:
            rows = ((c[0] + c[1]) + c[2]) + c[3]
        else:
            rows = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
        out = rows[:, :, 0] + rows[:, :, 1]
        for r in range(2, factor):
            out += rows[:, :, r]
        out /= np.float32(factor * factor)
    else:
        out = blocks.mean(axis=(2, 4))
    return out[0] if single else out


def to_float01(img: np.ndarray) -> np.ndarray:
    """Convert an integer image to float32 in [0, 1]; pass floats through."""
    arr = np.asarray(img)
    if np.issubdtype(arr.dtype, np.integer):
        info = np.iinfo(arr.dtype)
        return arr.astype(np.float32) / float(info.max)
    return arr.astype(np.float32, copy=False)


def normalize_unit(img: np.ndarray) -> np.ndarray:
    """Shift/scale an image (or batch) to zero mean and unit variance.

    Normalization is computed per image over its spatial axes, which is the
    standard input conditioning for the SNM classifier.  A constant image
    maps to all zeros instead of dividing by zero.
    """
    arr = np.asarray(img, dtype=np.float32)
    axes = tuple(range(arr.ndim - 2, arr.ndim))
    mean = arr.mean(axis=axes, keepdims=True)
    std = arr.std(axis=axes, keepdims=True)
    std = np.where(std < 1e-8, 1.0, std)
    return (arr - mean) / std
