"""Synthetic fixed-viewpoint surveillance video renderer.

This is the reproduction's stand-in for the Jackson Hole / Coral Reef
webcams used by the paper.  A :class:`Renderer` deterministically turns a
:class:`~repro.video.scene.SceneScript` into grayscale frames consisting of:

* a static textured **background** (the fixed camera viewpoint),
* a slow multiplicative **lighting drift** (time-of-day / weather effects,
  which the paper notes inflate SDD's difference threshold),
* per-frame **sensor noise**, and
* the script's moving **objects**, rendered as soft-edged elliptical patches
  with an interior texture so they have non-trivial learned features.

Rendering is random-access: ``render_pixels(t)`` depends only on the script,
the seed, and ``t``, so a stream can be replayed and sliced, and what it keeps
of its frames (``clipstore.py``) checked against a fresh render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .scene import SceneScript

__all__ = ["RenderOptions", "Renderer"]


@dataclass(frozen=True)
class RenderOptions:
    """Tunable photometric properties of the synthetic camera."""

    noise_sigma: float = 0.012
    lighting_amplitude: float = 0.06
    lighting_period: float = 3000.0  # frames per full day-night style cycle
    background_smoothness: float = 4.0
    background_low: float = 0.30
    background_high: float = 0.60


class Renderer:
    """Deterministic renderer for one scene script."""

    def __init__(self, script: SceneScript, options: RenderOptions | None = None):
        self.script = script
        self.options = options or RenderOptions()
        self._background = self._make_background()

    # ------------------------------------------------------------------
    # background
    # ------------------------------------------------------------------
    def _make_background(self) -> np.ndarray:
        """Static textured background derived from the script's seed."""
        opt = self.options
        rng = np.random.default_rng(self.script.background_seed)
        h, w = self.script.height, self.script.width
        field = rng.random((h, w)).astype(np.float32)
        field = ndimage.gaussian_filter(field, sigma=opt.background_smoothness)
        lo, hi = field.min(), field.max()
        if hi - lo < 1e-9:
            field = np.full((h, w), 0.5, dtype=np.float32)
        else:
            field = (field - lo) / (hi - lo)
        # A horizontal luminance gradient mimics road/sky structure.
        grad = np.linspace(0.0, 1.0, h, dtype=np.float32)[:, None]
        field = 0.8 * field + 0.2 * grad
        return (opt.background_low + field * (opt.background_high - opt.background_low)).astype(
            np.float32
        )

    @property
    def background(self) -> np.ndarray:
        """The clean background image (a copy; callers may mutate)."""
        return self._background.copy()

    def reference_image(self, n_samples: int = 32) -> np.ndarray:
        """Average of ``n_samples`` rendered background-only frames.

        This follows the paper's SDD setup: "the reference image is usually
        computed as the average of dozens of background frames".  Averaging
        rendered frames (not the clean background) bakes typical lighting and
        noise levels into the reference.
        """
        acc = np.zeros_like(self._background, dtype=np.float64)
        for i in range(n_samples):
            acc += self._compose(t=i, draw_objects=False)
        return (acc / n_samples).astype(np.float32)

    # ------------------------------------------------------------------
    # per-frame composition
    # ------------------------------------------------------------------
    def _lighting(self, t: int) -> float:
        opt = self.options
        return 1.0 + opt.lighting_amplitude * np.sin(2.0 * np.pi * t / opt.lighting_period)

    def _compose(self, t: int, draw_objects: bool = True) -> np.ndarray:
        opt = self.options
        h, w = self.script.height, self.script.width
        img = self._background * np.float32(self._lighting(t))
        if draw_objects:
            for track in self.script.tracks:
                pos = track.position(t)
                if pos is None:
                    continue
                self._draw_object(img, pos, track)
        rng = np.random.default_rng((self.script.background_seed, 0x5EED, t))
        img = img + rng.normal(0.0, opt.noise_sigma, size=(h, w)).astype(np.float32)
        np.clip(img, 0.0, 1.0, out=img)
        return img

    def _draw_object(self, img: np.ndarray, pos: tuple[float, float], track) -> None:
        """Composite one object: soft elliptical patch plus interior texture."""
        h, w = img.shape
        cx, cy = pos
        ox0 = int(np.floor(cx - track.w / 2.0))
        oy0 = int(np.floor(cy - track.h / 2.0))
        ox1 = int(np.ceil(cx + track.w / 2.0))
        oy1 = int(np.ceil(cy + track.h / 2.0))
        x0, y0 = max(0, ox0), max(0, oy0)
        x1, y1 = min(w, ox1), min(h, oy1)
        if x1 <= x0 or y1 <= y0:
            return
        ys = np.arange(y0, y1, dtype=np.float32)[:, None]
        xs = np.arange(x0, x1, dtype=np.float32)[None, :]
        # Normalized distance from center; super-ellipse gives a boxy car
        # silhouette, a plain ellipse a person silhouette.
        nx = (xs - cx) / (track.w / 2.0 + 1e-6)
        ny = (ys - cy) / (track.h / 2.0 + 1e-6)
        power = 4.0 if track.kind == "car" else 2.0
        dist = np.abs(nx) ** power + np.abs(ny) ** power
        mask = np.clip(1.2 - dist, 0.0, 1.0)
        mask = np.minimum(mask, 1.0)
        # Interior texture: deterministic stripes tied to the track geometry,
        # so SNM has something richer than a flat blob to learn.
        texture = 0.12 * np.sin(0.8 * (xs - cx) + 1.3 * (ys - cy) + track.phase)
        patch = track.intensity * (0.85 + texture)
        img[y0:y1, x0:x1] += (mask * patch).astype(np.float32)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def render_pixels(self, t: int) -> np.ndarray:
        """Render the pixel array of frame ``t``."""
        if not 0 <= t < self.script.n_frames:
            raise IndexError(f"frame {t} out of range [0, {self.script.n_frames})")
        return self._compose(t)
