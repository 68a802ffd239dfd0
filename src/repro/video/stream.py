"""Video stream abstraction over the synthetic renderer.

A :class:`VideoStream` couples a scene script with a renderer and exposes
the access patterns the pipeline needs:

* sequential reads (the engine's first stage, chunk by chunk),
* random access / batched reads (trace building, training-set
  construction),
* a chunked scan over one reused buffer (offline analysis of a long clip),
* ground truth without rendering (evaluation).

Every pixel read goes through the stream's
:class:`~repro.video.clipstore.StoredClip`: rendered on the first read, read
back ever after.  ``VideoStream`` stays cheap to construct: a 10^5-frame
stream costs nothing until read.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .clipstore import StoredClip
from .frame import Frame
from .scene import SceneScript, make_script
from .synth import Renderer, RenderOptions

__all__ = ["VideoStream"]


class VideoStream:
    """A replayable, annotated synthetic video stream."""

    def __init__(
        self,
        script: SceneScript,
        *,
        stream_id: str = "stream-0",
        fps: float = 30.0,
        render_options: RenderOptions | None = None,
    ):
        self.script = script
        self.stream_id = stream_id
        self.fps = fps
        self.renderer = Renderer(script, render_options)
        self._clip = StoredClip(
            script.n_frames, (script.height, script.width), self.renderer.render_pixels
        )

    # -- construction helpers -------------------------------------------------
    @classmethod
    def synthetic(
        cls,
        n_frames: int,
        tor: float,
        *,
        kind: str = "car",
        height: int = 100,
        width: int = 150,
        seed: int = 0,
        stream_id: str | None = None,
        fps: float = 30.0,
        **script_kwargs,
    ) -> "VideoStream":
        """Create a stream from a freshly synthesized scene script."""
        script = make_script(
            n_frames,
            tor,
            kind=kind,
            height=height,
            width=width,
            seed=seed,
            **script_kwargs,
        )
        return cls(script, stream_id=stream_id or f"stream-{seed}", fps=fps)

    # -- basic properties ------------------------------------------------------
    def __len__(self) -> int:
        return self.script.n_frames

    @property
    def kind(self) -> str:
        """Target object class this stream is specialized for."""
        return self.script.kind

    @property
    def shape(self) -> tuple[int, int]:
        return (self.script.height, self.script.width)

    # -- frame access ----------------------------------------------------------
    def frame(self, t: int) -> Frame:
        """Frame ``t`` with annotations."""
        pixels = self.pixels(t)
        return Frame(self.stream_id, t, t / self.fps, pixels, self.script.annotations(t))

    def pixels(self, t: int) -> np.ndarray:
        """Only the pixels of frame ``t``, as a fresh caller-owned array."""
        out = np.empty(self.shape, dtype=np.float32)
        self._clip.read_into(t, out)
        return out

    def pixel_batch(self, ts, out: np.ndarray | None = None) -> np.ndarray:
        """Frames ``ts`` as an ``(N, H, W)`` array: ``out``, when one is given."""
        if out is None:
            out = np.empty((len(ts), *self.shape), dtype=np.float32)
        for t, px in zip(ts, out):
            self._clip.read_into(int(t), px)
        return out

    def iter_chunks(self, chunk_frames: int = 64) -> Iterator[tuple[int, np.ndarray]]:
        """The offline sequential scan: ``(start_index, frames)`` chunks in
        order, each a view of one buffer reused across iterations (valid
        until the next is asked for), so one chunk is resident whatever the
        clip's length."""
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        n = len(self)
        buf = np.empty((min(chunk_frames, n), *self.shape), dtype=np.float32)
        for start in range(0, n, chunk_frames):
            ts = range(start, min(start + chunk_frames, n))
            yield start, self.pixel_batch(ts, buf[: len(ts)])

    def stats(self) -> dict:
        """The stored clip's read counters and footprint."""
        return self._clip.stats()

    def __iter__(self) -> Iterator[Frame]:
        return self.frames()

    def frames(self, start: int = 0, stop: int | None = None) -> Iterator[Frame]:
        """Iterate frames in ``[start, stop)``."""
        stop = self.script.n_frames if stop is None else min(stop, self.script.n_frames)
        for t in range(start, stop):
            yield self.frame(t)

    # -- ground truth ----------------------------------------------------------
    def gt_counts(self, min_visibility: float | None = None) -> np.ndarray:
        """Per-frame ground-truth target counts (no rendering)."""
        if min_visibility is None:
            return self.script.gt_counts()
        return self.script.gt_counts(min_visibility)

    def tor(self) -> float:
        """Empirical target-object ratio of this stream."""
        return self.script.tor()

    def scenes(self) -> list[tuple[int, int]]:
        """Ground-truth scene runs as ``(start, stop)`` with stop exclusive."""
        return self.script.scenes()

    def reference_image(self, n_samples: int = 32) -> np.ndarray:
        """SDD reference image (average of rendered background frames)."""
        return self.renderer.reference_image(n_samples)
