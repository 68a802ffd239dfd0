"""Stored-clip source: a frame is rendered once, then read back.

FFS-VA's prefetcher *decodes stored video* (Section 5.2: a 55 GB file in under
8 GB of memory); re-synthesising a frame on every read is a cost the paper's
system does not have.  So a stream keeps what it has rendered in a
:class:`StoredClip`: an anonymous sparse file of raw float32 frames
(``tempfile.TemporaryFile`` — unlinked from birth, nothing to clean up on any
exit path) plus one presence flag per frame.  The first read of frame ``t``
renders it and writes it at ``t * frame_bytes``; every later read is a
``preadv`` into the caller's array — read, never mapped, so resident memory
does not grow with the clip.  ``video/synth.py`` stays the oracle (DESIGN §21).

The flags live in a ``MAP_SHARED`` mapping created together with the file,
so they travel with it: a process forked after the first write shares both
and sees every frame any of them stores later, while one forked before it
creates its own pair.  That is what lets a frame cross a process boundary as
``(stream, index)`` (``runtime/procpool.py``).
"""

from __future__ import annotations

import mmap
import os
import tempfile
import threading
import warnings
import weakref

import numpy as np

__all__ = ["StoredClip", "STORE_CAP_BYTES"]

#: Disk one stream may hold.  Frame ``t`` is stored iff ``(t + 1) *
#: frame_bytes`` fits; later frames render on every read, so a 10^5-frame
#: day scanned once cannot fill the temp directory.
STORE_CAP_BYTES = 256 * 2**20


class StoredClip:
    """Render-once, read-back storage for one stream's frames.

    ``render(t)`` is the renderer's ``(H, W)`` float32 frame.  Safe to read
    from several threads, and from forked children (those forked after the
    first write share the file and its flags; a frame both sides render is
    written twice with identical bytes).  Pickling or deep-copying yields an
    empty store over the same renderer that refills lazily.
    """

    def __init__(self, n_frames: int, shape: tuple[int, int], render):
        self.n_frames = n_frames
        self.shape = shape
        self.frame_bytes = shape[0] * shape[1] * 4
        self._render = render
        #: Frames the disk cap lets in.
        self._storable = min(n_frames, STORE_CAP_BYTES // self.frame_bytes)
        #: Frames below this index are written on their first read; 0 once a write failed.
        self._writable = self._storable
        #: The anonymous file and one shared flag per storable frame (set once
        #: its bytes are on file), both created by the first write.
        self._fd = -1
        self._present: mmap.mmap | None = None
        self._lock = threading.Lock()
        self.frames_read = 0  # every read, stored or rendered
        self.frames_rendered = 0  # the reads that ran the renderer

    def __reduce__(self):
        return (StoredClip, (self.n_frames, self.shape, self._render))

    # ------------------------------------------------------------------
    def read_into(self, t: int, out: np.ndarray) -> None:
        """Fill ``out`` — ``(H, W)`` float32, C-contiguous — with frame ``t``."""
        if not 0 <= t < self.n_frames:
            raise IndexError(f"frame {t} out of range [0, {self.n_frames})")
        present = self._present
        stored = present is not None and t < self._storable and present[t]
        if stored:
            got = os.preadv(self._fd, [out], t * self.frame_bytes)
            if got != self.frame_bytes:
                raise RuntimeError(f"stored frame {t}: read {got} of {self.frame_bytes} bytes")
        else:
            out[...] = self._render(t)
            if t < self._writable:
                self._write(t, out)
        with self._lock:
            self.frames_read += 1
            self.frames_rendered += not stored

    def _write(self, t: int, px: np.ndarray) -> None:
        try:
            with self._lock:
                if self._fd < 0:
                    f = tempfile.TemporaryFile(buffering=0)
                    weakref.finalize(self, f.close)  # holds the file until the store goes
                    os.ftruncate(f.fileno(), self._storable * self.frame_bytes)
                    self._present = mmap.mmap(-1, self._storable)  # MAP_SHARED
                    self._fd = f.fileno()
            done = os.pwrite(self._fd, px, t * self.frame_bytes)
        except OSError as exc:
            done = exc
        if done == self.frame_bytes:
            # Only now: a reader that sees the flag finds the whole frame.
            self._present[t] = 1
        elif self._writable:
            self._writable = 0
            warnings.warn(
                f"clip store stopped at frame {t} ({done!r}); unstored frames render on every read",
                RuntimeWarning,
                stacklevel=4,
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Read counters and what the store holds on disk and in memory."""
        present = self._present
        flags = b"" if present is None else present[:]
        return {
            "frames_read": self.frames_read,
            "frames_rendered": self.frames_rendered,
            "stored_bytes": flags.count(1) * self.frame_bytes,
            "resident_bytes": len(flags),
        }
