"""Frame and ground-truth annotation types.

A :class:`Frame` is the unit of work flowing through the FFS-VA pipeline: a
grayscale pixel array plus bookkeeping (stream id, frame index, capture
timestamp).  Synthetic frames additionally carry ground-truth annotations
(:class:`GroundTruthObject`), which the evaluation harness uses to compute
TOR, accuracy, and error statistics — they are *never* consulted by the
filters themselves.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroundTruthObject",
    "Frame",
    "DescriptorChannel",
]


@dataclass(frozen=True)
class GroundTruthObject:
    """One target object instance present in a frame.

    Attributes
    ----------
    kind:
        Object class, e.g. ``"car"`` or ``"person"``.
    cx, cy:
        Center of the object's full bounding box in pixels.  May lie outside
        the frame when the object is entering or leaving the view.
    w, h:
        Full bounding-box width/height in pixels.
    visibility:
        Fraction of the bounding box that is inside the frame, in ``[0, 1]``.
        The paper's "partial appearance" false-negative analysis (Section
        5.3.3) keys off objects with low visibility.
    """

    kind: str
    cx: float
    cy: float
    w: float
    h: float
    visibility: float = 1.0

    def bbox(self) -> tuple[float, float, float, float]:
        """Return the full box as ``(x0, y0, x1, y1)``."""
        return (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )

    def clipped_bbox(self, height: int, width: int) -> tuple[float, float, float, float]:
        """Return the box intersected with the frame bounds."""
        x0, y0, x1, y1 = self.bbox()
        return (
            max(0.0, x0),
            max(0.0, y0),
            min(float(width), x1),
            min(float(height), y1),
        )


@dataclass
class Frame:
    """A single video frame with optional ground-truth annotations."""

    stream_id: str
    index: int
    timestamp: float
    pixels: np.ndarray
    annotations: tuple[GroundTruthObject, ...] = field(default_factory=tuple)

    @property
    def shape(self) -> tuple[int, int]:
        """Frame resolution as ``(height, width)``."""
        return (int(self.pixels.shape[0]), int(self.pixels.shape[1]))

    def count(self, kind: str, min_visibility: float = 0.0) -> int:
        """Number of ground-truth objects of ``kind`` with enough visibility."""
        return sum(
            1
            for a in self.annotations
            if a.kind == kind and a.visibility >= min_visibility
        )

    def has_target(self, kind: str, min_visibility: float = 0.25) -> bool:
        """True if at least one sufficiently visible target object is present."""
        return self.count(kind, min_visibility) > 0


class DescriptorChannel:
    """Socket control channel between the cluster supervisor and its
    pipeline-instance processes.

    Each side holds one end of a connected TCP socket.  A frame crosses it
    only as ``(stream, frame index)``: a stream handoff ships the boundary
    index, and the receiving instance reads the frames from the stored clip
    it inherited at fork — pixels never cross the wire.

    Wire format: a 4-byte big-endian length prefix followed by one JSON
    object.  ``send`` is lock-protected so control threads can interleave;
    ``recv`` returns ``None`` on clean EOF and raises ``TimeoutError`` when
    the peer stays silent past ``timeout``.
    """

    _HDR = struct.Struct(">I")

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._buf = b""

    def send(self, msg: dict) -> None:
        payload = json.dumps(msg, separators=(",", ":")).encode()
        with self._send_lock:
            self._sock.sendall(self._HDR.pack(len(payload)) + payload)

    def recv(self, timeout: float | None = None) -> dict | None:
        self._sock.settimeout(timeout)
        try:
            hdr = self._read_exact(self._HDR.size)
            if hdr is None:
                return None
            (length,) = self._HDR.unpack(hdr)
            payload = self._read_exact(length)
            if payload is None:
                raise ConnectionError("peer closed mid-message")
            return json.loads(payload)
        except socket.timeout as exc:
            raise TimeoutError("descriptor channel recv timed out") from exc

    def _read_exact(self, n: int) -> bytes | None:
        while len(self._buf) < n:
            chunk = self._sock.recv(65536)
            if not chunk:
                return None
            self._buf += chunk
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
