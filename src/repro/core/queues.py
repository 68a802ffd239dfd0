"""Bounded feedback queues connecting pipeline stages.

Section 4.3.1: "FFS-VA controls the detecting speed of a filter in an
earlier stage in the pipeline by detecting the queue depth of the filter at
a later stage.  For example, when the T-YOLO queue depth exceeds a
threshold, the SNM thread automatically slows down or even gets blocked, and
stops pushing frames to the T-YOLO queue until the T-YOLO queue is free."

:class:`FeedbackQueue` is the thread-safe implementation used by the real
threaded runtime; the discrete-event simulator reuses the same bounded-depth
semantics through :class:`SimQueue`, a non-locking variant, so both runtimes
share one behaviour contract:

* ``put`` blocks while the queue is at its depth threshold (back-pressure);
* ``pop_batch`` removes up to ``max_n`` items FIFO;
* an unbounded mode (``depth=None``) models the static-batch configuration,
  which runs without the feedback mechanism.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterable

__all__ = ["QueueClosed", "FeedbackQueue", "SimQueue"]


class QueueClosed(Exception):
    """Raised when putting into (or draining from) a closed queue."""


class SimQueue:
    """Bounded FIFO for the discrete-event simulator (no locking).

    The simulator's event loop checks :meth:`has_room` before every
    :meth:`put` (a producer without room holds the frame and waits for a
    dequeue), so ``put`` over the depth threshold is a bug and raises.
    Tracks high-water depth for diagnostics.
    """

    def __init__(self, depth: int | None = None, name: str = "q"):
        if depth is not None and depth < 1:
            raise ValueError("depth must be >= 1 or None")
        self.depth = depth
        self.name = name
        self._items: deque = deque()
        self.high_water = 0
        self.total_in = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        """Iterate queued items front to back without removing them."""
        return iter(self._items)

    def has_room(self, n: int = 1) -> bool:
        """True if ``n`` more items fit under the depth threshold."""
        return self.depth is None or len(self._items) + n <= self.depth

    def put(self, item: Any) -> None:
        if not self.has_room(1):
            raise OverflowError(f"queue {self.name} over depth {self.depth}")
        self._items.append(item)
        self.total_in += 1
        self.high_water = max(self.high_water, len(self._items))

    def put_many(self, items: Iterable[Any]) -> None:
        for item in items:
            self.put(item)

    def pop(self) -> Any:
        return self._items.popleft()

    def pop_batch(self, max_n: int) -> list:
        n = min(max_n, len(self._items))
        return [self._items.popleft() for _ in range(n)]


class FeedbackQueue:
    """Thread-safe bounded FIFO with blocking back-pressure."""

    def __init__(self, depth: int | None = None, name: str = "q"):
        if depth is not None and depth < 1:
            raise ValueError("depth must be >= 1 or None")
        self.depth = depth
        self.name = name
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.high_water = 0
        self.total_in = 0
        #: Telemetry hook point: how many ``put`` calls timed out against a
        #: full queue (each is one observed back-pressure stall).
        self.put_timeouts = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def close(self) -> None:
        """Mark end-of-stream; blocked producers/consumers wake up."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def put(self, item: Any, timeout: float | None = None) -> bool:
        """Append ``item``, blocking while the queue is full.

        Returns True on success, False on timeout.  Raises
        :class:`QueueClosed` if the queue was closed.
        """
        with self._cond:
            if self.depth is not None:
                ok = self._cond.wait_for(
                    lambda: self._closed or len(self._items) < self.depth,
                    timeout=timeout,
                )
                if not ok:
                    self.put_timeouts += 1
                    return False
            if self._closed:
                raise QueueClosed(self.name)
            self._items.append(item)
            self.total_in += 1
            self.high_water = max(self.high_water, len(self._items))
            self._cond.notify_all()
            return True

    def pop_batch(
        self,
        max_n: int,
        min_n: int = 1,
        timeout: float | None = None,
    ) -> list:
        """Remove up to ``max_n`` items, waiting for at least ``min_n``.

        ``min_n`` > 1 implements static batching (wait for a full batch);
        ``min_n`` = 1 implements dynamic batching (take what is there).  When
        the queue is closed, returns whatever remains (possibly fewer than
        ``min_n``, possibly empty).
        """
        if max_n < 1 or min_n < 1 or min_n > max_n:
            raise ValueError("need 1 <= min_n <= max_n")
        with self._cond:
            satisfied = self._cond.wait_for(
                lambda: self._closed or len(self._items) >= min_n,
                timeout=timeout,
            )
            if not satisfied:
                return []  # timed out before a full min_n batch formed
            n = min(max_n, len(self._items))
            out = [self._items.popleft() for _ in range(n)]
            if out:
                self._cond.notify_all()
            return out

    def drain(self) -> list:
        """Remove and return everything currently queued."""
        with self._cond:
            out = list(self._items)
            self._items.clear()
            if out:
                self._cond.notify_all()
            return out

    def snapshot(self) -> dict:
        """Telemetry hook point: a consistent gauge/counter snapshot."""
        with self._cond:
            return {
                "depth": len(self._items),
                "high_water": self.high_water,
                "total_in": self.total_in,
                "put_timeouts": self.put_timeouts,
                "closed": self._closed,
            }
