"""Batch-formation policies (Section 4.3.2).

The paper compares three mechanisms on the SNM stage:

* **static** — always wait for a full ``BatchSize`` of frames, with
  unbounded queues (no feedback).  Highest GPU efficiency, highest latency.
* **feedback** — full batches over bounded feedback queues: batch formation
  is additionally capped by the queue depth threshold, so "when the batch
  size is greater than the queue depth threshold, video frames have to wait
  in the SNM" — a slight throughput drop (~8%) at large BatchSize.
* **dynamic** — "if there are enough video frames in the SNM queue, SNM pops
  out a batch of (BatchSize) images from the queue for SNM prediction.
  Otherwise, the frames are popped from the SNM queue until the queue is
  empty."  Smaller average batches lower computational efficiency (~16%
  throughput) but halve the average latency.

The decision logic is a pure function over observable queue state so the
threaded runtime and the discrete-event simulator share it exactly.

A paced source adds one input the queue state does not have: the latency
objective.  :func:`paced_hold` spends half of it on the first stage's batch
size (DESIGN.md §22); only the threaded runtime's first stage uses it.
"""

from __future__ import annotations

import math

__all__ = [
    "LATENCY_OBJECTIVE",
    "batch_floor",
    "decide_batch",
    "decide_fused_batch",
    "fused_pop_order",
    "paced_hold",
]

#: Seconds from capture to a frame's final disposition that an online run
#: promises (the benchmark's ``online-paced`` objective).
LATENCY_OBJECTIVE = 0.100


def batch_floor(policy: str, batch_size: int, queue_depth: int | None) -> int:
    """Fewest queued frames a worker waits for before it takes a batch:
    :func:`decide_batch` takes nothing below it (end of stream aside), and
    the simulator wakes a worker when its queue reaches it."""
    if policy == "dynamic":
        return 1
    if policy == "static":
        return batch_size
    if policy == "feedback":
        # Full batches, but a bounded queue can never hold more than its
        # depth: the effective batch target is capped by the threshold.
        return batch_size if queue_depth is None else min(batch_size, queue_depth)
    raise ValueError(f"unknown batch policy {policy!r}")


def paced_hold(fps: float, cap: int) -> int:
    """Frames a paced first stage lets come due before it serves them.

    The oldest frame of a batch waits at most half of
    :data:`LATENCY_OBJECTIVE` for the rest to arrive; the cascade behind
    it keeps the other half.  ``cap`` is the batch the stage would take
    anyway, and the hold never exceeds it nor drops below one frame: 5 at
    80 fps, 2 at 30 fps, the cap of 16 from 300 fps on.
    """
    return max(1, min(cap, 1 + math.floor(fps * LATENCY_OBJECTIVE / 2)))


def decide_batch(
    policy: str,
    queue_len: int,
    batch_size: int,
    queue_depth: int | None,
    *,
    eof: bool = False,
) -> int:
    """How many frames the SNM stage should pop right now (0 = keep waiting).

    Parameters
    ----------
    policy:
        ``"static"``, ``"feedback"``, or ``"dynamic"``.
    queue_len:
        Current number of frames waiting in the stage's input queue.
    batch_size:
        The configured BatchSize.
    queue_depth:
        The queue's depth threshold (None = unbounded, static mode).
    eof:
        True once the producer finished; remaining frames must flush even if
        a full batch can never form again.
    """
    if queue_len < 0 or batch_size < 1:
        raise ValueError("queue_len must be >= 0 and batch_size >= 1")
    if queue_len == 0:
        return 0
    if eof:
        return min(queue_len, batch_size)

    floor = batch_floor(policy, batch_size, queue_depth)
    if queue_len < floor:
        return 0
    return min(queue_len, batch_size) if policy == "dynamic" else floor


def decide_fused_batch(
    policy: str,
    queue_lens: list[int],
    batch_size: int,
    queue_depth: int | None,
    *,
    eof: bool = False,
    start: int = 0,
) -> list[int]:
    """Per-stream take counts for one cross-stream SNM mega-batch.

    The fused SNM stage (fan-in ``"fused"``) has one queue per stream and a
    single worker that pools them: the batch target is the same
    ``BatchSize`` :func:`decide_batch` would use, but it is satisfied from
    the *aggregate* of all queues — a full GPU-efficient batch forms as soon
    as the streams have enough frames between them, instead of waiting for
    any single stream to fill one.

    Frames are distributed round-robin, one at a time over the non-empty
    queues starting at stream ``start``, so no stream can monopolize the
    mega-batch (the same inter-stream fairness goal as the T-YOLO extraction
    cap of Section 3.2.3).  Returns a per-stream count vector summing to the
    decided batch size; all zeros means keep waiting.

    ``eof`` (every producer finished) flushes whatever remains even when the
    per-stream queues are partially empty and a full batch can never form.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if any(n < 0 for n in queue_lens):
        raise ValueError("queue lengths must be >= 0")
    n_streams = len(queue_lens)
    takes = [0] * n_streams
    total = sum(queue_lens)
    if total == 0:
        return takes
    # The aggregate target follows decide_batch's policy semantics exactly,
    # applied to the pooled queue length.
    target = decide_batch(policy, total, batch_size, queue_depth, eof=eof)
    if target == 0:
        return takes
    left = list(queue_lens)
    picked = 0
    while picked < target:
        progressed = False
        for off in range(n_streams):
            idx = (start + off) % n_streams
            if left[idx] > 0 and picked < target:
                takes[idx] += 1
                left[idx] -= 1
                picked += 1
                progressed = True
        if not progressed:  # pragma: no cover - target <= total by construction
            break
    return takes


def fused_pop_order(takes: list[int], start: int = 0) -> list[int]:
    """Stream visit order matching :func:`decide_fused_batch`'s distribution.

    Both runtimes pop each stream's ``takes[idx]`` frames contiguously,
    visiting streams in round-robin order from ``start`` — this fixes the
    mega-batch layout so the threaded runtime and the simulator agree on
    batch composition (per-frame results are order-independent, but a shared
    convention keeps the two executors trivially comparable).
    """
    n = len(takes)
    return [(start + off) % n for off in range(n) if takes[(start + off) % n] > 0]
