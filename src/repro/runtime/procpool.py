"""Process-pool stage executor: frames cross the boundary as indices.

The threaded runtime is GIL-bound: per-stream SDD workers serialize on the
interpreter, so adding streams adds contention instead of throughput.
Stages that opt in with ``StageSpec.executor = "process"`` (SDD is the
flagship — the paper runs it on CPU at ~20K FPS) dispatch their batches to
a :class:`ProcPool` of worker processes instead of evaluating inline.

Pixels never cross the process boundary: a batch is sent as its
``(stream, frame index)`` pairs, and the worker reads the frames from the
streams it inherited at fork — one ``preadv`` per stored frame, since a
stream's :class:`~repro.video.clipstore.StoredClip` shares its file and
presence flags with every child forked after its first write (DESIGN §21).
The parent has already read (and so stored) every frame it dispatches; only
a frame past ``STORE_CAP_BYTES`` renders in the worker as well.  The worker
returns just the boolean pass mask.

Lifecycle and fault model
-------------------------
* Workers are started once per run, before the runtime's own threads (so a
  ``fork`` start method never forks a multi-threaded parent), and stopped
  with ``None`` sentinels on :meth:`ProcPool.shutdown`.
* Each worker has its *own* task queue.  That makes crash recovery exact: a
  monitor thread polls liveness, and when a worker dies its in-flight tasks
  — known precisely because results resolve them — are requeued onto the
  surviving workers.  A batch is lost only when every worker is gone, which
  surfaces as a pipeline error, never a hang.
* A task is plain indices, so a crash leaks nothing: no shared segment
  exists to free.

Per-worker execution counters (batches, frames, busy seconds) are collected
with the results and merged into ``RunMetrics.extra["procpool"]``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

__all__ = ["ProcPool", "PoolStats"]

#: Poll interval for future waits and worker liveness checks (seconds).
_POLL = 0.05


@dataclass
class PoolStats:
    """Aggregated execution counters for one pool."""

    workers: int = 0
    tasks: int = 0
    frames: int = 0
    exec_seconds: float = 0.0
    crashed_workers: int = 0
    requeued_tasks: int = 0
    lost_tasks: int = 0
    per_worker: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "tasks": self.tasks,
            "frames": self.frames,
            "exec_seconds": self.exec_seconds,
            "crashed_workers": self.crashed_workers,
            "requeued_tasks": self.requeued_tasks,
            "lost_tasks": self.lost_tasks,
            "per_worker": dict(self.per_worker),
        }


class _Future:
    __slots__ = ("event", "passes", "info", "exec_seconds", "error")

    def __init__(self):
        self.event = threading.Event()
        self.passes = None
        self.info = None
        self.exec_seconds = 0.0
        self.error: str | None = None


def _read_batch(streams, stream_idx, frame_idx) -> np.ndarray:
    """The batch's ``(N, H, W)`` pixels, read with one ``pixel_batch`` per run
    of frames from the same stream."""
    out = np.empty((len(frame_idx), *streams[stream_idx[0]].shape), dtype=np.float32)
    k = 0
    for s, run in groupby(zip(stream_idx, frame_idx), key=itemgetter(0)):
        ts = [t for _, t in run]
        streams[s].pixel_batch(ts, out=out[k : k + len(ts)])
        k += len(ts)
    return out


def _worker_main(worker_id, task_q, result_q, evaluate, streams, bundles, zoo, config):
    """Worker-process loop: read the batch, evaluate, send the mask back."""
    while True:
        item = task_q.get()
        if item is None:
            break
        task_id, stream_idx, frame_idx = item
        try:
            pixels = _read_batch(streams, stream_idx, frame_idx)
            batch_bundles = [bundles[i] for i in stream_idx]
            t0 = time.perf_counter()
            passes, info = evaluate(pixels, batch_bundles, zoo, config)
            dt = time.perf_counter() - t0
            passes = np.asarray(passes, dtype=bool)
            info = None if info is None else np.asarray(info)
            result_q.put((task_id, worker_id, passes, info, dt, None))
        except BaseException as exc:
            result_q.put((task_id, worker_id, None, None, 0.0, repr(exc)))


class ProcPool:
    """N worker processes executing one stage's batches off-thread.

    Parameters
    ----------
    evaluate:
        The stage's ``StageLogic.evaluate`` (a module-level function, so it
        pickles under the ``spawn`` start method too).
    streams:
        The streams, indexed by stream index: anything with ``shape`` and
        ``pixel_batch(ts, out=)``.  Workers read their batches from these.
    bundles:
        Per-stream model bundles, indexed by stream index.
    """

    def __init__(
        self,
        name: str,
        evaluate,
        streams: list,
        bundles: list,
        zoo,
        config,
        n_workers: int,
        *,
        start_method: str | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.name = name
        methods = mp.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = mp.get_context(start_method)
        self._result_q = ctx.Queue()
        self._task_qs = []
        self._procs = []
        for wid in range(n_workers):
            tq = ctx.Queue()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, tq, self._result_q, evaluate, streams, bundles, zoo, config),
                name=f"{name}-pool-{wid}",
                daemon=True,
            )
            self._task_qs.append(tq)
            self._procs.append(proc)
        for proc in self._procs:
            proc.start()

        self.stats = PoolStats(workers=n_workers)
        self._lock = threading.Lock()
        self._futures: dict[int, _Future] = {}
        #: worker id -> {task_id: task tuple} — exactly what a crashed
        #: worker might have dropped on the floor.
        self._inflight: dict[int, dict[int, tuple]] = {wid: {} for wid in range(n_workers)}
        self._dead: set[int] = set()
        self._next_task = 0
        self._rr = 0
        self._stopping = threading.Event()
        self._collector = threading.Thread(
            target=self._collect_loop, name=f"{name}-pool-collect", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name=f"{name}-pool-monitor", daemon=True
        )
        self._collector.start()
        self._monitor.start()

    # ------------------------------------------------------------------
    def run_batch(
        self,
        stream_idx: list[int],
        frame_idx: list[int],
        abort: threading.Event | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, float]:
        """Execute the batch of frames ``frame_idx[k]`` of streams
        ``stream_idx[k]`` on a worker; blocks until resolved.

        Returns ``(passes, info, exec_seconds)`` — the same contract as
        calling the stage logic inline.  Raises ``RuntimeError`` if the
        batch failed in (or outlived) every worker, and returns a
        conservative all-``False`` mask only on abort, where the caller is
        about to record the frames as aborted anyway.
        """
        fut = _Future()
        with self._lock:
            task_id = self._next_task
            self._next_task += 1
            self._futures[task_id] = fut
            task = (task_id, tuple(map(int, stream_idx)), tuple(map(int, frame_idx)))
            wid = self._pick_worker_locked()
            if wid is None:
                self._futures.pop(task_id, None)
                raise RuntimeError(f"{self.name} pool has no live workers")
            self._inflight[wid][task_id] = task
        self._task_qs[wid].put(task)
        while not fut.event.wait(_POLL):
            if abort is not None and abort.is_set():
                with self._lock:
                    self._futures.pop(task_id, None)
                    for inflight in self._inflight.values():
                        inflight.pop(task_id, None)
                return np.zeros(len(frame_idx), dtype=bool), None, 0.0
        if fut.error is not None:
            raise RuntimeError(f"{self.name} pool batch failed: {fut.error}")
        return fut.passes, fut.info, fut.exec_seconds

    def _pick_worker_locked(self) -> int | None:
        n = len(self._procs)
        for off in range(n):
            wid = (self._rr + off) % n
            if wid not in self._dead:
                self._rr = (wid + 1) % n
                return wid
        return None

    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        import queue as _queue

        while not (self._stopping.is_set() and not self._futures):
            try:
                task_id, wid, passes, info, dt, error = self._result_q.get(timeout=_POLL)
            except _queue.Empty:
                continue
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                break
            with self._lock:
                for inflight in self._inflight.values():
                    inflight.pop(task_id, None)
                fut = self._futures.pop(task_id, None)
                stats = self.stats
                w = stats.per_worker.setdefault(
                    wid, {"tasks": 0, "frames": 0, "exec_seconds": 0.0}
                )
                if error is None:
                    stats.tasks += 1
                    stats.frames += len(passes)
                    stats.exec_seconds += dt
                    w["tasks"] += 1
                    w["frames"] += len(passes)
                    w["exec_seconds"] += dt
            if fut is not None:
                # A requeued task can resolve twice; first result wins and
                # later duplicates find no future (results are deterministic
                # either way).
                fut.passes, fut.info = passes, info
                fut.exec_seconds, fut.error = dt, error
                fut.event.set()

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(_POLL * 2):
            for wid, proc in enumerate(self._procs):
                if wid in self._dead or proc.is_alive():
                    continue
                self._on_worker_death(wid)

    def _on_worker_death(self, wid: int) -> None:
        with self._lock:
            if wid in self._dead:
                return
            self._dead.add(wid)
            self.stats.crashed_workers += 1
            orphans = list(self._inflight[wid].values())
            self._inflight[wid].clear()
            redispatch = []
            for task in orphans:
                new_wid = self._pick_worker_locked()
                if new_wid is None:
                    fut = self._futures.pop(task[0], None)
                    if fut is not None:
                        self.stats.lost_tasks += 1
                        fut.error = f"worker {wid} crashed with no survivors"
                        fut.event.set()
                    continue
                self.stats.requeued_tasks += 1
                self._inflight[new_wid][task[0]] = task
                redispatch.append((new_wid, task))
        for new_wid, task in redispatch:
            self._task_qs[new_wid].put(task)

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> PoolStats:
        """Stop workers (sentinel, then terminate stragglers) and reap."""
        # The monitor goes first: a worker exiting on its sentinel is not a
        # crash.  (The collector keeps running until no future is pending.)
        self._stopping.set()
        self._monitor.join(timeout=2.0)
        for wid, tq in enumerate(self._task_qs):
            if wid not in self._dead:
                try:
                    tq.put(None)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        # Fail any future still unresolved so no dispatcher hangs.
        with self._lock:
            for task_id, fut in list(self._futures.items()):
                fut.error = "pool shut down with task unresolved"
                fut.event.set()
                self._futures.pop(task_id, None)
        self._collector.join(timeout=2.0)
        for tq in self._task_qs:
            tq.close()
            tq.cancel_join_thread()
        self._result_q.close()
        self._result_q.cancel_join_thread()
        return self.stats
