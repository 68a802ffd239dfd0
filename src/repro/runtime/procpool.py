"""Process-pool stage executor over the shared-memory frame plane.

The threaded runtime is GIL-bound: per-stream SDD workers serialize on the
interpreter, so adding streams adds contention instead of throughput.
Stages that opt in with ``StageSpec.executor = "process"`` (SDD is the
flagship — the paper runs it on CPU at ~20K FPS) dispatch their batches to
a :class:`ProcPool` of worker processes instead of evaluating inline.

Pixel payloads never cross the process boundary: the dispatching thread
copies the stacked batch into a :class:`~repro.video.frame.SharedFramePlane`
slot and sends only a :class:`~repro.video.frame.FrameDescriptor` (slab
name, slot, offset, shape, dtype); the worker maps a zero-copy view and
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
* The parent owns frame-plane slots end-to-end: a slot is acquired before
  dispatch and released when the batch's future resolves (result, requeue
  included, or failure).  Workers never free slots, so a crash cannot leak
  or double-free one.

Per-worker execution counters (batches, frames, busy seconds) are collected
with the results and merged into ``RunMetrics.extra["procpool"]``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..video.frame import SharedFramePlane

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


def _worker_main(worker_id, slab_name, task_q, result_q, evaluate, bundles, zoo, config):
    """Worker-process loop: view the batch, evaluate, send the mask back."""
    plane = SharedFramePlane.attach(slab_name)
    try:
        while True:
            item = task_q.get()
            if item is None:
                break
            task_id, desc, stream_idx = item
            try:
                pixels = plane.view(desc)
                batch_bundles = [bundles[i] for i in stream_idx]
                t0 = time.perf_counter()
                passes, info = evaluate(pixels, batch_bundles, zoo, config)
                dt = time.perf_counter() - t0
                passes = np.asarray(passes, dtype=bool)
                info = None if info is None else np.asarray(info)
                result_q.put((task_id, worker_id, passes, info, dt, None))
            except BaseException as exc:
                result_q.put((task_id, worker_id, None, None, 0.0, repr(exc)))
    finally:
        plane.close()


class ProcPool:
    """N worker processes executing one stage's batches off-thread.

    Parameters
    ----------
    evaluate:
        The stage's ``StageLogic.evaluate`` (a module-level function, so it
        pickles under the ``spawn`` start method too).
    bundles:
        Per-stream model bundles, indexed by stream index.
    slot_bytes:
        Size of one frame-plane slot — must hold the largest stacked batch
        the stage can dispatch.
    """

    def __init__(
        self,
        name: str,
        evaluate,
        bundles: list,
        zoo,
        config,
        n_workers: int,
        *,
        slot_bytes: int,
        slots: int | None = None,
        start_method: str | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.name = name
        methods = mp.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = mp.get_context(start_method)
        # Enough slots that every worker can hold one batch while the
        # dispatchers stage the next ones; acquire() blocking is the
        # back-pressure path, not the steady state.
        self.plane = SharedFramePlane(slots or max(2 * n_workers, 4), slot_bytes)
        self._result_q = ctx.Queue()
        self._task_qs = []
        self._procs = []
        for wid in range(n_workers):
            tq = ctx.Queue()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, self.plane.name, tq, self._result_q, evaluate, bundles, zoo, config),
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
        pixels: np.ndarray,
        stream_idx: list[int],
        abort: threading.Event | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, float]:
        """Execute one stacked batch on a worker; blocks until resolved.

        Returns ``(passes, info, exec_seconds)`` — the same contract as
        calling the stage logic inline.  Raises ``RuntimeError`` if the
        batch failed in (or outlived) every worker, and returns a
        conservative all-``False`` mask only on abort, where the caller is
        about to record the frames as aborted anyway.
        """
        pixels = np.ascontiguousarray(pixels)
        while True:
            try:
                slot = self.plane.acquire(pixels.nbytes, timeout=_POLL)
                break
            except TimeoutError:
                if abort is not None and abort.is_set():
                    return np.zeros(len(pixels), dtype=bool), None, 0.0
        try:
            desc = self.plane.write(slot, pixels)
            fut = _Future()
            with self._lock:
                task_id = self._next_task
                self._next_task += 1
                self._futures[task_id] = fut
                task = (task_id, desc, tuple(int(i) for i in stream_idx))
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
                    return np.zeros(len(pixels), dtype=bool), None, 0.0
            if fut.error is not None:
                raise RuntimeError(f"{self.name} pool batch failed: {fut.error}")
            return fut.passes, fut.info, fut.exec_seconds
        finally:
            self.plane.release(slot)

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
        self.plane.close()
        try:
            self.plane.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        return self.stats
