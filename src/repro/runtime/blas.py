"""Cap OpenBLAS helper threads while a threaded run is in progress.

The engine gets its parallelism from its workers, one per usable CPU;
OpenBLAS's helpers spin after every matmul on the cores those need.
``threadpoolctl`` is not a dependency: the OpenBLAS copies mapped into the
process (numpy's, scipy's) are found in ``/proc/self/maps`` and driven
through ``ctypes``.  The count is process-wide native state, so
overlapping runs share the outermost one's cap and the last one out
restores what the first one found.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager

__all__ = ["blas_thread_cap", "usable_cpus"]

_lock = threading.Lock()
_holders = 0  # runs currently inside blas_thread_cap
_held: dict = {}  # what the outermost of them reports
_restore: list = []  # (setter, thread count found) per capped library


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _openblas_libs() -> list[tuple]:
    """``(get, set)`` num-threads functions of every mapped OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.rpartition("/")[2]}
    except OSError:
        return []
    found = []
    for lib in map(ctypes.CDLL, sorted(paths)):
        # Wheels spell the symbols with a "scipy_" prefix and/or an ILP64 suffix.
        for pre, suf in [(p, s) for p in ("", "scipy_") for s in ("", "64_", "_64")]:
            get = getattr(lib, f"{pre}openblas_get_num_threads{suf}", None)
            put = getattr(lib, f"{pre}openblas_set_num_threads{suf}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


@contextmanager
def blas_thread_cap(worker_threads: int):
    """Hold OpenBLAS at ``max(1, usable_cpus // worker_threads)`` threads for
    the block; yields ``{"blas_threads", "blas_libs"}``.  A no-op reporting
    ``blas_libs == 0`` where no OpenBLAS is mapped."""
    global _holders, _held, _restore
    with _lock:
        if _holders == 0:
            cap = max(1, usable_cpus() // max(1, worker_threads))
            libs = _openblas_libs()
            _restore = [(put, get()) for get, put in libs]
            for _, put in libs:
                put(cap)
            _held = {"blas_threads": cap, "blas_libs": len(libs)}
        _holders += 1
        held = _held
    try:
        yield held
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for put, n in _restore:
                    put(n)
