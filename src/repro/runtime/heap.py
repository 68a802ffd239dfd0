"""Hand the heap a process has already freed back to the OS before a run.

glibc keeps freed blocks inside its arenas, and whether a large free run
at the top of the main heap is returned depends on what happened to be
allocated above it.  Onboarding a stream frees a set-up heap of tens of
MB, and every threaded run leaves its per-thread arenas larger than it
found them.  Without a trim, a run's resident set rests on whatever the
process did before it: the same run reads 230 or 280 MB depending on the
order earlier frees happened in (DESIGN.md §21).  ``malloc_trim(0)``
releases every free page of every arena, so a run starts from the memory
the process still uses.  A no-op where the C library has no such call.
"""

from __future__ import annotations

import ctypes

__all__ = ["trim_heap"]


def _malloc_trim():
    try:
        fn = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_size_t], ctypes.c_int
    return fn


_malloc_trim_fn = _malloc_trim()


def trim_heap() -> bool:
    """Return free heap pages to the OS; ``False`` where that cannot be done."""
    if _malloc_trim_fn is None:
        return False
    _malloc_trim_fn(0)
    return True
