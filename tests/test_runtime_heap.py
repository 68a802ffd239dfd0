"""``trim_heap``: a threaded run starts from the memory the process uses."""

import os

import numpy as np
import pytest

from repro.runtime.heap import trim_heap

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="no /proc to read RSS from")
def test_trim_heap_returns_freed_pages_between_live_blocks():
    if not trim_heap():
        pytest.skip("the C library has no malloc_trim")
    # 200 MB of 64 KB blocks (below the mmap threshold, so on the heap);
    # every other one is freed, between two live ones, so free() alone
    # cannot give it back: none of them ends up at the top of the heap.
    blocks = [np.ones(8192) for _ in range(3200)]
    pins = blocks[1::2]
    del blocks
    before = rss_bytes()
    assert trim_heap()
    assert before - rss_bytes() > 50 * 2**20
    assert len(pins) == 1600
