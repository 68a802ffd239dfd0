"""Tests for SimQueue and FeedbackQueue semantics."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import FeedbackQueue, QueueClosed, SimQueue


class TestSimQueue:
    def test_fifo_order(self):
        q = SimQueue(10)
        q.put_many([1, 2, 3])
        assert q.pop() == 1
        assert q.pop_batch(5) == [2, 3]

    def test_depth_enforced(self):
        q = SimQueue(2)
        q.put(1)
        q.put(2)
        assert not q.has_room(1)
        with pytest.raises(OverflowError):
            q.put(3)

    def test_unbounded(self):
        q = SimQueue(None)
        for i in range(1000):
            q.put(i)
        assert q.has_room(10_000)

    def test_high_water_tracking(self):
        q = SimQueue(5)
        q.put_many([1, 2, 3])
        q.pop()
        q.put(4)
        assert q.high_water == 3
        assert q.total_in == 4

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            SimQueue(0)

    @given(st.lists(st.sampled_from(["put", "pop"]), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_property_depth_invariant(self, ops):
        q = SimQueue(4)
        n_in = 0
        model = []
        for op in ops:
            if op == "put":
                if q.has_room(1):
                    q.put(n_in)
                    model.append(n_in)
                    n_in += 1
            else:
                if len(q) > 0:
                    assert q.pop() == model.pop(0)
            assert len(q) <= 4
        assert list(q._items) == model


class TestFeedbackQueue:
    def test_put_pop_roundtrip(self):
        q = FeedbackQueue(5)
        q.put("a")
        q.put("b")
        assert q.pop_batch(10) == ["a", "b"]

    def test_pop_batch_min_n_waits_for_full_batch(self):
        q = FeedbackQueue(10)
        q.put(1)
        out = q.pop_batch(4, min_n=4, timeout=0.05)
        assert out == []  # timed out waiting for a full batch
        for i in range(2, 5):
            q.put(i)
        assert q.pop_batch(4, min_n=4, timeout=0.5) == [1, 2, 3, 4]

    def test_put_blocks_until_room(self):
        q = FeedbackQueue(1)
        q.put(1)
        result = {}

        def producer():
            result["ok"] = q.put(2, timeout=2.0)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        assert q.pop_batch(1) == [1]
        t.join(timeout=2.0)
        assert result["ok"] is True
        assert q.pop_batch(1) == [2]

    def test_put_timeout_returns_false(self):
        q = FeedbackQueue(1)
        q.put(1)
        assert q.put(2, timeout=0.05) is False

    def test_close_wakes_consumer_with_remainder(self):
        q = FeedbackQueue(10)
        q.put(1)
        q.close()
        assert q.pop_batch(8, min_n=4, timeout=1.0) == [1]
        assert q.pop_batch(8, timeout=0.01) == []

    def test_put_after_close_raises(self):
        q = FeedbackQueue(2)
        q.close()
        with pytest.raises(QueueClosed):
            q.put(1)

    def test_producer_consumer_threads(self):
        q = FeedbackQueue(4)
        received = []

        def consumer():
            while True:
                batch = q.pop_batch(3, timeout=0.05)
                if batch:
                    received.extend(batch)
                elif q.closed and len(q) == 0:
                    return

        t = threading.Thread(target=consumer)
        t.start()
        for i in range(200):
            q.put(i)
        q.close()
        t.join(timeout=5.0)
        assert received == list(range(200))

    def test_high_water_respects_depth(self):
        q = FeedbackQueue(3)
        done = threading.Event()

        def consumer():
            while not done.is_set() or len(q) > 0:
                q.pop_batch(2, timeout=0.01)

        t = threading.Thread(target=consumer)
        t.start()
        for i in range(50):
            q.put(i, timeout=2.0)
        done.set()
        t.join(timeout=5.0)
        assert q.high_water <= 3

    def test_pop_batch_rejects_bad_args(self):
        q = FeedbackQueue(2)
        with pytest.raises(ValueError):
            q.pop_batch(0)
        with pytest.raises(ValueError):
            q.pop_batch(2, min_n=3)

    def test_drain(self):
        q = FeedbackQueue(10)
        q.put(1)
        q.put(2)
        assert q.drain() == [1, 2]
        assert len(q) == 0

    def test_put_timeout_on_full_queue_counts_stall(self):
        q = FeedbackQueue(1)
        q.put(1)
        assert q.put(2, timeout=0.05) is False
        assert q.put(3, timeout=0.05) is False
        assert q.put_timeouts == 2
        assert q.snapshot() == {
            "depth": 1,
            "high_water": 1,
            "total_in": 1,
            "put_timeouts": 2,
            "closed": False,
        }
        # Item 1 is still there: a timed-out put mutates nothing else.
        assert q.pop_batch(5) == [1]

    def test_drain_racing_close_loses_nothing(self):
        # close() and drain() from different threads must never drop or
        # duplicate an item, whichever order the lock grants.
        for _ in range(50):
            q = FeedbackQueue(None)
            for i in range(20):
                q.put(i)
            drained: list = []
            barrier = threading.Barrier(2)

            def closer():
                barrier.wait()
                q.close()

            def drainer():
                barrier.wait()
                drained.extend(q.drain())

            threads = [threading.Thread(target=closer), threading.Thread(target=drainer)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=2.0)
            assert q.closed
            assert drained + q.drain() == list(range(20))

    def test_pop_batch_min_n_short_batch_only_after_close(self):
        q = FeedbackQueue(10)
        q.put(1)
        q.put(2)
        # While open, min_n=3 must wait (and here time out) rather than
        # hand out a short batch.
        assert q.pop_batch(5, min_n=3, timeout=0.05) == []
        assert len(q) == 2
        q.close()
        # After close the remainder comes out even though it is short.
        assert q.pop_batch(5, min_n=3, timeout=0.5) == [1, 2]
        assert q.pop_batch(5, min_n=3, timeout=0.01) == []
