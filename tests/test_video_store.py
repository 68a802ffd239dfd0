"""The stored clip (DESIGN.md §21): every read path is the renderer's bits.

``video/synth.py`` is the differential oracle.  Whatever mix of ``pixels``
/ ``pixel_batch`` / ``frame`` / ``iter_chunks`` touches a stream, in whatever
order, on however many threads or forked children (which share the file and
its presence flags when forked after the first write), the arrays that come
back equal ``Renderer.render_pixels`` — and the store never costs more than its
cap on disk, a descriptor per touched stream while it lives, and nothing
after.
"""

import copy
import dataclasses
import errno
import gc
import os
import pickle
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import VideoStream, clipstore

N, H, W = 40, 12, 18
FRAME_BYTES = H * W * 4


def small_stream(seed: int = 7, n: int = N) -> VideoStream:
    return VideoStream.synthetic(n, 0.4, height=H, width=W, seed=seed)


@pytest.fixture(scope="module")
def oracle():
    """Frame ``t`` of ``small_stream()`` straight from the renderer."""
    renderer = small_stream().renderer
    return [renderer.render_pixels(t) for t in range(N)]


def open_fds() -> int:
    gc.collect()  # streams an earlier test left in a reference cycle
    return len(os.listdir("/proc/self/fd"))


# ---------------------------------------------------------------------------
# differential: any interleaving of the read paths equals the renderer
# ---------------------------------------------------------------------------
frame_idx = st.integers(0, N - 1)
read_ops = st.one_of(
    st.tuples(st.just("pixels"), frame_idx),
    st.tuples(st.just("frame"), frame_idx),
    st.tuples(st.just("batch"), st.lists(frame_idx, max_size=9)),
    st.tuples(st.just("chunks"), st.integers(1, N + 3)),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(read_ops, min_size=1, max_size=12))
def test_any_interleaving_equals_the_renderer(oracle, ops):
    stream = small_stream()
    reads = 0
    for op, arg in ops:
        if op == "pixels":
            got = [(arg, stream.pixels(arg))]
        elif op == "frame":
            frame = stream.frame(arg)
            assert frame.index == arg and frame.stream_id == stream.stream_id
            assert frame.annotations == stream.script.annotations(arg)
            got = [(arg, frame.pixels)]
        elif op == "batch":
            batch = stream.pixel_batch(arg)
            assert batch.shape == (len(arg), H, W) and batch.dtype == np.float32
            got = list(zip(arg, batch))
        else:
            got = [
                (start + i, px.copy())
                for start, chunk in stream.iter_chunks(arg)
                for i, px in enumerate(chunk)
            ]
            assert [t for t, _ in got] == list(range(N))
        reads += len(got)
        for t, px in got:
            np.testing.assert_array_equal(px, oracle[t])
    stats = stream.stats()
    touched = stats["stored_bytes"] // FRAME_BYTES
    assert stats["frames_read"] == reads
    assert stats["frames_rendered"] == touched  # each distinct frame rendered once


def test_returned_arrays_are_writable_and_independent(oracle):
    stream = small_stream()
    for read in (stream.pixels, lambda t: stream.frame(t).pixels,
                 lambda t: stream.pixel_batch([t])[0]):
        for _ in range(2):  # the rendering read, then a stored one
            px = read(3)
            assert px.flags.writeable and px.flags.c_contiguous
            px[...] = -1.0
    np.testing.assert_array_equal(stream.pixels(3), oracle[3])


def test_frames_iterates_through_the_store(oracle):
    stream = small_stream()
    for _ in range(2):
        for frame in stream.frames(5, 9):
            np.testing.assert_array_equal(frame.pixels, oracle[frame.index])
    assert stream.stats()["frames_rendered"] == 4


# ---------------------------------------------------------------------------
# bounded disk, and a disk that fills
# ---------------------------------------------------------------------------
def test_frames_past_the_cap_are_never_written(monkeypatch, oracle):
    monkeypatch.setattr(clipstore, "STORE_CAP_BYTES", 10 * FRAME_BYTES + 5)
    stream = small_stream()
    for _ in range(2):
        for t in range(N):
            np.testing.assert_array_equal(stream.pixels(t), oracle[t])
    stats = stream.stats()
    assert stats["stored_bytes"] == 10 * FRAME_BYTES
    assert stats["frames_rendered"] == N + (N - 10)  # the tail renders on both passes
    size = os.fstat(stream._clip._fd).st_size
    assert size == 10 * FRAME_BYTES <= clipstore.STORE_CAP_BYTES


def test_cap_below_one_frame_stores_nothing(monkeypatch, oracle):
    monkeypatch.setattr(clipstore, "STORE_CAP_BYTES", FRAME_BYTES - 1)
    fds = open_fds()
    stream = small_stream()
    np.testing.assert_array_equal(stream.pixels(0), oracle[0])
    assert stream.stats()["stored_bytes"] == 0 and open_fds() == fds


@pytest.mark.parametrize("failing", ["pwrite", "ftruncate", "TemporaryFile"])
def test_full_disk_keeps_serving_by_rendering(monkeypatch, oracle, failing):
    stream = small_stream()
    if failing == "pwrite":
        stream.pixels(0)  # one frame makes it to disk first
    calls = []

    def no_space(*args, **kwargs):
        calls.append(args)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile if failing == "TemporaryFile" else os, failing, no_space)
    with pytest.warns(RuntimeWarning, match="clip store stopped"):
        np.testing.assert_array_equal(stream.pixels(1), oracle[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one warning, not one per frame
        for _ in range(2):
            for t in range(N):
                np.testing.assert_array_equal(stream.pixels(t), oracle[t])
    assert len(calls) == 1  # storing stopped at the first failure
    stored = 1 if failing == "pwrite" else 0
    assert stream.stats()["stored_bytes"] == stored * FRAME_BYTES
    assert stream.stats()["frames_rendered"] == stored + 1 + 2 * (N - stored)


def test_short_write_is_not_marked_present(monkeypatch, oracle):
    stream = small_stream()
    monkeypatch.setattr(os, "pwrite", lambda fd, data, off: FRAME_BYTES // 2)
    with pytest.warns(RuntimeWarning):
        stream.pixels(2)
    assert stream.stats()["stored_bytes"] == 0
    np.testing.assert_array_equal(stream.pixels(2), oracle[2])


def test_short_read_of_a_stored_frame_raises():
    stream = small_stream()
    stream.pixels(4)
    os.ftruncate(stream._clip._fd, 4 * FRAME_BYTES + 8)  # the file lost the frame
    with pytest.raises(RuntimeError, match="stored frame 4"):
        stream.pixels(4)


# ---------------------------------------------------------------------------
# threads, fork, pickle, copy
# ---------------------------------------------------------------------------
def test_eight_threads_race_on_a_fresh_stream(oracle):
    stream = small_stream()
    start = threading.Barrier(8)
    bad: list = []

    def reader(k: int) -> None:
        order = np.random.default_rng(k).permutation(N)
        start.wait()
        for t in list(order) * 2:
            if not np.array_equal(stream.pixels(int(t)), oracle[t]):
                bad.append((k, t))

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not bad
    stats = stream.stats()
    assert stats["frames_read"] == 8 * 2 * N  # the counters lose no update
    assert stats["stored_bytes"] == N * FRAME_BYTES
    assert N <= stats["frames_rendered"] <= 8 * N  # a raced frame may render twice
    assert os.fstat(stream._clip._fd).st_size == N * FRAME_BYTES  # one file


def test_forked_child_reads_and_extends_the_store(oracle):
    stream = small_stream()
    for t in range(0, N, 2):
        stream.pixels(t)
    before = stream.stats()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child's verdict is its exit status
        ok = all(np.array_equal(stream.pixels(t), oracle[t]) for t in range(N))
        ok = ok and stream.stats()["frames_rendered"] == before["frames_rendered"] + N // 2
        os._exit(0 if ok else 1)
    assert os.waitpid(pid, 0)[1] == 0
    # The child's counters are its own, but the file and its flags are shared:
    # what the child stored, the parent reads back without rendering.
    after = stream.stats()
    assert after == {**before, "stored_bytes": N * FRAME_BYTES}
    for t in range(N):
        np.testing.assert_array_equal(stream.pixels(t), oracle[t])
    assert stream.stats()["frames_rendered"] == before["frames_rendered"]


def test_forked_child_reads_what_the_parent_stores_after_the_fork(oracle):
    # A pool worker's case: the parent reads (and stores) frame T only after
    # the child was forked; the child then reads T without rendering it.
    T = N - 3
    stream = small_stream()
    stream.pixels(0)  # the file and its flags exist before the fork
    ready_r, ready_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child's verdict is its exit status
        os.close(ready_w)
        os.read(ready_r, 1)  # the parent has stored frame T
        rendered = stream.stats()["frames_rendered"]
        ok = np.array_equal(stream.pixels(T), oracle[T])
        ok = ok and stream.stats()["frames_rendered"] == rendered
        os._exit(0 if ok else 1)
    os.close(ready_r)
    stream.pixels(T)
    os.write(ready_w, b"x")
    os.close(ready_w)
    assert os.waitpid(pid, 0)[1] == 0


def test_processes_forked_before_the_first_write_keep_their_own_store(oracle):
    # No file exists at the fork, so each side creates its own file and flags:
    # a flag set by one process can never point into the other's file.
    stream = small_stream()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child's verdict is its exit status
        ok = all(np.array_equal(stream.pixels(t), oracle[t]) for t in list(range(N)) * 2)
        st = stream.stats()
        ok = ok and st["frames_rendered"] == N and st["stored_bytes"] == N * FRAME_BYTES
        os._exit(0 if ok else 1)
    assert os.waitpid(pid, 0)[1] == 0  # the child stored every frame first
    assert stream.stats()["stored_bytes"] == 0 and stream._clip._fd < 0
    for _ in range(2):
        for t in range(N):
            np.testing.assert_array_equal(stream.pixels(t), oracle[t])
    st = stream.stats()
    assert st["frames_rendered"] == N and st["stored_bytes"] == N * FRAME_BYTES


@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
def test_copies_drop_the_store_and_refill(oracle, clone):
    stream = small_stream()
    for t in range(N):
        stream.pixels(t)
    twin = clone(stream)
    assert twin.stats()["stored_bytes"] == 0 and twin._clip._fd < 0
    assert twin._clip._render.__self__ is twin.renderer  # its own renderer
    for _ in range(2):
        for t in range(N):
            np.testing.assert_array_equal(twin.pixels(t), oracle[t])
    assert twin.stats()["frames_rendered"] == N
    assert stream.stats()["frames_read"] == N  # the original is untouched


def test_streams_leave_no_descriptor_and_no_file_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    fds = open_fds()
    for seed in range(200):
        stream = small_stream(seed, n=4)
        stream.pixels(seed % 4)
        assert os.listdir(tmp_path) == []  # anonymous from birth
        if seed == 0:
            assert open_fds() == fds + 1
        del stream
    assert open_fds() == fds
    untouched = [small_stream(seed, n=4) for seed in range(20)]
    assert open_fds() == fds  # the file is opened by the first write
    del untouched


# ---------------------------------------------------------------------------
# the engine over stored streams
# ---------------------------------------------------------------------------
def _trained(n_frames: int, n_streams: int, seed: int):
    from repro.models import ModelZoo
    from repro.nn import TrainConfig
    from repro.video import jackson, make_stream

    zoo = ModelZoo()
    streams = [
        make_stream(jackson(), n_frames, tor=0.2, seed=seed + i, stream_id=f"clip-{seed + i}")
        for i in range(n_streams)
    ]
    for s in streams:
        zoo.train_for_stream(
            s, n_train_frames=120, stride=2,
            train_config=TrainConfig(epochs=4, batch_size=32, seed=5),
        )
    return streams, zoo


def _run(streams, zoo, n_frames=None):
    from repro.runtime import ThreadedPipeline

    pipe = ThreadedPipeline(streams, zoo)
    metrics = pipe.run(n_frames)
    outcomes = sorted((o.stream_id, o.index, o.stage, o.ref_count) for o in pipe.outcomes)
    counters = {name: dataclasses.asdict(c) for name, c in metrics.stages.items()}
    return metrics, outcomes, counters


def test_second_engine_run_renders_nothing_and_decides_the_same():
    streams, zoo = _trained(240, 2, seed=70)
    m1, outcomes1, counters1 = _run(streams, zoo)
    m2, outcomes2, counters2 = _run(streams, zoo)
    assert outcomes1 == outcomes2 and len(outcomes1) == 480
    assert counters1 == counters2
    # Training read every other frame of each stream before the first run.
    assert m1.extra["source"] == {"frames_read": 480, "frames_rendered": 240}
    assert m2.extra["source"] == {"frames_read": 480, "frames_rendered": 0}


def test_engine_memory_does_not_grow_with_the_clip():
    # Section 5.2's bound for the engine, not for the store in isolation: a
    # run over three times the frames allocates (tracemalloc peak) within
    # 2 MB of the shorter run — per-frame outcomes, never per-frame pixels.
    streams, zoo = _trained(3000, 1, seed=80)
    _run(streams, zoo, 200)  # first-use buffers, imports
    peaks = {}
    for n in (1000, 3000):
        tracemalloc.start()
        metrics, outcomes, _ = _run(streams, zoo, n)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(outcomes) == metrics.extra["source"]["frames_read"] == n
    assert abs(peaks[3000] - peaks[1000]) < 2 * 2**20, peaks
    assert 3000 * 100 * 150 * 4 > 10 * 2 * 2**20  # the clip is far larger than that
