"""Memory bounded by the batch, not the clip.

Every bulk pass (onboarding's label pass, SDD distances, SNM inference, the
detectors, ``build_trace``) walks ``FRAME_CHUNK`` frames at a time and hands
its workspace back when it ends (DESIGN.md section 27):

* the traced peak of ``build_trace`` does not grow with the clip's length;
* ``train_for_stream`` and ``build_trace`` hand back every workspace they
  grew, so ``ModelZoo.workspace_bytes()`` reads 0 after each, and a
  many-chunk call grows no more than a one-chunk call does;
* the chunk covers the engine's fixed SDD and reference batches, so those
  stages' calls are never split.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import REF_BATCH, sdd_spec
from repro.core.trace import build_trace
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.video import jackson, make_stream
from repro.video.ops import FRAME_CHUNK


def test_chunk_covers_the_engine_fixed_batches():
    assert FRAME_CHUNK >= REF_BATCH
    assert FRAME_CHUNK >= sdd_spec().batch.size


@pytest.fixture(scope="module")
def onboarded():
    stream = make_stream(jackson(), 8 * FRAME_CHUNK, tor=0.5, seed=29, stream_id="mem")
    zoo = ModelZoo()
    zoo.train_for_stream(
        stream, n_train_frames=4 * FRAME_CHUNK, stride=1,
        train_config=TrainConfig(epochs=2, batch_size=32, seed=3),
    )
    return stream, zoo


def one_chunk_worth(stream, zoo) -> dict[str, int]:
    """``workspace_bytes()`` once every model has served one full chunk."""
    px = stream.pixel_batch(np.arange(FRAME_CHUNK))
    bundle = zoo[stream.stream_id]
    bundle.sdd.distances(px)
    bundle.snm.predict_proba(px)
    zoo.tyolo.count_batch(px, bundle.background)
    zoo.reference.count_batch(px, bundle.background)
    held = zoo.workspace_bytes()
    bundle.release()
    zoo.tyolo.detector.release()
    zoo.reference.detector.release()
    return held


def test_bulk_passes_hand_their_workspaces_back(onboarded):
    stream, zoo = onboarded
    after_training = zoo.workspace_bytes()
    chunk = one_chunk_worth(stream, zoo)
    assert set(after_training) == set(chunk) == {"tyolo", "reference", "stream/mem"}
    assert all(v > 0 for v in chunk.values())
    assert after_training == dict.fromkeys(chunk, 0)

    build_trace(stream, zoo, with_ref=True)
    assert zoo.workspace_bytes() == dict.fromkeys(chunk, 0)

    # A many-chunk call grows the workspaces no further than one chunk did.
    px = stream.pixel_batch(np.arange(len(stream)))
    bundle = zoo[stream.stream_id]
    bundle.sdd.distances(px)
    bundle.snm.predict_proba(px)
    zoo.tyolo.count_batch(px, bundle.background)
    zoo.reference.count_batch(px, bundle.background)
    assert zoo.workspace_bytes() == chunk
    bundle.release()
    assert zoo.workspace_bytes()["stream/mem"] == 0


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocated at its peak, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_build_trace_peak_does_not_grow_with_clip_length(onboarded):
    stream, zoo = onboarded
    half, full = len(stream) // 2, len(stream)
    # Renders and stores every frame and builds the resize plans first.
    build_trace(stream, zoo, with_ref=True)
    short = traced_peak(lambda: build_trace(stream, zoo, with_ref=True, n_frames=half))
    long = traced_peak(lambda: build_trace(stream, zoo, with_ref=True, n_frames=full))
    assert long < 1.10 * short, (short, long)
