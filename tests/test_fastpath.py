"""Inference fast path: planned resize and zero-alloc forward equivalence.

The fast path is default-on, so these tests pin its one invariant: outputs
must be **bit-identical** to the straightforward implementations.  The
reference resize below recomputes gather indices per call and blends the
four neighbours of every output pixel (the pre-plan implementation);
``frame_median``, ``block_reduce_mean`` and the batched blob count are
checked against the NumPy expression / per-frame loop each replaces;
``Sequential.predict`` is checked against training-mode ``forward`` with
dropout disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import build_trace
from repro.models import ModelZoo
from repro.models.griddet import GridDetector
from repro.models.sdd import SDD
from repro.models.snm import SNM, SNMConfig, build_snm_network
from repro.nn import (
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn import TrainConfig
from repro.nn.layers import im2col
from repro.obs import EventBus
from repro.video import jackson, make_stream
from repro.video.ops import (
    FRAME_CHUNK,
    ResizePlan,
    block_reduce_mean,
    frame_median,
    get_resize_plan,
    resize_bilinear,
)


def reference_resize(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinear resize recomputing indices/weights per call (pre-plan path)."""
    arr = np.asarray(img, dtype=np.float32)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    n, h, w = arr.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if (oh, ow) == (h, w):
        out = arr.copy()
        return out[0] if single else out
    ys = (np.arange(oh, dtype=np.float32) + 0.5) * (h / oh) - 0.5
    xs = (np.arange(ow, dtype=np.float32) + 0.5) * (w / ow) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)
    wx = (xs - x0).astype(np.float32)
    ia = arr[:, y0[:, None], x0[None, :]]
    ib = arr[:, y0[:, None], x1[None, :]]
    ic = arr[:, y1[:, None], x0[None, :]]
    id_ = arr[:, y1[:, None], x1[None, :]]
    wy_ = wy[None, :, None]
    wx_ = wx[None, None, :]
    top = ia * (1.0 - wx_) + ib * wx_
    bot = ic * (1.0 - wx_) + id_ * wx_
    out = top * (1.0 - wy_) + bot * wy_
    return out[0] if single else out


def reference_block_mean(arr: np.ndarray, factor: int) -> np.ndarray:
    """Block means as the plain 5-D reduction (what the fast path replaces)."""
    n, h, w = arr.shape
    hh, ww = h // factor, w // factor
    view = arr[:, : hh * factor, : ww * factor]
    return view.reshape(n, hh, factor, ww, factor).mean(axis=(2, 4))


def blob_counts(det: GridDetector, cells: np.ndarray) -> np.ndarray:
    labels, n_labels = det._label(cells)
    return det._blob_counts(cells, labels, n_labels)


class TestResizePlan:
    # Up-, down- and mixed-scale pairs, 1-pixel axes and the identity all
    # fall out of the ranges; n == 0 means a single (H, W) image.
    @settings(max_examples=120, deadline=None)
    @given(
        h=st.integers(1, 48),
        w=st.integers(1, 48),
        oh=st.integers(1, 56),
        ow=st.integers(1, 56),
        n=st.sampled_from([0, 1, 2, 16]),
        use_out=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_planned_equals_unplanned(self, h, w, oh, ow, n, use_out, seed):
        rng = np.random.default_rng(seed)
        shape = (h, w) if n == 0 else (n, h, w)
        img = rng.random(shape, dtype=np.float32)
        want = reference_resize(img, (oh, ow))
        if use_out:
            buf = np.full(want.shape, np.nan, dtype=np.float32)
            got = get_resize_plan((h, w), (oh, ow)).apply(img, out=buf)
            assert got is buf
        else:
            got = resize_bilinear(img, (oh, ow))
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_large_batches_are_walked_in_chunks(self):
        # More frames than one pass holds, into a non-contiguous ``out``:
        # same pixels, and the thread's scratch stays one chunk deep.
        rng = np.random.default_rng(11)
        n = 2 * FRAME_CHUNK + 3
        img = rng.random((n, 9, 14), dtype=np.float32)
        plan = ResizePlan((9, 14), (20, 11))
        wide = np.empty((n, 20, 22), dtype=np.float32)
        got = plan.apply(img, out=wide[:, :, ::2])
        assert np.array_equal(got, reference_resize(img, (20, 11)))
        assert np.array_equal(plan.apply(img), got)
        assert all(len(buf) == FRAME_CHUNK for buf in plan._scratch())

    def test_out_buffer_path(self):
        rng = np.random.default_rng(0)
        img = rng.random((3, 31, 17), dtype=np.float32)
        plan = get_resize_plan((31, 17), (12, 23))
        buf = np.empty((3, 12, 23), dtype=np.float32)
        got = plan.apply(img, out=buf)
        assert got is buf
        assert np.array_equal(got, reference_resize(img, (12, 23)))
        # A second apply overwrites the same buffer with new content.
        img2 = rng.random((3, 31, 17), dtype=np.float32)
        got2 = plan.apply(img2, out=buf)
        assert got2 is buf
        assert np.array_equal(got2, reference_resize(img2, (12, 23)))

    def test_plan_cached_per_shape_pair(self):
        assert get_resize_plan((30, 40), (10, 10)) is get_resize_plan((30, 40), (10, 10))
        assert get_resize_plan((30, 40), (10, 10)) is not get_resize_plan((30, 40), (11, 11))

    def test_identity_is_passthrough(self):
        img = np.random.default_rng(1).random((10, 12), dtype=np.float32)
        # Default: identity resize aliases the input (documented), no copy.
        assert resize_bilinear(img, (10, 12)) is img
        out = resize_bilinear(img, (10, 12), copy=True)
        assert out is not img
        assert np.array_equal(out, img)

    def test_plan_rejects_wrong_input_shape(self):
        plan = ResizePlan((10, 10), (5, 5))
        with pytest.raises(ValueError, match="plan built for"):
            plan.apply(np.zeros((11, 10), dtype=np.float32))

    def test_plan_rejects_bad_out_shape(self):
        plan = ResizePlan((10, 10), (5, 5))
        with pytest.raises(ValueError, match="out must have shape"):
            plan.apply(np.zeros((2, 10, 10), np.float32), out=np.zeros((2, 4, 5), np.float32))


class TestFrameMedian:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 4),
        h=st.integers(1, 9),  # odd and even pixel counts
        w=st.integers(1, 9),
        values=st.sampled_from(["uniform", "ties", "constant", "signed-zero"]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_np_median(self, n, h, w, values, seed):
        rng = np.random.default_rng(seed)
        if values == "uniform":
            batch = rng.random((n, h, w), dtype=np.float32) - np.float32(0.5)
        elif values == "ties":
            batch = rng.integers(-2, 3, (n, h, w)).astype(np.float32)
        elif values == "constant":
            batch = np.full((n, h, w), rng.random() - 0.5, dtype=np.float32)
        else:
            batch = rng.choice(np.array([0.0, -0.0, 1.0, -1.0], np.float32), (n, h, w))
        want = np.median(batch, axis=(1, 2))
        got = frame_median(batch)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_leaves_input_untouched(self):
        batch = np.random.default_rng(12).random((3, 8, 8), dtype=np.float32)
        before = batch.copy()
        frame_median(batch)
        assert np.array_equal(batch, before)

    def test_scratch_copy_gives_the_same_bits(self):
        batch = np.random.default_rng(13).random((3, 8, 9), dtype=np.float32)
        before = batch.copy()
        scratch = np.empty_like(batch)
        got = frame_median(batch, scratch)
        assert np.array_equal(got.view(np.uint32), frame_median(batch).view(np.uint32))
        assert np.array_equal(batch, before)


class TestBlockReduceMean:
    @settings(max_examples=150, deadline=None)
    @given(
        factor=st.integers(1, 9),
        n=st.integers(0, 3),  # 0 means single image
        blocks_h=st.integers(1, 5),
        blocks_w=st.integers(1, 5),
        extra_h=st.integers(0, 3),  # trailing remainder, dropped
        extra_w=st.integers(0, 3),
        layout=st.sampled_from(["contiguous", "strided", "transposed"]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_reshape_mean(
        self, factor, n, blocks_h, blocks_w, extra_h, extra_w, layout, seed
    ):
        rng = np.random.default_rng(seed)
        h = blocks_h * factor + min(extra_h, factor - 1)
        w = blocks_w * factor + min(extra_w, factor - 1)
        scale = np.float32(10.0 ** int(rng.integers(-3, 4)))
        if layout == "transposed":
            arr = rng.random((max(n, 1), w, h), dtype=np.float32).transpose(0, 2, 1)
        elif layout == "strided":
            arr = rng.random((max(n, 1), h, 2 * w), dtype=np.float32)[:, :, ::2]
        else:
            arr = rng.random((max(n, 1), h, w), dtype=np.float32)
        arr = (arr - np.float32(0.3)) * scale if layout == "contiguous" else arr
        want = reference_block_mean(arr, factor)
        got = block_reduce_mean(arr[0] if n == 0 else arr, factor)
        assert np.array_equal(got, want[0] if n == 0 else want)

    @pytest.mark.parametrize("res,factor", [(208, 4), (104, 8)])
    def test_detector_geometries(self, res, factor):
        resp = np.random.default_rng(13).random((5, res, res), dtype=np.float32)
        assert np.array_equal(
            block_reduce_mean(resp, factor), reference_block_mean(resp, factor)
        )


class TestBatchedBlobCount:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 5),
        gh=st.integers(1, 8),
        gw=st.integers(1, 8),
        level=st.sampled_from([0.1, 0.3, 0.6]),  # all-inactive ... dense
        activation=st.sampled_from([0.15, 0.25, -0.1]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_per_frame_cell_blobs(self, n, gh, gw, level, activation, seed):
        # Dense random maps put blobs on every border, including the last
        # row (next to the separator) and the last column.
        cells = np.random.default_rng(seed).random((n, gh, gw), dtype=np.float32)
        cells *= np.float32(level)
        det = GridDetector(cell_activation=activation)
        want = [len(det.cell_blobs(c)) for c in cells]
        got = blob_counts(det, cells)
        assert got.dtype == np.int64
        assert got.tolist() == want

    def test_blob_on_last_row_stays_in_its_frame(self):
        det = GridDetector()
        cells = np.zeros((3, 4, 4), dtype=np.float32)
        cells[0, 3, :] = 0.5  # bottom row of frame 0 ...
        cells[1, 0, :] = 0.5  # ... directly above the top row of frame 1
        cells[2, :, 3] = 0.18  # active (> 0.15) but never confident (< 0.2)
        assert blob_counts(det, cells).tolist() == [1, 1, 0]

    def test_counts_through_the_detector(self):
        rng = np.random.default_rng(14)
        det = GridDetector()
        bg = np.full((60, 90), 0.45, dtype=np.float32)
        frames = np.repeat(bg[None], 6, axis=0)
        frames[1, 10:30, 10:30] += 0.4
        frames[2, 50:, 70:] += 0.4  # touches the last row and column
        frames[4, 5:20, 5:20] += 0.4
        frames[4, 35:55, 60:85] -= 0.3
        frames += rng.normal(0, 0.005, frames.shape).astype(np.float32)
        per_frame = [len(det.detect(f, bg)) for f in frames]
        assert per_frame == [0, 1, 1, 0, 2, 0]
        assert det.count_batch(frames, bg).tolist() == per_frame
        assert [det.count(f, bg) for f in frames] == per_frame
        counts, regions = det.count_and_regions(frames, bg)
        assert counts.tolist() == per_frame
        want_regions = det.propose_regions(det.response_cells(frames, bg))
        assert all(np.array_equal(a, b) for a, b in zip(regions, want_regions, strict=True))
        # kind set: the per-detection path, which knows box geometry.
        for kind in ("car", "person"):
            want = [sum(d.kind == kind for d in det.detect(f, bg)) for f in frames]
            assert det.count_batch(frames, bg, kind).tolist() == want
        # no frames, and nothing active anywhere
        assert det.count_batch(frames[:0], bg).shape == (0,)
        assert det.count_batch(np.repeat(bg[None], 3, axis=0), bg).tolist() == [0, 0, 0]

    def test_label_pass_chunks_leave_counts_unchanged(self):
        # A training-sized call: same labels as frame-by-frame, and the
        # detector's working buffers stay one chunk deep.
        det = GridDetector(grid=13, resolution=52)
        rng = np.random.default_rng(15)
        bg = np.full((40, 60), 0.45, dtype=np.float32)
        frames = np.repeat(bg[None], 2 * FRAME_CHUNK + 7, axis=0)
        for i in rng.choice(len(frames), len(frames) // 3, replace=False):
            y, x = rng.integers(0, 25), rng.integers(0, 45)
            frames[i, y : y + 12, x : x + 12] += 0.4
        want = [det.count(f, bg) for f in frames]
        assert 0 < sum(want) < len(frames)
        assert det.count_batch(frames, bg).tolist() == want
        assert det._work.shape[1] <= FRAME_CHUNK


def _two_scene_frames(n: int, hw=(40, 60), seed: int = 16):
    """Backgrounds A and B and ``n`` frames interleaved A,B,A,B,A...: each
    frame its scene's background, lit differently, a third with a blob."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.3, 0.6, hw).astype(np.float32)
    b = rng.uniform(0.2, 0.7, hw).astype(np.float32)
    backgrounds = [(a, b)[i % 2] for i in range(n)]
    frames = np.stack([bg * np.float32(rng.uniform(0.8, 1.2)) for bg in backgrounds])
    for i in range(0, n, 3):
        y, x = rng.integers(0, hw[0] - 12), rng.integers(0, hw[1] - 12)
        frames[i, y : y + 12, x : x + 12] += 0.4
    return frames, backgrounds


class TestPerFrameBackgrounds:
    """A detector call over frames of several streams, one background per
    frame, returns the bits of one call per frame."""

    # 135: eight full chunks and a remainder, a batch the size of a paced window
    @pytest.mark.parametrize("n", [1, 2, 16, 2 * FRAME_CHUNK + 7, 135])
    @pytest.mark.parametrize("resolution", [52, 40])  # 40: the identity plan
    def test_interleaved_streams_match_single_frame_calls(self, n, resolution):
        det = GridDetector(grid=13 if resolution == 52 else 10, resolution=resolution)
        frames, backgrounds = _two_scene_frames(n, hw=(40, 40) if resolution == 40 else (40, 60))
        before = frames.copy()
        cells = det.response_cells(frames, backgrounds)
        want = np.stack([det.response_cells(f, bg) for f, bg in zip(frames, backgrounds)])
        assert np.array_equal(cells.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(frames, before)  # the identity plan reads the input in place
        counts = det.count_batch(frames, backgrounds)
        assert counts.tolist() == [det.count(f, bg) for f, bg in zip(frames, backgrounds)]
        assert 0 < counts.sum()
        for kind in ("car", "person"):
            want_kind = [det.count(f, bg, kind) for f, bg in zip(frames, backgrounds)]
            assert det.count_batch(frames, backgrounds, kind).tolist() == want_kind

    def test_one_background_and_a_repeated_list_agree(self):
        det = GridDetector(grid=13, resolution=52)
        frames, backgrounds = _two_scene_frames(9)
        one = det.response_cells(frames, backgrounds[0])
        listed = det.response_cells(frames, [backgrounds[0]] * len(frames))
        assert np.array_equal(one.view(np.uint32), listed.view(np.uint32))
        with pytest.raises(ValueError, match="backgrounds for"):
            det.count_batch(frames, backgrounds[:-1])

    @pytest.mark.parametrize("model", ["tyolo", "reference"])
    def test_a_call_allocates_less_than_its_resized_batch(self, model):
        import tracemalloc

        from repro.models.reference import ReferenceModel
        from repro.models.tyolo import TYolo

        det = (TYolo() if model == "tyolo" else ReferenceModel()).detector
        frames, backgrounds = _two_scene_frames(16, hw=(100, 150))
        det.count_batch(frames, backgrounds)  # warm-up: workspace, plan scratch, backgrounds
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            det.count_batch(frames, backgrounds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        resized_bytes = 16 * det.resolution**2 * 4
        assert peak < 0.75 * resized_bytes, (peak, resized_bytes)


class TestIm2ColOut:
    def test_out_matches_allocating_path(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        want, oh, ow = im2col(x, 3, 3, 2, 1)
        buf = np.empty_like(want)
        got, oh2, ow2 = im2col(x, 3, 3, 2, 1, out=buf)
        assert (oh, ow) == (oh2, ow2)
        assert got is buf
        assert np.array_equal(got, want)

    def test_allocating_path_is_contiguous(self):
        x = np.random.default_rng(3).normal(size=(1, 1, 6, 6)).astype(np.float32)
        cols, _, _ = im2col(x, 2, 2, 1, 0)
        assert cols.flags.c_contiguous

    def test_out_shape_checked(self):
        x = np.zeros((1, 1, 6, 6), dtype=np.float32)
        with pytest.raises(ValueError, match="out must have shape"):
            im2col(x, 2, 2, 1, 0, out=np.zeros((3, 3), np.float32))


def eval_forward(net: Sequential, x: np.ndarray) -> np.ndarray:
    """Training-machinery forward in inference mode (the slow path)."""
    net.set_training(False)
    out = net.forward(x)
    net.set_training(True)
    return out


class TestPredictEquivalence:
    def test_snm_network_bit_identical(self):
        net = build_snm_network(SNMConfig())
        rng = np.random.default_rng(4)
        for n in (1, 5, 32, 5):  # repeat a size: scratch buffers are reused
            x = rng.normal(size=(n, 1, 50, 50)).astype(np.float32)
            assert np.array_equal(net.predict(x), eval_forward(net, x))

    def test_trained_snm_predict_proba_unchanged(self):
        # The adopted call site: predict_proba must agree with the slow path.
        cfg = SNMConfig(input_size=30)
        snm = SNM(build_snm_network(cfg), cfg)
        rng = np.random.default_rng(5)
        snm.set_background(rng.random((60, 80), dtype=np.float32))
        frames = rng.random((12, 60, 80), dtype=np.float32)
        fast = snm.predict_proba(frames)
        x = snm.preprocess(frames)
        from repro.nn import softmax

        logits = eval_forward(snm.network, x) / max(cfg.temperature, 1e-6)
        assert np.array_equal(fast, softmax(logits)[:, 1].astype(np.float32))

    def test_batchnorm_dropout_net_bit_identical(self):
        rng = np.random.default_rng(6)
        net = Sequential(
            [
                Conv2D(1, 4, 3, rng=rng),
                BatchNorm2D(4),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dropout(0.4, rng=rng),
                Dense(4 * 9 * 9, 3, rng=rng),
            ]
        )
        x = rng.normal(size=(6, 1, 20, 20)).astype(np.float32)
        net.forward(x)  # populate batchnorm running stats in training mode
        assert np.array_equal(net.predict(x), eval_forward(net, x))

    def test_predict_restores_training_flags(self):
        net = build_snm_network(SNMConfig(input_size=30))
        net.set_training(True)
        net.predict(np.zeros((2, 1, 30, 30), dtype=np.float32))
        assert all(layer.training for layer in net.layers)
        net.layers[0].training = False  # mixed flags survive too
        net.predict(np.zeros((2, 1, 30, 30), dtype=np.float32))
        assert not net.layers[0].training
        assert all(layer.training for layer in net.layers[1:])

    def test_predict_copy_semantics(self):
        net = Sequential([Dense(4, 2, rng=np.random.default_rng(7))])
        x = np.ones((3, 4), dtype=np.float32)
        owned = net.predict(x)
        raw = net.predict(x, copy=False)
        assert np.array_equal(owned, raw)
        # copy=False hands back the scratch buffer: the next call reuses it.
        raw2 = net.predict(np.full((3, 4), 2.0, dtype=np.float32), copy=False)
        assert raw2 is raw
        # The default copy is insulated from that reuse.
        assert not np.array_equal(owned, raw2)
        assert np.array_equal(owned, net.predict(x))

    def test_training_still_works_after_predict(self):
        # predict must not poison backward: caches are written by forward.
        net = Sequential([Dense(4, 2, rng=np.random.default_rng(8))])
        x = np.ones((3, 4), dtype=np.float32)
        net.predict(x)
        out = net.forward(x)
        net.backward(np.ones_like(out))
        assert float(np.abs(net.layers[0].grads["W"]).sum()) > 0


@pytest.fixture(scope="module")
def trained():
    """A short trained stream: (stream, zoo, bundle, all its pixels)."""
    stream = make_stream(jackson(), 160, tor=0.5, seed=43)
    zoo = ModelZoo()
    bundle = zoo.train_for_stream(
        stream,
        n_train_frames=80,
        stride=2,
        train_config=TrainConfig(epochs=2, batch_size=32, seed=7),
    )
    return stream, zoo, bundle, stream.pixel_batch(np.arange(len(stream)))


def model_outputs(trained) -> dict[str, np.ndarray]:
    """Everything the cascade reads off the kernels, for one trained stream."""
    stream, zoo, bundle, px = trained
    bg = bundle.background
    out = {
        "sdd": bundle.sdd.distances(px),
        "snm": bundle.snm.predict_proba(px),
    }
    for name, model in (("tyolo", zoo.tyolo), ("ref", zoo.reference)):
        out[f"{name}.cells"] = model.detector.response_cells(px, bg)
        for b in (1, 2, 16):
            out[f"{name}.counts.b{b}"] = np.concatenate(
                [model.count_batch(px[i : i + b], bg) for i in range(0, 48, b)]
            )
    trace = build_trace(stream, zoo, with_ref=True)
    for field in ("sdd_dist", "snm_prob", "tyolo_count", "ref_count", "mosaic_regions"):
        out[f"trace.{field}"] = getattr(trace, field)
    return out


class TestModelLevelEquality:
    def test_models_match_reference_kernels(self, trained, monkeypatch):
        fast = model_outputs(trained)
        assert fast["ref.counts.b1"].any() and fast["trace.tyolo_count"].any()

        stream, zoo, bundle, _ = trained
        used = set()

        def plain_apply(self, img, out=None):
            used.add("resize")
            res = reference_resize(img, self.out_hw)
            if out is None:
                return res
            np.copyto(out, res)
            return out

        def plain_median(batch, scratch=None):
            used.add("median")
            return np.median(batch, axis=(1, 2))

        def plain_block_mean(img, factor):
            used.add("block_mean")
            return reference_block_mean(np.asarray(img, dtype=np.float32), factor)

        def plain_blob_counts(self, cells, labels, n_labels):
            used.add("blob_counts")
            return [len(self.cell_blobs(c)) for c in cells]

        monkeypatch.setattr(ResizePlan, "apply", plain_apply)
        monkeypatch.setattr("repro.models.griddet.frame_median", plain_median)
        monkeypatch.setattr("repro.models.snm.frame_median", plain_median)
        monkeypatch.setattr("repro.models.griddet.block_reduce_mean", plain_block_mean)
        monkeypatch.setattr(GridDetector, "_blob_counts", plain_blob_counts)
        for model in (zoo.tyolo, zoo.reference):
            model.detector._bg_cache.clear()  # resize the background plainly too
        plain = model_outputs(trained)
        assert used == {"resize", "median", "block_mean", "blob_counts"}
        assert fast.keys() == plain.keys()
        for key, want in plain.items():
            assert np.array_equal(fast[key], want), key


class TestDetectorFastPath:
    # NB: the plan's *resize output* is bit-identical to the reference (see
    # TestResizePlan), but NumPy's pairwise-SIMD mean/median over the reused
    # scratch buffer can differ from the same values in a fresh allocation by
    # ~1 ULP (reduction grouping is buffer-alignment sensitive).  Reductions
    # downstream of the buffer therefore get a ~1e-5 relative tolerance.

    def test_sdd_distances_match_reference_pipeline(self):
        rng = np.random.default_rng(9)
        ref = rng.random((80, 120), dtype=np.float32)
        sdd = SDD(ref, threshold=0.01)
        frames = rng.random((7, 80, 120), dtype=np.float32)
        resized = reference_resize(frames, (100, 100))
        want = np.mean((resized - sdd.reference) ** 2, axis=(1, 2))
        got = sdd.distances(frames)
        np.testing.assert_allclose(got, want, rtol=1e-5)
        # Steady state reuses the per-instance buffer: exact same results.
        assert np.array_equal(sdd.distances(frames), got)

    def test_griddet_cells_match_reference_resize(self):
        rng = np.random.default_rng(10)
        det = GridDetector(grid=13, resolution=104)
        bg = rng.random((90, 160), dtype=np.float32)
        frames = rng.random((4, 90, 160), dtype=np.float32)
        got = det.response_cells(frames, bg)
        from repro.video.ops import block_reduce_mean

        resized = reference_resize(frames, (104, 104))
        bg_small = reference_resize(bg, (104, 104))
        bg_med = float(np.median(bg_small)) or 1.0
        gain = (np.median(resized, axis=(1, 2)) / bg_med)[:, None, None].astype(np.float32)
        want = block_reduce_mean(np.abs(resized - bg_small[None] * gain), 8) / 0.25
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        assert np.array_equal(det.response_cells(frames, bg), got)


class TestEventKindGating:
    def test_bus_filters_unwanted_kinds(self):
        bus = EventBus(16, kinds=("batch_exec",))
        assert bus.wants("batch_exec")
        assert not bus.wants("frame_pass")
        bus.emit("frame_pass", 0.0, "snm", stream=0, frame=1)
        bus.emit("batch_exec", 0.0, "snm", n=4)
        assert bus.published == 1
        assert [e.kind for e in bus.events()] == ["batch_exec"]

    def test_unknown_kind_still_rejected(self):
        bus = EventBus(16, kinds=("batch_exec",))
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.emit("nonsense", 0.0, "snm")
        with pytest.raises(ValueError, match="unknown event kinds"):
            EventBus(16, kinds=("bogus",))
