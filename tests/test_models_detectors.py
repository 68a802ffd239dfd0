"""Tests for the grid detector backbone, T-YOLO, and the reference model."""

import numpy as np
import pytest

from repro.models import ReferenceModel, TYolo, classify_kind
from repro.models import griddet
from repro.models.griddet import GridDetector
from repro.models.tyolo import count_filter_mask
from repro.video import coral, jackson, make_stream
from repro.video.ops import resize_bilinear


@pytest.fixture(scope="module")
def jackson_stream():
    return make_stream(jackson(), 1200, tor=0.3, seed=31)


@pytest.fixture(scope="module")
def coral_dense_stream():
    return make_stream(coral(), 1200, tor=1.0, seed=32)


def synthetic_frame_with_blob(h=80, w=120, n_blobs=1, blob_delta=0.4):
    """Flat background plus well-separated square blobs."""
    bg = np.full((h, w), 0.45, dtype=np.float32)
    frame = bg.copy()
    for i in range(n_blobs):
        cx = int((i + 1) * w / (n_blobs + 1))
        frame[h // 2 - 8 : h // 2 + 8, cx - 8 : cx + 8] += blob_delta
    return frame, bg


class TestGridDetector:
    def test_rejects_incompatible_resolution(self):
        with pytest.raises(ValueError):
            GridDetector(grid=13, resolution=100)

    def test_rejects_bad_conf_threshold(self):
        with pytest.raises(ValueError):
            GridDetector(conf_threshold=0.0)

    def test_empty_scene_no_detections(self):
        frame, bg = synthetic_frame_with_blob(n_blobs=0)
        det = GridDetector()
        assert det.detect(frame, bg) == []

    def test_single_blob_detected(self):
        frame, bg = synthetic_frame_with_blob(n_blobs=1)
        det = GridDetector()
        dets = det.detect(frame, bg)
        assert len(dets) == 1
        assert dets[0].confidence > 0.2

    def test_detection_location(self):
        frame, bg = synthetic_frame_with_blob(n_blobs=1)
        det = GridDetector()
        d = det.detect(frame, bg)[0]
        cx, cy = d.center
        assert abs(cx - 60) < 20
        assert abs(cy - 40) < 20

    def test_separated_blobs_counted(self):
        # Blobs several grid cells apart resolve individually even at 13x13.
        frame, bg = synthetic_frame_with_blob(w=360, n_blobs=3)
        det = GridDetector()
        assert det.count(frame, bg) == 3

    def test_adjacent_blobs_merge_at_coarse_grid(self):
        # Blobs within ~a cell of each other merge into one detection at
        # 13x13 but resolve at the reference model's finer grid — the
        # structural source of the paper's dense-object undercounting.
        frame, bg = synthetic_frame_with_blob(w=120, n_blobs=3)
        coarse = GridDetector(grid=13, resolution=104)
        fine = GridDetector(grid=52, resolution=208, cell_activation=0.12, conf_threshold=0.15)
        assert coarse.count(frame, bg) < fine.count(frame, bg)

    def test_lighting_invariance(self):
        frame, bg = synthetic_frame_with_blob(n_blobs=1)
        det = GridDetector()
        brighter = np.clip(frame * 1.1, 0, 1)
        assert det.count(brighter, bg) == 1
        # And no false detection on a uniformly brightened empty scene.
        assert det.count(np.clip(bg * 1.1, 0, 1), bg) == 0

    def test_count_batch_matches_single(self):
        f1, bg = synthetic_frame_with_blob(n_blobs=1)
        f2, _ = synthetic_frame_with_blob(n_blobs=2)
        det = GridDetector()
        batch = np.stack([f1, f2, bg])
        np.testing.assert_array_equal(det.count_batch(batch, bg), [1, 2, 0])

    def test_detect_batch_matches_single(self, jackson_stream):
        bg = jackson_stream.reference_image()
        px = jackson_stream.pixel_batch([100, 200, 300])
        det = GridDetector()
        joint = det.detect_batch(px, bg)
        for i, t in enumerate([100, 200, 300]):
            single = det.detect(jackson_stream.pixels(t), bg)
            assert len(joint[i]) == len(single)

    def test_dark_object_detected(self):
        bg = np.full((80, 120), 0.6, dtype=np.float32)
        frame = bg.copy()
        frame[30:50, 50:70] -= 0.4
        assert GridDetector().count(frame, bg) == 1

    def test_background_cache_survives_address_reuse(self):
        # Regression: the resized-background cache used to key on
        # id(background).  After the cached array was garbage collected, a
        # new background allocated at the same address hit the stale entry
        # and the detector compared frames against the wrong scene.  The
        # fix holds a reference and checks identity, so a fresh array —
        # even one reusing the freed address — must be re-resized.
        det = GridDetector()
        frame, bg = synthetic_frame_with_blob(w=360, n_blobs=2)
        for _ in range(50):  # court address reuse across same-shape allocs
            bg_dark = np.zeros_like(bg)
            # Against black everything differs: one whole-frame blob.
            assert det.count(frame, bg_dark) == 1
            del bg_dark
            # A stale dark-background resize would report 1 here, not 2.
            assert det.count(frame, bg.copy()) == 2

    def test_background_cache_hit_returns_same_resize(self):
        det = GridDetector()
        bg = np.full((80, 120), 0.45, dtype=np.float32)
        assert det._resized_background(bg) is det._resized_background(bg)

    def test_alternating_streams_resize_each_background_once(self, monkeypatch):
        # Regression: the cache used to hold one entry, so two streams
        # taking turns on a shared detector (every T-YOLO round-robin turn,
        # most reference calls) re-resized a background on every call.
        resizes = []

        def counting_resize(img, out_hw, **kw):
            resizes.append(out_hw)
            return resize_bilinear(img, out_hw, **kw)

        monkeypatch.setattr(griddet, "resize_bilinear", counting_resize)
        det = GridDetector()
        frame, bg_a = synthetic_frame_with_blob(n_blobs=2)
        bg_b = np.zeros_like(bg_a)
        for _ in range(25):
            assert det.count(frame, bg_a) == 2
            assert det.count(frame, bg_b) == 1
        assert resizes == [(det.resolution, det.resolution)] * 2

    def test_background_cache_is_bounded(self):
        det = GridDetector()
        frame, bg = synthetic_frame_with_blob(n_blobs=1)
        backgrounds = [bg.copy() for _ in range(griddet._BG_CACHE_SIZE + 5)]
        for b in backgrounds:
            assert det.count(frame, b) == 1
        assert len(det._bg_cache) == griddet._BG_CACHE_SIZE
        # The oldest entries went; an evicted background is simply redone.
        assert id(backgrounds[0]) not in det._bg_cache
        assert id(backgrounds[-1]) in det._bg_cache
        assert det.count(frame, backgrounds[0]) == 1


class TestClassifyKind:
    def test_wide_box_is_car(self):
        assert classify_kind(30, 15) == "car"

    def test_tall_box_is_person(self):
        assert classify_kind(10, 25) == "person"

    def test_degenerate_height(self):
        assert classify_kind(10, 0) == "car"


class TestCountFilterMask:
    def test_basic(self):
        counts = np.array([0, 1, 2, 3])
        np.testing.assert_array_equal(
            count_filter_mask(counts, 2), [False, False, True, True]
        )

    def test_relax_lowers_bar(self):
        counts = np.array([0, 1, 2, 3])
        np.testing.assert_array_equal(
            count_filter_mask(counts, 2, relax=1), [False, True, True, True]
        )

    def test_relax_never_below_one(self):
        counts = np.array([0, 1])
        np.testing.assert_array_equal(
            count_filter_mask(counts, 1, relax=5), [False, True]
        )

    def test_monotone_in_number_of_objects(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 6, size=100)
        prev = count_filter_mask(counts, 1).sum()
        for n in range(2, 7):
            cur = count_filter_mask(counts, n).sum()
            assert cur <= prev
            prev = cur

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            count_filter_mask(np.array([1]), 0)
        with pytest.raises(ValueError):
            count_filter_mask(np.array([1]), 1, relax=-1)


class TestFidelityRelationship:
    """The structural T-YOLO vs reference-model relationship from Section 5.3.3."""

    def test_presence_accuracy_high_on_sparse_cars(self, jackson_stream):
        bg = jackson_stream.reference_image()
        ts = np.arange(0, 1200, 7)
        px = jackson_stream.pixel_batch(ts)
        gt = jackson_stream.gt_counts()[ts]
        ty = TYolo().count_batch(px, bg)
        acc = ((ty > 0) == (gt > 0)).mean()
        assert acc > 0.9

    def test_tyolo_undercounts_dense_persons_vs_reference(self, coral_dense_stream):
        bg = coral_dense_stream.reference_image()
        ts = np.arange(0, 1200, 7)
        px = coral_dense_stream.pixel_batch(ts)
        ty = TYolo().count_batch(px, bg)
        ref = ReferenceModel().count_batch(px, bg)
        # T-YOLO merges grouped small objects: it should undercount relative
        # to the reference model on a meaningful share of dense frames, and
        # almost never overcount it.
        assert (ty < ref).mean() > 0.15
        assert (ty > ref).mean() < 0.05

    def test_reference_labels_binary(self, jackson_stream):
        bg = jackson_stream.reference_image()
        px = jackson_stream.pixel_batch([0, 50, 100])
        labels = ReferenceModel().label_frames(px, bg)
        assert set(np.unique(labels)).issubset({0, 1})

    def test_tyolo_passes_number_of_objects(self, jackson_stream):
        bg = jackson_stream.reference_image()
        ts = np.arange(0, 1200, 11)
        px = jackson_stream.pixel_batch(ts)
        ty = TYolo()
        out1 = ty.passes(px, bg, number_of_objects=1).sum()
        out2 = ty.passes(px, bg, number_of_objects=2).sum()
        out3 = ty.passes(px, bg, number_of_objects=3).sum()
        assert out1 >= out2 >= out3
        assert out1 > 0
