"""Tests for the stream's stored clip and the diurnal day workload."""

import tracemalloc

import numpy as np
import pytest

from repro.analytics import sliding_tor
from repro.video import VideoStream, day_stream, make_day_script
from repro.video.diurnal import DEFAULT_PROFILE


@pytest.fixture(scope="module")
def stream():
    return VideoStream.synthetic(800, 0.3, seed=121)


class TestClipStore:
    """The stream's stored clip (``video/clipstore.py``) at its public seam;
    ``tests/test_video_store.py`` holds the differential and fault tests."""

    def test_pixels_match_direct_rendering(self, stream):
        for t in (0, 31, 32, 500, 799, 31, 0):
            np.testing.assert_array_equal(stream.pixels(t), stream.renderer.render_pixels(t))

    def test_batch_matches(self, stream):
        ts = np.array([5, 100, 600, 100])
        want = np.stack([stream.renderer.render_pixels(int(t)) for t in ts])
        np.testing.assert_array_equal(stream.pixel_batch(ts), want)

    def test_memory_budget_respected(self):
        # The whole clip scanned twice (render + store, then read back) holds
        # one chunk buffer, not the clip.
        clip = VideoStream.synthetic(800, 0.3, seed=122)
        h, w = clip.shape
        chunk_bytes = 32 * h * w * 4
        tracemalloc.start()
        for _ in range(2):
            assert sum(len(chunk) for _, chunk in clip.iter_chunks(32)) == 800
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        st = clip.stats()
        assert st["stored_bytes"] == 800 * h * w * 4  # the clip would not fit in that
        assert peak < chunk_bytes + 2**20 < st["stored_bytes"] / 4
        assert st["resident_bytes"] <= 800

    def test_sequential_scan_uses_each_chunk_once(self):
        clip = VideoStream.synthetic(200, 0.3, seed=123)
        starts, seen, buffers = [], 0, set()
        for start, chunk in clip.iter_chunks(64):
            starts.append(start)
            seen += len(chunk)
            buffers.add(chunk.__array_interface__["data"][0])
            np.testing.assert_array_equal(chunk[-1], clip.renderer.render_pixels(start + len(chunk) - 1))
        assert starts == [0, 64, 128, 192] and seen == 200
        assert len(buffers) == 1  # one reused buffer
        assert clip.stats()["frames_read"] == clip.stats()["frames_rendered"] == 200

    def test_reread_is_served_from_the_store(self):
        clip = VideoStream.synthetic(64, 0.3, seed=124)
        for _ in range(2):
            for t in (10, 11, 12):
                clip.pixels(t)
        st = clip.stats()
        assert (st["frames_read"], st["frames_rendered"]) == (6, 3)
        assert st["stored_bytes"] == 3 * clip.shape[0] * clip.shape[1] * 4

    def test_rejects_bad_chunk(self, stream):
        with pytest.raises(ValueError):
            next(stream.iter_chunks(0))

    def test_out_of_range(self, stream):
        for t in (800, -1):
            with pytest.raises(IndexError):
                stream.pixels(t)


class TestDiurnalWorkload:
    @pytest.fixture(scope="class")
    def day(self):
        return day_stream(frames_per_hour=200, seed=7)

    def test_day_length(self, day):
        assert len(day) == 24 * 200

    def test_average_tor_near_base(self, day):
        assert abs(day.tor() - 0.08) < 0.04

    def test_night_quieter_than_rush_hour(self, day):
        counts = day.gt_counts()
        night = (counts[2 * 200 : 4 * 200] > 0).mean()
        rush = (counts[8 * 200 : 9 * 200] > 0).mean()
        assert rush > night + 0.1

    def test_sliding_tor_shows_fluctuation(self, day):
        tor_series = sliding_tor(day.gt_counts(), window=200)
        assert tor_series.max() > 3 * max(tor_series.min(), 0.01)

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError):
            make_day_script(profile=np.ones(10))

    def test_rejects_tiny_hours(self):
        with pytest.raises(ValueError):
            make_day_script(frames_per_hour=10)

    def test_profile_shape(self):
        assert len(DEFAULT_PROFILE) == 24
        # Rush hours dominate the small hours.
        assert DEFAULT_PROFILE[8] > 10 * DEFAULT_PROFILE[3]

    def test_deterministic(self):
        a = make_day_script(frames_per_hour=100, seed=3)
        b = make_day_script(frames_per_hour=100, seed=3)
        assert a.tracks == b.tracks
