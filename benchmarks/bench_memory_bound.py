"""Section 5.2 memory claim — long videos analyzed in bounded RAM.

"For a 55 GB video file, the entire system uses less than 8 GB CPU memory,
which implies greatly increased support capacity for long-time
high-definition video files."  The ratio behind the claim is ~7:1
video-to-resident-memory.  We scan a (scaled) long clip through
:meth:`~repro.video.VideoStream.iter_chunks` — twice, so the second pass is
read back from the stored clip — and assert the same property on what the
process actually allocated (``tracemalloc`` peak): the scan holds one chunk
buffer, an order of magnitude below the decoded video size, while every
frame is visited exactly once per pass.
"""

import tracemalloc

from repro.video import VideoStream
from repro.video.clipstore import STORE_CAP_BYTES

from common import print_table, record

CHUNK = 64


def test_memory_bounded_scan(benchmark):
    stream = VideoStream.synthetic(12_000, 0.1, seed=5)
    h, w = stream.shape
    video_bytes = len(stream) * h * w * 4

    def one_pass():
        sizes = [len(chunk) for _start, chunk in stream.iter_chunks(CHUNK)]
        return sum(sizes), len(sizes)

    def scan():
        tracemalloc.start()
        (f1, c1), (f2, c2) = one_pass(), one_pass()
        frames, chunks = f1 + f2, c1 + c2
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, frames, chunks

    peak, frames, chunks = benchmark.pedantic(scan, rounds=1, iterations=1)
    stats = stream.stats()
    ratio = video_bytes / peak
    print_table(
        "Memory-bounded offline scan (paper: 55 GB file in < 8 GB RAM, ~7:1)",
        ["quantity", "value"],
        [
            ["decoded video size", f"{video_bytes/2**20:.0f} MB"],
            ["peak allocated while scanning", f"{peak/2**20:.1f} MB"],
            ["video : memory ratio", f"{ratio:.0f}:1"],
            ["frames scanned (two passes)", frames],
            ["frames rendered", stats["frames_rendered"]],
            ["stored on disk (capped)", f"{stats['stored_bytes']/2**20:.0f} MB"],
        ],
    )
    record(
        "memory_bound",
        {
            "video_bytes": video_bytes,
            "peak_bytes": peak,
            "ratio": ratio,
            "stored_bytes": stats["stored_bytes"],
            "paper": {"video": "55 GB", "memory": "< 8 GB", "ratio": 6.9},
        },
    )

    assert frames == 2 * 12_000 and chunks == 2 * ((12_000 + CHUNK - 1) // CHUNK)
    assert peak <= CHUNK * h * w * 4 + 2**20  # one chunk buffer plus render scratch
    assert ratio > 7.0  # at least the paper's video:memory ratio
    # The clip outgrows the disk cap: the head is stored and read back on the
    # second pass, the tail renders on both.
    stored_frames = STORE_CAP_BYTES // (h * w * 4)
    assert stats["stored_bytes"] == stored_frames * h * w * 4
    assert stats["frames_rendered"] == 2 * 12_000 - stored_frames
