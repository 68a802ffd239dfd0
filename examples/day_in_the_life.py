#!/usr/bin/env python
"""A day in the life of one camera: diurnal TOR, memory-bounded scanning.

The paper's premise is that anomalies are rare *on average* — "the
target-object occurrence rate in a day is only 8%" — but arrive in rush-
hour bursts.  This example scans a synthetic 24-hour recording the way the
offline pipeline would:

* frames come through :meth:`~repro.video.VideoStream.iter_chunks`, one
  reused chunk buffer, so the whole day never sits in memory (the paper: a
  55 GB file analyzed in <8 GB of RAM),
* sliding-window TOR shows the day's activity profile,
* the analytic planner translates the quiet/rush extremes into how many
  such cameras one server carries at each hour, and
* the content-adaptive query planner (``plan="adaptive"``) rides the same
  diurnal curve live: cascade exit depth downshifts to the SDD through the
  small hours and climbs back to the full graph for the rushes.

    python examples/day_in_the_life.py
"""

import numpy as np

from repro.analytics import sliding_tor
from repro.core import FFSVAConfig, build_trace, plan_capacity
from repro.models import ModelZoo
from repro.sim import PipelineSimulator
from repro.video import day_stream


def spark(values, width: int = 48) -> str:
    """Render a series as a text sparkline."""
    blocks = " .:-=+*#%@"
    arr = np.asarray(values, dtype=float)
    if len(arr) > width:
        edges = np.linspace(0, len(arr), width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else 0.0 for a, b in zip(edges, edges[1:])])
    top = arr.max() or 1.0
    return "".join(blocks[min(int(v / top * (len(blocks) - 1)), len(blocks) - 1)] for v in arr)


def main() -> None:
    # 125 frames/hour makes the day exactly one of the renderer's 3000-frame
    # lighting cycles, so illumination extremes coincide with the rush hours
    # instead of strobing the SDD at random night hours.
    frames_per_hour = 125
    day = day_stream(frames_per_hour=frames_per_hour, seed=17)
    print(f"one synthetic day: {len(day)} frames, average TOR {day.tor():.3f} "
          "(the paper cites 8% for real webcams)")

    # Memory-bounded scan of the whole day.
    h, w = day.shape
    chunk_bytes = 0
    for _start, chunk in day.iter_chunks(64):
        chunk_bytes = max(chunk_bytes, chunk.nbytes)  # the pipeline's filters run here
    st = day.stats()
    print(f"scanned {len(day) * h * w * 4 / 2**20:.0f} MB of video through one "
          f"{chunk_bytes / 2**20:.1f} MB chunk buffer; {st['stored_bytes'] / 2**20:.0f} MB "
          "now stored on disk for the training and trace passes below to read back")

    # The day's activity profile.
    counts = day.gt_counts()
    tor_series = sliding_tor(counts, window=frames_per_hour)
    print("\nactivity over the day (sliding 1-hour TOR):")
    print(f"  {spark(tor_series)}")
    print("  00h" + " " * 42 + "24h")

    # Train once, then ask the planner what each hour costs.  Training
    # samples span the whole day — the paper's Section 5.5 advice for
    # periodic scene changes: "the training data just needs to include
    # representative frames under all conditions" (otherwise the SDD
    # threshold, calibrated on morning lighting, passes everything at night).
    print("\ntraining specialized models (sampled across the day) ...")
    zoo = ModelZoo()
    trace = build_trace(
        day, zoo, n_frames=len(day), n_train_frames=600, stride=len(day) // 600
    )
    config = FFSVAConfig(filter_degree=1.0, batch_policy="feedback", batch_size=10)
    print(f"{'hour':>5} {'TOR':>6} {'streams/server':>15}")
    for hour in (3, 8, 13, 18, 22):
        part = trace.sliced(hour * frames_per_hour, (hour + 1) * frames_per_hour)
        plan = plan_capacity(part, config)
        print(f"{hour:>4}h {part.tor():>6.3f} {plan.max_streams:>15}")
    whole = plan_capacity(trace, config)
    print(f"whole-day average -> {whole.max_streams} streams/server "
          f"(bottleneck {whole.bottleneck_device})")
    print("\nprovisioning for the rush hour, not the average, is the cost of "
          "latency guarantees; the paper's remedy is storing bursts for later.")

    # The content-adaptive query planner, live over the same day: one
    # decision per 64-frame chunk from the SDD's observed pass fraction,
    # hysteresis-debounced so the depth follows the diurnal curve rather
    # than frame noise.
    adaptive = config.with_(plan="adaptive", plan_epoch=64)
    sim = PipelineSimulator([trace], adaptive, online=False)
    sim.run()
    planner = sim.planner
    filters = [s.name for s in sim.graph if not s.terminal]
    depths = [
        filters.index(planner.plan_for(0, f).depth) + 1
        for f in range(0, len(trace), adaptive.plan_epoch)
    ]
    print(f"\nadaptive cascade depth over the day ({len(planner.decisions)} "
          "plan switches, 1 = exit at SDD, "
          f"{len(filters)} = full graph):")
    print(f"  {spark(depths)}")
    print("  00h" + " " * 42 + "24h")
    print(f"{'hour':>5} {'TOR':>6} {'modal depth':>12}")
    for hour in (2, 8, 13, 18, 23):
        lo = hour * frames_per_hour
        hs = [
            filters.index(planner.plan_for(0, f).depth) + 1
            for f in range(lo, lo + frames_per_hour, adaptive.plan_epoch)
        ]
        tor_h = trace.sliced(lo, lo + frames_per_hour).tor()
        modal = max(set(hs), key=hs.count)
        print(f"{hour:>4}h {tor_h:>6.3f} {modal:>12}")
    print("\nthe quiet hours run on the SDD alone; the rushes climb back to "
          "the full cascade — capacity follows content, not the clock.")


if __name__ == "__main__":
    main()
