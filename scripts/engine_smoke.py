"""CI smoke test for the threaded engine's thread budget, stored source,
reference batching, paced hold and peer wakes.

Runs a 2-stream, 120-frame ``ThreadedPipeline`` on the default cascade twice,
under a private empty ``TMPDIR``, then once paced at 80 fps, then the same
streams on the ``tyolo-only`` cascade offline and paced, and prints
``RunMetrics.extra["engine"]`` and ``extra["source"]``.  Fails if

* a default-cascade or ``tyolo-only`` run did not start exactly one worker
  per usable CPU (the engine's workers serve every stage and stream; a
  thread per stage, stream or source would show here),
* an offline run reports 0 ``extra["engine"]["peer_wakes"]`` (offline, a
  worker that starts a batch wakes an idle peer every time), or the paced
  80 fps run reports more peer wakes than a quarter of its batches (paced,
  it wakes one only when waiting work is late, so a batch's cascade stays
  on the worker that started it),
* an OpenBLAS is mapped into the process but ``runtime/blas.py`` capped no
  library — a numpy/scipy build whose symbol spelling the cap does not know
  would otherwise show up only as a silent loss of the measured gain,
* the offline runs' reference batches are all singletons (the reference
  stage takes what its queue holds, up to ``ref_spec().batch.size``),
* an offline T-YOLO batch holds more than ``num_t_yolo`` frames of one
  stream (a batch is one round-robin cycle, up to ``num_t_yolo`` frames
  from each stream in turn), or a batch of the offline ``tyolo-only`` run
  does not hold exactly ``num_t_yolo`` frames of each stream (there T-YOLO
  pops the stored feeds, which offline hold every frame, so each cycle
  fills; a default-cascade batch holds what the filters let through in
  time, so its size measures timing, not the rule),
* the second run rendered any frame (every one was stored by the first), or
* the stored clips left a name in the temp directory, or a descriptor open
  once the streams are gone, or
* the paced run's SDD batches, bar each stream's tail, are not mostly
  ``paced_hold(80, 16)`` frames or any is smaller (a loaded host may make a
  late worker catch up with a larger one), ``extra["engine"]["paced_hold"]``
  is missing, or an outcome's latency (timed from the frame's due time) is
  negative, or
* the paced ``tyolo-only`` run does not report ``paced_hold(80,
  num_t_yolo)``, the hold its pooled first stage pops per stream visit.
"""

import gc
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import FFSVAConfig  # noqa: E402
from repro.core.batching import paced_hold  # noqa: E402
from repro.models import ModelZoo  # noqa: E402
from repro.nn import TrainConfig  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.runtime import ThreadedPipeline  # noqa: E402
from repro.runtime.blas import usable_cpus  # noqa: E402
from repro.video import jackson, make_stream  # noqa: E402


def open_fds() -> int:
    gc.collect()  # a dropped stream's descriptor closes with it
    return len(os.listdir("/proc/self/fd"))


def tyolo_batches(tel: Telemetry) -> list[dict[int, int]]:
    """Frames per stream of each T-YOLO batch; a batch's verdicts share its
    busy window."""
    batches: dict[tuple, dict[int, int]] = {}
    for ev in tel.bus.events():
        if ev.kind in ("frame_pass", "frame_filter") and ev.stage == "tyolo":
            per_stream = batches.setdefault((ev.t_start, ev.ts), {})
            per_stream[ev.stream] = per_stream.get(ev.stream, 0) + 1
    return list(batches.values())


def run_twice(tmp: str) -> dict:
    zoo = ModelZoo()
    streams = [
        make_stream(jackson(), 240, tor=0.3, seed=11 + i, stream_id=f"smoke-{i}") for i in range(2)
    ]
    for s in streams:
        zoo.train_for_stream(
            s, n_train_frames=120, stride=2, train_config=TrainConfig(epochs=4, batch_size=32, seed=5)
        )
    ref_batches, tyolo = [], []
    for attempt in ("first", "second"):
        tel = Telemetry()
        pipe = ThreadedPipeline(streams, zoo, FFSVAConfig(), telemetry=tel)
        m = pipe.run(n_frames=120)
        engine, source = m.extra["engine"], m.extra["source"]
        print(f"{attempt} run: engine {engine}, source {source}")
        assert len(pipe.outcomes) == m.frames_offered == source["frames_read"] == 240
        assert engine["worker_threads"] == usable_cpus(), f"expected a worker per CPU: {engine}"
        assert engine["peer_wakes"] > 0, f"an offline run woke no peer: {engine}"
        execs = [ev for ev in tel.bus.events() if ev.kind == "batch_exec"]
        ref_batches += [ev.n for ev in execs if ev.stage == "ref"]
        tyolo += tyolo_batches(tel)
    assert source["frames_rendered"] == 0, f"second run re-rendered stored frames: {source}"
    print(f"offline reference batches: {len(ref_batches)} for {sum(ref_batches)} frames")
    assert max(ref_batches) > 1, f"every offline reference batch was one frame: {ref_batches}"
    cap = FFSVAConfig().num_t_yolo
    print(f"offline T-YOLO batches: {len(tyolo)}, {sum(len(b) > 1 for b in tyolo)} mixing streams")
    assert all(max(b.values()) <= cap for b in tyolo), (
        f"a T-YOLO batch took more than num_t_yolo {cap} frames of one stream: {tyolo}"
    )
    paced_run(streams, zoo)
    pooled_runs(streams, zoo)
    assert os.listdir(tmp) == [], f"stored clips left names behind: {os.listdir(tmp)}"
    return engine


def paced_run(streams, zoo, fps: float = 80.0) -> None:
    """One online run: the first stage serves ``paced_hold`` frames a batch."""
    tel = Telemetry()
    pipe = ThreadedPipeline(streams, zoo, FFSVAConfig(), telemetry=tel)
    m = pipe.run(n_frames=120, online=True, paced_fps=fps)
    engine, hold = m.extra["engine"], paced_hold(fps, 16)
    print(f"paced run: engine {engine}")
    assert engine.get("paced_hold") == hold, f"expected paced_hold {hold}: {engine}"
    execs = [ev for ev in tel.bus.events() if ev.kind == "batch_exec"]
    print(f"paced run: {engine['peer_wakes']} peer wakes for {len(execs)} batches")
    assert engine["peer_wakes"] <= len(execs) / 4, (
        f"{engine['peer_wakes']} peer wakes for {len(execs)} paced batches"
    )
    sizes: dict[int, list[int]] = {}
    for ev in execs:
        if ev.stage == "sdd":
            sizes.setdefault(ev.stream, []).append(ev.n)
    assert len(sizes) == 2 and sum(map(sum, sizes.values())) == 240, sizes
    for stream, batch in sizes.items():
        # A worker that fell behind catches up with every due frame, so a
        # batch may exceed the hold on a loaded host; none may fall short.
        body = batch[:-1]
        assert min(body) >= hold and body.count(hold) > len(body) // 2, (
            f"stream {stream} SDD batches {batch}, hold {hold}"
        )
    negative = [o for o in pipe.outcomes if o.latency < 0]
    assert len(pipe.outcomes) == 240 and not negative, f"negative latencies: {negative[:3]}"


def pooled_runs(streams, zoo, fps: float = 80.0) -> None:
    """``tyolo-only``, whose first stage pools the streams: the workers pop
    both feeds, offline and paced."""
    cfg = FFSVAConfig(cascade="tyolo-only")
    for online in (False, True):
        tel = Telemetry()
        pipe = ThreadedPipeline(streams, zoo, cfg, telemetry=tel)
        m = pipe.run(n_frames=120, online=online, paced_fps=fps if online else None)
        engine = m.extra["engine"]
        print(f"tyolo-only {'paced' if online else 'offline'} run: engine {engine}")
        assert len(pipe.outcomes) == m.frames_offered == 240
        assert engine["worker_threads"] == usable_cpus(), f"expected a worker per CPU: {engine}"
        if not online:
            full = dict.fromkeys(range(len(streams)), cfg.num_t_yolo)
            batches = tyolo_batches(tel)
            print(f"tyolo-only offline: {len(batches)} T-YOLO batches")
            assert batches and all(b == full for b in batches), (
                f"offline tyolo-only T-YOLO batches are not full cycles {full}: {batches}"
            )
    hold = paced_hold(fps, cfg.num_t_yolo)
    assert engine.get("paced_hold") == hold, f"expected paced_hold {hold}: {engine}"


def main() -> int:
    fds = open_fds()
    with tempfile.TemporaryDirectory() as tmp:
        tempfile.tempdir = tmp  # what TMPDIR would set, for this process only
        try:
            engine = run_twice(tmp)
        finally:
            tempfile.tempdir = None
    assert open_fds() == fds, f"descriptors leaked: {fds} open before, {open_fds()} after"
    # Looked up here, not through runtime/blas.py: the point is to catch a
    # mapped library that module's symbol probing did not recognise.
    with open("/proc/self/maps") as fh:
        mapped = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.rpartition("/")[2]})
    assert not mapped or engine["blas_libs"] > 0, (
        f"OpenBLAS is mapped ({mapped}) but runtime/blas.py found no "
        "openblas_{get,set}_num_threads spelling in it"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
