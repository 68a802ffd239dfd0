"""Hot-path microbenchmarks: the shipped fast paths vs the naive ones.

FFS-VA's premise is that the cheap filters run orders of magnitude faster
than the reference model, so the reproduction's per-frame overhead — stage
resize, SNM forward passes, grid-detector response maps — must stay small
*and keep staying small*; and specialising a stream only pays if the SNM
fit is cheap next to analysing it.  This suite measures each hot path twice:

* **before** — the straightforward implementation (per-call resize index
  math, training-machinery ``forward`` with backward caches, the training
  path's 6-D pooling views and first-layer input gradient, the renderer
  re-synthesising a frame on every read), kept alive here, in
  ``tests/parent_training.py`` and in ``video/synth.py`` as reference code;
* **after**  — the shipped fast path (cached separable
  :class:`ResizePlan`, ``frame_median``, ordered ``block_reduce_mean``,
  batched blob count, ``Sequential.predict``, per-instance buffers, slice
  pooling and the parameter-only first-layer backward of a training step,
  a stream's frames read back from its stored clip).

Medians land in ``BENCH_hotpath.json`` at the repo root (committed, so the
perf trajectory is reviewable per PR).  Correctness — fast path outputs
equivalent to the slow path — is always asserted and is the only thing
that can fail the run: timings are data, not gates, because CI machines
are noisy.  For the numeric kernels "equivalent" is ``np.array_equal``:
they promise the bits of the NumPy expression they replace, so a NumPy
build that sums or selects in another order fails here first.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_hotpath            # full run
    PYTHONPATH=src python -m benchmarks.bench_hotpath --quick    # CI smoke
    PYTHONPATH=src python -m benchmarks.bench_hotpath --check    # correctness only
"""

from __future__ import annotations

import argparse
import itertools
import platform
import statistics
import sys
import time
import types

import numpy as np

from repro.models.griddet import GridDetector
from repro.models.sdd import SDD
from repro.models.snm import SNMConfig, build_snm_network
from repro.nn import SGD, Conv2D, MaxPool2D, ReLU, SoftmaxCrossEntropy
from repro.video import VideoStream
from repro.video.ops import block_reduce_mean, frame_median, get_resize_plan
from tests import parent_training as parent

from .common import print_table, record_bench

#: The jackson workload's render size (H, W) — the geometry the stage
#: resizes actually see in steady state (coral renders at a similar 90x160).
FRAME_HW = (100, 150)

#: A hi-res variant, for the scaling behaviour of the gather path.
FRAME_HW_HIRES = (360, 640)


# ---------------------------------------------------------------------------
# The "before" implementations, kept verbatim as reference code.
# ---------------------------------------------------------------------------
def reference_resize(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Pre-plan bilinear resize: recompute gather indices on every call."""
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


def forward_eval(net, x: np.ndarray) -> np.ndarray:
    """Pre-predict inference: training machinery with backward caches."""
    net.set_training(False)
    out = net.forward(x)
    net.set_training(True)
    return out


def parent_formula_net(net):
    """Rebind ``net``'s training path to the formulas in ``tests/parent_training.py``."""
    for layer in net.layers:
        if isinstance(layer, MaxPool2D):
            layer.forward = types.MethodType(parent.pool_forward, layer)
            layer.backward = types.MethodType(parent.pool_backward, layer)
        elif isinstance(layer, ReLU):
            layer.forward = types.MethodType(parent.relu_forward, layer)
    net.backward = types.MethodType(parent.sequential_backward, net)
    return net


def train_step(net, opt, loss_fn, x, y):
    """One SGD step as ``train_classifier`` takes it."""
    opt.zero_grad()
    loss = loss_fn(net.forward(x), y)
    net.backward(loss_fn.backward(), input_grad=False)
    opt.step()
    return loss


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
def median_pair_ms(before, after, *, reps: int, warmup: int = 3) -> tuple[float, float]:
    """Median wall times (ms) of two callables, sampled interleaved.

    Alternating before/after per iteration (instead of timing each in its
    own block) makes the reported *ratio* robust to machine-load drift over
    the measurement window — both sides see the same background noise.
    """
    for _ in range(warmup):
        before()
        after()
    b_samples, a_samples = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        before()
        t1 = time.perf_counter()
        after()
        t2 = time.perf_counter()
        b_samples.append((t1 - t0) * 1e3)
        a_samples.append((t2 - t1) * 1e3)
    return statistics.median(b_samples), statistics.median(a_samples)


class Case:
    """One before/after pair with a correctness predicate."""

    def __init__(self, name, before, after, check, reps):
        self.name = name
        self.before = before
        self.after = after
        self.check = check  # () -> bool: fast path equivalent to slow path
        self.reps = reps


def build_cases(quick: bool) -> list[Case]:
    rng = np.random.default_rng(0)
    frames1 = rng.random((1, *FRAME_HW), dtype=np.float32)
    frames10 = rng.random((10, *FRAME_HW), dtype=np.float32)
    hires8 = rng.random((8, *FRAME_HW_HIRES), dtype=np.float32)
    cases: list[Case] = []
    r = 40 if quick else 200

    # The source: a frame read back from the stream's stored clip against the
    # renderer producing it again.  The first-touch row is a cost, not a win:
    # a frame nobody reads twice pays the render *and* the write.
    stream = VideoStream.synthetic(256, 0.3, height=FRAME_HW[0], width=FRAME_HW[1], seed=9)
    fresh = VideoStream.synthetic(2 * r + 8, 0.3, height=FRAME_HW[0], width=FRAME_HW[1], seed=9)
    render = stream.renderer
    ts64 = np.arange(64, 128)

    def render_batch(ts):
        out = np.empty((len(ts), *FRAME_HW), dtype=np.float32)
        for i, t in enumerate(ts):
            out[i] = render.render_pixels(int(t))
        return out

    stream.pixel_batch(np.arange(len(stream)))
    turn_b, turn_a, first_b, first_a = (itertools.count() for _ in range(4))
    cases += [
        Case(
            "source frame 100x150: stored read vs render",
            lambda: render.render_pixels(next(turn_b) % 256),
            lambda: stream.pixels(next(turn_a) % 256),
            lambda: all(
                np.array_equal(stream.pixels(t), render.render_pixels(t)) for t in range(256)
            ),
            r,
        ),
        Case(
            "source pixel_batch 64",
            lambda: render_batch(ts64),
            lambda: stream.pixel_batch(ts64),
            lambda: np.array_equal(stream.pixel_batch(ts64), render_batch(ts64)),
            r // 4,
        ),
        Case(
            "source first touch (render + write)",
            lambda: render.render_pixels(next(first_b) % len(fresh)),
            lambda: fresh.pixels(next(first_a) + 1),
            lambda: np.array_equal(fresh.pixels(0), render.render_pixels(0)),
            r,
        ),
    ]

    def resize_case(tag, batch, out_hw, reps):
        in_hw = batch.shape[1:]
        plan = get_resize_plan(in_hw, out_hw)
        buf = np.empty((len(batch), *out_hw), dtype=np.float32)
        cases.append(
            Case(
                f"resize[{tag}]",
                lambda: reference_resize(batch, out_hw),
                lambda: plan.apply(batch, out=buf),
                lambda: np.array_equal(plan.apply(batch), reference_resize(batch, out_hw)),
                reps,
            )
        )

    # Batch 10 is the paper's feedback batch size (the engine's steady-state
    # batch); batch 1 is the latency-sensitive trickle case.
    resize_case("sdd 100x100 b1", frames1, (100, 100), r)
    resize_case("sdd 100x100 b10", frames10, (100, 100), r)
    resize_case("snm 50x50 b10", frames10, (50, 50), r)
    resize_case("tyolo 104x104 b10", frames10, (104, 104), r)
    resize_case("hires 100x100 b8", hires8, (100, 100), r)
    # The reference model's up-sample: each source row feeds two output rows.
    resize_case("ref 208x208 b1", frames1, (208, 208), r)
    resize_case("ref 208x208 b10", frames10, (208, 208), r)

    # Per-frame median luminance (the detectors' and SNM's lighting gain).
    def median_case(tag, batch, reps):
        cases.append(
            Case(
                f"frame_median[{tag}]",
                lambda: np.median(batch, axis=(1, 2)),
                lambda: frame_median(batch),
                lambda: np.array_equal(frame_median(batch), np.median(batch, axis=(1, 2))),
                reps,
            )
        )

    res208 = rng.random((10, 208, 208), dtype=np.float32)
    res104 = rng.random((10, 104, 104), dtype=np.float32)
    median_case("208x208 b1", res208[:1], r)
    median_case("104x104 b10", res104, r)
    median_case("49x49 b10 odd", res104[:, :49, :49], r)

    # Response pooling at the two detector geometries (208/52 and 104/13).
    def block_mean_case(tag, batch, factor, reps):
        n, side = len(batch), batch.shape[1] // factor

        def before():
            return batch.reshape(n, side, factor, side, factor).mean(axis=(2, 4))

        cases.append(
            Case(
                f"block_mean[{tag}]",
                before,
                lambda: block_reduce_mean(batch, factor),
                lambda: np.array_equal(block_reduce_mean(batch, factor), before()),
                reps,
            )
        )

    block_mean_case("208/4 b1", res208[:1], 4, r)
    block_mean_case("208/4 b10", res208, 4, r)
    block_mean_case("104/8 b10", res104, 8, r)

    # SDD distance: resize + MSE against the stream reference.
    reference = rng.random(FRAME_HW, dtype=np.float32)
    sdd = SDD(reference, threshold=0.01)

    def sdd_before():
        resized = reference_resize(frames10, (100, 100))
        d = resized - sdd.reference
        return np.mean(d * d, axis=(1, 2))

    cases.append(
        Case(
            "sdd distances b10",
            sdd_before,
            lambda: sdd.distances(frames10),
            lambda: np.allclose(sdd.distances(frames10), sdd_before(), rtol=1e-5),
            40 if quick else 200,
        )
    )

    # SNM batched predict: the cascade's second filter at its real input size.
    net = build_snm_network(SNMConfig())
    x16 = rng.normal(size=(16, 1, 50, 50)).astype(np.float32)
    cases.append(
        Case(
            "snm predict b16",
            lambda: forward_eval(net, x16),
            lambda: net.predict(x16, copy=False),
            lambda: np.array_equal(net.predict(x16), forward_eval(net, x16)),
            20 if quick else 100,
        )
    )

    # Grid detector (T-YOLO operating point) batched count.
    det_fast = GridDetector(grid=13, resolution=104)
    det_ref = GridDetector(grid=13, resolution=104)
    bg = rng.random(FRAME_HW, dtype=np.float32)

    def griddet_before():
        # Reference cells path: per-call resize index math, fresh buffers.
        resized = reference_resize(frames10, (104, 104))
        bg_small = reference_resize(bg, (104, 104))
        bg_med = float(np.median(bg_small)) or 1.0
        gain = (np.median(resized, axis=(1, 2)) / bg_med)[:, None, None].astype(np.float32)
        resp = np.abs(resized - bg_small[None] * gain)
        cells = resp.reshape(10, 13, 8, 13, 8).mean(axis=(2, 4)) / 0.25
        counts = np.empty(10, dtype=np.int64)
        for i, c in enumerate(cells):
            counts[i] = len(det_ref._detect_from_cells(c, FRAME_HW))
        return counts

    cases.append(
        Case(
            "griddet count b10",
            griddet_before,
            lambda: det_fast.count_batch(frames10, bg),
            lambda: np.array_equal(det_fast.count_batch(frames10, bg), griddet_before()),
            20 if quick else 100,
        )
    )

    # Blob counting alone, on reference-grid response maps with a few
    # objects each (some on the last row / column, next to the separator).
    ref_det = GridDetector(grid=52, resolution=208, conf_threshold=0.15, cell_activation=0.12)
    cells16 = rng.random((16, 52, 52), dtype=np.float32) * np.float32(0.1)
    for i in range(16):
        for _ in range(i % 5):
            y, x = rng.integers(0, 52, 2)
            cells16[i, y : y + 3, x : x + 2] += np.float32(rng.random() * 0.4)
    cells16[3, 51, 10:14] = cells16[4, 0, 10:14] = 0.5

    def blobs_before():
        return [len(ref_det.cell_blobs(c)) for c in cells16]

    def blobs_after():
        return ref_det._blob_counts(cells16, *ref_det._label(cells16))

    cases.append(
        Case(
            "blob count 52x52 b16",
            blobs_before,
            blobs_after,
            lambda: blobs_after().tolist() == blobs_before(),
            20 if quick else 100,
        )
    )

    # The reference model as the merged stage sees it: singleton batches,
    # two streams taking turns.  "before" is the same arithmetic written
    # plainly, background resized on every call as a one-entry cache did.
    bg2 = rng.random(FRAME_HW, dtype=np.float32)
    turn = [0]

    def ref_before():
        turn[0] ^= 1
        b = bg2 if turn[0] else bg
        resized = reference_resize(frames1, (208, 208))
        bg_big = reference_resize(b, (208, 208))
        bg_med = float(np.median(bg_big)) or 1.0
        gain = (np.median(resized, axis=(1, 2)) / bg_med)[:, None, None].astype(np.float32)
        resp = np.abs(resized - bg_big[None] * gain)
        cells = resp.reshape(1, 52, 4, 52, 4).mean(axis=(2, 4)) / 0.25
        return [len(ref_det.cell_blobs(c)) for c in cells]

    def ref_after():
        turn[0] ^= 1
        return ref_det.count_batch(frames1, bg2 if turn[0] else bg)

    def ref_check():
        turn[0] = 0  # both sides see the same background
        want = ref_before()
        turn[0] = 0
        return ref_after().tolist() == want

    cases.append(
        Case("reference count b1 x2 streams", ref_before, ref_after, ref_check, 40 if quick else 200)
    )

    # The training path at the SNM fit's batch 64: the two pools (post-ReLU
    # maps, so about half the entries tie at zero), conv1's backward, and a
    # whole SGD step.
    r = 10 if quick else 60

    def pool_case(shape):
        xp = np.maximum(rng.normal(size=shape), 0.0).astype(np.float32)
        dp = rng.normal(size=(*shape[:2], shape[2] // 2, shape[3] // 2)).astype(np.float32)
        pool_ref, pool = MaxPool2D(2), MaxPool2D(2)

        def before():
            return parent.pool_forward(pool_ref, xp), parent.pool_backward(pool_ref, dp)

        def after():
            return pool.forward(xp), pool.backward(dp)

        cases.append(
            Case(
                f"maxpool fwd/bwd train b64 {shape}",
                before,
                after,
                lambda: all(np.array_equal(a, b) for a, b in zip(after(), before())),
                r,
            )
        )

    pool_case((64, 8, 23, 23))
    pool_case((64, 16, 9, 9))

    x64 = rng.normal(size=(64, 1, 50, 50)).astype(np.float32)
    y64 = rng.integers(0, 2, 64)
    conv1 = Conv2D(1, 8, 5, stride=2, rng=np.random.default_rng(1))
    dconv = rng.normal(size=conv1.forward(x64).shape).astype(np.float32)

    def conv1_grads(**kw):
        conv1.zero_grads()
        conv1.backward(dconv, **kw)
        return [g.copy() for g in conv1.grads.values()]

    cases.append(
        Case(
            "conv1 backward (no input grad) b64",
            lambda: conv1.backward(dconv),
            lambda: conv1.backward(dconv, input_grad=False),
            lambda: all(
                np.array_equal(a, b) for a, b in zip(conv1_grads(input_grad=False), conv1_grads())
            ),
            r,
        )
    )

    def stepper(net):
        net.set_training(True)
        opt, loss_fn = SGD(net, lr=0.04, momentum=0.9, weight_decay=1e-4), SoftmaxCrossEntropy()
        return lambda: train_step(net, opt, loss_fn, x64, y64)

    def step_check():
        # Same initial weights (the config seeds them), three steps each.
        nets = [build_snm_network(SNMConfig()), parent_formula_net(build_snm_network(SNMConfig()))]
        losses = [[step() for _ in range(3)] for step in map(stepper, nets)]
        states = [net.state_dict() for net in nets]
        return losses[0] == losses[1] and all(
            np.array_equal(states[0][k], states[1][k]) for k in states[1]
        )

    cases.append(
        Case(
            "SNM train step b64",
            stepper(parent_formula_net(build_snm_network(SNMConfig()))),
            stepper(build_snm_network(SNMConfig())),
            step_check,
            r,
        )
    )
    return cases


def run_e2e(quick: bool) -> dict:
    """End-to-end threaded run: trained models, real queues, real threads."""
    from repro.core import FFSVAConfig
    from repro.models import ModelZoo
    from repro.nn import TrainConfig
    from repro.runtime import ThreadedPipeline
    from repro.video import jackson, make_stream

    n_frames = 120 if quick else 360
    zoo = ModelZoo()
    streams = []
    for i, tor in enumerate((0.25, 0.45)):
        stream = make_stream(jackson(), n_frames, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=100,
            stride=2,
            train_config=TrainConfig(epochs=4, batch_size=32, seed=7),
        )
        streams.append(stream)
    pipe = ThreadedPipeline(streams, zoo, FFSVAConfig())
    metrics = pipe.run()
    fps = metrics.frames_ingested / metrics.duration if metrics.duration else 0.0
    return {
        "n_streams": len(streams),
        "n_frames": metrics.frames_ingested,
        "duration_s": round(metrics.duration, 4),
        "throughput_fps": round(fps, 1),
        "frames_to_ref": metrics.frames_to_ref,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke: fewer reps, no e2e")
    ap.add_argument("--check", action="store_true", help="correctness only, no timing")
    ap.add_argument("--no-e2e", action="store_true", help="skip the threaded end-to-end run")
    ap.add_argument("--out", default=None, help="override the BENCH_hotpath.json path")
    args = ap.parse_args(argv)

    cases = build_cases(args.quick)
    failures = []
    for case in cases:
        if not case.check():
            failures.append(case.name)
    if failures:
        print(f"FAIL: fast path diverges from slow path: {failures}", file=sys.stderr)
        return 1
    print(f"correctness: all {len(cases)} fast paths equivalent to their slow paths")
    if args.check:
        return 0

    results: dict[str, dict] = {}
    rows = []
    for case in cases:
        before, after = median_pair_ms(case.before, case.after, reps=case.reps)
        speedup = before / after if after > 0 else float("inf")
        results[case.name] = {
            "before_ms": round(before, 4),
            "after_ms": round(after, 4),
            "speedup": round(speedup, 2),
        }
        rows.append([case.name, before, after, speedup])
    print_table(
        "Hot-path microbenchmarks (median ms)",
        ["case", "before", "after", "speedup"],
        rows,
    )

    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "mode": "quick" if args.quick else "full",
        },
        "cases": results,
    }
    if not (args.quick or args.no_e2e):
        payload["e2e_threaded"] = run_e2e(args.quick)
        print(f"\ne2e threaded run: {payload['e2e_threaded']}")
    path = record_bench("hotpath", payload, path=args.out)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
