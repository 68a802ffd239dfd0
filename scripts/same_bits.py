"""Same bits: what a threaded run decided, per config, as JSON; and a diff.

Records, for every config of a named set, what must not move when the
engine's mechanics change: the sorted ``(stream, index, stage, ref_count)``
outcomes, the per-stage ``entered``/``passed``/``filtered`` counters and the
sorted detection-store rows.  Latencies, batch shapes and call counts are
left out on purpose: they are the mechanics.

The ``full`` set is the six registered cascades × {``thread``, ``process``}
executor × {``snm_fusion`` off, on}, each run offline and paced at 30, 80
and 300 fps (96 runs).  ``quick`` keeps the thread executor and the
offline and 80 fps modes (24 runs); ``mosaic`` is ``quick`` with
``tyolo_mosaic`` on.  Streams are 2 trained ``jackson`` clips rendered by
``repro.video``; nothing is downloaded.

    python scripts/same_bits.py --out change.json          # record
    python scripts/same_bits.py --compare parent.json change.json

To compare two commits, run the record step in each checkout (the script
imports the ``src/`` next to it).  ``--compare`` prints every config that
differs and exits 1 if any does, or if the two files cover different
configs.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import FFSVAConfig  # noqa: E402
from repro.core.pipeline import CASCADES  # noqa: E402
from repro.models import ModelZoo  # noqa: E402
from repro.nn import TrainConfig  # noqa: E402
from repro.runtime import ThreadedPipeline  # noqa: E402
from repro.store import DetStoreReader  # noqa: E402
from repro.video import jackson, make_stream  # noqa: E402

MODES = {"offline": None, "paced30": 30.0, "paced80": 80.0, "paced300": 300.0}
#: set -> (executors, snm_fusion values, modes, tyolo_mosaic)
SETS = {
    "full": (("thread", "process"), (False, True), tuple(MODES), False),
    "quick": (("thread",), (False, True), ("offline", "paced80"), False),
    "mosaic": (("thread",), (False, True), ("offline", "paced80"), True),
}


def trained_streams(n_frames: int):
    """Two seeded ``jackson`` clips with their filters trained."""
    streams = [
        make_stream(jackson(), n_frames, tor=0.5, seed=21 + i, stream_id=f"bits-{i}")
        for i in range(2)
    ]
    zoo = ModelZoo()
    for s in streams:
        zoo.train_for_stream(
            s, n_train_frames=100, stride=2,
            train_config=TrainConfig(epochs=4, batch_size=32, seed=5),
        )
    return streams, zoo


def configs(name: str):
    executors, fusions, modes, mosaic = SETS[name]
    for cascade, executor, fusion, mode in product(CASCADES, executors, fusions, modes):
        key = f"{cascade}/{executor}/fusion={'on' if fusion else 'off'}/{mode}"
        cfg = FFSVAConfig(
            cascade=cascade, executor=executor, snm_fusion=fusion, tyolo_mosaic=mosaic
        )
        yield key + ("/mosaic" if mosaic else ""), cfg, MODES[mode]


def record_one(streams, zoo, cfg: FFSVAConfig, fps: float | None) -> dict:
    with tempfile.TemporaryDirectory() as store_dir:
        cfg = cfg.with_(result_store_dir=store_dir)
        pipe = ThreadedPipeline(streams, zoo, cfg)
        m = pipe.run(online=fps is not None, paced_fps=fps)
        rows = sorted(DetStoreReader(store_dir).records(), key=lambda r: (r.stream, r.frame))
    m.check_conservation()
    return {
        "outcomes": sorted([o.stream_id, o.index, o.stage, o.ref_count] for o in pipe.outcomes),
        "stages": {k: [c.entered, c.passed, c.filtered] for k, c in sorted(m.stages.items())},
        "rows": [r.to_dict() for r in rows],
    }


def record(set_name: str, n_frames: int, match: str | None) -> dict:
    streams, zoo = trained_streams(n_frames)
    out = {}
    for key, cfg, fps in configs(set_name):
        if match is None or match in key:
            out[key] = record_one(streams, zoo, cfg, fps)
            print(f"{key}: {len(out[key]['outcomes'])} outcomes", file=sys.stderr)
    return out


def compare(a: dict, b: dict) -> list[str]:
    """One line per config that is missing on a side or differs."""
    problems = [f"{k}: only in the first file" for k in a.keys() - b.keys()]
    problems += [f"{k}: only in the second file" for k in b.keys() - a.keys()]
    for key in sorted(a.keys() & b.keys()):
        for part in ("stages", "outcomes", "rows"):
            x, y = a[key][part], b[key][part]
            if x != y:
                problems.append(f"{key}: {part} differ: {_first_difference(x, y)}")
    return problems


def _first_difference(x, y) -> str:
    if isinstance(x, dict):
        return f"{x} != {y}"
    for i, (p, q) in enumerate(zip(x, y)):
        if p != q:
            return f"item {i}: {p} != {q}"
    return f"{len(x)} != {len(y)} items"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the record here (default: stdout)")
    ap.add_argument("--set", choices=sorted(SETS), default="full")
    ap.add_argument("--frames", type=int, default=90, help="frames per stream (default 90)")
    ap.add_argument("--match", help="only configs whose key contains this")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two records")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        problems = compare(a, b)
        for line in problems:
            print(line)
        print(f"{len(a.keys() & b.keys())} configs compared, {len(problems)} differ")
        return 1 if problems else 0
    text = json.dumps(record(args.set, args.frames, args.match), sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
