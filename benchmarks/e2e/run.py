#!/usr/bin/env python3
"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Run from anywhere; puts the checkout's root (for the ``benchmarks.e2e``
package) and ``src/`` (for ``repro``) on ``sys.path``.  A checkout without
``src/repro`` fails here, loudly.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

if __name__ == "__main__":
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"benchmarks/e2e needs the repro package under {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"repro was imported from {repro.__file__}, not from this checkout's src/")
    from benchmarks.e2e.cli import main

    sys.exit(main())
