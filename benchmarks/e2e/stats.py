"""Order statistics and bound comparison used by every report."""

from __future__ import annotations

import statistics

__all__ = ["summary", "spread", "worse_by", "within_bound"]


def summary(values) -> dict:
    """Median with min / quartiles / max and the sample count beside it."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("no samples")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {
        "median": statistics.median(vals),
        "min": vals[0],
        "q1": q1,
        "q3": q3,
        "max": vals[-1],
        "n": len(vals),
    }


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative when it is better)."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if base == 0:
        raise ValueError("bound comparison needs a non-zero base")
    delta = (base - new) if better == "higher" else (new - base)
    return delta / abs(base)


def within_bound(base: float, new: float, better: str, bound: float) -> bool:
    """``new`` is no worse than ``base`` by more than ``bound``."""
    return worse_by(base, new, better) <= bound
