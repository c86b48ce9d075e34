"""Order statistics with the sample-count rule the metrics guide asks for.

A percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it — p90 needs 100 samples, p99 needs 1,000 — so a tail
number is never one noisy observation.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "MIN_BEYOND",
    "percentile",
    "supported",
    "quartiles",
    "spread",
    "summary",
]

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks — ``numpy.percentile``'s default, kept dependency-free
    so ``compare.py`` runs without numpy."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_BEYOND` beyond percentile ``q``."""
    # The tolerance keeps 10,000 x 0.1 % from rounding to 9.999...
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)`` —
    the rule the driver applies to ten runs.  One value is its own
    quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0.0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def summary(values) -> dict:
    """min / quartiles / max / count of one timing series, for printing."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "max": max(values),
    }
