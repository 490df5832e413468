"""Order statistics shared by the harness, ``run --sets`` and ``compare``."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = int(q * (len(ordered) - 1) + 0.5)
    return float(ordered[min(rank, len(ordered) - 1)])


def mean(values) -> float:
    return float(statistics.fmean(values))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0]), float(values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
