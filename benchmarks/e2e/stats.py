"""Order statistics the benchmark reports (standard library only, so the
driver process never has to import numpy)."""

from __future__ import annotations

import statistics

#: a tail percentile is only reported when this many samples lie beyond it
TAIL_SAMPLES_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def iqr(values) -> float:
    """Distance between the first and third quartile (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return float(q[2] - q[0])


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it.

    With ``n`` samples that is the ``(n - 10)``-th smallest one, i.e.
    percentile ``100 (n - 10) / n``.  Up to 20 samples no percentile
    above the median qualifies, and the median itself is returned with
    percentile 50 — a tail the sample cannot support is not invented."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_SAMPLES_BEYOND:
        return 50.0, median(ordered)
    return 100.0 * (n - TAIL_SAMPLES_BEYOND) / n, float(ordered[n - TAIL_SAMPLES_BEYOND - 1])
