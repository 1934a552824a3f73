"""Summary statistics for benchmark samples.

Quartiles use :func:`statistics.quantiles` with ``n=4`` (the
``exclusive`` method), so the IQR printed here is the same spread a
caller gets by feeding the per-run medians to that function.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer makes the tail one or two outliers.
TAIL_MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float]:
    """First and third quartile (both the single value for n == 1)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail_percentile(count: int):
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples beyond it, or None."""
    for pct in TAIL_PERCENTILES:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(count * (100.0 - pct) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values, better: str) -> dict:
    """Best value, median, quartiles, IQR, count, and the tail on the
    worse side.

    ``better`` is ``"higher"`` or ``"lower"``.  For a throughput the
    tail that matters is the slow end, so ``tail_pct`` is then a low
    percentile (p10 rather than p90)."""
    values = list(values)
    q1, q3 = quartiles(values)
    summary = {
        "best": max(values) if better == "higher" else min(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
        "tail_pct": None,
        "tail": None,
    }
    pct = tail_percentile(len(values))
    if pct is not None:
        if better == "higher":
            pct = round(100.0 - pct, 1)
        summary["tail_pct"] = pct
        summary["tail"] = percentile(values, pct)
    return summary
