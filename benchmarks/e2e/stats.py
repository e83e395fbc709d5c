"""The few statistics the harness reports."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: Tail candidates in per mille (integer arithmetic), highest first.
_TAILS = (999, 990, 950, 900, 750)
#: A tail percentile is only reported with this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for an empty sample (a class absent from a script)."""
    return statistics.median(values) if values else 0.0


def supported_tail(values: Sequence[float]) -> tuple[float, float]:
    """``(pct, value)``: the highest percentile with >= 10 samples beyond it.

    Nearest rank.  Falls back to the median when even p75 is not supported
    (fewer than 40 samples).
    """
    ordered = sorted(values)
    for per_mille in _TAILS:
        rank = -(-len(ordered) * per_mille // 1000)  # ceil
        if len(ordered) - rank >= MIN_BEYOND:
            return per_mille / 10, ordered[rank - 1]
    return 50.0, median(values)


def relative_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median with ``statistics.quantiles(n=4)``, as the driver does."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else 0.0
