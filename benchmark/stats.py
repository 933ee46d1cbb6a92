"""Order statistics used to summarise repeated timings."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values):
    """(q1, median, q3), with q1 and q3 as statistics.quantiles(n=4) gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, min_beyond=10):
    """(p, value) for the highest p in TAIL_PERCENTILES whose nearest-rank
    value has at least min_beyond samples ranked above it, or None when
    there are too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        k = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - k >= min_beyond:
            return p, ordered[k]
    return None
