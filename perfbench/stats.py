"""Percentiles for the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer would make the figure one or two outliers.
MIN_BEYOND = 10


def percentile(values, q: float):
    """Nearest-rank q-th percentile of `values`.

    Raises ValueError when fewer than MIN_BEYOND samples lie above the
    rank, so a caller cannot quote a tail the data does not support.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; needs {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
