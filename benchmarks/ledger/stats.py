"""Order statistics for the ledger: medians, quartiles and the tail rule.

The tail rule follows the benchmark's reporting convention: a timing is
reported as its median and the highest percentile that still has at least
ten samples beyond it (capped at p99), together with the sample count.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES_BEYOND = 10

#: The highest tail percentile the ledger reports.
MAX_TAIL_QUANTILE = 0.99


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated *q*-quantile (0 <= q <= 1) of *values*."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the interpolation position of quantile *q*."""
    return n - 1 - math.floor(q * (n - 1))


def tail_quantile(n: int) -> float:
    """The highest quantile, at most p99 and at least the median, that
    leaves :data:`TAIL_SAMPLES_BEYOND` samples beyond it among *n*."""
    if n <= 0:
        raise ValueError("tail quantile of no samples")
    q = min(MAX_TAIL_QUANTILE, 1.0 - TAIL_SAMPLES_BEYOND / n)
    # Floating-point rounding can push the interpolation position one
    # rank too far; step back until the rule holds.
    while q > 0.5 and samples_beyond(n, q) < TAIL_SAMPLES_BEYOND:
        q -= 1.0 / n
    return max(0.5, q)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles`` default method), IQR
    and sample count of *values*."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def relative_spread(values: Sequence[float]) -> float:
    """IQR of *values* as a share of their median."""
    stats = summary(values)
    return stats["iqr"] / stats["median"] if stats["median"] else math.inf
