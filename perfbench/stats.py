"""Summary statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: percentiles a tail may be reported at, lowest first
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # the tolerance keeps 99.9% of 10000 at rank 9990 despite binary rounding
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """The highest percentile of ``ladder`` with at least ten samples beyond it."""
    allowed = [p for p in ladder if beyond(n, p) >= MIN_BEYOND]
    return max(allowed) if allowed else None


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
