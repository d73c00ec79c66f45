"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: A reported percentile keeps at least this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    q: float  # the percentile actually reported (may be below the one asked)
    value: float
    n: int  # sample count


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile, lowered until 10 samples lie beyond.

    When fewer than :data:`MIN_BEYOND` samples would lie above the
    requested rank, the highest rank that keeps that many above it is
    reported instead, with the percentile it corresponds to.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples: no percentile has {MIN_BEYOND} beyond it")
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        rank = n - MIN_BEYOND
        q = 100 * rank / n
    return Percentile(q=q, value=ordered[rank - 1], n=n)


def cost_growth(series: Sequence[float]) -> float:
    """Median of the last tenth of ``series`` over the median of its first."""
    tenth = len(series) // 10
    if tenth < 1:
        raise ValueError(f"{len(series)} samples: need at least 10")
    return statistics.median(series[-tenth:]) / statistics.median(series[:tenth])


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
