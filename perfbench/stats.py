"""Order statistics for the benchmark: medians, the tail-percentile rule
and timelines rebuilt from the median repetition of each step.

A tail percentile is only reported when the sample supports it: at least
``MIN_BEYOND`` samples must lie strictly above the percentile's rank, so a
p99 needs ≥1000 samples and a p90 ≥100.  Percentiles use the nearest-rank
definition (the value at 1-based rank ``ceil(q * n)``), so the reported
number is always one that was actually measured.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

MIN_BEYOND = 10


class PercentileError(ValueError):
    """The sample is too small for the requested percentile."""


def rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` (0 < q ≤ 1) in ``n`` samples."""
    if n < 1:
        raise PercentileError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    # The epsilon keeps q * n = 990.0000000000001 from rounding up a rank.
    return max(1, math.ceil(q * n - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q`` percentile's rank."""
    return n - rank(n, q)


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count that leaves ``beyond`` samples above ``q``."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation; values need not be sorted)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def tail_summary(values: Sequence[float], q: float, beyond: int = MIN_BEYOND) -> Dict:
    """Median, the ``q`` percentile and the sample count of ``values``.

    Raises :class:`PercentileError` when fewer than ``beyond`` samples lie
    above the percentile: a tail read from too few samples is noise.
    """
    n = len(values)
    if n == 0:
        raise PercentileError("no samples")
    above = samples_beyond(n, q)
    if above < beyond:
        raise PercentileError(
            f"p{q * 100:g} needs >= {beyond} samples beyond it; "
            f"{n} samples leave {above} (need n >= {min_samples(q, beyond)})"
        )
    return {
        "p50": statistics.median(values),
        f"p{q * 100:g}": percentile(values, q),
        "n": n,
        "beyond": above,
    }


def highest_supported(
    values: Sequence[float], candidates: Sequence[float] = (0.99, 0.975, 0.95, 0.9)
) -> Dict:
    """The highest candidate percentile with ``MIN_BEYOND`` samples above it."""
    for q in candidates:
        if samples_beyond(len(values), q) >= MIN_BEYOND:
            return {f"p{q * 100:g}": percentile(values, q), "n": len(values)}
    return {"n": len(values)}


def median_segments(timelines: Sequence[Sequence[float]]) -> List[float]:
    """One timeline rebuilt from the median repetition of every segment.

    Each timeline holds the offsets ``t0, t1, ..., tn`` of the same
    sequence of events in one repetition of identical work.  Segment ``i``
    lasts ``t[i] - t[i-1]``; the result holds the offsets ``0, c1, ..., cn``
    where ``c_j`` sums the median duration of segments 1..j over the
    repetitions, so one repetition that ran slow or was rescaled wrongly
    in a stretch moves no segment.
    """
    if not timelines:
        raise ValueError("no timelines")
    length = len(timelines[0])
    if any(len(timeline) != length for timeline in timelines):
        raise ValueError("timelines differ in length: the repetitions did different work")
    offsets = [0.0]
    for index in range(1, length):
        offsets.append(
            offsets[-1]
            + statistics.median(timeline[index] - timeline[index - 1] for timeline in timelines)
        )
    return offsets


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
