"""Summary statistics and exact counts used by the benchmark."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail metric may report, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def tail(samples) -> dict | None:
    """Value at the highest listed percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    samples is the one at rank ``ceil(p/100 * n)``, and the samples beyond
    it are the ``n - rank`` that follow.  Returns None when even the median
    has fewer than ten samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_PERCENTILES:
        # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))
        if n - rank >= TAIL_MIN_BEYOND:
            best = {"percentile": p, "value": xs[rank - 1], "beyond": n - rank, "samples": n}
    return best


def spread(values) -> float:
    """Inter-quartile distance of *values* as a share of their median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def stirling2(m: int, k: int) -> int:
    """Number of ways to split m items into exactly k non-empty blocks.

    Inclusion-exclusion over the blocks left empty, in exact integers.
    """
    if m < 0 or k < 0:
        raise ValueError(f"need m, k >= 0, got m={m}, k={k}")
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))
    return total // math.factorial(k)


def worsening(first: float, second: float, better: str) -> float:
    """Share by which *second* is worse than *first*; negative if better.

    *better* is ``"lower"`` or ``"higher"``, as in ``BENCHMARK.json``.
    """
    change = (second - first) / first
    return change if better == "lower" else -change
