"""Order statistics for job latencies, with the sample-count rule.

A latency percentile is reported only when at least ``MIN_TAIL`` samples lie
beyond it, so p90 needs 100 jobs and p99 needs 1000.

Percentiles use the Harrell-Davis estimator: a weighted mean of all order
statistics, with the weights a Beta(q (n+1), (1-q) (n+1)) distribution puts
on each rank.  A single order statistic (the nearest rank) jumps whenever
noise reorders the few jobs next to that rank; averaging over the ranks
around it made the p50 of search-scan, whose job sizes are spread thinly
around the median, about three times steadier from run to run.
"""

from __future__ import annotations

import math

import numpy as np

MIN_TAIL = 10
# Points of the grid on which the Beta weights are integrated; the narrowest
# Beta used (p99 of 1000 samples) is about 600 grid points wide.
_GRID = 200_000


def min_samples(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile has MIN_TAIL beyond it."""
    return math.ceil(MIN_TAIL / (1.0 - q / 100.0) - 1e-9)


def reportable(q: float, n: int) -> bool:
    return n >= min_samples(q)


def _weights(n: int, p: float) -> np.ndarray:
    """Beta(p (n+1), (1-p) (n+1)) mass on each interval [(i-1)/n, i/n]."""
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    x = np.linspace(0.0, 1.0, _GRID + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    edges = np.interp(np.arange(n + 1) / n, x, cdf / cdf[-1])
    return np.diff(edges)


def percentile(values, q: float) -> float:
    """Harrell-Davis percentile; raises if the sample-count rule is not met."""
    n = len(values)
    if q != 50 and not reportable(q, n):
        raise ValueError(f"p{q:g} needs at least {min_samples(q)} samples, got {n}")
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return float(values[0])
    return float(np.dot(_weights(n, q / 100.0), np.sort(np.asarray(values, dtype=float))))
