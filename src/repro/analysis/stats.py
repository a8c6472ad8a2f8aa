"""Summary statistics for multi-seed experiment runs.

:mod:`scipy.stats` is imported by the first confidence interval a
process computes (:func:`mean_confidence_interval`), not by importing
this module: loading it takes about 0.6 s, which a process that never
summarizes a series should not pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SeriesSummary:
    """Mean / spread of one measured series."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} +/- {self.std:.4f} "
            f"[{self.minimum:.4f}, {self.maximum:.4f}] (n={self.count})"
        )


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """(mean, low, high) of a t-based confidence interval.

    Degenerate inputs behave sensibly: a single value gets a zero-width
    interval; an empty input raises.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty series")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean
    from scipy import stats as scipy_stats

    sem = float(scipy_stats.sem(arr))
    if sem == 0.0:
        return mean, mean, mean
    low, high = scipy_stats.t.interval(
        confidence, df=arr.size - 1, loc=mean, scale=sem
    )
    return mean, float(low), float(high)


def summarize_series(
    values: Sequence[float], confidence: float = 0.95
) -> SeriesSummary:
    """Full summary of one series across seeds."""
    arr = np.asarray(list(values), dtype=float)
    mean, low, high = mean_confidence_interval(arr, confidence)
    return SeriesSummary(
        mean=mean,
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        count=int(arr.size),
        ci_low=low,
        ci_high=high,
    )


@dataclass(frozen=True)
class ApproximationSummary:
    """Greedy-vs-optimal ratio statistics (the Lemma 4.1 check)."""

    worst_ratio: float
    mean_ratio: float
    count: int
    all_above_half: bool

    def __str__(self) -> str:
        return (
            f"ratio worst={self.worst_ratio:.4f} mean={self.mean_ratio:.4f} "
            f"(n={self.count}, >=1/2: {self.all_above_half})"
        )


def summarize_ratios(
    achieved: Sequence[float], optimal: Sequence[float], tol: float = 1e-9
) -> ApproximationSummary:
    """Ratios achieved/optimal with the 1/2-approximation verdict.

    Instances with zero optimum are counted as ratio 1 (nothing to
    achieve; the greedy trivially matches).
    """
    if len(achieved) != len(optimal):
        raise ValueError(
            f"length mismatch: {len(achieved)} achieved vs {len(optimal)} optimal"
        )
    if not achieved:
        raise ValueError("cannot summarize zero instances")
    ratios = []
    for a, o in zip(achieved, optimal):
        if o <= tol:
            ratios.append(1.0)
        else:
            ratios.append(a / o)
    arr = np.asarray(ratios)
    worst = float(arr.min())
    return ApproximationSummary(
        worst_ratio=worst,
        mean_ratio=float(arr.mean()),
        count=int(arr.size),
        all_above_half=bool(worst >= 0.5 - tol),
    )
