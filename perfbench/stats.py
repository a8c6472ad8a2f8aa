"""The benchmark's own arithmetic: quantiles, spreads, span self times.

Everything here is pure and covered by ``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation between order statistics.

    This is the "inclusive" definition (numpy's default): the minimum
    is quantile 0, the maximum quantile 1.  An empty sample is an error,
    never a silent 0.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` exactly as the acceptance
    check does, so a spread computed here is the one that is judged.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


#: Chunks :func:`median_rate` splits a run's completions into.
CHUNKS = 10
#: Samples a tail quantile needs beyond it to be reported as supported.
TAIL_SAMPLES = 10


def median_rate(done: Sequence[float]) -> float:
    """Completions per second over the median of about :data:`CHUNKS`
    runs of consecutive completions.

    A throughput taken as total work over total time moves with every
    transient slowdown of a shared host; the median chunk does not,
    unless the slowdown lasts most of the run.
    """
    times = sorted(done)
    if len(times) < 2:
        raise ValueError("need at least two completions")
    per_chunk = max(1, (len(times) - 1) // CHUNKS)
    rates = [
        per_chunk / max(times[i + per_chunk] - times[i], 1e-9)
        for i in range(0, len(times) - per_chunk, per_chunk)
    ]
    return statistics.median(rates)


def tail_supported(count: int, q: float) -> bool:
    """Whether a sample of ``count`` leaves :data:`TAIL_SAMPLES` values
    above ``q``."""
    return count * (1.0 - q) >= TAIL_SAMPLES


def self_times(spans: Iterable[Sequence]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    A span is ``(span_id, parent_id, layer, start, end, leaf_seconds,
    ...)``; ``parent_id`` is -1 for a root.  Children are clipped to the
    parent's interval and overlapping children are counted once (the
    union of their intervals), so concurrent children can never drive a
    self time below zero.  ``leaf_seconds`` is time spent in aggregated
    leaf calls (see :mod:`perfbench.spans`) made directly under the
    span; it is subtracted as well.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[3], span[4]))
    result: Dict[int, float] = {}
    for span in spans:
        span_id, _parent, _layer, start, end, leaf_seconds = span[:6]
        covered = _union_length(
            [
                (max(s, start), min(e, end))
                for s, e in children.get(span_id, ())
                if min(e, end) > max(s, start)
            ]
        )
        result[span_id] = max(0.0, (end - start) - covered - leaf_seconds)
    return result


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
