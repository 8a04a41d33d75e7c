"""Order statistics and span arithmetic used by the benchmark harness.

Percentiles are nearest-rank (deterministic, always an observed
sample).  A tail percentile is only worth reporting when at least
:data:`MIN_BEYOND` samples lie beyond it; :func:`tail` says how many do.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a tail percentile for it to mean anything.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile (``0 < p <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``p``-th
    percentile."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(p * n / 100.0))


def tail(values: Sequence[float], p: float) -> Dict[str, float]:
    """A tail percentile with its sample count and the count beyond it
    (trust it only when that is at least :data:`MIN_BEYOND`)."""
    return {"value": nearest_rank(values, p), "n": len(values),
            "beyond": beyond(len(values), p)}


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and count of repeated
    measurements (quartiles as ``statistics.quantiles(values, n=4)``)."""
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = float(values[0])
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": float(statistics.median(values)),
        "q1": float(q1),
        "q3": float(q3),
        "n": len(values),
    }


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals count once, so children that run concurrently
    (threads, other processes) never cover more than the parent lasted.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals
        if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are mappings with ``id``, ``parent`` (``None`` for a
    root), ``start`` and ``end``.  A child is any span naming the
    parent's id, whatever process or thread recorded it.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"]) - covered(
            children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
