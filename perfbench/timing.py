"""Timing helpers shared by every workload of the benchmark.

One definition of each statistic, used everywhere:

* :func:`median` and :func:`quartiles` summarise repeated measurements
  (never a best-of ``min()``);
* :func:`percentile` is nearest-rank, and :func:`tail_percentile` picks
  the highest percentile of a ladder that still has at least
  :data:`TAIL_SUPPORT` samples beyond it, so a reported tail is never
  one or two unlucky samples;
* :func:`windowed_percentile` and :func:`windowed_rate` report the
  median over consecutive windows of a run, so an episode of noise on a
  shared host moves one window rather than the metric;
* :func:`open_loop_times` turns an open-loop schedule into latencies
  counted from each request's *scheduled* arrival plus the generator's
  own lateness;
* :func:`union_length`, :func:`self_time` and :func:`self_times`
  compute a span's self time: its duration minus the part of it that
  child spans cover (overlapping children are counted once).

Times are integer nanoseconds from ``time.perf_counter_ns`` unless a
name says otherwise.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Samples a percentile needs beyond it before it may be reported.
TAIL_SUPPORT = 10

#: Percentiles a tail summary chooses from, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

Interval = Tuple[int, int]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if len(values) == 0:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (the epsilon keeps ``99.9 * 10000 / 100`` from rounding up past an
    exact rank)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def beyond_count(n: int, q: float) -> int:
    """Samples ranked strictly after the nearest-rank ``q``-th
    percentile of ``n`` samples."""
    return n - _rank(n, q)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`TAIL_SUPPORT` beyond
    the ``q``-th percentile."""
    return n > 0 and beyond_count(n, q) >= TAIL_SUPPORT


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("percentile of no values")
    return float(arr[_rank(arr.size, q) - 1])


def windowed_percentile(values, q: float, windows: int) -> float:
    """Median, over ``windows`` consecutive equal slices of ``values``
    (in the order given, e.g. arrival order), of each slice's ``q``-th
    percentile.  One stall then moves one window's tail, not the
    reported one.  Every slice must support ``q``."""
    arr = np.asarray(values, dtype=np.float64)
    parts = np.array_split(arr, windows)
    for part in parts:
        if not supported(len(part), q):
            raise ValueError(f"a window of {len(part)} samples cannot "
                             f"support p{q:g}")
    return median([percentile(part, q) for part in parts])


def tail_percentile(n: int,
                    ladder: Sequence[float] = PERCENTILE_LADDER
                    ) -> Optional[float]:
    """The highest ladder percentile that ``n`` samples support
    (``None`` when not even the median has enough samples beyond it)."""
    best = None
    for q in ladder:
        if supported(n, q):
            best = q
    return best


def windowed_rate(times, start: float, end: float, windows: int,
                  weight: float = 1.0) -> float:
    """Median, over ``windows`` equal slices of ``[start, end]``, of the
    events per unit time in each slice; every event at ``times`` counts
    ``weight``."""
    edges = np.linspace(start, end, windows + 1)
    counts, _ = np.histogram(np.asarray(times, dtype=np.float64), edges)
    width = (end - start) / windows
    return median([count * weight / width for count in counts])


def open_loop_times(scheduled: np.ndarray, issued: np.ndarray,
                    done: np.ndarray, ok: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """``(latency, lag)`` of an open-loop run, in the input's units.

    Latency runs from each request's *scheduled* arrival to its
    completion, so a stall also delays every request due behind it; a
    failed request has no latency.  Lag is how late the generator issued
    each request against its schedule."""
    scheduled = np.asarray(scheduled)
    lag = np.asarray(issued) - scheduled
    ok = np.asarray(ok, dtype=bool)
    latency = (np.asarray(done) - scheduled)[ok]
    return latency, lag


def union_length(intervals: Iterable[Interval],
                 lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """Total length covered by the union of ``intervals``, clipped to
    ``[lo, hi]`` when given."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(parent: Interval, children: Iterable[Interval]) -> int:
    """``parent``'s duration minus the part its children cover."""
    start, end = parent
    return (end - start) - union_length(children, start, end)


def self_times(parents: Sequence[Tuple[int, int, int]],
               children: Sequence[Tuple[int, int, int]]) -> List[int]:
    """Self time of every ``(thread, start, end)`` parent span, where a
    child counts when it runs on the parent's thread and starts inside
    the parent (in-process wrappers nest that way)."""
    by_thread: Dict[int, List[Tuple[int, int]]] = {}
    for thread, start, end in children:
        by_thread.setdefault(thread, []).append((start, end))
    starts: Dict[int, List[int]] = {}
    for thread, spans in by_thread.items():
        spans.sort()
        starts[thread] = [s for s, _ in spans]
    out = []
    for thread, start, end in parents:
        spans = by_thread.get(thread, ())
        if spans:
            keys = starts[thread]
            lo = bisect.bisect_left(keys, start)
            hi = bisect.bisect_left(keys, end)
            spans = spans[lo:hi]
        out.append(self_time((start, end), spans))
    return out
