"""Per-layer measurement for the traced runs.

Two sources, and nothing added to the program itself:

* :class:`SpanLog` wraps the public entry points of in-process layers
  (instance attributes shadowing the class methods, removed again by
  :meth:`SpanLog.restore`) and records one ``(thread, start, end, tag)``
  span per call;
* :func:`hist_delta` / :func:`counter_delta` difference the histograms
  and counters the program already exports (``obs.snapshot()`` in
  process, ``ShardedAlexIndex.metrics_snapshot()`` across workers), for
  layers that run in worker processes and cannot be wrapped.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import percentile_from_snapshot

Span = Tuple[int, int, int, object]


class SpanLog:
    """Records a span for every call of the wrapped methods."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[Span]] = {}
        self._undo: List[Tuple[object, str]] = []

    def wrap(self, obj, name: str, layer: str,
             tag: Optional[Callable] = None,
             probe: Optional[Callable] = None) -> None:
        """Time every call of ``obj.name`` into ``layer``.  The span
        remembers ``tag(args)``, or ``(probe(), probe())`` read before
        and after the call."""
        inner = getattr(obj, name)
        log = self.spans.setdefault(layer, [])
        clock = time.perf_counter_ns
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            before = probe() if probe else None
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                if tag:
                    note = tag(args)
                elif probe:
                    note = (before, probe())
                else:
                    note = None
                log.append((ident(), start, end, note))

        setattr(obj, name, wrapper)
        self._undo.append((obj, name))

    def restore(self) -> None:
        """Remove every wrapper (the class methods show through again)."""
        for obj, name in reversed(self._undo):
            delattr(obj, name)
        self._undo.clear()

    def get(self, layer: str) -> List[Span]:
        return self.spans.get(layer, [])

    def threads(self, *layers: str) -> List[Tuple[int, int, int]]:
        """``(thread, start, end)`` of every span of ``layers``."""
        return [(t, s, e) for layer in layers for t, s, e, _ in self.get(layer)]

    def durations_ns(self, *layers: str) -> np.ndarray:
        return np.array([e - s for layer in layers
                         for _, s, e, _ in self.get(layer)], dtype=np.int64)


def hist_delta(after: dict, before: dict, names) -> dict:
    """One histogram snapshot holding what histograms ``names`` recorded
    between two registry snapshots (bucket counts and sums subtract)."""
    counts: Dict[int, int] = {}
    total, acc = 0, 0.0
    for name in names:
        a = after["histograms"].get(name)
        if a is None:
            continue
        b = before["histograms"].get(name, {"counts": {}, "count": 0,
                                            "sum": 0.0})
        for bucket, n in a["counts"].items():
            n -= b["counts"].get(bucket, 0)
            if n:
                counts[bucket] = counts.get(bucket, 0) + n
        total += a["count"] - b["count"]
        acc += a["sum"] - b["sum"]
    return {"count": total, "sum": acc, "min": None, "max": None,
            "counts": counts}


def hist_percentile_us(delta: dict, q: float) -> float:
    """Percentile of a nanosecond histogram delta, in microseconds
    (0.0 when it recorded nothing)."""
    value = percentile_from_snapshot(delta, q)
    return 0.0 if value is None else value / 1e3


def counter_delta(after: dict, before: dict, name: str) -> int:
    return (after["counters"].get(name, 0)
            - before["counters"].get(name, 0))


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was measured (the layer is not
    on this workload's path)."""
    return float(num) / den if den else 0.0


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of the given processes."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_seconds(pids) -> float:
    """Summed user and system CPU time of the given processes, every
    thread included (``/proc/<pid>/stat``, in clock ticks)."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            # Fields after the parenthesised name; utime and stime are
            # the 14th and 15th of the whole line.
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def kernel_dispatch(counters: dict) -> Dict[str, int]:
    """``{backend: dispatches}`` summed over every ``kernel.dispatch.*``
    counter, replica-prefixed ones included."""
    marker = "kernel.dispatch."
    out: Dict[str, int] = {}
    for name, n in counters.items():
        if marker in name and n:
            backend = name.split(marker, 1)[1]
            out[backend] = out.get(backend, 0) + n
    return out


def check_cffi_only(counters: dict) -> int:
    """Refuse a run whose kernels fell back from cffi; returns the cffi
    dispatch count."""
    dispatched = kernel_dispatch(counters)
    if set(dispatched) != {"cffi"}:
        raise RuntimeError(f"kernel dispatch was {dispatched}, not cffi "
                           "only: the run would not measure the compiled "
                           "kernels")
    return dispatched["cffi"]
