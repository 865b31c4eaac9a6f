"""The benchmark's load generator: one issuing thread, open or closed loop.

``submit(i)`` hands request ``i`` of a pre-drawn workload to the system
and returns a ``concurrent.futures.Future``; the generator never does
data-dependent work on the clock.  Completion callbacks keep only the
completion time and the result, not the future, so the generator adds
as little as it can to the heap the collector scans in the process it
shares with the ingress.

* :func:`open_loop` issues on a Poisson schedule regardless of replies
  (independent users), recording when each request was due, when it was
  actually issued, and when it completed.
* :func:`closed_loop` keeps a fixed number of requests outstanding and
  records when each success landed (saturation throughput).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

import timing

#: Longest the generator waits for the stragglers of one phase.
DRAIN_TIMEOUT_S = 60.0


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration_s: float) -> np.ndarray:
    """Arrival offsets (seconds from phase start) of a Poisson process
    at ``rate`` per second, truncated to ``duration_s``."""
    n = int(rate * duration_s * 1.3) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while offsets[-1] < duration_s:      # vanishingly rare: draw more
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration_s]


class _Collector:
    """Completion bookkeeping shared by both loops: per-request done
    time, success flag and result, plus a count of requests in flight."""

    def __init__(self, capacity: int) -> None:
        self.done = np.zeros(capacity, dtype=np.int64)
        self.ok = np.zeros(capacity, dtype=bool)
        self.results: List = [None] * capacity
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._outstanding = 0

    def track(self, future, i: int, on_done=None) -> None:
        with self._lock:
            self._outstanding += 1
            self._idle.clear()

        def callback(f) -> None:
            self.done[i] = time.perf_counter_ns()
            try:
                self.results[i] = f.result()
                self.ok[i] = True
            except Exception:   # noqa: BLE001 - counted as failed
                self.ok[i] = False
            if on_done is not None:
                on_done()
            with self._lock:
                self._outstanding -= 1
                if self._outstanding == 0:
                    self._idle.set()

        future.add_done_callback(callback)

    def drain(self) -> None:
        if not self._idle.wait(DRAIN_TIMEOUT_S):
            raise RuntimeError("requests still outstanding after "
                               f"{DRAIN_TIMEOUT_S} s")


@dataclass
class OpenLoopRun:
    """Per-request timestamps (ns), outcomes and results of one
    open-loop phase."""

    scheduled: np.ndarray
    issued: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    results: List = field(repr=False)
    #: CPU seconds the system under test spent in the phase, when the
    #: caller measured it.
    cpu_s: float = 0.0

    @property
    def n(self) -> int:
        return len(self.results)


def open_loop(submit: Callable[[int], object], offsets_s: np.ndarray,
              first: int = 0) -> OpenLoopRun:
    """Issue requests ``first .. first + len(offsets_s) - 1`` at their
    scheduled offsets and wait for all of them."""
    n = len(offsets_s)
    issued = np.zeros(n, dtype=np.int64)
    collector = _Collector(n)
    t0 = time.perf_counter_ns() + 1_000_000
    scheduled = t0 + np.round(np.asarray(offsets_s) * 1e9).astype(np.int64)
    for i in range(n):
        wait = int(scheduled[i]) - time.perf_counter_ns()
        if wait > 0:
            time.sleep(wait / 1e9)
        issued[i] = time.perf_counter_ns()
        collector.track(submit(first + i), i)
    collector.drain()
    return OpenLoopRun(scheduled, issued, collector.done, collector.ok,
                       collector.results)


@dataclass
class ClosedLoopRun:
    """Outcome of one saturation phase."""

    seconds: float
    #: Completion time (seconds from the phase start) of every success
    #: that landed inside the window.
    finished_s: np.ndarray
    ok: np.ndarray
    results: List = field(repr=False)

    @property
    def issued(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return int(self.issued - self.ok.sum())

    def throughput(self, windows: int) -> float:
        """Successes per second: the median over ``windows`` equal
        slices of the window."""
        return timing.windowed_rate(self.finished_s, 0.0, self.seconds,
                                    windows)


def closed_loop(submit: Callable[[int], object], concurrency: int,
                seconds: float, capacity: int,
                first: int = 0) -> ClosedLoopRun:
    """Keep ``concurrency`` requests outstanding for ``seconds``.  Room
    for ``capacity`` requests running out first refuses the run: the
    window's last slices would count no completions."""
    slots = threading.Semaphore(concurrency)
    collector = _Collector(capacity)
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while i < capacity and time.perf_counter_ns() < deadline:
        if not slots.acquire(timeout=0.05):
            continue
        collector.track(submit(first + i), i, on_done=slots.release)
        i += 1
    stopped = time.perf_counter_ns()
    collector.drain()
    if stopped < deadline:
        raise RuntimeError(f"closed loop issued all {capacity} requests "
                           f"before its {seconds} s deadline")
    ok = collector.ok[:i]
    finished_s = (collector.done[:i][ok] - start) / 1e9
    return ClosedLoopRun(seconds, finished_s[finished_s <= seconds], ok,
                         collector.results[:i])
