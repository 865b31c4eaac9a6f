"""In-node search primitives: exponential search and bounded binary search.

ALEX uses *exponential search* outward from the model's predicted position
(Section 3.2): when the model is accurate the search terminates after a few
probes, and no error bounds need to be stored.  The Learned Index baseline
instead stores per-model error bounds and runs *binary search* within them.
Figure 11 of the paper compares the two; ``benchmarks/bench_fig11`` replays
that comparison using these exact routines.

All routines return the *lower-bound* position: the leftmost index ``i`` in
``[lo, hi)`` with ``keys[i] >= target`` (or ``hi`` when no such index
exists).  They work on the gap-filled key arrays of the data nodes (where a
gap slot holds a copy of its nearest real right neighbour), because those
arrays are non-decreasing by construction.

The ``*_many_counted`` variants are the batch engine's search layer: they
take an array of targets (and per-target hints / bounds) and run every
search in lock-step with NumPy, producing positions identical to the
scalar routines.  The per-lane probe counts come back summed, so the
kernel charges them in a single update and the algorithmic-work
accounting matches a loop over the scalar routines exactly.

The ``*_counted`` cores return ``(positions, charge)`` instead of touching
counters; they are the primitives behind the ``numpy`` kernel backend
(:mod:`repro.core.kernels`), which the compiled backends are
property-tested against.  The scalar routines without the suffix charge
a :class:`~repro.core.stats.Counters` themselves, for the baselines and
the Figure 11 bench.
"""

from __future__ import annotations

import numpy as np

from .stats import Counters


def lower_bound_counted(keys: np.ndarray, target: float,
                        lo: int, hi: int) -> tuple:
    """:func:`lower_bound` core: ``(position, halving_steps)``."""
    steps = 0
    while lo < hi:
        mid = (lo + hi) // 2
        steps += 1
        if keys[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo, steps


def lower_bound(keys: np.ndarray, target: float, lo: int, hi: int,
                counters: Counters | None = None) -> int:
    """Plain binary search for the leftmost position with ``key >= target``.

    ``keys[lo:hi]`` must be non-decreasing.  Counts one comparison and one
    probe per halving step.
    """
    pos, steps = lower_bound_counted(keys, target, lo, hi)
    if counters is not None:
        counters.comparisons += steps
        counters.probes += steps
    return pos


def exponential_search_counted(keys: np.ndarray, target: float, hint: int,
                               lo: int, hi: int) -> tuple:
    """:func:`exponential_search` core: ``(position, total_charge)`` where
    the charge covers both the bracket-growing probes and the final
    binary-search steps (each is billed to comparisons *and* probes by
    the wrappers)."""
    if hi <= lo:
        return lo, 0
    if hint < lo:
        hint = lo
    elif hint >= hi:
        hint = hi - 1

    probes = 0
    if keys[hint] >= target:
        # Target is at or to the left of the hint: grow the bracket leftward.
        bound = 1
        left = hint - bound
        while left >= lo and keys[left] >= target:
            probes += 1
            bound *= 2
            left = hint - bound
        probes += 1
        search_lo = max(lo, hint - bound)
        search_hi = hint - (bound // 2) + 1
    else:
        # Target is to the right of the hint: grow the bracket rightward.
        bound = 1
        right = hint + bound
        while right < hi and keys[right] < target:
            probes += 1
            bound *= 2
            right = hint + bound
        probes += 1
        search_lo = hint + (bound // 2)
        search_hi = min(hi, hint + bound + 1)

    pos, steps = lower_bound_counted(keys, target, search_lo, search_hi)
    return pos, probes + steps


def exponential_search(keys: np.ndarray, target: float, hint: int,
                       lo: int, hi: int,
                       counters: Counters | None = None) -> int:
    """Exponential search outward from ``hint``, then bounded binary search.

    Doubles the step size away from the predicted position until the target
    is bracketed, then finishes with binary search inside the bracket.  Cost
    is ``O(log error)`` where ``error = |actual - hint|``, which is why small
    model errors translate directly into fast lookups (paper Section 5.3.2).
    """
    pos, charge = exponential_search_counted(keys, target, hint, lo, hi)
    if counters is not None:
        counters.comparisons += charge
        counters.probes += charge
    return pos


def lower_bound_many_counted(keys: np.ndarray, targets: np.ndarray,
                             los: np.ndarray, his: np.ndarray) -> tuple:
    """Vectorized :func:`lower_bound` over per-lane ``[los, his)``
    windows: ``(positions, total_steps)``.

    Runs every binary search in lock-step: each iteration halves the window
    of every still-active lane, so the loop runs ``O(log max-width)`` times
    regardless of how many targets there are.  The positions and the total
    step count equal those of calling :func:`lower_bound` once per lane.
    """
    lo = np.asarray(los, dtype=np.int64).copy()
    hi = np.asarray(his, dtype=np.int64).copy()
    steps = 0
    active = lo < hi
    while active.any():
        steps += int(active.sum())
        mid = (lo + hi) >> 1
        probe = np.where(active, mid, 0)
        less = keys[probe] < targets
        go_right = active & less
        go_left = active & ~less
        lo[go_right] = mid[go_right] + 1
        hi[go_left] = mid[go_left]
        active = lo < hi
    return lo, steps


def _grow_brackets(keys: np.ndarray, targets: np.ndarray, hints: np.ndarray,
                   lanes: np.ndarray, bound: np.ndarray, lo: int, hi: int,
                   leftward: bool) -> int:
    """Double ``bound`` (in place) for the ``lanes`` whose exponential
    bracket has not yet crossed the target, exactly as the scalar doubling
    loop does.  Returns the number of probes performed."""
    probes = 0
    active = lanes
    while active.size:
        pos = hints[active] - bound[active] if leftward else hints[active] + bound[active]
        in_bounds = (pos >= lo) if leftward else (pos < hi)
        keep = np.zeros(active.size, dtype=bool)
        idx_in = np.flatnonzero(in_bounds)
        if idx_in.size:
            vals = keys[pos[idx_in]]
            tv = targets[active[idx_in]]
            keep[idx_in] = (vals >= tv) if leftward else (vals < tv)
        grow = active[keep]
        probes += int(grow.size)
        bound[grow] <<= 1
        active = grow
    return probes


def exponential_search_many_counted(keys: np.ndarray, targets: np.ndarray,
                                    hints: np.ndarray, lo: int,
                                    hi: int) -> tuple:
    """Vectorized :func:`exponential_search` over arrays of (target,
    hint): ``(positions, total_charge)``.

    All lanes double their brackets in lock-step (one NumPy pass per
    doubling step over the still-growing lanes), then finish with one
    lock-step bounded binary search.  Positions and the total charge are
    identical to a loop over the scalar routine.
    """
    n = len(targets)
    if hi <= lo:
        return np.full(n, lo, dtype=np.int64), 0
    hints = np.clip(np.asarray(hints, dtype=np.int64), lo, hi - 1)
    targets = np.asarray(targets, dtype=np.float64)

    leftward = keys[hints] >= targets
    bound = np.ones(n, dtype=np.int64)
    probes = n  # the scalar routine's unconditional final probe, per lane
    probes += _grow_brackets(keys, targets, hints, np.flatnonzero(leftward),
                             bound, lo, hi, leftward=True)
    probes += _grow_brackets(keys, targets, hints, np.flatnonzero(~leftward),
                             bound, lo, hi, leftward=False)

    half = bound >> 1
    search_lo = np.where(leftward, np.maximum(lo, hints - bound), hints + half)
    search_hi = np.where(leftward, hints - half + 1,
                         np.minimum(hi, hints + bound + 1))
    pos, steps = lower_bound_many_counted(keys, targets, search_lo, search_hi)
    return pos, probes + steps


def binary_search_bounded(keys: np.ndarray, target: float, hint: int,
                          max_error_left: int, max_error_right: int,
                          lo: int, hi: int,
                          counters: Counters | None = None) -> int:
    """Binary search within stored error bounds around ``hint``.

    This is the search strategy of the Learned Index baseline (Kraska et
    al.): each model stores the largest observed under- and over-prediction,
    and lookup binary-searches ``[hint - max_error_left, hint +
    max_error_right]``.  Cost is ``O(log(bound width))`` regardless of the
    actual error, which is the weakness Figure 11 illustrates.
    """
    search_lo = max(lo, hint - max_error_left)
    search_hi = min(hi, hint + max_error_right + 1)
    pos = lower_bound(keys, target, search_lo, search_hi, counters)
    # Guard against stale bounds (possible between inserts and retrains in
    # the baseline): if the answer lands on the edge of the bounded window,
    # the true position may lie outside it, so widen the search.
    if pos == search_hi and search_hi < hi:
        pos = lower_bound(keys, target, search_hi, hi, counters)
    elif pos == search_lo and search_lo > lo:
        pos = lower_bound(keys, target, lo, search_lo + 1, counters)
    return pos
