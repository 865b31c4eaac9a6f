"""The space-time frontier of Section 4, made computable.

The paper's analysis (Section 4) and the Figure 10 experiment are two
views of one trade-off: expansion factor ``c`` buys direct hits, direct
hits buy search time, and past Theorem 1's threshold more space buys
nothing.  This module sweeps ``c`` and produces the *frontier*:

    (space bytes per key, expected search probes per lookup)

using the theorem machinery for the hit fraction and the exponential-
search cost model (``~ 2*log2(error+1) + 2`` probes) for the misses.  The
knee of this curve is where a deployment should sit;
:func:`recommend_expansion_factor` finds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.linear_model import LinearModel

from .theorems import empirical_direct_hits, min_c_for_all_direct_hits


@dataclass(frozen=True)
class FrontierPoint:
    """One sweep point of the space-time frontier."""

    c: float
    bytes_per_key: float
    direct_hit_fraction: float
    expected_probes: float


def _expected_probes(keys: np.ndarray, c: float) -> float:
    """Expected exponential-search probes at expansion factor ``c``.

    Simulates the idealized model-based placement (same machinery as the
    theorems) and averages ``2*log2(|error| + 1) + 2`` over all keys.
    """
    keys = np.sort(np.asarray(keys, dtype=np.float64))
    n = len(keys)
    if n == 0:
        return 0.0
    model = LinearModel.train(keys, np.arange(n, dtype=np.float64))
    predicted = np.floor(c * (model.slope * keys + model.intercept)).astype(np.int64)
    placements = np.empty(n, dtype=np.int64)
    last = None
    for i in range(n):
        pos = int(predicted[i])
        if last is not None and pos <= last:
            pos = last + 1
        placements[i] = pos
        last = pos
    errors = np.abs(placements - predicted)
    return float(np.mean(2.0 * np.log2(errors + 1.0) + 2.0))


def space_time_frontier(keys: np.ndarray,
                        c_values: Sequence[float] = (
                            1.0, 1.2, 1.43, 2.0, 3.0, 4.0, 8.0),
                        record_bytes: int = 16) -> List[FrontierPoint]:
    """Sweep ``c`` and return the frontier points for ``keys``."""
    keys = np.sort(np.asarray(keys, dtype=np.float64))
    n = max(1, len(keys))
    points = []
    for c in c_values:
        hits = empirical_direct_hits(keys, c)
        points.append(FrontierPoint(
            c=c,
            bytes_per_key=c * record_bytes,
            direct_hit_fraction=hits / n,
            expected_probes=_expected_probes(keys, c),
        ))
    return points


def recommend_expansion_factor(keys: np.ndarray,
                               c_values: Sequence[float] = (
                                   1.0, 1.2, 1.43, 2.0, 3.0, 4.0, 8.0),
                               space_weight: float = 0.1) -> FrontierPoint:
    """Pick the sweep point minimizing ``probes + space_weight * c``.

    ``space_weight`` expresses how many search probes one extra unit of
    ``c`` is worth; the default mildly penalizes space, which lands near
    the paper's 43%-overhead default on typical data.
    """
    frontier = space_time_frontier(keys, c_values)
    saturated_at = min_c_for_all_direct_hits(keys)
    best = min(frontier,
               key=lambda p: p.expected_probes + space_weight * p.c)
    # Past the Theorem 1 threshold more space cannot help; never recommend
    # beyond it.
    if np.isfinite(saturated_at) and best.c > saturated_at:
        eligible = [p for p in frontier if p.c <= saturated_at] or frontier
        best = min(eligible,
                   key=lambda p: p.expected_probes + space_weight * p.c)
    return best
