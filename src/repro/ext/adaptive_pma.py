"""Adaptive PMA leaf node (paper Section 7, "Data Skew").

The paper: "the adaptive PMA [6] could, in theory, prevent the adversarial
case shown in Figure 5c."  Bender & Hu's *adaptive* PMA departs from the
uniform rebalance: it watches where inserts land and, when redistributing
a window, leaves extra gaps near the insertion hotspot (an unbalanced
rebalance), so a sequential insert stream keeps finding local gaps instead
of shifting the same packed suffix forever.

:class:`AdaptivePMANode` implements a predictor-based version of that
idea on top of :class:`~repro.core.pma.PMANode`:

* an exponentially-decayed histogram of recent insert segments (the
  "predictor");
* redistribution allocates gaps to each segment of the window
  proportionally to ``1 + boost * hotness``, so hot segments end up
  sparser and cold segments denser (within the density bounds).

``benchmarks/bench_ext_apma.py`` replays the Figure 5c stream and shows
the adaptive rebalance cutting shifts-per-insert versus the plain PMA.
"""

from __future__ import annotations

import numpy as np

from repro.core.data_node import gap_value
from repro.core.pma import PMANode

#: Decay applied to segment hotness on every insert (half-life ~ 70 inserts).
_DECAY = 0.99
#: How strongly hotness skews the gap allocation.
_BOOST = 3.0


class AdaptivePMANode(PMANode):
    """PMA leaf with hotspot-aware (unbalanced) rebalances."""

    def __init__(self, config, counters):
        super().__init__(config, counters)
        self._hotness = np.zeros(0, dtype=np.float64)

    # -- predictor --------------------------------------------------------

    def _ensure_hotness(self) -> None:
        segments = max(1, self.capacity // self.segment_size)
        if len(self._hotness) != segments:
            self._hotness = np.zeros(segments, dtype=np.float64)

    def _record_insert(self, pos: int) -> None:
        self._ensure_hotness()
        self._hotness *= _DECAY
        segment = min(pos // self.segment_size, len(self._hotness) - 1)
        self._hotness[segment] += 1.0

    def insert(self, key: float, payload=None) -> None:
        """Insert and feed the hotspot predictor."""
        super().insert(key, payload)
        pos = self.find_key(key)
        if pos >= 0:
            self._record_insert(pos)

    # -- unbalanced rebalance ----------------------------------------------

    def _redistribute(self, lo: int, hi: int) -> None:
        """Respace ``[lo, hi)`` leaving more gaps in hot segments.

        Falls back to the uniform rebalance when the predictor has no
        signal (cold node, or window narrower than one segment).
        """
        self._ensure_hotness()
        seg = self.segment_size
        first_seg = lo // seg
        last_seg = (hi - 1) // seg + 1
        window_hotness = self._hotness[first_seg:last_seg]
        if window_hotness.sum() <= 1e-9 or (hi - lo) <= seg:
            super()._redistribute(lo, hi)
            return

        positions = np.flatnonzero(self.occupied[lo:hi]) + lo
        count = len(positions)
        if count == 0:
            return
        keys = self.keys[positions].copy()
        payloads = self.payloads[positions]
        self.occupied[lo:hi] = False
        self.payloads[lo:hi] = gap_value(payloads.dtype)

        # Weight per segment: hot segments get *more gaps*, i.e. fewer
        # elements.  Element share is inversely proportional to
        # (1 + boost * normalized hotness).
        hot = window_hotness / window_hotness.max()
        element_weight = 1.0 / (1.0 + _BOOST * hot)
        quota = element_weight / element_weight.sum() * count
        # Integerize the per-segment element quotas, capping at segment
        # capacity and fixing rounding drift left to right.
        quotas = np.floor(quota).astype(np.int64)
        remainder = count - int(quotas.sum())
        order = np.argsort(-(quota - quotas))
        for i in range(remainder):
            quotas[order[i % len(order)]] += 1
        quotas = np.minimum(quotas, seg)
        # Spill overflow (from capping) into the least-hot segments.
        overflow = count - int(quotas.sum())
        if overflow > 0:
            for s in np.argsort(hot):
                room = seg - int(quotas[s])
                take = min(room, overflow)
                quotas[s] += take
                overflow -= take
                if overflow == 0:
                    break
        # Place elements segment by segment, evenly within each segment.
        placed = 0
        for s, quota_s in enumerate(quotas):
            seg_lo = lo + s * seg
            quota_s = int(quota_s)
            if quota_s == 0:
                continue
            targets = seg_lo + (np.arange(quota_s) * seg) // quota_s
            self.keys[targets] = keys[placed:placed + quota_s]
            self.occupied[targets] = True
            self.payloads[targets] = payloads[placed:placed + quota_s]
            placed += quota_s
        assert placed == count, "adaptive rebalance lost elements"
        self.counters.rebalance_moves += count
        self._refill_gap_keys(lo, hi)

    def _model_based_build(self, keys, payloads, capacity) -> None:
        super()._model_based_build(keys, payloads, capacity)
        # Capacity may have changed: reset the predictor's geometry but
        # keep no stale signal (the layout was just rebuilt anyway).
        self._hotness = np.zeros(max(1, self.capacity // self.segment_size),
                                 dtype=np.float64)

    def hotspot_profile(self) -> np.ndarray:
        """The current per-segment hotness (diagnostics and tests)."""
        self._ensure_hotness()
        return self._hotness.copy()
