"""Packed Memory Array leaf node (paper Section 3.3.2, Algorithm 2).

A PMA keeps its gaps *uniformly spaced* by construction: the array (always a
power-of-two capacity) is divided into power-of-two segments, an implicit
binary tree is built over the segments, and each tree level carries an upper
density bound — high near the leaves, low near the root (Bender & Hu).  When
an insert would violate a segment's bound, the smallest enclosing window
that can absorb the insert is *rebalanced*: its elements are redistributed
uniformly.  When even the root window cannot absorb the insert, the array
doubles.

ALEX-specific deviation (Section 3.3.2): after an *expansion* the keys are
re-inserted **model-based** (Algorithm 3) rather than uniformly, so the node
starts each doubling epoch with gapped-array-like search locality and drifts
toward uniform spacing as rebalances accumulate — "a middle ground between
the performances of the gapped array and the regular PMA."
"""

from __future__ import annotations

import math

import numpy as np

from .data_node import DataNode, gap_value


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= ``n`` (>= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


class PMANode(DataNode):
    """ALEX leaf node backed by a Packed Memory Array."""

    def _initial_capacities(self, sizes: np.ndarray) -> np.ndarray:
        """Power-of-two capacities targeting the same ``c = 1/d**2`` space
        budget as the gapped array (for a fair space comparison):
        :func:`next_power_of_two` of each, through the exponent
        :func:`numpy.frexp` gives ``target - 1`` (its bit length)."""
        targets = super()._initial_capacities(sizes)
        return np.left_shift(1, np.frexp(targets - 1)[1].astype(np.int64))

    # ------------------------------------------------------------------
    # Implicit tree geometry
    # ------------------------------------------------------------------

    @property
    def segment_size(self) -> int:
        """Segment length: the power of two nearest Θ(log2 capacity)."""
        log = max(1, int(math.log2(self.capacity)))
        return min(self.capacity, next_power_of_two(log))

    @property
    def tree_height(self) -> int:
        """Height of the implicit binary tree (0 when one segment)."""
        return int(math.log2(self.capacity // self.segment_size))

    def upper_density(self, level: int) -> float:
        """Upper density bound at ``level`` (0 = segment leaves, height =
        root), linearly interpolated between the configured endpoints."""
        height = self.tree_height
        if height == 0:
            return self.config.pma_segment_density
        frac = level / height
        return (self.config.pma_segment_density
                - (self.config.pma_segment_density - self.config.pma_root_density) * frac)

    def window_bounds(self, pos: int, level: int):
        """``(lo, hi)`` of the level-``level`` window containing ``pos``."""
        size = self.segment_size << level
        lo = (pos // size) * size
        return lo, lo + size

    # ------------------------------------------------------------------
    # Insert (Algorithm 2)
    # ------------------------------------------------------------------

    def insert(self, key: float, payload=None) -> None:
        """Insert at the model-predicted (corrected) position; open a slot
        within the position's segment, rebalancing up the implicit tree when
        the segment has no gap; expand (doubling, model-based rebuild) when
        even the root window is too dense.

        The pre-insert expand decision routes through the adaptation
        policy (heuristic default: the root-density bound); the mid-loop
        expands below are mechanical necessities, not policy choices.
        """
        if self.policy.should_expand(self):
            self.expand()
        ip = self.find_insert_pos(key)
        self._check_duplicate(key, ip)
        slot = self._open_slot_in_segment(ip)
        # When the segment is fully packed, rebalance ever-larger windows
        # (redistribution rounding can re-pack a small window, so the level
        # escalates monotonically until a window absorbs the insert); if no
        # window qualifies, double the array and start over.
        min_level = 1
        attempts = 0
        while slot < 0:
            attempts += 1
            assert attempts < 64, "PMA insert failed to converge"
            level = self._find_rebalance_level(ip, min_level)
            if level is None:
                self.expand()
                min_level = 1
            else:
                lo, hi = self.window_bounds(min(ip, self.capacity - 1), level)
                self._redistribute(lo, hi)
                min_level = level + 1
            ip = self.find_insert_pos(key)
            slot = self._open_slot_in_segment(ip)
        self._place(slot, key, payload)
        self.counters.inserts += 1
        self._enforce_density(slot)
        if self.model is None and self.num_keys >= self.config.min_keys_for_model:
            keys, payloads = self.export_sorted()
            self._model_based_build(keys, payloads, self.capacity)

    def _open_slot_in_segment(self, ip: int) -> int:
        """Open a slot at the insert position by shifting toward the closest
        gap *within the segment* (PMA shifts are segment-local), or -1 when
        the segment is fully packed."""
        seg_lo, seg_hi = self.window_bounds(min(ip, self.capacity - 1), 0)
        return self._open_slot(ip, seg_lo, seg_hi)

    def _find_rebalance_level(self, pos: int, min_level: int):
        """Smallest tree level >= ``min_level`` whose window around ``pos``
        stays within its density bound after one more insert (or ``None``
        when even the root window is too dense)."""
        pos = min(pos, self.capacity - 1)
        for level in range(min_level, self.tree_height + 1):
            lo, hi = self.window_bounds(pos, level)
            count = int(self.occupied[lo:hi].sum())
            if count + 1 <= self.upper_density(level) * (hi - lo):
                return level
        return None

    def _enforce_density(self, pos: int) -> None:
        """Post-insert density sweep: if the segment exceeds its bound, find
        the smallest enclosing window within bounds and redistribute it;
        expand when the root window itself is over-dense."""
        lo, hi = self.window_bounds(pos, 0)
        count = int(self.occupied[lo:hi].sum())
        if count <= self.upper_density(0) * (hi - lo):
            return
        for level in range(1, self.tree_height + 1):
            lo, hi = self.window_bounds(pos, level)
            count = int(self.occupied[lo:hi].sum())
            if count <= self.upper_density(level) * (hi - lo):
                self._redistribute(lo, hi)
                return
        self.expand()

    def _redistribute(self, lo: int, hi: int) -> None:
        """Uniformly respace the real elements of ``[lo, hi)`` (the default
        PMA rebalance; deliberately *not* model-based — see module docstring)."""
        positions = np.flatnonzero(self.occupied[lo:hi]) + lo
        count = len(positions)
        if count == 0:
            return
        keys = self.keys[positions].copy()
        payloads = self.payloads[positions]
        width = hi - lo
        self.occupied[lo:hi] = False
        self.payloads[lo:hi] = gap_value(payloads.dtype)
        targets = lo + (np.arange(count, dtype=np.int64) * width) // count
        self.keys[targets] = keys
        self.occupied[targets] = True
        self.payloads[targets] = payloads
        self.counters.rebalance_moves += count
        self._refill_gap_keys(lo, hi)

    # ------------------------------------------------------------------
    # Expansion (Algorithm 3, ALEX-flavoured)
    # ------------------------------------------------------------------

    def density_bound(self) -> float:
        """The PMA's pre-insert pressure point is the *root window* bound
        (the whole array is the root window)."""
        return self.config.pma_root_density

    def expand(self) -> None:
        """Double the capacity and rebuild with model-based inserts."""
        keys, payloads = self.export_sorted()
        self._model_based_build(keys, payloads, max(self.capacity * 2,
                                                    self.MIN_CAPACITY))
        self.counters.expansions += 1

    def gap_uniformity(self) -> float:
        """Coefficient of variation of inter-element gap run lengths; lower
        means more uniformly spaced gaps (benches use this to show the PMA
        drifting from model-based placement toward uniform spacing)."""
        positions = np.flatnonzero(self.occupied)
        if len(positions) < 2:
            return 0.0
        spacing = np.diff(positions).astype(np.float64)
        mean = spacing.mean()
        if mean == 0:
            return 0.0
        return float(spacing.std() / mean)

    def check_pma_invariants(self) -> None:
        """Assert capacity/segment geometry and the root density bound."""
        if self.capacity & (self.capacity - 1):
            raise AssertionError("PMA capacity is not a power of two")
        if self.capacity % self.segment_size:
            raise AssertionError("segment size does not divide capacity")
        if self.num_keys > self.capacity:
            raise AssertionError("overfull PMA")
