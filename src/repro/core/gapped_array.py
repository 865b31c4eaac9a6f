"""Gapped Array leaf node (paper Section 3.3.1, Algorithms 1 and 3).

The gapped array lets model-based inserts "naturally" distribute free space
between the elements.  Inserting at the model-predicted slot is O(1) in the
best case; when the slot is taken the node shifts the occupied run toward
the closest gap.  When an insert would push the density over the upper limit
``d`` the node expands by a factor of ``1/d``, retrains its linear model,
and re-inserts every key model-based — restoring density ``d**2`` and the
model's accuracy at once.

The gapped array is the fastest layout for lookups but its worst case is a
*fully-packed region* (Figure 3): a contiguous gap-free run that makes a
single insert shift O(n) elements.  The PMA layout (``repro.core.pma``)
trades some lookup locality to avoid that case.
"""

from __future__ import annotations

import math

import numpy as np

from .data_node import DataNode


class GappedArrayNode(DataNode):
    """ALEX leaf node backed by a gapped array."""

    def insert(self, key: float, payload=None) -> None:
        """Algorithm 1: expand if needed, find the corrected insert position,
        make a gap if the slot is occupied, and place the key.

        The expand decision routes through the adaptation policy (the
        heuristic default reproduces the density-bound check of §3.3.1).
        """
        if self.policy.should_expand(self):
            self.expand()
        ip = self.find_insert_pos(key)
        self._check_duplicate(key, ip)
        slot = self._open_slot(ip, 0, self.capacity)
        # The density bound guarantees at least one gap exists.
        assert slot >= 0, "gapped array unexpectedly full"
        self._place(slot, key, payload)
        self.counters.inserts += 1
        if self.model is None and self.num_keys >= self.config.min_keys_for_model:
            # Cold start is over: build the model and re-place model-based.
            keys, payloads = self.export_sorted()
            self._model_based_build(keys, payloads, self.capacity)

    def expand(self) -> None:
        """Algorithm 3: grow the array by ``1/d``, retrain + rescale the
        model, and model-based-insert every key into the new array."""
        keys, payloads = self.export_sorted()
        new_capacity = max(
            int(math.ceil(self.capacity / self.config.density_upper)),
            self.capacity + 1,
        )
        self._model_based_build(keys, payloads, new_capacity)
        self.counters.expansions += 1

    def fully_packed_regions(self) -> list:
        """Return ``(start, length)`` of every maximal gap-free occupied run.

        Fully-packed regions are the gapped array's failure mode
        (Section 3.3.1 / Figure 3); benches use this to visualize them.
        """
        if self.capacity == 0:
            return []
        occ = self.occupied.astype(np.int8)
        edges = np.diff(occ)
        starts = np.flatnonzero(edges == 1) + 1
        ends = np.flatnonzero(edges == -1) + 1
        if occ[0]:
            starts = np.concatenate([[0], starts])
        if occ[-1]:
            ends = np.concatenate([ends, [self.capacity]])
        return [(int(s), int(e - s)) for s, e in zip(starts, ends)]

    def largest_packed_run(self) -> int:
        """Length of the longest gap-free occupied run."""
        regions = self.fully_packed_regions()
        return max((length for _, length in regions), default=0)
