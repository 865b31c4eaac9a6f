"""Shard routing: CDF-fitted key-space partitioning for the index service.

A :class:`ShardRouter` owns the interior boundaries that cut the key space
into ``num_shards`` contiguous ranges.  Boundaries are *fitted at bulk
load*: the empirical CDF of the loaded keys is sampled at equal-mass
quantiles (the keys' order statistics at the cut ranks), so every shard
starts with the same number of keys no matter how skewed the distribution
is.  This is the same piecewise view of the CDF that ALEX's adaptive RMI builds
dynamically — equal-mass shard boundaries hand every shard a near-linear
CDF segment, which keeps the per-shard trees shallow and their models
accurate.

Scalar routing mirrors ALEX's model-plus-search design: a
:class:`repro.core.linear_model.LinearModel` fitted over the boundary keys
predicts the shard slot, and a bounded local walk corrects the prediction
against the exact boundaries (the error is tiny because the model was
trained on exactly those boundaries).  Batch routing is a single
``np.searchsorted`` over the boundary array, and ``split_batch`` carves a
*sorted* request batch into contiguous per-shard sub-batches — the serving
layer's mirror of :func:`repro.core.rmi.route_batch`.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.linear_model import LinearModel


class ShardRouter:
    """Maps keys to shard ids through sorted interior boundaries.

    ``boundaries`` holds ``num_shards - 1`` strictly increasing keys; shard
    ``s`` owns the half-open key range ``[boundaries[s-1], boundaries[s])``
    (unbounded at both ends).  A key equal to a boundary belongs to the
    shard on its right.
    """

    def __init__(self, boundaries):
        boundaries = np.asarray(boundaries, dtype=np.float64)
        if boundaries.ndim != 1:
            raise ValueError("boundaries must be a 1-D array")
        if len(boundaries) > 1 and not (np.diff(boundaries) > 0).all():
            raise ValueError("boundaries must be strictly increasing")
        self.boundaries = boundaries
        self._model = LinearModel.train_cdf(boundaries, len(boundaries) + 1)

    @classmethod
    def fit(cls, keys, num_shards: int) -> "ShardRouter":
        """Fit near-equal-mass boundaries from the empirical CDF of
        ``keys``.

        The boundary for shard ``s`` is the key at CDF mass ``s /
        num_shards``.  Repeated quantiles (possible on tiny or heavily
        duplicated key sets) collapse, so the fitted router may end up with
        fewer shards than requested — never with an empty key range between
        two boundaries.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        keys = np.asarray(keys, dtype=np.float64)
        n = len(keys)
        if n == 0 or num_shards == 1:
            return cls(np.empty(0))
        cut_ranks = [(s * n) // num_shards for s in range(1, num_shards)]
        # Only the cut ranks' order statistics matter.  Sorted keys (a
        # bulk load's) hold them in place; otherwise a partial
        # partition finds them exactly, without a full sort.
        if not np.all(keys[:-1] <= keys[1:]):
            keys = np.partition(keys, cut_ranks)
        boundaries = np.unique(keys[cut_ranks])
        return cls(boundaries)

    @property
    def num_shards(self) -> int:
        """Number of key ranges this router distinguishes."""
        return len(self.boundaries) + 1

    def shard_for(self, key: float) -> int:
        """Shard id owning ``key`` (scalar fast path: model prediction
        corrected by a bounded boundary walk, like an ALEX node's
        model-plus-search lookup)."""
        bounds = self.boundaries
        num = len(bounds)
        if num == 0:
            return 0
        s = self._model.predict_pos(key, num + 1)
        # Correct the prediction: shard s requires bounds[s-1] <= key < bounds[s].
        while s > 0 and key < bounds[s - 1]:
            s -= 1
        while s < num and key >= bounds[s]:
            s += 1
        return s

    def shard_for_many(self, keys) -> np.ndarray:
        """Vectorized :meth:`shard_for` over a whole key array."""
        keys = np.asarray(keys, dtype=np.float64)
        return np.searchsorted(self.boundaries, keys, side="right")

    def split_batch(self, sorted_keys: np.ndarray) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(shard_id, lo, hi)`` for the contiguous run of
        ``sorted_keys`` each shard receives (empty runs are skipped).

        ``sorted_keys`` must be sorted ascending; the runs tile
        ``[0, len(sorted_keys))`` in shard order, mirroring how
        :func:`repro.core.rmi.route_batch` carves a batch by leaf.
        """
        n = len(sorted_keys)
        if n == 0:
            return
        cuts = np.searchsorted(sorted_keys, self.boundaries, side="left")
        lo = 0
        for shard, hi in enumerate(list(cuts.tolist()) + [n]):
            if hi > lo:
                yield shard, lo, hi
            lo = hi

    def shard_span(self, lo_key: float, hi_key: float) -> Tuple[int, int]:
        """Inclusive ``(first_shard, last_shard)`` range a key interval
        touches (used by scatter-gather range queries)."""
        return self.shard_for(lo_key), self.shard_for(hi_key)

    def key_range(self, shard: int) -> Tuple[float, float]:
        """The half-open ``[lo, hi)`` key range shard ``shard`` owns
        (``-inf`` / ``+inf`` at the edges)."""
        lo = -np.inf if shard == 0 else float(self.boundaries[shard - 1])
        hi = (np.inf if shard >= len(self.boundaries)
              else float(self.boundaries[shard]))
        return lo, hi

    def with_boundary(self, key: float) -> "ShardRouter":
        """A new router with one extra boundary at ``key`` (the hot-shard
        split hook; the shard owning ``key`` is cut in two)."""
        if len(self.boundaries) and (self.boundaries == key).any():
            raise ValueError(f"boundary {key} already exists")
        return ShardRouter(np.sort(np.append(self.boundaries, key)))

    def without_boundary(self, shard: int) -> "ShardRouter":
        """A new router with the boundary between shards ``shard`` and
        ``shard + 1`` removed (the cold-shard merge hook; the two ranges
        fuse into one).  The inverse of :meth:`with_boundary`."""
        if not 0 <= shard < len(self.boundaries):
            raise ValueError(f"no boundary after shard {shard}")
        return ShardRouter(np.delete(self.boundaries, shard))

    def mass(self, keys) -> np.ndarray:
        """Fraction of ``keys`` each shard would receive — the router's
        balance diagnostic (uniform = perfectly equal-mass)."""
        keys = np.asarray(keys, dtype=np.float64)
        if len(keys) == 0:
            return np.zeros(self.num_shards)
        counts = np.bincount(self.shard_for_many(keys),
                             minlength=self.num_shards)
        return counts / len(keys)

    def __repr__(self) -> str:
        return f"ShardRouter(num_shards={self.num_shards})"
