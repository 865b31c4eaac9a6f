"""Batch operations: bulk inserts and index merges.

One-at-a-time inserts pay a full RMI traversal and possible shifting per
key.  When a large sorted (or sortable) batch arrives at once — nightly
loads, LSM-style flushes — it is cheaper to *rebuild affected leaves*:
route the batch once, group keys by target leaf, and rebuild each touched
leaf with a single model-based build over the union of its old and new
keys (Algorithm 3 amortized over the whole group).

``bulk_insert`` is the functional spelling of
:meth:`repro.core.alex.AlexIndex.insert_many`, which implements that on top
of the batch execution engine: the entire batch is routed with one
vectorized RMI descent, the per-leaf duplicate validation runs as one
lock-step search per touched leaf, and rebuilt leaves that overshoot the
adaptive RMI's node-size bound are routed through the split path
(:func:`repro.core.adaptive.split_until_fits`) exactly as scalar inserts
would be.  Tiny per-leaf groups fall back to plain inserts.

``merge_indexes`` builds a fresh index over the union of two indexes'
contents (the classic way to merge a delta structure); its export walks
the leaf chain and concatenates each leaf's arrays directly instead of
iterating items one by one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .alex import AlexIndex
from .config import AlexConfig
from .data_node import concat_columns


def bulk_insert(index: AlexIndex, keys, payloads: Optional[list] = None) -> None:
    """Insert a batch of unique new keys into ``index`` efficiently.

    Alias for :meth:`AlexIndex.insert_many` (kept for callers that treat
    batch loading as a free function rather than an index method).
    """
    index.insert_many(keys, payloads)


def merge_indexes(left: AlexIndex, right: AlexIndex,
                  config: Optional[AlexConfig] = None) -> AlexIndex:
    """Build a fresh index over the union of two indexes' contents.

    Key sets must be disjoint (raises :class:`DuplicateKeyError`
    otherwise).  The result uses ``config`` (default: ``left``'s config).
    """
    config = config or left.config
    left_keys, left_payloads = export_arrays(left)
    right_keys, right_payloads = export_arrays(right)
    keys = np.concatenate([left_keys, right_keys])
    payloads = concat_columns([left_payloads, right_payloads])
    return AlexIndex.from_column(keys, payloads, config=config)


def export_arrays(index: AlexIndex) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, payloads)`` of the whole index, the payloads a column of
    the index's :attr:`~AlexIndex.payload_dtype`, via a leaf-chain walk
    that concatenates each leaf's arrays directly (no per-item
    iteration)."""
    parts = [leaf.export_sorted() for leaf in index.leaves()]
    return (np.concatenate([keys for keys, _ in parts]),
            concat_columns(payloads for _, payloads in parts))
