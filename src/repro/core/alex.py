"""ALEX: the public index facade tying together node layouts and RMIs.

This is the paper's primary contribution as a library type.  An
:class:`AlexIndex` is an in-memory, updatable learned index over float64
keys with opaque payloads.  The four paper variants are chosen through
:class:`~repro.core.config.AlexConfig`:

>>> from repro import AlexIndex, ga_armi
>>> index = AlexIndex.bulk_load(sorted_keys, config=ga_armi())
>>> index.insert(42.0, b"payload")
>>> index.lookup(42.0)
b'payload'
>>> index.range_scan(40.0, limit=10)  # doctest: +SKIP

Keys must be unique (the paper's datasets contain no duplicates and
Section 7 lists duplicates as an open limitation) and finite: +inf is the
gapped array's gap sentinel and NaN has no order, so every write entry
point raises :class:`ValueError` on either before touching the index.

**Batch API.**  Point reads come in batch form — :meth:`AlexIndex.lookup_many`,
:meth:`AlexIndex.get_many`, and :meth:`AlexIndex.contains_many` accept whole
key arrays and execute them through the vectorized batch engine: one sort,
one RMI descent per batch (``route_batch`` groups keys by leaf with
vectorized model predictions), and one lock-step in-node search per touched
leaf.  Writes batch through :meth:`AlexIndex.insert_many` (one routed
traversal, per-leaf grouped merges with split handling) and
:meth:`AlexIndex.delete_many` / :meth:`AlexIndex.erase_many` (one routed
traversal, per-leaf grouped removal rebuilds, all-or-nothing validation),
and range queries through :meth:`AlexIndex.range_query_many` (all lower
bounds routed in one descent, leaf arrays sliced per touched node).
Results are identical to a loop over the scalar operations; work counters
are aggregated once per batch.

The scalar ``lookup`` / ``get`` / ``contains`` methods share the batch
engine's kernels at lane width one — the same model-predict + exponential
search the lock-step kernels vectorize — but skip the batch wrappers' array
construction and sort entirely, so single-key latency is not taxed with
NumPy constant overhead.

>>> index.lookup_many([42.0, 7.0, 13.0])  # doctest: +SKIP
[b'payload', b'p7', b'p13']
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import trace

from .adaptive import (build_adaptive_rmi, merge_leaves, split_leaf,
                       split_leaf_sideways, split_until_fits)
from .config import ADAPTIVE_RMI, AlexConfig
from .data_node import (DataNode, blank_column, concat_columns, object_column,
                        payload_column, payload_fits)
from .errors import DuplicateKeyError, KeyNotFoundError
from .kernels import KernelBackend, get_kernels
from .policy import (AdaptationPolicy, EV_DELETE, EV_INSERT, EV_READ,
                     HeuristicPolicy, PressureEvent, SMO_EXPAND, SMO_MERGE,
                     SMO_NONE, SMO_RETRAIN, SMO_SPLIT_DOWN,
                     SMO_SPLIT_SIDEWAYS)
from .rmi import (InnerNode, NODE_METADATA_BYTES, build_static_rmi,
                  make_data_node, route_batch)
from .stats import Counters


def strictly_increasing(keys: np.ndarray) -> bool:
    """Whether ``keys`` is sorted without repeats: a sorted batch skips
    its sort and gathers."""
    return len(keys) < 2 or bool((keys[1:] > keys[:-1]).all())


class AlexIndex:
    """An updatable adaptive learned index (paper Section 3).

    Create an empty index and fill it incrementally (a "cold start",
    Section 3.4.2), or :meth:`bulk_load` a sorted key array, which is how
    the paper initializes every experiment.

    Every structural decision — leaf expand/contract, split sideways,
    split down, catastrophic retrain, leaf merge, and the adaptive RMI's
    initial fanout — routes through one
    :class:`repro.core.policy.AdaptationPolicy` object.  The default
    :class:`~repro.core.policy.HeuristicPolicy` reproduces the classic
    fixed-threshold behaviour; pass a
    :class:`~repro.core.policy.CostModelPolicy` for the paper's
    expected-cost-driven adaptation (Section 3.4).
    """

    def __init__(self, config: Optional[AlexConfig] = None,
                 policy: Optional[AdaptationPolicy] = None):
        self._setup(config, policy)
        leaf = make_data_node(self.config, self.counters, self.policy)
        leaf.build(np.empty(0))
        self._root: object = leaf
        # The dtype every leaf's payload column shares (see payload_dtype).
        self._payload_dtype = leaf.payloads.dtype
        # A cold-started adaptive index must be able to grow by splitting
        # even when the config leaves splitting off for bulk-loaded runs.
        self._cold_start = True

    def _setup(self, config: Optional[AlexConfig],
               policy: Optional[AdaptationPolicy]) -> None:
        """Everything an index holds before it has a tree."""
        self.config = config or AlexConfig()
        self.policy = policy or HeuristicPolicy()
        self.counters = Counters()
        self._num_keys = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(cls, keys, payloads: Optional[list] = None,
                  config: Optional[AlexConfig] = None,
                  policy: Optional[AdaptationPolicy] = None) -> "AlexIndex":
        """Build an index over ``keys`` (need not be pre-sorted).

        ``payloads[i]`` is stored with ``keys[i]``; payloads default to
        ``None``.  Payloads that are all Python ``int`` (in int64 range)
        or all Python ``float`` are stored in a typed column (see
        :attr:`payload_dtype`).  Raises :class:`DuplicateKeyError` on
        repeated keys and :class:`ValueError` on NaN or infinite keys.
        """
        kernels = get_kernels(config.kernel_backend if config else None)
        keys, column = cls._normalize_batch(keys, payloads, column=True,
                                            kernels=kernels)
        return cls._build(keys, column, config, policy)

    @classmethod
    def from_column(cls, keys, column: np.ndarray,
                    config: Optional[AlexConfig] = None,
                    policy: Optional[AdaptationPolicy] = None
                    ) -> "AlexIndex":
        """Like :meth:`bulk_load` over a payload column as
        :func:`export_arrays` returns it: the column
        is stored with its own dtype, so an ``object`` column stays
        ``object`` and a typed one is not classified again.  Every
        whole-shard move builds through here: provisioning, snapshots
        for shard splits and merges, respawns and recovery."""
        if len(column) != len(keys):
            raise ValueError("payloads length must match keys length")
        keys, column = cls._sort_column(keys, column)
        return cls._build(keys, column, config, policy)

    @classmethod
    def _build(cls, keys: np.ndarray, column: np.ndarray,
               config: Optional[AlexConfig],
               policy: Optional[AdaptationPolicy]) -> "AlexIndex":
        # Not through __init__: the tree built here replaces the empty
        # cold-start leaf a new index starts with, so that leaf is never
        # built.
        index = cls.__new__(cls)
        index._setup(config, policy)
        if index.config.rmi_mode == ADAPTIVE_RMI:
            root, _ = build_adaptive_rmi(keys, column, index.config,
                                         index.counters, index.policy)
        else:
            root, _ = build_static_rmi(keys, column, index.config,
                                       index.counters, index.policy)
        index._root = root
        index._num_keys = len(keys)
        index._cold_start = False
        index._payload_dtype = column.dtype
        return index

    @property
    def payload_dtype(self) -> np.dtype:
        """The dtype of every leaf's payload column: ``int64`` or
        ``float64`` when the bulk-load payloads were all Python ``int``
        (in int64 range) or all Python ``float``, ``object`` otherwise.
        The first written value that does not fit turns it ``object``
        for good (:meth:`_upgrade_payloads`)."""
        return self._payload_dtype

    def _upgrade_payloads(self) -> None:
        """Convert every leaf's typed payload column to ``object``, once:
        each value becomes the very Python value reads returned before,
        so no reader can tell."""
        if self._payload_dtype.kind == "O":
            return
        for leaf in self.leaves():
            leaf.payloads = object_column(leaf.payloads, leaf.occupied)
        self._payload_dtype = np.dtype(object)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def _route(self, key: float) -> Tuple[DataNode, Optional[InnerNode]]:
        """Descend the RMI to the leaf responsible for ``key``; also return
        the leaf's parent (for splitting)."""
        node = self._root
        parent: Optional[InnerNode] = None
        while isinstance(node, InnerNode):
            parent = node
            node = node.child_for(key)
        return node, parent

    def _route_path(self, key: float) -> Tuple[DataNode, List[InnerNode]]:
        """Like :meth:`_route` but returns the whole inner-node path (root
        first, parent last; empty for a root leaf) — the delete-side SMOs
        need it to collapse inner nodes left with a single child after
        leaf merges."""
        node = self._root
        path: List[InnerNode] = []
        while isinstance(node, InnerNode):
            path.append(node)
            node = node.child_for(key)
        return node, path

    def _route_many(self, sorted_keys: np.ndarray):
        """Batch routing: one vectorized RMI descent for a whole sorted key
        array.  Returns ``(leaf, parent, lo, hi)`` groups in key order (see
        :func:`repro.core.rmi.route_batch`)."""
        return route_batch(self._root, sorted_keys)

    @staticmethod
    def _normalize_batch(keys, payloads, column: bool = False,
                         kernels: Optional[KernelBackend] = None):
        """Normalize a write batch: float64 keys sorted with their payloads
        aligned in a list (``None``-filled when omitted), raising on
        non-finite keys, length mismatch or in-batch duplicates.  Shared
        by bulk load and the single-index and sharded batch-insert
        paths.

        Strictly increasing keys skip the sort and the payload gather
        entirely.  With ``column=True`` the payloads come back as the
        column :func:`~repro.core.data_node.payload_column` makes of them
        with ``kernels`` (default: the process default backend), typed
        before the sort, so the gather moves the column and never a
        list."""
        keys = np.asarray(keys, dtype=np.float64)
        if payloads is not None and len(payloads) != len(keys):
            raise ValueError("payloads length must match keys length")
        # Each column goes to the sort as a bare argument: the sort's
        # reference is then the only one, so the unsorted column is freed
        # as soon as its gathered copy exists.
        if column:
            keys, payloads = AlexIndex._sort_column(
                keys, None if payloads is None
                else payload_column(payloads, kernels))
            return keys, (blank_column(len(keys), object)
                          if payloads is None else payloads)
        AlexIndex._check_finite(keys)
        if not strictly_increasing(keys):
            # One gather through an object array, not a list indexed by n
            # numpy ints (or by n Python ints, which would briefly hold a
            # second n-element list of ints beside the payloads).
            keys, objects = AlexIndex._sort_column(
                keys, None if payloads is None
                else np.fromiter(payloads, dtype=object, count=len(keys)))
            payloads = None if objects is None else objects.tolist()
        if payloads is None:
            payloads = [None] * len(keys)
        elif not isinstance(payloads, list):
            payloads = list(payloads)
        return keys, payloads

    @staticmethod
    def _sort_column(keys, column: Optional[np.ndarray]
                     ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Write-batch keys as a sorted float64 array with ``column``
        (or ``None``) in the same order, raising on non-finite keys and
        in-batch duplicates.  Strictly increasing keys come back with
        the column as they are; otherwise both are fresh arrays, so a
        caller that drops its own references frees the unsorted pair."""
        keys = np.asarray(keys, dtype=np.float64)
        AlexIndex._check_finite(keys)
        if strictly_increasing(keys):
            return keys, column
        # Introsort, not stable: duplicates raise below, so stability
        # buys nothing here (see _sort_batch).  The column is gathered
        # before the keys and the order dies before the duplicate check,
        # so beside the caller's arrays at most three n-item arrays are
        # alive at once.
        order = np.argsort(keys)
        if column is not None:
            column = column[order]
        keys = keys[order]
        del order
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if len(dup):
            raise DuplicateKeyError(float(keys[dup[0]]))
        return keys, column

    @staticmethod
    def _check_finite(keys: np.ndarray) -> None:
        """Raise :class:`ValueError` on the first NaN or infinite key: +inf
        is the gap sentinel (it would read as already present) and NaN
        breaks the sorted-key invariant."""
        bad = np.flatnonzero(~np.isfinite(keys))
        if bad.size:
            raise ValueError(f"key {float(keys[bad[0]])!r} is not finite")

    @staticmethod
    def _normalize_delete_batch(keys) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Normalize a delete batch: float64 keys sorted, raising
        :class:`KeyNotFoundError` on in-batch duplicates (the second
        removal of the same key could never succeed).  Shared by the
        single-index and sharded batch-delete paths."""
        skeys, order = AlexIndex._sort_batch(keys)
        if len(skeys) > 1:
            dup = np.flatnonzero(np.diff(skeys) == 0)
            if len(dup):
                raise KeyNotFoundError(float(skeys[dup[0]]))
        return skeys, order

    @staticmethod
    def _sort_batch(keys) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Normalize a batch of keys for routing: float64 array plus the
        argsort order (``None`` when already sorted, the common trace
        shape, so the engine skips the re-permutation)."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError(f"batch keys must be 1-D, got shape {keys.shape}")
        if len(keys) <= 1 or bool((np.diff(keys) >= 0).all()):
            return keys, None
        # Introsort, not stable: equal keys resolve to the same slot and
        # payload, and the write paths reject in-batch duplicates, so
        # stability buys nothing here and costs ~5x on large batches.
        order = np.argsort(keys)
        return keys[order], order

    def first_leaf(self) -> DataNode:
        """Leftmost leaf of the tree (start of the leaf chain)."""
        node = self._root
        while isinstance(node, InnerNode):
            node = node.children[0]
        return node

    def leaves(self) -> Iterator[DataNode]:
        """Yield every leaf in key order via the leaf chain."""
        leaf: Optional[DataNode] = self.first_leaf()
        while leaf is not None:
            yield leaf
            leaf = leaf.next_leaf

    def nodes(self) -> Iterator[object]:
        """Yield every node (inner and leaf), depth-first."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, InnerNode):
                stack.extend(node.distinct_children())

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------

    def insert(self, key: float, payload=None) -> None:
        """Insert a new key.  Raises :class:`DuplicateKeyError` if present.

        The adaptation policy picks the pre-insert SMO (Section 3.4.2):
        under the default :class:`~repro.core.policy.HeuristicPolicy` a
        leaf pushed past ``max_keys_per_node`` is split down before the
        insert (when the adaptive RMI has splitting enabled or the index
        is cold-started), exactly the classic behaviour; the cost-model
        policy may instead expand in place, split sideways, or retrain.
        Raises :class:`ValueError` on a NaN or infinite key.
        """
        key = float(key)
        if not math.isfinite(key):
            raise ValueError(f"key {key!r} is not finite")
        if not payload_fits(self._payload_dtype, payload):
            self._upgrade_payloads()
        leaf, parent = self._route(key)
        action = self.policy.choose_insert_smo(leaf, parent, self)
        if action != SMO_NONE and self._apply_leaf_smo(action, leaf, parent):
            leaf, parent = self._route(key)
        if self.policy.tracks_pressure:
            c = self.counters
            before_shifts = c.shifts
            before_probes = c.probes + c.comparisons
            leaf.insert(key, payload)
            self.policy.record(leaf, PressureEvent(
                EV_INSERT, 1, c.probes + c.comparisons - before_probes,
                c.shifts - before_shifts, searches=1))
        else:
            leaf.insert(key, payload)
        self._num_keys += 1

    def _apply_leaf_smo(self, action: str, leaf: DataNode,
                        parent: Optional[InnerNode],
                        path: Optional[List[InnerNode]] = None) -> bool:
        """Run one policy-chosen SMO on ``leaf`` (mutation mechanics only;
        the decision already happened).  Returns whether the tree shape
        changed, i.e. whether the caller must re-route.

        A degenerate sideways split (single parent slot, or every key on
        one side) falls back to a split down, mirroring how a degenerate
        split down is accepted as an oversized leaf.  ``path`` (the full
        inner-node route to ``leaf``) enables the merge-up collapse after
        a leaf merge; without it merges still work but inner nodes with a
        single child are kept.
        """
        if action == SMO_EXPAND:
            leaf.expand()  # resets the drift window via _model_based_build
            self.policy.note_applied(action)
            return False
        if action == SMO_RETRAIN:
            leaf.retrain()  # resets the drift window via _model_based_build
            self.policy.note_applied(action)
            return False
        if action == SMO_SPLIT_SIDEWAYS:
            if split_leaf_sideways(leaf, parent, self.config,
                                   self.counters) is not None:
                self.policy.note_applied(SMO_SPLIT_SIDEWAYS)
                return True
            action = SMO_SPLIT_DOWN  # degenerate sideways: fall back
        if action == SMO_SPLIT_DOWN:
            inner = split_leaf(leaf, parent, self.config, self.counters)
            if inner is not None:
                if parent is None:
                    self._root = inner
                self.policy.note_applied(SMO_SPLIT_DOWN)
            return inner is not None
        if action == SMO_MERGE:
            merged = merge_leaves(leaf, parent, self.config, self.counters,
                                  self.policy.max_merged_keys(self.config))
            if merged is not None:
                if path:
                    self._collapse_path(merged, path)
                self.policy.note_applied(SMO_MERGE)
            return merged is not None
        return False

    def _collapse_path(self, node: DataNode, path: List[InnerNode]) -> None:
        """Merge *up* (the inverse of split down): splice out every inner
        node on ``path`` whose slots all point at ``node`` after a leaf
        merge, restoring the traversal depth the splits added."""
        for i in range(len(path) - 1, -1, -1):
            inner = path[i]
            if not all(child is node for child in inner.children):
                break
            if i == 0:
                self._root = node
            else:
                path[i - 1].replace_child(inner, node)
        return

    def _find_key_observed(self, leaf: DataNode, key: float) -> int:
        """``leaf.find_key`` plus a read :class:`PressureEvent` carrying
        the search-iteration cost, when the policy tracks pressure."""
        if not self.policy.tracks_pressure:
            return leaf.find_key(key)
        c = self.counters
        before = c.probes + c.comparisons
        pos = leaf.find_key(key)
        self.policy.record(leaf, PressureEvent(
            EV_READ, 1, c.probes + c.comparisons - before, 0))
        return pos

    def _find_keys_many_observed(self, leaf: DataNode,
                                 targets: np.ndarray) -> np.ndarray:
        """Batch counterpart of :meth:`_find_key_observed`: one event per
        touched leaf with the whole group's count and search cost."""
        if not self.policy.tracks_pressure:
            return leaf.find_keys_many(targets)
        c = self.counters
        before = c.probes + c.comparisons
        pos = leaf.find_keys_many(targets)
        self.policy.record(leaf, PressureEvent(
            EV_READ, len(targets), c.probes + c.comparisons - before, 0))
        return pos

    def lookup(self, key: float):
        """Return the payload stored for ``key``; raises
        :class:`KeyNotFoundError` when absent.

        Single-key fast path: one scalar descent plus the scalar search
        kernel (the lane-width-1 counterpart of the batch engine's
        lock-step search), with no batch array construction or sorting.
        Results and counter totals match a one-element :meth:`lookup_many`.
        """
        key = float(key)
        leaf, _ = self._route(key)
        pos = self._find_key_observed(leaf, key)
        if pos < 0:
            raise KeyNotFoundError(key)
        self.counters.lookups += 1
        return leaf.payloads.item(pos)

    def get(self, key: float, default=None):
        """Like :meth:`lookup` but returns ``default`` when absent."""
        key = float(key)
        leaf, _ = self._route(key)
        pos = self._find_key_observed(leaf, key)
        if pos < 0:
            return default
        self.counters.lookups += 1
        return leaf.payloads.item(pos)

    def contains(self, key: float) -> bool:
        """Whether ``key`` is present (single-key fast path, see
        :meth:`lookup`)."""
        key = float(key)
        leaf, _ = self._route(key)
        return self._find_key_observed(leaf, key) >= 0

    # ------------------------------------------------------------------
    # Batch point operations (the API layer of the batch engine)
    # ------------------------------------------------------------------

    @trace.traced("core.lookup_many")
    def lookup_many(self, keys) -> list:
        """Return the payloads for a whole batch of keys, in input order.

        One sort + one vectorized RMI descent + one lock-step search per
        touched leaf, instead of a full traversal per key.  Raises
        :class:`KeyNotFoundError` when any key is absent (no partial
        result is returned); results are identical to ``[self.lookup(k)
        for k in keys]``.
        """
        skeys, order = self._sort_batch(keys)
        n = len(skeys)
        if n == 0:
            return []
        # Assemble in sorted order (cheap slice assignment per leaf) and
        # permute back to input order once at the end.
        sorted_out: list = [None] * n
        for leaf, _, lo, hi in self._route_many(skeys):
            pos = self._find_keys_many_observed(leaf, skeys[lo:hi])
            missing = np.flatnonzero(pos < 0)
            if missing.size:
                raise KeyNotFoundError(float(skeys[lo + int(missing[0])]))
            sorted_out[lo:hi] = leaf.payloads[pos].tolist()
        self.counters.lookups += n
        if order is None:
            return sorted_out
        # Gather through the vectorized inverse permutation: a C-level
        # read beats an element-wise scatter write by ~3x at batch scale.
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.arange(n, dtype=np.int64)
        return list(map(sorted_out.__getitem__, inverse.tolist()))

    @trace.traced("core.get_many")
    def get_many(self, keys, default=None) -> list:
        """Like :meth:`lookup_many` but absent keys yield ``default``
        instead of raising."""
        skeys, order = self._sort_batch(keys)
        n = len(skeys)
        if n == 0:
            return []
        sorted_out: list = [default] * n
        found = 0
        for leaf, _, lo, hi in self._route_many(skeys):
            pos = self._find_keys_many_observed(leaf, skeys[lo:hi])
            values = leaf.payloads[pos].tolist()
            misses = np.flatnonzero(pos < 0)
            for i in misses.tolist():  # slot -1 was read: overwrite
                values[i] = default
            sorted_out[lo:hi] = values
            found += hi - lo - len(misses)
        self.counters.lookups += found
        if order is None:
            return sorted_out
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.arange(n, dtype=np.int64)
        return list(map(sorted_out.__getitem__, inverse.tolist()))

    @trace.traced("core.contains_many")
    def contains_many(self, keys) -> np.ndarray:
        """Vectorized membership test: a boolean array aligned with the
        input batch, identical to ``[self.contains(k) for k in keys]``."""
        skeys, order = self._sort_batch(keys)
        n = len(skeys)
        result = np.zeros(n, dtype=bool)
        for leaf, _, lo, hi in self._route_many(skeys):
            hits = self._find_keys_many_observed(leaf, skeys[lo:hi]) >= 0
            if order is None:
                result[lo:hi] = hits
            else:
                result[order[lo:hi]] = hits
        return result

    #: Below this many new keys per touched leaf, plain inserts win over a
    #: merge-rebuild of the leaf.
    _REBUILD_THRESHOLD = 4

    @trace.traced("core.insert_many")
    def insert_many(self, keys, payloads: Optional[list] = None) -> None:
        """Insert a batch of unique new keys in one routed traversal.

        Keys may arrive unsorted; duplicates (within the batch or against
        the index) raise :class:`DuplicateKeyError` *before* any mutation,
        so the operation is all-or-nothing.  The whole batch is routed with
        a single vectorized RMI descent (:meth:`_route_many`); each touched
        leaf receives its keys as one group — large groups merge-rebuild
        the leaf over the union of its old and new keys (Algorithm 3
        amortized over the group), tiny groups fall back to plain inserts —
        and leaves pushed past the adaptive RMI's node-size bound are split
        (:func:`repro.core.adaptive.split_until_fits`) exactly as scalar
        inserts would split them.
        """
        keys, payloads = self._normalize_batch(
            keys, payloads, column=True,
            kernels=get_kernels(self.config.kernel_backend))
        if len(keys) == 0:
            return

        # One vectorized traversal routes the whole batch; the validation
        # pass (no duplicates against the index either) runs as one
        # lock-step search per touched leaf.
        groups = self._route_many(keys)
        for leaf, _, lo, hi in groups:
            present = np.flatnonzero(leaf.find_keys_many(keys[lo:hi]) >= 0)
            if present.size:
                raise DuplicateKeyError(float(keys[lo + int(present[0])]))
        self._apply_insert_groups(groups, keys, payloads)

    def insert_sorted_unchecked(self, keys: np.ndarray,
                                payloads: Optional[list] = None) -> None:
        """:meth:`insert_many` minus normalization and validation, for
        callers that already guarantee the preconditions.

        ``keys`` must be a sorted, duplicate-free float64 array of keys
        known to be absent from the index, with ``payloads`` aligned; the
        sharded service's batch-write path validates once across all
        shards and then applies through this method, instead of paying a
        second routed validation descent per shard.  Violating the
        preconditions corrupts the index.
        """
        if len(keys) == 0:
            return
        payloads = (blank_column(len(keys), object) if payloads is None
                    else payload_column(payloads,
                                        get_kernels(self.config.kernel_backend)))
        self._apply_insert_groups(self._route_many(keys), keys, payloads)

    def _apply_insert_groups(self, groups, keys: np.ndarray,
                             payloads: np.ndarray) -> None:
        """Mutation phase of a validated batch insert: per-leaf grouped
        merge-rebuilds (plain inserts for tiny groups) with split
        handling (the oversized-rebuild decision routes through the
        adaptation policy).  A ``payloads`` column of another dtype than
        the index's upgrades the index first."""
        if payloads.dtype != self._payload_dtype:
            self._upgrade_payloads()
            payloads = payloads.astype(object)
        for leaf, parent, lo, hi in groups:
            count = hi - lo
            if count < self._REBUILD_THRESHOLD:
                # Tiny groups: plain inserts through the index, which also
                # honors the node-size bound via the scalar SMO path.
                for i in range(lo, hi):
                    self.insert(float(keys[i]), payloads.item(i))
                continue
            old_keys, old_payloads = leaf.export_sorted()
            merged_keys = np.concatenate([old_keys, keys[lo:hi]])
            merge_order = np.argsort(merged_keys, kind="stable")
            merged_keys = merged_keys[merge_order]
            merged_payloads = np.concatenate(
                [old_payloads, payloads[lo:hi]])[merge_order]
            leaf._model_based_build(merged_keys, merged_payloads,
                                    leaf._initial_capacity(len(merged_keys)))
            leaf.counters.inserts += count
            self._num_keys += count
            if self.policy.tracks_pressure:
                # _model_based_build reset the drift window; record the
                # batch afterwards so the write mix it represents
                # survives into the fresh window (searches=0: a rebuild
                # places keys without searching).
                self.policy.record(leaf, PressureEvent(EV_INSERT, count))
            if self.policy.should_split_oversized(leaf, self):
                before_splits = self.counters.splits
                inner = split_until_fits(leaf, parent, self.config,
                                         self.counters)
                if inner is not None and parent is None:
                    self._root = inner
                for _ in range(self.counters.splits - before_splits):
                    self.policy.note_applied(SMO_SPLIT_DOWN)

    def delete(self, key: float) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` when absent.

        After the delete the adaptation policy may fold an underfull leaf
        into a same-parent sibling (:func:`repro.core.adaptive
        .merge_leaves`, the delete-side SMO; the default heuristic never
        merges, matching the classic behaviour).
        """
        key = float(key)
        leaf, path = self._route_path(key)
        parent = path[-1] if path else None
        leaf.delete(key)
        self._num_keys -= 1
        if self.policy.tracks_pressure:
            self.policy.record(leaf, PressureEvent(EV_DELETE, 1))
        action = self.policy.choose_delete_smo(leaf, parent, self)
        if action != SMO_NONE:
            self._apply_leaf_smo(action, leaf, parent, path)

    @trace.traced("core.delete_many")
    def delete_many(self, keys) -> None:
        """Remove a batch of keys in one routed traversal, all-or-nothing.

        The batch is sorted and routed with a single vectorized RMI
        descent (:meth:`_route_many`), every key is located with one
        lock-step search per touched leaf *before* any mutation (a missing
        key — or a duplicate within the batch, whose second removal could
        not succeed — raises :class:`KeyNotFoundError` with nothing
        deleted), and each touched leaf then applies its whole group at
        once: large groups rebuild the leaf over the surviving records
        (the delete-side mirror of :meth:`insert_many`'s merge-rebuild),
        tiny groups fall back to scalar deletes.  Delete-side SMOs (leaf
        contraction and policy-chosen merges) run after the batch lands.
        """
        skeys, _ = self._normalize_delete_batch(keys)
        if len(skeys) == 0:
            return
        groups = self._route_many(skeys)
        positions = []
        for leaf, _, lo, hi in groups:
            pos = leaf.find_keys_many(skeys[lo:hi])
            missing = np.flatnonzero(pos < 0)
            if missing.size:
                raise KeyNotFoundError(float(skeys[lo + int(missing[0])]))
            positions.append(pos)
        self._apply_delete_groups(groups, skeys, positions)

    @trace.traced("core.erase_many")
    def erase_many(self, keys) -> int:
        """Like :meth:`delete_many` but absent keys are skipped instead of
        raising; returns the number of keys actually removed (the
        C++ ALEX ``erase`` contract, batched)."""
        skeys, _ = self._sort_batch(keys)
        if len(skeys) == 0:
            return 0
        if len(skeys) > 1:
            # The second copy of an in-batch duplicate is "already absent".
            skeys = skeys[np.concatenate([[True], np.diff(skeys) > 0])]
        groups = self._route_many(skeys)
        positions = [leaf.find_keys_many(skeys[lo:hi])
                     for leaf, _, lo, hi in groups]
        return self._apply_delete_groups(groups, skeys, positions)

    def delete_sorted_unchecked(self, keys: np.ndarray) -> None:
        """:meth:`delete_many` minus normalization and validation, for
        callers that already guarantee the preconditions (sorted,
        duplicate-free float64 keys all present in the index) — the
        sharded service's batch-delete path validates once across all
        shards and applies through this, mirroring
        :meth:`insert_sorted_unchecked`."""
        if len(keys) == 0:
            return
        groups = self._route_many(keys)
        positions = [leaf.find_keys_many(keys[lo:hi])
                     for leaf, _, lo, hi in groups]
        self._apply_delete_groups(groups, keys, positions)

    def _apply_delete_groups(self, groups, keys: np.ndarray,
                             positions: list) -> int:
        """Mutation phase of a batch delete: apply each leaf's group
        (scalar deletes for tiny groups, one rebuild over the survivors
        otherwise), then run the policy's delete-side SMOs.

        ``positions[g]`` holds each key's occupied slot in its leaf, -1
        where the key should be skipped (the :meth:`erase_many` path).
        SMOs are deferred until every group has landed: a merge replaces
        leaves, which would invalidate the handles later groups carry.
        """
        deleted = 0
        touched: list = []
        for (leaf, parent, lo, hi), pos in zip(groups, positions):
            present = pos >= 0
            count = int(present.sum())
            if count == 0:
                continue
            if count < self._REBUILD_THRESHOLD:
                for i in np.flatnonzero(present):
                    leaf.delete(float(keys[lo + int(i)]))
            else:
                keep = leaf.occupied.copy()
                keep[pos[present]] = False
                new_keys = leaf.keys[keep]
                new_payloads = leaf.payloads[keep]
                leaf._model_based_build(new_keys, new_payloads,
                                        leaf._initial_capacity(len(new_keys)))
                leaf.counters.deletes += count
            deleted += count
            self._num_keys -= count
            if self.policy.tracks_pressure:
                self.policy.record(leaf, PressureEvent(EV_DELETE, count))
            touched.append(float(keys[lo]))
        for probe_key in touched:
            # A batch delete can leave a leaf far below the merge floor;
            # keep merging (each step folds in one sibling) until the
            # policy is satisfied or no candidate remains.
            for _ in range(64):
                leaf, path = self._route_path(probe_key)
                parent = path[-1] if path else None
                action = self.policy.choose_delete_smo(leaf, parent, self)
                if action == SMO_NONE or not self._apply_leaf_smo(
                        action, leaf, parent, path):
                    break
        return deleted

    def update(self, key: float, payload) -> None:
        """Replace the payload of an existing key."""
        if not payload_fits(self._payload_dtype, payload):
            self._upgrade_payloads()
        leaf, _ = self._route(float(key))
        leaf.update(float(key), payload)

    def upsert(self, key: float, payload) -> None:
        """Insert ``key`` or update its payload when already present
        (Section 3.2: key-preserving updates are lookup + write)."""
        if not math.isfinite(float(key)):
            raise ValueError(f"key {float(key)!r} is not finite")
        try:
            self.update(key, payload)
        except KeyNotFoundError:
            self.insert(key, payload)

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------

    def range_scan(self, start_key: float, limit: int) -> list:
        """Return up to ``limit`` ``(key, payload)`` pairs with key >=
        ``start_key``, in key order (the paper's Workload-E-style scan)."""
        leaf, _ = self._route(float(start_key))
        self.counters.scans += 1
        return leaf.scan_from(float(start_key), limit)

    def range_query(self, lo: float, hi: float) -> list:
        """All ``(key, payload)`` pairs with ``lo <= key <= hi``."""
        lo = float(lo)
        leaf, _ = self._route(lo)
        self.counters.scans += 1
        return self._collect_range(leaf, leaf.find_insert_pos(lo), float(hi))

    @trace.traced("core.range_query_many")
    def range_query_many(self, los, his) -> list:
        """Vectorized :meth:`range_query` for a whole batch of bounds.

        Returns one result list per ``(los[i], his[i])`` pair, in input
        order, identical to ``[self.range_query(lo, hi) for lo, hi in
        zip(los, his)]``.  All lower bounds are routed in a single
        vectorized RMI descent, each touched leaf resolves its start
        positions with one lock-step search, and the matching records are
        sliced out of the leaf arrays node by node instead of probing
        per record.
        """
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.ndim != 1 or los.shape != his.shape:
            raise ValueError("los and his must be 1-D arrays of equal length")
        n = len(los)
        if n == 0:
            return []
        sorted_los, order = self._sort_batch(los)
        out: list = [None] * n
        self.counters.scans += n
        for leaf, _, lo, hi in self._route_many(sorted_los):
            starts = leaf.find_insert_pos_many(sorted_los[lo:hi])
            for i, start in zip(range(lo, hi), starts.tolist()):
                q = i if order is None else int(order[i])
                out[q] = self._collect_range(leaf, int(start), float(his[q]))
        return out

    def _collect_range(self, leaf: DataNode, pos: int, hi: float) -> list:
        """Collect ``(key, payload)`` pairs from ``leaf[pos:]`` onward along
        the leaf chain while keys stay ``<= hi`` (vectorized per-node
        slicing shared by the scalar and batch range queries)."""
        out: list = []
        node: Optional[DataNode] = leaf
        while node is not None:
            occ = np.flatnonzero(node.occupied[pos:]) + pos
            if occ.size:
                seg_keys = node.keys[occ]
                cut = int(np.searchsorted(seg_keys, hi, side="right"))
                out.extend(zip(seg_keys[:cut].tolist(),
                               node.payloads[occ[:cut]].tolist()))
                node.counters.payload_bytes_copied += (
                    cut * self.config.payload_size)
                if cut < occ.size:
                    return out
            node = node.next_leaf
            pos = 0
            self.counters.pointer_follows += 1
        return out

    def items(self) -> Iterator[Tuple[float, object]]:
        """Yield all ``(key, payload)`` pairs in key order."""
        for leaf in self.leaves():
            yield from leaf.iter_items()

    def keys(self) -> Iterator[float]:
        """Yield all keys in key order."""
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_keys

    def __contains__(self, key) -> bool:
        return self.contains(float(key))

    def __getitem__(self, key):
        return self.lookup(float(key))

    def __setitem__(self, key, payload) -> None:
        self.upsert(float(key), payload)

    def __delitem__(self, key) -> None:
        self.delete(float(key))

    def __iter__(self) -> Iterator[float]:
        return self.keys()

    # ------------------------------------------------------------------
    # Introspection and accounting
    # ------------------------------------------------------------------

    @property
    def variant_name(self) -> str:
        """The paper's name for this configuration (e.g. ``ALEX-GA-ARMI``)."""
        return self.config.variant_name

    def num_leaves(self) -> int:
        """Number of data nodes."""
        return sum(1 for _ in self.leaves())

    def num_models(self) -> int:
        """Number of linear models (inner + leaf), the paper's model count."""
        count = 0
        for node in self.nodes():
            if isinstance(node, InnerNode) or node.model is not None:
                count += 1
        return count

    def depth(self) -> int:
        """Maximum number of inner levels above any leaf (0 = root leaf)."""
        def _depth(node) -> int:
            if not isinstance(node, InnerNode):
                return 0
            return 1 + max(_depth(child) for child in node.distinct_children())
        return _depth(self._root)

    def index_size_bytes(self) -> int:
        """Index footprint: models + child pointers + metadata
        (Section 5.1's accounting; excludes the data arrays)."""
        total = 0
        for node in self.nodes():
            if isinstance(node, InnerNode):
                total += node.size_bytes()
            else:
                total += node.model_size_bytes() + NODE_METADATA_BYTES
        return total

    def data_size_bytes(self) -> int:
        """Data footprint: allocated key/payload arrays (gaps included)
        plus per-node bitmaps."""
        return sum(leaf.data_size_bytes() for leaf in self.leaves())

    def leaf_sizes(self) -> np.ndarray:
        """Key count per leaf (Figure 12's distribution)."""
        return np.array([leaf.num_keys for leaf in self.leaves()], dtype=np.int64)

    def validate(self) -> None:
        """Check every structural invariant; raises ``AssertionError`` on
        corruption.  Used by the tests and safe to call in production.

        Validates each leaf's internal invariants, the key-ordering of the
        leaf chain, that the chain covers exactly the tree's leaves, and
        that routing sends each leaf's min/max key back to that leaf.
        """
        chain = list(self.leaves())
        tree_leaves = [n for n in self.nodes() if not isinstance(n, InnerNode)]
        if len(chain) != len(tree_leaves):
            raise AssertionError(
                f"leaf chain has {len(chain)} nodes, tree has {len(tree_leaves)}"
            )
        if set(map(id, chain)) != set(map(id, tree_leaves)):
            raise AssertionError("leaf chain and tree disagree on leaves")
        total = 0
        prev_max: Optional[float] = None
        for leaf in chain:
            leaf.check_invariants()
            total += leaf.num_keys
            if leaf.num_keys == 0:
                continue
            if prev_max is not None and leaf.min_key() <= prev_max:
                raise AssertionError("leaf chain keys are not increasing")
            prev_max = leaf.max_key()
            for probe in (leaf.min_key(), leaf.max_key()):
                routed, _ = self._route(probe)
                if routed is not leaf:
                    raise AssertionError(
                        f"routing sends key {probe} to a different leaf"
                    )
        if total != self._num_keys:
            raise AssertionError(
                f"leaf keys total {total}, index believes {self._num_keys}"
            )


def export_arrays(index: AlexIndex) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, payloads)`` of the whole index, the payloads a column of
    the index's :attr:`~AlexIndex.payload_dtype`, via a leaf-chain walk
    that concatenates each leaf's arrays directly (no per-item
    iteration)."""
    parts = [leaf.export_sorted() for leaf in index.leaves()]
    return (np.concatenate([keys for keys, _ in parts]),
            concat_columns(payloads for _, payloads in parts))
