"""A full in-memory B+Tree: the paper's primary baseline.

Stand-in for the STX B+Tree of Section 5.1: a height-balanced tree with all
records at the leaf level, leaves chained for range scans, and a single
tunable — the page size — which determines the fanout of inner nodes and
the record capacity of leaves.  The paper grid-searches the page size per
benchmark; the benchmark harness fixes it through
:attr:`repro.bench.SystemParams.page_size`.

Instrumented with the shared :class:`~repro.core.stats.Counters`:
binary-search comparisons inside nodes, pointer follows between levels
(the cache-miss proxy the paper's "traverse to leaf" discussion centres
on), and element shifts inside leaves on insert.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.core.stats import Counters

#: Bytes of bookkeeping charged per node in the size accounting.
NODE_HEADER_BYTES = 16
KEY_BYTES = 8
POINTER_BYTES = 8


class _Leaf:
    """Leaf page: parallel key/payload lists plus sibling links."""

    __slots__ = ("keys", "payloads", "next", "prev")

    def __init__(self):
        self.keys: List[float] = []
        self.payloads: List[object] = []
        self.next: Optional["_Leaf"] = None
        self.prev: Optional["_Leaf"] = None


class _Inner:
    """Inner page: ``children[i]`` holds keys < ``keys[i]``;
    ``children[-1]`` holds the rest."""

    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys: List[float] = []
        self.children: List[object] = []


def _lower_bound(keys: List[float], key: float, counters: Counters) -> int:
    """Binary search in a node, counting one comparison per halving."""
    lo, hi = 0, len(keys)
    steps = 0
    while lo < hi:
        mid = (lo + hi) // 2
        steps += 1
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    counters.comparisons += steps
    counters.probes += steps
    return lo


class BPlusTree:
    """A textbook B+Tree keyed by float64 with opaque payloads.

    Parameters
    ----------
    page_size:
        Bytes per node.  A leaf holds ``(page_size - header) / 16`` records
    and an inner node the same number of key/pointer pairs.
    payload_size:
        Payload bytes per record (space accounting only).
    counters:
        Shared operation counters (a fresh one is created when omitted).
    """

    def __init__(self, page_size: int = 256, payload_size: int = 8,
                 counters: Optional[Counters] = None):
        if page_size < 64:
            raise ValueError("page_size must be at least 64 bytes")
        self.page_size = page_size
        self.payload_size = payload_size
        self.counters = counters or Counters()
        self.max_keys = max(3, (page_size - NODE_HEADER_BYTES) // (KEY_BYTES + POINTER_BYTES))
        self.min_keys = self.max_keys // 2
        self._root: object = _Leaf()
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(cls, keys, payloads: Optional[list] = None,
                  page_size: int = 256, payload_size: int = 8,
                  fill_factor: float = 0.85,
                  counters: Optional[Counters] = None) -> "BPlusTree":
        """Build bottom-up from keys (sorted internally), leaves filled to
        ``fill_factor`` so early inserts do not cascade splits."""
        tree = cls(page_size=page_size, payload_size=payload_size,
                   counters=counters)
        keys = np.asarray(keys, dtype=np.float64)
        if payloads is None:
            payloads = [None] * len(keys)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        payloads = [payloads[i] for i in order]
        if len(keys) > 1 and (np.diff(keys) == 0).any():
            dup = int(np.flatnonzero(np.diff(keys) == 0)[0])
            raise DuplicateKeyError(float(keys[dup]))
        if len(keys) == 0:
            return tree

        per_leaf = max(1, int(tree.max_keys * fill_factor))
        leaves: List[_Leaf] = []
        for start in range(0, len(keys), per_leaf):
            leaf = _Leaf()
            leaf.keys = [float(k) for k in keys[start:start + per_leaf]]
            leaf.payloads = list(payloads[start:start + per_leaf])
            leaves.append(leaf)
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
            right.prev = left

        level: List[object] = list(leaves)
        separators = [leaf.keys[0] for leaf in leaves]
        height = 1
        while len(level) > 1:
            per_inner = max(2, int(tree.max_keys * fill_factor))
            next_level: List[object] = []
            next_separators: List[float] = []
            for start in range(0, len(level), per_inner):
                inner = _Inner()
                inner.children = level[start:start + per_inner]
                inner.keys = separators[start + 1:start + len(inner.children)]
                next_level.append(inner)
                next_separators.append(separators[start])
            level = next_level
            separators = next_separators
            height += 1
        tree._root = level[0]
        tree._size = len(keys)
        tree._height = height
        return tree

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------

    def _find_leaf(self, key: float) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            slot = self._child_slot(node, key)
            node = node.children[slot]
            self.counters.pointer_follows += 1
        return node

    def _child_slot(self, node: _Inner, key: float) -> int:
        """Child index for ``key``: first separator strictly greater."""
        lo, hi = 0, len(node.keys)
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if node.keys[mid] <= key:
                lo = mid + 1
            else:
                hi = mid
        self.counters.comparisons += steps
        self.counters.probes += steps
        return lo

    def lookup(self, key: float):
        """Return the payload for ``key``; raises when absent."""
        key = float(key)
        leaf = self._find_leaf(key)
        pos = _lower_bound(leaf.keys, key, self.counters)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            self.counters.lookups += 1
            return leaf.payloads[pos]
        raise KeyNotFoundError(key)

    def get(self, key: float, default=None):
        """Like :meth:`lookup` but returns ``default`` when absent."""
        try:
            return self.lookup(key)
        except KeyNotFoundError:
            return default

    def contains(self, key: float) -> bool:
        """Whether ``key`` is present."""
        key = float(key)
        leaf = self._find_leaf(key)
        pos = _lower_bound(leaf.keys, key, self.counters)
        return pos < len(leaf.keys) and leaf.keys[pos] == key

    def insert(self, key: float, payload=None) -> None:
        """Insert a unique key, splitting nodes on overflow."""
        key = float(key)
        result = self._insert(self._root, key, payload)
        if result is not None:
            sep, right = result
            new_root = _Inner()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1
        self.counters.inserts += 1

    def _insert(self, node, key: float, payload):
        """Recursive insert; returns ``(separator, new_right_sibling)`` when
        ``node`` split, else ``None``."""
        if isinstance(node, _Leaf):
            pos = _lower_bound(node.keys, key, self.counters)
            if pos < len(node.keys) and node.keys[pos] == key:
                raise DuplicateKeyError(key)
            node.keys.insert(pos, key)
            node.payloads.insert(pos, payload)
            self.counters.shifts += len(node.keys) - 1 - pos
            if len(node.keys) <= self.max_keys:
                return None
            return self._split_leaf(node)

        slot = self._child_slot(node, key)
        self.counters.pointer_follows += 1
        result = self._insert(node.children[slot], key, payload)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(slot, sep)
        node.children.insert(slot + 1, right)
        self.counters.shifts += len(node.keys) - 1 - slot
        if len(node.keys) <= self.max_keys:
            return None
        return self._split_inner(node)

    def _split_leaf(self, leaf: _Leaf) -> Tuple[float, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.payloads = leaf.payloads[mid:]
        del leaf.keys[mid:]
        del leaf.payloads[mid:]
        right.next = leaf.next
        right.prev = leaf
        if leaf.next is not None:
            leaf.next.prev = right
        leaf.next = right
        self.counters.splits += 1
        return right.keys[0], right

    def _split_inner(self, node: _Inner) -> Tuple[float, _Inner]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Inner()
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        del node.keys[mid:]
        del node.children[mid + 1:]
        self.counters.splits += 1
        return sep, right

    # ------------------------------------------------------------------
    # Delete (with borrowing and merging)
    # ------------------------------------------------------------------

    def delete(self, key: float) -> None:
        """Remove ``key``, rebalancing by borrow-or-merge on underflow."""
        key = float(key)
        self._delete(self._root, key)
        if isinstance(self._root, _Inner) and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1
        self._size -= 1
        self.counters.deletes += 1

    def _delete(self, node, key: float) -> None:
        if isinstance(node, _Leaf):
            pos = _lower_bound(node.keys, key, self.counters)
            if pos >= len(node.keys) or node.keys[pos] != key:
                raise KeyNotFoundError(key)
            node.keys.pop(pos)
            node.payloads.pop(pos)
            self.counters.shifts += len(node.keys) - pos
            return
        slot = self._child_slot(node, key)
        self.counters.pointer_follows += 1
        child = node.children[slot]
        self._delete(child, key)
        if self._underflowed(child):
            self._rebalance(node, slot)

    def _underflowed(self, node) -> bool:
        if isinstance(node, _Leaf):
            return len(node.keys) < self.min_keys
        return len(node.children) < self.min_keys + 1

    def _rebalance(self, parent: _Inner, slot: int) -> None:
        """Fix an underflowed child by borrowing from a sibling when it has
        spare keys, else merging with it."""
        child = parent.children[slot]
        left = parent.children[slot - 1] if slot > 0 else None
        right = parent.children[slot + 1] if slot + 1 < len(parent.children) else None

        if isinstance(child, _Leaf):
            if left is not None and len(left.keys) > self.min_keys:
                child.keys.insert(0, left.keys.pop())
                child.payloads.insert(0, left.payloads.pop())
                parent.keys[slot - 1] = child.keys[0]
            elif right is not None and len(right.keys) > self.min_keys:
                child.keys.append(right.keys.pop(0))
                child.payloads.append(right.payloads.pop(0))
                parent.keys[slot] = right.keys[0]
            elif left is not None:
                self._merge_leaves(parent, slot - 1)
            else:
                self._merge_leaves(parent, slot)
            return

        if left is not None and len(left.children) > self.min_keys + 1:
            child.keys.insert(0, parent.keys[slot - 1])
            parent.keys[slot - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        elif right is not None and len(right.children) > self.min_keys + 1:
            child.keys.append(parent.keys[slot])
            parent.keys[slot] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        elif left is not None:
            self._merge_inners(parent, slot - 1)
        else:
            self._merge_inners(parent, slot)

    def _merge_leaves(self, parent: _Inner, left_slot: int) -> None:
        left: _Leaf = parent.children[left_slot]
        right: _Leaf = parent.children[left_slot + 1]
        left.keys.extend(right.keys)
        left.payloads.extend(right.payloads)
        left.next = right.next
        if right.next is not None:
            right.next.prev = left
        parent.keys.pop(left_slot)
        parent.children.pop(left_slot + 1)

    def _merge_inners(self, parent: _Inner, left_slot: int) -> None:
        left: _Inner = parent.children[left_slot]
        right: _Inner = parent.children[left_slot + 1]
        left.keys.append(parent.keys[left_slot])
        left.keys.extend(right.keys)
        left.children.extend(right.children)
        parent.keys.pop(left_slot)
        parent.children.pop(left_slot + 1)

    # ------------------------------------------------------------------
    # Updates, scans, iteration
    # ------------------------------------------------------------------

    def update(self, key: float, payload) -> None:
        """Replace the payload of an existing key."""
        key = float(key)
        leaf = self._find_leaf(key)
        pos = _lower_bound(leaf.keys, key, self.counters)
        if pos >= len(leaf.keys) or leaf.keys[pos] != key:
            raise KeyNotFoundError(key)
        leaf.payloads[pos] = payload

    def range_scan(self, start_key: float, limit: int) -> list:
        """Up to ``limit`` pairs with key >= ``start_key`` via leaf links."""
        start_key = float(start_key)
        leaf: Optional[_Leaf] = self._find_leaf(start_key)
        pos = _lower_bound(leaf.keys, start_key, self.counters)
        self.counters.scans += 1
        out: list = []
        while leaf is not None and len(out) < limit:
            while pos < len(leaf.keys) and len(out) < limit:
                out.append((leaf.keys[pos], leaf.payloads[pos]))
                self.counters.payload_bytes_copied += self.payload_size
                pos += 1
            leaf = leaf.next
            self.counters.pointer_follows += 1
            pos = 0
        return out

    def range_query(self, lo: float, hi: float) -> list:
        """All pairs with ``lo <= key <= hi``."""
        lo, hi = float(lo), float(hi)
        leaf: Optional[_Leaf] = self._find_leaf(lo)
        pos = _lower_bound(leaf.keys, lo, self.counters)
        self.counters.scans += 1
        out: list = []
        while leaf is not None:
            while pos < len(leaf.keys):
                if leaf.keys[pos] > hi:
                    return out
                out.append((leaf.keys[pos], leaf.payloads[pos]))
                self.counters.payload_bytes_copied += self.payload_size
                pos += 1
            leaf = leaf.next
            self.counters.pointer_follows += 1
            pos = 0
        return out

    def items(self) -> Iterator[Tuple[float, object]]:
        """All pairs in key order."""
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        leaf: Optional[_Leaf] = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.payloads)
            leaf = leaf.next

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key) -> bool:
        return self.contains(float(key))

    # ------------------------------------------------------------------
    # Accounting and validation
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels, leaves included."""
        return self._height

    def index_size_bytes(self) -> int:
        """Sum of inner-node sizes (the paper's B+Tree index size)."""
        total = 0
        for node in self._walk():
            if isinstance(node, _Inner):
                total += (NODE_HEADER_BYTES + len(node.keys) * KEY_BYTES
                          + len(node.children) * POINTER_BYTES)
        return total

    def data_size_bytes(self) -> int:
        """Sum of leaf-node sizes (keys + payloads + header)."""
        total = 0
        for node in self._walk():
            if isinstance(node, _Leaf):
                total += (NODE_HEADER_BYTES
                          + len(node.keys) * (KEY_BYTES + self.payload_size))
        return total

    def _walk(self) -> Iterator[object]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, _Inner):
                stack.extend(node.children)

    def validate(self) -> None:
        """Assert structural invariants: sortedness, separator correctness,
        balanced depth, and leaf-chain consistency."""
        depths = set()

        def _check(node, lo: float, hi: float, depth: int) -> None:
            if isinstance(node, _Leaf):
                depths.add(depth)
                for a, b in zip(node.keys, node.keys[1:]):
                    if a >= b:
                        raise AssertionError("leaf keys not strictly increasing")
                for k in node.keys:
                    if not (lo <= k < hi):
                        raise AssertionError("leaf key outside separator range")
                return
            if len(node.children) != len(node.keys) + 1:
                raise AssertionError("inner node fanout mismatch")
            bounds = [lo] + list(node.keys) + [hi]
            for a, b in zip(bounds, bounds[1:]):
                if a > b:
                    raise AssertionError("separators not sorted")
            for i, child in enumerate(node.children):
                _check(child, bounds[i], bounds[i + 1], depth + 1)

        _check(self._root, -math.inf, math.inf, 1)
        if len(depths) > 1:
            raise AssertionError("tree is not height-balanced")
        total = sum(1 for _ in self.items())
        if total != self._size:
            raise AssertionError("size mismatch against leaf chain")
