"""Secondary-storage simulation (paper Section 7, "Secondary Storage").

The paper: "ALEX uses a node per leaf layout, which could be mapped to
disk pages, and hence is secondary storage friendly.  A simple extension
of ALEX could store a pointer to a leaf data page in secondary storage,
for every leaf node."  This module builds exactly that extension as a
simulation:

* :class:`BufferPool` — fixed-capacity LRU page cache with I/O counters;
* :class:`PagedAlexIndex` — keeps the RMI (tiny) in memory, maps each
  leaf's data to one or more fixed-size pages, and charges a page read
  for each distinct page a lookup/scan touches;
* :class:`PagedBPlusTree` — the comparison point: *every* node (inner and
  leaf) lives on a page, so a cold lookup costs one read per level.

The headline consequence the paper predicts: because ALEX's in-memory
index is orders of magnitude smaller than B+Tree inner nodes, ALEX needs
roughly **one** I/O per cold point lookup while a B+Tree of height h needs
up to **h** — ``benchmarks/bench_ext_paged.py`` measures it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.baselines.bptree import BPlusTree, _Inner
from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig

DEFAULT_PAGE_BYTES = 4096


class BufferPool:
    """An LRU cache of page ids with read/write/eviction counters."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one page")
        self.capacity = capacity_pages
        self._pages: "OrderedDict[int, bool]" = OrderedDict()  # id -> dirty
        self.reads = 0
        self.hits = 0
        self.writes = 0
        self.evictions = 0

    def touch(self, page_id: int, dirty: bool = False) -> bool:
        """Access a page; returns True on a cache hit.

        A miss counts one read; evicting a dirty page counts one write.
        """
        if page_id in self._pages:
            self.hits += 1
            self._pages[page_id] = self._pages[page_id] or dirty
            self._pages.move_to_end(page_id)
            return True
        self.reads += 1
        if len(self._pages) >= self.capacity:
            _, was_dirty = self._pages.popitem(last=False)
            self.evictions += 1
            if was_dirty:
                self.writes += 1
        self._pages[page_id] = dirty
        return False

    def flush(self) -> None:
        """Write back every dirty page (counts writes) and clear."""
        for dirty in self._pages.values():
            if dirty:
                self.writes += 1
        self._pages.clear()

    @property
    def resident(self) -> int:
        """Pages currently cached."""
        return len(self._pages)

    def io_total(self) -> int:
        """Reads plus writes so far."""
        return self.reads + self.writes


class PagedAlexIndex:
    """ALEX with leaf data mapped to disk pages (RMI stays in memory).

    Page assignment: each leaf occupies ``ceil(allocated bytes /
    page_bytes)`` consecutive pages.  A lookup touches the single page
    containing the key's slot; a scan touches each page it crosses.
    Inserts dirty the touched page (expansion re-pages the leaf).
    """

    def __init__(self, index: AlexIndex, buffer_pages: int,
                 page_bytes: int = DEFAULT_PAGE_BYTES):
        self.index = index
        self.page_bytes = page_bytes
        self.pool = BufferPool(buffer_pages)
        self._leaf_pages: dict = {}
        self._next_page = 0
        self._assign_pages()

    @classmethod
    def bulk_load(cls, keys, payloads=None,
                  config: Optional[AlexConfig] = None,
                  buffer_pages: int = 64,
                  page_bytes: int = DEFAULT_PAGE_BYTES) -> "PagedAlexIndex":
        """Build the in-memory index, then page its leaves."""
        index = AlexIndex.bulk_load(keys, payloads, config)
        return cls(index, buffer_pages, page_bytes)

    def _assign_pages(self) -> None:
        self._leaf_pages.clear()
        self._next_page = 0
        for leaf in self.index.leaves():
            self._register_leaf(leaf)

    def _register_leaf(self, leaf) -> None:
        pages_needed = max(1, -(-leaf.data_size_bytes() // self.page_bytes))
        self._leaf_pages[id(leaf)] = (self._next_page, pages_needed)
        self._next_page += pages_needed

    def _page_of_slot(self, leaf, slot: int) -> int:
        if id(leaf) not in self._leaf_pages:
            self._register_leaf(leaf)  # leaf created by a split
        base, count = self._leaf_pages[id(leaf)]
        per_slot = 8 + self.index.config.payload_size
        offset = (slot * per_slot) // self.page_bytes
        return base + min(offset, count - 1)

    def lookup(self, key: float):
        """Point lookup: in-memory RMI traversal + one leaf-page touch."""
        key = float(key)
        leaf, _ = self.index._route(key)
        slot = leaf.find_key(key)
        if slot < 0:
            # A miss still touched the page it searched.
            self.pool.touch(self._page_of_slot(leaf, max(0, leaf.predict_pos(key))))
            from repro.core.errors import KeyNotFoundError
            raise KeyNotFoundError(key)
        self.pool.touch(self._page_of_slot(leaf, slot))
        return leaf.payloads.item(slot)

    def insert(self, key: float, payload=None) -> None:
        """Insert, dirtying the touched page; re-pages on expansion."""
        key = float(key)
        leaf, _ = self.index._route(key)
        pages_before = self._leaf_pages.get(id(leaf))
        capacity_before = leaf.capacity
        self.index.insert(key, payload)
        leaf_after, _ = self.index._route(key)
        if (leaf_after is not leaf or leaf.capacity != capacity_before
                or pages_before is None):
            # Expansion or split rewrote the leaf: charge a write per page
            # of the new layout.
            self._register_leaf(leaf_after)
            _, count = self._leaf_pages[id(leaf_after)]
            self.pool.writes += count
        slot = leaf_after.find_key(key)
        self.pool.touch(self._page_of_slot(leaf_after, slot), dirty=True)

    def range_scan(self, start_key: float, limit: int) -> list:
        """Scan, touching every page the result range crosses."""
        leaf, _ = self.index._route(float(start_key))
        out = leaf.scan_from(float(start_key), limit)
        # Charge pages across the leaves the scan crossed.
        remaining = limit
        node = leaf
        while node is not None and remaining > 0:
            base, count = self._leaf_pages.get(id(node), (None, 0))
            if base is not None:
                for page in range(base, base + count):
                    self.pool.touch(page)
            remaining -= node.num_keys
            node = node.next_leaf
        return out

    def io_per_op(self, ops: int) -> float:
        """Average page reads per operation so far."""
        return self.pool.reads / max(1, ops)


class PagedBPlusTree:
    """B+Tree with *every* node on a page — the classic disk B+Tree.

    Uses the in-memory :class:`BPlusTree` for structure and charges the
    buffer pool one touch per node visited on the root-to-leaf path.
    """

    def __init__(self, tree: BPlusTree, buffer_pages: int):
        self.tree = tree
        self.pool = BufferPool(buffer_pages)
        self._page_ids: dict = {}
        self._next_page = 0

    @classmethod
    def bulk_load(cls, keys, payloads=None, page_size: int = 256,
                  buffer_pages: int = 64) -> "PagedBPlusTree":
        """Build and page a B+Tree."""
        tree = BPlusTree.bulk_load(keys, payloads, page_size=page_size)
        return cls(tree, buffer_pages)

    def _page_id(self, node) -> int:
        if id(node) not in self._page_ids:
            self._page_ids[id(node)] = self._next_page
            self._next_page += 1
        return self._page_ids[id(node)]

    def lookup(self, key: float):
        """Point lookup touching one page per level."""
        key = float(key)
        node = self.tree._root
        self.pool.touch(self._page_id(node))
        while isinstance(node, _Inner):
            node = node.children[self.tree._child_slot(node, key)]
            self.pool.touch(self._page_id(node))
        from repro.baselines.bptree import _lower_bound
        pos = _lower_bound(node.keys, key, self.tree.counters)
        if pos < len(node.keys) and node.keys[pos] == key:
            return node.payloads[pos]
        from repro.core.errors import KeyNotFoundError
        raise KeyNotFoundError(key)

    def insert(self, key: float, payload=None) -> None:
        """Insert, touching (dirty) one page per level on the path."""
        node = self.tree._root
        self.pool.touch(self._page_id(node), dirty=True)
        probe = node
        while isinstance(probe, _Inner):
            probe = probe.children[self.tree._child_slot(probe, float(key))]
            self.pool.touch(self._page_id(probe), dirty=True)
        self.tree.insert(key, payload)

    def io_per_op(self, ops: int) -> float:
        """Average page reads per operation so far."""
        return self.pool.reads / max(1, ops)
