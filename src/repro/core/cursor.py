"""Cursor: positional, bidirectional iteration over an ALEX index.

Database engines drive indexes through cursors (open-at-key, step
forward/backward, read current) rather than whole-range materialization.
:class:`Cursor` provides that access path on top of the leaf chain and
per-node bitmaps, charging the same counters as scans.

A cursor is a *snapshot-unaware* pointer: mutating the index invalidates
open cursors (like an unprotected B+Tree cursor); the cursor detects the
common cases and raises :class:`CursorInvalidatedError` instead of
returning garbage.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .alex import AlexIndex
from .data_node import DataNode
from .errors import IndexError_


class CursorInvalidatedError(IndexError_):
    """The index mutated under an open cursor."""


class Cursor:
    """A bidirectional cursor over an :class:`AlexIndex`.

    Create via :meth:`AlexIndex`-independent constructor::

        cursor = Cursor(index, start_key=42.0)
        while cursor.valid():
            key, payload = cursor.current()
            cursor.next()
    """

    def __init__(self, index: AlexIndex, start_key: Optional[float] = None):
        self._index = index
        self._expected_size = len(index)
        self._leaf: Optional[DataNode] = None
        self._pos = -1
        if start_key is None:
            self.seek_first()
        else:
            self.seek(float(start_key))

    # ------------------------------------------------------------------
    # Positioning
    # ------------------------------------------------------------------

    def seek(self, key: float) -> None:
        """Position at the first entry with ``entry key >= key``."""
        self._check_generation()
        leaf, _ = self._index._route(float(key))
        pos = leaf.find_insert_pos(float(key))
        self._leaf = leaf
        self._pos = pos - 1
        self.next()

    def seek_first(self) -> None:
        """Position at the smallest key."""
        self._check_generation()
        self._leaf = self._index.first_leaf()
        self._pos = -1
        self.next()

    def seek_last(self) -> None:
        """Position at the largest key."""
        self._check_generation()
        leaf = self._index.first_leaf()
        while leaf.next_leaf is not None:
            leaf = leaf.next_leaf
        self._leaf = leaf
        self._pos = leaf.capacity
        self.prev()

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def next(self) -> bool:
        """Advance to the next real entry; returns validity."""
        self._check_generation()
        leaf, pos = self._leaf, self._pos
        while leaf is not None:
            window = leaf.occupied[pos + 1:]
            hit = np.argmax(window) if window.size else 0
            if window.size and window[hit]:
                self._leaf, self._pos = leaf, pos + 1 + int(hit)
                leaf.counters.probes += 1
                return True
            leaf = leaf.next_leaf
            if leaf is not None:
                leaf.counters.pointer_follows += 1
            pos = -1
        self._leaf, self._pos = None, -1
        return False

    def prev(self) -> bool:
        """Step back to the previous real entry; returns validity."""
        self._check_generation()
        leaf, pos = self._leaf, self._pos
        while leaf is not None:
            window = leaf.occupied[:max(0, pos)]
            if window.size and window.any():
                hit = int(pos - 1 - np.argmax(window[::-1]))
                self._leaf, self._pos = leaf, hit
                leaf.counters.probes += 1
                return True
            leaf = leaf.prev_leaf
            if leaf is not None:
                leaf.counters.pointer_follows += 1
                pos = leaf.capacity
        self._leaf, self._pos = None, -1
        return False

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def valid(self) -> bool:
        """Whether the cursor points at a live entry."""
        return self._leaf is not None and self._pos >= 0

    def current(self) -> Tuple[float, object]:
        """The ``(key, payload)`` under the cursor."""
        self._check_generation()
        if not self.valid():
            raise IndexError_("cursor is exhausted")
        return (float(self._leaf.keys[self._pos]),
                self._leaf.payloads.item(self._pos))

    def key(self) -> float:
        """The key under the cursor."""
        return self.current()[0]

    def payload(self):
        """The payload under the cursor."""
        return self.current()[1]

    def take(self, count: int) -> list:
        """Read up to ``count`` entries forward (cursor ends after them).

        Reads each leaf's run with one gather of keys and payloads,
        charging the probes the per-entry :meth:`next` steps would."""
        self._check_generation()
        out: list = []
        while self.valid() and len(out) < count:
            leaf, pos = self._leaf, self._pos
            occ = (np.flatnonzero(leaf.occupied[pos:])
                   + pos)[:count - len(out)]
            out.extend(zip(leaf.keys[occ].tolist(),
                           leaf.payloads[occ].tolist()))
            leaf.counters.probes += len(occ) - 1
            self._pos = int(occ[-1])
            self.next()
        return out

    def __iter__(self):
        while self.valid():
            yield self.current()
            self.next()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _check_generation(self) -> None:
        if len(self._index) != self._expected_size:
            raise CursorInvalidatedError(
                "index was modified while the cursor was open")

    def refresh(self) -> None:
        """Re-arm the cursor after a mutation, keeping its key position."""
        key = None
        if self.valid():
            try:
                key = float(self._leaf.keys[self._pos])
            except Exception:  # leaf may have been rebuilt
                key = None
        self._expected_size = len(self._index)
        if key is not None:
            self.seek(key)
        else:
            self.seek_first()
