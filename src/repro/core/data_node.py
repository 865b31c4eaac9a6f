"""Common machinery for ALEX leaf ("data") nodes.

Both leaf layouts of Section 3.3 — the Gapped Array and the Packed Memory
Array — share everything implemented here:

* a key array with *gaps*, where each gap slot holds a copy of the closest
  real key to its right (trailing gaps hold ``+inf``), so the array is
  non-decreasing end-to-end and exponential search needs no occupancy test;
* a per-node occupancy **bitmap** used by range scans to skip gaps
  (Section 5.2.3);
* a **payload column** at the same slots: one ndarray of the node's
  capacity (the reference implementation's typed payload array).  Its
  dtype is ``int64`` or ``float64`` when the index's bulk-load payloads
  pass :func:`numeric_column`'s *exact-kind* rule and ``object``
  otherwise.  The rule: a list of Python ``int`` only becomes an
  ``int64`` column and a list of Python ``float`` only a ``float64``
  one; anything else stays ``object`` — ``bool`` or numpy scalars,
  mixed ``1`` / ``1.0``, and ints numpy would widen to ``uint64``,
  ``float64`` (any value in ``[2**63, 2**64)``) or ``object`` — so
  every payload comes back with its exact Python type and value.  The
  rule is the ``type_payloads`` kernel's: both kernel backends implement
  it, the numpy one in Python and the compiled one in one C pass over
  the list.  The first written value that does not fit
  (:func:`payload_fits`) upgrades the index's columns to ``object``,
  once.  Values leave only through ``item()`` or ``tolist()``, which
  return exactly the Python value stored, and shifts, rebalances and
  rebuilds move them with the same numpy slice operations on every
  dtype;
* **model-based builds** (Algorithm 3): train a linear model on the keys,
  rescale it to the array size, then place every key at its predicted slot
  in sorted order, spilling collisions to the first gap on the right (the
  fit, placement and gap fill are the fourth kernel, ``fit_place``, beside
  predict + clamp, search and shift-and-insert; one call builds every
  leaf of a bulk load or split, see :func:`build_runs`);
* **lookups** via model prediction + exponential search (Algorithm 3);
* cold-start behaviour: nodes with very few keys skip the model and use
  plain binary search (Section 3.3.3).

Subclasses implement the insert path (how to open a slot) and the expansion
policy (GA: grow by ``1/d``; PMA: double).
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Tuple

import numpy as np

from .config import AlexConfig
from .errors import DuplicateKeyError, KeyNotFoundError
from .kernels import KernelBackend, get_kernels
from .linear_model import LinearModel
from .policy import DEFAULT_POLICY, AdaptationPolicy
from .stats import Counters

GAP_SENTINEL = np.inf
_BITMAP_WORD_BITS = 64
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def gap_value(dtype: np.dtype):
    """What a gap slot of a payload column holds: ``None`` in an
    ``object`` column (no reference kept alive), zero in a typed one."""
    return None if dtype.kind == "O" else 0


def blank_column(n: int, dtype) -> np.ndarray:
    """A payload column of ``n`` gap slots (numpy fills a new ``object``
    array with ``None``)."""
    dtype = np.dtype(dtype)
    return np.empty(n, dtype) if dtype.kind == "O" else np.zeros(n, dtype)


def payload_fits(dtype: np.dtype, value) -> bool:
    """Whether a column of ``dtype`` stores ``value`` so that ``item()``
    returns it exactly: anything fits ``object``, only a Python ``float``
    fits ``float64``, and only a Python ``int`` in int64 range fits
    ``int64`` (``bool`` and numpy scalars never fit a typed column)."""
    kind = dtype.kind
    if kind == "O":
        return True
    if kind == "f":
        return type(value) is float
    return type(value) is int and _INT64_MIN <= value <= _INT64_MAX


def numeric_column(values, kernels: Optional[KernelBackend] = None
                   ) -> Optional[np.ndarray]:
    """``values`` as a 1-D ``int64`` or ``float64`` array whose
    ``tolist()`` restores it exactly, or ``None`` when it has no such
    column: only a non-empty list of Python ``int`` only (and in int64
    range) or of Python ``float`` only qualifies (see the module
    docstring's exact-kind rule).  One ``type_payloads`` call of
    ``kernels`` (default: the process default backend) types it."""
    return (kernels or get_kernels()).type_payloads(values)


def payload_column(values, kernels: Optional[KernelBackend] = None
                   ) -> np.ndarray:
    """``values`` as a payload column: the ``int64`` or ``float64``
    column :func:`numeric_column` makes of them when the exact-kind rule
    admits them, else an ``object`` column holding each value whole (a
    sequence stays one element; an ndarray's elements stay numpy
    scalars)."""
    if not isinstance(values, list):
        values = list(values)
    column = numeric_column(values, kernels)
    if column is None:
        column = np.fromiter(values, dtype=object, count=len(values))
    return column


def object_column(column: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """``column`` converted to ``object``, gaps ``None``: the one-way
    upgrade of a typed column (each value becomes the Python ``int`` or
    ``float`` :meth:`numpy.ndarray.item` would have returned)."""
    if column.dtype.kind == "O":
        return column
    upgraded = column.astype(object)
    upgraded[~occupied] = None
    return upgraded


def concat_columns(columns) -> np.ndarray:
    """Concatenate payload columns; columns of different dtypes meet as
    ``object``, so no value is ever cast to another kind."""
    columns = list(columns)
    if not columns:
        return blank_column(0, object)
    if len({column.dtype for column in columns}) > 1:
        columns = [column.astype(object) for column in columns]
    return np.concatenate(columns)


def build_runs(nodes: list, keys: np.ndarray, payloads: Optional[np.ndarray],
               bounds, capacities=None) -> None:
    """Algorithm 3 for several leaves at once: train, rescale and
    model-based-insert ``keys[bounds[j]:bounds[j + 1]]`` into
    ``nodes[j]``.

    ``keys`` are sorted and duplicate-free; ``payloads`` (default:
    ``None`` for every key) is a payload column aligned with them, whose
    dtype every node's column takes, or any other sequence, which
    becomes an ``object`` column (typed columns come from an index's
    bulk load, which owns the one-way upgrade of its leaves).  Node
    ``j`` gets ``capacities[j]`` slots (default: the build density of
    the nodes' layout, which they share), at least
    :attr:`DataNode.MIN_CAPACITY` and at least its key count.  Each key
    lands at its model-predicted slot in sorted order; when that slot is
    taken it spills to the first gap on the right, and trailing room is
    reserved so every key fits.  Segments below ``min_keys_for_model``
    keys get no model (cold start, Section 3.3.3).

    One ``fit_place`` kernel call fits and places every segment, and one
    scatter puts every payload into a payload arena of the same length:
    keys are placed at strictly increasing slots, so the set bits of the
    bitmap, in order, are exactly the keys' slots.  The nodes take views
    of the shared key, bitmap and payload buffers at the same offsets.
    Counters are charged once for the whole build, with the per-leaf
    totals.
    """
    first = nodes[0]
    counters, config = first.counters, first.config
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    if capacities is None:
        capacities = first._initial_capacities(sizes)
    capacities = np.maximum(np.maximum(capacities, sizes),
                            DataNode.MIN_CAPACITY)
    min_keys = config.min_keys_for_model
    slot_keys, occupied, slopes, intercepts, fills = (
        first.kernels.fit_place(keys, bounds, capacities, min_keys))
    modeled = sizes >= min_keys
    counters.retrains += int(modeled.sum())
    counters.model_inferences += int(sizes[modeled].sum())
    counters.build_moves += int(bounds[-1])
    counters.gap_fill_writes += fills
    offsets = [0] + np.cumsum(capacities).tolist()
    if payloads is None:
        arena = blank_column(offsets[-1], object)
    else:
        if not isinstance(payloads, np.ndarray):
            payloads = np.fromiter(payloads, dtype=object,
                                   count=len(payloads))
        arena = blank_column(offsets[-1], payloads.dtype)
        arena[occupied] = payloads
    rows = zip(nodes, offsets, offsets[1:], sizes.tolist(), modeled.tolist(),
               slopes.tolist(), intercepts.tolist())
    for node, lo, hi, n, has_model, slope, intercept in rows:
        node.keys = slot_keys[lo:hi]
        node.occupied = occupied[lo:hi]
        node.payloads = arena[lo:hi]
        node.model = LinearModel(slope, intercept) if has_model else None
        node.capacity = hi - lo
        node.num_keys = n
        # Every rebuild — bulk build, expansion, contraction, retrain,
        # batch merge-rebuild — lands here, so this is the one place the
        # adaptation policy's per-node drift window is invalidated.
        node.policy.note_smo(node, "rebuild")


def _frozen_empty(dtype) -> np.ndarray:
    array = np.empty(0, dtype)
    array.flags.writeable = False
    return array


class DataNode:
    """Base class for ALEX leaf nodes (gapped key array + bitmap + model)."""

    #: minimum capacity a node is ever allocated
    MIN_CAPACITY = 8

    #: A new leaf's arrays until :func:`build_runs` gives it its own views
    #: (every leaf is built right after it is made): empty, read-only
    #: and shared by all leaves, so making a leaf allocates no array.
    keys = _frozen_empty(np.float64)
    payloads = _frozen_empty(object)
    occupied = _frozen_empty(bool)

    def __init__(self, config: AlexConfig, counters: Counters,
                 policy: Optional[AdaptationPolicy] = None,
                 kernels: Optional[KernelBackend] = None):
        self.config = config
        self.counters = counters
        # The hot-loop implementation (search / predict / shift) for this
        # node; a process-wide singleton, so sharing configs shares kernels.
        # Builders that create many leaves resolve it once and pass it.
        self.kernels = kernels or get_kernels(config.kernel_backend)
        # Structural decisions (expand/contract here; splits and merges at
        # the index level) route through the adaptation policy layer.
        self.policy = policy or DEFAULT_POLICY
        # Per-node EMA pressure state, populated lazily by policies that
        # track it (repro.core.policy.NodePressure).
        self.pressure = None
        self.capacity = 0
        self.num_keys = 0
        self.model: Optional[LinearModel] = None
        # Doubly-linked leaf chain in key order, used by range scans.
        self.next_leaf: Optional["DataNode"] = None
        self._prev_ref: Optional[weakref.ref] = None

    @property
    def prev_leaf(self) -> Optional["DataNode"]:
        """The previous leaf in key order.  Held weakly (the tree and the
        ``next_leaf`` links hold every leaf), so the chain forms no
        reference cycle and a dropped index frees its leaves and their
        arrays at once instead of at the next full garbage collection."""
        ref = self._prev_ref
        return None if ref is None else ref()

    @prev_leaf.setter
    def prev_leaf(self, leaf: Optional["DataNode"]) -> None:
        self._prev_ref = None if leaf is None else weakref.ref(leaf)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def _initial_capacities(self, sizes: np.ndarray) -> np.ndarray:
        """Capacities for runs of ``sizes`` keys at the build density
        ``d**2``: ``c * n`` slots (``c = 1/d**2``, Section 3.3.1), at
        least :attr:`MIN_CAPACITY`.  Layouts with other sizes override
        this."""
        capacities = np.ceil(np.asarray(sizes, dtype=np.int64)
                             * self.config.expansion_factor)
        return np.maximum(capacities.astype(np.int64), self.MIN_CAPACITY)

    def _initial_capacity(self, n: int) -> int:
        """:meth:`_initial_capacities` for one run of ``n`` keys."""
        return int(self._initial_capacities(np.array([n]))[0])

    def build(self, keys: np.ndarray, payloads=None) -> None:
        """(Re)initialize this node with sorted, duplicate-free ``keys``
        (``payloads`` as in :func:`build_runs`)."""
        build_runs([self], keys, payloads, [0, len(keys)])

    def _model_based_build(self, keys: np.ndarray,
                           payloads: Optional[np.ndarray],
                           capacity: int) -> None:
        """Algorithm 3 for this node alone: :func:`build_runs` with one
        segment (expansion, contraction, retrain, cold-start end, batch
        merge-rebuild)."""
        build_runs([self], keys, payloads, [0, len(keys)], [capacity])

    def _refill_gap_keys(self, lo: int, hi: int) -> None:
        """Rewrite gap slots in ``[lo, hi)`` with their nearest real right
        neighbour's key (vectorized backward fill; trailing gaps get the
        first real key at or after ``hi``, or ``+inf``)."""
        if hi <= lo:
            return
        occ = self.occupied[lo:hi]
        idx = np.where(occ, np.arange(lo, hi), self.capacity)
        suffix = np.minimum.accumulate(idx[::-1])[::-1]
        # Seed for trailing gaps: first real slot at or beyond hi.
        tail = self._first_occupied_at_or_after(hi)
        tail_key = self.keys[tail] if tail < self.capacity else GAP_SENTINEL
        seg = self.keys[lo:hi]
        src = np.minimum(suffix, self.capacity - 1)
        filled = np.where(suffix < self.capacity, self.keys[src], tail_key)
        self.keys[lo:hi] = np.where(occ, seg, filled)
        self.counters.gap_fill_writes += int((~occ).sum())

    def _first_occupied_at_or_after(self, pos: int) -> int:
        """Index of the first occupied slot at or after ``pos`` (or
        ``capacity`` when none exists)."""
        if pos >= self.capacity:
            return self.capacity
        rel = np.argmax(self.occupied[pos:])
        if not self.occupied[pos + rel]:
            return self.capacity
        return pos + int(rel)

    def _last_occupied_before(self, pos: int) -> int:
        """Index of the last occupied slot strictly before ``pos`` (or -1)."""
        if pos <= 0:
            return -1
        window = self.occupied[:pos]
        if not window.any():
            return -1
        return int(pos - 1 - np.argmax(window[::-1]))

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def predict_pos(self, key: float) -> int:
        """Model prediction clamped to the array (or the array midpoint
        during cold start)."""
        if self.model is None:
            return self.capacity // 2
        self.counters.model_inferences += 1
        return self.model.predict_pos(key, self.capacity)

    def _model_params(self):
        """``(has_model, slope, intercept)`` for the kernel calls."""
        model = self.model
        if model is None:
            return False, 0.0, 0.0
        return True, model.slope, model.intercept

    def find_insert_pos(self, key: float) -> int:
        """Leftmost position with ``keys[pos] >= key`` (Algorithm 1's
        ``CorrectInsertPosition``): model hint + exponential search, or plain
        binary search during cold start."""
        has_model, slope, intercept = self._model_params()
        if has_model:
            self.counters.model_inferences += 1
        pos, charge = self.kernels.find_insert_pos(self.keys, key, has_model,
                                                   slope, intercept)
        self.counters.comparisons += charge
        self.counters.probes += charge
        return pos

    def find_key(self, key: float) -> int:
        """Position of the *real* (occupied) slot holding ``key``, or -1.

        The lower-bound position may land on a gap that mirrors the key's
        value; the real slot is then the first occupied slot to the right
        with the same value.
        """
        has_model, slope, intercept = self._model_params()
        if has_model:
            self.counters.model_inferences += 1
        pos, charge, probes = self.kernels.find_key(
            self.keys, self.occupied, key, has_model, slope, intercept)
        self.counters.comparisons += charge
        self.counters.probes += charge + probes
        return pos

    # ------------------------------------------------------------------
    # Batch search (the node layer of the batch execution engine)
    # ------------------------------------------------------------------

    def find_insert_pos_many(self, targets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`find_insert_pos`: one model-inference pass and
        one lock-step search for the whole batch of targets."""
        targets = np.asarray(targets, dtype=np.float64)
        has_model, slope, intercept = self._model_params()
        if has_model:
            self.counters.model_inferences += len(targets)
        pos, charge = self.kernels.find_insert_pos_many(
            self.keys, targets, has_model, slope, intercept)
        self.counters.comparisons += charge
        self.counters.probes += charge
        return pos

    def find_keys_many(self, targets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`find_key`: the occupied slot holding each
        target, or -1 where absent.

        The rare case of the lower bound landing on a gap slot that mirrors
        the target's value falls back to the scalar rightward walk; every
        other lane resolves in the vectorized pass.
        """
        targets = np.asarray(targets, dtype=np.float64)
        n = len(targets)
        if n == 0 or self.capacity == 0:
            return np.full(n, -1, dtype=np.int64)
        has_model, slope, intercept = self._model_params()
        if has_model:
            self.counters.model_inferences += n
        result, charge, probes = self.kernels.find_keys_many(
            self.keys, self.occupied, targets, has_model, slope, intercept)
        self.counters.comparisons += charge
        self.counters.probes += charge + probes
        return result

    # ------------------------------------------------------------------
    # Insert plumbing shared by both layouts
    # ------------------------------------------------------------------

    def _check_duplicate(self, key: float, ip: int) -> None:
        """Raise if ``key`` already exists.  Because gap slots mirror their
        right neighbour's key, equality at the lower bound implies the key
        is present regardless of occupancy."""
        if ip < self.capacity and self.keys[ip] == key:
            raise DuplicateKeyError(key)

    def _place(self, pos: int, key: float, payload) -> None:
        """Write ``key`` into the (free) slot ``pos`` and maintain the
        gap-fill invariant for the gap run immediately to the left."""
        fills = self.kernels.place_fill(self.keys, self.occupied, pos, key)
        self.payloads[pos] = payload
        self.num_keys += 1
        self.counters.gap_fill_writes += fills

    def _shift_right_into_gap(self, ip: int, gap: int) -> None:
        """Move the fully-occupied run ``[ip, gap)`` one slot right into the
        gap at ``gap``, freeing slot ``ip`` (numpy copies overlapping
        slices correctly)."""
        self.kernels.shift_right(self.keys, self.occupied, ip, gap)
        self.payloads[ip + 1:gap + 1] = self.payloads[ip:gap]
        self.counters.shifts += gap - ip

    def _shift_left_into_gap(self, gap: int, ip: int) -> None:
        """Move the fully-occupied run ``(gap, ip)`` one slot left into the
        gap at ``gap``, freeing slot ``ip - 1``.

        Only elements strictly less than the key being inserted move, so
        the caller inserts at ``ip - 1`` to preserve sorted order.
        """
        self.kernels.shift_left(self.keys, self.occupied, gap, ip)
        self.payloads[gap:ip - 1] = self.payloads[gap + 1:ip]
        self.counters.shifts += ip - 1 - gap

    def _closest_gaps(self, pos: int, lo: int, hi: int) -> Tuple[int, int]:
        """Return ``(left_gap, right_gap)`` nearest to ``pos`` within
        ``[lo, hi)`` (-1 / ``hi`` when absent).  ``pos`` itself is excluded
        on the left side and included on the right side."""
        return self.kernels.closest_gaps(self.occupied, pos, lo, hi)

    def _open_slot(self, ip: int, lo: int, hi: int) -> int:
        """Make a free slot at (or directly left of) position ``ip`` by
        shifting the occupied run toward the closest gap in ``[lo, hi)``.

        Returns the position at which the caller must insert, or -1 when
        the window contains no gap at all.
        """
        if ip >= hi:
            ip = hi  # insertion past the window: treat like "shift left"
        elif not self.occupied[ip]:
            return ip
        left, right = self._closest_gaps(ip, lo, hi)
        has_left = left >= 0
        has_right = right < hi
        if not has_left and not has_right:
            return -1
        if has_right and (not has_left or right - ip <= ip - left):
            self._shift_right_into_gap(ip, right)
            return ip
        self._shift_left_into_gap(left, ip)
        return ip - 1

    # ------------------------------------------------------------------
    # Delete / update
    # ------------------------------------------------------------------

    def delete(self, key: float) -> None:
        """Remove ``key``; contracts the node when it becomes sparse.

        Deletes are "strictly easier" than inserts (Section 3.2): the slot
        simply becomes a gap mirroring its right neighbour, and no shifting
        is needed.
        """
        pos = self.find_key(key)
        if pos < 0:
            raise KeyNotFoundError(key)
        self.payloads[pos] = gap_value(self.payloads.dtype)
        right_key = self.keys[pos + 1] if pos + 1 < self.capacity else GAP_SENTINEL
        fills = self.kernels.erase_fill(self.keys, self.occupied, pos,
                                        right_key)
        self.counters.gap_fill_writes += fills
        self.num_keys -= 1
        self.counters.deletes += 1
        self._maybe_contract()

    def _maybe_contract(self) -> None:
        """Shrink the arrays when the adaptation policy says so (the
        heuristic default: density below half the build density, the
        symmetric counterpart of expansion, Section 3.2)."""
        if not self.policy.should_contract(self):
            return
        keys, payloads = self.export_sorted()
        self._model_based_build(keys, payloads, self._initial_capacity(len(keys)))
        self.counters.contractions += 1

    def update(self, key: float, payload) -> None:
        """Replace the payload of an existing key (Section 3.2: payload-only
        updates are a lookup plus a write).  ``payload`` must fit the
        column (:func:`payload_fits`); the index upgrades it first."""
        pos = self.find_key(key)
        if pos < 0:
            raise KeyNotFoundError(key)
        self.payloads[pos] = payload

    # ------------------------------------------------------------------
    # Scans and export
    # ------------------------------------------------------------------

    def scan_from(self, key: float, limit: int) -> list:
        """Return up to ``limit`` ``(key, payload)`` pairs with keys
        ``>= key`` from this node onward, following the leaf chain.

        Uses the bitmap to skip gaps; the bitmap-word counter models the
        paper's observation that the bitmap makes gap-skipping cheap.
        """
        out: list = []
        node: Optional[DataNode] = self
        pos = self.find_insert_pos(key)
        while node is not None and len(out) < limit:
            hi = node.capacity
            node.counters.bitmap_words_scanned += (
                (hi - pos + _BITMAP_WORD_BITS - 1) // _BITMAP_WORD_BITS
            )
            occ = (np.flatnonzero(node.occupied[pos:hi])
                   + pos)[:limit - len(out)]
            out.extend(zip(node.keys[occ].tolist(),
                           node.payloads[occ].tolist()))
            node.counters.payload_bytes_copied += (
                len(occ) * node.config.payload_size)
            if len(out) >= limit:
                return out
            node.counters.pointer_follows += 1
            node = node.next_leaf
            pos = 0
        return out

    def iter_items(self) -> Iterator[Tuple[float, object]]:
        """The node's real ``(key, payload)`` pairs in key order."""
        occ = self.occupied
        return zip(self.keys[occ].tolist(), self.payloads[occ].tolist())

    def export_sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, payloads)`` of the real elements in key order,
        the payloads as a column of the node's dtype."""
        return self.keys[self.occupied], self.payloads[self.occupied]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def density(self) -> float:
        """Fraction of slots currently holding real keys."""
        return self.num_keys / self.capacity if self.capacity else 0.0

    def density_bound(self) -> float:
        """Upper density limit this layout tolerates before an insert must
        open new space (GA: ``d``, Section 3.3.1; the PMA overrides this
        with its root-window bound)."""
        return self.config.density_upper

    def retrain(self) -> None:
        """Catastrophic retrain (Section 3.4.2): rebuild the node
        model-based at its current capacity.  Chosen by the cost-model
        policy when the model has drifted far from the data but the
        allocation is still right-sized."""
        keys, payloads = self.export_sorted()
        self._model_based_build(keys, payloads, self.capacity)

    def min_key(self) -> float:
        """Smallest real key (raises when empty)."""
        pos = self._first_occupied_at_or_after(0)
        if pos >= self.capacity:
            raise KeyNotFoundError(float("nan"))
        return float(self.keys[pos])

    def max_key(self) -> float:
        """Largest real key (raises when empty)."""
        pos = self._last_occupied_before(self.capacity)
        if pos < 0:
            raise KeyNotFoundError(float("nan"))
        return float(self.keys[pos])

    def data_size_bytes(self) -> int:
        """Allocated data size: key + payload arrays including gaps, plus
        the occupancy bitmap (Section 5.1's accounting)."""
        per_slot = 8 + self.config.payload_size
        bitmap = (self.capacity + 7) // 8
        return self.capacity * per_slot + bitmap

    def model_size_bytes(self) -> int:
        """Index-side footprint of this node: its linear model."""
        return LinearModel.SIZE_BYTES if self.model is not None else 0

    def check_invariants(self) -> None:
        """Assert every structural invariant (used heavily by the tests):

        * real keys appear in strictly increasing order;
        * the full array (gaps included) is non-decreasing;
        * every gap slot mirrors its nearest real right neighbour
          (``+inf`` for trailing gaps);
        * ``num_keys`` matches the bitmap population count.
        """
        positions = np.flatnonzero(self.occupied)
        real = self.keys[positions]
        if len(real) > 1 and not (np.diff(real) > 0).all():
            raise AssertionError("real keys are not strictly increasing")
        finite = self.keys[np.isfinite(self.keys)]
        if len(finite) > 1 and not (np.diff(finite) >= 0).all():
            raise AssertionError("gap-filled key array is not non-decreasing")
        if int(self.occupied.sum()) != self.num_keys:
            raise AssertionError("num_keys does not match bitmap population")
        expect = GAP_SENTINEL
        for pos in range(self.capacity - 1, -1, -1):
            if self.occupied[pos]:
                expect = self.keys[pos]
            elif self.keys[pos] != expect:
                raise AssertionError(
                    f"gap slot {pos} holds {self.keys[pos]}, expected {expect}"
                )

    # ------------------------------------------------------------------
    # Abstract subclass API
    # ------------------------------------------------------------------

    def insert(self, key: float, payload=None) -> None:
        """Insert a new key (layout-specific)."""
        raise NotImplementedError

    def expand(self) -> None:
        """Grow the arrays and rebuild model-based (layout-specific size)."""
        raise NotImplementedError
