"""Reference kernel backend: the existing pure-NumPy/pure-Python hot loops.

This is the code the compiled backends are property-tested against —
every routine here is the pre-kernel implementation from
:mod:`repro.core.search`, :mod:`repro.core.linear_model` and
:mod:`repro.core.data_node`, extracted behind the
:class:`~repro.core.kernels.KernelBackend` interface with counter
charges returned instead of applied.  Kernel 4 fits each leaf with
:meth:`LinearModel.train_cdf
<repro.core.linear_model.LinearModel.train_cdf>` (sequential
``np.cumsum`` sums, which the C loop reproduces bit for bit) and then
runs ``DataNode``'s former vectorized placement and full-array gap
refill, one segment at a time.  Kernel 5 is the payload typing
:func:`repro.core.data_node.payload_column` ran before it had a kernel,
kernel 6 is the recursion of Algorithm 4 that
:func:`repro.core.adaptive.build_adaptive_rmi` ran, writing the plan
into flat lists instead of creating nodes, and kernel 7 partitions by
a stable sort of the pairs' shard ids.
"""

from __future__ import annotations

import marshal
from operator import countOf
from typing import List, Optional, Tuple

import numpy as np

from . import (FANOUT_ERROR, AdaptivePlan, KernelBackend, check_pairs,
               check_segments)
from ..linear_model import LinearModel
from ..search import (exponential_search_counted,
                      exponential_search_many_counted, lower_bound_counted,
                      lower_bound_many_counted)


def _predict_pos_scalar(slope: float, intercept: float, key: float,
                        size: int) -> int:
    """``LinearModel.predict_pos``: floor + clamp to ``[0, size - 1]``
    with non-finite predictions pinned to the nearest edge."""
    pos = slope * key + intercept
    if not (pos > 0):  # catches NaN and -inf too
        return 0
    if pos >= size:
        return size - 1
    return int(pos)


#: :mod:`marshal`'s record of one exact Python ``float`` in format
#: version 2, which has no back-references: the type byte ``g`` and the
#: IEEE double, little-endian.
_FLOAT_RECORD = np.dtype([("kind", "u1"), ("value", "<f8")])


#: Values per :mod:`marshal` call in :func:`_exact_floats`, so a call's
#: blob (9 bytes per value) stays under 2.4 MB whatever the list's
#: length.  A list this short is typed whole: slicing would cost an
#: incref and a decref per value, 5 ms per million.
_FLOAT_CHUNK = 1 << 18


def _exact_floats(values: list) -> Optional[np.ndarray]:
    """``values`` as a ``float64`` column when every one is exactly a
    Python ``float``, else ``None``, with one C-level pass over each
    slice of at most :data:`_FLOAT_CHUNK` values (a type pass plus
    :func:`numpy.fromiter` take two, each touching every object).
    :mod:`marshal` writes a list as a 5-byte header and one record per
    value; an exact float's record is the 9 bytes of
    :data:`_FLOAT_RECORD`, and anything else — an ``int``, a ``bool``, a
    numpy scalar or any other ``float`` subclass — gets a record of
    another kind.  So when every 9-byte step after a slice's header
    starts with ``g``, every record of that slice is a float record, and
    its values go straight into the preallocated column."""
    n = len(values)
    column = np.empty(n, dtype=np.float64)
    for start in range(0, n, _FLOAT_CHUNK):
        chunk = (values if n <= _FLOAT_CHUNK
                 else values[start:start + _FLOAT_CHUNK])
        try:
            blob = marshal.dumps(chunk, 2)
        except ValueError:  # an object marshal cannot write
            return None
        if len(blob) != 5 + 9 * len(chunk):
            return None
        records = np.frombuffer(blob, _FLOAT_RECORD, offset=5)
        if not (records["kind"] == ord("g")).all():
            return None
        column[start:start + len(chunk)] = records["value"]
    return column


class NumpyKernels(KernelBackend):
    """Always-available interpreter-loop backend (the extracted originals)."""

    name = "numpy"
    compiled = False

    # -- kernel 1: linear-model predict + clamp -----------------------

    def predict_clamp(self, slope: float, intercept: float,
                      keys: np.ndarray, size: int) -> np.ndarray:
        pos = slope * keys + intercept
        pos = np.clip(pos, 0, size - 1)       # clamp before the int cast so
        pos = np.nan_to_num(pos, nan=0.0)     # non-finite values stay legal
        return pos.astype(np.int64)

    # -- kernel 2: lock-step exponential/binary search ----------------

    def find_insert_pos(self, keys: np.ndarray, target: float,
                        has_model: bool, slope: float,
                        intercept: float) -> Tuple[int, int]:
        capacity = len(keys)
        if not has_model:
            return lower_bound_counted(keys, target, 0, capacity)
        hint = _predict_pos_scalar(slope, intercept, target, capacity)
        return exponential_search_counted(keys, target, hint, 0, capacity)

    def find_key(self, keys: np.ndarray, occupied: np.ndarray,
                 target: float, has_model: bool, slope: float,
                 intercept: float) -> Tuple[int, int, int]:
        capacity = len(keys)
        pos, charge = self.find_insert_pos(keys, target, has_model,
                                           slope, intercept)
        probes = 0
        while pos < capacity and keys[pos] == target:
            probes += 1
            if occupied[pos]:
                return pos, charge, probes
            pos += 1
        return -1, charge, probes

    def find_insert_pos_many(self, keys: np.ndarray, targets: np.ndarray,
                             has_model: bool, slope: float,
                             intercept: float) -> Tuple[np.ndarray, int]:
        capacity = len(keys)
        n = len(targets)
        if not has_model:
            los = np.zeros(n, dtype=np.int64)
            his = np.full(n, capacity, dtype=np.int64)
            return lower_bound_many_counted(keys, targets, los, his)
        hints = self.predict_clamp(slope, intercept, targets, capacity)
        return exponential_search_many_counted(keys, targets, hints, 0,
                                               capacity)

    def find_keys_many(self, keys: np.ndarray, occupied: np.ndarray,
                       targets: np.ndarray, has_model: bool, slope: float,
                       intercept: float) -> Tuple[np.ndarray, int, int]:
        capacity = len(keys)
        n = len(targets)
        if n == 0 or capacity == 0:
            return np.full(n, -1, dtype=np.int64), 0, 0
        pos, charge = self.find_insert_pos_many(keys, targets, has_model,
                                                slope, intercept)
        safe = np.minimum(pos, capacity - 1)
        matched = (pos < capacity) & (keys[safe] == targets)
        probes = int(matched.sum())
        result = np.where(matched, pos, np.int64(-1))
        # The rare case of the lower bound landing on a gap slot that
        # mirrors the target's value falls back to the scalar rightward
        # walk; every other lane resolves in the vectorized pass.
        gap_hits = matched & ~occupied[safe]
        for lane in np.flatnonzero(gap_hits):
            p = int(pos[lane]) + 1
            target = targets[lane]
            found = -1
            while p < capacity and keys[p] == target:
                probes += 1
                if occupied[p]:
                    found = p
                    break
                p += 1
            result[lane] = found
        return result, charge, probes

    # -- kernel 3: gapped-array / PMA shift-and-insert ----------------

    def closest_gaps(self, occupied: np.ndarray, pos: int, lo: int,
                     hi: int) -> Tuple[int, int]:
        window = occupied[pos:hi]
        rel = np.argmax(~window) if window.size else 0
        if window.size and not window[rel]:
            right = pos + int(rel)
        else:
            right = hi
        window = occupied[lo:pos]
        if window.size and not window.all():
            left = lo + int(pos - lo - 1 - np.argmax(~window[::-1]))
        else:
            left = -1
        return left, right

    def shift_right(self, keys: np.ndarray, occupied: np.ndarray,
                    ip: int, gap: int) -> None:
        keys[ip + 1:gap + 1] = keys[ip:gap]
        occupied[gap] = True
        occupied[ip] = False

    def shift_left(self, keys: np.ndarray, occupied: np.ndarray,
                   gap: int, ip: int) -> None:
        keys[gap:ip - 1] = keys[gap + 1:ip]
        occupied[gap] = True
        occupied[ip - 1] = False

    def place_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, key: float) -> int:
        keys[pos] = key
        occupied[pos] = True
        fills = 0
        i = pos - 1
        while i >= 0 and not occupied[i]:
            keys[i] = key
            fills += 1
            i -= 1
        return fills

    def erase_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, right_key: float) -> int:
        occupied[pos] = False
        fills = 0
        i = pos
        while i >= 0 and not occupied[i]:
            keys[i] = right_key
            fills += 1
            i -= 1
        return fills

    # -- kernel 4: model fit + model-based placement (leaf build) -----

    def fit_cdf(self, keys: np.ndarray, size: int) -> Tuple[float, float]:
        model = LinearModel.train_cdf(keys, size)
        return model.slope, model.intercept

    def fit_place(self, keys: np.ndarray, bounds: np.ndarray,
                  capacities: np.ndarray, min_keys_for_model: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray, int]:
        keys, bounds, capacities, offsets = check_segments(keys, bounds,
                                                           capacities)
        m = len(capacities)
        slot_keys = np.empty(offsets[-1], dtype=np.float64)
        occupied = np.empty(offsets[-1], dtype=bool)
        slopes = np.zeros(m, dtype=np.float64)
        intercepts = np.zeros(m, dtype=np.float64)
        fills = 0
        for j in range(m):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            cap = int(capacities[j])
            has_model = hi - lo >= min_keys_for_model
            if has_model:
                slopes[j], intercepts[j] = self.fit_cdf(keys[lo:hi], cap)
            fills += self._place(
                keys[lo:hi], has_model, slopes[j], intercepts[j],
                slot_keys[offsets[j]:offsets[j + 1]],
                occupied[offsets[j]:offsets[j + 1]])
        return slot_keys, occupied, slopes, intercepts, fills

    def _place(self, keys: np.ndarray, has_model: bool, slope: float,
               intercept: float, slot_keys: np.ndarray,
               occupied: np.ndarray) -> int:
        """One segment's placement and gap fill, written into the given
        output views; returns the number of gap slots written."""
        n = len(keys)
        capacity = len(slot_keys)
        if has_model:
            predicted = self.predict_clamp(slope, intercept, keys, capacity)
        else:
            # Without a model, spread the keys uniformly (a degenerate
            # "model-based" placement with the identity spacing).
            predicted = ((np.arange(n, dtype=np.float64) * capacity)
                         // max(n, 1)).astype(np.int64)
        # Vectorized collision resolution, equivalent to the sequential
        # "place at max(predicted, last + 1), capped to leave room for
        # the rest" loop: the running max(predicted[j] + i - j) gives
        # each key its shifted slot, and because the room cap increases
        # by exactly one per key, applying it after the accumulate
        # yields the same positions the sequential loop would.
        ar = np.arange(n, dtype=np.int64)
        pos = np.maximum.accumulate(predicted - ar) + ar
        pos = np.minimum(pos, capacity - n + ar)
        occupied[:] = False
        occupied[pos] = True
        slot_keys[pos] = keys
        # Backward gap fill: each gap takes the key of the first real
        # slot to its right; trailing gaps keep +inf.
        idx = np.where(occupied, np.arange(capacity), capacity)
        suffix = np.minimum.accumulate(idx[::-1])[::-1]
        src = np.minimum(suffix, capacity - 1)
        filled = np.where(suffix < capacity, slot_keys[src], np.inf)
        slot_keys[:] = np.where(occupied, slot_keys, filled)
        return capacity - n

    # -- kernel 5: payload typing (bulk load) -------------------------

    def type_payloads(self, values) -> Optional[np.ndarray]:
        if not isinstance(values, list) or not values:
            return None
        kind = type(values[0])
        if kind is float:
            return _exact_floats(values)
        # One C-level pass over the types (identity compares, no hashing).
        if kind is not int or countOf(map(type, values), int) != len(values):
            return None
        try:
            return np.fromiter(values, dtype=np.int64, count=len(values))
        except OverflowError:  # an int outside int64
            return None

    # -- kernel 6: Algorithm 4's plan (adaptive RMI) ------------------

    def plan_adaptive(self, keys: np.ndarray, root_fanout: int,
                      inner_fanout: int, max_keys: int,
                      max_depth: int) -> AdaptivePlan:
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        starts: List[int] = []
        slopes: List[float] = []
        intercepts: List[float] = []
        offsets = [0]
        children: List[int] = []
        retrains = 0

        def leaf(start: int) -> int:
            starts.append(start)
            return len(starts) - 1

        def plan(lo: int, hi: int, fanout: int, depth: int) -> int:
            """Plan ``keys[lo:hi]``; returns its child reference."""
            nonlocal retrains
            n = hi - lo
            if n <= max_keys or depth >= max_depth:
                return leaf(lo)
            if fanout < 1:
                raise ValueError(FANOUT_ERROR)
            run = keys[lo:hi]
            slope, intercept = self.fit_cdf(run, fanout)
            retrains += 1
            slots = self.predict_clamp(slope, intercept, run, fanout)
            bounds = np.searchsorted(slots, np.arange(fanout + 1))
            sizes = np.diff(bounds).tolist()
            if max(sizes) == n:
                # Degenerate: the model routes every key to one partition,
                # so recursing cannot make progress.  Accept an oversized
                # leaf.
                return leaf(lo)
            bounds = bounds.tolist()
            node = len(slopes)
            slopes.append(slope)
            intercepts.append(intercept)
            base = len(children)
            children.extend([0] * fanout)
            offsets.append(len(children))
            s = 0
            while s < fanout:
                size = sizes[s]
                if size > max_keys:
                    children[base + s] = plan(lo + bounds[s],
                                              lo + bounds[s + 1],
                                              inner_fanout, depth + 1)
                    s += 1
                    continue
                # Merge this partition with its successors until just
                # below the bound (Algorithm 4's accumulate-then-drop
                # loop).
                e = s + 1
                acc = size
                while e < fanout and acc + sizes[e] <= max_keys:
                    acc += sizes[e]
                    e += 1
                children[base + s:base + e] = [leaf(lo + bounds[s])] * (e - s)
                s = e
            return ~node

        plan(0, len(keys), root_fanout, 0)
        return AdaptivePlan(np.array(starts, dtype=np.int64),
                            np.array(slopes, dtype=np.float64),
                            np.array(intercepts, dtype=np.float64),
                            np.array(offsets, dtype=np.int64),
                            np.array(children, dtype=np.int64), retrains)

    # -- kernel 7: shard partition (sharded bulk load) ----------------

    def partition_pairs(self, keys: np.ndarray, column: np.ndarray,
                        boundaries: np.ndarray) -> np.ndarray:
        boundaries = check_pairs(keys, column, boundaries)
        shards = np.searchsorted(boundaries, keys, side="right")
        # Narrow ids make the stable sort a radix sort, and a small one.
        shards = shards.astype(np.min_scalar_type(len(boundaries)))
        order = np.argsort(shards, kind="stable")
        keys[:] = keys[order]
        column[:] = column[order]
        return np.bincount(shards, minlength=len(boundaries) + 1).astype(
            np.int64)
