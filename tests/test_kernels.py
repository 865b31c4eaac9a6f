"""Tests for the pluggable hot-loop kernel layer (repro.core.kernels).

Three concerns:

* **Parity** — the compiled backend must produce bit-identical
  positions, states, *and work charges* to the pure-numpy reference, on
  randomized node layouts including every edge (empty nodes, all-gap
  nodes, boundary targets, cold-start vs model-hinted search), and the
  same model bits and leaf layouts from the leaf-build kernel.
* **Resolution** — selecting the compiled backend when its toolchain is
  absent degrades to numpy with a one-time warning; unknown names
  raise; resolution returns process-wide singletons.
* **Warmup** — a provisioned backend performs zero compile/load events
  on the request path (the serving tier warms kernels at provisioning).
"""

import bisect
import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest

from repro.core import kernels as K
from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig, ga_armi
from repro.core.data_node import GAP_SENTINEL
from repro.core.gapped_array import GappedArrayNode
from repro.core.policy import HeuristicPolicy
from repro.core.stats import Counters
from repro.datasets.generators import load
from test_payload_column import FloatSubclass

NUMPY = K.get_kernels("numpy")
AVAILABLE = K.available_backends()
#: Backends that exist here beyond the reference implementation.
COMPILED = tuple(n for n in AVAILABLE if n != "numpy")


def backends():
    return [K.get_kernels(name) for name in AVAILABLE]


def backend_params():
    return pytest.mark.parametrize("backend", backends(),
                                   ids=list(AVAILABLE))


def make_node_arrays(rng, n, capacity_extra=None):
    """A legal gapped-array state: non-decreasing keys with gap slots
    mirroring their nearest real right neighbour (GAP_SENTINEL past the
    last key), plus the occupancy bitmap."""
    node = GappedArrayNode(ga_armi(), Counters())
    raw = np.unique(rng.uniform(0, 1e6, n + 16))[:n]
    node.build(raw, [f"v{i}" for i in range(n)])
    return node.keys.copy(), node.occupied.copy(), raw


def model_of(keys, occupied):
    """A plausible linear model over the occupied keys."""
    real = keys[occupied]
    if len(real) < 2 or real[0] == real[-1]:
        return 0.0, float(len(keys)) / 2.0
    slope = (len(keys) - 1) / (real[-1] - real[0])
    return slope, -slope * real[0]


def probe_targets(rng, raw, size=200):
    """Present keys, absent keys, exact boundaries, and out-of-range."""
    parts = [rng.choice(raw, size // 2) if len(raw) else np.empty(0),
             rng.uniform(-1e5, 1.2e6, size // 2),
             np.array([-1e9, 1e9])]
    if len(raw):
        parts.append(np.array([raw[0], raw[-1],
                               np.nextafter(raw[0], -np.inf),
                               np.nextafter(raw[-1], np.inf)]))
    out = np.concatenate(parts)
    rng.shuffle(out)
    return out


@backend_params()
class TestPredictClampParity:
    def test_matches_numpy_reference(self, backend):
        rng = np.random.default_rng(101)
        keys = np.concatenate([rng.uniform(-1e9, 1e9, 500),
                               np.array([np.inf, -np.inf, 0.0])])
        with np.errstate(invalid="ignore"):  # inf key * 0 slope is legal
            for size in (1, 2, 7, 1000):
                for slope, intercept in ((0.0, 3.0), (1e-6, -2.0),
                                         (123.456, 1e5), (-1.0, 0.0)):
                    got = backend.predict_clamp(slope, intercept, keys, size)
                    want = NUMPY.predict_clamp(slope, intercept, keys, size)
                    assert got.dtype == np.int64
                    assert got.tolist() == want.tolist()

    def test_empty(self, backend):
        out = backend.predict_clamp(1.0, 0.0, np.empty(0), 10)
        assert out.tolist() == []


@backend_params()
@pytest.mark.parametrize("has_model", [True, False], ids=["model", "cold"])
@pytest.mark.parametrize("n", [0, 1, 3, 50, 400])
class TestSearchParity:
    def test_scalar_positions_and_charges(self, backend, has_model, n):
        rng = np.random.default_rng(n * 2 + has_model)
        keys, occ, raw = make_node_arrays(rng, n)
        slope, intercept = model_of(keys, occ)
        for t in probe_targets(rng, raw, 60):
            t = float(t)
            assert (backend.find_insert_pos(keys, t, has_model, slope,
                                            intercept)
                    == NUMPY.find_insert_pos(keys, t, has_model, slope,
                                             intercept))
            assert (backend.find_key(keys, occ, t, has_model, slope,
                                     intercept)
                    == NUMPY.find_key(keys, occ, t, has_model, slope,
                                      intercept))

    def test_batch_equals_reference_and_scalar_totals(self, backend,
                                                      has_model, n):
        rng = np.random.default_rng(n * 3 + has_model)
        keys, occ, raw = make_node_arrays(rng, n)
        slope, intercept = model_of(keys, occ)
        targets = probe_targets(rng, raw, 150)

        pos, charge = backend.find_insert_pos_many(keys, targets, has_model,
                                                   slope, intercept)
        ref_pos, ref_charge = NUMPY.find_insert_pos_many(
            keys, targets, has_model, slope, intercept)
        assert pos.tolist() == ref_pos.tolist()
        assert charge == ref_charge
        # The batch charge is exactly the per-lane scalar total.
        assert charge == sum(
            backend.find_insert_pos(keys, float(t), has_model, slope,
                                    intercept)[1] for t in targets)

        fpos, fcharge, fresolve = backend.find_keys_many(
            keys, occ, targets, has_model, slope, intercept)
        rpos, rcharge, rresolve = NUMPY.find_keys_many(
            keys, occ, targets, has_model, slope, intercept)
        assert fpos.tolist() == rpos.tolist()
        assert (fcharge, fresolve) == (rcharge, rresolve)
        scalar = [backend.find_key(keys, occ, float(t), has_model, slope,
                                   intercept) for t in targets]
        assert fpos.tolist() == [s[0] for s in scalar]
        assert fcharge == sum(s[1] for s in scalar)
        assert fresolve == sum(s[2] for s in scalar)


@backend_params()
class TestWriteKernelParity:
    def test_closest_gaps_every_position(self, backend):
        rng = np.random.default_rng(77)
        keys, occ, _ = make_node_arrays(rng, 60)
        cap = len(keys)
        for pos in range(cap):
            assert (backend.closest_gaps(occ, pos, 0, cap)
                    == NUMPY.closest_gaps(occ, pos, 0, cap))
        # Sub-ranges (PMA segments search within their own window).
        for lo, hi in ((0, cap // 2), (cap // 3, cap), (5, 6)):
            for pos in range(lo, hi):
                assert (backend.closest_gaps(occ, pos, lo, hi)
                        == NUMPY.closest_gaps(occ, pos, lo, hi))

    def test_shift_and_fill_state_parity(self, backend):
        rng = np.random.default_rng(88)
        keys, occ, raw = make_node_arrays(rng, 80)

        def clone():
            return keys.copy(), occ.copy()

        cap = len(keys)
        for pos in range(cap):
            left, right = NUMPY.closest_gaps(occ, pos, 0, cap)
            if right < cap and pos < right:
                (k1, o1), (k2, o2) = clone(), clone()
                backend.shift_right(k1, o1, pos, right)
                NUMPY.shift_right(k2, o2, pos, right)
                assert k1.tolist() == k2.tolist()
                assert o1.tolist() == o2.tolist()
            if left >= 0 and left < pos:
                (k1, o1), (k2, o2) = clone(), clone()
                backend.shift_left(k1, o1, left, pos)
                NUMPY.shift_left(k2, o2, left, pos)
                assert k1.tolist() == k2.tolist()
                assert o1.tolist() == o2.tolist()

    def test_place_and_erase_fill_parity(self, backend):
        rng = np.random.default_rng(99)
        keys, occ, raw = make_node_arrays(rng, 70)
        cap = len(keys)
        gaps = np.flatnonzero(~occ)
        for gap in gaps.tolist():
            key = float(keys[gap]) - 1e-9  # legal: below the mirror value
            (k1, o1), (k2, o2) = (keys.copy(), occ.copy()), (keys.copy(),
                                                             occ.copy())
            f1 = backend.place_fill(k1, o1, gap, key)
            f2 = NUMPY.place_fill(k2, o2, gap, key)
            assert f1 == f2
            assert k1.tolist() == k2.tolist()
            assert o1.tolist() == o2.tolist()
        for pos in np.flatnonzero(occ).tolist():
            right_key = (float(keys[pos + 1]) if pos + 1 < cap
                         else GAP_SENTINEL)
            (k1, o1), (k2, o2) = (keys.copy(), occ.copy()), (keys.copy(),
                                                             occ.copy())
            f1 = backend.erase_fill(k1, o1, pos, right_key)
            f2 = NUMPY.erase_fill(k2, o2, pos, right_key)
            assert f1 == f2 >= 1
            assert k1.tolist() == k2.tolist()
            assert o1.tolist() == o2.tolist()


def sequential_fit(keys, size):
    """The CDF fit as the plain float loop both backends implement:
    sequential sums, ranks ``i * (size / n)``, flat ``(0, mean rank)``
    on a zero or non-finite denominator or slope."""
    n = len(keys)
    if n == 0:
        return 0.0, 0.0
    scale = size / n
    key_sum = rank_sum = 0.0
    for i, key in enumerate(keys):
        key_sum += key
        rank_sum += i * scale
    key_mean, rank_mean = key_sum / n, rank_sum / n
    den = num = 0.0
    for i, key in enumerate(keys):
        c = key - key_mean
        den += c * c
        num += c * (i * scale - rank_mean)
    if not math.isfinite(den) or den == 0.0:
        return 0.0, rank_mean
    slope = num / den
    if not math.isfinite(slope):
        return 0.0, rank_mean
    return slope, rank_mean - slope * key_mean


def sequential_place(keys, has_model, slope, intercept, capacity):
    """Algorithm 3's placement as the plain loop the kernels implement."""
    n = len(keys)
    slot_keys = [GAP_SENTINEL] * capacity
    occupied = [False] * capacity
    positions, last = [], -1
    for i, key in enumerate(keys):
        if has_model:
            pred = slope * key + intercept
            pred = (0 if not pred > 0 else
                    capacity - 1 if pred >= capacity else int(pred))
        else:
            pred = (i * capacity) // n
        pos = min(max(pred, last + 1), capacity - n + i)
        slot_keys[pos], occupied[pos] = key, True
        positions.append(pos)
        last = pos
    fill, fills = GAP_SENTINEL, 0
    for pos in range(capacity - 1, -1, -1):
        if occupied[pos]:
            fill = slot_keys[pos]
        else:
            slot_keys[pos] = fill
            fills += 1
    return slot_keys, occupied, positions, fills


def sequential_fit_place(keys, bounds, capacities, min_keys):
    """``fit_place`` as one plain loop per segment."""
    slot_keys, occupied, positions, slopes, intercepts = [], [], [], [], []
    fills = 0
    for j, capacity in enumerate(capacities):
        segment = keys[bounds[j]:bounds[j + 1]].tolist()
        has_model = len(segment) >= min_keys
        slope, intercept = (sequential_fit(segment, capacity) if has_model
                            else (0.0, 0.0))
        s, o, p, f = sequential_place(segment, has_model, slope, intercept,
                                      capacity)
        slot_keys += s
        occupied += o
        positions += p
        slopes.append(slope)
        intercepts.append(intercept)
        fills += f
    return slot_keys, occupied, positions, slopes, intercepts, fills


def hexes(values):
    return [float(v).hex() for v in values]


@backend_params()
class TestFitPlaceParity:
    """Kernel 4 (the leaf build: CDF fit, placement and gap fill) on both
    backends against a plain-Python sequential reference, bit for bit."""

    def check(self, backend, keys, bounds, capacities, min_keys=16):
        """Returns ``fit_place``'s result with each key's slot within its
        segment (the i-th set bit of its segment) spliced in third."""
        keys = np.asarray(keys, dtype=np.float64)
        got = backend.fit_place(keys, bounds, capacities, min_keys)
        slot_keys, occupied, slopes, intercepts, fills = got
        assert slot_keys.dtype == np.float64 and occupied.dtype == bool
        offsets = np.concatenate([[0], np.cumsum(capacities)]).astype(int)
        positions = [p for j in range(len(capacities)) for p in
                     np.flatnonzero(occupied[offsets[j]:offsets[j + 1]])]
        ref = sequential_fit_place(keys, bounds, capacities, min_keys)
        assert slot_keys.tobytes() == np.array(ref[0], np.float64).tobytes()
        assert occupied.tolist() == ref[1]
        assert positions == ref[2]
        assert hexes(slopes) == hexes(ref[3])
        assert hexes(intercepts) == hexes(ref[4])
        assert fills == ref[5]
        # A multi-segment call equals one call per segment, and the
        # fit-only entry gives the same model bits.
        for j, capacity in enumerate(capacities):
            lo, hi = bounds[j], bounds[j + 1]
            one = backend.fit_place(keys[lo:hi], [0, hi - lo], [capacity],
                                    min_keys)
            segment = slice(offsets[j], offsets[j + 1])
            assert one[0].tobytes() == slot_keys[segment].tobytes()
            assert one[1].tolist() == occupied[segment].tolist()
            assert hexes(one[2]) + hexes(one[3]) == hexes(
                [slopes[j], intercepts[j]])
            assert one[4] == capacity - (hi - lo)
            if hi - lo >= min_keys:
                assert hexes(backend.fit_cdf(keys[lo:hi], capacity)) == (
                    hexes([slopes[j], intercepts[j]]))
        return (slot_keys, occupied, np.array(positions, dtype=np.int64),
                slopes, intercepts, fills)

    def test_empty_segments(self, backend):
        got = self.check(backend, [], [0, 0], [8])
        assert got[0].tolist() == [GAP_SENTINEL] * 8
        assert not got[1].any() and got[2].tolist() == [] and got[5] == 8
        got = self.check(backend, [], [0], [])
        assert len(got[0]) == len(got[3]) == 0 and got[5] == 0
        keys = np.arange(40.0)
        self.check(backend, keys, [0, 0, 20, 20, 40, 40],
                   [8, 32, 8, 30, 9], min_keys=0)
        self.check(backend, keys, [0, 0, 20, 20, 40, 40],
                   [8, 32, 8, 30, 9])

    def test_single_key(self, backend):
        for min_keys in (0, 1, 16):
            got = self.check(backend, [7.5], [0, 1], [8], min_keys)
            assert got[2].tolist() == [0]
        # One key with a model: the flat model at mean rank 0.
        assert backend.fit_cdf(np.array([7.5]), 8) == (0.0, 0.0)

    def test_cold_start_spread(self, backend):
        # Below min_keys_for_model a segment is placed without a model.
        min_keys = AlexConfig().min_keys_for_model
        sizes = range(1, min_keys)
        keys = np.arange(float(sum(sizes) * 3))
        for extra in (0, 1, 3):
            capacities = [max(n, 8) + extra * n for n in sizes
                          for _ in range(3)]
            bounds = np.concatenate([[0], np.cumsum(
                [n for n in sizes for _ in range(3)])])
            got = self.check(backend, keys, bounds, capacities, min_keys)
            assert not got[3].any() and not got[4].any()

    def test_full_capacity(self, backend):
        keys = np.sort(np.random.default_rng(3).uniform(0, 1e3, 40))
        for min_keys in (0, 41):
            _, occupied, positions, _, _, fills = self.check(
                backend, keys, [0, 40], [40], min_keys)
            assert occupied.all() and positions.tolist() == list(range(40))
            assert fills == 0

    def test_equal_keys_give_flat_model(self, backend):
        # The zero-slope case: no spread, so the mean rank everywhere.
        got = self.check(backend, np.full(20, 5.0), [0, 20], [50])
        assert got[3].tolist() == [0.0]
        assert got[4].tolist() == [sum(i * 2.5 for i in range(20)) / 20]

    def test_predictions_past_both_edges(self, backend):
        # Heavy tails on both sides: the fitted line overshoots both ends.
        keys = np.tan(np.linspace(-1.4, 1.4, 60))
        got = self.check(backend, keys, [0, 60], [64])
        predicted = got[3][0] * keys + got[4][0]
        assert predicted.min() < 0 and predicted.max() >= 64

    def test_extreme_magnitudes(self, backend):
        subnormal = np.arange(1, 41) * 5e-324
        cases = [
            np.linspace(-1e300, 1e300, 40),           # centred sum overflows
            np.array([-1e300, -1.0, 0.0, 1.0, 1e300]),
            1e300 * (1.0 + np.arange(40) * 2.0 ** -50),
            subnormal,                                  # squares underflow
            np.concatenate([-subnormal[::-1], subnormal]),
            np.array([-1e300, 5e-324, 1e-300, 1e300]),
        ]
        for keys in cases:
            for min_keys in (0, 16):
                got = self.check(backend, keys, [0, len(keys)],
                                 [2 * len(keys) + 3], min_keys)
                if len(keys) >= min_keys:
                    assert got[3][0] == 0.0  # flat: nothing to regress on

    def test_one_large_segment(self, backend):
        keys = np.unique(np.random.default_rng(8).lognormal(0, 2, 200_000))
        self.check(backend, keys, [0, len(keys)],
                   [int(len(keys) * 1.43)])

    def test_random_segments(self, backend):
        rng = np.random.default_rng(21)
        for trial in range(20):
            keys = np.unique(rng.lognormal(0, 2, int(rng.integers(1, 900))))
            cuts = np.sort(rng.integers(0, len(keys) + 1,
                                        int(rng.integers(0, 8))))
            bounds = np.concatenate([[0], cuts, [len(keys)]])
            sizes = np.diff(bounds)
            capacities = sizes + rng.integers(0, 3 * sizes + 9)
            self.check(backend, keys, bounds, capacities,
                       int(rng.integers(0, 20)))

    def test_rejects_bad_segments(self, backend):
        keys = np.arange(5.0)
        for bounds, capacities in (([0, 5], [4]),        # too many keys
                                   ([0, 4], [8]),        # keys left over
                                   ([1, 5], [8]),        # not from 0
                                   ([0, 4, 3, 5], [8, 8, 8]),
                                   ([0, 5], [8, 8])):
            with pytest.raises(ValueError):
                backend.fit_place(keys, bounds, capacities, 16)


def float_bits(bits: int) -> float:
    """The Python float with the given IEEE bits (NaN payloads kept)."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class ListSubclass(list):
    pass


#: ``(values, dtype of the column or None)`` for the exact-kind rule.
TYPING_CASES = {
    "floats and specials": ([0.5, math.nan, math.inf, -math.inf, -0.0, 0.0,
                             float_bits(0x7FF4000000000001),
                             float_bits(0xFFF8000000000123), 5e-324],
                            np.float64),
    "one float": ([-0.0], np.float64),
    "int64 bounds": ([-2 ** 63, 2 ** 63 - 1, 0, -1], np.int64),
    "one int": ([7], np.int64),
    "one past int64 max": ([0, 2 ** 63], None),
    "one past int64 min": ([0, -2 ** 63 - 1], None),
    "int64 max first, then past": ([2 ** 63 - 1, 2 ** 64], None),
    "only past int64": ([2 ** 63], None),
    "bool": ([True, False], None),
    "int then bool": ([1, True], None),
    "float then bool": ([1.0, False], None),
    "np.float64": ([np.float64(1.5), np.float64(2.5)], None),
    "float then np.float64": ([1.5, np.float64(2.5)], None),
    "np.int64": ([np.int64(1)], None),
    "int then np.int64": ([1, np.int64(2)], None),
    "float subclass": ([FloatSubclass(1.0)], None),
    "float then float subclass": ([1.0, FloatSubclass(2.0)], None),
    "int then float": ([1, 2.0], None),
    "float then int": ([1.0, 2], None),
    "float then None": ([1.0, None], None),
    "strings": (["a", "b"], None),
    "empty": ([], None),
    "tuple": ((1.0, 2.0), None),
    "ndarray": (np.arange(3.0), None),
    "range": (range(3), None),
    "list subclass": (ListSubclass([1, 2, 3]), np.int64),
}


@backend_params()
class TestTypePayloadsParity:
    """Kernel 5 (payload typing) on both backends: the same dtype, the
    same bits and the same ``None`` decisions."""

    def check(self, backend, values, dtype):
        got, ref = backend.type_payloads(values), NUMPY.type_payloads(values)
        if dtype is None:
            assert got is None and ref is None
            return None
        assert got.dtype == ref.dtype == dtype
        assert got.tobytes() == ref.tobytes()
        assert got.tobytes() == np.array(list(values), dtype).tobytes()
        return got

    @pytest.mark.parametrize("case", sorted(TYPING_CASES))
    def test_exact_kind_rule(self, backend, case):
        values, dtype = TYPING_CASES[case]
        self.check(backend, values, dtype)

    def test_random_columns(self, backend):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2 ** 63, 20_000, dtype=np.uint64)
        bits[::5] |= np.uint64(1) << np.uint64(63)
        floats = bits.view(np.float64).tolist()
        self.check(backend, floats, np.float64)
        ints = bits.view(np.int64).tolist()
        self.check(backend, ints, np.int64)
        for position in (1, 9_999, 19_999):
            for intruder in (True, np.float64(1.0), 2 ** 63, None):
                for values in (floats, ints):
                    spoiled = list(values)
                    spoiled[position] = intruder
                    self.check(backend, spoiled, None)


def sequential_plan(keys, root_fanout, inner_fanout, max_keys, max_depth):
    """``plan_adaptive`` as plain Python over floats: the
    :func:`sequential_fit` model, slots by the clamped prediction,
    partitions by bisection over the sorted slots."""
    keys = [float(key) for key in keys]
    starts, slopes, intercepts, offsets, children = [], [], [], [0], []
    retrains = 0

    def leaf(start):
        starts.append(start)
        return len(starts) - 1

    def plan(lo, hi, fanout, depth):
        nonlocal retrains
        n = hi - lo
        if n <= max_keys or depth >= max_depth:
            return leaf(lo)
        slope, intercept = sequential_fit(keys[lo:hi], fanout)
        retrains += 1
        slots = []
        for key in keys[lo:hi]:
            pred = slope * key + intercept
            slots.append(0 if not pred > 0 else
                         fanout - 1 if pred > fanout - 1 else int(pred))
        bounds = [bisect.bisect_left(slots, s) for s in range(fanout + 1)]
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        if max(sizes) == n:
            return leaf(lo)
        node = len(slopes)
        slopes.append(slope)
        intercepts.append(intercept)
        base = len(children)
        children.extend([None] * fanout)
        offsets.append(len(children))
        s = 0
        while s < fanout:
            if sizes[s] > max_keys:
                children[base + s] = plan(lo + bounds[s], lo + bounds[s + 1],
                                          inner_fanout, depth + 1)
                s += 1
                continue
            e, acc = s + 1, sizes[s]
            while e < fanout and acc + sizes[e] <= max_keys:
                acc += sizes[e]
                e += 1
            ref = leaf(lo + bounds[s])
            for slot in range(s, e):
                children[base + slot] = ref
            s = e
        return ~node

    plan(0, len(keys), root_fanout, 0)
    return starts, slopes, intercepts, offsets, children, retrains


def check_plan_shape(plan, n, max_keys):
    """The plan is a tree: leaves in key order, inner nodes in
    pre-order, every node below the root referenced by one run of its
    parent's slots, and every leaf reached."""
    starts, offsets, children = (plan.starts.tolist(), plan.offsets.tolist(),
                                 plan.children.tolist())
    assert starts[0] == 0 and starts == sorted(starts) and starts[-1] <= n
    m = len(plan.slopes)
    assert len(plan.intercepts) == m and len(offsets) == m + 1
    assert offsets[0] == 0 and offsets[-1] == len(children)
    parents = {}
    for k in range(m):
        slots = children[offsets[k]:offsets[k + 1]]
        assert slots, "an inner node has no slots"
        for i, ref in enumerate(slots):
            if i and ref == slots[i - 1]:
                continue
            assert ref not in parents, "a node is reached twice"
            parents[ref] = k
            assert ref >= 0 or ~ref > k, "a child precedes its parent"
    reached = set(range(len(starts))) if m == 0 else {
        ref for ref in parents if ref >= 0}
    assert reached == set(range(len(starts)))
    assert {~ref for ref in parents if ref < 0} == set(range(1, m))


@backend_params()
class TestPlanAdaptiveParity:
    """Kernel 6 (Algorithm 4's plan) on both backends against a plain
    Python reference: bit-identical models, identical leaf starts and
    child references, the same retrain count."""

    def check(self, backend, keys, root_fanout=None, inner_fanout=16,
              max_keys=256, max_depth=32):
        keys = np.asarray(keys, dtype=np.float64)
        if root_fanout is None:
            root_fanout = max(2, -(-len(keys) // max_keys))
        plan = backend.plan_adaptive(keys, root_fanout, inner_fanout,
                                     max_keys, max_depth)
        starts, slopes, intercepts, offsets, children, retrains = (
            sequential_plan(keys, root_fanout, inner_fanout, max_keys,
                            max_depth))
        assert plan.starts.dtype == plan.offsets.dtype == np.int64
        assert plan.children.dtype == np.int64
        assert plan.slopes.dtype == plan.intercepts.dtype == np.float64
        assert plan.starts.tolist() == starts
        assert hexes(plan.slopes) == hexes(slopes)
        assert hexes(plan.intercepts) == hexes(intercepts)
        assert plan.offsets.tolist() == offsets
        assert plan.children.tolist() == children
        assert plan.retrains == retrains
        ref = NUMPY.plan_adaptive(keys, root_fanout, inner_fanout, max_keys,
                                  max_depth)
        for got, want in zip(plan, ref):
            if isinstance(got, np.ndarray):
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want
        check_plan_shape(plan, len(keys), max_keys)
        return plan

    @pytest.mark.parametrize("dataset,seed", [("longitudes", 1),
                                              ("lognormal", 2),
                                              ("ycsb", 3)])
    def test_fingerprint_datasets(self, backend, dataset, seed):
        keys = np.unique(load(dataset, 8000, seed=seed))
        plan = self.check(backend, keys)
        assert len(plan.slopes) > 1
        policy = HeuristicPolicy()
        config = ga_armi(max_keys_per_node=64)
        plan = self.check(backend, keys,
                          policy.initial_fanout(len(keys), 0, config),
                          config.inner_partitions, 64)
        assert len(plan.slopes) > 10

    def test_a_deep_skewed_tree(self, backend):
        keys = np.unique(np.random.default_rng(4).lognormal(0, 3, 60_000))
        plan = self.check(backend, keys, max_keys=128)
        assert len(plan.slopes) > 30

    @pytest.mark.parametrize("n", [0, 1, 255, 256])
    def test_a_run_within_the_bound_is_one_leaf(self, backend, n):
        plan = self.check(backend, np.arange(float(n)))
        assert plan.starts.tolist() == [0] and plan.retrains == 0
        assert len(plan.slopes) == 0 and len(plan.children) == 0

    def test_one_past_the_bound(self, backend):
        plan = self.check(backend, np.arange(257.0) ** 2)
        assert len(plan.slopes) == 1 and plan.retrains == 1
        assert len(plan.children) == 2 and len(plan.starts) == 2

    @pytest.mark.parametrize("case", ["overflow", "spread overflow"])
    def test_keys_one_model_cannot_split(self, backend, case):
        # Squares that overflow give the flat model: every key routes to
        # one partition, and the run stays one (oversized) leaf.
        keys = {"overflow": 1e300 * (1.0 + np.arange(600) * 2.0 ** -50),
                "spread overflow": np.linspace(-1e300, 1e300, 600)}[case]
        plan = self.check(backend, keys)
        assert plan.starts.tolist() == [0] and plan.retrains == 1
        assert len(plan.slopes) == 0

    def test_a_subtree_one_model_cannot_split(self, backend):
        # Subnormal keys whose squares underflow: the root splits them
        # off, and their own fit is flat, so they stay one leaf below it.
        keys = np.concatenate([np.arange(1, 601) * 5e-324,
                               np.arange(1.0, 1001.0)])
        plan = self.check(backend, keys)
        sizes = np.diff(np.append(plan.starts, len(keys)))
        assert sizes.max() == 600 and plan.retrains >= 2

    @pytest.mark.parametrize("max_depth", [0, 1, 2])
    def test_the_depth_cap(self, backend, max_depth):
        keys = np.unique(np.random.default_rng(6).lognormal(0, 3, 20_000))
        plan = self.check(backend, keys, inner_fanout=2, max_keys=64,
                          max_depth=max_depth)
        sizes = np.diff(np.append(plan.starts, len(keys)))
        assert sizes.max() > 64  # the cap left an oversized leaf

    def test_a_fanout_below_one_raises(self, backend):
        keys = np.arange(1000.0) ** 2
        for root, inner in ((0, 16), (-3, 16), (40, 0)):
            with pytest.raises(ValueError, match="fanout"):
                backend.plan_adaptive(keys, root, inner, 8, 32)
        # An unused fanout is never read.
        plan = backend.plan_adaptive(keys[:8], 0, 0, 8, 32)
        assert plan.starts.tolist() == [0]


def pair_column(kind: str, n: int) -> np.ndarray:
    """A fresh payload column of ``n`` distinct values."""
    if kind == "object":
        column = np.empty(n, dtype=object)
        column[:] = [f"p{i}" for i in range(n)]
        return column
    return np.arange(n, dtype=kind) * (3 if kind == "int64" else 0.5)


def slot_ids(column: np.ndarray) -> list:
    """What identifies each payload slot: its bits, or its object."""
    if column.dtype.kind == "O":
        return [id(value) for value in column]
    return column.view(np.int64).tolist()


def shard_pairs(keys, column, bounds) -> list:
    """Each shard's pairs as a sorted list of ``(key bits, slot id)``,
    each key's shard found by a plain bisect."""
    shards = [[] for _ in range(len(bounds) + 1)]
    for key, bits, slot in zip(keys.tolist(), keys.view(np.int64).tolist(),
                               slot_ids(column)):
        # NaN belongs after every boundary, like searchsorted puts it.
        s = (len(bounds) if math.isnan(key)
             else bisect.bisect_right(bounds.tolist(), key))
        shards[s].append((bits, slot))
    return [sorted(pairs) for pairs in shards]


@backend_params()
class TestPartitionPairsParity:
    """Kernel 7 (the shard partition) on both backends against a plain
    bisect: the same pairs in every shard and the same counts, whatever
    order each backend leaves inside a shard."""

    def check(self, backend, keys, kind, bounds):
        keys = np.array(keys, dtype=np.float64)
        bounds = np.array(bounds, dtype=np.float64)
        column = pair_column(kind, len(keys))
        expected = shard_pairs(keys, column, bounds)
        counts = backend.partition_pairs(keys, column, bounds)
        assert counts.dtype == np.int64
        assert counts.tolist() == [len(pairs) for pairs in expected]
        edges = np.concatenate([[0], np.cumsum(counts)])
        ids = np.array(slot_ids(column), dtype=np.int64)
        for s, pairs in enumerate(expected):
            lo, hi = edges[s], edges[s + 1]
            got = sorted(zip(keys[lo:hi].view(np.int64).tolist(),
                             ids[lo:hi].tolist()))
            assert got == pairs
        return keys, column, counts

    @pytest.mark.parametrize("kind", ["int64", "float64", "object"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_random_keys(self, backend, shards, kind):
        rng = np.random.default_rng(shards)
        keys = rng.permutation(np.unique(rng.lognormal(0, 2, 5000)))
        bounds = np.sort(rng.choice(keys, shards - 1, replace=False))
        self.check(backend, keys, kind, bounds)

    @pytest.mark.parametrize("kind", ["int64", "float64", "object"])
    def test_boundary_keys_go_right(self, backend, kind):
        keys = [5.0, 1.0, 3.0, 3.0, 7.0, 1.0, 0.0, -0.0, 9.0, 5.0, 2.0]
        _, _, counts = self.check(backend, keys, kind, [0.0, 1.0, 3.0, 5.0])
        assert counts.tolist() == [0, 2, 3, 2, 4]

    @pytest.mark.parametrize("kind", ["int64", "float64", "object"])
    def test_empty_shards_and_edges(self, backend, kind):
        keys = np.arange(40.0)[::-1]
        # Boundaries below, between and above every key.
        _, _, counts = self.check(backend, keys, kind,
                                  [-5.0, -1.0, 10.5, 10.6, 50.0, 60.0])
        assert counts.tolist() == [0, 0, 11, 0, 29, 0, 0]
        for n in (0, 1):
            self.check(backend, keys[:n], kind, [0.5, 20.0])
            self.check(backend, keys[:n], kind, [])

    def test_nan_goes_to_the_last_shard(self, backend):
        keys = [np.nan, 4.0, -np.inf, np.inf, 1.0, np.nan]
        _, _, counts = self.check(backend, keys, "float64", [0.0, 2.0])
        assert counts.tolist() == [1, 1, 4]

    def test_object_payloads_keep_their_reference_counts(self, backend):
        values = [object() for _ in range(7)]
        column = np.empty(7000, dtype=object)
        column[:] = values * 1000
        before = [sys.getrefcount(value) for value in values]
        keys = np.random.default_rng(4).permutation(7000).astype(np.float64)
        counts = backend.partition_pairs(keys, column, [1000.5, 5000.0])
        assert counts.tolist() == [1001, 3999, 2000]
        assert [sys.getrefcount(value) for value in values] == before
        assert sorted(map(id, column)) == sorted(map(id, values * 1000))

    def test_bad_arguments_raise(self, backend):
        keys, column = np.arange(4.0), np.arange(4)
        for bounds in ([2.0, 1.0], [1.0, 1.0], [np.nan], [[1.0]]):
            with pytest.raises(ValueError, match="boundaries"):
                backend.partition_pairs(keys, column, bounds)
        frozen = np.arange(4.0)
        frozen.flags.writeable = False
        for bad_keys, bad_column in ((frozen, column), (keys, column[:3]),
                                     (keys, np.arange(4, dtype=np.int32)),
                                     (np.arange(8.0)[::2], column),
                                     (np.arange(4), column)):
            with pytest.raises(ValueError):
                backend.partition_pairs(bad_keys, bad_column, [1.0])


class TestKernelCache:
    def test_compile_flags_are_part_of_the_module_name(self, monkeypatch):
        from repro.core.kernels import cffi_backend
        name = cffi_backend._module_name()
        assert "-ffp-contract=off" in cffi_backend._CFLAGS
        monkeypatch.setattr(cffi_backend, "_CFLAGS",
                            cffi_backend._CFLAGS + ("-O2",))
        assert cffi_backend._module_name() != name


@pytest.mark.parametrize("name", COMPILED or ["numpy"])
class TestEndToEndCounterParity:
    """An index built on a compiled backend must report the *same work
    counters* as the numpy build for an identical operation stream."""

    def test_identical_counters_and_contents(self, name):
        def run(backend_name):
            rng = np.random.default_rng(4321)
            keys = np.unique(rng.uniform(0, 1e8, 3000))
            init, extra = keys[:2400], keys[2400:]
            index = AlexIndex.bulk_load(
                init, config=ga_armi(max_keys_per_node=256,
                                     kernel_backend=backend_name))
            for k in extra:
                index.insert(float(k), "x")
            probes = rng.choice(keys, 500, replace=True)
            got = [index.get(float(k), None) for k in probes]
            got.append(index.get_many(probes, "MISS"))
            for k in extra[:100]:
                index.delete(float(k))
            index.validate()
            return got, list(index.keys()), index.counters
        ref = run("numpy")
        other = run(name)
        assert other[0] == ref[0]
        assert other[1] == ref[1]
        assert other[2] == ref[2]


class TestResolution:
    def test_singletons(self):
        for name in AVAILABLE:
            assert K.get_kernels(name) is K.get_kernels(name)
            assert K.get_kernels(name).name == name

    def test_backend_names(self):
        assert K.BACKEND_NAMES == ("numpy", "cffi")

    @pytest.mark.parametrize("name", ["fortran", "numba", "auto"])
    def test_unknown_name_raises(self, name):
        message = re.escape(f"{name!r}; choose one of ('numpy', 'cffi')")
        with pytest.raises(ValueError, match=message):
            K.get_kernels(name)
        with pytest.raises(ValueError, match=message):
            AlexConfig(kernel_backend=name)

    def test_default_comes_from_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert K.default_backend_name() == "numpy"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cffi")
        assert K.default_backend_name() == "cffi"

    def test_numpy_always_available(self):
        assert "numpy" in AVAILABLE
        assert not NUMPY.compiled
        assert NUMPY.compile_events() == 0

    def test_describe_runtime_shape(self):
        meta = K.describe_runtime()
        assert meta["default_kernel_backend"] in K.BACKEND_NAMES
        assert "numpy" in meta["available_kernel_backends"]
        assert meta["numpy_version"] == np.__version__


class TestCffiAbsentFallback:
    """With cffi unimportable the whole stack must run on the numpy
    fallback: selecting ``cffi`` warns once, then stays silent."""

    @pytest.fixture
    def no_cffi(self, monkeypatch):
        # Simulate an environment without cffi: a None entry makes
        # ``import cffi`` (inside CffiKernels.warm) raise ImportError, and
        # clearing the registry forces a fresh resolution through it.
        monkeypatch.setitem(sys.modules, "cffi", None)
        K.clear_cache()
        yield
        K.clear_cache()

    def test_degrades_to_numpy_with_one_warning(self, no_cffi):
        with pytest.warns(RuntimeWarning, match="cffi kernel backend "
                                                "unavailable"):
            backend = K.get_kernels("cffi")
        assert backend.name == "numpy"
        with warnings.catch_warnings():  # second resolve: silent
            warnings.simplefilter("error")
            assert K.get_kernels("cffi").name == "numpy"

    def test_probes_are_silent_and_keep_the_warning(self, no_cffi):
        # Probing falls back to nothing, so it must not warn, nor use up
        # the one-time warning of a selection that really falls back.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert K.available_backends() == ("numpy",)
            meta = K.describe_runtime()
            assert meta["available_kernel_backends"] == ["numpy"]
            assert meta["cffi_version"] is None
        with pytest.warns(RuntimeWarning, match="cffi kernel backend "
                                                "unavailable"):
            assert K.get_kernels("cffi").name == "numpy"

    def test_index_still_works_on_fallback(self, no_cffi):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.uniform(0, 1e6, 800))
        with pytest.warns(RuntimeWarning):
            index = AlexIndex.bulk_load(
                keys, config=ga_armi(kernel_backend="cffi"))
        assert index.contains_many(keys[:50]).all()
        assert [index.contains(float(k)) for k in keys[:20]] == [True] * 20
        index.insert(keys.max() + 1.0, "new")
        index.validate()

    def test_process_default_falls_back_too(self, no_cffi, monkeypatch):
        # $REPRO_KERNEL_BACKEND=cffi is how CI and the benchmark pick the
        # compiled backend; without cffi it must reach the same fallback.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cffi")
        assert AlexConfig().kernel_backend == "cffi"
        with pytest.warns(RuntimeWarning, match="cffi kernel backend "
                                                "unavailable"):
            backend = K.get_kernels()
        assert backend is K.get_kernels("numpy")


@pytest.mark.parametrize("name", COMPILED)
class TestWarmup:
    """Compiled backends pay compilation at provisioning, never on the
    request path."""

    def test_warm_is_idempotent_and_request_path_is_compile_free(self,
                                                                 name):
        backend = K.get_kernels(name)
        backend.warm()
        events = backend.compile_events()
        assert events >= 1  # something actually compiled or loaded
        backend.warm()
        assert backend.compile_events() == events

        # A full request mix on a provisioned index: still no events.
        rng = np.random.default_rng(11)
        keys = np.unique(rng.uniform(0, 1e7, 2000))
        index = AlexIndex.bulk_load(
            keys[:1500], config=ga_armi(max_keys_per_node=256,
                                        kernel_backend=name))
        index.get_many(rng.choice(keys, 300, replace=True), "MISS")
        index.insert_many(keys[1500:])
        for k in keys[:50]:
            index.lookup(float(k))
        for k in keys[1500:1520]:
            index.delete(float(k))
        assert backend.compile_events() == events

    def test_provisioned_sharded_service_request_path(self, name):
        from repro.serve import ShardedAlexIndex

        rng = np.random.default_rng(13)
        keys = np.unique(rng.uniform(0, 1e7, 3000))
        service = ShardedAlexIndex.bulk_load(
            keys, num_shards=3,
            config=ga_armi(max_keys_per_node=256, kernel_backend=name))
        backend = K.get_kernels(name)
        events = backend.compile_events()  # provisioning already warmed
        assert events >= 1
        service.get_many(rng.choice(keys, 400, replace=True), "MISS")
        service.insert_many(np.setdiff1d(
            np.unique(rng.uniform(0, 1e7, 300)), keys))
        assert backend.compile_events() == events
        service.close()
