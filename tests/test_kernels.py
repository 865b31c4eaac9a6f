"""Tests for the pluggable hot-loop kernel layer (repro.core.kernels).

Three concerns:

* **Parity** — the compiled backend must produce bit-identical
  positions, states, *and work charges* to the pure-numpy reference, on
  randomized node layouts including every edge (empty nodes, all-gap
  nodes, boundary targets, cold-start vs model-hinted search), and the
  same leaf layouts from the model-based placement.
* **Resolution** — selecting the compiled backend when its toolchain is
  absent degrades to numpy with a one-time warning; unknown names
  raise; resolution returns process-wide singletons.
* **Warmup** — a provisioned backend performs zero compile/load events
  on the request path (the serving tier warms kernels at provisioning).
"""

import re
import sys
import warnings

import numpy as np
import pytest

from repro.core import kernels as K
from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig, ga_armi
from repro.core.data_node import GAP_SENTINEL
from repro.core.gapped_array import GappedArrayNode
from repro.core.linear_model import LinearModel
from repro.core.stats import Counters

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


def sequential_place(keys, has_model, slope, intercept, capacity):
    """Algorithm 3's placement as the plain loop the kernels implement."""
    n = len(keys)
    slot_keys = [GAP_SENTINEL] * capacity
    occupied = [False] * capacity
    positions, last = [], -1
    for i, key in enumerate(keys.tolist()):
        if has_model:
            pred = int(NUMPY.predict_clamp(slope, intercept,
                                           np.array([key]), capacity)[0])
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


@backend_params()
class TestModelPlaceParity:
    """Kernel 4 (the leaf build's placement and gap fill) against the
    numpy reference and the sequential loop it vectorizes."""

    def check(self, backend, keys, has_model, slope, intercept, capacity):
        keys = np.asarray(keys, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            got = backend.model_place(keys, has_model, slope, intercept,
                                      capacity)
            ref = NUMPY.model_place(keys, has_model, slope, intercept,
                                    capacity)
            loop = sequential_place(keys, has_model, slope, intercept,
                                    capacity)
        slot_keys, occupied, positions, fills = got
        assert slot_keys.dtype == np.float64 and occupied.dtype == bool
        assert positions.dtype == np.int64
        for result in (ref, loop):
            assert slot_keys.tolist() == list(result[0])
            assert occupied.tolist() == list(result[1])
            assert positions.tolist() == list(result[2])
            assert fills == result[3]
        return got

    def test_empty(self, backend):
        slot_keys, occupied, positions, fills = self.check(
            backend, [], False, 0.0, 0.0, 8)
        assert slot_keys.tolist() == [GAP_SENTINEL] * 8
        assert not occupied.any() and positions.tolist() == [] and fills == 8

    def test_cold_start_spread(self, backend):
        # Below min_keys_for_model the build places without a model.
        for n in range(1, AlexConfig().min_keys_for_model):
            for capacity in (n, n + 1, 2 * n + 3):
                self.check(backend, np.arange(n) * 3.0, False, 0.0, 0.0,
                           capacity)

    def test_full_capacity(self, backend):
        keys = np.sort(np.random.default_rng(3).uniform(0, 1e3, 40))
        _, occupied, positions, fills = self.check(
            backend, keys, True, 0.01, 0.0, 40)
        assert occupied.all() and positions.tolist() == list(range(40))
        assert fills == 0
        self.check(backend, keys, False, 0.0, 0.0, 40)

    def test_zero_slope(self, backend):
        keys = np.arange(20.0)
        for intercept in (0.0, 5.5, 49.0, 1e9):
            self.check(backend, keys, True, 0.0, intercept, 50)

    def test_predictions_past_both_edges(self, backend):
        keys = np.linspace(-100.0, 100.0, 30)
        for slope, intercept in ((1.0, 0.0), (10.0, 30.0), (0.5, -200.0),
                                 (3.0, 500.0), (-1.0, 10.0)):
            self.check(backend, keys, True, slope, intercept, 64)

    def test_non_finite_predictions(self, backend):
        keys = np.array([-1e300, -1.0, 0.0, 1.0, 1e300])
        for slope, intercept in ((1e300, 0.0), (0.0, np.nan), (np.inf, 0.0),
                                 (-np.inf, 3.0), (0.0, np.inf)):
            self.check(backend, keys, True, slope, intercept, 16)

    def test_random_sorted_keys(self, backend):
        rng = np.random.default_rng(21)
        for trial in range(40):
            n = int(rng.integers(1, 300))
            keys = np.unique(rng.lognormal(0, 2, n))
            n = len(keys)
            capacity = n + int(rng.integers(0, 3 * n))
            has_model = trial % 4 != 0
            model = LinearModel.train_cdf(keys, capacity)
            self.check(backend, keys, has_model, model.slope,
                       model.intercept, capacity)

    def test_rejects_more_keys_than_slots(self, backend):
        with pytest.raises(ValueError):
            backend.model_place(np.arange(5.0), False, 0.0, 0.0, 4)


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
