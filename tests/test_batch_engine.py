"""Property-based equivalence tests for the batch execution engine.

The batch engine (vectorized routing, lock-step in-node search, batched
point reads) must produce results *identical* to the scalar code paths.
These tests drive seeded-random scenarios across both node layouts, both
RMI modes, cold-started and bulk-loaded indexes, and batch sizes
{1, 7, 1000}, checking `lookup_many` / `get_many` / `contains_many` /
`_route_many` / the vectorized model-based build against scalar execution.

The whole module additionally runs once per *available kernel backend*
(numpy always; cffi when its toolchain works): the autouse
fixture below sets the process-default backend, which every config built
by these tests inherits, so scalar/batch equivalence — results and
counters — is asserted under the compiled kernels too.
"""

import zlib

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi, pma_armi, pma_srmi
from repro.core.errors import KeyNotFoundError
from repro.core.gapped_array import GappedArrayNode
from repro.core.kernels import available_backends
from repro.core.pma import PMANode
from repro.core.stats import Counters


@pytest.fixture(params=available_backends(), autouse=True,
                ids=lambda name: f"kernels-{name}")
def kernel_backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", request.param)
    return request.param


CONFIGS = {
    "ga-srmi": lambda: ga_srmi(num_models=16),
    "ga-armi": lambda: ga_armi(max_keys_per_node=256),
    "pma-srmi": lambda: pma_srmi(num_models=16),
    "pma-armi": lambda: pma_armi(max_keys_per_node=256),
}
BATCH_SIZES = (1, 7, 1000)


def _seed(parts) -> int:
    """Deterministic per-case seed (str hash() is randomized per run)."""
    return zlib.crc32(repr(parts).encode())


def build_bulk_loaded(config, rng, n=3000):
    keys = np.unique(rng.uniform(0, 1e9, n + 200))[:n]
    payloads = [f"p{i}" for i in range(len(keys))]
    return AlexIndex.bulk_load(keys, payloads, config=config), keys


def build_cold_start(config, rng, n=600):
    keys = np.unique(rng.uniform(0, 1e9, n + 50))[:n]
    index = AlexIndex(config)
    for i in rng.permutation(len(keys)):
        index.insert(float(keys[i]), f"p{int(i)}")
    return index, keys


BUILDERS = {"bulk-loaded": build_bulk_loaded, "cold-start": build_cold_start}


def probe_mix(keys, rng, size):
    """Half present keys, half uniform-random (mostly absent), shuffled."""
    hits = rng.choice(keys, size - size // 2, replace=True)
    misses = rng.uniform(-1e8, 1.1e9, size // 2)
    probes = np.concatenate([hits, misses])
    rng.shuffle(probes)
    return probes


@pytest.mark.parametrize("builder", BUILDERS, ids=list(BUILDERS))
@pytest.mark.parametrize("variant", CONFIGS, ids=list(CONFIGS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
class TestBatchReadEquivalence:
    def test_get_and_contains_match_scalar(self, variant, builder, batch_size):
        rng = np.random.default_rng(_seed((variant, builder, batch_size)))
        index, keys = BUILDERS[builder](CONFIGS[variant](), rng)
        probes = probe_mix(keys, rng, batch_size)

        scalar_get = [index.get(float(k), "MISS") for k in probes]
        scalar_contains = [index.contains(float(k)) for k in probes]

        assert index.get_many(probes, "MISS") == scalar_get
        assert index.contains_many(probes).tolist() == scalar_contains

    def test_lookup_many_matches_scalar_on_hits(self, variant, builder,
                                                batch_size):
        rng = np.random.default_rng(_seed(("hits", variant, builder,
                                           batch_size)))
        index, keys = BUILDERS[builder](CONFIGS[variant](), rng)
        probes = rng.choice(keys, batch_size, replace=True)
        assert index.lookup_many(probes) == [index.lookup(float(k))
                                             for k in probes]

    def test_lookup_many_raises_on_any_miss(self, variant, builder,
                                            batch_size):
        rng = np.random.default_rng(_seed(("miss", variant, builder,
                                           batch_size)))
        index, keys = BUILDERS[builder](CONFIGS[variant](), rng)
        probes = rng.choice(keys, batch_size, replace=True)
        probes[rng.integers(len(probes))] = -12345.6  # guaranteed absent
        with pytest.raises(KeyNotFoundError):
            index.lookup_many(probes)


@pytest.mark.parametrize("variant", CONFIGS, ids=list(CONFIGS))
class TestRouteManyEquivalence:
    def test_groups_match_scalar_routing(self, variant):
        rng = np.random.default_rng(5150)
        index, keys = build_bulk_loaded(CONFIGS[variant](), rng)
        probes = np.sort(probe_mix(keys, rng, 500))
        groups = index._route_many(probes)
        # Groups tile [0, n) in order, and every key lands in the same
        # leaf (with the same parent) the scalar traversal chooses.
        expected_lo = 0
        for leaf, parent, lo, hi in groups:
            assert lo == expected_lo and hi > lo
            expected_lo = hi
            for key in probes[lo:hi:17]:
                scalar_leaf, scalar_parent = index._route(float(key))
                assert scalar_leaf is leaf
                assert scalar_parent is parent
        assert expected_lo == len(probes)


class TestVectorizedBuildEquivalence:
    """The np.maximum.accumulate placement must reproduce the sequential
    collision-resolution loop slot for slot."""

    @staticmethod
    def scalar_placement(predicted, n, capacity):
        out = []
        last = -1
        for i in range(n):
            pos = int(predicted[i])
            if pos <= last:
                pos = last + 1
            max_pos = capacity - (n - i)
            if pos > max_pos:
                pos = max_pos
            out.append(pos)
            last = pos
        return out

    @pytest.mark.parametrize("node_cls", [GappedArrayNode, PMANode],
                             ids=["ga", "pma"])
    @pytest.mark.parametrize("n", [0, 1, 5, 100, 1000])
    def test_build_slots_match_scalar_loop(self, node_cls, n):
        rng = np.random.default_rng(n + 1)
        keys = np.unique(rng.uniform(0, 1e6, n + 10))[:n]
        node = node_cls(ga_armi(), Counters())
        node.build(keys, [f"v{i}" for i in range(n)])
        node.check_invariants()
        if node.model is not None:
            predicted = node.model.predict_pos_vec(keys, node.capacity)
            expected = self.scalar_placement(predicted, n, node.capacity)
            assert np.flatnonzero(node.occupied).tolist() == expected
        # Round-trip: the node holds exactly the built keys and payloads.
        out_keys, out_payloads = node.export_sorted()
        assert out_keys.tolist() == keys.tolist()
        assert out_payloads.tolist() == [f"v{i}" for i in range(n)]

    def test_adversarial_clustered_predictions(self):
        # Keys nearly identical: the model predicts one slot for everything
        # and the collision cascade plus the trailing-room cap must still
        # produce a legal, order-preserving placement.
        keys = 1000.0 + np.arange(200) * 1e-9
        node = GappedArrayNode(ga_armi(), Counters())
        node.build(keys)
        node.check_invariants()
        assert node.num_keys == 200


class TestFindKeysMany:
    @pytest.mark.parametrize("node_cls", [GappedArrayNode, PMANode],
                             ids=["ga", "pma"])
    @pytest.mark.parametrize("n", [0, 3, 40, 400])
    def test_matches_scalar_find_key(self, node_cls, n):
        rng = np.random.default_rng(n + 7)
        keys = np.unique(rng.uniform(0, 1e6, n + 10))[:n]
        node = node_cls(ga_armi(), Counters())
        node.build(keys)
        probes = np.concatenate([keys, rng.uniform(-1e5, 1.2e6, 50)])
        rng.shuffle(probes)
        scalar = [node.find_key(float(k)) for k in probes]
        assert node.find_keys_many(probes).tolist() == scalar

    def test_counters_match_scalar_totals(self):
        # Aggregated batch counters equal the sum of per-key scalar charges.
        rng = np.random.default_rng(77)
        keys = np.unique(rng.uniform(0, 1e6, 500))
        probes = probe_mix(keys, rng, 300)

        scalar_node = GappedArrayNode(ga_armi(), Counters())
        scalar_node.build(keys)
        scalar_node.counters.reset()
        for k in probes:
            scalar_node.find_key(float(k))

        batch_node = GappedArrayNode(ga_armi(), Counters())
        batch_node.build(keys)
        batch_node.counters.reset()
        batch_node.find_keys_many(probes)

        assert (batch_node.counters.probes
                == scalar_node.counters.probes)
        assert (batch_node.counters.comparisons
                == scalar_node.counters.comparisons)
        assert (batch_node.counters.model_inferences
                == scalar_node.counters.model_inferences)


class TestBulkInsertEquivalence:
    @pytest.mark.parametrize("variant", CONFIGS, ids=list(CONFIGS))
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_same_contents_as_scalar_inserts(self, variant, batch_size):
        rng = np.random.default_rng(_seed((variant, batch_size)))
        keys = np.unique(rng.uniform(0, 1e9, 2000 + batch_size))
        init, batch = keys[:2000], keys[2000:2000 + batch_size]
        rng.shuffle(batch)

        batched = AlexIndex.bulk_load(init, config=CONFIGS[variant]())
        batched.insert_many(batch, [f"b{i}" for i in range(len(batch))])

        scalar = AlexIndex.bulk_load(init, config=CONFIGS[variant]())
        for i, key in enumerate(batch):
            scalar.insert(float(key), f"b{i}")

        assert list(batched.keys()) == list(scalar.keys())
        assert batched.lookup_many(batch) == [f"b{i}"
                                              for i in range(len(batch))]
        batched.validate()


class TestInsertManyEquivalence:
    """insert_many must leave the
    index identical to a scalar insert loop, split handling included."""

    @pytest.mark.parametrize("variant", CONFIGS, ids=list(CONFIGS))
    def test_method_matches_scalar_inserts_with_splits(self, variant):
        rng = np.random.default_rng(_seed(("insert_many", variant)))
        keys = np.unique(rng.uniform(0, 1e9, 4000))
        init, batch = keys[:2500], keys[2500:]
        rng.shuffle(batch)

        batched = AlexIndex.bulk_load(init, config=CONFIGS[variant]())
        batched.insert_many(batch, [f"b{i}" for i in range(len(batch))])

        scalar = AlexIndex.bulk_load(init, config=CONFIGS[variant]())
        for i, key in enumerate(batch):
            scalar.insert(float(key), f"b{i}")

        assert list(batched.keys()) == list(scalar.keys())
        assert len(batched) == len(scalar)
        batched.validate()

    def test_all_or_nothing_on_duplicates(self):
        from repro.core.errors import DuplicateKeyError

        rng = np.random.default_rng(_seed("atomic"))
        keys = np.unique(rng.uniform(0, 1e9, 1000))
        index = AlexIndex.bulk_load(keys, config=ga_armi())
        before = list(index.keys())
        poisoned = np.concatenate([rng.uniform(2e9, 3e9, 50), keys[:1]])
        with pytest.raises(DuplicateKeyError):
            index.insert_many(poisoned)
        assert list(index.keys()) == before


@pytest.mark.parametrize("variant", CONFIGS, ids=list(CONFIGS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
class TestRangeQueryManyEquivalence:
    def test_matches_scalar_range_query(self, variant, batch_size):
        rng = np.random.default_rng(_seed(("rq", variant, batch_size)))
        index, keys = build_bulk_loaded(CONFIGS[variant](), rng)
        los = rng.uniform(-1e8, 1.1e9, batch_size)
        his = los + rng.uniform(0, 2e8, batch_size)
        his[::7] = los[::7] - 1.0  # inverted bounds yield empty results
        batch = index.range_query_many(los, his)
        scalar = [index.range_query(float(lo), float(hi))
                  for lo, hi in zip(los, his)]
        assert batch == scalar

    def test_unsorted_bounds_return_in_input_order(self, variant,
                                                   batch_size):
        rng = np.random.default_rng(_seed(("rqo", variant, batch_size)))
        index, keys = build_bulk_loaded(CONFIGS[variant](), rng)
        los = rng.choice(keys, batch_size, replace=True)[::-1].copy()
        his = los + 5e7
        batch = index.range_query_many(los, his)
        for result, lo, hi in zip(batch, los, his):
            assert result == index.range_query(float(lo), float(hi))


class TestScalarFastPath:
    """The single-key fast path must stay observationally identical to the
    batch engine with a one-element batch."""

    @pytest.mark.parametrize("variant", CONFIGS, ids=list(CONFIGS))
    def test_results_match_single_element_batches(self, variant):
        rng = np.random.default_rng(_seed(("fast", variant)))
        index, keys = build_bulk_loaded(CONFIGS[variant](), rng)
        for key in probe_mix(keys, rng, 60):
            key = float(key)
            assert (index.get(key, "MISS")
                    == index.get_many(np.array([key]), "MISS")[0])
            assert index.contains(key) == bool(
                index.contains_many(np.array([key]))[0])
        for key in rng.choice(keys, 40):
            key = float(key)
            assert index.lookup(key) == index.lookup_many(np.array([key]))[0]
        with pytest.raises(KeyNotFoundError):
            index.lookup(-777.0)

    def test_lookup_counter_parity_with_batch(self):
        rng = np.random.default_rng(_seed("fastcnt"))
        index, keys = build_bulk_loaded(ga_armi(), rng)
        hits = rng.choice(keys, 100, replace=True)
        index.counters.reset()
        for key in hits:
            index.lookup(float(key))
        scalar_lookups = index.counters.lookups
        index.counters.reset()
        index.lookup_many(hits)
        assert index.counters.lookups == scalar_lookups == 100


class TestWorkloadRunnerBatching:
    def test_batched_reads_identical_tallies(self):
        from repro.workloads import READ_HEAVY
        from repro.workloads.runner import run_workload

        rng = np.random.default_rng(4242)
        keys = np.unique(rng.uniform(0, 1e8, 2500))
        init, inserts = keys[:2000], keys[2000:]

        tallies = {}
        for read_batch in (1, 64):
            index = AlexIndex.bulk_load(init, config=ga_armi())
            result = run_workload(index, init.copy(), inserts.copy(),
                                  READ_HEAVY, 800, seed=3,
                                  read_batch=read_batch)
            tallies[read_batch] = result
            index.validate()
        assert tallies[1].reads == tallies[64].reads
        assert tallies[1].inserts == tallies[64].inserts
        assert tallies[1].ops == tallies[64].ops
        # Batching only amortizes traversal work; it never adds any.
        assert (tallies[64].work.pointer_follows
                <= tallies[1].work.pointer_follows)

    def test_batched_writes_identical_contents_and_tallies(self):
        from repro.workloads import WRITE_HEAVY
        from repro.workloads.runner import run_workload

        rng = np.random.default_rng(2424)
        keys = np.unique(rng.uniform(0, 1e8, 3500))
        init, inserts = keys[:2500], keys[2500:]

        contents = {}
        tallies = {}
        for write_batch in (1, 64):
            index = AlexIndex.bulk_load(init, config=ga_armi())
            result = run_workload(index, init.copy(), inserts.copy(),
                                  WRITE_HEAVY, 900, seed=5,
                                  write_batch=write_batch)
            tallies[write_batch] = result
            contents[write_batch] = list(index.keys())
            index.validate()
        assert tallies[1].inserts == tallies[64].inserts
        assert tallies[1].reads == tallies[64].reads
        assert tallies[1].scans == tallies[64].scans
        assert tallies[1].scanned_records == tallies[64].scanned_records
        assert tallies[1].ops == tallies[64].ops
        assert contents[1] == contents[64]
