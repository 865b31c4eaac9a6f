"""Integration-level tests for the AlexIndex public API (all four variants)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi, pma_armi, pma_srmi
from repro.core.errors import DuplicateKeyError, KeyNotFoundError

VARIANTS = [
    pytest.param(ga_srmi, id="ga-srmi"),
    pytest.param(ga_armi, id="ga-armi"),
    pytest.param(pma_srmi, id="pma-srmi"),
    pytest.param(pma_armi, id="pma-armi"),
]


def small_config(factory):
    return factory(num_models=16, max_keys_per_node=128)


@pytest.fixture
def keys_2k():
    rng = np.random.default_rng(31)
    return np.unique(rng.uniform(0, 1e6, 2000))


@pytest.fixture(params=VARIANTS)
def loaded(request, keys_2k):
    index = AlexIndex.bulk_load(keys_2k, config=small_config(request.param))
    return index, keys_2k


class TestBulkLoad:
    @pytest.mark.parametrize("factory", [ga_srmi, ga_armi, pma_srmi, pma_armi])
    def test_all_variants_load_and_validate(self, factory, keys_2k):
        index = AlexIndex.bulk_load(keys_2k, config=small_config(factory))
        index.validate()
        assert len(index) == len(keys_2k)

    def test_unsorted_input_is_sorted(self):
        index = AlexIndex.bulk_load([5.0, 1.0, 3.0])
        assert list(index.keys()) == [1.0, 3.0, 5.0]

    def test_payloads_follow_sort(self):
        index = AlexIndex.bulk_load([5.0, 1.0, 3.0], ["five", "one", "three"])
        assert index.lookup(1.0) == "one"
        assert index.lookup(5.0) == "five"

    def test_duplicate_keys_rejected(self):
        with pytest.raises(DuplicateKeyError):
            AlexIndex.bulk_load([1.0, 2.0, 2.0])

    def test_payload_length_mismatch(self):
        with pytest.raises(ValueError):
            AlexIndex.bulk_load([1.0, 2.0], ["only-one"])

    def test_empty_load(self):
        index = AlexIndex.bulk_load([])
        assert len(index) == 0
        index.validate()

    @pytest.mark.parametrize("kind", ["none", "float", "object"])
    def test_unsorted_load_holds_at_most_three_columns(self, kind):
        # Typed first, gathered column then keys, the order dropped
        # before the duplicate check: never four n-item arrays at once.
        n = 200_000
        keys = np.random.default_rng(8).permutation(n) * 0.5
        payloads = {"none": None, "float": (keys * 2.0).tolist(),
                    "object": [(i,) for i in range(n)]}[kind]
        tracemalloc.start()
        try:
            sorted_keys, column = AlexIndex._normalize_batch(
                keys, payloads, column=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted_keys.tolist() == (np.arange(n) * 0.5).tolist()
        if kind == "float":
            assert column.tolist() == (sorted_keys * 2.0).tolist()
        assert peak <= 3.1 * 8 * n


class TestLookup:
    def test_every_key_found(self, loaded):
        index, keys = loaded
        for key in keys[::29]:
            index.lookup(float(key))

    def test_missing_key_raises(self, loaded):
        index, _ = loaded
        with pytest.raises(KeyNotFoundError):
            index.lookup(-1e12)

    def test_get_with_default(self, loaded):
        index, keys = loaded
        assert index.get(-1e12, "fallback") == "fallback"
        assert index.get(float(keys[0])) is None

    def test_contains(self, loaded):
        index, keys = loaded
        assert index.contains(float(keys[1]))
        assert not index.contains(-1e12)


class TestInsert:
    def test_insert_lookup_roundtrip(self, loaded):
        index, keys = loaded
        new = float(keys[0]) + 0.123
        index.insert(new, "payload")
        assert index.lookup(new) == "payload"
        index.validate()

    def test_duplicate_raises(self, loaded):
        index, keys = loaded
        with pytest.raises(DuplicateKeyError):
            index.insert(float(keys[42]))

    def test_bulk_inserts_keep_structure_valid(self, loaded):
        index, keys = loaded
        rng = np.random.default_rng(32)
        new = np.setdiff1d(np.unique(rng.uniform(0, 1e6, 1500)), keys)
        for key in new:
            index.insert(float(key))
        index.validate()
        assert len(index) == len(keys) + len(new)

    def test_len_tracks_inserts(self, loaded):
        index, keys = loaded
        index.insert(-5.0)
        assert len(index) == len(keys) + 1


class TestColdStart:
    @pytest.mark.parametrize("factory", [ga_armi, pma_armi])
    def test_empty_index_grows_by_splitting(self, factory):
        config = factory(max_keys_per_node=64)
        index = AlexIndex(config)
        rng = np.random.default_rng(33)
        keys = np.unique(rng.uniform(0, 1e4, 1000))
        for key in keys:
            index.insert(float(key))
        index.validate()
        assert index.num_leaves() > 1
        assert index.counters.splits > 0

    def test_static_rmi_cold_start_expands_single_leaf(self):
        index = AlexIndex(ga_srmi())
        for key in range(500):
            index.insert(float(key))
        index.validate()
        assert len(index) == 500

    def test_first_lookup_on_empty_raises(self):
        index = AlexIndex()
        with pytest.raises(KeyNotFoundError):
            index.lookup(1.0)


class TestDeleteUpdate:
    def test_delete_roundtrip(self, loaded):
        index, keys = loaded
        index.delete(float(keys[10]))
        assert not index.contains(float(keys[10]))
        assert len(index) == len(keys) - 1
        index.validate()

    def test_delete_missing_raises(self, loaded):
        index, _ = loaded
        with pytest.raises(KeyNotFoundError):
            index.delete(-1e12)

    def test_delete_many_then_validate(self, loaded):
        index, keys = loaded
        for key in keys[::2]:
            index.delete(float(key))
        index.validate()
        assert len(index) == len(keys) - len(keys[::2])

    def test_update_and_upsert(self, loaded):
        index, keys = loaded
        index.update(float(keys[0]), "updated")
        assert index.lookup(float(keys[0])) == "updated"
        index.upsert(float(keys[1]), "upserted")
        assert index.lookup(float(keys[1])) == "upserted"
        index.upsert(-77.0, "new")
        assert index.lookup(-77.0) == "new"

    def test_update_missing_raises(self, loaded):
        index, _ = loaded
        with pytest.raises(KeyNotFoundError):
            index.update(-1e12, "x")


class TestRangeOperations:
    def test_range_scan_sorted_and_bounded(self, loaded):
        index, keys = loaded
        sorted_keys = np.sort(keys)
        start = float(sorted_keys[100])
        out = index.range_scan(start, 50)
        assert [k for k, _ in out] == sorted_keys[100:150].tolist()

    def test_range_scan_crosses_leaves(self, loaded):
        index, keys = loaded
        sorted_keys = np.sort(keys)
        out = index.range_scan(float(sorted_keys[0]), len(keys))
        assert len(out) == len(keys)

    def test_range_query_inclusive(self, loaded):
        index, keys = loaded
        sorted_keys = np.sort(keys)
        lo, hi = float(sorted_keys[50]), float(sorted_keys[80])
        out = index.range_query(lo, hi)
        assert [k for k, _ in out] == sorted_keys[50:81].tolist()

    def test_range_query_empty_interval(self, loaded):
        index, _ = loaded
        assert index.range_query(1e12, 2e12) == []

    def test_items_and_keys_sorted(self, loaded):
        index, keys = loaded
        assert list(index.keys()) == np.sort(keys).tolist()


class TestDunders:
    def test_mapping_protocol(self, loaded):
        index, keys = loaded
        key = float(keys[7])
        index[key] = "via-setitem"
        assert index[key] == "via-setitem"
        assert key in index
        del index[key]
        assert key not in index

    def test_iter_yields_keys(self, loaded):
        index, keys = loaded
        assert next(iter(index)) == float(np.sort(keys)[0])


class TestIntrospection:
    def test_variant_names(self, keys_2k):
        for factory, name in [(ga_srmi, "ALEX-GA-SRMI"), (ga_armi, "ALEX-GA-ARMI"),
                              (pma_srmi, "ALEX-PMA-SRMI"), (pma_armi, "ALEX-PMA-ARMI")]:
            index = AlexIndex.bulk_load(keys_2k[:100],
                                        config=small_config(factory))
            assert index.variant_name == name

    def test_index_smaller_than_data(self, loaded):
        index, _ = loaded
        assert index.index_size_bytes() < index.data_size_bytes()

    def test_leaf_sizes_sum_to_len(self, loaded):
        index, keys = loaded
        assert int(index.leaf_sizes().sum()) == len(keys)

    def test_num_models_counts_inner_and_leaf(self, loaded):
        index, _ = loaded
        assert index.num_models() >= index.num_leaves()

    def test_depth_nonnegative(self, loaded):
        index, _ = loaded
        assert index.depth() >= 0


class TestSplitOnInserts:
    def test_distribution_shift_triggers_splits(self, keys_2k):
        config = dataclasses.replace(ga_armi(max_keys_per_node=128),
                                     split_on_inserts=True)
        sorted_keys = np.sort(keys_2k)
        half = len(sorted_keys) // 2
        index = AlexIndex.bulk_load(sorted_keys[:half], config=config)
        before = index.counters.splits
        for key in sorted_keys[half:]:
            index.insert(float(key))
        index.validate()
        assert index.counters.splits > before

    def test_without_splitting_leaves_grow_past_bound(self, keys_2k):
        config = ga_armi(max_keys_per_node=128)  # splitting off by default
        sorted_keys = np.sort(keys_2k)
        half = len(sorted_keys) // 2
        index = AlexIndex.bulk_load(sorted_keys[:half], config=config)
        for key in sorted_keys[half:]:
            index.insert(float(key))
        index.validate()
        assert int(index.leaf_sizes().max()) > 128
