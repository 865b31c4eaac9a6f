"""Tests for batch inserts (``AlexIndex.insert_many``)."""

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi, pma_armi
from repro.core.errors import DuplicateKeyError


@pytest.fixture
def base():
    keys = np.unique(np.random.default_rng(141).uniform(0, 1e6, 3000))
    index = AlexIndex.bulk_load(keys[:2000],
                                config=ga_armi(max_keys_per_node=512))
    return index, keys[:2000], keys[2000:]


class TestBulkInsert:
    def test_all_keys_present_after(self, base):
        index, init, batch = base
        index.insert_many(batch, [f"b{i}" for i in range(len(batch))])
        assert len(index) == len(init) + len(batch)
        for i, key in enumerate(batch[::37]):
            assert index.lookup(float(key)) == f"b{int(37 * i)}"
        index.validate()

    def test_unsorted_batch(self, base):
        index, init, batch = base
        shuffled = batch.copy()
        np.random.default_rng(1).shuffle(shuffled)
        index.insert_many(shuffled)
        assert len(index) == len(init) + len(batch)
        index.validate()

    def test_empty_batch_is_noop(self, base):
        index, init, _ = base
        index.insert_many([])
        assert len(index) == len(init)

    def test_duplicate_within_batch_rejected_before_mutation(self, base):
        index, init, batch = base
        bad = np.concatenate([batch[:10], batch[:1]])
        with pytest.raises(DuplicateKeyError):
            index.insert_many(bad)
        assert len(index) == len(init)
        index.validate()

    def test_duplicate_against_index_rejected_before_mutation(self, base):
        index, init, batch = base
        bad = np.concatenate([batch[:10], init[:1]])
        with pytest.raises(DuplicateKeyError):
            index.insert_many(bad)
        assert len(index) == len(init)
        index.validate()

    def test_payload_length_mismatch(self, base):
        index, _, batch = base
        with pytest.raises(ValueError):
            index.insert_many(batch[:5], ["only-one"])

    def test_small_batch_uses_plain_inserts(self, base):
        index, init, batch = base
        index.insert_many(batch[:2])
        assert len(index) == len(init) + 2
        index.validate()

    @pytest.mark.parametrize("factory", [ga_srmi, pma_armi],
                             ids=["ga-srmi", "pma-armi"])
    def test_other_variants(self, factory):
        keys = np.unique(np.random.default_rng(142).uniform(0, 1e4, 1500))
        index = AlexIndex.bulk_load(keys[:1000], config=factory(
            num_models=8, max_keys_per_node=512))
        index.insert_many(keys[1000:])
        assert len(index) == len(keys)
        index.validate()

    def test_batch_cheaper_than_loop_for_dense_batches(self):
        keys = np.arange(0.0, 8000.0, 2.0)
        batch = np.arange(1.0, 8000.0, 2.0)

        loop_index = AlexIndex.bulk_load(keys, config=ga_srmi(num_models=8))
        for key in batch:
            loop_index.insert(float(key))
        loop_work = loop_index.counters.shifts

        batch_index = AlexIndex.bulk_load(keys, config=ga_srmi(num_models=8))
        batch_index.insert_many(batch)
        batch_work = batch_index.counters.shifts

        assert batch_work < loop_work
        assert list(batch_index.keys()) == list(loop_index.keys())


class TestBulkInsertSplits:
    """Regression: a rebuilt leaf used to bypass the node-size limit —
    ``insert_many`` called ``_model_based_build`` directly and never split,
    so a merged leaf could exceed ``max_keys_per_node`` even with node
    splitting enabled."""

    @pytest.mark.parametrize("factory", [ga_armi, pma_armi],
                             ids=["ga-armi", "pma-armi"])
    def test_oversized_rebuilt_leaf_splits(self, factory):
        config = factory(max_keys_per_node=64, split_on_inserts=True)
        index = AlexIndex.bulk_load(np.arange(0.0, 64.0), config=config)
        # The whole batch routes beyond the last leaf's key range, merging
        # into a single leaf ~10x over the bound.
        index.insert_many(np.arange(1000.0, 1600.0))
        assert len(index) == 664
        assert index.leaf_sizes().max() <= 64
        index.validate()
        assert index.lookup(1234.0) is None
        assert index.contains(63.0)

    def test_cold_start_insert_many_splits(self):
        index = AlexIndex(ga_armi(max_keys_per_node=64))
        keys = np.random.default_rng(9).permutation(np.arange(500.0))
        index.insert_many(keys)
        assert len(index) == 500
        assert index.leaf_sizes().max() <= 64
        index.validate()

    def test_splitting_disabled_keeps_oversized_leaf(self):
        # With splitting off (the paper's bulk-load default) the old
        # behavior is intentional: the merged leaf may exceed the bound.
        config = ga_armi(max_keys_per_node=64, split_on_inserts=False)
        index = AlexIndex.bulk_load(np.arange(0.0, 64.0), config=config)
        index.insert_many(np.arange(1000.0, 1600.0))
        assert index.leaf_sizes().max() > 64
        index.validate()
