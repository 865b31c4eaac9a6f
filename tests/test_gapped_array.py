"""Unit tests for the Gapped Array leaf node (paper Section 3.3.1)."""

import numpy as np
import pytest

from conftest import node_payload, prediction_error
from repro.core.config import AlexConfig, GAPPED_ARRAY, STATIC_RMI
from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.core.gapped_array import GappedArrayNode
from repro.core.stats import Counters


def make_node(keys=None, **config_overrides):
    config = AlexConfig(node_layout=GAPPED_ARRAY, rmi_mode=STATIC_RMI,
                        **config_overrides)
    node = GappedArrayNode(config, Counters())
    node.build(np.asarray(keys if keys is not None else [], dtype=np.float64))
    return node


@pytest.fixture
def node_100():
    rng = np.random.default_rng(7)
    keys = np.sort(np.unique(rng.uniform(0, 1000, 100)))
    return make_node(keys), keys


class TestBuild:
    def test_build_density_is_d_squared(self):
        node = make_node(np.arange(100, dtype=np.float64))
        assert node.density == pytest.approx(node.config.density_at_build,
                                             abs=0.05)

    def test_all_keys_findable_after_build(self, node_100):
        node, keys = node_100
        for key in keys:
            assert node.find_key(float(key)) >= 0

    def test_invariants_after_build(self, node_100):
        node, _ = node_100
        node.check_invariants()

    def test_empty_build(self):
        node = make_node([])
        assert node.num_keys == 0
        assert node.capacity >= node.MIN_CAPACITY
        assert node.find_key(1.0) < 0

    def test_model_based_placement_mostly_exact(self):
        # Uniform keys are perfectly linear: most keys should sit exactly at
        # their predicted slot (the paper's direct-hit argument).
        keys = np.arange(0, 1000, 10, dtype=np.float64)
        node = make_node(keys)
        errors = [prediction_error(node, float(k)) for k in keys]
        assert np.mean(np.array(errors) == 0) > 0.5

    def test_build_replaces_previous_content(self, node_100):
        node, _ = node_100
        node.build(np.array([1.0, 2.0, 3.0]))
        assert node.num_keys == 3
        assert node.find_key(2.0) >= 0


class TestInsert:
    def test_insert_then_lookup(self, node_100):
        node, keys = node_100
        node.insert(keys[0] + 0.5, "value")
        assert node_payload(node, keys[0] + 0.5) == "value"
        node.check_invariants()

    def test_insert_below_min_and_above_max(self, node_100):
        node, keys = node_100
        node.insert(float(keys.min()) - 1.0)
        node.insert(float(keys.max()) + 1.0)
        node.check_invariants()
        assert node.min_key() == float(keys.min()) - 1.0
        assert node.max_key() == float(keys.max()) + 1.0

    def test_duplicate_insert_raises(self, node_100):
        node, keys = node_100
        with pytest.raises(DuplicateKeyError):
            node.insert(float(keys[10]))

    def test_many_inserts_keep_invariants(self):
        rng = np.random.default_rng(8)
        keys = np.unique(rng.uniform(0, 100, 400))
        node = make_node(keys[:50])
        for key in keys[50:]:
            node.insert(float(key))
        node.check_invariants()
        assert node.num_keys == len(keys)
        for key in keys[::13]:
            assert node.find_key(float(key)) >= 0

    def test_density_bound_respected(self):
        node = make_node(np.arange(50, dtype=np.float64))
        for key in np.arange(50, 400, dtype=np.float64):
            node.insert(float(key))
            assert node.density <= node.config.density_upper + 1e-9

    def test_expansion_triggered_and_counted(self):
        node = make_node(np.arange(50, dtype=np.float64))
        before = node.counters.expansions
        for key in np.arange(1000, 1200, dtype=np.float64):
            node.insert(float(key))
        assert node.counters.expansions > before

    def test_cold_start_node_gets_model_after_enough_keys(self):
        node = make_node([], min_keys_for_model=8)
        for key in range(20):
            node.insert(float(key))
        assert node.model is not None
        node.check_invariants()

    def test_cold_start_uses_binary_search(self):
        node = make_node([1.0, 2.0], min_keys_for_model=8)
        assert node.model is None
        assert node.find_key(1.0) >= 0
        assert node.find_key(1.5) < 0

    def test_inserts_into_gapped_node_shift_little(self):
        # With ~30% gaps, the shift distance to the nearest gap stays tiny
        # (the gapped array's whole point: amortized O(log n) inserts).
        node = make_node(np.arange(0, 100, 2, dtype=np.float64))
        before = node.counters.shifts
        inserts = np.arange(1.0, 99.0, 4.0)  # odd keys, uniform over the space
        for key in inserts:
            node.insert(float(key))
        assert (node.counters.shifts - before) / len(inserts) < 4


class TestExpand:
    def test_expand_grows_by_inverse_density(self):
        node = make_node(np.arange(100, dtype=np.float64))
        old_capacity = node.capacity
        node.expand()
        assert node.capacity >= old_capacity / node.config.density_upper - 1

    def test_expand_preserves_content(self, node_100):
        node, keys = node_100
        node.expand()
        node.check_invariants()
        for key in keys:
            assert node.find_key(float(key)) >= 0

    def test_expand_retrains_model(self, node_100):
        node, _ = node_100
        before = node.counters.retrains
        node.expand()
        assert node.counters.retrains > before


class TestDelete:
    def test_delete_then_absent(self, node_100):
        node, keys = node_100
        node.delete(float(keys[5]))
        assert node.find_key(float(keys[5])) < 0
        node.check_invariants()

    def test_delete_missing_raises(self, node_100):
        node, _ = node_100
        with pytest.raises(KeyNotFoundError):
            node.delete(-12345.0)

    def test_delete_all_leaves_empty_node(self, node_100):
        node, keys = node_100
        for key in keys:
            node.delete(float(key))
        assert node.num_keys == 0
        node.check_invariants()

    def test_delete_contracts_sparse_node(self):
        node = make_node(np.arange(500, dtype=np.float64))
        capacity_before = node.capacity
        for key in range(450):
            node.delete(float(key))
        assert node.capacity < capacity_before
        node.check_invariants()

    def test_reinsert_after_delete(self, node_100):
        node, keys = node_100
        node.delete(float(keys[7]))
        node.insert(float(keys[7]), "back")
        assert node_payload(node, float(keys[7])) == "back"


class TestUpdateAndPayloads:
    def test_update_replaces_payload(self, node_100):
        node, keys = node_100
        node.update(float(keys[3]), "new")
        assert node_payload(node, float(keys[3])) == "new"

    def test_update_missing_raises(self, node_100):
        node, _ = node_100
        with pytest.raises(KeyNotFoundError):
            node.update(-1.0, "x")

    def test_payloads_follow_shifts(self):
        keys = np.arange(0, 40, dtype=np.float64)
        node = make_node(keys)
        for key in keys:
            node.update(float(key), f"p{key}")
        # Force shifting by filling the gaps around a region.
        for key in np.arange(0.1, 20.1, 1.0):
            node.insert(float(key), f"n{key}")
        for key in keys:
            assert node_payload(node, float(key)) == f"p{key}"


class TestPackedRegions:
    def test_detects_packed_runs(self):
        node = make_node(np.arange(20, dtype=np.float64))
        regions = node.fully_packed_regions()
        assert sum(length for _, length in regions) == node.num_keys
        assert node.largest_packed_run() >= 1

    def test_empty_node_has_no_runs(self):
        node = make_node([])
        assert node.fully_packed_regions() == []
        assert node.largest_packed_run() == 0


class TestScan:
    def test_scan_from_returns_sorted_pairs(self, node_100):
        node, keys = node_100
        out = node.scan_from(float(keys[10]), 25)
        assert [k for k, _ in out] == sorted(keys)[10:35]

    def test_scan_skips_gaps(self, node_100):
        node, keys = node_100
        out = node.scan_from(-1e9, len(keys) + 50)
        assert len(out) == len(keys)

    def test_scan_counts_bitmap_words(self, node_100):
        node, keys = node_100
        before = node.counters.bitmap_words_scanned
        node.scan_from(float(keys[0]), 10)
        assert node.counters.bitmap_words_scanned > before
