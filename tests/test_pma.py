"""Unit tests for the Packed Memory Array leaf node (paper Section 3.3.2)."""

import numpy as np
import pytest

from conftest import node_payload, prediction_error
from repro.core.config import AlexConfig, PACKED_MEMORY_ARRAY, STATIC_RMI
from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.core.pma import PMANode, next_power_of_two
from repro.core.stats import Counters


def make_node(keys=None, **config_overrides):
    config = AlexConfig(node_layout=PACKED_MEMORY_ARRAY, rmi_mode=STATIC_RMI,
                        **config_overrides)
    node = PMANode(config, Counters())
    node.build(np.asarray(keys if keys is not None else [], dtype=np.float64))
    return node


class TestNextPowerOfTwo:
    @pytest.mark.parametrize("n,want", [(0, 1), (1, 1), (2, 2), (3, 4),
                                        (4, 4), (5, 8), (1000, 1024),
                                        (1024, 1024), (1025, 2048)])
    def test_values(self, n, want):
        assert next_power_of_two(n) == want


class TestGeometry:
    def test_capacity_is_power_of_two(self):
        for n in (0, 1, 7, 100, 500):
            node = make_node(np.arange(n, dtype=np.float64))
            assert node.capacity & (node.capacity - 1) == 0

    def test_segment_size_divides_capacity(self):
        node = make_node(np.arange(300, dtype=np.float64))
        assert node.capacity % node.segment_size == 0
        node.check_pma_invariants()

    def test_density_bounds_decrease_toward_root(self):
        node = make_node(np.arange(1000, dtype=np.float64))
        bounds = [node.upper_density(level)
                  for level in range(node.tree_height + 1)]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[0] == pytest.approx(node.config.pma_segment_density)
        assert bounds[-1] == pytest.approx(node.config.pma_root_density)

    def test_window_bounds_are_aligned(self):
        node = make_node(np.arange(500, dtype=np.float64))
        seg = node.segment_size
        for pos in (0, 1, seg - 1, seg, node.capacity - 1):
            lo, hi = node.window_bounds(pos, 0)
            assert lo % seg == 0
            assert hi - lo == seg
            assert lo <= pos < hi
        lo, hi = node.window_bounds(0, node.tree_height)
        assert (lo, hi) == (0, node.capacity)


class TestBuildAndLookup:
    def test_all_keys_findable(self):
        rng = np.random.default_rng(11)
        keys = np.sort(np.unique(rng.uniform(0, 1000, 200)))
        node = make_node(keys)
        for key in keys:
            assert node.find_key(float(key)) >= 0
        node.check_invariants()

    def test_empty_build(self):
        node = make_node([])
        assert node.num_keys == 0
        assert node.find_key(3.0) < 0


class TestInsert:
    def test_insert_lookup_roundtrip(self):
        node = make_node(np.arange(0, 100, 2, dtype=np.float64))
        node.insert(1.5, "x")
        assert node_payload(node, 1.5) == "x"
        node.check_invariants()
        node.check_pma_invariants()

    def test_duplicate_raises(self):
        node = make_node([1.0, 2.0, 3.0] * 1)
        with pytest.raises(DuplicateKeyError):
            node.insert(2.0)

    def test_many_random_inserts(self):
        rng = np.random.default_rng(12)
        keys = np.unique(rng.uniform(0, 1000, 600))
        node = make_node(keys[:64])
        for key in keys[64:]:
            node.insert(float(key))
        node.check_invariants()
        node.check_pma_invariants()
        assert node.num_keys == len(keys)

    def test_sequential_inserts_avoid_quadratic_shifts(self):
        # The PMA's selling point: segment-local shifts plus rebalances keep
        # the per-insert shift count low even under append-only inserts.
        node = make_node(np.arange(64, dtype=np.float64))
        before = node.counters.shifts
        count = 500
        for key in np.arange(64, 64 + count, dtype=np.float64):
            node.insert(float(key))
        shifts_per_insert = (node.counters.shifts - before) / count
        assert shifts_per_insert < node.segment_size

    def test_root_density_respected(self):
        node = make_node(np.arange(32, dtype=np.float64))
        for key in np.arange(32, 600, dtype=np.float64):
            node.insert(float(key))
            assert node.num_keys <= node.config.pma_segment_density * node.capacity + 1

    def test_rebalances_counted(self):
        node = make_node(np.arange(64, dtype=np.float64))
        for key in np.arange(64.1, 120.1, 0.37):
            node.insert(float(key))
        assert node.counters.rebalance_moves > 0


class TestExpand:
    def test_expand_doubles_capacity(self):
        node = make_node(np.arange(100, dtype=np.float64))
        old = node.capacity
        node.expand()
        assert node.capacity == old * 2

    def test_expand_is_model_based(self):
        # After an expansion, prediction errors should be small (ALEX's
        # deviation from the standard uniform-redistribution PMA).
        node = make_node(np.arange(0, 2000, 2, dtype=np.float64))
        node.expand()
        errors = [prediction_error(node, float(k))
                  for k in range(0, 2000, 40)]
        assert np.mean(errors) < 4

    def test_uniformity_drifts_with_rebalances(self):
        rng = np.random.default_rng(13)
        keys = np.unique(rng.uniform(0, 1000, 128))
        node = make_node(keys)
        start = node.gap_uniformity()
        for key in np.unique(rng.uniform(0, 1000, 2000)):
            if node.find_key(float(key)) < 0:
                node.insert(float(key))
        # After many inserts + rebalances the spacing stays bounded (no
        # fully-packed blowup): the coefficient of variation is modest.
        assert node.gap_uniformity() < max(2.0, start + 2.0)


class TestDelete:
    def test_delete_roundtrip(self):
        keys = np.arange(0, 100, dtype=np.float64)
        node = make_node(keys)
        node.delete(50.0)
        assert node.find_key(50.0) < 0
        node.check_invariants()

    def test_delete_missing_raises(self):
        node = make_node(np.arange(10, dtype=np.float64))
        with pytest.raises(KeyNotFoundError):
            node.delete(99.0)

    def test_delete_to_empty_and_reuse(self):
        keys = np.arange(0, 60, dtype=np.float64)
        node = make_node(keys)
        for key in keys:
            node.delete(float(key))
        assert node.num_keys == 0
        node.insert(5.0, "fresh")
        assert node_payload(node, 5.0) == "fresh"


class TestScan:
    def test_scan_matches_sorted_keys(self):
        rng = np.random.default_rng(14)
        keys = np.sort(np.unique(rng.uniform(0, 100, 80)))
        node = make_node(keys)
        out = node.scan_from(float(keys[20]), 30)
        assert [k for k, _ in out] == keys[20:50].tolist()
