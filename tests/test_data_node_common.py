"""Tests for DataNode machinery shared by both leaf layouts: gap-filled key
arrays, bitmaps, leaf chaining, size accounting."""

import gc
import weakref

import numpy as np
import pytest

from conftest import prediction_error
from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig, ga_armi
from repro.core.data_node import GAP_SENTINEL, payload_column
from repro.core.errors import KeyNotFoundError
from repro.core.gapped_array import GappedArrayNode
from repro.core.pma import PMANode
from repro.core.stats import Counters


def make_ga(keys, **overrides):
    node = GappedArrayNode(AlexConfig(**overrides), Counters())
    node.build(np.asarray(keys, dtype=np.float64))
    return node


@pytest.fixture(params=[GappedArrayNode, PMANode], ids=["ga", "pma"])
def any_node(request):
    node = request.param(AlexConfig(), Counters())
    rng = np.random.default_rng(21)
    keys = np.sort(np.unique(rng.uniform(0, 500, 120)))
    node.build(keys)
    return node, keys


class TestGapFillInvariant:
    def test_gaps_hold_right_neighbour(self, any_node):
        node, _ = any_node
        for pos in range(node.capacity):
            if not node.occupied[pos]:
                nxt = node._first_occupied_at_or_after(pos)
                expected = node.keys[nxt] if nxt < node.capacity else GAP_SENTINEL
                assert node.keys[pos] == expected

    def test_invariant_survives_mixed_operations(self, any_node):
        node, keys = any_node
        rng = np.random.default_rng(22)
        for _ in range(200):
            op = rng.integers(0, 3)
            if op == 0:
                key = float(rng.uniform(0, 500))
                if node.find_key(key) < 0:
                    node.insert(key)
            elif op == 1 and node.num_keys > 0:
                positions = np.flatnonzero(node.occupied)
                victim = float(node.keys[rng.choice(positions)])
                node.delete(victim)
            else:
                node.scan_from(float(rng.uniform(0, 500)), 5)
        node.check_invariants()

    def test_trailing_gaps_hold_sentinel(self, any_node):
        node, _ = any_node
        last = node._last_occupied_before(node.capacity)
        for pos in range(last + 1, node.capacity):
            assert node.keys[pos] == GAP_SENTINEL


class TestMinMaxKeys:
    def test_min_max(self, any_node):
        node, keys = any_node
        assert node.min_key() == float(keys.min())
        assert node.max_key() == float(keys.max())

    def test_empty_node_raises(self):
        node = make_ga([])
        with pytest.raises(KeyNotFoundError):
            node.min_key()
        with pytest.raises(KeyNotFoundError):
            node.max_key()


class TestExportAndIteration:
    def test_export_sorted_round_trips(self, any_node):
        node, keys = any_node
        out_keys, out_payloads = node.export_sorted()
        assert out_keys.tolist() == keys.tolist()
        assert len(out_payloads) == len(keys)

    def test_iter_items_in_order(self, any_node):
        node, keys = any_node
        got = [k for k, _ in node.iter_items()]
        assert got == keys.tolist()


class TestPayloadIdentity:
    """Builds and rebuild-path gathers store the very payload objects
    they were given; a sequence payload is never unpacked."""

    PAYLOADS = [(1, 2), [3], "s", np.float64(2.5), None, (7,), ()]

    def test_object_column_gathers_keep_sequences_whole(self):
        items = list(self.PAYLOADS)
        column = payload_column(items)
        assert column.dtype == object
        for index in (np.array([0]), np.array([5]), np.array([6, 0]),
                      np.array([], dtype=np.int64),
                      np.array([True] + [False] * 6),
                      np.arange(7)[::-1]):
            got = column[index].tolist()
            want = ([items[i] for i in np.flatnonzero(index)]
                    if index.dtype == bool else [items[i] for i in index])
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want))

    def test_rebuild_paths_store_the_given_objects(self):
        payloads = self.PAYLOADS * 20
        keys = np.arange(len(payloads), dtype=np.float64)
        index = AlexIndex.bulk_load(keys, payloads,
                                    config=ga_armi(max_keys_per_node=64))
        # Batch merge-rebuilds, then batch-delete rebuilds, then exports.
        extra = keys[:40] + 0.5
        index.insert_many(extra, payloads[:40])
        index.delete_many(keys[1::3])
        expected = {float(k): p for k, p in zip(keys, payloads)}
        expected.update({float(k): p for k, p in zip(extra, payloads)})
        for k in keys[1::3]:
            del expected[float(k)]
        stored = dict(index.items())
        assert stored.keys() == expected.keys()
        assert all(stored[k] is expected[k] for k in expected)
        for leaf in index.leaves():
            leaf_keys, leaf_payloads = leaf.export_sorted()
            assert all(p is expected[k]
                       for k, p in zip(leaf_keys.tolist(), leaf_payloads))


class TestLeafChainScan:
    def test_scan_crosses_chained_leaves(self):
        left = make_ga(np.arange(0, 50, dtype=np.float64))
        right = make_ga(np.arange(50, 100, dtype=np.float64))
        left.next_leaf = right
        right.prev_leaf = left
        out = left.scan_from(40.0, 20)
        assert [k for k, _ in out] == list(np.arange(40.0, 60.0))

    def test_dropped_index_frees_its_leaves_at_once(self):
        """The chain holds each previous leaf weakly, so dropping an
        index frees every leaf without the cycle collector, after the
        splits and expansions that re-splice the chain too."""
        index = AlexIndex.bulk_load(
            np.arange(2000.0), (np.arange(2000.0) * 2).tolist(),
            config=ga_armi(max_keys_per_node=64, split_on_inserts=True))
        for key in np.arange(2000.0, 2600.0):
            index.insert(float(key), 1.0)
        index.delete_many(np.arange(0.0, 1000.0))
        assert index.counters.splits > 0
        leaves = list(index.leaves())
        assert all(b.prev_leaf is a for a, b in zip(leaves, leaves[1:]))
        refs = [weakref.ref(leaf) for leaf in leaves]
        del leaves
        gc.disable()
        try:
            del index
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_scan_limit_zero(self, any_node):
        node, _ = any_node
        assert node.scan_from(0.0, 0) == []

    def test_scan_past_end_returns_remainder(self, any_node):
        node, keys = any_node
        out = node.scan_from(float(keys[-5]), 100)
        assert len(out) == 5


class TestSizeAccounting:
    def test_data_size_includes_gaps_and_bitmap(self, any_node):
        node, _ = any_node
        per_slot = 8 + node.config.payload_size
        expected = node.capacity * per_slot + (node.capacity + 7) // 8
        assert node.data_size_bytes() == expected

    def test_model_size_is_16_bytes_when_present(self, any_node):
        node, _ = any_node
        assert node.model_size_bytes() == 16

    def test_cold_node_has_no_model_size(self):
        node = make_ga([1.0, 2.0])
        assert node.model is None
        assert node.model_size_bytes() == 0

    def test_payload_size_config_respected(self):
        node = make_ga(np.arange(10, dtype=np.float64), payload_size=80)
        assert node.data_size_bytes() == node.capacity * 88 + (node.capacity + 7) // 8


class TestPredictionError:
    def test_zero_for_exact_placement(self):
        node = make_ga(np.arange(64, dtype=np.float64))
        errors = [prediction_error(node, float(k)) for k in range(64)]
        assert min(errors) == 0

    def test_raises_for_missing_key(self, any_node):
        node, _ = any_node
        with pytest.raises(KeyNotFoundError):
            prediction_error(node, -1e9)


class TestCheckInvariantsCatchesCorruption:
    def test_detects_unsorted_keys(self, any_node):
        node, _ = any_node
        positions = np.flatnonzero(node.occupied)
        if len(positions) >= 2:
            node.keys[positions[0]], node.keys[positions[1]] = (
                node.keys[positions[1]], node.keys[positions[0]])
            with pytest.raises(AssertionError):
                node.check_invariants()

    def test_detects_bitmap_mismatch(self, any_node):
        node, _ = any_node
        node.num_keys += 1
        with pytest.raises(AssertionError):
            node.check_invariants()

    def test_detects_bad_gap_fill(self, any_node):
        node, _ = any_node
        gaps = np.flatnonzero(~node.occupied)
        interior = [g for g in gaps
                    if node._first_occupied_at_or_after(g) < node.capacity]
        if interior:
            node.keys[interior[0]] = node.keys[interior[0]] - 0.5
            with pytest.raises(AssertionError):
                node.check_invariants()
