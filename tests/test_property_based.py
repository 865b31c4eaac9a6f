"""Property-based tests (hypothesis) on core data structures and invariants.

Each stateful-style test drives a structure through a random operation
sequence and checks it against a reference model (a Python dict / sorted
list), then asserts the structure's own invariants.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import node_payload
from repro.baselines.bptree import BPlusTree
from repro.baselines.learned_index import LearnedIndex
from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig, ga_armi, ga_srmi, pma_armi
from repro.core.cursor import Cursor
from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.core.gapped_array import GappedArrayNode
from repro.core.pma import PMANode
from repro.core.search import exponential_search
from repro.core.stats import Counters

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

finite_keys = st.floats(min_value=-1e9, max_value=1e9,
                        allow_nan=False, allow_infinity=False)

key_lists = st.lists(finite_keys, min_size=0, max_size=120, unique=True)

# (op, key) sequences: op 0=insert, 1=delete, 2=lookup.
op_sequences = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 400)),
    min_size=1, max_size=250,
)


class TestExponentialSearchProperties:
    @SETTINGS
    @given(keys=key_lists, target=finite_keys, hint_frac=st.floats(0, 1))
    def test_matches_searchsorted_for_any_hint(self, keys, target, hint_frac):
        arr = np.sort(np.array(keys, dtype=np.float64))
        n = len(arr)
        hint = int(hint_frac * max(0, n - 1))
        got = exponential_search(arr, target, hint, 0, n)
        want = int(np.searchsorted(arr, target, side="left"))
        assert got == want


def _run_node_ops(node_cls, ops, config=None):
    config = config or AlexConfig()
    node = node_cls(config, Counters())
    node.build(np.empty(0))
    reference = {}
    for op, raw in ops:
        key = float(raw) * 1.5
        if op == 0:
            if key in reference:
                with pytest.raises(DuplicateKeyError):
                    node.insert(key, raw)
            else:
                node.insert(key, raw)
                reference[key] = raw
        elif op == 1:
            if key in reference:
                node.delete(key)
                del reference[key]
            else:
                with pytest.raises(KeyNotFoundError):
                    node.delete(key)
        else:
            if key in reference:
                assert node_payload(node, key) == reference[key]
            else:
                assert node.find_key(key) < 0
    return node, reference


class TestGappedArrayProperties:
    @SETTINGS
    @given(ops=op_sequences)
    def test_behaves_like_dict(self, ops):
        node, reference = _run_node_ops(GappedArrayNode, ops)
        node.check_invariants()
        assert node.num_keys == len(reference)
        assert [k for k, _ in node.iter_items()] == sorted(reference)

    @SETTINGS
    @given(keys=key_lists)
    def test_build_then_scan_returns_sorted_keys(self, keys):
        node = GappedArrayNode(AlexConfig(), Counters())
        node.build(np.sort(np.array(keys, dtype=np.float64)))
        node.check_invariants()
        out = [k for k, _ in node.scan_from(-np.inf, len(keys) + 10)]
        assert out == sorted(keys)

    @SETTINGS
    @given(keys=key_lists, d=st.floats(0.5, 0.95))
    def test_density_never_exceeds_bound(self, keys, d):
        config = AlexConfig(density_upper=d)
        node = GappedArrayNode(config, Counters())
        node.build(np.empty(0))
        for key in keys:
            node.insert(float(key))
            assert node.num_keys <= d * node.capacity + 1


class TestPMAProperties:
    @SETTINGS
    @given(ops=op_sequences)
    def test_behaves_like_dict(self, ops):
        node, reference = _run_node_ops(PMANode, ops)
        node.check_invariants()
        node.check_pma_invariants()
        assert node.num_keys == len(reference)
        assert [k for k, _ in node.iter_items()] == sorted(reference)

    @SETTINGS
    @given(keys=key_lists)
    def test_capacity_always_power_of_two(self, keys):
        node = PMANode(AlexConfig(), Counters())
        node.build(np.empty(0))
        for key in keys:
            node.insert(float(key))
            assert node.capacity & (node.capacity - 1) == 0


@pytest.mark.parametrize("factory", [ga_srmi, ga_armi, pma_armi],
                         ids=["ga-srmi", "ga-armi", "pma-armi"])
class TestAlexIndexProperties:
    @SETTINGS
    @given(initial=key_lists, ops=op_sequences)
    def test_behaves_like_dict(self, factory, initial, ops):
        config = dataclasses.replace(
            factory(max_keys_per_node=64, num_models=4),
            split_on_inserts=True)
        index = AlexIndex.bulk_load(np.array(initial, dtype=np.float64),
                                    config=config)
        reference = {float(k): None for k in initial}
        for op, raw in ops:
            key = float(raw) * 1.5
            if op == 0 and key not in reference:
                index.insert(key, raw)
                reference[key] = raw
            elif op == 1 and key in reference:
                index.delete(key)
                del reference[key]
            elif op == 2:
                if key in reference:
                    assert index.lookup(key) == reference[key]
                else:
                    assert not index.contains(key)
        index.validate()
        assert list(index.keys()) == sorted(reference)

    @SETTINGS
    @given(initial=key_lists, start=finite_keys,
           limit=st.integers(0, 50))
    def test_range_scan_matches_sorted_reference(self, factory, initial,
                                                 start, limit):
        index = AlexIndex.bulk_load(np.array(initial, dtype=np.float64),
                                    config=factory(max_keys_per_node=64,
                                                   num_models=4))
        got = [k for k, _ in index.range_scan(start, limit)]
        want = [k for k in sorted(initial) if k >= start][:limit]
        assert got == want


class TestBPlusTreeProperties:
    @SETTINGS
    @given(ops=op_sequences)
    def test_behaves_like_dict(self, ops):
        tree = BPlusTree(page_size=128)
        reference = {}
        for op, raw in ops:
            key = float(raw) * 1.5
            if op == 0 and key not in reference:
                tree.insert(key, raw)
                reference[key] = raw
            elif op == 1 and key in reference:
                tree.delete(key)
                del reference[key]
            elif op == 2:
                if key in reference:
                    assert tree.lookup(key) == reference[key]
                else:
                    assert not tree.contains(key)
        tree.validate()
        assert [k for k, _ in tree.items()] == sorted(reference)

    @SETTINGS
    @given(keys=key_lists, page_size=st.sampled_from([128, 256, 1024]))
    def test_bulk_load_equivalent_to_inserts(self, keys, page_size):
        bulk = BPlusTree.bulk_load(np.array(keys, dtype=np.float64),
                                   page_size=page_size)
        incremental = BPlusTree(page_size=page_size)
        for key in keys:
            incremental.insert(float(key))
        assert ([k for k, _ in bulk.items()]
                == [k for k, _ in incremental.items()])
        bulk.validate()
        incremental.validate()


class TestLearnedIndexProperties:
    @SETTINGS
    @given(initial=key_lists, inserts=key_lists)
    def test_inserts_preserve_lookup_correctness(self, initial, inserts):
        index = LearnedIndex.bulk_load(np.array(initial, dtype=np.float64),
                                       num_models=4, retrain_fraction=0.2)
        present = set(initial)
        for key in inserts:
            if key in present:
                continue
            index.insert(float(key))
            present.add(key)
        for key in sorted(present)[::5]:
            assert index.contains(float(key))
        assert [k for k, _ in index.items()] == sorted(present)


class TestBulkInsertProperties:
    @SETTINGS
    @given(initial=key_lists, batch=key_lists)
    def test_equivalent_to_sequential_inserts(self, initial, batch):
        batch = [k for k in batch if k not in set(initial)]
        config = ga_armi(max_keys_per_node=64, num_models=4)
        bulk = AlexIndex.bulk_load(np.array(initial, dtype=np.float64),
                                   config=config)
        bulk.insert_many(np.array(batch, dtype=np.float64))
        loop = AlexIndex.bulk_load(np.array(initial, dtype=np.float64),
                                   config=config)
        for key in batch:
            loop.insert(float(key))
        bulk.validate()
        assert list(bulk.keys()) == list(loop.keys())


class TestCursorProperties:
    @SETTINGS
    @given(keys=key_lists, start=finite_keys)
    def test_cursor_scan_equals_range_scan(self, keys, start):
        index = AlexIndex.bulk_load(np.array(keys, dtype=np.float64))
        cursor = Cursor(index, start_key=start)
        via_cursor = [k for k, _ in cursor.take(25)]
        via_scan = [k for k, _ in index.range_scan(start, 25)]
        assert via_cursor == via_scan

    @SETTINGS
    @given(keys=st.lists(finite_keys, min_size=1, max_size=60, unique=True))
    def test_forward_then_backward_is_identity(self, keys):
        index = AlexIndex.bulk_load(np.array(keys, dtype=np.float64))
        cursor = Cursor(index)
        forward = []
        while cursor.valid():
            forward.append(cursor.key())
            if not cursor.next():
                break
        cursor.seek_last()
        backward = []
        while cursor.valid():
            backward.append(cursor.key())
            if not cursor.prev():
                break
        assert forward == backward[::-1] == sorted(keys)
