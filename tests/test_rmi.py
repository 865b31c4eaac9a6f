"""Unit tests for repro.core.rmi (inner nodes, static RMI builder)."""

import numpy as np
import pytest

from repro.core.config import AlexConfig, STATIC_RMI, PACKED_MEMORY_ARRAY
from repro.core.kernels import available_backends, get_kernels
from repro.core.linear_model import LinearModel
from repro.core.pma import PMANode
from repro.core.rmi import (
    InnerNode,
    build_static_rmi,
    link_leaves,
    make_data_node,
    partition_by_model,
)
from repro.core.stats import Counters


def build(keys, num_models=8, **overrides):
    config = AlexConfig(rmi_mode=STATIC_RMI, num_models=num_models, **overrides)
    counters = Counters()
    keys = np.asarray(keys, dtype=np.float64)
    root, leaves = build_static_rmi(keys, [None] * len(keys), config, counters)
    return root, leaves, counters


@pytest.mark.parametrize("backend", available_backends())
class TestPartitionByModel:
    def test_bounds_cover_all_keys(self, backend):
        keys = np.sort(np.random.default_rng(0).uniform(0, 100, 200))
        model = LinearModel.train_cdf(keys, 10)
        bounds = partition_by_model(keys, model, 10, get_kernels(backend))
        assert bounds[0] == 0
        assert bounds[-1] == len(keys)
        assert (np.diff(bounds) >= 0).all()

    def test_assignment_matches_routing(self, backend):
        keys = np.sort(np.random.default_rng(1).uniform(0, 100, 300))
        model = LinearModel.train_cdf(keys, 16)
        bounds = partition_by_model(keys, model, 16, get_kernels(backend))
        for slot in range(16):
            for i in range(int(bounds[slot]), int(bounds[slot + 1])):
                assert model.predict_pos(float(keys[i]), 16) == slot

    def test_empty_keys(self, backend):
        bounds = partition_by_model(np.empty(0), LinearModel(), 4,
                                    get_kernels(backend))
        assert bounds.tolist() == [0, 0, 0, 0, 0]


class TestInnerNode:
    def test_route_slot_uses_model(self):
        counters = Counters()
        model = LinearModel.train_endpoints(0.0, 100.0, 4)
        node = InnerNode(model, ["a", "b", "c", "d"], counters)
        assert node.children[node.route_slot(10.0)] == "a"
        assert node.children[node.route_slot(90.0)] == "d"
        assert counters.model_inferences == 2

    def test_child_for_counts_pointer_follow(self):
        counters = Counters()
        model = LinearModel.train_endpoints(0.0, 10.0, 2)
        node = InnerNode(model, ["x", "y"], counters)
        node.child_for(1.0)
        assert counters.pointer_follows == 1

    def test_replace_child_redirects_all_slots(self):
        node = InnerNode(LinearModel(), ["a", "a", "b"], Counters())
        node.replace_child("a", "z")
        assert node.children == ["z", "z", "b"]

    def test_distinct_children_collapses_runs(self):
        node = InnerNode(LinearModel(), ["a", "a", "b", "b", "b", "c"],
                         Counters())
        assert node.distinct_children() == ["a", "b", "c"]

    def test_size_accounts_model_pointers_metadata(self):
        node = InnerNode(LinearModel(), [None] * 10, Counters())
        assert node.size_bytes() == 16 + 10 * 8 + 16


class TestBuildStaticRmi:
    def test_all_keys_routable(self):
        rng = np.random.default_rng(2)
        keys = np.sort(np.unique(rng.uniform(0, 1000, 500)))
        root, leaves, _ = build(keys, num_models=16)
        for key in keys[::7]:
            leaf = root.child_for(float(key))
            assert leaf.find_key(float(key)) >= 0

    def test_one_distinct_leaf_per_model(self):
        keys = np.sort(np.unique(np.random.default_rng(3).uniform(0, 100, 300)))
        root, leaves, _ = build(keys, num_models=8)
        assert len(leaves) == 8
        assert root.num_slots == 8

    def test_leaves_linked_in_key_order(self):
        keys = np.sort(np.unique(np.random.default_rng(4).uniform(0, 100, 400)))
        _, leaves, _ = build(keys, num_models=8)
        chained = []
        leaf = leaves[0]
        while leaf is not None:
            chained.extend(k for k, _ in leaf.iter_items())
            leaf = leaf.next_leaf
        assert chained == keys.tolist()

    def test_skewed_keys_waste_models(self):
        # Paper Section 3.4: a skewed distribution leaves most static-RMI
        # leaves nearly empty (the "wasted models" problem).
        rng = np.random.default_rng(5)
        keys = np.sort(np.unique(rng.lognormal(0, 2, 2000)))
        _, leaves, _ = build(keys, num_models=32)
        sizes = np.array([leaf.num_keys for leaf in leaves])
        assert (sizes < len(keys) / 64).sum() > len(leaves) / 4

    def test_empty_keys_yield_single_leaf(self):
        root, leaves, _ = build([], num_models=8)
        assert len(leaves) == 1
        assert leaves[0].num_keys == 0

    def test_pma_layout_honoured(self):
        keys = np.arange(200, dtype=np.float64)
        config = AlexConfig(rmi_mode=STATIC_RMI,
                            node_layout=PACKED_MEMORY_ARRAY, num_models=4)
        root, leaves = build_static_rmi(keys, [None] * 200, config, Counters())
        assert all(isinstance(leaf, PMANode) for leaf in leaves)


class TestLinkLeaves:
    def test_links_both_directions(self):
        config = AlexConfig()
        counters = Counters()
        leaves = []
        for start in range(0, 30, 10):
            leaf = make_data_node(config, counters)
            leaf.build(np.arange(start, start + 10, dtype=np.float64))
            leaves.append(leaf)
        link_leaves(leaves)
        assert leaves[0].prev_leaf is None
        assert leaves[0].next_leaf is leaves[1]
        assert leaves[2].prev_leaf is leaves[1]
        assert leaves[2].next_leaf is None

    def test_single_leaf_unlinked(self):
        leaf = make_data_node(AlexConfig(), Counters())
        leaf.build(np.arange(3, dtype=np.float64))
        link_leaves([leaf])
        assert leaf.next_leaf is None and leaf.prev_leaf is None
