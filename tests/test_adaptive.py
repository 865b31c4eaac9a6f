"""Unit tests for repro.core.adaptive (Algorithm 4 init + node splitting)."""

import numpy as np

from repro.core.adaptive import build_adaptive_rmi, split_leaf
from repro.core.config import AlexConfig, ADAPTIVE_RMI
from repro.core.data_node import DataNode
from repro.core.rmi import InnerNode
from repro.core.stats import Counters


def build(keys, max_keys=64, partitions=8, **overrides):
    config = AlexConfig(rmi_mode=ADAPTIVE_RMI, max_keys_per_node=max_keys,
                        inner_partitions=partitions, **overrides)
    counters = Counters()
    keys = np.asarray(keys, dtype=np.float64)
    root, leaves = build_adaptive_rmi(keys, [None] * len(keys), config,
                                      counters)
    return root, leaves, counters, config


def route(root, key):
    node = root
    while isinstance(node, InnerNode):
        node = node.children[node.route_slot(key)]
    return node


class TestAdaptiveInitialization:
    def test_small_input_becomes_single_leaf(self):
        root, leaves, _, _ = build(np.arange(32, dtype=np.float64), max_keys=64)
        assert isinstance(root, DataNode)
        assert len(leaves) == 1

    def test_leaf_bound_respected_on_uniform_keys(self):
        root, leaves, _, _ = build(np.arange(2000, dtype=np.float64),
                                   max_keys=128)
        assert all(leaf.num_keys <= 128 for leaf in leaves)

    def test_all_keys_routable(self):
        rng = np.random.default_rng(6)
        keys = np.sort(np.unique(rng.lognormal(0, 2, 3000)))
        root, _, _, _ = build(keys, max_keys=128)
        for key in keys[::41]:
            assert route(root, float(key)).find_key(float(key)) >= 0

    def test_skew_grows_depth(self):
        # Heavily skewed keys force recursion into deeper inner nodes.
        rng = np.random.default_rng(7)
        keys = np.sort(np.unique(rng.lognormal(0, 3, 4000)))

        def depth(node):
            if not isinstance(node, InnerNode):
                return 0
            return 1 + max(depth(child) for child in node.distinct_children())

        root, _, _, _ = build(keys, max_keys=128, partitions=4)
        assert depth(root) >= 2

    def test_merging_avoids_wasted_leaves(self):
        # Adaptive init merges near-empty partitions (Fig. 12's claim:
        # more consistent leaf sizes, fewer wasted leaves than static RMI).
        rng = np.random.default_rng(8)
        keys = np.sort(np.unique(rng.lognormal(0, 2, 3000)))
        _, leaves, _, _ = build(keys, max_keys=128)
        sizes = np.array([leaf.num_keys for leaf in leaves])
        assert (sizes == 0).mean() < 0.2

    def test_leaves_chained_in_key_order(self):
        rng = np.random.default_rng(9)
        keys = np.sort(np.unique(rng.uniform(0, 1e6, 2500)))
        root, leaves, _, _ = build(keys, max_keys=100)
        collected = []
        leaf = leaves[0]
        while leaf is not None:
            collected.extend(k for k, _ in leaf.iter_items())
            leaf = leaf.next_leaf
        assert collected == keys.tolist()

    def test_empty_input(self):
        root, leaves, _, _ = build([], max_keys=64)
        assert len(leaves) == 1
        assert leaves[0].num_keys == 0

    def test_near_identical_keys_degrade_to_oversized_leaf(self):
        # When the model cannot separate keys, Algorithm 4 must not recurse
        # forever; it accepts a leaf over the bound.
        keys = 1.0 + np.arange(500, dtype=np.float64) * 1e-12
        root, leaves, _, _ = build(keys, max_keys=64)
        assert sum(leaf.num_keys for leaf in leaves) == 500


class TestSplitLeaf:
    def _leaf_with_parent(self, n=300, fanout=4):
        config = AlexConfig(rmi_mode=ADAPTIVE_RMI, max_keys_per_node=1024,
                            split_fanout=fanout)
        counters = Counters()
        keys = np.sort(np.unique(np.random.default_rng(10).uniform(0, 1000, n)))
        root, leaves = build_adaptive_rmi(keys, [None] * len(keys), config,
                                          counters)
        assert isinstance(root, DataNode)  # single leaf at this size
        parent = InnerNode(
            root.model.copy() if root.model else None, [root], counters)
        return root, parent, config, counters, keys

    def test_split_creates_fanout_children(self):
        leaf, parent, config, counters, keys = self._leaf_with_parent()
        inner = split_leaf(leaf, parent, config, counters)
        assert inner is not None
        assert len(inner.children) == config.split_fanout
        assert counters.splits == 1

    def test_split_preserves_all_keys(self):
        leaf, parent, config, counters, keys = self._leaf_with_parent()
        inner = split_leaf(leaf, parent, config, counters)
        total = sum(child.num_keys for child in inner.distinct_children())
        assert total == len(keys)

    def test_split_replaces_child_in_parent(self):
        leaf, parent, config, counters, _ = self._leaf_with_parent()
        inner = split_leaf(leaf, parent, config, counters)
        assert parent.children[0] is inner

    def test_split_splices_leaf_chain(self):
        leaf, parent, config, counters, keys = self._leaf_with_parent()
        left_neighbour = DataNode.__new__(DataNode)  # sentinel objects
        right_neighbour = DataNode.__new__(DataNode)
        left_neighbour.next_leaf = leaf
        right_neighbour.prev_leaf = leaf
        leaf.prev_leaf = left_neighbour
        leaf.next_leaf = right_neighbour
        inner = split_leaf(leaf, parent, config, counters)
        children = inner.distinct_children()
        assert left_neighbour.next_leaf is children[0]
        assert children[0].prev_leaf is left_neighbour
        assert children[-1].next_leaf is right_neighbour
        assert right_neighbour.prev_leaf is children[-1]

    def test_split_routes_by_original_model(self):
        leaf, parent, config, counters, keys = self._leaf_with_parent()
        inner = split_leaf(leaf, parent, config, counters)
        for key in keys[::11]:
            child = inner.children[inner.route_slot(float(key))]
            assert child.find_key(float(key)) >= 0

    def test_degenerate_split_returns_none(self):
        # A stale model (trained before a distribution shift) can route
        # every key to one child; the caller must keep the oversized leaf.
        from repro.core.linear_model import LinearModel
        from repro.core.rmi import make_data_node

        config = AlexConfig(rmi_mode=ADAPTIVE_RMI)
        counters = Counters()
        keys = np.linspace(0.0, 1.0, 100)
        leaf = make_data_node(config, counters)
        leaf.build(keys)
        # Pretend the model was trained on keys spanning [0, 1000]: every
        # current key now predicts slot 0 after rescaling to the fanout.
        leaf.model = LinearModel(slope=leaf.capacity / 1000.0, intercept=0.0)
        assert split_leaf(leaf, None, config, counters) is None
