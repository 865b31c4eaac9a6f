"""Tests for the adaptation policy layer (repro.core.policy).

The two load-bearing properties:

* **policy invariance** — HeuristicPolicy and CostModelPolicy may build
  arbitrarily different *structures*, but the index *contents* (key →
  payload) are identical under any interleaving of inserts, deletes, and
  lookups, batched or scalar;
* **leaf-merge invariants** — a merge never produces a leaf over the
  node-size bound or below the occupancy of either victim, and the leaf
  chain stays sorted, linked, and consistent with the tree.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.adaptive import merge_leaves, split_leaf_sideways
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, pma_armi
from repro.core.errors import KeyNotFoundError
from repro.core.policy import (CostModelPolicy, HeuristicPolicy,
                               NodePressure, PressureEvent, ShardSummary,
                               SMO_NONE, EV_INSERT, EV_READ)
from repro.core.rmi import InnerNode

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

key_lists = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=150, unique=True)

# (op, key) sequences: op 0=insert, 1=delete, 2=lookup.
op_sequences = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 400)),
    min_size=1, max_size=250,
)


def _drive(index, reference, ops):
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


@pytest.mark.parametrize("factory", [ga_armi, pma_armi],
                         ids=["ga-armi", "pma-armi"])
class TestPolicyInvariance:
    @SETTINGS
    @given(initial=key_lists, ops=op_sequences)
    def test_policies_agree_on_contents(self, factory, initial, ops):
        config = dataclasses.replace(
            factory(max_keys_per_node=64), split_on_inserts=True)
        keys = np.array(initial, dtype=np.float64)
        results = []
        for policy in (HeuristicPolicy(), CostModelPolicy()):
            index = AlexIndex.bulk_load(keys, config=config, policy=policy)
            reference = {float(k): None for k in initial}
            _drive(index, reference, ops)
            index.validate()
            results.append((sorted(reference), list(index.items())))
        (ref_a, items_a), (ref_b, items_b) = results
        assert ref_a == ref_b
        assert items_a == items_b

    @SETTINGS
    @given(initial=key_lists, deletes=st.data())
    def test_policies_agree_under_batch_deletes(self, factory, initial,
                                                deletes):
        config = factory(max_keys_per_node=64)
        keys = np.array(initial, dtype=np.float64)
        count = deletes.draw(st.integers(0, len(initial)))
        victims = keys[:count]
        observed = []
        for policy in (HeuristicPolicy(), CostModelPolicy()):
            index = AlexIndex.bulk_load(keys, config=config, policy=policy)
            index.delete_many(victims)
            index.validate()
            observed.append(list(index.keys()))
        assert observed[0] == observed[1]
        assert observed[0] == sorted(set(initial) - set(victims.tolist()))


class TestLeafMergeInvariants:
    def _shrunken_index(self, rng, n=4000, keep=400):
        keys = np.unique(rng.uniform(0, 1e9, n + 500))[:n]
        index = AlexIndex.bulk_load(
            keys, config=ga_armi(max_keys_per_node=128),
            policy=CostModelPolicy())
        victims = rng.permutation(keys)[:n - keep]
        index.delete_many(victims)
        return index, sorted(set(keys.tolist())
                             - set(victims.tolist()))

    @SETTINGS
    @given(seed=st.integers(0, 50))
    def test_merge_respects_bounds_and_chain(self, seed):
        rng = np.random.default_rng(seed)
        index, survivors = self._shrunken_index(rng)
        # validate() checks the chain is sorted, linked, and covers the
        # tree; on top of that: no leaf exceeds the node-size bound, and
        # merging consolidated the shrunken index well above the
        # one-leaf-per-peak-leaf shape.
        index.validate()
        floor = (index.policy.merge_occupancy
                 * index.config.max_keys_per_node)
        sizes = [leaf.num_keys for leaf in index.leaves()]
        assert all(s <= index.config.max_keys_per_node for s in sizes)
        # Any leaf below the merge floor must have no same-parent
        # neighbour it could legally merge with (otherwise the policy
        # would have folded it already).
        for leaf in index.leaves():
            if leaf.num_keys >= floor or index.num_leaves() == 1:
                continue
            parents = [node for node in index.nodes()
                       if isinstance(node, InnerNode)
                       and any(c is leaf for c in node.children)]
            assert parents, "leaf unreachable from the tree"
            parent = parents[0]
            cap = index.policy.max_merged_keys(index.config)
            for sibling in (leaf.prev_leaf, leaf.next_leaf):
                if sibling is None:
                    continue
                if not any(c is sibling for c in parent.children):
                    continue
                assert leaf.num_keys + sibling.num_keys > cap
        assert list(index.keys()) == survivors

    def test_merge_leaves_direct_invariants(self):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.uniform(0, 1e6, 600))[:512]
        index = AlexIndex.bulk_load(keys,
                                    config=ga_armi(max_keys_per_node=128))
        # Thin the index so some adjacent pair fits under the bound.
        index.delete_many(rng.permutation(keys)[:384])
        for leaf in index.leaves():
            sibling = leaf.next_leaf
            if (sibling is None
                    or leaf.num_keys + sibling.num_keys > 128):
                continue
            parent = next(node for node in index.nodes()
                          if isinstance(node, InnerNode)
                          and any(c is leaf for c in node.children))
            if not any(c is sibling for c in parent.children):
                continue
            before = leaf.num_keys + sibling.num_keys
            merged = merge_leaves(leaf, parent, index.config,
                                  index.counters)
            assert merged is not None
            assert merged.num_keys == before
            assert merged.num_keys >= max(leaf.num_keys,
                                          before - leaf.num_keys)
            assert merged.num_keys <= index.config.max_keys_per_node
            index.validate()
            assert index.counters.merges == 1
            return
        raise AssertionError("no mergeable same-parent pair after thinning")

    def test_merge_refuses_oversized_union(self):
        rng = np.random.default_rng(8)
        keys = np.unique(rng.uniform(0, 1e6, 400))[:256]
        index = AlexIndex.bulk_load(keys,
                                    config=ga_armi(max_keys_per_node=96))
        for leaf in index.leaves():
            if leaf.next_leaf is None:
                continue
            if leaf.num_keys + leaf.next_leaf.num_keys > 96:
                parent = next(node for node in index.nodes()
                              if isinstance(node, InnerNode)
                              and any(c is leaf for c in node.children))
                if not any(c is leaf.next_leaf for c in parent.children):
                    continue
                if (leaf.prev_leaf is not None
                        and any(c is leaf.prev_leaf
                                for c in parent.children)
                        and leaf.num_keys + leaf.prev_leaf.num_keys <= 96):
                    continue  # the other side could legally merge
                assert merge_leaves(leaf, parent, index.config,
                                    index.counters) is None
                return
        pytest.skip("no oversized pair in this layout")


class TestSidewaysSplit:
    def test_sideways_split_preserves_contents_and_routing(self):
        rng = np.random.default_rng(11)
        keys = np.unique(rng.uniform(0, 1e6, 3000))[:2500]
        index = AlexIndex.bulk_load(
            keys, config=ga_armi(max_keys_per_node=512),
            policy=CostModelPolicy())  # slot reserve: multi-slot leaves
        for leaf in index.leaves():
            parents = [node for node in index.nodes()
                       if isinstance(node, InnerNode)
                       and sum(c is leaf for c in node.children) >= 2]
            if not parents:
                continue
            result = split_leaf_sideways(leaf, parents[0], index.config,
                                         index.counters)
            if result is None:
                continue
            left, right = result
            assert left.num_keys + right.num_keys > 0
            assert left.max_key() < right.min_key()
            index.validate()  # includes routing min/max back to each leaf
            return
        pytest.skip("no multi-slot leaf to split sideways")

    def test_sideways_needs_two_slots(self):
        keys = np.arange(64, dtype=np.float64)
        index = AlexIndex.bulk_load(keys, config=ga_armi())
        leaf = index.first_leaf()
        assert split_leaf_sideways(leaf, None, index.config,
                                   index.counters) is None


class TestBatchDeletes:
    def test_delete_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        keys = np.unique(rng.uniform(0, 1e9, 3000))[:2500]
        a = AlexIndex.bulk_load(keys, list(range(len(keys))))
        b = AlexIndex.bulk_load(keys, list(range(len(keys))))
        victims = rng.permutation(keys)[:1200]
        a.delete_many(victims)
        for key in victims:
            b.delete(float(key))
        assert list(a.items()) == list(b.items())
        assert len(a) == len(b) == len(keys) - len(victims)
        a.validate()

    def test_delete_many_is_all_or_nothing(self):
        keys = np.arange(100, dtype=np.float64)
        index = AlexIndex.bulk_load(keys)
        with pytest.raises(KeyNotFoundError):
            index.delete_many([5.0, 50.0, 1000.0])
        assert len(index) == 100
        assert index.contains(5.0) and index.contains(50.0)
        with pytest.raises(KeyNotFoundError):
            index.delete_many([7.0, 7.0])  # in-batch duplicate
        assert index.contains(7.0)

    def test_erase_many_skips_absent(self):
        keys = np.arange(100, dtype=np.float64)
        index = AlexIndex.bulk_load(keys)
        removed = index.erase_many([5.0, 5.0, 50.0, 1000.0, -3.0])
        assert removed == 2
        assert len(index) == 98
        assert not index.contains(5.0) and not index.contains(50.0)
        assert index.erase_many([]) == 0

    def test_delete_many_counter_totals_match_scalar(self):
        rng = np.random.default_rng(13)
        keys = np.unique(rng.uniform(0, 1e9, 600))[:500]
        index = AlexIndex.bulk_load(keys)
        before = index.counters.snapshot()
        index.delete_many(rng.permutation(keys)[:200])
        assert index.counters.diff(before).deletes == 200


class TestHeuristicEquivalence:
    """HeuristicPolicy must reproduce the pre-policy decisions exactly."""

    def test_split_condition_matches_legacy(self):
        config = dataclasses.replace(ga_armi(max_keys_per_node=64),
                                     split_on_inserts=True)
        index = AlexIndex.bulk_load(np.arange(64, dtype=np.float64),
                                    config=config)
        leaf = index.first_leaf()
        assert index.policy.choose_insert_smo(leaf, None, index) != SMO_NONE
        small = AlexIndex.bulk_load(np.arange(10, dtype=np.float64),
                                    config=config)
        assert small.policy.choose_insert_smo(
            small.first_leaf(), None, small) == SMO_NONE

    def test_no_delete_smo_ever(self):
        index = AlexIndex.bulk_load(np.arange(256, dtype=np.float64),
                                    config=ga_armi(max_keys_per_node=64))
        for _ in range(250):
            index.delete(float(len(index) - 1))
        leaves_before = index.num_leaves()
        assert index.counters.merges == 0
        assert index.num_leaves() == leaves_before

    def test_shard_policy_matches_legacy_thresholds(self):
        policy = HeuristicPolicy()
        hot = [ShardSummary(900, 100), ShardSummary(50, 100),
               ShardSummary(50, 100)]
        decision = policy.choose_shard_smo(hot, 0.5, 100)
        assert decision is not None and decision.action == "split"
        assert decision.shard == 0
        assert policy.choose_shard_smo(hot, 0.5, 10 ** 9) is None
        cold = [ShardSummary(300, 100)] * 4
        assert policy.choose_shard_smo(cold, 0.5, 100) is None  # no merges


@pytest.mark.parametrize("policy", [HeuristicPolicy(), CostModelPolicy()],
                         ids=["heuristic", "cost-model"])
def test_only_the_root_fanout_is_the_policys(policy):
    """The fanout contract: below the root every inner node gets
    ``config.inner_partitions`` slots, whatever the run's size, because
    the compiled bulk-load plan asks the policy only at the root."""
    for config in (ga_armi(max_keys_per_node=64),
                   dataclasses.replace(pma_armi(max_keys_per_node=1024),
                                       inner_partitions=7)):
        for n in (config.max_keys_per_node + 1, 10 ** 4, 10 ** 8):
            assert policy.initial_fanout(n, 0, config) >= 2
            for depth in (1, 2, 31):
                assert (policy.initial_fanout(n, depth, config)
                        == config.inner_partitions)


class TestCostModelDecisions:
    def test_pressure_ema_tracks_mix(self):
        pressure = NodePressure()
        pressure.observe(PressureEvent(EV_READ, 30, probes=90))
        pressure.observe(PressureEvent(EV_INSERT, 10, shifts=40,
                                       searches=10))
        assert pressure.write_fraction == pytest.approx(0.25)
        assert pressure.probes_per_op == pytest.approx(90 / 40)
        assert pressure.shifts_per_insert == pytest.approx(4.0)
        # batch rebuilds (searches omitted on a write) must not dilute
        # the search-cost denominator
        pressure.observe(PressureEvent(EV_INSERT, 100))
        assert pressure.probes_per_op == pytest.approx(90 / 40)
        before = pressure.ops
        pressure.observe(PressureEvent(EV_READ, NodePressure.WINDOW))
        assert pressure.ops < before + NodePressure.WINDOW  # decayed

    def test_cold_pair_merges(self):
        policy = CostModelPolicy()
        summaries = [ShardSummary(500, 100), ShardSummary(2, 100),
                     ShardSummary(2, 100), ShardSummary(500, 100)]
        decision = policy.choose_shard_smo(summaries, 0.9, 100)
        assert decision is not None
        assert decision.action == "merge"
        assert decision.shard == 1

    def test_retrain_on_drift(self):
        config = ga_armi(max_keys_per_node=4096)
        policy = CostModelPolicy(min_node_ops=8)
        index = AlexIndex.bulk_load(
            np.arange(512, dtype=np.float64), config=config, policy=policy)
        leaf = index.first_leaf()
        # Fresh baseline: cheap searches...
        for _ in range(3):
            policy.record(leaf, PressureEvent(EV_READ, 8, probes=24))
        assert leaf.pressure.baseline > 0
        # ...then the observed cost explodes (a drifted model).
        policy.record(leaf, PressureEvent(EV_READ, 64, probes=64 * 50))
        action = policy.choose_insert_smo(leaf, None, index)
        assert action == "retrain"

    def test_policy_decision_log_is_bounded(self):
        policy = CostModelPolicy()
        for i in range(policy.LOG_LIMIT + 100):
            policy._log("leaf", "merge", i, "x")
            policy.note_applied("merge")
        assert len(policy.decisions) == policy.LOG_LIMIT
        assert policy.smo_counts["merge"] == policy.LOG_LIMIT + 100

    def test_smo_counts_tally_applied_not_chosen(self):
        # A chosen merge that finds no qualifying sibling must not count.
        keys = np.arange(64, dtype=np.float64)
        index = AlexIndex.bulk_load(keys, config=ga_armi(),
                                    policy=CostModelPolicy())
        assert index.num_leaves() == 1  # root leaf: merge can never apply
        index.delete(0.0)
        assert index.policy.smo_counts.get("merge", 0) == 0
        assert index.counters.merges == 0

    def test_merge_headroom_keeps_hysteresis(self):
        policy = CostModelPolicy()
        config = ga_armi(max_keys_per_node=256)
        cap = policy.max_merged_keys(config)
        assert cap < config.max_keys_per_node
        # a merged leaf must sit at least a burst away from the split
        # trigger, and above the merge floor so it cannot re-merge-churn
        assert cap >= policy.merge_occupancy * config.max_keys_per_node
