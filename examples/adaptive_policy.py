"""The adaptation policy engine: a walkthrough of ``repro.core.policy``.

Every structural decision in the system — leaf expand/contract, split
sideways, split down, catastrophic retrain, leaf merge, shard split and
shard merge — routes through one pluggable
:class:`~repro.core.policy.AdaptationPolicy` object (paper Section 3.4).
This walkthrough:

1. replays a *grow-then-shrink* trace under the compatibility
   :class:`~repro.core.policy.HeuristicPolicy` (fixed thresholds, no
   delete-side SMOs) and under the paper-faithful
   :class:`~repro.core.policy.CostModelPolicy` (per-node EMA pressure
   counters + expected-cost minimization), showing the cost policy's
   structure shrinking with the data while the heuristic keeps its peak
   shape forever;
2. prints the cost policy's decision log — which SMO fired where, and the
   expected-cost reasoning behind it;
3. runs the serving tier both ways: a hotspot splits a shard, the hotspot
   moves on, and the cost policy merges the now-cold pair back together.

Run: ``python examples/adaptive_policy.py``
"""

import numpy as np

from repro import CostModelPolicy, HeuristicPolicy, ShardedAlexIndex, ga_armi
from repro.workloads.adaptation import run_adaptation_scenario


def leaf_level_comparison():
    print("=" * 70)
    print("1. grow-then-shrink under both policies")
    print("=" * 70)
    results = {}
    for name, factory in (("heuristic", HeuristicPolicy),
                          ("cost-model", CostModelPolicy)):
        policy = factory()
        result = run_adaptation_scenario(policy, "grow-shrink",
                                         num_keys=10_000, num_ops=10_000,
                                         seed=1)
        results[name] = (policy, result)
        smo = result["smo_counts"]
        print(f"\n{name}:")
        print(f"  simulated throughput  {result['sim_mops']:.2f} Mops/s")
        print(f"  final structure       {result['leaves']} leaves, "
              f"depth {result['depth']}")
        print(f"  space                 index {result['index_bytes']:,} B, "
              f"data {result['data_bytes']:,} B")
        print(f"  SMOs                  expand={smo.get('expand', 0)} "
              f"sideways={smo.get('split_sideways', 0)} "
              f"down={smo.get('split_down', 0)} "
              f"retrain={smo.get('retrain', 0)} "
              f"merge={smo.get('merge', 0)}")
    heur = results["heuristic"][1]
    cost = results["cost-model"][1]
    print(f"\nBoth end with {heur['final_keys']:,} keys, but the heuristic "
          f"keeps {heur['leaves']} leaves from the peak while the cost "
          f"model merges down to {cost['leaves']} "
          f"({heur['index_bytes'] / cost['index_bytes']:.1f}x less index "
          f"structure).")
    return results["cost-model"][0]


def decision_log(policy):
    print()
    print("=" * 70)
    print("2. the cost policy's decision log (python -m repro adapt)")
    print("=" * 70)
    tail = list(policy.decisions)[-8:]
    for decision in tail:
        print(f"  [{decision.site}] {decision.action:15s} "
              f"size={decision.size:6d}  {decision.reason}")


def serving_tier():
    print()
    print("=" * 70)
    print("3. serving tier: hot-shard split, then cold-shard merge")
    print("=" * 70)
    rng = np.random.default_rng(0)
    keys = np.unique(rng.lognormal(0, 2, 60_000) * 1e6)[:50_000]
    service = ShardedAlexIndex.bulk_load(keys, num_shards=4,
                                         config=ga_armi(),
                                         policy=CostModelPolicy())
    sorted_keys = np.sort(keys)

    hot = sorted_keys[:5_000]  # hotspot on the low end of the key space
    for _ in range(4):
        service.lookup_many(rng.choice(hot, 800))
    acted = service.rebalance(hot_access_fraction=0.4, min_accesses=1_000)
    print(f"hotspot on shard 0 -> policy split shard {acted}: "
          f"{service.num_shards} shards")

    # The hotspot moves to the high end; the low shards go cold.
    hot = sorted_keys[-5_000:]
    for _ in range(6):
        service.lookup_many(rng.choice(hot, 800))
    acted = service.rebalance(hot_access_fraction=0.99, min_accesses=1_000)
    print(f"hotspot moved on -> policy merged cold pair at shard {acted}: "
          f"{service.num_shards} shards")
    service.validate()
    service.close()


def main():
    policy = leaf_level_comparison()
    decision_log(policy)
    serving_tier()


if __name__ == "__main__":
    main()
