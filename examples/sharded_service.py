"""The sharded index service: a walkthrough of ``repro.serve``.

A :class:`~repro.serve.ShardedAlexIndex` partitions the key space into N
independent ALEX shards behind a CDF-fitted router and scatter-gathers
batched reads, writes, and range queries across them.  This walkthrough
bulk-loads a skewed (lognormal) key set, shows that the equal-mass router
balances the shards anyway, drives the batch API, then sends hotspot
traffic (80% of accesses to 20% of the keys) at the service and lets the
rebalance hook split the hot shard.

Run: ``python examples/sharded_service.py``
"""

import time

import numpy as np

from repro import ShardedAlexIndex, ga_armi
from repro.workloads import HotspotGenerator


def main():
    rng = np.random.default_rng(0)
    keys = np.unique(rng.lognormal(0, 2, 220_000) * 1e6)[:200_000]
    payloads = [f"record-{i}" for i in range(len(keys))]

    # -- bulk load: the router fits equal-mass boundaries from the CDF ----
    service = ShardedAlexIndex.bulk_load(keys, payloads, num_shards=4,
                                         config=ga_armi())
    print(f"loaded {len(service):,} keys into {service.num_shards} shards")
    print("shard masses (skewed keys, yet near 1/4 each):",
          np.round(service.router.mass(keys), 3))

    # -- scatter-gather batch reads ---------------------------------------
    probes = rng.choice(keys, 50_000, replace=True)
    start = time.perf_counter()
    results = service.lookup_many(probes)
    seconds = time.perf_counter() - start
    print(f"\nlookup_many : {len(probes):,} reads in {seconds:.3f}s "
          f"({len(probes) / seconds:,.0f} ops/s), "
          f"first result {results[0]!r}")

    # -- scatter-gather batch writes (all-or-nothing across shards) -------
    new_keys = np.setdiff1d(
        np.unique(rng.lognormal(0, 2, 30_000) * 1e6), keys)[:20_000]
    start = time.perf_counter()
    service.insert_many(new_keys, [f"new-{i}" for i in range(len(new_keys))])
    seconds = time.perf_counter() - start
    print(f"insert_many : {len(new_keys):,} writes in {seconds:.3f}s "
          f"({len(new_keys) / seconds:,.0f} ops/s); "
          f"service now holds {len(service):,} keys")

    # -- batch range queries ----------------------------------------------
    los = rng.choice(keys, 1_000)
    his = los * 1.05
    ranges = service.range_query_many(los, his)
    print(f"range_query_many : {len(ranges):,} intervals, "
          f"{sum(len(r) for r in ranges):,} records returned")

    # -- shard statistics --------------------------------------------------
    print("\nper-shard stats after the batches:")
    for row in service.shard_stats():
        print(f"  shard {row['shard']}: {row['num_keys']:>7,} keys, "
              f"depth {row['depth']}, reads {row['reads']:>6,}, "
              f"writes {row['writes']:>6,}, scans {row['scans']:>5,}")

    # -- hotspot traffic and the rebalance hook ---------------------------
    service.reset_stats()
    hotspot = HotspotGenerator(len(keys), hot_fraction=0.2,
                               hot_access_fraction=0.8, seed=3)
    sorted_keys = np.sort(keys)
    for _ in range(20):
        picks = sorted_keys[hotspot.sample(2_000)]
        service.lookup_many(picks)
    hot, fraction = service.hottest_shard()
    print(f"\nhotspot traffic: shard {hot} now absorbs "
          f"{fraction:.0%} of accesses")

    split = service.rebalance(hot_access_fraction=0.5, min_accesses=1_000)
    if split is not None:
        print(f"rebalance: split hot shard {split} at its median key -> "
              f"{service.num_shards} shards")
        for row in service.shard_stats()[split:split + 2]:
            print(f"  shard {row['shard']}: {row['num_keys']:,} keys in "
                  f"[{row['key_lo']:.3g}, {row['key_hi']:.3g})")
    service.validate()
    print("\nservice validated: router and all shards consistent")
    service.close()

    # -- the process backend: shards as worker processes ------------------
    # Same API, but each shard lives in a long-lived worker process and
    # batch keys and replies travel in pickled pipe frames.  On a
    # multi-core host this turns critical-path scaling into real wall
    # clock; on one core the RPC overhead makes it a bit slower instead.
    with ShardedAlexIndex.bulk_load(keys, payloads, num_shards=4,
                                    config=ga_armi(),
                                    backend="process") as proc_service:
        start = time.perf_counter()
        proc_results = proc_service.lookup_many(probes)
        seconds = time.perf_counter() - start
        assert proc_results == results
        print(f"\nprocess backend: same {len(probes):,} reads in "
              f"{seconds:.3f}s across {proc_service.num_shards} worker "
              f"processes (identical results)")


if __name__ == "__main__":
    main()
