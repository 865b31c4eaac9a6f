"""Shard-scaling bench: scatter-gather batch throughput vs shard count,
for both execution backends.

Builds a :class:`repro.serve.ShardedAlexIndex` over the lognormal dataset
(the skewed CDF where the router's equal-mass boundaries matter most) at
several shard counts *and under each requested execution backend*
(``thread`` — in-process shards run one after another on the caller's
thread;
``process`` — one long-lived worker process per shard, batches sent in
pickled pipe frames), drives one large batch read (``lookup_many``) and one
large batch write (``insert_many``) through each, and records throughput
to ``BENCH_shard.json``.

Three readings per operation, all from the same run:

* ``sim_mops_aggregate`` — total simulated work (counter-based,
  ``repro.analysis.cost_model``) summed over shards: shows sharding adds
  no algorithmic overhead (equal-mass boundaries keep per-shard trees
  shallow, so the aggregate typically *improves* slightly with shards);
* ``sim_mops_critical_path`` — batch size over the *slowest shard's*
  simulated time plus the router's carve cost: the scatter-gather service
  model, where per-shard sub-batches execute in parallel and the batch
  completes when the last shard finishes.  ``balance`` (mean/max
  per-shard time) shows how close the CDF-fitted boundaries get to the
  ideal ``1/shards`` split;
* ``wall_seconds`` — honest wall clock.  The thread backend runs the
  shards one after another on the caller's thread, so wall clock stays flat;
  under the process backend the workers run on real cores, so on a
  multi-core host the critical-path scaling shows up as wall time
  (``cpu_count`` is recorded so single-core results are not misread as a
  regression).

``process_vs_thread`` summarizes the wall-clock ratio between the
backends at the largest common shard count — the "did the GIL actually
get beaten" number.

Run: ``python benchmarks/bench_shard_scaling.py [--keys N] [--batch M]
[--shards 1 2 4 8] [--backends thread process] [--out BENCH_shard.json]
[--quiet]``
"""

import argparse
import math
import os
import time

import numpy as np

import _common
from repro.analysis.cost_model import DEFAULT_COST_MODEL
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi
from repro.datasets import load
from repro.serve import ShardedAlexIndex

SEED = 7


def _sim_nanos(deltas) -> list:
    return [DEFAULT_COST_MODEL.simulated_nanos(d) for d in deltas]


def _op_metrics(batch: int, wall: float, shard_nanos: list,
                router_nanos: float) -> dict:
    """The three throughput readings for one batch operation."""
    total = sum(shard_nanos) + router_nanos
    worst = max(shard_nanos) + router_nanos
    busy = [n for n in shard_nanos if n > 0]
    return {
        "wall_seconds": round(wall, 4),
        "wall_ops_per_second": round(batch / wall, 1),
        "sim_mops_aggregate": round(batch / total * 1e3, 3),
        "sim_mops_critical_path": round(batch / worst * 1e3, 3),
        "balance": round((sum(busy) / len(busy)) / max(busy), 3) if busy else 1.0,
    }


def _speedups(rows: list) -> dict:
    """Per-operation speedups of the last row over the first (1-shard)."""
    base, best = rows[0], rows[-1]
    out = {}
    for op in ("read", "write"):
        out[f"{op}_speedup_over_1_shard"] = {
            "sim_aggregate": round(best[op]["sim_mops_aggregate"]
                                   / base[op]["sim_mops_aggregate"], 3),
            "sim_critical_path": round(
                best[op]["sim_mops_critical_path"]
                / base[op]["sim_mops_critical_path"], 3),
            "wall": round(best[op]["wall_ops_per_second"]
                          / base[op]["wall_ops_per_second"], 3),
        }
    return out


def measure_shard_scaling(num_keys: int = 1_000_000,
                          batch: int = 100_000,
                          shard_counts=(1, 2, 4, 8),
                          seed: int = SEED,
                          backends=("thread", "process")) -> dict:
    """The acceptance measurement: one batch read and one batch write of
    ``batch`` keys against a ``num_keys``-key sharded service at each
    shard count under each backend, verifying the sharded results match a
    single index."""
    keys = load("lognormal", num_keys + batch, seed=seed)
    init_keys, insert_keys = keys[:num_keys], keys[num_keys:]
    rng = np.random.default_rng(seed + 1)
    probes = rng.choice(init_keys, batch, replace=True)
    check = min(10_000, batch)

    # Ground truth for the equivalence check.
    single = AlexIndex.bulk_load(init_keys,
                                 list(range(len(init_keys))),
                                 config=ga_armi())
    expected_sample = single.lookup_many(probes[:check])

    configs = []
    for backend in backends:
        for num_shards in shard_counts:
            build_start = time.perf_counter()
            service = ShardedAlexIndex.bulk_load(
                init_keys, list(range(len(init_keys))),
                num_shards=num_shards, config=ga_armi(), backend=backend)
            build_seconds = time.perf_counter() - build_start
            # The router's carve cost: one vectorized searchsorted over
            # the batch, log2(shards) comparisons per key (serial,
            # pre-scatter).
            router_nanos = (batch * math.log2(max(num_shards, 2))
                            * DEFAULT_COST_MODEL.comparison_ns
                            if num_shards > 1 else 0.0)

            before = service.shard_counters()
            read_start = time.perf_counter()
            got = service.lookup_many(probes)
            read_wall = time.perf_counter() - read_start
            read_nanos = _sim_nanos([a.diff(b) for a, b in
                                     zip(service.shard_counters(), before)])
            if got[:check] != expected_sample:
                raise AssertionError(
                    "sharded and single-index reads disagree")

            before = service.shard_counters()
            write_start = time.perf_counter()
            service.insert_many(insert_keys)
            write_wall = time.perf_counter() - write_start
            write_nanos = _sim_nanos([a.diff(b) for a, b in
                                      zip(service.shard_counters(), before)])
            if len(service) != num_keys + len(insert_keys):
                raise AssertionError("batch write lost keys")

            configs.append({
                "backend": backend,
                "shards": num_shards,
                "build_seconds": round(build_seconds, 4),
                "max_shard_depth": service.depth(),
                "read": _op_metrics(batch, read_wall, read_nanos,
                                    router_nanos),
                "write": _op_metrics(len(insert_keys), write_wall,
                                     write_nanos, router_nanos),
            })
            service.close()

    by_backend = {b: [row for row in configs if row["backend"] == b]
                  for b in backends}
    result = {
        "bench": "sharded scatter-gather batch reads/writes vs shard "
                 "count and execution backend",
        "dataset": "lognormal",
        "variant": "ALEX-GA-ARMI per shard",
        "num_keys": int(num_keys),
        "read_batch": int(batch),
        "write_batch": int(len(insert_keys)),
        "cpu_count": os.cpu_count() or 1,
        "metric_note": (
            "sim_* from the counter-based cost model "
            "(repro/analysis/cost_model.py); "
            "critical_path = slowest shard + router carve, the parallel "
            "scatter-gather service model; thread-backend wall clock is "
            "single-process and GIL-bound, process-backend wall clock "
            "runs one worker process per shard and scales with real "
            "cores (see cpu_count)"),
        "configs": configs,
        "results_identical_to_single_index": True,
    }
    # Back-compatible speedup summary from the thread rows (the regression
    # gate's scale-invariant metrics), plus per-backend summaries.
    primary = by_backend.get("thread") or configs
    result.update(_speedups(primary))
    result["speedups_by_backend"] = {
        b: _speedups(rows) for b, rows in by_backend.items() if rows
    }
    if "thread" in by_backend and "process" in by_backend:
        # The GIL verdict: wall-clock ratio at the largest common count.
        common = (set(r["shards"] for r in by_backend["thread"])
                  & set(r["shards"] for r in by_backend["process"]))
        at = max(common)
        t = next(r for r in by_backend["thread"] if r["shards"] == at)
        p = next(r for r in by_backend["process"] if r["shards"] == at)
        result["process_vs_thread"] = {
            "shards": at,
            "read_wall_speedup": round(
                p["read"]["wall_ops_per_second"]
                / t["read"]["wall_ops_per_second"], 3),
            "write_wall_speedup": round(
                p["write"]["wall_ops_per_second"]
                / t["write"]["wall_ops_per_second"], 3),
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure sharded batch read/write throughput vs shard "
                    "count and backend, and record it to BENCH_shard.json")
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--batch", type=int, default=100_000)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--backends", nargs="+",
                        choices=("thread", "process"),
                        default=["thread", "process"])
    _common.add_output_arguments(parser, "BENCH_shard.json")
    args = parser.parse_args()
    result = measure_shard_scaling(args.keys, args.batch,
                                   tuple(args.shards),
                                   backends=tuple(args.backends))
    read_up = result["read_speedup_over_1_shard"]["sim_critical_path"]
    write_up = result["write_speedup_over_1_shard"]["sim_critical_path"]
    summary = (f"critical-path speedup over 1 shard: reads {read_up}x, "
               f"writes {write_up}x")
    pvt = result.get("process_vs_thread")
    if pvt is not None:
        summary += (f"; process-vs-thread wall clock at {pvt['shards']} "
                    f"shards: reads {pvt['read_wall_speedup']}x, writes "
                    f"{pvt['write_wall_speedup']}x "
                    f"({result['cpu_count']} cores)")
    _common.emit(result, args, summary)


if __name__ == "__main__":
    main()
