"""YCSB-style benchmark: all four paper workloads on one command.

Drives ALEX (the paper's per-workload best variant), the B+Tree, and the
Learned Index through the read-only / read-heavy / write-heavy / range-scan
workloads of Section 5.1.2 on a dataset of your choice, and prints the
Figure-4-style table of simulated throughput and index sizes.

Run: ``python examples/ycsb_benchmark.py [dataset] [init_size]``
(dataset in {longitudes, longlat, lognormal, ycsb}; default ycsb 20000)
"""

import sys

from repro.bench import (
    SystemParams,
    best_alex_variant_for,
    format_table,
    ratio,
    run_experiment,
)
from repro.workloads import RANGE_SCAN, READ_HEAVY, READ_ONLY, WRITE_HEAVY

WORKLOADS = (READ_ONLY, READ_HEAVY, WRITE_HEAVY, RANGE_SCAN)


def main():
    dataset = sys.argv[1] if len(sys.argv) > 1 else "ycsb"
    init_size = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    num_ops = max(2000, init_size // 4)
    params = SystemParams(keys_per_model=256, max_keys_per_node=1024)

    rows = []
    for spec in WORKLOADS:
        systems = [best_alex_variant_for(spec), "BPlusTree"]
        if spec is READ_ONLY:
            systems.append("LearnedIndex")  # excluded elsewhere (paper 5.2.2)
        results = {}
        for system in systems:
            r = run_experiment(system, dataset, spec, init_size=init_size,
                               num_ops=num_ops, params=params, seed=3)
            results[system] = r
            rows.append((spec.name, system, f"{r.throughput / 1e6:.2f}",
                         f"{r.index_bytes:,}",
                         ratio(r.throughput,
                               results[systems[0]].throughput)))
    print(format_table(
        ["workload", "system", "Mops/s (simulated)", "index bytes",
         "vs ALEX"],
        rows,
        title=f"YCSB-style workloads on {dataset} "
              f"(init={init_size:,}, ops={num_ops:,})"))
    print("\nNote: throughput is simulated from operation counters"
          " (see repro/analysis/cost_model.py); shapes, not absolute"
          " numbers,"
          " are the reproduction target.")


if __name__ == "__main__":
    main()
