"""Reproduce the paper's headline claims in one command.

Runs the Figure-4 grid (4 workloads x 4 datasets, per-workload best ALEX
variant vs B+Tree) through the programmatic suite and prints the
abstract-style summary: how often ALEX wins, the best throughput ratio,
and the best index-size ratio — the reproduction-scale counterparts of
"up to 3.5x higher throughput ... up to 5 orders of magnitude smaller
index size".

For the full per-figure reproduction (including Figures 5-14 and the
Section 4 theorems), run ``pytest benchmarks/ --benchmark-only -s``.

Run: ``python examples/reproduce_paper.py [init_size] [num_ops]``
"""

import sys

from repro.bench import format_table, run_headline_suite, SystemParams


def main():
    init_size = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    num_ops = int(sys.argv[2]) if len(sys.argv) > 2 else 2500
    print(f"running the Figure-4 grid (init={init_size:,}, "
          f"ops={num_ops:,}) ...\n")
    report = run_headline_suite(
        init_size=init_size, num_ops=num_ops,
        params=SystemParams(keys_per_model=256, max_keys_per_node=512))

    rows = []
    for (workload, dataset), ratio in sorted(report.throughput_ratios().items()):
        alex = [r for r in report.results
                if r.workload == workload and r.dataset == dataset
                and r.system != "BPlusTree"][0]
        bptree = report.by(workload, dataset, "BPlusTree")
        rows.append((workload, dataset, alex.system,
                     f"{alex.throughput / 1e6:.2f}",
                     f"{bptree.throughput / 1e6:.2f}",
                     f"{ratio:.2f}x",
                     f"{bptree.index_bytes / max(1, alex.index_bytes):.1f}x"))
    print(format_table(
        ["workload", "dataset", "ALEX variant", "ALEX Mops/s",
         "B+Tree Mops/s", "throughput ratio", "index-size ratio"],
        rows, title="Figure 4 grid (simulated-time throughput)"))

    print("\nheadline summary:")
    print(f"  ALEX wins {report.wins()}/{report.cells()} cells")
    print(f"  best throughput ratio vs B+Tree: "
          f"{report.max_throughput_ratio():.2f}x "
          f"(paper: up to 3.5x at 200M-key scale)")
    print(f"  best index-size ratio vs B+Tree: "
          f"{report.max_index_size_ratio():.0f}x "
          f"(paper: up to 5 orders of magnitude at 200M-key scale)")
    print("\nSee the Benchmarks section of README.md for the per-figure"
          " benches.")


if __name__ == "__main__":
    main()
