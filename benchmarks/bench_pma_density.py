"""PMA density-bound sweep: pick ``pma_segment_density`` / ``pma_root_density``.

The PMA's write cost is governed by its two density endpoints
(``AlexConfig.pma_segment_density`` at the segment leaves,
``pma_root_density`` at the implicit-tree root; levels in between are
linearly interpolated — see ``PMANode.upper_density``).  Tight bounds
pack keys densely (good space, cheap reads) but force frequent window
rebalances; loose bounds waste space and stretch search windows but
absorb inserts cheaply.  The right defaults are an empirical question,
so this bench sweeps the grid and records, per ``(segment, root)``
cell and per workload:

* wall-clock microseconds per insert (through the configured kernel
  backend — the shift/rebalance loops are the write kernels);
* simulated work per insert: element shifts, rebalance moves,
  expansions (the cost-model currencies);
* read locality after the write mix: search probes per lookup over
  every stored key.

Two workloads bracket the design space: **random** inserts (the gapped
array's home turf) and **append** — strictly ascending keys, the
sequential pattern the PMA exists for (paper Section 5.2.5).

The chosen defaults are pinned by ``tests/test_config.py``; this
artifact (``BENCH_pma_density.json``) is the provenance for that pin,
not a regression-gated baseline — absolute insert costs here are
machine- and size-specific.

Run: ``python benchmarks/bench_pma_density.py [--n N]
[--out BENCH_pma_density.json] [--quiet]``
"""

import argparse
import dataclasses
import time

import numpy as np

import _common
from repro.core.config import pma_armi
from repro.core.pma import PMANode
from repro.core.stats import Counters

SEED = 11
SEGMENT_GRID = (0.80, 0.85, 0.90, 0.92, 0.95, 0.98)
ROOT_GRID = (0.50, 0.60, 0.70, 0.80)
WORKLOADS = ("random", "append")

#: Counter fields reported per insert (the write-cost currencies).
WRITE_FIELDS = ("shifts", "rebalance_moves", "expansions")


def _workload(name: str, n: int, rng) -> tuple:
    """``(initial_keys, insert_keys)`` for one workload, both length n."""
    pool = np.unique(rng.uniform(0.0, 1e9, 2 * n + 64))[:2 * n]
    if name == "append":
        # Build on the low half, then append the high half in ascending
        # order: every insert lands past the last occupied slot.
        return pool[:n], pool[n:]
    # Interleave: inserts land uniformly between existing keys.
    init, extra = pool[::2].copy(), pool[1::2].copy()
    rng.shuffle(extra)
    return init, extra


def run_cell(segment: float, root: float, workload: str, n: int,
             seed: int) -> dict:
    rng = np.random.default_rng(seed)
    init, extra = _workload(workload, n, rng)
    counters = Counters()
    config = pma_armi(pma_segment_density=segment, pma_root_density=root,
                      max_keys_per_node=8 * n)
    node = PMANode(config, counters)
    node.build(init, list(range(len(init))))

    before = dataclasses.replace(counters)
    start = time.perf_counter()
    for key in extra:
        node.insert(float(key), None)
    seconds = time.perf_counter() - start
    node.check_invariants()

    row = {"micros_per_insert": round(seconds / n * 1e6, 2)}
    for field in WRITE_FIELDS:
        delta = getattr(counters, field) - getattr(before, field)
        row[f"{field}_per_insert"] = round(delta / n, 3)

    probes_before = counters.probes
    all_keys = node.export_sorted()[0]
    for key in all_keys:
        assert node.find_key(float(key)) >= 0
    row["probes_per_lookup"] = round(
        (counters.probes - probes_before) / len(all_keys), 3)
    row["final_density"] = round(node.density, 3)
    return row


def measure_density_sweep(n: int = 8192, seed: int = SEED) -> dict:
    cells = []
    for segment in SEGMENT_GRID:
        for root in ROOT_GRID:
            if not root < segment:  # config validation: root < segment
                continue
            cell = {"pma_segment_density": segment,
                    "pma_root_density": root}
            for workload in WORKLOADS:
                cell[workload] = run_cell(segment, root, workload, n, seed)
            # One scalar to rank cells: total write wall clock across
            # both workloads (the sweep's objective), with read probes
            # recorded alongside for the locality trade-off.
            cell["total_micros_per_insert"] = round(
                sum(cell[w]["micros_per_insert"] for w in WORKLOADS), 2)
            cells.append(cell)
    best = min(cells, key=lambda c: c["total_micros_per_insert"])
    defaults = pma_armi()
    return {
        "bench": "PMA density-bound sweep (write cost vs read locality)",
        "keys_per_cell": int(n),
        "workloads": list(WORKLOADS),
        "cells": cells,
        "best_by_write_wall_clock": {
            "pma_segment_density": best["pma_segment_density"],
            "pma_root_density": best["pma_root_density"],
        },
        "configured_defaults": {
            "pma_segment_density": defaults.pma_segment_density,
            "pma_root_density": defaults.pma_root_density,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Sweep PMA upper/lower density bounds and record the "
                    "write-cost/read-locality trade-off per cell")
    parser.add_argument("--n", type=int, default=8192,
                        help="initial keys per cell (an equal number is "
                             "then inserted)")
    _common.add_output_arguments(parser, "BENCH_pma_density.json")
    args = parser.parse_args()
    result = measure_density_sweep(args.n)
    best = result["best_by_write_wall_clock"]
    summary = (f"best write wall clock at segment="
               f"{best['pma_segment_density']}, "
               f"root={best['pma_root_density']}; configured defaults: "
               f"segment="
               f"{result['configured_defaults']['pma_segment_density']}, "
               f"root={result['configured_defaults']['pma_root_density']}")
    _common.emit(result, args, summary)


if __name__ == "__main__":
    main()
