"""Adaptation-policy bench: HeuristicPolicy vs CostModelPolicy on
structure-stressing traces.

Replays the two scenarios of :mod:`repro.workloads.adaptation` against a
fresh ALEX index under each policy and records simulated throughput
(counter-weighted, ``repro.analysis.cost_model``), space, structure shape, and SMO tallies
to ``BENCH_adapt.json``:

* **grow-then-shrink** — an insert wave doubles the key count, then
  deletes shrink the index to a fraction of its peak.  The heuristic
  policy has no delete-side SMOs, so it keeps the peak's leaves forever;
  the cost-model policy merges underfull siblings and collapses emptied
  levels, so the *structure* shrinks with the data (the space win).

* **shifting-hotspot** — sequential inserts sweep a window that jumps
  around the key domain (Figure 5b/5c's adversarial patterns localized
  and non-stationary).  The heuristic grows the hot leaves monotonically
  and pays ever-larger expansion rebuilds; the cost-model policy splits
  sideways under insert pressure (level-free, thanks to its reserved
  parent slots), keeping rebuilds small (the throughput win).

The bench asserts the acceptance criterion: the cost-model policy beats
the heuristic on at least one scenario in space or simulated throughput.

Run: ``python benchmarks/bench_adaptation.py [--keys N] [--ops M]
[--seed S] [--out BENCH_adapt.json] [--quiet]``
"""

import argparse

import _common
from repro.core.policy import CostModelPolicy, HeuristicPolicy
from repro.workloads.adaptation import SCENARIOS, run_adaptation_scenario

SEED = 4


def measure_adaptation(num_keys: int = 20_000, num_ops: int = 20_000,
                       seed: int = SEED) -> dict:
    """Run both scenarios under both policies and package the comparison."""
    scenarios = {}
    wins = []
    for scenario in SCENARIOS:
        rows = {}
        for name, factory in (("heuristic", HeuristicPolicy),
                              ("cost_model", CostModelPolicy)):
            rows[name] = run_adaptation_scenario(
                factory(), scenario, num_keys=num_keys, num_ops=num_ops,
                seed=seed)
        heur, cost = rows["heuristic"], rows["cost_model"]
        heur_space = heur["index_bytes"] + heur["data_bytes"]
        cost_space = cost["index_bytes"] + cost["data_bytes"]
        comparison = {
            "throughput_ratio": round(cost["sim_mops"] / heur["sim_mops"], 3),
            "space_ratio": round(cost_space / heur_space, 3),
            "index_bytes_ratio": round(cost["index_bytes"]
                                       / heur["index_bytes"], 3),
            "cost_model_wins_throughput": cost["sim_mops"] > heur["sim_mops"],
            "cost_model_wins_space": cost_space < heur_space,
        }
        if (comparison["cost_model_wins_throughput"]
                or comparison["cost_model_wins_space"]):
            wins.append(scenario)
        scenarios[scenario] = {
            "heuristic": heur, "cost_model": cost, "comparison": comparison,
        }
    return {
        "bench": "adaptation policies on grow-then-shrink and "
                 "shifting-hotspot traces",
        "num_keys": int(num_keys),
        "num_ops": int(num_ops),
        "seed": int(seed),
        "metric_note": (
            "sim_mops from the counter-based cost model "
            "(repro/analysis/cost_model.py); "
            "space = index_bytes + data_bytes at trace end; every replay "
            "validates the index and both policies end with identical "
            "key sets"),
        "scenarios": scenarios,
        "cost_model_wins_on": wins,
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure HeuristicPolicy vs CostModelPolicy on "
                    "adaptation-stressing traces and record "
                    "BENCH_adapt.json")
    parser.add_argument("--keys", type=int, default=20_000)
    parser.add_argument("--ops", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=SEED)
    _common.add_output_arguments(parser, "BENCH_adapt.json")
    args = parser.parse_args()
    result = measure_adaptation(args.keys, args.ops, args.seed)
    assert result["cost_model_wins_on"], (
        "CostModelPolicy beat HeuristicPolicy on no scenario — the "
        "adaptation engine regressed")
    ratios = "; ".join(
        f"{scenario}: throughput x{data['comparison']['throughput_ratio']}"
        f", space x{data['comparison']['space_ratio']}"
        for scenario, data in result["scenarios"].items())
    _common.emit(result, args,
                 f"cost model wins on: "
                 f"{', '.join(result['cost_model_wins_on'])} ({ratios})")


if __name__ == "__main__":
    main()
