"""Ablations of ALEX's design choices (Sections 3.2-3.4).

Four studies the paper motivates but reports only in prose:

1. **Model-based vs uniform (re)insertion** — model-based placement is the
   paper's "fourth, subtle yet important difference"; uniform placement
   throws away prediction accuracy.
2. **Split fanout** — the children-per-split knob of node splitting on
   inserts (Section 3.4.2): tree depth vs leaf utilization.
3. **Model budget to match accuracy** — ALEX needs far fewer models than
   the Learned Index for the same prediction error (Section 5.2.1: 25 vs
   50000 models on YCSB).
4. **Cost-model sensitivity** — the ALEX-over-B+Tree result must survive
   perturbations of the simulated per-operation costs
   (``repro.analysis.cost_model``).

Run: ``pytest benchmarks/bench_ablations.py --benchmark-only -s``
"""

import dataclasses

import numpy as np

from repro.analysis import (
    CostModel,
    DEFAULT_COST_MODEL,
    alex_prediction_errors,
    learned_index_prediction_errors,
)
from repro.baselines.learned_index import LearnedIndex
from repro.bench import SystemParams, format_table, run_experiment
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi
from repro.core.gapped_array import GappedArrayNode
from repro.core.stats import Counters
from repro.datasets import load, longitudes
from repro.workloads import READ_HEAVY, READ_ONLY


def ablation_model_based_vs_uniform():
    """Compare lookup cost after model-based vs uniform placement."""
    keys = np.sort(longitudes(4000, seed=97))
    model_node = GappedArrayNode(ga_srmi(), Counters())
    model_node.build(keys)

    uniform_node = GappedArrayNode(ga_srmi(), Counters())
    uniform_node.build(keys)
    # Redistribute uniformly, keeping the trained model: this is what a
    # standard PMA/packed layout would do.
    positions = np.flatnonzero(uniform_node.occupied)
    exported = uniform_node.keys[positions].copy()
    uniform_node.occupied[:] = False
    targets = (np.arange(len(exported)) * uniform_node.capacity
               // len(exported))
    uniform_node.keys[:] = np.inf
    uniform_node.keys[targets] = exported
    uniform_node.occupied[targets] = True
    uniform_node._refill_gap_keys(0, uniform_node.capacity)

    costs = {}
    for name, node in (("model-based", model_node), ("uniform", uniform_node)):
        counters_before = node.counters.snapshot()
        for key in keys[::4]:
            assert node.find_key(float(key)) >= 0
        work = node.counters.diff(counters_before)
        costs[name] = DEFAULT_COST_MODEL.simulated_nanos(work) / len(keys[::4])
    return costs


def test_ablation_model_based_insertion(benchmark):
    costs = benchmark.pedantic(ablation_model_based_vs_uniform,
                               rounds=1, iterations=1)
    print(f"\n  lookup ns/op: model-based={costs['model-based']:.1f}, "
          f"uniform={costs['uniform']:.1f}")
    assert costs["model-based"] < costs["uniform"]


def ablation_split_fanout():
    keys = load("longitudes", 12_000, seed=101)
    rows = []
    for fanout in (2, 4, 8, 16):
        config = dataclasses.replace(
            ga_armi(max_keys_per_node=256, split_fanout=fanout),
            split_on_inserts=True)
        index = AlexIndex.bulk_load(keys[:2000], config=config)
        for key in keys[2000:]:
            index.insert(float(key))
        index.validate()
        sizes = index.leaf_sizes()
        rows.append((fanout, index.depth(), index.num_leaves(),
                     f"{sizes.mean():.0f}", index.counters.splits,
                     index.index_size_bytes()))
    return rows


def test_ablation_split_fanout(benchmark):
    rows = benchmark.pedantic(ablation_split_fanout, rounds=1, iterations=1)
    print()
    print(format_table(
        ["fanout", "depth", "leaves", "mean leaf keys", "splits",
         "index bytes"],
        rows, title="Ablation: node-split fanout (Section 3.4.2)"))
    depths = {fanout: depth for fanout, depth, *_ in rows}
    # Larger fanout flattens the tree.
    assert depths[16] <= depths[2]


def ablation_model_budget():
    keys = load("ycsb", 16_000, seed=103)
    alex = AlexIndex.bulk_load(keys, config=ga_srmi(num_models=8))
    alex_error = float(np.mean(alex_prediction_errors(alex)))
    alex_models = alex.num_models()
    budgets = (8, 32, 128, 512)
    learned_errors = {}
    for budget in budgets:
        learned = LearnedIndex.bulk_load(keys, num_models=budget)
        learned_errors[budget] = float(
            np.mean(learned_index_prediction_errors(learned)))
    return alex_models, alex_error, learned_errors


def test_ablation_model_budget(benchmark):
    alex_models, alex_error, learned_errors = benchmark.pedantic(
        ablation_model_budget, rounds=1, iterations=1)
    rows = [("ALEX-GA-SRMI", alex_models, f"{alex_error:.2f}")]
    for budget, err in learned_errors.items():
        rows.append(("LearnedIndex", budget + 1, f"{err:.2f}"))
    print()
    print(format_table(["system", "models", "mean |error|"], rows,
                       title="Ablation: models needed for prediction "
                             "accuracy (ycsb)"))
    # Shape (Section 5.2.1): the Learned Index needs an order of magnitude
    # more models than ALEX to approach ALEX's accuracy.
    matching = [b for b, err in learned_errors.items() if err <= alex_error]
    assert not matching or min(matching) >= 4 * alex_models


def ablation_cost_model_sensitivity():
    perturbations = {
        "default": DEFAULT_COST_MODEL,
        "cheap pointers (10ns)": CostModel(pointer_follow_ns=10.0),
        "expensive pointers (60ns)": CostModel(pointer_follow_ns=60.0),
        "expensive probes (10ns)": CostModel(probe_ns=10.0),
    }
    out = []
    for name, cm in perturbations.items():
        alex = run_experiment("ALEX-GA-SRMI", "lognormal", READ_ONLY,
                              init_size=6000, num_ops=1500,
                              cost_model=cm, seed=107)
        bptree = run_experiment("BPlusTree", "lognormal", READ_ONLY,
                                init_size=6000, num_ops=1500,
                                cost_model=cm, seed=107)
        out.append((name, f"{alex.throughput / 1e6:.2f}",
                    f"{bptree.throughput / 1e6:.2f}",
                    alex.throughput / bptree.throughput))
    return out


def test_ablation_cost_model_sensitivity(benchmark):
    rows = benchmark.pedantic(ablation_cost_model_sensitivity,
                              rounds=1, iterations=1)
    print()
    print(format_table(
        ["cost model", "ALEX Mops/s", "B+Tree Mops/s", "ratio"],
        [(n, a, b, f"{r:.2f}x") for n, a, b, r in rows],
        title="Ablation: ALEX-vs-B+Tree under cost-model perturbations"))
    # The headline result must hold under every perturbation.
    for name, _, _, ratio_value in rows:
        assert ratio_value > 1.0, name


def test_ablation_read_heavy_variants(benchmark):
    """Which ALEX variant wins which workload (Section 5.2's guidance)."""
    def run():
        out = []
        for system in ("ALEX-GA-SRMI", "ALEX-GA-ARMI", "ALEX-PMA-SRMI",
                       "ALEX-PMA-ARMI"):
            r = run_experiment(system, "longitudes", READ_HEAVY,
                               init_size=3000, num_ops=1500,
                               params=SystemParams(max_keys_per_node=512),
                               seed=109)
            out.append((system, r.throughput))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["variant", "Mops/s"],
                       [(s, f"{t / 1e6:.2f}") for s, t in rows],
                       title="Ablation: variant comparison on read-heavy"))
    by_name = dict(rows)
    # GA lookups beat PMA lookups under the same RMI (Section 5.3).
    assert by_name["ALEX-GA-ARMI"] >= 0.8 * by_name["ALEX-PMA-ARMI"]
