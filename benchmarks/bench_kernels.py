"""Kernel-backend bench: the cffi hot-loop kernels vs the numpy fallback.

Measures the pluggable kernel layer (``repro.core.kernels``) at two
levels, for every backend that can run on this host:

* **Per-kernel microbenchmarks** of three of the four hot loops behind
  the interface — (1) linear-model predict + clamp over a large key
  batch, (2) the lock-step model-hinted search (``find_keys_many``) over
  a single large leaf, and (3) the gapped-array shift-and-insert path
  (``closest_gaps`` + shift + ``place_fill``) driven through
  ``GappedArrayNode.insert`` — reported as ops/second plus the speedup
  over the numpy reference.  The fourth, (4) the leaf build (model fit
  plus model-based placement, ``fit_place``), has no microbenchmark
  row: it runs inside every bulk load and ``insert_many``
  merge-rebuild, so the end-to-end rows below include it.
* **End-to-end throughput** on a bulk-loaded 1M-key ``AlexIndex``:
  ``lookup_many`` over uniform-random hits and ``insert_many`` of fresh
  keys, per backend, best-of-``--repeat`` to damp scheduler noise.
  Results are verified identical across backends before timing counts.

The regression gate (``check_regression.py``) gates the end-to-end
batch-lookup speedup of the compiled backend (cffi, the only one) over
numpy — the number the compiled-kernels work exists to move.  When cffi
cannot run (no cffi, no C toolchain) the bench still runs and records
numpy alone; the gate then skips the metric rather than failing.

Run: ``python benchmarks/bench_kernels.py [--keys N] [--probes M]
[--inserts K] [--backends numpy cffi ...] [--out BENCH_kernels.json]
[--quiet]``
"""

import argparse
import time

import numpy as np

import _common
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi
from repro.core.gapped_array import GappedArrayNode
from repro.core.kernels import available_backends, get_kernels
from repro.core.stats import Counters

SEED = 7


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _speedup_over(rows: dict, metric: str) -> None:
    """Annotate each backend row with its speedup over the numpy row
    (``metric`` is a higher-is-better ops/second reading)."""
    base = rows["numpy"][metric]
    for row in rows.values():
        row["speedup_vs_numpy"] = round(row[metric] / base, 2)


def micro_predict_clamp(backends, n, repeat, rng) -> dict:
    keys = rng.uniform(0, 1e12, n)
    slope, intercept = n / 1e12, 0.0
    rows = {}
    for name in backends:
        kern = get_kernels(name)
        kern.warm()
        seconds = _best_of(
            lambda: kern.predict_clamp(slope, intercept, keys, n), repeat)
        rows[name] = {"seconds": round(seconds, 5),
                      "keys_per_second": round(n / seconds, 1)}
    _speedup_over(rows, "keys_per_second")
    return {"kernel": "predict_clamp", "batch": int(n), "backends": rows}


def micro_find_keys_many(backends, leaf_keys, probes, repeat, rng) -> dict:
    node = GappedArrayNode(ga_armi(max_keys_per_node=2 * len(leaf_keys)),
                           Counters())
    node.build(leaf_keys, list(range(len(leaf_keys))))
    targets = np.sort(rng.choice(leaf_keys, probes, replace=True))
    slope, intercept = node.model.slope, node.model.intercept
    rows = {}
    expected = None
    for name in backends:
        kern = get_kernels(name)
        kern.warm()
        pos, charge, resolve = kern.find_keys_many(
            node.keys, node.occupied, targets, True, slope, intercept)
        if expected is None:
            expected = (pos.tolist(), charge, resolve)
        elif (pos.tolist(), charge, resolve) != expected:
            raise AssertionError(f"{name} kernel disagrees with numpy")
        seconds = _best_of(
            lambda: kern.find_keys_many(node.keys, node.occupied, targets,
                                        True, slope, intercept), repeat)
        rows[name] = {"seconds": round(seconds, 5),
                      "lookups_per_second": round(probes / seconds, 1)}
    _speedup_over(rows, "lookups_per_second")
    return {"kernel": "find_keys_many (lock-step model-hinted search)",
            "leaf_keys": int(len(leaf_keys)), "batch": int(probes),
            "backends": rows}


def micro_shift_insert(backends, n, inserts, rng) -> dict:
    """The write path: per-insert closest-gap scan + shift + gap-mirror
    fill, through ``GappedArrayNode.insert`` (one timing round only — an
    insert mutates the node, so repeats are fresh builds, not re-runs)."""
    base = np.unique(rng.uniform(0, 1e9, n + inserts + 64))
    init, extra = base[:n], base[n:n + inserts]
    order = rng.permutation(inserts)
    rows = {}
    for name in backends:
        get_kernels(name).warm()
        node = GappedArrayNode(ga_armi(max_keys_per_node=4 * n,
                                       kernel_backend=name), Counters())
        node.build(init, list(range(len(init))))
        start = time.perf_counter()
        for i in order:
            node.insert(float(extra[i]), None)
        seconds = time.perf_counter() - start
        node.check_invariants()
        rows[name] = {"seconds": round(seconds, 5),
                      "inserts_per_second": round(inserts / seconds, 1)}
    _speedup_over(rows, "inserts_per_second")
    return {"kernel": "shift-and-insert (closest_gaps + shift + "
                      "place_fill)",
            "leaf_keys": int(n), "inserts": int(inserts), "backends": rows}


def end_to_end(backends, num_keys, num_probes, num_inserts, repeat,
               seed) -> dict:
    rng = np.random.default_rng(seed)
    pool = np.unique(rng.uniform(0, 1e12, num_keys + num_inserts + 64))
    keys, fresh = pool[:num_keys], pool[num_keys:num_keys + num_inserts]
    payloads = list(range(len(keys)))
    probes = rng.choice(keys, num_probes, replace=True)
    fresh_shuffled = fresh.copy()
    rng.shuffle(fresh_shuffled)

    lookup_rows, insert_rows = {}, {}
    expected = None
    for name in backends:
        get_kernels(name).warm()
        build_start = time.perf_counter()
        index = AlexIndex.bulk_load(keys, payloads,
                                    config=ga_armi(kernel_backend=name))
        build_seconds = time.perf_counter() - build_start
        index.lookup_many(probes[:1000])  # touch the path before timing

        got = index.lookup_many(probes)
        if expected is None:
            expected = got
        elif got != expected:
            raise AssertionError(f"{name} lookup results differ from numpy")
        seconds = _best_of(lambda: index.lookup_many(probes), repeat)
        lookup_rows[name] = {
            "build_seconds": round(build_seconds, 4),
            "seconds": round(seconds, 4),
            "lookups_per_second": round(num_probes / seconds, 1),
        }

        insert_start = time.perf_counter()
        index.insert_many(fresh_shuffled)
        insert_seconds = time.perf_counter() - insert_start
        if len(index) != num_keys + len(fresh):
            raise AssertionError("batch insert lost keys")
        insert_rows[name] = {
            "seconds": round(insert_seconds, 4),
            "inserts_per_second": round(len(fresh) / insert_seconds, 1),
        }
    _speedup_over(lookup_rows, "lookups_per_second")
    _speedup_over(insert_rows, "inserts_per_second")

    compiled = [n for n in backends if n != "numpy"]
    best = (max(compiled,
                key=lambda n: lookup_rows[n]["speedup_vs_numpy"])
            if compiled else None)
    return {
        "num_keys": int(num_keys),
        "batch_lookup": {
            "batch": int(num_probes),
            "backends": lookup_rows,
            "best_compiled_backend": best,
            "best_speedup": (lookup_rows[best]["speedup_vs_numpy"]
                             if best else None),
        },
        "batch_insert": {
            "batch": int(num_inserts),
            "backends": insert_rows,
            "best_speedup": (max(insert_rows[n]["speedup_vs_numpy"]
                                 for n in compiled) if compiled else None),
        },
        "results_identical_across_backends": True,
    }


def measure_kernels(num_keys: int = 1_000_000,
                    num_probes: int = 100_000,
                    num_inserts: int = 50_000,
                    repeat: int = 3,
                    seed: int = SEED,
                    backends=None) -> dict:
    backends = list(backends or available_backends())
    if "numpy" not in backends:
        backends.insert(0, "numpy")
    rng = np.random.default_rng(seed)
    micro = [
        micro_predict_clamp(backends, num_keys, repeat, rng),
        micro_find_keys_many(backends,
                             np.unique(rng.uniform(0, 1e9, 65_536)),
                             num_probes, repeat, rng),
        micro_shift_insert(backends, 16_384, 8_192, rng),
    ]
    e2e = end_to_end(backends, num_keys, num_probes, num_inserts, repeat,
                     seed)
    return {
        "bench": "compiled kernel backends vs numpy fallback",
        "backends": backends,
        "micro": micro,
        "end_to_end": e2e,
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure compiled kernel backends against the numpy "
                    "fallback and record it to BENCH_kernels.json")
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--probes", type=int, default=100_000)
    parser.add_argument("--inserts", type=int, default=50_000)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing rounds per reading (best is kept)")
    parser.add_argument("--backends", nargs="+", default=None,
                        help="backends to measure (default: every backend "
                             "available on this host)")
    _common.add_output_arguments(parser, "BENCH_kernels.json")
    args = parser.parse_args()
    result = measure_kernels(args.keys, args.probes, args.inserts,
                             args.repeat, backends=args.backends)
    best = result["end_to_end"]["batch_lookup"]["best_speedup"]
    summary = ("no compiled backend available; numpy fallback only"
               if best is None else
               f"best compiled batch-lookup speedup over numpy: {best}x "
               f"({result['end_to_end']['batch_lookup']['best_compiled_backend']})")
    _common.emit(result, args, summary)


if __name__ == "__main__":
    main()
