"""Wall-clock microbenchmarks of the core operations.

Everything else in ``benchmarks/`` uses the counter-based simulated-time
metric (``repro.analysis.cost_model``) because Python interpreter
overhead swamps algorithmic differences.  This file is the complement: honest wall-clock
timings of single operations via pytest-benchmark's calibrated timing
loops, so the repository also documents what the pure-Python
implementation actually costs on the host machine.

Interpret with care: these numbers rank implementations by *interpreter*
work, which correlates only loosely with the paper's hardware-level
comparisons (e.g. the B+Tree's python-list bisection is cheap to
interpret while ALEX's numpy slot arithmetic has per-call overhead).

The exception to "wall clock lies in Python" is the batch engine: its
vectorized routing and lock-step searches do the per-key work in NumPy, so
``lookup_many`` measures an honest order-of-magnitude wall-clock win over a
scalar lookup loop.  Running this file as a script measures exactly that
(100k uniform-random hits over a 1M-key bulk-loaded gapped-array index by
default) and records the result to ``BENCH_batch.json``.

Run: ``pytest benchmarks/bench_wallclock_micro.py --benchmark-only``
or:  ``python benchmarks/bench_wallclock_micro.py [--keys N] [--probes M]``
"""

import argparse
import time

import numpy as np
import pytest

import _common
from repro.baselines.bptree import BPlusTree
from repro.baselines.learned_index import LearnedIndex
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi

N = 20_000
SEED = 7


@pytest.fixture(scope="module")
def keys():
    return np.unique(np.random.default_rng(SEED).uniform(0, 1e9, N))


@pytest.fixture(scope="module")
def probe_cycle(keys):
    rng = np.random.default_rng(SEED + 1)
    probes = [float(k) for k in rng.choice(keys, 512)]

    def make(index):
        state = {"i": 0}

        def one_lookup():
            index.lookup(probes[state["i"] & 511])
            state["i"] += 1

        return one_lookup

    return make


class TestLookupWallClock:
    def test_alex_lookup(self, benchmark, keys, probe_cycle):
        index = AlexIndex.bulk_load(keys, config=ga_srmi(num_models=N // 256))
        benchmark(probe_cycle(index))

    def test_bptree_lookup(self, benchmark, keys, probe_cycle):
        index = BPlusTree.bulk_load(keys, page_size=256)
        benchmark(probe_cycle(index))

    def test_learned_index_lookup(self, benchmark, keys, probe_cycle):
        index = LearnedIndex.bulk_load(keys, num_models=N // 2000)
        benchmark(probe_cycle(index))


class TestInsertWallClock:
    def _insert_stream(self, index):
        state = {"next": 2e9}

        def one_insert():
            index.insert(state["next"])
            state["next"] += 1.0

        return one_insert

    def test_alex_insert(self, benchmark, keys):
        index = AlexIndex.bulk_load(
            keys, config=ga_armi(max_keys_per_node=1024,
                                 split_on_inserts=True))
        benchmark(self._insert_stream(index))

    def test_bptree_insert(self, benchmark, keys):
        index = BPlusTree.bulk_load(keys, page_size=256)
        benchmark(self._insert_stream(index))


class TestScanWallClock:
    def test_alex_scan100(self, benchmark, keys):
        index = AlexIndex.bulk_load(keys, config=ga_srmi(num_models=N // 256))
        start = float(np.sort(keys)[N // 2])
        benchmark(lambda: index.range_scan(start, 100))

    def test_bptree_scan100(self, benchmark, keys):
        index = BPlusTree.bulk_load(keys, page_size=256)
        start = float(np.sort(keys)[N // 2])
        benchmark(lambda: index.range_scan(start, 100))


class TestBuildWallClock:
    def test_alex_bulk_load(self, benchmark, keys):
        benchmark.pedantic(
            lambda: AlexIndex.bulk_load(keys, config=ga_armi()),
            rounds=3, iterations=1)

    def test_bptree_bulk_load(self, benchmark, keys):
        benchmark.pedantic(lambda: BPlusTree.bulk_load(keys),
                           rounds=3, iterations=1)


class TestBatchLookupWallClock:
    """The batch engine's wall-clock lever: lookup_many vs a scalar loop."""

    BATCH = 4096

    @pytest.fixture(scope="class")
    def index(self, keys):
        return AlexIndex.bulk_load(keys, config=ga_armi())

    @pytest.fixture(scope="class")
    def probes(self, keys):
        rng = np.random.default_rng(SEED + 2)
        return rng.choice(keys, self.BATCH, replace=True)

    def test_alex_lookup_many(self, benchmark, index, probes):
        benchmark(lambda: index.lookup_many(probes))

    def test_alex_scalar_lookup_loop(self, benchmark, index, probes):
        probe_list = [float(k) for k in probes[:256]]
        benchmark(lambda: [index.lookup(k) for k in probe_list])


def measure_batch_speedup(num_keys: int = 1_000_000,
                          num_probes: int = 100_000,
                          scalar_sample: int = 10_000,
                          seed: int = SEED) -> dict:
    """The acceptance measurement: ``lookup_many`` on ``num_probes``
    uniform-random hits over a ``num_keys``-key bulk-loaded gapped-array
    index, against a scalar ``lookup`` loop (timed on a sample and scaled,
    to keep the script fast), verifying identical results on the sample.
    """
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.uniform(0, 1e12, int(num_keys * 1.1)))[:num_keys]
    # Distinct payloads so the identity check below can catch a wrong or
    # permuted batch-to-input result mapping, not just presence.
    payloads = list(range(len(keys)))
    build_start = time.perf_counter()
    index = AlexIndex.bulk_load(keys, payloads, config=ga_armi())
    build_seconds = time.perf_counter() - build_start
    probes = rng.choice(keys, num_probes, replace=True)

    batch_start = time.perf_counter()
    batch_results = index.lookup_many(probes)
    batch_seconds = time.perf_counter() - batch_start

    sample = [float(k) for k in probes[:scalar_sample]]
    scalar_start = time.perf_counter()
    scalar_results = [index.lookup(k) for k in sample]
    scalar_sample_seconds = time.perf_counter() - scalar_start
    scalar_seconds = scalar_sample_seconds * (num_probes / len(sample))

    assert batch_results[:len(sample)] == scalar_results, \
        "batch and scalar lookups disagree"
    return {
        "bench": "lookup_many vs scalar lookup loop",
        "variant": index.variant_name,
        "num_keys": int(len(keys)),
        "num_probes": int(num_probes),
        "scalar_sample": int(len(sample)),
        "build_seconds": round(build_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "scalar_seconds_extrapolated": round(scalar_seconds, 4),
        "batch_ops_per_second": round(num_probes / batch_seconds, 1),
        "scalar_ops_per_second": round(num_probes / scalar_seconds, 1),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "results_identical_on_sample": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure batched vs scalar lookup throughput and "
                    "record it to BENCH_batch.json")
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--probes", type=int, default=100_000)
    parser.add_argument("--scalar-sample", type=int, default=10_000)
    _common.add_output_arguments(parser, "BENCH_batch.json")
    args = parser.parse_args()
    result = measure_batch_speedup(args.keys, args.probes,
                                   args.scalar_sample)
    _common.emit(result, args, f"speedup {result['speedup']}x")


if __name__ == "__main__":
    main()
