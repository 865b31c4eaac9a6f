"""Table 1 — Dataset characteristics.

Regenerates the paper's dataset summary with this reproduction's synthetic
generators, plus the CDF-shape scores that justify the substitution
(Appendix C): longlat must be far harder to model locally than longitudes,
ycsb near-linear, lognormal skewed.  The "gen peak / output" column is each
generator's tracemalloc peak over its output's bytes, the transient-memory
bound ``repro.datasets.generators`` promises (at most about 2.5).

Run: ``pytest benchmarks/bench_table1_datasets.py --benchmark-only -s``
"""

import tracemalloc

from repro.datasets import (
    DATASETS,
    linear_fit_error,
    load,
    local_nonlinearity,
)
from repro.bench import format_table

SIZE = 20_000
SEED = 0


def build_table():
    rows = []
    for name, spec in DATASETS.items():
        load(name, 100, seed=SEED)  # import-time and first-call allocations
        tracemalloc.start()
        try:
            keys = load(name, SIZE, seed=SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append((
            name,
            spec.paper_num_keys,
            SIZE,
            spec.key_type,
            spec.payload_size,
            f"{linear_fit_error(keys):.4f}",
            f"{local_nonlinearity(keys):.4f}",
            f"{keys.min():.3g}",
            f"{keys.max():.3g}",
            f"{peak / keys.nbytes:.2f}",
        ))
    return rows


def test_table1_dataset_characteristics(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    print()
    print(format_table(
        ["dataset", "paper n", "repro n", "key type", "payload B",
         "global nonlin", "local nonlin", "min", "max",
         "gen peak / output"],
        rows, title="Table 1: Dataset characteristics (synthetic stand-ins)"))
    by_name = {row[0]: row for row in rows}
    # The substitution-preserving properties (Appendix C):
    assert float(by_name["longlat"][6]) > float(by_name["longitudes"][6]), \
        "longlat must be locally harder to model than longitudes"
    assert float(by_name["ycsb"][5]) < float(by_name["lognormal"][5]), \
        "ycsb must be globally easier to model than lognormal"
