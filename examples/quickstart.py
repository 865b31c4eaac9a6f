"""Quickstart: the AlexIndex API in five minutes.

Builds an updatable learned index over random keys, then walks through
every public operation: lookups, inserts, updates, deletes, range scans,
and the introspection/accounting API.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro import AlexIndex, ga_armi
from repro.core.errors import DuplicateKeyError, KeyNotFoundError


def main():
    rng = np.random.default_rng(0)
    keys = np.unique(rng.uniform(0, 1_000_000, 50_000))
    payloads = [f"record-{i}" for i in range(len(keys))]

    # Bulk load is how the paper initializes every experiment.  The config
    # picks the variant: ga_armi() is ALEX-GA-ARMI, the paper's choice for
    # read-write workloads.
    index = AlexIndex.bulk_load(keys, payloads, config=ga_armi())
    print(f"loaded {len(index):,} keys as {index.variant_name}")
    print(f"  leaves: {index.num_leaves():,}, RMI depth: {index.depth()}")
    print(f"  index size: {index.index_size_bytes():,} B "
          f"(data: {index.data_size_bytes():,} B)")

    # Point lookups.
    probe = float(keys[1234])
    print(f"\nlookup({probe:.3f}) -> {index.lookup(probe)!r}")

    # Inserts go to the model-predicted slot (model-based insertion).
    index.insert(123.456, "fresh")
    print(f"insert(123.456); lookup -> {index.lookup(123.456)!r}")

    # Duplicate keys are rejected (paper Section 7 lists duplicates as an
    # open limitation).
    try:
        index.insert(123.456, "again")
    except DuplicateKeyError as exc:
        print(f"duplicate insert rejected: {exc}")

    # Updates and deletes.
    index.update(123.456, "updated")
    print(f"update; lookup -> {index.lookup(123.456)!r}")
    index.delete(123.456)
    try:
        index.lookup(123.456)
    except KeyNotFoundError:
        print("deleted key no longer found")

    # Range scans use the per-node bitmaps and the leaf chain.
    start = float(np.sort(keys)[100])
    window = index.range_scan(start, limit=5)
    print(f"\nrange_scan({start:.3f}, limit=5):")
    for key, payload in window:
        print(f"  {key:14.3f} -> {payload!r}")

    # Dict-style sugar.
    index[42.0] = "answer"
    assert 42.0 in index and index[42.0] == "answer"
    del index[42.0]

    # The operation counters drive the reproduction's simulated-time
    # throughput metric (see repro/analysis/cost_model.py).
    work = index.counters
    print(f"\ncounters: {work.model_inferences:,} model inferences, "
          f"{work.pointer_follows:,} pointer follows, "
          f"{work.shifts:,} element shifts")

    # validate() checks every structural invariant — cheap insurance.
    index.validate()
    print("validate(): OK")


if __name__ == "__main__":
    main()
