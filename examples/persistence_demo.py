"""Saving and restoring an ALEX index without retraining.

Rebuilding an index from raw keys retrains every model; restoring it from
the persistence format (`repro.durability.persistence`) keeps the exact models
and slot layouts, so lookup behaviour — including the prediction errors
that determine performance — is preserved bit-for-bit.

Run: ``python examples/persistence_demo.py``
"""

import os
import tempfile
import time

import numpy as np

from repro import AlexIndex, ga_armi
from repro.analysis import alex_prediction_errors
from repro.datasets import longitudes
from repro.durability.persistence import load_index, save_index


def main():
    keys = longitudes(50_000, seed=3)
    payloads = [f"poi-{i}" for i in range(len(keys))]
    index = AlexIndex.bulk_load(keys, payloads, config=ga_armi())
    index.insert(999.5, "added-later")
    print(f"built index: {len(index):,} keys, {index.num_leaves()} leaves, "
          f"{index.index_size_bytes():,} B of models+pointers")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alex.npz")
        t0 = time.perf_counter()
        save_index(index, path)
        save_ms = (time.perf_counter() - t0) * 1000
        size = os.path.getsize(path)
        print(f"saved to {os.path.basename(path)}: {size:,} B "
              f"in {save_ms:.0f} ms")

        t0 = time.perf_counter()
        restored = load_index(path)
        load_ms = (time.perf_counter() - t0) * 1000
        print(f"loaded in {load_ms:.0f} ms")

        restored.validate()
        assert restored.lookup(999.5) == "added-later"
        assert list(restored.items()) == list(index.items())
        original_errors = alex_prediction_errors(index)
        restored_errors = alex_prediction_errors(restored)
        assert np.array_equal(original_errors, restored_errors)
        print("round trip verified: contents, structure, and model "
              "predictions are identical")
        print(f"  mean prediction error before/after: "
              f"{original_errors.mean():.3f} / {restored_errors.mean():.3f}")

        restored.insert(-999.0, "post-restore")
        print("restored index accepts new inserts: OK")


if __name__ == "__main__":
    main()
