"""Layout fingerprints: every leaf rebuild path produces pinned layouts.

Each case bulk-loads a seeded dataset, then drives every path that
rebuilds a leaf model-based: batch-insert merge-rebuilds and the splits
they trigger, scalar inserts with their expansions, batch-delete
rebuilds, and scalar deletes with their contractions.  The digest hashes
every leaf's key bytes, occupancy bytes, payload reprs, capacity, key
count and model parameters, plus the index's ``Counters``.

The digests below were recorded before the model-based build moved into
a kernel, so a match proves the kernel changed no layout and no work
tally, on every kernel backend.  Model parameters enter the digest at
nine significant digits, because the digests predate the current fit:
they were recorded when the fit used numpy's pairwise mean and BLAS
``dot``, whose last bit depended on the CPU's BLAS kernel.  The fit now
uses strictly sequential sums on both backends (the C side compiled
without multiply-add contraction), which moved the parameters by a few
ulps and no layout; the cross-backend test compares them exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.core import kernels as K
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, pma_armi
from repro.datasets.generators import load

LAYOUTS = {"ga": ga_armi, "pma": pma_armi}
DATASETS = (("longitudes", 1), ("lognormal", 2), ("ycsb", 3))

DIGESTS = {
    ("longitudes", "ga"):
        "9a17978f4358c52b9e7adae8152bcf85fa599aae32d80a6a7cb05fe575801616",
    ("longitudes", "pma"):
        "08fb3836566dbf0261c9adcf931bac7e1dd7c5d6d1cd1d2ff7045ed453419e0c",
    ("lognormal", "ga"):
        "6bbde906d3bb2b11e60e9e4d146dc12cdbb7fc8d6b5e2a06dd4407dc3e8d52da",
    ("lognormal", "pma"):
        "a030ea572b446fb9aeb0489473b3be4aecc238bdeb299698468914ec6093f044",
    ("ycsb", "ga"):
        "31feb1327cab54600985ed6d8435c3430bfe511565d043b78fb9ef8974a73790",
    ("ycsb", "pma"):
        "41c3923251d6dd81508dce89af2861c70fb39bd5738e65fbebb909add2d82c9a",
}


def payload_for(i: int):
    """Mixed payload kinds: strings, floats, tuples and ``None``."""
    kind = i % 4
    if kind == 0:
        return f"v{i}"
    if kind == 1:
        return i * 0.5
    if kind == 2:
        return (i, "t")
    return None


def drive(dataset: str, seed: int, layout: str, backend: str) -> AlexIndex:
    keys = load(dataset, 8000, seed=seed)
    rng = np.random.default_rng(seed)
    rng.shuffle(keys)
    bulk, batch, scalar = keys[:2000], keys[2000:6000], keys[6000:7000]
    index = AlexIndex.bulk_load(
        bulk, [payload_for(i) for i in range(len(bulk))],
        config=LAYOUTS[layout](max_keys_per_node=256, split_on_inserts=True,
                               kernel_backend=backend))
    index.insert_many(batch, [payload_for(i) for i in range(len(batch))])
    for i, key in enumerate(scalar.tolist()):
        index.insert(key, payload_for(i))
    index.delete_many(bulk[:1500])
    for key in batch[:300].tolist():
        index.delete(key)
    index.validate()
    return index


def leaf_states(index: AlexIndex, model_format) -> list:
    states = []
    for leaf in index.leaves():
        model = (None if leaf.model is None else
                 (model_format(leaf.model.slope),
                  model_format(leaf.model.intercept)))
        states.append((leaf.keys.tobytes(), leaf.occupied.tobytes(),
                       repr(leaf.payloads.tolist()), leaf.capacity,
                       leaf.num_keys, model))
    return states


def fingerprint(index: AlexIndex) -> str:
    digest = hashlib.sha256()
    for keys, occupied, payloads, *shape in leaf_states(
            index, lambda x: f"{x:.9g}"):
        digest.update(keys)
        digest.update(occupied)
        digest.update(payloads.encode())
        digest.update(repr(tuple(shape)).encode())
    digest.update(repr(sorted(index.counters.as_dict().items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("backend", K.available_backends())
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dataset,seed", DATASETS,
                         ids=[name for name, _ in DATASETS])
def test_layout_matches_recorded_digest(dataset, seed, layout, backend):
    index = drive(dataset, seed, layout, backend)
    assert fingerprint(index) == DIGESTS[dataset, layout]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dataset,seed", DATASETS,
                         ids=[name for name, _ in DATASETS])
def test_backends_build_identical_leaves(dataset, seed, layout):
    runs = [drive(dataset, seed, layout, name)
            for name in K.available_backends()]
    exact = [leaf_states(index, lambda x: float(x).hex()) for index in runs]
    assert all(state == exact[0] for state in exact)
    assert all(index.counters == runs[0].counters for index in runs)


if __name__ == "__main__":
    # Prints the DIGESTS table for the checkout on PYTHONPATH.
    for name, seed in DATASETS:
        for layout in sorted(LAYOUTS):
            print(f"    ({name!r}, {layout!r}):\n        "
                  f"\"{fingerprint(drive(name, seed, layout, 'numpy'))}\",")
