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

The digests were re-recorded once since, when a bulk load stopped
building the empty cold-start leaf a new index starts with before its
tree replaced it: every leaf state is unchanged, and the counters differ
only by that leaf's eight gap-fill writes (adding them back to
``gap_fill_writes`` reproduces the earlier digests exactly).
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
        "fa25807a9acaf84ee4ab0cc0d49865def5b9ee9e2fdf873322cbf4602b9c984e",
    ("longitudes", "pma"):
        "da52a5a488fcdb940d68883ed368de54e2d6b0077b108faaf4ce41a3af5c7373",
    ("lognormal", "ga"):
        "efc442d51e275720e5ef95e7e500844a769ea37ba5625759c20e5f00512a2770",
    ("lognormal", "pma"):
        "4331daf9924624b1e72c0c3acef567b253da8e07afa0b842be54b0516b23982e",
    ("ycsb", "ga"):
        "2c8e0ada7816c006e7d927eac95fce0553933fa13f8498193a893924c80ad0d9",
    ("ycsb", "pma"):
        "5d58dcd2ed2469cd062dc5297b3be148ef553c72f61c22f9b9b01ae61639dec0",
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
