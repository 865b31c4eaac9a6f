"""The one-call leaf build of bulk loads and splits.

A bulk load plans its leaves first (Algorithm 4) and then fits and
places all of them in one ``fit_place`` kernel call, with the leaves
taking views of one shared key buffer and one shared bitmap.  These
tests pin that this is only a faster way to build the same tree:

* the tree, its exact model bits, its ``Counters`` and the
  ``core.leaf_nodes_created`` tally equal those of rebuilding each
  planned leaf on its own through the one-segment path;
* writes to one leaf never reach its neighbours' slots in the shared
  buffers, and a checkpoint round trip still works;
* keys of extreme magnitude build flat models with no warning;
* a bulk load types its payloads in one ``type_payloads`` call, plans
  the whole tree in one ``plan_adaptive`` call and builds it in one
  ``fit_place`` call, with no empty cold-start leaf built first;
* a new leaf allocates no array before its build.
"""

import warnings

import numpy as np
import pytest

from repro import obs
from repro.core import adaptive, rmi
from repro.core import kernels as K
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi, pma_armi
from repro.core.data_node import DataNode
from repro.core.rmi import InnerNode, make_data_node
from repro.core.stats import Counters
from repro.datasets.generators import load
from repro.durability.persistence import load_index, save_index

BACKENDS = K.available_backends()
CONFIGS = {"ga": ga_armi, "pma": pma_armi, "srmi": ga_srmi}


def one_segment_leaves(keys, payloads, bounds, config, counters,
                       policy=None):
    """``build_leaves`` leaf by leaf, each through ``DataNode.build``."""
    leaves = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        leaf = make_data_node(config, counters, policy)
        leaf.build(keys[lo:hi], payloads[lo:hi])
        leaves.append(leaf)
    return leaves


def tree_state(index: AlexIndex):
    """Every leaf's exact layout and model bits, plus the inner nodes'
    models and slot-to-leaf maps, in key order."""
    leaves = list(index.leaves())
    ordinal = {id(leaf): i for i, leaf in enumerate(leaves)}
    state = []
    for leaf in leaves:
        model = (None if leaf.model is None else
                 (leaf.model.slope.hex(), leaf.model.intercept.hex()))
        state.append((leaf.keys.tobytes(), leaf.occupied.tobytes(),
                      repr(leaf.payloads), leaf.capacity, leaf.num_keys,
                      model))
    for node in index.nodes():
        if isinstance(node, InnerNode):
            state.append((node.model.slope.hex(), node.model.intercept.hex(),
                          [ordinal.get(id(c), "inner")
                           for c in node.children]))
    return state


def leaves_created() -> int:
    return obs.snapshot()["counters"].get("core.leaf_nodes_created", 0)


def build_and_grow(dataset, config):
    keys = load(dataset, 6000, seed=5)
    rng = np.random.default_rng(5)
    rng.shuffle(keys)
    before = leaves_created()
    index = AlexIndex.bulk_load(keys[:4000],
                                [f"v{i}" for i in range(4000)], config=config)
    # Batch merges that overflow leaves: their split-down children go
    # through the same multi-segment build.
    index.insert_many(keys[4000:], list(range(2000)))
    index.validate()
    return index, leaves_created() - before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("layout", sorted(CONFIGS))
@pytest.mark.parametrize("dataset", ["longitudes", "lognormal"])
def test_one_call_build_equals_leaf_by_leaf(dataset, layout, backend,
                                            monkeypatch):
    config = CONFIGS[layout](max_keys_per_node=200, split_on_inserts=True,
                             kernel_backend=backend)
    index, created = build_and_grow(dataset, config)
    monkeypatch.setattr(adaptive, "build_leaves", one_segment_leaves)
    monkeypatch.setattr(rmi, "build_leaves", one_segment_leaves)
    reference, ref_created = build_and_grow(dataset, config)
    assert index.num_leaves() > 4
    assert tree_state(index) == tree_state(reference)
    assert index.counters == reference.counters
    assert created == ref_created


@pytest.mark.parametrize("backend", BACKENDS)
def test_writes_to_one_leaf_leave_neighbours_untouched(backend, tmp_path):
    keys = np.sort(load("lognormal", 5000, seed=9))
    index = AlexIndex.bulk_load(keys[::2], [f"v{i}" for i in range(2500)],
                                config=ga_armi(max_keys_per_node=256,
                                               kernel_backend=backend))
    leaves = list(index.leaves())
    assert len(leaves) >= 3
    mid = leaves[len(leaves) // 2]
    left, right = mid.prev_leaf, mid.next_leaf
    assert mid.keys.base is not None
    assert mid.keys.base is left.keys.base is right.keys.base
    assert mid.occupied.base is left.occupied.base is right.occupied.base
    before = [(n.keys.tobytes(), n.occupied.tobytes()) for n in (left, right)]

    # The odd keys between mid's first and last key land inside it.
    lo, hi = mid.min_key(), mid.max_key()
    fresh = [k for k in keys[1::2].tolist() if lo < k < hi]
    shifts, expansions = index.counters.shifts, index.counters.expansions
    for key in fresh:
        index.insert(key, "new")
    assert index.counters.shifts > shifts
    assert index.counters.expansions > expansions
    assert mid.keys.base is not left.keys.base  # expanded into its own
    assert [(n.keys.tobytes(), n.occupied.tobytes())
            for n in (left, right)] == before
    index.validate()

    path = str(tmp_path / "index.npz")
    save_index(index, path)
    restored = load_index(path)
    restored.validate()
    assert list(restored.items()) == list(index.items())


BULK_KERNELS = ("type_payloads", "plan_adaptive", "fit_place", "fit_cdf",
                "predict_clamp")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["float", "int", "object"])
def test_one_typing_and_one_planning_call_per_bulk_load(backend, kind,
                                                        monkeypatch):
    kernels = K.get_kernels(backend)
    calls = []
    for name in BULK_KERNELS:
        def counted(*args, _name=name, _kernel=getattr(kernels, name)):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    keys = np.sort(load("lognormal", 20_000, seed=3))
    payloads = {"float": (keys * 2.0).tolist(),
                "int": list(range(len(keys))),
                "object": [f"v{i}" for i in range(len(keys))]}[kind]
    config = ga_armi(max_keys_per_node=256, kernel_backend=backend)
    index = AlexIndex.bulk_load(keys, payloads, config=config)
    assert sum(isinstance(node, InnerNode) for node in index.nodes()) > 4
    assert index.payload_dtype == np.dtype(kind if kind != "int"
                                           else np.int64)
    assert calls.count("type_payloads") == calls.count("plan_adaptive") == 1
    # One fit_place builds every planned leaf; the empty leaf a new index
    # starts with is never built.
    assert calls.count("fit_place") == 1
    # The numpy reference runs Algorithm 4's recursion in Python, through
    # its own fit and predict kernels; the compiled plan makes none.
    if kernels.compiled:
        assert calls.count("fit_cdf") == calls.count("predict_clamp") == 0
    index.validate()


def test_new_leaves_allocate_no_arrays():
    # Every leaf is built right after it is made, so until then it
    # shares the class's empty, read-only arrays.
    leaves = rmi.make_leaves(3, ga_armi(), Counters())
    for leaf in leaves:
        for name in ("keys", "payloads", "occupied"):
            assert name not in vars(leaf)
            assert getattr(leaf, name) is getattr(DataNode, name)
            assert not getattr(leaf, name).flags.writeable
    leaves[0].build(np.arange(10.0))
    assert len(leaves[0].keys) >= 10 and len(leaves[1].keys) == 0


EXTREME = {
    "pm1e300": np.linspace(-1e300, 1e300, 3000),
    "subnormal": np.concatenate([-np.arange(1500, 0, -1),
                                 np.arange(1, 1501)]) * 5e-324,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(EXTREME))
def test_extreme_keys_build_flat_models_without_warnings(name, backend):
    keys = EXTREME[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = AlexIndex.bulk_load(
            keys, list(range(len(keys))),
            config=ga_armi(max_keys_per_node=1024, kernel_backend=backend))
        index.validate()
        for leaf in index.leaves():
            # Squares overflow (or underflow to zero): the flat model at
            # the mean rank, whose sequential sum the test repeats.
            n, scale = leaf.num_keys, leaf.capacity / leaf.num_keys
            mean_rank = 0.0
            for i in range(n):
                mean_rank += i * scale
            mean_rank /= n
            assert (leaf.model.slope.hex(), leaf.model.intercept.hex()) == (
                (0.0).hex(), mean_rank.hex())
        assert [index.get(k) for k in keys.tolist()] == list(range(len(keys)))
