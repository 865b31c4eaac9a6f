"""The :class:`~repro.baselines.OrderedIndex` contract, checked on every
structure the benchmarks compare: the four ALEX variants of the paper
(GA/PMA leaves × static/adaptive RMI), the B+Tree, the Learned Index and
its delta-buffer variant.  The harness drives them all through the same
workloads, so each must answer every operation the same way, errors
included."""

import random

import numpy as np
import pytest

from repro.baselines import (BPlusTree, DeltaLearnedIndex, LearnedIndex,
                             OrderedIndex)
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi, pma_armi, pma_srmi
from repro.core.errors import DuplicateKeyError, KeyNotFoundError


def _alex(factory):
    def build(keys, payloads=None):
        return AlexIndex.bulk_load(keys, payloads,
                                   config=factory(max_keys_per_node=64))
    return build


#: name -> ``build(keys, payloads=None)``.  Small node and model sizes so
#: a few hundred keys already span several leaves, models and pages.
SYSTEMS = {
    "alex-ga-srmi": _alex(ga_srmi),
    "alex-ga-armi": _alex(ga_armi),
    "alex-pma-srmi": _alex(pma_srmi),
    "alex-pma-armi": _alex(pma_armi),
    "bptree": lambda keys, payloads=None: BPlusTree.bulk_load(
        keys, payloads, page_size=128),
    "learned": lambda keys, payloads=None: LearnedIndex.bulk_load(
        keys, payloads, num_models=8),
    "delta-learned": lambda keys, payloads=None: DeltaLearnedIndex.bulk_load(
        keys, payloads, num_models=8),
}


@pytest.fixture(params=sorted(SYSTEMS))
def build(request):
    return SYSTEMS[request.param]


@pytest.fixture
def keys():
    """300 unique keys, every one an even integer so odd values are
    guaranteed misses that fall between two stored keys."""
    rng = np.random.default_rng(7)
    return np.sort(rng.choice(np.arange(0, 20000, 2), size=300,
                              replace=False)).astype(np.float64)


def _pairs(keys):
    return [(float(k), int(k) * 10) for k in keys]


def _loaded(build, keys):
    return build(keys, [int(k) * 10 for k in keys])


def test_satisfies_the_protocol(build, keys):
    assert isinstance(_loaded(build, keys), OrderedIndex)


def test_bulk_load_holds_every_pair_in_key_order(build, keys):
    index = _loaded(build, keys)
    assert len(index) == len(keys)
    assert list(index.items()) == _pairs(keys)


def test_bulk_load_sorts_unsorted_input_with_its_payloads(build, keys):
    shuffled = keys.copy()
    np.random.default_rng(3).shuffle(shuffled)
    index = build(shuffled, [int(k) * 10 for k in shuffled])
    assert list(index.items()) == _pairs(keys)


def test_bulk_load_rejects_duplicate_keys(build, keys):
    with pytest.raises(DuplicateKeyError):
        build(np.append(keys, keys[17]))


def test_lookup_returns_every_payload(build, keys):
    index = _loaded(build, keys)
    for key in keys:
        assert index.lookup(key) == int(key) * 10


def test_absent_keys_raise_and_read_as_absent(build, keys):
    index = _loaded(build, keys)
    for miss in (keys[0] - 1.0, keys[150] + 1.0, keys[-1] + 1.0):
        with pytest.raises(KeyNotFoundError):
            index.lookup(miss)
        assert not index.contains(miss)
        assert index.get(miss, "dflt") == "dflt"


def test_contains_and_get_on_present_keys(build, keys):
    index = _loaded(build, keys)
    for key in keys[::7]:
        assert index.contains(key)
        assert index.get(key) == int(key) * 10


def test_insert_then_read_back_in_order(build, keys):
    index = _loaded(build, keys)
    fresh = [keys[0] - 5.0, keys[100] + 1.0, keys[-1] + 3.0]
    for key in fresh:
        index.insert(key, "new")
    assert len(index) == len(keys) + len(fresh)
    for key in fresh:
        assert index.lookup(key) == "new"
    stored = [k for k, _ in index.items()]
    assert stored == sorted(stored)
    assert set(fresh) <= set(stored)


def test_duplicate_insert_raises_and_changes_nothing(build, keys):
    index = _loaded(build, keys)
    with pytest.raises(DuplicateKeyError):
        index.insert(keys[42], "again")
    assert len(index) == len(keys)
    assert index.lookup(keys[42]) == int(keys[42]) * 10


def test_delete_removes_only_that_key(build, keys):
    index = _loaded(build, keys)
    index.delete(keys[0])
    index.delete(keys[123])
    index.delete(keys[-1])
    assert len(index) == len(keys) - 3
    gone = {keys[0], keys[123], keys[-1]}
    assert list(index.items()) == [p for p in _pairs(keys)
                                   if p[0] not in gone]
    with pytest.raises(KeyNotFoundError):
        index.lookup(keys[123])


def test_delete_of_absent_key_raises(build, keys):
    index = _loaded(build, keys)
    with pytest.raises(KeyNotFoundError):
        index.delete(keys[10] + 1.0)
    assert len(index) == len(keys)


def test_update_replaces_payload_or_raises(build, keys):
    index = _loaded(build, keys)
    index.update(keys[5], "changed")
    assert index.lookup(keys[5]) == "changed"
    with pytest.raises(KeyNotFoundError):
        index.update(keys[5] + 1.0, "nope")
    assert len(index) == len(keys)


@pytest.mark.parametrize("start, limit", [
    (-1e9, 10),        # before the first key
    (None, 25),        # exactly on a stored key
    ("gap", 40),       # between two stored keys
    ("tail", 50),      # fewer than ``limit`` keys remain
    (1e9, 5),          # past the last key
    (None, 0),         # empty limit
])
def test_range_scan_matches_a_sorted_reference(build, keys, start, limit):
    index = _loaded(build, keys)
    if start is None:
        start = float(keys[60])
    elif start == "gap":
        start = float(keys[60]) + 1.0
    elif start == "tail":
        start = float(keys[-10])
    expected = [p for p in _pairs(keys) if p[0] >= start][:limit]
    assert index.range_scan(start, limit) == expected


def test_random_operation_mix_agrees_with_a_dict(build, keys):
    index = _loaded(build, keys)
    model = dict(_pairs(keys))
    rng = random.Random(11)
    for _ in range(600):
        key = float(rng.randrange(-50, 20050))
        op = rng.random()
        if op < 0.4:
            if key in model:
                with pytest.raises(DuplicateKeyError):
                    index.insert(key, key)
            else:
                index.insert(key, key)
                model[key] = key
        elif op < 0.7:
            if key in model:
                index.delete(key)
                del model[key]
            else:
                with pytest.raises(KeyNotFoundError):
                    index.delete(key)
        else:
            assert index.get(key) == model.get(key)
    assert len(index) == len(model)
    assert list(index.items()) == sorted(model.items())


def test_grows_from_empty(build):
    index = build(np.array([], dtype=np.float64))
    assert len(index) == 0
    assert list(index.items()) == []
    assert index.range_scan(0.0, 10) == []
    for key in (5.0, 1.0, 3.0):
        index.insert(key, key * 2)
    assert list(index.items()) == [(1.0, 2.0), (3.0, 6.0), (5.0, 10.0)]


def test_size_accounting_tracks_the_data(build, keys):
    small = _loaded(build, keys[:50])
    large = _loaded(build, keys)
    assert small.index_size_bytes() >= 0
    assert 0 < small.data_size_bytes() < large.data_size_bytes()
