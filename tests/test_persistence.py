"""Tests for index persistence (save/load round trips)."""

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from repro.analysis import alex_prediction_errors
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi, pma_armi
from repro.core.errors import PersistenceError
from repro.core.kernels import get_kernels
from repro.durability.persistence import (FORMAT_MAGIC, FORMAT_VERSION,
                                   load_index, save_index)


def assert_round_trip(index, path):
    """Save ``index`` to ``path``, load it back, and check the loaded
    index is valid and holds the same items."""
    save_index(index, path)
    loaded = load_index(path)
    loaded.validate()
    assert list(loaded.items()) == list(index.items())


def write_per_leaf_archive(index, path, version):
    """Write ``index`` in the pre-column layout of format versions 1 and
    2: three compressed members per leaf (keys, occupancy bitmap, the
    pickled full-capacity payload list); version 1 carries no format
    stamp.  The tree header is the current writer's, minus the leaves'
    slot ranges."""
    save_index(index, path)
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"]).decode())
    header["version"] = version
    if version == 1:
        del header["format"]
    for meta in header["leaves"]:
        del meta["slots"]
    arrays = {"header": np.frombuffer(json.dumps(header).encode(),
                                      dtype=np.uint8)}
    for i, leaf in enumerate(index.leaves()):
        arrays[f"keys_{i}"] = leaf.keys
        arrays[f"occ_{i}"] = leaf.occupied
        arrays[f"payloads_{i}"] = np.frombuffer(pickle.dumps(leaf.payloads),
                                                dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)


@pytest.fixture
def keys():
    return np.unique(np.random.default_rng(12).uniform(0, 1e6, 2000))


@pytest.mark.parametrize("factory", [ga_srmi, ga_armi, pma_armi],
                         ids=["ga-srmi", "ga-armi", "pma-armi"])
class TestRoundTrip:
    def test_contents_preserved(self, tmp_path, keys, factory):
        index = AlexIndex.bulk_load(keys, [f"p{i}" for i in range(len(keys))],
                                    config=factory(max_keys_per_node=256,
                                                   num_models=16))
        path = str(tmp_path / "index.npz")
        assert_round_trip(index, path)

    def test_loaded_index_supports_all_operations(self, tmp_path, keys,
                                                  factory):
        index = AlexIndex.bulk_load(keys, config=factory(
            max_keys_per_node=256, num_models=16))
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        loaded = load_index(path)
        loaded.insert(-1.0, "new")
        assert loaded.lookup(-1.0) == "new"
        loaded.delete(float(keys[0]))
        assert not loaded.contains(float(keys[0]))
        out = loaded.range_scan(float(np.sort(keys)[10]), 5)
        assert len(out) == 5
        loaded.validate()

    def test_models_preserved_exactly(self, tmp_path, keys, factory):
        # Loading must NOT retrain: prediction errors are bit-identical.
        index = AlexIndex.bulk_load(keys, config=factory(
            max_keys_per_node=256, num_models=16))
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        loaded = load_index(path)
        assert np.array_equal(alex_prediction_errors(index),
                              alex_prediction_errors(loaded))


class TestColumnLayout:
    @pytest.mark.parametrize("payloads, member", [
        (lambda n: [i * 0.5 for i in range(n)], "payload_column"),
        (lambda n: list(range(-n, 0)), "payload_column"),
        (lambda n: [2 ** 63 + i for i in range(n)], "payload_pickle"),
        (lambda n: [None if i % 3 else float(i) for i in range(n)],
         "payload_pickle"),
        (lambda n: [(i, "t") for i in range(n)], "payload_pickle"),
    ], ids=["floats", "ints", "beyond-int64", "mixed-none", "tuples"])
    def test_payloads_round_trip_with_their_types(self, tmp_path, keys,
                                                  payloads, member):
        values = payloads(len(keys))
        index = AlexIndex.bulk_load(keys, values,
                                    config=ga_armi(max_keys_per_node=256))
        path = str(tmp_path / "p.npz")
        save_index(index, path)
        with np.load(path) as archive:
            assert sorted(archive.files) == sorted(
                ["header", "keys", "occupied", member])
        loaded = load_index(path)
        loaded.validate()
        got = [payload for _, payload in loaded.items()]
        assert got == values
        assert [type(p) for p in got] == [type(p) for p in values]

    def test_slot_layout_preserved(self, tmp_path, keys):
        index = AlexIndex.bulk_load(keys, config=pma_armi(
            max_keys_per_node=256))
        for key in np.linspace(1.0, 9e5, 300):
            index.insert(float(key) + 0.25)
        path = str(tmp_path / "slots.npz")
        save_index(index, path)
        loaded = load_index(path)
        pairs = list(zip(index.leaves(), loaded.leaves()))
        assert len(pairs) == index.num_leaves() == loaded.num_leaves()
        for before, after in pairs:
            assert np.array_equal(before.keys, after.keys)
            assert np.array_equal(before.occupied, after.occupied)
            assert (before.capacity, before.num_keys) == (after.capacity,
                                                          after.num_keys)


def test_load_builds_no_leaf(tmp_path, keys, monkeypatch):
    """A load restores every leaf from the archive: it makes no
    ``fit_place`` kernel call, not even for the empty cold-start leaf a
    new index starts with."""
    index = AlexIndex.bulk_load(keys, config=ga_armi(max_keys_per_node=256))
    path = str(tmp_path / "index.npz")
    save_index(index, path)
    kernels = get_kernels(index.config.kernel_backend)
    calls = []
    real = kernels.fit_place

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "fit_place", counted)
    loaded = load_index(path)
    assert calls == []
    assert list(loaded.items()) == list(index.items())
    loaded.validate()


class TestStructuralEdgeCases:
    def test_empty_index(self, tmp_path):
        index = AlexIndex.bulk_load([])
        path = str(tmp_path / "empty.npz")
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == 0
        loaded.insert(1.0)
        assert loaded.contains(1.0)

    def test_single_leaf_root(self, tmp_path):
        index = AlexIndex.bulk_load(np.arange(50.0))
        path = str(tmp_path / "leaf.npz")
        assert_round_trip(index, path)

    def test_split_tree_with_shared_inner_slots(self, tmp_path, keys):
        # After node splitting, one inner node may occupy several parent
        # slots; the format must deduplicate it.
        config = dataclasses.replace(ga_armi(max_keys_per_node=128),
                                     split_on_inserts=True)
        sorted_keys = np.sort(keys)
        index = AlexIndex.bulk_load(sorted_keys[:1000], config=config)
        for key in sorted_keys[1000:]:
            index.insert(float(key))
        assert index.counters.splits > 0
        path = str(tmp_path / "split.npz")
        assert_round_trip(index, path)

    def _rewrite_header(self, path, mutate):
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["header"]).decode())
        mutate(header)
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez_compressed(f, **arrays)

    def _saved(self, tmp_path, keys, name):
        index = AlexIndex.bulk_load(keys[:100])
        path = str(tmp_path / name)
        save_index(index, path)
        return path

    def test_format_is_version_stamped(self, tmp_path, keys):
        path = self._saved(tmp_path, keys, "v.npz")
        with np.load(path) as archive:
            header = json.loads(bytes(archive["header"]).decode())
        assert header["format"] == FORMAT_MAGIC
        assert header["version"] == FORMAT_VERSION

    def test_unsupported_version_raises_persistence_error(self, tmp_path,
                                                          keys):
        path = self._saved(tmp_path, keys, "v.npz")
        self._rewrite_header(path, lambda h: h.update(version=999))
        with pytest.raises(PersistenceError, match="version"):
            load_index(path)

    def test_wrong_format_stamp_raises_persistence_error(self, tmp_path,
                                                         keys):
        path = self._saved(tmp_path, keys, "v.npz")
        self._rewrite_header(path,
                             lambda h: h.update(format="someone-elses"))
        with pytest.raises(PersistenceError, match="format stamp"):
            load_index(path)

    def test_version_1_archive_without_stamp_still_loads(self, tmp_path,
                                                         keys):
        index = AlexIndex.bulk_load(keys, [f"p{i}" for i in range(len(keys))],
                                    config=ga_armi(max_keys_per_node=256))
        path = str(tmp_path / "v1.npz")
        write_per_leaf_archive(index, path, version=1)
        loaded = load_index(path)
        loaded.validate()
        assert list(loaded.items()) == list(index.items())

    def test_version_2_archive_still_loads(self, tmp_path, keys):
        index = AlexIndex.bulk_load(keys, np.arange(len(keys)).tolist(),
                                    config=pma_armi(max_keys_per_node=256))
        path = str(tmp_path / "v2.npz")
        write_per_leaf_archive(index, path, version=2)
        loaded = load_index(path)
        loaded.validate()
        assert list(loaded.items()) == list(index.items())
        assert np.array_equal(alex_prediction_errors(index),
                              alex_prediction_errors(loaded))

    def test_foreign_npz_raises_persistence_error_not_keyerror(
            self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, data=np.arange(10.0))
        with pytest.raises(PersistenceError, match="no index header"):
            load_index(path)

    def test_non_npz_file_raises_persistence_error(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as f:
            f.write(b"this is not an archive")
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_file_size_reasonable(self, tmp_path, keys):
        index = AlexIndex.bulk_load(keys)
        path = str(tmp_path / "size.npz")
        save_index(index, path)
        # The uncompressed slot columns (8-byte keys plus a 1-byte
        # occupancy flag per slot, gaps included) stay within a few x of
        # the raw key bytes.
        assert os.path.getsize(path) < 40 * len(keys)
