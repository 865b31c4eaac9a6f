"""Tests for the shared-memory storage views (:mod:`repro.core.shm`).

These cover the single-process contract — pickling handles, zero-copy
attachment, payload encodings, and segment lifecycle; the cross-process
paths are exercised end-to-end by the process-backend tests in
``test_sharded.py``.
"""

import pickle

import numpy as np
import pytest

from repro.core.shm import (PAYLOAD_NONE, PAYLOAD_NUMERIC, PAYLOAD_PICKLE,
                            SharedArray, ShardStorageView)


class TestSharedArray:
    def test_round_trip_through_pickle(self):
        data = np.linspace(0, 1, 257)
        handle = SharedArray.create(data)
        try:
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.name == handle.name
            assert np.array_equal(clone.array(), data)
            clone.close()
        finally:
            handle.unlink()

    def test_attached_view_is_zero_copy(self):
        data = np.arange(64, dtype=np.float64)
        handle = SharedArray.create(data)
        try:
            clone = pickle.loads(pickle.dumps(handle))
            view = clone.array()
            # Writes through the creator's mapping are visible in the
            # attached view: same physical pages, not a copy.
            handle.array()[7] = -1.0
            assert view[7] == -1.0
            copied = clone.copy()
            handle.array()[7] = -2.0
            assert copied[7] == -1.0  # the copy is independent
            clone.close()
        finally:
            handle.unlink()

    def test_empty_array(self):
        handle = SharedArray.create(np.empty(0, dtype=np.float64))
        try:
            assert len(handle.array()) == 0
            assert pickle.loads(pickle.dumps(handle)).shape == (0,)
        finally:
            handle.unlink()

    def test_unlink_destroys_segment(self):
        handle = SharedArray.create(np.ones(8))
        name = handle.name
        handle.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArray(name, (8,), "<f8").array()
        handle.unlink()  # idempotent


class TestShardStorageView:
    def _pack_unpack(self, keys, payloads):
        view = ShardStorageView.pack(np.asarray(keys, dtype=np.float64),
                                     payloads)
        try:
            clone = pickle.loads(pickle.dumps(view))
            out_keys, out_payloads = clone.unpack(copy=True)
            clone.close()
            return view.payload_kind, out_keys, out_payloads
        finally:
            view.unlink()

    def test_none_payloads(self):
        kind, keys, payloads = self._pack_unpack([1.0, 2.0, 3.0], None)
        assert kind == PAYLOAD_NONE
        assert keys.tolist() == [1.0, 2.0, 3.0]
        assert payloads == [None, None, None]

    def test_numeric_payloads_round_trip_exactly(self):
        kind, _, payloads = self._pack_unpack([1.0, 2.0, 3.0], [10, 20, 30])
        assert kind == PAYLOAD_NUMERIC
        assert payloads == [10, 20, 30]
        assert all(isinstance(p, int) for p in payloads)

    def test_object_payloads_fall_back_to_pickle(self):
        kind, _, payloads = self._pack_unpack(
            [1.0, 2.0, 3.0], ["a", ("b", 2), None])
        assert kind == PAYLOAD_PICKLE
        assert payloads == ["a", ("b", 2), None]

    def test_unpacked_keys_outlive_the_segments(self):
        view = ShardStorageView.pack(np.arange(32, dtype=np.float64),
                                     None)
        keys, _ = view.unpack(copy=True)
        view.unlink()
        assert keys.sum() == np.arange(32).sum()  # still readable

    def test_empty_shard(self):
        kind, keys, payloads = self._pack_unpack([], None)
        assert kind == PAYLOAD_NONE
        assert len(keys) == 0 and payloads is None
