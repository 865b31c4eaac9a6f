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
                            REPLY_ARRAY, REPLY_LIST, ReplyRing, RingFull,
                            SharedArray, ShardStorageView, decode_reply,
                            encode_reply)


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


class TestTwoPhaseSegmentEconomy:
    """The two-phase cross-shard writes must copy their key batch into
    shared memory exactly once: ``publish`` pins one segment that both
    the validate and the apply scatter reuse (the PR 4 follow-up that
    folded the two per-phase segment creations into one)."""

    @pytest.mark.parametrize("op", ["insert_many", "delete_many"])
    def test_two_phase_write_creates_one_segment(self, monkeypatch, op):
        from repro.serve import ShardedAlexIndex

        keys = np.unique(np.random.default_rng(60).uniform(0, 1e6, 2000))
        service = ShardedAlexIndex.bulk_load(keys, num_shards=2,
                                             backend="process")
        try:
            creations = []
            real_create = SharedArray.create.__func__

            def counting_create(array):
                creations.append(len(array))
                return real_create(SharedArray, array)

            monkeypatch.setattr(SharedArray, "create",
                                staticmethod(counting_create))
            if op == "insert_many":
                batch = np.unique(
                    np.random.default_rng(61).uniform(2e6, 3e6, 500))
                service.insert_many(batch)
            else:
                batch = keys[100:600]
                service.delete_many(batch)
            assert creations == [len(batch)], (
                "expected exactly one shared segment for the whole "
                f"two-phase {op}, saw {len(creations)} creations")
        finally:
            service.close()


class TestReplyEncoding:
    def test_numeric_arrays_are_eligible(self):
        for array in (np.arange(5, dtype=np.float64),
                      np.array([1, 2, 3], dtype=np.int32),
                      np.array([True, False])):
            column, kind = encode_reply(array)
            assert kind == REPLY_ARRAY
            decoded = decode_reply(column.copy(), kind)
            np.testing.assert_array_equal(decoded, array)
            assert decoded.dtype == array.dtype

    def test_homogeneous_payload_lists_round_trip_exact_types(self):
        for payload in ([1.5, 2.5, -0.25], [1, 2, 3]):
            column, kind = encode_reply(payload)
            assert kind == REPLY_LIST
            decoded = decode_reply(column.copy(), kind)
            assert decoded == payload
            assert [type(v) for v in decoded] == [type(v) for v in payload]

    def test_ineligible_results_stay_on_the_pipe(self):
        assert encode_reply(["a", "b"]) is None          # objects
        assert encode_reply([1.0, None]) is None         # miss holes
        assert encode_reply([1, 2.0]) is None            # mixed numerics
        assert encode_reply([]) is None                  # nothing to ship
        assert encode_reply(np.zeros((2, 2))) is None    # not a column
        assert encode_reply({"k": 1}) is None
        assert encode_reply([10 ** 400]) is None         # overflows float


class TestReplyRing:
    def test_write_read_round_trip(self):
        ring = ReplyRing.create(capacity=1 << 12)
        try:
            column = np.linspace(0, 1, 101)
            descriptor = ring.read(ring.try_write(column))
            np.testing.assert_array_equal(descriptor, column)
        finally:
            ring.unlink()

    def test_wrap_around_pads_and_stays_correct(self):
        """Lanes never straddle the ring edge: a write that would wrap
        pads to the front, and the ordered release accounting keeps the
        free-space arithmetic right across many laps."""
        ring = ReplyRing.create(capacity=1 << 10)  # 1 KiB: forces wraps
        try:
            rng = np.random.default_rng(5)
            for lap in range(200):
                # Worst case needs pad + nbytes < 2*nbytes contiguous
                # bytes, so stay under half the capacity.
                column = rng.uniform(size=int(rng.integers(1, 48)))
                offset, used, shape, dtype = ring.try_write(column)
                assert offset + column.nbytes <= ring.capacity
                assert used >= column.nbytes  # wrap padding counted
                out = ring.read((offset, used, shape, dtype))
                np.testing.assert_array_equal(out, column)
        finally:
            ring.unlink()

    def test_ring_full_raises_with_unread_lanes(self):
        ring = ReplyRing.create(capacity=1 << 10)
        try:
            big = np.zeros(100)  # 800 bytes: only one fits unread
            pending = ring.try_write(big)
            with pytest.raises(RingFull):
                ring.try_write(big)
            ring.read(pending)       # release frees the space
            ring.try_write(big)      # now it fits again
            with pytest.raises(RingFull):
                ring.try_write(np.zeros(1 << 10))  # larger than capacity
        finally:
            ring.unlink()

    def test_pickles_as_an_attachment_handle(self):
        """The worker's copy arrives pickled with its launch: same
        segment, not an owner (unlink stays the parent's job)."""
        ring = ReplyRing.create(capacity=1 << 12)
        try:
            column = np.arange(7, dtype=np.float64)
            descriptor = ring.try_write(column)
            clone = pickle.loads(pickle.dumps(ring))
            assert clone.name == ring.name
            assert clone.capacity == ring.capacity
            assert clone._owner is False
            np.testing.assert_array_equal(clone.read(descriptor), column)
            clone.close()
        finally:
            ring.unlink()
