"""The process backend's frame codec (``_encode``/``_send``/``_decode``
in :mod:`repro.serve.worker`), over a real socket pair.

A small frame is one in-band ``send_bytes`` of its pickle stream.  A
large one sends a header of part sizes, then the pickle stream and each
large numeric buffer straight from the array's memory; the far end reads
them into one preallocated buffer that the decoded arrays are views of.
A peer that dies mid-frame or writes a garbled header must fail every
pending request with :class:`WorkerDiedError` and stop the reply
reader, never hang it.
"""

import multiprocessing
import os
import pickle
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve.backend import WorkerDiedError
from repro.serve.worker import (_OUT_OF_BAND_BYTES, _PART_ALIGN,
                                _WorkerHandle, _decode, _encode)

MIB = 1 << 20


def receive_buffer(array: np.ndarray):
    """The object at the bottom of an array's ``base`` chain."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


def _write_raw(conn, data: bytes) -> None:
    view = memoryview(data)
    while view.nbytes:
        view = view[os.write(conn.fileno(), view):]


def _handle(conn) -> _WorkerHandle:
    """A parent-side handle on ``conn`` whose process never exits."""
    return _WorkerHandle(SimpleNamespace(is_alive=lambda: True), conn,
                         shard=3, max_inflight=4)


class TestEncode:
    def test_a_small_frame_is_one_in_band_pickle(self, wire):
        message = (7, None, "call", "get_many", (np.arange(16.0),))
        header, parts = _encode(message)
        assert parts == ()
        assert bytes(header[:2]) == b"\x80\x05"  # PROTO 5
        got = wire(message)
        assert got[:4] == message[:4]
        assert got[4][0].tolist() == list(range(16))

    def test_a_large_column_goes_out_of_band_without_a_copy(self):
        """The no-copy contract, pinned without memory counters: the
        out-of-band buffer of a 1 MiB column is the column's memory."""
        keys = np.arange(MIB // 8, dtype=np.float64)
        column = keys * 2.0
        header, parts = _encode((0, None, "load", keys, column, None))
        stream, *buffers = parts
        assert len(buffers) == 2
        assert np.shares_memory(buffers[0], keys)
        assert np.shares_memory(buffers[1], column)
        assert header == b"B" + struct.pack(
            "<3Q", stream.nbytes, keys.nbytes, column.nbytes)

    def test_a_long_stream_alone_goes_out_of_band(self):
        """An object column has no buffer to lend, but its long pickle
        stream skips the in-band path too."""
        column = np.array([(i, str(i)) for i in range(20_000)],
                          dtype=object)
        header, parts = _encode(column)
        assert len(parts) == 1 and parts[0].nbytes >= _OUT_OF_BAND_BYTES
        assert header == b"B" + struct.pack("<Q", parts[0].nbytes)

    def test_an_unpicklable_payload_raises_before_any_byte(self):
        """Encoding happens before a request takes a slot or touches the
        pipe, so a payload that does not pickle leaves the stream whole:
        the next request is the first frame the worker reads."""
        conn, peer = multiprocessing.Pipe()
        handle = _handle(conn)
        try:
            with pytest.raises((pickle.PicklingError, AttributeError,
                                TypeError)):
                handle.frame(("call", "insert_many",
                              (np.arange(MIB / 8), [lambda: 0])), None)
            assert not peer.poll(0.1) and not handle.pending
            handle.send(*handle.frame(("call", "num_keys", ()), None))
            assert _decode(peer)[2:] == ("call", "num_keys", ())
        finally:
            handle.closing = True
            conn.close()
            peer.close()


class TestDecode:
    def test_multi_mib_keys_and_column_round_trip(self, wire):
        keys = np.sort(np.random.default_rng(3).uniform(0, 1e9, 3 * MIB // 8))
        column = np.arange(len(keys), dtype=np.int64)
        got = wire((1, None, "load", keys, column, None))
        assert got[:3] == (1, None, "load") and got[5] is None
        assert got[3].tobytes() == keys.tobytes()
        assert got[4].dtype == np.int64
        assert np.array_equal(got[4], column)

    def test_decoded_arrays_are_aligned_views_of_one_receive_buffer(
            self, wire):
        keys = np.arange(MIB // 8, dtype=np.float64)
        column = np.arange(MIB // 8 + 3, dtype=np.int64)
        got_keys, got_column = wire((keys, column))
        buffer = receive_buffer(got_keys)
        assert isinstance(buffer, bytearray)
        assert receive_buffer(got_column) is buffer
        start = np.frombuffer(buffer, np.uint8).ctypes.data
        for array in (got_keys, got_column):
            assert array.flags.aligned and array.flags.writeable
            assert (array.ctypes.data - start) % _PART_ALIGN == 0

    @pytest.mark.parametrize("n", [4, MIB // 8])
    def test_a_read_only_array_arrives_read_only(self, wire, n):
        frozen = np.arange(float(n))
        frozen.flags.writeable = False
        got_frozen, got_open = wire((frozen, np.arange(float(n))))
        assert not got_frozen.flags.writeable
        assert got_open.flags.writeable
        assert np.array_equal(got_frozen, frozen)

    @pytest.mark.parametrize("column", [
        np.empty(0, dtype=np.int64), np.empty(0, dtype=object),
        np.array(["a", ("b", 2), None], dtype=object)],
        ids=["empty int64", "empty object", "object"])
    def test_empty_and_object_columns(self, wire, column):
        got = wire((np.arange(float(len(column))), column))[1]
        assert got.dtype == column.dtype
        assert got.tolist() == column.tolist()


class TestBrokenPeer:
    """The far end is a bare connection that plays a worker gone
    wrong."""

    @staticmethod
    def _pending(handle, peer, count=3) -> list:
        futures = [handle.send(*handle.frame(("call", "num_keys", ()),
                                             None))
                   for _ in range(count)]
        for _ in range(count):
            assert _decode(peer)[2] == "call"
        return futures

    @staticmethod
    def _assert_all_failed(handle, futures) -> None:
        for future in futures:
            with pytest.raises(WorkerDiedError, match="shard 3"):
                future.result(timeout=10)
        handle.reader.join(timeout=10)
        assert not handle.reader.is_alive()

    def test_a_peer_dying_mid_buffer_fails_every_pending_request(self):
        conn, peer = multiprocessing.Pipe()
        handle = _handle(conn)
        try:
            futures = self._pending(handle, peer)
            # Promise a 1 MiB buffer, deliver a third of it, and die.
            peer.send_bytes(b"B" + struct.pack("<2Q", 16, MIB))
            _write_raw(peer, bytes(16 + MIB // 3))
            peer.close()
            self._assert_all_failed(handle, futures)
        finally:
            handle.closing = True
            conn.close()

    @pytest.mark.parametrize("header", [
        b"B" + bytes(5), b"B", b"\x00not a pickle"],
        ids=["ragged sizes", "no sizes", "not a pickle"])
    def test_a_garbled_header_fails_every_pending_request(self, header):
        """The stream is out of step after a frame that does not
        decode: every pending request fails, the reader stops, the pipe
        is shut down so the next send fails at once, and the peer reads
        end-of-file."""
        conn, peer = multiprocessing.Pipe()
        handle = _handle(conn)
        try:
            futures = self._pending(handle, peer)
            peer.send_bytes(header)
            self._assert_all_failed(handle, futures)
            late = handle.send(*handle.frame(("call", "num_keys", ()),
                                             None))
            with pytest.raises(WorkerDiedError, match="on send"):
                late.result(timeout=10)
            assert peer.poll(10)
            with pytest.raises(EOFError):
                peer.recv_bytes()
        finally:
            handle.closing = True
            conn.close()
            peer.close()
