"""Shared-memory storage views: picklable, attachable leaf array snapshots.

ALEX keeps every leaf's keys and payloads in contiguous arrays, which map
naturally onto POSIX shared memory: a :class:`SharedArray` is a picklable
*handle* (segment name + shape + dtype) to a NumPy array living in a
:class:`multiprocessing.shared_memory.SharedMemory` segment, so a parent
process and a long-lived shard worker can exchange whole key batches and
leaf snapshots by sending only the handle over a pipe — the array bytes
are never copied through the pipe, and the receiver maps them zero-copy.

:class:`ShardStorageView` bundles one shard's ``(keys, payloads)`` into
such segments.  Keys are always a ``float64`` :class:`SharedArray`;
payloads take the cheapest faithful encoding:

* ``none``    — every payload is ``None`` (nothing is stored);
* ``numeric`` — a homogeneous int/float column, stored as a second array
  (zero-copy like the keys, round-tripping through ``tolist``);
* ``pickle``  — arbitrary objects, pickled into a byte segment (one copy,
  but still transported out-of-band of the pipe).

:func:`numeric_column` decides ``numeric``, here and for reply rings, by
an *exact-kind* rule: a list of Python ``int`` only must become an
``int64`` column and a list of Python ``float`` only a ``float64`` one.
Anything else is pickled — ``bool`` or numpy scalars, mixed ``1`` /
``1.0``, and ints numpy would widen to ``uint64``, ``float64`` (any value
in ``[2**63, 2**64)``) or ``object`` — so every payload comes back with
its exact Python type and value.  A caller that already holds the column
(the sharded bulk load gathers it once, in numpy, with the key order)
hands it to :meth:`ShardStorageView.pack`, which copies it into the
segment as is.

:class:`ReplyRing` is the reverse direction: a long-lived
single-producer/single-consumer byte ring, one per shard worker, through
which *numeric replies* (hit masks, homogeneous payload columns) return
to the parent without ever being pickled or pushed through the pipe —
the pipe carries only a tiny ``(req_id, "shm", descriptor)`` frame.

Lifecycle contract: the *creator* of a view owns the segments and must
``unlink`` them exactly once, after every attaching process is done
reading (the process backend acks each message before its creator
unlinks).  Attachers only ever ``close``.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership.

    Python 3.13 grew ``track=False`` so attaching does not register the
    segment with the resource tracker at all.  On older versions the
    attach *does* register — but every attacher here is a worker the
    segment creator launched (the forkserver hands each one the
    creator's tracker), so both talk to the same tracker process and the
    re-registration is an idempotent set-add; the creator's single
    ``unlink`` keeps the bookkeeping exact.  (Do **not** unregister
    manually on attach: with a shared tracker that would erase the
    creator's registration and make its later unlink double-free.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name)


def _unregister_segment(segment: shared_memory.SharedMemory) -> None:
    """Drop the creator's tracker registration after a cross-process
    unlink (3.13+ attachers are untracked, so their ``unlink`` does not
    unregister; without this the shared tracker would warn about — and
    try to re-unlink — an already-destroyed segment at exit)."""
    if getattr(segment, "_track", True):
        return  # a tracked handle's unlink() already unregistered
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


class SharedArray:
    """A picklable handle to a NumPy array in a shared-memory segment.

    Only ``(name, shape, dtype)`` travel through pickle; the mapping is
    re-established lazily by :meth:`array` in whichever process unpickled
    the handle.
    """

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: str):
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype
        self._segment: Optional[shared_memory.SharedMemory] = None
        self._owner = False

    def __getstate__(self) -> dict:
        return {"name": self.name, "shape": self.shape, "dtype": self.dtype}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._segment = None
        self._owner = False

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh shared segment and return the
        owning handle (the creator must eventually :meth:`unlink`)."""
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        handle = cls(segment.name, array.shape, array.dtype.str)
        handle._segment = segment
        handle._owner = True
        return handle

    def array(self) -> np.ndarray:
        """The shared array, mapped zero-copy (attaches on first use in a
        non-creator process).  The view is only valid until :meth:`close`."""
        if self._segment is None:
            self._segment = _attach_segment(self.name)
        return np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                          buffer=self._segment.buf)

    def copy(self) -> np.ndarray:
        """An independent copy, safe to keep after the segment is gone."""
        return np.array(self.array(), copy=True)

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def unlink(self) -> None:
        """Destroy the segment (creator-side, exactly once)."""
        segment = self._segment
        if segment is None:
            try:
                segment = _attach_segment(self.name)
            except FileNotFoundError:
                return
        try:
            segment.close()
            segment.unlink()
            _unregister_segment(segment)
        except FileNotFoundError:
            pass
        self._segment = None


#: Payload encodings a :class:`ShardStorageView` distinguishes.
PAYLOAD_NONE = "none"
PAYLOAD_NUMERIC = "numeric"
PAYLOAD_PICKLE = "pickle"


#: Reply encodings a :class:`ReplyRing` lane can carry back to the
#: parent.  ``array`` round-trips a numeric/bool ndarray verbatim;
#: ``list`` restores a homogeneous int/float payload list via
#: ``tolist()`` (exact Python types, mirroring ``PAYLOAD_NUMERIC``).
REPLY_ARRAY = "array"
REPLY_LIST = "list"


def numeric_column(values) -> Optional[np.ndarray]:
    """``values`` as a 1-D ``int64`` or ``float64`` array whose
    ``tolist()`` restores it exactly, or ``None`` when it has no such
    column: only a non-empty list of Python ``int`` only (and in int64
    range) or of Python ``float`` only qualifies (see the module
    docstring's exact-kind rule)."""
    if (not isinstance(values, list) or not values
            or type(values[0]) not in (int, float)):
        return None
    kinds = {type(v) for v in values}
    if kinds == {int}:
        kind = "i"
    elif kinds == {float}:
        kind = "f"
    else:
        return None
    try:
        column = np.asarray(values)
    except (ValueError, OverflowError):
        return None
    # numpy widens an int beyond int64 to uint64, float64 or object.
    return column if column.dtype.kind == kind else None


def encode_reply(result):
    """``(column, kind)`` when ``result`` can travel through a reply
    ring, else ``None``.

    Eligible results are numeric/bool ndarrays (``contains_many`` hit
    masks, counts) and the payload lists (``get_many`` / ``lookup_many``)
    that :func:`numeric_column` accepts, so every value round-trips with
    its exact Python type.  Everything else (mixed payloads, ``None``
    defaults, arbitrary objects) stays on the pickle pipe.
    """
    if isinstance(result, np.ndarray):
        if result.ndim == 1 and result.dtype.kind in "biuf":
            return result, REPLY_ARRAY
        return None
    column = numeric_column(result)
    return None if column is None else (column, REPLY_LIST)


def decode_reply(column: np.ndarray, kind: str):
    """Reverse of :func:`encode_reply` (``column`` is already a copy)."""
    if kind == REPLY_LIST:
        return column.tolist()
    return column


class RingFull(Exception):
    """The ring lacks contiguous space for a reply (caller falls back to
    the pickle pipe — never an error surfaced to clients)."""


class ReplyRing:
    """A single-producer/single-consumer shared-memory reply ring.

    One per shard worker, created (and eventually unlinked) by the
    parent, attached by the worker.  The worker allocates a contiguous
    lane per numeric reply, copies the result column in, and sends only
    a small descriptor over the pipe; the parent's reply-reader thread —
    the *single* consumer — copies the lane out and releases it **in
    arrival order**, which matches allocation order because the worker
    executes requests serially.  Ordered release keeps the free-space
    arithmetic a pair of monotonically increasing cursors:

    * ``head`` — bytes ever allocated (written only by the worker);
    * ``tail`` — bytes ever released (written only by the reader).

    Both live at the front of the segment.  Cross-process visibility is
    sequenced by the pipe itself: the worker finishes writing the lane
    *before* sending the descriptor, and the reader releases *after*
    copying out, so neither side ever reads bytes the other is mid-write
    on.  A reply that does not fit contiguously (after wrap padding)
    raises :exc:`RingFull` and travels the pickle pipe instead.
    """

    _HEADER = 16  # two uint64 cursors: head, tail

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = int(capacity)
        self._segment: Optional[shared_memory.SharedMemory] = None
        self._owner = False

    def __getstate__(self) -> dict:
        return {"name": self.name, "capacity": self.capacity}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._segment = None
        self._owner = False

    @classmethod
    def create(cls, capacity: int = 1 << 22) -> "ReplyRing":
        """A fresh ring of ``capacity`` data bytes (parent-side)."""
        capacity = int(capacity)
        segment = shared_memory.SharedMemory(create=True,
                                             size=cls._HEADER + capacity)
        segment.buf[:cls._HEADER] = b"\x00" * cls._HEADER
        ring = cls(segment.name, capacity)
        ring._segment = segment
        ring._owner = True
        return ring

    def _buf(self):
        if self._segment is None:
            self._segment = _attach_segment(self.name)
        return self._segment.buf

    def _cursors(self) -> np.ndarray:
        return np.ndarray(2, dtype=np.uint64, buffer=self._buf())

    # -- producer side (worker process) --------------------------------

    def try_write(self, column: np.ndarray) -> tuple:
        """Copy ``column`` into a fresh lane; returns the descriptor
        ``(offset, used, shape, dtype)`` to send over the pipe (``used``
        counts wrap padding, so the consumer releases exactly what was
        allocated).  Raises :exc:`RingFull` when it cannot fit."""
        column = np.ascontiguousarray(column)
        nbytes = column.nbytes
        cursors = self._cursors()
        head, tail = int(cursors[0]), int(cursors[1])
        pos = head % self.capacity
        pad = self.capacity - pos if pos + nbytes > self.capacity else 0
        used = pad + nbytes
        if nbytes > self.capacity or used > self.capacity - (head - tail):
            raise RingFull(f"{nbytes} bytes do not fit "
                           f"({self.capacity - (head - tail)} free)")
        offset = 0 if pad else pos
        start = self._HEADER + offset
        lane = np.ndarray(column.shape, dtype=column.dtype,
                          buffer=self._buf(), offset=start)
        lane[...] = column
        cursors[0] = head + used
        return offset, used, column.shape, column.dtype.str

    # -- consumer side (parent reply-reader thread) --------------------

    def read(self, descriptor: tuple) -> np.ndarray:
        """Copy one lane out and release it (reader thread only; calls
        must follow descriptor arrival order)."""
        offset, used, shape, dtype = descriptor
        lane = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._buf(),
                          offset=self._HEADER + offset)
        out = np.array(lane, copy=True)
        cursors = self._cursors()
        cursors[1] = int(cursors[1]) + used
        return out

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (the segment survives)."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def unlink(self) -> None:
        """Destroy the segment (creator-side, exactly once)."""
        segment = self._segment
        if segment is None:
            try:
                segment = _attach_segment(self.name)
            except FileNotFoundError:
                return
        try:
            segment.close()
            segment.unlink()
            _unregister_segment(segment)
        except FileNotFoundError:
            pass
        self._segment = None


class ShardStorageView:
    """One shard's ``(keys, payloads)`` packed into shared memory.

    The picklable unit the process backend ships between parent and
    workers: provisioning a worker, snapshotting a shard for a split or
    merge, and re-provisioning after either all move whole shards through
    these views instead of the pipe.
    """

    def __init__(self, keys: SharedArray, payload_kind: str,
                 payload_data: Optional[SharedArray]):
        self.keys = keys
        self.payload_kind = payload_kind
        self.payload_data = payload_data

    @classmethod
    def pack(cls, keys: np.ndarray,
             payloads: Optional[list | np.ndarray]) -> "ShardStorageView":
        """Copy one shard's contents into fresh shared segments.
        ``payloads`` is a list, ``None``, or a column
        :func:`numeric_column` made, which is copied in as is.  A payload
        that does not encode (say, a lambda) raises with no segment left
        behind."""
        keys_handle = SharedArray.create(
            np.asarray(keys, dtype=np.float64))
        try:
            kind, data = cls._encode_payloads(payloads)
        except BaseException:
            keys_handle.unlink()
            raise
        return cls(keys_handle, kind, data)

    @staticmethod
    def _encode_payloads(payloads: Optional[list | np.ndarray]
                         ) -> Tuple[str, Optional[SharedArray]]:
        if isinstance(payloads, np.ndarray):
            return PAYLOAD_NUMERIC, SharedArray.create(payloads)
        if payloads is None or all(p is None for p in payloads):
            return PAYLOAD_NONE, None
        column = numeric_column(payloads)
        if column is not None:
            return PAYLOAD_NUMERIC, SharedArray.create(column)
        blob = np.frombuffer(pickle.dumps(payloads, protocol=-1),
                             dtype=np.uint8)
        return PAYLOAD_PICKLE, SharedArray.create(blob)

    def keys_view(self) -> np.ndarray:
        """The key array, mapped zero-copy (valid until :meth:`close`)."""
        return self.keys.array()

    def unpack(self, copy: bool = True) -> Tuple[np.ndarray, Optional[list]]:
        """``(keys, payloads)`` reconstructed from the segments.

        With ``copy=True`` (the default) the keys are duplicated out of
        shared memory, so the result outlives the segments.
        """
        keys = self.keys.copy() if copy else self.keys_view()
        if self.payload_kind == PAYLOAD_NONE:
            payloads = None if len(keys) == 0 else [None] * len(keys)
            return keys, payloads
        if self.payload_kind == PAYLOAD_NUMERIC:
            return keys, self.payload_data.array().tolist()
        return keys, pickle.loads(self.payload_data.array().tobytes())

    def _handles(self) -> List[SharedArray]:
        handles = [self.keys]
        if self.payload_data is not None:
            handles.append(self.payload_data)
        return handles

    def close(self) -> None:
        """Drop this process's mappings."""
        for handle in self._handles():
            handle.close()

    def unlink(self) -> None:
        """Destroy the segments (creator-side, exactly once)."""
        for handle in self._handles():
            handle.unlink()
