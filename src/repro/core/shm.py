"""Shared-memory storage views: picklable, attachable shard snapshots.

ALEX keeps every leaf's keys and payloads in contiguous arrays (the
payloads in a column typed ``int64`` or ``float64`` when they are
numeric, see :mod:`repro.core.data_node`), and a whole shard's
``(keys, payload column)`` maps naturally onto POSIX shared memory: a
:class:`SharedArray` is a picklable *handle* (segment name + shape +
dtype) to a NumPy array living in a
:class:`multiprocessing.shared_memory.SharedMemory` segment, so a parent
process and a long-lived shard worker can exchange a whole shard by
sending only the handle over a pipe — the array bytes are never copied
through the pipe, and the receiver maps them zero-copy.  Only whole-shard
moves use it (provisioning, snapshots, respawn and split/merge
re-provisioning); requests and replies travel in the pipe frames.

:class:`ShardStorageView` bundles one shard's ``(keys, payloads)`` into
such segments.  Keys are always a ``float64`` :class:`SharedArray`;
the payload column takes the cheapest faithful encoding:

* ``none``    — every payload is ``None`` (nothing is stored);
* ``numeric`` — an ``int64`` or ``float64`` column, stored as a second
  array (zero-copy like the keys);
* ``pickle``  — an ``object`` column, pickled into a byte segment (one
  copy, but still transported out-of-band of the pipe).

:meth:`ShardStorageView.unpack` returns the column with its dtype, so a
shard's payloads keep their representation across every whole-shard
move.  :func:`numeric_column` decides which payload lists get a typed
column — in bulk loads, here and for checkpoints — by an *exact-kind*
rule: a list of Python ``int`` only must become an ``int64`` column and
a list of Python ``float`` only a ``float64`` one.  Anything else stays
``object`` — ``bool`` or numpy scalars, mixed ``1`` / ``1.0``, and ints
numpy would widen to ``uint64``, ``float64`` (any value in ``[2**63,
2**64)``) or ``object`` — so every payload comes back with its exact
Python type and value.

Lifecycle contract: the *creator* of a view owns the segments and must
``unlink`` them exactly once, after every attaching process is done
reading (the process backend acks each message before its creator
unlinks).  Attachers only ever ``close``.
"""

from __future__ import annotations

import marshal
import pickle
from multiprocessing import shared_memory
from operator import countOf
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


def numeric_column(values) -> Optional[np.ndarray]:
    """``values`` as a 1-D ``int64`` or ``float64`` array whose
    ``tolist()`` restores it exactly, or ``None`` when it has no such
    column: only a non-empty list of Python ``int`` only (and in int64
    range) or of Python ``float`` only qualifies (see the module
    docstring's exact-kind rule)."""
    if not isinstance(values, list) or not values:
        return None
    kind = type(values[0])
    if kind is float:
        return _exact_floats(values)
    # One C-level pass over the types (identity compares, no hashing).
    if kind is not int or countOf(map(type, values), int) != len(values):
        return None
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:  # an int outside int64
        return None


#: :mod:`marshal`'s record of one exact Python ``float`` in format
#: version 2, which has no back-references: the type byte ``g`` and the
#: IEEE double, little-endian.
_FLOAT_RECORD = np.dtype([("kind", "u1"), ("value", "<f8")])


def _exact_floats(values: list) -> Optional[np.ndarray]:
    """``values`` as a ``float64`` column when every one is exactly a
    Python ``float``, else ``None``, in one C-level pass over the
    objects (a type pass plus :func:`numpy.fromiter` take two, each
    touching every object).  :mod:`marshal` writes a list as a 5-byte
    header and one record per value; an exact float's record is the 9
    bytes of :data:`_FLOAT_RECORD`, and anything else — an ``int``, a
    ``bool``, a numpy scalar or any other ``float`` subclass — gets a
    record of another kind.  So when every 9-byte step after the header
    starts with ``g``, every record is a float record."""
    try:
        blob = marshal.dumps(values, 2)
    except ValueError:  # an object marshal cannot write
        return None
    if len(blob) != 5 + 9 * len(values):
        return None
    records = np.frombuffer(blob, _FLOAT_RECORD, offset=5)
    if not (records["kind"] == ord("g")).all():
        return None
    return records["value"].astype(np.float64)


def payload_column(values) -> np.ndarray:
    """``values`` as a payload column: the ``int64`` or ``float64``
    column :func:`numeric_column` makes of them when the exact-kind rule
    admits them, else an ``object`` column holding each value whole (a
    sequence stays one element; an ndarray's elements stay numpy
    scalars)."""
    if not isinstance(values, list):
        values = list(values)
    column = numeric_column(values)
    if column is None:
        column = np.fromiter(values, dtype=object, count=len(values))
    return column


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
             payloads: Optional[np.ndarray]) -> "ShardStorageView":
        """Copy one shard's contents into fresh shared segments.
        ``payloads`` is a payload column, any other sequence (made one
        by :func:`payload_column`), or ``None`` (every payload
        ``None``).  A payload that does not encode (say, a lambda)
        raises with no segment left behind."""
        if payloads is not None and not isinstance(payloads, np.ndarray):
            payloads = payload_column(payloads)
        keys_handle = SharedArray.create(
            np.asarray(keys, dtype=np.float64))
        try:
            kind, data = cls._encode_payloads(payloads)
        except BaseException:
            keys_handle.unlink()
            raise
        return cls(keys_handle, kind, data)

    @staticmethod
    def _encode_payloads(payloads: Optional[np.ndarray]
                         ) -> Tuple[str, Optional[SharedArray]]:
        if payloads is not None and payloads.dtype.kind != "O":
            return PAYLOAD_NUMERIC, SharedArray.create(payloads)
        if payloads is None or all(p is None for p in payloads):
            return PAYLOAD_NONE, None
        blob = np.frombuffer(pickle.dumps(payloads, protocol=-1),
                             dtype=np.uint8)
        return PAYLOAD_PICKLE, SharedArray.create(blob)

    def keys_view(self) -> np.ndarray:
        """The key array, mapped zero-copy (valid until :meth:`close`)."""
        return self.keys.array()

    def unpack(self, copy: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, payload column)`` reconstructed from the segments,
        the column with the dtype it was packed with.

        With ``copy=True`` (the default) both arrays are duplicated out
        of shared memory, so the result outlives the segments.
        """
        keys = self.keys.copy() if copy else self.keys_view()
        if self.payload_kind == PAYLOAD_NONE:
            return keys, np.full(len(keys), None, dtype=object)
        if self.payload_kind == PAYLOAD_NUMERIC:
            return keys, (self.payload_data.copy() if copy
                          else self.payload_data.array())
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
