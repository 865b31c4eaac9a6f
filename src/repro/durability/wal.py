"""Segmented append-only write-ahead log for index mutations.

A service that acknowledges writes cannot lose them on a crash.  The WAL
is the first half of the durability contract (checkpoints are the other):
every mutating operation is appended as one **frame** — a fixed-width
numpy record header followed by the operation's key array and (for
inserts/upserts) a pickled payload blob — *before* the caller
acknowledges it, and recovery replays the frames past the last checkpoint
through the batch engine.

Layout
------

The log is a directory of **segments** (``wal-<seq>.seg``), each opened
with a fixed header (magic, format version, first LSN) and then a run of
frames::

    [segment header][frame][frame]...[frame]

A frame is::

    [frame header: magic | lsn | op | count | payload_bytes | crc]
    [count x float64 keys][payload_bytes of pickled payloads]

The CRC32 covers the header (with the crc field zeroed) plus both bodies,
so *any* torn or bit-flipped frame is detected.  Appends go to the tail
segment until it passes ``segment_bytes``, then a fresh segment is
rolled — which is what makes checkpoint-driven truncation cheap: a
checkpoint at LSN ``L`` deletes exactly the sealed segments whose every
frame has ``lsn <= L``.

Group commit and the fsync policy
---------------------------------

One frame holds one *batch* (``insert_many`` of 10k keys is a single
frame — group commit falls out of the batch engine's shape).  When the
frame hits the OS is the ``fsync`` policy:

* ``always`` — flush + ``os.fsync`` on every append: an acknowledged
  write survives even an OS/power crash.
* ``batch``  — flush on every append, ``os.fsync`` once per
  ``group_commit`` appends and on :meth:`sync`/roll/close: bounded loss
  window on power failure, none on process crash.
* ``off``    — buffered writes only: survives a *process* crash (the OS
  holds the bytes), not a kernel/power one.  The right mode for tests
  and perf baselines.

Torn tails
----------

A crash mid-append leaves a half-written final frame.  On open (and on
:func:`iter_frames`) the tail segment is scanned and the log resumes
*after the last valid frame*; the torn bytes are truncated away on the
next append.  Corruption anywhere before the final frame of the log is
*not* tolerated — that is lost acknowledged history — and raises
:class:`~repro.core.errors.WALCorruptionError`.
"""

from __future__ import annotations

import os
import pickle
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs import trace
from repro.core.errors import WALCorruptionError

#: Logical operations a frame can carry (replayed by
#: :mod:`repro.durability.recover`).
OP_INSERT = 1   #: batch insert of new keys (payload blob present)
OP_DELETE = 2   #: batch delete of present keys
OP_UPSERT = 3   #: insert-or-update (payload blob present)
OP_ERASE = 4    #: tolerant delete (absent keys skipped on replay)

OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete",
            OP_UPSERT: "upsert", OP_ERASE: "erase"}

_SEGMENT_MAGIC = 0x57414C53  # "WALS"
_FRAME_MAGIC = 0x57414C46    # "WALF"
WAL_VERSION = 1

_SEGMENT_HEADER = np.dtype([
    ("magic", "<u4"), ("version", "<u4"), ("first_lsn", "<u8"),
])

_FRAME_HEADER = np.dtype([
    ("magic", "<u4"), ("lsn", "<u8"), ("op", "<u4"),
    ("count", "<u8"), ("payload_bytes", "<u8"), ("crc", "<u4"),
])

FSYNC_POLICIES = ("always", "batch", "off")


@dataclass(frozen=True)
class WALFrame:
    """One decoded log frame: a single batched mutation."""

    lsn: int
    op: int
    keys: np.ndarray
    payloads: Optional[list]

    @property
    def count(self) -> int:
        return len(self.keys)


def _segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.seg"


def encode_payloads(payloads) -> bytes:
    """A frame's payload body: the pickled list, ``b""`` for none.  Bytes
    this function returned pass through unchanged, so a caller can encode
    several frames' payloads before appending any of them."""
    if payloads is None:
        return b""
    if isinstance(payloads, bytes):
        return payloads
    return pickle.dumps(payloads, protocol=-1)


def encode_frame(lsn: int, op: int, keys: np.ndarray, payloads) -> bytes:
    """One frame's record: the bytes the log appends and a writer pushes
    to its replica (:func:`decode_frame` reads them back)."""
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    blob = encode_payloads(payloads)
    header = np.zeros(1, dtype=_FRAME_HEADER)
    header["magic"] = _FRAME_MAGIC
    header["lsn"] = lsn
    header["op"] = op
    header["count"] = len(keys)
    header["payload_bytes"] = len(blob)
    body = keys.tobytes() + blob
    crc = zlib.crc32(body, zlib.crc32(header.tobytes()))
    header["crc"] = crc
    return header.tobytes() + body


def _decode_frame(buf: memoryview, offset: int) -> Optional[Tuple[WALFrame,
                                                                  int]]:
    """Decode the frame at ``offset``; ``None`` when the bytes there are
    not a complete valid frame (short read, bad magic, or CRC mismatch —
    the torn-tail signatures)."""
    head_size = _FRAME_HEADER.itemsize
    if offset + head_size > len(buf):
        return None
    header = np.frombuffer(buf, dtype=_FRAME_HEADER, count=1, offset=offset)
    if int(header["magic"][0]) != _FRAME_MAGIC:
        return None
    count = int(header["count"][0])
    payload_bytes = int(header["payload_bytes"][0])
    body_size = count * 8 + payload_bytes
    end = offset + head_size + body_size
    if end > len(buf):
        return None
    stamped = np.array(header)
    stamped["crc"] = 0
    body = bytes(buf[offset + head_size:end])
    if zlib.crc32(body, zlib.crc32(stamped.tobytes())) != int(
            header["crc"][0]):
        return None
    keys = np.frombuffer(body, dtype=np.float64, count=count).copy()
    payloads = (pickle.loads(body[count * 8:])
                if payload_bytes else None)
    return WALFrame(int(header["lsn"][0]), int(header["op"][0]),
                    keys, payloads), end


def decode_frame(record) -> WALFrame:
    """The frame one whole record holds, read by the log's CRC-checked
    decoder; :class:`WALCorruptionError` unless it is one valid frame."""
    decoded = _decode_frame(memoryview(record), 0)
    if decoded is None or decoded[1] != len(record):
        raise WALCorruptionError("a record is not one valid WAL frame")
    return decoded[0]


def _read_segment(path: str, tolerate_torn_header: bool = False
                  ) -> Tuple[Optional[int], List[WALFrame], int, memoryview]:
    """``(first_lsn, frames, valid_bytes, buf)`` of one segment file.

    ``valid_bytes`` is the offset just past the last decodable frame, so
    a torn tail can be truncated away before appending resumes.  ``buf``
    holds the bytes read: a live writer may append past them, so only
    they can tell a torn tail from mid-segment damage.

    ``tolerate_torn_header`` is set for the *final* segment: a crash
    while :meth:`WriteAheadLog.roll` was creating it can leave a short
    or partially written header — that is a torn tail, not corruption,
    and reads back as ``(None, [], 0)`` (no frames were ever appended to
    a segment whose header never landed).  A bad *version* with a valid
    magic is never tolerated: that is a real format mismatch.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    buf = memoryview(raw)
    head_size = _SEGMENT_HEADER.itemsize
    if len(buf) < head_size:
        if tolerate_torn_header:
            return None, [], 0, buf
        raise WALCorruptionError(f"{path}: shorter than a segment header")
    header = np.frombuffer(buf, dtype=_SEGMENT_HEADER, count=1)
    if int(header["magic"][0]) != _SEGMENT_MAGIC:
        if tolerate_torn_header:
            return None, [], 0, buf
        raise WALCorruptionError(f"{path}: bad segment magic")
    if int(header["version"][0]) != WAL_VERSION:
        raise WALCorruptionError(
            f"{path}: unsupported WAL version {int(header['version'][0])}")
    frames: List[WALFrame] = []
    offset = head_size
    while offset < len(buf):
        decoded = _decode_frame(buf, offset)
        if decoded is None:
            break
        frame, offset = decoded
        frames.append(frame)
    return int(header["first_lsn"][0]), frames, offset, buf


def _valid_frame_after(buf: memoryview, start: int) -> bool:
    """Whether any fully valid frame exists past ``start`` — the test
    that separates a torn tail (trailing garbage only: tolerable) from
    mid-segment corruption (a bit flip with acknowledged frames after
    it: never tolerable, and truncating at the damage would destroy
    them).  The frame magic narrows the scan; the CRC makes a false
    positive on garbage astronomically unlikely."""
    magic = np.uint32(_FRAME_MAGIC).tobytes()
    raw = bytes(buf[start:])
    pos = raw.find(magic, 1)  # the frame *at* start already failed
    while pos != -1:
        if _decode_frame(buf, start + pos) is not None:
            return True
        pos = raw.find(magic, pos + 1)
    return False


def list_segments(directory: str) -> List[str]:
    """Segment paths in ``directory``, in log (= name) order."""
    if not os.path.isdir(directory):
        return []
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("wal-") and n.endswith(".seg"))
    return [os.path.join(directory, n) for n in names]


def iter_frames(directory: str, after_lsn: int = 0) -> Iterator[WALFrame]:
    """Yield the log's frames with ``lsn > after_lsn``, in LSN order.

    A torn tail — trailing bytes of the *final* segment that do not form
    a valid frame — is tolerated and iteration simply ends there.  The
    same damage in any earlier segment, in the middle of the final
    segment (valid frames exist past the break), or a gap in the LSN
    sequence raises :class:`WALCorruptionError`: acknowledged frames are
    missing and recovery must not silently produce a hole in history.
    """
    paths = list_segments(directory)
    expected: Optional[int] = None
    for i, path in enumerate(paths):
        final = i == len(paths) - 1
        _, frames, valid, buf = _read_segment(path,
                                              tolerate_torn_header=final)
        if valid != len(buf):
            if not final:
                raise WALCorruptionError(
                    f"{path}: undecodable frame before the log tail")
            if _valid_frame_after(buf, valid):
                raise WALCorruptionError(
                    f"{path}: undecodable frame at byte {valid} with "
                    "valid frames after it — mid-log damage, not a "
                    "torn tail")
        for frame in frames:
            if expected is not None and frame.lsn != expected:
                raise WALCorruptionError(
                    f"{path}: LSN gap — expected {expected}, "
                    f"found {frame.lsn}")
            expected = frame.lsn + 1
            if frame.lsn > after_lsn:
                yield frame


class WriteAheadLog:
    """Appendable segmented WAL over a directory.

    Opening scans the existing segments (building the per-segment LSN
    spans that drive truncation), trims any torn tail, and resumes the
    LSN sequence.  One instance has a single writer; readers use
    :func:`iter_frames` (recovery always reads from a fresh process, so
    no coordination is needed).
    """

    def __init__(self, directory: str, fsync: str = "batch",
                 segment_bytes: int = 4 << 20, group_commit: int = 64):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy {fsync!r} not in "
                             f"{FSYNC_POLICIES}")
        self.directory = directory
        self.fsync = fsync
        self.segment_bytes = max(1024, int(segment_bytes))
        self.group_commit = max(1, int(group_commit))
        os.makedirs(directory, exist_ok=True)
        #: ``[(path, first_lsn, last_lsn)]`` of sealed (non-tail) segments.
        self._sealed: List[Tuple[str, int, int]] = []
        self._unsynced = 0
        self._fh = None
        self._open_tail()

    # -- lifecycle ----------------------------------------------------

    def _open_tail(self) -> None:
        paths = list_segments(self.directory)
        self.last_lsn = 0
        self._sealed = []
        for i, path in enumerate(paths):
            final = i == len(paths) - 1
            first_lsn, frames, valid, buf = _read_segment(
                path, tolerate_torn_header=final)
            if not final and valid != len(buf):
                raise WALCorruptionError(
                    f"{path}: undecodable frame before the log tail")
            if first_lsn is not None:
                # The header's first_lsn alone proves every earlier LSN
                # existed: after a checkpoint truncated all sealed
                # segments, the frame-less tail is the only LSN record
                # left, and resuming below it would hand new writes LSNs
                # the recovery filter (lsn > checkpoint) discards.
                self.last_lsn = max(self.last_lsn, first_lsn - 1)
            if frames:
                self.last_lsn = frames[-1].lsn
            if final:
                self._tail_path = path
                self._tail_first_lsn = frames[0].lsn if frames else None
                self._tail_seq = int(
                    os.path.basename(path)[4:-4])
                # Trim a torn tail so appends land after the last valid
                # frame, not after garbage that would hide them.  A torn
                # *header* (crash mid-roll) truncates to zero and the
                # header is rewritten below by _start_segment.  Before
                # destroying anything, prove the damage really is a
                # tail: a valid frame past the break means mid-log
                # corruption, and truncating would erase acked history.
                if valid != len(buf):
                    if _valid_frame_after(buf, valid):
                        raise WALCorruptionError(
                            f"{path}: undecodable frame at byte {valid} "
                            "with valid frames after it — mid-log "
                            "damage, not a torn tail")
                    with open(path, "r+b") as fh:
                        fh.truncate(valid)
                if first_lsn is None:
                    self._fh = self._start_segment(path, self.last_lsn + 1)
                else:
                    self._fh = open(path, "ab")
            else:
                last = frames[-1].lsn if frames else first_lsn - 1
                self._sealed.append((path, first_lsn, last))
        if self._fh is None:
            self._tail_seq = 1
            self._tail_path = os.path.join(self.directory, _segment_name(1))
            self._tail_first_lsn = None
            self._fh = self._start_segment(self._tail_path,
                                           self.last_lsn + 1)

    def _start_segment(self, path: str, first_lsn: int):
        header = np.zeros(1, dtype=_SEGMENT_HEADER)
        header["magic"] = _SEGMENT_MAGIC
        header["version"] = WAL_VERSION
        header["first_lsn"] = first_lsn
        fh = open(path, "ab")
        if fh.tell() == 0:
            fh.write(header.tobytes())
            fh.flush()
        return fh

    def close(self) -> None:
        """Flush, fsync (unless policy ``off``), and release the tail."""
        if self._fh is not None:
            self._fh.flush()
            if self.fsync != "off":
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- appending ----------------------------------------------------

    def append(self, op: int, keys, payloads: Optional[list] = None) -> int:
        """Append one frame (one batched mutation); returns its LSN.
        ``payloads`` may also be what :func:`encode_payloads` made of them.

        The acknowledgement contract: when this returns, the frame is in
        the OS (policies ``always``/``batch``) and on stable storage
        (policy ``always``, or ``batch`` at a group-commit boundary).
        """
        self.append_record(op, keys, payloads)
        return self.last_lsn

    def append_record(self, op: int, keys,
                      payloads: Optional[list] = None) -> bytes:
        """:meth:`append`, returning the appended record's bytes (which
        hold its LSN): what a writer pushes to its replica."""
        if self._fh is None:
            raise ValueError("write-ahead log is closed")
        if op not in OP_NAMES:
            raise ValueError(f"unknown WAL op {op!r}")
        with trace.span("wal.append"):
            lsn = self.last_lsn + 1
            record = encode_frame(lsn, op, keys, payloads)
            self._fh.write(record)
            self.last_lsn = lsn
            if self._tail_first_lsn is None:
                self._tail_first_lsn = lsn
            if self.fsync == "always":
                with trace.span("wal.fsync"):
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
            elif self.fsync == "batch":
                self._fh.flush()
                self._unsynced += 1
                if self._unsynced >= self.group_commit:
                    # How many frames each group commit amortizes one
                    # fsync across (a count histogram, not a duration).
                    obs.observe("wal.group_commit_frames", self._unsynced)
                    with trace.span("wal.fsync"):
                        os.fsync(self._fh.fileno())
                    self._unsynced = 0
            if self._fh.tell() >= self.segment_bytes:
                self.roll()
        return record

    def flush(self) -> None:
        """Push buffered frames into the OS (no fsync) — enough for an
        in-machine reader (e.g. a worker respawn replaying this log) to
        see every appended frame."""
        if self._fh is not None:
            self._fh.flush()

    def sync(self) -> None:
        """Force the appended frames to stable storage (any policy)."""
        if self._fh is not None:
            with trace.span("wal.fsync"):
                self._fh.flush()
                os.fsync(self._fh.fileno())
            self._unsynced = 0

    def roll(self) -> None:
        """Seal the tail segment and start a fresh one (called
        automatically at ``segment_bytes``, and by checkpoints so
        truncation can drop everything up to the checkpoint LSN)."""
        self._fh.flush()
        if self.fsync != "off":
            os.fsync(self._fh.fileno())
        self._unsynced = 0
        if self._tail_first_lsn is None:
            return  # empty tail: reuse it instead of sealing a no-frame file
        self._fh.close()
        self._sealed.append((self._tail_path, self._tail_first_lsn,
                             self.last_lsn))
        self._tail_seq += 1
        self._tail_path = os.path.join(self.directory,
                                       _segment_name(self._tail_seq))
        self._tail_first_lsn = None
        self._fh = self._start_segment(self._tail_path, self.last_lsn + 1)

    # -- reading and truncation ---------------------------------------

    def frames(self, after_lsn: int = 0) -> Iterator[WALFrame]:
        """Replay iterator over the live log (flushes the tail first)."""
        self.flush()
        return iter_frames(self.directory, after_lsn)

    def truncate_upto(self, lsn: int) -> int:
        """Delete sealed segments whose every frame has ``lsn <=`` the
        checkpoint LSN; returns how many segment files were removed.
        The tail segment is never deleted (appends continue there)."""
        kept, removed = [], 0
        for path, first, last in self._sealed:
            if last <= lsn:
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
                removed += 1
            else:
                kept.append((path, first, last))
        self._sealed = kept
        return removed

    @property
    def num_segments(self) -> int:
        return len(self._sealed) + 1

    def size_bytes(self) -> int:
        """Total bytes across live segment files."""
        total = 0
        for path in list_segments(self.directory):
            try:
                total += os.path.getsize(path)
            except FileNotFoundError:
                pass
        return total
