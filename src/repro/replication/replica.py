"""A replica: a second live index of one shard, fed the records its
writer logs, that serves reads at a bounded, observable staleness — and
takes over as primary on failover.

A :class:`Replica` bootstraps as a shard's owner recovers it
(:func:`~repro.durability.recover.rebuild_shard`).  After that the
writer *pushes* it the bytes of each record it appends to the shard's
WAL, under the shard's write lock and before the primary applies it, and
the replica reads them with the log's own CRC-checked decoder
(:func:`~repro.durability.wal.decode_frame`) and applies the frames in
LSN order through :func:`~repro.durability.recover.apply_frame`, as
recovery does.  A replica is hosted by a replica worker process
(:func:`repro.serve.worker._worker_main`), which handles one message at
a time, so every read sees the checkpoint plus a *prefix* of the logged
operations; the replica itself is not thread-safe.  A pushed frame the
replica already holds is skipped; one past ``applied_lsn + 1`` first
fills the gap from the log, or re-bootstraps when a checkpoint has
truncated the log past the replica.  A record that does not decode or
apply ends the replica (it stops :attr:`~Replica.serving`) rather than
serve a prefix with a hole.  An idle replica reads nothing.

Every message the writer sends a replica carries the writer's
``time.monotonic()`` send stamp, and :meth:`Replica.heard` keeps the
newest.  Any write acked before a stamp was pushed ahead of that message
on the same FIFO channel, so ``staleness_s()`` counts from the newest
stamp, and a replica cut off from its writer ages.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import obs
from repro.obs import trace
from repro.core.errors import (ReplicaStaleError, ReplicaUnavailableError,
                               ReplicationError)
from repro.durability.checkpoint import CheckpointManager
from repro.durability.recover import apply_frame, rebuild_shard
from repro.durability.wal import WALFrame, decode_frame, iter_frames

#: Read-side shard ops a replica may serve.  Mutations and persistence
#: ops are excluded by construction — a replica's only writer is the
#: frame stream, so the replayed prefix is never perturbed.
REPLICA_READ_METHODS = frozenset({
    "lookup", "get", "contains",
    "lookup_many", "get_many", "contains_many",
    "range_scan", "range_query", "range_query_many",
    "num_keys", "items_list", "key_bounds", "introspect",
    "counters_snapshot",
})


class Replica:
    """Follows one shard: bootstraps from its durability directory
    ``root`` (``config`` and ``policy`` go to the rebuild), then applies
    the records its writer pushes."""

    def __init__(self, root: str, config=None, policy=None):
        self.root = root
        self._config = config
        self._policy = policy
        self._manager = CheckpointManager(root)
        self._index = None
        self._applied_lsn = 0
        self._fresh_as_of = None   # newest writer send stamp dequeued
        self._frames_applied = 0
        self._bootstraps = 0
        self._promoted = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Replica":
        """Bootstrap from checkpoint + tail."""
        self._bootstrap()
        return self

    def promote(self):
        """Failover: drain the WAL tail past ``applied_lsn`` once and
        return the caught-up index (the caller installs it as primary).
        The caller guarantees the log is quiescent: the primary is dead
        and the caller holds the shard's write lock."""
        if self._index is None:
            raise ReplicaUnavailableError("replica is not serving")
        with trace.span("replica.promote"):
            self._catch_up()
            self._promoted = True
            obs.inc("repl.promotions")
            return self._index

    @property
    def serving(self) -> bool:
        """Whether reads may be served: bootstrapped, not promoted, and
        no pushed frame has failed to apply."""
        return self._index is not None and not self._promoted

    # -- the frame stream ----------------------------------------------

    def heard(self, sent_at: float) -> None:
        """Record a message the writer sent at ``sent_at`` (its
        ``time.monotonic()``), dequeued now: every write acked before
        then is applied."""
        if self._fresh_as_of is None or sent_at > self._fresh_as_of:
            self._fresh_as_of = sent_at

    def apply(self, record: bytes) -> None:
        """Apply one pushed WAL record (see the module docstring).  Any
        failure leaves the replica not :attr:`serving` and raises."""
        try:
            frame = decode_frame(record)
            if frame.lsn > self._applied_lsn + 1:
                self._catch_up()
            if frame.lsn > self._applied_lsn + 1:
                # The log held nothing past us: a checkpoint truncated
                # it, and that checkpoint covers the gap.
                self._bootstrap()
            if frame.lsn > self._applied_lsn + 1:
                raise ReplicationError(
                    f"frames {self._applied_lsn + 1}..{frame.lsn - 1} "
                    f"are in neither the log nor a checkpoint")
            if frame.lsn > self._applied_lsn:
                self._apply_frame(frame)
        except BaseException:
            self._index = None
            raise

    def _apply_frame(self, frame: WALFrame) -> None:
        apply_frame(self._index, frame)
        self._applied_lsn = frame.lsn
        self._frames_applied += 1
        obs.inc("repl.frames_applied")

    def _bootstrap(self) -> None:
        """(Re)load checkpoint + tail, as a shard's owner does.  The
        load's start is a freshness stamp: a write acked before it is in
        the files the load reads (the attach flushed them) or pushed
        after."""
        t0 = time.monotonic()
        recovery = rebuild_shard(self.root, config=self._config,
                                 policy=self._policy)
        self._index = recovery.index
        self._applied_lsn = recovery.last_lsn
        self.heard(t0)
        self._frames_applied += recovery.frames_replayed
        self._bootstraps += 1
        obs.inc("repl.bootstraps")
        obs.emit("replica.bootstrap", root=self.root,
                 lsn=recovery.last_lsn, frames=recovery.frames_replayed)

    def _catch_up(self) -> None:
        """Apply every logged frame past ``applied_lsn`` (a gap fill or
        the promotion drain).  A log that no longer holds
        ``applied_lsn + 1`` was truncated past this replica by a
        checkpoint: re-bootstrap from it instead."""
        for frame in iter_frames(self._manager.wal_dir,
                                 after_lsn=self._applied_lsn):
            if frame.lsn != self._applied_lsn + 1:
                self._bootstrap()
                return
            self._apply_frame(frame)

    # -- read side -----------------------------------------------------

    @property
    def applied_lsn(self) -> int:
        return self._applied_lsn

    def staleness_s(self) -> float:
        """Seconds since the newest writer send stamp (or bootstrap) —
        the *observable* bound on how far behind a read may be."""
        if self._fresh_as_of is None:
            return float("inf")
        return max(0.0, time.monotonic() - self._fresh_as_of)

    def read(self, method: str, args: tuple = (), min_lsn: int = 0,
             max_staleness_s: Optional[float] = None):
        """Serve one read if the consistency bounds allow, else raise
        :class:`ReplicaStaleError` (the router falls back to primary).
        Staleness that *reaches* the bound is stale: 0 always falls
        back."""
        if method not in REPLICA_READ_METHODS:
            raise ReplicaUnavailableError(
                f"{method!r} is not a replica-servable read")
        if not self.serving:
            raise ReplicaUnavailableError("replica is not serving")
        if (max_staleness_s is not None
                and self.staleness_s() >= max_staleness_s):
            raise ReplicaStaleError(
                f"staleness {self.staleness_s():.4f}s reaches bound "
                f"{max_staleness_s:.4f}s")
        if self._applied_lsn < min_lsn:
            raise ReplicaStaleError(
                f"applied LSN {self._applied_lsn} behind required "
                f"{min_lsn}")
        with trace.span("replica.read"):
            return _dispatch(self._index, method, args)

    def status(self) -> dict:
        """Point-in-time observability: lag, LSN, and replay counts."""
        return {
            "applied_lsn": self._applied_lsn,
            "staleness_s": (None if self._fresh_as_of is None
                            else self.staleness_s()),
            "frames_applied": self._frames_applied,
            "bootstraps": self._bootstraps,
            "num_keys": (len(self._index)
                         if self._index is not None else 0),
            "promoted": self._promoted,
        }


def _dispatch(index, method: str, args: tuple):
    """Run a read-side shard op through the same dispatcher both
    backends use.  Imported lazily: the serving tier imports this module
    at load time, so a top-level import back into ``repro.serve`` would
    be circular — by the first read, both packages are initialized."""
    from repro.serve.backend import run_shard_op
    return run_shard_op(index, method, *args)
