"""A WAL-shipping replica: continuous replay of one shard's durability
directory into a second live index that serves reads at a bounded,
observable staleness — and takes over as primary on failover.

PR 5 built the per-shard segmented WAL explicitly as "the unit a
follower would consume"; this is the follower.  A :class:`Replica`
bootstraps exactly like crash recovery (latest checkpoint + replay of
the tail through :func:`repro.durability.recover.recover_index`), then
keeps going: a poll loop tails :func:`~repro.durability.wal.iter_frames`
past its applied LSN and applies each new frame through the same
:func:`~repro.durability.recover.apply_frame` machinery live recovery
uses.  Because frames apply one at a time under the replica's write
lock, every read observes the checkpoint state plus a *prefix* of the
logged operation stream — the same prefix-consistency contract recovery
proves, now continuously.

Two realities of tailing a live log are handled explicitly:

* **Checkpoint truncation.**  The primary's checkpoints delete sealed
  WAL segments behind the checkpoint LSN.  A replica that was at the
  head never notices (its applied LSN is past the truncation point); a
  replica that fell behind finds the first available frame is no longer
  ``applied_lsn + 1`` and **re-bootstraps** from the latest checkpoint,
  which by construction covers the gap.
* **Transient read races.**  Segment rolls, concurrent truncation, and
  torn tails can surface ``FileNotFoundError``/``WALCorruptionError``
  mid-pass; the poll loop counts them (``repl.replay_errors``) and
  retries — the next pass sees a consistent directory.

Staleness is *observable*, not assumed: ``staleness_s()`` reports the
time since the replica last confirmed it had drained to the WAL head
(timestamped at the start of the confirming pass, so the bound is
conservative).  ``read()`` enforces the caller's ``min_lsn`` /
``max_staleness_s`` and raises :class:`ReplicaStaleError` instead of
serving outside them.

``promote()`` is failover: stop the applier, drain the remaining tail
(the dead primary's WAL is quiescent), and hand the caught-up index to
the caller — the serving tier installs it as the new primary.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro import obs
from repro.obs import trace
from repro.core.errors import (ReplicaStaleError, ReplicaUnavailableError,
                               WALCorruptionError)
from repro.core.stats import Counters
from repro.durability.checkpoint import CheckpointManager
from repro.durability.recover import apply_frame, recover_index
from repro.durability.wal import iter_frames
from repro.serve.rwlock import ReadWriteLock

#: Read-side shard ops a replica may serve.  Mutations and persistence
#: ops are excluded by construction — a replica's only writer is its
#: applier thread, so the replayed prefix is never perturbed.
REPLICA_READ_METHODS = frozenset({
    "lookup", "get", "contains",
    "lookup_many", "get_many", "contains_many",
    "range_scan", "range_query", "range_query_many",
    "num_keys", "items_list", "key_bounds", "introspect",
    "counters_snapshot",
})


class _HistoryTruncated(Exception):
    """Internal: the WAL no longer contains ``applied_lsn + 1`` — the
    primary checkpointed past us; re-bootstrap from that checkpoint."""


class Replica:
    """Tails one shard's durability directory into a live index.

    Parameters
    ----------
    root:
        The shard's durability directory (or a :class:`LogShipper`
        mirror of one).
    config / policy:
        Passed through to recovery for the no-checkpoint-yet case.
    poll_interval_s:
        How long the applier sleeps when a pass finds no new frames.
        This is the floor on replication lag when the log is idle.
    """

    def __init__(self, root: str, config=None, policy=None,
                 poll_interval_s: float = 0.005):
        self.root = root
        self._config = config
        self._policy = policy
        self.poll_interval_s = poll_interval_s
        self._manager = CheckpointManager(root)
        self._lock = ReadWriteLock()
        self._index = None
        self._applied_lsn = 0
        self._fresh_as_of = None   # monotonic stamp of last at-head pass
        self._frames_applied = 0
        self._bootstraps = 0
        self._replay_errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._promoted = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Replica":
        """Bootstrap from checkpoint + tail, then start the applier."""
        self._bootstrap()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="alex-replica")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    close = stop

    def promote(self):
        """Failover: stop the applier, drain the remaining WAL tail, and
        return the caught-up index (the caller installs it as primary).

        The caller must guarantee the log is quiescent — in the serving
        tier that holds because promotion happens for a *dead* primary
        under the shard's write lock, so the last logged frame is final.
        """
        with trace.span("replica.promote"):
            self.stop()
            while True:
                try:
                    if self._catch_up() == 0:
                        break
                except _HistoryTruncated:
                    self._bootstrap()
            self._promoted = True
            obs.inc("repl.promotions")
            return self._index

    # -- replay --------------------------------------------------------

    def _bootstrap(self) -> None:
        """(Re)load checkpoint + tail; seeds counters from the checkpoint
        snapshot (like crash respawn) so aggregate tallies stay monotone
        if this replica is later promoted."""
        recovery = recover_index(self.root, config=self._config,
                                 policy=self._policy)
        saved = self._manager.saved_counters()
        if saved:
            recovery.index.counters.merge(Counters(**saved))
        t0 = time.monotonic()
        with self._lock.write():
            self._index = recovery.index
            self._applied_lsn = recovery.last_lsn
        self._fresh_as_of = t0
        self._frames_applied += recovery.frames_replayed
        self._bootstraps += 1
        obs.inc("repl.bootstraps")
        obs.emit("replica.bootstrap", root=self.root,
                 lsn=recovery.last_lsn, frames=recovery.frames_replayed)

    def _catch_up(self) -> int:
        """One replay pass: apply every frame past ``applied_lsn``.
        Returns the number of frames applied; on a clean pass stamps
        ``_fresh_as_of`` with the pass *start* time (we are at least as
        fresh as when we began reading)."""
        t0 = time.monotonic()
        applied = 0
        first = True
        for frame in iter_frames(self._manager.wal_dir,
                                 after_lsn=self._applied_lsn):
            if first and frame.lsn != self._applied_lsn + 1:
                raise _HistoryTruncated(
                    f"WAL starts at {frame.lsn}, replica applied "
                    f"{self._applied_lsn}")
            first = False
            with self._lock.write():
                apply_frame(self._index, frame)
                self._applied_lsn = frame.lsn
            applied += 1
        self._fresh_as_of = t0
        if applied:
            self._frames_applied += applied
            obs.inc("repl.frames_applied", applied)
        return applied

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                applied = self._catch_up()
            except _HistoryTruncated:
                try:
                    self._bootstrap()
                except Exception:
                    self._replay_errors += 1
                    obs.inc("repl.replay_errors")
                continue
            except (OSError, WALCorruptionError):
                # Segment roll / truncation race or a torn tail being
                # written right now; the next pass sees a settled view.
                self._replay_errors += 1
                obs.inc("repl.replay_errors")
            else:
                if applied:
                    continue          # hot: drain without sleeping
            self._stop.wait(self.poll_interval_s)

    # -- read side -----------------------------------------------------

    @property
    def applied_lsn(self) -> int:
        return self._applied_lsn

    def staleness_s(self) -> float:
        """Seconds since this replica last confirmed it was at the WAL
        head — the *observable* upper bound on how far behind a read may
        be."""
        if self._fresh_as_of is None:
            return float("inf")
        return max(0.0, time.monotonic() - self._fresh_as_of)

    def read(self, method: str, args: tuple = (), min_lsn: int = 0,
             max_staleness_s: Optional[float] = None):
        """Serve one read if the consistency bounds allow, else raise
        :class:`ReplicaStaleError` (the router falls back to primary)."""
        if method not in REPLICA_READ_METHODS:
            raise ReplicaUnavailableError(
                f"{method!r} is not a replica-servable read")
        if self._promoted or self._index is None:
            raise ReplicaUnavailableError("replica is not serving")
        if (max_staleness_s is not None
                and self.staleness_s() > max_staleness_s):
            raise ReplicaStaleError(
                f"staleness {self.staleness_s():.4f}s exceeds bound "
                f"{max_staleness_s:.4f}s")
        with trace.span("replica.read"), self._lock.read():
            if self._applied_lsn < min_lsn:
                raise ReplicaStaleError(
                    f"applied LSN {self._applied_lsn} behind required "
                    f"{min_lsn}")
            return _dispatch(self._index, method, args)

    def status(self) -> dict:
        """Point-in-time observability: lag, LSN, and replay health."""
        return {
            "applied_lsn": self._applied_lsn,
            "staleness_s": (None if self._fresh_as_of is None
                            else self.staleness_s()),
            "frames_applied": self._frames_applied,
            "bootstraps": self._bootstraps,
            "replay_errors": self._replay_errors,
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
