"""Crash recovery: latest checkpoint + WAL tail -> a live index.

The recovery contract (proved by the fault-injection tests):

* every *acknowledged* write survives — its frame was on disk before the
  caller's ack, so replay reapplies it;
* no phantom keys appear — replay applies only frames that were actually
  appended, in LSN order, and a torn final frame (the crash signature)
  is cut off by the per-frame CRC;
* the recovered index is *prefix-consistent*: its contents equal the
  checkpoint state plus some prefix of the post-checkpoint operation
  stream (the full prefix when every frame was synced).

Replay goes through the same batch engine live traffic uses —
:meth:`~repro.core.alex.AlexIndex.insert_many` /
:meth:`~repro.core.alex.AlexIndex.delete_many` — one frame per call, so a
10k-key logged batch recovers with one routed traversal, and replay doubles
as a validation pass: a frame that does not apply cleanly against the
reconstructed state raises instead of corrupting silently.

A shard is rebuilt only by its owner (a process worker, the thread
backend, a replica bootstrap) with :func:`rebuild_shard`.  Every frame,
read from the log by :func:`iter_frames` or pushed to a replica and read
by :func:`~repro.durability.wal.decode_frame`, goes through
:func:`apply_frame`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from repro import obs
from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig
from repro.core.errors import PersistenceError
from repro.core.policy import AdaptationPolicy
from repro.core.stats import Counters
from repro.obs import trace

from .checkpoint import CheckpointManager
from .wal import (OP_DELETE, OP_ERASE, OP_INSERT, OP_UPSERT, WALFrame,
                  iter_frames)


@dataclass
class RecoveryResult:
    """What :func:`recover_index` reconstructed."""

    checkpoint_lsn: int      #: LSN of the checkpoint loaded (0 = none)
    last_lsn: int            #: LSN of the last frame replayed
    frames_replayed: int     #: WAL frames applied past the checkpoint
    ops_replayed: int        #: logical operations inside those frames
    num_keys: int            #: keys in the recovered index
    config: AlexConfig       #: the recovered index's configuration
    index: Optional[AlexIndex] = None  #: ``None`` once reported

    def detached(self) -> "RecoveryResult":
        """This result without its index, as a shard's owner reports it."""
        return replace(self, index=None)

    def count(self) -> None:
        """Add this replay to this process's ``recover.*`` counters."""
        obs.inc("recover.frames_replayed", self.frames_replayed)
        obs.inc("recover.ops_replayed", self.ops_replayed)


def apply_frame(index, frame: WALFrame) -> int:
    """Apply one WAL frame to ``index`` (any object with the batch-write
    API); returns the number of logical ops it carried.  Shared by
    single-index recovery and the sharded facade's shard replay."""
    if frame.op == OP_INSERT:
        index.insert_many(frame.keys, frame.payloads)
    elif frame.op == OP_DELETE:
        index.delete_many(frame.keys)
    elif frame.op == OP_ERASE:
        index.erase_many(frame.keys)
    elif frame.op == OP_UPSERT:
        payloads = frame.payloads or [None] * len(frame.keys)
        for key, payload in zip(frame.keys.tolist(), payloads):
            index.upsert(key, payload)
    else:
        raise PersistenceError(f"WAL frame {frame.lsn}: unknown op "
                               f"{frame.op}")
    return frame.count


def recover_index(root: str, config: Optional[AlexConfig] = None,
                  policy: Optional[AdaptationPolicy] = None
                  ) -> RecoveryResult:
    """Reconstruct the index persisted under durability directory
    ``root``: load the manifest's checkpoint (or start empty) and replay
    the WAL frames past its LSN, counted in this process's registry.

    ``config`` only matters when there is no checkpoint to load (the
    checkpoint archive carries its own config); ``policy`` drives the
    recovered index and every one of its leaves either way.
    """
    result = _replay(root, config, policy)
    result.count()
    return result


def rebuild_shard(root: str, config: Optional[AlexConfig] = None,
                  policy: Optional[AdaptationPolicy] = None
                  ) -> RecoveryResult:
    """:func:`recover_index` where the shard will live, with its work
    counters seeded from the checkpoint's saved ones (so tallies stay
    monotone across a restart, respawn or replica bootstrap).  Not
    counted: the process that reports the result counts it."""
    result = _replay(root, config, policy)
    saved = CheckpointManager(root).saved_counters()
    if saved:
        result.index.counters.merge(Counters(**saved))
    return result


def _replay(root: str, config: Optional[AlexConfig],
            policy: Optional[AdaptationPolicy]) -> RecoveryResult:
    if not os.path.isdir(root):
        raise PersistenceError(f"{root}: no such durability directory")
    manager = CheckpointManager(root)
    if not manager.exists():
        raise PersistenceError(
            f"{root}: no {os.path.basename(manager.manifest_path)} — "
            "not a durability directory")
    latest = manager.latest()
    if latest is not None:
        from .persistence import load_index
        path, checkpoint_lsn = latest
        index = load_index(path, policy=policy)
    else:
        checkpoint_lsn = 0
        index = AlexIndex(config, policy=policy)
    frames = ops = 0
    last_lsn = checkpoint_lsn
    with trace.span("recover.replay"):
        for frame in iter_frames(manager.wal_dir, after_lsn=checkpoint_lsn):
            ops += apply_frame(index, frame)
            frames += 1
            last_lsn = frame.lsn
    return RecoveryResult(checkpoint_lsn=checkpoint_lsn, last_lsn=last_lsn,
                          frames_replayed=frames, ops_replayed=ops,
                          num_keys=len(index), config=index.config,
                          index=index)
