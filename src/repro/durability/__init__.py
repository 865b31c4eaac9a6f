"""Durability: write-ahead logging, checkpointing, and crash recovery.

The ALEX paper treats the index as a purely in-memory structure; a
*service* built on it cannot afford that — an acknowledged write must
survive a process crash, a worker death, or a restart.  This subsystem
adds the classic log + checkpoint layer:

* :mod:`~repro.durability.wal` — a segmented append-only write-ahead log
  (fixed-width numpy record frames, CRC32 per frame, group commit,
  ``always | batch | off`` fsync policy, torn-tail tolerance);
* :mod:`~repro.durability.persistence` — save and load a whole index
  as one ``.npz`` archive, the exact tree and models included;
* :mod:`~repro.durability.checkpoint` — atomic-rename checkpoint
  publication through that format, a JSON manifest as the single source
  of recovery truth, and WAL truncation past the checkpoint LSN;
* :mod:`~repro.durability.recover` — load the latest checkpoint, replay
  the WAL tail through the batch engine, where the shard lives;
* :mod:`~repro.durability.service` — per-shard durability plus the
  transactional topology manifest behind
  :class:`repro.serve.sharded.ShardedAlexIndex`'s ``durability_dir``.

There is one durable index: the service.  A single-node durable index
is a one-shard service —
``ShardedAlexIndex.bulk_load(keys, num_shards=1, durability_dir=root)``,
or ``ShardedAlexIndex(durability_dir=root)`` for an empty one, reopened
with ``ShardedAlexIndex.recover(root)`` — so every durable write is
validated, then logged, then applied.
"""

from .checkpoint import CheckpointManager
from .recover import RecoveryResult, apply_frame, recover_index
from .service import (DEFAULT_CHECKPOINT_EVERY, ShardedDurability,
                      service_manifest_kind)
from .wal import (FSYNC_POLICIES, OP_DELETE, OP_ERASE, OP_INSERT,
                  OP_UPSERT, WALFrame, WriteAheadLog, encode_payloads,
                  iter_frames)

__all__ = [
    "CheckpointManager",
    "DEFAULT_CHECKPOINT_EVERY",
    "FSYNC_POLICIES",
    "OP_DELETE",
    "OP_ERASE",
    "OP_INSERT",
    "OP_UPSERT",
    "RecoveryResult",
    "ShardedDurability",
    "WALFrame",
    "WriteAheadLog",
    "apply_frame",
    "encode_payloads",
    "iter_frames",
    "recover_index",
    "service_manifest_kind",
]
