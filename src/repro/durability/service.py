"""Serving-tier durability: per-shard WALs/checkpoints + a topology manifest.

The sharded service's durable state is one directory per shard — each an
ordinary single-index durability root (``MANIFEST.json``, ``wal/``,
``ckpt-*.npz``) — bound together by a **service manifest** that records
the topology: the router boundaries and, positionally, which shard
directory serves which key range::

    root/
      SERVICE_MANIFEST.json     {"boundaries": [...], "shards": [dir, ...]}
      shard-00000000/           a single-index durability root
      shard-00000001/
      ...

Shard directories are named by an ever-increasing allocation counter, not
by position: a split or merge *allocates fresh directories* for the new
shards (checkpointing their contents as generation zero), then rewrites
the service manifest in one atomic replace, then deletes the retired
directories.  A crash anywhere in that sequence leaves either the old
manifest (old dirs intact, new dirs unreferenced garbage that
:meth:`attach` sweeps) or the new manifest (new dirs complete) — the
topology change is transactional, and no acknowledged write is in
neither generation: the old shard's WAL covers everything up to the SMO,
the new checkpoints everything at it.

The facade (:class:`repro.serve.sharded.ShardedAlexIndex`) decides *when*
to log, checkpoint, and recover; this class owns the files.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.errors import PersistenceError

from .checkpoint import (MANIFEST_MAGIC, MANIFEST_VERSION,
                         CheckpointManager, read_json, write_json_atomic)
from .wal import WriteAheadLog

SERVICE_MANIFEST_NAME = "SERVICE_MANIFEST.json"

#: Default logged operations per shard between automatic checkpoints.
DEFAULT_CHECKPOINT_EVERY = 8192


@dataclass
class ShardDurabilityState:
    """One shard position's open durability artifacts."""

    dirname: str
    manager: CheckpointManager
    wal: WriteAheadLog
    ops_since_checkpoint: int = 0
    extra: dict = field(default_factory=dict)


class ShardedDurability:
    """Owns the service's durability directory tree.

    Use :meth:`create` for a fresh service (e.g. at ``bulk_load``) and
    :meth:`attach` to reopen an existing tree for recovery.
    """

    def __init__(self, root: str, fsync: str = "batch",
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY):
        self.root = root
        self.fsync = fsync
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._shards: List[ShardDurabilityState] = []
        self._boundaries: List[float] = []
        self._next_dir = 0

    # ------------------------------------------------------------------
    # Manifest + lifecycle
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, SERVICE_MANIFEST_NAME)

    def exists(self) -> bool:
        return os.path.exists(self.manifest_path)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def boundaries(self) -> List[float]:
        return list(self._boundaries)

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.root, self._shards[shard].dirname)

    def shard_state(self, shard: int) -> ShardDurabilityState:
        return self._shards[shard]

    def _allocate_dirname(self) -> str:
        name = f"shard-{self._next_dir:08d}"
        self._next_dir += 1
        return name

    def _open_state(self, dirname: str,
                    must_exist: bool = False) -> ShardDurabilityState:
        shard_root = os.path.join(self.root, dirname)
        manager = CheckpointManager(shard_root)
        if must_exist and not manager.exists():
            # Never initialize on attach: a referenced shard whose
            # manifest vanished is corruption, and writing a fresh empty
            # manifest here would make recovery silently return an empty
            # shard instead of raising.
            raise PersistenceError(
                f"{shard_root}: shard referenced by the service manifest "
                "has no MANIFEST.json — corrupt durability tree")
        manager.initialize()
        wal = WriteAheadLog(manager.wal_dir, fsync=self.fsync)
        return ShardDurabilityState(dirname, manager, wal)

    def _write_service_manifest(self) -> None:
        write_json_atomic(self.manifest_path, {
            "format": MANIFEST_MAGIC,
            "version": MANIFEST_VERSION,
            "kind": "sharded",
            "boundaries": [float(b) for b in self._boundaries],
            "shards": [state.dirname for state in self._shards],
            "next_dir": self._next_dir,
        })

    def create(self, boundaries: Sequence[float]) -> None:
        """Lay out a fresh tree for ``len(boundaries) + 1`` shards
        (raises :class:`PersistenceError` over an existing one)."""
        if self.exists():
            raise PersistenceError(
                f"{self.root}: already a durability directory — recover "
                "from it or point at a fresh path")
        os.makedirs(self.root, exist_ok=True)
        self._boundaries = [float(b) for b in boundaries]
        self._shards = [self._open_state(self._allocate_dirname())
                        for _ in range(len(self._boundaries) + 1)]
        self._write_service_manifest()

    def attach(self) -> None:
        """Reopen an existing tree (the recovery entry point).  Sweeps
        shard directories a crashed topology change left unreferenced."""
        kind = service_manifest_kind(self.root)
        if kind != "sharded":
            hint = ("; it is one shard's durability root — recover the "
                    "service root above it" if kind == "single" else "")
            raise PersistenceError(
                f"{self.root}: no {SERVICE_MANIFEST_NAME}, not a durable "
                f"service directory{hint}")
        data = read_json(self.manifest_path)
        if data.get("kind") != "sharded":
            raise PersistenceError(
                f"{self.manifest_path}: kind {data.get('kind')!r} is not "
                "'sharded'")
        self._boundaries = [float(b) for b in data["boundaries"]]
        self._next_dir = int(data.get("next_dir", 0))
        referenced = list(data["shards"])
        self._shards = [self._open_state(name, must_exist=True)
                        for name in referenced]
        # GC: a crash mid-SMO may have left fully-built but never
        # published shard dirs behind, and a crash mid-checkpoint can
        # leave superseded or half-written snapshot files.
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if (os.path.isdir(path) and name.startswith("shard-")
                    and name not in referenced):
                shutil.rmtree(path, ignore_errors=True)
        for state in self._shards:
            for stale in state.manager.stale_checkpoints():
                try:
                    os.remove(stale)
                except OSError:
                    pass

    def close(self) -> None:
        for state in self._shards:
            state.wal.close()

    def sync(self) -> None:
        """Hard durability barrier across every shard WAL."""
        for state in self._shards:
            state.wal.sync()

    # ------------------------------------------------------------------
    # Logging and checkpoints
    # ------------------------------------------------------------------

    def log(self, shard: int, op: int, keys,
            payloads=None) -> Tuple[int, bytes]:
        """Append one frame to the shard's WAL; returns its LSN and the
        record's bytes.  ``payloads`` may be pre-encoded (see
        :func:`.wal.encode_payloads`)."""
        state = self._shards[shard]
        record = state.wal.append_record(op, keys, payloads)
        state.ops_since_checkpoint += len(keys)
        return state.wal.last_lsn, record

    def should_checkpoint(self, shard: int) -> bool:
        return (self._shards[shard].ops_since_checkpoint
                >= self.checkpoint_every)

    def checkpoint(self, shard: int,
                   write_snapshot: Callable[[str], None],
                   counters: Optional[dict] = None) -> int:
        """Publish a shard checkpoint at its current WAL head and
        truncate the segments behind it; returns the checkpoint LSN."""
        state = self._shards[shard]
        lsn = state.wal.last_lsn
        state.wal.roll()
        state.manager.publish(lsn, write_snapshot, counters=counters)
        state.wal.truncate_upto(lsn)
        lag = state.ops_since_checkpoint
        state.ops_since_checkpoint = 0
        obs.emit("checkpoint.shard", shard=shard, lsn=lsn, lag_ops=lag)
        return lsn

    def lag_ops(self) -> List[int]:
        """Per-shard WAL lag: operations logged since each shard's last
        checkpoint (the dashboard's "how much replay a crash would cost"
        column)."""
        return [state.ops_since_checkpoint for state in self._shards]

    # ------------------------------------------------------------------
    # Topology changes (shard split / merge)
    # ------------------------------------------------------------------

    def rewrite_topology(self, start: int, stop: int,
                         snapshot_writers: Sequence[Callable[[str], None]],
                         boundaries: Sequence[float],
                         counters: Optional[Sequence[dict]] = None) -> None:
        """Transactionally replace shard positions ``[start, stop)`` with
        ``len(snapshot_writers)`` fresh shards.

        Each writer persists the corresponding new shard's full contents
        (its generation-zero checkpoint, LSN 0 with an empty WAL); the
        service manifest flips to the new topology in one atomic rename;
        only then are the retired directories deleted.
        """
        fresh: List[ShardDurabilityState] = []
        try:
            for i, writer in enumerate(snapshot_writers):
                state = self._open_state(self._allocate_dirname())
                seed = None if counters is None else counters[i]
                state.manager.publish(0, writer, counters=seed)
                fresh.append(state)
        except BaseException:
            for state in fresh:
                state.wal.close()
                shutil.rmtree(os.path.join(self.root, state.dirname),
                              ignore_errors=True)
            raise
        outgoing = self._shards[start:stop]
        self._shards[start:stop] = fresh
        self._boundaries = [float(b) for b in boundaries]
        self._write_service_manifest()  # <- the commit point
        for state in outgoing:
            state.wal.close()
            shutil.rmtree(os.path.join(self.root, state.dirname),
                          ignore_errors=True)

def service_manifest_kind(root: str) -> Optional[str]:
    """``"sharded"``, ``"single"``, or ``None`` — which durability layout
    (if any) lives under ``root``.  The CLI's ``recover`` and
    :meth:`ShardedDurability.attach` dispatch on this."""
    if os.path.exists(os.path.join(root, SERVICE_MANIFEST_NAME)):
        return "sharded"
    if os.path.exists(os.path.join(root, "MANIFEST.json")):
        return "single"
    return None
