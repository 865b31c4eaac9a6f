"""Checkpoints: periodic full-index snapshots that bound WAL replay.

A WAL alone makes recovery O(history); a **checkpoint** — a full snapshot
of the index through :mod:`~repro.durability.persistence` — resets that
clock.
Recovery loads the latest checkpoint and replays only the WAL frames past
its LSN, and the checkpoint manager deletes the log segments the
checkpoint made redundant.

Publication is crash-atomic, in the classic three-step dance:

1. the snapshot is written to a temporary file in the same directory and
   fsynced (a crash here leaves garbage the next publish overwrites,
   never a half-checkpoint with a live name);
2. ``os.replace`` renames it to its final ``ckpt-<lsn>.npz`` name
   (atomic on POSIX), and the directory is fsynced so the name survives;
3. the **manifest** — the single small JSON file recovery trusts — is
   rewritten the same way (tmp + fsync + atomic replace).  Only once the
   manifest points at the new checkpoint are the old checkpoint files
   and the now-redundant WAL segments deleted.

A crash at *any* point between those steps leaves a manifest that points
at a complete, validated older checkpoint with its full WAL tail intact —
recovery is never worse than before the publish started.

``fault_hook`` is the crash-injection seam: tests install a callback
that raises at a named point (``"snapshot-written"``, ``"renamed"``,
``"manifest-published"``) to prove exactly that invariant.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.obs import trace
from repro.core.errors import PersistenceError

#: Stamp in every durability manifest (single-index and service alike).
MANIFEST_MAGIC = "repro-durability"
MANIFEST_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
WAL_DIRNAME = "wal"


def write_json_atomic(path: str, data: dict) -> None:
    """Write ``data`` as JSON with tmp-file + fsync + atomic-rename
    publication (the manifest discipline; shared with the service-level
    topology manifest)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def read_json(path: str) -> dict:
    """Load a manifest, raising :class:`PersistenceError` when it is not
    one of ours (wrong stamp or unreadable JSON)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"{path}: unreadable manifest: "
                               f"{exc}") from exc
    if not isinstance(data, dict) or data.get("format") != MANIFEST_MAGIC:
        raise PersistenceError(
            f"{path}: format stamp {data.get('format')!r} is not "
            f"{MANIFEST_MAGIC!r}" if isinstance(data, dict)
            else f"{path}: manifest is not a JSON object")
    if data.get("version") != MANIFEST_VERSION:
        raise PersistenceError(
            f"{path}: unsupported manifest version "
            f"{data.get('version')!r}")
    return data


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class CheckpointManager:
    """Owns one durability directory's checkpoints and manifest.

    The directory layout under ``root``::

        MANIFEST.json      <- {"checkpoint": {"file": ..., "lsn": ...}}
        wal/wal-*.seg      <- the segments (owned by WriteAheadLog)
        ckpt-<lsn>.npz     <- at most the latest + one being published
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: Crash-injection seam: called with a point name at each step of
        #: :meth:`publish`; tests raise from it to simulate a crash.
        self.fault_hook: Optional[Callable[[str], None]] = None

    # -- paths ---------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    @property
    def wal_dir(self) -> str:
        return os.path.join(self.root, WAL_DIRNAME)

    def checkpoint_path(self, lsn: int) -> str:
        return os.path.join(self.root, f"ckpt-{lsn:012d}.npz")

    # -- manifest ------------------------------------------------------

    def _manifest(self) -> dict:
        try:
            return read_json(self.manifest_path)
        except FileNotFoundError:
            return {"format": MANIFEST_MAGIC, "version": MANIFEST_VERSION,
                    "checkpoint": None, "counters": None}

    def exists(self) -> bool:
        return os.path.exists(self.manifest_path)

    def initialize(self) -> None:
        """Publish an empty manifest (no checkpoint yet): marks the
        directory as a durability root so recovery of a never-checkpointed
        index replays the WAL from scratch."""
        if not self.exists():
            write_json_atomic(self.manifest_path, self._manifest())

    def latest(self) -> Optional[Tuple[str, int]]:
        """``(checkpoint_path, lsn)`` from the manifest, or ``None`` when
        no checkpoint was ever published.  A manifest naming a missing
        file raises — that is corruption, not a fresh directory."""
        entry = self._manifest().get("checkpoint")
        if entry is None:
            return None
        path = os.path.join(self.root, entry["file"])
        if not os.path.exists(path):
            raise PersistenceError(
                f"{self.manifest_path}: checkpoint {entry['file']} is "
                "missing")
        return path, int(entry["lsn"])

    def saved_counters(self) -> Optional[dict]:
        """The work-counter snapshot stored with the latest checkpoint
        (crash respawn seeds the fresh executor from it so aggregate
        tallies stay monotone across a worker death)."""
        return self._manifest().get("counters")

    # -- publication ---------------------------------------------------

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def publish(self, lsn: int, write_snapshot: Callable[[str], None],
                counters: Optional[dict] = None) -> str:
        """Publish a checkpoint at ``lsn``.

        ``write_snapshot(tmp_path)`` must write the full snapshot to the
        given temporary path — e.g. ``persistence.save_index`` for an
        in-process index, or a worker-side persist op for a process-hosted
        shard.  Returns the final checkpoint path.
        """
        with trace.span("checkpoint.publish"):
            target = self.checkpoint_path(lsn)
            tmp = target + ".tmp"
            write_snapshot(tmp)
            with open(tmp, "rb+") as fh:
                os.fsync(fh.fileno())
            self._fault("snapshot-written")
            os.replace(tmp, target)
            _fsync_dir(self.root)
            self._fault("renamed")
            manifest = self._manifest()
            old = manifest.get("checkpoint")
            manifest["checkpoint"] = {"file": os.path.basename(target),
                                      "lsn": int(lsn)}
            manifest["counters"] = counters
            write_json_atomic(self.manifest_path, manifest)
            self._fault("manifest-published")
            if old is not None and old["file"] != os.path.basename(target):
                try:
                    os.remove(os.path.join(self.root, old["file"]))
                except FileNotFoundError:
                    pass
        obs.inc("checkpoint.published")
        return target

    def stale_checkpoints(self) -> List[str]:
        """Checkpoint files other than the manifest's current one (crash
        leftovers; safe to delete)."""
        entry = self._manifest().get("checkpoint")
        current = entry["file"] if entry else None
        out = []
        for name in os.listdir(self.root):
            if (name.startswith("ckpt-")
                    and (name.endswith(".npz") or name.endswith(".tmp"))
                    and name != current):
                out.append(os.path.join(self.root, name))
        return sorted(out)
