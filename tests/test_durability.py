"""Durability subsystem: WAL mechanics, checkpoints, recovery semantics,
and the crash-window property tests (no acked write lost, no phantoms)."""

import os
import zlib

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.config import ga_armi
from repro.core.errors import (DuplicateKeyError, KeyNotFoundError,
                               PersistenceError, WALCorruptionError)
from repro.core.policy import CostModelPolicy
from repro.durability import (CheckpointManager, OP_DELETE, OP_INSERT,
                              WriteAheadLog, iter_frames, recover_index)
from repro.durability.wal import _FRAME_HEADER, list_segments
from repro.serve import ShardedAlexIndex


def wal_dir(tmp_path, name="wal"):
    return str(tmp_path / name)


class TestWALBasics:
    def test_append_and_replay_roundtrip(self, tmp_path):
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            keys1 = np.array([3.0, 1.0, 2.0])
            lsn1 = wal.append(OP_INSERT, keys1, ["a", "b", "c"])
            lsn2 = wal.append(OP_DELETE, np.array([1.0]))
            assert (lsn1, lsn2) == (1, 2)
        frames = list(iter_frames(wal_dir(tmp_path)))
        assert [f.lsn for f in frames] == [1, 2]
        assert frames[0].op == OP_INSERT
        np.testing.assert_array_equal(frames[0].keys, keys1)
        assert frames[0].payloads == ["a", "b", "c"]
        assert frames[1].op == OP_DELETE
        assert frames[1].payloads is None

    def test_after_lsn_filter(self, tmp_path):
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            for i in range(5):
                wal.append(OP_INSERT, np.array([float(i)]), [None])
        assert [f.lsn for f in iter_frames(wal_dir(tmp_path),
                                           after_lsn=3)] == [4, 5]

    def test_lsn_continues_across_reopen(self, tmp_path):
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            wal.append(OP_INSERT, np.array([1.0]), [None])
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            assert wal.last_lsn == 1
            assert wal.append(OP_INSERT, np.array([2.0]), [None]) == 2
        assert [f.lsn for f in iter_frames(wal_dir(tmp_path))] == [1, 2]

    def test_segment_roll_and_truncate(self, tmp_path):
        with WriteAheadLog(wal_dir(tmp_path), fsync="off",
                           segment_bytes=1024) as wal:
            for i in range(50):
                wal.append(OP_INSERT, np.arange(i * 10.0, i * 10.0 + 8),
                           [None] * 8)
            assert wal.num_segments > 1
            # A checkpoint at the head should allow dropping every sealed
            # segment.
            head = wal.last_lsn
            wal.roll()
            removed = wal.truncate_upto(head)
            assert removed >= 1
            # Replay after truncation: nothing before the checkpoint
            # remains, appends continue seamlessly.
            wal.append(OP_INSERT, np.array([1e9]), [None])
            frames = list(wal.frames(after_lsn=head))
            assert [f.lsn for f in frames] == [head + 1]

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(wal_dir(tmp_path), fsync="yes-please")

    def test_fsync_modes_all_preserve_frames(self, tmp_path):
        for mode in ("always", "batch", "off"):
            directory = wal_dir(tmp_path, f"wal-{mode}")
            with WriteAheadLog(directory, fsync=mode,
                               group_commit=3) as wal:
                for i in range(10):
                    wal.append(OP_INSERT, np.array([float(i)]), [i])
            assert len(list(iter_frames(directory))) == 10


class TestWALTornTail:
    def _fill(self, tmp_path, n=6):
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            for i in range(n):
                wal.append(OP_INSERT, np.array([float(i)]), [f"p{i}"])
        return list_segments(wal_dir(tmp_path))[-1]

    def test_truncated_final_frame_is_tolerated(self, tmp_path):
        tail = self._fill(tmp_path)
        with open(tail, "r+b") as fh:
            fh.truncate(os.path.getsize(tail) - 7)
        frames = list(iter_frames(wal_dir(tmp_path)))
        assert [f.lsn for f in frames] == [1, 2, 3, 4, 5]

    def test_garbage_after_valid_frames_is_tolerated(self, tmp_path):
        tail = self._fill(tmp_path)
        with open(tail, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef not a frame")
        assert len(list(iter_frames(wal_dir(tmp_path)))) == 6

    def test_append_after_torn_tail_resumes_cleanly(self, tmp_path):
        tail = self._fill(tmp_path)
        with open(tail, "r+b") as fh:
            fh.truncate(os.path.getsize(tail) - 3)
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            assert wal.last_lsn == 5  # frame 6 was torn away
            assert wal.append(OP_INSERT, np.array([99.0]), [None]) == 6
        frames = list(iter_frames(wal_dir(tmp_path)))
        assert [f.lsn for f in frames] == [1, 2, 3, 4, 5, 6]
        assert frames[-1].keys[0] == 99.0

    def test_bitflip_before_final_frame_raises_not_truncates(self,
                                                             tmp_path):
        """Regression: damage in the *middle* of the final segment —
        valid acknowledged frames exist after it — must raise, and
        reopening must refuse to truncate those frames away.  Only true
        trailing damage is a torn tail."""
        tail = self._fill(tmp_path, n=6)
        size_before = os.path.getsize(tail)
        # Corrupt the body of an early frame (frame boundaries: the
        # header is 16 bytes, each frame is 36 + 8 + small pickle).
        with open(tail, "r+b") as fh:
            fh.seek(80)
            byte = fh.read(1)
            fh.seek(80)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WALCorruptionError, match="mid-log"):
            list(iter_frames(wal_dir(tmp_path)))
        with pytest.raises(WALCorruptionError, match="mid-log"):
            WriteAheadLog(wal_dir(tmp_path), fsync="off")
        # Nothing was destructively truncated by the failed opens.
        assert os.path.getsize(tail) == size_before

    def test_a_tail_finished_while_it_is_read_stays_a_torn_tail(
            self, tmp_path, monkeypatch):
        """A reader of a live log (a replica bootstrapping while writes
        stream) can read the final frame half-written.  The bytes it read
        decide: it stops at the break, although by the time it checks the
        writer has finished that frame and appended another."""
        from repro.durability import wal as wal_module
        tail = self._fill(tmp_path)
        with open(tail, "rb") as fh:
            six = fh.read()
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            wal.append(OP_INSERT, np.array([6.0]), ["p6"])
        with open(tail, "rb") as fh:
            seven = fh.read()
        with open(tail, "wb") as fh:
            fh.write(six[:-7])
        read = wal_module._read_segment

        def read_then_write(path, *args, **kwargs):
            result = read(path, *args, **kwargs)
            with open(path, "wb") as fh:
                fh.write(seven)
            return result

        monkeypatch.setattr(wal_module, "_read_segment", read_then_write)
        frames = list(iter_frames(wal_dir(tmp_path)))
        assert [f.lsn for f in frames] == [1, 2, 3, 4, 5]

    def test_bitflip_detected_by_crc(self, tmp_path):
        tail = self._fill(tmp_path, n=3)
        size = os.path.getsize(tail)
        with open(tail, "r+b") as fh:
            # Flip one byte inside the *last* frame's body.
            fh.seek(size - 4)
            byte = fh.read(1)
            fh.seek(size - 4)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert [f.lsn for f in iter_frames(wal_dir(tmp_path))] == [1, 2]

    def test_torn_header_in_final_segment_is_tolerated(self, tmp_path):
        """A crash during a segment roll can leave a final segment whose
        16-byte header never fully landed — that is a torn tail, not
        corruption: recovery keeps every earlier frame and appends
        resume after a header rewrite."""
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            for i in range(4):
                wal.append(OP_INSERT, np.array([float(i)]), [None])
        # Simulate the crash: a next segment file with a partial header.
        torn = os.path.join(wal_dir(tmp_path), "wal-00000002.seg")
        with open(torn, "wb") as fh:
            fh.write(b"\x53")  # 1 of 16 header bytes made it
        assert [f.lsn for f in iter_frames(wal_dir(tmp_path))] == [1, 2,
                                                                   3, 4]
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            assert wal.last_lsn == 4
            assert wal.append(OP_INSERT, np.array([9.0]), [None]) == 5
        assert [f.lsn for f in iter_frames(wal_dir(tmp_path))
                ] == [1, 2, 3, 4, 5]

    def test_empty_final_segment_file_is_tolerated(self, tmp_path):
        with WriteAheadLog(wal_dir(tmp_path), fsync="off") as wal:
            wal.append(OP_INSERT, np.array([1.0]), [None])
        open(os.path.join(wal_dir(tmp_path), "wal-00000002.seg"),
             "wb").close()
        assert [f.lsn for f in iter_frames(wal_dir(tmp_path))] == [1]

    def test_corruption_before_tail_segment_raises(self, tmp_path):
        with WriteAheadLog(wal_dir(tmp_path), fsync="off",
                           segment_bytes=1024) as wal:
            for i in range(60):
                wal.append(OP_INSERT, np.arange(i * 8.0, i * 8.0 + 6),
                           [None] * 6)
            assert wal.num_segments > 2
        first = list_segments(wal_dir(tmp_path))[0]
        with open(first, "r+b") as fh:
            fh.truncate(os.path.getsize(first) - 5)
        with pytest.raises(WALCorruptionError):
            list(iter_frames(wal_dir(tmp_path)))

    def test_frame_header_size_is_fixed_width(self):
        # The record header is a fixed-width little-endian numpy struct;
        # changing it silently would break every existing log.
        assert _FRAME_HEADER.itemsize == 36
        assert zlib.crc32(b"") == 0  # seed used by the frame CRC


class TestCheckpointManager:
    def test_publish_and_latest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "d"))
        manager.initialize()
        assert manager.latest() is None
        path = manager.publish(7, lambda tmp: open(tmp, "wb").close())
        assert manager.latest() == (path, 7)
        # A newer checkpoint supersedes and removes the old file.
        path2 = manager.publish(12, lambda tmp: open(tmp, "wb").close())
        assert manager.latest() == (path2, 12)
        assert not os.path.exists(path)

    def test_manifest_naming_missing_checkpoint_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "d"))
        manager.initialize()
        path = manager.publish(3, lambda tmp: open(tmp, "wb").close())
        os.remove(path)
        with pytest.raises(PersistenceError):
            manager.latest()

    def test_foreign_manifest_rejected(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "MANIFEST.json").write_text('{"something": "else"}')
        with pytest.raises(PersistenceError):
            CheckpointManager(str(root)).latest()


def build_durable(tmp_path, n=3000, **kwargs):
    """A one-shard durable service: the single-node durable index."""
    keys = np.unique(np.random.default_rng(42).uniform(0, 1e6, n))
    kwargs.setdefault("fsync", "off")
    kwargs.setdefault("checkpoint_every", 1 << 30)
    durable = ShardedAlexIndex.bulk_load(
        keys, num_shards=1, durability_dir=str(tmp_path / "dur"), **kwargs)
    return durable, keys


def shard_root(service) -> str:
    """The one shard's own durability root (its MANIFEST.json, WAL and
    checkpoints), which :func:`recover_index` reads."""
    return service.durability.shard_dir(0)


def shard_wal(service) -> WriteAheadLog:
    return service.durability.shard_state(0).wal


def shard_manager(service) -> CheckpointManager:
    return service.durability.shard_state(0).manager


class TestOneShardDurableService:
    def test_recovery_equals_live_state(self, tmp_path):
        durable, keys = build_durable(tmp_path)
        rng = np.random.default_rng(7)
        durable.insert_many(np.unique(rng.uniform(2e6, 3e6, 500)),
                            list(range(500)))
        durable.delete_many(keys[100:160])
        durable.insert(-5.0, "x")
        durable.delete(float(keys[0]))
        durable.update(-5.0, "y")
        durable.upsert(9e9, "z")
        assert durable.erase_many(np.concatenate(
            [keys[200:220], [1e12]])) == 20
        live = list(durable.items())
        durable.close()

        result = recover_index(shard_root(durable))
        assert result.index is not durable.shards[0]
        assert list(result.index.items()) == live
        result.index.validate()

    def test_recovered_leaves_run_on_the_recovery_policy(self, tmp_path):
        """Every leaf of a recovered index — not just the index — runs
        its contraction and SMO bookkeeping on the recovery's policy,
        and so do the leaves the WAL replay's SMOs create."""
        durable, _ = build_durable(
            tmp_path, config=ga_armi(max_keys_per_node=256))
        durable.insert_many(np.arange(2e6, 2e6 + 2000))
        durable.close()
        policy = CostModelPolicy()
        result = recover_index(shard_root(durable), policy=policy)
        leaves = list(result.index.leaves())
        assert len(leaves) > 1
        assert result.index.policy is policy
        assert all(leaf.policy is policy for leaf in leaves)
        reopened = ShardedAlexIndex.recover(str(tmp_path / "dur"),
                                            policy=policy, fsync="off")
        assert all(leaf.policy is policy
                   for leaf in reopened.shards[0].leaves())
        reopened.close()

    def test_failed_ops_are_not_logged(self, tmp_path):
        durable, keys = build_durable(tmp_path, n=400)
        head = shard_wal(durable).last_lsn
        with pytest.raises(DuplicateKeyError):
            durable.insert(float(keys[0]))
        with pytest.raises(KeyNotFoundError):
            durable.delete(-1e12)
        with pytest.raises(DuplicateKeyError):
            durable.insert_many(np.array([keys[1], 7e7]))
        assert shard_wal(durable).last_lsn == head  # nothing reached the log
        durable.close()
        result = recover_index(shard_root(durable))
        assert len(result.index) == len(keys)

    def test_checkpoint_bounds_replay(self, tmp_path):
        durable, keys = build_durable(tmp_path, n=1000)
        durable.insert_many(np.arange(2e6, 2e6 + 200))
        durable.checkpoint()
        durable.insert_many(np.arange(3e6, 3e6 + 50))
        durable.close()
        result = recover_index(shard_root(durable))
        assert result.frames_replayed == 1
        assert result.ops_replayed == 50
        assert len(result.index) == len(keys) + 250

    def test_auto_checkpoint_by_op_count(self, tmp_path):
        durable, keys = build_durable(tmp_path, n=800,
                                      checkpoint_every=100)
        for i in range(150):
            durable.insert(5e6 + i)
        latest = shard_manager(durable).latest()
        assert latest is not None and latest[1] > 0
        durable.close()
        result = recover_index(shard_root(durable))
        assert len(result.index) == len(keys) + 150
        assert result.frames_replayed < 150  # the checkpoint absorbed most

    def test_writes_after_checkpoint_and_reopen_survive(self, tmp_path):
        """Regression: checkpoint truncation can leave a frame-less WAL
        tail; reopening must resume the LSN sequence from the tail
        header, not from zero — otherwise post-reopen acknowledged
        writes get LSNs at or below the checkpoint LSN and recovery's
        ``after_lsn`` filter silently drops them."""
        durable, keys = build_durable(tmp_path, n=500)
        durable.insert_many(np.arange(2e6, 2e6 + 50))
        durable.checkpoint()
        checkpoint_lsn = shard_manager(durable).latest()[1]
        durable.close()

        reopened = ShardedAlexIndex.recover(str(tmp_path / "dur"),
                                            fsync="off")
        assert shard_wal(reopened).last_lsn == checkpoint_lsn
        reopened.insert(9e6, "post-reopen")
        assert shard_wal(reopened).last_lsn == checkpoint_lsn + 1
        reopened.sync()
        root = shard_root(reopened)
        del reopened  # crash

        result = recover_index(root)
        assert result.index.lookup(9e6) == "post-reopen"
        assert result.frames_replayed == 1

    def test_create_refuses_to_clobber(self, tmp_path):
        durable, _ = build_durable(tmp_path, n=100)
        durable.close()
        with pytest.raises(PersistenceError):
            ShardedAlexIndex(durability_dir=str(tmp_path / "dur"))

    def test_open_sweeps_stale_checkpoint_leftovers(self, tmp_path):
        durable, _ = build_durable(tmp_path, n=200)
        durable.checkpoint()
        current = shard_manager(durable).latest()[0]
        stale = os.path.join(shard_root(durable),
                             "ckpt-999999999999.npz.tmp")
        open(stale, "wb").write(b"half-written snapshot")
        durable.close()
        reopened = ShardedAlexIndex.recover(str(tmp_path / "dur"),
                                            fsync="off")
        assert not os.path.exists(stale)
        assert os.path.exists(current)
        reopened.close()

    def test_open_fresh_directory_creates(self, tmp_path):
        durable = ShardedAlexIndex(durability_dir=str(tmp_path / "new"),
                                   fsync="off")
        durable.insert(1.0, "a")
        durable.close()
        reopened = ShardedAlexIndex.recover(str(tmp_path / "new"),
                                            fsync="off")
        assert reopened.lookup(1.0) == "a"
        assert reopened.last_recovery[0].frames_replayed == 1
        reopened.close()


class TestCrashWindows:
    """Property tests for the crash-consistency contract: a crash at any
    point between a WAL append and a checkpoint publication recovers to a
    prefix-consistent index — every acknowledged (synced) write survives,
    and no key that was never written appears."""

    @staticmethod
    def _bulk_load(tmp_path, keys, fsync="off"):
        """A one-shard durable service over ``keys``, and its shard's
        own durability root (where the WAL and checkpoints live)."""
        durable = ShardedAlexIndex.bulk_load(
            keys, num_shards=1, durability_dir=str(tmp_path / "dur"),
            fsync=fsync, checkpoint_every=1 << 30)
        return durable, shard_root(durable)

    def _run_ops(self, durable, rng, num_ops, log):
        """Random mutations; ``log`` records each op after it is acked."""
        alive = {k for k, _ in durable.items()}
        for i in range(num_ops):
            kind = rng.integers(4)
            if kind == 0 or not alive:
                fresh = float(rng.uniform(2e6, 3e6)) + i * 1e-3
                durable.insert(fresh, f"p{i}")
                alive.add(fresh)
                log.append(("insert", fresh, f"p{i}"))
            elif kind == 1:
                batch = np.unique(rng.uniform(4e6, 5e6, 8)) + i * 1e-2
                durable.insert_many(batch, [None] * len(batch))
                alive.update(batch.tolist())
                log.append(("insert_many", batch, None))
            elif kind == 2:
                victim = rng.choice(sorted(alive))
                durable.delete(float(victim))
                alive.discard(float(victim))
                log.append(("delete", float(victim), None))
            else:
                victim = rng.choice(sorted(alive))
                durable.upsert(float(victim), f"u{i}")
                log.append(("upsert", float(victim), f"u{i}"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torn_write_recovers_to_prefix(self, tmp_path, seed):
        """Crash simulation: run ops, then chop the WAL tail at a random
        byte (a torn final frame).  The recovered index must equal the
        reference replay of some *prefix* of the acked op log."""
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.uniform(0, 1e6, 300))
        durable, root = self._bulk_load(tmp_path, keys)
        log = []
        self._run_ops(durable, rng, 60, log)
        shard_wal(durable).flush()
        # Tear the tail mid-frame (somewhere after the segment header).
        tail = list_segments(os.path.join(root, "wal"))[-1]
        size = os.path.getsize(tail)
        cut = int(rng.integers(16, size + 1))
        with open(tail, "r+b") as fh:
            fh.truncate(cut)

        result = recover_index(root)
        recovered = dict(result.index.items())

        # Build every prefix state until one matches (payloads included:
        # distinct per op, so each prefix state is unique).
        reference = AlexIndex.bulk_load(keys)
        states = [dict(reference.items())]
        for op, arg, payload in log:
            if op == "insert":
                reference.insert(arg, payload)
            elif op == "insert_many":
                reference.insert_many(arg, [payload] * len(arg))
            elif op == "delete":
                reference.delete(arg)
            else:
                reference.upsert(arg, payload)
            states.append(dict(reference.items()))

        matches = [i for i, state in enumerate(states)
                   if state == recovered]
        assert matches, "recovered state is not any prefix of the op log"
        # Prefix-consistency: frames survive in order, so the number of
        # replayed frames equals the matched prefix length.
        assert result.frames_replayed == matches[0]

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_synced_ops_always_survive(self, tmp_path, seed):
        """With a hard sync before the crash, *every* acked op survives
        any torn garbage appended afterwards (no acked write lost), and
        nothing else appears (no phantom keys)."""
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.uniform(0, 1e6, 300))
        durable, root = self._bulk_load(tmp_path, keys)
        log = []
        self._run_ops(durable, rng, 40, log)
        durable.sync()
        expected = {k: v for k, v in durable.items()}
        # Crash while a later frame is being appended: garbage tail.
        tail = list_segments(os.path.join(root, "wal"))[-1]
        with open(tail, "ab") as fh:
            fh.write(os.urandom(int(rng.integers(1, 200))))

        result = recover_index(root)
        assert dict(result.index.items()) == expected

    @pytest.mark.parametrize("crash_point", ["snapshot-written", "renamed",
                                             "manifest-published"])
    def test_crash_during_checkpoint_publication(self, tmp_path,
                                                 crash_point):
        """A kill at any step of checkpoint publication leaves a
        recoverable directory with nothing lost: either the old
        checkpoint + full WAL, or the new checkpoint."""

        class SimulatedCrash(BaseException):
            pass

        keys = np.unique(np.random.default_rng(9).uniform(0, 1e6, 400))
        durable, root = self._bulk_load(tmp_path, keys)
        durable.insert_many(np.arange(2e6, 2e6 + 100))
        expected = dict(durable.items())

        def boom(point):
            if point == crash_point:
                raise SimulatedCrash

        shard_manager(durable).fault_hook = boom
        with pytest.raises(SimulatedCrash):
            durable.checkpoint()
        shard_wal(durable).flush()  # the "crash" abandons the process

        result = recover_index(root)
        assert dict(result.index.items()) == expected
        result.index.validate()

    def test_kill_between_append_and_checkpoint(self, tmp_path):
        """The satellite's exact window: ops are acked (appended +
        synced) but the next checkpoint never completes — recovery must
        replay them from the previous checkpoint."""
        keys = np.unique(np.random.default_rng(11).uniform(0, 1e6, 500))
        durable, root = self._bulk_load(tmp_path, keys, fsync="always")
        durable.insert_many(np.arange(2e6, 2e6 + 64))
        durable.delete_many(keys[:16])
        expected = dict(durable.items())
        # Crash before any checkpoint happens: abandon without close.
        del durable

        result = recover_index(root)
        assert dict(result.index.items()) == expected
        assert result.checkpoint_lsn == 0  # generation-zero bulk snapshot
        assert result.frames_replayed == 2
