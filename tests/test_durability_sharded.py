"""Sharded-service durability: recovery equivalence under fault
injection on both execution backends, worker kill + respawn, and
transactional topology rewrites across shard split/merge."""

import hashlib
import os
import re
import signal
import time

import numpy as np
import pytest

from repro.core.errors import PersistenceError
from repro.durability import ShardedDurability, recover_index
from repro.durability.persistence import load_index
from repro.serve import ShardedAlexIndex
from repro.workloads import run_crash_recovery_scenario

BACKENDS = ["thread", "process"]


def make_service(tmp_path, backend, num_shards=3, n=4000, seed=0,
                 **kwargs):
    keys = np.unique(np.random.default_rng(seed).uniform(0, 1e6, n))
    kwargs.setdefault("fsync", "off")
    kwargs.setdefault("checkpoint_every", 1 << 30)
    service = ShardedAlexIndex.bulk_load(
        keys, num_shards=num_shards, backend=backend,
        durability_dir=str(tmp_path / "svc"), **kwargs)
    return service, keys


def random_mutations(service, reference, rng, rounds=12):
    """Drive the service and a plain-dict uncrashed reference through the
    same random mix of scalar and batch mutations."""
    salt = 0
    for _ in range(rounds):
        kind = rng.integers(5)
        if kind == 0:
            salt += 1
            batch = np.unique(rng.uniform(2e6, 3e6, 40)) + salt * 1e-4
            payloads = [int(k) for k in range(len(batch))]
            service.insert_many(batch, payloads)
            reference.update(zip(batch.tolist(), payloads))
        elif kind == 1 and len(reference) > 60:
            victims = np.array(sorted(reference))[
                rng.integers(0, len(reference) - 50)::len(reference) // 40
            ][:20]
            service.delete_many(victims)
            for v in victims.tolist():
                del reference[v]
        elif kind == 2:
            salt += 1
            key = float(rng.uniform(4e6, 5e6)) + salt * 1e-4
            service.insert(key, "scalar")
            reference[key] = "scalar"
        elif kind == 3 and reference:
            victim = sorted(reference)[int(rng.integers(len(reference)))]
            service.upsert(victim, "updated")
            reference[victim] = "updated"
        else:
            salt += 1
            extra = np.unique(rng.uniform(6e6, 7e6, 10)) + salt * 1e-4
            removed = service.erase_many(
                np.concatenate([extra[:3], [1e12]]))
            assert removed == 0  # none of these were present


@pytest.mark.parametrize("backend", BACKENDS)
class TestRecoveryEquivalence:
    def test_recover_matches_uncrashed_reference(self, tmp_path, backend):
        service, keys = make_service(tmp_path, backend)
        reference = {float(k): None for k in keys}
        random_mutations(service, reference, np.random.default_rng(1))
        assert dict(service.items()) == reference
        service.sync()
        service.backend.close()  # crash: no checkpoint, no orderly close

        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             backend=backend, fsync="off")
        try:
            assert dict(recovered.items()) == reference
            recovered.validate()
            assert sum(r.frames_replayed
                       for r in recovered.last_recovery) > 0
        finally:
            recovered.close()

    def test_generation_zero_checkpoint_covers_bulk_load(self, tmp_path,
                                                         backend):
        service, keys = make_service(tmp_path, backend, num_shards=2)
        service.close()
        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             backend=backend, fsync="off")
        try:
            assert len(recovered) == len(keys)
            # The bulk load recovers from snapshots, not WAL replay.
            assert all(r.frames_replayed == 0
                       for r in recovered.last_recovery)
        finally:
            recovered.close()

    def test_split_and_merge_rewrite_topology_durably(self, tmp_path,
                                                      backend):
        service, keys = make_service(tmp_path, backend, num_shards=2)
        reference = {float(k): None for k in keys}
        assert service.split_shard(0)
        extra = np.unique(np.random.default_rng(2).uniform(2e6, 3e6, 100))
        service.insert_many(extra)
        reference.update((float(k), None) for k in extra)
        service.merge_shards(1)
        service.insert(5e6, "post-merge")
        reference[5e6] = "post-merge"
        num_shards = service.num_shards
        service.sync()
        service.backend.close()

        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             backend=backend, fsync="off")
        try:
            assert recovered.num_shards == num_shards
            assert dict(recovered.items()) == reference
            recovered.validate()
        finally:
            recovered.close()

    def test_workload_scenario_reports_match(self, tmp_path, backend):
        result = run_crash_recovery_scenario(
            str(tmp_path / "scen"), num_keys=2500, num_ops=800,
            spec="delete-heavy", backend=backend, num_shards=2,
            fsync="off", seed=5)
        assert result["contents_match"], result
        assert result["frames_replayed"] > 0


class TestRecoveredConfigAndLog:
    def test_recover_preserves_custom_config(self, tmp_path):
        from repro.core.config import ga_armi
        config = ga_armi(max_keys_per_node=256, num_models=4)
        keys = np.unique(np.random.default_rng(20).uniform(0, 1e6, 2000))
        service = ShardedAlexIndex.bulk_load(
            keys, num_shards=2, config=config,
            durability_dir=str(tmp_path / "svc"), fsync="off")
        service.sync()
        service.backend.close()
        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             fsync="off")
        try:
            assert (recovered.config.max_keys_per_node
                    == config.max_keys_per_node)
            assert recovered.shards[0].config.max_keys_per_node == 256
        finally:
            recovered.close()

    def test_noop_erase_leaves_no_wal_frames(self, tmp_path):
        service, keys = make_service(tmp_path, "thread", num_shards=2,
                                     n=1000)
        heads = [service.durability.shard_state(s).wal.last_lsn
                 for s in range(2)]
        absent = np.array([5e6, 6e6, 7e6])
        assert service.erase_many(absent) == 0
        assert [service.durability.shard_state(s).wal.last_lsn
                for s in range(2)] == heads
        # A real erase still logs (on the owning shard only) and counts.
        assert service.erase_many(np.concatenate(
            [keys[:5], absent])) == 5
        assert (sum(service.durability.shard_state(s).wal.last_lsn
                    for s in range(2)) == sum(heads) + 1)
        service.close()


def leaf_digest(index) -> str:
    """Every leaf's slots, payloads, capacity, key count and model."""
    digest = hashlib.sha256()
    for leaf in index.leaves():
        model = (None if leaf.model is None
                 else (leaf.model.slope, leaf.model.intercept))
        digest.update(leaf.keys.tobytes())
        digest.update(leaf.occupied.tobytes())
        digest.update(repr((leaf.payloads.tolist(), leaf.capacity,
                            leaf.num_keys, model)).encode())
    return digest.hexdigest()


def shard_digest(service, shard, tmp_path) -> str:
    """A live shard's :func:`leaf_digest` on either backend, read back
    through a checkpoint archive (which loads the exact layout it
    saved)."""
    path = str(tmp_path / f"probe-{shard}.npz")
    service.backend.call(shard, "persist_to", path)
    return leaf_digest(load_index(path))


def crashed_tree(tmp_path, backend="thread"):
    """A two-shard durable tree whose WAL tails hold mixed writes past the
    generation-zero checkpoints, abandoned without a checkpoint."""
    service, keys = make_service(tmp_path, backend, num_shards=2, n=3000)
    reference = {float(k): None for k in keys}
    random_mutations(service, reference, np.random.default_rng(11),
                     rounds=16)
    service.sync()
    return service, reference


@pytest.mark.parametrize("backend", BACKENDS)
class TestOwnerRebuildsShard:
    """A shard is rebuilt only by its owner, from its own directory: the
    layout is what :func:`recover_index` builds, not a bulk load of the
    exported contents, and its counters continue from the checkpoint."""

    def test_recover_builds_the_recover_index_layout(self, tmp_path,
                                                     backend):
        service, reference = crashed_tree(tmp_path)
        dirs = [service.durability.shard_dir(s) for s in range(2)]
        service.backend.close()
        expected = [leaf_digest(recover_index(root).index) for root in dirs]
        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             backend=backend, fsync="off")
        try:
            assert [shard_digest(recovered, s, tmp_path)
                    for s in range(2)] == expected
            assert dict(recovered.items()) == reference
            assert ([r.num_keys for r in recovered.last_recovery]
                    == [recovered.backend.call(s, "num_keys")
                        for s in range(2)])
        finally:
            recovered.close()

    def test_counters_continue_from_the_checkpoint(self, tmp_path,
                                                   backend):
        service, _ = crashed_tree(tmp_path)
        service.checkpoint()
        saved = [service.durability.shard_state(s).manager.saved_counters()
                 for s in range(2)]
        service.close()
        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             backend=backend, fsync="off")
        try:
            assert all(r.frames_replayed == 0
                       for r in recovered.last_recovery)
            # Loading a checkpoint does no counted work, so a recovery
            # that replays nothing holds exactly the saved counters.
            for counters, seed in zip(recovered.shard_counters(), saved):
                assert seed["build_moves"] > 0
                assert counters.as_dict() == seed
        finally:
            recovered.close()


class TestCrossBackendRecovery:
    def test_thread_tree_recovers_on_process_backend(self, tmp_path):
        service, keys = make_service(tmp_path, "thread")
        extra = np.unique(np.random.default_rng(3).uniform(2e6, 3e6, 50))
        service.insert_many(extra)
        expected = dict(service.items())
        service.sync()
        service.backend.close()
        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             backend="process",
                                             fsync="off")
        try:
            assert dict(recovered.items()) == expected
        finally:
            recovered.close()


class TestWorkerKillRespawn:
    """Process-backend worker deaths mid-workload: detection, respawn
    from checkpoint + WAL tail, and service self-healing."""

    def test_killed_worker_respawns_on_next_touch(self, tmp_path):
        service, keys = make_service(tmp_path, "process")
        reference = dict(service.items())
        pids = service.backend.worker_pids()
        os.kill(pids[1], signal.SIGKILL)
        time.sleep(0.1)
        # Reads and writes keep flowing; the facade respawns shard 1.
        extra = np.unique(np.random.default_rng(4).uniform(0, 1e6, 60))
        extra = extra[~np.isin(extra, keys)]
        service.insert_many(extra)
        reference.update((float(k), None) for k in extra)
        assert dict(service.items()) == reference
        assert service.backend.dead_shards() == []
        assert service.backend.worker_pids()[1] != pids[1]
        service.validate()
        service.close()

    def test_kill_at_random_op_recovers_key_for_key(self, tmp_path):
        """The acceptance criterion: a worker killed at a random point of
        a random workload; the facade-healed service *and* the
        recovered-from-disk service both equal the uncrashed reference
        for every acknowledged write."""
        rng = np.random.default_rng(6)
        service, keys = make_service(tmp_path, "process", num_shards=2,
                                     n=2000)
        reference = {float(k): None for k in keys}
        kill_round = int(rng.integers(3, 9))
        for round_no in range(12):
            if round_no == kill_round:
                pids = service.backend.worker_pids()
                os.kill(pids[int(rng.integers(len(pids)))], signal.SIGKILL)
            random_mutations(service, reference, rng, rounds=1)
        assert dict(service.items()) == reference
        service.sync()
        service.backend.close()
        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             backend="thread", fsync="off")
        try:
            assert dict(recovered.items()) == reference
        finally:
            recovered.close()

    def test_scenario_runner_kill_mid_stream(self, tmp_path):
        result = run_crash_recovery_scenario(
            str(tmp_path / "scen"), num_keys=2000, num_ops=600,
            backend="process", num_shards=2, fsync="off",
            kill_worker_at=0.5, seed=7)
        assert result["worker_killed"]
        assert result["contents_match"], result

    def test_cold_respawn_builds_the_recover_index_layout(self, tmp_path):
        service, reference = crashed_tree(tmp_path, backend="process")
        try:
            os.kill(service.backend.worker_pids()[1], signal.SIGKILL)
            time.sleep(0.1)
            assert dict(service.items()) == reference  # respawns shard 1
            service.sync()
            expected = recover_index(service.durability.shard_dir(1)).index
            assert shard_digest(service, 1, tmp_path) == leaf_digest(
                expected)
        finally:
            service.close()

    def test_broken_pipe_with_live_worker_is_forced_out(self, tmp_path):
        """Regression: a worker whose pipe broke but whose process still
        reports alive (wedged, or a corpse slow to reap) must be
        terminated and replaced — skipping it while reporting the shard
        repaired would ack a logged write whose apply never landed."""
        service, keys = make_service(tmp_path, "process", num_shards=2,
                                     n=1500)
        reference = dict(service.items())
        old_pid = service.backend.worker_pids()[0]
        # Break the protocol without killing the process.
        service.backend._workers[0].conn.close()
        service.insert(-5.0, "after-breakage")  # routes to shard 0
        reference[-5.0] = "after-breakage"
        assert service.backend.worker_pids()[0] != old_pid
        assert dict(service.items()) == reference
        service.validate()
        service.close()

    def test_without_durability_worker_death_still_raises(self, tmp_path):
        from repro.serve.backend import WorkerDiedError
        keys = np.unique(np.random.default_rng(8).uniform(0, 1e6, 1000))
        service = ShardedAlexIndex.bulk_load(keys, num_shards=2,
                                             backend="process")
        try:
            os.kill(service.backend.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.1)
            with pytest.raises(WorkerDiedError):
                # Keys below every boundary route to the killed shard 0.
                service.insert_many(np.array([-2.0, -1.0]))
        finally:
            service.close()


class TestTopologyCrashSafety:
    def test_crash_before_manifest_commit_recovers_pre_split(self,
                                                             tmp_path):
        """A crash after the executors split but before the topology
        manifest commits must recover the *pre-split* topology with every
        acknowledged write intact."""

        class SimulatedCrash(BaseException):
            pass

        service, keys = make_service(tmp_path, "thread", num_shards=2)
        extra = np.unique(np.random.default_rng(10).uniform(2e6, 3e6, 80))
        service.insert_many(extra)
        reference = dict(service.items())
        service.sync()

        def boom():
            raise SimulatedCrash

        service.durability._write_service_manifest = boom
        with pytest.raises(SimulatedCrash):
            service.split_shard(0)
        service.backend.close()  # abandon the wounded facade

        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"),
                                             fsync="off")
        try:
            assert recovered.num_shards == 2  # pre-split topology
            assert dict(recovered.items()) == reference
            recovered.validate()
        finally:
            recovered.close()

    def test_refuses_to_create_over_existing_tree(self, tmp_path):
        service, keys = make_service(tmp_path, "thread", num_shards=2,
                                     n=500)
        service.close()
        with pytest.raises(PersistenceError):
            ShardedAlexIndex.bulk_load(keys,
                                       num_shards=2,
                                       durability_dir=str(tmp_path / "svc"))

    def test_missing_shard_manifest_raises_instead_of_empty_shard(
            self, tmp_path):
        """Regression: a referenced shard dir whose MANIFEST.json is
        gone is corruption; recovery must raise, not quietly hand back
        an empty shard (losing that shard's keys with exit code 0)."""
        service, keys = make_service(tmp_path, "thread", num_shards=2)
        service.sync()
        service.backend.close()
        os.remove(tmp_path / "svc" / "shard-00000000" / "MANIFEST.json")
        with pytest.raises(PersistenceError, match="no MANIFEST.json"):
            ShardedAlexIndex.recover(str(tmp_path / "svc"), fsync="off")

    @pytest.mark.parametrize("where", ["empty", "missing", "shard-root"])
    def test_recover_outside_a_service_root_raises_persistence_error(
            self, tmp_path, where):
        """A directory with no service manifest is a PersistenceError
        naming the path, not a bare FileNotFoundError; a shard's own
        root gets pointed at the service root above it."""
        if where == "shard-root":
            service, _ = make_service(tmp_path, "thread", num_shards=1,
                                      n=200)
            path = service.durability.shard_dir(0)
            service.close()
        else:
            path = str(tmp_path / where)
            if where == "empty":
                os.mkdir(path)
        with pytest.raises(PersistenceError, match=re.escape(path)) as err:
            ShardedAlexIndex.recover(path)
        hint = "recover the service root above it" in str(err.value)
        assert hint == (where == "shard-root")
        assert os.path.exists(path) == (where != "missing")

    def test_unreferenced_shard_dirs_swept_on_attach(self, tmp_path):
        service, _ = make_service(tmp_path, "thread", num_shards=2, n=500)
        service.sync()
        service.backend.close()
        orphan = tmp_path / "svc" / "shard-99999999"
        orphan.mkdir()
        (orphan / "junk").write_text("leftover from a crashed SMO")
        durability = ShardedDurability(str(tmp_path / "svc"), fsync="off")
        durability.attach()
        assert not orphan.exists()
        durability.close()
