"""WAL-shipping replication and the consistency-aware read API.

Covers the :mod:`repro.replication` follower machinery (bootstrap,
pushed frames, gap fills, promotion), the facade's push of every
logged frame, the
:class:`~repro.serve.options.ReadOptions` / :class:`WriteToken` API
threaded through the facade and ingress, and the failure semantics:
stale replicas fall back to the primary, read-your-writes tokens
survive shard SMOs, and replica views are always prefix-consistent
with the write order.
"""

import threading
import time

import numpy as np
import pytest

from conftest import live_workers
from repro import obs
from repro.core.errors import (KeyNotFoundError, ReplicaStaleError,
                               ReplicaUnavailableError, WALCorruptionError)
from repro.durability import OP_DELETE, OP_INSERT
from repro.durability.wal import decode_frame, encode_frame
from repro.replication import Replica
from repro.serve import (IngressRunner, ReadOptions, ShardedAlexIndex,
                         WriteToken)


def _wait_until(predicate, timeout_s: float = 10.0,
                message: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


def _service(tmp_path, n: int = 2000, num_shards: int = 2, **kwargs):
    keys = np.arange(n, dtype=np.float64)
    payloads = [f"v{i}" for i in range(n)]
    kwargs.setdefault("durability_dir", str(tmp_path / "dur"))
    kwargs.setdefault("fsync", "batch")
    if kwargs.get("replicate"):
        # Replicas live in worker processes: only the process backend
        # hosts them.
        kwargs.setdefault("backend", "process")
    return ShardedAlexIndex.bulk_load(keys, payloads,
                                      num_shards=num_shards, **kwargs)


# ---------------------------------------------------------------------------
# ReadOptions / WriteToken unit behavior
# ---------------------------------------------------------------------------


class TestOptions:
    def test_consistency_levels_and_validation(self):
        assert ReadOptions().consistency == "primary"
        assert not ReadOptions().wants_replica
        assert ReadOptions.replica_ok(0.5).wants_replica
        assert ReadOptions.read_your_writes(WriteToken.empty()).wants_replica
        with pytest.raises(ValueError):
            ReadOptions(consistency="snapshot")
        with pytest.raises(ValueError):
            ReadOptions.replica_ok(max_staleness_s=-1.0)

    def test_token_merge_is_pointwise_max(self):
        a = WriteToken({"g1": 5, "g2": 1})
        b = WriteToken({"g2": 7, "g3": 2})
        merged = a.merge(b)
        assert dict(merged.lsns) == {"g1": 5, "g2": 7, "g3": 2}
        # Unknown generations demand nothing (the SMO-survival property).
        assert merged.lsn_for("g4") == 0
        assert not WriteToken.empty()
        assert a

    def test_string_options_resolve(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            # A consistency-level string is accepted everywhere options=
            # is; an unknown one is rejected loudly.
            assert service.get(1.0, options="replica_ok") == "v1"
            with pytest.raises(ValueError):
                service.get(1.0, options="bogus")
        finally:
            service.close()


# ---------------------------------------------------------------------------
# The standalone follower
# ---------------------------------------------------------------------------


def _frame(lsn, keys, op=OP_INSERT, payloads=None):
    """A record as the facade pushes it: the bytes the WAL appends for
    the keys it logged and, for an insert, their payload list."""
    keys = np.asarray(keys, dtype=np.float64)
    if op == OP_INSERT and payloads is None:
        payloads = [None] * len(keys)
    return encode_frame(lsn, op, keys, payloads)


def _replica_items(service, shard):
    return service.backend.replica_read(shard, "items_list")


def _primary_items(service, shard):
    return service.backend.call(shard, "items_list")


class TestReplica:
    """A standalone follower fed the frames a service logs, as the
    facade pushes them."""

    ROOT = "shard-00000000"

    def test_pushed_frames_apply_in_order_and_held_ones_skip(
            self, tmp_path, monkeypatch):
        service = _service(tmp_path, num_shards=1)
        try:
            replica = Replica(str(tmp_path / "dur" / self.ROOT),
                              config=service.config).start()
            assert replica.status()["num_keys"] == 2000
            reads = _spy_log_reads(monkeypatch)
            batches = [np.arange(5000 + 100 * b, 5100 + 100 * b,
                                 dtype=np.float64) for b in range(3)]
            lsns = [service.insert_many(batch).lsn_for(self.ROOT)
                    for batch in batches]
            for lsn, batch in zip(lsns, batches):
                replica.apply(_frame(lsn, batch))
            replica.apply(_frame(lsns[0], batches[0]))   # already held
            status = replica.status()
            assert status["applied_lsn"] == lsns[-1]
            assert status["frames_applied"] == 3
            assert status["num_keys"] == 2300
            assert replica.read("contains", (5250.0,), min_lsn=lsns[-1])
            # Frames pushed without a gap never send it to the log.
            assert reads == []
        finally:
            service.close()

    def test_staleness_counts_from_the_newest_stamp(self, tmp_path):
        service = _service(tmp_path, num_shards=1)
        try:
            replica = Replica(str(tmp_path / "dur" / self.ROOT),
                              config=service.config).start()
            booted = replica.staleness_s()
            assert 0.0 <= booted < 30.0
            time.sleep(0.02)
            assert replica.staleness_s() >= 0.02
            replica.heard(time.monotonic())
            assert replica.staleness_s() < 0.02
            # An older stamp never makes the replica look staler.
            replica.heard(time.monotonic() - 60.0)
            assert replica.staleness_s() < 0.02
        finally:
            service.close()

    def test_read_constraints_raise(self, tmp_path):
        service = _service(tmp_path, num_shards=1)
        try:
            replica = Replica(str(tmp_path / "dur" / self.ROOT),
                              config=service.config).start()
            with pytest.raises(ReplicaStaleError):
                replica.read("contains", (1.0,), min_lsn=10**9)
            with pytest.raises(ReplicaStaleError):
                replica.read("contains", (1.0,), max_staleness_s=0.0)
            with pytest.raises(ReplicaUnavailableError):
                replica.read("insert", (1.0, None))  # not a read
        finally:
            service.close()

    def test_promote_drains_the_tail(self, tmp_path):
        service = _service(tmp_path, num_shards=1)
        try:
            replica = Replica(str(tmp_path / "dur" / self.ROOT),
                              config=service.config).start()
            # Logged but never pushed: promotion still finds it.
            token = service.insert_many(
                np.arange(9000, 9200, dtype=np.float64))
            service.sync()
            index = replica.promote()
            assert replica.status()["promoted"]
            assert index.contains(9199.0)
            assert replica.applied_lsn == token.lsn_for(self.ROOT)
            with pytest.raises(ReplicaUnavailableError):
                replica.read("contains", (1.0,))
        finally:
            service.close()

    def test_gap_is_filled_from_the_log(self, tmp_path, monkeypatch):
        service = _service(tmp_path, num_shards=1)
        try:
            replica = Replica(str(tmp_path / "dur" / self.ROOT),
                              config=service.config).start()
            reads = _spy_log_reads(monkeypatch)
            batches = [np.arange(6000 + 10 * b, 6010 + 10 * b,
                                 dtype=np.float64) for b in range(4)]
            lsns = [service.insert_many(batch).lsn_for(self.ROOT)
                    for batch in batches]
            replica.apply(_frame(lsns[-1], batches[-1]))
            assert len(reads) == 1
            status = replica.status()
            assert status["applied_lsn"] == lsns[-1]
            assert status["bootstraps"] == 1
            assert status["num_keys"] == 2040
        finally:
            service.close()

    def test_gap_across_a_checkpoint_rebootstraps_once(self, tmp_path):
        service = _service(tmp_path, num_shards=1)
        try:
            replica = Replica(str(tmp_path / "dur" / self.ROOT),
                              config=service.config).start()
            service.insert_many(np.arange(7000, 7050, dtype=np.float64))
            # The checkpoint truncates the log past the replica's LSN.
            service.checkpoint()
            batch = np.arange(8000, 8050, dtype=np.float64)
            lsn = service.insert_many(batch).lsn_for(self.ROOT)
            replica.apply(_frame(lsn, batch))
            status = replica.status()
            assert status["bootstraps"] == 2
            assert status["applied_lsn"] == lsn
            assert (replica.read("items_list")
                    == service.backend.call(0, "items_list"))
        finally:
            service.close()

    def test_a_frame_that_fails_ends_the_replica(self, tmp_path):
        service = _service(tmp_path, num_shards=1)
        try:
            replica = Replica(str(tmp_path / "dur" / self.ROOT),
                              config=service.config).start()
            with pytest.raises(KeyNotFoundError):
                replica.apply(_frame(1, [10.0 ** 9], op=OP_DELETE))
            assert not replica.serving
            with pytest.raises(ReplicaUnavailableError):
                replica.read("contains", (1.0,))
        finally:
            service.close()


def _spy_log_reads(monkeypatch) -> list:
    """Record every log read a replica makes after its bootstrap (the
    bootstrap itself reads through recovery)."""
    from repro.replication import replica as replica_module
    reads = []
    real = replica_module.iter_frames

    def spy(*args, **kwargs):
        reads.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(replica_module, "iter_frames", spy)
    return reads


# ---------------------------------------------------------------------------
# Push: the facade feeds its replicas the frames it logs
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("leak_guard")
class TestPush:
    def test_an_idle_replica_reads_no_log(self, tmp_path, monkeypatch):
        """The facade pushes every frame it logs, in LSN order with no
        gap, so the replica never has a reason to read the log (a
        standalone replica fed gap-free frames reads none:
        ``TestReplica``)."""
        service = _service(tmp_path, num_shards=1, replicate=True)
        try:
            pushed = []
            push = service.backend.push_frame

            def spy(shard, record):
                pushed.append(decode_frame(record).lsn)
                push(shard, record)

            monkeypatch.setattr(service.backend, "push_frame", spy)
            batches = 12
            for b in range(batches):
                service.insert_many(
                    np.arange(4000 + 10 * b, 4010 + 10 * b,
                              dtype=np.float64))
            time.sleep(0.05)   # ten intervals of a 5 ms log poll
            last = service.durability.shard_state(0).wal.last_lsn
            assert pushed == list(range(last - batches + 1, last + 1))
            status = service.backend.replica_status(0)
            assert status["frames_applied"] == batches
            assert status["applied_lsn"] == last
            assert not [t for t in threading.enumerate()
                        if t.name == "alex-replica"]
        finally:
            service.close()

    def test_an_idle_replica_stays_fresh(self, tmp_path):
        """With no writes to push, the send stamp a read carries keeps a
        connected replica within a bound its bootstrap has outlived."""
        service = _service(tmp_path, num_shards=1, replicate=True)
        try:
            time.sleep(0.1)
            assert service.backend.replica_read(
                0, "get", (5.0,), max_staleness_s=0.05) == "v5"
        finally:
            service.close()

    def test_process_replica_holds_every_acked_write(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            for i in range(5):
                service.insert(3000.5 + i, f"w{i}")
                service.insert_many(np.arange(9000 + 10 * i,
                                              9010 + 10 * i,
                                              dtype=np.float64))
                for s in range(service.num_shards):
                    wal = service.durability.shard_state(s).wal
                    assert (service.backend.replica_status(s)
                            ["applied_lsn"]) == wal.last_lsn
        finally:
            service.close()

    def test_attach_while_writes_stream(self, tmp_path):
        """Writes racing a replica's repair under ``fsync="off"``: the
        frames logged around the attach are flushed before it, pushed
        after it, and the replica ends equal to the primary."""
        service = _service(tmp_path, num_shards=1, fsync="off",
                           replicate=True)
        stop = threading.Event()
        errors = []

        def writer():
            fresh = 10_000.0
            try:
                while not stop.is_set():
                    service.insert_many(
                        fresh + np.arange(8, dtype=np.float64))
                    service.insert(fresh + 8.5, "scalar")
                    fresh += 16.0
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(3):
                time.sleep(0.02)
                service.backend.drop_replica(0)
                service._repair_replica(0)
        finally:
            stop.set()
            thread.join(timeout=30)
        try:
            assert not errors, errors[0]
            assert _replica_items(service, 0) == _primary_items(service, 0)
            status = service.backend.replica_status(0)
            assert status["bootstraps"] == 1
            assert (status["applied_lsn"]
                    == service.durability.shard_state(0).wal.last_lsn)
        finally:
            service.close()

    def test_a_frame_that_fails_gets_the_replica_respawned(self, tmp_path):
        service = _service(tmp_path, num_shards=1, replicate=True)
        try:
            wal = service.durability.shard_state(0).wal
            # A frame the replica cannot apply: its key is absent.
            service.backend.push_frame(0, _frame(
                wal.last_lsn + 1, [10.0 ** 9], op=OP_DELETE))
            _wait_until(lambda: service.backend.dead_replicas() == [0],
                        message="the replica to read as dead")
            # The read falls back to the primary and repairs the replica.
            assert service.lookup(5.0, options="replica_ok") == "v5"
            _wait_until(lambda: service.backend.dead_replicas() == []
                        and service.backend.has_replica(0),
                        message="the replica's respawn")
            service.insert(5.5, "after")
            assert service.lookup(
                5.5, options="replica_ok") == "after"
            assert _replica_items(service, 0) == _primary_items(service, 0)
        finally:
            service.close()

    def test_a_record_with_a_flipped_byte_ends_the_replica(self, tmp_path):
        service = _service(tmp_path, num_shards=1, replicate=True)
        try:
            wal = service.durability.shard_state(0).wal
            record = _frame(wal.last_lsn + 1, [10.0 ** 9])
            assert decode_frame(record).keys.tolist() == [10.0 ** 9]
            flipped = bytearray(record)
            flipped[len(flipped) // 2] ^= 0x01
            with pytest.raises(WALCorruptionError):
                decode_frame(bytes(flipped))
            service.backend.push_frame(0, bytes(flipped))
            _wait_until(lambda: 0 in service.backend.dead_replicas(),
                        message="the replica to read as dead")
            # The read falls back to the primary, which never saw the key.
            assert service.lookup(5.0, options="replica_ok") == "v5"
            assert service.get(10.0 ** 9, "absent",
                               options="replica_ok") == "absent"
        finally:
            service.close()


class _CountedPickles:
    """A payload that counts how often it is pickled; it unpickles as a
    plain string, so a worker needs no test module to read it."""

    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return str, ("counted",)


def test_replication_adds_no_payload_encoding(tmp_path):
    """The replica is pushed the bytes the WAL appended, so a replicated
    write pickles its payloads as often as an unreplicated one: once for
    the log, plus the apply request to the primary worker."""
    pickles = {}
    for replicate in (False, True):
        service = _service(tmp_path / f"replicate-{replicate}",
                           num_shards=1, backend="process",
                           replicate=replicate)
        try:
            _CountedPickles.pickled = 0
            service.insert(-1.0, _CountedPickles())
            pickles[replicate] = _CountedPickles.pickled
            if replicate:
                assert service.lookup(-1.0,
                                      options="replica_ok") == "counted"
        finally:
            service.close()
    assert pickles == {False: 2, True: 2}


# ---------------------------------------------------------------------------
# Facade routing
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("leak_guard")
class TestFacadeRouting:
    def test_replicate_requires_durability(self):
        with pytest.raises(ValueError):
            ShardedAlexIndex.bulk_load(
                np.arange(100, dtype=np.float64), num_shards=1,
                replicate=True)

    def test_replicate_requires_the_process_backend(self, tmp_path,
                                                    monkeypatch):
        """A replica in the facade's process would die with its primary,
        so the thread backend refuses ``replicate=True`` before it builds
        a shard or writes a directory."""
        from repro.serve import sharded
        _service(tmp_path, num_shards=1).close()
        root = str(tmp_path / "dur")
        opened = []
        monkeypatch.setattr(sharded, "make_backend",
                            lambda *a, **k: opened.append("backend"))
        monkeypatch.setattr(sharded, "ShardedDurability",
                            lambda *a, **k: opened.append("durability"))
        with pytest.raises(ValueError, match="process"):
            _service(tmp_path / "fresh", backend="thread", replicate=True)
        with pytest.raises(ValueError, match="process"):
            ShardedAlexIndex.recover(root, replicate=True)
        assert opened == []
        assert not (tmp_path / "fresh").exists()

    def test_replica_ok_reads_whole_api(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            opts = ReadOptions.replica_ok()
            assert service.lookup(5.0, options=opts) == "v5"
            assert service.get(10**9, "absent", options=opts) == "absent"
            assert service.contains(7.0, options=opts)
            assert service.lookup_many([1.0, 1999.0], options=opts) \
                == ["v1", "v1999"]
            hits = service.contains_many([1.0, 10**9], options=opts)
            assert hits.tolist() == [True, False]
            assert len(service.range_query(0.0, 9.0, options=opts)) == 10
            assert len(service.range_scan(1990.0, 50, options=opts)) == 10
            spans = service.range_query_many([0.0, 100.0], [4.0, 104.0],
                                             options=opts)
            assert [len(c) for c in spans] == [5, 5]
        finally:
            service.close()

    #: Every read shape: ``read(service, options, boundary)`` and the
    #: number of shards it touches on the two-shard ``_service``.
    READ_SHAPES = {
        "lookup": (lambda svc, o, b: svc.lookup(4242.5, options=o), 1),
        "contains": (lambda svc, o, b: svc.contains(4242.5, options=o), 1),
        "lookup_many": (lambda svc, o, b: svc.lookup_many(
            [4242.5, 1.0], options=o), 2),
        "get_many": (lambda svc, o, b: svc.get_many(
            [1.0, 4242.5, 10**9], "absent", options=o), 2),
        "contains_many": (lambda svc, o, b: svc.contains_many(
            [1.0, 10**9], options=o).tolist(), 2),
        "range_scan": (lambda svc, o, b: svc.range_scan(
            b - 5, 10, options=o), 2),
        "range_query": (lambda svc, o, b: svc.range_query(
            b - 5, b + 5, options=o), 2),
        "range_query_many": (lambda svc, o, b: svc.range_query_many(
            [0.0, b - 2], [4.0, b + 2], options=o), 2),
    }

    @pytest.mark.parametrize("shape", list(READ_SHAPES))
    def test_zero_staleness_bound_falls_back_to_primary(self, tmp_path,
                                                         shape):
        service = _service(tmp_path, replicate=True)
        read, touched = self.READ_SHAPES[shape]
        boundary = float(service.router.boundaries[0])

        def fallbacks():
            return service.metrics_snapshot()["merged"]["counters"].get(
                "serve.replica_fallbacks", 0)

        try:
            # An unsatisfiable bound must degrade to a primary read, not
            # fail: the answer stays correct and fresh.
            token = service.insert(4242.5, "fresh")
            assert token.lsns
            opts = ReadOptions.replica_ok(max_staleness_s=0.0)
            before = fallbacks()
            got = read(service, opts, boundary)
            after = fallbacks()
            assert got == read(service, None, boundary)
            if shape == "lookup":
                assert got == "fresh"
            if obs.enabled():   # counters are no-ops under REPRO_OBS=off
                assert after - before == touched
        finally:
            service.close()

    def test_read_your_writes_is_immediate(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            token = WriteToken.empty()
            for i in range(20):
                token = token.merge(service.insert(3000.5 + i, f"w{i}"))
                opts = ReadOptions.read_your_writes(token)
                # No sleeping: the token must make every acked write
                # visible, replica-served or primary-fallback.
                assert service.lookup(3000.5 + i, options=opts) == f"w{i}"
            batch_token = service.insert_many(
                np.arange(40000, 40100, dtype=np.float64),
                [f"b{i}" for i in range(100)])
            values = service.lookup_many(
                [40000.0, 40099.0],
                options=ReadOptions.read_your_writes(batch_token))
            assert values == ["b0", "b99"]
        finally:
            service.close()

    def test_token_survives_shard_split_and_merge(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            token = service.insert_many(
                np.arange(50000, 50080, dtype=np.float64),
                [f"s{i}" for i in range(80)])
            assert service.split_shard(1)
            # The pre-split token references a retired generation; the
            # post-SMO generation-zero checkpoints already contain the
            # write, so the read must still see it.
            opts = ReadOptions.read_your_writes(token)
            assert service.lookup(50079.0, options=opts) == "s79"
            service.merge_shards(0)
            assert service.lookup(50000.0, options=opts) == "s0"
            service.validate()
        finally:
            service.close()

    def test_replication_status_in_metrics(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            snap = service.metrics_snapshot()
            assert len(snap["replication"]) == service.num_shards
            for row in snap["replication"]:
                assert row["bootstraps"] == 1
                assert not row["promoted"]
        finally:
            service.close()

    def test_unreplicated_service_keeps_old_contract(self, tmp_path):
        service = _service(tmp_path)   # durability, no replicas
        try:
            # options= is accepted but degrades to primary (no replica
            # to route to), and writes still ack tokens.
            assert service.lookup(3.0, options="replica_ok") == "v3"
            token = service.insert(77777.5, "x")
            assert isinstance(token, WriteToken)
            assert service.metrics_snapshot()["replication"] is None
        finally:
            service.close()


class TestPrefixConsistency:
    def test_replica_view_is_a_prefix_of_the_write_order(self, tmp_path):
        """Property: at any instant, the set of keys a replica serves is
        exactly the first m write batches for some m — never batch j
        without every batch before j (the WAL replay applies frames in
        LSN order, and reads serialize against replay under the
        replica's lock)."""
        service = _service(tmp_path, n=100, num_shards=1,
                           replicate=True)
        try:
            batches = [np.arange(1000 + 10 * b, 1010 + 10 * b,
                                 dtype=np.float64) for b in range(30)]
            all_keys = np.concatenate(batches)
            opts = ReadOptions.replica_ok()
            stop = threading.Event()
            violations = []

            def read_loop():
                while not stop.is_set():
                    hits = service.contains_many(all_keys, options=opts)
                    per_batch = hits.reshape(len(batches), 10)
                    seen = [bool(row.any()) for row in per_batch]
                    full = [bool(row.all()) for row in per_batch]
                    # Any partially-visible or out-of-order batch is a
                    # torn (non-prefix) read.
                    prefix = 0
                    while prefix < len(full) and full[prefix]:
                        prefix += 1
                    if any(seen[prefix:]):
                        violations.append((seen, full))

            reader = threading.Thread(target=read_loop)
            reader.start()
            try:
                for batch in batches:
                    service.insert_many(batch)
            finally:
                stop.set()
                reader.join(timeout=30)
            assert not violations, violations[0]
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_replica_workers_cleaned_up_on_close(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        backend = service._backend
        pids = [pid for pid in backend.replica_pids() if pid is not None]
        assert len(pids) == service.num_shards
        processes = [handle.process
                     for handle in backend._replica_workers]
        service.close()
        assert all(not process.is_alive() for process in processes)
        assert backend.replica_pids() == []

    @pytest.mark.usefixtures("leak_guard")
    def test_close_waits_for_a_replica_repair_in_flight(self, tmp_path,
                                                        monkeypatch):
        """A repair that started its replica worker before ``close()``
        finishes first, and ``close()`` retires that worker: none is
        alive when ``close()`` returns."""
        service = _service(tmp_path, num_shards=1, replicate=True)
        backend = service._backend
        started, release = threading.Event(), threading.Event()
        start_handle = backend._start_handle

        def held(*args, **kwargs):
            handle = start_handle(*args, **kwargs)
            started.set()
            release.wait(timeout=30)
            return handle

        monkeypatch.setattr(backend, "_start_handle", held)
        backend.drop_replica(0)
        repair = threading.Thread(target=service._repair_replica, args=(0,))
        repair.start()
        assert started.wait(timeout=30)
        alive_at_close = []

        def close():
            service.close()
            alive_at_close.extend(live_workers())

        closer = threading.Thread(target=close)
        closer.start()
        time.sleep(0.1)     # close() is now waiting on, or past, the repair
        release.set()
        closer.join(timeout=30)
        repair.join(timeout=30)
        assert not closer.is_alive() and not repair.is_alive()
        assert alive_at_close == []

    def test_dead_replicas_reported_separately(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            assert service._backend.dead_replicas() == []
            assert service._backend.dead_shards() == []
            assert service._backend.has_replica(0)
            service._backend.drop_replica(0)
            assert not service._backend.has_replica(0)
            # The primary path is untouched by a missing replica.
            assert service.lookup(1.0) == "v1"
            assert service.lookup(1.0, options="replica_ok") == "v1"
        finally:
            service.close()


class TestIngressOptions:
    def test_consistency_lanes_and_tokens(self, tmp_path):
        service = _service(tmp_path, replicate=True)
        try:
            with IngressRunner(service, window_s=0.001) as ingress:
                token = ingress.insert(123456.5, "through-the-door")
                assert isinstance(token, WriteToken)
                opts = ReadOptions.read_your_writes(token)
                assert ingress.get(123456.5, options=opts) \
                    == "through-the-door"
                assert ingress.lookup(5.0, options="replica_ok") == "v5"
                assert ingress.contains(5.0, options="replica_ok")
                assert ingress.get_many([1.0, 2.0],
                                        options="replica_ok") \
                    == ["v1", "v2"]
                with pytest.raises(KeyNotFoundError):
                    ingress.lookup(10**9, options=opts)
        finally:
            service.close()
