"""Equivalence and fault-injection tests for the pipelined worker RPC.

The process backend keeps several request frames in flight per worker
and completes them out of order relative to other workers; every
request and reply, whole shards included, travels by value in one
pipe frame.  None of that may be observable through the facade:
results must stay bit-identical to the synchronous call-and-wait
discipline (``max_inflight=1``) and to the thread backend, read-only
key arrays included, counter totals must agree, no request or shard
move may open a shared-memory segment, and a worker
killed with a pipeline full of outstanding requests must fail *every*
one of those futures — never hang one — while logged writes stay
all-or-nothing across shards.
"""

import contextlib
import os
import signal
import threading
import time
import zlib
from concurrent.futures import wait as wait_futures
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import obs
from repro.core.config import ga_armi
from repro.core.stats import Counters
from repro.serve import ShardedAlexIndex
from repro.serve.backend import WorkerDiedError

#: Thread backend covers the cheap sweep; the process backend is the
#: subject under test (workers are expensive to spawn on CI, so it
#: rides one representative configuration per test).
BACKENDS = ("thread", "process")


def _seed(parts) -> int:
    return zlib.crc32(repr(parts).encode())


def _build(backend, n=2000, num_shards=2, max_inflight=8, seed=0,
           **kwargs):
    """A service with numeric payloads plus its key set and the
    key->payload ground truth."""
    rng = np.random.default_rng(_seed(("pipelined", backend, seed)))
    keys = np.unique(rng.lognormal(0, 2, n + 200) * 1e6)[:n]
    payloads = [float(k) * 2.0 for k in keys]
    service = ShardedAlexIndex.bulk_load(
        keys, payloads, num_shards=num_shards,
        config=ga_armi(max_keys_per_node=256), backend=backend,
        max_inflight=max_inflight, **kwargs)
    expected = dict(zip(keys.tolist(), payloads))
    return service, keys, expected


def _total_counters(service) -> Counters:
    total = Counters()
    for shard in service.shard_counters():
        total.merge(shard)
    return total


@pytest.fixture
def obs_on():
    was = obs.enabled()
    obs.set_enabled(True)
    yield
    obs.set_enabled(was)


class TestOutOfOrderEquivalence:
    """Pipelined, concurrently-driven traffic vs the synchronous path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_concurrent_reads_bit_identical(self, backend):
        """Many threads driving overlapping read batches through the
        pipelined backend return exactly what a sequentially-driven
        ``max_inflight=1`` twin returns, and (process backend) the two
        services account the same algorithmic work."""
        service, keys, _ = _build(backend)
        ref, _, _ = _build(backend, max_inflight=1)
        try:
            rng = np.random.default_rng(_seed(("reads", backend)))
            batches = [rng.choice(keys, size=int(rng.integers(8, 400)))
                       for _ in range(24)]
            expected = [ref.get_many(batch) for batch in batches]

            results = [None] * len(batches)
            errors = []

            def drive(lane):
                try:
                    for i in range(lane, len(batches), 4):
                        results[i] = service.get_many(batches[i])
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(lane,))
                       for lane in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert results == expected
            if backend == "process":
                # Worker processes are single-threaded, so out-of-order
                # *submission* must not change the work accounted: the
                # read multiset is identical, hence so are the totals.
                # (The thread backend shares one Counters per shard
                # across client threads, whose unlocked increments can
                # drop under contention — by design.)
                assert _total_counters(service) == _total_counters(ref)
        finally:
            service.close()
            ref.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interleaved_reads_and_writes_match_sequential(self, backend):
        """Concurrent lanes of chained insert/read/erase traffic leave
        the service in exactly the state sequential driving leaves a
        twin in, and reads of the stable key set never see the writes
        (their key ranges are disjoint)."""
        service, keys, expected = _build(backend, n=1500)
        ref, _, _ = _build(backend, n=1500, max_inflight=1)
        hi = float(keys.max())
        lanes = [hi + 1.0 + 1000.0 * lane + np.arange(64, dtype=np.float64)
                 for lane in range(3)]
        try:
            for fresh in lanes:  # the sequential reference
                ref.insert_many(fresh, [float(k) for k in fresh])
                ref.erase_many(fresh[::2])

            errors = []

            def drive(lane):
                try:
                    rng = np.random.default_rng(
                        _seed(("lane", backend, lane)))
                    fresh = lanes[lane]
                    service.insert_many(fresh, [float(k) for k in fresh])
                    for _ in range(5):
                        batch = rng.choice(keys, size=128)
                        got = service.get_many(batch)
                        want = [expected[float(k)] for k in batch]
                        if got != want:
                            errors.append((lane, "read mismatch"))
                    service.erase_many(fresh[::2])
                except Exception as exc:
                    errors.append((lane, exc))

            threads = [threading.Thread(target=drive, args=(lane,))
                       for lane in range(len(lanes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert list(service.items()) == list(ref.items())
            service.validate()
        finally:
            service.close()
            ref.close()


#: Batch sizes from a one-key request to a large analytic batch: each
#: rides in the pipe frame the same way.
SIZES = (1, 64, 4096, 40_000)


@pytest.fixture(scope="class")
def twins():
    """One thread-backend and one process-backend service over the same
    keys and payloads; the batch tests apply identical operations to
    both, so they stay in lockstep."""
    rng = np.random.default_rng(_seed("twins"))
    keys = np.unique(rng.lognormal(0, 2, 130_000) * 1e6)[:120_000]
    payloads = [float(k) * 2.0 for k in keys]
    services = {backend: ShardedAlexIndex.bulk_load(
        keys, payloads, num_shards=2, config=ga_armi(max_keys_per_node=256),
        backend=backend) for backend in BACKENDS}
    yield keys, services
    for service in services.values():
        service.close()


def _twin_batch(keys, method, size):
    """The batch a ``method`` test of ``size`` keys sends: present and
    absent keys for reads, fresh midpoints for inserts, present keys for
    deletes — disjoint across sizes, so every case sees its own keys."""
    index = SIZES.index(size)
    rng = np.random.default_rng(_seed(("twin", method, size)))
    if method in ("get_many", "contains_many"):
        present = rng.choice(keys, size=(size + 1) // 2)
        absent = rng.choice(keys, size=size // 2) + 0.25
        return rng.permutation(np.concatenate([present, absent]))
    order = np.random.default_rng(_seed(method)).permutation(len(keys) - 1)
    start = sum(SIZES[:index])
    picks = np.sort(order[start:start + size])
    if method == "insert_many":
        return (keys[picks] + keys[picks + 1]) / 2.0
    return keys[picks]


class TestBatchSizesMatchThreadBackend:
    """Every batch size takes the one pipe-frame path; each must answer
    exactly as the thread backend does."""

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("method", ["get_many", "contains_many",
                                        "insert_many", "delete_many"])
    def test_process_matches_thread(self, twins, method, size):
        keys, services = twins
        batch = _twin_batch(keys, method, size)
        if method == "insert_many":
            payloads = [float(k) * 3.0 for k in batch]
            for service in services.values():
                service.insert_many(batch, payloads)
        elif method == "delete_many":
            for service in services.values():
                service.delete_many(batch)
        results = {}
        for backend, service in services.items():
            if method == "contains_many":
                results[backend] = service.contains_many(batch).tolist()
            else:
                # Writes are checked through what a read of their keys
                # returns afterwards.
                results[backend] = service.get_many(batch, "absent")
        assert results["process"] == results["thread"]
        if method == "insert_many":
            assert results["process"] == payloads
        elif method == "delete_many":
            assert results["process"] == ["absent"] * size
        assert len(services["process"]) == len(services["thread"])


class _CountingSharedMemory(shared_memory.SharedMemory):
    """Records every segment this process creates or attaches."""

    opened: list = []

    def __init__(self, name=None, create=False, size=0, **kwargs):
        super().__init__(name=name, create=create, size=size, **kwargs)
        _CountingSharedMemory.opened.append(self.name)


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


def _kill(pid: int) -> None:
    """SIGKILL a worker and wait until it has exited."""
    os.kill(pid, signal.SIGKILL)

    def gone() -> bool:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
        except (FileNotFoundError, ProcessLookupError):
            # Reaped before the open, or between the open and the read.
            return True
    _wait_for(gone)


def test_requests_create_no_shared_memory(monkeypatch, tmp_path,
                                          leak_guard):
    """Every request and every whole-shard move travels in pipe frames.
    On a durable, replicated process service, reads and batch writes of
    every size, the bulk load, a split and a merge, a replica promotion
    over a SIGKILLed primary, the replica attach behind it, a SIGKILL
    respawn from checkpoint and WAL, and ``recover`` open no
    shared-memory segment in this process and leave ``/dev/shm`` as it
    was."""
    before = sorted(os.listdir("/dev/shm"))
    monkeypatch.setattr(_CountingSharedMemory, "opened", [])
    monkeypatch.setattr(shared_memory, "SharedMemory", _CountingSharedMemory)
    rng = np.random.default_rng(_seed("no segments"))
    keys = np.unique(rng.uniform(0, 1e9, 60_000))[:50_000]
    root = str(tmp_path / "svc")
    service = ShardedAlexIndex.bulk_load(
        keys, [float(k) for k in keys], num_shards=2, backend="process",
        durability_dir=root, fsync="off", replicate=True)
    with service:
        for size in SIZES:
            batch = rng.choice(keys, size=size, replace=False)
            fresh = np.setdiff1d(rng.uniform(0, 1e9, size + 64), keys)[:size]
            assert service.get_many(batch) == [float(k) for k in batch]
            assert service.contains_many(fresh).sum() == 0
            service.insert_many(fresh, [1.0] * len(fresh))
            service.delete_many(fresh)
            service.delete_many(batch)
            service.insert_many(batch, [float(k) for k in batch])
        # Object payloads turn the touched shards' columns object, so the
        # moves below carry both column kinds.
        service.insert_many([1.5, 9.99e8 + 0.5], [("a", 1), ("b", 2)])
        reference = dict(service.items())
        assert service.split_shard(0)
        assert service.num_shards == 3
        service.merge_shards(0)
        assert service.num_shards == 2
        assert dict(service.items()) == reference
        # Promotion: the replica takes over the killed primary's slot,
        # and a fresh replica attaches behind it in the background.
        backend = service.backend
        _wait_for(lambda: backend.replica_pids()[1] is not None)
        replica = backend.replica_pids()[1]
        _kill(backend.worker_pids()[1])
        service.insert(9.99e8 + 1.5, "promoted")
        reference[9.99e8 + 1.5] = "promoted"
        assert backend.worker_pids()[1] == replica
        _wait_for(lambda: backend.replica_pids()[1] is not None)
        # Respawn: with its replica dead too, the shard rebuilds from its
        # checkpoint and WAL tail.
        _wait_for(lambda: backend.replica_pids()[0] is not None)
        old = backend.worker_pids()[0], backend.replica_pids()[0]
        for pid in old:
            _kill(pid)
        service.insert(2.5, "respawned")
        reference[2.5] = "respawned"
        assert backend.worker_pids()[0] not in old
        assert dict(service.items()) == reference
    recovered = ShardedAlexIndex.recover(root, backend="process",
                                         replicate=True)
    with recovered:
        assert dict(recovered.items()) == reference
    assert _CountingSharedMemory.opened == []
    assert sorted(os.listdir("/dev/shm")) == before


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


def test_read_only_key_arrays_match_the_thread_backend(leak_guard, wire):
    """A read-only key array arrives read-only in a worker, in the
    pickle stream or out of band, as the thread backend hands it to its
    shards.  Bulk load, batch reads and writes, range queries, a split
    and a merge over read-only arrays give identical results on both
    backends."""
    for n in (2, 1 << 17):
        probe = wire(_read_only(np.arange(float(n))))
        assert not probe.flags.writeable
        assert probe.tolist() == list(range(n))
    rng = np.random.default_rng(_seed("read-only"))
    keys = _read_only(np.unique(rng.uniform(0, 1e6, 6000))[:5000])
    fresh = _read_only(np.setdiff1d(rng.uniform(0, 1e6, 2500), keys)[:2000])
    los = _read_only(np.sort(rng.uniform(0, 1e6, 64)))
    his = _read_only(los + 5e3)
    results = {}
    for backend in BACKENDS:
        service = ShardedAlexIndex.bulk_load(
            keys, [float(k) for k in keys], num_shards=2, backend=backend)
        with service:
            out = []
            service.insert_many(fresh, [float(k) * 3 for k in fresh])
            out.append(service.get_many(fresh))
            out.append(service.range_query_many(los, his))
            assert service.split_shard(0)
            service.delete_many(fresh[::2])
            out.append(service.erase_many(keys[::3]))
            service.merge_shards(0)
            out.append(service.get_many(keys, "absent"))
            out.append(service.get_many(fresh, "absent"))
            out.append(list(service.items()))
            service.validate()
        results[backend] = out
    assert results["process"] == results["thread"]


class TestWorkerDeathMidPipeline:
    """A dead worker must fail *every* outstanding future (satellite:
    no silent hang), report the dirty shutdown, and — with durability —
    leave logged writes all-or-nothing."""

    def test_all_outstanding_futures_fail(self, obs_on):
        """Freeze a worker, queue a pipeline of requests against it,
        then SIGKILL: each queued future raises ``WorkerDiedError`` for
        that shard, the sibling worker keeps serving, and closing the
        service records the dirty shutdown instead of swallowing it."""
        service, _, _ = _build("process", num_shards=2)
        backend = service.backend
        victim = 0
        pid = backend.worker_pids()[victim]
        worker = backend._workers[victim]
        before = dict(obs.snapshot().get("counters", {}))
        try:
            os.kill(pid, signal.SIGSTOP)  # requests queue, none answered
            try:
                futures = [backend._submit(worker, ("call", "num_keys", ()))
                           for _ in range(5)]
            finally:
                os.kill(pid, signal.SIGKILL)
                # The forkserver may reap the killed worker before this.
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGCONT)
            done, not_done = wait_futures(futures, timeout=30)
            assert not not_done, "a future outlived its worker"
            for future in futures:
                exc = future.exception()
                assert isinstance(exc, WorkerDiedError)
                assert exc.shard == victim
            deadline = time.monotonic() + 10
            while (backend.dead_shards() != [victim]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert backend.dead_shards() == [victim]
            # The sibling's pipeline is untouched.
            sibling = backend._workers[1]
            assert backend._request(sibling, ("call", "num_keys", ())) >= 0
        finally:
            service.close()
        after = dict(obs.snapshot().get("counters", {}))
        assert after.get("serve.dirty_shutdowns", 0) > \
            before.get("serve.dirty_shutdowns", 0)
        kinds = [e.get("kind") for e in obs.snapshot().get("events", [])]
        assert "worker.dirty_shutdown" in kinds
        assert "worker.pipe_lost" in kinds

    def test_sigkill_mid_pipeline_heals_and_stays_atomic(self, tmp_path):
        """SIGKILL a worker while reader threads keep its pipeline full
        and writes land: durability respawns the shard, every read
        (after its transparent retry) stays bit-identical, and each
        cross-shard write batch is either fully present or fully
        absent."""
        service, keys, expected = _build(
            "process", n=1500, num_shards=2,
            durability_dir=str(tmp_path / "svc"), fsync="off")
        stop = threading.Event()
        errors = []

        def reader(lane):
            rng = np.random.default_rng(_seed(("killread", lane)))
            try:
                while not stop.is_set():
                    batch = rng.choice(keys, size=64)
                    got = service.get_many(batch)
                    want = [expected[float(k)] for k in batch]
                    if got != want:
                        errors.append((lane, "read mismatch"))
            except Exception as exc:
                errors.append((lane, exc))

        threads = [threading.Thread(target=reader, args=(lane,))
                   for lane in range(3)]
        try:
            for t in threads:
                t.start()
            time.sleep(0.3)  # pipelines warm on both shards
            os.kill(service.backend.worker_pids()[0], signal.SIGKILL)
            # Cross-shard write batches racing the respawn: half the
            # keys land below the key space, half above, so every batch
            # spans both shards and must commit on both or neither.
            lo, hi = float(keys.min()), float(keys.max())
            batches = [np.concatenate([
                lo - 100.0 * (b + 1) - np.arange(8, dtype=np.float64),
                hi + 100.0 * (b + 1) + np.arange(8, dtype=np.float64)])
                for b in range(4)]
            for batch in batches:
                service.insert_many(batch, [float(k) for k in batch])
            time.sleep(0.2)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
        try:
            assert not errors
            for batch in batches:
                present = service.contains_many(batch)
                assert present.all() or not present.any()
                assert present.all()  # these inserts were acked
            assert service.backend.dead_shards() == []
            service.validate()
        finally:
            service.close()
