"""Tests for Section 7 concurrency control: the reader/writer lock, and
the thread-safe index it guards — a one-shard thread-backend
:class:`~repro.serve.ShardedAlexIndex`, the coarse end of the paper's
locking design space."""

import threading
import time

import numpy as np
import pytest

from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.serve.rwlock import ReadWriteLock
from repro.serve import ShardedAlexIndex


class TestReadWriteLock:
    def test_multiple_readers_share(self):
        lock = ReadWriteLock()
        holders = []
        barrier = threading.Barrier(3)

        def reader():
            with lock.read():
                barrier.wait(timeout=5)  # all three inside simultaneously
                holders.append(1)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert holders == [1, 1, 1]

    def test_writer_is_exclusive(self):
        lock = ReadWriteLock()
        order = []

        def writer(tag):
            with lock.write():
                order.append(f"{tag}-in")
                time.sleep(0.02)
                order.append(f"{tag}-out")

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        # Writers never interleave: each -in is immediately followed by
        # its own -out.
        for i in range(0, len(order), 2):
            assert order[i].split("-")[0] == order[i + 1].split("-")[0]

    def test_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        result = []

        def writer():
            with lock.write():
                result.append("wrote")

        def late_reader():
            with lock.read():
                result.append("read")

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.02)  # writer is now waiting
        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.02)
        assert result == []  # both blocked behind the initial reader
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert result[0] == "wrote"  # writer preference


@pytest.fixture
def one_shard():
    """Builds thread-safe indexes: one shard, one reader/writer lock, in
    process; closed after the test."""
    services = []

    def build(keys):
        services.append(ShardedAlexIndex.bulk_load(keys, num_shards=1,
                                                   backend="thread"))
        return services[-1]

    yield build
    for service in services:
        service.close()


class TestOneShardThreadIndex:
    def test_single_thread_api(self, one_shard):
        index = one_shard(np.arange(100.0))
        index.insert(100.5, "x")
        assert index.lookup(100.5) == "x"
        assert index.contains(50.0)
        assert index.get(-1.0, "dflt") == "dflt"
        index.update(100.5, "y")
        assert index.lookup(100.5) == "y"
        index.upsert(101.5, "z")
        index.delete(101.5)
        assert 100.5 in index
        assert len(index) == 101
        assert len(index.range_scan(0.0, 5)) == 5
        assert len(index.range_query(0.0, 4.0)) == 5
        index.validate()

    def test_errors_propagate(self, one_shard):
        index = one_shard([1.0, 2.0])
        with pytest.raises(DuplicateKeyError):
            index.insert(1.0)
        with pytest.raises(KeyNotFoundError):
            index.lookup(9.0)

    def test_concurrent_readers_and_writer(self, one_shard):
        rng = np.random.default_rng(0)
        init = np.unique(rng.uniform(0, 1e6, 3000))
        index = one_shard(init)
        new_keys = np.setdiff1d(np.unique(rng.uniform(0, 1e6, 3000)), init)
        errors = []
        stop = threading.Event()

        def reader():
            local = np.random.default_rng(threading.get_ident() % 2**32)
            while not stop.is_set():
                key = float(init[local.integers(0, len(init))])
                try:
                    index.lookup(key)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        def writer():
            try:
                for key in new_keys:
                    index.insert(float(key))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        w = threading.Thread(target=writer)
        for t in readers:
            t.start()
        w.start()
        w.join(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=10)
        assert not errors
        assert len(index) == len(init) + len(new_keys)
        index.validate()

    def test_concurrent_writers_disjoint_keys(self, one_shard):
        index = one_shard(np.arange(0.0, 100.0))
        errors = []

        def writer(offset):
            try:
                for i in range(500):
                    index.insert(1000.0 + offset + i * 8)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(o,))
                   for o in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(index) == 100 + 8 * 500
        index.validate()

    def test_items_snapshot_consistent_length(self, one_shard):
        index = one_shard(np.arange(500.0))
        snapshots = []
        done = threading.Event()

        def snapshotter():
            while not done.is_set():
                snapshots.append(len(list(index.items())))

        t = threading.Thread(target=snapshotter)
        t.start()
        for i in range(300):
            index.insert(1000.0 + i)
        done.set()
        t.join(timeout=10)
        # Every snapshot must be a valid intermediate size (no torn reads).
        assert all(500 <= n <= 800 for n in snapshots)
