"""Service provisioning: every shard worker, checkpoint and replica comes
up at once, a failed provisioning leaves nothing behind, a failed batch
write leaves no WAL frame, and a bulk load gives the same index whatever
the input order, partitioning unsorted keys in the parent and sorting
each part in its shard."""

import multiprocessing
import os
import pickle
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import live_workers
from repro.core import kernels as K
from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig
from repro.core.errors import DuplicateKeyError
from repro.serve import ShardedAlexIndex
from repro.serve.router import ShardRouter
from repro.serve.worker import ProcessBackend

UNPICKLABLE = (pickle.PicklingError, AttributeError, TypeError)


def unpicklable():
    return lambda: None


def children() -> int:
    return len(multiprocessing.active_children())


def segments() -> int:
    return len(os.listdir("/dev/shm"))


class TestFailedProvisioning:
    def test_bulk_load_with_unpicklable_payload_leaks_nothing(self,
                                                              leak_guard):
        before = children(), segments()
        payloads = [None] * 1000
        payloads[900] = unpicklable()
        with pytest.raises(UNPICKLABLE):
            ShardedAlexIndex.bulk_load(np.arange(1000.0), payloads,
                                       num_shards=2, backend="process")
        assert (children(), segments()) == before

    def test_worker_side_load_failure_leaks_nothing(self, leak_guard):
        # Both loads reach their workers and the second one rejects its
        # part: the first worker built fine and must be retired too.
        before = children(), segments()
        parts = [(np.arange(5.0), None), (np.array([9.0, 8.0, 8.0]), None)]
        with pytest.raises(DuplicateKeyError):
            ShardedAlexIndex(router=ShardRouter(np.array([7.0])),
                             parts=parts, backend="process")
        assert (children(), segments()) == before


#: Writes whose payload does not pickle: a multi-shard batch, and the
#: scalar writes — an insert and an upsert of an absent key, and an
#: update of a present one (991.0, whose payload is None).
GHOST_WRITES = {
    "insert_many": lambda service: service.insert_many(
        [10.5, 20.5, 990.5, 991.5], ["ok", "ok", unpicklable(), "ok"]),
    "insert": lambda service: service.insert(990.5, unpicklable()),
    "upsert": lambda service: service.upsert(990.5, unpicklable()),
    "update": lambda service: service.update(991.0, unpicklable()),
}


class TestNoGhostWrite:
    @pytest.mark.parametrize("op", sorted(GHOST_WRITES))
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_unpicklable_payload_moves_no_shard_log(self, tmp_path,
                                                    num_shards, op):
        root = str(tmp_path / "svc")
        service = ShardedAlexIndex.bulk_load(
            np.arange(1000.0), num_shards=num_shards, backend="thread",
            durability_dir=root, fsync="off")
        probe = [10.5, 20.5, 990.5, 991.5, 991.0]
        unwritten = ["absent"] * 4 + [None]
        lsns = [service.durability.shard_state(s).wal.last_lsn
                for s in range(service.num_shards)]
        try:
            with pytest.raises(UNPICKLABLE):
                GHOST_WRITES[op](service)
            assert [service.durability.shard_state(s).wal.last_lsn
                    for s in range(service.num_shards)] == lsns
            assert service.get_many(probe, "absent") == unwritten
        finally:
            service.close()
        recovered = ShardedAlexIndex.recover(root)
        with recovered:
            assert recovered.get_many(probe, "absent") == unwritten
            assert len(recovered) == 1000


def mixed_payloads(n: int) -> list:
    kinds = [lambda i: (i, "t"), lambda i: [i, i + 1], lambda i: {"k": i},
             lambda i: None, lambda i: 2 ** 70 + i, lambda i: i / 7.0]
    return [kinds[i % len(kinds)](i) for i in range(n)]


def typed(items) -> list:
    return [(key, type(payload), payload) for key, payload in items]


class TestBulkLoadEquivalence:
    N = 600

    def inputs(self):
        rng = np.random.default_rng(7)
        keys = rng.permutation(self.N).astype(np.float64) * 1.5
        payloads = mixed_payloads(self.N)
        order = np.argsort(keys)
        return ((keys, payloads),
                (keys[order], [payloads[i] for i in order]))

    def test_same_items_from_unsorted_and_sorted_input(self, leak_guard):
        (keys, payloads), (skeys, spayloads) = self.inputs()
        expected = typed(zip(skeys.tolist(), spayloads))
        for k, p in ((keys, payloads), (skeys, spayloads)):
            assert typed(AlexIndex.bulk_load(k, p).items()) == expected
            service = ShardedAlexIndex.bulk_load(k, p, num_shards=3,
                                                 backend="process")
            with service:
                assert typed(service.items()) == expected

    @pytest.mark.parametrize("order", ["unsorted", "sorted"])
    def test_bad_keys_still_raise(self, order, leak_guard):
        keys = [5.0, 1.0, 3.0, 1.0] if order == "unsorted" else [
            1.0, 1.0, 3.0, 5.0]
        for load in (AlexIndex.bulk_load,
                     lambda k: ShardedAlexIndex.bulk_load(
                         k, num_shards=2, backend="process")):
            with pytest.raises(DuplicateKeyError):
                load(keys)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError):
                    load([1.0, 3.0, 5.0, bad] if order == "sorted"
                         else [5.0, bad, 1.0, 3.0])


class TestShardParallelBulkLoad:
    """A sharded bulk load of unsorted keys partitions them once in the
    parent and lets every shard sort its own part."""

    N = 3000

    def shuffled(self, seed: int = 11) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.permutation(np.unique(rng.lognormal(0, 2, self.N)))

    @pytest.mark.parametrize("payload_kind", ["float", "mixed"])
    @pytest.mark.parametrize("kernel", K.available_backends())
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_shuffled_and_sorted_input_build_the_same_shards(
            self, backend, kernel, payload_kind, leak_guard):
        keys = self.shuffled()
        payloads = ((keys * 2.0).tolist() if payload_kind == "float"
                    else mixed_payloads(len(keys)))
        order = np.argsort(keys)
        runs = []
        for k, p in ((keys, payloads),
                     (keys[order], [payloads[i] for i in order])):
            service = ShardedAlexIndex.bulk_load(
                k, p, num_shards=3, config=AlexConfig(kernel_backend=kernel),
                backend=backend)
            with service:
                runs.append(([service.backend.snapshot(s)
                              for s in range(service.num_shards)],
                             service.shard_counters()))
        (shuffled, shuffled_counters), (ordered, ordered_counters) = runs
        assert len(shuffled) == len(ordered) == 3
        for (k1, c1), (k2, c2) in zip(shuffled, ordered):
            assert k1.tobytes() == k2.tobytes()
            assert c1.dtype == c2.dtype
            assert typed(zip(k1.tolist(), c1.tolist())) == typed(
                zip(k2.tolist(), c2.tolist()))
        assert shuffled_counters == ordered_counters

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_duplicate_names_the_smallest_repeated_key(self, backend,
                                                         leak_guard):
        keys = np.random.default_rng(3).permutation(np.arange(3000.0))
        # 2700 repeats in the last shard, 500 in the first, 1500 alone in
        # the middle one.
        for repeats, smallest in (((2700.0, 500.0), 500.0),
                                  ((1500.0,), 1500.0)):
            spoiled = np.concatenate([keys, repeats])
            spoiled = spoiled[np.random.default_rng(5).permutation(
                len(spoiled))]
            with pytest.raises(DuplicateKeyError) as info:
                ShardedAlexIndex.bulk_load(spoiled, num_shards=3,
                                           backend=backend)
            assert info.value.key == smallest
            assert not live_workers()

    def test_a_nan_key_raises_before_any_worker_starts(self, monkeypatch,
                                                       leak_guard):
        started = []
        monkeypatch.setattr(ProcessBackend, "_start_handle",
                            lambda self, *args: started.append(args))
        keys = self.shuffled()
        keys[len(keys) // 2] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            ShardedAlexIndex.bulk_load(keys, num_shards=2,
                                       backend="process")
        assert started == []

    @pytest.mark.parametrize("kernel", K.available_backends())
    def test_the_parent_partitions_once_and_sorts_nothing(
            self, kernel, monkeypatch, leak_guard):
        kernels = K.get_kernels(kernel)
        partitions, sorts, inside = [], [], []
        partition = kernels.partition_pairs

        def counted_partition(keys, *args):
            partitions.append(len(keys))
            inside.append(True)  # the numpy reference sorts shard ids
            try:
                return partition(keys, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(kernels, "partition_pairs", counted_partition)
        for name in ("argsort", "sort", "lexsort"):
            def counted_sort(array, *args, _sort=getattr(np, name),
                             **kwargs):
                if not inside:
                    sorts.append(len(array))
                return _sort(array, *args, **kwargs)
            monkeypatch.setattr(np, name, counted_sort)
        keys = self.shuffled()
        service = ShardedAlexIndex.bulk_load(
            keys, (keys * 2.0).tolist(), num_shards=2,
            config=AlexConfig(kernel_backend=kernel), backend="process")
        with service:
            assert partitions == [len(keys)]
            assert sorts == []
            # The partition moved a copy: the caller's keys are as given.
            assert keys.tobytes() == self.shuffled().tobytes()
            assert service.get_many(keys[:5].tolist()) == (
                keys[:5] * 2.0).tolist()

    @pytest.mark.skipif("cffi" not in K.available_backends(),
                        reason="needs the compiled partition")
    def test_the_parent_holds_only_the_keys_and_one_column(self,
                                                           leak_guard):
        n = 200_000
        keys = np.random.default_rng(9).permutation(n) * 0.75 + 1.0
        payloads = (keys * 2.0).tolist()
        config = AlexConfig(kernel_backend="cffi")
        # The first launch in a process starts the forkserver, whose
        # imports are no part of a bulk load.
        ShardedAlexIndex.bulk_load(np.arange(9.0), num_shards=2,
                                   config=config, backend="process").close()
        tracemalloc.start()
        try:
            service = ShardedAlexIndex.bulk_load(
                keys, payloads, num_shards=2, config=config,
                backend="process")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with service:
            assert len(service) == n
        # A copy of the keys and the typed payload column, with no sort
        # order, no gathered copy and no scratch array beside them.
        assert peak <= 2.2 * 8 * n


class SubmitSpy:
    """Records, in order, every ``op`` a process backend submits and every
    wait on one of those requests' futures."""

    def __init__(self, monkeypatch, ops):
        self.events = []
        self.futures = {}
        real_submit, real_result = ProcessBackend._submit, Future.result

        def submit(backend, worker, body):
            future = real_submit(backend, worker, body)
            if body[0] in ops:
                self.events.append(("submit", body[0]))
                # The future stays referenced, so its id is never reused.
                self.futures[id(future)] = (body[0], future)
            return future

        def result(future, timeout=None):
            if id(future) in self.futures:
                self.events.append(("wait", self.futures[id(future)][0]))
            return real_result(future, timeout)

        monkeypatch.setattr(ProcessBackend, "_submit", submit)
        monkeypatch.setattr(Future, "result", result)

    def assert_all_submitted_first(self, op, count):
        events = [kind for kind, o in self.events if o == op]
        assert events.count("submit") == count
        assert events == ["submit"] * count + ["wait"] * count, events
        self.events = [event for event in self.events if event[1] != op]


class TestEverythingInFlightBeforeAnyWait:
    def test_provision_and_replicas(self, tmp_path, monkeypatch,
                                    leak_guard):
        spy = SubmitSpy(monkeypatch, {"load", "rstatus"})
        service = ShardedAlexIndex.bulk_load(
            np.arange(3000.0), num_shards=3, backend="process",
            durability_dir=str(tmp_path / "svc"), replicate=True)
        with service:
            spy.assert_all_submitted_first("load", 3)
            spy.assert_all_submitted_first("rstatus", 3)
            assert service.split_shard(1)
            spy.assert_all_submitted_first("load", 2)
            spy.assert_all_submitted_first("rstatus", 2)
            assert len(service) == 3000

    def test_replace_on_forced_split(self, monkeypatch, leak_guard):
        service = ShardedAlexIndex.bulk_load(np.arange(400.0), num_shards=2,
                                             backend="process")
        with service:
            spy = SubmitSpy(monkeypatch, {"load"})
            assert service.split_shard(0)
            spy.assert_all_submitted_first("load", 2)
            assert list(service.keys()) == np.arange(400.0).tolist()
