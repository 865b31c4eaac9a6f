"""Service provisioning: every shard worker, checkpoint and replica comes
up at once, a failed provisioning leaves nothing behind, a failed batch
write leaves no WAL frame, and a bulk load gives the same index whatever
the input order."""

import multiprocessing
import os
import pickle
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.alex import AlexIndex
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

    def test_adopting_an_unpicklable_payload_leaks_nothing(self,
                                                          leak_guard):
        # The adopted shard's object column pickles into its load frame;
        # the frame fails in this process, before anything is sent.
        before = children(), segments()
        shards = [AlexIndex.bulk_load(np.arange(5.0)),
                  AlexIndex.bulk_load([8.0, 9.0], [1, unpicklable()])]
        with pytest.raises(UNPICKLABLE):
            ShardedAlexIndex(router=ShardRouter(np.array([7.0])),
                             shards=shards, backend="process")
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

    def test_adopt(self, monkeypatch, leak_guard):
        spy = SubmitSpy(monkeypatch, {"load"})
        shards = [AlexIndex.bulk_load(np.arange(lo, lo + 100.0))
                  for lo in (0.0, 100.0, 200.0)]
        service = ShardedAlexIndex(router=ShardRouter(np.array([100.0,
                                                                200.0])),
                                   shards=shards, backend="process")
        with service:
            spy.assert_all_submitted_first("load", 3)
            assert list(service.keys()) == np.arange(300.0).tolist()

    def test_replace_on_forced_split(self, monkeypatch, leak_guard):
        service = ShardedAlexIndex.bulk_load(np.arange(400.0), num_shards=2,
                                             backend="process")
        with service:
            spy = SubmitSpy(monkeypatch, {"load"})
            assert service.split_shard(0)
            spy.assert_all_submitted_first("load", 2)
            assert list(service.keys()) == np.arange(400.0).tolist()
