"""The sharded facade's one write path: non-finite keys are rejected
before anything is validated, logged or applied, and every write —
scalar or batch — is logged before any shard shows it."""

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.serve import ShardedAlexIndex

MISSING = object()
NON_FINITE = [np.nan, np.inf, -np.inf]


def durable_service(tmp_path, keys, payloads=None):
    return ShardedAlexIndex.bulk_load(
        keys, payloads, num_shards=2, backend="thread",
        durability_dir=str(tmp_path / "svc"), fsync="off",
        checkpoint_every=1 << 30)


def last_lsns(service):
    return [service.durability.shard_state(s).wal.last_lsn
            for s in range(service.num_shards)]


@pytest.mark.parametrize("key", NON_FINITE, ids=["nan", "inf", "-inf"])
class TestNonFiniteKeys:
    def test_core_writes_raise_value_error(self, key):
        index = AlexIndex.bulk_load(np.arange(100, dtype=np.float64))
        writes = [lambda: index.insert(key, "x"),
                  lambda: index.upsert(key, "x"),
                  lambda: index.insert_many([1000.5, key]),
                  lambda: AlexIndex.bulk_load([1.0, key])]
        for write in writes:
            with pytest.raises(ValueError):
                write()
        assert len(index) == 100
        index.validate()

    def test_facade_writes_leave_no_frame(self, tmp_path, key):
        keys = np.arange(100, dtype=np.float64)
        service = durable_service(tmp_path, keys)
        before = last_lsns(service)
        writes = [lambda: service.insert(key, "x"),
                  lambda: service.upsert(key, "x"),
                  lambda: service.update(key, "x"),
                  lambda: service.delete(key),
                  lambda: service.insert_many([1000.5, key]),
                  lambda: service.delete_many([1.0, key]),
                  lambda: service.erase_many([1.0, key])]
        try:
            for write in writes:
                with pytest.raises(ValueError):
                    write()
            assert last_lsns(service) == before
            assert len(service) == 100
        finally:
            service.close()
        recovered = ShardedAlexIndex.recover(str(tmp_path / "svc"))
        with recovered:
            assert list(recovered.keys()) == keys.tolist()
            recovered.validate()


class TestLogBeforeApply:
    def test_writes_are_logged_before_they_are_visible(self, tmp_path,
                                                       monkeypatch):
        keys = np.arange(0, 2000, 2, dtype=np.float64)
        service = durable_service(tmp_path, keys,
                                  [f"v{int(k)}" for k in keys])
        durability = service.durability
        real_log = durability.log
        at_log: list = []

        def spying_log(shard, op, frame_keys, payloads=None):
            # The shard object directly: the facade's own locks are held
            # by the write being logged.
            index = service.shards[shard]
            at_log.extend((k, index.get(k, MISSING))
                          for k in frame_keys.tolist())
            return real_log(shard, op, frame_keys, payloads)

        monkeypatch.setattr(durability, "log", spying_log)

        def state(write_keys):
            return [(k, service.get(k, MISSING)) for k in write_keys]

        writes = [
            ("insert", [1.0], lambda: service.insert(1.0, "new")),
            ("delete", [6.0], lambda: service.delete(6.0)),
            ("update", [8.0], lambda: service.update(8.0, "upd")),
            ("upsert-new", [3.0], lambda: service.upsert(3.0, "ups")),
            ("upsert-old", [10.0], lambda: service.upsert(10.0, "ups")),
            ("insert_many", [5.0, 1501.0],
             lambda: service.insert_many([5.0, 1501.0], ["a", "b"])),
            ("delete_many", [12.0, 1502.0],
             lambda: service.delete_many([12.0, 1502.0])),
        ]
        try:
            for name, write_keys, write in writes:
                before = state(write_keys)
                at_log.clear()
                write()
                assert sorted(at_log, key=lambda kv: kv[0]) == before, (
                    f"{name} was visible before its WAL frame existed")
                assert state(write_keys) != before, f"{name} not applied"

            # Failed scalar writes fail validation: same error types as
            # ever, and no frame.
            at_log.clear()
            before = last_lsns(service)
            with pytest.raises(DuplicateKeyError):
                service.insert(4.0, "dup")
            with pytest.raises(KeyNotFoundError):
                service.delete(9.0)
            with pytest.raises(KeyNotFoundError):
                service.update(11.0, "missing")
            assert last_lsns(service) == before and not at_log
            service.validate()
        finally:
            service.close()
