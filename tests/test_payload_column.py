"""Numeric payload columns: the sharded bulk load encodes a homogeneous
int or float payload list once and ships column slices to the shards,
and reply rings return payload lists the same way.  Every payload must
come back with its exact Python type and value, whatever path it took."""

import math

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.shm import (REPLY_LIST, ShardStorageView, encode_reply,
                            numeric_column)
from repro.serve import ShardedAlexIndex
from repro.serve.router import ShardRouter

BACKENDS = ["thread", "process"]
N = 240


def exact(values) -> list:
    """Values as ``(type, repr)`` pairs: equal only when every value has
    the same type and the same value, ``-0.0`` and NaN included."""
    return [(type(v), repr(v)) for v in values]


def payload_lists() -> dict:
    ints = list(range(-N // 2, N // 2))
    return {
        "bool": [i % 3 == 0 for i in range(N)],
        "np.float64": [np.float64(i) / 4 for i in range(N)],
        "mixed int and float": [i if i % 2 else float(i) for i in range(N)],
        "tuple": [(i, str(i)) for i in range(N)],
        "none": [None] * N,
        "some none": [None if i % 5 else i for i in range(N)],
        "int64": [i * (2 ** 62 // N) for i in ints],
        "int64 edges": [-2 ** 63, 2 ** 63 - 1] + ints[2:],
        "uint64 range": [2 ** 63 + i for i in range(N)],
        "one uint64": [1] * (N - 1) + [2 ** 63],
        "beyond 64 bits": [2 ** 64 + i for i in range(N)],
        "below int64": [-2 ** 63 - 1 - i for i in range(N)],
        "float": [i / 7.0 for i in range(N)],
        "signed zero and nan": [(-0.0, math.nan, 0.0, -1.5)[i % 4]
                                for i in range(N)],
    }


PAYLOADS = payload_lists()


class TestNumericColumn:
    @pytest.mark.parametrize("values, dtype", [
        ([1, 2, -3], np.int64), ([2 ** 63 - 1, -2 ** 63], np.int64),
        ([0.5, -0.0, math.nan, math.inf], np.float64),
    ])
    def test_exact_kind_becomes_a_column(self, values, dtype):
        column = numeric_column(values)
        assert column.dtype == dtype
        assert exact(column.tolist()) == exact(values)

    @pytest.mark.parametrize("name", ["bool", "np.float64",
                                      "mixed int and float", "tuple",
                                      "none", "some none", "uint64 range",
                                      "one uint64", "beyond 64 bits",
                                      "below int64"])
    def test_everything_else_is_none(self, name):
        assert numeric_column(PAYLOADS[name]) is None
        assert encode_reply(PAYLOADS[name]) is None

    @pytest.mark.parametrize("values", [[], (1, 2), np.arange(3.0)])
    def test_only_non_empty_lists(self, values):
        assert numeric_column(values) is None

    def test_reply_list_round_trips(self):
        column, kind = encode_reply(PAYLOADS["signed zero and nan"])
        assert kind == REPLY_LIST
        assert (exact(column.tolist())
                == exact(PAYLOADS["signed zero and nan"]))

    def test_pack_copies_a_ready_column(self):
        view = ShardStorageView.pack(np.arange(3.0),
                                     np.array([7, 8, 9], dtype=np.int64))
        try:
            keys, payloads = view.unpack()
            assert keys.tolist() == [0.0, 1.0, 2.0]
            assert exact(payloads) == exact([7, 8, 9])
        finally:
            view.unlink()


class TestLargeInts:
    """numpy turns an int list holding any value in [2**63, 2**64) into
    float64; such payloads must travel pickled, not rounded."""

    def test_get_many_reply_keeps_uint64_range_ints(self, leak_guard):
        service = ShardedAlexIndex(router=ShardRouter(np.empty(0)),
                                   backend="process")
        with service:
            service.insert(20.0, 2 ** 63 + 1)
            service.insert(21.0, 7)
            assert exact(service.get_many([20.0, 21.0])) == exact(
                [2 ** 63 + 1, 7])

    def test_bulk_load_keeps_uint64_range_ints(self, leak_guard):
        payloads = [1] * 99 + [2 ** 63]
        service = ShardedAlexIndex.bulk_load(np.arange(100.0), payloads,
                                             num_shards=2,
                                             backend="process")
        with service:
            assert exact(service.get_many(np.arange(100.0))) == exact(
                payloads)
            assert exact(p for _, p in service.items()) == exact(payloads)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_unsorted_bulk_load_round_trips_payloads(backend, name,
                                                 leak_guard):
    payloads = PAYLOADS[name]
    keys = np.random.default_rng(3).permutation(N).astype(np.float64)
    service = ShardedAlexIndex.bulk_load(keys, payloads, num_shards=2,
                                         backend=backend)
    with service:
        assert exact(service.get_many(keys)) == exact(payloads)
        expected = [payloads[i] for i in np.argsort(keys)]
        items = list(service.items())
        assert [k for k, _ in items] == sorted(keys.tolist())
        assert exact(p for _, p in items) == exact(expected)


class TestArrayPayloads:
    """ndarray payloads take the list path and keep their numpy scalar
    types, exactly as before numeric columns existed."""

    def test_alex_index_bulk_load_and_insert_many(self):
        index = AlexIndex.bulk_load(np.array([3.0, 1.0, 2.0]),
                                    np.array([30.0, 10.0, 20.0]))
        assert exact(p for _, p in index.items()) == exact(
            [np.float64(10.0), np.float64(20.0), np.float64(30.0)])
        index.insert_many(np.array([5.0, 4.0]), np.array([50, 40]))
        assert exact(index.get_many([4.0, 5.0])) == exact(
            [np.int64(40), np.int64(50)])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_durable_facade_insert_many_and_recover(self, backend, tmp_path,
                                                    leak_guard):
        root = str(tmp_path / "svc")
        probe = [0.0, 9.0, 10.5, 0.5]
        expected = exact([np.int64(0), np.int64(18), np.float64(1.5),
                          np.float64(2.5)])
        service = ShardedAlexIndex.bulk_load(
            np.arange(10.0), np.arange(10) * 2, num_shards=2,
            backend=backend, durability_dir=root)
        with service:
            service.insert_many(np.array([10.5, 0.5]), np.array([1.5, 2.5]))
            assert exact(service.get_many(probe)) == expected
        recovered = ShardedAlexIndex.recover(root, backend=backend)
        with recovered:
            assert len(recovered) == 12
            assert exact(recovered.get_many(probe)) == expected
