"""Payload columns: every leaf stores its payloads in one numpy column,
``int64`` or ``float64`` for a homogeneous int or float bulk load and
``object`` otherwise; the sharded bulk load ships column slices to the
shards, and checkpoints store the same columns.  Every payload must
come back with its exact Python type and value, whatever path it took:
the replies of primary and replica reads included."""

import gc
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import merge_leaves
from repro.core.alex import AlexIndex, export_arrays
from repro.core.config import ALL_VARIANTS, AlexConfig, ga_armi
from repro.core.data_node import numeric_column, payload_column
from repro.core.policy import AdaptationPolicy
from repro.core.introspect import format_report, structure_report
from repro.core.kernels import available_backends, get_kernels
from repro.core.kernels.numpy_backend import _FLOAT_CHUNK
from repro.core.rmi import InnerNode
from repro.durability.persistence import load_index, save_index
from repro.replication import Replica
from repro.serve import ReadOptions, ShardedAlexIndex
from repro.serve.backend import build_shard, shard_part
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
        "bool and int": [(True, 1, False, 0)[i % 4] for i in range(N)],
        "np.float64": [np.float64(i) / 4 for i in range(N)],
        "np.int64": [np.int64(i) for i in range(N)],
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

    @pytest.mark.parametrize("name", ["bool", "bool and int", "np.float64",
                                      "np.int64", "mixed int and float",
                                      "tuple", "none", "some none",
                                      "uint64 range", "one uint64",
                                      "beyond 64 bits", "below int64"])
    def test_everything_else_is_none(self, name):
        assert numeric_column(PAYLOADS[name]) is None

    @pytest.mark.parametrize("values", [[], (1, 2), np.arange(3.0)])
    def test_only_non_empty_lists(self, values):
        assert numeric_column(values) is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_part_form_provisions_and_snapshots_exactly(backend,
                                                          leak_guard):
    """A part's payloads may be ``None``, a list or a ready column; each
    shard stores, and snapshots, the column the part normalizes to (a
    ready typed column keeps its dtype), and an empty part makes an
    empty shard."""
    parts = [(np.arange(4.0), None),
             (np.arange(10.0, 13.0), [10, 20, 30]),
             (np.arange(20.0, 23.0), ["a", ("b", 2), None]),
             (np.arange(30.0, 33.0), np.array([7, 8, 9], dtype=np.int64)),
             ([], None)]
    expected = [(object, [None] * 4), (np.int64, [10, 20, 30]),
                (object, ["a", ("b", 2), None]), (np.int64, [7, 8, 9]),
                (object, [])]
    service = ShardedAlexIndex(
        router=ShardRouter(np.array([9.0, 19.0, 29.0, 39.0])),
        parts=parts, backend=backend)
    with service:
        for shard, (dtype, values) in enumerate(expected):
            keys, column = service.backend.snapshot(shard)
            assert keys.dtype == np.float64
            assert keys.tolist() == list(parts[shard][0])
            assert column.dtype == dtype
            assert exact(column.tolist()) == exact(values)


class TestShardFrame:
    """The single-process contract of a whole-shard move: a part is
    normalized by :func:`shard_part`, sent through the worker's frame
    codec over a real socket pair, bulk-loaded by :func:`build_shard` on
    the far side, and snapshotted back by ``export_arrays`` in another
    frame — the path ``load`` and ``snapshot`` take, without the
    processes."""

    @pytest.fixture(autouse=True)
    def _wire(self, wire):
        self.wire = wire

    def _round_trip(self, keys, payloads):
        received = self.wire(shard_part(keys, payloads))
        index = build_shard(*received, AlexConfig(), AdaptationPolicy())
        return self.wire(export_arrays(index))

    def test_none_payloads(self):
        keys, column = self._round_trip([1.0, 2.0, 3.0], None)
        assert keys.dtype == np.float64
        assert keys.tolist() == [1.0, 2.0, 3.0]
        assert column.dtype == object
        assert column.tolist() == [None, None, None]

    def test_numeric_payloads_round_trip_exactly(self):
        _, column = self._round_trip([1.0, 2.0, 3.0], [10, 20, 30])
        assert column.dtype == np.int64
        assert exact(column.tolist()) == exact([10, 20, 30])

    def test_float_payloads_round_trip_bit_exactly(self):
        values = [0.5, -0.0, math.nan, math.inf]
        _, column = self._round_trip([1.0, 2.0, 3.0, 4.0], values)
        assert column.dtype == np.float64
        assert exact(column.tolist()) == exact(values)

    def test_object_payloads_stay_an_object_column(self):
        _, column = self._round_trip([1.0, 2.0, 3.0],
                                     ["a", ("b", 2), None])
        assert column.dtype == object
        assert column.tolist() == ["a", ("b", 2), None]

    def test_empty_shard(self):
        keys, column = self._round_trip([], None)
        assert keys.dtype == np.float64
        assert len(keys) == 0 and len(column) == 0

    def test_received_arrays_are_independent_of_the_sender(self):
        """Small parts travel in the pickle stream, large ones out of
        band; either way the far end owns what it decoded."""
        for n in (32, 1 << 19):
            keys = np.arange(n, dtype=np.float64)
            column = np.arange(n, dtype=np.int64)
            got_keys, got_column = self.wire(shard_part(keys, column))
            keys[7] = -1.0
            column[7] = -1
            assert got_keys[7] == 7.0 and got_column[7] == 7
            got_keys[8] = -2.0
            got_column[8] = -2
            assert keys[8] == 8.0 and column[8] == 8

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, object])
    def test_a_multi_mib_part_round_trips(self, dtype):
        """A 4 MiB key array beside a 4 MiB column (or a pickled object
        column of the same length) goes out in a load frame and comes
        back in a snapshot reply exactly."""
        n = 1 << 19
        keys = np.arange(n, dtype=np.float64) * 0.5
        column = (np.arange(n) - n // 2).astype(dtype)
        got_keys, got_column = self.wire(self.wire(shard_part(keys, column)))
        assert got_keys.tobytes() == keys.tobytes()
        assert got_column.dtype == column.dtype
        assert exact(got_column[::997].tolist()) == exact(
            column[::997].tolist())
        assert np.array_equal(got_column, column)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["int64", "float", "tuple"])
def test_shard_split_and_merge_keep_the_column(backend, name, leak_guard):
    """A split snapshots the shard and provisions both halves, a merge
    snapshots both and provisions one: the column crosses each move,
    and every shard keeps its dtype and every payload exactly."""
    payloads = PAYLOADS[name]
    keys = np.arange(N, dtype=np.float64)
    dtype = np.dtype({"int64": np.int64, "float": np.float64}.get(
        name, object))
    service = ShardedAlexIndex.bulk_load(keys, payloads, num_shards=2,
                                         backend=backend)
    with service:
        assert service.split_shard(1)
        service.merge_shards(0)
        assert service.num_shards == 2
        for shard in range(2):
            assert service.backend.snapshot(shard)[1].dtype == dtype
            assert service.backend.call(
                shard, "introspect")["payload_dtype"] == dtype.name
        assert exact(service.get_many(keys)) == exact(payloads)


class FloatSubclass(float):
    pass


@pytest.mark.parametrize("kernels", available_backends())
class TestExactFloats:
    """A list starting with a float gets a float64 column only when every
    value is exactly a Python ``float``, and the column is bit-exact, on
    every kernel backend."""

    @pytest.mark.parametrize("tail", [
        2, True, None, np.float64(2.0), FloatSubclass(2.0), "x", b"1234",
        b"12345678", (2.0,), [2.0], 2 ** 70, 1 + 2j, {2.0: 1},
        lambda: 2.0], ids=lambda value: type(value).__name__)
    def test_any_other_value_means_no_column(self, kernels, tail):
        backend = get_kernels(kernels)
        for values in ([1.0, tail], [1.0] * 5 + [tail] + [2.0] * 5):
            assert numeric_column(values, backend) is None

    @pytest.mark.parametrize("n, index", [
        (n, index) for n in (2, _FLOAT_CHUNK, _FLOAT_CHUNK + 1)
        for index in sorted({0, 1, _FLOAT_CHUNK - 1, _FLOAT_CHUNK, n - 1})
        if index < n])
    @pytest.mark.parametrize("intruder", [
        2, True, np.float64(2.0), FloatSubclass(2.0), b"1234"],
        ids=lambda value: type(value).__name__)
    def test_an_intruder_at_a_chunk_edge_means_no_column(
            self, kernels, n, index, intruder):
        """The numpy backend types the list one slice of
        :data:`_FLOAT_CHUNK` values at a time; a value that is not exactly
        a float, on either side of a slice edge or at either end, still
        leaves no column.  (``b"1234"`` has a 9-byte marshal record, as a
        float does, so only the record kinds reject it there.)"""
        values = [0.5] * n
        values[index] = intruder
        assert numeric_column(values, get_kernels(kernels)) is None
        column = payload_column(values, get_kernels(kernels))
        assert column.dtype == object and len(column) == n
        assert column[index] is intruder

    @pytest.mark.parametrize("n", [1, _FLOAT_CHUNK, _FLOAT_CHUNK + 1])
    def test_every_length_is_bit_exact(self, kernels, n):
        specials = [-0.0, math.nan, math.inf, -math.inf]
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n).tolist()
        for offset, special in enumerate(specials):
            for index in (offset, _FLOAT_CHUNK - 1 - offset,
                          _FLOAT_CHUNK + offset, n - 1 - offset):
                if 0 <= index < n:
                    values[index] = special
        column = numeric_column(values, get_kernels(kernels))
        assert column.dtype == np.float64 and len(column) == n
        assert column.tobytes() == np.array(values,
                                            dtype=np.float64).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 2 * _FLOAT_CHUNK + 2),
           at=st.floats(0, 1, exclude_max=True),
           intruder=st.sampled_from([2, True, np.float64(2.0),
                                     FloatSubclass(2.0), b"1234", None]))
    def test_any_position_is_checked(self, kernels, n, at, intruder):
        backend = get_kernels(kernels)
        values = [1.5] * n
        assert numeric_column(values, backend).tobytes() == np.full(
            n, 1.5).tobytes()
        values[int(at * n)] = intruder
        assert numeric_column(values, backend) is None

    def test_column_is_bit_exact(self, kernels):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2 ** 63, 5000, dtype=np.uint64)
        bits[::7] |= np.uint64(1) << np.uint64(63)
        values = bits.view(np.float64).tolist() + [-0.0, math.inf]
        shared = values[3]
        values += [shared, shared]  # one object stored twice
        column = numeric_column(values, get_kernels(kernels))
        assert column.dtype == np.float64
        assert column.tobytes() == np.array(values).tobytes()


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


class TestExactReplies:
    """Process-backend read replies keep every payload's exact type and
    value, from the primaries and from the replicas alike."""

    @pytest.mark.parametrize("name", [
        "bool", "bool and int", "np.float64", "np.int64",
        "signed zero and nan", "uint64 range", "one uint64",
        "mixed int and float", "int64", "float", "none", "some none"])
    def test_primary_and_replica_reads(self, name, tmp_path, leak_guard):
        payloads = PAYLOADS[name]
        keys = np.arange(N, dtype=np.float64)
        probe = np.random.default_rng(4).permutation(N).astype(np.float64)
        want = exact(payloads[int(k)] for k in probe)
        holes = np.concatenate([probe[:40], probe[:40] + 0.5])
        misses = probe[:40] + 0.5
        service = ShardedAlexIndex.bulk_load(
            keys, payloads, num_shards=2, backend="process",
            durability_dir=str(tmp_path / "svc"), replicate=True)
        with service:
            served = []
            real_read = service.backend.replica_read

            def replica_read(*args, **kwargs):
                result = real_read(*args, **kwargs)
                served.append(args[1])
                return result

            service.backend.replica_read = replica_read
            for options in (None, ReadOptions.replica_ok()):
                assert exact(service.get_many(probe, options=options)) \
                    == want
                assert exact(service.lookup_many(probe, options=options)) \
                    == want
                assert exact(service.get_many(holes, options=options)) \
                    == want[:40] + exact([None] * 40)
                assert exact(service.get_many(misses, options=options)) \
                    == exact([None] * 40)
                assert exact(service.get_many(misses, -0.0,
                                              options=options)) \
                    == exact([-0.0] * 40)
            # Every replica_ok read above was served by a replica, one
            # read per shard: no fallback to the primaries.
            assert served == ["get_many"] * 2 + ["lookup_many"] * 2 \
                + ["get_many"] * 6


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


# ----------------------------------------------------------------------
# Leaf storage: every leaf keeps its payloads in one numpy column
# ----------------------------------------------------------------------

#: The dtype each payload kind gets at bulk load (``object`` for the rest).
TYPED = {"int64": np.int64, "int64 edges": np.int64, "float": np.float64,
         "signed zero and nan": np.float64}

#: ``(bulk-load kind, a value that does not fit its column)``.
MISFITS = [("int64", True), ("float", np.float64(1.5)), ("float", 7),
           ("int64", 2 ** 63), ("float", None), ("int64", None)]


@pytest.fixture(params=available_backends(), ids=lambda n: f"kernels-{n}")
def kernel_leg(request, monkeypatch):
    """Run the test once per available kernel backend (the process
    default every config built inside the test picks up)."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", request.param)
    return request.param


def leaf_dtypes(index) -> set:
    return {leaf.payloads.dtype for leaf in index.leaves()}


def assert_stores(index, dtype, expected: dict) -> None:
    """Every leaf column has ``dtype`` and every key reads back its
    expected payload exactly, by point and by scan reads."""
    assert index.payload_dtype == np.dtype(dtype)
    assert leaf_dtypes(index) == {np.dtype(dtype)}
    keys = sorted(expected)
    want = exact(expected[k] for k in keys)
    assert exact(index.get_many(keys)) == want
    assert exact(index.lookup(k) for k in keys) == want
    assert exact(p for _, p in index.items()) == want
    assert exact(p for _, p in index.range_scan(keys[0], len(keys))) == want
    index.validate()


def small_index(name: str, **overrides):
    payloads = PAYLOADS[name]
    keys = np.arange(N, dtype=np.float64)
    config = ga_armi(max_keys_per_node=64, **overrides)
    index = AlexIndex.bulk_load(keys, payloads, config=config)
    return index, dict(zip(keys.tolist(), payloads))


@pytest.mark.usefixtures("kernel_leg")
class TestLeafColumns:
    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_bulk_load_dtype(self, name):
        index, expected = small_index(name)
        assert index.num_leaves() > 1
        assert_stores(index, TYPED.get(name, object), expected)

    def test_ndarray_payloads_stay_object(self):
        index = AlexIndex.bulk_load(np.arange(4.0), np.arange(4.0) * 2)
        assert index.payload_dtype == object

    def test_keys_only_bulk_load_is_object(self):
        index = AlexIndex.bulk_load(np.arange(N, dtype=np.float64))
        assert_stores(index, object, dict.fromkeys(range(N)))

    @pytest.mark.parametrize("op", ["insert", "insert_many", "update"])
    @pytest.mark.parametrize("name, value", MISFITS,
                             ids=[f"{n}-{v!r}" for n, v in MISFITS])
    def test_a_misfit_upgrades_to_object_once(self, op, name, value):
        index, expected = small_index(name)
        assert index.payload_dtype == TYPED[name]
        if op == "insert":
            index.insert(N + 0.5, value)
            expected[N + 0.5] = value
        elif op == "insert_many":
            extra = np.arange(8) + N + 0.25
            index.insert_many(extra, [value] * 8)
            expected.update(dict.fromkeys(extra.tolist(), value))
        else:
            index.update(3.0, value)
            expected[3.0] = value
        # Earlier payloads keep their exact types in the object column.
        assert_stores(index, object, expected)
        # One way: a value that would have fit the old column stays
        # in the object column.
        index.insert(N + 0.75, PAYLOADS[name][0])
        expected[N + 0.75] = PAYLOADS[name][0]
        assert_stores(index, object, expected)

    @pytest.mark.parametrize("name", ["int64", "float"])
    def test_fitting_writes_keep_the_column(self, name):
        index, expected = small_index(name)
        value = PAYLOADS[name][5]
        index.insert(N + 0.5, value)
        index.insert_many([N + 1.5, N + 2.5], [value, value])
        index.insert_many(np.arange(8) + N + 3.5, [value] * 8)
        index.update(1.0, value)
        expected.update({N + 0.5: value, N + 1.5: value, N + 2.5: value,
                         1.0: value})
        expected.update(dict.fromkeys((np.arange(8) + N + 3.5).tolist(),
                                      value))
        assert_stores(index, TYPED[name], expected)

    @pytest.mark.parametrize("name", ["int64", "float", "tuple"])
    def test_expansion_split_and_contraction_keep_the_dtype(self, name):
        index, expected = small_index(name, split_on_inserts=True)
        dtype = TYPED.get(name, object)
        for i in range(4 * N):
            key = N + i / 3
            value = PAYLOADS[name][i % N]
            index.insert(key, value)
            expected[key] = value
        assert index.counters.expansions > 0
        assert index.counters.splits > 0
        assert_stores(index, dtype, expected)
        for key in sorted(expected)[:-20]:
            index.delete(key)
            del expected[key]
        assert index.counters.contractions > 0
        assert_stores(index, dtype, expected)

    @pytest.mark.parametrize("name", ["int64", "float", "tuple"])
    def test_merge_keeps_the_dtype(self, name):
        index, expected = small_index(name)
        for key in list(expected)[::4] + list(expected)[1::4]:
            index.delete(key)
            del expected[key]
        for leaf in index.leaves():
            sibling = leaf.next_leaf
            parent = next((node for node in index.nodes()
                           if isinstance(node, InnerNode)
                           and any(c is leaf for c in node.children)), None)
            if (sibling is None or parent is None
                    or not any(c is sibling for c in parent.children)):
                continue
            merged = merge_leaves(leaf, parent, index.config,
                                  index.counters)
            if merged is not None:
                break
        else:
            raise AssertionError("no mergeable same-parent pair")
        assert merged.payloads.dtype == np.dtype(TYPED.get(name, object))
        assert_stores(index, TYPED.get(name, object), expected)

    @pytest.mark.parametrize("name", ["int64", "float", "tuple", "none",
                                      "signed zero and nan"])
    def test_checkpoint_round_trip_keeps_the_dtype(self, name, tmp_path):
        index, expected = small_index(name)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        assert_stores(load_index(path), TYPED.get(name, object), expected)

    @pytest.mark.parametrize("variant", sorted(ALL_VARIANTS))
    @pytest.mark.parametrize("name", ["int64", "tuple"])
    def test_export_arrays_round_trips_through_from_column(self, variant,
                                                           name):
        config = ALL_VARIANTS[variant](max_keys_per_node=64, num_models=4)
        index = AlexIndex.bulk_load(np.arange(N, dtype=np.float64),
                                    PAYLOADS[name], config=config)
        rebuilt = AlexIndex.from_column(*export_arrays(index), config=config)
        assert rebuilt.variant_name == variant
        assert list(rebuilt.items()) == list(index.items())
        assert_stores(rebuilt, TYPED.get(name, object),
                      dict(zip(range(N), PAYLOADS[name])))

    def test_checkpoint_of_an_upgraded_index_stays_object(self, tmp_path):
        index, expected = small_index("int64")
        index.update(0.0, 1.5)
        index.update(0.0, 7)  # every value fits int64 again
        expected[0.0] = 7
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        assert_stores(load_index(path), object, expected)

    @pytest.mark.parametrize("name", ["int64", "float", "tuple"])
    def test_recovery_and_replica_bootstrap_keep_the_dtype(self, name,
                                                           tmp_path):
        payloads = PAYLOADS[name]
        keys = np.arange(N, dtype=np.float64)
        root = str(tmp_path / "dur")
        durable = ShardedAlexIndex.bulk_load(
            keys, payloads, num_shards=1, durability_dir=root, fsync="off",
            config=ga_armi(max_keys_per_node=64))
        expected = dict(zip(keys.tolist(), payloads))
        # A WAL tail past the checkpoint: batch and scalar inserts.
        durable.insert_many(keys[:8] + 0.5, payloads[:8])
        durable.insert(N + 0.5, payloads[9])
        expected.update(zip((keys[:8] + 0.5).tolist(), payloads[:8]))
        expected[N + 0.5] = payloads[9]
        durable.close()
        dtype = TYPED.get(name, object)
        recovered = ShardedAlexIndex.recover(root, fsync="off")
        try:
            assert_stores(recovered.shards[0], dtype, expected)
            # A replica bootstrapped from the recovered directory, then
            # applying the records the log appends for a batch and a
            # scalar insert, as a replica worker is pushed them.
            replica = Replica(recovered.durability.shard_dir(0),
                              config=recovered.config).start()
            records = []
            log = recovered.durability.log

            def spy(*args):
                lsn, record = log(*args)
                records.append(record)
                return lsn, record

            recovered.durability.log = spy
            recovered.insert_many(keys[:8] + 0.25, payloads[:8])
            recovered.insert(N + 0.25, payloads[9])
            expected.update(zip((keys[:8] + 0.25).tolist(), payloads[:8]))
            expected[N + 0.25] = payloads[9]
            assert len(records) == 2
            for record in records:
                replica.apply(record)
            assert_stores(replica.promote(), dtype, expected)
        finally:
            recovered.close()


def test_shard_introspection_reports_the_payload_column():
    service = ShardedAlexIndex.bulk_load(np.arange(N, dtype=np.float64),
                                         PAYLOADS["float"], num_shards=2)
    with service:
        index = service.backend.local_indexes()[0]
        report = structure_report(index)
        assert report.payload_dtype == "float64"
        assert report.payload_bytes == sum(
            leaf.capacity * 8 for leaf in index.leaves())
        assert "float64 column" in format_report(report)
        shape = service.backend.call(0, "introspect")
        assert (shape["payload_dtype"], shape["payload_bytes"]) == (
            report.payload_dtype, report.payload_bytes)


def test_float_bulk_load_holds_no_python_object_per_key():
    """A typed column stores 100k float payloads without one Python
    object (a pymalloc block) per key."""
    keys = np.arange(100_000, dtype=np.float64)
    AlexIndex.bulk_load(keys[:1000], (keys[:1000] * 2.0).tolist())
    gc.collect()
    before = sys.getallocatedblocks()
    index = AlexIndex.bulk_load(keys, (keys * 2.0 + 1.0).tolist())
    gc.collect()
    assert index.payload_dtype == np.float64
    assert sys.getallocatedblocks() - before < 10_000
