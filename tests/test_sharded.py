"""Property-based equivalence tests for the sharded index service.

A :class:`ShardedAlexIndex` must be observationally identical to a single
:class:`AlexIndex` over the same data — for every batch operation, every
scalar operation, and any interleaving of reads, writes, deletes, and range
queries — regardless of the shard count *and of the execution backend*.
These tests drive seeded-random scenarios across shard counts {1, 3, 8},
skewed and uniform key sets, and both the thread backend's in-process
shards and the process backend's worker processes, plus the router's
partitioning and the hot-shard rebalance policy.
"""

import threading
import zlib

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, pma_srmi
from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.core.kernels import available_backends
from repro.serve import ShardRouter, ShardedAlexIndex
from repro.workloads.hotspot import HotspotGenerator

SHARD_COUNTS = (1, 3, 8)

#: The equivalence grid: every shard count under the thread backend, plus
#: one mid-size process-backend case per test (worker processes are
#: expensive to spawn, so the process backend rides the representative
#: configuration while the cheap thread backend covers the count sweep).
BACKEND_CASES = [(1, "thread"), (3, "thread"), (8, "thread"),
                 (3, "process")]
BACKEND_IDS = [f"{b}-{n}shards" for n, b in BACKEND_CASES]


def _seed(parts) -> int:
    """Deterministic per-case seed (str hash() is randomized per run)."""
    return zlib.crc32(repr(parts).encode())


def skewed_keys(rng, n):
    return np.unique(rng.lognormal(0, 2, n + 200) * 1e6)[:n]


def build_pair(rng, n=4000, num_shards=3, config=None, backend="thread"):
    """A sharded service and a single index over identical data."""
    config = config or ga_armi(max_keys_per_node=256)
    keys = skewed_keys(rng, n)
    payloads = [f"p{i}" for i in range(len(keys))]
    service = ShardedAlexIndex.bulk_load(keys, payloads,
                                         num_shards=num_shards,
                                         config=config, backend=backend)
    single = AlexIndex.bulk_load(keys, payloads, config=config)
    return service, single, keys


def probe_mix(keys, rng, size):
    """Half present keys, half uniform-random (mostly absent), shuffled."""
    hits = rng.choice(keys, size - size // 2, replace=True)
    misses = rng.uniform(-1e6, keys.max() * 1.1, size // 2)
    probes = np.concatenate([hits, misses])
    rng.shuffle(probes)
    return probes


class TestShardRouter:
    def test_equal_mass_on_skewed_keys(self):
        keys = skewed_keys(np.random.default_rng(1), 20_000)
        router = ShardRouter.fit(keys, 8)
        assert router.num_shards == 8
        masses = router.mass(keys)
        assert masses.max() - masses.min() < 0.01

    def test_scalar_matches_vectorized(self):
        rng = np.random.default_rng(2)
        keys = skewed_keys(rng, 5_000)
        router = ShardRouter.fit(keys, 7)
        # Random keys, the boundaries themselves, and their neighbourhoods.
        probes = np.concatenate([
            rng.uniform(-1e6, keys.max() * 1.2, 500),
            router.boundaries,
            np.nextafter(router.boundaries, -np.inf),
            np.nextafter(router.boundaries, np.inf),
        ])
        vec = router.shard_for_many(probes)
        assert [router.shard_for(float(k)) for k in probes] == vec.tolist()

    def test_split_batch_tiles_and_agrees(self):
        rng = np.random.default_rng(3)
        keys = skewed_keys(rng, 3_000)
        router = ShardRouter.fit(keys, 5)
        batch = np.sort(probe_mix(keys, rng, 800))
        expected_lo = 0
        prev_shard = -1
        for shard, lo, hi in router.split_batch(batch):
            assert lo == expected_lo and hi > lo
            assert shard > prev_shard
            assert (router.shard_for_many(batch[lo:hi]) == shard).all()
            expected_lo, prev_shard = hi, shard
        assert expected_lo == len(batch)

    def test_key_range_and_with_boundary(self):
        router = ShardRouter([10.0, 20.0])
        assert router.key_range(0) == (-np.inf, 10.0)
        assert router.key_range(1) == (10.0, 20.0)
        assert router.key_range(2) == (20.0, np.inf)
        grown = router.with_boundary(15.0)
        assert grown.num_shards == 4
        assert grown.shard_for(15.0) == 2 and grown.shard_for(14.9) == 1
        with pytest.raises(ValueError):
            router.with_boundary(10.0)

    def test_degenerate_fits(self):
        assert ShardRouter.fit(np.empty(0), 4).num_shards == 1
        assert ShardRouter.fit(np.arange(100.0), 1).num_shards == 1
        # More shards than keys: collapses instead of creating empty cuts.
        tiny = ShardRouter.fit(np.array([1.0, 2.0]), 8)
        assert tiny.num_shards <= 3

    @pytest.mark.parametrize("shape", ["sorted", "unsorted", "duplicates",
                                       "tiny"])
    def test_boundaries_are_the_sorted_order_statistics(self, shape):
        # The definition fit must keep: the fully sorted keys at each
        # equal-mass cut rank, with repeated quantiles collapsed.
        rng = np.random.default_rng(4)
        keys = {"sorted": skewed_keys(rng, 10_001),
                "unsorted": rng.permutation(skewed_keys(rng, 10_001)),
                "duplicates": rng.integers(0, 5, 3_000).astype(np.float64),
                "tiny": np.array([3.0, 1.0, 2.0])}[shape]
        given = keys.copy()
        for num_shards in (2, 3, 7, 8, 16):
            n = len(keys)
            cut_ranks = [(s * n) // num_shards for s in range(1, num_shards)]
            expected = np.unique(np.sort(keys)[cut_ranks])
            fitted = ShardRouter.fit(keys, num_shards).boundaries
            assert fitted.tolist() == expected.tolist()
        assert keys.tolist() == given.tolist()  # fit leaves its input alone

    @pytest.mark.parametrize("num_shards", [2, 3, 7, 16])
    def test_sorted_and_shuffled_keys_fit_alike(self, num_shards):
        # fit reads a sorted input's cut ranks in place and partitions
        # any other order: both paths give the same boundaries.
        rng = np.random.default_rng(5)
        for keys in (np.sort(skewed_keys(rng, 10_001)),
                     np.sort(rng.integers(0, 5, 3_000).astype(np.float64))):
            shuffled = rng.permutation(keys)
            assert ShardRouter.fit(keys, num_shards).boundaries.tolist() \
                == ShardRouter.fit(shuffled, num_shards).boundaries.tolist()


@pytest.mark.parametrize("num_shards,backend", BACKEND_CASES,
                         ids=BACKEND_IDS)
class TestBatchEquivalence:
    """Also runs once per available kernel backend: the autouse fixture
    sets the process-default ``kernel_backend``, which ``build_pair``'s
    configs inherit (and the process backend's workers receive through
    the serialized config), so sharded-vs-single equivalence holds under
    the compiled kernels too."""

    @pytest.fixture(params=available_backends(), autouse=True,
                    ids=lambda name: f"kernels-{name}")
    def _kernel_backend(self, request, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", request.param)

    def test_batch_reads_match_single_index(self, num_shards, backend):
        rng = np.random.default_rng(_seed(("reads", num_shards)))
        service, single, keys = build_pair(rng, num_shards=num_shards,
                                           backend=backend)
        probes = probe_mix(keys, rng, 900)

        assert service.get_many(probes, "MISS") == single.get_many(probes,
                                                                   "MISS")
        assert (service.contains_many(probes).tolist()
                == single.contains_many(probes).tolist())
        hits = rng.choice(keys, 700, replace=True)
        assert service.lookup_many(hits) == single.lookup_many(hits)
        service.close()

    def test_lookup_many_raises_on_any_miss(self, num_shards, backend):
        rng = np.random.default_rng(_seed(("miss", num_shards)))
        service, _, keys = build_pair(rng, num_shards=num_shards,
                                      backend=backend)
        probes = rng.choice(keys, 50, replace=True)
        probes[17] = -4321.0  # guaranteed absent
        with pytest.raises(KeyNotFoundError):
            service.lookup_many(probes)
        service.close()

    def test_insert_many_matches_single_index(self, num_shards, backend):
        rng = np.random.default_rng(_seed(("ins", num_shards)))
        service, single, keys = build_pair(rng, num_shards=num_shards,
                                           backend=backend)
        new = np.setdiff1d(np.unique(rng.uniform(0, keys.max() * 1.2, 1500)),
                           keys)[:1000]
        rng.shuffle(new)
        payloads = [f"n{i}" for i in range(len(new))]
        service.insert_many(new, payloads)
        single.insert_many(new, payloads)
        assert len(service) == len(single)
        assert list(service.items()) == list(single.items())
        service.validate()
        service.close()

    def test_insert_many_all_or_nothing(self, num_shards, backend):
        rng = np.random.default_rng(_seed(("atomic", num_shards)))
        service, _, keys = build_pair(rng, num_shards=num_shards,
                                      backend=backend)
        before = list(service.items())
        fresh = np.setdiff1d(np.unique(rng.uniform(0, keys.max(), 400)),
                             keys)[:200]
        # One existing key poisons the whole batch, scattered shards or not.
        batch = np.concatenate([fresh, keys[len(keys) // 2:len(keys) // 2 + 1]])
        rng.shuffle(batch)
        with pytest.raises(DuplicateKeyError):
            service.insert_many(batch)
        assert list(service.items()) == before
        with pytest.raises(DuplicateKeyError):  # in-batch duplicate
            service.insert_many(np.array([fresh[0], fresh[1], fresh[0]]))
        assert list(service.items()) == before
        service.close()

    def test_range_queries_match_single_index(self, num_shards, backend):
        rng = np.random.default_rng(_seed(("range", num_shards)))
        service, single, keys = build_pair(rng, num_shards=num_shards,
                                           backend=backend)
        los = rng.uniform(keys.min(), keys.max(), 80)
        his = los + rng.uniform(0, (keys.max() - keys.min()) / 3, 80)
        his[::11] = los[::11] - 1.0  # inverted bounds yield empty results
        assert service.range_query_many(los, his) == \
            single.range_query_many(los, his)
        for lo, hi in zip(los[:10], his[:10]):
            assert service.range_query(lo, hi) == single.range_query(lo, hi)
        for start in rng.choice(keys, 8, replace=False):
            assert (service.range_scan(float(start), 150)
                    == single.range_scan(float(start), 150))
        service.close()

    def test_empty_batches(self, num_shards, backend):
        rng = np.random.default_rng(_seed(("empty", num_shards)))
        service, _, _ = build_pair(rng, n=500, num_shards=num_shards,
                                   backend=backend)
        assert service.lookup_many(np.empty(0)) == []
        assert service.get_many([]) == []
        assert service.contains_many([]).tolist() == []
        assert service.range_query_many([], []) == []
        service.insert_many(np.empty(0))  # no-op
        service.close()


class TestRandomInterleavings:
    """Sharded vs single under a random mixed op stream, op for op."""

    @pytest.mark.parametrize("num_shards,backend", BACKEND_CASES,
                             ids=BACKEND_IDS)
    @pytest.mark.parametrize("config_name,config", [
        ("ga-armi", lambda: ga_armi(max_keys_per_node=128,
                                    split_on_inserts=True)),
        ("pma-srmi", lambda: pma_srmi(num_models=16)),
    ], ids=["ga-armi", "pma-srmi"])
    def test_mixed_stream_equivalence(self, num_shards, backend,
                                      config_name, config):
        if backend == "process" and config_name != "ga-armi":
            pytest.skip("one process-backend interleaving case is enough")
        rng = np.random.default_rng(_seed((config_name, num_shards)))
        service, single, keys = build_pair(rng, n=1200,
                                           num_shards=num_shards,
                                           config=config(),
                                           backend=backend)
        live = list(keys)
        fresh = iter(np.setdiff1d(
            np.unique(rng.uniform(0, keys.max() * 1.3, 2000)),
            keys).tolist())
        for step in range(400):
            op = rng.integers(0, 8)
            if op == 0:  # insert
                key = next(fresh)
                service.insert(key, f"i{step}")
                single.insert(key, f"i{step}")
                live.append(key)
            elif op == 1 and live:  # delete
                key = live.pop(int(rng.integers(len(live))))
                service.delete(key)
                single.delete(key)
            elif op == 2 and live:  # update
                key = live[int(rng.integers(len(live)))]
                service.update(key, f"u{step}")
                single.update(key, f"u{step}")
            elif op == 3:  # upsert (sometimes new, sometimes live)
                if rng.random() < 0.5 and live:
                    key = live[int(rng.integers(len(live)))]
                else:
                    key = next(fresh)
                    live.append(key)
                service.upsert(key, f"s{step}")
                single.upsert(key, f"s{step}")
            elif op == 4:  # point reads (hit or miss)
                key = (live[int(rng.integers(len(live)))]
                       if rng.random() < 0.7 and live
                       else float(rng.uniform(0, keys.max())))
                assert service.get(key, "MISS") == single.get(key, "MISS")
                assert service.contains(key) == single.contains(key)
            elif op == 5 and live:  # range query
                lo = live[int(rng.integers(len(live)))]
                assert (service.range_query(lo, lo * 1.2)
                        == single.range_query(lo, lo * 1.2))
            elif op == 6 and live:  # range scan
                start = live[int(rng.integers(len(live)))]
                assert (service.range_scan(start, 40)
                        == single.range_scan(start, 40))
            else:  # small batch read
                probes = rng.uniform(0, keys.max() * 1.2, 25)
                assert (service.get_many(probes, None)
                        == single.get_many(probes, None))
        assert len(service) == len(single)
        assert list(service.items()) == list(single.items())
        service.validate()
        service.close()

    def test_shard_count_invariance(self):
        """The same op stream produces bit-identical observations at every
        shard count and on either execution backend."""
        cases = [(n, "thread") for n in SHARD_COUNTS] + [(3, "process")]
        observations = {}
        for case in cases:
            num_shards, backend = case
            rng = np.random.default_rng(99)
            service, _, keys = build_pair(rng, n=1500,
                                          num_shards=num_shards,
                                          backend=backend)
            trace = []
            new = np.setdiff1d(np.unique(rng.uniform(0, keys.max(), 900)),
                               keys)[:500]
            service.insert_many(new)
            trace.append(service.get_many(probe_mix(keys, rng, 300), "-"))
            trace.append(service.contains_many(
                probe_mix(keys, rng, 300)).tolist())
            los = rng.uniform(keys.min(), keys.max(), 30)
            trace.append(service.range_query_many(los, los * 1.1))
            trace.append(list(service.items()))
            observations[case] = trace
            service.close()
        baseline = observations[cases[0]]
        for case in cases[1:]:
            assert observations[case] == baseline


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestBatchDeletes:
    def test_delete_many_matches_single_index(self, backend):
        rng = np.random.default_rng(21)
        service, single, keys = build_pair(rng, backend=backend)
        victims = rng.permutation(keys)[:1500]
        service.delete_many(victims)
        single.delete_many(victims)
        assert list(service.items()) == list(single.items())
        assert len(service) == len(single) == len(keys) - 1500
        service.validate()
        service.close()

    def test_delete_many_all_or_nothing_across_shards(self, backend):
        rng = np.random.default_rng(22)
        service, _, keys = build_pair(rng, backend=backend)
        bogus = np.append(rng.permutation(keys)[:50], [-1.0])
        with pytest.raises(KeyNotFoundError):
            service.delete_many(bogus)
        assert len(service) == len(keys)  # no shard mutated
        service.close()

    def test_erase_many_returns_removed_count(self, backend):
        rng = np.random.default_rng(23)
        service, _, keys = build_pair(rng, backend=backend)
        victims = rng.permutation(keys)[:200]
        removed = service.erase_many(np.append(victims, [-1.0, -2.0]))
        assert removed == 200
        assert len(service) == len(keys) - 200
        assert service.erase_many(victims) == 0  # already gone
        service.close()


class TestRebalance:
    def _hot_service(self, rng, num_shards=4):
        service, _, keys = build_pair(rng, n=4000, num_shards=num_shards)
        sorted_keys = np.sort(keys)
        hotspot = HotspotGenerator(len(keys), hot_fraction=0.15,
                                   hot_access_fraction=0.9, seed=5)
        for _ in range(10):
            service.lookup_many(sorted_keys[hotspot.sample(400)])
        return service, keys

    def test_hotspot_traffic_concentrates_and_splits(self):
        service, keys = self._hot_service(np.random.default_rng(41))
        before_items = list(service.items())
        before_accesses = sum(stats.accesses for stats in service.stats)
        hot, fraction = service.hottest_shard()
        assert fraction > 0.5  # 90% of accesses hit 15% of the key space
        hot_accesses = service.stats[hot].accesses
        split = service.rebalance(hot_access_fraction=0.5, min_accesses=1000)
        assert split == hot
        assert service.num_shards == 5
        assert list(service.items()) == before_items
        # The observation window decays instead of being wiped (or carried
        # raw): the victim's tallies divide between its halves, then every
        # shard's window shrinks by the decay factor.
        after_accesses = sum(stats.accesses for stats in service.stats)
        assert 0 < after_accesses <= before_accesses // 2 + len(service.stats)
        halves = (service.stats[hot].accesses
                  + service.stats[hot + 1].accesses)
        assert abs(halves - hot_accesses // 2) <= 2
        service.validate()

    def test_split_divides_stats_between_halves(self):
        service, keys = self._hot_service(np.random.default_rng(44))
        hot, _ = service.hottest_shard()
        tallies = service.stats[hot]
        reads, accesses = tallies.reads, tallies.accesses
        others = [s.accesses for i, s in enumerate(service.stats)
                  if i != hot]
        assert service.split_shard(hot)
        left, right = service.stats[hot], service.stats[hot + 1]
        assert left.reads + right.reads == reads
        assert left.accesses + right.accesses == accesses
        # A direct split_shard renormalizes nothing else: the other
        # windows are untouched and the fleet-wide total is preserved.
        assert [s.accesses for i, s in enumerate(service.stats)
                if i not in (hot, hot + 1)] == others

    def test_merge_shards_is_split_inverse(self):
        service, keys = self._hot_service(np.random.default_rng(45))
        before_items = list(service.items())
        total_accesses = sum(stats.accesses for stats in service.stats)
        service.merge_shards(1)
        assert service.num_shards == 3
        assert list(service.items()) == before_items
        assert sum(stats.accesses for stats in service.stats) == total_accesses
        service.validate()
        with pytest.raises(IndexError):
            service.merge_shards(service.num_shards - 1)

    def test_rebalance_noop_below_thresholds(self):
        service, keys = self._hot_service(np.random.default_rng(42))
        assert service.rebalance(min_accesses=10 ** 9) is None
        assert service.rebalance(hot_access_fraction=1.01) is None
        assert service.num_shards == 4

    def test_split_shard_too_small(self):
        service = ShardedAlexIndex.bulk_load(np.array([5.0]), num_shards=1)
        assert not service.split_shard(0)
        with pytest.raises(IndexError):
            service.split_shard(3)

    def test_shard_stats_shape(self):
        service, keys = self._hot_service(np.random.default_rng(43))
        rows = service.shard_stats()
        assert [row["shard"] for row in rows] == list(range(4))
        assert sum(row["num_keys"] for row in rows) == len(service)
        assert sum(row["reads"] for row in rows) == 4000
        assert rows[0]["key_lo"] == -np.inf
        assert rows[-1]["key_hi"] == np.inf


class TestConcurrency:
    def test_parallel_writers_and_readers(self):
        rng = np.random.default_rng(77)
        keys = np.unique(rng.uniform(0, 1e9, 6000))[:5000]
        service = ShardedAlexIndex.bulk_load(keys, num_shards=4,
                                             config=ga_armi())
        lanes = np.setdiff1d(np.unique(rng.uniform(0, 1e9, 5000)),
                             keys)[:3200].reshape(4, 800)
        errors = []

        def writer(lane):
            try:
                for chunk in np.split(lanes[lane], 8):
                    service.insert_many(chunk)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(20):
                    probes = rng.choice(keys, 200)
                    assert all(p is None
                               for p in service.get_many(probes, None))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(lane,))
                    for lane in range(4)]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()
        assert not errors
        assert len(service) == 5000 + 3200
        expected = np.sort(np.concatenate([keys, lanes.ravel()]))
        assert np.array_equal(np.fromiter(service.keys(), dtype=np.float64),
                              expected)
        service.validate()


class TestThreadBackendInline:
    """The thread backend runs every shard call on the caller's thread
    and keeps the scatter contract: all calls run before an error
    propagates."""

    @staticmethod
    def _spy(monkeypatch, service, raise_on=None):
        """Record ``(shard, thread id)`` for every shard op; the op on
        shard ``raise_on`` raises after it is recorded."""
        from repro.serve import backend as backend_mod

        real, seen = backend_mod.run_shard_op, []

        def spy(index, method, *args):
            shard = next(s for s, shard_index in enumerate(service.shards)
                         if shard_index is index)
            seen.append((shard, threading.get_ident()))
            if shard == raise_on:
                raise RuntimeError(f"shard {shard} failed")
            return real(index, method, *args)

        monkeypatch.setattr(backend_mod, "run_shard_op", spy)
        return seen

    def test_failing_first_call_still_runs_the_rest(self, monkeypatch):
        keys = np.arange(300, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(keys, num_shards=3)
        seen = self._spy(monkeypatch, service, raise_on=0)
        jobs = [(s, "contains_many", 100 * s, 100 * s + 100, ())
                for s in range(3)]
        with pytest.raises(RuntimeError, match="shard 0 failed"):
            service.backend.scatter_batch(keys, jobs)
        assert [shard for shard, _ in seen] == [0, 1, 2]
        service.close()

    def test_shard_ops_run_on_the_caller_thread(self, monkeypatch):
        keys = np.arange(0, 4000, 2, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(keys, num_shards=4)
        seen = self._spy(monkeypatch, service)
        service.get_many(keys[::7])
        service.contains_many(keys[::5])
        service.range_query_many(keys[:-1:400], keys[1::400])
        service.insert_many(keys[::9] + 1)
        service.close()
        assert {shard for shard, _ in seen} == set(range(4))
        assert {ident for _, ident in seen} == {threading.get_ident()}
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("alex-shard")]


class TestWorkloadIntegration:
    def test_run_workload_on_sharded_index(self):
        from repro.workloads import READ_HEAVY
        from repro.workloads.runner import run_workload

        rng = np.random.default_rng(4242)
        keys = np.unique(rng.uniform(0, 1e8, 3000))
        init, inserts = keys[:2500], keys[2500:]

        tallies = {}
        for num_shards, backend in ((1, "thread"), (4, "thread"),
                                    (4, "process")):
            service = ShardedAlexIndex.bulk_load(
                init, num_shards=num_shards, config=ga_armi(),
                backend=backend)
            result = run_workload(service, init.copy(), inserts.copy(),
                                  READ_HEAVY, 900, seed=3,
                                  read_batch=32, write_batch=32)
            service.validate()
            service.close()
            tallies[num_shards, backend] = result
        base = tallies[1, "thread"]
        for other in ((4, "thread"), (4, "process")):
            assert tallies[other].ops == base.ops
            assert tallies[other].reads == base.reads
            assert tallies[other].inserts == base.inserts
            assert tallies[other].scanned_records == base.scanned_records


class TestProcessBackend:
    """Process-backend specifics: worker lifecycle, shard SMO
    re-provisioning, counter continuity, and parent-side concurrency."""

    def test_rebalance_splits_and_reprovisions_workers(self):
        rng = np.random.default_rng(51)
        service, _, keys = build_pair(rng, n=2500, num_shards=3,
                                      backend="process")
        with service:
            sorted_keys = np.sort(keys)
            hotspot = HotspotGenerator(len(keys), hot_fraction=0.15,
                                       hot_access_fraction=0.9, seed=5)
            for _ in range(8):
                service.lookup_many(sorted_keys[hotspot.sample(400)])
            before_items = list(service.items())
            hot, fraction = service.hottest_shard()
            assert fraction > 0.5
            split = service.rebalance(hot_access_fraction=0.5,
                                      min_accesses=1000)
            assert split == hot
            assert service.num_shards == 4
            assert list(service.items()) == before_items
            service.validate()
            # The inverse SMO re-provisions again and restores the layout.
            service.merge_shards(split)
            assert service.num_shards == 3
            assert list(service.items()) == before_items
            service.validate()

    def test_counters_survive_reprovisioning(self):
        rng = np.random.default_rng(52)
        service, _, keys = build_pair(rng, n=1500, num_shards=2,
                                      backend="process")
        with service:
            service.lookup_many(rng.choice(keys, 300, replace=True))
            before = service.counters
            assert before.lookups == 300
            assert service.split_shard(0)
            # A diff spanning the SMO must never go negative: the victim's
            # history moved into its left half.
            after = service.counters
            delta = after.diff(before)
            assert delta.lookups == 0
            assert after.lookups == 300

    def test_worker_exceptions_carry_key(self):
        rng = np.random.default_rng(53)
        service, _, keys = build_pair(rng, n=800, num_shards=2,
                                      backend="process")
        with service:
            with pytest.raises(KeyNotFoundError) as info:
                service.lookup(-123.5)
            assert info.value.key == -123.5
            dup = float(keys[10])
            with pytest.raises(DuplicateKeyError) as info:
                service.insert(dup, "again")
            assert info.value.key == dup

    def test_configured_policy_reaches_workers(self):
        from repro.core.policy import CostModelPolicy
        rng = np.random.default_rng(57)
        policy = CostModelPolicy(drift_factor=4.5, cold_factor=0.8)
        keys = skewed_keys(rng, 600)
        service = ShardedAlexIndex.bulk_load(
            keys, num_shards=2, config=ga_armi(max_keys_per_node=256),
            policy=policy, backend="process")
        with service:
            # The worker's policy copy must carry the facade's knobs, not
            # class defaults (the parent-side template is pickled whole).
            remote = service.backend.call(
                0, "policy_config")
            assert remote == {"type": "CostModelPolicy",
                              "drift_factor": 4.5, "cold_factor": 0.8}

    def test_unpicklable_payload_keeps_service_consistent(self):
        rng = np.random.default_rng(58)
        service, _, keys = build_pair(rng, n=800, num_shards=2,
                                      backend="process")
        with service:
            before = len(service)
            mids = (keys[:-1] + keys[1:]) / 2
            split = int(np.searchsorted(mids, service.router.boundaries[0]))
            # Two fresh keys on each side of the shard boundary, with the
            # payload that cannot cross the process boundary on the
            # second shard's side: the whole batch must fail up front —
            # no frame is sent before every frame pickles, so the first
            # shard applies nothing either — and the RPC protocol stays
            # in sync for every later operation.
            fresh = np.concatenate([mids[split - 9:split - 7],
                                    mids[split + 7:split + 9]])
            with pytest.raises(Exception):
                service.insert_many(fresh, ["ok", "ok", lambda: None, "ok"])
            assert len(service) == before  # all-or-nothing held
            assert service.contains_many(fresh).tolist() == [False] * 4
            service.insert_many(fresh, ["ok"] * 4)
            assert service.get_many(fresh) == ["ok"] * 4
            service.validate()

    def test_shards_property_unavailable(self):
        rng = np.random.default_rng(54)
        service, _, _ = build_pair(rng, n=600, num_shards=2,
                                   backend="process")
        with service:
            with pytest.raises(NotImplementedError):
                service.shards
            assert service.backend.name == "process"

    def test_close_is_idempotent_and_workers_exit(self):
        rng = np.random.default_rng(55)
        service, _, keys = build_pair(rng, n=600, num_shards=2,
                                      backend="process")
        workers = [w.process for w in service.backend._workers]
        assert all(p.is_alive() for p in workers)
        service.close()
        service.close()
        assert all(not p.is_alive() for p in workers)

    def test_parallel_writers_and_readers_through_pipes(self):
        rng = np.random.default_rng(56)
        keys = np.unique(rng.uniform(0, 1e9, 3500))[:3000]
        service = ShardedAlexIndex.bulk_load(keys, num_shards=3,
                                             config=ga_armi(),
                                             backend="process")
        lanes = np.setdiff1d(np.unique(rng.uniform(0, 1e9, 3000)),
                             keys)[:1200].reshape(3, 400)
        errors = []

        def writer(lane):
            try:
                for chunk in np.split(lanes[lane], 4):
                    service.insert_many(chunk)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(10):
                    probes = rng.choice(keys, 150)
                    assert all(p is None
                               for p in service.get_many(probes, None))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(lane,))
                    for lane in range(3)]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(service) == 3000 + 1200
        expected = np.sort(np.concatenate([keys, lanes.ravel()]))
        assert np.array_equal(np.fromiter(service.keys(), dtype=np.float64),
                              expected)
        service.validate()
        service.close()
