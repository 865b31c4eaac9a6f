"""Tests for the coalescing async serving front door.

Correctness of the coalesced read API against a real sharded service
(both backends), the miss-sentinel's cross-process identity, admission
control (against a controllable fake
service), lifecycle draining, and the synchronous ``IngressRunner``
mirrors — plus the obs surface ``repro top`` renders.
"""

import pickle
import time
import zlib

import numpy as np
import pytest

from repro import obs
from repro.core.config import ga_armi
from repro.core.errors import KeyNotFoundError
from repro.serve import (MISSING, AsyncIngress, IngressRunner,
                         ServiceOverloadedError, ShardedAlexIndex)
from repro.serve.backend import _MissingType


def _seed(parts) -> int:
    return zlib.crc32(repr(parts).encode())


def _build(backend="thread", n=1500, num_shards=2):
    rng = np.random.default_rng(_seed(("ingress", backend, n)))
    keys = np.unique(rng.lognormal(0, 2, n + 200) * 1e6)[:n]
    payloads = [float(k) * 2.0 for k in keys]
    service = ShardedAlexIndex.bulk_load(
        keys, payloads, num_shards=num_shards,
        config=ga_armi(max_keys_per_node=256), backend=backend)
    return service, keys, dict(zip(keys.tolist(), payloads))


class FakeService:
    """A stand-in downstream with a controllable service time, for
    admission-control tests that must not depend on index speed."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.batches = []

    def get_many(self, keys, default=None, *, options=None):
        time.sleep(self.delay)
        self.batches.append(np.asarray(keys))
        return [float(k) * 2.0 for k in keys]

    def contains_many(self, keys, *, options=None):
        time.sleep(self.delay)
        self.batches.append(np.asarray(keys))
        return np.ones(len(keys), dtype=bool)

    def insert_many(self, keys, payloads=None):
        time.sleep(self.delay)
        self.batches.append(np.asarray(keys))


@pytest.fixture
def obs_on():
    was = obs.enabled()
    obs.set_enabled(True)
    yield
    obs.set_enabled(was)


class TestCoalescedReads:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_concurrent_requests_coalesce_and_stay_correct(
            self, backend, obs_on):
        """A burst of concurrent scalar and batch reads through the
        runner returns exactly the facade's answers, and the lane
        actually coalesced them (fewer facade batches than requests)."""
        service, keys, expected = _build(backend)
        before = dict(obs.snapshot().get("counters", {}))
        with IngressRunner(service, window_s=0.02) as runner:
            rng = np.random.default_rng(_seed(("burst", backend)))
            probe = rng.choice(keys, size=48)
            futures = [runner.asubmit(runner.ingress.get(float(k)))
                       for k in probe]
            futures.append(runner.asubmit(
                runner.ingress.get_many(keys[:100])))
            futures.append(runner.asubmit(
                runner.ingress.contains_many(probe)))
            results = [f.result(timeout=30) for f in futures]
        service.close()

        scalars, batch, membership = \
            results[:-2], results[-2], results[-1]
        assert scalars == [expected[float(k)] for k in probe]
        assert batch == [expected[float(k)] for k in keys[:100]]
        assert membership == [True] * len(probe)
        after = dict(obs.snapshot().get("counters", {}))
        batches = after.get("ingress.batches", 0) \
            - before.get("ingress.batches", 0)
        assert 1 <= batches < len(futures)

    def test_miss_semantics(self):
        """``get`` substitutes per-request defaults, ``lookup`` raises,
        ``contains`` answers honestly — all through one coalesced lane
        (the facade call itself uses the MISSING sentinel)."""
        service, keys, expected = _build()
        absent = float(keys.max()) + 12345.0
        with IngressRunner(service, window_s=0.01) as runner:
            hit, miss_none, miss_dflt, strict, there, not_there = [
                f.result(timeout=30) for f in [
                    runner.asubmit(runner.ingress.get(float(keys[0]))),
                    runner.asubmit(runner.ingress.get(absent)),
                    runner.asubmit(runner.ingress.get(absent,
                                                      default="fallback")),
                    runner.asubmit(runner.ingress.lookup(float(keys[1]))),
                    runner.asubmit(runner.ingress.contains(float(keys[2]))),
                    runner.asubmit(runner.ingress.contains(absent)),
                ]]
            assert hit == expected[float(keys[0])]
            assert miss_none is None
            assert miss_dflt == "fallback"
            assert strict == expected[float(keys[1])]
            assert there is True and not_there is False
            with pytest.raises(KeyNotFoundError):
                runner.lookup(absent)
            with pytest.raises(KeyNotFoundError):
                runner.lookup_many([float(keys[0]), absent])
        service.close()

    def test_writes_pass_through(self):
        """Writes ride the admission budget but are never coalesced with
        other requests; they land on the service and are then readable
        through the coalesced lanes."""
        service, keys, expected = _build()
        hi = float(keys.max())
        fresh = hi + 1.0 + np.arange(16, dtype=np.float64)
        with IngressRunner(service, window_s=0.005) as runner:
            runner.insert_many(fresh, [float(k) for k in fresh])
            runner.insert(hi + 500.0, "scalar")
            assert runner.get_many(fresh) == [float(k) for k in fresh]
            assert runner.get(hi + 500.0) == "scalar"
            assert runner.erase_many(fresh) == len(fresh)
            assert runner.contains_many(fresh) == [False] * len(fresh)
        service.close()

    def test_missing_sentinel_pickles_to_the_singleton(self):
        """The miss sentinel crosses process boundaries (worker replies)
        by identity, so ``value is MISSING`` works on both sides."""
        assert pickle.loads(pickle.dumps(MISSING)) is MISSING
        assert pickle.loads(pickle.dumps([MISSING, 1.0]))[0] is MISSING
        assert isinstance(MISSING, _MissingType)


class TestAdmissionControl:
    def test_shed_policy_fails_fast(self, obs_on):
        """Arrivals beyond ``max_queue`` shed with
        :class:`ServiceOverloadedError` while admitted work completes."""
        fake = FakeService(delay=0.2)
        before = dict(obs.snapshot().get("counters", {}))
        with IngressRunner(fake, window_s=0.0, max_queue=8) as runner:
            admitted = runner.asubmit(
                runner.ingress.get_many(np.arange(8.0)))
            time.sleep(0.05)  # let the first request admit and flush
            with pytest.raises(ServiceOverloadedError):
                runner.get_many(np.arange(4.0))
            assert admitted.result(timeout=30) == \
                [float(k) * 2.0 for k in range(8)]
        after = dict(obs.snapshot().get("counters", {}))
        assert after.get("ingress.shed", 0) > before.get("ingress.shed", 0)

    def test_oversized_request_sheds_even_when_idle(self):
        fake = FakeService()
        with IngressRunner(fake, window_s=0.0, max_queue=4) as runner:
            with pytest.raises(ServiceOverloadedError):
                runner.get_many(np.arange(5.0))


class TestLifecycle:
    def test_aclose_drains_and_rejects_new_work(self):
        """``aclose`` flushes parked lanes, waits for in-flight keys,
        then refuses admissions."""
        import asyncio

        fake = FakeService(delay=0.05)

        async def scenario():
            ingress = AsyncIngress(fake, window_s=5.0)  # window never fires
            parked = asyncio.ensure_future(ingress.get(1.0))
            await asyncio.sleep(0.02)
            await ingress.aclose()  # must flush the parked request
            assert await parked == 2.0
            assert ingress.outstanding == 0
            with pytest.raises(RuntimeError, match="closed"):
                await ingress.get(2.0)

        asyncio.run(scenario())

    def test_runner_close_is_idempotent(self):
        fake = FakeService()
        runner = IngressRunner(fake, window_s=0.0)
        assert runner.get(3.0) == 6.0
        runner.close()
        runner.close()

    def test_runner_rejects_unknown_attributes(self):
        fake = FakeService()
        with IngressRunner(fake) as runner:
            with pytest.raises(AttributeError):
                runner.not_a_method
            with pytest.raises(AttributeError):
                runner.outstanding  # property, not a coroutine method

    def test_one_ingress_per_loop(self):
        import asyncio

        fake = FakeService()
        ingress = AsyncIngress(fake, window_s=0.0)

        async def first():
            await ingress.get(1.0)

        async def second():
            with pytest.raises(RuntimeError, match="another event loop"):
                await ingress.get(2.0)

        asyncio.run(first())
        asyncio.run(second())


class TestObservability:
    def test_front_door_metrics_surface(self, obs_on):
        """The histograms and gauges the dashboard's front-door panel
        reads all exist after traffic, and the in-flight gauge settles
        back to zero."""
        service, keys, _ = _build(n=800)
        with IngressRunner(service, window_s=0.005) as runner:
            for _ in range(3):
                runner.get_many(keys[:64])
        service.close()
        snap = obs.snapshot()
        for name in ("ingress.coalesce_wait", "ingress.rpc",
                     "ingress.request", "ingress.batch_size"):
            assert snap["histograms"].get(name, {}).get("count", 0) > 0, name
        assert snap["counters"].get("ingress.requests", 0) >= 3 * 64
        assert snap["counters"].get("ingress.batches", 0) >= 3
        assert snap["gauges"].get("ingress.in_flight") == 0
