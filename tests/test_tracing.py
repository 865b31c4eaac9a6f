"""Request-scoped distributed tracing: contexts, sampling, the flight
recorder, histogram exemplars, cross-process assembly, ingress fan-in
links, and the failover acceptance path — one trace id, pulled off a
histogram exemplar, naming a causal tree that spans ingress, facade,
worker RPC, replica promotion, and the WAL across processes: the
``repro.obs.trace`` module.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.core.alex import AlexIndex
from repro.obs import trace
from repro.serve import IngressRunner, ShardedAlexIndex


@pytest.fixture
def obs_on(monkeypatch):
    """Observability on, clean registry and recorder, trace knobs at
    their defaults — restored afterwards (the suite may run under
    REPRO_OBS=off; process workers read the parent's environment at
    launch)."""
    was = obs.enabled()
    monkeypatch.setenv(obs.ENV_VAR, "on")
    obs.set_enabled(True)
    obs.reset()
    trace.set_sample_rate(1.0)
    trace.set_slow_threshold_ms(5.0)
    yield
    obs.reset()
    trace.set_sample_rate(1.0)
    trace.set_slow_threshold_ms(5.0)
    obs.set_enabled(was)


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------


class TestContext:
    def test_attach_accepts_context_wire_and_none(self):
        ctx = trace.TraceContext("a" * 16, "b" * 16)
        assert trace.current() is None
        with trace.attach(ctx) as installed:
            assert installed is ctx
            assert trace.current() is ctx
            assert trace.wire() == ("a" * 16, "b" * 16)
            # Nesting a wire tuple swaps the ambient context...
            with trace.attach(("c" * 16, "d" * 16)):
                assert trace.current().trace_id == "c" * 16
            # ...and ``None`` is a no-op, not a detach.
            with trace.attach(None):
                assert trace.current() is ctx
        assert trace.current() is None and trace.wire() is None


# ---------------------------------------------------------------------------
# Sampling and the kill switch
# ---------------------------------------------------------------------------


class TestSampling:
    def test_zero_rate_declines_roots_but_keeps_histograms(self, obs_on):
        trace.set_sample_rate(0.0)
        assert trace.start("t.root") is None
        span = trace.span("t.span", root=True)
        # Degrades to exactly the pre-tracing behavior: a plain
        # histogram span, nothing in the recorder, no exemplar.
        assert not isinstance(span, trace.TracedSpan)
        with span:
            pass
        hist = obs.get_registry().histogram("t.span").snapshot()
        assert hist["count"] == 1 and "exemplars" not in hist
        assert trace.snapshot() == {"spans": [], "slow": []}

    def test_force_bypasses_sampling(self, obs_on):
        trace.set_sample_rate(0.0)
        root = trace.start("t.batch", force=True, record=False)
        assert isinstance(root, trace.TracedSpan)
        root.finish()
        snap = trace.snapshot()
        assert [rec["name"] for rec in snap["spans"]] == ["t.batch"]
        # record=False keeps the span out of the histogram table.
        assert obs.get_registry().histogram("t.batch").snapshot()[
            "count"] == 0

    def test_children_inherit_the_trace(self, obs_on):
        with trace.start("t.root", keys=3) as root:
            with trace.span("t.child") as child:
                assert isinstance(child, trace.TracedSpan)
                assert child.ctx.trace_id == root.ctx.trace_id
                assert child.parent == root.ctx.span_id
        recs = {rec["name"]: rec for rec in trace.snapshot()["spans"]}
        assert recs["t.root"]["parent"] is None
        assert recs["t.root"]["keys"] == 3
        assert recs["t.child"]["parent"] == recs["t.root"]["span"]
        assert recs["t.child"]["trace"] == recs["t.root"]["trace"]
        assert recs["t.child"]["pid"] == os.getpid()

    def test_disabled_layer_is_the_shared_noop(self, obs_on):
        obs.set_enabled(False)
        assert trace.start("t.x") is None
        assert trace.span("t.x") is trace.NOOP_SPAN
        assert trace.span("t.x", root=True) is trace.NOOP_SPAN

        @trace.traced("t.fn", root=True)
        def fn():
            return 41

        assert fn() == 41
        assert trace.snapshot() == {"spans": [], "slow": []}

    def test_core_batch_ops_never_root_a_trace(self, obs_on):
        """An embedded index's batch methods time into their histogram
        but start no trace, whatever the sample rate."""
        index = AlexIndex.bulk_load(np.arange(100, dtype=np.float64))
        index.get_many(np.arange(10, dtype=np.float64))
        assert obs.get_registry().histogram("core.get_many").count == 1
        assert trace.snapshot() == {"spans": [], "slow": []}

    def test_error_spans_stamp_the_exception_name(self, obs_on):
        with pytest.raises(ValueError):
            with trace.start("t.err"):
                raise ValueError("boom")
        (rec,) = trace.snapshot()["spans"]
        assert rec["error"] == "ValueError"


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = trace.FlightRecorder(buffer=4, slow_keep=2)
        for i in range(10):
            rec.commit({"trace": "t", "span": str(i), "parent": None,
                        "name": "n", "start": i, "dur": 0, "pid": 1})
        spans = rec.snapshot()["spans"]
        assert [s["span"] for s in spans] == ["6", "7", "8", "9"]

    def test_slow_roots_are_harvested_and_survive_wrap(self, obs_on):
        trace.set_slow_threshold_ms(0.0)  # every root counts as slow
        with trace.start("t.slow") as root:
            with trace.span("t.slow.kid"):
                pass
        tid = root.ctx.trace_id
        # Wrap the main ring far past its capacity: the slow store must
        # still hold the full harvested trace.
        for _ in range(3000):
            trace.recorder().commit(
                {"trace": "zz", "span": trace._new_id(), "parent": None,
                 "name": "noise", "start": 0, "dur": 0, "pid": 1})
        snap = trace.snapshot()
        assert not any(s["trace"] == tid for s in snap["spans"])
        slow = trace.slow_traces(snap)
        assert slow and slow[0]["trace"] == tid
        assert {s["name"] for s in slow[0]["spans"]} == \
            {"t.slow", "t.slow.kid"}
        spans = trace.assemble(tid, snap)
        assert {s["name"] for s in spans} == {"t.slow", "t.slow.kid"}

    def test_drain_clears_and_absorb_refills(self, obs_on):
        with trace.start("t.d"):
            pass
        drained = trace.drain()
        assert [s["name"] for s in drained["spans"]] == ["t.d"]
        assert trace.snapshot() == {"spans": [], "slow": []}
        # What a worker ships over RPC, the facade folds back in.
        trace.absorb(drained)
        trace.absorb(None)  # dead-worker drains are skipped, not fatal
        assert [s["name"] for s in trace.snapshot()["spans"]] == ["t.d"]

    def test_assemble_follows_fanin_links_both_ways(self):
        def rec(tid, name, start, **extra):
            return {"trace": tid, "span": trace._new_id(),
                    "parent": None, "name": name, "start": start,
                    "dur": 1, "pid": 1, **extra}

        snap = {"spans": [
            rec("m1", "req1", 1, batch="bb"),
            rec("m2", "req2", 2, batch="bb"),
            rec("bb", "batch", 3, links=["m1", "m2"]),
            rec("other", "unrelated", 4),
        ], "slow": []}
        # From a member, through the batch, out to the other member —
        # and from the batch down to every member.  Never the stranger.
        for entry in ("m1", "m2", "bb"):
            names = [s["name"] for s in trace.assemble(entry, snap)]
            assert names == ["req1", "req2", "batch"]


# ---------------------------------------------------------------------------
# Histogram exemplars
# ---------------------------------------------------------------------------


class TestExemplars:
    def test_traced_span_stamps_a_retrievable_exemplar(self, obs_on):
        with trace.start("t.ex") as root:
            time.sleep(0.001)
        snap = obs.get_registry().histogram("t.ex").snapshot()
        exemplar = obs.exemplar_for_percentile(snap, 99)
        assert exemplar is not None
        assert exemplar["trace"] == root.ctx.trace_id
        assert exemplar["value"] > 0
        # The exemplar names a trace the recorder can still produce.
        assert trace.assemble(exemplar["trace"], trace.snapshot())


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


def _spanning(service, trace_id):
    """Assemble a trace from the service-wide recorder view."""
    return trace.assemble(trace_id, service.trace_snapshot())


class TestServiceTracing:
    def test_facade_call_roots_a_trace(self, obs_on):
        keys = np.arange(500, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(keys, num_shards=2)
        try:
            service.lookup_many(keys[:64])
            hist = obs.get_registry().histogram(
                "serve.lookup_many").snapshot()
            exemplar = obs.exemplar_for_percentile(hist, 99)
            assert exemplar is not None
            spans = _spanning(service, exemplar["trace"])
            names = {s["name"] for s in spans}
            assert "serve.lookup_many" in names
        finally:
            service.close()

    def test_thread_backend_shard_spans_join_the_tree(self, obs_on):
        keys = np.arange(800, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(keys, num_shards=4)
        try:
            with trace.start("test.root") as root:
                service.get_many(keys)
            spans = _spanning(service, root.ctx.trace_id)
        finally:
            service.close()
        ops = [s for s in spans if s["name"] == "shard.op.get_many"]
        assert len(ops) == 4
        ids = {s["span"] for s in spans}
        for s in ops:
            assert s["trace"] == root.ctx.trace_id
            assert s["parent"] in ids

    def test_trace_crosses_the_process_boundary(self, obs_on):
        keys = np.arange(800, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(keys, num_shards=2,
                                             backend="process")
        try:
            with trace.start("test.root") as root:
                service.insert(5000.5, "v")
            spans = _spanning(service, root.ctx.trace_id)
            names = {s["name"] for s in spans}
            assert {"test.root", "serve.insert"} <= names
            assert any(n.startswith("rpc.") for n in names)
            assert any(n.startswith("shard.op.") for n in names)
            pids = {s["pid"] for s in spans}
            assert os.getpid() in pids and len(pids) >= 2
            # One coherent tree: every span carries the root's trace id
            # and every parent pointer resolves within it.
            ids = {s["span"] for s in spans}
            for s in spans:
                assert s["trace"] == root.ctx.trace_id
                assert s["parent"] is None or s["parent"] in ids
        finally:
            service.close()

    def test_core_batch_op_is_a_child_of_the_shard_op(self, obs_on):
        """A traced ``get_many`` reaches the worker's index: its
        ``core.get_many`` span hangs under the ``shard.op.get_many``
        span that ran it, in that worker's process."""
        keys = np.arange(800, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(keys, num_shards=1,
                                             backend="process")
        try:
            with trace.start("test.root") as root:
                service.get_many(keys[:64])
            spans = _spanning(service, root.ctx.trace_id)
        finally:
            service.close()
        by_name = {s["name"]: s for s in spans}
        core, op = by_name["core.get_many"], by_name["shard.op.get_many"]
        assert core["parent"] == op["span"]
        assert core["pid"] == op["pid"] != os.getpid()

    def test_worker_spans_carry_their_own_pid(self, obs_on):
        """Workers fork from one preloaded server: every span a worker
        records names that worker's pid, not the server's, and no two
        workers mint the same span id."""
        keys = np.arange(4000, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(keys, num_shards=2,
                                             backend="process")
        try:
            for i in range(20):
                with trace.start("test.root"):
                    service.lookup_many(keys[i::50])
            pids = service.backend.worker_pids()
            drains = service.backend.trace_snapshots()
        finally:
            service.close()
        assert len(set(pids)) == 2
        span_ids = []
        for pid, drain in zip(pids, drains):
            spans = drain["spans"]
            assert spans
            assert {s["pid"] for s in spans} == {pid}
            span_ids.append({s["span"] for s in spans})
        assert not span_ids[0] & span_ids[1]

    def test_wal_and_replica_read_spans_join_the_trace(
            self, obs_on, tmp_path):
        keys = np.arange(1000, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(
            keys, num_shards=1, backend="process",
            durability_dir=str(tmp_path / "dur"), fsync="batch",
            replicate=True)
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status = service.backend.replica_status(0)
                if status and status["num_keys"] == len(keys):
                    break
                time.sleep(0.01)
            with trace.start("test.wal") as root:
                service.insert_many(
                    5000.0 + np.arange(32, dtype=np.float64))
            with trace.start("test.rread") as rroot:
                service.lookup(keys[3], options="replica_ok")
            snap = service.trace_snapshot()
            wal_names = {s["name"]
                         for s in trace.assemble(root.ctx.trace_id, snap)}
            assert {"test.wal", "serve.insert_many",
                    "wal.append"} <= wal_names
            read_names = {s["name"] for s in
                          trace.assemble(rroot.ctx.trace_id, snap)}
            assert {"test.rread", "serve.lookup",
                    "serve.replica_read", "replica.read"} <= read_names
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Ingress fan-in
# ---------------------------------------------------------------------------


class TestIngressTracing:
    def test_request_batch_and_facade_spans_link_up(self, obs_on):
        keys = np.arange(600, dtype=np.float64)
        payloads = [float(k) * 2 for k in keys]
        service = ShardedAlexIndex.bulk_load(keys, payloads,
                                             num_shards=2)
        try:
            with IngressRunner(service) as runner:
                assert runner.get(4.0) == 8.0
            hist = obs.get_registry().histogram(
                "ingress.request").snapshot()
            exemplar = obs.exemplar_for_percentile(hist, 99)
            assert exemplar is not None
            spans = _spanning(service, exemplar["trace"])
            by_name = {}
            for s in spans:
                by_name.setdefault(s["name"], []).append(s)
            # The request root carries its coalesced batch's trace id;
            # the batch span links back; the facade call rides under
            # the batch trace — one assembled tree covers all three.
            assert set(by_name) >= {"ingress.request", "ingress.batch",
                                    "serve.get_many"}
            (request,) = by_name["ingress.request"]
            (batch,) = by_name["ingress.batch"]
            assert request["batch"] == batch["trace"]
            assert request["trace"] in batch["links"]
            assert by_name["serve.get_many"][0]["trace"] == \
                batch["trace"]
        finally:
            service.close()


# ---------------------------------------------------------------------------
# The acceptance path: failover under a traced write
# ---------------------------------------------------------------------------


class TestFailoverTrace:
    def test_failover_causal_tree_from_exemplar(self, obs_on, tmp_path):
        """SIGKILL a primary, write through the ingress into the dead
        shard, then retrieve — by trace id taken from a histogram
        exemplar — a single causal tree spanning ingress → facade →
        worker RPC → replica promotion → WAL across ≥2 processes."""
        keys = np.arange(3000, dtype=np.float64)
        service = ShardedAlexIndex.bulk_load(
            keys, num_shards=2, backend="process",
            durability_dir=str(tmp_path / "dur"), fsync="batch",
            checkpoint_every=1 << 30, replicate=True)
        try:
            base = service.metrics_snapshot()["merged"]["counters"]
            with IngressRunner(service) as runner:
                os.kill(service.backend.worker_pids()[1], signal.SIGKILL)
                time.sleep(0.2)
                # Shard 1's key range: the write must cross the dead
                # primary and come back acked via replica promotion.
                batch = 10_000.0 + np.arange(60, dtype=np.float64)
                runner.insert_many(batch)
                assert runner.contains(10_000.0)
            counters = service.metrics_snapshot()["merged"]["counters"]
            assert counters.get("serve.replica_promotions", 0) - \
                base.get("serve.replica_promotions", 0) >= 1

            # The promotion's trace id, straight off the p99 exemplar.
            hist = obs.get_registry().histogram(
                "serve.promote").snapshot()
            exemplar = obs.exemplar_for_percentile(hist, 99)
            assert exemplar is not None, "promotion left no exemplar"
            tid = exemplar["trace"]

            spans = trace.assemble(tid, service.trace_snapshot())
            names = {s["name"] for s in spans}
            assert {"ingress.request", "serve.insert_many",
                    "serve.promote", "wal.flush", "wal.append",
                    "replica.promote"} <= names, names
            assert any(n.startswith("rpc.") for n in names)
            assert any(n.startswith("shard.op.") for n in names)
            # One trace end to end (the passthrough write lane has no
            # fan-in batch, so no linked side-traces)...
            assert {s["trace"] for s in spans} == {tid}
            # ...rooted at the ingress request...
            roots = [s for s in spans if s["parent"] is None]
            assert [r["name"] for r in roots] == ["ingress.request"]
            assert roots[0]["family"] == "write"
            # ...and spanning the facade and the promoted replica's
            # process.
            pids = {s["pid"] for s in spans}
            assert os.getpid() in pids and len(pids) >= 2
            replica_pids = {s["pid"] for s in spans
                            if s["name"] == "replica.promote"}
            assert replica_pids and os.getpid() not in replica_pids
        finally:
            service.close()
