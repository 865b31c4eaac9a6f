"""The observability layer: histograms, merge algebra, kill switch,
instrumentation plumbing, and the stats/top CLI."""

import pickle
import random

import numpy as np
import pytest

from repro import obs
from repro.obs import render, trace
from repro.obs.metrics import empty_snapshot
from repro.serve import ShardedAlexIndex
from repro.serve.sharded import ShardStats


@pytest.fixture
def obs_on(monkeypatch):
    """Force the layer on with a clean registry, restoring the prior
    switch state (the suite may run under REPRO_OBS=off).  The env var
    is patched too: shard workers read the parent's environment at
    launch, so without it a process-backend test would get silent
    workers."""
    was = obs.enabled()
    monkeypatch.setenv(obs.ENV_VAR, "on")
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(was)


# ---------------------------------------------------------------------------
# Histogram correctness
# ---------------------------------------------------------------------------

ADVERSARIAL = {
    "uniform": lambda rng: rng.uniform(1, 1e9, 5000),
    "lognormal": lambda rng: rng.lognormal(10, 3, 5000),
    "constant": lambda rng: np.full(1000, 123456.0),
    # 99.9% tiny, one enormous outlier: the tail percentiles must jump
    # to the outlier's bucket exactly when np.percentile's do.
    "bimodal": lambda rng: np.concatenate([np.ones(999) * 50, [1e12]]),
    "tiny": lambda rng: rng.uniform(0, 4, 500),
    "single": lambda rng: np.array([7.0]),
    "two": lambda rng: np.array([10.0, 1e6]),
}


@pytest.mark.parametrize("shape", sorted(ADVERSARIAL))
def test_percentiles_within_one_bucket_of_exact(shape):
    """Every extracted percentile lands in (or next to) the bucket of
    the exact order statistic np.percentile(method='lower') selects."""
    data = ADVERSARIAL[shape](np.random.default_rng(3))
    hist = obs.LatencyHistogram()
    for value in data:
        hist.record(float(value))
    snap = hist.snapshot()
    assert snap["count"] == len(data)
    for q in obs.PERCENTILES:
        got = obs.percentile_from_snapshot(snap, q)
        exact = float(np.percentile(data, q, method="lower"))
        assert abs(obs.bucket_index(got) - obs.bucket_index(exact)) <= 1, (
            f"{shape} p{q}: got {got}, exact {exact}")


def test_percentile_relative_error_bound():
    """Away from the clamp floor, the reported value is within one
    relative bucket width (2**(1/8) - 1 ≈ 9%) of the exact statistic."""
    data = np.random.default_rng(5).lognormal(8, 2, 20000)
    hist = obs.LatencyHistogram()
    for value in data:
        hist.record(float(value))
    snap = hist.snapshot()
    width = 2 ** (1 / obs.SUB_BUCKETS)
    for q in obs.PERCENTILES:
        got = obs.percentile_from_snapshot(snap, q)
        exact = float(np.percentile(data, q, method="lower"))
        assert exact / width ** 2 <= got <= exact * width ** 2


def test_histogram_scalar_moments():
    hist = obs.LatencyHistogram()
    for value in (10.0, 20.0, 30.0):
        hist.record(value)
    snap = hist.snapshot()
    assert snap["sum"] == 60.0
    assert snap["min"] == 10.0 and snap["max"] == 30.0
    summary = obs.histogram_summary(snap)
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(20.0)
    # Percentiles never exceed the observed max (midpoint clamping).
    assert summary["p99_9"] <= 30.0


def test_empty_histogram_percentiles_are_none():
    summary = obs.histogram_summary(obs.LatencyHistogram().snapshot())
    assert summary["count"] == 0
    assert summary["p50"] is None and summary["p99_9"] is None


def test_subnanosecond_and_overflow_values_clamp():
    hist = obs.LatencyHistogram()
    hist.record(0.0)
    hist.record(0.25)
    hist.record(1e30)  # far past the last bucket boundary
    snap = hist.snapshot()
    assert snap["count"] == 3
    assert 0 in snap["counts"] and obs.NUM_BUCKETS - 1 in snap["counts"]


# ---------------------------------------------------------------------------
# Merge algebra
# ---------------------------------------------------------------------------

def _random_snapshot(seed: int) -> dict:
    rng = random.Random(seed)
    registry = obs.MetricsRegistry()
    for _ in range(60):
        registry.counter(rng.choice("abc")).inc(rng.randint(1, 9))
        # Integer-valued observations keep the histogram "sum" floats
        # exact, so associativity can be asserted with == (float
        # addition of arbitrary reals is itself not associative).
        registry.histogram(rng.choice("hk")).record(
            rng.randint(1, 10 ** 8))
        registry.gauge(rng.choice("gx")).set(rng.random())
    registry.events.emit("e", n=rng.random())
    return registry.snapshot()


def test_merge_associative():
    a, b, c = (_random_snapshot(s) for s in (1, 2, 3))
    left = obs.merge_snapshots(obs.merge_snapshots(a, b), c)
    right = obs.merge_snapshots(a, obs.merge_snapshots(b, c))
    assert left == right


def test_merge_identity_and_totals():
    a = _random_snapshot(4)
    assert obs.merge_snapshots(empty_snapshot(), a) == \
        obs.merge_snapshots(a, empty_snapshot())
    merged = obs.merge_many([a, _random_snapshot(5)])
    for name, snap in merged["histograms"].items():
        assert snap["count"] == sum(snap["counts"].values())


def test_merge_handles_json_roundtripped_keys():
    """Bucket indexes become strings through JSON; merging must still
    add them to the int-keyed originals."""
    import json
    a = _random_snapshot(6)
    b = json.loads(json.dumps(_random_snapshot(7)))
    merged = obs.merge_snapshots(a, b)
    for snap in merged["histograms"].values():
        assert all(isinstance(k, int) for k in snap["counts"])


def test_merge_percentiles_match_pooled_data():
    data_a = np.random.default_rng(8).uniform(1, 1e7, 3000)
    data_b = np.random.default_rng(9).lognormal(12, 2, 3000)
    ha, hb = obs.LatencyHistogram(), obs.LatencyHistogram()
    for v in data_a:
        ha.record(float(v))
    for v in data_b:
        hb.record(float(v))
    from repro.obs.metrics import _merge_histogram
    merged = _merge_histogram(ha.snapshot(), hb.snapshot())
    pooled = np.concatenate([data_a, data_b])
    for q in obs.PERCENTILES:
        got = obs.percentile_from_snapshot(merged, q)
        exact = float(np.percentile(pooled, q, method="lower"))
        assert abs(obs.bucket_index(got) - obs.bucket_index(exact)) <= 1


def _exemplar_snapshot(seed: int) -> dict:
    """A registry snapshot whose histograms carry exemplars (what a
    traced process ships), for the merge-algebra properties."""
    rng = random.Random(seed)
    registry = obs.MetricsRegistry()
    for _ in range(40):
        hist = registry.histogram(rng.choice("hk"))
        value = rng.randint(1, 10 ** 8)
        hist.record(value)
        hist.note_exemplar(value, "%016x" % rng.getrandbits(64))
    return registry.snapshot()


def test_merge_exemplars_associative_and_identity():
    a, b, c = (_exemplar_snapshot(s) for s in (11, 12, 13))
    left = obs.merge_snapshots(obs.merge_snapshots(a, b), c)
    right = obs.merge_snapshots(a, obs.merge_snapshots(b, c))
    assert left == right
    # Identity holds with exemplars aboard (the key stays absent on the
    # empty side, so quiescent snapshots keep the pre-exemplar shape).
    assert obs.merge_snapshots(empty_snapshot(), a) == \
        obs.merge_snapshots(a, empty_snapshot())
    assert "exemplars" not in empty_snapshot().get("histograms", {})


def test_merge_exemplars_last_writer_wins_per_bucket():
    ha, hb = obs.LatencyHistogram(), obs.LatencyHistogram()
    ha.record(1000.0)
    ha.note_exemplar(1000.0, "a" * 16)
    ha.record(5e8)
    ha.note_exemplar(5e8, "old-slow-trace00")
    hb.record(999.0)  # same bucket as ha's first observation
    hb.note_exemplar(999.0, "b" * 16)
    from repro.obs.metrics import _merge_histogram
    merged = _merge_histogram(ha.snapshot(), hb.snapshot())
    exemplars = {trace for trace, _ in merged["exemplars"].values()}
    # Shared bucket: b's exemplar replaced a's; a's solo bucket stays.
    assert exemplars == {"b" * 16, "old-slow-trace00"}
    assert merged["count"] == 3


# ---------------------------------------------------------------------------
# Kill switch
# ---------------------------------------------------------------------------

def test_enabled_from_env_values():
    for value in ("off", "0", "false", "no", "disabled", " OFF ", "False"):
        assert obs._enabled_from_env(value) is False
    for value in (None, "", "on", "1", "true", "anything"):
        assert obs._enabled_from_env(value) is True


def test_disabled_spans_are_the_shared_noop(obs_on):
    obs.set_enabled(False)
    assert trace.span("a") is trace.span("b") is trace.NOOP_SPAN
    with trace.span("a"):
        pass


def test_disabled_records_nothing(obs_on):
    obs.set_enabled(False)
    with trace.span("h"):
        pass
    obs.record_ns("h", 5)
    obs.observe("h", 5)
    obs.inc("c")
    obs.set_gauge("g", 1)
    obs.emit("ev")

    @trace.traced("t")
    def fn():
        return 42

    assert fn() == 42
    snap = obs.get_registry().snapshot()
    assert snap == empty_snapshot()


def test_runtime_toggle_round_trip(obs_on):
    @trace.traced("t")
    def fn():
        return 1

    fn()
    obs.set_enabled(False)
    fn()
    obs.set_enabled(True)
    fn()
    assert obs.get_registry().histogram("t").count == 2


# ---------------------------------------------------------------------------
# ShardStats snapshot form
# ---------------------------------------------------------------------------

def test_shard_stats_pickles_without_mutex():
    stats = ShardStats(reads=3, writes=2, scans=1)
    clone = pickle.loads(pickle.dumps(stats))
    assert (clone.reads, clone.writes, clone.scans) == (3, 2, 1)
    clone.add(reads=1)  # the restored mutex works
    assert clone.as_dict() == {"reads": 4, "writes": 2, "scans": 1}


# ---------------------------------------------------------------------------
# Service-wide aggregation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["thread", "process"])
def test_metrics_snapshot_service_wide(backend, obs_on):
    keys = np.sort(np.random.default_rng(0).uniform(0, 1e6, 8000))
    service = ShardedAlexIndex.bulk_load(keys, num_shards=2,
                                         backend=backend)
    try:
        service.lookup_many(keys[:256])
        service.insert_many(np.array([2e6, 3e6]))
        snap = service.metrics_snapshot()
    finally:
        service.close()
    merged = snap["merged"]
    names = set(merged["histograms"])
    assert "serve.lookup_many" in names
    # Serving-layer tallies fold in as counters.
    assert merged["counters"]["serve.shard0.reads"] > 0
    assert snap["backend"] == backend
    assert len(snap["shards"]) == 2
    if backend == "process":
        # The facade recorded the RPC; the workers recorded the index
        # op — both in one merged view proves the registry crossed the
        # pipe and merged.
        assert "rpc.roundtrip" in names or "rpc.fanout" in names
        assert "core.lookup_many" in names
        assert "shard.op.lookup_many" in names


def test_replica_metrics_reach_the_service_snapshot(obs_on, tmp_path):
    """With replication on, the replicas' replay counters surface in
    the merged view: the replica workers ship their own registries,
    tagged ``replica.shardN.*`` so they never inflate the primaries'."""
    keys = np.arange(2000, dtype=np.float64)
    service = ShardedAlexIndex.bulk_load(
        keys, num_shards=2, backend="process",
        durability_dir=str(tmp_path / "dur"), fsync="batch",
        replicate=True)
    try:
        service.insert_many(5e3 + np.arange(64, dtype=np.float64))
        merged = service.metrics_snapshot()["merged"]
    finally:
        service.close()
    tagged = {n for n in merged["counters"] if n.startswith("replica.shard")}
    # Both shards' replica workers report, under their own prefix.
    assert any(n.startswith("replica.shard0.repl.") for n in tagged)
    assert any(n.startswith("replica.shard1.repl.") for n in tagged)


def test_event_ring_capacity_env_and_drop_counter(monkeypatch):
    from repro.obs import events as events_mod

    monkeypatch.setenv(events_mod.ENV_VAR, "4")
    registry = obs.MetricsRegistry()
    assert registry.events.limit == 4
    for i in range(10):
        registry.events.emit("ev", i=i)
    log = registry.events.snapshot()
    # The ring kept the newest four and counted what it evicted...
    assert [e["i"] for e in log] == [6, 7, 8, 9]
    assert registry.events.dropped == 6
    # ...and the tally surfaces as a synthetic counter in snapshots.
    assert registry.snapshot()["counters"]["obs.events_dropped"] == 6
    # Garbage and absent values fall back to the default capacity.
    monkeypatch.setenv(events_mod.ENV_VAR, "not-a-number")
    assert events_mod.EventLog().limit == events_mod.EVENT_LIMIT
    monkeypatch.delenv(events_mod.ENV_VAR)
    assert events_mod.EventLog().limit == events_mod.EVENT_LIMIT


def test_policy_decisions_land_in_event_log(obs_on):
    from repro.core.alex import AlexIndex
    from repro.core.config import ga_armi

    # A cold-started index may split on inserts, which is what drives
    # the heuristic policy's split-down decisions (bulk-loaded ga_armi
    # leaves splitting off, so it would never log one).
    index = AlexIndex(config=ga_armi(max_keys_per_node=64))
    for key in np.linspace(1000, 2000, 600):
        index.insert(float(key), None)
    events = obs.get_registry().events.snapshot()
    kinds = {event["kind"] for event in events}
    assert "policy.decision" in kinds
    decision = next(e for e in events if e["kind"] == "policy.decision")
    assert {"site", "action", "size", "reason"} <= set(decision)
    # Applied SMOs tally as counters too.
    counters = obs.get_registry().snapshot()["counters"]
    assert any(name.startswith("policy.applied.") for name in counters)


def test_wal_and_checkpoint_spans(tmp_path, obs_on):
    keys = np.sort(np.random.default_rng(1).uniform(0, 1e6, 4000))
    service = ShardedAlexIndex.bulk_load(
        keys, num_shards=2, durability_dir=str(tmp_path / "svc"),
        fsync="batch", checkpoint_every=500)
    try:
        for i in range(4):
            fresh = 2e6 + i * 1000 + np.arange(300, dtype=np.float64)
            service.insert_many(fresh)
        snap = service.metrics_snapshot()
    finally:
        service.close()
    merged = snap["merged"]
    assert merged["histograms"]["wal.append"]["count"] >= 4
    assert merged["histograms"]["checkpoint.publish"]["count"] >= 1
    assert snap["wal_lag_ops"] is not None
    kinds = {e["kind"] for e in merged["events"]}
    assert "checkpoint.shard" in kinds


def test_recovery_spans(tmp_path, obs_on):
    from repro.durability import recover_index
    from repro.durability.checkpoint import CheckpointManager
    from repro.durability.wal import OP_INSERT, WriteAheadLog

    root = str(tmp_path / "d")
    manager = CheckpointManager(root)
    manager.initialize()
    wal = WriteAheadLog(manager.wal_dir, fsync="off")
    wal.append(OP_INSERT, np.array([1.0, 2.0]), [None, None])
    wal.close()
    obs.reset()
    result = recover_index(root, config=None)
    assert result.frames_replayed == 1
    snap = obs.get_registry().snapshot()
    assert snap["histograms"]["recover.replay"]["count"] == 1
    assert snap["counters"]["recover.ops_replayed"] == 2


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_service_recovery_counts_each_replay_once(tmp_path, obs_on,
                                                  backend):
    """The shards' owners replay their logs, and this process's registry
    counts each replay once: the service-wide view holds it once too.
    Replica bootstraps (process backend) count as ``repl.bootstraps``,
    not as recoveries."""
    root = str(tmp_path / "svc")
    service = ShardedAlexIndex.bulk_load(
        np.arange(1000.0), num_shards=2, backend=backend,
        durability_dir=root, fsync="off")
    service.insert_many(np.array([2000.5, 3000.5]))
    service.insert(-1.0, "x")
    service.close()
    obs.reset()
    recovered = ShardedAlexIndex.recover(root, backend=backend,
                                         fsync="off",
                                         replicate=backend == "process")
    try:
        assert [r.frames_replayed for r in recovered.last_recovery] == [1, 1]
        own = obs.snapshot()["counters"]
        merged = recovered.metrics_snapshot()["merged"]["counters"]
        for counters in (own, merged):
            assert counters["recover.frames_replayed"] == 2
            assert counters["recover.ops_replayed"] == 3
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# Exposition
# ---------------------------------------------------------------------------

def test_prometheus_rendering(obs_on):
    obs.inc("reqs", 5)
    obs.set_gauge("depth", 3)
    for value in (100.0, 2_000.0, 3e6):
        obs.record_ns("serve.lookup_many", value)
    obs.observe("wal.group_commit_frames", 8)
    text = render.to_prometheus(obs.snapshot())
    assert "# TYPE repro_reqs counter\nrepro_reqs 5" in text
    assert "repro_depth 3" in text
    assert 'repro_serve_lookup_many_bucket{le="+Inf"} 3' in text
    assert "repro_serve_lookup_many_count 3" in text
    # Durations scale to seconds; count-valued histograms do not.
    assert "repro_serve_lookup_many_sum 0.0030021" in text
    assert "repro_wal_group_commit_frames_sum 8" in text
    # Bucket upper bounds are cumulative and non-decreasing.
    import re
    bounds = [float(m) for m in re.findall(
        r'repro_serve_lookup_many_bucket\{le="([^+"]+)"\} ', text)]
    assert bounds == sorted(bounds)


def test_summarize_shapes(obs_on):
    obs.inc("c", 2)
    obs.record_ns("h", 500.0)
    obs.emit("kind.a")
    obs.emit("kind.a")
    summary = render.summarize(obs.snapshot())
    assert summary["counters"] == {"c": 2}
    assert summary["histograms"]["h"]["count"] == 1
    assert summary["events_by_kind"] == {"kind.a": 2}


def test_format_ns_tiers():
    assert render.format_ns(12) == "12ns"
    assert render.format_ns(4_500) == "4.5us"
    assert render.format_ns(3_200_000) == "3.20ms"
    assert render.format_ns(2.5e9) == "2.50s"
    assert render.format_value("wal.group_commit_frames", 64) == "64"


def test_describe_reports_registry_state(obs_on):
    obs.inc("c")
    info = obs.describe()
    assert info["enabled"] is True
    assert info["counters"] == 1
    assert "320 log2 buckets" in info["bucket_config"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["thread", "process"])
def test_cli_stats(backend, obs_on, capsys):
    from repro.cli import main
    assert main(["stats", "--size", "3000", "--shards", "2",
                 "--backend", backend, "--rounds", "3"]) == 0
    out = capsys.readouterr().out
    assert "latency percentiles" in out
    assert "serve.get_many" in out


def test_cli_stats_json(obs_on, capsys):
    import json
    from repro.cli import main
    assert main(["stats", "--size", "2000", "--shards", "2",
                 "--rounds", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["backend"] == "thread"
    assert "serve.get_many" in data["histograms"]


def test_cli_stats_prometheus(obs_on, capsys):
    from repro.cli import main
    assert main(["stats", "--size", "2000", "--shards", "2",
                 "--rounds", "2", "--format", "prometheus"]) == 0
    assert "# TYPE repro_serve_get_many histogram" in \
        capsys.readouterr().out


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_cli_top_renders_live(backend, obs_on, capsys):
    from repro.cli import main
    assert main(["top", "--size", "3000", "--shards", "2",
                 "--backend", backend, "--refresh", "0.3",
                 "--duration", "1", "--plain"]) == 0
    out = capsys.readouterr().out
    assert "repro top — 2 shards" in out
    assert "per-shard accesses" in out
    assert "p99.9" in out


def test_cli_info_shows_obs_block(obs_on, capsys):
    from repro.cli import main
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "obs:" in out and "320 log2 buckets" in out
