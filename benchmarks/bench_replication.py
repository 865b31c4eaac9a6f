"""Replication bench: what the WAL-shipped replicas buy and what they
cost, in three measurements on the process backend.

* **read scaling** — closed-loop client threads hammer ``get_many``
  against a replicated service twice: once with every client pinned to
  the primaries (``options`` omitted — the old read path), once with
  half the clients routed ``replica_ok``.  With a replica worker
  process standing beside every primary, the mixed run spreads the same
  client population over twice the executors;
  ``replica_vs_primary_ratio`` is the throughput ratio (wall-clock
  parallelism — **core-sensitive**, the regression gate refuses
  cross-core-count comparisons).

* **staleness** — while a writer streams ``insert_many`` batches, the
  replicas' observable staleness is sampled on a side thread through
  ``replica_status``: the seconds from the status request's send stamp
  to the moment the replica dequeues it, behind every frame pushed
  before it, so it is the apply backlog a ``replica_ok`` read would
  queue behind — the p50/p99/max the ``replica_ok(max_staleness_s=...)``
  contract actually delivers.

* **failover** — grow a long WAL tail past the last checkpoint
  (``checkpoint_every`` effectively infinite), SIGKILL the primary, and
  time the next read.  With replication the read promotes the
  caught-up replica (no checkpoint reload, no tail replay on the
  request path); without, it pays the cold checkpoint-replay respawn.
  Each mode is the median of ``FAILOVER_ROUNDS`` fresh services.
  ``promote_vs_respawn_ratio`` (lower is better) is the factor
  promotion buys over cold recovery at the same tail length.

Run: ``python benchmarks/bench_replication.py [--keys N] [--shards S]
[--clients C] [--duration SECONDS] [--tail-batches B] [--smoke]
[--out BENCH_replication.json] [--quiet]``
"""

import argparse
import os
import signal
import threading
import time

import numpy as np

import _common
from repro.serve import ShardedAlexIndex

SEED = 13

#: get_many batch size for the read-scaling clients.
READ_BATCH = 256

#: Writer batch size for the staleness stream and the failover tail.
WRITE_BATCH = 128

#: Kill-and-read rounds per failover mode.  One first read of a promoted
#: replica takes 10-40 ms on a shared 2-core host, too noisy to gate as
#: a single sample; the median of three is not.
FAILOVER_ROUNDS = 3


def _percentiles_ms(samples_s: list) -> dict:
    lat = np.sort(np.asarray(samples_s, dtype=np.float64)) * 1e3
    if not len(lat):
        return {"p50_ms": None, "p99_ms": None, "max_ms": None}
    return {
        "p50_ms": round(float(np.percentile(lat, 50)), 3),
        "p99_ms": round(float(np.percentile(lat, 99)), 3),
        "max_ms": round(float(lat[-1]), 3),
    }


def _build(keys, dur_root: str, shards: int, replicate: bool,
           checkpoint_every: int = 1 << 30) -> ShardedAlexIndex:
    return ShardedAlexIndex.bulk_load(
        keys, [float(k) for k in keys], num_shards=shards,
        backend="process", durability_dir=dur_root, fsync="batch",
        checkpoint_every=checkpoint_every, replicate=replicate)


def _wait_caught_up(service, timeout_s: float = 30.0) -> None:
    """Block until every replica has applied its shard's full WAL
    (bounded; a replica that never catches up fails the run loudly)."""
    token = service.write_token()
    deadline = time.perf_counter() + timeout_s
    for shard in range(service.num_shards):
        want = token.lsn_for(service._generation(shard))
        while True:
            status = service.backend.replica_status(shard)
            if status is not None and status["applied_lsn"] >= want:
                break
            if time.perf_counter() >= deadline:
                raise RuntimeError(f"replica {shard} never caught up "
                                   f"(want lsn {want}, at {status})")
            time.sleep(0.002)


def _closed_loop_reads(service, keys, clients: int, replica_clients: int,
                       duration_s: float, seed: int) -> dict:
    """``clients`` threads issue back-to-back ``get_many`` batches for
    ``duration_s``; the first ``replica_clients`` of them read
    ``replica_ok``.  Returns aggregate completed-keys/sec."""
    stop = threading.Event()
    counts = [0] * clients
    errors: list = []

    def client(i: int) -> None:
        rng = np.random.default_rng(seed + i)
        options = "replica_ok" if i < replica_clients else None
        batches = [rng.choice(keys, size=READ_BATCH) for _ in range(32)]
        b = 0
        try:
            while not stop.is_set():
                service.get_many(batches[b % len(batches)], options=options)
                counts[i] += READ_BATCH
                b += 1
        except Exception as exc:  # noqa: BLE001 - surfaced in the result
            errors.append(repr(exc))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    elapsed = time.perf_counter() - start
    return {
        "clients": clients,
        "replica_clients": replica_clients,
        "keys_per_s": round(sum(counts) / elapsed, 1),
        "errors": errors,
    }


def measure_read_scaling(keys, dur_root: str, shards: int, clients: int,
                         duration_s: float, seed: int) -> dict:
    """Primary-only vs mixed primary+replica routing over one
    replicated service (replicas attached in both runs — the primaries'
    capacity is identical; only the client routing changes)."""
    service = _build(keys, dur_root, shards, replicate=True)
    try:
        _wait_caught_up(service)
        # Warm both paths off the clock.
        service.get_many(keys[:512])
        service.get_many(keys[:512], options="replica_ok")
        primary = _closed_loop_reads(service, keys, clients, 0,
                                     duration_s, seed)
        mixed = _closed_loop_reads(service, keys, clients, clients // 2,
                                   duration_s, seed + 100)
    finally:
        service.close()
    ratio = (round(mixed["keys_per_s"] / primary["keys_per_s"], 3)
             if primary["keys_per_s"] else None)
    return {
        "read_batch": READ_BATCH,
        "primary_only": primary,
        "mixed": mixed,
        "replica_vs_primary_ratio": ratio,
    }


def measure_staleness(keys, dur_root: str, shards: int,
                      duration_s: float, seed: int) -> dict:
    """Observable replica staleness under a sustained write stream."""
    service = _build(keys, dur_root, shards, replicate=True)
    samples: list = []
    applied: list = []
    stop = threading.Event()

    def sampler() -> None:
        while not stop.is_set():
            for shard in range(service.num_shards):
                status = service.backend.replica_status(shard)
                if status is not None:
                    samples.append(status["staleness_s"])
                    applied.append(status["applied_lsn"])
            time.sleep(0.003)

    try:
        _wait_caught_up(service)
        thread = threading.Thread(target=sampler)
        thread.start()
        rng = np.random.default_rng(seed)
        fresh = float(keys[-1]) + 1.0
        batches = 0
        deadline = time.perf_counter() + duration_s
        while time.perf_counter() < deadline:
            batch = fresh + np.arange(WRITE_BATCH, dtype=np.float64)
            fresh += WRITE_BATCH + float(rng.integers(1, 8))
            service.insert_many(batch)
            batches += 1
        stop.set()
        thread.join(timeout=30)
    finally:
        stop.set()
        service.close()
    return {
        "write_batch": WRITE_BATCH,
        "write_batches": batches,
        "status_samples": len(samples),
        **_percentiles_ms(samples),
    }


def _time_failover_read(service, probe_key: float) -> float:
    """SIGKILL the primary hosting ``probe_key``'s shard, then time the
    next read of it (which detects the death and repairs — by
    promotion or cold respawn, per the service's configuration)."""
    shard = service.router.shard_for(probe_key)
    os.kill(service.backend.worker_pids()[shard], signal.SIGKILL)
    start = time.perf_counter()
    value = service.lookup(probe_key)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    assert value == float(probe_key), value
    return elapsed_ms


def measure_failover(keys, dur_root: str, tail_batches: int,
                     seed: int) -> dict:
    """Promotion vs cold respawn at the same WAL tail length: one
    shard, ``checkpoint_every`` never reached, ``tail_batches`` write
    batches past the generation-zero checkpoint, SIGKILL, one read.
    Each mode runs :data:`FAILOVER_ROUNDS` times on a fresh service and
    reports the median first read (the counters sum over the rounds)."""
    rows = {}
    probe_key = float(keys[len(keys) // 2])
    for mode, replicate in (("promote", True), ("cold_respawn", False)):
        reads_ms = []
        promotions = respawns = 0
        for round_ in range(FAILOVER_ROUNDS):
            service = _build(keys,
                             os.path.join(dur_root, f"{mode}-{round_}"), 1,
                             replicate=replicate)
            try:
                fresh = float(keys[-1]) + 1.0
                for _ in range(tail_batches):
                    service.insert_many(
                        fresh + np.arange(WRITE_BATCH, dtype=np.float64))
                    fresh += WRITE_BATCH + 1.0
                if replicate:
                    _wait_caught_up(service)
                # The obs registry is process-global and cumulative;
                # record deltas so rounds and modes don't bleed into
                # each other.
                base = service.metrics_snapshot()["merged"]["counters"]
                reads_ms.append(round(
                    _time_failover_read(service, probe_key), 3))
                counters = service.metrics_snapshot()["merged"]["counters"]

                def delta(name: str) -> int:
                    return int(counters.get(name, 0) - base.get(name, 0))

                promotions += delta("serve.replica_promotions")
                respawns += delta("serve.worker_respawns")
            finally:
                service.close()
        rows[mode] = {
            "wal_tail_frames": tail_batches,
            "first_read_ms": round(float(np.median(reads_ms)), 3),
            "first_read_ms_rounds": reads_ms,
            "promotions": promotions,
            "cold_respawns": respawns,
        }
    promote = rows["promote"]["first_read_ms"]
    respawn = rows["cold_respawn"]["first_read_ms"]
    return {
        **rows,
        "promote_vs_respawn_ratio": (round(promote / respawn, 3)
                                     if respawn else None),
    }


def measure_replication(num_keys: int, shards: int, clients: int,
                        duration_s: float, tail_batches: int,
                        dur_root: str, seed: int = SEED) -> dict:
    from repro.datasets import load as load_dataset
    keys = np.unique(load_dataset("lognormal", num_keys, seed=seed))
    read_scaling = measure_read_scaling(
        keys, os.path.join(dur_root, "scaling"), shards, clients,
        duration_s, seed)
    staleness = measure_staleness(
        keys, os.path.join(dur_root, "staleness"), shards, duration_s,
        seed + 1)
    failover = measure_failover(
        keys, os.path.join(dur_root, "failover"), tail_batches, seed + 2)
    return {
        "bench": "WAL-shipped replicas: read scaling, observable "
                 "staleness, failover promotion vs cold respawn",
        "dataset": "lognormal",
        "num_keys": int(len(keys)),
        "shards": int(shards),
        "clients": int(clients),
        "duration_s": duration_s,
        "fsync": "batch",
        "metric_note": (
            "replica_vs_primary_ratio is wall-clock parallelism across "
            "primary+replica worker processes and therefore "
            "core-sensitive (compare equal cpu_count only); "
            "promote_vs_respawn_ratio is lower-is-better — promotion "
            "skips the checkpoint reload and serves the moment the "
            "replica's drained tail is swapped in"),
        "read_scaling": read_scaling,
        "staleness": staleness,
        "failover": failover,
    }


def main() -> None:
    import tempfile

    parser = argparse.ArgumentParser(
        description="Replica read scaling, staleness, and failover "
                    "promotion timings, recorded to "
                    "BENCH_replication.json")
    parser.add_argument("--keys", type=int, default=200_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop reader threads (half route "
                             "replica_ok in the mixed run)")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds per read-scaling run and for the "
                             "staleness write stream")
    parser.add_argument("--tail-batches", type=int, default=150,
                        help="write batches past the last checkpoint "
                             "before the failover kill")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI")
    _common.add_output_arguments(parser, "BENCH_replication.json")
    args = parser.parse_args()
    if args.smoke:
        args.keys = min(args.keys, 20_000)
        args.duration = 0.8
        args.tail_batches = 40
    with tempfile.TemporaryDirectory(prefix="repro-bench-repl-") as root:
        result = measure_replication(args.keys, args.shards, args.clients,
                                     args.duration, args.tail_batches,
                                     root)
    scaling = result["read_scaling"]
    failover = result["failover"]
    summary = (f"mixed replica routing {scaling['mixed']['keys_per_s']} "
               f"vs primary-only {scaling['primary_only']['keys_per_s']} "
               f"keys/s (ratio {scaling['replica_vs_primary_ratio']}); "
               f"staleness p99 {result['staleness']['p99_ms']}ms; "
               f"failover promote {failover['promote']['first_read_ms']}ms "
               f"vs cold respawn "
               f"{failover['cold_respawn']['first_read_ms']}ms "
               f"(ratio {failover['promote_vs_respawn_ratio']}, "
               f"{os.cpu_count()} cores)")
    _common.emit(result, args, summary)


if __name__ == "__main__":
    main()
