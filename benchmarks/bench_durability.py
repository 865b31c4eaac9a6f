"""Durability bench: what the WAL + checkpoint layer costs and buys.

Three questions, recorded to ``BENCH_durability.json``:

* **Logged-write overhead** — wall-clock cost of batch inserts through
  a durable one-shard :class:`~repro.serve.ShardedAlexIndex` (validate +
  WAL append + apply) over the same batches into an in-memory one-shard
  service, per fsync policy, as the median of paired A/B/A rounds.  Both sides pay the same facade,
  validation and locking cost, so ``off`` isolates the logging code
  path itself; ``batch`` and ``always`` add the group-commit and
  per-append fsync costs, which are hardware-dependent (absolute seconds
  are recorded alongside the ratios).

* **Recovery time vs WAL length** — recover the one shard's directory
  after K logged frames for growing K: replay cost scales with the
  un-checkpointed tail, which is exactly what checkpoints bound.  The
  headline ratio, ``checkpoint_speedup``, is recovery-from-full-WAL-
  replay over recovery-right-after-a-checkpoint on identical contents —
  the factor the checkpoint manager buys.

* **Checkpoint cost** — seconds to publish a full snapshot (and the
  snapshot's size), the price paid per replay-bound reset.

A durable run-then-crash-then-recover scenario
(:func:`repro.workloads.run_crash_recovery_scenario`) runs last as an
end-to-end correctness gate: the bench refuses to record numbers for a
durability layer that loses writes.

Scale-invariant ratios (``overhead_x['off']``, ``checkpoint_speedup``)
are gated in CI by ``benchmarks/check_regression.py``.

Run: ``python benchmarks/bench_durability.py [--keys N] [--ops M]
[--seed S] [--out BENCH_durability.json] [--quiet]``
"""

import argparse
import os
import shutil
import statistics
import tempfile
import time
from typing import Optional

import numpy as np

import _common
from repro.durability import recover_index
from repro.serve import ShardedAlexIndex
from repro.workloads import run_crash_recovery_scenario

SEED = 5
FSYNC_MODES = ("off", "batch", "always")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed_min(fn, repeats: int = 3) -> float:
    """Best of ``repeats`` runs — recovery is read-only, and the gated
    checkpoint_speedup divides two small measurements, so a single noisy
    sample (cold cache, co-tenant spike on a CI runner) must not be able
    to flip the gate."""
    return min(_timed(fn) for _ in range(repeats))


def _one_shard(init: np.ndarray, root: Optional[str] = None,
               fsync: str = "off") -> ShardedAlexIndex:
    """A one-shard service over ``init``: durable under ``root``
    (checkpointed only when asked), in-memory without one."""
    if root is None:
        return ShardedAlexIndex.bulk_load(init, num_shards=1)
    return ShardedAlexIndex.bulk_load(init, num_shards=1,
                                      durability_dir=root, fsync=fsync,
                                      checkpoint_every=1 << 30)


def measure_logged_write_overhead(tmp: str, num_keys: int, num_ops: int,
                                  seed: int, rounds: int = 7) -> dict:
    """Batch-insert wall clock: a durable one-shard service (per fsync
    mode) vs an in-memory one over the same batches.

    Inserts mutate, so every run inserts into a freshly built service.
    The gated ``overhead_x`` ratio divides two runs of about 20 ms, so
    each fsync mode is timed as the B side of ``rounds`` paired A/B/A
    rounds (:func:`_common.paired_medians`) whose A side is the
    in-memory service: the median of the bracketed ratios cancels drift
    and rejects outliers, where the minimum of a few samples per side
    would compare the two sides' luck.  The seconds recorded beside the
    ratios are each side's median run.
    """
    rng = np.random.default_rng(seed)
    init = np.unique(rng.uniform(0, 1e6, num_keys))
    fresh = np.unique(rng.uniform(2e6, 3e6, num_ops))
    batches = np.array_split(fresh, max(1, len(fresh) // 1024))
    plain_seconds = []
    mode_seconds = {mode: [] for mode in FSYNC_MODES}

    def run(service: ShardedAlexIndex, out: list) -> float:
        with service:
            seconds = _timed(lambda: [service.insert_many(b)
                                      for b in batches])
        out.append(seconds)
        return seconds

    def plain_run() -> float:
        return run(_one_shard(init), plain_seconds)

    def durable_run(mode: str) -> float:
        samples = mode_seconds[mode]
        root = os.path.join(tmp, f"overhead-{mode}-{len(samples)}")
        return run(_one_shard(init, root, fsync=mode), samples)

    ratios = _common.paired_medians(
        [(plain_run, lambda mode=mode: durable_run(mode))
         for mode in FSYNC_MODES], rounds)
    return {
        "inserted_keys": int(len(fresh)),
        "batches": len(batches),
        "rounds": rounds,
        "plain_seconds": round(statistics.median(plain_seconds), 4),
        "durable_seconds": {m: round(statistics.median(s), 4)
                            for m, s in mode_seconds.items()},
        "overhead_x": {m: round(r, 3)
                       for m, r in zip(FSYNC_MODES, ratios)},
    }


def measure_recovery(tmp: str, num_keys: int, num_ops: int,
                     seed: int) -> dict:
    """Recovery wall clock vs WAL tail length, and the checkpoint's
    replay-bounding speedup."""
    rng = np.random.default_rng(seed + 1)
    init = np.unique(rng.uniform(0, 1e6, num_keys))
    fresh = np.unique(rng.uniform(2e6, 3e6, num_ops))

    rows = []
    for fraction in (0.25, 0.5, 1.0):
        durable = _one_shard(init, os.path.join(tmp, f"recovery-{fraction}"))
        tail = fresh[:int(len(fresh) * fraction)]
        for batch in np.array_split(tail, max(1, len(tail) // 256)):
            durable.insert_many(batch)
        durable.durability.shard_state(0).wal.flush()
        root = durable.durability.shard_dir(0)
        seconds = _timed_min(lambda r=root: recover_index(r))
        result = recover_index(root)
        rows.append({
            "wal_frames": result.frames_replayed,
            "wal_ops": result.ops_replayed,
            "seconds": round(seconds, 4),
            "replay_ops_per_sec": round(result.ops_replayed
                                        / max(seconds, 1e-9)),
        })
        durable.close()

    # Same contents, but checkpointed: recovery loads the snapshot and
    # replays nothing.
    durable = _one_shard(init, os.path.join(tmp, "recovery-ckpt"))
    for batch in np.array_split(fresh, max(1, len(fresh) // 256)):
        durable.insert_many(batch)
    durable.checkpoint()
    root = durable.durability.shard_dir(0)
    after_checkpoint_seconds = _timed_min(lambda: recover_index(root))
    durable.close()

    full_replay_seconds = rows[-1]["seconds"]
    return {
        "rows": rows,
        "full_replay_seconds": full_replay_seconds,
        "after_checkpoint_seconds": round(after_checkpoint_seconds, 4),
        "checkpoint_speedup": round(
            full_replay_seconds / max(after_checkpoint_seconds, 1e-9), 3),
    }


def measure_checkpoint_cost(tmp: str, num_keys: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + 2)
    keys = np.unique(rng.uniform(0, 1e6, num_keys))
    durable = _one_shard(keys, os.path.join(tmp, "ckpt-cost"))
    seconds = _timed(durable.checkpoint)
    latest = durable.durability.shard_state(0).manager.latest()
    size = os.path.getsize(latest[0]) if latest else 0
    durable.close()
    return {
        "keys": int(len(keys)),
        "seconds": round(seconds, 4),
        "snapshot_bytes": int(size),
        "keys_per_sec": round(len(keys) / max(seconds, 1e-9)),
    }


def measure_durability(num_keys: int = 20_000, num_ops: int = 10_000,
                       seed: int = SEED) -> dict:
    tmp = tempfile.mkdtemp(prefix="bench-durability-")
    try:
        logged = measure_logged_write_overhead(tmp, num_keys, num_ops,
                                               seed)
        recovery = measure_recovery(tmp, num_keys, num_ops, seed)
        checkpoint = measure_checkpoint_cost(tmp, num_keys, seed)
        scenario = run_crash_recovery_scenario(
            os.path.join(tmp, "scenario"),
            num_keys=min(num_keys, 10_000),
            num_ops=min(num_ops, 5_000),
            spec="write-heavy", backend="thread", num_shards=4,
            fsync="batch", seed=seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "bench": "durability: logged-write overhead, recovery vs WAL "
                 "length, checkpoint cost",
        "num_keys": int(num_keys),
        "num_ops": int(num_ops),
        "seed": int(seed),
        "metric_note": (
            "wall-clock seconds (hardware-dependent); the gated metrics "
            "are the scale-invariant ratios overhead_x and "
            "checkpoint_speedup"),
        "logged_write": logged,
        "recovery": recovery,
        "checkpoint": checkpoint,
        "crash_scenario": scenario,
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure WAL/checkpoint overheads and recovery "
                    "times; record BENCH_durability.json")
    # CI-friendly defaults (the bench-smoke job runs them unchanged, so
    # the committed baseline and the fresh CI artifact are the same
    # configuration — checkpoint_speedup is not scale-invariant).
    parser.add_argument("--keys", type=int, default=20_000)
    parser.add_argument("--ops", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=SEED)
    _common.add_output_arguments(parser, "BENCH_durability.json")
    args = parser.parse_args()
    result = measure_durability(args.keys, args.ops, args.seed)
    assert result["crash_scenario"]["contents_match"], (
        "run-then-crash-then-recover lost acknowledged writes — the "
        "durability layer is broken; refusing to record numbers")
    logged = result["logged_write"]["overhead_x"]
    _common.emit(
        result, args,
        f"logged-write overhead x{logged['off']} (fsync=off) / "
        f"x{logged['always']} (fsync=always); checkpoint speedup "
        f"x{result['recovery']['checkpoint_speedup']}; crash scenario "
        f"recovered {result['crash_scenario']['recovered_keys']} keys "
        "key-for-key")


if __name__ == "__main__":
    main()
