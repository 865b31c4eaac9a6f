"""Durable run-then-crash-then-recover workload scenario.

The durability subsystem's end-to-end exercise, shaped like the other
workload drivers: bulk-load a *durable* sharded service on either
backend (``num_shards=1`` is the single-node case), push an interleaved
YCSB-style operation stream through
:class:`~repro.workloads.runner.WorkloadRunner`
— optionally SIGKILLing a shard worker mid-stream to exercise the
facade's crash-respawn path — then simulate a crash (hard durability
barrier, abandon the live object) and recover from the directory alone.

The scenario's verdict is the durability contract itself:
``contents_match`` is True iff the recovered index is key-for-key (and
payload-for-payload) equal to the pre-crash state, i.e. every
acknowledged write survived and nothing phantom appeared.  The bench
(``benchmarks/bench_durability.py``) and the CI smoke job both run it.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

import numpy as np

from repro.serve import ShardedAlexIndex

from .runner import WorkloadRunner
from .spec import WORKLOADS, WorkloadSpec

#: ``backend`` values the scenario accepts: the service's execution
#: backends.
CRASH_BACKENDS = ("thread", "process")


def run_crash_recovery_scenario(
        durability_dir: str,
        num_keys: int = 20_000,
        num_ops: int = 5_000,
        spec: "WorkloadSpec | str" = "write-heavy",
        backend: str = "thread",
        num_shards: int = 4,
        fsync: str = "batch",
        checkpoint_every: int = 1 << 30,
        kill_worker_at: Optional[float] = None,
        read_batch: int = 32,
        write_batch: int = 32,
        delete_batch: int = 32,
        seed: int = 0) -> dict:
    """Run a durable workload, crash, recover, and verify equivalence.

    ``kill_worker_at`` (process backend only) SIGKILLs a random shard
    worker after that fraction of the operation stream, so the run also
    exercises mid-workload worker respawn.  ``checkpoint_every`` defaults
    to effectively-never so recovery genuinely replays the WAL tail;
    pass a small value to measure checkpoint-bounded recovery instead.

    Returns a dict with the run tallies, recovery timings, and the
    ``contents_match`` verdict.
    """
    if backend not in CRASH_BACKENDS:
        raise ValueError(f"backend {backend!r} not in {CRASH_BACKENDS}")
    if isinstance(spec, str):
        spec = WORKLOADS[spec]
    rng = np.random.default_rng(seed)
    universe = np.unique(rng.lognormal(0.0, 2.0, int(num_keys * 2.5)))
    init_keys = universe[:num_keys]
    insert_keys = universe[num_keys:]
    rng.shuffle(insert_keys)

    index = ShardedAlexIndex.bulk_load(
        init_keys, num_shards=num_shards, backend=backend,
        durability_dir=durability_dir, fsync=fsync,
        checkpoint_every=checkpoint_every)

    runner = WorkloadRunner(index, init_keys.copy(), insert_keys.copy(),
                            seed=seed + 1)
    kwargs = dict(read_batch=read_batch, write_batch=write_batch,
                  delete_batch=delete_batch)
    t0 = time.perf_counter()
    if kill_worker_at is not None and backend == "process":
        first_leg = max(1, int(num_ops * float(kill_worker_at)))
        result = runner.run(spec, first_leg, **kwargs)
        pids = index.backend.worker_pids()
        victim = int(rng.integers(len(pids)))
        os.kill(pids[victim], signal.SIGKILL)
        # The facade detects the death on the next touch and respawns
        # the worker from its checkpoint + WAL tail, mid-workload.
        result.merge(runner.run(spec, num_ops - first_leg, **kwargs))
    else:
        result = runner.run(spec, num_ops, **kwargs)
    run_seconds = time.perf_counter() - t0

    # Crash: everything appended is forced down, then the live object is
    # abandoned — no final checkpoint, no orderly close of the in-memory
    # state.  (The executors are shut down so the scenario doesn't leak
    # worker processes; the durable state on disk is what recovery gets.)
    index.sync()
    expected = dict(index.items())
    index.backend.close()

    t0 = time.perf_counter()
    recovered = ShardedAlexIndex.recover(
        durability_dir, backend=backend, fsync=fsync,
        checkpoint_every=checkpoint_every)
    recoveries = recovered.last_recovery
    recovery_seconds = time.perf_counter() - t0

    got = dict(recovered.items())
    contents_match = got == expected
    frames = sum(r.frames_replayed for r in recoveries)
    replayed_ops = sum(r.ops_replayed for r in recoveries)
    recovered.close()
    return {
        "backend": backend,
        "spec": spec.name,
        "num_shards": num_shards,
        "fsync": fsync,
        "ops": result.ops,
        "reads": result.reads,
        "inserts": result.inserts,
        "deletes": result.deletes,
        "scans": result.scans,
        "worker_killed": bool(kill_worker_at is not None
                              and backend == "process"),
        "run_seconds": run_seconds,
        "recovery_seconds": recovery_seconds,
        "frames_replayed": frames,
        "ops_replayed": replayed_ops,
        "recovered_keys": len(got),
        "contents_match": contents_match,
    }
