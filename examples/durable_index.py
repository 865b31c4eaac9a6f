"""Durability walkthrough: WAL, checkpoints, crash recovery, respawn.

Four acts:

1. a single-node durable index — a one-shard durable service — write,
   "crash" (abandon the object), recover from the directory alone;
2. a checkpoint bounding the next recovery's WAL replay;
3. the sharded service with per-shard durability and a topology change
   (hot-shard split) committed atomically to the service manifest;
4. (process backend) SIGKILL a shard worker mid-traffic and watch the
   facade respawn it from checkpoint + WAL with nothing lost.

Run: ``PYTHONPATH=src python examples/durable_index.py``
"""

import os
import shutil
import signal
import tempfile
import time

import numpy as np

from repro.durability import recover_index
from repro.serve import ShardedAlexIndex

def main() -> None:
    rng = np.random.default_rng(7)

    base = tempfile.mkdtemp(prefix="durable-example-")

    # -- Act 1: single node write, crash, recover -------------------------
    root = os.path.join(base, "single")
    keys = np.unique(rng.uniform(0, 1e6, 50_000))
    index = ShardedAlexIndex.bulk_load(keys, num_shards=1,
                                       durability_dir=root, fsync="batch")
    index.insert(2e6, "precious")
    index.insert_many(np.arange(3e6, 3e6 + 1000), list(range(1000)))
    index.delete_many(keys[:500])
    index.sync()                      # hard durability barrier: all acked
    shard_root = index.durability.shard_dir(0)  # the shard's WAL + ckpts
    del index                         # "crash": no close, no checkpoint

    result = recover_index(shard_root)
    print(f"[1] recovered {result.num_keys:,} keys from {shard_root}")
    print(f"    checkpoint LSN {result.checkpoint_lsn}, "
          f"{result.frames_replayed} WAL frames ({result.ops_replayed} ops) "
          "replayed")
    assert result.index.lookup(2e6) == "precious"

    # -- Act 2: a checkpoint bounds the replay ----------------------------
    index = ShardedAlexIndex.recover(root)
    index.checkpoint()                # snapshot + truncate the log
    index.insert(4e6, "tail")
    index.close()
    result = recover_index(shard_root)
    print(f"[2] after checkpoint: only {result.frames_replayed} frame(s) "
          "replayed on recovery")

    # -- Act 3: sharded service, durable topology change ------------------
    svc_root = os.path.join(base, "service")
    service = ShardedAlexIndex.bulk_load(keys, num_shards=4,
                                         durability_dir=svc_root,
                                         fsync="batch",
                                         checkpoint_every=50_000)
    service.insert_many(np.unique(rng.uniform(2e6, 3e6, 5_000)))
    service.split_shard(2)            # manifest flips atomically
    expected = len(service)
    service.sync()
    service.backend.close()           # crash the executors

    restored = ShardedAlexIndex.recover(svc_root)
    print(f"[3] recovered a {restored.num_shards}-shard service "
          f"({len(restored):,} keys) — split survived the crash")
    assert len(restored) == expected
    restored.close()

    # -- Act 4: kill a worker, the facade heals itself --------------------
    kill_root = os.path.join(base, "kill")
    service = ShardedAlexIndex.bulk_load(keys[:20_000], num_shards=3,
                                         backend="process",
                                         durability_dir=kill_root,
                                         fsync="batch")
    victim = service.backend.worker_pids()[1]
    os.kill(victim, signal.SIGKILL)
    time.sleep(0.1)
    service.insert_many(np.unique(rng.uniform(5e6, 6e6, 1_000)))  # just works
    print(f"[4] killed worker pid {victim}; facade respawned shard 1 from "
          f"its WAL and kept serving ({len(service):,} keys)")
    service.close()

    shutil.rmtree(base, ignore_errors=True)
    print("done.")


if __name__ == "__main__":  # required: forkserver workers re-import us
    main()
