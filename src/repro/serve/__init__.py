"""The sharded index service: ALEX scaled out by key-range partitioning.

The paper's Section 7 sketches how ALEX lives inside a DBMS — concurrent
access under locks.  A :class:`ShardedAlexIndex` covers that design
space: with one thread-backend shard it is the coarse end (one index,
one reader/writer lock, every write serialized); with N shards it
partitions the key space into N independent
:class:`~repro.core.alex.AlexIndex` shards and scatter-gathers batched
reads, writes, and range scans across them, so traffic to different key
ranges proceeds in parallel.

**The router.**  A :class:`ShardRouter` fits *near-equal-mass* boundaries
at bulk load from the empirical CDF of the loaded keys
(:func:`repro.datasets.cdf.empirical_cdf`): boundary ``s`` sits at CDF
mass ``s / N``, so skewed key distributions still yield balanced shards —
the same piecewise-linear reading of the CDF that ALEX's adaptive RMI
discovers recursively, applied once at the serving tier.  Scalar requests
route through a :class:`~repro.core.linear_model.LinearModel` prediction
corrected against the exact boundaries (ALEX's model-plus-search idiom);
batches are sorted once and carved into contiguous per-shard runs with a
single ``searchsorted``, mirroring :func:`repro.core.rmi.route_batch` one
level up.

**Locking granularity.**  Two levels of writer-preferring reader/writer
locks (:class:`repro.ext.concurrent.ReadWriteLock`): a *structure* lock,
held shared by every request and exclusively by shard splits, pins the
router and shard list; a *per-shard* lock serializes writers within one
shard while readers share.  Writes to different shards hold different
locks and therefore no longer serialize; cross-shard batch inserts take
the involved shards' write locks in ascending shard order (no deadlocks)
and validate every sub-batch before any shard mutates (all-or-nothing).

**Rebalance policy.**  The serving layer tallies per-shard accesses
(:class:`ShardStats`).  Under skewed traffic — e.g. the
:class:`repro.workloads.hotspot.HotspotGenerator` access pattern — one
shard's lock becomes the system's bottleneck; :meth:`ShardedAlexIndex
.rebalance` detects a shard absorbing at least a configurable fraction of
all accesses and splits it in two at its median key, doubling the lock
granularity exactly where the traffic is.  Splits quiesce the service
through the structure lock and preserve all contents.

**Execution backends.**  Where the shards live is pluggable
(``ShardedAlexIndex(backend="thread" | "process")``): the
:class:`ThreadBackend` keeps them in-process behind a shared
``ThreadPoolExecutor`` (GIL-bound for Python-level work), while the
:class:`ProcessBackend` hosts each shard in a long-lived worker process,
so scatter-gather runs on real cores.  Whole shards move through
:mod:`multiprocessing.shared_memory` (:mod:`repro.core.shm`); every
request and reply — sub-batch keys, payloads, results — travels by value
in one pickled pipe frame.  The facade's locking, routing, statistics,
and two-phase all-or-nothing writes are identical under both.  The
process backend's RPC is *pipelined*: frames carry request ids, each
worker keeps several requests in flight (``max_inflight``), and a
per-worker reply-reader thread demultiplexes out-of-order completions to
futures.

**The front door.**  :class:`AsyncIngress` (:mod:`repro.serve.ingress`)
turns many small concurrent client requests into the batch shapes this
tier is fast at: arrivals coalesce inside a small time/size window
(group-commit, read side), flush downstream on a thread pool without
blocking the accept loop, and shed or block past an admission cap.
:class:`IngressRunner` is its synchronous wrapper for thread-world
callers.

**Replication and consistency.**  With
``ShardedAlexIndex(replicate=True)`` each shard hosts a WAL-following
:class:`~repro.replication.Replica` beside its primary.  Every read
entry point takes one ``options=`` — a :class:`ReadOptions` (or its
consistency-level string): ``primary`` (default, exactly the old
behavior), ``replica_ok(max_staleness_s=...)`` (lock-free replica reads
at bounded observable staleness), or ``read_your_writes(token)`` where
``token`` is the :class:`WriteToken` acked by every write.  Replica
reads that cannot meet their bound fall back to the primary; a dead
*primary* is **failed over** — its caught-up replica promotes in place
of the cold checkpoint-replay respawn — and a dead replica is respawned
behind the primary's back without touching the read path's guarantees.
"""

from repro import _lazy_exports

#: Every public name and the module that defines it, imported on first
#: access (PEP 562): a shard worker imports ``repro.serve.worker`` and
#: with it only ``repro.serve.backend``, never the facade or the asyncio
#: front end.
_EXPORTS = {
    "CONSISTENCY_LEVELS": ".options",
    "MISSING": ".ingress",
    "PRIMARY": ".options",
    "READ_YOUR_WRITES": ".options",
    "REPLICA_OK": ".options",
    "AsyncIngress": ".ingress",
    "ExecutionBackend": ".backend",
    "IngressRunner": ".ingress",
    "ProcessBackend": ".worker",
    "ReadOptions": ".options",
    "ServiceOverloadedError": ".ingress",
    "ShardRouter": ".router",
    "ShardStats": ".sharded",
    "ShardedAlexIndex": ".sharded",
    "ThreadBackend": ".backend",
    "WorkerDiedError": ".backend",
    "WriteToken": ".options",
    "make_backend": ".backend",
    "resolve_read_options": ".options",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
