"""Pluggable execution backends for the sharded index service.

:class:`~repro.serve.sharded.ShardedAlexIndex` is a *facade*: it owns the
router, the two-level lock hierarchy, the per-shard access statistics, and
the adaptation policy — but it never touches a shard directly.  Every
shard operation goes through an :class:`ExecutionBackend`, which decides
*where the shard's ALEX tree lives and which parallelism executes it*:

* :class:`ThreadBackend` — shards are in-process :class:`AlexIndex`
  objects; scatter-gather fans out over a shared ``ThreadPoolExecutor``
  (the original PR 2 design).  Cheap and zero-setup, but Python-level
  work is GIL-serialized, so multi-core hardware only helps the NumPy
  kernels.
* :class:`~repro.serve.worker.ProcessBackend` — each shard lives in a
  long-lived worker process, forked from one preloaded
  ``multiprocessing`` forkserver.  Whole shards move through
  :mod:`multiprocessing.shared_memory` segments (:mod:`repro.core.shm`),
  carved sub-batches travel by value in pipelined pipe RPC frames, and
  the workers execute truly in parallel — real multi-core wall clock
  for Python-heavy batch work.

The backend contract is deliberately narrow — provision, RPC (``call`` /
``scatter`` / ``scatter_batch``), snapshot, and replace — so the facade's
locking, routing, statistics, and all-or-nothing write orchestration are
*identical* under both backends, and the equivalence test suite runs
byte-for-byte the same against either.
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor, wait
from threading import Lock
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.alex import AlexIndex
from repro.core.batch import export_arrays
from repro.core.config import AlexConfig
from repro.core.kernels import get_kernels
from repro.core.policy import AdaptationPolicy
from repro.core.stats import Counters
from repro.obs import trace

#: Default per-worker in-flight request budget of the process backend
#: (pipelined RPC admission control): how many requests the parent may
#: have outstanding on one worker's pipe before further submitters block.
DEFAULT_MAX_INFLIGHT = 8

#: A scatter job against one key batch:
#: ``(shard, method, lo, hi, extra_args)`` — the shard runs
#: ``method(batch[lo:hi], *extra_args)``.
BatchJob = Tuple[int, str, int, int, tuple]

#: A plain RPC: ``(shard, method, args)``.
Call = Tuple[int, str, tuple]


class WorkerDiedError(RuntimeError):
    """A shard executor's hosting process died mid-conversation.

    Carries the shard position (when known) so a durability-enabled
    facade can respawn exactly the dead executor from its last checkpoint
    plus WAL tail instead of poisoning the whole service.  Only the
    process backend raises it; in-process thread shards cannot die
    independently of the facade.
    """

    def __init__(self, shard: Optional[int], detail: str):
        where = "shard executor" if shard is None else f"shard {shard}"
        super().__init__(f"{where} worker process died: {detail}")
        self.shard = shard


def _op_persist_to(index: AlexIndex, path: str) -> int:
    """Save the shard's full index to ``path`` via
    :mod:`repro.ext.persistence` — the executor-side half of a
    checkpoint.  Runs *inside* the worker for process-hosted shards, so
    the snapshot never crosses the pipe; returns the key count saved."""
    from repro.ext.persistence import save_index
    save_index(index, path)
    return len(index)


def _op_key_bounds(index: AlexIndex):
    """``(first_key, last_key)`` or ``(None, None)`` when empty.

    Walks the leaf chain and reads each non-empty leaf's sorted edge
    keys — no boxed-float list of the whole shard is ever materialized.
    """
    first = last = None
    for leaf in index.leaves():
        leaf_keys, _ = leaf.export_sorted()
        if len(leaf_keys):
            if first is None:
                first = float(leaf_keys[0])
            last = float(leaf_keys[-1])
    return first, last


#: Named operations that are not plain index methods.  Both backends
#: resolve methods through :func:`run_shard_op`, so a worker process and
#: an in-process thread execute the exact same code against a shard.
SHARD_OPS = {
    "num_keys": lambda index: len(index),
    "items_list": lambda index: list(index.items()),
    "counters_snapshot": lambda index: index.counters.snapshot(),
    "key_bounds": _op_key_bounds,
    "introspect": lambda index: {
        "num_keys": len(index),
        "leaves": index.num_leaves(),
        "depth": index.depth(),
    },
    # The executor-side policy's identity and tunables (diagnostic: lets
    # callers confirm a configured policy crossed the process boundary).
    "policy_config": lambda index: {
        "type": type(index.policy).__name__,
        **{knob: getattr(index.policy, knob)
           for knob in ("drift_factor", "cold_factor")
           if hasattr(index.policy, knob)},
    },
    "persist_to": _op_persist_to,
    # This process's metrics registry (workers return theirs over the
    # RPC pipe so the facade can merge a service-wide view).
    "obs_snapshot": lambda index: obs.snapshot(),
    # This process's trace flight recorder, drained (snapshot + clear):
    # repeated pulls ship each span exactly once.
    "trace_drain": lambda index: trace.drain(),
}


def run_shard_op(index: AlexIndex, method: str, *args):
    """Execute one named operation against a shard index."""
    op = SHARD_OPS.get(method)
    if op is not None:
        return op(index, *args)
    # trace.span: a plain histogram span normally, a child span of the
    # request's trace when the RPC frame carried a context over.
    with trace.span("shard.op." + method):
        return getattr(index, method)(*args)


def build_shard(keys: np.ndarray, payloads: Optional[list],
                config: AlexConfig, policy: AdaptationPolicy) -> AlexIndex:
    """Bulk-load one shard (empty parts become empty indexes)."""
    if len(keys) == 0:
        return AlexIndex(config, policy=policy)
    return AlexIndex.bulk_load(keys, payloads, config=config, policy=policy)


class ExecutionBackend(abc.ABC):
    """Where shards live and how scattered sub-batches execute.

    The facade holds every lock before invoking the backend; backend
    implementations only move data and run shard methods.  ``parts``
    throughout are ``(keys, payloads)`` tuples in shard order.
    """

    name: str = "?"

    @abc.abstractmethod
    def provision(self, parts: Sequence[tuple]) -> None:
        """Create one shard executor per ``(keys, payloads)`` part;
        ``payloads`` may also be a slice of the column
        :func:`~repro.core.shm.numeric_column` made."""

    @abc.abstractmethod
    def adopt(self, indexes: List[AlexIndex]) -> None:
        """Take ownership of prebuilt in-process shard indexes
        (contents *and* work-counter history carry over)."""

    @abc.abstractmethod
    def call(self, shard: int, method: str, *args):
        """Run one operation on one shard and return its result."""

    @abc.abstractmethod
    def scatter(self, calls: Sequence[Call]) -> list:
        """Run the calls (one per involved shard) in parallel where the
        backend can, returning results in call order.  All calls complete
        before the first raised exception propagates."""

    @abc.abstractmethod
    def scatter_batch(self, batch: np.ndarray,
                      jobs: Sequence[BatchJob]) -> list:
        """Like :meth:`scatter` for jobs carving one key array: each job
        runs ``method(batch[lo:hi], *extra)`` on its shard.  The process
        backend ships each sub-batch by value in its request frame."""

    @abc.abstractmethod
    def snapshot(self, shard: int) -> Tuple[np.ndarray, Optional[list]]:
        """The shard's full sorted ``(keys, payloads)`` contents."""

    @abc.abstractmethod
    def replace(self, start: int, stop: int, parts: Sequence[tuple],
                inherit: Sequence[Sequence[int]]) -> None:
        """Replace shards ``[start, stop)`` with fresh shards bulk-loaded
        from ``parts`` — the re-provisioning step of a shard split or
        merge.  ``inherit[i]`` lists the *old* shard ids whose work
        counters merge into new part ``i`` (so aggregate counters stay
        monotone across SMOs)."""

    @abc.abstractmethod
    def counters(self, shard: int) -> Counters:
        """A snapshot of the shard's work counters."""

    def dead_shards(self) -> List[int]:
        """*Primary* shard positions whose executor died (empty for
        in-process backends: a thread shard cannot die without the
        facade).  Replica deaths are reported separately by
        :meth:`dead_replicas` — a dead replica degrades read routing, a
        dead primary triggers failover."""
        return []

    def respawn(self, shard: int, keys: np.ndarray,
                payloads: Optional[list],
                seed: Optional[Counters] = None) -> None:
        """Re-provision one dead executor over recovered contents (the
        crash-recovery half of :class:`WorkerDiedError`)."""
        raise NotImplementedError(
            f"the {self.name!r} backend has no executor to respawn")

    # -- replication (optional per-backend capability) -----------------
    #
    # A backend may host one WAL-shipping replica beside each primary.
    # The facade routes `replica_ok` / `read_your_writes` reads here and
    # promotes on primary death; backends without the capability keep
    # the defaults, which make every replica read fall back to primary.

    def add_replicas(self, roots: Dict[int, str]) -> None:
        """Attach a replica per ``{shard: durability dir}`` entry, each
        tailing its directory.  Blocks until every replica has
        bootstrapped."""
        raise NotImplementedError(
            f"the {self.name!r} backend does not host replicas")

    def has_replica(self, shard: int) -> bool:
        return False

    def replica_read(self, shard: int, method: str, args: tuple = (),
                     min_lsn: int = 0,
                     max_staleness_s: Optional[float] = None):
        """Serve one read from ``shard``'s replica within the bounds, or
        raise ``ReplicaStaleError`` / ``ReplicaUnavailableError`` (or
        :class:`WorkerDiedError` for a process-hosted replica) — all of
        which the facade turns into a primary fallback."""
        from repro.core.errors import ReplicaUnavailableError
        raise ReplicaUnavailableError(
            f"the {self.name!r} backend has no replica for shard {shard}")

    def replica_status(self, shard: int) -> Optional[dict]:
        """The replica's :meth:`~repro.replication.Replica.status` dict,
        or ``None`` when the shard has no (live) replica."""
        return None

    def promote_replica(self, shard: int) -> int:
        """Failover: make ``shard``'s replica the primary executor and
        return its applied LSN.  The caller guarantees the shard's WAL
        is quiescent (it holds the shard write lock over a dead
        primary)."""
        from repro.core.errors import ReplicaUnavailableError
        raise ReplicaUnavailableError(
            f"the {self.name!r} backend has no replica for shard {shard}")

    def drop_replica(self, shard: int) -> None:
        """Detach and release ``shard``'s replica (idempotent)."""

    def dead_replicas(self) -> List[int]:
        """Shard positions whose *replica* executor died (always empty
        for in-process replicas — they share the facade's fate)."""
        return []

    @property
    @abc.abstractmethod
    def num_shards(self) -> int:
        """Current shard executor count."""

    def local_indexes(self) -> List[AlexIndex]:
        """The in-process shard objects, when the backend has them (the
        thread backend's escape hatch for tests and tooling)."""
        raise NotImplementedError(
            f"the {self.name!r} backend does not host shards in-process; "
            "use snapshot()")

    def obs_snapshots(self) -> List[Optional[dict]]:
        """Metrics-registry snapshots from every *other* process hosting
        shards.  Empty for in-process backends — their shards record
        straight into the facade's registry, and returning it per shard
        would multiply every count by the shard fan-out when merged."""
        return []

    def trace_snapshots(self) -> List[Optional[dict]]:
        """Flight-recorder drains from every *other* process hosting
        shards (primaries and replica workers).  Empty for in-process
        backends — their spans commit straight into the facade's
        recorder."""
        return []

    def close(self) -> None:
        """Release executors, pools, workers, and shared segments."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class ThreadBackend(ExecutionBackend):
    """In-process shards scattered over a shared thread pool.

    The PR 2 scatter-gather, extracted behind the backend interface: one
    :class:`AlexIndex` per shard, sub-batches submitted as lock-free
    thunks to a lazily created ``ThreadPoolExecutor``.  With one worker
    (or one task) everything runs inline — on a single core the fan-out
    would be pure overhead.
    """

    name = "thread"

    def __init__(self, config: AlexConfig, policy: AdaptationPolicy,
                 max_workers: int = 1):
        self._config = config
        self._policy = policy
        self.max_workers = max(1, max_workers)
        self.indexes: List[AlexIndex] = []
        #: Per-shard replica slot, spliced in lockstep with ``indexes``
        #: by :meth:`replace` so positions stay aligned across SMOs.
        self._replicas: List[Optional[object]] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_guard = Lock()
        # Kernel warmup belongs to provisioning, not the first request;
        # GIL-releasing compiled kernels are also what lets this backend's pool
        # actually scale across cores.
        with obs.span("kernel.warm"):
            get_kernels(config.kernel_backend).warm()

    # -- lifecycle ----------------------------------------------------

    def provision(self, parts: Sequence[tuple]) -> None:
        self.indexes = []
        for keys, payloads in parts:
            if isinstance(payloads, np.ndarray):  # a numeric column slice
                payloads = payloads.tolist()
            self.indexes.append(build_shard(keys, payloads, self._config,
                                            self._policy))
        self._replicas = [None] * len(self.indexes)

    def adopt(self, indexes: List[AlexIndex]) -> None:
        self.indexes = list(indexes)
        self._replicas = [None] * len(self.indexes)

    def close(self) -> None:
        for shard in range(len(self._replicas)):
            self.drop_replica(shard)
        with self._pool_guard:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # -- execution ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.indexes)

    def local_indexes(self) -> List[AlexIndex]:
        return self.indexes

    def _executor(self) -> Optional[ThreadPoolExecutor]:
        if self.max_workers <= 1:
            return None
        with self._pool_guard:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="alex-shard")
        return self._pool

    def _run_tasks(self, tasks: list) -> list:
        """Run thunks, in parallel when a pool exists; gather in order.

        Tasks must be lock-free: the facade acquires every involved shard
        lock *before* scattering.  A task that blocked on a lock inside
        the bounded shared pool could starve the very caller holding that
        lock of pool slots — a deadlock.  All futures are awaited before
        the first exception propagates, so no task is still touching a
        shard when the caller releases the locks.
        """
        pool = self._executor() if len(tasks) > 1 else None
        if pool is None:
            return [task() for task in tasks]
        # Pool threads don't inherit contextvars: re-bind each thunk to
        # the caller's trace context so shard-op spans stay in the tree
        # (trace.bound is the identity when the caller is untraced).
        futures = [pool.submit(trace.bound(task)) for task in tasks]
        wait(futures)
        return [f.result() for f in futures]

    def call(self, shard: int, method: str, *args):
        return run_shard_op(self.indexes[shard], method, *args)

    def scatter(self, calls: Sequence[Call]) -> list:
        return self._run_tasks([
            (lambda s=shard, m=method, a=args:
             run_shard_op(self.indexes[s], m, *a))
            for shard, method, args in calls
        ])

    def scatter_batch(self, batch: np.ndarray,
                      jobs: Sequence[BatchJob]) -> list:
        return self._run_tasks([
            (lambda s=shard, m=method, lo=lo, hi=hi, e=extra:
             run_shard_op(self.indexes[s], m, batch[lo:hi], *e))
            for shard, method, lo, hi, extra in jobs
        ])

    # -- structure ----------------------------------------------------

    def snapshot(self, shard: int) -> Tuple[np.ndarray, Optional[list]]:
        return export_arrays(self.indexes[shard])

    def replace(self, start: int, stop: int, parts: Sequence[tuple],
                inherit: Sequence[Sequence[int]]) -> None:
        fresh = []
        for (keys, payloads), sources in zip(parts, inherit):
            index = build_shard(keys, payloads, self._config, self._policy)
            for old in sources:
                index.counters.merge(self.indexes[old].counters)
            fresh.append(index)
        # Outgoing replicas tail directories the SMO is about to delete;
        # stop them before the splice (the facade re-attaches fresh ones
        # once the rewritten durability dirs exist).
        for shard in range(start, stop):
            self.drop_replica(shard)
        self.indexes[start:stop] = fresh
        self._replicas[start:stop] = [None] * len(fresh)

    def counters(self, shard: int) -> Counters:
        return self.indexes[shard].counters.snapshot()

    # -- replication ---------------------------------------------------

    def add_replicas(self, roots: Dict[int, str]) -> None:
        from repro.replication import Replica
        for shard, root in roots.items():
            self.drop_replica(shard)
            self._replicas[shard] = Replica(root, config=self._config,
                                            policy=self._policy).start()

    def has_replica(self, shard: int) -> bool:
        return (shard < len(self._replicas)
                and self._replicas[shard] is not None)

    def replica_read(self, shard: int, method: str, args: tuple = (),
                     min_lsn: int = 0,
                     max_staleness_s: Optional[float] = None):
        replica = self._replicas[shard] if self.has_replica(shard) else None
        if replica is None:
            from repro.core.errors import ReplicaUnavailableError
            raise ReplicaUnavailableError(f"shard {shard} has no replica")
        return replica.read(method, args, min_lsn=min_lsn,
                            max_staleness_s=max_staleness_s)

    def replica_status(self, shard: int) -> Optional[dict]:
        if not self.has_replica(shard):
            return None
        return self._replicas[shard].status()

    def promote_replica(self, shard: int) -> int:
        if not self.has_replica(shard):
            from repro.core.errors import ReplicaUnavailableError
            raise ReplicaUnavailableError(f"shard {shard} has no replica")
        replica = self._replicas[shard]
        self._replicas[shard] = None
        self.indexes[shard] = replica.promote()
        return replica.applied_lsn

    def drop_replica(self, shard: int) -> None:
        if self.has_replica(shard):
            replica = self._replicas[shard]
            self._replicas[shard] = None
            replica.stop()


def make_backend(backend, config: AlexConfig, policy: AdaptationPolicy,
                 max_workers: int = 1,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT
                 ) -> ExecutionBackend:
    """Resolve a backend spec — ``"thread"``, ``"process"``, or an
    already-constructed :class:`ExecutionBackend` — into an instance.

    ``max_workers`` is the thread backend's pool width; the process
    backend runs one worker process per shard.  ``max_inflight`` is the
    process backend's per-worker in-flight request budget (pipelined RPC
    admission control); the thread backend has no pipe to pipeline.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "thread":
        return ThreadBackend(config, policy, max_workers=max_workers)
    if backend == "process":
        from .worker import ProcessBackend
        return ProcessBackend(config, policy, max_inflight=max_inflight)
    raise ValueError(f"unknown backend {backend!r}; "
                     "choose 'thread' or 'process'")
