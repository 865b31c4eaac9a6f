"""Pluggable execution backends for the sharded index service.

:class:`~repro.serve.sharded.ShardedAlexIndex` is a *facade*: it owns the
router, the two-level lock hierarchy, the per-shard access statistics, and
the adaptation policy — but it never touches a shard directly.  Every
shard operation goes through an :class:`ExecutionBackend`, which decides
*where the shard's ALEX tree lives and which parallelism executes it*:

* :class:`ThreadBackend` — shards are in-process :class:`AlexIndex`
  objects, and a scatter runs their calls one after another on the
  caller's thread.  Cheap and zero-setup; shard work is Python that holds
  the GIL between short kernel calls, so on the 2-core host where it was
  measured a thread pool added GIL hand-offs, not parallelism.
* :class:`~repro.serve.worker.ProcessBackend` — each shard lives in a
  long-lived worker process, forked from one preloaded
  ``multiprocessing`` forkserver.  Whole shards, carved sub-batches and
  replies all travel by value in pipelined, pickled pipe RPC frames, and
  the workers execute truly in parallel — real multi-core wall clock
  for Python-heavy batch work.

The backend contract is deliberately narrow — provision or recover, RPC
(``call`` / ``scatter`` / ``scatter_batch``), snapshot, and replace — so
the facade's locking, routing, statistics, and all-or-nothing write
orchestration are *identical* under both backends, and the equivalence
test suite runs byte-for-byte the same against either.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.alex import AlexIndex, export_arrays
from repro.core.config import AlexConfig
from repro.core.data_node import blank_column, payload_column
from repro.core.errors import ReplicaUnavailableError
from repro.core.introspect import payload_footprint
from repro.core.kernels import get_kernels
from repro.core.policy import AdaptationPolicy
from repro.core.stats import Counters
from repro.durability.recover import RecoveryResult, rebuild_shard
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


def run_all(tasks: Sequence) -> list:
    """Call every thunk in order and return the results in order.  Every
    thunk runs before the first raised exception propagates, so a failing
    shard call never skips the shards after it (the
    :meth:`ExecutionBackend.scatter` contract)."""
    results, first_error = [], None
    for task in tasks:
        try:
            results.append(task())
        except BaseException as exc:
            if first_error is None:
                first_error = exc
            results.append(None)
    if first_error is not None:
        raise first_error
    return results


class WorkerDiedError(RuntimeError):
    """A shard executor died mid-conversation: a primary or replica
    worker process.

    Carries the shard position (when known) so a durability-enabled
    facade can respawn exactly the dead executor from its last checkpoint
    plus WAL tail instead of poisoning the whole service.
    """

    def __init__(self, shard: Optional[int], detail: str):
        where = "shard executor" if shard is None else f"shard {shard}"
        super().__init__(f"{where} died: {detail}")
        self.shard = shard


def _op_persist_to(index: AlexIndex, path: str) -> int:
    """Save the shard's full index to ``path`` via
    :mod:`repro.durability.persistence` — the executor-side half of a
    checkpoint.  Runs *inside* the worker for process-hosted shards, so
    the snapshot never crosses the pipe; returns the key count saved."""
    from repro.durability.persistence import save_index
    save_index(index, path)
    return len(index)


def _op_key_bounds(index: AlexIndex):
    """``(first_key, last_key)`` or ``(None, None)`` when empty.

    Walks the leaf chain and reads each non-empty leaf's edge keys — no
    boxed-float list of the whole shard is ever materialized.
    """
    first = last = None
    for leaf in index.leaves():
        if leaf.num_keys:
            if first is None:
                first = leaf.min_key()
            last = leaf.max_key()
    return first, last


def _op_introspect(index: AlexIndex) -> dict:
    """One shard's shape and payload storage (the dtype and bytes of its
    payload columns show why a worker's RSS is what it is)."""
    dtype, nbytes = payload_footprint(index)
    return {"num_keys": len(index), "leaves": index.num_leaves(),
            "depth": index.depth(), "payload_dtype": dtype,
            "payload_bytes": nbytes}


#: Named operations that are not plain index methods.  Both backends
#: resolve methods through :func:`run_shard_op`, so a worker process and
#: an in-process thread execute the exact same code against a shard.
SHARD_OPS = {
    "num_keys": lambda index: len(index),
    "items_list": lambda index: list(index.items()),
    "counters_snapshot": lambda index: index.counters.snapshot(),
    "key_bounds": _op_key_bounds,
    "introspect": _op_introspect,
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


class _MissingType:
    """The coalesced-read miss sentinel.

    Ingress lanes batch requests with *different* defaults into one
    facade ``get_many`` call, so the call itself uses this sentinel as
    the default and the distributor substitutes each request's own
    default (or raises, for ``lookup``).  It travels to shard workers and
    back inside result lists, so unpickling must return the canonical
    singleton — identity (``value is MISSING``) is the miss test — by a
    path every worker has imported: this module, not the asyncio ingress.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<repro.missing>"

    def __reduce__(self):
        return _restore_missing, ()


MISSING = _MissingType()


def _restore_missing() -> _MissingType:
    return MISSING


def run_shard_op(index: AlexIndex, method: str, *args):
    """Execute one named operation against a shard index."""
    op = SHARD_OPS.get(method)
    if op is not None:
        return op(index, *args)
    # trace.span: a plain histogram span normally, a child span of the
    # request's trace when the RPC frame carried a context over.
    with trace.span("shard.op." + method):
        return getattr(index, method)(*args)


def shard_part(keys, payloads) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's contents as the backends take them: ``float64`` keys
    and a payload column.  ``None`` payloads become an ``object`` column
    of ``None``, a list or other sequence becomes
    :func:`~repro.core.data_node.payload_column` of it, and a column
    stays as it is."""
    keys = np.asarray(keys, dtype=np.float64)
    if payloads is None:
        return keys, blank_column(len(keys), object)
    if not isinstance(payloads, np.ndarray):
        payloads = payload_column(payloads)
    return keys, payloads


def build_shard(keys: np.ndarray, payloads: np.ndarray,
                config: AlexConfig, policy: AdaptationPolicy) -> AlexIndex:
    """Bulk-load one shard from its keys and payload column, which
    keeps its dtype (empty parts become empty indexes).

    The part need not be sorted: a sharded bulk load only partitions its
    pairs into the shards' key ranges, and the shard sorts its own part
    here (:meth:`AlexIndex.from_column`), raising
    :class:`~repro.core.errors.DuplicateKeyError` on a repeated key.  On
    the thread backend the part is a slice of the facade's partitioned
    arrays, which the sort leaves as they are; a process-backend worker
    owns its decoded load frame and sorts it before this call, so it can
    drop the frame before the build."""
    if len(keys) == 0:
        return AlexIndex(config, policy=policy)
    return AlexIndex.from_column(keys, payloads, config=config,
                                 policy=policy)


class ExecutionBackend(abc.ABC):
    """Where shards live and how scattered sub-batches execute.

    The facade holds every lock before invoking the backend; backend
    implementations only move data and run shard methods.  ``parts``
    throughout are ``(keys, payload column)`` tuples in shard order, as
    :func:`shard_part` makes them.
    """

    name: str = "?"

    #: The configuration new shards are built with.
    config: AlexConfig

    @abc.abstractmethod
    def provision(self, parts: Sequence[tuple]) -> None:
        """Create one shard executor per ``(keys, payload column)``
        part."""

    @abc.abstractmethod
    def recover(self, roots: Sequence[str]) -> List[RecoveryResult]:
        """Create one shard executor per durability directory, each
        rebuilding its shard from it; returns their reports, without
        the indexes (:func:`~repro.durability.recover.rebuild_shard`)."""

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
    def snapshot(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """The shard's full sorted ``(keys, payload column)``
        contents."""

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

    def respawn(self, shard: int, root: str) -> RecoveryResult:
        """Replace one dead executor with one that rebuilds the shard
        from its (flushed) durability directory ``root``, and return the
        rebuild's report (the crash-recovery half of
        :class:`WorkerDiedError`)."""
        raise NotImplementedError(
            f"the {self.name!r} backend has no executor to respawn")

    # -- replication (optional per-backend capability) -----------------
    #
    # A backend may host one replica beside each primary, fed the frames
    # the facade logs for that shard.  The facade routes `replica_ok` /
    # `read_your_writes` reads here and promotes on primary death;
    # backends without the capability keep the defaults, which make
    # every replica read fall back to primary.

    def add_replicas(self, roots: Dict[int, str]) -> None:
        """Install a replica per ``{shard: durability dir}`` entry, each
        bootstrapping from its directory (the caller holds those shards'
        write locks and has flushed their WALs).  May return before the
        bootstraps finish; :meth:`await_replicas` waits for them."""
        raise NotImplementedError(
            f"the {self.name!r} backend does not host replicas")

    def await_replicas(self, shards: Sequence[int]) -> None:
        """Block until ``shards``' replicas have bootstrapped."""

    def push_frame(self, shard: int, record: bytes) -> None:
        """Hand ``shard``'s replica (if any) the bytes of a WAL record
        just appended, without waiting for it.  Never raises: a replica
        that cannot decode or apply it reads as dead
        (:meth:`dead_replicas`)."""

    def has_replica(self, shard: int) -> bool:
        return False

    def replica_read(self, shard: int, method: str, args: tuple = (),
                     min_lsn: int = 0,
                     max_staleness_s: Optional[float] = None):
        """Serve one read from ``shard``'s replica within the bounds, or
        raise ``ReplicaStaleError`` / ``ReplicaUnavailableError`` (or
        :class:`WorkerDiedError` for a process-hosted replica) — all of
        which the facade turns into a primary fallback."""
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
        raise ReplicaUnavailableError(
            f"the {self.name!r} backend has no replica for shard {shard}")

    def drop_replica(self, shard: int) -> None:
        """Detach and release ``shard``'s replica (idempotent)."""

    def dead_replicas(self) -> List[int]:
        """Shard positions whose *replica* executor died."""
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
        """Release executors, pools and workers."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class ThreadBackend(ExecutionBackend):
    """In-process shards run on the caller's thread.

    One :class:`AlexIndex` per shard.  A scatter runs its calls one after
    another.  Shard work holds the GIL between short kernel calls: on a
    2-core host a thread pool over the shards was slower at every measured
    batch size, 16 to 1M keys.  Hosts with more cores were not measured;
    the cffi kernels release the GIL, so there very large batches might
    overlap kernel time across shards.
    """

    name = "thread"

    def __init__(self, config: AlexConfig, policy: AdaptationPolicy):
        self.config = config
        self._policy = policy
        self.indexes: List[AlexIndex] = []
        # Kernel warmup belongs to provisioning, not the first request.
        with trace.span("kernel.warm"):
            get_kernels(config.kernel_backend).warm()

    # -- lifecycle ----------------------------------------------------

    def provision(self, parts: Sequence[tuple]) -> None:
        self.indexes = [build_shard(keys, payloads, self.config,
                                    self._policy)
                        for keys, payloads in parts]

    def recover(self, roots: Sequence[str]) -> List[RecoveryResult]:
        recoveries = [rebuild_shard(root, self.config, self._policy)
                      for root in roots]
        self.indexes = [recovery.index for recovery in recoveries]
        return [recovery.detached() for recovery in recoveries]

    # -- execution ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.indexes)

    def local_indexes(self) -> List[AlexIndex]:
        return self.indexes

    def call(self, shard: int, method: str, *args):
        return run_shard_op(self.indexes[shard], method, *args)

    def scatter(self, calls: Sequence[Call]) -> list:
        return run_all([
            (lambda s=shard, m=method, a=args:
             run_shard_op(self.indexes[s], m, *a))
            for shard, method, args in calls
        ])

    def scatter_batch(self, batch: np.ndarray,
                      jobs: Sequence[BatchJob]) -> list:
        return run_all([
            (lambda s=shard, m=method, lo=lo, hi=hi, e=extra:
             run_shard_op(self.indexes[s], m, batch[lo:hi], *e))
            for shard, method, lo, hi, extra in jobs
        ])

    # -- structure ----------------------------------------------------

    def snapshot(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        return export_arrays(self.indexes[shard])

    def replace(self, start: int, stop: int, parts: Sequence[tuple],
                inherit: Sequence[Sequence[int]]) -> None:
        fresh = []
        for (keys, payloads), sources in zip(parts, inherit):
            index = build_shard(keys, payloads, self.config, self._policy)
            for old in sources:
                index.counters.merge(self.indexes[old].counters)
            fresh.append(index)
        self.indexes[start:stop] = fresh

    def counters(self, shard: int) -> Counters:
        return self.indexes[shard].counters.snapshot()


def make_backend(backend, config: AlexConfig, policy: AdaptationPolicy,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT
                 ) -> ExecutionBackend:
    """Resolve a backend spec — ``"thread"``, ``"process"``, or an
    already-constructed :class:`ExecutionBackend` — into an instance.

    ``max_inflight`` is the process backend's per-worker in-flight
    request budget (pipelined RPC admission control); the thread backend
    has no pipe to pipeline.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "thread":
        return ThreadBackend(config, policy)
    if backend == "process":
        from .worker import ProcessBackend
        return ProcessBackend(config, policy, max_inflight=max_inflight)
    raise ValueError(f"unknown backend {backend!r}; "
                     "choose 'thread' or 'process'")
