"""The sharded index service: partitioned ALEX shards behind one facade.

:class:`ShardedAlexIndex` partitions the key space into N independent
:class:`~repro.core.alex.AlexIndex` shards behind a
:class:`~repro.serve.router.ShardRouter` fitted at bulk load.  Batch
operations scatter-gather: the request batch is sorted once, carved into
contiguous per-shard sub-batches (``ShardRouter.split_batch``), and each
sub-batch executes through the shard's vectorized batch engine.  *Where*
the shards live and *what parallelism* executes the sub-batches is
pluggable (``backend="thread" | "process"``):

* the :class:`~repro.serve.backend.ThreadBackend` keeps shards in-process
  and fans out over a ``ThreadPoolExecutor`` — cheap, but GIL-serialized
  for Python-level work;
* the :class:`~repro.serve.worker.ProcessBackend` hosts each shard in a
  long-lived worker process, ships batches through shared memory
  (zero-copy reads), and achieves real multi-core wall-clock scaling.

Locking granularity (two levels, identical under both backends):

* a *structure* reader/writer lock, held shared by every operation and
  exclusively by shard splits/merges, so the router and shard list never
  change under an in-flight request;
* one *shard* reader/writer lock per shard — lookups and scans share it,
  inserts/deletes/updates take it exclusively — acquired only for the
  shards a request actually touches, always in shard order.

**One read path.**  Every read shape — point, batch, scan and range —
builds one job per touched shard and hands the jobs to
:meth:`ShardedAlexIndex._route_reads`.  When the read's
:class:`~repro.serve.options.ReadOptions` allow it, each job first tries
its shard's replica; the jobs whose replica is stale, missing or dead
fall back to the primaries as one scatter under their shared locks.

**One write path.**  Every write, scalar or batch, goes through
:meth:`ShardedAlexIndex._write`: the keys are carved and their shards
write-locked, then *validated* on every involved shard, then *logged*
(one WAL frame per written shard), and only then *applied*.  A failed
validation leaves no frame and no mutation, so cross-shard batches stay
all-or-nothing; and no shard ever shows a write whose frame does not
exist yet, so a worker that dies mid-apply is settled by WAL replay or
replica promotion.  Writes to different shards hold different locks, so
they never serialize against each other.

Serving-tier structural adaptation routes through the same
:class:`~repro.core.policy.AdaptationPolicy` object the shards' trees
consult: :meth:`ShardedAlexIndex.rebalance` hands the policy per-shard
access tallies and applies the SMO it picks — a hot-shard median *split*
(halving what one shard lock serializes) or, under
:class:`~repro.core.policy.CostModelPolicy`, a cold-shard *merge* (the
inverse, folding an adjacent pair whose combined traffic fell far below a
fair share).  Either SMO re-provisions the affected shard executors
through the backend (the process backend retires the old workers and
starts fresh ones over new shared segments).  After either SMO the access
windows decay rather than reset, and a split divides the victim's tallies
between its halves, so the next policy evaluation is never biased by
stale or wiped windows.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs import trace
from repro.core.alex import AlexIndex
from repro.core.batch import export_arrays
from repro.core.config import AlexConfig
from repro.core.errors import (DuplicateKeyError, KeyNotFoundError,
                               PersistenceError, ReplicaStaleError,
                               ReplicaUnavailableError)
from repro.core.policy import (AdaptationPolicy, HeuristicPolicy,
                               ShardSummary)
from repro.core.stats import Counters
from repro.durability import (DEFAULT_CHECKPOINT_EVERY, OP_DELETE,
                              OP_ERASE, OP_INSERT, OP_UPSERT,
                              ShardedDurability, encode_payloads)
from repro.ext.concurrent import ReadWriteLock

from .backend import (DEFAULT_MAX_INFLIGHT, ExecutionBackend,
                      WorkerDiedError, make_backend)
from .options import (READ_YOUR_WRITES, ReadOptions, WriteToken,
                      resolve_read_options)
from .router import ShardRouter

#: Exceptions that route a replica-eligible read back to the primary.
#: ``WorkerDiedError`` here is a *replica* worker's death — it degrades
#: routing (and triggers replica repair), never the caller's read.
_REPLICA_FALLBACKS = (ReplicaStaleError, ReplicaUnavailableError,
                      WorkerDiedError)

#: Factor applied to every shard's access tallies after a structural
#: change (split or merge): the observation window renormalizes instead of
#: carrying raw counts into a layout they no longer describe, and instead
#: of being wiped entirely (which would blind the next policy evaluation).
STATS_DECAY = 0.5


def _expect(present: bool, error):
    """A :meth:`ShardedAlexIndex._write` validation predicate requiring
    every key's membership to equal ``present`` (raising ``error`` on the
    first key that differs); every group is then written."""
    def check(keys: np.ndarray, groups: list, hits: list) -> list:
        for (_, lo, _), shard_hits in zip(groups, hits):
            bad = np.flatnonzero(shard_hits != present)
            if bad.size:
                raise error(float(keys[lo + int(bad[0])]))
        return [(group, group[2] - group[1]) for group in groups]
    return check


#: Inserts need every key absent, deletes and updates every key present.
_all_absent = _expect(False, DuplicateKeyError)
_all_present = _expect(True, KeyNotFoundError)


def _present_groups(keys: np.ndarray, groups: list, hits: list) -> list:
    """The erase predicate: write only the groups holding at least one
    of their keys, each tallied by the keys it loses."""
    counts = [int(np.count_nonzero(shard_hits)) for shard_hits in hits]
    return [(group, count) for group, count in zip(groups, counts) if count]


@dataclass
class ShardStats:
    """Per-shard access tallies maintained by the serving layer (the input
    to the shard split/merge policy)."""

    reads: int = 0
    writes: int = 0
    scans: int = 0

    def __post_init__(self) -> None:
        # Read locks are shared, so concurrent batches tally the same
        # shard; a mutex keeps the read-modify-write increments exact.
        self._mutex = threading.Lock()

    def __getstate__(self) -> dict:
        # The mutex is process-local state: pickling a live stats object
        # (worker seeds, persisted services) carries only the tallies.
        state = self.__dict__.copy()
        state.pop("_mutex", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mutex = threading.Lock()

    def as_dict(self) -> dict:
        """Snapshot form: plain tallies, safe to pickle/merge/JSON."""
        with self._mutex:
            return {"reads": self.reads, "writes": self.writes,
                    "scans": self.scans}

    def add(self, reads: int = 0, writes: int = 0, scans: int = 0) -> None:
        """Atomically add to the tallies (one call per sub-batch)."""
        with self._mutex:
            self.reads += reads
            self.writes += writes
            self.scans += scans

    @property
    def accesses(self) -> int:
        """Total operations routed to the shard."""
        return self.reads + self.writes + self.scans

    def reset(self) -> None:
        with self._mutex:
            self.reads = self.writes = self.scans = 0

    def decay(self, factor: float = STATS_DECAY) -> None:
        """Scale the tallies in place (window renormalization after a
        structural change)."""
        with self._mutex:
            self.reads = int(self.reads * factor)
            self.writes = int(self.writes * factor)
            self.scans = int(self.scans * factor)

    def split(self) -> Tuple["ShardStats", "ShardStats"]:
        """Two fresh stats objects carrying half this shard's tallies each
        (a split shard's history divides between its halves — neither half
        starts blind, and the total is preserved up to rounding)."""
        with self._mutex:
            left = ShardStats(self.reads // 2, self.writes // 2,
                              self.scans // 2)
            right = ShardStats(self.reads - left.reads,
                               self.writes - left.writes,
                               self.scans - left.scans)
        return left, right

    def merged_with(self, other: "ShardStats") -> "ShardStats":
        """A fresh stats object carrying both shards' tallies (the merge
        counterpart of :meth:`split`, keeping totals symmetric)."""
        with self._mutex:
            reads, writes, scans = self.reads, self.writes, self.scans
        with other._mutex:
            return ShardStats(reads + other.reads, writes + other.writes,
                              scans + other.scans)


class ShardedAlexIndex:
    """A scatter-gather facade over key-range-partitioned ALEX shards.

    Build with :meth:`bulk_load`, which fits the shard router's equal-mass
    boundaries from the loaded keys' empirical CDF.  Every batch operation
    of the single-index API is available and returns results identical to a
    single :class:`AlexIndex` over the same data; scalar operations route
    through the same locks with a single-shard touch.

    Parameters
    ----------
    config:
        The per-shard :class:`AlexConfig` (each shard is an independent
        ALEX with its own RMI).
    router:
        Key-space partitioner; defaults to a single shard.
    max_workers:
        Thread-backend scatter-gather thread count.  Defaults to one
        worker per core (at most one per shard); with a single worker,
        sub-batches execute inline — on a single-core host the fan-out is
        then pure overhead, so the thread backend skips the pool entirely.
        The process backend always runs one worker process per shard.
    shards:
        Prebuilt in-process shard indexes to take over (must match the
        router's shard count).  With the process backend their contents
        and counter history migrate into the workers.
    policy:
        The adaptation policy consulted for every structural decision,
        from leaf SMOs inside the shards up to shard split/merge.
    backend:
        ``"thread"`` (default), ``"process"``, or a constructed
        :class:`~repro.serve.backend.ExecutionBackend`.
    max_inflight:
        Process-backend pipelining budget: how many requests may be
        outstanding per worker pipe before further submitters block
        (default 8).  ``1`` restores strict call-and-wait RPC; the
        thread backend ignores the knob.
    replicate:
        Host a WAL-shipping replica beside each shard's primary
        (requires durability — replicas are log followers).  Reads
        carrying ``options=ReadOptions.replica_ok(...)`` or
        ``read_your_writes`` route to the replicas, and a primary
        worker death *promotes* the shard's replica (checkpoint +
        continuously shipped tail) instead of cold-respawning, so
        serving continues through the crash.
    """

    def __init__(self, config: Optional[AlexConfig] = None,
                 router: Optional[ShardRouter] = None,
                 max_workers: Optional[int] = None,
                 shards: Optional[List[AlexIndex]] = None,
                 policy: Optional[AdaptationPolicy] = None,
                 backend: "str | ExecutionBackend" = "thread",
                 parts: Optional[list] = None,
                 durability_dir: Optional[str] = None,
                 fsync: str = "batch",
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 durability: Optional[ShardedDurability] = None,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 replicate: bool = False):
        self.config = config or AlexConfig()
        # One adaptation policy serves every layer: the shards' leaf/tree
        # SMOs and this facade's shard split/merge decisions.
        self.policy = policy or HeuristicPolicy()
        self.router = router or ShardRouter(np.empty(0))
        num_shards = self.router.num_shards
        if max_workers is None:
            max_workers = min(num_shards, os.cpu_count() or 1)
        self.max_workers = max(1, max_workers)
        if shards is not None and parts is not None:
            raise ValueError("pass prebuilt shards or raw parts, not both")
        if shards is not None and len(shards) != num_shards:
            raise ValueError(f"{len(shards)} shards for a "
                             f"{num_shards}-range router")
        if parts is None:
            parts = [(np.empty(0), None)] * num_shards
        elif len(parts) != num_shards:
            raise ValueError(f"{len(parts)} parts for a "
                             f"{num_shards}-range router")
        if durability is not None and durability_dir is not None:
            raise ValueError(
                "pass an attached durability object or a directory, "
                "not both")
        if durability is not None and durability.num_shards != num_shards:
            raise PersistenceError(
                f"durability tree holds {durability.num_shards} "
                f"shards but the router expects {num_shards}")
        if replicate and durability is None and durability_dir is None:
            raise ValueError(
                "replicate=True needs durability (a replica is a "
                "WAL follower — pass durability_dir=)")
        self._shard_locks: List[ReadWriteLock] = [
            ReadWriteLock() for _ in range(num_shards)
        ]
        self._structure_lock = ReadWriteLock()
        self.stats: List[ShardStats] = [ShardStats()
                                        for _ in range(num_shards)]
        #: How each shard was reconstructed (set by :meth:`recover`).
        self.last_recovery = None
        self._durability = durability
        self._replicate = bool(replicate)
        self._replica_repair_lock = threading.Lock()
        self._closing = False
        self._backend = make_backend(backend, config=self.config,
                                     policy=self.policy,
                                     max_workers=self.max_workers,
                                     max_inflight=max_inflight)
        try:
            # Every shard executor starts at once: the process backend
            # boots and loads all its workers in parallel.
            if shards is not None:
                self._backend.adopt(shards)
            else:
                self._backend.provision(parts)
            if durability_dir is not None:
                self._durability = ShardedDurability(
                    durability_dir, fsync=fsync,
                    checkpoint_every=checkpoint_every)
                self._durability.create(self.router.boundaries)
                # Generation-zero checkpoints: the freshly provisioned
                # contents (e.g. the bulk load) recover from snapshots,
                # never from WAL replay.  Shards' durability states are
                # independent, so every shard's snapshot is written at
                # once.
                with ThreadPoolExecutor(max_workers=num_shards) as pool:
                    list(pool.map(self._checkpoint_shard,
                                  range(num_shards)))
            if self._replicate:
                self._attach_replicas(range(num_shards))
        except BaseException:
            self.close()
            raise

    @classmethod
    def bulk_load(cls, keys, payloads: Optional[list] = None,
                  num_shards: int = 8,
                  config: Optional[AlexConfig] = None,
                  max_workers: Optional[int] = None,
                  policy: Optional[AdaptationPolicy] = None,
                  backend: "str | ExecutionBackend" = "thread",
                  durability_dir: Optional[str] = None,
                  fsync: str = "batch",
                  checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                  max_inflight: int = DEFAULT_MAX_INFLIGHT,
                  replicate: bool = False
                  ) -> "ShardedAlexIndex":
        """Partition ``keys`` into ``num_shards`` near-equal-mass shards
        and bulk-load each one.

        The router's boundaries are fitted from the keys' empirical CDF, so
        skewed distributions still produce balanced shards.  Raises
        :class:`DuplicateKeyError` on repeated keys, like
        :meth:`AlexIndex.bulk_load`.  With ``backend="process"`` each
        shard bulk-loads inside its own worker process, and the builds
        run in parallel: every worker starts, then every part is packed
        into shared memory and sent, and only then is any build awaited.
        With ``durability_dir`` the shards' generation-zero checkpoints
        are written at once too, and with ``replicate`` every replica
        bootstraps before any is awaited.
        """
        # A numeric payload list becomes one column, gathered in numpy
        # with the key order; each part is a slice of it, which the
        # process backend copies straight into shared memory.
        keys, payloads = AlexIndex._normalize_batch(keys, payloads,
                                                    column=True)
        router = ShardRouter.fit(keys, num_shards)
        edges = ([0] + np.searchsorted(keys, router.boundaries,
                                       side="left").tolist() + [len(keys)])
        parts = [(keys[edges[s]:edges[s + 1]],
                  payloads[edges[s]:edges[s + 1]])
                 for s in range(router.num_shards)]
        return cls(config=config, router=router, max_workers=max_workers,
                   policy=policy, backend=backend, parts=parts,
                   durability_dir=durability_dir, fsync=fsync,
                   checkpoint_every=checkpoint_every,
                   max_inflight=max_inflight, replicate=replicate)

    @classmethod
    def recover(cls, durability_dir: str,
                config: Optional[AlexConfig] = None,
                max_workers: Optional[int] = None,
                policy: Optional[AdaptationPolicy] = None,
                backend: "str | ExecutionBackend" = "thread",
                fsync: str = "batch",
                checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                replicate: bool = False
                ) -> "ShardedAlexIndex":
        """Reconstruct a durable sharded service from its directory tree:
        attach the topology manifest, recover every shard (latest
        checkpoint + WAL tail replay), and provision executors over the
        recovered contents on whichever backend is requested.

        The per-shard :class:`~repro.durability.recover.RecoveryResult`
        list lands in :attr:`last_recovery`.
        """
        durability = ShardedDurability(durability_dir, fsync=fsync,
                                       checkpoint_every=checkpoint_every)
        durability.attach()
        policy = policy or HeuristicPolicy()
        parts, recoveries = [], []
        for s in range(durability.num_shards):
            recovery = durability.recover_shard(s, config=config,
                                                policy=policy)
            parts.append(export_arrays(recovery.index))
            recoveries.append(recovery)
        if config is None and recoveries:
            # The checkpoint archives carry the per-shard AlexConfig the
            # service was built with; re-provision under it rather than
            # silently rebuilding every shard with defaults.
            config = recoveries[0].index.config
        router = ShardRouter(np.asarray(durability.boundaries,
                                        dtype=np.float64))
        service = cls(config=config, router=router,
                      max_workers=max_workers, policy=policy,
                      backend=backend, parts=parts, durability=durability,
                      replicate=replicate)
        service.last_recovery = recoveries
        return service

    # ------------------------------------------------------------------
    # Scatter-gather plumbing
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Current shard count (grows when hot shards split)."""
        return len(self.stats)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend hosting the shards."""
        return self._backend

    @property
    def shards(self) -> List[AlexIndex]:
        """The in-process shard indexes (thread backend only; the process
        backend hosts shards in workers — use :meth:`items` or the
        backend's ``snapshot``)."""
        return self._backend.local_indexes()

    @property
    def durability(self) -> Optional[ShardedDurability]:
        """The durability tree behind this service (``None`` when the
        service is purely in-memory)."""
        return self._durability

    def close(self) -> None:
        """Shut down the execution backend — the thread backend's worker
        pool, or the process backend's shard workers — and flush + close
        the durability tree (idempotent)."""
        self._closing = True
        self._backend.close()
        if self._durability is not None:
            self._durability.close()

    # ------------------------------------------------------------------
    # Durability plumbing: logging, checkpoints, crash respawn
    # ------------------------------------------------------------------

    def _log_groups(self, op: int, groups: list, keys: np.ndarray,
                    payloads: Optional[list] = None) -> Dict[int, int]:
        """Append one WAL frame per written shard (step 3 of
        :meth:`_write`: after validation, before the apply, under the
        shards' write locks).  Returns ``{shard: lsn}`` of the appended
        frames (empty without durability) — the raw material of the
        :class:`WriteToken` acked back to the client."""
        lsns: Dict[int, int] = {}
        if self._durability is None:
            return lsns
        # Every frame's payloads are encoded before any frame is
        # appended: a payload that does not pickle raises with no shard's
        # log moved, so recovery can never resurrect part of the batch.
        blobs = [None if payloads is None else encode_payloads(
                     payloads[lo:hi]) for _, lo, hi in groups]
        for (s, lo, hi), blob in zip(groups, blobs):
            lsns[s] = self._durability.log(s, op, keys[lo:hi], blob)
        return lsns

    def _persist_writer(self, shard: int):
        """A ``write_snapshot`` callback persisting shard ``shard``
        through the executor (inside the worker for process shards)."""
        return lambda tmp: self._retry_dead(
            lambda: self._backend.call(shard, "persist_to", tmp),
            involved=[shard])

    def _checkpoint_shard(self, shard: int) -> None:
        """Publish a checkpoint for one shard (its write lock, where one
        exists yet, must be held by the caller)."""
        counters = self._retry_dead(
            lambda: self._backend.counters(shard),
            involved=[shard]).as_dict()
        self._durability.checkpoint(shard, self._persist_writer(shard),
                                    counters=counters)

    def _maybe_checkpoint(self, shard: int) -> None:
        if (self._durability is not None
                and self._durability.should_checkpoint(shard)):
            self._checkpoint_shard(shard)

    def checkpoint(self) -> None:
        """Checkpoint every shard now (bounds the next recovery's replay
        to zero frames).  No-op without durability."""
        if self._durability is None:
            return
        with self._structure_lock.read():
            for s in range(self.num_shards):
                with self._shard_locks[s].write():
                    self._checkpoint_shard(s)

    def sync(self) -> None:
        """Hard durability barrier: fsync every shard's WAL (upgrades the
        ``batch``/``off`` fsync policies at this point)."""
        if self._durability is not None:
            self._durability.sync()

    # ------------------------------------------------------------------
    # Replication: tokens, replica routing, promotion
    # ------------------------------------------------------------------

    def _generation(self, shard: int) -> str:
        """The durability *generation* of shard ``shard`` — its current
        durability dirname.  :class:`WriteToken` LSNs are keyed by
        generation rather than shard position because SMOs renumber
        positions; a post-SMO generation starts from a generation-zero
        checkpoint that already contains every pre-SMO write, so a token
        holding only retired generations correctly demands nothing
        (``lsn_for`` → 0) from the new ones."""
        return self._durability.shard_state(shard).dirname

    def _token(self, lsns: Dict[int, int]) -> WriteToken:
        """Turn ``{shard: lsn}`` from a write's log step into the
        generation-keyed :class:`WriteToken` acked to the client."""
        if not lsns or self._durability is None:
            return WriteToken.empty()
        return WriteToken({self._generation(s): lsn
                           for s, lsn in lsns.items()})

    def write_token(self) -> WriteToken:
        """A token covering *everything logged so far* on every shard —
        the read-your-writes horizon for a client that did its writes
        through another handle (or wants a full barrier)."""
        if self._durability is None:
            return WriteToken.empty()
        with self._structure_lock.read():
            return WriteToken({
                self._generation(s):
                    self._durability.shard_state(s).wal.last_lsn
                for s in range(self.num_shards)})

    def _attach_replicas(self, shards: Sequence[int]) -> None:
        """Start (or restart) the replicas of ``shards``, each tailing
        its shard's own durability directory.  Every replica bootstraps
        before any is awaited."""
        self._backend.add_replicas({s: self._durability.shard_dir(s)
                                    for s in shards})
        obs.inc("serve.replica_attached", len(shards))

    def _replica_constraints(self, opts: ReadOptions,
                             shard: int) -> Tuple[int, Optional[float]]:
        """``(min_lsn, max_staleness_s)`` a replica read on ``shard``
        must satisfy under ``opts``."""
        min_lsn = 0
        if opts.consistency == READ_YOUR_WRITES:
            token = opts.token or WriteToken.empty()
            min_lsn = token.lsn_for(self._generation(shard))
        return min_lsn, opts.max_staleness_s

    def _try_replica(self, shard: int, method: str, args: tuple,
                     opts: ReadOptions):
        """One replica read attempt.  Raises one of
        ``_REPLICA_FALLBACKS`` when the primary path should take over; a
        dead replica worker additionally gets repaired in the background
        of the fallback (the primary is untouched either way)."""
        min_lsn, bound = self._replica_constraints(opts, shard)
        try:
            with trace.span("serve.replica_read", shard=shard):
                return self._backend.replica_read(
                    shard, method, args, min_lsn=min_lsn,
                    max_staleness_s=bound)
        except WorkerDiedError:
            obs.inc("serve.replica_deaths")
            obs.emit("replica.died", shard=shard)
            self._repair_replica_async(shard)
            raise ReplicaUnavailableError(
                f"replica for shard {shard} died") from None

    def _repair_replica_async(self, shard: int) -> None:
        """Respawn shard ``shard``'s replica off the request path: the
        fresh follower's bootstrap replays checkpoint + WAL tail, which
        can take as long as a cold recovery — no client read (nor the
        promotion that just failed over) should wait on it."""
        threading.Thread(target=self._repair_replica, args=(shard,),
                         name="alex-replica-repair", daemon=True).start()

    def _repair_replica(self, shard: int) -> None:
        """Respawn shard ``shard``'s replica if it is dead or missing
        (serialized: concurrent fallbacks repair once; the structure
        read lock keeps the attach from racing a split/merge/replace)."""
        if not self._replicate or self._closing:
            return
        with self._replica_repair_lock, self._structure_lock.read():
            if self._closing or shard >= self.num_shards:
                return
            if (shard in self._backend.dead_replicas()
                    or not self._backend.has_replica(shard)):
                try:
                    self._backend.drop_replica(shard)
                    self._attach_replicas([shard])
                except Exception:     # noqa: BLE001 - reads just fall back
                    obs.emit("replica.repair_failed", shard=shard)
                else:
                    obs.inc("serve.replica_respawns")

    def _promote_replica_locked(self, shard: int) -> bool:
        """Promote shard ``shard``'s replica over its dead primary
        (``shard``'s write lock held).  ``True`` on success; ``False``
        sends the caller down the cold checkpoint-replay respawn path.
        The replica drains the complete WAL tail before taking over —
        including the write-ahead frame of an interrupted apply — so the
        promoted worker's state matches what cold recovery would build,
        just without re-reading the checkpoint."""
        if not (self._replicate and self._backend.has_replica(shard)):
            return False
        try:
            with trace.span("serve.promote", shard=shard):
                # The primary appended its frames through a buffered file
                # handle; make every acked byte visible to the replica's
                # reader before it drains.
                with trace.span("wal.flush"):
                    self._durability.shard_state(shard).wal.flush()
                applied = self._backend.promote_replica(shard)
        except Exception as exc:      # noqa: BLE001 - any failure → cold path
            obs.emit("replica.promote_failed", shard=shard,
                     error=type(exc).__name__)
            self._backend.drop_replica(shard)
            return False
        obs.inc("serve.replica_promotions")
        obs.emit("replica.promote", shard=shard, applied_lsn=applied)
        # Stand up a fresh follower behind the promoted primary — in the
        # background: its bootstrap replays the same WAL tail the dead
        # primary accumulated, and the whole point of promotion is that
        # the interrupted client request does not wait for that.
        self._repair_replica_async(shard)
        return True

    def _respawn_dead(self, suspect: Optional[int] = None,
                      involved: Optional[List[int]] = None) -> bool:
        """Re-provision dead shard executors from their checkpoints +
        WAL tails; ``True`` when at least one worker was respawned.

        Repair is restricted to ``suspect`` (the shard whose pipe just
        broke — its process may not be reaped yet, but a broken pipe is
        definitive) plus the dead members of ``involved``, the shards
        whose locks the *caller* holds.  A dead shard outside that set
        is left for whoever holds (or next takes) its lock: replaying
        its WAL here would race an in-flight two-phase write that has
        appended its frame but not yet applied — the replay would apply
        the frame and the owner's apply scatter would then double-apply
        it through the unchecked path.

        The respawned worker's state is exactly what recovery after a
        full restart would rebuild — including any write-ahead frame
        whose apply the crash interrupted — so the caller can treat an
        interrupted *apply* as completed and must re-run an interrupted
        *read or validate* (which mutated nothing).
        """
        if self._durability is None:
            return False
        dead = set(self._backend.dead_shards())
        allowed = set(involved or ())
        if suspect is not None and suspect < self.num_shards:
            allowed.add(suspect)
            dead.add(suspect)
        repairable = sorted(dead & allowed)
        for s in repairable:
            # Hot path: fail over to the shard's replica — it is already
            # caught up to within its poll interval, so promotion skips
            # the checkpoint reload entirely.
            if self._promote_replica_locked(s):
                continue
            recovery = self._durability.recover_shard(
                s, config=self.config, policy=self.policy)
            keys, payloads = export_arrays(recovery.index)
            saved = self._durability.shard_state(s).manager.saved_counters()
            seed = Counters(**saved) if saved else None
            self._backend.respawn(s, keys, payloads, seed)
            obs.inc("serve.worker_respawns")
            obs.emit("worker.respawn", shard=s, keys=len(keys))
        return bool(repairable)

    def _retry_dead(self, thunk, retry: bool = True,
                    involved: Optional[List[int]] = None):
        """Run one backend interaction, absorbing a worker death when
        durability can repair it: the dead executors (among ``involved``,
        the shards this operation holds locks for) are respawned and the
        interaction re-runs (``retry=True``, for reads/validates and
        idempotent ops) or is considered settled by the WAL replay
        (``retry=False``, for the apply phase of a logged write)."""
        try:
            return thunk()
        except WorkerDiedError as exc:
            obs.inc("serve.worker_deaths")
            obs.emit("worker.died", shard=exc.shard, retry=retry)
            if not self._respawn_dead(exc.shard, involved):
                raise
            if retry:
                obs.inc("serve.worker_retries")
                return thunk()
            return None

    def __enter__(self) -> "ShardedAlexIndex":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _acquire_shards(self, shard_ids: List[int], write: bool) -> None:
        """Lock the given shards, in ascending shard order so concurrent
        batches can never acquire in conflicting orders (no deadlocks)."""
        for s in shard_ids:
            if write:
                self._shard_locks[s].acquire_write()
            else:
                self._shard_locks[s].acquire_read()

    def _release_shards(self, shard_ids: List[int], write: bool) -> None:
        for s in shard_ids:
            if write:
                self._shard_locks[s].release_write()
            else:
                self._shard_locks[s].release_read()

    # ------------------------------------------------------------------
    # Reads: one replica-or-primary routing path
    # ------------------------------------------------------------------

    def _route_reads(self, opts: ReadOptions, jobs: list,
                     batch: Optional[np.ndarray] = None) -> list:
        """Run one read job per shard and return the results in job order
        — the routing path every read shape shares.

        ``jobs`` are backend calls ``(shard, method, args)`` or, with
        ``batch``, carvings ``(shard, method, lo, hi, extra)`` of that
        sorted key batch, in ascending shard order (the lock order).  When
        ``opts`` allow a replica read and replicas exist, each job first
        tries its shard's replica; jobs whose replica is stale, missing or
        dead fall back to the primaries, which run as one scatter under
        their shared locks (carvings through ``scatter_batch``).  The
        caller holds the structure lock.
        """
        results: list = [None] * len(jobs)
        fallback = list(range(len(jobs)))
        if opts.wants_replica and self._replicate:
            fallback = []
            for i, job in enumerate(jobs):
                shard, method = job[0], job[1]
                args = (job[2] if batch is None
                        else (batch[job[2]:job[3]],) + job[4])
                try:
                    results[i] = self._try_replica(shard, method, args,
                                                   opts)
                except _REPLICA_FALLBACKS:
                    obs.inc("serve.replica_fallbacks")
                    fallback.append(i)
        if not fallback:
            return results
        primary = [jobs[i] for i in fallback]
        shard_ids = [job[0] for job in primary]
        self._acquire_shards(shard_ids, write=False)
        try:
            gathered = self._retry_dead(
                lambda: (self._backend.scatter(primary) if batch is None
                         else self._backend.scatter_batch(batch, primary)),
                involved=shard_ids)
        finally:
            self._release_shards(shard_ids, write=False)
        for i, result in zip(fallback, gathered):
            results[i] = result
        return results

    def _scatter_read(self, skeys: np.ndarray, method: str, *extra,
                      options: Optional[ReadOptions] = None):
        """The batch point reads: carve the sorted batch into per-shard
        groups, route ``shard.<method>(sub_batch, *extra)`` per group,
        and return ``(groups, results)``."""
        opts = resolve_read_options(options)
        with self._structure_lock.read():
            groups = list(self.router.split_batch(skeys))
            for s, lo, hi in groups:
                self.stats[s].add(reads=hi - lo)
            return groups, self._route_reads(
                opts, [(s, method, lo, hi, extra) for s, lo, hi in groups],
                batch=skeys)

    def _scalar_read(self, key: float, method: str, options):
        opts = resolve_read_options(options)
        with self._structure_lock.read():
            s = self.router.shard_for(key)
            # Misses are accesses too: tally before the probe.
            self.stats[s].add(reads=1)
            return self._route_reads(opts, [(s, method, (key,))])[0]

    @staticmethod
    def _stitch(groups: list, results: list, out: list,
                order: Optional[np.ndarray]) -> list:
        """Write per-shard result lists back into input order."""
        for (_, lo, hi), sub in zip(groups, results):
            dest = range(lo, hi) if order is None else order[lo:hi].tolist()
            for j, payload in zip(dest, sub):
                out[j] = payload
        return out

    @trace.traced("serve.lookup_many")
    def lookup_many(self, keys, *,
                    options: "ReadOptions | str | None" = None) -> list:
        """Batch lookup across shards; raises :class:`KeyNotFoundError`
        when any key is absent.  Identical to
        :meth:`AlexIndex.lookup_many` over the same data.  ``options``
        (a :class:`ReadOptions` or consistency-level string) routes the
        read to the shards' replicas; omitted, it reads the primaries."""
        skeys, order = AlexIndex._sort_batch(keys)
        if len(skeys) == 0:
            return []
        groups, results = self._scatter_read(skeys, "lookup_many",
                                             options=options)
        return self._stitch(groups, results, [None] * len(skeys), order)

    @trace.traced("serve.get_many")
    def get_many(self, keys, default=None, *,
                 options: "ReadOptions | str | None" = None) -> list:
        """Batch :meth:`AlexIndex.get_many` across shards."""
        skeys, order = AlexIndex._sort_batch(keys)
        if len(skeys) == 0:
            return []
        groups, results = self._scatter_read(skeys, "get_many", default,
                                             options=options)
        return self._stitch(groups, results, [default] * len(skeys), order)

    @trace.traced("serve.contains_many")
    def contains_many(self, keys, *,
                      options: "ReadOptions | str | None" = None
                      ) -> np.ndarray:
        """Vectorized membership test across shards."""
        skeys, order = AlexIndex._sort_batch(keys)
        n = len(skeys)
        result = np.zeros(n, dtype=bool)
        if n == 0:
            return result
        groups, results = self._scatter_read(skeys, "contains_many",
                                             options=options)
        for (_, lo, hi), hits in zip(groups, results):
            if order is None:
                result[lo:hi] = hits
            else:
                result[order[lo:hi]] = hits
        return result

    @trace.traced("serve.lookup")
    def lookup(self, key: float, *,
               options: "ReadOptions | str | None" = None):
        """Single-key lookup on the owning shard — shared-lock on the
        primary, or lock-free on its replica when ``options`` allows a
        (bounded-staleness or read-your-writes) replica read."""
        return self._scalar_read(float(key), "lookup", options)

    def get(self, key: float, default=None, *,
            options: "ReadOptions | str | None" = None):
        """Like :meth:`lookup` but returns ``default`` when absent."""
        try:
            return self.lookup(key, options=options)
        except KeyNotFoundError:
            return default

    @trace.traced("serve.contains")
    def contains(self, key: float, *,
                 options: "ReadOptions | str | None" = None) -> bool:
        """Whether ``key`` is present."""
        return self._scalar_read(float(key), "contains", options)

    @trace.traced("serve.range_scan")
    def range_scan(self, start_key: float, limit: int, *,
                   options: "ReadOptions | str | None" = None) -> list:
        """Up to ``limit`` pairs with key >= ``start_key``, in key order,
        continuing across shard boundaries as needed (one routed read
        per shard step)."""
        start_key = float(start_key)
        opts = resolve_read_options(options)
        out: list = []
        with self._structure_lock.read():
            for s in range(self.router.shard_for(start_key),
                           self.num_shards):
                self.stats[s].add(scans=1)
                out.extend(self._route_reads(
                    opts, [(s, "range_scan",
                            (start_key, limit - len(out)))])[0])
                if len(out) >= limit:
                    break
        return out

    @trace.traced("serve.range_query")
    def range_query(self, lo: float, hi: float, *,
                    options: "ReadOptions | str | None" = None) -> list:
        """All pairs with ``lo <= key <= hi``, scatter-gathered from the
        shards whose ranges the interval touches and concatenated in shard
        (= key) order."""
        lo, hi = float(lo), float(hi)
        if hi < lo:
            return []
        opts = resolve_read_options(options)
        with self._structure_lock.read():
            first, last = self.router.shard_span(lo, hi)
            for s in range(first, last + 1):
                self.stats[s].add(scans=1)
            chunks = self._route_reads(
                opts, [(s, "range_query", (lo, hi))
                       for s in range(first, last + 1)])
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        return out

    @trace.traced("serve.range_query_many")
    def range_query_many(self, los, his, *,
                         options: "ReadOptions | str | None" = None
                         ) -> list:
        """Vectorized :meth:`range_query` for a batch of intervals.

        Each shard executes one :meth:`AlexIndex.range_query_many` over the
        sub-batch of intervals that touch its range; per-query results are
        stitched back together in shard order, so the output is identical
        to a single index's batch range query.
        """
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.ndim != 1 or los.shape != his.shape:
            raise ValueError("los and his must be 1-D arrays of equal length")
        n = len(los)
        if n == 0:
            return []
        opts = resolve_read_options(options)
        out: list = [[] for _ in range(n)]
        with self._structure_lock.read():
            lo_shards = self.router.shard_for_many(los)
            hi_shards = self.router.shard_for_many(np.maximum(los, his))
            touched, jobs = [], []
            for s in range(self.num_shards):
                queries = np.flatnonzero((lo_shards <= s) & (hi_shards >= s))
                if queries.size:
                    self.stats[s].add(scans=len(queries))
                    touched.append(queries)
                    jobs.append((s, "range_query_many",
                                 (los[queries], his[queries])))
            results = self._route_reads(opts, jobs)
        for queries, sub in zip(touched, results):  # shards in key order
            for q, chunk in zip(queries.tolist(), sub):
                out[q].extend(chunk)
        return out

    # ------------------------------------------------------------------
    # Writes: one validate → log → apply path
    # ------------------------------------------------------------------

    def _write(self, keys: np.ndarray, op: int, method: str, check=None,
               payloads: Optional[list] = None,
               args: Optional[tuple] = None) -> Tuple[WriteToken, list]:
        """The one write path.  Every facade write, scalar or batch, runs
        these steps in this order under the structure read lock:

        1. carve the sorted, duplicate-free ``keys`` into per-shard groups
           and take their write locks in shard order;
        2. validate: one membership scatter (re-run if a worker dies)
           feeds ``check(keys, groups, present)``, which raises
           :class:`DuplicateKeyError` / :class:`KeyNotFoundError` or
           returns the ``((shard, lo, hi), writes)`` pairs to write —
           without ``check`` (upserts) every group is written;
        3. log one WAL frame per written group, before any shard mutates;
        4. apply — ``method`` over each written group's key slice (plus
           its payload slice), or for a scalar write (``args`` given) the
           scalar shard method ``method(*args)`` — *not* re-run if a
           worker dies: the WAL replay or replica promotion that repairs
           it applies the frame;
        5. tally the shard stats, checkpoint the shards due one, and
           return ``(token, written)``.

        Non-finite keys raise :class:`ValueError` before step 1.
        """
        AlexIndex._check_finite(keys)
        with self._structure_lock.read():
            groups = list(self.router.split_batch(keys))
            shard_ids = [s for s, _, _ in groups]
            self._acquire_shards(shard_ids, write=True)
            try:
                written = [(g, g[2] - g[1]) for g in groups]
                if check is not None:
                    present = self._retry_dead(
                        lambda: self._backend.scatter_batch(
                            keys, [(s, "contains_many", lo, hi, ())
                                   for s, lo, hi in groups]),
                        involved=shard_ids)
                    written = check(keys, groups, present)
                if not written:
                    return WriteToken.empty(), written
                lsns = self._log_groups(op, [g for g, _ in written],
                                        keys, payloads)

                def apply():
                    if args is not None:
                        return self._backend.call(shard_ids[0], method,
                                                  *args)
                    return self._backend.scatter_batch(keys, [
                        (s, method, lo, hi,
                         () if payloads is None else (payloads[lo:hi],))
                        for (s, lo, hi), _ in written])
                self._retry_dead(apply, retry=False, involved=shard_ids)
                for (s, _, _), count in written:
                    self.stats[s].add(writes=count)
                    self._maybe_checkpoint(s)
                return self._token(lsns), written
            finally:
                self._release_shards(shard_ids, write=True)

    @trace.traced("serve.insert_many")
    def insert_many(self, keys,
                    payloads: Optional[list] = None) -> WriteToken:
        """Batch insert across shards, all-or-nothing.

        The batch is sorted once, carved into per-shard sub-batches, and
        validated against *every* involved shard before *any* shard
        mutates (two-phase, on whichever backend hosts the shards); each
        sub-batch then executes through the shard's batched insert engine
        under its shard's write lock.  Shards not touched by the batch
        keep serving reads and writes throughout.

        Returns a :class:`WriteToken` covering the batch's WAL frames —
        pass it to a later ``read_your_writes`` read to guarantee the
        replica serving it has applied this write (empty, and equally
        valid, without durability).
        """
        keys, payloads = AlexIndex._normalize_batch(keys, payloads)
        if len(keys) == 0:
            return WriteToken.empty()
        # Sorted, deduplicated, and validated by _write — the unchecked
        # apply skips a second routed validation.
        return self._write(keys, OP_INSERT, "insert_sorted_unchecked",
                           _all_absent, payloads)[0]

    @trace.traced("serve.delete_many")
    def delete_many(self, keys) -> WriteToken:
        """Batch delete across shards, all-or-nothing.

        The mirror of :meth:`insert_many` for the delete-heavy half of a
        workload: the batch is sorted once, carved into per-shard
        sub-batches, validated against *every* involved shard (a missing
        key, or an in-batch duplicate whose second removal could not
        succeed, raises :class:`KeyNotFoundError` before any shard
        mutates), and then applied through each shard's batched delete
        engine under its write lock.  Returns the batch's
        :class:`WriteToken` (see :meth:`insert_many`).
        """
        keys, _ = AlexIndex._normalize_delete_batch(keys)
        if len(keys) == 0:
            return WriteToken.empty()
        return self._write(keys, OP_DELETE, "delete_sorted_unchecked",
                           _all_present)[0]

    @trace.traced("serve.erase_many")
    def erase_many(self, keys) -> int:
        """Like :meth:`delete_many` but absent keys are skipped; returns
        the number of keys removed across all shards.

        Runs the same validate → write-ahead → apply shape as the strict
        batch writes: the membership pass (exact under the held write
        locks) determines which shards actually lose keys, only those
        shards get a WAL frame (no-op erases leave no trace in the log
        and trigger no checkpoints), and the apply scatter settles
        through the WAL replay if a worker dies mid-apply.  The returned
        count comes from the membership pass, so it stays exact even
        across a worker crash.  (This is the one batch write that keeps
        its count return instead of a :class:`WriteToken`; use
        :meth:`write_token` after it for a read-your-writes barrier.)
        """
        keys = np.unique(np.asarray(keys, dtype=np.float64))
        if len(keys) == 0:
            return 0
        _, written = self._write(keys, OP_ERASE, "erase_many",
                                 _present_groups)
        return sum(count for _, count in written)

    @trace.traced("serve.insert")
    def insert(self, key: float, payload=None) -> WriteToken:
        """Insert one key (exclusive lock on its shard only).  Returns
        the write's :class:`WriteToken` (see :meth:`insert_many`)."""
        key = float(key)
        return self._write(np.array([key]), OP_INSERT, "insert",
                           _all_absent, [payload], (key, payload))[0]

    @trace.traced("serve.delete")
    def delete(self, key: float) -> WriteToken:
        """Remove one key; raises :class:`KeyNotFoundError` when absent."""
        key = float(key)
        return self._write(np.array([key]), OP_DELETE, "delete",
                           _all_present, None, (key,))[0]

    @trace.traced("serve.update")
    def update(self, key: float, payload) -> WriteToken:
        """Replace the payload of an existing key."""
        key = float(key)
        return self._write(np.array([key]), OP_UPSERT, "update",
                           _all_present, [payload], (key, payload))[0]

    @trace.traced("serve.upsert")
    def upsert(self, key: float, payload) -> WriteToken:
        """Insert or update one key."""
        key = float(key)
        return self._write(np.array([key]), OP_UPSERT, "upsert", None,
                           [payload], (key, payload))[0]

    # ------------------------------------------------------------------
    # Shard statistics and the hot-shard rebalance hook
    # ------------------------------------------------------------------

    def shard_stats(self) -> list:
        """One dict per shard: key range, key count, structure size, and
        the serving-layer access tallies (the rebalance policy's input)."""
        with self._structure_lock.read():
            rows = []
            for s in range(self.num_shards):
                with self._shard_locks[s].read():
                    lo, hi = self.router.key_range(s)
                    shape = self._retry_dead(
                        lambda s=s: self._backend.call(s, "introspect"),
                        involved=[s])
                    stats = self.stats[s]
                    rows.append({
                        "shard": s,
                        "key_lo": lo,
                        "key_hi": hi,
                        "num_keys": shape["num_keys"],
                        "leaves": shape["leaves"],
                        "depth": shape["depth"],
                        "reads": stats.reads,
                        "writes": stats.writes,
                        "scans": stats.scans,
                        "accesses": stats.accesses,
                    })
            return rows

    def hottest_shard(self) -> Tuple[int, float]:
        """``(shard_id, access_fraction)`` of the most-accessed shard
        (fraction of all accesses since the last stats reset)."""
        with self._structure_lock.read():
            accesses = [stats.accesses for stats in self.stats]
            total = sum(accesses)
            if total == 0:
                return 0, 0.0
            hot = int(np.argmax(accesses))
            return hot, accesses[hot] / total

    def reset_stats(self) -> None:
        """Zero the per-shard access tallies."""
        with self._structure_lock.read():
            for stats in self.stats:
                stats.reset()

    def rebalance(self, hot_access_fraction: float = 0.5,
                  min_accesses: int = 1024) -> Optional[int]:
        """Run one serving-tier adaptation step: consult the policy and
        apply the shard SMO it picks — a hot-shard *split* or (under
        :class:`~repro.core.policy.CostModelPolicy`) a cold-shard *merge*.

        The default heuristic policy splits the shard that received at
        least ``hot_access_fraction`` of all accesses (once at least
        ``min_accesses`` accesses were recorded overall) in two at its
        median key, halving the work a single shard lock serializes — e.g.
        under :class:`repro.workloads.hotspot.HotspotGenerator` access
        skew.  The cost-model policy additionally merges the coldest
        adjacent shard pair when its combined traffic falls far below a
        fair share — the inverse SMO, undoing splits a moving hotspot has
        left behind.

        Returns the id of the shard that was split (or the left shard of a
        merged pair), or ``None`` when the policy sees nothing to do (or
        the chosen victim is too small to split).  After a structural
        change every shard's access tallies are *decayed* by
        ``STATS_DECAY`` rather than wiped or carried raw, so the next
        evaluation blends the old window with fresh traffic.
        """
        # Decision and SMO happen under one exclusive structure hold, so a
        # concurrent change cannot shift shard ids between picking the
        # victim and acting on it.
        with self._structure_lock.write():
            summaries = [
                ShardSummary(stats.accesses,
                             self._retry_dead(
                                 lambda s=s: self._backend.call(
                                     s, "num_keys"),
                                 involved=[s]))
                for s, stats in enumerate(self.stats)
            ]
            decision = self.policy.choose_shard_smo(
                summaries, hot_access_fraction, min_accesses)
            if decision is None:
                return None
            if decision.action == "split":
                if not self._split_locked(decision.shard):
                    return None
            else:
                self._merge_locked(decision.shard)
            self.policy.note_applied(f"shard_{decision.action}")
            for stats in self.stats:
                stats.decay()
            return decision.shard

    def split_shard(self, shard: int) -> bool:
        """Split shard ``shard`` at its median key into two shards
        (quiesces the service: takes the structure lock exclusively).

        Returns ``False`` when the shard holds fewer than two keys (there
        is no median to cut at).
        """
        with self._structure_lock.write():
            return self._split_locked(shard)

    def merge_shards(self, shard: int) -> None:
        """Merge shards ``shard`` and ``shard + 1`` into one (quiesces the
        service: takes the structure lock exclusively) — the inverse of
        :meth:`split_shard`.  The merged shard is rebuilt over the union
        of both key ranges and inherits both halves' access tallies and
        work-counter history."""
        with self._structure_lock.write():
            self._merge_locked(shard)

    def _split_locked(self, shard: int) -> bool:
        """Body of :meth:`split_shard`; the structure lock must be held
        exclusively."""
        if not 0 <= shard < self.num_shards:
            raise IndexError(f"no shard {shard}")
        keys, payloads = self._retry_dead(
            lambda: self._backend.snapshot(shard), involved=[shard])
        if len(keys) < 2:
            return False
        median = float(keys[len(keys) // 2])
        cut = int(np.searchsorted(keys, median, side="left"))
        if payloads is None:
            payloads = [None] * len(keys)
        # The victim's accumulated work history moves to its left half so
        # aggregate counters stay monotone across splits (a diff spanning
        # a rebalance must never go negative).
        self._backend.replace(shard, shard + 1,
                              [(keys[:cut], payloads[:cut]),
                               (keys[cut:], payloads[cut:])],
                              inherit=[[shard], []])
        self.router = self.router.with_boundary(median)
        self._shard_locks[shard:shard + 1] = [ReadWriteLock(),
                                              ReadWriteLock()]
        # Each half inherits half the victim's access window: neither
        # starts blind, and the fleet-wide tally total is preserved (the
        # fix for stale windows biasing the next policy evaluation).
        self.stats[shard:shard + 1] = list(self.stats[shard].split())
        self._rewrite_durability(shard, shard + 1, 2)
        if self._replicate:
            # The replace() dropped the victim's replica; follow the two
            # fresh generation-zero durability dirs.
            self._attach_replicas([shard, shard + 1])
        obs.inc("serve.shard_splits")
        obs.emit("shard.split", shard=shard, boundary=median,
                 keys=len(keys))
        return True

    def _rewrite_durability(self, start: int, stop: int,
                            count_new: int) -> None:
        """After a shard SMO re-provisioned executors ``[start, start +
        count_new)`` in place of old positions ``[start, stop)``, flip
        the durability tree to match: fresh generation-zero directories
        are checkpointed from the *new* executors, the topology manifest
        commits atomically, and the retired directories vanish.  (The
        executor replace and this rewrite both happen under the exclusive
        structure lock, so a crash between them recovers the pre-SMO
        topology — every acknowledged write is in the old shards' logs.)
        """
        if self._durability is None:
            return
        writers = [self._persist_writer(start + i)
                   for i in range(count_new)]
        counters = [self._retry_dead(
                        lambda s=start + i: self._backend.counters(s),
                        involved=[start + i]).as_dict()
                    for i in range(count_new)]
        self._durability.rewrite_topology(start, stop, writers,
                                          self.router.boundaries,
                                          counters=counters)

    def _merge_locked(self, shard: int) -> None:
        """Body of :meth:`merge_shards`; the structure lock must be held
        exclusively."""
        if not 0 <= shard < self.num_shards - 1:
            raise IndexError(f"no shard pair ({shard}, {shard + 1})")
        left_keys, left_payloads = self._retry_dead(
            lambda: self._backend.snapshot(shard), involved=[shard])
        right_keys, right_payloads = self._retry_dead(
            lambda: self._backend.snapshot(shard + 1),
            involved=[shard + 1])
        if left_payloads is None:
            left_payloads = [None] * len(left_keys)
        if right_payloads is None:
            right_payloads = [None] * len(right_keys)
        # Both halves' work history survives in the merged shard, keeping
        # aggregate counters monotone (symmetric with _split_locked).
        self._backend.replace(
            shard, shard + 2,
            [(np.concatenate([left_keys, right_keys]),
              left_payloads + right_payloads)],
            inherit=[[shard, shard + 1]])
        self.router = self.router.without_boundary(shard)
        self._shard_locks[shard:shard + 2] = [ReadWriteLock()]
        self.stats[shard:shard + 2] = [
            self.stats[shard].merged_with(self.stats[shard + 1])
        ]
        self._rewrite_durability(shard, shard + 2, 1)
        if self._replicate:
            self._attach_replicas([shard])
        obs.inc("serve.shard_merges")
        obs.emit("shard.merge", shard=shard,
                 keys=len(left_keys) + len(right_keys))

    # ------------------------------------------------------------------
    # Introspection and accounting
    # ------------------------------------------------------------------

    @property
    def counters(self) -> Counters:
        """Aggregate work counters across all shards (a fresh merged
        snapshot; use ``.snapshot()``/``.diff()`` as with a single index).

        Accuracy contract: work counters are exact for any single-client
        usage and for writes (exclusive locks).  Concurrent *readers* of
        the same shard share its lock and mutate the shard's unsynchronized
        :class:`Counters` together, so read tallies may undercount under
        multi-client read contention — they are a measurement instrument,
        not correctness state, and guarding them would put a mutex on the
        core engine's hottest path.  (Process-hosted shards are immune:
        each worker is single-threaded.)  The serving-layer
        :class:`ShardStats` (which feed the rebalance policy) are
        mutex-guarded and exact."""
        merged = Counters()
        for snapshot in self._map_shards("counters_snapshot"):
            merged.merge(snapshot)
        return merged

    def shard_counters(self) -> List[Counters]:
        """Per-shard counter snapshots, in shard order (the input to
        critical-path scaling measurements).

        The list's shape changes when a shard splits (the victim's history
        moves to its left half), so measurements that might span a
        rebalance should diff the aggregate :attr:`counters` instead of
        zipping two per-shard lists."""
        return self._map_shards("counters_snapshot")

    def metrics_snapshot(self) -> dict:
        """The service-wide observability view (``repro stats``/``top``).

        Merges this process's metrics registry with every worker
        process's (fetched over the RPC pipes; the thread backend
        contributes nothing extra because its shards already record into
        the facade's registry), and adds the serving-layer per-shard
        access tallies and WAL lag.  Taken under the shared structure
        lock so the shard list cannot change mid-collection.
        """
        with self._structure_lock.read():
            worker_snaps = self._backend.obs_snapshots()
            merged = obs.merge_many([obs.snapshot()]
                                    + [s for s in worker_snaps if s])
            shard_rows = [stats.as_dict() for stats in self.stats]
            lag = (self._durability.lag_ops()
                   if self._durability is not None else None)
            replication = ([self._backend.replica_status(s)
                            for s in range(self.num_shards)]
                           if self._replicate else None)
        # Fold the serving-layer tallies into the merged view as counters
        # so exposition (Prometheus, summaries) sees one namespace.
        tally = obs.empty_snapshot()
        for s, row in enumerate(shard_rows):
            for field, value in row.items():
                tally["counters"][f"serve.shard{s}.{field}"] = value
        merged = obs.merge_snapshots(merged, tally)
        return {
            "merged": merged,
            "shards": shard_rows,
            "wal_lag_ops": lag,
            "replication": replication,
            "backend": self._backend.name,
        }

    def trace_snapshot(self) -> dict:
        """The service-wide trace view: drains every worker process's
        flight recorder into this process's (the thread backend records
        straight into the facade's, so it contributes nothing extra) and
        returns the merged snapshot.  Worker spans ship exactly once —
        the drain clears the worker-side buffer — so repeated calls see
        each span in exactly one snapshot; the facade recorder retains
        its bounded window across calls."""
        with self._structure_lock.read():
            for snap in self._backend.trace_snapshots():
                if snap:
                    trace.absorb(snap)
        return trace.snapshot()

    def __len__(self) -> int:
        return sum(self._map_shards("num_keys"))

    def __contains__(self, key) -> bool:
        return self.contains(float(key))

    def _map_shards(self, method: str, *args) -> list:
        """Run a shard op on every shard under its shared lock (structure
        pinned), in shard order."""
        with self._structure_lock.read():
            out = []
            for s in range(self.num_shards):
                with self._shard_locks[s].read():
                    out.append(self._retry_dead(
                        lambda s=s: self._backend.call(s, method, *args),
                        involved=[s]))
            return out

    def items(self) -> Iterator[Tuple[float, object]]:
        """All ``(key, payload)`` pairs in key order (a consistent
        per-shard snapshot taken under the shared locks)."""
        for chunk in self._map_shards("items_list"):
            yield from chunk

    def keys(self) -> Iterator[float]:
        """All keys in key order."""
        for key, _ in self.items():
            yield key

    def num_leaves(self) -> int:
        """Total data nodes across shards."""
        return sum(self._map_shards("num_leaves"))

    def depth(self) -> int:
        """Maximum RMI depth over the shards (the router adds one
        searchsorted hop on top)."""
        return max(self._map_shards("depth"))

    def index_size_bytes(self) -> int:
        """Index footprint: per-shard models and pointers plus the router's
        boundary array."""
        return (sum(self._map_shards("index_size_bytes"))
                + 8 * len(self.router.boundaries))

    def data_size_bytes(self) -> int:
        """Data footprint summed over shards."""
        return sum(self._map_shards("data_size_bytes"))

    def validate(self) -> None:
        """Validate every shard plus the router invariants: shard count
        matches the router, and each non-empty shard's keys lie inside its
        assigned range."""
        with self._structure_lock.write():
            if self.num_shards != self.router.num_shards:
                raise AssertionError(
                    f"{self.num_shards} shards but router expects "
                    f"{self.router.num_shards}")
            if self._backend.num_shards != self.num_shards:
                raise AssertionError(
                    f"backend hosts {self._backend.num_shards} shards "
                    f"but the facade tracks {self.num_shards}")
            for s in range(self.num_shards):
                self._backend.call(s, "validate")
                first, last = self._backend.call(s, "key_bounds")
                if first is None:
                    continue
                lo, hi = self.router.key_range(s)
                if not (lo <= first and last < hi):
                    raise AssertionError(
                        f"shard {s} holds keys [{first}, {last}] outside "
                        f"its range [{lo}, {hi})")
