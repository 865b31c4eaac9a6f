"""Process-hosted shards: pipelined multi-core RPC for the service.

The thread backend's scatter-gather is GIL-serialized for Python-level
work, so its critical-path speedups only materialize as wall clock inside
NumPy kernels.  :class:`ProcessBackend` hosts each shard's ALEX tree in a
**long-lived worker process** instead:

* workers fork from one **preloaded forkserver** (``multiprocessing``
  *forkserver* context): the server is an interpreter started lazily on
  the first launch that imports :data:`_PRELOAD` — numpy and every
  ``repro`` module a worker runs — once, and each primary, replica,
  respawn and split/merge worker is a fork of it, so none pays an
  interpreter boot or those imports.  The server is single-threaded and
  never touches the parent's locks or arenas; it idles (about 36 MB
  resident) until the parent exits.  A fork inherits the *server's*
  environment and module state, so every launch ships the parent's
  ``os.environ`` and the worker installs it, then re-derives the obs and
  trace state that depends on it or on the pid, before anything else.
  The preload is an optimization only: a parent run under ``-E`` or
  ``-I`` (whose server then ignores ``PYTHONPATH``), or a forkserver that
  other code in the process started first, leaves workers to import what
  they run after the fork — correct, only slower.  The server reports
  its workers' exit status, so if it dies every worker it forked reads
  as dead to :meth:`ProcessBackend.dead_shards` while still serving over
  its pipe; the next launch starts a new preloaded server;
* workers live until the service closes or a shard split/merge
  re-provisions them;
* whole-shard contents move through :class:`repro.core.shm
  .ShardStorageView` shared-memory segments — provisioning, snapshots,
  and re-provisioning never push key/payload arrays through a pipe;
* each batch operation publishes its sorted key array once as a
  :class:`repro.core.shm.SharedArray`; the per-shard RPC messages carry
  only ``(method, lo, hi)`` offsets, and every worker maps its sub-batch
  **zero-copy** out of the same segment;
* the facade's two-phase write orchestration — validate on all involved
  workers, then apply — runs unchanged, so cross-shard batch writes stay
  all-or-nothing.

RPC discipline (the open-loop serving rework)
---------------------------------------------

Every frame carries a **request id**, and each worker keeps **multiple
requests in flight** (bounded by a per-worker admission semaphore,
``max_inflight``): the parent sends ``(req_id, tctx, op, ...)`` without
waiting, and a dedicated *reply-reader thread per worker* demultiplexes
``(req_id, status, value)`` replies to per-request futures, so requests
issued by different client threads complete **out of order** relative to
each other — no pairing lock ever serializes a whole round trip.  When a
worker's pipe dies, the reader fails *every* outstanding future for that
worker with :class:`~repro.serve.backend.WorkerDiedError` (not just the
oldest), so concurrent callers all reach the durability respawn path.

Numeric replies return through a **shared-memory reply path**: each
worker owns a :class:`repro.core.shm.ReplyRing`, writes eligible result
columns (hit masks, homogeneous payload columns) into a ring lane, and
sends only ``(req_id, "shm", descriptor)`` over the pipe — no pickling,
no pipe bandwidth.  The reader thread (the ring's single consumer)
copies lanes out in arrival order.  Replies that do not encode — mixed
payloads, arbitrary objects, a full ring — fall back to the pickle pipe
transparently.

The worker executes shard methods through the same
:func:`repro.serve.backend.run_shard_op` dispatcher the thread backend
uses, so both backends run identical shard code.  Each worker receives a
pickled *copy* of the facade's configured
:class:`~repro.core.policy.AdaptationPolicy` (same class, same knobs —
cost model, drift factors, reserves — with the decision log cleared):
leaf/tree SMO decisions are per-shard state and live with the shard,
while shard split/merge decisions stay in the parent.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from multiprocessing import forkserver
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.alex import AlexIndex
from repro.obs import trace
from repro.core.batch import export_arrays
from repro.core.config import AlexConfig
from repro.core.kernels import get_kernels
from repro.core.policy import AdaptationPolicy
from repro.core.shm import (ReplyRing, RingFull, SharedArray,
                            ShardStorageView, decode_reply, encode_reply)
from repro.core.stats import Counters

from .backend import (BatchJob, Call, ExecutionBackend, WorkerDiedError,
                      build_shard, run_shard_op)

#: Batch methods that mutate the shard.  Their key slices are copied out
#: of the shared request segment before execution, so a rebuilt leaf can
#: never retain a view into a segment the parent is about to unlink.
#: Read methods slice the segment directly — that is the zero-copy path.
_MUTATING_BATCH_METHODS = frozenset({
    "insert_many", "insert_sorted_unchecked",
    "delete_many", "delete_sorted_unchecked", "erase_many",
})

#: Default per-worker in-flight request budget (admission control): how
#: many requests the parent may have outstanding on one worker's pipe
#: before further submitters block.  Overridable per backend
#: (``max_inflight=``) or process-wide via ``REPRO_MAX_INFLIGHT``.
DEFAULT_MAX_INFLIGHT = 8

#: Default per-worker reply-ring capacity in bytes.  Sized so a full
#: in-flight budget of large batch replies fits without falling back to
#: the pickle pipe (8 in flight x 64k float64 lanes = 4 MiB).
DEFAULT_REPLY_RING_BYTES = 1 << 22

#: Request batches at or under this many bytes ship inline in the RPC
#: frame instead of through a shared-memory segment: for serving-sized
#: coalesced batches (a few hundred keys), one segment create + mmap +
#: unlink per scatter costs far more than pickling the keys into the
#: pipe.  Large analytic batches keep the zero-copy segment path.
INLINE_BATCH_BYTES = 1 << 14


#: The modules the forkserver imports before it forks any worker: the
#: shard RPC loop, the replica applier, the checkpoint writer and both
#: kernel backends (which the kernel registry would otherwise import on
#: each worker's first resolve), and with them numpy and every ``repro``
#: module a primary or replica worker runs.  Importing them starts no
#: thread (forking a process with threads could copy a held lock).
_PRELOAD = ("repro.serve.worker", "repro.replication.replica",
            "repro.ext.persistence", "repro.core.kernels.numpy_backend",
            "repro.core.kernels.cffi_backend")

_forkserver_lock = threading.Lock()


def _forkserver_running() -> bool:
    """Whether multiprocessing's forkserver is up.  Its pid is private to
    :mod:`multiprocessing.forkserver`; ``WNOWAIT`` leaves a dead server
    unreaped, for ``ensure_running`` to reap before it starts another."""
    pid = forkserver._forkserver._forkserver_pid
    return pid is not None and os.waitid(
        os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


@contextmanager
def _preload_import_path():
    """Put the directory holding ``repro`` on ``PYTHONPATH`` while the
    forkserver starts.  The server is a fresh interpreter that imports
    its preload from its own default ``sys.path`` (Python 3.11 ignores
    the parent's), and multiprocessing swallows a preload's
    ``ImportError``.  When the directory is already listed, nothing is
    touched; otherwise the process-global environment carries it only
    for the server's start, once per server."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    saved = os.environ.get("PYTHONPATH")
    listed = [os.path.abspath(path)
              for path in (saved or "").split(os.pathsep) if path]
    if root in listed:
        yield
        return
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (root, saved) if path)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


def _forkserver_context():
    """The ``forkserver`` context, its server started with
    :data:`_PRELOAD` imported whenever none is running: on the first
    launch, and again after a server death, which multiprocessing would
    otherwise mend on its own with a server that imports nothing."""
    ctx = mp.get_context("forkserver")
    with _forkserver_lock:
        if not _forkserver_running():
            ctx.set_forkserver_preload(list(_PRELOAD))
            with _preload_import_path():
                forkserver.ensure_running()
    return ctx


def _default_max_inflight() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_MAX_INFLIGHT", "")))
    except ValueError:
        return DEFAULT_MAX_INFLIGHT


def _worker_main(conn, environ: Dict[str, str], config: AlexConfig,
                 policy: AdaptationPolicy, ring: Optional[ReplyRing],
                 replica_root: Optional[str] = None) -> None:
    """One shard's RPC loop (the process target; runs until ``close``).

    ``environ`` is the parent's environment at launch.  The worker forked
    from the preloaded server, whose environment and env- or pid-derived
    module state it inherited, so it installs ``environ`` first and has
    :mod:`repro.obs` and :mod:`repro.obs.trace` re-derive their state
    from it (kill switch, registry, sampling, the pid on span records).

    Every request frame is ``(req_id, tctx, op, ...)`` — ``tctx`` the
    sender's trace context in wire form (``None`` for untraced
    requests), installed as this dispatch's ambient context so every
    span the op records (shard-op, replica-read, WAL, checkpoint) joins
    the request's cross-process tree — and every reply echoes the id:
    ``(req_id, "ok", result)`` / ``(req_id, "err", exc)`` over the
    pipe, or ``(req_id, "shm", descriptor)`` when the result column
    went through the reply ring, or ``(req_id, "nones", n)`` for an
    all-``None`` payload list (nothing worth shipping either way).
    Requests execute strictly in arrival order — the pipelining lives in
    the *parent*, which no longer waits for one reply before sending the
    next request.

    Ops: ``("load", view, seed_counters)`` builds the index from a
    shared-memory view; ``("call", method, args)`` runs a shard op (a
    small sub-batch shipped inline in the frame arrives this way, as the
    first argument — the serving fast path, no segment);
    ``("batch", handle, method, lo, hi, extra)`` runs a batch method over
    a zero-copy slice of the shared request segment;
    ``("snapshot",)`` packs the shard's contents into a fresh view the
    parent unlinks; ``("close",)`` acks and exits.

    With ``replica_root`` set the process is a **replica worker**: it
    bootstraps a :class:`~repro.replication.Replica` tailing that
    durability directory before serving (so the parent's first request
    doubles as the bootstrap barrier) and answers the replica ops —
    ``("rread", method, args, min_lsn, max_staleness_s)`` /
    ``("rstatus",)`` — until a ``("promote",)`` drains the tail and
    installs the caught-up index as this worker's shard, after which
    every normal op works and the worker *is* the primary.
    """
    os.environ.clear()
    os.environ.update(environ)
    obs.init_from_env()
    trace.init_from_env()
    # This process's policy copy arrived pickled with the facade's full
    # configuration; only the parent's decision history is dropped —
    # this worker's log should describe this shard.
    policy.decisions.clear()
    policy.smo_counts.clear()
    # Kernel warmup belongs to provisioning: a long-lived worker pays any
    # C compilation (or cache load) now, never on a request.  The parent
    # reads the registry started above via the obs_snapshot op.
    with obs.span("kernel.warm"):
        get_kernels(config.kernel_backend).warm()
    index: Optional[AlexIndex] = None
    replica = None
    if replica_root is not None:
        # Deferred import: replication imports serve lazily and vice
        # versa; by launch time both packages resolve cleanly (the
        # forkserver preloaded it).
        from repro.replication.replica import Replica
        replica = Replica(replica_root, config=config,
                          policy=policy).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died; daemon exit
            break
        req_id, tctx, op = message[0], message[1], message[2]
        # The frame's trace context (None for untraced requests) becomes
        # ambient for the dispatch, so spans recorded inside the op land
        # in the originating request's cross-process tree.
        with trace.attach(tctx):
            try:
                if op == "load":
                    view, seed = message[3], message[4]
                    keys, payloads = view.unpack(copy=True)
                    view.close()
                    index = build_shard(keys, payloads, config, policy)
                    if seed is not None:
                        index.counters.merge(seed)
                    reply = (req_id, "ok", None)
                elif op == "call":
                    method, args = message[3], message[4]
                    reply = (req_id, "ok",
                             run_shard_op(index, method, *args))
                elif op == "batch":
                    handle, method, lo, hi, extra = message[3:]
                    try:
                        batch = handle.array()[lo:hi]
                        if method in _MUTATING_BATCH_METHODS:
                            batch = batch.copy()
                        result = run_shard_op(index, method, batch, *extra)
                    finally:
                        # Unmap even when the method raises (e.g. a
                        # missing key in lookup_many) — a stale mapping
                        # would outlive the parent's unlink.
                        handle.close()
                    reply = (req_id, "ok", result)
                elif op == "snapshot":
                    view = ShardStorageView.pack(*export_arrays(index))
                    view.close()
                    reply = (req_id, "ok", view)
                elif op == "rread":
                    method, args, min_lsn, max_staleness_s = message[3:]
                    reply = (req_id, "ok",
                             replica.read(method, args, min_lsn=min_lsn,
                                          max_staleness_s=max_staleness_s))
                elif op == "rstatus":
                    reply = (req_id, "ok", replica.status())
                elif op == "promote":
                    index = replica.promote()
                    reply = (req_id, "ok", replica.applied_lsn)
                    replica = None
                elif op == "close":
                    conn.send((req_id, "ok", None))
                    break
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except BaseException as exc:
                reply = (req_id, "err", exc)
        conn.send(_encode_worker_reply(reply, ring))
    if replica is not None:
        replica.stop()
    conn.close()


def _encode_worker_reply(reply: tuple, ring: Optional[ReplyRing]) -> tuple:
    """Route an ``"ok"`` reply through the shared-memory ring when its
    result is an eligible numeric column (or compress an all-``None``
    payload list to its length); everything else passes through to the
    pickle pipe unchanged."""
    req_id, status, result = reply
    if status != "ok" or ring is None:
        return reply
    if (isinstance(result, list) and result
            and all(p is None for p in result)):
        return req_id, "nones", len(result)
    encoded = encode_reply(result)
    if encoded is None:
        return reply
    column, kind = encoded
    try:
        descriptor = ring.try_write(column)
    except RingFull:
        return reply
    return req_id, "shm", (descriptor, kind)


class _WorkerHandle:
    """Parent-side handle: process, pipe, reply ring, in-flight budget,
    and the reply-reader thread demultiplexing to futures."""

    __slots__ = ("process", "conn", "ring", "shard", "send_lock",
                 "pending", "pending_lock", "inflight", "reader",
                 "closing", "_next_id")

    def __init__(self, process, conn, ring: Optional[ReplyRing],
                 shard: int, max_inflight: int):
        self.process = process
        self.conn = conn
        self.ring = ring
        self.shard = shard
        self.send_lock = threading.Lock()
        self.pending: Dict[int, Future] = {}
        self.pending_lock = threading.Lock()
        self.inflight = threading.BoundedSemaphore(max_inflight)
        self.closing = False
        self._next_id = 0
        self.reader = threading.Thread(target=self._read_replies,
                                       daemon=True,
                                       name="alex-reply-reader")
        self.reader.start()

    # -- request registration ------------------------------------------

    def register(self) -> Tuple[int, Future]:
        """Allocate a request id and its pending future."""
        future: Future = Future()
        with self.pending_lock:
            req_id = self._next_id
            self._next_id += 1
            self.pending[req_id] = future
        return req_id, future

    def unregister(self, req_id: int) -> Optional[Future]:
        """Claim a pending future (``None`` if already settled) — the
        settler must release the in-flight slot iff the claim won."""
        with self.pending_lock:
            return self.pending.pop(req_id, None)

    def settle(self, req_id: int, value, is_error: bool) -> None:
        """Complete one request: resolve its future and release its
        admission slot (exactly once, whoever claims the future)."""
        future = self.unregister(req_id)
        if future is None:
            return
        try:
            if is_error:
                future.set_exception(value)
            else:
                future.set_result(value)
        finally:
            self.inflight.release()

    # -- the reply-reader thread ---------------------------------------

    def _read_replies(self) -> None:
        """Drain the pipe until it dies, demultiplexing replies to their
        futures.  Ring lanes are copied out *here* — the single consumer,
        in arrival order, which matches the worker's allocation order —
        so a lane never outlives its descriptor's handling."""
        while True:
            try:
                req_id, status, value = self.conn.recv()
            except (EOFError, OSError, ValueError) as exc:
                self._fail_all_pending(exc)
                return
            if status == "shm":
                descriptor, kind = value
                value = decode_reply(self.ring.read(descriptor), kind)
                obs.inc("rpc.shm_replies")
            elif status == "nones":
                value = [None] * value
            elif status == "ok":
                obs.inc("rpc.pipe_replies")
            self.settle(req_id, value, is_error=(status == "err"))

    def _fail_all_pending(self, exc: Exception) -> None:
        """The pipe is gone: every outstanding request on this worker —
        not just the oldest — fails with :class:`WorkerDiedError`, so
        each concurrent caller independently reaches the durability
        respawn path instead of hanging on an unreachable reply."""
        with self.pending_lock:
            orphaned = sorted(self.pending)
        if orphaned and not self.closing:
            obs.emit("worker.pipe_lost", shard=self.shard,
                     outstanding=len(orphaned), error=repr(exc))
        for req_id in orphaned:
            self.settle(req_id, WorkerDiedError(
                self.shard, f"reply stream closed with "
                f"{len(orphaned)} in flight ({exc!r})"), is_error=True)


class ProcessBackend(ExecutionBackend):
    """One long-lived worker process per shard, batches via shared
    memory, replies pipelined out of order through per-worker futures.

    ``max_workers`` is accepted for interface symmetry but unused: the
    process count always equals the shard count (each worker *is* its
    shard), and the operating system schedules them across cores.
    ``max_inflight`` bounds how many requests the parent may have
    outstanding per worker (admission control — further submitters block
    until a slot frees); ``max_inflight=1`` plus ``use_reply_ring=False``
    degenerates to the strict call-and-wait pickle-pipe discipline this
    backend shipped with, which the serving benchmark uses as its
    baseline.
    """

    name = "process"

    def __init__(self, config: AlexConfig, policy: AdaptationPolicy,
                 max_workers: int = 1,
                 max_inflight: Optional[int] = None,
                 reply_ring_bytes: int = DEFAULT_REPLY_RING_BYTES,
                 use_reply_ring: bool = True):
        self._config = config
        # The configured policy instance itself travels to every worker
        # (each launch pickles it; AdaptationPolicy excludes its lock), so
        # cost-model parameters, drift factors, and reserves survive the
        # process boundary — each worker unpickles an independent copy.
        self._policy = policy
        self.max_workers = max_workers
        self.max_inflight = (max_inflight if max_inflight is not None
                             else _default_max_inflight())
        self.reply_ring_bytes = reply_ring_bytes
        self.use_reply_ring = use_reply_ring
        self._workers: List[_WorkerHandle] = []
        #: Per-shard replica worker slot, spliced in lockstep with
        #: ``_workers`` by :meth:`replace` so positions stay aligned
        #: across SMOs.  A replica worker is a full ``_WorkerHandle``
        #: (own process, pipe, reply ring, reader thread) whose process
        #: tails the shard's durability dir instead of loading a view.
        self._replica_workers: List[Optional[_WorkerHandle]] = []
        self._respawn_guard = threading.Lock()
        self._closed = False

    # -- lifecycle ----------------------------------------------------

    def _start_handle(self, shard: int,
                      replica_root: Optional[str] = None) -> _WorkerHandle:
        """Start one worker process (primary or replica) and its
        parent-side handle; primaries still need their ``load``."""
        ctx = _forkserver_context()
        parent_conn, child_conn = ctx.Pipe()
        ring = (ReplyRing.create(self.reply_ring_bytes)
                if self.use_reply_ring else None)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, dict(os.environ), self._config, self._policy,
                  ring, replica_root),
            daemon=True,
            name=("alex-replica-worker" if replica_root
                  else "alex-shard-worker"))
        try:
            process.start()
        except BaseException:
            parent_conn.close()
            if ring is not None:
                ring.unlink()
            raise
        finally:
            child_conn.close()
        return _WorkerHandle(process, parent_conn, ring, shard,
                             self.max_inflight)

    def _launch(self, shards: Sequence[int],
                parts: Optional[Sequence[tuple]] = None,
                seeds: Optional[Sequence[Optional[Counters]]] = None,
                roots: Optional[Sequence[str]] = None
                ) -> List[_WorkerHandle]:
        """Bring up one worker per position in ``shards``, all at once.

        Three sweeps: start every process; then submit each its first
        request — a ``load`` of ``parts[i]`` packed into shared memory
        (with counter seed ``seeds[i]``), or for a replica tailing
        ``roots[i]`` the ``rstatus`` bootstrap barrier; then wait on
        every reply.  The processes boot and build (or bootstrap) in
        parallel, and each worker builds while the parent packs the next
        part.  On any failure — a process that will not start, a payload
        that does not pickle, a load the worker rejects — every started
        worker is released and every packed view unlinked before the
        first error propagates.
        """
        workers: List[_WorkerHandle] = []
        views: List[ShardStorageView] = []
        try:
            for i, shard in enumerate(shards):
                workers.append(self._start_handle(
                    shard, None if roots is None else roots[i]))
            futures = []
            for i, worker in enumerate(workers):
                if parts is None:
                    futures.append(self._submit(worker, ("rstatus",)))
                    continue
                view = ShardStorageView.pack(*parts[i])
                views.append(view)
                futures.append(self._submit(worker, (
                    "load", view, None if seeds is None else seeds[i])))
                # The worker maps the segments by name; unmapping them
                # here keeps one packed part resident in the parent at a
                # time (the unlink below still destroys them).
                view.close()
            self._gather(futures)
        except BaseException:
            for worker in workers:
                self._release(worker)
            raise
        finally:
            for view in views:
                view.unlink()
        return workers

    def _renumber(self) -> None:
        """Refresh each handle's shard position after the worker list
        changed (launch/replace/respawn run under the facade's exclusive
        structure lock, so no request observes a stale id mid-flight)."""
        for shard, worker in enumerate(self._workers):
            worker.shard = shard

    def _install(self, workers: List[_WorkerHandle]) -> None:
        self._workers = workers
        self._replica_workers = [None] * len(workers)

    def provision(self, parts: Sequence[tuple]) -> None:
        self._install(self._launch(range(len(parts)), parts))

    def adopt(self, indexes: List[AlexIndex]) -> None:
        # Prebuilt in-process shards move wholesale into workers; their
        # work-counter history seeds the workers' counters so aggregate
        # tallies stay monotone across the handoff.
        self._install(self._launch(
            range(len(indexes)), [export_arrays(i) for i in indexes],
            seeds=[index.counters.snapshot() for index in indexes]))

    def _retire(self, worker: _WorkerHandle) -> None:
        """Ask one worker to exit and reap its process, ring, and reader
        thread (shared by :meth:`close` and the split/merge
        re-provisioning path).  A shutdown that cannot complete the
        close handshake — broken pipe, dead process, a wedged worker —
        is *dirty*: it lands in the obs event log with the shard id and
        the exception, instead of vanishing into an except-pass."""
        worker.closing = True
        try:
            self._submit(worker, ("close",)).result(timeout=5)
        except (WorkerDiedError, FutureTimeoutError, OSError) as exc:
            obs.inc("serve.dirty_shutdowns")
            obs.emit("worker.dirty_shutdown", shard=worker.shard,
                     error=repr(exc))
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover
            worker.process.terminate()
            worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.reader.join(timeout=5)
        if worker.ring is not None:
            worker.ring.unlink()

    def _release(self, worker: _WorkerHandle) -> None:
        """Retire a live worker through the close handshake; reap a dead
        one."""
        if worker.process.is_alive():
            self._retire(worker)
        else:
            self._reap(worker)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Replica workers first: a replica retired after its primary is
        # harmless, but the reverse could leave a replica tailing a WAL
        # whose directory the caller deletes next.
        for worker in self._replica_workers:
            if worker is not None:
                self._retire(worker)
        self._replica_workers = []
        for worker in self._workers:
            self._retire(worker)
        self._workers = []

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- RPC plumbing -------------------------------------------------

    def _submit(self, worker: _WorkerHandle, body: tuple,
                blob: Optional[bytes] = None) -> Future:
        """Send one request frame without waiting for its reply.

        Acquires an in-flight slot (the per-worker admission budget —
        this is where backpressure blocks), registers the future, and
        pushes the frame down the pipe; the reply-reader settles the
        future whenever the worker gets to it.  The caller's trace
        context (or ``None``) rides in frame slot 1, so worker-side
        spans join the request's tree.  ``blob`` carries a pre-pickled
        frame (fan-out paths pickle before sending anything so an
        unpicklable argument aborts with zero requests in flight); it
        must be the pickling of ``(req_id, tctx) + body`` for the
        ``req_id`` just allocated, so plain submits leave it ``None``.
        """
        with obs.span("rpc.inflight_wait"):
            worker.inflight.acquire()
        req_id, future = worker.register()
        try:
            with worker.send_lock:
                if blob is None:
                    worker.conn.send((req_id, trace.wire()) + body)
                else:
                    worker.conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            worker.settle(req_id, WorkerDiedError(
                worker.shard, f"on send ({exc!r})"), is_error=True)
        except BaseException:
            # Not a pipe failure (e.g. an unpicklable argument): the
            # request never left, so free its slot and re-raise.
            if worker.unregister(req_id) is not None:
                worker.inflight.release()
            raise
        return future

    def _request(self, worker: _WorkerHandle, body: tuple):
        """One submit + wait (raises what the worker raised)."""
        with trace.span("rpc.roundtrip"):
            return self._submit(worker, body).result()

    def _multi(self, messages: Sequence[Tuple[int, tuple]]) -> list:
        """Pipelined fan-out: submit every request, then gather every
        future.  Requests to distinct workers execute genuinely in
        parallel, and — unlike the retired pairing-lock design —
        concurrent fan-outs from different client threads interleave
        freely on the *same* worker's pipe, each completion routed to
        its own future by the reply-reader.  All futures are awaited
        before the first worker-raised exception propagates, matching
        the thread backend's wait-then-raise semantics.

        Every frame is *pickled up front*, before anything is sent: an
        unpicklable argument (say, a lambda payload in an apply batch)
        raises here with zero requests in flight, so it can never leave
        some shards applied and others not.  After that, a worker that
        dies mid-fan-out becomes an error *result* (its reader fails the
        future) while the surviving workers' replies still settle.
        """
        with trace.span("rpc.fanout"):
            tctx = trace.wire()  # one context stamps every frame
            futures = []
            for shard, body in messages:
                worker = self._workers[shard]
                # The id must be inside the pickled frame, so register
                # first; an unpicklable body releases the registration.
                with obs.span("rpc.inflight_wait"):
                    worker.inflight.acquire()
                req_id, future = worker.register()
                try:
                    blob = ForkingPickler.dumps((req_id, tctx) + body)
                except BaseException:
                    if worker.unregister(req_id) is not None:
                        worker.inflight.release()
                    for prior in futures:
                        prior.cancel()
                    raise
                try:
                    with worker.send_lock:
                        worker.conn.send_bytes(blob)
                except (BrokenPipeError, OSError) as exc:
                    worker.settle(req_id, WorkerDiedError(
                        shard, f"on send ({exc!r})"), is_error=True)
                futures.append(future)
            return self._gather(futures)

    @staticmethod
    def _gather(futures: Sequence[Future]) -> list:
        """Every future's result, in order; all are awaited before the
        first exception propagates."""
        results, first_error = [], None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    # -- execution ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._workers)

    def call(self, shard: int, method: str, *args):
        return self._request(self._workers[shard], ("call", method, args))

    def scatter(self, calls: Sequence[Call]) -> list:
        if len(calls) == 1:
            shard, method, args = calls[0]
            return [self.call(shard, method, *args)]
        return self._multi([(shard, ("call", method, args))
                            for shard, method, args in calls])

    def scatter_batch(self, batch, jobs: Sequence[BatchJob]) -> list:
        if isinstance(batch, SharedArray):  # already published
            return self._scatter_published(batch, jobs)
        batch = np.ascontiguousarray(batch)
        if batch.nbytes <= INLINE_BATCH_BYTES:
            # Serving-sized batches skip shared memory entirely: a
            # segment create + per-worker mmap + unlink costs far more
            # than pickling a few KiB into the frames themselves.  The
            # worker owns the by-value sub-batch outright, so a plain
            # call needs no segment unmap and no defensive copy.
            obs.inc("rpc.inline_batches")
            return self._multi([
                (shard, ("call", method, (batch[lo:hi],) + extra))
                for shard, method, lo, hi, extra in jobs
            ])
        handle = SharedArray.create(batch)
        try:
            return self._scatter_published(handle, jobs)
        finally:
            handle.unlink()

    def _scatter_published(self, handle: SharedArray,
                           jobs: Sequence[BatchJob]) -> list:
        return self._multi([
            (shard, ("batch", handle, method, lo, hi, extra))
            for shard, method, lo, hi, extra in jobs
        ])

    @contextmanager
    def publish(self, batch: np.ndarray):
        """One shared segment serving several scatter_batch calls — the
        two-phase writes copy their keys to shared memory once instead of
        once per phase."""
        handle = SharedArray.create(np.ascontiguousarray(batch))
        try:
            yield handle
        finally:
            handle.unlink()

    # -- structure ----------------------------------------------------

    def snapshot(self, shard: int) -> Tuple[np.ndarray, Optional[list]]:
        view = self._request(self._workers[shard], ("snapshot",))
        try:
            return view.unpack(copy=True)
        finally:
            view.unlink()

    # -- crash detection and respawn ----------------------------------

    def dead_shards(self) -> list:
        """Positions whose worker process is no longer alive."""
        return [s for s, worker in enumerate(self._workers)
                if not worker.process.is_alive()]

    def worker_pids(self) -> list:
        """Worker process ids in shard order (fault-injection tests kill
        these to exercise crash recovery)."""
        return [worker.process.pid for worker in self._workers]

    def respawn(self, shard: int, keys: np.ndarray,
                payloads: Optional[list],
                seed: Optional[Counters] = None) -> None:
        """Replace a broken worker with a fresh one provisioned over the
        recovered ``(keys, payloads)`` contents.

        The caller observed the worker's *pipe* fail, which is
        definitive — a worker whose protocol is dead cannot serve its
        shard even if its process lingers (a corpse slow to reap, or a
        process wedged past a transient pipe error).  Skipping it here
        while reporting the shard repaired would let a logged batch
        write acknowledge without its apply ever landing, so a process
        that outlives a short join is forced out and replaced
        unconditionally.  The respawn guard serializes concurrent
        repairs; a second repair of the same shard wastefully but
        harmlessly re-provisions from the same durable state.  The old
        handle's reader thread has already failed (or is failing) every
        future that was in flight on the dead pipe — replacement does
        not orphan any of them.
        """
        with self._respawn_guard:
            self._reap(self._workers[shard])
            self._workers[shard] = self._launch(
                [shard], [(keys, payloads)], seeds=[seed])[0]

    def _reap(self, old: _WorkerHandle) -> None:
        """Force out a worker observed dead (no close handshake: the
        pipe already failed) and release its conn, reader, and ring."""
        old.closing = True
        old.process.join(timeout=1)
        if old.process.is_alive():
            old.process.terminate()
            old.process.join(timeout=5)
            if old.process.is_alive():  # pragma: no cover
                old.process.kill()
                old.process.join(timeout=5)
        try:
            old.conn.close()
        except OSError:
            pass
        old.reader.join(timeout=5)
        if old.ring is not None:
            old.ring.unlink()

    def replace(self, start: int, stop: int, parts: Sequence[tuple],
                inherit: Sequence[Sequence[int]]) -> None:
        """Re-provision the shard SMO's affected workers: seed counters
        are collected from the outgoing workers, fresh workers are
        started over the parts' shared segments, and the outgoing
        processes (and their segments) are retired."""
        seeds = []
        for sources in inherit:
            seed = Counters()
            for old in sources:
                seed.merge(self.counters(old))
            seeds.append(seed if sources else None)
        fresh = self._launch(range(start, start + len(parts)), parts,
                             seeds=seeds)
        # Outgoing replicas tail durability dirs the SMO deletes next;
        # retire them before the splice (the facade re-attaches fresh
        # ones once the rewritten dirs exist) and keep the replica list
        # position-aligned with the worker list.
        for shard in range(start, stop):
            self.drop_replica(shard)
        outgoing = self._workers[start:stop]
        self._workers[start:stop] = fresh
        self._replica_workers[start:stop] = [None] * len(fresh)
        self._renumber()
        for worker in outgoing:
            self._retire(worker)

    def counters(self, shard: int) -> Counters:
        return self.call(shard, "counters_snapshot")

    @staticmethod
    def _tag_replica_snapshot(snap: Optional[dict],
                              shard: int) -> Optional[dict]:
        """Prefix a replica worker's metric names with
        ``replica.shardN.`` so its registry merges into the service view
        without colliding with (and silently inflating) the primary's
        identically named metrics.  Events pass through untouched — they
        interleave by timestamp and carry their own fields."""
        if snap is None:
            return None
        prefix = f"replica.shard{shard}."
        tagged = dict(snap)
        for table in ("counters", "gauges", "histograms"):
            tagged[table] = {prefix + name: value
                             for name, value in snap.get(table,
                                                         {}).items()}
        return tagged

    def obs_snapshots(self) -> list:
        """Every worker's metrics-registry snapshot (``None`` for a dead
        worker — metrics gathering must never trip crash repair).
        Replica workers' registries ride along after the primaries',
        tagged ``replica.shardN.*``, so replica-side replay counters and
        read latencies reach the merged service view under their own
        names."""
        snapshots = []
        for shard in range(len(self._workers)):
            try:
                snapshots.append(self.call(shard, "obs_snapshot"))
            except Exception:
                snapshots.append(None)
        for shard, worker in enumerate(self._replica_workers):
            if worker is None:
                continue
            try:
                snapshots.append(self._tag_replica_snapshot(
                    self._request(worker, ("call", "obs_snapshot", ())),
                    shard))
            except Exception:
                snapshots.append(None)
        return snapshots

    def trace_snapshots(self) -> list:
        """Every worker's flight-recorder drain (primaries then replica
        workers; ``None`` for a dead worker — trace gathering must never
        trip crash repair).  Drains, not snapshots: each span ships to
        the facade exactly once."""
        snapshots = []
        for shard in range(len(self._workers)):
            try:
                snapshots.append(self.call(shard, "trace_drain"))
            except Exception:
                snapshots.append(None)
        for worker in self._replica_workers:
            if worker is None:
                continue
            try:
                snapshots.append(
                    self._request(worker, ("call", "trace_drain", ())))
            except Exception:
                snapshots.append(None)
        return snapshots

    # -- replication ---------------------------------------------------

    def add_replicas(self, roots: Dict[int, str]) -> None:
        """Start a replica worker per ``{shard: durability dir}`` entry,
        all at once.  The ``rstatus`` round trips are the bootstrap
        barrier: when this returns, every replica has loaded checkpoint
        + tail and is applying."""
        for shard in roots:
            self.drop_replica(shard)
        shards = list(roots)
        workers = self._launch(shards, roots=[roots[s] for s in shards])
        for shard, worker in zip(shards, workers):
            try:
                self._replica_workers[shard] = worker
            except IndexError:
                # close() emptied the slots while we bootstrapped (replica
                # repair runs on a background thread); retire the orphan.
                self._retire(worker)

    def has_replica(self, shard: int) -> bool:
        return (shard < len(self._replica_workers)
                and self._replica_workers[shard] is not None)

    def replica_read(self, shard: int, method: str, args: tuple = (),
                     min_lsn: int = 0,
                     max_staleness_s: Optional[float] = None):
        worker = (self._replica_workers[shard]
                  if self.has_replica(shard) else None)
        if worker is None:
            from repro.core.errors import ReplicaUnavailableError
            raise ReplicaUnavailableError(f"shard {shard} has no replica")
        return self._request(
            worker, ("rread", method, args, min_lsn, max_staleness_s))

    def replica_status(self, shard: int) -> Optional[dict]:
        if not self.has_replica(shard):
            return None
        try:
            return self._request(self._replica_workers[shard],
                                 ("rstatus",))
        except WorkerDiedError:
            return None

    def promote_replica(self, shard: int) -> int:
        """Failover: the replica worker drains the (quiescent) WAL tail,
        installs its caught-up index as the shard, and takes the dead
        primary's slot; the corpse is reaped, its ring unlinked.  On any
        failure nothing has been swapped — the caller falls back to
        respawn-from-checkpoint."""
        with self._respawn_guard:
            worker = (self._replica_workers[shard]
                      if self.has_replica(shard) else None)
            if worker is None:
                from repro.core.errors import ReplicaUnavailableError
                raise ReplicaUnavailableError(
                    f"shard {shard} has no replica")
            applied = self._request(worker, ("promote",))
            self._reap(self._workers[shard])
            self._workers[shard] = worker
            self._replica_workers[shard] = None
            self._renumber()
            return applied

    def drop_replica(self, shard: int) -> None:
        worker = (self._replica_workers[shard]
                  if self.has_replica(shard) else None)
        if worker is None:
            return
        self._replica_workers[shard] = None
        self._release(worker)

    def dead_replicas(self) -> list:
        """Positions whose *replica* worker process died (primary deaths
        are :meth:`dead_shards` — the distinction decides failover vs
        read-routing repair)."""
        return [s for s, worker in enumerate(self._replica_workers)
                if worker is not None and not worker.process.is_alive()]

    def replica_pids(self) -> list:
        """Replica worker pids by shard (``None`` where no replica) —
        the fault-injection seam, like :meth:`worker_pids`."""
        return [None if worker is None else worker.process.pid
                for worker in self._replica_workers]
