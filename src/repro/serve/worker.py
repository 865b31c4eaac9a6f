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
  respawn and split/merge re-provisioning never push key/payload arrays
  through a pipe;
* every request and every reply — the sub-batch a shard reads or
  writes, and the result it returns — travels by value in one pickled
  pipe frame, so the worker owns what it unpickles and no shared
  segment is created per request;
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

import itertools
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
from repro.core.shm import ShardStorageView
from repro.core.stats import Counters

from .backend import (DEFAULT_MAX_INFLIGHT, BatchJob, Call,
                      ExecutionBackend, WorkerDiedError, build_shard,
                      run_shard_op)


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


def _worker_main(conn, environ: Dict[str, str], config: AlexConfig,
                 policy: AdaptationPolicy,
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
    ``(req_id, "ok", result)`` or ``(req_id, "err", exc)``, pickled
    whole into the pipe.  Requests execute strictly in arrival order —
    the pipelining lives in the *parent*, which no longer waits for one
    reply before sending the next request.

    Ops: ``("load", view, seed_counters)`` builds the index from a
    shared-memory view; ``("call", method, args)`` runs a shard op (a
    batch method's sub-batch arrives by value as the first argument, the
    worker's own copy); ``("snapshot",)`` packs the shard's contents into
    a fresh view the parent unlinks; ``("close",)`` acks and exits.

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
        conn.send(reply)
    if replica is not None:
        replica.stop()
    conn.close()


class _WorkerHandle:
    """Parent-side handle: process, pipe, in-flight budget, and the
    reply-reader thread demultiplexing to futures."""

    __slots__ = ("process", "conn", "shard", "send_lock", "pending",
                 "pending_lock", "inflight", "reader", "closing", "_ids")

    def __init__(self, process, conn, shard: int, max_inflight: int):
        self.process = process
        self.conn = conn
        self.shard = shard
        self.send_lock = threading.Lock()
        self.pending: Dict[int, Future] = {}
        self.pending_lock = threading.Lock()
        self.inflight = threading.BoundedSemaphore(max_inflight)
        self.closing = False
        self._ids = itertools.count()
        self.reader = threading.Thread(target=self._read_replies,
                                       daemon=True,
                                       name="alex-reply-reader")
        self.reader.start()

    # -- requests --------------------------------------------------------

    def frame(self, body: tuple, tctx) -> Tuple[int, bytes]:
        """A fresh request id and the pickled frame ``(req_id, tctx) +
        body`` — the caller's trace context (or ``None``) rides in slot
        1, so worker-side spans join the request's tree.  An unpicklable
        argument raises here, before any slot is taken or byte sent; an
        id whose frame is never sent is simply skipped."""
        req_id = next(self._ids)
        return req_id, ForkingPickler.dumps((req_id, tctx) + body)

    def send(self, req_id: int, blob: bytes) -> Future:
        """Push one pickled frame down the pipe without waiting for its
        reply: acquire an in-flight slot (the admission budget — this is
        where backpressure blocks), register the future, send.  The
        reply-reader settles the future whenever the worker gets to it;
        a broken pipe settles it with :class:`WorkerDiedError` at
        once."""
        with obs.span("rpc.inflight_wait"):
            self.inflight.acquire()
        future: Future = Future()
        with self.pending_lock:
            self.pending[req_id] = future
        try:
            with self.send_lock:
                self.conn.send_bytes(blob)
        except OSError as exc:
            self.settle(req_id, WorkerDiedError(
                self.shard, f"on send ({exc!r})"), is_error=True)
        return future

    def settle(self, req_id: int, value, is_error: bool) -> None:
        """Complete one request: resolve its future and release its
        admission slot (exactly once, whoever claims the future)."""
        with self.pending_lock:
            future = self.pending.pop(req_id, None)
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
        futures."""
        while True:
            try:
                req_id, status, value = self.conn.recv()
            except (EOFError, OSError, ValueError) as exc:
                self._fail_all_pending(exc)
                return
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
    """One long-lived worker process per shard (the operating system
    schedules them across cores), whole shards moved through shared
    memory, requests and replies pipelined out of order through
    per-worker futures.

    ``max_inflight`` bounds how many requests the parent may have
    outstanding per worker (admission control — further submitters block
    until a slot frees); ``max_inflight=1`` degenerates to the strict
    call-and-wait discipline, which the serving benchmark uses as its
    baseline.
    """

    name = "process"

    def __init__(self, config: AlexConfig, policy: AdaptationPolicy,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT):
        self._config = config
        # The configured policy instance itself travels to every worker
        # (each launch pickles it; AdaptationPolicy excludes its lock), so
        # cost-model parameters, drift factors, and reserves survive the
        # process boundary — each worker unpickles an independent copy.
        self._policy = policy
        self.max_inflight = max_inflight
        self._workers: List[_WorkerHandle] = []
        #: Per-shard replica worker slot, spliced in lockstep with
        #: ``_workers`` by :meth:`replace` so positions stay aligned
        #: across SMOs.  A replica worker is a full ``_WorkerHandle``
        #: (own process, pipe, reader thread) whose process tails the
        #: shard's durability dir instead of loading a view.
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
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, dict(os.environ), self._config, self._policy,
                  replica_root),
            daemon=True,
            name=("alex-replica-worker" if replica_root
                  else "alex-shard-worker"))
        try:
            process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        return _WorkerHandle(process, parent_conn, shard, self.max_inflight)

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
        """Ask one worker to exit and reap its process and reader
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

    def _submit(self, worker: _WorkerHandle, body: tuple) -> Future:
        """Send one request without waiting for its reply."""
        return worker.send(*worker.frame(body, trace.wire()))

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

        Every frame is *pickled up front*, before the first is sent: an
        unpicklable argument (say, a lambda payload in an apply batch)
        raises with zero requests in flight, so it can never leave some
        shards applied and others not.  After that, a worker that dies
        mid-fan-out becomes an error *result* (its reader fails the
        future) while the surviving workers' replies still settle.
        """
        with trace.span("rpc.fanout"):
            tctx = trace.wire()  # one context stamps every frame
            frames = [(self._workers[shard],
                       self._workers[shard].frame(body, tctx))
                      for shard, body in messages]
            return self._gather([worker.send(*frame)
                                 for worker, frame in frames])

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

    def scatter_batch(self, batch: np.ndarray,
                      jobs: Sequence[BatchJob]) -> list:
        return self._multi([
            (shard, ("call", method, (batch[lo:hi],) + extra))
            for shard, method, lo, hi, extra in jobs
        ])

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
        pipe already failed) and release its conn and reader."""
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
        primary's slot; the corpse is reaped.  On any
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
