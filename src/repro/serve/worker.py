"""Process-hosted shards: pipelined multi-core RPC for the service.

The thread backend runs a batch's shard calls one after another on the
caller's thread, so sharding never shortens its wall clock.
:class:`ProcessBackend` hosts each shard's ALEX tree in a **long-lived
worker process** instead:

* workers fork from one **preloaded forkserver**, an interpreter started
  on the first launch that imports :data:`_PRELOAD` (numpy and every
  ``repro`` module a worker runs) once, so no primary, replica, respawn
  or split/merge worker boots an interpreter or imports anything.  The
  server is single-threaded, never touches the parent's locks or arenas,
  and idles (about 36 MB resident) until the parent exits.  A fork
  inherits the *server's* environment and module state, so every launch
  ships the parent's ``os.environ``, which the worker installs before it
  re-derives its obs and trace state.  The preload is an optimization
  only: under ``-E``/``-I``, or with a forkserver other code started
  first, workers import what they run after the fork.  If the server
  dies, every worker it forked reads as dead to
  :meth:`ProcessBackend.dead_shards`, and the next launch starts a new
  one;
* workers live until the service closes or a shard split/merge
  re-provisions them.  A durable shard is rebuilt by its own worker,
  from the shard's directory (a ``recover`` request), never in the
  parent;
* every request and every reply travels by value in one pipe frame of
  one codec (:func:`_encode`, :func:`_send`, :func:`_decode`), pickled
  with protocol 5 (:data:`_PICKLE_PROTOCOL`): sub-batches, results, and
  whole shards' ``(keys, payload column)`` for provisioning, split/merge
  and snapshots.  A small frame is one in-band ``send_bytes``; in a large
  one each big numeric buffer goes out of band, straight from the
  array's memory, and is read into one preallocated buffer the
  unpickled arrays are views of;
* the facade's two-phase write orchestration — validate on all involved
  workers, then apply — runs unchanged, so cross-shard batch writes stay
  all-or-nothing.

RPC discipline
--------------

Every frame carries a **request id**, and each worker keeps **multiple
requests in flight** (bounded by a per-worker admission semaphore,
``max_inflight``): the parent sends ``(req_id, tctx, op, ...)`` without
waiting, and a *reply-reader thread per worker* demultiplexes ``(req_id,
status, value)`` replies to per-request futures, so requests from
different client threads complete **out of order**.  When a worker's
pipe dies, the reader fails *every* outstanding future for that worker
with :class:`~repro.serve.backend.WorkerDiedError`, so concurrent callers
all reach the durability respawn path.

The worker runs shard methods through the thread backend's
:func:`repro.serve.backend.run_shard_op` dispatcher, and each receives a
pickled *copy* of the facade's :class:`~repro.core.policy.AdaptationPolicy`
with its decision log cleared: leaf/tree SMO decisions live with the
shard, shard split/merge decisions in the parent.
"""

from __future__ import annotations

import io
import itertools
import multiprocessing as mp
import os
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from multiprocessing import forkserver
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.alex import AlexIndex, export_arrays
from repro.obs import trace
from repro.core.config import AlexConfig
from repro.core.errors import ReplicaUnavailableError
from repro.core.kernels import get_kernels
from repro.core.policy import AdaptationPolicy
from repro.core.stats import Counters
from repro.durability.recover import RecoveryResult, rebuild_shard

from .backend import (DEFAULT_MAX_INFLIGHT, BatchJob, Call,
                      ExecutionBackend, WorkerDiedError, build_shard,
                      run_all, run_shard_op)


#: The modules the forkserver imports before it forks any worker: the
#: shard RPC loop, the replica, the checkpoint writer and both
#: kernel backends (which the kernel registry would otherwise import on
#: each worker's first resolve), and with them numpy and every ``repro``
#: module a primary or replica worker runs.  Importing them starts no
#: thread (forking a process with threads could copy a held lock).
_PRELOAD = ("repro.serve.worker", "repro.replication.replica",
            "repro.durability.persistence",
            "repro.core.kernels.numpy_backend",
            "repro.core.kernels.cffi_backend")

_forkserver_lock = threading.Lock()

#: The pickle protocol of every frame, both ways.  Protocol 5 (PEP 574)
#: hands each contiguous numeric array's buffer to :func:`_encode`'s
#: callback instead of copying it into the stream: a large one is sent
#: out of band, straight from the array's memory, and a small one is
#: written into the stream.  An array that was read-only arrives
#: read-only either way.
_PICKLE_PROTOCOL = 5

#: Buffers of at least this many bytes travel out of band, and a pickle
#: stream this long travels the same way; a frame with neither is one
#: in-band ``send_bytes``, as cheap as a plain pickle.
_OUT_OF_BAND_BYTES = 1 << 16

#: Parts per :func:`os.readv` call, well under any platform's
#: ``IOV_MAX``.
_READV_PARTS = 64

#: The first byte of an out-of-band frame's header.  An in-band frame is
#: a pickle stream, which starts with the ``PROTO`` opcode ``0x80``.
_HEADER_MARK = b"B"

#: Each part of an out-of-band frame starts at a multiple of this many
#: bytes into the receive buffer, so a decoded array is aligned.
_PART_ALIGN = 64


class _FramePickler(pickle.Pickler):
    """:class:`~multiprocessing.reduction.ForkingPickler`'s reducers
    (connections, sockets, bound methods) with a ``buffer_callback``,
    which that class does not take."""

    def __init__(self, file, buffer_callback):
        super().__init__(file, _PICKLE_PROTOCOL,
                         buffer_callback=buffer_callback)
        self.dispatch_table = ForkingPickler._copyreg_dispatch_table.copy()
        self.dispatch_table.update(ForkingPickler._extra_reducers)


def _encode(message) -> Tuple[bytes, tuple]:
    """One frame of ``message``: ``(header, parts)``.

    Pickling happens here, so an unpicklable message raises before any
    byte is sent.  A small frame is its pickle stream alone, with no
    parts.  Otherwise the header is :data:`_HEADER_MARK` and the sizes
    of the parts, little-endian ``uint64``: the pickle stream, then each
    out-of-band buffer — a view of the array's own memory, not a copy,
    so the message must not change until :func:`_send` returns."""
    buffers = []

    def out_of_band(buffer) -> bool:
        raw = buffer.raw()
        if raw.nbytes < _OUT_OF_BAND_BYTES:
            return True  # stays in the stream
        buffers.append(raw)
        return False

    stream = io.BytesIO()
    _FramePickler(stream, out_of_band).dump(message)
    body = stream.getbuffer()
    if not buffers and body.nbytes < _OUT_OF_BAND_BYTES:
        return body, ()
    parts = (body, *buffers)
    return (_HEADER_MARK + struct.pack(f"<{len(parts)}Q",
                                       *(part.nbytes for part in parts)),
            parts)


def _send(conn, frame: Tuple[bytes, tuple]) -> None:
    """Write one :func:`_encode` frame: the header with ``send_bytes``,
    then each part straight to the pipe's descriptor.  The caller holds
    the connection's send side for the whole frame."""
    header, parts = frame
    conn.send_bytes(header)
    if parts:
        fd = conn.fileno()
        for part in parts:
            while part.nbytes:
                part = part[os.write(fd, part):]


def _decode(conn):
    """Read and unpickle one frame that :func:`_send` wrote.

    An out-of-band frame's parts are read with :func:`os.readv` into one
    preallocated ``bytearray``, each part aligned, and every array
    unpickled from them is a view of that buffer, which it keeps alive.
    Raises :class:`EOFError` when the peer closes mid-frame and
    :class:`ValueError` (or a pickle error) on a malformed frame; after
    either the stream cannot be resynchronized."""
    header = conn.recv_bytes()
    if header[:1] != _HEADER_MARK:
        return pickle.loads(header)
    count, extra = divmod(len(header) - 1, 8)
    if count == 0 or extra:
        raise ValueError(f"malformed frame header of {len(header)} bytes")
    sizes = struct.unpack(f"<{count}Q", header[1:])
    offsets, total = [], 0
    for size in sizes:
        offsets.append(total)
        total += -(-size // _PART_ALIGN) * _PART_ALIGN
    view = memoryview(bytearray(total))
    parts = [view[offset:offset + size]
             for offset, size in zip(offsets, sizes)]
    _read_into(conn.fileno(), parts)
    return pickle.loads(parts[0], buffers=parts[1:])


def _read_into(fd: int, parts: List[memoryview]) -> None:
    """Fill every part from ``fd`` in order, with as few reads as the
    pipe allows."""
    pending = [part for part in parts if part.nbytes]
    while pending:
        got = os.readv(fd, pending[:_READV_PARTS])
        if got == 0:
            raise EOFError("the peer closed the pipe mid-frame")
        while got:
            head = pending[0]
            if got < head.nbytes:
                pending[0] = head[got:]
                break
            got -= head.nbytes
            del pending[0]


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

    The worker installs ``environ``, the parent's environment at launch,
    before anything else, and has :mod:`repro.obs` and
    :mod:`repro.obs.trace` re-derive their state from it: it forked from
    the preloaded server and inherited *its* environment and state.

    Every request frame is ``(req_id, tctx, op, ...)``, ``tctx`` the
    sender's trace context in wire form (or ``None``), installed as the
    dispatch's ambient context so every span the op records joins the
    request's cross-process tree.  Every reply echoes the id: ``(req_id,
    "ok", result)`` or ``(req_id, "err", exc)``.  Requests execute in
    arrival order; the pipelining lives in the parent.

    Ops: ``("load", keys, payloads, seed_counters)`` builds the index
    from a shard's keys and payload column; ``("recover", root)``
    rebuilds it from the shard's durability directory
    (:func:`~repro.durability.recover.rebuild_shard`) and replies with
    the report, without the index; ``("call", method, args)`` runs a
    shard op (a batch method's sub-batch arrives by value as the first
    argument); ``("snapshot",)`` replies with the shard's ``(keys,
    payload column)``; ``("close",)`` acks and exits.

    With ``replica_root`` set the process is a **replica worker**: it
    bootstraps a :class:`~repro.replication.Replica` from that directory
    before serving (so the first request doubles as the bootstrap
    barrier) and answers ``("rread", sent_at, method, args, min_lsn,
    max_staleness_s)`` and ``("rstatus", sent_at)``, ``sent_at`` the
    parent's send stamp, until a ``("promote",)`` drains the log's tail
    and makes the worker the primary.  Each record the shard logs
    arrives as its bytes in ``(None, None, "push", sent_at, record)``
    and gets no reply; one that does not decode or apply ends the
    worker, so the replica reads as dead.
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
    with trace.span("kernel.warm"):
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
            message = _decode(conn)
        except (EOFError, OSError):  # parent died; daemon exit
            break
        req_id, tctx, op = message[0], message[1], message[2]
        if op == "push":
            replica.heard(message[3])
            try:
                replica.apply(message[4])
            except BaseException:
                break
            continue
        # The frame's trace context (None for untraced requests) becomes
        # ambient for the dispatch, so spans recorded inside the op land
        # in the originating request's cross-process tree.
        with trace.attach(tctx):
            try:
                if op == "load":
                    keys, payloads, seed = message[3:]
                    del message
                    # Sorting the worker's own part into fresh arrays
                    # frees the decoded frame before the build, and the
                    # part goes once the leaves copied it: no two are
                    # ever resident together.
                    keys, payloads = AlexIndex._sort_column(keys, payloads)
                    index = build_shard(keys, payloads, config, policy)
                    del keys, payloads
                    if seed is not None:
                        index.counters.merge(seed)
                    reply = (req_id, "ok", None)
                elif op == "recover":
                    recovery = rebuild_shard(message[3], config, policy)
                    index = recovery.index
                    reply = (req_id, "ok", recovery.detached())
                elif op == "call":
                    method, args = message[3], message[4]
                    reply = (req_id, "ok",
                             run_shard_op(index, method, *args))
                elif op == "snapshot":
                    reply = (req_id, "ok", export_arrays(index))
                elif op == "rread":
                    sent_at, method, args, min_lsn, bound = message[3:]
                    replica.heard(sent_at)
                    reply = (req_id, "ok",
                             replica.read(method, args, min_lsn=min_lsn,
                                          max_staleness_s=bound))
                elif op == "rstatus":
                    replica.heard(message[3])
                    reply = (req_id, "ok", replica.status())
                elif op == "promote":
                    index = replica.promote()
                    reply = (req_id, "ok", replica.applied_lsn)
                    replica = None
                elif op == "close":
                    _send(conn, _encode((req_id, "ok", None)))
                    break
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except BaseException as exc:
                reply = (req_id, "err", exc)
        _send(conn, _encode(reply))
        del reply  # a snapshot's arrays, freed before the next frame
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

    def frame(self, body: tuple, tctx) -> Tuple[int, tuple]:
        """A fresh request id and the encoded frame ``(req_id, tctx) +
        body`` — the caller's trace context (or ``None``) rides in slot
        1, so worker-side spans join the request's tree.  An unpicklable
        argument raises here, before any slot is taken or byte sent; an
        id whose frame is never sent is simply skipped."""
        req_id = next(self._ids)
        return req_id, _encode((req_id, tctx) + body)

    def send(self, req_id: int, frame: tuple) -> Future:
        """Push one encoded frame down the pipe without waiting for its
        reply: acquire an in-flight slot (the admission budget — this is
        where backpressure blocks), register the future, send.  The
        reply-reader settles the future whenever the worker gets to it;
        a broken pipe settles it with :class:`WorkerDiedError` at
        once."""
        with trace.span("rpc.inflight_wait"):
            self.inflight.acquire()
        future: Future = Future()
        with self.pending_lock:
            self.pending[req_id] = future
        try:
            with self.send_lock:
                _send(self.conn, frame)
        except OSError as exc:
            self.settle(req_id, WorkerDiedError(
                self.shard, f"on send ({exc!r})"), is_error=True)
        return future

    def post(self, frame: tuple) -> None:
        """Push one encoded frame that gets no reply (a replica's pushed
        WAL record): no id, no in-flight slot, no future.  Raises
        :class:`OSError` when the pipe is dead."""
        with self.send_lock:
            _send(self.conn, frame)

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
        futures.  A frame that does not decode leaves the stream out of
        step, so the pipe is shut down — later sends fail at once
        instead of waiting on a reader that is gone — and it counts as
        dead."""
        while True:
            try:
                req_id, status, value = _decode(self.conn)
            except (EOFError, OSError) as exc:
                self._fail_all_pending(exc)
                return
            except Exception as exc:
                self._shutdown()
                self._fail_all_pending(exc)
                return
            self.settle(req_id, value, is_error=(status == "err"))

    def _shutdown(self) -> None:
        """Shut both directions of the live pipe down, leaving its
        descriptor open for :meth:`ProcessBackend._reap` to close (a
        descriptor closed here could be reused under a concurrent
        sender).  The worker reads end-of-file and exits."""
        if self.closing:
            return
        try:
            with socket.fromfd(self.conn.fileno(), socket.AF_UNIX,
                               socket.SOCK_STREAM) as peer:
                peer.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

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
    schedules them across cores), requests and replies — whole shards
    included — pipelined out of order through per-worker futures.

    ``max_inflight`` bounds how many requests the parent may have
    outstanding per worker (admission control — further submitters block
    until a slot frees); ``max_inflight=1`` degenerates to the strict
    call-and-wait discipline, which the serving benchmark uses as its
    baseline.
    """

    name = "process"

    def __init__(self, config: AlexConfig, policy: AdaptationPolicy,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT):
        self.config = config
        # The configured policy instance itself travels to every worker
        # (each launch pickles it; AdaptationPolicy excludes its lock), so
        # cost-model parameters, drift factors, and reserves survive the
        # process boundary — each worker unpickles an independent copy.
        self._policy = policy
        self.max_inflight = max_inflight
        self._workers: List[_WorkerHandle] = []
        #: Per-shard replica worker slot, spliced in lockstep with
        #: ``_workers`` by :meth:`replace`.  A replica worker is a full
        #: ``_WorkerHandle`` whose process bootstraps from the shard's
        #: directory, then applies the records pushed down its pipe.
        self._replica_workers: List[Optional[_WorkerHandle]] = []
        self._respawn_guard = threading.Lock()
        self._closed = False

    # -- lifecycle ----------------------------------------------------

    def _start_handle(self, shard: int,
                      replica_root: Optional[str] = None) -> _WorkerHandle:
        """Start one worker process (primary or replica) and its
        parent-side handle; primaries still need their ``load`` or
        ``recover``."""
        ctx = _forkserver_context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, dict(os.environ), self.config, self._policy,
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

    def _launch(self, shards: Sequence[int], requests: Sequence[tuple]
                ) -> Tuple[List[_WorkerHandle], list]:
        """Bring up one primary worker per position in ``shards``, all at
        once, and return the workers and their first replies.

        Three sweeps: start every process, submit each its first
        request ``requests[i]`` (a ``load`` of a ``(keys, payload
        column)`` part and counter seed, which goes to the pipe from the
        part's own arrays, or a ``recover`` of a durability directory),
        then wait on every reply, so the workers boot, sort their parts
        and build in parallel.  On any failure — a process that will not
        start, a payload that does not pickle, a request the worker
        rejects (a duplicate key raises in the worker whose part holds
        it) — every started worker is released before the first error,
        in ``shards`` order, propagates.
        """
        workers: List[_WorkerHandle] = []
        try:
            for shard in shards:
                workers.append(self._start_handle(shard))
            replies = self._gather([self._submit(worker, request)
                                    for worker, request
                                    in zip(workers, requests)])
        except BaseException:
            for worker in workers:
                self._release(worker)
            raise
        return workers, replies

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
        self._install(self._launch(
            range(len(parts)),
            [("load", *part, None) for part in parts])[0])

    def recover(self, roots: Sequence[str]) -> List[RecoveryResult]:
        workers, recoveries = self._launch(
            range(len(roots)), [("recover", root) for root in roots])
        self._install(workers)
        return recoveries

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
        # Replica workers first, so none is still reading a WAL (a
        # bootstrap or a gap fill) when the caller deletes its directory.
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
        """Every future's result, in order (see :func:`run_all`)."""
        return run_all([future.result for future in futures])

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

    def snapshot(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._request(self._workers[shard], ("snapshot",))

    # -- crash detection and respawn ----------------------------------

    def dead_shards(self) -> list:
        """Positions whose worker process is no longer alive."""
        return [s for s, worker in enumerate(self._workers)
                if not worker.process.is_alive()]

    def worker_pids(self) -> list:
        """Worker process ids in shard order (fault-injection tests kill
        these to exercise crash recovery)."""
        return [worker.process.pid for worker in self._workers]

    def respawn(self, shard: int, root: str) -> RecoveryResult:
        """Replace a broken worker with a fresh one that rebuilds the
        shard from its durability directory ``root``.

        A failed *pipe* is definitive: a process that outlives a short
        join is forced out, since skipping it would let a logged write
        acknowledge without its apply.  The respawn guard serializes
        repairs (a second one harmlessly rebuilds the same state), and
        the old reader has failed every request in flight on the pipe.
        """
        with self._respawn_guard:
            self._reap(self._workers[shard])
            (self._workers[shard],), (recovery,) = self._launch(
                [shard], [("recover", root)])
            return recovery

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
        started over the parts, and the outgoing processes are
        retired."""
        seeds = []
        for sources in inherit:
            seed = Counters()
            for old in sources:
                seed.merge(self.counters(old))
            seeds.append(seed if sources else None)
        fresh = self._launch(
            range(start, start + len(parts)),
            [("load", *part, seed) for part, seed in zip(parts, seeds)])[0]
        # Outgoing replicas follow durability dirs the SMO deletes next;
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
        ``replica.shardN.`` so they never inflate the primary's in the
        merged view.  Events, which carry their own fields, pass as is."""
        if snap is None:
            return None
        prefix = f"replica.shard{shard}."
        tagged = dict(snap)
        for table in ("counters", "gauges", "histograms"):
            tagged[table] = {prefix + name: value
                             for name, value in snap.get(table,
                                                         {}).items()}
        return tagged

    def _poll(self, method: str) -> Tuple[list, list]:
        """Shard op ``method``'s result from every primary worker, and
        ``(shard, result)`` from every replica worker; ``None`` for a
        dead worker (gathering must never trip crash repair)."""
        def ask(worker):
            try:
                return self._request(worker, ("call", method, ()))
            except Exception:
                return None
        return ([ask(worker) for worker in self._workers],
                [(shard, ask(worker))
                 for shard, worker in enumerate(self._replica_workers)
                 if worker is not None])

    def obs_snapshots(self) -> list:
        """Every worker's metrics-registry snapshot.  Replica workers'
        follow the primaries', tagged ``replica.shardN.*``, so their
        replay counters and read latencies merge under their own
        names."""
        primaries, replicas = self._poll("obs_snapshot")
        return primaries + [self._tag_replica_snapshot(snap, shard)
                            for shard, snap in replicas]

    def trace_snapshots(self) -> list:
        """Every worker's flight-recorder drain, primaries then replica
        workers.  Drains, not snapshots: each span ships to the facade
        exactly once."""
        primaries, replicas = self._poll("trace_drain")
        return primaries + [snap for _, snap in replicas]

    # -- replication ---------------------------------------------------

    def add_replicas(self, roots: Dict[int, str]) -> None:
        """Start a replica worker per ``{shard: durability dir}`` entry
        and install it; each bootstraps on its own while the parent
        returns (pushes queue in its pipe behind the bootstrap)."""
        for shard, root in roots.items():
            self.drop_replica(shard)
            self._replica_workers[shard] = self._start_handle(shard, root)

    def await_replicas(self, shards: Sequence[int]) -> None:
        """The bootstrap barrier: one ``rstatus`` per replica, all sent
        before any reply is awaited, so the replicas bootstrap in
        parallel.  If one failed, all of them are dropped."""
        try:
            self._gather([self._submit(self._replica_workers[s],
                                       ("rstatus", time.monotonic()))
                          for s in shards if self.has_replica(s)])
        except BaseException:
            for shard in shards:
                self.drop_replica(shard)
            raise

    def push_frame(self, shard: int, record: bytes) -> None:
        worker = (self._replica_workers[shard]
                  if self.has_replica(shard) else None)
        if worker is None:
            return
        try:
            worker.post(_encode((None, None, "push", time.monotonic(),
                                 record)))
        except OSError:
            pass  # a dead replica worker; dead_replicas() reports it

    def has_replica(self, shard: int) -> bool:
        return (shard < len(self._replica_workers)
                and self._replica_workers[shard] is not None)

    def replica_read(self, shard: int, method: str, args: tuple = (),
                     min_lsn: int = 0,
                     max_staleness_s: Optional[float] = None):
        worker = (self._replica_workers[shard]
                  if self.has_replica(shard) else None)
        if worker is None:
            raise ReplicaUnavailableError(f"shard {shard} has no replica")
        return self._request(worker, ("rread", time.monotonic(), method,
                                      args, min_lsn, max_staleness_s))

    def replica_status(self, shard: int) -> Optional[dict]:
        if not self.has_replica(shard):
            return None
        try:
            return self._request(self._replica_workers[shard],
                                 ("rstatus", time.monotonic()))
        except WorkerDiedError:
            return None

    def promote_replica(self, shard: int) -> int:
        """Failover: the replica worker applies the records queued in its
        pipe, drains the (quiescent) WAL tail once and takes the dead
        primary's slot, whose corpse is reaped.  On any failure nothing
        is swapped, and the caller falls back to a cold respawn."""
        with self._respawn_guard:
            worker = (self._replica_workers[shard]
                      if self.has_replica(shard) else None)
            if worker is None:
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
