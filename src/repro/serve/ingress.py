"""The open-loop serving front door: an ``asyncio`` ingress that
coalesces concurrent point requests into the batch engine's shape.

The facade (:class:`~repro.serve.sharded.ShardedAlexIndex`) is a batch
API — its speedups come from sorting a key array once and scattering
contiguous sub-batches — but real serving traffic arrives as many small
independent requests.  :class:`AsyncIngress` bridges the two with the
**group-commit trick applied to reads**: every request parks in a lane
for at most one *coalescing window* (``window_s``, a couple of
milliseconds) while other arrivals pile in behind it, then the whole
lane flushes downstream as one facade batch.  An early flush fires as
soon as a lane reaches 4096 keys (the batch engine's sweet spot), so
heavy load never waits out the window it no longer needs.

The accept loop never blocks on the index: flushes are handed to a
small thread pool (four threads) that drives the facade, so
several coalesced batches are in flight at once — which is exactly the
shape the process backend's pipelined RPC (multiple requests
outstanding per worker pipe, replies demultiplexed out of order) is
built to absorb.  Results come back to the event loop via
``call_soon_threadsafe`` and resolve one future per request.

Admission control bounds the damage under overload: at most
``max_queue`` keys may be queued or in flight, and beyond that arrivals
are **shed** (fail fast with :class:`ServiceOverloadedError`), which
keeps the latency of admitted requests bounded under open-loop load.

Writes pass through without coalescing: a write batch is all-or-nothing
on the facade (two-phase validate-then-apply), so coalescing unrelated
writers would entangle their failures; they still ride the same pool,
admission budget, and latency histograms — and ack the facade's
:class:`~repro.serve.options.WriteToken`, whose holder can demand
``read_your_writes`` on a later coalesced read.  Reads accept the same
``options=`` the facade does; lanes are keyed by consistency level, so
a replica-routed batch never drags primary reads along.

Per-request latency lands in the ``repro.obs`` histograms —
``ingress.coalesce_wait`` (enqueue → flush), ``ingress.rpc`` (facade
batch call), ``ingress.request`` (enqueue → reply) — with
``ingress.batch_size`` tracking the coalescing the window actually
achieved, the ``ingress.in_flight`` gauge the admission level, and
``ingress.requests`` / ``ingress.shed`` / ``ingress.batches`` counters
totalling the traffic, so ``repro top`` can render the front door next
to the backend it feeds.  Each admitted request additionally roots a
distributed trace (:mod:`repro.obs.trace`) when sampled; the coalesced
batch gets its own fan-in span linking every member trace, and that
batch context rides the facade call (and its RPC frames) so worker-side
spans join the same causal tree.

:class:`IngressRunner` wraps the ingress plus a dedicated event-loop
thread for synchronous callers (benchmarks, the dashboard driver): it
exposes blocking ``get``/``get_many``/… mirrors and an ``asubmit`` for
callers that want the ``concurrent.futures.Future`` instead.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from repro import obs
from repro.obs import trace
from repro.core.errors import KeyNotFoundError

from .backend import MISSING
from .options import (READ_YOUR_WRITES, ReadOptions, WriteToken,
                      resolve_read_options)

#: Lane size (keys) that triggers an immediate flush.
_MAX_BATCH = 4096

#: Threads driving flushed batches into the facade: the downstream
#: in-flight parallelism the pipelined process backend absorbs.
_SUBMIT_WORKERS = 4


class ServiceOverloadedError(RuntimeError):
    """Admission control shed this request (queue at ``max_queue``).
    Open-loop clients should treat it as a 503: back off and retry."""


class _Request:
    """One client request parked in a lane: its keys (contiguous in the
    flushed batch), its completion future, and its enqueue timestamp."""

    __slots__ = ("keys", "default", "strict", "single", "options",
                 "future", "t0", "root")

    def __init__(self, keys: List[float], default, strict: bool,
                 single: bool, options: Optional[ReadOptions],
                 future: asyncio.Future, t0: int):
        self.keys = keys
        self.default = default
        #: ``lookup`` semantics: a miss raises KeyNotFoundError instead
        #: of substituting the default.
        self.strict = strict
        #: Scalar request: resolve to ``values[0]``, not a list.
        self.single = single
        #: Consistency the request asked for (None = primary default).
        self.options = options
        self.future = future
        self.t0 = t0
        #: The request's trace root span (None when unsampled/disabled);
        #: opened at enqueue, finished at reply distribution.
        self.root: Optional[trace.TracedSpan] = None


class _Lane:
    """One coalescing lane (an op family sharing a facade batch call)."""

    __slots__ = ("requests", "size", "timer")

    def __init__(self):
        self.requests: List[_Request] = []
        self.size = 0                     # queued keys
        self.timer = None                 # armed asyncio TimerHandle

    def take(self):
        requests, self.requests = self.requests, []
        self.size = 0
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        return requests


class AsyncIngress:
    """Coalescing ``asyncio`` front door over a sharded service.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.sharded.ShardedAlexIndex` to drive.
        The ingress does not own it; closing the ingress leaves the
        service up.
    window_s:
        Coalescing window: the longest a request waits for company
        before its lane flushes (default 2 ms).  ``0`` flushes on the
        next loop tick — minimum latency, minimum coalescing.
    max_queue:
        Admission cap: maximum keys queued-or-in-flight (default 16384);
        arrivals past it fail with :class:`ServiceOverloadedError`.
    """

    def __init__(self, service, *, window_s: float = 0.002,
                 max_queue: int = 16384):
        self.service = service
        self.window_s = float(window_s)
        self.max_queue = int(max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=_SUBMIT_WORKERS,
            thread_name_prefix="alex-ingress")
        # Lanes are keyed ``(family, consistency)`` and created on
        # demand: requests only coalesce with requests whose
        # consistency level they share, so a replica-routed batch never
        # drags primary reads to a replica (or vice versa).  Within a
        # lane, per-request constraints merge conservatively at flush
        # time (tightest staleness bound, union of write tokens).
        self._lanes: dict = {}
        self._outstanding = 0             # admitted keys not yet replied
        self._drained: deque = deque()    # aclose() waiters
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # -- loop binding ---------------------------------------------------

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        """All lane/admission state is loop-confined (no locks); the
        first request pins the loop and mixing loops is an error."""
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError("AsyncIngress is bound to another event "
                               "loop; create one ingress per loop")
        return loop

    # -- admission ------------------------------------------------------

    def _admit(self, n: int) -> None:
        if self._closed:
            raise RuntimeError("ingress is closed")
        if self._outstanding + n > self.max_queue:
            obs.inc("ingress.shed", n)
            raise ServiceOverloadedError(
                f"{self._outstanding} keys in flight "
                f"(cap {self.max_queue})")
        self._outstanding += n
        obs.set_gauge("ingress.in_flight", self._outstanding)

    def _release(self, n: int) -> None:
        self._outstanding -= n
        obs.set_gauge("ingress.in_flight", self._outstanding)
        if self._outstanding == 0:
            while self._drained:
                gate = self._drained.popleft()
                if not gate.done():
                    gate.set_result(None)

    # -- the coalescing core --------------------------------------------

    async def _enqueue(self, family: str, keys: List[float],
                       default=None, strict: bool = False,
                       single: bool = False, options=None):
        loop = self._bind_loop()
        self._admit(len(keys))
        obs.inc("ingress.requests", len(keys))
        opts = (resolve_read_options(options)
                if options is not None else None)
        lane_name = (family,
                     opts.consistency if opts is not None else "primary")
        lane = self._lanes.get(lane_name)
        if lane is None:
            lane = self._lanes[lane_name] = _Lane()
        request = _Request(keys, default, strict, single, opts,
                           loop.create_future(), time.perf_counter_ns())
        # The trace is born here: one root span per client request,
        # finished when its reply distributes.  Head sampling decides
        # now; everything downstream inherits the decision.
        request.root = trace.start("ingress.request", family=family,
                                   keys=len(keys))
        lane.requests.append(request)
        lane.size += len(keys)
        if lane.size >= _MAX_BATCH:
            self._flush(lane_name)
        elif lane.timer is None:
            if self.window_s > 0:
                lane.timer = loop.call_later(self.window_s, self._flush,
                                             lane_name)
            else:
                lane.timer = loop.call_soon(self._flush, lane_name)
        return await request.future

    def _flush(self, lane_name) -> None:
        """Drain one lane into a facade batch on the submit pool (loop
        thread; fires from the window timer or the max-batch trip)."""
        requests = self._lanes[lane_name].take()
        if not requests:
            return
        now = time.perf_counter_ns()
        for request in requests:
            obs.record_ns("ingress.coalesce_wait", now - request.t0)
        total = sum(len(r.keys) for r in requests)
        obs.inc("ingress.batches")
        obs.observe("ingress.batch_size", total)
        batch_root = self._batch_root(requests, lane_name, total)
        self._pool.submit(self._run_batch, lane_name, requests,
                          batch_root)

    @staticmethod
    def _batch_root(requests: List[_Request], lane_name,
                    total: int) -> Optional[trace.TracedSpan]:
        """The fan-in span for one coalesced batch: a fresh trace whose
        ``links`` name every sampled member request's trace, while each
        member root gets a ``batch`` pointer back — so
        :func:`repro.obs.trace.assemble` can walk from a single request
        to the batch that carried it and out to the worker spans (and
        vice versa).  ``None`` when no member is traced."""
        links = [r.root.ctx.trace_id for r in requests
                 if r.root is not None]
        if not links:
            return None
        root = trace.start("ingress.batch", force=True, record=False,
                           family=lane_name[0], size=total, links=links)
        if root is not None:
            for r in requests:
                if r.root is not None:
                    r.root.fields["batch"] = root.ctx.trace_id
        return root

    @staticmethod
    def _effective_options(
            requests: List[_Request]) -> Optional[ReadOptions]:
        """The one :class:`ReadOptions` a coalesced batch runs under —
        the conservative merge of its requests' constraints (all share
        a consistency level; that is what keyed them into one lane).
        Tightest staleness bound and the pointwise-max token union are
        at least as strict as what any member asked for, so riding the
        merged batch never weakens a request's guarantee."""
        opts = [r.options for r in requests if r.options is not None]
        if not opts:
            return None
        bounds = [o.max_staleness_s for o in opts
                  if o.max_staleness_s is not None]
        bound = min(bounds) if bounds else None
        if opts[0].consistency == READ_YOUR_WRITES:
            token = WriteToken.empty()
            for o in opts:
                if o.token:
                    token = token.merge(o.token)
            return ReadOptions.read_your_writes(token,
                                                max_staleness_s=bound)
        return ReadOptions.replica_ok(max_staleness_s=bound)

    def _run_batch(self, lane_name, requests: List[_Request],
                   batch_root: Optional[trace.TracedSpan] = None) -> None:
        """Drive one coalesced batch into the facade (pool thread) and
        hand the results back to the loop for distribution.  The batch's
        fan-in trace context is attached here — pool threads do not
        inherit contextvars — so the facade call (and the RPC frames it
        emits) joins the batch trace."""
        keys = np.concatenate([
            np.asarray(r.keys, dtype=np.float64) for r in requests])
        options = self._effective_options(requests)
        error: Optional[BaseException] = None
        values = None
        start = time.perf_counter_ns()
        try:
            with trace.attach(batch_root.ctx if batch_root else None):
                if lane_name[0] == "get":
                    values = self.service.get_many(keys, default=MISSING,
                                                   options=options)
                else:
                    values = self.service.contains_many(keys,
                                                        options=options)
        except BaseException as exc:
            error = exc
        obs.record_ns("ingress.rpc", time.perf_counter_ns() - start)
        if batch_root is not None:
            if error is not None:
                batch_root.fields["error"] = type(error).__name__
            batch_root.finish()
        self._loop.call_soon_threadsafe(self._distribute, requests,
                                        values, error)

    def _distribute(self, requests: List[_Request], values,
                    error: Optional[BaseException]) -> None:
        """Slice one batch's results back onto per-request futures (loop
        thread)."""
        now = time.perf_counter_ns()
        offset = 0
        for request in requests:
            span = values[offset:offset + len(request.keys)] \
                if error is None else None
            offset += len(request.keys)
            future = request.future
            if not future.done():          # client may have cancelled
                if error is not None:
                    future.set_exception(error)
                else:
                    try:
                        future.set_result(self._finish(request, span))
                    except KeyNotFoundError as exc:
                        future.set_exception(exc)
            if request.root is not None:
                # The root records the ingress.request histogram (and
                # its exemplar) itself; no separate record_ns.
                if error is not None:
                    request.root.fields["error"] = type(error).__name__
                request.root.finish()
            else:
                obs.record_ns("ingress.request", now - request.t0)
            self._release(len(request.keys))

    @staticmethod
    def _finish(request: _Request, span):
        """One request's reply out of its slice of the batch result."""
        if isinstance(span, np.ndarray):   # contains lane
            values = [bool(v) for v in span]
        else:                              # get lane: MISSING -> default
            values = []
            for key, value in zip(request.keys, span):
                if value is MISSING:
                    if request.strict:
                        raise KeyNotFoundError(key)
                    value = request.default
                values.append(value)
        return values[0] if request.single else values

    # -- the read API ---------------------------------------------------

    async def get(self, key: float, default=None, *, options=None):
        """Coalesced scalar :meth:`~ShardedAlexIndex.get`.  ``options``
        (a :class:`ReadOptions` or consistency string) selects the
        consistency level; requests only coalesce within their level."""
        return await self._enqueue("get", [float(key)], default=default,
                                   single=True, options=options)

    async def lookup(self, key: float, *, options=None):
        """Coalesced scalar lookup; raises :class:`KeyNotFoundError` on
        a miss."""
        return await self._enqueue("get", [float(key)], strict=True,
                                   single=True, options=options)

    async def contains(self, key: float, *, options=None) -> bool:
        """Coalesced membership test."""
        return await self._enqueue("contains", [float(key)], single=True,
                                   options=options)

    async def get_many(self, keys, default=None, *, options=None) -> list:
        """Multi-key get as *one* admitted request (one future, keys
        contiguous in the coalesced batch)."""
        return await self._enqueue(
            "get", [float(k) for k in np.asarray(keys).ravel()],
            default=default, options=options)

    async def lookup_many(self, keys, *, options=None) -> list:
        """Multi-key strict lookup (raises on the first missing key)."""
        return await self._enqueue(
            "get", [float(k) for k in np.asarray(keys).ravel()],
            strict=True, options=options)

    async def contains_many(self, keys, *, options=None) -> list:
        """Multi-key membership test (returns plain bools)."""
        return await self._enqueue(
            "contains", [float(k) for k in np.asarray(keys).ravel()],
            options=options)

    # -- the write API (pass-through, not coalesced) --------------------

    async def _passthrough(self, n: int, fn, *args):
        loop = self._bind_loop()
        self._admit(n)
        obs.inc("ingress.requests", n)
        root = trace.start("ingress.request", family="write", keys=n)
        if root is not None:
            inner, ctx = fn, root.ctx

            def fn(*a):
                with trace.attach(ctx):
                    return inner(*a)
        start = time.perf_counter_ns()
        try:
            return await loop.run_in_executor(self._pool, fn, *args)
        finally:
            if root is not None:
                root.finish()
            else:
                obs.record_ns("ingress.request",
                              time.perf_counter_ns() - start)
            self._release(n)

    async def insert(self, key: float, payload=None) -> WriteToken:
        return await self._passthrough(1, self.service.insert, key,
                                       payload)

    async def upsert(self, key: float, payload) -> WriteToken:
        return await self._passthrough(1, self.service.upsert, key,
                                       payload)

    async def update(self, key: float, payload) -> WriteToken:
        return await self._passthrough(1, self.service.update, key,
                                       payload)

    async def delete(self, key: float) -> WriteToken:
        return await self._passthrough(1, self.service.delete, key)

    async def insert_many(self, keys, payloads=None) -> WriteToken:
        keys = np.asarray(keys)
        return await self._passthrough(len(keys),
                                       self.service.insert_many,
                                       keys, payloads)

    async def erase_many(self, keys) -> int:
        keys = np.asarray(keys)
        return await self._passthrough(len(keys),
                                       self.service.erase_many, keys)

    # -- lifecycle ------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Admitted keys not yet replied (queued + in flight)."""
        return self._outstanding

    async def aclose(self) -> None:
        """Flush every lane, wait for in-flight work to drain, and stop
        the submit pool.  The underlying service stays open."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._lanes):
            self._flush(name)
        if self._outstanding:
            gate = asyncio.get_running_loop().create_future()
            self._drained.append(gate)
            await gate
        self._pool.shutdown(wait=True)


class IngressRunner:
    """A synchronous handle on an :class:`AsyncIngress`: owns the event
    loop on a daemon thread and mirrors the read/write API as blocking
    calls, so thread-world callers (benchmark drivers, the ``repro top``
    workload, tests) can push traffic through the coalescing front door
    without becoming ``async`` themselves."""

    def __init__(self, service, **knobs):
        self.ingress = AsyncIngress(service, **knobs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="alex-ingress-loop")
        self._started = threading.Event()
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        self._loop.run_forever()

    def asubmit(self, coro):
        """Schedule a coroutine on the ingress loop; returns its
        ``concurrent.futures.Future`` (the open-loop benchmark's issue
        path — fire now, collect latency later)."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def __getattr__(self, name):
        """Blocking mirrors of the ingress coroutine API (``get``,
        ``get_many``, ``contains``, ``insert``, …)."""
        method = getattr(self.ingress, name)
        if not asyncio.iscoroutinefunction(method):
            raise AttributeError(name)

        def call(*args, **kwargs):
            return self.asubmit(method(*args, **kwargs)).result()

        call.__name__ = name
        return call

    def close(self) -> None:
        """Drain the ingress and stop the loop thread (idempotent; the
        underlying service stays open)."""
        if not self._loop.is_closed():
            try:
                self.asubmit(self.ingress.aclose()).result(timeout=30)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=5)
                self._loop.close()

    def __enter__(self) -> "IngressRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
