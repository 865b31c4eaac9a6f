"""Request-scoped distributed tracing: causal span trees across processes.

Where the histograms in :mod:`repro.obs.metrics` answer "how long do
requests take in aggregate", this module answers "where did *this*
request's time go": a :class:`TraceContext` (trace id + span id) is born
at the ingress request (or at a facade call), flows through the
coalesced batch as a fan-in link, rides inside the pipelined RPC frames
to the worker processes (and replica workers), and is re-attached there
so worker-side shard-op, replica-read, WAL, and checkpoint spans join
the same causal tree.  One trace id therefore names a cross-process
tree of timed spans.

Recording model
---------------

Completed spans are plain dicts committed to a bounded in-process
:class:`FlightRecorder` (one per process, like the metrics registry):

* a ring of the most recent spans (``REPRO_TRACE_BUFFER``), and
* a small always-keep-slow store: when a *root* span finishes over the
  ``REPRO_TRACE_SLOW_MS`` threshold, its trace's spans are harvested
  into a separate ring (``REPRO_TRACE_SLOW_KEEP`` traces) so a p99
  outlier survives long after the main ring has wrapped.

Head sampling (``REPRO_TRACE_SAMPLE``, default 1.0) decides at the
*root* whether a request is traced at all; child spans inherit the
decision through the context, so a trace is always complete-or-absent.
Unsampled paths degrade to plain histogram spans, and obs-disabled
ones to the shared no-op :data:`NOOP_SPAN`.

Traced spans also stamp their trace id into the histogram's *exemplar*
slot for the latency bucket they land in
(:meth:`~repro.obs.metrics.LatencyHistogram.note_exemplar`), which is
what lets ``repro stats`` hang a concrete trace id off a p99 cell.

Worker processes never push: the facade pulls their recorder contents
over the existing RPC path (the ``trace_drain`` shard op, mirroring
``obs_snapshot``) and :func:`absorb`\\ s them, after which
:func:`assemble` can stitch the full cross-process tree for an id —
following batch fan-in links in both directions.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Dict, List, Optional, Tuple

#: The parent package (``repro.obs``).  Resolved through ``sys.modules``
#: and read per call so this module shares the live kill switch
#: (``_enabled``) and registry without a circular import (the package
#: imports us at the end of its own body).
_obs = sys.modules[__package__]

#: Head-sampling rate for new roots (0.0 .. 1.0; default trace all —
#: the recorder is bounded, so always-on is safe, and the bench gates
#: the cost).
ENV_SAMPLE = "REPRO_TRACE_SAMPLE"
#: Root-duration threshold (milliseconds) above which a finished trace
#: is copied into the always-keep-slow store.
ENV_SLOW_MS = "REPRO_TRACE_SLOW_MS"
#: Capacity of the recent-spans ring (spans, not traces).
ENV_BUFFER = "REPRO_TRACE_BUFFER"
#: How many slow traces the tail store retains.
ENV_SLOW_KEEP = "REPRO_TRACE_SLOW_KEEP"


def _float_env(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except (TypeError, ValueError):
        return default


def _int_env(name: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(name, default)))
    except (TypeError, ValueError):
        return default


def set_sample_rate(rate: float) -> None:
    """Override the head-sampling rate at runtime (the env var only
    sets the initial value).  0 disables new roots entirely."""
    global _sample_rate
    _sample_rate = min(1.0, max(0.0, float(rate)))


def set_slow_threshold_ms(ms: float) -> None:
    """Override the always-keep-slow duration threshold at runtime."""
    global _slow_ns
    _slow_ns = float(ms) * 1e6


def _new_id() -> str:
    """A 64-bit random id as 16 hex chars (compact, JSON/pickle-safe)."""
    return "%016x" % random.getrandbits(64)


def _sampled() -> bool:
    if _sample_rate >= 1.0:
        return True
    return _sample_rate > 0.0 and random.random() < _sample_rate


class TraceContext:
    """The identity a request carries: which trace it belongs to and
    which span is the current parent."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def wire(self) -> Tuple[str, str]:
        """The picklable form carried inside RPC frames."""
        return (self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id}/{self.span_id})"


#: The ambient context.  ``contextvars`` gives correct per-task
#: isolation under asyncio (the ingress) for free; thread pools do NOT
#: inherit it — cross-thread handoffs use :class:`attach`.
_current: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_ctx", default=None)


def current() -> Optional[TraceContext]:
    """The ambient trace context (``None`` when untraced)."""
    return _current.get()


def wire() -> Optional[Tuple[str, str]]:
    """The ambient context in wire form, for stuffing into an RPC
    frame; ``None`` rides the frame when the request is untraced."""
    ctx = _current.get()
    return None if ctx is None else (ctx.trace_id, ctx.span_id)


class attach:
    """Install a context (a :class:`TraceContext`, a wire tuple, or
    ``None`` for a no-op) as the ambient one for the body.  This is the
    receiving end of every cross-thread/cross-process handoff: the
    worker dispatch loop wraps each frame's execution in one."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx) -> None:
        if ctx is not None and not isinstance(ctx, TraceContext):
            ctx = TraceContext(ctx[0], ctx[1])
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> Optional[TraceContext]:
        if self._ctx is not None:
            self._token = _current.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        return False


class FlightRecorder:
    """Bounded per-process store of finished span records.

    All mutation and iteration happens under one lock: spans commit
    from request threads while snapshots run from the dashboard thread,
    and a ``deque`` refuses iteration concurrent with appends.
    """

    def __init__(self, buffer: Optional[int] = None,
                 slow_keep: Optional[int] = None) -> None:
        if buffer is None:
            buffer = _int_env(ENV_BUFFER, 2048)
        if slow_keep is None:
            slow_keep = _int_env(ENV_SLOW_KEEP, 64)
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=buffer)
        self._slow: deque = deque(maxlen=slow_keep)

    def commit(self, rec: dict) -> None:
        with self._lock:
            self._spans.append(rec)

    def finish_root(self, rec: dict) -> None:
        """Called after a root span commits: when it ran slow, harvest
        its trace — plus one hop of batch fan-in (a member root points
        at its batch trace, a batch root at its members) — into the
        always-keep store before the main ring wraps over it."""
        if rec["dur"] < _slow_ns:
            return
        ids = {rec["trace"]}
        batch = rec.get("batch")
        if batch:
            ids.add(batch)
        ids.update(rec.get("links", ()))
        with self._lock:
            spans = [s for s in self._spans if s["trace"] in ids]
            self._slow.append({
                "trace": rec["trace"], "name": rec["name"],
                "dur": rec["dur"], "start": rec["start"], "spans": spans,
            })

    def absorb(self, snap: dict) -> None:
        """Fold another recorder's snapshot (a worker's drain) in."""
        with self._lock:
            self._spans.extend(snap.get("spans", ()))
            self._slow.extend(snap.get("slow", ()))

    def snapshot(self) -> dict:
        with self._lock:
            return {"spans": list(self._spans), "slow": list(self._slow)}

    def drain(self) -> dict:
        """Snapshot-and-clear: what the ``trace_drain`` shard op ships
        back, so repeated pulls never re-send old spans."""
        with self._lock:
            snap = {"spans": list(self._spans), "slow": list(self._slow)}
            self._spans.clear()
            self._slow.clear()
            return snap

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._slow.clear()


def init_from_env() -> None:
    """Derive the head-sampling rate, the slow threshold, the pid
    stamped into every span record, and a fresh flight recorder (its
    capacities included) from the current environment and process.
    Import runs it; so does a shard worker, which forks from a preloaded
    server and must neither stamp the server's pid nor keep its
    settings."""
    global _sample_rate, _slow_ns, _PID, _recorder
    _sample_rate = min(1.0, max(0.0, _float_env(ENV_SAMPLE, 1.0)))
    _slow_ns = _float_env(ENV_SLOW_MS, 5.0) * 1e6
    _PID = os.getpid()
    _recorder = FlightRecorder()


init_from_env()


def recorder() -> FlightRecorder:
    """This process's flight recorder."""
    return _recorder


def snapshot() -> dict:
    return _recorder.snapshot()


def drain() -> dict:
    return _recorder.drain()


def absorb(snap: dict) -> None:
    if snap:
        _recorder.absorb(snap)


def reset() -> None:
    """Drop recorded spans (test/bench isolation; called by
    ``obs.reset``)."""
    _recorder.clear()


class _HistogramSpan:
    """A timed region outside any trace: records ``perf_counter_ns``
    elapsed into one histogram on exit (including the exceptional one —
    a failed request is still a served request)."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> "_HistogramSpan":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self._histogram.record(time.perf_counter_ns() - self._start)
        return False


class _NoopSpan:
    """The disabled path: one shared instance, no state, no recording."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The singleton every ``span()`` call returns while obs is disabled.
NOOP_SPAN = _NoopSpan()


class TracedSpan:
    """A timed region that is part of a trace: on finish it commits a
    span record to the flight recorder *and* records into the latency
    histogram of the same name (stamping the trace id as that bucket's
    exemplar) — so tracing adds to the metrics layer instead of
    forking it.

    Works as a context manager (installs its context for the body) or
    as a manual handle (``start()`` … ``finish()``) for spans whose
    begin and end live on different threads, like the ingress request.
    """

    __slots__ = ("name", "ctx", "parent", "fields", "record",
                 "_t0", "_start", "_token", "_done")

    def __init__(self, name: str, ctx: TraceContext,
                 parent: Optional[str], fields: Optional[dict] = None,
                 record: bool = True) -> None:
        self.name = name
        self.ctx = ctx
        self.parent = parent
        self.fields = fields if fields else {}
        self.record = record
        self._token = None
        self._done = False
        # Wall time for cross-process alignment, monotonic for duration.
        self._start = time.time_ns()
        self._t0 = time.perf_counter_ns()

    def __enter__(self) -> "TracedSpan":
        self._token = _current.set(self.ctx)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.fields["error"] = exc_type.__name__
        self.finish()
        return False

    def finish(self) -> None:
        if self._done:
            return
        self._done = True
        dur = time.perf_counter_ns() - self._t0
        rec = {"trace": self.ctx.trace_id, "span": self.ctx.span_id,
               "parent": self.parent, "name": self.name,
               "start": self._start, "dur": dur, "pid": _PID}
        if self.fields:
            rec.update(self.fields)
        _recorder.commit(rec)
        if self.record and _obs._enabled:
            hist = _obs._registry.histogram(self.name)
            hist.record(dur)
            hist.note_exemplar(dur, self.ctx.trace_id)
        if self.parent is None:
            _recorder.finish_root(rec)


def start(name: str, force: bool = False, record: bool = True,
          **fields) -> Optional[TracedSpan]:
    """Begin a new *root* span (a fresh trace id) as a manual handle,
    or ``None`` when obs is disabled / the head sampler says no (the
    caller keeps the ``None`` and skips its finish).  ``force=True``
    bypasses sampling — used by the batch span, whose members already
    won the sample."""
    if not _obs._enabled:
        return None
    if not force and not _sampled():
        return None
    return TracedSpan(name, TraceContext(_new_id(), _new_id()),
                      parent=None, fields=fields, record=record)


def span(name: str, root: bool = False, **fields):
    """A context manager timing its body into histogram ``name``.  Under
    an ambient trace context it is a *child* span in the tree; with no
    context it is a plain histogram span — unless ``root=True`` asks it
    to start a new sampled trace, which is how a direct facade call (no
    ingress) becomes traceable.  :data:`NOOP_SPAN` while obs is
    disabled."""
    if not _obs._enabled:
        return NOOP_SPAN
    ctx = _current.get()
    if ctx is not None:
        return TracedSpan(name, TraceContext(ctx.trace_id, _new_id()),
                          parent=ctx.span_id, fields=fields)
    if root and _sampled():
        return TracedSpan(name, TraceContext(_new_id(), _new_id()),
                          parent=None, fields=fields)
    return _HistogramSpan(_obs._registry.histogram(name))


def traced(name: str, root: bool = False):
    """Decorator form of ``span(name, root=root)`` (checks the kill
    switch per call, so decorated functions honor runtime toggles).  The
    facade's entry points pass ``root=True``, so a direct call starts a
    sampled trace; the core's batch methods keep ``root=False``, so an
    embedded call only times into the histogram while a call inside a
    traced shard op joins that trace as a child."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _obs._enabled:
                return fn(*args, **kwargs)
            with span(name, root=root):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def assemble(trace_id: str, snap: dict) -> List[dict]:
    """Every span reachable from ``trace_id`` in a recorder snapshot
    (live ring + slow store), following batch fan-in links both ways
    (member root → its batch trace via ``batch``, batch root → member
    traces via ``links``), sorted by wall start time."""
    pool: Dict[tuple, dict] = {}
    for rec in snap.get("spans", ()):
        pool[(rec["trace"], rec["span"])] = rec
    for entry in snap.get("slow", ()):
        for rec in entry.get("spans", ()):
            pool.setdefault((rec["trace"], rec["span"]), rec)
    by_trace: Dict[str, List[dict]] = {}
    for rec in pool.values():
        by_trace.setdefault(rec["trace"], []).append(rec)
    reachable = {trace_id}
    frontier = [trace_id]
    while frontier:
        for rec in by_trace.get(frontier.pop(), ()):
            linked = list(rec.get("links", ()))
            if rec.get("batch"):
                linked.append(rec["batch"])
            for other in linked:
                if other not in reachable:
                    reachable.add(other)
                    frontier.append(other)
    spans = [rec for tid in reachable for rec in by_trace.get(tid, ())]
    spans.sort(key=lambda r: (r["start"], r.get("parent") is not None))
    return spans


def slow_traces(snap: dict) -> List[dict]:
    """The slow-store entries of a snapshot, slowest first, deduped by
    trace id (absorbing worker drains can double an entry)."""
    seen = set()
    out = []
    for entry in sorted(snap.get("slow", ()),
                        key=lambda e: -float(e.get("dur", 0))):
        if entry["trace"] not in seen:
            seen.add(entry["trace"])
            out.append(entry)
    return out
