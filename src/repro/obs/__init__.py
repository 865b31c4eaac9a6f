"""Observability: low-overhead metrics, spans, and structural events.

One process-local :class:`~repro.obs.metrics.MetricsRegistry` per
process (the facade's, and one inside every process-backend worker),
driven through the module-level helpers below so instrumented code never
threads a registry handle around:

* ``obs.inc`` / ``obs.set_gauge`` / ``obs.observe`` — counters, gauges,
  and direct histogram observations;
* ``obs.emit("shard.split", shard=3)`` — bounded structural event log.

Timed regions are :mod:`repro.obs.trace`'s: ``with trace.span(name)``
and ``@trace.traced(name)`` record a nanosecond latency into the
log-bucketed histogram ``name``, and join the request's trace tree when
one is ambient.

The kill switch
---------------

``REPRO_OBS=off`` (or ``0``/``false``/``no``/``disabled``) disables the
whole layer at import: ``trace.span()`` returns the shared no-op span
(one singleton — identity-testable), and every record/emit helper
returns without touching the registry.  :func:`set_enabled` flips the
switch at runtime (how ``bench_obs.py`` measures
instrumented-vs-disabled in one process).  Every worker process installs
its parent's environment and re-runs :func:`init_from_env`, so the
switch covers the whole service under the process backend.

Aggregation
-----------

Snapshots are plain dicts; the process backend's workers return theirs
over the existing RPC path (the ``obs_snapshot`` shard op) and
:func:`repro.obs.metrics.merge_snapshots` folds them into the facade's
service-wide view — see ``ShardedAlexIndex.metrics_snapshot``.
"""

from __future__ import annotations

import os
from typing import Optional

from .events import EVENT_LIMIT, EventLog
from .metrics import (BUCKET_BOUNDS, NUM_BUCKETS, NUM_OCTAVES, PERCENTILES,
                      SUB_BUCKETS, Counter, Gauge, LatencyHistogram,
                      MetricsRegistry, bucket_index, bucket_value,
                      empty_snapshot, exemplar_for_percentile,
                      histogram_summary, merge_many, merge_snapshots,
                      percentile_from_snapshot)

__all__ = [
    "BUCKET_BOUNDS", "Counter", "EVENT_LIMIT", "EventLog", "Gauge",
    "LatencyHistogram", "MetricsRegistry", "NUM_BUCKETS", "NUM_OCTAVES",
    "PERCENTILES", "SUB_BUCKETS", "bucket_index", "bucket_value",
    "describe", "emit", "empty_snapshot", "enabled",
    "exemplar_for_percentile", "get_registry", "histogram_summary", "inc",
    "init_from_env", "merge_many", "merge_snapshots", "observe",
    "percentile_from_snapshot", "record_ns", "reset", "set_enabled",
    "set_gauge", "snapshot", "trace",
]

#: Environment variable holding the global kill switch.
ENV_VAR = "REPRO_OBS"

_DISABLED_VALUES = frozenset({"off", "0", "false", "no", "disabled"})


def _enabled_from_env(value: Optional[str]) -> bool:
    """Whether an ``REPRO_OBS`` value means *enabled* (default on)."""
    return (value or "on").strip().lower() not in _DISABLED_VALUES


def init_from_env() -> None:
    """Derive the kill switch and a fresh registry (its event-log limit
    included) from the current environment.  Import runs it; so does a
    shard worker, whose module state was derived in the preloaded
    server it forked from, once it has installed its parent's
    environment."""
    global _enabled, _registry
    _enabled = _enabled_from_env(os.environ.get(ENV_VAR))
    _registry = MetricsRegistry()


init_from_env()


def enabled() -> bool:
    """Whether the observability layer is recording."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Flip the kill switch at runtime (the env var only sets the
    initial state).  Does not clear previously recorded data."""
    global _enabled
    _enabled = bool(flag)


def get_registry() -> MetricsRegistry:
    """This process's registry."""
    return _registry


def reset() -> None:
    """Drop every recorded metric, event, and trace span (test/bench
    isolation)."""
    _registry.clear()
    trace.reset()


def record_ns(name: str, ns: float) -> None:
    """Record one latency observation (nanoseconds)."""
    if _enabled:
        _registry.histogram(name).record(ns)


def observe(name: str, value: float) -> None:
    """Record one generic (non-time) histogram observation."""
    if _enabled:
        _registry.histogram(name).record(value)


def inc(name: str, n: int = 1) -> None:
    """Increment a counter."""
    if _enabled:
        _registry.counter(name).inc(n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge."""
    if _enabled:
        _registry.gauge(name).set(value)


def emit(kind: str, **fields) -> None:
    """Append one structural event to the bounded log."""
    if _enabled:
        _registry.events.emit(kind, **fields)


def snapshot() -> dict:
    """This process's registry as plain dicts (picklable/JSON-able),
    stamped with the current switch state."""
    snap = _registry.snapshot()
    snap["enabled"] = _enabled
    return snap


def describe() -> dict:
    """The obs runtime block ``python -m repro info`` prints: switch
    state, registry population, and the fixed bucket configuration."""
    snap = _registry.snapshot()
    return {
        "enabled": _enabled,
        "env": os.environ.get(ENV_VAR),
        "counters": len(snap["counters"]),
        "gauges": len(snap["gauges"]),
        "histograms": len(snap["histograms"]),
        "events": len(snap["events"]),
        "event_limit": _registry.events.limit,
        "events_dropped": _registry.events.dropped,
        "bucket_config": (
            f"{NUM_BUCKETS} log2 buckets, {SUB_BUCKETS} per octave "
            f"(~{(2 ** (1 / SUB_BUCKETS) - 1) * 100:.0f}% wide), "
            f"1ns .. ~{float(BUCKET_BOUNDS[-1]) / 6e10:.0f}min"),
    }


# Imported last: the tracer reaches back into this module (kill switch,
# registry) through ``sys.modules``, so everything above must exist
# before its body runs.
from . import trace  # noqa: E402
