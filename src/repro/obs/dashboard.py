"""The ``repro stats`` / ``repro top`` terminal views.

Both commands build a small sharded service over a synthetic dataset,
drive it with a mixed read/write workload, and render the observability
layer's service-wide view (:meth:`ShardedAlexIndex.metrics_snapshot`):

* ``stats`` runs a fixed number of driver rounds and prints one
  snapshot — as a table, JSON, or Prometheus text;
* ``top`` keeps a driver thread running and refreshes a full-screen
  dashboard (per-shard throughput bars, latency percentiles, throughput
  sparkline, WAL lag, the structural event tail) until the duration
  elapses or Ctrl-C.

The point of self-driving (rather than attaching to an external
process) is that the whole loop — service, workload, metrics, dashboard
— runs with zero setup on both backends, which is also what the CLI
smoke tests exercise.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
from typing import List, Optional

import numpy as np

from repro.bench.ascii_plot import ascii_chart, ascii_histogram
from repro.bench.report import format_table

from . import trace as tracing
from .metrics import exemplar_for_percentile, histogram_summary
from .render import (event_lines, format_ns, percentile_table,
                     to_chrome_trace, to_prometheus, trace_tree_lines)

#: Histogram prefixes the terminal views surface (the full snapshot is
#: available via --format json/prometheus).
TABLE_PREFIXES = ("ingress.", "serve.", "core.", "shard.op.", "rpc.",
                  "wal.", "checkpoint.", "recover.", "repl.", "replica.")


def _build_service(args):
    """A sharded service over the requested dataset, plus the key pool
    the driver samples from."""
    from repro.datasets import load
    from repro.serve import ShardedAlexIndex

    keys = np.unique(load(args.dataset, args.size, seed=args.seed))
    service = ShardedAlexIndex.bulk_load(
        keys, num_shards=args.shards, backend=args.backend,
        durability_dir=getattr(args, "_durability_dir", None),
        fsync="batch" if getattr(args, "_durability_dir", None) else "off",
        max_inflight=args.max_inflight,
        replicate=getattr(args, "replicas", False))
    return service, keys


def _ensure_durability(args):
    """``--replicas`` needs a WAL for the followers to tail; when the
    run isn't otherwise durable, park one in a tempdir (returned so the
    caller keeps it alive until shutdown)."""
    if (getattr(args, "replicas", False)
            and getattr(args, "_durability_dir", None) is None):
        tmp = tempfile.TemporaryDirectory(prefix="repro-repl-")
        args._durability_dir = tmp.name + "/svc"
        return tmp
    return None


def _build_ingress(service, args):
    """The coalescing front door the driver pushes traffic through
    (``None`` with ``--no-ingress`` — the driver then calls the facade
    directly, as it did before the ingress existed)."""
    if getattr(args, "no_ingress", False):
        return None
    from repro.serve import IngressRunner
    return IngressRunner(service,
                         window_s=getattr(args, "coalesce_window", 0.002))


class _Driver:
    """A background workload: batched reads, batched insert/erase
    cycles, and a sprinkle of scalar ops so every instrumented facade
    path shows up on the dashboard."""

    def __init__(self, service, keys: np.ndarray, read_batch: int,
                 write_batch: int, seed: int, ingress=None) -> None:
        self.service = service
        #: When set, traffic routes through the coalescing front door
        #: (reads coalesce in lanes, writes pass through its admission
        #: budget), so the ingress.* panel has something to show.
        self.target = ingress if ingress is not None else service
        self.keys = keys
        self.read_batch = read_batch
        self.write_batch = write_batch
        self.rng = np.random.default_rng(seed + 1)
        self.ops = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Fresh keys for insert/erase cycles, disjoint from the dataset.
        hi = float(self.keys[-1])
        self._fresh = hi + 1.0 + np.arange(write_batch, dtype=np.float64)

    def round(self) -> None:
        """One driver round: ~3 read batches, 1 insert+erase cycle, and
        a few scalar lookups.  With replication on, one of the read
        batches routes ``replica_ok`` so the repl.* metrics move."""
        replicated = getattr(self.service, "_replicate", False)
        for i in range(3):
            batch = self.rng.choice(self.keys, size=self.read_batch)
            if replicated and i == 0:
                self.target.get_many(batch, options="replica_ok")
            else:
                self.target.get_many(batch)
            self.ops += self.read_batch
        fresh = self._fresh + self.rng.integers(1, 1 << 30) * 1e-3
        self.target.insert_many(fresh)
        self.target.erase_many(fresh)
        self.ops += 2 * len(fresh)
        for key in self.rng.choice(self.keys, size=4):
            self.target.get(float(key))
            self.ops += 1

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.round()
            except Exception:
                # The dashboard must not die with a transient driver
                # error (e.g. a retry-exhausted worker death mid-demo).
                self.errors += 1
                time.sleep(0.05)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-top-driver")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)


def _render_dashboard(service, snap: dict, shard_deltas: List[int],
                      interval: float, ops_history: List[float],
                      driver: _Driver, elapsed: float) -> str:
    merged = snap["merged"]
    parts: List[str] = []
    parts.append(f"repro top — {service.num_shards} shards "
                 f"[{snap['backend']} backend] — {driver.ops:,} driver ops "
                 f"({driver.errors} errors) — {elapsed:.0f}s")
    parts.append("")

    buckets = [(f"shard{s}", max(0, delta))
               for s, delta in enumerate(shard_deltas)]
    parts.append(ascii_histogram(
        buckets, width=40,
        title=f"per-shard accesses (last {interval:.1f}s)"))
    parts.append("")

    rows = percentile_table(merged, prefixes=TABLE_PREFIXES)
    if rows:
        parts.append(format_table(
            ["histogram", "count", "p50", "p90", "p99", "p99.9", "max",
             "p99 trace"],
            rows, title="latency percentiles (cumulative)"))
        parts.append("")

    if len(ops_history) >= 2:
        parts.append(ascii_chart({"ops/s": ops_history}, width=60, height=8,
                                 title="driver throughput (ops/s)"))
        parts.append("")

    counters = merged.get("counters", {})
    smo = {name: value for name, value in counters.items()
           if name.startswith(("policy.applied.", "serve.shard_",
                               "serve.worker_"))}
    lag = snap.get("wal_lag_ops")
    status = []
    request_hist = merged.get("histograms", {}).get("ingress.request")
    if request_hist:
        summary = histogram_summary(request_hist)
        gauges = merged.get("gauges", {})
        status.append(
            "front door: "
            f"p99 request {format_ns(summary.get('p99'))}  "
            f"in-flight {int(gauges.get('ingress.in_flight', 0))}  "
            f"shed {int(counters.get('ingress.shed', 0))}  "
            f"batches {int(counters.get('ingress.batches', 0))}")
    if smo:
        status.append("SMOs: " + "  ".join(
            f"{name.split('.')[-1]}={value}"
            for name, value in sorted(smo.items())))
    if lag is not None:
        status.append("WAL lag (ops since checkpoint): "
                      + " ".join(f"s{s}={n}" for s, n in enumerate(lag)))
    replication = snap.get("replication")
    if replication:
        status.append("replicas: " + "  ".join(
            f"s{s}=lsn{r['applied_lsn']}/"
            f"{r['staleness_s'] * 1e3:.0f}ms" if r else f"s{s}=down"
            for s, r in enumerate(replication)))
    parts.extend(status)

    events = merged.get("events", [])
    if events:
        parts.append("")
        parts.append("recent structural events:")
        parts.extend("  " + line for line in event_lines(events, limit=8))
    return "\n".join(parts)


def run_top(args) -> int:
    """The refreshing dashboard (``python -m repro top``)."""
    tmp = None
    if args.durable:
        tmp = tempfile.TemporaryDirectory(prefix="repro-top-")
        args._durability_dir = tmp.name + "/svc"
    repl_tmp = _ensure_durability(args)
    service, keys = _build_service(args)
    ingress = _build_ingress(service, args)
    driver = _Driver(service, keys, args.read_batch, args.write_batch,
                     args.seed, ingress=ingress)
    start = time.monotonic()
    last_accesses = [0] * service.num_shards
    last_ops = 0
    ops_history: List[float] = []
    driver.start()
    try:
        while True:
            time.sleep(args.refresh)
            elapsed = time.monotonic() - start
            snap = service.metrics_snapshot()
            accesses = [sum(row.values()) for row in snap["shards"]]
            if len(accesses) != len(last_accesses):  # shard split/merge
                last_accesses = [0] * len(accesses)
            deltas = [now - before
                      for now, before in zip(accesses, last_accesses)]
            last_accesses = accesses
            ops_history.append((driver.ops - last_ops) / args.refresh)
            last_ops = driver.ops
            ops_history[:] = ops_history[-60:]
            frame = _render_dashboard(service, snap, deltas, args.refresh,
                                      ops_history, driver, elapsed)
            if args.plain:
                print(frame)
                print("-" * 72)
            else:
                # Clear screen + home; one write so the frame never tears.
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                sys.stdout.flush()
            if args.duration and elapsed >= args.duration:
                break
    except KeyboardInterrupt:
        pass
    finally:
        driver.stop()
        if ingress is not None:
            ingress.close()
        service.close()
        if tmp is not None:
            tmp.cleanup()
        if repl_tmp is not None:
            repl_tmp.cleanup()
    return 0


def run_stats(args) -> int:
    """The one-shot snapshot (``python -m repro stats``)."""
    repl_tmp = _ensure_durability(args)
    service, keys = _build_service(args)
    ingress = _build_ingress(service, args)
    driver = _Driver(service, keys, args.read_batch, args.write_batch,
                     args.seed, ingress=ingress)
    try:
        for _ in range(args.rounds):
            driver.round()
        snap = service.metrics_snapshot()
    finally:
        if ingress is not None:
            ingress.close()
        service.close()
        if repl_tmp is not None:
            repl_tmp.cleanup()
    merged = snap["merged"]
    if args.format == "json":
        from .render import summarize
        print(json.dumps({"backend": snap["backend"],
                          "shards": snap["shards"],
                          "wal_lag_ops": snap["wal_lag_ops"],
                          **summarize(merged)}, indent=2, sort_keys=True))
        return 0
    if args.format == "prometheus":
        sys.stdout.write(to_prometheus(merged))
        return 0
    print(format_table(
        ["shard", "reads", "writes", "scans"],
        [(s, row["reads"], row["writes"], row["scans"])
         for s, row in enumerate(snap["shards"])],
        title=f"{len(snap['shards'])}-shard service "
              f"[{snap['backend']} backend], {driver.ops:,} driver ops"))
    print()
    print(format_table(
        ["histogram", "count", "p50", "p90", "p99", "p99.9", "max",
         "p99 trace"],
        percentile_table(merged, prefixes=TABLE_PREFIXES),
        title="latency percentiles"))
    counters = merged.get("counters", {})
    interesting = {name: value for name, value in sorted(counters.items())
                   if not name.startswith("serve.shard")}
    if interesting:
        print()
        print(format_table(["counter", "value"],
                           list(interesting.items()), title="counters"))
    events = merged.get("events", [])
    if events:
        print()
        print("recent structural events:")
        for line in event_lines(events, limit=12):
            print("  " + line)
    return 0


def run_trace(args) -> int:
    """The slow-trace viewer (``python -m repro trace``): drive the
    self-contained workload like ``stats``, pull the service-wide trace
    snapshot (draining every worker's flight recorder), and print the
    slowest captured traces as causal timing trees — or one specific
    trace by id (``--trace-id``, e.g. an exemplar lifted from the
    ``stats`` p99 column), or Chrome trace-event JSON for
    ``chrome://tracing`` / Perfetto (``--format chrome``)."""
    repl_tmp = _ensure_durability(args)
    service, keys = _build_service(args)
    ingress = _build_ingress(service, args)
    driver = _Driver(service, keys, args.read_batch, args.write_batch,
                     args.seed, ingress=ingress)
    try:
        for _ in range(args.rounds):
            driver.round()
        snap = service.trace_snapshot()
        merged = service.metrics_snapshot()["merged"]
    finally:
        if ingress is not None:
            ingress.close()
        service.close()
        if repl_tmp is not None:
            repl_tmp.cleanup()

    if args.trace_id:
        targets = [args.trace_id]
    else:
        targets = [entry["trace"]
                   for entry in tracing.slow_traces(snap)[:args.limit]]
        if not targets:
            # Nothing crossed the slow threshold; fall back to the p99
            # exemplar so the command always has something to show.
            hist = merged.get("histograms", {}).get("ingress.request")
            exemplar = (exemplar_for_percentile(hist, 0.99)
                        if hist else None)
            if exemplar:
                targets = [exemplar["trace"]]
    if not targets:
        print("no traces captured (is REPRO_OBS on and "
              "REPRO_TRACE_SAMPLE > 0?)", file=sys.stderr)
        return 1

    if args.format == "chrome":
        spans: List[dict] = []
        seen = set()
        for tid in targets:
            for rec in tracing.assemble(tid, snap):
                if (rec["trace"], rec["span"]) not in seen:
                    seen.add((rec["trace"], rec["span"]))
                    spans.append(rec)
        print(json.dumps(to_chrome_trace(spans), indent=2))
        return 0

    for tid in targets:
        spans = tracing.assemble(tid, snap)
        if not spans:
            print(f"trace {tid}: no spans retained (ring wrapped?)")
            continue
        roots = [rec["dur"] for rec in spans
                 if rec.get("parent") is None]
        print(f"trace {tid} — {len(spans)} spans across "
              f"{len({rec['pid'] for rec in spans})} processes, "
              f"slowest root {format_ns(max(roots, default=0))}")
        for line in trace_tree_lines(spans):
            print("  " + line)
        print()
    return 0
