"""The two serving workloads: ``serve_read`` and ``serve_mixed_durable``.

Both drive a 2-shard process-backend :class:`ShardedAlexIndex` on the
cffi kernels through :class:`IngressRunner` (default coalescing window,
pipelined RPC), with load from one generator thread.  Every payload is
``payload_for(key)``, so every read can be checked.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.config import AlexConfig
from repro.datasets.generators import lognormal
from repro.serve import IngressRunner, ReadOptions, ShardedAlexIndex
from repro.workloads.zipf import ZipfianGenerator, scramble_ranks

import layers
import loadgen
import timing
from report import WINDOWS, Report

SHARDS = 2
REQUEST_KEYS = 16
#: Set-ups per run; the median is reported.
SETUPS = 3
#: Unmeasured open-loop traffic before each measured phase.
WARMUP_S = 0.5

READ_KEYS = 1_000_000
#: Offered load of the latency phase (req/s): well below the ~4k req/s
#: the saturation phase reaches on 2 cores.
READ_RATE = 500.0
#: Share of the run spent in the latency phase; the rest saturates.
LATENCY_SHARE = 0.7
SATURATION_CONCURRENCY = 64
#: Distinct requests drawn for the saturation phase; it cycles through
#: them, so it cannot run out of requests however fast the service is.
SATURATION_DRAWS = 20_000
#: Requests per second the saturation phase keeps room to record: an
#: order of magnitude above what it reaches today.  A service fast
#: enough to exhaust it refuses the run rather than under-report.
SATURATION_MAX_RATE = 50_000

MIXED_KEYS = 200_000
MIXED_RATE = 300.0
MIX = (0.75, 0.20, 0.05)           # get_many, insert, delete
READ, INSERT, DELETE = 0, 1, 2
REPLICA_OK = ReadOptions.replica_ok(max_staleness_s=0.05)
#: How often the traced run samples replica staleness; each sample is a
#: status round trip per replica, competing with the replica reads.
LAG_SAMPLE_S = 0.1


def payload_for(keys):
    """The payload stored under each key."""
    return np.asarray(keys, dtype=np.float64) * 2.0 + 1.0


def kernel_config() -> AlexConfig:
    return AlexConfig(kernel_backend="cffi")


class Serving:
    """One provisioned service and its ingress, timed from bulk load to
    the first request served."""

    def __init__(self, keys: np.ndarray,
                 durability_dir: Optional[str] = None) -> None:
        # The payload list lives only for the bulk load: a million floats
        # held by the benchmark would lengthen every full collection of
        # the process the ingress runs in.
        payloads = payload_for(keys).tolist()
        extra = {}
        if durability_dir is not None:
            extra = dict(durability_dir=durability_dir, fsync="batch",
                         replicate=True)
        start = time.perf_counter()
        self.service = ShardedAlexIndex.bulk_load(
            keys, payloads, num_shards=SHARDS, config=kernel_config(),
            backend="process", **extra)
        del payloads
        self.runner = IngressRunner(self.service)
        probe = keys[:REQUEST_KEYS]
        got = self.runner.get_many(probe)
        self.setup_s = time.perf_counter() - start
        self.durability_dir = durability_dir
        if not np.array_equal(np.asarray(got, dtype=np.float64),
                              payload_for(probe)):
            raise RuntimeError("the first request returned wrong payloads")

    def pids(self) -> List[int]:
        backend = self.service.backend
        return [os.getpid()] + [p for p in backend.worker_pids()
                                + backend.replica_pids() if p]

    def close(self) -> None:
        self.runner.close()
        self.service.close()


def provision(make, report: Report) -> Serving:
    """Set up :data:`SETUPS` times, keep the last, report the median."""
    times = []
    serving = None
    for i in range(SETUPS):
        if serving is not None:
            serving.close()
            if serving.durability_dir:
                shutil.rmtree(serving.durability_dir)
        serving = make(i)
        times.append(serving.setup_s)
    report.add("setup_s", timing.median(times), "s", len(times))
    return serving


def footprint(report: Report, serving: Serving) -> None:
    service = serving.service
    live = len(service)
    index_bytes = service.index_size_bytes()
    report.add("index_bytes_per_key", index_bytes / live, "B", live)
    report.add("bytes_per_user_byte",
               (index_bytes + service.data_size_bytes()) / (16.0 * live),
               "ratio", live)
    report.add("peak_rss_mb", layers.peak_rss_mb(serving.pids()), "MB")


def check_batch(report: Report, keys: np.ndarray, got,
                may_miss=None) -> None:
    """Every key's payload must be ``payload_for(key)``; ``may_miss(key)``
    says whether a missing key is allowed."""
    expect = payload_for(keys)
    for key, want, value in zip(keys.tolist(), expect.tolist(), got):
        if value == want:
            continue
        if value is None and may_miss is not None and may_miss(key):
            continue
        report.wrong_result(f"key {key!r} read {value!r}, want {want!r}")


def kernel_check(report: Report, service: ShardedAlexIndex) -> None:
    """Stamp the kernel dispatch of the parent, workers and replicas;
    refuse the run unless it was cffi only."""
    counters = service.metrics_snapshot()["merged"]["counters"]
    report.stamp["kernel_dispatch"] = layers.kernel_dispatch(counters)
    layers.check_cffi_only(counters)


class Tracer:
    """The traced run's wrappers around the in-process serving layers."""

    FACADE = ("facade.get_many", "facade.insert", "facade.delete")
    BACKEND = ("backend.scatter_batch", "backend.call",
               "backend.replica_read")
    CHILDREN = BACKEND + ("durability.log", "durability.checkpoint")

    def __init__(self, service: ShardedAlexIndex) -> None:
        self.service = service
        # Snapshots first: collecting them goes through the backend, and
        # those calls must not land among the wrapped ones.
        self.before = service.metrics_snapshot()["merged"]
        self.local_before = obs.snapshot()
        self.counters_before = service.counters
        self.wal_before = self.wal_bytes()
        self.coalesce_ns = 0.0
        self.log = layers.SpanLog()
        first = (lambda args: args[0])
        for name in ("get_many", "insert", "delete"):
            self.log.wrap(service, name, "facade." + name, tag=first)
        backend = service.backend
        for name in ("scatter_batch", "call", "replica_read"):
            self.log.wrap(backend, name, "backend." + name)
        durability = service.durability
        if durability is not None:
            self.log.wrap(durability, "log", "durability.log")
            self.log.wrap(durability, "checkpoint", "durability.checkpoint")

    def wal_bytes(self) -> int:
        durability = self.service.durability
        if durability is None:
            return 0
        total = 0
        for s in range(self.service.num_shards):
            wal = durability.shard_state(s).wal
            wal.flush()
            total += wal.size_bytes()
        return total

    def end_latency_phase(self) -> None:
        """Close the per-request accounting window.  The ingress records
        its coalescing wait in this process: no worker round trip."""
        self.coalesce_ns = layers.hist_delta(
            obs.snapshot(), self.local_before,
            ["ingress.coalesce_wait"])["sum"]

    def finish(self) -> None:
        """Remove the wrappers and take the closing snapshots."""
        self.log.restore()
        self.after = self.service.metrics_snapshot()["merged"]
        self.counters_after = self.service.counters
        self.wal_after = self.wal_bytes()

    def facade_calls(self) -> Dict[object, int]:
        """Request identity -> duration of the facade call that served it:
        a read by its 16 keys' bytes, a write by its key."""
        served: Dict[object, int] = {}
        for _, start, end, keys in self.log.get("facade.get_many"):
            keys = np.asarray(keys, dtype=np.float64)
            for lo in range(0, len(keys), REQUEST_KEYS):
                served[keys[lo:lo + REQUEST_KEYS].tobytes()] = end - start
        for layer in ("facade.insert", "facade.delete"):
            for _, start, end, key in self.log.get(layer):
                served[float(key)] = end - start
        return served

    def hist(self, names) -> dict:
        return layers.hist_delta(self.after, self.before, names)

    def count(self, name: str) -> int:
        return layers.counter_delta(self.after, self.before, name)

    def replica_hists(self) -> List[str]:
        return [n for n in self.after["histograms"]
                if n.endswith(".replica.read")]

    def worker_hist(self, op: str) -> dict:
        """Worker-side core time of one op: the primaries' ``shard.op``
        histogram plus, for reads, the replicas' ``replica.read``."""
        names = ["shard.op." + op]
        if op == "get_many":
            names += self.replica_hists()
        return self.hist(names)


class LagSampler:
    """Samples every replica's observable staleness while a phase runs."""

    def __init__(self, service: ShardedAlexIndex) -> None:
        self.service = service
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        backend = self.service.backend
        while not self._stop.wait(LAG_SAMPLE_S):
            for s in range(self.service.num_shards):
                status = backend.replica_status(s)
                if status and status.get("staleness_s") is not None:
                    self.samples.append(status["staleness_s"])

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def serve_layer_metrics(report: Report, tracer: Tracer,
                        run: loadgen.OpenLoopRun, identities: list,
                        writes_acked: int, lag_samples: List[float]) -> None:
    """Per-layer metrics of a traced serving pass."""
    log = tracer.log
    served = tracer.facade_calls()
    latency, lag = timing.open_loop_times(run.scheduled, run.issued,
                                          run.done, run.ok)
    facade = np.array([served.get(identities[i], 0) for i in range(run.n)],
                      dtype=np.int64)
    own = (run.done - run.issued) - facade
    report.add("loadgen.lag_p99_ms", timing.percentile(lag, 99) / 1e6, "ms",
               run.n)
    report.add("ingress.self_p50_ms", timing.percentile(own[run.ok], 50)
               / 1e6, "ms", int(run.ok.sum()))
    batches = log.get("facade.get_many")
    report.add("ingress.requests_per_batch",
               layers.ratio(sum(len(k) for *_, k in batches) / REQUEST_KEYS,
                            len(batches)), "count", len(batches))
    report.add("ingress.shed_frac",
               layers.ratio(tracer.count("ingress.shed"),
                            tracer.count("ingress.requests")), "frac")
    facade_self = timing.self_times(log.threads(*Tracer.FACADE),
                                    log.threads(*Tracer.CHILDREN))
    report.add("facade.self_p50_us",
               timing.percentile(facade_self, 50) / 1e3, "us",
               len(facade_self))
    replica_reads = len(log.get("backend.replica_read"))
    report.add("facade.replica_fallback_frac",
               layers.ratio(tracer.count("serve.replica_fallbacks"),
                            replica_reads), "frac", replica_reads)
    # Worker spans cannot be paired with the backend call that caused
    # them, so the RPC's own time is a difference of medians.
    backend = log.durations_ns(*Tracer.BACKEND)
    worker = tracer.hist([n for n in tracer.after["histograms"]
                          if n.startswith("shard.op.")]
                         + tracer.replica_hists())
    report.add("rpc.self_p50_us", timing.percentile(backend, 50) / 1e3
               - layers.hist_percentile_us(worker, 50), "us", len(backend))
    report.add("rpc.inflight_wait_p99_us", layers.hist_percentile_us(
        tracer.hist(["rpc.inflight_wait"]), 99), "us")
    shm, pipe = tracer.count("rpc.shm_replies"), tracer.count(
        "rpc.pipe_replies")
    report.add("rpc.shm_reply_frac", layers.ratio(shm, shm + pipe), "frac",
               shm + pipe)
    scatters = len(log.get("backend.scatter_batch"))
    report.add("rpc.inline_batch_frac",
               layers.ratio(tracer.count("rpc.inline_batches"), scatters),
               "frac", scatters)
    for op, method in (("get", "get_many"), ("insert", "insert"),
                       ("delete", "delete"), ("scan", "range_scan")):
        h = tracer.worker_hist(method)
        report.add("core.op_p50_us." + op, layers.hist_percentile_us(h, 50),
                   "us", h["count"])
    counter_metrics(report, tracer.counters_after.diff(
        tracer.counters_before))
    report.add("kernel.dispatch.cffi",
               layers.check_cffi_only(tracer.after["counters"]), "count")
    appends = tracer.hist(["wal.append"])
    report.add("wal.append_p50_us", layers.hist_percentile_us(appends, 50),
               "us", appends["count"])
    fsyncs = tracer.hist(["wal.fsync"])
    report.add("wal.fsync_p99_us", layers.hist_percentile_us(fsyncs, 99),
               "us", fsyncs["count"])
    report.add("wal.frames_per_write",
               layers.ratio(appends["count"], writes_acked), "count",
               writes_acked)
    report.add("wal.bytes_per_user_byte",
               layers.ratio(tracer.wal_after - tracer.wal_before,
                            16 * writes_acked), "ratio")
    checkpoints = log.durations_ns("durability.checkpoint")
    report.add("checkpoint.count", len(checkpoints), "count")
    report.add("checkpoint.busy_ms", float(checkpoints.sum()) / 1e6, "ms")
    replica = tracer.hist(tracer.replica_hists())
    report.add("replica.read_p50_us", layers.hist_percentile_us(replica, 50),
               "us", replica["count"])
    report.add("replica.apply_lag_p99_ms",
               timing.percentile(lag_samples, 99) * 1e3
               if lag_samples else 0.0, "ms", len(lag_samples))
    covered = (float(lag.sum()) + tracer.coalesce_ns
               + float(facade[run.ok].sum()))
    report.add("unattributed_frac",
               1.0 - covered / float(latency.sum()), "frac", run.n)


def counter_metrics(report: Report, work) -> None:
    """The Counters-based ``core.*`` and ``smo.*`` ratios of one pass."""
    ops = work.lookups + work.inserts + work.deletes + work.scans
    add = report.add
    add("core.probes_per_lookup", layers.ratio(work.probes, work.lookups),
        "count", work.lookups)
    add("core.comparisons_per_lookup",
        layers.ratio(work.comparisons, work.lookups), "count", work.lookups)
    add("core.pointer_follows_per_lookup",
        layers.ratio(work.pointer_follows, work.lookups), "count",
        work.lookups)
    add("core.model_inferences_per_op",
        layers.ratio(work.model_inferences, ops), "count", ops)
    add("core.shifts_per_insert", layers.ratio(work.shifts, work.inserts),
        "count", work.inserts)
    add("core.build_moves_per_insert",
        layers.ratio(work.build_moves, work.inserts), "count", work.inserts)
    add("core.bitmap_words_per_scan",
        layers.ratio(work.bitmap_words_scanned, work.scans), "count",
        work.scans)
    for event in ("expansions", "splits", "retrains"):
        add(f"smo.{event}_per_kinsert",
            layers.ratio(1000 * getattr(work, event), work.inserts), "count",
            work.inserts)


def read_p50(run: loadgen.OpenLoopRun, mask=None) -> float:
    latency_all = run.done - run.scheduled
    keep = run.ok if mask is None else (run.ok & mask)
    return timing.percentile(latency_all[keep], 50)


def ratios(report: Report, base: loadgen.OpenLoopRun,
           traced: loadgen.OpenLoopRun, base_throughput: float,
           traced_throughput: float, base_mask=None,
           traced_mask=None) -> None:
    """The tracing-overhead rows: traced pass over untraced pass."""
    report.add("tracing.read_p50_ratio",
               read_p50(traced, traced_mask) / read_p50(base, base_mask),
               "ratio")
    report.add("tracing.throughput_ratio",
               traced_throughput / base_throughput, "ratio")


# ----------------------------------------------------------------------
# serve_read
# ----------------------------------------------------------------------


def serve_read(seed: int, seconds: float, traced: bool, scratch: str,
               report: Report) -> None:
    keys = lognormal(READ_KEYS, seed=seed)
    rng = np.random.default_rng(seed + 1)
    serving = provision(lambda i: Serving(keys), report)
    try:
        runner = serving.runner

        def draw(n: int) -> np.ndarray:
            return keys[rng.integers(0, len(keys), size=(n, REQUEST_KEYS))]

        def submit(batch: np.ndarray):
            return lambda i: runner.asubmit(
                runner.ingress.get_many(batch[i % len(batch)]))

        def check(batch: np.ndarray, ok, results) -> None:
            for i, (good, got) in enumerate(zip(ok, results)):
                if good:
                    check_batch(report, batch[i % len(batch)], got)

        def phase(budget: float, tracer_wanted: bool, between=None):
            warm = loadgen.poisson_offsets(rng, READ_RATE, WARMUP_S)
            warm_batch = draw(len(warm))
            warm_run = loadgen.open_loop(submit(warm_batch), warm)
            offsets = loadgen.poisson_offsets(rng, READ_RATE,
                                              LATENCY_SHARE * budget)
            batch = draw(len(offsets))
            tracer = Tracer(serving.service) if tracer_wanted else None
            pids = serving.pids()
            cpu = layers.cpu_seconds(pids)
            run = loadgen.open_loop(submit(batch), offsets)
            run.cpu_s = layers.cpu_seconds(pids) - cpu
            if tracer is not None:
                tracer.end_latency_phase()
            if between is not None:
                between()
            sat_seconds = (1.0 - LATENCY_SHARE) * budget
            sat_batch = draw(SATURATION_DRAWS)
            sat = loadgen.closed_loop(submit(sat_batch),
                                      SATURATION_CONCURRENCY, sat_seconds,
                                      int(SATURATION_MAX_RATE * sat_seconds))
            if tracer is not None:
                tracer.finish()
            for done in (warm_run, run):
                report.attempted += done.n
                report.failed += int((~done.ok).sum())
            report.attempted += sat.issued
            report.failed += sat.failed
            check(warm_batch, warm_run.ok, warm_run.results)
            check(batch, run.ok, run.results)
            check(sat_batch, sat.ok, sat.results)
            return run, sat, batch, tracer

        # The footprint is read after the fixed-rate latency phase, before
        # the saturation phase, whose request count grows with throughput.
        def measure() -> None:
            footprint(report, serving)

        if not traced:
            run, sat, _, _ = phase(seconds, False, measure)
            latency, lag = timing.open_loop_times(run.scheduled, run.issued,
                                                  run.done, run.ok)
            report.latency("read", latency)
            report.add("throughput_ops_s", sat.throughput(WINDOWS), "1/s",
                       len(sat.finished_s))
            # CPU of the ingress process and both workers per request
            # served at the fixed rate.
            served = int(run.ok.sum())
            report.add("cpu_us_per_op", run.cpu_s * 1e6 / served, "us",
                       served)
            report.add("error_frac", layers.ratio(
                report.failed + report.wrong, report.attempted), "frac",
                report.attempted)
            report.stamp["loadgen_lag_p99_ms"] = (
                timing.percentile(lag, 99) / 1e6)
        else:
            base, base_sat, _, _ = phase(seconds / 2, False, measure)
            run, sat, batch, tracer = phase(seconds / 2, True)
            serve_layer_metrics(report, tracer, run,
                                [b.tobytes() for b in batch], 0, [])
            ratios(report, base, run, base_sat.throughput(WINDOWS),
                   sat.throughput(WINDOWS))
        kernel_check(report, serving.service)
    finally:
        serving.close()


# ----------------------------------------------------------------------
# serve_mixed_durable
# ----------------------------------------------------------------------


class MixedOps:
    """The pre-drawn operation stream of ``serve_mixed_durable``: reads
    of the initial keys (Zipf, hot keys scattered), inserts of fresh
    keys, and deletes of distinct initial keys."""

    def __init__(self, seed: int, count: int) -> None:
        rng = np.random.default_rng(seed + 1)
        inserts_max = int(count * MIX[1] * 1.5) + 64
        pool = lognormal(MIXED_KEYS + inserts_max, seed=seed)
        self.initial = pool[:MIXED_KEYS]
        self.kinds = rng.choice(3, size=count, p=MIX).astype(np.int8)
        self.arg = np.zeros(count, dtype=np.int64)
        for kind in (READ, INSERT, DELETE):
            where = np.flatnonzero(self.kinds == kind)
            self.arg[where] = np.arange(len(where))
        n_reads = int((self.kinds == READ).sum())
        zipf = ZipfianGenerator(MIXED_KEYS, seed=seed + 2)
        ranks = scramble_ranks(zipf.sample(n_reads * REQUEST_KEYS),
                               MIXED_KEYS)
        self.read_keys = self.initial[ranks].reshape(n_reads, REQUEST_KEYS)
        self.insert_keys = pool[MIXED_KEYS:]
        n_deletes = int((self.kinds == DELETE).sum())
        self.delete_keys = self.initial[
            rng.permutation(MIXED_KEYS)[:n_deletes]]

    def identity(self, i: int):
        kind, arg = self.kinds[i], self.arg[i]
        if kind == READ:
            return self.read_keys[arg].tobytes()
        if kind == INSERT:
            return float(self.insert_keys[arg])
        return float(self.delete_keys[arg])

    def submit(self, runner: IngressRunner, i: int):
        kind, arg = self.kinds[i], self.arg[i]
        ingress = runner.ingress
        if kind == READ:
            coro = ingress.get_many(self.read_keys[arg], options=REPLICA_OK)
        elif kind == INSERT:
            key = float(self.insert_keys[arg])
            coro = ingress.insert(key, key * 2.0 + 1.0)
        else:
            coro = ingress.delete(float(self.delete_keys[arg]))
        return runner.asubmit(coro)


def serve_mixed_durable(seed: int, seconds: float, traced: bool,
                        scratch: str, report: Report) -> None:
    rng = np.random.default_rng(seed + 3)
    warm_n = int(MIXED_RATE * WARMUP_S * 1.3) + 16
    total = int(MIXED_RATE * seconds * 1.3) + 2 * warm_n + 64
    ops = MixedOps(seed, total)
    roots = [os.path.join(scratch, f"durable-{i}") for i in range(SETUPS)]
    serving = provision(lambda i: Serving(ops.initial, roots[i]), report)
    service, runner = serving.service, serving.runner
    cursor = 0
    runs = []
    try:
        def phase(budget: float, tracer_wanted: bool):
            nonlocal cursor
            warm = loadgen.poisson_offsets(rng, MIXED_RATE, WARMUP_S)
            runs.append((cursor, loadgen.open_loop(
                lambda i: ops.submit(runner, i), warm, first=cursor)))
            cursor += len(warm)
            offsets = loadgen.poisson_offsets(rng, MIXED_RATE, budget)
            if cursor + len(offsets) > total:
                raise RuntimeError("operation stream exhausted")
            tracer = Tracer(service) if tracer_wanted else None
            sampler = LagSampler(service) if tracer_wanted else None
            pids = serving.pids()
            cpu = layers.cpu_seconds(pids)
            start = time.perf_counter()
            run = loadgen.open_loop(lambda i: ops.submit(runner, i), offsets,
                                    first=cursor)
            elapsed = time.perf_counter() - start
            run.cpu_s = layers.cpu_seconds(pids) - cpu
            if tracer is not None:
                tracer.end_latency_phase()
                sampler.stop()
                tracer.finish()
            first = cursor
            runs.append((first, run))
            cursor += run.n
            kinds = ops.kinds[first:first + run.n]
            return run, first, kinds, run.ok.sum() / elapsed, tracer, sampler

        if not traced:
            run, first, kinds, throughput, _, _ = phase(seconds, False)
        else:
            base, _, base_kinds, base_tp, _, _ = phase(seconds / 2, False)
            run, first, kinds, throughput, tracer, sampler = phase(
                seconds / 2, True)
        verify_mixed_reads(report, ops, runs)
        acked = acked_writes(ops, runs)
        if not traced:
            latency, _ = timing.open_loop_times(run.scheduled, run.issued,
                                                run.done, run.ok)
            reads = kinds[run.ok] == READ
            report.latency("read", latency[reads])
            report.latency("write", latency[~reads], windows=0)
            # No throughput_ops_s: a fixed-rate open loop completes what it
            # offers, so its rate would report the schedule, not capacity.
            # What it costs to serve shows as CPU time per operation.
            served = int(run.ok.sum())
            report.add("cpu_us_per_op", run.cpu_s * 1e6 / served, "us",
                       served)
            report.stamp["loadgen_lag_p99_ms"] = timing.percentile(
                run.issued - run.scheduled, 99) / 1e6
        else:
            identities = [ops.identity(first + i) for i in range(run.n)]
            writes = int(((kinds != READ) & run.ok).sum())
            serve_layer_metrics(report, tracer, run, identities, writes,
                                sampler.samples)
            ratios(report, base, run, base_tp, throughput,
                   base_kinds == READ, kinds == READ)
        footprint(report, serving)
        kernel_check(report, service)
        for _, done_run in runs:
            report.attempted += done_run.n
            report.failed += int((~done_run.ok).sum())
    finally:
        serving.close()
    recover_and_verify(report, roots[-1], ops, acked, traced)
    if not traced:
        report.add("error_frac", layers.ratio(
            report.failed + report.wrong, report.attempted), "frac",
            report.attempted)


def verify_mixed_reads(report: Report, ops: MixedOps, runs) -> None:
    """Check every read against the deletes issued before it completed:
    a key may read as missing only if its delete was already issued."""
    deleted_at: Dict[float, int] = {}
    for first, run in runs:
        for i in range(run.n):
            if ops.kinds[first + i] == DELETE:
                deleted_at[float(ops.delete_keys[ops.arg[first + i]])] = \
                    int(run.issued[i])
    for first, run in runs:
        for i in range(run.n):
            if ops.kinds[first + i] != READ or not run.ok[i]:
                continue
            done = int(run.done[i])
            check_batch(report, ops.read_keys[ops.arg[first + i]],
                        run.results[i],
                        may_miss=lambda k: deleted_at.get(k, done + 1)
                        <= done)


def acked_writes(ops: MixedOps, runs):
    inserted, deleted = [], []
    for first, run in runs:
        for i in range(run.n):
            kind, arg = ops.kinds[first + i], ops.arg[first + i]
            if not run.ok[i]:
                continue
            if kind == INSERT:
                inserted.append(ops.insert_keys[arg])
            elif kind == DELETE:
                deleted.append(ops.delete_keys[arg])
    return (np.asarray(inserted, dtype=np.float64),
            np.asarray(deleted, dtype=np.float64))


def recover_and_verify(report: Report, root: str, ops: MixedOps, acked,
                       traced: bool) -> None:
    """Recover the closed service and check that every acked write, and
    no acked delete, survived."""
    inserted, deleted = acked
    before = obs.snapshot()
    start = time.perf_counter()
    recovered = ShardedAlexIndex.recover(root, config=kernel_config(),
                                         backend="process")
    elapsed = time.perf_counter() - start
    try:
        frames = layers.counter_delta(obs.snapshot(), before,
                                      "recover.frames_replayed")
        if traced:
            report.add("recover.frames_replayed", frames, "count")
        else:
            report.add("recover_s", elapsed, "s", 1)
        gone = set(deleted.tolist())
        survivors = np.array([k for k in ops.initial.tolist()
                              if k not in gone], dtype=np.float64)
        expect_present = np.concatenate([survivors, inserted])
        check_batch(report, expect_present,
                    recovered.get_many(expect_present))
        if len(deleted):
            for key, value in zip(deleted.tolist(),
                                  recovered.get_many(deleted)):
                if value is not None:
                    report.wrong_result(f"acked delete of {key!r} came "
                                        f"back as {value!r}")
        if len(recovered) != len(expect_present):
            report.wrong_result(f"recovered {len(recovered)} keys, want "
                                f"{len(expect_present)}")
    finally:
        recovered.close()
        shutil.rmtree(root, ignore_errors=True)
