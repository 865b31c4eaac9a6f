"""``embedded_write_heavy``: the paper's write-heavy setting, in process.

One thread drives an :class:`AlexIndex` on the cffi kernels in a closed
loop: scalar ``insert`` and ``get`` alternate (Section 5.1.2's
write-heavy interleaving) and every 20th operation is a
``range_scan(start, limit <= 100)``.  The index is bulk-loaded with the
lowest :data:`INIT_KEYS` of a longitudes sample and the inserts come
from the rest of it, shuffled: a shifted distribution, as in
``datasets.shifted_halves``.

The run is a series of rounds until its time is up: each round bulk
loads a fresh index (one more set-up sample) and replays the same
:data:`ROUND_OPS` operations, which depend only on the seed.  Rounds
therefore differ only by noise, and their median is reported; a faster
program finishes more rounds, not a longer stream of ever costlier
inserts.  A round's ``Counters`` and footprint repeat exactly from run
to run.
"""

from __future__ import annotations

import os
import time
from typing import List

import numpy as np

from repro import obs
from repro.core.alex import AlexIndex
from repro.core.kernels import KernelBackend, get_kernels
from repro.datasets.generators import longitudes

import layers
import timing
from report import Report
from serve import counter_metrics, kernel_config, payload_for

INIT_KEYS = 200_000
#: Keys of the sample above the bulk load: the shifted range the
#: inserts are drawn from (a round inserts ROUND_OPS / 2 of them).
INSERT_POOL = 2_000_000
#: Set-ups before the first round (each round adds one); one takes
#: ~0.1 s and its time spreads widely, so the median is over many.
SETUPS = 9
SCAN_EVERY = 20
MAX_SCAN = 100
#: Operations per round.
ROUND_OPS = 50_000
#: Fewest rounds of each kind a run reports a median over.
MIN_ROUNDS = 3
GET, INSERT, SCAN = 0, 1, 2
SMO_FIELDS = ("expansions", "contractions", "splits", "merges", "retrains")
#: The kernel entry points the traced run times (everything but the
#: lifecycle methods).
KERNEL_METHODS = [name for name, value in vars(KernelBackend).items()
                  if callable(value) and not name.startswith("_")
                  and name not in ("warm", "compile_events")]


def op_stream(seed: int, bulk: np.ndarray, pool: np.ndarray):
    """The round's operations: ``(kinds, keys, scan limits)`` lists."""
    rng = np.random.default_rng(seed + 1)
    index = np.arange(ROUND_OPS)
    kinds = np.where(index % SCAN_EVERY == SCAN_EVERY - 1, SCAN,
                     np.where(index % 2 == 0, INSERT, GET))
    keys = bulk[rng.integers(0, len(bulk), size=ROUND_OPS)]
    limits = rng.integers(1, MAX_SCAN + 1, size=ROUND_OPS)
    inserts = np.flatnonzero(kinds == INSERT)
    keys[inserts] = pool[:len(inserts)]
    return kinds.tolist(), keys.tolist(), limits.tolist()


def setup(bulk: np.ndarray) -> tuple:
    """Bulk load plus kernel warm, timed to the first operation served."""
    start = time.perf_counter()
    index = AlexIndex.bulk_load(bulk, payload_for(bulk).tolist(),
                                config=kernel_config())
    get_kernels(index.config.kernel_backend).warm()
    probe = float(bulk[0])
    if index.get(probe) != probe * 2.0 + 1.0:
        raise RuntimeError("the first get returned a wrong payload")
    return index, time.perf_counter() - start


def smo_events(counters) -> int:
    """Structural modifications so far (the insert wrapper's probe)."""
    return sum(getattr(counters, f) for f in SMO_FIELDS)


class Round:
    """One closed-loop round over a fresh index."""

    def __init__(self, index: AlexIndex) -> None:
        self.index = index
        self.latency = {GET: [], INSERT: [], SCAN: []}
        self.gaps: List[int] = []
        self.elapsed_s = 0.0
        self.cpu_s = 0.0
        self.counted = None
        self.scans = []          # (op index, start, count, limit, last key)
        self.insert_at = {}      # key -> op index

    def run(self, stream, report: Report) -> None:
        index, lat = self.index, self.latency
        get, insert, scan = index.get, index.insert, index.range_scan
        counters = index.counters
        before = counters.snapshot()
        cpu = layers.cpu_seconds([os.getpid()])
        clock = time.perf_counter_ns
        start = last_end = clock()
        for i, (kind, key, limit) in enumerate(zip(*stream)):
            t0 = clock()
            if kind == GET:
                got = get(key)
            elif kind == INSERT:
                insert(key, key * 2.0 + 1.0)
            else:
                got = scan(key, limit)
            t1 = clock()
            lat[kind].append(t1 - t0)
            self.gaps.append(t0 - last_end)
            last_end = t1
            if kind == GET:
                if got != key * 2.0 + 1.0:
                    report.wrong_result(f"get({key!r}) -> {got!r}")
            elif kind == INSERT:
                self.insert_at[key] = i
            else:
                self.check_scan(report, i, key, limit, got)
        self.elapsed_s = (last_end - start) / 1e9
        self.cpu_s = layers.cpu_seconds([os.getpid()]) - cpu
        self.counted = counters.diff(before)

    def check_scan(self, report: Report, i: int, start: float, limit: int,
                   got: list) -> None:
        previous = None
        for key, value in got:
            if value != key * 2.0 + 1.0 or key < start or (
                    previous is not None and key <= previous):
                report.wrong_result(f"scan({start!r}) returned "
                                    f"({key!r}, {value!r}) out of order "
                                    "or with a wrong payload")
                return
            previous = key
        if len(got) > limit:
            report.wrong_result(f"scan({start!r}, {limit}) returned "
                                f"{len(got)} pairs")
        self.scans.append((i, start, len(got), limit,
                           got[-1][0] if got else start))

    def verify(self, report: Report, bulk: np.ndarray) -> None:
        """``validate()``, an exact key-set comparison, and a completeness
        check of every scan against the keys present when it ran."""
        try:
            self.index.validate()
        except AssertionError as exc:
            report.wrong_result(f"validate() failed: {exc}")
            return
        inserted = np.fromiter(self.insert_at, dtype=np.float64)
        expect = np.sort(np.concatenate([bulk, inserted]))
        have = np.fromiter(self.index.keys(), dtype=np.float64)
        if not np.array_equal(have, expect):
            report.wrong_result(f"index holds {len(have)} keys, want "
                                f"{len(expect)} (or a different set)")
            return
        born = np.full(len(expect), -1, dtype=np.int64)
        born[np.searchsorted(expect, inserted)] = np.fromiter(
            self.insert_at.values(), dtype=np.int64)
        for i, start, count, limit, last in self.scans:
            lo = np.searchsorted(expect, start, side="left")
            hi = (np.searchsorted(expect, last, side="right") if count
                  else lo)
            present = int(np.count_nonzero(born[lo:hi] < i))
            after = int(np.count_nonzero(born[hi:] < i)) if count < limit \
                else 0
            if present != count or after:
                report.wrong_result(f"scan({start!r}, {limit}) at op {i} "
                                    f"returned {count} pairs, "
                                    f"{present + after} were present")


def wrap(log: layers.SpanLog, index: AlexIndex) -> None:
    """The traced round's wrappers: the index's ops and the kernels."""
    log.wrap(index, "get", "core.get")
    log.wrap(index, "range_scan", "core.scan")
    counters = index.counters
    log.wrap(index, "insert", "core.insert",
             probe=lambda: smo_events(counters))
    kernels = get_kernels(index.config.kernel_backend)
    for name in KERNEL_METHODS:
        log.wrap(kernels, name, "kernel")


def embedded_write_heavy(seed: int, seconds: float, traced: bool,
                         scratch: str, report: Report) -> None:
    keys = np.sort(longitudes(INIT_KEYS + INSERT_POOL, seed=seed))
    bulk = keys[:INIT_KEYS].copy()
    pool = keys[INIT_KEYS:].copy()
    np.random.default_rng(seed).shuffle(pool)
    del keys
    stream = op_stream(seed, bulk, pool)
    times = [setup(bulk)[1] for _ in range(SETUPS - 1)]
    plain: List[Round] = []
    wrapped: List[Round] = []
    log = layers.SpanLog()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(plain) < MIN_ROUNDS
           or (traced and len(wrapped) < MIN_ROUNDS)):
        index, elapsed = setup(bulk)
        times.append(elapsed)
        # A traced run alternates untraced and traced rounds.
        tracing = traced and len(wrapped) < len(plain)
        round_ = Round(index)
        if tracing:
            wrap(log, index)
        try:
            round_.run(stream, report)
        finally:
            log.restore()
        round_.verify(report, bulk)
        report.attempted += ROUND_OPS
        if not plain:
            # Before later rounds add their samples to the process.
            footprint(report, index)
        # Keep the samples only, so that later set-ups and rounds do not
        # run in a heap that grows with the number of rounds finished.
        round_.index = round_.insert_at = round_.scans = index = None
        (wrapped if tracing else plain).append(round_)
    report.add("setup_s", timing.median(times), "s", len(times))
    if not traced:
        for prefix, kind in (("read", GET), ("write", INSERT),
                             ("scan", SCAN)):
            # One window per round: the median of the rounds' percentiles.
            report.latency(prefix, [t for r in plain for t in r.latency[kind]],
                           windows=len(plain))
        report.add("throughput_ops_s", throughput(plain), "1/s",
                   len(plain) * ROUND_OPS)
        report.add("cpu_us_per_op", timing.median(
            [r.cpu_s * 1e6 / ROUND_OPS for r in plain]), "us",
            len(plain) * ROUND_OPS)
        report.add("error_frac", layers.ratio(report.wrong,
                                              report.attempted), "frac",
                   report.attempted)
        report.stamp["loadgen_lag_p99_ms"] = timing.percentile(
            [g for r in plain for g in r.gaps], 99) / 1e6
    else:
        traced_layers(report, wrapped, log)
        report.add("tracing.read_p50_ratio",
                   read_p50(wrapped) / read_p50(plain), "ratio")
        report.add("tracing.throughput_ratio",
                   throughput(wrapped) / throughput(plain), "ratio")
    dispatched = layers.check_cffi_only(obs.snapshot()["counters"])
    report.stamp["kernel_dispatch"] = {"cffi": dispatched}
    if traced:
        report.add("kernel.dispatch.cffi", dispatched, "count")


def throughput(rounds: List[Round]) -> float:
    """Operations per second: the median over rounds."""
    return timing.median([ROUND_OPS / r.elapsed_s for r in rounds])


def read_p50(rounds: List[Round]) -> float:
    return timing.percentile([t for r in rounds for t in r.latency[GET]], 50)


def footprint(report: Report, index: AlexIndex) -> None:
    live = len(index)
    index_bytes = index.index_size_bytes()
    report.add("index_bytes_per_key", index_bytes / live, "B", live)
    report.add("bytes_per_user_byte",
               (index_bytes + index.data_size_bytes()) / (16.0 * live),
               "ratio", live)
    report.add("peak_rss_mb", layers.peak_rss_mb([os.getpid()]), "MB")


def traced_layers(report: Report, rounds: List[Round],
                  log: layers.SpanLog) -> None:
    ops = len(rounds) * ROUND_OPS
    report.add("loadgen.lag_p99_ms", timing.percentile(
        [g for r in rounds for g in r.gaps], 99) / 1e6, "ms", ops)
    for op, layer in (("get", "core.get"), ("insert", "core.insert"),
                      ("scan", "core.scan")):
        d = log.durations_ns(layer)
        report.add("core.op_p50_us." + op, timing.percentile(d, 50) / 1e3,
                   "us", len(d))
    counter_metrics(report, rounds[0].counted)
    inserts = log.get("core.insert")
    smo_time = sum(end - start for _, start, end, (before, after) in inserts
                   if after != before)
    report.add("smo.insert_time_frac",
               layers.ratio(smo_time, sum(e - s for _, s, e, _ in inserts)),
               "frac", len(inserts))
    kernel = log.durations_ns("kernel")
    report.add("kernel.busy_us_per_op", float(kernel.sum()) / 1e3 / ops,
               "us", len(kernel))
    # The core wrappers sit inside the loop's own timer, so what they do
    # not cover is the wrappers' and the loop's bookkeeping.
    core = sum(int(log.durations_ns(layer).sum())
               for layer in ("core.get", "core.insert", "core.scan"))
    e2e = sum(sum(v) for r in rounds for v in r.latency.values())
    report.add("unattributed_frac", 1.0 - core / e2e, "frac", ops)
