"""Open-loop serving bench: tail latency vs offered load through the
coalescing ingress, on both execution backends.

The paper's serving claim is a *tail-latency* claim, so this bench
measures the way serving systems are measured: an **open-loop Poisson
arrival process** (requests fire on an exponential schedule that never
waits for replies — queueing delay counts against latency, unlike a
closed loop that self-throttles) driving the
:class:`repro.serve.AsyncIngress` front door, sweeping offered load and
recording p50/p99/p99.9 per level.  Three service modes:

* ``thread`` — thread backend behind the ingress;
* ``process_pipelined`` — process backend with pipelined RPC
  (``max_inflight=8`` requests outstanding per worker);
* ``process_syncwait`` — the same process backend forced back to the
  pre-pipelining protocol: strict call-and-wait RPC (``max_inflight=1``,
  one request per worker pipe at a time).  Both process modes carry
  requests and replies in the same pickled pipe frames, and the ingress
  above them is identical — same windows, same submit workers — so the
  comparison isolates the RPC discipline, not the transport or the
  front door.

Two ratios summarize pipelined-vs-syncwait, both **core-sensitive**
(wall-clock parallelism — the regression gate refuses to compare them
across differing ``cpu_count`` recordings):

* ``saturated_throughput_ratio`` — completed request rate at the
  heaviest offered level (clear overload, where the RPC discipline is
  the bottleneck): the stable capacity reading, and the gated one;
* ``knee_load_ratio`` — each mode's **saturation knee** is the highest
  offered load it sustains with bounded p99 (``--p99-bound-ms``) while
  completing ≥ ``SUSTAIN_FRACTION`` of what was offered with nothing
  shed; the ratio of knees is recorded (and gated when both knees
  resolve) but quantized to the load grid, so the throughput ratio is
  the primary gate.

A final **coalescing-window sweep** holds one moderate load and varies
``window_s``, recording the latency-vs-batching trade the group-commit
window buys (mean coalesced batch size vs p50/p99).

Run: ``python benchmarks/bench_serving.py [--keys N] [--shards S]
[--loads R1 R2 ...] [--duration SECONDS] [--request-size K]
[--smoke] [--out BENCH_serving.json] [--quiet]``
"""

import argparse
import os
import threading
import time

import numpy as np

import _common
from repro.serve import IngressRunner, ServiceOverloadedError, ShardedAlexIndex

SEED = 11

#: A mode "sustains" an offered load when it completes at least this
#: fraction of it within the run window (and sheds nothing).
SUSTAIN_FRACTION = 0.85

#: The three service modes: (backend, max_inflight).  The ingress knobs
#: (window, submit workers, admission) are identical across modes — only
#: the downstream RPC discipline differs.
MODES = {
    "thread": ("thread", None),
    "process_pipelined": ("process", 8),
    "process_syncwait": ("process", 1),
}

#: Ingress submit-pool width for every mode (the downstream in-flight
#: batch parallelism the pipelined RPC absorbs; call-and-wait workers
#: serialize it at their pipes instead).
SUBMIT_WORKERS = 4


def _percentiles(latencies_s: list) -> dict:
    lat = np.sort(np.asarray(latencies_s, dtype=np.float64)) * 1e3
    if not len(lat):
        return {"p50_ms": None, "p99_ms": None, "p999_ms": None,
                "max_ms": None}
    return {
        "p50_ms": round(float(np.percentile(lat, 50)), 3),
        "p99_ms": round(float(np.percentile(lat, 99)), 3),
        "p999_ms": round(float(np.percentile(lat, 99.9)), 3),
        "max_ms": round(float(lat[-1]), 3),
    }


def run_open_loop(runner: IngressRunner, keys: np.ndarray, offered_load: float,
                  duration_s: float, request_size: int, seed: int) -> dict:
    """Drive one offered-load level: Poisson arrivals of
    ``request_size``-key ``get_many`` requests for ``duration_s``.

    Latency is measured from each request's *scheduled* arrival time,
    so when the system falls behind, the backlog shows up as latency —
    the open-loop discipline.  The issue loop never waits for replies;
    completion times are captured by future callbacks.
    """
    rng = np.random.default_rng(seed)
    # Pre-draw the whole arrival schedule and the request key batches so
    # the issue loop does no data-dependent work on the clock.
    n_planned = max(8, int(offered_load * duration_s * 1.2))
    gaps = rng.exponential(1.0 / offered_load, size=n_planned)
    arrivals = np.cumsum(gaps)
    batches = [rng.choice(keys, size=request_size) for _ in range(n_planned)]

    latencies: list = []
    lock = threading.Lock()
    shed = 0
    pending = []
    start = time.perf_counter()
    end = start + duration_s
    issued = 0
    for arrival, batch in zip(arrivals, batches):
        due = start + arrival
        if due >= end:
            break
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        future = runner.asubmit(runner.ingress.get_many(batch))

        def record(f, scheduled=due):
            done = time.perf_counter()
            try:
                ok = f.exception() is None
            except Exception:
                ok = False
            if ok:
                # Shed/failed requests fail fast; their latency must not
                # flatter the percentile curve.
                with lock:
                    latencies.append(done - scheduled)

        future.add_done_callback(record)
        pending.append(future)
        issued += 1
    completed = 0
    for future in pending:
        try:
            future.result(timeout=120)
            completed += 1
        except ServiceOverloadedError:
            shed += 1
    elapsed = time.perf_counter() - start
    with lock:
        stats = _percentiles(latencies)
    return {
        "offered_load_rps": round(offered_load, 1),
        "issued": issued,
        "completed": completed,
        "shed": shed,
        "achieved_rps": round(completed / elapsed, 1),
        **stats,
    }


def _build(mode: str, keys: np.ndarray, payloads: list, shards: int,
           window_s: float):
    backend, max_inflight = MODES[mode]
    # The thread backend has no pipe, so it takes no in-flight budget.
    pipelining = {} if max_inflight is None else {"max_inflight": max_inflight}
    service = ShardedAlexIndex.bulk_load(
        keys, payloads, num_shards=shards, backend=backend, **pipelining)
    runner = IngressRunner(service, window_s=window_s,
                           submit_workers=SUBMIT_WORKERS,
                           max_queue=1 << 17, overload="shed")
    return service, runner


def _knee(rows: list, p99_bound_ms: float) -> float:
    """The saturation knee: highest offered load sustained at bounded
    p99 (0.0 when even the lightest level blows the bound)."""
    knee = 0.0
    for row in rows:
        sustained = (row["shed"] == 0
                     and row["completed"] >= SUSTAIN_FRACTION * row["issued"]
                     and row["p99_ms"] is not None
                     and row["p99_ms"] <= p99_bound_ms)
        if sustained:
            knee = max(knee, row["offered_load_rps"])
    return knee


def measure_serving(num_keys: int = 100_000, shards: int = 2,
                    loads=(150, 250, 350, 450, 550, 700, 900),
                    duration_s: float = 3.0, request_size: int = 16,
                    window_s: float = 0.001, p99_bound_ms: float = 150.0,
                    windows=(0.0, 0.0005, 0.002, 0.008),
                    seed: int = SEED) -> dict:
    """The acceptance measurement: the offered-load sweep per mode plus
    the coalescing-window sweep on the pipelined mode."""
    from repro.datasets import load as load_dataset
    keys = np.unique(load_dataset("lognormal", num_keys, seed=seed))
    # Numeric payloads (not None), so replies carry real values.
    payloads = [float(k) for k in keys]

    modes = {}
    for mode in MODES:
        service, runner = _build(mode, keys, payloads, shards, window_s)
        rows = []
        try:
            # Warmup: touch every shard and settle the pools off-clock.
            runner.get_many(keys[:: max(1, len(keys) // 256)])
            for i, offered in enumerate(loads):
                rows.append(run_open_loop(runner, keys, float(offered),
                                          duration_s, request_size,
                                          seed + i))
        finally:
            runner.close()
            service.close()
        modes[mode] = {
            "backend": MODES[mode][0],
            "max_inflight": MODES[mode][1],
            "submit_workers": SUBMIT_WORKERS,
            "levels": rows,
            "knee_load_rps": _knee(rows, p99_bound_ms),
            "saturated_rps": rows[-1]["achieved_rps"] if rows else None,
        }

    window_rows = []
    service, runner = _build("process_pipelined", keys, payloads, shards,
                             window_s)
    try:
        mid_load = float(loads[len(loads) // 2])
        for w in windows:
            runner.ingress.window_s = float(w)
            row = run_open_loop(runner, keys, mid_load, duration_s,
                                request_size, seed + 101)
            window_rows.append({"window_ms": round(w * 1e3, 2), **row})
    finally:
        runner.close()
        service.close()

    pipe_knee = modes["process_pipelined"]["knee_load_rps"]
    sync_knee = modes["process_syncwait"]["knee_load_rps"]
    pipe_sat = modes["process_pipelined"]["saturated_rps"]
    sync_sat = modes["process_syncwait"]["saturated_rps"]
    result = {
        "bench": "open-loop Poisson serving latency vs offered load "
                 "through the coalescing ingress",
        "dataset": "lognormal",
        "num_keys": int(len(keys)),
        "shards": int(shards),
        "request_size": int(request_size),
        "coalescing_window_ms": round(window_s * 1e3, 2),
        "p99_bound_ms": p99_bound_ms,
        "duration_s_per_level": duration_s,
        "cpu_count": os.cpu_count() or 1,
        "metric_note": (
            "open loop: latency counts from each request's scheduled "
            "Poisson arrival, so backlog shows up as tail latency; the "
            "knee is the highest offered load sustained with p99 under "
            "the bound, nothing shed, and >= "
            f"{SUSTAIN_FRACTION:.0%} of offered completed; "
            "knee_load_ratio is wall-clock parallelism and therefore "
            "core-sensitive (compare equal cpu_count only)"),
        "modes": modes,
        "window_sweep": {
            "offered_load_rps": float(loads[len(loads) // 2]),
            "levels": window_rows,
        },
        "pipelined_vs_syncwait": {
            "saturated_throughput_ratio": (round(pipe_sat / sync_sat, 3)
                                           if sync_sat else None),
            "knee_load_ratio": (round(pipe_knee / sync_knee, 3)
                                if sync_knee else None),
            "pipelined_knee_rps": pipe_knee,
            "syncwait_knee_rps": sync_knee,
            "pipelined_saturated_rps": pipe_sat,
            "syncwait_saturated_rps": sync_sat,
        },
    }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Open-loop Poisson serving latency vs offered load "
                    "(both backends, pipelined vs call-and-wait RPC), "
                    "recorded to BENCH_serving.json")
    parser.add_argument("--keys", type=int, default=100_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--loads", type=float, nargs="+",
                        default=[150, 250, 350, 450, 550, 700, 900],
                        help="offered loads to sweep (requests/second)")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds per offered-load level")
    parser.add_argument("--request-size", type=int, default=16,
                        help="keys per client request")
    parser.add_argument("--window", type=float, default=0.001,
                        help="ingress coalescing window (seconds)")
    parser.add_argument("--p99-bound-ms", type=float, default=150.0,
                        help="p99 bound defining the saturation knee")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (short levels, light "
                             "loads)")
    _common.add_output_arguments(parser, "BENCH_serving.json")
    args = parser.parse_args()
    if args.smoke:
        args.keys = min(args.keys, 20_000)
        args.loads = [100, 400]
        args.duration = 0.8
    result = measure_serving(args.keys, args.shards, tuple(args.loads),
                             args.duration, args.request_size,
                             args.window, args.p99_bound_ms)
    pvs = result["pipelined_vs_syncwait"]
    summary = (f"pipelined vs call-and-wait: saturated throughput "
               f"{pvs['pipelined_saturated_rps']} vs "
               f"{pvs['syncwait_saturated_rps']} rps (ratio "
               f"{pvs['saturated_throughput_ratio']}); knee at "
               f"p99<={args.p99_bound_ms:.0f}ms {pvs['pipelined_knee_rps']}"
               f" vs {pvs['syncwait_knee_rps']} rps "
               f"({result['cpu_count']} cores)")
    _common.emit(result, args, summary)


if __name__ == "__main__":
    main()
