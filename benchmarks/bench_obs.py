"""Observability overhead bench: instrumented vs disabled hot paths.

The observability layer (``repro.obs``) sits on the serving tier's
request path, so its cost must be measured, bounded, and gated — a
metrics layer that moves the numbers it reports is worse than none.
Two measurements:

* **Batch-lookup overhead** — ``lookup_many`` over a bulk-loaded
  ``AlexIndex`` (1M keys by default) with the layer enabled vs disabled
  (``obs.set_enabled``, the same switch ``REPRO_OBS=off`` throws at
  import).  ``overhead_x`` is the instrumented/disabled wall-clock
  ratio, the median of ``--repeat`` paired A/B/A rounds
  (``_common.paired_medians``: each enabled run bracketed by two
  disabled ones), as ``bench_trace.py`` measures; the regression gate
  holds it ≤ the committed baseline (~1.0, a 2% design bound).  The
  ratio is scale-invariant, so the gate holds on any host.
* **Span micro-cost** — nanoseconds per ``trace.span`` enter/exit when
  enabled, and per no-op call when disabled, so the per-event price is
  on record next to the end-to-end ratio it explains.

The run asserts instrumentation was actually live while the "on" rounds
timed (the ``core.lookup_many`` histogram grew) — a silently disabled
layer would otherwise report a perfect overhead of 1.0.

Run: ``python benchmarks/bench_obs.py [--keys N] [--probes M]
[--repeat R] [--out BENCH_obs.json] [--quiet]``
"""

import argparse
import statistics
import time

import numpy as np

import _common
from repro import obs
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi
from repro.obs import trace

SEED = 7


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def batch_lookup_overhead(num_keys: int, num_probes: int,
                          repeat: int) -> dict:
    rng = np.random.default_rng(SEED)
    keys = np.unique(rng.uniform(0, 1e12, num_keys))
    index = AlexIndex.bulk_load(keys, config=ga_armi())
    probes = rng.choice(keys, size=num_probes)
    index.lookup_many(probes)  # warm the path and the caches untimed

    seconds = {True: [], False: []}

    def timed(enabled: bool) -> float:
        obs.set_enabled(enabled)
        start = time.perf_counter()
        index.lookup_many(probes)
        elapsed = time.perf_counter() - start
        seconds[enabled].append(elapsed)
        return elapsed

    count_before = obs.get_registry().histogram("core.lookup_many").count
    overhead, = _common.paired_medians(
        [(lambda: timed(False), lambda: timed(True))], repeat)
    obs.set_enabled(True)
    count_after = obs.get_registry().histogram("core.lookup_many").count
    assert count_after > count_before, (
        "instrumentation was not live during the 'on' rounds")
    median_on = statistics.median(seconds[True])
    median_off = statistics.median(seconds[False])
    return {
        "num_keys": int(len(keys)),
        "num_probes": int(num_probes),
        "repeat": int(repeat),
        "seconds_instrumented": round(median_on, 5),
        "seconds_disabled": round(median_off, 5),
        "lookups_per_second_instrumented": round(num_probes / median_on, 1),
        "lookups_per_second_disabled": round(num_probes / median_off, 1),
        "overhead_x": round(overhead, 4),
    }


def span_micro(iterations: int = 200_000) -> dict:
    def spin():
        for _ in range(iterations):
            with trace.span("bench.span_micro"):
                pass

    obs.set_enabled(True)
    enabled_s = _best_of(spin, 3)
    obs.set_enabled(False)
    disabled_s = _best_of(spin, 3)
    obs.set_enabled(True)
    return {
        "iterations": int(iterations),
        "ns_per_span_enabled": round(enabled_s / iterations * 1e9, 1),
        "ns_per_span_disabled": round(disabled_s / iterations * 1e9, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--probes", type=int, default=100_000)
    parser.add_argument("--repeat", type=int, default=5)
    _common.add_output_arguments(parser, default_out="BENCH_obs.json")
    args = parser.parse_args()

    obs.reset()
    result = {
        "batch_lookup": batch_lookup_overhead(args.keys, args.probes,
                                              args.repeat),
        "span": span_micro(),
    }
    lookup = result["batch_lookup"]
    _common.emit(result, args,
                 f"instrumented-vs-disabled batch-lookup overhead "
                 f"{lookup['overhead_x']}x "
                 f"({result['span']['ns_per_span_enabled']}ns/span)")


if __name__ == "__main__":
    main()
