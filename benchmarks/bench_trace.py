"""Tracing overhead bench: sampled vs unsampled vs obs-off hot paths.

Distributed tracing (``repro.obs.trace``) rides the serving tier's
hottest batch path — every facade entry point roots (or joins) a trace
span, and every RPC frame carries the context — so its cost must be
measured, bounded, and gated just like the metrics layer's.  Three
states of the same ``lookup_many`` loop over a single-shard sharded
service, interleaved so drift hits all sides equally:

* **traced** — obs on, ``REPRO_TRACE_SAMPLE`` at 1.0: every call roots
  a span, commits it to the flight recorder, and stamps a histogram
  exemplar.  ``overhead_x`` is traced/untraced wall clock; the
  regression gate holds it near the committed baseline (the ISSUE
  bound is ≤2% on this path).
* **untraced** — obs on, sample rate 0: the head sampler declines every
  root, so facade calls degrade to plain histogram spans.
  ``disabled_overhead_x`` (untraced/off) shows that declining is
  within noise of the obs kill switch — recorded, not gated (it
  hovers at 1.0 where a ratio gate only measures runner noise).
* **off** — ``obs.set_enabled(False)``, the ``REPRO_OBS=off`` path:
  no histograms, no spans, the shared no-op.

Each ratio is the **median of paired A/B/A rounds** (the B state
bracketed by two A runs, ratio against their mean;
``_common.paired_medians``, which ``bench_obs.py`` uses too) rather
than a best-of quotient: on a throttled 1-core container single runs
swing ±10% and drift over a bench's lifetime, so independent minima
compare two states' luck, while bracketing cancels drift to first order
and the median rejects throttling outliers.  (A profile of both states
shows identical work — 33 calls of span machinery out of ~370k — so
what this protects is the measurement, not the claim.)

A span micro-benchmark prices one traced span enter/exit (recorder
commit + histogram + exemplar) next to a plain histogram span and the
disabled no-op, so the per-event cost is on record beside the
end-to-end ratio it explains.

The run asserts tracing was actually live during the traced rounds
(the ``serve.lookup_many`` histogram carries exemplars) — a silently
unsampled run would otherwise report a perfect 1.0.

Run: ``python benchmarks/bench_trace.py [--keys N] [--probes M]
[--repeat R] [--out BENCH_trace.json] [--quiet]``
"""

import argparse
import statistics
import time

import numpy as np

import _common
from repro import obs
from repro.obs import trace
from repro.serve.sharded import ShardedAlexIndex

SEED = 11


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
    service = ShardedAlexIndex.bulk_load(keys, num_shards=1,
                                         backend="thread")
    try:
        probes = rng.choice(keys, size=num_probes)
        service.lookup_many(probes[:128])  # touch the path before timing
        seconds = {"traced": [], "untraced": [], "off": []}

        def timed(state: str) -> float:
            if state == "off":
                obs.set_enabled(False)
            else:
                obs.set_enabled(True)
                trace.set_sample_rate(1.0 if state == "traced" else 0.0)
            start = time.perf_counter()
            service.lookup_many(probes)
            elapsed = time.perf_counter() - start
            seconds[state].append(elapsed)
            return elapsed

        overhead, disabled = _common.paired_medians(
            [(lambda: timed("untraced"), lambda: timed("traced")),
             (lambda: timed("off"), lambda: timed("untraced"))], repeat)
        obs.set_enabled(True)
        trace.set_sample_rate(1.0)
        hist = obs.get_registry().histogram("serve.lookup_many").snapshot()
        assert hist.get("exemplars"), (
            "tracing was not live during the traced rounds")
    finally:
        service.close()
    median = {state: statistics.median(times)
              for state, times in seconds.items()}
    return {
        "num_keys": int(len(keys)),
        "num_probes": int(num_probes),
        "repeat": int(repeat),
        "seconds_traced": round(median["traced"], 5),
        "seconds_untraced": round(median["untraced"], 5),
        "seconds_obs_off": round(median["off"], 5),
        "lookups_per_second_traced": round(
            num_probes / median["traced"], 1),
        "lookups_per_second_untraced": round(
            num_probes / median["untraced"], 1),
        "overhead_x": round(overhead, 4),
        "disabled_overhead_x": round(disabled, 4),
    }


def span_micro(iterations: int = 200_000) -> dict:
    def spin():
        for _ in range(iterations):
            with trace.span("bench.trace_span_micro", root=True):
                pass

    obs.set_enabled(True)
    trace.set_sample_rate(1.0)
    traced_s = _best_of(spin, 3)
    trace.set_sample_rate(0.0)
    untraced_s = _best_of(spin, 3)
    obs.set_enabled(False)
    disabled_s = _best_of(spin, 3)
    obs.set_enabled(True)
    trace.set_sample_rate(1.0)
    return {
        "iterations": int(iterations),
        "ns_per_span_traced": round(traced_s / iterations * 1e9, 1),
        "ns_per_span_untraced": round(untraced_s / iterations * 1e9, 1),
        "ns_per_span_disabled": round(disabled_s / iterations * 1e9, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--probes", type=int, default=100_000)
    parser.add_argument("--repeat", type=int, default=5)
    _common.add_output_arguments(parser, default_out="BENCH_trace.json")
    args = parser.parse_args()

    obs.reset()
    result = {
        "batch_lookup": batch_lookup_overhead(args.keys, args.probes,
                                              args.repeat),
        "span": span_micro(),
    }
    lookup = result["batch_lookup"]
    _common.emit(result, args,
                 f"traced-vs-unsampled batch-lookup overhead "
                 f"{lookup['overhead_x']}x (unsampled-vs-off "
                 f"{lookup['disabled_overhead_x']}x, "
                 f"{result['span']['ns_per_span_traced']}ns/traced span)")


if __name__ == "__main__":
    main()
