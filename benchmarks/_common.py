"""Shared CLI behavior for the bench scripts in this directory.

Every ``bench_*.py`` that records a ``BENCH_*.json`` artifact uses the
same output contract:

* ``--out PATH``  — where the JSON artifact is written (each script's
  default is its committed baseline name, e.g. ``BENCH_shard.json``);
* ``--quiet``     — suppress the full JSON dump on stdout and print only
  the one-line summary (CI uses this instead of piping to
  ``/dev/null``).

Scripts import this module by file-system neighborhood (``import
_common``), which works because Python puts a script's own directory on
``sys.path`` — no package install required.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics


def runtime_meta() -> dict:
    """Self-describing runtime facts stamped into every bench artifact:
    the host's core count plus the active kernel-backend configuration
    (which backend is the default, which could run here, and the
    cffi/numpy versions involved).  Future baselines then carry
    enough context to be compared honestly — or refused (see
    ``check_regression.py``'s core-count guard)."""
    from repro.core.kernels import describe_runtime

    meta = {"cpu_count": os.cpu_count() or 1}
    meta.update(describe_runtime())
    return meta


def obs_block() -> dict:
    """The process's observability summary (percentiles per instrumented
    span, counters, structural-event tally) — stamped into artifacts so
    committed baselines carry p50/p99/p999 alongside the means.  Empty
    when the layer is disabled (``REPRO_OBS=off``) or recorded nothing.
    """
    from repro import obs
    from repro.obs.render import summarize

    if not obs.enabled():
        return {}
    snapshot = obs.snapshot()
    if not snapshot["histograms"] and not snapshot["counters"]:
        return {}
    return summarize(snapshot)


def paired_medians(pairs, rounds: int) -> list:
    """The median over ``rounds`` paired A/B/A rounds of each ``(time_a,
    time_b)`` pair in ``pairs``: B's time over the mean of the two A
    runs that bracket it.  Each callable runs its side once and returns
    the seconds it took; every round runs each pair in turn.

    A best-of quotient compares two sides' luck: on a throttled host
    single runs swing ±10% and drift over a bench's lifetime, and
    timing one side first biases it.  Bracketing cancels drift to first
    order, and the median rejects throttling outliers."""
    ratios = [[] for _ in pairs]
    for _ in range(rounds):
        for (time_a, time_b), out in zip(pairs, ratios):
            before = time_a()
            middle = time_b()
            after = time_a()
            out.append(2 * middle / (before + after))
    return [statistics.median(out) for out in ratios]


def add_output_arguments(parser: argparse.ArgumentParser,
                         default_out: str) -> None:
    """Attach the uniform ``--out`` / ``--quiet`` options."""
    parser.add_argument("--out", default=default_out,
                        help=f"output JSON path (default: {default_out})")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line, not the full "
                             "JSON result")


def emit(result: dict, args: argparse.Namespace, summary: str) -> None:
    """Write the artifact and report per the uniform output contract.

    Every artifact gains a ``meta`` block (:func:`runtime_meta`) so
    baselines are self-describing; script-provided ``meta`` keys win.
    """
    meta = runtime_meta()
    meta.update(result.get("meta", {}))
    result["meta"] = meta
    if "obs" not in result:
        block = obs_block()
        if block:
            result["obs"] = block
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    if not args.quiet:
        print(json.dumps(result, indent=2))
        print()
    print(f"wrote {args.out}; {summary}")
