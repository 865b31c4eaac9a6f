"""Perf regression gate: compare fresh smoke benches against baselines.

CI produces small "smoke" versions of the bench artifacts
(``BENCH_batch.json``, ``BENCH_shard.json``, ``BENCH_adapt.json``,
``BENCH_durability.json``, ``BENCH_kernels.json``) and this script
compares them against the baselines committed at the repo root.
Absolute throughput numbers are meaningless across machines and problem
sizes, so only **scale-invariant ratio metrics** are gated — the
batch-vs-scalar speedup, the sharded critical-path speedups, the
cost-model-vs-heuristic policy ratios, and the compiled-kernel
speedups.  Each fresh metric must reach ``tolerance`` × its baseline
(for lower-is-better metrics: stay under baseline ÷ ``tolerance``).

Metrics marked *core-sensitive* (wall-clock ratios that depend on real
parallelism, e.g. the process-vs-thread speedups) are additionally
guarded by the recorded core count: when the baseline and the fresh
artifact were produced at different ``cpu_count`` values the comparison
is refused — reported as a note, neither passed nor failed — because a
1-core baseline would make any multi-core run look like a win and vice
versa.

Every metric but the compiled-kernel speedup is timed on the
process-default kernel backend (``meta.default_kernel_backend``), and
the same code reads very differently on numpy and on a compiled
backend.  A fresh artifact recorded on another backend than its baseline
therefore *fails* each such metric, naming both backends: the gate
cannot say whether the program regressed, and a run on the wrong
backend must not pass silently.  ``BENCH_kernels.json`` times every
backend itself and is exempt.

The tolerance knob defaults to **0.5** — deliberately loose, because CI
runners are noisy and the smoke sizes are tiny; it exists to catch "the
batch engine stopped being vectorized" (a 60x speedup collapsing to 2x),
not a 10% wobble.  Tighten it locally with ``--tolerance 0.8`` or the
``BENCH_TOLERANCE`` environment variable.

Run: ``python benchmarks/check_regression.py --baseline-dir .
--fresh-dir ci-bench [--tolerance 0.5] [--files BENCH_shard.json ...]``

Exit status: 0 when every gated metric passes (missing metrics are
reported but not fatal — e.g. a baseline recorded before a metric
existed), 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Metric:
    """One gated reading inside a bench artifact."""

    label: str
    path: tuple                 # nested dict keys
    higher_is_better: bool = True
    #: Wall-clock readings that depend on real parallelism.  These are
    #: only comparable between artifacts recorded at the *same* core
    #: count — a 1-core baseline makes any multi-core fresh run look
    #: like a huge win (and vice versa), so the gate refuses the
    #: comparison instead of passing or failing it.
    core_sensitive: bool = False
    #: Per-metric tolerance override.  Ratios that hover near 1.0 (e.g.
    #: the observability overhead) would be allowed to double under the
    #: deliberately loose global default, so they pin a tighter bound.
    tolerance: Optional[float] = None
    #: Timed on the process-default kernel backend, so only comparable
    #: between artifacts recorded on the same one.
    default_backend: bool = True


#: The scale-invariant metrics gated per artifact.
GATED = {
    "BENCH_batch.json": [
        Metric("batch vs scalar lookup speedup", ("speedup",)),
    ],
    "BENCH_shard.json": [
        Metric("read critical-path speedup over 1 shard",
               ("read_speedup_over_1_shard", "sim_critical_path")),
        Metric("write critical-path speedup over 1 shard",
               ("write_speedup_over_1_shard", "sim_critical_path")),
        # Wall-clock process-vs-thread ratios reflect how many real
        # cores the worker processes could spread across — comparable
        # only between same-core-count recordings.
        Metric("process-vs-thread read wall speedup",
               ("process_vs_thread", "read_wall_speedup"),
               core_sensitive=True),
        Metric("process-vs-thread write wall speedup",
               ("process_vs_thread", "write_wall_speedup"),
               core_sensitive=True),
    ],
    "BENCH_kernels.json": [
        # The compiled-kernels lever: end-to-end batch-lookup throughput
        # of the best compiled backend over the numpy fallback.  Missing
        # (null) when the environment has no compiled backend — reported
        # but not gated there, like any missing metric.
        Metric("compiled batch-lookup speedup over numpy",
               ("end_to_end", "batch_lookup", "best_speedup"),
               default_backend=False),
    ],
    "BENCH_adapt.json": [
        Metric("cost-model throughput ratio (grow-shrink)",
               ("scenarios", "grow-shrink", "comparison",
                "throughput_ratio")),
        Metric("cost-model space ratio (grow-shrink)",
               ("scenarios", "grow-shrink", "comparison", "space_ratio"),
               higher_is_better=False),
        Metric("cost-model throughput ratio (hotspot-shift)",
               ("scenarios", "hotspot-shift", "comparison",
                "throughput_ratio")),
    ],
    "BENCH_obs.json": [
        # Instrumented-over-disabled batch-lookup wall clock: the price
        # of the observability layer on the hottest read path.  Lower is
        # better; a climb means spans crept onto a scalar path or the
        # record path grew a lock/allocation.
        # Tolerance pinned tight: the baseline sits at ~1.0, and the
        # loose global default would wave a 2x slowdown through.  At
        # 0.93 a ~1.0 baseline caps fresh runs near 1.08 — honest
        # runner-noise headroom over the designed ≤2% overhead, while a
        # span landing on a scalar hot path (25%+) still fails.
        Metric("observability instrumentation overhead",
               ("batch_lookup", "overhead_x"),
               higher_is_better=False, tolerance=0.93),
    ],
    "BENCH_trace.json": [
        # Traced-over-unsampled batch-lookup wall clock: the price of
        # distributed tracing on the hottest batch path when head
        # sampling admits every request.  Lower is better; pinned tight
        # like the obs overhead (a ~1.0 baseline caps fresh runs near
        # 1.08 — runner-noise headroom over the designed ≤2%), so a
        # span creeping onto a per-key path still fails.  The
        # unsampled-vs-off ratio is recorded in the artifact but not
        # gated: it sits at 1.0 and a gate there only measures noise.
        Metric("tracing instrumentation overhead",
               ("batch_lookup", "overhead_x"),
               higher_is_better=False, tolerance=0.93),
    ],
    "BENCH_durability.json": [
        # Ratio of durable to in-memory batch-insert wall clock with
        # fsync off (the logging code path itself, no storage barriers).
        # Lower is better: a collapse here means every write started
        # paying for copies/pickling it should not.
        Metric("logged-write overhead (fsync=off)",
               ("logged_write", "overhead_x", "off"),
               higher_is_better=False),
        # Recovery-from-full-WAL-replay over recovery-after-checkpoint:
        # the factor checkpoints buy.  Falling toward 1 means checkpoint
        # loading became as slow as replaying the whole history.
        Metric("checkpoint recovery speedup",
               ("recovery", "checkpoint_speedup")),
    ],
    "BENCH_replication.json": [
        # Closed-loop read throughput with half the clients routed
        # replica_ok over the same clients pinned to the primaries: the
        # replica worker processes double the read executors, so the
        # ratio is wall-clock parallelism — same-core-count comparisons
        # only.
        Metric("replica read scaling (mixed vs primary-only)",
               ("read_scaling", "replica_vs_primary_ratio"),
               core_sensitive=True),
        # First read after SIGKILLing a primary with a long WAL tail:
        # replica promotion over cold checkpoint-replay respawn.  Lower
        # is better; climbing toward 1.0 means promotion started paying
        # for the tail replay it exists to skip.
        Metric("failover promote vs cold respawn",
               ("failover", "promote_vs_respawn_ratio"),
               higher_is_better=False),
    ],
    "BENCH_serving.json": [
        # Achieved throughput at the heaviest offered load: pipelined
        # out-of-order RPC (up to eight frames in flight per worker
        # pipe) over the strict call-and-wait discipline (one), both on
        # the same pipe-frame transport behind the same ingress.  How much pipelining buys depends on how
        # many real cores the workers overlap across, so the reading is
        # only comparable between same-core-count recordings.
        Metric("pipelined vs call-and-wait saturated throughput",
               ("pipelined_vs_syncwait", "saturated_throughput_ratio"),
               core_sensitive=True),
        # The saturation knee (highest offered load served with zero
        # shed, the sustain fraction completed, and p99 under the
        # bound) is quantized to the offered-load grid, so it moves in
        # coarse steps — gate it only against collapse.
        Metric("pipelined vs call-and-wait knee load",
               ("pipelined_vs_syncwait", "knee_load_ratio"),
               core_sensitive=True),
    ],
}


def _dig(data: dict, path: tuple) -> Optional[float]:
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return float(data) if isinstance(data, (int, float)) else None


def _cpu_count(data: dict) -> Optional[int]:
    """The core count an artifact was recorded at (``meta.cpu_count``
    from ``_common.emit``, or the top-level field older artifacts
    carried); ``None`` for artifacts that predate both."""
    for path in (("meta", "cpu_count"), ("cpu_count",)):
        value = _dig(data, path)
        if value is not None:
            return int(value)
    return None


def _kernel_backend(data: dict) -> Optional[str]:
    """The default kernel backend an artifact was recorded on; ``None``
    for artifacts that predate the ``meta`` block."""
    meta = data.get("meta")
    return meta.get("default_kernel_backend") if isinstance(meta, dict) \
        else None


def check_file(name: str, baseline_dir: str, fresh_dir: str,
               tolerance: float) -> tuple:
    """Gate one artifact; returns ``(num_checked, failures, notes)``."""
    failures, notes = [], []
    paths = {}
    for role, directory in (("baseline", baseline_dir), ("fresh", fresh_dir)):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            notes.append(f"{name}: no {role} at {path} — skipped")
            return 0, failures, notes
        with open(path) as fh:
            paths[role] = json.load(fh)
    base_cores = _cpu_count(paths["baseline"])
    fresh_cores = _cpu_count(paths["fresh"])
    base_backend = _kernel_backend(paths["baseline"])
    fresh_backend = _kernel_backend(paths["fresh"])
    recorded = None not in (base_backend, fresh_backend)
    if not recorded:
        notes.append(f"{name}: a result records no kernel backend — "
                     "backends not compared")
    checked = 0
    for metric in GATED.get(name, []):
        if (metric.default_backend and recorded
                and base_backend != fresh_backend):
            checked += 1
            line = (f"{name}: {metric.label}: fresh run on the "
                    f"{fresh_backend} kernel backend vs baseline on "
                    f"{base_backend} — BACKEND MISMATCH")
            print(line)
            failures.append(line)
            continue
        if metric.core_sensitive and base_cores != fresh_cores:
            notes.append(
                f"{name}: {metric.label} is core-sensitive and the "
                f"baseline was recorded at cpu_count="
                f"{base_cores if base_cores is not None else '?'} vs "
                f"fresh cpu_count="
                f"{fresh_cores if fresh_cores is not None else '?'} — "
                "comparison refused")
            continue
        base = _dig(paths["baseline"], metric.path)
        fresh = _dig(paths["fresh"], metric.path)
        if base is None or fresh is None:
            notes.append(f"{name}: {metric.label} missing in "
                         f"{'baseline' if base is None else 'fresh'} "
                         "result — not gated")
            continue
        checked += 1
        applied = (metric.tolerance if metric.tolerance is not None
                   else tolerance)
        if metric.higher_is_better:
            floor = base * applied
            ok = fresh >= floor
            bound = f">= {floor:.3f}"
        else:
            ceiling = base / applied
            ok = fresh <= ceiling
            bound = f"<= {ceiling:.3f}"
        verdict = "ok" if ok else "REGRESSION"
        line = (f"{name}: {metric.label}: fresh {fresh:.3f} vs baseline "
                f"{base:.3f} (need {bound}) — {verdict}")
        print(line)
        if not ok:
            failures.append(line)
    return checked, failures, notes


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a fresh smoke bench regresses against the "
                    "committed baseline beyond the tolerance")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the committed BENCH_*.json "
                             "baselines (default: repo root)")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory holding the freshly produced "
                             "smoke BENCH_*.json artifacts")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("BENCH_TOLERANCE",
                                                     "0.5")),
                        help="required fraction of the baseline metric "
                             "(default 0.5, or $BENCH_TOLERANCE; CI "
                             "runners are noisy — this catches collapses, "
                             "not wobbles)")
    parser.add_argument("--files", nargs="+", default=sorted(GATED),
                        help="artifact names to gate (default: all known)")
    args = parser.parse_args()
    if not 0 < args.tolerance <= 1:
        parser.error("--tolerance must be in (0, 1]")

    total, all_failures, all_notes = 0, [], []
    for name in args.files:
        checked, failures, notes = check_file(
            name, args.baseline_dir, args.fresh_dir, args.tolerance)
        total += checked
        all_failures.extend(failures)
        all_notes.extend(notes)
    for note in all_notes:
        print(f"note: {note}")
    if all_failures:
        print(f"\n{len(all_failures)} regression(s) at tolerance "
              f"{args.tolerance}:", file=sys.stderr)
        for line in all_failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall {total} gated metrics within tolerance {args.tolerance}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
