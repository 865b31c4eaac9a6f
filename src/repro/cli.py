"""Command-line interface: run paper experiments without writing code.

Subcommands::

    python -m repro info                     # version, variants, systems
    python -m repro datasets [--size N]      # Table 1
    python -m repro compare --dataset ycsb --workload read-heavy
    python -m repro shards --dataset lognormal --shards 1 2 4 8 \
        [--backend thread|process] [--durable DIR]
    python -m repro recover --dir DIR [--verify]   # crash recovery
    python -m repro adapt --scenario grow-shrink   # policy SMO report
    python -m repro errors --dataset longitudes [--size N]
    python -m repro theorems --dataset lognormal --c 1.43 2 8
    python -m repro stats [--backend thread|process] [--format json]
    python -m repro top [--refresh S] [--duration S]   # live dashboard
    python -m repro trace [--trace-id ID] [--format chrome]  # slow traces

All numbers use the counter-based simulated-time metric
(:mod:`repro.analysis.cost_model`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from .analysis import (
    alex_prediction_errors,
    error_summary,
    learned_index_prediction_errors,
)
from .analysis.theorems import analyze
from .baselines.learned_index import LearnedIndex
from .bench import (
    SYSTEMS,
    SystemParams,
    best_alex_variant_for,
    format_table,
    run_experiment,
)
from .core.alex import AlexIndex
from .core.config import ALL_VARIANTS, ga_armi
from .core.kernels import (BACKEND_NAMES, check_backend_name,
                           default_backend_name, describe_runtime)
from .core.policy import CostModelPolicy, HeuristicPolicy
from .datasets import DATASETS, linear_fit_error, load, local_nonlinearity
from .workloads import WORKLOADS
from .workloads.adaptation import SCENARIOS, run_adaptation_scenario


def _cmd_info(args: argparse.Namespace) -> int:
    try:
        check_backend_name(default_backend_name())
    except ValueError as exc:
        print(f"error: $REPRO_KERNEL_BACKEND: {exc}", file=sys.stderr)
        return 2
    print(f"repro {__version__} — ALEX reproduction (SIGMOD 2020)")
    print(f"ALEX variants: {', '.join(ALL_VARIANTS)}")
    print(f"systems:       {', '.join(SYSTEMS)}")
    print(f"datasets:      {', '.join(DATASETS)}")
    print(f"workloads:     {', '.join(WORKLOADS)}")
    runtime = describe_runtime()
    print(f"kernels:       default={runtime['default_kernel_backend']}, "
          f"available="
          f"{', '.join(runtime['available_kernel_backends'])}")
    from . import obs
    info = obs.describe()
    switch = "on" if info["enabled"] else "off"
    if info["env"] is not None:
        switch += f" ({obs.ENV_VAR}={info['env']})"
    print(f"obs:           {switch}, {info['bucket_config']}")
    print(f"               registry: {info['counters']} counters, "
          f"{info['gauges']} gauges, {info['histograms']} histograms, "
          f"{info['events']}/{info['event_limit']} events")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name, spec in DATASETS.items():
        keys = load(name, args.size, seed=args.seed)
        rows.append((name, spec.paper_num_keys, args.size, spec.key_type,
                     spec.payload_size,
                     f"{linear_fit_error(keys):.4f}",
                     f"{local_nonlinearity(keys):.4f}"))
    print(format_table(
        ["dataset", "paper n", "n", "key type", "payload B",
         "global nonlin", "local nonlin"],
        rows, title="Table 1: dataset characteristics"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = WORKLOADS[args.workload]
    systems = args.systems or [best_alex_variant_for(spec), "BPlusTree"]
    params = SystemParams(keys_per_model=args.keys_per_model,
                          max_keys_per_node=args.max_keys,
                          page_size=args.page_size,
                          kernel_backend=args.kernel_backend)
    rows = []
    for system in systems:
        if system not in SYSTEMS:
            print(f"error: unknown system {system!r} "
                  f"(choose from {', '.join(SYSTEMS)})", file=sys.stderr)
            return 2
        result = run_experiment(system, args.dataset, spec,
                                init_size=args.init, num_ops=args.ops,
                                params=params, seed=args.seed)
        rows.append((system, f"{result.throughput / 1e6:.3f}",
                     f"{result.index_bytes:,}", f"{result.data_bytes:,}",
                     result.extras["inserts"]))
    print(format_table(
        ["system", "Mops/s (sim)", "index bytes", "data bytes", "inserts"],
        rows, title=f"{args.workload} on {args.dataset} "
                    f"(init={args.init:,}, ops={args.ops:,})"))
    return 0


def _cmd_shards(args: argparse.Namespace) -> int:
    spec = WORKLOADS[args.workload]
    rows = []
    for num_shards in args.shards:
        durability_dir = None
        if args.durable:
            # One durability tree per shard count (a tree records one
            # topology; re-creating over a live one is refused).
            durability_dir = os.path.join(args.durable,
                                          f"shards-{num_shards}")
        params = SystemParams(keys_per_model=args.keys_per_model,
                              max_keys_per_node=args.max_keys,
                              num_shards=num_shards,
                              shard_backend=args.backend,
                              durability_dir=durability_dir,
                              fsync=args.fsync,
                              kernel_backend=args.kernel_backend)
        result = run_experiment("ShardedALEX", args.dataset, spec,
                                init_size=args.init, num_ops=args.ops,
                                params=params, seed=args.seed,
                                read_batch=args.read_batch,
                                write_batch=args.write_batch)
        parallel = result.extras["critical_path_throughput"]
        rows.append((num_shards, f"{result.throughput / 1e6:.3f}",
                     f"{parallel / 1e6:.3f}",
                     f"{result.index_bytes:,}", result.extras["reads"],
                     result.extras["inserts"], result.extras["scans"]))
    durable_note = (f", durable -> {args.durable} [{args.fsync}]"
                    if args.durable else "")
    print(format_table(
        ["shards", "Mops/s (agg)", "Mops/s (parallel)", "index bytes",
         "reads", "inserts", "scans"],
        rows, title=f"ShardedALEX scaling [{args.backend} backend]: "
                    f"{args.workload} on "
                    f"{args.dataset} (init={args.init:,}, ops={args.ops:,}, "
                    f"read_batch={args.read_batch}, "
                    f"write_batch={args.write_batch}{durable_note})"))
    if args.durable:
        print(f"durable state written under {args.durable}; inspect or "
              f"restore with: python -m repro recover --dir "
              f"{os.path.join(args.durable, f'shards-{args.shards[-1]}')}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a durable service from its root, or one shard's index
    from the shard's own directory, and report what came back."""
    from .durability import recover_index, service_manifest_kind
    from .serve import ShardedAlexIndex

    kind = service_manifest_kind(args.dir)
    if kind is None:
        print(f"error: {args.dir} holds no durability manifest",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    if kind == "single":
        result = recover_index(args.dir)
        elapsed = time.perf_counter() - start
        if args.verify:
            result.index.validate()
        print(format_table(
            ["keys", "checkpoint LSN", "frames replayed", "ops replayed",
             "seconds"],
            [(f"{result.num_keys:,}", result.checkpoint_lsn,
              result.frames_replayed, result.ops_replayed,
              f"{elapsed:.3f}")],
            title=f"recovered single-node index from {args.dir}"
                  + (" (validated)" if args.verify else "")))
        return 0
    service = ShardedAlexIndex.recover(args.dir, backend=args.backend)
    elapsed = time.perf_counter() - start
    try:
        if args.verify:
            service.validate()
        rows = [(s, f"{r.num_keys:,}", r.checkpoint_lsn,
                 r.frames_replayed, r.ops_replayed)
                for s, r in enumerate(service.last_recovery)]
        print(format_table(
            ["shard", "keys", "checkpoint LSN", "frames replayed",
             "ops replayed"],
            rows, title=f"recovered {service.num_shards}-shard service "
                        f"from {args.dir} in {elapsed:.3f}s "
                        f"[{args.backend} backend]"
                        + (" (validated)" if args.verify else "")))
    finally:
        service.close()
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    """Compare the adaptation policies on a structure-stressing scenario
    and report each policy's structural decisions."""
    policies = {
        "heuristic": HeuristicPolicy,
        "cost-model": CostModelPolicy,
    }
    chosen = args.policies or list(policies)
    for name in chosen:
        if name not in policies:
            print(f"error: unknown policy {name!r} "
                  f"(choose from {', '.join(policies)})", file=sys.stderr)
            return 2
    rows = []
    logs = {}
    for name in chosen:
        policy = policies[name]()
        result = run_adaptation_scenario(policy, args.scenario,
                                         num_keys=args.keys,
                                         num_ops=args.ops, seed=args.seed)
        smo = result["smo_counts"]
        rows.append((name, f"{result['sim_mops']:.3f}",
                     f"{result['index_bytes']:,}",
                     f"{result['data_bytes']:,}",
                     result["leaves"], result["depth"],
                     smo.get("expand", 0), smo.get("split_sideways", 0),
                     smo.get("split_down", 0), smo.get("retrain", 0),
                     smo.get("merge", 0)))
        logs[name] = list(policy.decisions)
    print(format_table(
        ["policy", "Mops/s (sim)", "index bytes", "data bytes", "leaves",
         "depth", "expand", "sideways", "down", "retrain", "merge"],
        rows, title=f"adaptation policies on {args.scenario} "
                    f"(init={args.keys:,}, ops={args.ops:,})"))
    if args.decisions:
        for name in chosen:
            tail = logs[name][-args.decisions:]
            print(f"\nlast {len(tail)} {name} decisions:")
            for d in tail:
                print(f"  [{d.site}] {d.action:15s} size={d.size:6d}  "
                      f"{d.reason}")
    return 0


def _cmd_errors(args: argparse.Namespace) -> int:
    keys = load(args.dataset, args.size, seed=args.seed)
    alex = AlexIndex.bulk_load(keys, config=ga_armi())
    learned = LearnedIndex.bulk_load(
        keys, num_models=max(1, args.size // 2000))
    rows = []
    for name, errors in (("ALEX-GA-ARMI", alex_prediction_errors(alex)),
                         ("LearnedIndex",
                          learned_index_prediction_errors(learned))):
        summary = error_summary(errors)
        rows.append((name, f"{summary['exact_fraction']:.1%}",
                     f"{summary['mean']:.2f}", f"{summary['median']:.0f}",
                     f"{summary['p99']:.0f}", summary["max"]))
    print(format_table(
        ["system", "exact", "mean", "median", "p99", "max"],
        rows, title=f"Figure 7: prediction errors on {args.dataset} "
                    f"(n={args.size:,})"))
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    keys = np.sort(load(args.dataset, args.size, seed=args.seed))
    rows = []
    for c in args.c:
        result = analyze(keys, c)
        rows.append((c, result.empirical, result.lower, result.upper,
                     "yes" if result.consistent else "NO"))
    print(format_table(
        ["c", "direct hits", "Thm3 lower", "Thm2 upper", "in bounds"],
        rows, title=f"Section 4 bounds on {args.dataset} "
                    f"(n={args.size:,})"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs.dashboard import run_stats
    return run_stats(args)


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.dashboard import run_top
    return run_top(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.dashboard import run_trace
    return run_trace(args)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="versions, variants, datasets").set_defaults(
        func=_cmd_info)

    p_data = sub.add_parser("datasets", help="Table 1 characteristics")
    p_data.add_argument("--size", type=int, default=10_000)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.set_defaults(func=_cmd_datasets)

    p_cmp = sub.add_parser("compare", help="run one workload comparison")
    p_cmp.add_argument("--dataset", choices=sorted(DATASETS),
                       default="ycsb")
    p_cmp.add_argument("--workload", choices=sorted(WORKLOADS),
                       default="read-heavy")
    p_cmp.add_argument("--init", type=int, default=10_000)
    p_cmp.add_argument("--ops", type=int, default=5_000)
    p_cmp.add_argument("--systems", nargs="*", default=None,
                       help=f"subset of: {', '.join(SYSTEMS)}")
    p_cmp.add_argument("--keys-per-model", type=int, default=256)
    p_cmp.add_argument("--max-keys", type=int, default=1024)
    p_cmp.add_argument("--page-size", type=int, default=256)
    p_cmp.add_argument("--kernel-backend", choices=BACKEND_NAMES,
                       default=None,
                       help="hot-loop kernel implementation (default: "
                            "$REPRO_KERNEL_BACKEND or numpy)")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_shard = sub.add_parser(
        "shards", help="sharded index service throughput vs shard count")
    p_shard.add_argument("--dataset", choices=sorted(DATASETS),
                         default="lognormal")
    p_shard.add_argument("--workload", choices=sorted(WORKLOADS),
                         default="read-heavy")
    p_shard.add_argument("--init", type=int, default=20_000)
    p_shard.add_argument("--ops", type=int, default=5_000)
    p_shard.add_argument("--shards", type=int, nargs="+",
                         default=[1, 2, 4, 8])
    p_shard.add_argument("--backend", choices=("thread", "process"),
                         default="thread",
                         help="shard execution backend: in-process "
                              "threads (GIL-bound) or one worker process "
                              "per shard (real multi-core wall clock)")
    p_shard.add_argument("--read-batch", type=int, default=64)
    p_shard.add_argument("--write-batch", type=int, default=64)
    p_shard.add_argument("--keys-per-model", type=int, default=256)
    p_shard.add_argument("--max-keys", type=int, default=1024)
    p_shard.add_argument("--durable", metavar="DIR", default=None,
                         help="run durably: write per-shard WALs and "
                              "checkpoints under DIR (one subtree per "
                              "shard count); restore later with "
                              "'repro recover'")
    p_shard.add_argument("--fsync", choices=("always", "batch", "off"),
                         default="batch",
                         help="WAL fsync policy when --durable is set")
    p_shard.add_argument("--kernel-backend", choices=BACKEND_NAMES,
                         default=None,
                         help="hot-loop kernel implementation (default: "
                              "$REPRO_KERNEL_BACKEND or numpy)")
    p_shard.add_argument("--seed", type=int, default=0)
    p_shard.set_defaults(func=_cmd_shards)

    p_rec = sub.add_parser(
        "recover", help="recover an index or sharded service from a "
                        "durability directory (checkpoint + WAL replay)")
    p_rec.add_argument("--dir", required=True,
                       help="durability root (a single-index MANIFEST "
                            "or a sharded SERVICE_MANIFEST tree)")
    p_rec.add_argument("--backend", choices=("thread", "process"),
                       default="thread",
                       help="execution backend to provision the "
                            "recovered shards on")
    p_rec.add_argument("--verify", action="store_true",
                       help="run full structural validation on the "
                            "recovered index")
    p_rec.set_defaults(func=_cmd_recover)

    p_adapt = sub.add_parser(
        "adapt", help="adaptation policy comparison and SMO report")
    p_adapt.add_argument("--scenario", choices=SCENARIOS,
                         default="grow-shrink")
    p_adapt.add_argument("--keys", type=int, default=8_000)
    p_adapt.add_argument("--ops", type=int, default=8_000)
    p_adapt.add_argument("--policies", nargs="*", default=None,
                         help="subset of: heuristic, cost-model")
    p_adapt.add_argument("--decisions", type=int, default=0,
                         help="also print the last N logged decisions "
                              "per policy")
    p_adapt.add_argument("--seed", type=int, default=0)
    p_adapt.set_defaults(func=_cmd_adapt)

    p_err = sub.add_parser("errors", help="Figure 7 prediction errors")
    p_err.add_argument("--dataset", choices=sorted(DATASETS),
                       default="longitudes")
    p_err.add_argument("--size", type=int, default=10_000)
    p_err.add_argument("--seed", type=int, default=0)
    p_err.set_defaults(func=_cmd_errors)

    p_thm = sub.add_parser("theorems", help="Section 4 direct-hit bounds")
    p_thm.add_argument("--dataset", choices=sorted(DATASETS),
                       default="lognormal")
    p_thm.add_argument("--size", type=int, default=2_000)
    p_thm.add_argument("--c", type=float, nargs="+",
                       default=[1.0, 1.43, 2.0, 8.0])
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.set_defaults(func=_cmd_theorems)

    def _add_service_args(p) -> None:
        from .serve.backend import DEFAULT_MAX_INFLIGHT
        p.add_argument("--dataset", choices=sorted(DATASETS),
                       default="lognormal")
        p.add_argument("--size", type=int, default=20_000)
        p.add_argument("--shards", type=int, default=4)
        p.add_argument("--backend", choices=("thread", "process"),
                       default="thread")
        p.add_argument("--read-batch", type=int, default=256)
        p.add_argument("--write-batch", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-ingress", action="store_true",
                       help="drive the facade directly instead of "
                            "through the coalescing AsyncIngress front "
                            "door (hides the ingress.* panel)")
        p.add_argument("--coalesce-window", type=float, default=0.002,
                       help="ingress coalescing window in seconds "
                            "(default 0.002)")
        p.add_argument("--max-inflight", type=int,
                       default=DEFAULT_MAX_INFLIGHT,
                       help="process-backend per-worker pipelining "
                            "budget (default 8; 1 = call-and-wait RPC)")
        p.add_argument("--replicas", action="store_true",
                       help="host a WAL-following replica worker beside "
                            "each shard primary (needs --backend "
                            "process; forces durability — a tempdir "
                            "WAL unless --durable provides one); part "
                            "of the driver's reads then route "
                            "replica_ok and the repl.* panel lights up")

    p_stats = sub.add_parser(
        "stats", help="drive a sharded service briefly and print its "
                      "observability snapshot (latency percentiles, "
                      "counters, structural events)")
    _add_service_args(p_stats)
    p_stats.add_argument("--rounds", type=int, default=30,
                         help="driver rounds before the snapshot")
    p_stats.add_argument("--format", choices=("table", "json",
                                              "prometheus"),
                         default="table")
    p_stats.set_defaults(func=_cmd_stats)

    p_top = sub.add_parser(
        "top", help="live refreshing dashboard over a self-driven "
                    "sharded service: per-shard throughput, "
                    "p50/p99/p999, SMO events, WAL lag")
    _add_service_args(p_top)
    p_top.add_argument("--refresh", type=float, default=1.0,
                       help="seconds between dashboard frames")
    p_top.add_argument("--duration", type=float, default=0.0,
                       help="stop after this many seconds "
                            "(0 = until Ctrl-C)")
    p_top.add_argument("--plain", action="store_true",
                       help="append frames instead of clearing the "
                            "screen (pipe-friendly)")
    p_top.add_argument("--durable", action="store_true",
                       help="run the demo service durably (tempdir WAL "
                            "+ checkpoints) so wal.*/checkpoint.* "
                            "metrics light up")
    p_top.set_defaults(func=_cmd_top)

    p_trace = sub.add_parser(
        "trace", help="drive a sharded service briefly and print its "
                      "slowest captured request traces as causal timing "
                      "trees spanning ingress, facade, RPC, and worker "
                      "processes")
    _add_service_args(p_trace)
    p_trace.add_argument("--rounds", type=int, default=30,
                         help="driver rounds before the capture")
    p_trace.add_argument("--trace-id", default=None,
                         help="dump one specific trace (e.g. a p99 "
                              "exemplar id from 'repro stats') instead "
                              "of the slowest captured ones")
    p_trace.add_argument("--limit", type=int, default=3,
                         help="how many slow traces to print")
    p_trace.add_argument("--format", choices=("tree", "chrome"),
                         default="tree",
                         help="indented timing tree, or Chrome "
                              "trace-event JSON for chrome://tracing "
                              "/ Perfetto")
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``python -m repro ...``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "replicas", False) and args.backend != "process":
        parser.error("--replicas needs --backend process (a replica lives "
                     "in its own worker process)")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
