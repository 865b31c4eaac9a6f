"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed and ``REPRO_TRACE_SAMPLE=0``; ``--trace 1`` splits the time
between untraced and traced passes and reports the per-layer metrics
plus the tracing overhead.  Every metric is printed as a line
with its unit and sample count; the last line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).

The program under test is built from ``src/`` of the same checkout:
the cffi kernels compile into ``.bench_build/`` on the first run, and
everything the run writes stays under ``.bench_build/``.  Exit codes:
0 correct, 1 a wrong result, 2 no program to run, 3 run refused (the
kernels fell back from cffi, the generator missed its schedule, or the
workload could not complete).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

#: A generator this late at its p99 could not keep its schedule, so the
#: run is refused.  Lateness below it is part of every open-loop latency
#: (counted from the schedule) and is reported, not hidden.
LAG_LIMIT_MS = 100.0


def parse_args(argv=None) -> argparse.Namespace:
    import catalog
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment(scratch: str) -> None:
    """Point the program, its worker processes and every temporary file
    at this checkout; must run before ``repro`` is imported."""
    os.makedirs(scratch, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ.update({
        # One BLAS thread per process: an idle OpenBLAS worker spins on
        # the second core after every model fit, so with a parent and
        # two shard workers on two cores the run would measure the
        # scheduler (and count the spinning as the program's CPU time).
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": SRC + (os.pathsep + path if path else ""),
        "REPRO_KERNEL_BACKEND": "cffi",
        "REPRO_KERNEL_CACHE": os.path.join(BUILD, "repro-kernels"),
        "REPRO_TRACE_SAMPLE": "0",
        "TMPDIR": scratch,
    })
    sys.path.insert(0, SRC)


def build() -> str:
    """Compile (first run) or load the cffi kernels; refuse a fallback."""
    from repro.core.kernels import get_kernels
    backend = get_kernels("cffi")
    if backend.name != "cffi":
        raise RuntimeError(f"cffi kernels unavailable (got {backend.name})")
    return backend.name


def runtime_stamp(args: argparse.Namespace, kernel: str) -> dict:
    import cffi
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "kernel_backend": kernel,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cffi": cffi.__version__,
    }


def run_workload(args: argparse.Namespace, scratch: str, report) -> None:
    import catalog
    import embedded
    import serve
    workloads = {
        "serve_read": serve.serve_read,
        "serve_mixed_durable": serve.serve_mixed_durable,
        "embedded_write_heavy": embedded.embedded_write_heavy,
    }
    workloads[args.workload](args.seed, args.seconds, bool(args.trace),
                             scratch, report)
    if args.trace:
        # A layer that is not on this workload's path did no work here.
        for name, unit in catalog.PER_LAYER_UNITS.items():
            if name not in report.metrics:
                report.add(name, 0.0, unit)
        lag = report.value("loadgen.lag_p99_ms")
    else:
        lag = report.stamp["loadgen_lag_p99_ms"]
    if lag > LAG_LIMIT_MS:
        raise RuntimeError(f"generator lag p99 {lag:.3f} ms exceeds "
                           f"{LAG_LIMIT_MS} ms: the generator could not "
                           "keep its schedule")


def child_pids() -> list:
    """Process ids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The service's workers are reaped by ``close()``; this catches those
    an error path left behind and multiprocessing's resource tracker,
    which would otherwise outlive the run until it noticed its parent
    had gone."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker,
                                                               "_stop"):
        # Closing its pipe makes it exit; _stop then waits for it.
        tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    import catalog
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to run (missing {SRC}/repro)",
              file=sys.stderr)
        return 2
    scratch = os.path.join(BUILD, "perfbench", f"run-{os.getpid()}")
    prepare_environment(scratch)
    from report import Report
    report = Report(args.workload)
    try:
        report.stamp.update(runtime_stamp(args, build()))
        run_workload(args, scratch, report)
    except Exception:       # noqa: BLE001 - reported, then refused
        traceback.print_exc()
        for line in report.lines():
            print(line, file=sys.stderr)
        print(f"perfbench: {args.workload} run refused", file=sys.stderr)
        return 3
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    names = (catalog.per_layer_names() if args.trace
             else catalog.end_to_end_names())
    for line in report.lines():
        print(line)
    print("stamp: " + json.dumps(report.stamp, sort_keys=True))
    if args.trace:
        for name, moves in catalog.MOVES.items():
            print(f"moves: {name} -> " + "; ".join(
                f"{metric} on {workload}" for metric, workload in moves))
    print(report.final_json(names))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
