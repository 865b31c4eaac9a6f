"""Check how steady the benchmark is: run one workload over several
seeds and print each end-to-end metric's median, quartiles, and spread
(interquartile distance over the median); gated metrics also show their
bound, printed-only ones show ``-``.

    python3 perfbench/steadiness.py --workload serve_read --seeds 1-10
    python3 perfbench/steadiness.py --workload serve_read --seeds 7,7,7,7,7

A gated metric is steady when its spread stays well below its bound (a
third of it is the target); ``setup_s`` is only compared by its median.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import timing   # noqa: E402

#: One printed metric line of run.py: ``<workload>  <name> = <value> ...``.
METRIC_LINE = re.compile(r"^\S+  (\S+) = (\S+) ")


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(catalog.WORKLOADS))
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS)
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    gated = {m["name"]: m["bound"] for m in catalog.END_TO_END}
    values = {}
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            match = METRIC_LINE.match(line)
            if match and match.group(1) not in gated:
                values.setdefault(match.group(1), []).append(
                    float(match.group(2)))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({wall:.0f} s): " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    for name, samples in values.items():
        q1, q2, q3 = timing.quartiles(samples)
        spread = timing.relative_spread(samples)
        bound = gated.get(name)
        verdict = ("-" if bound is None
                   else "ok" if spread < bound / 3 else "WIDE")
        print(f"{name:22s} median {q2:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
              f"  spread {spread:6.3f}  bound {bound or '-'}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
