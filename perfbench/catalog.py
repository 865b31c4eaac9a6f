"""The benchmark's definitions.

``BENCHMARK.json`` at the repository root is the one source of the
workloads, their reasons, the gated end-to-end metrics with their
bounds, the per-layer metrics and the run length; this module loads it
and adds only what that file has no key for: which end-to-end metric
each per-layer metric should move.  End-to-end metrics that are not
gated (they apply to some workloads only, or spread too widely on a
shared host) are printed by each workload but left out of its final
JSON line.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DOC = json.load(_fh)

RUN_SECONDS = DOC["run_seconds"]
#: Workload name -> why it was chosen.
WORKLOADS = OrderedDict((w["name"], w["why"]) for w in DOC["workloads"])
#: Gated end-to-end metrics, reported by every workload.
END_TO_END = DOC["end_to_end"]
#: Per-layer metric name -> unit.
PER_LAYER_UNITS = OrderedDict((m["name"], m["unit"])
                              for m in DOC["per_layer"])

SR, MD, EW = "serve_read", "serve_mixed_durable", "embedded_write_heavy"

#: Per-layer metric -> [(end-to-end metric, workload) it should move].
#: A layer not on a workload's path reports 0 there.
MOVES = OrderedDict([
    ("loadgen.lag_p99_ms", [("none: a rise means the run measured the "
                             "scheduler", "all")]),
    ("ingress.self_p50_ms", [("read_p50_ms", SR)]),
    ("ingress.requests_per_batch", [("throughput_ops_s", SR)]),
    ("ingress.shed_frac", [("error_frac", SR), ("error_frac", MD)]),
    ("facade.self_p50_us", [("read_p50_ms", SR), ("write_p50_ms", MD)]),
    ("facade.replica_fallback_frac", [("read_p99_ms", MD)]),
    ("rpc.self_p50_us", [("read_p50_ms", SR), ("read_p99_ms", SR),
                         ("throughput_ops_s", SR)]),
    ("rpc.inflight_wait_p99_us", [("read_p99_ms", SR),
                                  ("throughput_ops_s", SR)]),
    ("rpc.shm_reply_frac", [("read_p50_ms", SR)]),
    ("rpc.inline_batch_frac", [("read_p50_ms", SR)]),
    ("core.op_p50_us.get", [("read_p50_ms", SR), ("throughput_ops_s", EW)]),
    ("core.op_p50_us.insert", [("write_p50_ms", EW),
                               ("throughput_ops_s", EW)]),
    ("core.op_p50_us.delete", [("write_p50_ms", MD)]),
    ("core.op_p50_us.scan", [("scan_p50_ms", EW)]),
    ("core.probes_per_lookup", [("read_p50_ms", SR),
                                ("throughput_ops_s", EW)]),
    ("core.comparisons_per_lookup", [("read_p50_ms", SR),
                                     ("throughput_ops_s", EW)]),
    ("core.pointer_follows_per_lookup", [("read_p50_ms", SR),
                                         ("throughput_ops_s", EW)]),
    ("core.model_inferences_per_op", [("read_p50_ms", SR),
                                      ("throughput_ops_s", EW)]),
    ("core.shifts_per_insert", [("write_p50_ms", EW),
                                ("throughput_ops_s", EW)]),
    ("core.build_moves_per_insert", [("write_p50_ms", EW),
                                     ("throughput_ops_s", EW)]),
    ("core.bitmap_words_per_scan", [("scan_p50_ms", EW)]),
    ("smo.expansions_per_kinsert", [("write_p99_ms", EW),
                                    ("index_bytes_per_key", EW)]),
    ("smo.splits_per_kinsert", [("write_p99_ms", EW),
                                ("index_bytes_per_key", EW)]),
    ("smo.retrains_per_kinsert", [("write_p99_ms", EW),
                                  ("index_bytes_per_key", EW)]),
    ("smo.insert_time_frac", [("write_p99_ms", EW)]),
    ("kernel.busy_us_per_op", [("throughput_ops_s", EW)]),
    ("kernel.dispatch.cffi", [("validity: above 0 on every workload",
                               "all")]),
    ("wal.append_p50_us", [("write_p50_ms", MD), ("write_p99_ms", MD)]),
    ("wal.fsync_p99_us", [("write_p50_ms", MD), ("write_p99_ms", MD)]),
    ("wal.frames_per_write", [("write_p50_ms", MD), ("write_p99_ms", MD)]),
    ("wal.bytes_per_user_byte", [("recover_s", MD)]),
    ("checkpoint.count", [("write_p99_ms", MD)]),
    ("checkpoint.busy_ms", [("write_p99_ms", MD)]),
    ("recover.frames_replayed", [("recover_s", MD)]),
    ("replica.read_p50_us", [("read_p50_ms", MD), ("read_p99_ms", MD)]),
    ("replica.apply_lag_p99_ms", [("read_p50_ms", MD), ("read_p99_ms", MD)]),
    ("unattributed_frac", [("none: end-to-end time no layer's self time "
                            "covers", "all")]),
    ("tracing.read_p50_ratio", [("none: traced over untraced read_p50_ms",
                                 "all")]),
    ("tracing.throughput_ratio", [("none: traced over untraced "
                                   "throughput_ops_s", "all")]),
])


def end_to_end_names():
    return [m["name"] for m in END_TO_END]


def per_layer_names():
    return list(PER_LAYER_UNITS)
