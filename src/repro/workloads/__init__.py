"""YCSB-style workloads of the paper's evaluation (Section 5.1.2)."""

from .runner import WorkloadResult, WorkloadRunner, run_workload
from .adaptation import (
    SCENARIOS,
    build_trace,
    run_adaptation_scenario,
)
from .hotspot import HotspotGenerator, LatestGenerator
from .recovery import CRASH_BACKENDS, run_crash_recovery_scenario
from .spec import (
    DELETE,
    DELETE_HEAVY,
    INSERT,
    RANGE_SCAN,
    READ,
    READ_HEAVY,
    READ_ONLY,
    SCAN,
    WORKLOADS,
    WRITE_HEAVY,
    WRITE_ONLY,
    WorkloadSpec,
)
from .zipf import DEFAULT_THETA, ZipfianGenerator, scramble_ranks

__all__ = [
    "CRASH_BACKENDS",
    "DEFAULT_THETA",
    "DELETE",
    "DELETE_HEAVY",
    "HotspotGenerator",
    "INSERT",
    "SCENARIOS",
    "build_trace",
    "run_adaptation_scenario",
    "LatestGenerator",
    "RANGE_SCAN",
    "READ",
    "READ_HEAVY",
    "READ_ONLY",
    "SCAN",
    "WORKLOADS",
    "WRITE_HEAVY",
    "WRITE_ONLY",
    "WorkloadResult",
    "WorkloadRunner",
    "WorkloadSpec",
    "ZipfianGenerator",
    "run_crash_recovery_scenario",
    "run_workload",
    "scramble_ranks",
]
