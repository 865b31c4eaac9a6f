"""Benchmark harness: experiment driver, headline suite, reporting."""

from .harness import (
    ExperimentResult,
    SYSTEMS,
    SystemParams,
    best_alex_variant_for,
    build_index,
    run_experiment,
)
from .ascii_plot import ascii_chart, ascii_histogram
from .suite import HEADLINE_DATASETS, HEADLINE_WORKLOADS, SuiteReport, run_headline_suite
from .report import format_table, ratio

__all__ = [
    "ExperimentResult",
    "HEADLINE_DATASETS",
    "HEADLINE_WORKLOADS",
    "SYSTEMS",
    "SuiteReport",
    "SystemParams",
    "ascii_chart",
    "ascii_histogram",
    "best_alex_variant_for",
    "build_index",
    "format_table",
    "ratio",
    "run_experiment",
    "run_headline_suite",
]
