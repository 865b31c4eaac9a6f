"""Benchmark harness: experiment driver, grid-search tuning, reporting."""

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
from .tuning import (
    LEARNED_INDEX_MIN_KEYS_PER_MODEL,
    MAX_KEYS_GRID,
    PAGE_SIZE_GRID,
    TuneResult,
    grid_search,
    learned_index_model_grid,
    static_model_grid,
)

__all__ = [
    "ExperimentResult",
    "HEADLINE_DATASETS",
    "HEADLINE_WORKLOADS",
    "LEARNED_INDEX_MIN_KEYS_PER_MODEL",
    "MAX_KEYS_GRID",
    "PAGE_SIZE_GRID",
    "SYSTEMS",
    "SuiteReport",
    "SystemParams",
    "ascii_chart",
    "ascii_histogram",
    "TuneResult",
    "best_alex_variant_for",
    "build_index",
    "format_table",
    "grid_search",
    "learned_index_model_grid",
    "ratio",
    "run_experiment",
    "run_headline_suite",
    "static_model_grid",
]
