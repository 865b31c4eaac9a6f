"""Tests for the benchmark harness and reporting modules."""

import numpy as np
import pytest

from repro.bench import (
    SYSTEMS,
    SystemParams,
    best_alex_variant_for,
    build_index,
    format_table,
    ratio,
    run_experiment,
)
from repro.workloads import RANGE_SCAN, READ_HEAVY, READ_ONLY, WRITE_HEAVY


class TestBuildIndex:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_system_builds_and_looks_up(self, system):
        keys = np.unique(np.random.default_rng(91).uniform(0, 1e5, 800))
        index = build_index(system, keys, SystemParams(max_keys_per_node=256))
        for key in keys[::37]:
            index.lookup(float(key))
        assert index.index_size_bytes() > 0
        assert index.data_size_bytes() > 0

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError):
            build_index("nope", np.array([1.0]))

    def test_space_overhead_parameter(self):
        keys = np.arange(1000, dtype=np.float64)
        lean = build_index("ALEX-GA-SRMI", keys,
                           SystemParams(space_overhead=0.2))
        fat = build_index("ALEX-GA-SRMI", keys,
                          SystemParams(space_overhead=2.0))
        assert fat.data_size_bytes() > lean.data_size_bytes()


class TestRunExperiment:
    @pytest.mark.parametrize("system", ["ALEX-GA-ARMI", "BPlusTree"])
    def test_experiment_produces_throughput(self, system):
        result = run_experiment(system, "lognormal", READ_HEAVY,
                                init_size=2000, num_ops=500, seed=1)
        assert result.ops == 500
        assert result.throughput > 0
        assert result.extras["inserts"] == 25

    def test_read_only_needs_no_insert_keys(self):
        result = run_experiment("ALEX-GA-SRMI", "ycsb", READ_ONLY,
                                init_size=1000, num_ops=300, seed=2)
        assert result.extras["inserts"] == 0

    def test_custom_keys_override(self):
        keys = np.arange(3000, dtype=np.float64)
        rng = np.random.default_rng(3)
        rng.shuffle(keys[:2000])
        result = run_experiment("BPlusTree", "longitudes", WRITE_HEAVY,
                                init_size=2000, num_ops=400, keys=keys)
        assert result.ops == 400

    def test_scan_workload(self):
        result = run_experiment("ALEX-GA-ARMI", "longitudes", RANGE_SCAN,
                                init_size=1500, num_ops=200, seed=4)
        assert result.extras["scanned_records"] > 0


class TestVariantSelection:
    def test_paper_variant_per_workload(self):
        assert best_alex_variant_for(READ_ONLY) == "ALEX-GA-SRMI"
        assert best_alex_variant_for(READ_HEAVY) == "ALEX-GA-ARMI"
        assert best_alex_variant_for(WRITE_HEAVY) == "ALEX-GA-ARMI"
        assert best_alex_variant_for(READ_HEAVY, shifting=True) == "ALEX-PMA-ARMI"


class TestReport:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "long-header"], [[1, 2.5], ["xx", 3]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long-header" in lines[0]

    def test_ratio(self):
        assert ratio(10, 4) == "2.50x"
        assert ratio(1, 0) == "inf"
