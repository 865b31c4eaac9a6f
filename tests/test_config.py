"""Tests for AlexConfig validation and derived quantities."""

import importlib
import json
import math
import os

import pytest

from repro.core.config import (
    ALL_VARIANTS,
    AlexConfig,
    GAPPED_ARRAY,
    PACKED_MEMORY_ARRAY,
    STATIC_RMI,
    ga_armi,
    ga_srmi,
    pma_armi,
    pma_srmi,
)


class TestValidation:
    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            AlexConfig(node_layout="btree")

    def test_unknown_rmi_mode_rejected(self):
        with pytest.raises(ValueError):
            AlexConfig(rmi_mode="magic")

    @pytest.mark.parametrize("d", [0.0, -0.5, 1.5])
    def test_bad_density(self, d):
        with pytest.raises(ValueError):
            AlexConfig(density_upper=d)

    def test_bad_model_count(self):
        with pytest.raises(ValueError):
            AlexConfig(num_models=0)

    def test_bad_max_keys(self):
        with pytest.raises(ValueError):
            AlexConfig(max_keys_per_node=2)

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            AlexConfig(split_fanout=1)

    def test_bad_pma_bounds(self):
        with pytest.raises(ValueError):
            AlexConfig(pma_root_density=0.95, pma_segment_density=0.9)


class TestDerivedQuantities:
    def test_expansion_factor_is_inverse_density_squared(self):
        config = AlexConfig(density_upper=0.8)
        assert config.expansion_factor == pytest.approx(1 / 0.64)
        assert config.density_at_build == pytest.approx(0.64)

    def test_default_matches_paper_43_percent(self):
        # Default d ~ 0.836 gives c ~ 1.43: the paper's 43% space overhead.
        config = AlexConfig()
        assert config.expansion_factor == pytest.approx(1.43, abs=0.01)

    def test_with_space_overhead_roundtrip(self):
        config = AlexConfig().with_space_overhead(2.0)
        assert config.expansion_factor == pytest.approx(3.0)
        assert config.density_upper == pytest.approx(math.sqrt(1 / 3.0))

    def test_with_space_overhead_validation(self):
        with pytest.raises(ValueError):
            AlexConfig().with_space_overhead(0.0)


class TestTunedPMADensityBounds:
    """Pin the density bounds chosen by the PMA density sweep.

    ``benchmarks/bench_pma_density.py`` (artifact:
    ``BENCH_pma_density.json``) swept the segment/root density grid over
    random and append insert workloads.  Denser segments (0.95) cut
    append rebalance moves ~16% versus 0.92 with unchanged search
    probes; a root bound of 0.70 is the knee of the write-cost /
    read-locality curve (0.60 saves ~17% write wall clock but costs
    ~43% more append read probes, 0.80 the reverse).  Changing either
    default should be a deliberate re-sweep, not a drive-by edit —
    hence the exact-value pin.
    """

    def test_defaults_match_sweep_choice(self):
        config = AlexConfig()
        assert config.pma_segment_density == 0.95
        assert config.pma_root_density == 0.70

    def test_sweep_reproduces_its_artifact_at_the_defaults(self,
                                                          monkeypatch):
        # The sweep is the defaults' provenance, so it must still run:
        # its default cell re-measures every counter field it recorded.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "benchmarks"))
        sweep = importlib.import_module("bench_pma_density")
        with open(os.path.join(root, "BENCH_pma_density.json")) as f:
            artifact = json.load(f)
        config = AlexConfig()
        cell, = [c for c in artifact["cells"]
                 if c["pma_segment_density"] == config.pma_segment_density
                 and c["pma_root_density"] == config.pma_root_density]
        for workload in artifact["workloads"]:
            fresh = sweep.run_cell(config.pma_segment_density,
                                   config.pma_root_density, workload,
                                   artifact["keys_per_cell"], sweep.SEED)
            for field, value in cell[workload].items():
                if not field.startswith("micros"):
                    assert fresh[field] == value, (workload, field)

    def test_ordering_still_validated(self):
        # The sweep-chosen pair must itself satisfy the config invariant
        # 0 < root < segment <= 1 (guards a future pin edit that would
        # silently make every PMA construction raise).
        config = AlexConfig()
        assert 0.0 < config.pma_root_density < config.pma_segment_density <= 1.0


class TestVariants:
    def test_variant_names(self):
        assert ga_srmi().variant_name == "ALEX-GA-SRMI"
        assert ga_armi().variant_name == "ALEX-GA-ARMI"
        assert pma_srmi().variant_name == "ALEX-PMA-SRMI"
        assert pma_armi().variant_name == "ALEX-PMA-ARMI"

    def test_registry_complete(self):
        assert set(ALL_VARIANTS) == {"ALEX-GA-SRMI", "ALEX-GA-ARMI",
                                     "ALEX-PMA-SRMI", "ALEX-PMA-ARMI"}
        for name, factory in ALL_VARIANTS.items():
            assert factory().variant_name == name

    def test_factories_accept_overrides(self):
        config = ga_srmi(num_models=7, payload_size=80)
        assert config.num_models == 7
        assert config.payload_size == 80
        assert config.node_layout == GAPPED_ARRAY
        assert config.rmi_mode == STATIC_RMI

    def test_config_is_frozen(self):
        config = pma_armi()
        with pytest.raises(Exception):
            config.num_models = 5
        assert config.node_layout == PACKED_MEMORY_ARRAY
