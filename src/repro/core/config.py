"""Configuration for the four ALEX variants.

The paper evaluates a 2x2 design space (Section 5.1): node layout in
{Gapped Array, Packed Memory Array} times model hierarchy in {static RMI,
adaptive RMI}.  :class:`AlexConfig` captures that choice plus every tunable
the evaluation grid-searches (number of static models, max keys per leaf,
density bounds / space overhead, split fanout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .kernels import check_backend_name, default_backend_name

GAPPED_ARRAY = "gapped_array"
PACKED_MEMORY_ARRAY = "pma"
STATIC_RMI = "static"
ADAPTIVE_RMI = "adaptive"


@dataclass(frozen=True)
class AlexConfig:
    """Tunable parameters of an ALEX index.

    Parameters
    ----------
    node_layout:
        ``"gapped_array"`` or ``"pma"`` (Section 3.3).
    rmi_mode:
        ``"static"`` or ``"adaptive"`` (Section 3.4).
    density_upper:
        Upper density limit ``d`` of a gapped array.  At build time each
        node is allocated so that its density is ``d**2``; the expansion
        factor is ``c = 1 / d**2``.  The paper's default parameterization
        gives ~43% data-space overhead, i.e. ``c ≈ 1.43`` and
        ``d ≈ sqrt(1/1.43) ≈ 0.836``.
    num_models:
        Number of leaf models for the static RMI (grid-searched per dataset
        in the paper).
    max_keys_per_node:
        Maximum bound on keys per leaf for the adaptive RMI (Algorithm 4).
    inner_partitions:
        Number of partitions a non-root inner node creates during adaptive
        initialization (Algorithm 4: "a fixed number of partitions that is
        tuned or learned for each dataset").
    split_fanout:
        Number of children created when a leaf splits on insert
        (Section 3.4.2).
    split_on_inserts:
        Whether adaptive RMI performs node splitting on inserts.  Matches
        the paper's default: "Unless otherwise stated, adaptive RMI does not
        do node splitting on inserts" — benches that need it (Fig. 5b/5c,
        cold starts) turn it on explicitly.
    min_keys_for_model:
        Below this occupancy a node runs plain binary search instead of
        building a model ("cold start", Section 3.3.3).
    pma_segment_density / pma_root_density:
        PMA implicit-tree density bounds at the leaf segments and at the
        root (Bender & Hu).  Intermediate levels interpolate linearly.
    payload_size:
        Payload bytes per record, used only for space accounting.
    kernel_backend:
        Which hot-loop kernel implementation the index's nodes use:
        ``"numpy"`` (pure-NumPy reference, always available) or ``"cffi"``
        (C via the system compiler; falls back to numpy with a warning
        when cffi or a C compiler is absent).  Defaults to the
        ``REPRO_KERNEL_BACKEND`` environment variable, or ``"numpy"``.
    """

    node_layout: str = GAPPED_ARRAY
    rmi_mode: str = ADAPTIVE_RMI
    density_upper: float = 0.836
    num_models: int = 64
    max_keys_per_node: int = 1024
    inner_partitions: int = 16
    split_fanout: int = 4
    split_on_inserts: bool = False
    min_keys_for_model: int = 16
    # Defaults picked by benchmarks/bench_pma_density.py: at fixed root
    # density, denser segments cut rebalance moves (fewer window
    # rebalances trigger) without hurting search probes, while the root
    # bound trades write cost against post-append read locality — 0.70
    # sits at the knee of that curve.  Pinned by tests/test_config.py.
    pma_segment_density: float = 0.95
    pma_root_density: float = 0.70
    payload_size: int = 8
    kernel_backend: str = field(default_factory=default_backend_name)

    def __post_init__(self) -> None:
        check_backend_name(self.kernel_backend)
        if self.node_layout not in (GAPPED_ARRAY, PACKED_MEMORY_ARRAY):
            raise ValueError(f"unknown node layout {self.node_layout!r}")
        if self.rmi_mode not in (STATIC_RMI, ADAPTIVE_RMI):
            raise ValueError(f"unknown RMI mode {self.rmi_mode!r}")
        if not 0.0 < self.density_upper <= 1.0:
            raise ValueError("density_upper must be in (0, 1]")
        if self.num_models < 1:
            raise ValueError("num_models must be >= 1")
        if self.max_keys_per_node < 4:
            raise ValueError("max_keys_per_node must be >= 4")
        if self.split_fanout < 2:
            raise ValueError("split_fanout must be >= 2")
        if not 0.0 < self.pma_root_density < self.pma_segment_density <= 1.0:
            raise ValueError("PMA density bounds must satisfy 0 < root < segment <= 1")

    @property
    def expansion_factor(self) -> float:
        """The paper's ``c = 1 / d**2``: allocated slots per key at build."""
        return 1.0 / (self.density_upper ** 2)

    @property
    def density_at_build(self) -> float:
        """Density ``d**2`` right after a build or expansion."""
        return self.density_upper ** 2

    def with_space_overhead(self, overhead: float) -> "AlexConfig":
        """Return a copy parameterized for a given data-space overhead.

        ``overhead = 0.43`` reproduces the paper's default (43% extra space,
        like B+Tree); ``overhead = 2.0`` is the paper's "2x" configuration
        of Figure 10 (allocated space = 3x the keys), etc.  The expansion
        factor is ``c = 1 + overhead`` and ``d = sqrt(1/c)``.
        """
        if overhead <= 0:
            raise ValueError("overhead must be positive")
        c = 1.0 + overhead
        return replace(self, density_upper=math.sqrt(1.0 / c))

    @property
    def variant_name(self) -> str:
        """Human-readable variant name in the paper's notation, e.g.
        ``ALEX-GA-ARMI``."""
        layout = "GA" if self.node_layout == GAPPED_ARRAY else "PMA"
        rmi = "SRMI" if self.rmi_mode == STATIC_RMI else "ARMI"
        return f"ALEX-{layout}-{rmi}"


def ga_srmi(**overrides) -> AlexConfig:
    """Config for ALEX-GA-SRMI (best for read-only workloads, Section 5.2.1)."""
    return AlexConfig(node_layout=GAPPED_ARRAY, rmi_mode=STATIC_RMI, **overrides)


def ga_armi(**overrides) -> AlexConfig:
    """Config for ALEX-GA-ARMI (best for read-write workloads, Section 5.2.2)."""
    return AlexConfig(node_layout=GAPPED_ARRAY, rmi_mode=ADAPTIVE_RMI, **overrides)


def pma_srmi(**overrides) -> AlexConfig:
    """Config for ALEX-PMA-SRMI."""
    return AlexConfig(node_layout=PACKED_MEMORY_ARRAY, rmi_mode=STATIC_RMI, **overrides)


def pma_armi(**overrides) -> AlexConfig:
    """Config for ALEX-PMA-ARMI (best for sequential inserts, Section 5.2.5)."""
    return AlexConfig(node_layout=PACKED_MEMORY_ARRAY, rmi_mode=ADAPTIVE_RMI, **overrides)


#: Alias used by code that treats this as the whole core's configuration
#: (the kernel layer and the serving tier) rather than one ALEX variant's.
CoreConfig = AlexConfig

ALL_VARIANTS = {
    "ALEX-GA-SRMI": ga_srmi,
    "ALEX-GA-ARMI": ga_armi,
    "ALEX-PMA-SRMI": pma_srmi,
    "ALEX-PMA-ARMI": pma_armi,
}
