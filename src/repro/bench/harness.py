"""Experiment driver shared by every bench target in ``benchmarks/``.

Encapsulates the paper's experimental procedure (Section 5.1): build each
system over a dataset's init keys with per-dataset tuned parameters, run a
workload's interleaved operation stream, and report simulated throughput
plus index/data sizes.  Scaled-down defaults keep each bench target in CI
territory while preserving the paper's parameter *ratios* (keys per model,
keys per leaf, page size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.baselines.bptree import BPlusTree
from repro.baselines.delta_learned_index import DeltaLearnedIndex
from repro.baselines.learned_index import LearnedIndex
from repro.core.alex import AlexIndex
from repro.core.config import ALL_VARIANTS, ga_armi
from repro.core.stats import Counters
from repro.datasets import DATASETS, load
from repro.serve import ShardedAlexIndex
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

#: All systems the harness can build, in the paper's naming (plus the
#: delta-buffer Learned Index of Section 2.3 and the scatter-gather
#: sharded service of :mod:`repro.serve`).
SYSTEMS = tuple(ALL_VARIANTS) + ("BPlusTree", "LearnedIndex",
                                 "DeltaLearnedIndex", "ShardedALEX")


@dataclass(frozen=True)
class SystemParams:
    """Tuned parameters for one system on one dataset (the outcome of the
    paper's grid searches, here given as scale-preserving ratios)."""

    keys_per_model: int = 256          # static-RMI models: n / keys_per_model
    max_keys_per_node: int = 1024      # adaptive-RMI leaf bound
    page_size: int = 256               # B+Tree page bytes
    space_overhead: Optional[float] = None  # ALEX data-space overhead (0.43 default)
    split_on_inserts: bool = False
    # The Learned Index may not exceed roughly one model per this many
    # keys (the paper's "model sizes reported in [17]" constraint).
    learned_keys_per_model: int = 2000
    num_shards: int = 4                # ShardedALEX partition count
    shard_backend: str = "thread"      # ShardedALEX executor: thread|process
    durability_dir: Optional[str] = None  # WAL+checkpoint root (None = off)
    fsync: str = "batch"               # WAL fsync policy: always|batch|off
    checkpoint_every: int = 8192       # logged ops between checkpoints
    kernel_backend: Optional[str] = None  # hot-loop kernels (None = default)


@dataclass
class ExperimentResult:
    """One (system, dataset, workload) measurement."""

    system: str
    dataset: str
    workload: str
    ops: int
    throughput: float
    index_bytes: int
    data_bytes: int
    work: Counters = field(default_factory=Counters)
    extras: Dict[str, float] = field(default_factory=dict)

    def row(self) -> tuple:
        """Row for :func:`repro.bench.report.format_table`."""
        return (self.system, self.dataset, self.workload, self.ops,
                f"{self.throughput / 1e6:.3f}", self.index_bytes,
                self.data_bytes)


def build_index(system: str, init_keys: np.ndarray,
                params: SystemParams = SystemParams(),
                payload_size: int = 8):
    """Build any of the paper's systems over ``init_keys``."""
    n = max(1, len(init_keys))
    kernel_kw = ({"kernel_backend": params.kernel_backend}
                 if params.kernel_backend is not None else {})
    if system in ALL_VARIANTS:
        config = ALL_VARIANTS[system](
            num_models=max(1, n // params.keys_per_model),
            max_keys_per_node=params.max_keys_per_node,
            split_on_inserts=params.split_on_inserts,
            payload_size=payload_size,
            **kernel_kw,
        )
        if params.space_overhead is not None:
            config = config.with_space_overhead(params.space_overhead)
        return AlexIndex.bulk_load(init_keys, config=config)
    if system == "BPlusTree":
        return BPlusTree.bulk_load(init_keys, page_size=params.page_size,
                                   payload_size=payload_size)
    if system == "LearnedIndex":
        num_models = max(1, n // params.learned_keys_per_model)
        return LearnedIndex.bulk_load(init_keys, num_models=num_models,
                                      payload_size=payload_size)
    if system == "DeltaLearnedIndex":
        num_models = max(1, n // params.learned_keys_per_model)
        return DeltaLearnedIndex.bulk_load(init_keys, num_models=num_models,
                                           payload_size=payload_size)
    if system == "ShardedALEX":
        # Per-shard config: each shard holds ~n / num_shards keys, so its
        # model budget scales with its share, not the total key count.
        config = ga_armi(
            num_models=max(1, (n // max(1, params.num_shards))
                           // params.keys_per_model),
            max_keys_per_node=params.max_keys_per_node,
            split_on_inserts=params.split_on_inserts,
            payload_size=payload_size,
            **kernel_kw,
        )
        if params.space_overhead is not None:
            config = config.with_space_overhead(params.space_overhead)
        return ShardedAlexIndex.bulk_load(
            init_keys, config=config,
            num_shards=params.num_shards,
            backend=params.shard_backend,
            durability_dir=params.durability_dir,
            fsync=params.fsync,
            checkpoint_every=params.checkpoint_every)
    raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")


def run_experiment(system: str, dataset: str, spec: WorkloadSpec,
                   init_size: int, num_ops: int,
                   params: SystemParams = SystemParams(),
                   cost_model: CostModel = DEFAULT_COST_MODEL,
                   seed: int = 0,
                   keys: Optional[np.ndarray] = None,
                   read_batch: int = 1,
                   write_batch: int = 1,
                   delete_batch: int = 1) -> ExperimentResult:
    """Full paper procedure for one data point: generate the dataset,
    bulk-load ``init_size`` keys, run ``num_ops`` interleaved operations,
    report simulated throughput and sizes.

    ``keys`` overrides dataset generation (used by the distribution-shift
    and sequential-insert benches, which craft their own key orderings).

    ``read_batch > 1`` issues consecutive lookups through the index's
    batch engine (``lookup_many``) where the operation trace allows,
    amortizing the per-operation traversal work; ``write_batch > 1`` does
    the same for consecutive inserts through ``insert_many``, and
    ``delete_batch > 1`` for consecutive deletes through ``delete_many``
    (delete-scheduling specs only).  Systems without a batch API
    transparently fall back to scalar operations.
    """
    payload_size = DATASETS[dataset].payload_size if dataset in DATASETS else 8
    if keys is None:
        # Generate enough keys to cover the workload's insert share.
        _, insert_fraction = spec.fractions()
        extra = int(num_ops * insert_fraction) + 16
        keys = load(dataset, init_size + extra, seed=seed)
    init_keys = keys[:init_size]
    insert_keys = keys[init_size:]
    index = build_index(system, init_keys, params, payload_size=payload_size)
    runner = WorkloadRunner(index, init_keys.copy(), insert_keys.copy(),
                            seed=seed + 1)
    shard_counters = getattr(index, "shard_counters", None)
    shard_before = shard_counters() if shard_counters is not None else None
    result = runner.run(spec, num_ops, read_batch=read_batch,
                        write_batch=write_batch, delete_batch=delete_batch)
    extras = {
        "reads": result.reads,
        "inserts": result.inserts,
        "scans": result.scans,
        "scanned_records": result.scanned_records,
        "deletes": result.deletes,
    }
    if shard_before is not None:
        # Scatter-gather systems also report the parallel service model:
        # ops over the slowest shard's simulated time (per-shard sub-work
        # executes concurrently; the batch completes with the last shard).
        worst = max(cost_model.simulated_nanos(after.diff(before))
                    for after, before in zip(shard_counters(), shard_before))
        extras["critical_path_throughput"] = (
            result.ops / (worst / 1e9) if worst > 0 else float("inf"))
    index_bytes = index.index_size_bytes()
    data_bytes = index.data_size_bytes()
    closer = getattr(index, "close", None)
    if closer is not None:
        # Release the sharded service's executors (the process
        # backend's shard worker processes).
        closer()
    return ExperimentResult(
        system=system,
        dataset=dataset,
        workload=spec.name,
        ops=result.ops,
        throughput=cost_model.throughput(result.ops, result.work),
        index_bytes=index_bytes,
        data_bytes=data_bytes,
        work=result.work,
        extras=extras,
    )


def best_alex_variant_for(spec: WorkloadSpec, shifting: bool = False) -> str:
    """The variant the paper uses per workload (Section 5.2): GA-SRMI for
    read-only, GA-ARMI for read-write, PMA-ARMI for adversarial sequential
    inserts."""
    if shifting:
        return "ALEX-PMA-ARMI"
    if spec.inserts_per_cycle == 0:
        return "ALEX-GA-SRMI"
    return "ALEX-GA-ARMI"
