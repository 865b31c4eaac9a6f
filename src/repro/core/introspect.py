"""Index introspection: structural statistics reports.

Operators of a production index want to see *why* it performs the way it
does: leaf occupancy, model accuracy, packed-run lengths, depth profile,
space breakdown.  :func:`structure_report` collects all of it in one pass;
:func:`format_report` renders the human-readable version used by the
examples and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .alex import AlexIndex
from .gapped_array import GappedArrayNode
from .rmi import InnerNode


@dataclass
class StructureReport:
    """One-pass structural summary of an ALEX index."""

    num_keys: int = 0
    num_leaves: int = 0
    num_inner_nodes: int = 0
    depth: int = 0
    index_bytes: int = 0
    data_bytes: int = 0
    payload_dtype: str = "object"
    payload_bytes: int = 0
    leaf_keys_min: int = 0
    leaf_keys_median: float = 0.0
    leaf_keys_max: int = 0
    density_mean: float = 0.0
    density_min: float = 0.0
    largest_packed_run: int = 0
    mean_prediction_error: float = 0.0
    exact_prediction_fraction: float = 0.0
    cold_leaves: int = 0
    depth_histogram: Dict[int, int] = field(default_factory=dict)


def structure_report(index: AlexIndex) -> StructureReport:
    """Collect a :class:`StructureReport` for ``index``."""
    report = StructureReport()
    report.num_keys = len(index)
    report.depth = index.depth()
    report.index_bytes = index.index_size_bytes()
    report.data_bytes = index.data_size_bytes()
    report.payload_dtype, report.payload_bytes = payload_footprint(index)

    # Depth histogram and inner count via one walk.
    def walk(node, depth):
        if isinstance(node, InnerNode):
            report.num_inner_nodes += 1
            for child in node.distinct_children():
                walk(child, depth + 1)
        else:
            report.depth_histogram[depth] = (
                report.depth_histogram.get(depth, 0) + 1)

    walk(index._root, 0)

    sizes: List[int] = []
    densities: List[float] = []
    errors: List[np.ndarray] = []
    for leaf in index.leaves():
        report.num_leaves += 1
        sizes.append(leaf.num_keys)
        if leaf.capacity:
            densities.append(leaf.density)
        if leaf.model is None:
            report.cold_leaves += 1
        else:
            positions = np.flatnonzero(leaf.occupied)
            if len(positions):
                predicted = leaf.kernels.predict_clamp(
                    leaf.model.slope, leaf.model.intercept,
                    leaf.keys[positions], leaf.capacity)
                errors.append(np.abs(predicted - positions))
        if isinstance(leaf, GappedArrayNode):
            report.largest_packed_run = max(report.largest_packed_run,
                                            leaf.largest_packed_run())
    if sizes:
        arr = np.array(sizes)
        report.leaf_keys_min = int(arr.min())
        report.leaf_keys_median = float(np.median(arr))
        report.leaf_keys_max = int(arr.max())
    if densities:
        report.density_mean = float(np.mean(densities))
        report.density_min = float(np.min(densities))
    if errors:
        all_errors = np.concatenate(errors)
        report.mean_prediction_error = float(all_errors.mean())
        report.exact_prediction_fraction = float((all_errors == 0).mean())
    return report


def payload_footprint(index: AlexIndex) -> Tuple[str, int]:
    """``(dtype name, bytes)`` of the index's payload columns, gaps
    included: what the payloads really occupy, beside the size model's
    ``payload_size`` per slot.  An ``object`` column's bytes are its
    pointers; the Python objects they refer to come on top."""
    return (index.payload_dtype.name,
            sum(leaf.payloads.nbytes for leaf in index.leaves()))


def format_report(report: StructureReport) -> str:
    """Human-readable rendering of a :class:`StructureReport`."""
    depth_profile = ", ".join(
        f"depth {d}: {n}" for d, n in sorted(report.depth_histogram.items()))
    lines = [
        f"keys:            {report.num_keys:,}",
        f"leaves:          {report.num_leaves:,} "
        f"({report.cold_leaves} cold) across {report.num_inner_nodes} "
        f"inner nodes, max depth {report.depth}",
        f"leaf profile:    {depth_profile}",
        f"leaf keys:       min {report.leaf_keys_min}, "
        f"median {report.leaf_keys_median:.0f}, max {report.leaf_keys_max}",
        f"density:         mean {report.density_mean:.2f}, "
        f"min {report.density_min:.2f}",
        f"packed run:      longest {report.largest_packed_run}",
        f"model accuracy:  mean |error| {report.mean_prediction_error:.2f}, "
        f"exact {report.exact_prediction_fraction:.1%}",
        f"space:           index {report.index_bytes:,} B, "
        f"data {report.data_bytes:,} B",
        f"payloads:        {report.payload_dtype} column, "
        f"{report.payload_bytes:,} B",
    ]
    return "\n".join(lines)
