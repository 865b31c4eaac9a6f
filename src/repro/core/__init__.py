"""Core ALEX implementation: node layouts, RMIs, and the public index."""

from .alex import AlexIndex
from .config import (
    ADAPTIVE_RMI,
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
from .data_node import DataNode, GAP_SENTINEL
from .errors import DuplicateKeyError, IndexError_, KeyNotFoundError
from .gapped_array import GappedArrayNode
from .linear_model import LinearModel
from .pma import PMANode, next_power_of_two
from .policy import (
    AdaptationPolicy,
    CostModelPolicy,
    HeuristicPolicy,
    NodePressure,
    PolicyDecision,
    PressureEvent,
    SMO_EXPAND,
    SMO_MERGE,
    SMO_NONE,
    SMO_RETRAIN,
    SMO_SPLIT_DOWN,
    SMO_SPLIT_SIDEWAYS,
    ShardDecision,
    ShardSummary,
)
from .rmi import InnerNode, build_static_rmi
from .adaptive import (build_adaptive_rmi, merge_leaves, split_leaf,
                       split_leaf_sideways)
from .cursor import Cursor, CursorInvalidatedError
from .introspect import StructureReport, format_report, structure_report
from .search import binary_search_bounded, exponential_search, lower_bound
from .stats import Counters

__all__ = [
    "ADAPTIVE_RMI",
    "ALL_VARIANTS",
    "AdaptationPolicy",
    "AlexConfig",
    "AlexIndex",
    "CostModelPolicy",
    "Counters",
    "HeuristicPolicy",
    "NodePressure",
    "PolicyDecision",
    "PressureEvent",
    "SMO_EXPAND",
    "SMO_MERGE",
    "SMO_NONE",
    "SMO_RETRAIN",
    "SMO_SPLIT_DOWN",
    "SMO_SPLIT_SIDEWAYS",
    "ShardDecision",
    "ShardSummary",
    "Cursor",
    "CursorInvalidatedError",
    "DataNode",
    "DuplicateKeyError",
    "GAP_SENTINEL",
    "GAPPED_ARRAY",
    "GappedArrayNode",
    "IndexError_",
    "InnerNode",
    "KeyNotFoundError",
    "LinearModel",
    "PACKED_MEMORY_ARRAY",
    "PMANode",
    "STATIC_RMI",
    "StructureReport",
    "binary_search_bounded",
    "build_adaptive_rmi",
    "build_static_rmi",
    "exponential_search",
    "format_report",
    "ga_armi",
    "ga_srmi",
    "lower_bound",
    "merge_leaves",
    "next_power_of_two",
    "pma_armi",
    "pma_srmi",
    "split_leaf",
    "split_leaf_sideways",
    "structure_report",
]
