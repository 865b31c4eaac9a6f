"""RMI inner nodes and the static RMI (SRMI) builder.

The static RMI mirrors the Learned Index layout (Section 3.2): a two-level
hierarchy with one linear root model routing to a pre-determined number of
leaf data nodes.  The number of leaf models is fixed at initialization
(grid-searched per dataset in the paper's evaluation).

Routing is *model-based*: the root model maps a key to a child slot, with no
comparisons along the way.  Because the model is a monotone non-decreasing
linear function, each child covers a contiguous key range, which keeps range
scans correct via the leaf chain.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs

from .config import AlexConfig, GAPPED_ARRAY
from .data_node import DataNode, build_runs
from .gapped_array import GappedArrayNode
from .kernels import KernelBackend, get_kernels
from .linear_model import LinearModel
from .pma import PMANode
from .stats import Counters

#: Per-node bookkeeping overhead charged in the index-size accounting
#: (child count, key count, level — Section 5.1 counts "pointers and
#: metadata" on top of the model parameters).
NODE_METADATA_BYTES = 16
POINTER_BYTES = 8


def make_leaves(count: int, config: AlexConfig, counters: Counters,
                policy=None) -> List[DataNode]:
    """Instantiate ``count`` empty leaves of the configured layout.

    ``policy`` is the :class:`repro.core.policy.AdaptationPolicy` the
    leaves consult for expand/contract decisions (default: the shared
    heuristic).  The kernel backend is resolved once for all of them,
    and ``core.leaf_nodes_created`` is charged once, with the count.
    """
    layout = GappedArrayNode if config.node_layout == GAPPED_ARRAY else PMANode
    kernels = get_kernels(config.kernel_backend)
    obs.inc("core.leaf_nodes_created", count)
    return [layout(config, counters, policy, kernels) for _ in range(count)]


def make_data_node(config: AlexConfig, counters: Counters,
                   policy=None) -> DataNode:
    """Instantiate one empty leaf of the configured layout."""
    return make_leaves(1, config, counters, policy)[0]


def build_leaves(keys: np.ndarray, payloads: Optional[np.ndarray], bounds,
                 config: AlexConfig, counters: Counters,
                 policy=None) -> List[DataNode]:
    """One leaf per run ``keys[bounds[j]:bounds[j + 1]]`` (a payload
    column aligned with ``keys``), all fitted and placed by one kernel call
    (:func:`repro.core.data_node.build_runs`).  Returns the leaves in key
    order, not yet linked."""
    leaves = make_leaves(len(bounds) - 1, config, counters, policy)
    build_runs(leaves, keys, payloads, bounds)
    return leaves


class InnerNode:
    """An internal RMI node: a linear model over a child-pointer array.

    Multiple consecutive slots may point to the same child (adaptive
    initialization merges small partitions, Section 3.4.1), so
    ``len(children)`` (the slot count) can exceed the number of distinct
    children.
    """

    def __init__(self, model: LinearModel, children: List[object],
                 counters: Counters,
                 kernels: Optional[KernelBackend] = None):
        self.model = model
        self.children = children
        self.counters = counters
        # Hot-loop implementation for batch routing (builders pass the
        # config-selected backend; default: the process-wide default).
        self.kernels = kernels or get_kernels()

    @property
    def num_slots(self) -> int:
        """Number of child-pointer slots (>= number of distinct children)."""
        return len(self.children)

    def route_slot(self, key: float) -> int:
        """Slot index the model assigns to ``key``."""
        self.counters.model_inferences += 1
        return self.model.predict_pos(key, self.num_slots)

    def child_for(self, key: float):
        """The child node responsible for ``key``."""
        child = self.children[self.route_slot(key)]
        self.counters.pointer_follows += 1
        return child

    def route_slots_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`route_slot` over a whole key array."""
        self.counters.model_inferences += len(keys)
        return self.kernels.predict_clamp(self.model.slope,
                                          self.model.intercept, keys,
                                          self.num_slots)

    def child_groups(self, keys: np.ndarray, lo: int, hi: int):
        """Yield ``(child, group_lo, group_hi)`` for the contiguous run of
        ``keys[lo:hi]`` each distinct child receives.

        ``keys`` must be sorted; because the model is monotone
        non-decreasing the slot assignments are sorted too, so the runs of
        equal slot values partition the batch, and consecutive runs whose
        slots point at the same child merge into one group.  The cost is
        ``O(#groups)`` python work regardless of the node's slot count.
        One pointer follow is charged per *group* — the batch engine's
        amortization of per-key child dereferences.
        """
        slots = self.route_slots_many(keys[lo:hi])
        changes = (np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist()
        starts = [0] + changes
        ends = changes + [hi - lo]
        slot_list = slots.tolist()
        children = self.children
        prev_child = None
        prev_lo = prev_hi = 0
        for glo, ghi in zip(starts, ends):
            child = children[slot_list[glo]]
            if child is prev_child:
                prev_hi = ghi + lo  # consecutive slots sharing one child merge
                continue
            if prev_child is not None:
                yield prev_child, prev_lo, prev_hi
            self.counters.pointer_follows += 1
            prev_child, prev_lo, prev_hi = child, glo + lo, ghi + lo
        if prev_child is not None:
            yield prev_child, prev_lo, prev_hi

    def replace_child(self, old, new) -> None:
        """Redirect every slot pointing at ``old`` to ``new`` (used by node
        splitting on inserts)."""
        for i, child in enumerate(self.children):
            if child is old:
                self.children[i] = new

    def distinct_children(self) -> list:
        """The distinct child nodes, in slot order."""
        seen: list = []
        for child in self.children:
            if not seen or seen[-1] is not child:
                seen.append(child)
        return seen

    def size_bytes(self) -> int:
        """Model + child-pointer array + metadata (Section 5.1)."""
        return (self.model.size_bytes()
                + self.num_slots * POINTER_BYTES
                + NODE_METADATA_BYTES)


def route_batch(node, keys: np.ndarray, parent: Optional[InnerNode] = None):
    """Descend from ``node`` for an entire sorted key array at once.

    Returns a list of ``(leaf, parent, lo, hi)`` tuples in key order: the
    keys ``keys[lo:hi]`` all route to ``leaf``, whose parent inner node is
    ``parent`` (``None`` when the leaf is the tree root).  The whole batch
    costs one vectorized model prediction per inner node visited instead of
    one scalar inference per key per level.
    """
    groups: list = []
    if len(keys) == 0:
        return groups
    if not isinstance(node, InnerNode):
        return [(node, parent, 0, len(keys))]
    # Iterative depth-first descent (explicit stack, reversed so groups
    # come out in key order): one vectorized model prediction per inner
    # node visited, no per-group python frames.
    append = groups.append
    stack = [(node, parent, 0, len(keys))]
    while stack:
        nd, par, lo, hi = stack.pop()
        if not isinstance(nd, InnerNode):
            append((nd, par, lo, hi))
            continue
        stack.extend([(child, nd, glo, ghi) for child, glo, ghi
                      in nd.child_groups(keys, lo, hi)][::-1])
    return groups


def link_leaves(leaves: List[DataNode]) -> None:
    """Wire the doubly-linked leaf chain in key order."""
    for left, right in zip(leaves, leaves[1:]):
        left.next_leaf = right
        right.prev_leaf = left
    if leaves:
        leaves[0].prev_leaf = None
        leaves[-1].next_leaf = None


def partition_by_model(keys: np.ndarray, model: LinearModel,
                       num_slots: int,
                       kernels: KernelBackend) -> np.ndarray:
    """Boundaries of the contiguous key runs each model slot receives.

    Returns an array ``bounds`` of length ``num_slots + 1`` such that slot
    ``s`` receives ``keys[bounds[s]:bounds[s+1]]``.  Relies on the model
    being monotone non-decreasing so slot assignments are sorted.  The
    slots come from ``kernels.predict_clamp``.
    """
    if len(keys) == 0:
        return np.zeros(num_slots + 1, dtype=np.int64)
    slots = kernels.predict_clamp(model.slope, model.intercept,
                                  np.asarray(keys, dtype=np.float64),
                                  num_slots)
    bounds = np.searchsorted(slots, np.arange(num_slots + 1))
    return bounds.astype(np.int64)


def build_static_rmi(keys: np.ndarray, payloads: np.ndarray,
                     config: AlexConfig,
                     counters: Counters, policy=None):
    """Build a two-level static RMI over sorted ``keys``.

    Returns ``(root, leaves)`` where ``root`` is an :class:`InnerNode` with
    ``config.num_models`` slots, one distinct leaf per slot.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if len(keys) == 0:
        leaf, = build_leaves(keys, payloads, [0, 0], config, counters, policy)
        return leaf, [leaf]
    kernels = get_kernels(config.kernel_backend)
    num_models = config.num_models
    root_model = LinearModel(*kernels.fit_cdf(keys, num_models))
    counters.retrains += 1
    bounds = partition_by_model(keys, root_model, num_models, kernels)
    leaves = build_leaves(keys, payloads, bounds, config, counters, policy)
    link_leaves(leaves)
    root = InnerNode(root_model, list(leaves), counters, kernels=kernels)
    return root, leaves
