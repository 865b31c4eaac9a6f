"""Adaptive RMI: initialization (Algorithm 4) and node splitting on inserts.

The static RMI suffers from *wasted models* (skew leaves most models nearly
empty) and *fully-packed regions* (a model covering too many keys
concentrates inserts).  Adaptive initialization bounds the number of keys
per leaf and lets the tree depth adapt to the data; node splitting on
inserts (Section 3.4.2) extends the same idea to dynamic distribution
shift and cold starts.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .config import AlexConfig
from .data_node import DataNode
from .kernels import get_kernels
from .linear_model import LinearModel
from .policy import DEFAULT_POLICY
from .rmi import InnerNode, build_leaves, link_leaves, partition_by_model
from .stats import Counters

#: Hard cap on recursion depth during adaptive initialization; reaching it
#: means the model cannot split the keys (e.g. near-identical values), in
#: which case we accept an oversized leaf rather than recurse forever.
_MAX_DEPTH = 32


def build_adaptive_rmi(keys: np.ndarray, payloads: np.ndarray,
                       config: AlexConfig,
                       counters: Counters, policy=None):
    """Algorithm 4: build an adaptively-shaped RMI over sorted ``keys``.

    Returns ``(root, leaves)``.  The root's fanout is the adaptation
    ``policy``'s (heuristic default: enough partitions that each holds
    ``max_keys_per_node`` keys in expectation); every inner node below
    it has ``config.inner_partitions`` slots, which is the fanout
    contract of :meth:`AdaptationPolicy.initial_fanout
    <repro.core.policy.AdaptationPolicy.initial_fanout>`.  Oversized
    partitions recurse into a deeper inner node; undersized partitions
    are merged with their successors until just below the bound.

    One ``plan_adaptive`` kernel call runs that whole recursion and
    returns the plan as flat arrays (:class:`~repro.core.kernels.AdaptivePlan`):
    where each leaf's key run starts, and one row per inner node of
    slope, intercept and slot table.  One :func:`build_leaves` call then
    fits and places every leaf, and the inner nodes are created from the
    table, children before parents.
    """
    keys = np.asarray(keys, dtype=np.float64)
    policy = policy or DEFAULT_POLICY
    kernels = get_kernels(config.kernel_backend)
    max_keys = config.max_keys_per_node
    # The policy is asked only when the root is an inner node.
    root_fanout = (policy.initial_fanout(len(keys), 0, config)
                   if len(keys) > max_keys else 0)
    plan = kernels.plan_adaptive(keys, root_fanout, config.inner_partitions,
                                 max_keys, _MAX_DEPTH)
    counters.retrains += plan.retrains
    leaves = build_leaves(keys, payloads, plan.starts.tolist() + [len(keys)],
                          config, counters, policy)
    # Leaf j is nodes[j] and inner node k is nodes[~k], as the plan's
    # slots refer to them; each inner node is created after its children.
    slopes, intercepts = plan.slopes.tolist(), plan.intercepts.tolist()
    offsets, children = plan.offsets.tolist(), plan.children.tolist()
    nodes: List[object] = leaves + [None] * len(slopes)
    for k in reversed(range(len(slopes))):
        nodes[~k] = InnerNode(LinearModel(slopes[k], intercepts[k]),
                              [nodes[c] for c in
                               children[offsets[k]:offsets[k + 1]]],
                              counters, kernels=kernels)
    link_leaves(leaves)
    return nodes[-1], leaves


def split_until_fits(leaf: DataNode, parent: Optional[InnerNode],
                     config: AlexConfig, counters: Counters):
    """Split ``leaf`` (and any oversized children) until every resulting
    leaf holds at most ``config.max_keys_per_node`` keys.

    The batch-insert path rebuilds whole leaves at once, so a single merged
    rebuild can overshoot the node-size bound by far more than one insert's
    worth; this drives :func:`split_leaf` as a worklist until the bound
    holds everywhere (degenerate splits are accepted as oversized leaves,
    exactly like the scalar insert path).

    Returns the inner node that replaced ``leaf``, or ``None`` when no
    split happened (the caller must re-root the tree when ``parent`` is
    ``None`` and a node is returned).
    """
    replacement = None
    work = [(leaf, parent)]
    while work:
        node, par = work.pop()
        if node.num_keys <= config.max_keys_per_node:
            continue
        inner = split_leaf(node, par, config, counters)
        if inner is None:
            continue  # degenerate: the model cannot separate the keys
        if node is leaf:
            replacement = inner
        for child in inner.distinct_children():
            work.append((child, inner))
    return replacement


def split_leaf(leaf: DataNode, parent: Optional[InnerNode],
               config: AlexConfig, counters: Counters):
    """Node splitting on inserts — the *split down* SMO (Section 3.4.2).

    The leaf's model becomes an inner model with ``config.split_fanout``
    children; the data is redistributed to the children *according to the
    original node's model* (its output range rescaled from the array size
    to the fanout).  No rebalancing happens — ALEX is not height-balanced.
    The tree deepens locally by one level, so every future access to this
    key range pays one more pointer follow and model inference (the cost
    the :class:`repro.core.policy.CostModelPolicy` weighs against *split
    sideways* and *expand in place*).

    Returns the new :class:`InnerNode`, or ``None`` when the split would be
    degenerate (every key lands in one child), in which case the caller
    should keep the oversized leaf.
    """
    keys, payloads = leaf.export_sorted()
    fanout = config.split_fanout
    if leaf.model is not None and leaf.model.slope > 0:
        model = leaf.model.copy()
        model.scale(fanout / leaf.capacity)
    else:
        model = LinearModel(*leaf.kernels.fit_cdf(keys, fanout))
        counters.retrains += 1
    bounds = partition_by_model(keys, model, fanout, leaf.kernels)
    sizes = np.diff(bounds)
    if len(keys) > 0 and int(sizes.max()) == len(keys):
        return None

    children = build_leaves(keys, payloads, bounds, config, counters,
                            leaf.policy)

    # Splice the new leaves into the chain where the old leaf sat.
    first, last = children[0], children[-1]
    first.prev_leaf = leaf.prev_leaf
    if leaf.prev_leaf is not None:
        leaf.prev_leaf.next_leaf = first
    last.next_leaf = leaf.next_leaf
    if leaf.next_leaf is not None:
        leaf.next_leaf.prev_leaf = last
    for left, right in zip(children, children[1:]):
        left.next_leaf = right
        right.prev_leaf = left

    inner = InnerNode(model, list(children), counters, kernels=leaf.kernels)
    counters.splits += 1
    if parent is not None:
        parent.replace_child(leaf, inner)
    return inner


def split_leaf_sideways(leaf: DataNode, parent: Optional[InnerNode],
                        config: AlexConfig, counters: Counters):
    """The *split sideways* SMO (Section 3.4.2): divide ``leaf`` into two
    leaves under its existing parent by splitting the run of parent
    pointer slots that map to it.

    No new level is created — future traversal cost is unchanged — so
    this SMO needs the parent to give the leaf at least two slots (and a
    non-degenerate key split between them).  The keys are partitioned by
    the *parent's* model, which is exactly how future lookups will route,
    so each new leaf receives precisely the keys that will be sent to it.

    Returns the ``(left, right)`` leaves, or ``None`` when sideways
    splitting is infeasible (no parent, a single slot, or all keys
    routing to one side) — callers fall back to :func:`split_leaf`.
    """
    if parent is None:
        return None
    slots = [i for i, child in enumerate(parent.children) if child is leaf]
    if len(slots) < 2:
        return None
    keys, payloads = leaf.export_sorted()
    if len(keys) < 2:
        return None
    slot_of = leaf.kernels.predict_clamp(parent.model.slope,
                                         parent.model.intercept, keys,
                                         parent.num_slots)
    # Cut at the slot boundary that divides the keys most evenly.
    cuts = np.searchsorted(slot_of, np.array(slots[1:], dtype=np.int64))
    best = int(np.argmin(np.abs(cuts - len(keys) / 2)))
    cut, cut_slot = int(cuts[best]), slots[1 + best]
    if cut == 0 or cut == len(keys):
        return None

    left, right = build_leaves(keys, payloads, [0, cut, len(keys)], config,
                               counters, leaf.policy)

    # Chain splice: the pair replaces the single leaf in place.
    left.prev_leaf = leaf.prev_leaf
    if leaf.prev_leaf is not None:
        leaf.prev_leaf.next_leaf = left
    right.next_leaf = leaf.next_leaf
    if leaf.next_leaf is not None:
        leaf.next_leaf.prev_leaf = right
    left.next_leaf = right
    right.prev_leaf = left

    # Slots before the cut boundary keep routing left, the rest right.
    for slot in slots:
        parent.children[slot] = left if slot < cut_slot else right
    counters.splits += 1
    return left, right


def merge_leaves(leaf: DataNode, parent: Optional[InnerNode],
                 config: AlexConfig, counters: Counters,
                 max_keys: Optional[int] = None):
    """The *merge* SMO — the delete-side inverse of a sideways split.

    Folds ``leaf`` into an adjacent sibling leaf under the **same**
    parent: the union of both leaves' records is rebuilt model-based into
    one node that takes over both slot runs and the chain positions.
    Deletes are the paper's open follow-up (Section 7, "delete-heavy
    workloads"); without this SMO a shrinking index keeps every leaf it
    ever split into.

    The merged node never exceeds ``max_keys`` (default: the node-size
    bound; policies pass a smaller cap to keep hysteresis between the
    merge and split triggers) — a candidate sibling that would overshoot
    is skipped.  Returns the merged leaf, or ``None`` when no same-parent
    adjacent sibling qualifies.
    """
    if parent is None:
        return None
    if max_keys is None:
        max_keys = config.max_keys_per_node
    for sibling in (leaf.prev_leaf, leaf.next_leaf):
        if sibling is None or sibling is leaf:
            continue
        if leaf.num_keys + sibling.num_keys > max_keys:
            continue
        if not any(child is sibling for child in parent.children):
            continue  # different parent: slots cannot be re-pointed
        left, right = ((sibling, leaf) if sibling is leaf.prev_leaf
                       else (leaf, sibling))
        left_keys, left_payloads = left.export_sorted()
        right_keys, right_payloads = right.export_sorted()
        merged_keys = np.concatenate([left_keys, right_keys])
        merged, = build_leaves(merged_keys,
                               np.concatenate([left_payloads,
                                               right_payloads]),
                               [0, len(merged_keys)], config, counters,
                               leaf.policy)

        merged.prev_leaf = left.prev_leaf
        if left.prev_leaf is not None:
            left.prev_leaf.next_leaf = merged
        merged.next_leaf = right.next_leaf
        if right.next_leaf is not None:
            right.next_leaf.prev_leaf = merged

        parent.replace_child(left, merged)
        parent.replace_child(right, merged)
        counters.merges += 1
        return merged
    return None
