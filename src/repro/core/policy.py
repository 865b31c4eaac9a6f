"""The adaptation policy layer: every structural decision in one place.

ALEX's defining mechanism (paper Section 3.4) is that structural
modification operations — *expand in place*, *split sideways*, *split
down*, and the catastrophic *retrain* — are chosen by an expected-cost
model under the observed read/write mix, not by fixed thresholds.  This
module separates those **decision rules** from the **mutation mechanics**
(which live in :mod:`repro.core.data_node`, :mod:`repro.core.adaptive`,
and :mod:`repro.serve.sharded`), so every layer of the system consults the
same pluggable policy object:

* leaf-local: expand vs contract (``DataNode``);
* tree SMOs: split sideways / split down / retrain / merge underfull
  sibling leaves (``AlexIndex``), and the initial fanout of the adaptive
  RMI (``repro.core.adaptive``);
* serving tier: hot-shard split and cold-shard merge
  (``repro.serve.sharded.ShardedAlexIndex``).

Two implementations ship:

:class:`HeuristicPolicy`
    The compatibility default.  It reproduces the pre-policy behaviour
    decision-for-decision (density-threshold expands, the
    ``max_keys_per_node`` split check, median hot-shard splits, no merges),
    so existing configurations build bit-for-bit identical structures.

:class:`CostModelPolicy`
    Paper-faithful: maintains per-node EMA counters of lookups, inserts,
    shift distances, and search iterations (fed by
    :class:`PressureEvent` emissions from the mutation sites) and picks
    the SMO minimizing expected cost per future operation, priced with
    :class:`repro.analysis.cost_model.CostModel` latencies and the
    closed-form terms of :mod:`repro.analysis.expected_cost`.

Mutation sites **emit** :class:`PressureEvent`\\ s (``policy.record``) and
**ask** (``choose_insert_smo`` / ``choose_delete_smo`` / ...); they never
decide.  Policies **decide**; they never mutate.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs

from .config import ADAPTIVE_RMI, AlexConfig

# ---------------------------------------------------------------------------
# SMO vocabulary (paper Section 3.4 names)
# ---------------------------------------------------------------------------

#: No structural change.
SMO_NONE = "none"
#: Grow the node's arrays in place and rebuild model-based (§3.3.1 / Alg. 3).
SMO_EXPAND = "expand"
#: Split a leaf into two leaves under the *same* parent, dividing the
#: parent's pointer slots between them (§3.4.2 "split sideways").
SMO_SPLIT_SIDEWAYS = "split_sideways"
#: Replace a leaf with a new inner node over ``split_fanout`` children,
#: deepening the tree locally (§3.4.2 "split down").
SMO_SPLIT_DOWN = "split_down"
#: Catastrophic retrain: rebuild the node model-based at the same capacity
#: because the model has drifted far from the data (§3.4.2).
SMO_RETRAIN = "retrain"
#: Fold an underfull leaf into an adjacent same-parent sibling (the inverse
#: of a split; the paper lists delete-side SMOs as future work in §7).
SMO_MERGE = "merge"

#: Event kinds carried by :class:`PressureEvent`.
EV_READ = "read"
EV_INSERT = "insert"
EV_DELETE = "delete"


@dataclass(frozen=True)
class PressureEvent:
    """One observation emitted by a mutation/read site about a node.

    ``count`` operations of kind ``kind`` hit the node, costing ``probes``
    search iterations (exponential/binary search steps plus comparisons)
    and ``shifts`` element moves in total.  Batch sites emit one event per
    touched node with ``count > 1`` instead of one event per key.

    ``searches`` is how many of those operations actually performed an
    in-node search whose cost is included in ``probes`` — the denominator
    of the per-op search-cost estimate.  Batch rebuilds place keys without
    searching; counting them as zero-probe searches would dilute the
    estimate (and freeze an artificially low drift baseline, triggering
    spurious retrains of healthy leaves).  Defaults to ``count`` for
    reads (searching is what a read is) and 0 for writes.
    """

    kind: str
    count: int = 1
    probes: int = 0
    shifts: int = 0
    searches: Optional[int] = None

    @property
    def searched(self) -> int:
        if self.searches is not None:
            return self.searches
        return self.count if self.kind == EV_READ else 0


@dataclass
class NodePressure:
    """Per-node EMA counters maintained by :class:`CostModelPolicy`.

    Tallies decay by halving whenever the op window exceeds
    ``WINDOW`` operations, so they track the *recent* read/write mix and
    per-op costs (an exponential moving window) rather than all-time
    totals.

    Accuracy contract (mirroring :class:`repro.core.stats.Counters` in
    the sharded service): tallies are exact for single-client usage and
    for writes (exclusive shard locks).  Concurrent *readers* sharing a
    shard lock update these floats unsynchronized, so read tallies may
    skew under multi-client read contention — they are a measurement
    instrument steering heuristic decisions, not correctness state, and a
    mutex here would sit on the engine's hottest path.
    """

    WINDOW = 1024
    #: Searched operations observed before the post-build search cost
    #: freezes into ``baseline`` (the node's own fresh-model reference
    #: for drift).
    BASELINE_OPS = 16

    reads: float = 0.0
    inserts: float = 0.0
    deletes: float = 0.0
    probes: float = 0.0
    shifts: float = 0.0
    #: Operations that actually searched the node (the denominator of
    #: ``probes_per_op`` — batch rebuilds place keys without searching
    #: and must not dilute the estimate).
    searches: float = 0.0
    #: Search iterations per op measured right after the last (re)build —
    #: the drift detector compares against this, not a closed-form guess,
    #: because real fresh-build error depends on the data's local shape.
    baseline: float = 0.0

    def observe(self, event: PressureEvent) -> None:
        if event.kind == EV_READ:
            self.reads += event.count
        elif event.kind == EV_INSERT:
            self.inserts += event.count
        else:
            self.deletes += event.count
        self.probes += event.probes
        self.shifts += event.shifts
        self.searches += event.searched
        if self.baseline == 0.0 and self.searches >= self.BASELINE_OPS:
            self.baseline = max(self.probes_per_op, 1.0)
        if self.ops > self.WINDOW:
            self.decay()

    def decay(self, factor: float = 0.5) -> None:
        """Scale every tally (the EMA half-step)."""
        self.reads *= factor
        self.inserts *= factor
        self.deletes *= factor
        self.probes *= factor
        self.shifts *= factor
        self.searches *= factor

    @property
    def ops(self) -> float:
        return self.reads + self.inserts + self.deletes

    @property
    def write_fraction(self) -> float:
        """Fraction of recent operations that were inserts/deletes
        (0.5 prior when the node has no history yet)."""
        ops = self.ops
        if ops <= 0:
            return 0.5
        return (self.inserts + self.deletes) / ops

    @property
    def probes_per_op(self) -> float:
        """Observed search iterations per *searched* operation."""
        return self.probes / self.searches if self.searches > 0 else 0.0

    @property
    def shifts_per_insert(self) -> float:
        """Observed shift distance per insert."""
        return self.shifts / self.inserts if self.inserts > 0 else 0.0


@dataclass(frozen=True)
class PolicyDecision:
    """One logged decision, for ``python -m repro adapt`` and debugging."""

    site: str  # "leaf" | "shard" | "fanout"
    action: str
    size: int
    reason: str


@dataclass(frozen=True)
class ShardSummary:
    """The serving tier's per-shard observation handed to the policy."""

    accesses: int
    num_keys: int


@dataclass(frozen=True)
class ShardDecision:
    """A serving-tier SMO: ``("split", s)`` cuts shard ``s`` at its median;
    ``("merge", s)`` folds shards ``s`` and ``s + 1`` into one."""

    action: str  # "split" | "merge"
    shard: int


class AdaptationPolicy:
    """Interface every structural decision routes through.

    Subclasses decide; callers mutate.  ``tracks_pressure`` lets hot paths
    skip the counter snapshots that feed :meth:`record` when the policy
    ignores them (the heuristic default).
    """

    #: Whether mutation sites should pay for :class:`PressureEvent`
    #: bookkeeping (counter snapshots around searches/inserts).
    tracks_pressure = False

    #: Maximum retained :class:`PolicyDecision` entries.
    LOG_LIMIT = 512

    def __init__(self) -> None:
        self.decisions: deque = deque(maxlen=self.LOG_LIMIT)
        self.smo_counts: dict = {}
        # Structural events are rare (one per SMO), so guarding the
        # bookkeeping is cheap — one policy object serves every shard of
        # a sharded service, and two shards' writers may apply SMOs
        # concurrently under different shard locks.
        self._bookkeeping = threading.Lock()

    def __getstate__(self) -> dict:
        # Policies travel to shard worker processes (the sharded
        # service's process backend) carrying their configuration; only
        # the bookkeeping lock is process-local.
        state = self.__dict__.copy()
        state.pop("_bookkeeping", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bookkeeping = threading.Lock()

    # -- observation ----------------------------------------------------

    def record(self, node, event: PressureEvent) -> None:
        """Ingest one pressure observation about ``node`` (no-op unless the
        policy tracks pressure)."""

    def note_smo(self, node, action: str) -> None:
        """Called after an SMO was applied to ``node`` so the policy can
        reset that node's drift state."""

    def note_applied(self, action: str) -> None:
        """Tally one *applied* SMO.  Callers invoke this after the
        mutation succeeded (a chosen merge can find no qualifying
        sibling, a chosen sideways split can fall back to a split down),
        so ``smo_counts`` matches the structural events that actually
        happened — unlike the decision log, which records intents with
        their reasoning."""
        with self._bookkeeping:
            self.smo_counts[action] = self.smo_counts.get(action, 0) + 1
        obs.inc("policy.applied." + action)
        obs.emit("policy.applied", action=action)

    def _log(self, site: str, action: str, size: int, reason: str) -> None:
        with self._bookkeeping:
            self.decisions.append(PolicyDecision(site, action, size, reason))
        obs.emit("policy.decision", site=site, action=action, size=size,
                 reason=reason)

    # -- leaf-local decisions -------------------------------------------

    def should_expand(self, leaf) -> bool:
        """Whether ``leaf`` must grow before absorbing one more insert
        (the mechanical floor: the gapped array needs a free slot)."""
        raise NotImplementedError

    def should_contract(self, leaf) -> bool:
        """Whether ``leaf`` should shrink its arrays after a delete."""
        raise NotImplementedError

    # -- tree SMO decisions ---------------------------------------------

    def choose_insert_smo(self, leaf, parent, index) -> str:
        """SMO to apply to ``leaf`` *before* inserting one more key."""
        raise NotImplementedError

    def choose_delete_smo(self, leaf, parent, index) -> str:
        """SMO to apply to ``leaf`` *after* a delete (``SMO_MERGE`` folds
        it into a same-parent sibling; ``SMO_NONE`` leaves it)."""
        raise NotImplementedError

    def should_split_oversized(self, leaf, index) -> bool:
        """Whether a leaf rebuilt past the node-size bound by a batch
        insert should be driven through the split worklist."""
        raise NotImplementedError

    def initial_fanout(self, n: int, depth: int, config: AlexConfig) -> int:
        """Partitions an adaptive-RMI inner node creates over ``n`` keys at
        ``depth`` during initialization (Algorithm 4's fanout choice).

        The contract: only the root's fanout (``depth == 0``) is the
        policy's to choose, and below the root the answer must be
        ``config.inner_partitions``.  The bulk load asks once, at the
        root, and its compiled plan
        (:meth:`~repro.core.kernels.KernelBackend.plan_adaptive`) gives
        every deeper inner node ``config.inner_partitions`` slots."""
        raise NotImplementedError

    def max_merged_keys(self, config: AlexConfig) -> int:
        """Largest leaf a merge may produce.  The default allows merging
        right up to the node-size bound; policies that also split should
        leave headroom below the split trigger (hysteresis), or a merged
        leaf sits one insert burst away from being split again."""
        return config.max_keys_per_node

    # -- serving-tier decisions -----------------------------------------

    def choose_shard_smo(self, summaries: List[ShardSummary],
                         hot_access_fraction: float,
                         min_accesses: int) -> Optional[ShardDecision]:
        """Serving-tier SMO given per-shard access tallies, or ``None``."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------

    @staticmethod
    def _split_allowed(index) -> bool:
        """The pre-policy gate: adaptive RMI with splitting enabled (or a
        cold start, which must be able to grow by splitting)."""
        config = index.config
        return (config.rmi_mode == ADAPTIVE_RMI
                and (config.split_on_inserts or index._cold_start))


class HeuristicPolicy(AdaptationPolicy):
    """The pre-policy behaviour, extracted verbatim (the default).

    Every decision matches the scattered heuristics this layer replaced,
    so indexes built under this policy are bit-for-bit identical to the
    seed implementation: density-threshold expands (§3.3.1), contraction
    at half the build density (§3.2), split-down at ``max_keys_per_node``
    when splitting is on (§3.4.2), Algorithm 4's fanout, median hot-shard
    splits — and never a merge of any kind.
    """

    def should_expand(self, leaf) -> bool:
        return leaf.num_keys + 1 > leaf.density_bound() * leaf.capacity

    def should_contract(self, leaf) -> bool:
        if leaf.capacity <= leaf.MIN_CAPACITY:
            return False
        return (leaf.num_keys
                < leaf.capacity * leaf.config.density_at_build / 2)

    def choose_insert_smo(self, leaf, parent, index) -> str:
        if (self._split_allowed(index)
                and leaf.num_keys + 1 > index.config.max_keys_per_node):
            self._log("leaf", SMO_SPLIT_DOWN, leaf.num_keys,
                      f"num_keys+1 > {index.config.max_keys_per_node}")
            return SMO_SPLIT_DOWN
        return SMO_NONE

    def choose_delete_smo(self, leaf, parent, index) -> str:
        return SMO_NONE

    def should_split_oversized(self, leaf, index) -> bool:
        return (self._split_allowed(index)
                and leaf.num_keys > index.config.max_keys_per_node)

    def initial_fanout(self, n: int, depth: int, config: AlexConfig) -> int:
        if depth == 0:
            return max(2, -(-n // config.max_keys_per_node))
        return config.inner_partitions

    def choose_shard_smo(self, summaries: List[ShardSummary],
                         hot_access_fraction: float,
                         min_accesses: int) -> Optional[ShardDecision]:
        total = sum(s.accesses for s in summaries)
        if total < min_accesses:
            return None
        hot = max(range(len(summaries)), key=lambda s: summaries[s].accesses)
        if summaries[hot].accesses / total < hot_access_fraction:
            return None
        self._log("shard", "split", summaries[hot].num_keys,
                  f"shard {hot} absorbs "
                  f"{summaries[hot].accesses / total:.0%} of accesses")
        return ShardDecision("split", hot)


class CostModelPolicy(HeuristicPolicy):
    """Expected-cost-minimizing adaptation (paper Section 3.4).

    Per-node :class:`NodePressure` EMAs estimate each node's read/write
    mix, search iterations per op, and shift distance per insert.  When a
    leaf comes under pressure (its density bound or the node-size bound
    would be crossed by one more insert) the policy prices the candidate
    SMOs per future operation on that node:

    ``expand``
        intra-node cost at the grown size — search iterations reset to
        the fresh-build expectation (Algorithm 3 rebuilds model-based),
        shift pressure halves (twice the gaps) — plus the amortized
        rebuild.

    ``split sideways``
        intra-node cost of a half-sized leaf; feasible only when the
        parent gives the leaf at least two pointer slots to divide.

    ``split down``
        intra-node cost of a ``1/split_fanout``-sized leaf **plus** one
        extra pointer follow and model inference on every future access
        (the TraverseToLeaf term the new level adds).

    ``retrain``
        chosen outside the density trigger when observed search
        iterations drift to ``drift_factor`` times the fresh-build
        expectation: a catastrophic rebuild at unchanged capacity.

    Note: this policy deliberately ignores ``config.split_on_inserts``
    (and the cold-start gate).  That flag is the *heuristic's* knob — the
    paper's "adaptive RMI does not do node splitting on inserts" default
    describes the fixed-threshold baseline, and
    :class:`HeuristicPolicy` honors it exactly.  The cost model's whole
    purpose is to replace fixed gates with priced decisions, so under an
    adaptive RMI it may split (sideways or down) whenever splitting wins
    the cost comparison; to reproduce the paper's no-split baseline, use
    the heuristic policy.

    Delete-side, a leaf whose occupancy falls below
    ``merge_occupancy * max_keys_per_node`` is folded into a same-parent
    sibling when the combined node saves more intra-node cost than the
    merge costs.  The serving tier splits hot shards exactly like the
    heuristic but additionally merges the coldest adjacent shard pair
    when its combined share of traffic falls below ``cold_factor`` of a
    fair ``1/num_shards`` share.
    """

    tracks_pressure = True

    def __init__(self, cost_model=None, drift_factor: float = 2.0,
                 merge_occupancy: float = 0.5,
                 cold_factor: float = 0.5,
                 min_node_ops: int = 32,
                 slot_reserve: int = 2,
                 merge_headroom: float = 0.75) -> None:
        super().__init__()
        if cost_model is None:
            # Imported lazily: repro.analysis packages import repro.core at
            # module load, so a top-level import here would be circular.
            from repro.analysis.cost_model import DEFAULT_COST_MODEL
            cost_model = DEFAULT_COST_MODEL
        self.cost_model = cost_model
        self.drift_factor = drift_factor
        self.merge_occupancy = merge_occupancy
        self.cold_factor = cold_factor
        self.min_node_ops = min_node_ops
        self.slot_reserve = slot_reserve
        self.merge_headroom = merge_headroom

    # -- observation ----------------------------------------------------

    def record(self, node, event: PressureEvent) -> None:
        pressure = node.pressure
        if pressure is None:
            pressure = node.pressure = NodePressure()
        pressure.observe(event)

    def note_smo(self, node, action: str) -> None:
        # A rebuild invalidates everything the old layout's window
        # described — per-op costs, the fresh-model baseline, and the op
        # mix (callers re-record any surviving observations afterwards);
        # record() lazily recreates an all-zero window on the next event
        # and the baseline is re-learned from the next few operations.
        node.pressure = None

    # -- cost terms ------------------------------------------------------

    @staticmethod
    def _expected_probes(n: int) -> float:
        from repro.analysis.expected_cost import expected_search_probes
        return expected_search_probes(n)

    def _intra_node_nanos(self, n: int, write_fraction: float,
                          shifts_per_insert: float,
                          probes_per_op: Optional[float] = None) -> float:
        """Expected simulated ns of one operation *inside* a leaf of ``n``
        keys: model inference + search probes, plus the shift term on the
        write fraction (the intra-node half of the paper's expected cost;
        TraverseToLeaf is added by the caller where levels change)."""
        cm = self.cost_model
        probes = (self._expected_probes(n) if probes_per_op is None
                  else probes_per_op)
        nanos = cm.model_inference_ns + cm.probe_ns * probes
        nanos += write_fraction * cm.shift_ns * shifts_per_insert
        return nanos

    def _amortized_rebuild_nanos(self, n: int, event_ns: float) -> float:
        """Per-operation share of a rebuild over ``n`` keys, amortized over
        roughly one node-size worth of future operations (the slack a
        model-based build at density ``d**2`` opens up)."""
        cm = self.cost_model
        total = event_ns + cm.build_move_ns * n + cm.retrain_ns
        return total / max(n, 1)

    # -- leaf-local decisions -------------------------------------------
    #
    # should_expand / should_contract are inherited from HeuristicPolicy:
    # the density bound is a mechanical floor (past it the array may have
    # no gap left for the next insert), not a tunable — the *policy* part,
    # preferring a split over growing, runs at the index level in
    # choose_insert_smo before the node-local insert executes.

    # -- tree SMO decisions ---------------------------------------------

    def choose_insert_smo(self, leaf, parent, index) -> str:
        config = index.config
        n = leaf.num_keys
        pressure = leaf.pressure
        # Catastrophic drift (§3.4.2): observed search iterations far above
        # the node's own fresh-model baseline — retrain regardless of
        # density.
        if (pressure is not None and pressure.baseline > 0.0
                and pressure.searches >= self.min_node_ops
                and n >= config.min_keys_for_model):
            threshold = self.drift_factor * max(pressure.baseline, 2.0)
            if pressure.probes_per_op > threshold:
                self._log("leaf", SMO_RETRAIN, n,
                          f"probes/op {pressure.probes_per_op:.1f} > "
                          f"{self.drift_factor:.0f}x baseline "
                          f"{pressure.baseline:.1f}")
                return SMO_RETRAIN
        at_density = n + 1 > leaf.density_bound() * leaf.capacity
        oversized = n + 1 > config.max_keys_per_node
        if not (at_density or oversized):
            return SMO_NONE
        splittable = (config.rmi_mode == ADAPTIVE_RMI
                      and n >= 2 * config.min_keys_for_model)
        if not splittable:
            return SMO_NONE  # the node-local expand floor handles density

        write_frac = pressure.write_fraction if pressure is not None else 0.5
        shifts = pressure.shifts_per_insert if pressure is not None else 0.0
        cm = self.cost_model
        candidates: List[Tuple[float, str]] = []
        if at_density:
            # Expand in place: same key count, fresh model, halved shift
            # pressure (the rebuild doubles the gap budget).
            candidates.append((
                self._intra_node_nanos(n, write_frac, shifts / 2.0)
                + self._amortized_rebuild_nanos(n, cm.expansion_ns),
                SMO_EXPAND))
        else:
            # Merely oversized: the no-op candidate keeps the leaf as is.
            # It must be priced — otherwise "oversized" would force a
            # mutation on every insert.  All candidates use the same
            # closed-form probe estimate (observed drift is the retrain
            # trigger's job); pricing "stay" with observed costs but the
            # SMOs with fresh-build optimism would bias toward mutating.
            candidates.append((
                self._intra_node_nanos(n, write_frac, shifts),
                SMO_NONE))
        if parent is not None and self._sideways_slots(leaf, parent):
            candidates.append((
                self._intra_node_nanos(n // 2, write_frac, shifts / 2.0)
                + self._amortized_rebuild_nanos(n, cm.split_ns),
                SMO_SPLIT_SIDEWAYS))
        candidates.append((
            self._intra_node_nanos(n // config.split_fanout, write_frac,
                                   shifts / config.split_fanout)
            + cm.pointer_follow_ns + cm.model_inference_ns
            + self._amortized_rebuild_nanos(n, cm.split_ns),
            SMO_SPLIT_DOWN))
        cost, action = min(candidates)
        if action != SMO_NONE:
            self._log("leaf", action, n,
                      f"min expected cost {cost:.1f}ns/op at write mix "
                      f"{write_frac:.0%} ({len(candidates)} candidates)")
        return action

    @staticmethod
    def _sideways_slots(leaf, parent) -> bool:
        """A sideways split needs at least two parent slots to divide."""
        count = 0
        for child in parent.children:
            if child is leaf:
                count += 1
                if count >= 2:
                    return True
        return False

    def choose_delete_smo(self, leaf, parent, index) -> str:
        config = index.config
        if parent is None or config.rmi_mode != ADAPTIVE_RMI:
            return SMO_NONE
        floor = self.merge_occupancy * config.max_keys_per_node
        if leaf.num_keys >= floor:
            return SMO_NONE
        self._log("leaf", SMO_MERGE, leaf.num_keys,
                  f"occupancy {leaf.num_keys} below floor {floor:.0f}")
        return SMO_MERGE

    def max_merged_keys(self, config: AlexConfig) -> int:
        """Hysteresis between the merge and split SMOs: a merge may fill a
        leaf only to ``merge_headroom`` of the node-size bound, so the
        merged node sits a whole insert burst — not one insert — away
        from being split again.  Without the gap, a mixed insert/delete
        workload at the boundary would thrash (merge, re-split, merge)
        with an O(n) rebuild each time."""
        return int(self.merge_headroom * config.max_keys_per_node)

    def should_split_oversized(self, leaf, index) -> bool:
        # Batch rebuilds can overshoot the bound by whole batches; restore
        # it whenever the tree may adapt (the worklist itself is
        # mechanics, repro.core.adaptive.split_until_fits).
        return (index.config.rmi_mode == ADAPTIVE_RMI
                and leaf.num_keys > index.config.max_keys_per_node)

    def initial_fanout(self, n: int, depth: int, config: AlexConfig) -> int:
        if depth > 0:
            return config.inner_partitions
        # Leaf *size* is governed by Algorithm 4's accumulate-then-drop
        # merging, which packs partitions up to max_keys_per_node no
        # matter how fine the root model partitions; what the fanout
        # choice really controls is slot *granularity*.  slot_reserve
        # multiplies the partition count so each packed leaf ends up
        # holding several parent pointer slots — the granularity a future
        # *sideways* split needs (a leaf with one slot can only split
        # down, paying cost_model.pointer_follow_ns on every later access
        # to the range).  The price is a few pointer bytes per leaf; the
        # payoff is level-free splits wherever insert pressure lands.
        reserve = max(1, self.slot_reserve)
        fanout = max(2, -(-n // config.max_keys_per_node)) * reserve
        self._log("fanout", "initial_fanout", fanout,
                  f"x{reserve} slot reserve over "
                  f"{config.max_keys_per_node}-key leaves, keeping "
                  f"sideways splits (no "
                  f"{self.cost_model.pointer_follow_ns:.0f}ns level cost) "
                  f"feasible")
        self.note_applied("initial_fanout")
        return fanout

    # -- serving-tier decisions -----------------------------------------

    def choose_shard_smo(self, summaries: List[ShardSummary],
                         hot_access_fraction: float,
                         min_accesses: int) -> Optional[ShardDecision]:
        split = super().choose_shard_smo(summaries, hot_access_fraction,
                                         min_accesses)
        if split is not None:
            return split
        total = sum(s.accesses for s in summaries)
        if total < min_accesses or len(summaries) < 2:
            return None
        # Cold-shard merge: the adjacent pair with the least combined
        # traffic merges when it earns under cold_factor of one fair
        # 1/num_shards share — undoing splits the hotspot has moved past.
        pair = min(range(len(summaries) - 1),
                   key=lambda s: (summaries[s].accesses
                                  + summaries[s + 1].accesses))
        pair_accesses = (summaries[pair].accesses
                         + summaries[pair + 1].accesses)
        fair = total / len(summaries)
        if pair_accesses < self.cold_factor * fair:
            self._log("shard", "merge",
                      summaries[pair].num_keys
                      + summaries[pair + 1].num_keys,
                      f"shards {pair},{pair + 1} earn "
                      f"{pair_accesses / total:.1%} of accesses "
                      f"(fair share {fair / total:.1%})")
            return ShardDecision("merge", pair)
        return None


#: Shared stateless-by-construction default used by nodes created without
#: an explicit policy (persistence loads, direct node construction in
#: tests).  Heuristic decisions depend only on node + config state, so
#: sharing one instance is safe; its decision log is best-effort.
DEFAULT_POLICY = HeuristicPolicy()

__all__ = [
    "AdaptationPolicy",
    "CostModelPolicy",
    "DEFAULT_POLICY",
    "EV_DELETE",
    "EV_INSERT",
    "EV_READ",
    "HeuristicPolicy",
    "NodePressure",
    "PolicyDecision",
    "PressureEvent",
    "ShardDecision",
    "ShardSummary",
    "SMO_EXPAND",
    "SMO_MERGE",
    "SMO_NONE",
    "SMO_RETRAIN",
    "SMO_SPLIT_DOWN",
    "SMO_SPLIT_SIDEWAYS",
]
