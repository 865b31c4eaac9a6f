"""Adaptation-stressing workload traces: grow-then-shrink and shifting
hotspot.

The paper's YCSB-style workloads (Section 5.1.2) only ever grow the index,
so the delete-side and drift-side structural adaptations — leaf
contraction, leaf merges, catastrophic retrains, cold-shard merges — never
fire.  This module generates the two trace shapes that exercise them:

* **grow-then-shrink** — a wave of fresh inserts doubles the key count,
  then deletes remove the wave plus most of the original keys, with reads
  interleaved throughout.  A policy with no delete-side SMOs keeps every
  leaf (and every shard) the growth phase created; the cost-model policy
  merges underfull siblings back together and contracts, shrinking the
  structure with the data.

* **shifting-hotspot** — reads and inserts concentrate inside a window
  over the key domain that jumps to a new region every few batches (the
  moving-hotspot pattern of YCSB-hotspot, but non-stationary).  Fixed
  heuristics grow the once-hot leaves monotonically; the cost-model
  policy splits under insert pressure and retrains drifted models as the
  hotspot moves on.

Traces are lists of ``(op, keys)`` batch chunks (op in ``{"read",
"insert", "delete"}``) so replay runs through the PR 1 batch engine —
``get_many`` / ``insert_many`` / ``delete_many`` — exactly like the
serving tier would execute them.  :func:`run_adaptation_scenario` replays
a trace against a fresh index under a given policy and reports simulated
throughput, space, and the policy's SMO tallies (the comparison surface
of ``benchmarks/bench_adaptation.py`` and ``python -m repro adapt``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig, ga_armi
from repro.core.policy import AdaptationPolicy

#: The two scenario names, as accepted by :func:`build_trace` and the CLI.
SCENARIOS = ("grow-shrink", "hotspot-shift")

_DOMAIN = 1e9


def _fresh_keys(rng: np.random.Generator, count: int, lo: float, hi: float,
                taken: set) -> np.ndarray:
    """Draw ``count`` keys in ``[lo, hi)`` not colliding with ``taken``
    (and record them there)."""
    out: List[float] = []
    while len(out) < count:
        for key in rng.uniform(lo, hi, count - len(out)):
            key = float(key)
            if key not in taken:
                taken.add(key)
                out.append(key)
    return np.array(out, dtype=np.float64)


def grow_then_shrink_trace(num_keys: int = 20_000, num_ops: int = 20_000,
                           batch: int = 500, seed: int = 0,
                           shrink_fraction: float = 0.8):
    """Build the grow-then-shrink trace.

    Returns ``(init_keys, chunks)``: bulk-load ``init_keys``, then replay
    ``chunks``.  Half the operation budget inserts fresh keys (batched,
    read batches interleaved 1:1), the other half deletes the wave and
    ``shrink_fraction`` of the original keys, reads still interleaved, so
    the index ends far smaller than it peaked.
    """
    rng = np.random.default_rng(seed)
    taken: set = set()
    init_keys = _fresh_keys(rng, num_keys, 0.0, _DOMAIN, taken)
    live = list(init_keys)
    chunks: List[Tuple[str, np.ndarray]] = []

    grow_budget = num_ops // 2
    grown: List[float] = []
    while grow_budget > 0:
        size = min(batch, grow_budget)
        wave = _fresh_keys(rng, size, 0.0, _DOMAIN, taken)
        grown.extend(wave.tolist())
        live.extend(wave.tolist())
        chunks.append(("insert", wave))
        chunks.append(("read", rng.choice(live, size)))
        grow_budget -= size

    # The shrink phase removes the entire insert wave plus
    # ``shrink_fraction`` of the original keys — the index ends at a small
    # fraction of its peak, which is the whole point of the scenario (a
    # policy with no delete-side SMOs keeps the peak's structure forever).
    victims = np.array(grown + list(
        rng.choice(init_keys, int(len(init_keys) * shrink_fraction),
                   replace=False)), dtype=np.float64)
    rng.shuffle(victims)
    dead = set(victims.tolist())
    survivors = np.array([k for k in live if k not in dead])
    pos = 0
    while pos < len(victims):
        size = min(batch, len(victims) - pos)
        chunks.append(("delete", victims[pos:pos + size]))
        chunks.append(("read", rng.choice(survivors, size)))
        pos += size
    return init_keys, chunks


def shifting_hotspot_trace(num_keys: int = 20_000, num_ops: int = 20_000,
                           batch: int = 500, seed: int = 0,
                           window: float = 0.1, shifts: int = 5,
                           insert_fraction: float = 0.5,
                           insert_chunk: int = 2):
    """Build the shifting-hotspot trace.

    Returns ``(init_keys, chunks)``.  The operation budget divides into
    ``shifts`` phases; in each, every read and insert lands inside a
    ``window``-fraction slice of the key domain, and the slice jumps to a
    fresh region between phases (far apart, so a region never re-heats).

    Inserts inside the window are *sequential*: a cursor advances
    monotonically through the slice and each new key lands just past it —
    the paper's adversarial append pattern (Figure 5c) localized to the
    hotspot.  They are emitted in tiny ``insert_chunk``-sized chunks so
    replay takes the scalar insert path: the leaf models under the cursor
    go stale between rebuilds (distribution shift, Figure 5b) and reads
    pay growing search costs — the drift a fixed heuristic never repairs
    and an expected-cost policy answers with retrains and splits.
    """
    rng = np.random.default_rng(seed)
    taken: set = set()
    init_keys = _fresh_keys(rng, num_keys, 0.0, _DOMAIN, taken)
    sorted_init = np.sort(init_keys)
    chunks: List[Tuple[str, np.ndarray]] = []
    centers = rng.permutation(shifts) / max(shifts, 1)
    per_phase = num_ops // max(shifts, 1)
    for phase in range(shifts):
        lo = centers[phase] * _DOMAIN * (1.0 - window)
        hi = lo + window * _DOMAIN
        span = sorted_init[np.searchsorted(sorted_init, lo):
                           np.searchsorted(sorted_init, hi)]
        if len(span) == 0:
            span = sorted_init
        local: List[float] = list(span)
        budget = per_phase
        total_inserts = int(per_phase * insert_fraction)
        # Sequential cursor: new keys sweep the slice left to right.
        cursor = lo
        step = (hi - lo) / max(total_inserts + 1, 1)
        while budget > 0:
            size = min(batch, budget)
            inserts = int(size * insert_fraction)
            done = 0
            while done < inserts:
                count = min(insert_chunk, inserts - done)
                wave = []
                for _ in range(count):
                    key = cursor + float(rng.uniform(0.0, step))
                    while key in taken:
                        key += step * 1e-6
                    taken.add(key)
                    wave.append(key)
                    cursor += step
                local.extend(wave)
                chunks.append(("insert", np.array(wave, dtype=np.float64)))
                done += count
            reads = size - inserts
            if reads:
                chunks.append(("read", rng.choice(local, reads)))
            budget -= size
    return init_keys, chunks


def build_trace(scenario: str, num_keys: int, num_ops: int,
                batch: int = 500, seed: int = 0):
    """Dispatch on the scenario name (see :data:`SCENARIOS`)."""
    if scenario == "grow-shrink":
        return grow_then_shrink_trace(num_keys, num_ops, batch, seed)
    if scenario == "hotspot-shift":
        return shifting_hotspot_trace(num_keys, num_ops, batch, seed)
    raise ValueError(f"unknown scenario {scenario!r} "
                     f"(choose from {', '.join(SCENARIOS)})")


def replay_trace(index: AlexIndex, chunks) -> int:
    """Replay ``(op, keys)`` chunks through the batch engine; returns the
    number of logical operations executed."""
    ops = 0
    for op, keys in chunks:
        if op == "insert":
            index.insert_many(keys)
        elif op == "delete":
            index.delete_many(keys)
        elif op == "read":
            index.get_many(keys)
        else:
            raise ValueError(f"unknown trace op {op!r}")
        ops += len(keys)
    return ops


def run_adaptation_scenario(policy: AdaptationPolicy, scenario: str,
                            num_keys: int = 20_000, num_ops: int = 20_000,
                            batch: int = 500, seed: int = 0,
                            config: Optional[AlexConfig] = None,
                            cost_model=None) -> dict:
    """Replay one adaptation scenario under ``policy`` and measure it.

    Builds a fresh :class:`AlexIndex` (default config: ``ga_armi()`` with
    a 256-key node bound — small enough that the traces generate real
    structural pressure), replays the trace, and returns simulated
    throughput (counter-weighted, :mod:`repro.analysis.cost_model`), space,
    structure shape, and the policy's SMO tallies.  Deterministic for a given seed.
    """
    if cost_model is None:
        from repro.analysis.cost_model import DEFAULT_COST_MODEL
        cost_model = DEFAULT_COST_MODEL
    config = config or ga_armi(max_keys_per_node=256)
    init_keys, chunks = build_trace(scenario, num_keys, num_ops, batch, seed)
    index = AlexIndex.bulk_load(init_keys, config=config, policy=policy)
    before = index.counters.snapshot()
    ops = replay_trace(index, chunks)
    work = index.counters.diff(before)
    nanos = cost_model.simulated_nanos(work)
    index.validate()
    return {
        "scenario": scenario,
        "policy": type(policy).__name__,
        "ops": int(ops),
        "sim_mops": round(ops / nanos * 1e3, 4) if nanos > 0 else float("inf"),
        "sim_ns_per_op": round(nanos / ops, 2) if ops else 0.0,
        "final_keys": len(index),
        "leaves": index.num_leaves(),
        "depth": index.depth(),
        "index_bytes": index.index_size_bytes(),
        "data_bytes": index.data_size_bytes(),
        "smo_counts": dict(policy.smo_counts),
        "work": {
            "expansions": work.expansions,
            "contractions": work.contractions,
            "splits": work.splits,
            "merges": work.merges,
            "retrains": work.retrains,
            "shifts": work.shifts,
            "probes": work.probes,
        },
    }


__all__ = [
    "SCENARIOS",
    "build_trace",
    "grow_then_shrink_trace",
    "replay_trace",
    "run_adaptation_scenario",
    "shifting_hotspot_trace",
]
