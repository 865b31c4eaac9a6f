"""Cost model: converts operation counters into simulated time.

Pure-Python wall-clock numbers are dominated by interpreter overhead, so
throughput comparisons here weight the *algorithmic* work recorded in
:class:`repro.core.stats.Counters` with per-operation latencies typical of
the paper's hardware (Intel Core i9, Section 5.1): ALU-speed comparisons
and shifts, a couple of nanoseconds per linear-model inference, and tens of
nanoseconds for a pointer follow that likely misses cache.  The default
weights reproduce the paper's order-of-magnitude ratios; every weight is
a constructor parameter so sensitivity can be tested
(``benchmarks/bench_ablations.py`` does).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import Counters


@dataclass(frozen=True)
class CostModel:
    """Per-event simulated latencies in nanoseconds."""

    comparison_ns: float = 1.0
    shift_ns: float = 1.0
    gap_fill_ns: float = 0.5
    model_inference_ns: float = 2.0
    pointer_follow_ns: float = 30.0
    probe_ns: float = 5.0
    rebalance_move_ns: float = 1.0
    build_move_ns: float = 1.5
    payload_byte_ns: float = 0.125
    bitmap_word_ns: float = 2.0
    expansion_ns: float = 200.0
    contraction_ns: float = 200.0
    split_ns: float = 500.0
    retrain_ns: float = 100.0
    merge_ns: float = 500.0

    def simulated_nanos(self, work: Counters) -> float:
        """Total simulated nanoseconds for the recorded work."""
        return (
            work.comparisons * self.comparison_ns
            + work.shifts * self.shift_ns
            + work.gap_fill_writes * self.gap_fill_ns
            + work.model_inferences * self.model_inference_ns
            + work.pointer_follows * self.pointer_follow_ns
            + work.probes * self.probe_ns
            + work.rebalance_moves * self.rebalance_move_ns
            + work.build_moves * self.build_move_ns
            + work.payload_bytes_copied * self.payload_byte_ns
            + work.bitmap_words_scanned * self.bitmap_word_ns
            + work.expansions * self.expansion_ns
            + work.contractions * self.contraction_ns
            + work.splits * self.split_ns
            + work.retrains * self.retrain_ns
            + work.merges * self.merge_ns
        )

    def simulated_seconds(self, work: Counters) -> float:
        """Simulated seconds (throughput's denominator)."""
        return self.simulated_nanos(work) / 1e9

    def throughput(self, ops: int, work: Counters) -> float:
        """Operations per simulated second (the paper's primary metric;
        "throughput includes model retraining time" — retraining and
        expansion work is in the counters, so it is included here too)."""
        nanos = self.simulated_nanos(work)
        if nanos <= 0:
            return float("inf")
        return ops / (nanos / 1e9)

    def nanos_per_op(self, ops: int, work: Counters) -> float:
        """Average simulated nanoseconds per operation."""
        if ops <= 0:
            return 0.0
        return self.simulated_nanos(work) / ops


DEFAULT_COST_MODEL = CostModel()
