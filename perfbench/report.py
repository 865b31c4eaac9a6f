"""What one run reports: metrics with units and sample counts, the
attempted/failed tally, and correctness findings."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import timing

#: How many wrong results a run lists before it only counts them.
MAX_LISTED_ERRORS = 20

#: Consecutive windows a gated percentile or rate is the median over:
#: an episode of host noise that spoils one window moves no metric.
WINDOWS = 4


class Report:
    """Collects one run's metrics and correctness findings."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Tuple[float, str, Optional[int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: List[str] = []
        self.stamp: Dict[str, object] = {}

    def add(self, name: str, value: float, unit: str,
            n: Optional[int] = None) -> None:
        self.metrics[name] = (float(value), unit, n)

    def latency(self, prefix: str, values_ns,
                windows: int = WINDOWS) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` of nanosecond
        samples, each the median over ``windows`` consecutive slices of
        that slice's percentile.  Every slice must have enough samples
        beyond its p99 (a tail read from a handful of samples is a
        guess).  With ``windows=0`` both are read from all samples,
        supported or not, and the line also shows the supported tail."""
        n = len(values_ns)
        if n == 0:
            raise RuntimeError(f"no {prefix} samples")
        if windows:
            try:
                p50 = timing.windowed_percentile(values_ns, 50.0, windows)
                p99 = timing.windowed_percentile(values_ns, 99.0, windows)
            except ValueError as exc:
                raise RuntimeError(f"{prefix}: {exc}") from None
        else:
            p50 = timing.percentile(values_ns, 50.0)
            p99 = timing.percentile(values_ns, 99.0)
            tail = timing.tail_percentile(n)
            if tail is not None and tail < 99.0:
                self.add(f"{prefix}_p{tail:g}_ms",
                         timing.percentile(values_ns, tail) / 1e6, "ms", n)
        self.add(f"{prefix}_p50_ms", p50 / 1e6, "ms", n)
        self.add(f"{prefix}_p99_ms", p99 / 1e6, "ms", n)

    def wrong_result(self, message: str) -> None:
        self.wrong += 1
        if len(self.errors) < MAX_LISTED_ERRORS:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def value(self, name: str) -> float:
        return self.metrics[name][0]

    def lines(self) -> List[str]:
        """Human-readable lines: one per metric, with unit and count."""
        out = []
        for name, (value, unit, n) in self.metrics.items():
            count = "" if n is None else f"  (n={n})"
            out.append(f"{self.workload}  {name} = {value:.6g} {unit}{count}")
        for error in self.errors:
            out.append(f"{self.workload}  WRONG: {error}")
        return out

    def final_json(self, names) -> str:
        """The last stdout line: exactly the requested metric names."""
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed + self.wrong),
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in names},
        })
