"""Tests for the benchmark's own helpers: the percentile and sample-count
rule, windowed percentiles and rates, open-loop lateness accounting,
self-time subtraction over nested intervals, and the catalog loaded
from ``BENCHMARK.json``."""

import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import catalog  # noqa: E402
import loadgen  # noqa: E402
import timing   # noqa: E402


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert timing.percentile(values, 50) == 50
        assert timing.percentile(values, 99) == 99
        assert timing.percentile(values, 100) == 100
        assert timing.percentile([7.0], 99) == 7.0

    def test_support_needs_ten_samples_beyond(self):
        assert timing.beyond_count(1000, 99) == 10
        assert timing.supported(1000, 99)
        assert not timing.supported(999, 99)
        assert timing.supported(20, 50)
        assert not timing.supported(19, 50)

    def test_tail_is_highest_supported_rung(self):
        assert timing.tail_percentile(19) is None
        assert timing.tail_percentile(100) == 90.0
        assert timing.tail_percentile(1000) == 99.0
        assert timing.tail_percentile(9999) == 99.0
        assert timing.tail_percentile(10000) == 99.9

    def test_quartiles_match_statistics(self):
        q1, q2, q3 = timing.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert (q1, q2, q3) == (2.75, 5.5, 8.25)
        assert timing.quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert timing.relative_spread([10, 10, 10, 10]) == 0.0


class TestWindows:
    def test_one_stalled_window_does_not_move_the_tail(self):
        rng = np.random.default_rng(0)
        calm = [rng.uniform(1.0, 2.0, 1000) for _ in range(3)]
        stalled = rng.uniform(1.0, 2.0, 1000)
        stalled[:50] = 100.0
        values = np.concatenate([calm[0], stalled, calm[1], calm[2]])
        assert timing.percentile(values, 99) == 100.0
        assert timing.windowed_percentile(values, 99, 4) < 2.0

    def test_unsupported_window_is_refused(self):
        with pytest.raises(ValueError):
            timing.windowed_percentile(np.arange(3000), 99, 4)

    def test_windowed_rate_is_the_median_window(self):
        # 10 events/s in three windows, a stall (no events) in one.
        times = [t for t in np.arange(0.0, 4.0, 0.1) if not 1.0 <= t < 2.0]
        assert timing.windowed_rate(times, 0.0, 4.0, 4) == pytest.approx(10)
        assert timing.windowed_rate(times, 0.0, 4.0, 4, weight=3) == \
            pytest.approx(30)


class TestOpenLoop:
    def test_latency_counts_from_the_schedule(self):
        scheduled = np.array([0, 10, 20, 30])
        issued = np.array([0, 12, 20, 45])
        done = np.array([5, 25, 30, 50])
        ok = np.array([True, True, False, True])
        latency, lag = timing.open_loop_times(scheduled, issued, done, ok)
        assert latency.tolist() == [5, 15, 20]    # the failure has none
        assert lag.tolist() == [0, 2, 0, 15]

    def test_a_stall_delays_every_request_due_behind_it(self):
        scheduled = np.arange(0, 100, 10)
        # The server stalls until t=100, then answers everything at once.
        done = np.full(10, 100)
        latency, _ = timing.open_loop_times(scheduled, scheduled.copy(),
                                            done, np.ones(10, dtype=bool))
        assert latency.tolist() == list(range(100, 0, -10))

    def test_poisson_offsets_depend_only_on_the_seed(self):
        a = loadgen.poisson_offsets(np.random.default_rng(3), 500.0, 4.0)
        b = loadgen.poisson_offsets(np.random.default_rng(3), 500.0, 4.0)
        assert np.array_equal(a, b)
        assert a.max() < 4.0 and np.all(np.diff(a) > 0)
        assert 1800 < len(a) < 2200

    def test_closed_loop_refuses_to_run_out_of_requests(self):
        from concurrent.futures import Future

        def submit(i):
            done = Future()
            done.set_result(i)
            return done

        with pytest.raises(RuntimeError, match="before its"):
            loadgen.closed_loop(submit, 4, 5.0, capacity=100)
        run = loadgen.closed_loop(submit, 4, 0.02, capacity=10**5)
        assert run.issued > 0 and run.failed == 0


class TestSelfTime:
    def test_union_counts_overlap_once(self):
        spans = [(10, 30), (20, 40), (50, 60), (55, 58)]
        assert timing.union_length(spans) == 40
        assert timing.union_length(spans, 25, 55) == 20

    def test_nested_children(self):
        # Parent 0..100; child 10..40 holds a grandchild 20..30; child
        # 50..60; a child that starts inside and ends past the parent.
        children = [(10, 40), (20, 30), (50, 60), (90, 120)]
        assert timing.self_time((0, 100), children) == 100 - 30 - 10 - 10

    def test_self_times_match_children_by_thread(self):
        parents = [(1, 0, 100), (2, 0, 100), (1, 200, 300)]
        children = [(1, 10, 20), (2, 10, 60), (1, 250, 260), (1, 150, 160),
                    (3, 0, 300)]
        assert timing.self_times(parents, children) == [90, 50, 90]

    def test_parent_without_children_keeps_its_duration(self):
        assert timing.self_times([(7, 5, 9)], []) == [4]


class TestCatalog:
    def test_limits(self):
        doc = catalog.DOC
        names = ([w["name"] for w in doc["workloads"]]
                 + [m["name"] for m in doc["end_to_end"]]
                 + [m["name"] for m in doc["per_layer"]])
        assert len(names) == len(set(names))
        assert all(len(w["why"]) <= 200 for w in doc["workloads"])
        bounds = [m["bound"] for m in doc["end_to_end"]]
        assert all(0 < b <= 0.25 for b in bounds)
        assert {"name": "setup_s", "unit": "s", "better": "lower",
                "bound": max(bounds)} in doc["end_to_end"]

    def test_every_per_layer_metric_names_what_it_should_move(self):
        assert list(catalog.MOVES) == catalog.per_layer_names()
        workloads = set(catalog.WORKLOADS) | {"all"}
        for name, moves in catalog.MOVES.items():
            assert moves, name
            assert all(workload in workloads for _, workload in moves)
