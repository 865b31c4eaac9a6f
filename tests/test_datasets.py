"""Tests for the dataset generators and CDF analysis (Table 1, Appendix C)."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    cdf_step_score,
    cdf_window,
    empirical_cdf,
    linear_fit_error,
    load,
    local_nonlinearity,
    lognormal,
    longitudes,
    longlat,
    sequential,
    shifted_halves,
    ycsb,
)
from repro.datasets import generators

GENERATORS = [longitudes, longlat, lognormal, ycsb]


class TestGeneratorContracts:
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_exact_size_and_uniqueness(self, gen):
        keys = gen(1500, seed=0)
        assert len(keys) == 1500
        assert len(np.unique(keys)) == 1500

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_deterministic_per_seed(self, gen):
        a = gen(500, seed=7)
        b = gen(500, seed=7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_different_seeds_differ(self, gen):
        assert not np.array_equal(gen(500, seed=1), gen(500, seed=2))

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_shuffled_not_sorted(self, gen):
        keys = gen(1000, seed=0)
        assert not (np.diff(keys) > 0).all()

    def test_longitudes_in_range(self):
        keys = longitudes(1000, seed=0)
        assert keys.min() >= -180.0 and keys.max() <= 180.0

    def test_longlat_transformation_range(self):
        keys = longlat(1000, seed=0)
        assert keys.min() >= 180.0 * -180 - 90
        assert keys.max() <= 180.0 * 180 + 90

    def test_lognormal_positive_integers(self):
        keys = lognormal(1000, seed=0)
        assert (keys > 0).all()
        assert np.array_equal(keys, np.floor(keys))

    def test_ycsb_exactly_representable(self):
        keys = ycsb(1000, seed=0)
        assert (keys < 2.0 ** 53).all()
        assert np.array_equal(keys, np.floor(keys))

    def test_sequential_strictly_increasing(self):
        keys = sequential(100, start=5.0, step=2.0)
        assert keys[0] == 5.0
        assert (np.diff(keys) == 2.0).all()


class TestLoadRegistry:
    def test_load_by_name(self):
        for name in DATASETS:
            assert len(load(name, 200, seed=0)) == 200

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            load("nope", 10)

    def test_payload_sizes_match_table1(self):
        assert DATASETS["ycsb"].payload_size == 80
        assert DATASETS["longitudes"].payload_size == 8


class TestShiftedHalves:
    def test_disjoint_domains(self):
        first, second = shifted_halves(2000, seed=0)
        assert first.max() < second.min()

    def test_halves_are_shuffled(self):
        first, second = shifted_halves(2000, seed=0)
        assert not (np.diff(first) > 0).all()
        assert not (np.diff(second) > 0).all()


# ----------------------------------------------------------------------
# Reference: the whole-array generators the chunked ones must reproduce.
# Compared at run time rather than against pinned digests, because
# ``Generator`` streams may differ across the numpy versions supported.
# ----------------------------------------------------------------------


def _ref_dedupe_to_size(draw, size, rng):
    unique = np.empty(0, dtype=np.float64)
    want = size
    while len(unique) < size:
        batch = draw(rng, int(want * 1.1) + 16)
        unique = np.unique(np.concatenate([unique, batch]))
        want = size - len(unique) + 16
    out = unique[:size].copy()
    rng.shuffle(out)
    return out


def _ref_draw_locations(rng, n):
    clusters = generators._LONGITUDE_CLUSTERS
    weights = np.array([w for w, _, _ in clusters])
    choices = rng.choice(len(clusters), size=n, p=weights / weights.sum())
    means = np.array([m for _, m, _ in clusters])[choices]
    stds = np.array([s for _, _, s in clusters])[choices]
    longitude = np.clip(rng.normal(means, stds), -180.0, 180.0)
    latitude = np.clip(rng.normal(30.0, 25.0, size=n), -90.0, 90.0)
    return longitude, latitude


def _ref_longitudes(size, seed):
    return _ref_dedupe_to_size(
        lambda r, n: _ref_draw_locations(r, n)[0], size,
        np.random.default_rng(seed))


def _ref_longlat(size, seed):
    def draw(r, n):
        lon, lat = _ref_draw_locations(r, n)
        return 180.0 * np.round(lon) + lat
    return _ref_dedupe_to_size(draw, size, np.random.default_rng(seed))


def _ref_lognormal(size, seed):
    return _ref_dedupe_to_size(
        lambda r, n: np.floor(r.lognormal(0.0, 2.0, size=n) * 1_000_000_000.0),
        size, np.random.default_rng(seed))


def _ref_ycsb(size, seed):
    return _ref_dedupe_to_size(
        lambda r, n: np.floor(r.uniform(0.0, float(2 ** 53), size=n)),
        size, np.random.default_rng(seed))


def _ref_shifted_halves(size, seed):
    keys = np.sort(_ref_longitudes(size, seed))
    half = size // 2
    rng = np.random.default_rng(seed + 1)
    first = keys[:half].copy()
    second = keys[half:].copy()
    rng.shuffle(first)
    rng.shuffle(second)
    return first, second


REFERENCES = [(longitudes, _ref_longitudes), (longlat, _ref_longlat),
              (lognormal, _ref_lognormal), (ycsb, _ref_ycsb)]
CHUNK = generators._CHUNK
ORACLE_SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]


class TestSameKeysAsWholeArrayGenerators:
    @pytest.mark.parametrize("size", ORACLE_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("gen,ref", REFERENCES,
                             ids=[g.__name__ for g, _ in REFERENCES])
    def test_generator_matches_reference(self, gen, ref, seed, size):
        assert np.array_equal(gen(size, seed=seed), ref(size, seed))

    @pytest.mark.parametrize("size", ORACLE_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_shifted_halves_matches_reference(self, seed, size):
        first, second = shifted_halves(size, seed=seed)
        ref_first, ref_second = _ref_shifted_halves(size, seed)
        assert np.array_equal(first, ref_first)
        assert np.array_equal(second, ref_second)

    def test_duplicate_heavy_draw_over_several_rounds(self):
        size = 5000
        rounds = []

        def draw(r, n):
            rounds.append(n)
            return np.floor(r.uniform(0.0, 1.25 * size, size=n))

        def fill(r, out):
            out[:] = draw(r, len(out))

        expected = _ref_dedupe_to_size(draw, size, np.random.default_rng(3))
        ref_rounds = list(rounds)
        rounds.clear()
        got = generators._dedupe_to_size(fill, size,
                                         np.random.default_rng(3))
        assert len(ref_rounds) >= 2
        assert rounds == ref_rounds
        assert np.array_equal(got, expected)

    def test_benchmark_inputs_unchanged(self):
        # The sizes and seed the repository benchmark generates.
        assert np.array_equal(longitudes(2_200_000, seed=1),
                              _ref_longitudes(2_200_000, 1))
        assert np.array_equal(lognormal(1_000_000, seed=1),
                              _ref_lognormal(1_000_000, 1))


class TestGeneratorMemory:
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_transient_memory_at_most_two_and_a_half_outputs(self, gen):
        # numpy reports its buffers to tracemalloc, so this bound does not
        # depend on the allocator.
        gen(100, seed=0)
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            keys = gen(300_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not already:
                tracemalloc.stop()
        assert peak <= 2.5 * keys.nbytes


class TestCdfTools:
    def test_empirical_cdf_monotone(self):
        keys, cdf = empirical_cdf(longitudes(500, seed=0))
        assert (np.diff(keys) > 0).all()
        assert cdf[0] > 0 and cdf[-1] == pytest.approx(1.0)

    def test_cdf_window_slices(self):
        keys = np.sort(longitudes(1000, seed=0))
        wkeys, wcdf = cdf_window(keys, 0.5, 0.1)
        assert len(wkeys) == pytest.approx(100, abs=2)
        assert 0.4 < wcdf[0] < 0.6

    def test_linear_fit_error_zero_for_uniform(self):
        assert linear_fit_error(np.arange(1000.0)) == pytest.approx(0.0, abs=1e-9)

    def test_longlat_locally_harder_than_longitudes(self):
        # The property Figure 14 illustrates and Section 5.2.1 relies on:
        # longlat's CDF is step-like at small scales.
        lon = longitudes(4000, seed=0)
        ll = longlat(4000, seed=0)
        assert local_nonlinearity(ll) > local_nonlinearity(lon)
        assert cdf_step_score(ll) > cdf_step_score(lon)

    def test_ycsb_easiest_to_model(self):
        # Uniform keys: globally near-linear CDF.
        assert linear_fit_error(ycsb(4000, seed=0)) < linear_fit_error(
            lognormal(4000, seed=0))

    def test_empty_inputs(self):
        keys, cdf = empirical_cdf(np.empty(0))
        assert len(keys) == 0 and len(cdf) == 0
        assert linear_fit_error(np.empty(0)) == 0.0
