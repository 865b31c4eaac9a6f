"""Synthetic versions of the paper's four datasets (Table 1, Appendix C).

The paper's experiments use 190M–1B keys from OpenStreetMaps, a lognormal
distribution, and the YCSB key generator.  We cannot ship OSM extracts, so
the geographic datasets are replaced by synthetic generators that reproduce
the property the paper's analysis hinges on: the *shape of the CDF*
(globally smooth vs. locally step-like — Figures 13 and 14).  Every
generator takes an explicit ``size`` and ``seed`` so experiments scale down
deterministically.

Datasets (all duplicate-free, float64):

* ``longitudes`` — longitudes of world locations.  Real OSM longitudes
  cluster around populated areas; we draw from a fixed mixture of Gaussians
  (population centres) over [-180, 180], which yields the same smooth but
  non-uniform CDF.
* ``longlat`` — compound keys ``k = 180 * round(longitude) + latitude``
  applied to the synthetic locations, exactly the paper's transformation,
  reproducing the step-function CDF that makes this dataset hard to model.
* ``lognormal`` — lognormal(0, 2) scaled by 1e9 and floored to integers
  (the paper's recipe verbatim).
* ``ycsb`` — uniform integer user IDs.  The paper uses 64-bit IDs; we bound
  them by 2**53 so they are exactly representable as float64.

Two promises hold for every generator:

* **Bounded memory.**  Random values are drawn in fixed-size slices into
  one output buffer and transformed in place, so a generator's transient
  memory is at most about 2.5x its output's ``nbytes`` (the buffer with
  ~10% headroom, a one-byte-per-key mask, and the compacted keys).
* **Stable keys.**  Every ``(size, seed)`` returns exactly the keys the
  earlier whole-array implementation returned: the slices make the same
  ``Generator`` calls in the same order, and the slice length changes no
  value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

#: Gaussian mixture (weight, mean longitude, std) loosely matching world
#: population density; only the smooth-but-nonuniform CDF shape matters.
_LONGITUDE_CLUSTERS = (
    (0.30, 78.0, 25.0),    # South / East Asia
    (0.25, 10.0, 18.0),    # Europe / Africa
    (0.20, -85.0, 20.0),   # Americas (east)
    (0.10, -120.0, 12.0),  # Americas (west)
    (0.10, 120.0, 15.0),   # East Asia / Oceania
    (0.05, 35.0, 30.0),    # Middle East / Central Asia
)

_YCSB_KEY_BOUND = float(2 ** 53)

# The cluster table as the arrays ``_draw_locations`` indexes.
_WEIGHTS = np.array([w for w, _, _ in _LONGITUDE_CLUSTERS])
_CLUSTER_P = _WEIGHTS / _WEIGHTS.sum()
_MEANS = np.array([m for _, m, _ in _LONGITUDE_CLUSTERS])
_STDS = np.array([s for _, _, s in _LONGITUDE_CLUSTERS])

#: Values per random draw: each generator fills its output in slices of
#: this length, so its temporaries stay a fixed size whatever ``size`` is.
_CHUNK = 1 << 13


def _chunks(n: int):
    """Consecutive slices of ``range(n)``, each at most ``_CHUNK`` long."""
    for start in range(0, n, _CHUNK):
        yield slice(start, min(start + _CHUNK, n))


def _nth_true(mask: np.ndarray, n: int) -> int:
    """Index of the ``n``-th (from 0) true entry of ``mask``, which has
    more than ``n``; counted by slices, so no index array is made."""
    seen = 0
    for part in _chunks(len(mask)):
        count = np.count_nonzero(mask[part])
        if seen + count > n:
            return part.start + int(np.flatnonzero(mask[part])[n - seen])
        seen += count
    raise ValueError(f"mask has only {seen} true entries")


def _dedupe_to_size(fill: Callable[[np.random.Generator, np.ndarray], None],
                    size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw batches until ``size`` unique values are collected.

    ``fill(rng, out)`` overwrites ``out`` with one batch.  The result is the
    ``size`` smallest distinct values drawn, shuffled.  The paper's datasets
    contain no duplicates; drawing ~10% extra per round converges in one or
    two rounds for every generator here.
    """
    keys = np.empty(0, dtype=np.float64)
    want = size
    while len(keys) < size:
        have = len(keys)
        grown = np.empty(have + int(want * 1.1) + 16, dtype=np.float64)
        grown[:have] = keys
        del keys
        fill(rng, grown[have:])
        grown.sort()
        first = np.empty(len(grown), dtype=bool)
        first[0] = True
        np.not_equal(grown[1:], grown[:-1], out=first[1:])
        if np.count_nonzero(first) > size:
            # Keep the ``size`` smallest by trimming the mask.  A trimmed
            # copy would be one more output-sized allocation, and glibc
            # puts it on the heap once the freed batch has raised its
            # mmap threshold: 15 MB more peak RSS on embedded_write_heavy.
            first[_nth_true(first, size):] = False
        keys = grown[first]
        del grown, first
        want = size - len(keys) + 16
    rng.shuffle(keys)
    return keys


def _draw_locations(rng: np.random.Generator, longitude: np.ndarray,
                    fold_latitude: bool) -> None:
    """Synthetic world locations: clustered longitudes, banded latitudes.

    Fills ``longitude`` in place, then draws one latitude per location:
    with ``fold_latitude`` each key becomes ``180 * round(lon) + lat``,
    otherwise the latitudes are drawn only to advance ``rng`` past them.
    The draws come in the order of whole-array calls (every cluster
    choice, then every longitude, then every latitude), so the keys do
    not depend on ``_CHUNK``.
    """
    n = len(longitude)
    cluster = np.empty(n, dtype=np.uint8)
    for part in _chunks(n):
        cluster[part] = rng.choice(len(_CLUSTER_P), size=part.stop - part.start,
                                   p=_CLUSTER_P)
    for part in _chunks(n):
        lon = longitude[part]
        np.take(_MEANS, cluster[part], out=lon)
        lon[:] = rng.normal(lon, _STDS[cluster[part]])
        np.clip(lon, -180.0, 180.0, out=lon)
    del cluster
    for part in _chunks(n):
        # Latitudes concentrate in the temperate band.
        latitude = rng.normal(30.0, 25.0, size=part.stop - part.start)
        np.clip(latitude, -90.0, 90.0, out=latitude)
        if fold_latitude:
            lon = longitude[part]
            np.round(lon, out=lon)
            lon *= 180.0
            lon += latitude


def longitudes(size: int, seed: int = 0) -> np.ndarray:
    """Longitude keys: smooth, globally non-uniform CDF (Fig. 13/14 left)."""
    rng = np.random.default_rng(seed)
    return _dedupe_to_size(
        lambda r, out: _draw_locations(r, out, fold_latitude=False), size, rng)


def longlat(size: int, seed: int = 0) -> np.ndarray:
    """Compound longitude-latitude keys: locally step-like CDF (Fig. 14
    right), the paper's hardest-to-model dataset."""
    rng = np.random.default_rng(seed)
    return _dedupe_to_size(
        lambda r, out: _draw_locations(r, out, fold_latitude=True), size, rng)


def lognormal(size: int, seed: int = 0, mu: float = 0.0,
              sigma: float = 2.0) -> np.ndarray:
    """Lognormal integer keys: highly skewed (paper Appendix C recipe:
    lognormal(0, 2) * 1e9, floored)."""
    rng = np.random.default_rng(seed)

    def fill(r: np.random.Generator, out: np.ndarray) -> None:
        for part in _chunks(len(out)):
            keys = out[part]
            keys[:] = r.lognormal(mu, sigma, size=len(keys))
            keys *= 1_000_000_000.0
            np.floor(keys, out=keys)

    return _dedupe_to_size(fill, size, rng)


def ycsb(size: int, seed: int = 0) -> np.ndarray:
    """Uniform integer user IDs (YCSB), bounded by 2**53 for float64
    exactness."""
    rng = np.random.default_rng(seed)

    def fill(r: np.random.Generator, out: np.ndarray) -> None:
        for part in _chunks(len(out)):
            keys = out[part]
            keys[:] = r.uniform(0.0, _YCSB_KEY_BOUND, size=len(keys))
            np.floor(keys, out=keys)

    return _dedupe_to_size(fill, size, rng)


def sequential(size: int, seed: int = 0, start: float = 0.0,
               step: float = 1.0) -> np.ndarray:
    """Strictly increasing keys — the adversarial insert pattern of
    Figure 5c (always lands in the right-most leaf)."""
    del seed  # deterministic by construction; parameter kept for uniformity
    return start + step * np.arange(size, dtype=np.float64)


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for one of the paper's datasets (Table 1)."""

    name: str
    generator: Callable[..., np.ndarray]
    key_type: str
    payload_size: int
    paper_num_keys: str


DATASETS: Dict[str, DatasetSpec] = {
    "longitudes": DatasetSpec("longitudes", longitudes, "double", 8, "1B"),
    "longlat": DatasetSpec("longlat", longlat, "double", 8, "200M"),
    "lognormal": DatasetSpec("lognormal", lognormal, "64-bit int", 8, "190M"),
    "ycsb": DatasetSpec("ycsb", ycsb, "64-bit int", 80, "200M"),
}


def load(name: str, size: int, seed: int = 0) -> np.ndarray:
    """Generate dataset ``name`` with ``size`` unique keys."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}"
        ) from None
    return spec.generator(size, seed=seed)


def shifted_halves(size: int, seed: int = 0) -> tuple:
    """The Figure 5b distribution-shift construction on longitudes: sort
    the keys, shuffle each half independently, and return
    ``(first_half, second_half)`` — the init keys and the insert keys come
    from disjoint key domains."""
    keys = longitudes(size, seed=seed)
    keys.sort()
    half = size // 2
    rng = np.random.default_rng(seed + 1)
    first = keys[:half].copy()
    second = keys[half:].copy()
    rng.shuffle(first)
    rng.shuffle(second)
    return first, second
