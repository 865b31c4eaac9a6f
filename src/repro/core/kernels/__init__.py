"""Pluggable compiled kernels for the innermost hot loops.

The honest batch-vs-scalar ratio of the pure-NumPy engine is ~1.4x
(BENCH_batch.json): interpreter dispatch, not memory bandwidth, is the
ceiling on every read and write.  This package moves the loops the
profile is made of — (1) linear-model predict + clamp, (2) lock-step
exponential/binary search over leaf key arrays, (3) the gapped-array /
PMA shift-and-insert, (4) the leaf build every bulk load, expansion,
contraction, retrain, split and merge runs (Algorithm 3): the CDF model
fit plus the model-based placement, for all the leaves of one build in
one call, (5) the typing of a bulk load's payload list into a numeric
column, (6) the plan of Algorithm 4's adaptive RMI, the whole
recursion in one call, and (7) the partition of a sharded bulk load's
``(key, payload)`` pairs into the shards' key ranges — behind one
narrow kernel interface with two implementations:

``numpy``
    The existing pure-NumPy/pure-Python code, extracted verbatim.  Always
    available; the reference the compiled backend is property-tested
    against.
``cffi``
    The same loops as C compiled on first use with the system C compiler
    (via :mod:`cffi`) and cached on disk keyed by a source hash.  CFFI
    releases the GIL around every call, so these kernels let the thread
    backend scale on cores.  When cffi or a C compiler is missing the
    resolver degrades to ``numpy`` with a one-time warning.

Selection is per-index via ``CoreConfig.kernel_backend``
(:class:`repro.core.config.AlexConfig`), defaulting to the
``REPRO_KERNEL_BACKEND`` environment variable (or ``numpy``).  Backends
are process-wide singletons: resolving the same name twice returns the
same object, and compilation happens at most once per process (serving
workers call :meth:`KernelBackend.warm` at provisioning so no compile
ever runs on the request path).

Every kernel returns its work tallies (search probes, gap-fill writes)
instead of touching :class:`~repro.core.stats.Counters` directly; the
caller charges them.  This keeps the accounting *identical* across
backends — the scalar/batch equivalence suites run against each backend
and assert bit-equal results and counter totals.

The model fit is defined with strictly sequential float64 sums (no
pairwise mean, no BLAS ``dot``), and the C side is compiled without
multiply-add contraction, so both backends produce the same model bits
and therefore the same leaf layouts on any CPU.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs

#: Recognized ``kernel_backend`` spellings.
BACKEND_NAMES = ("numpy", "cffi")


#: What :meth:`KernelBackend.plan_adaptive` raises (``ValueError``) when
#: a run it must split has a fanout below one.
FANOUT_ERROR = "an inner node needs a fanout of at least 1"


class AdaptivePlan(NamedTuple):
    """Algorithm 4's plan of an adaptive RMI, as
    :meth:`KernelBackend.plan_adaptive` returns it.

    Leaves are numbered in key order: leaf ``j``'s run starts at
    ``starts[j]`` and ends where the next one starts (the last at
    ``len(keys)``).  Inner nodes are numbered in pre-order, so node 0 is
    the root whenever there is an inner node at all, and every child
    comes after its parent.  Node ``i`` has the model ``(slopes[i],
    intercepts[i])`` and the slots ``children[offsets[i]:offsets[i +
    1]]``; a slot holds a leaf number (``>= 0``) or ``~k`` (``< 0``) for
    inner node ``k``.  With no inner node the tree is leaf 0 alone.
    ``retrains`` counts the model fits the plan made.
    """

    starts: np.ndarray      # int64, one per leaf
    slopes: np.ndarray      # float64, one per inner node
    intercepts: np.ndarray  # float64, one per inner node
    offsets: np.ndarray     # int64, one per inner node plus one
    children: np.ndarray    # int64, one per slot
    retrains: int


class KernelBackend:
    """Interface every kernel backend implements.

    All ``keys`` arrays are the full, contiguous, gap-filled float64 key
    array of one node (non-decreasing end to end); ``occupied`` is the
    node's boolean occupancy bitmap; ``targets`` is a contiguous float64
    array.  ``has_model`` selects model-hinted exponential search versus
    the cold-start plain binary search over the whole array.  Charges are
    returned, never applied: ``search_charge`` feeds both ``comparisons``
    and ``probes``, ``resolve_probes`` and gap-fill counts feed their
    single counter.
    """

    #: Backend name as selected through ``CoreConfig.kernel_backend``.
    name: str = "?"
    #: Whether the backend runs machine code rather than interpreter loops.
    compiled: bool = False

    # -- lifecycle ----------------------------------------------------

    def warm(self) -> None:
        """Force all one-time compilation/loading now (no-op for numpy).

        Long-lived serving workers call this at provisioning so
        compilation is paid before the first request, never on it.
        """

    def compile_events(self) -> int:
        """Number of compile/load events this backend has performed in
        this process (monotone; the warmup tests assert it stays flat
        across the request path)."""
        return 0

    # -- kernel 1: linear-model predict + clamp -----------------------

    def predict_clamp(self, slope: float, intercept: float,
                      keys: np.ndarray, size: int) -> np.ndarray:
        """Vectorized ``predict_pos``: ``slope * keys + intercept``
        floored and clamped into ``[0, size - 1]`` (non-finite → edge),
        as an int64 array."""
        raise NotImplementedError

    # -- kernel 2: lock-step exponential/binary search ----------------

    def find_insert_pos(self, keys: np.ndarray, target: float,
                        has_model: bool, slope: float,
                        intercept: float) -> Tuple[int, int]:
        """Scalar lower-bound position for ``target`` plus the search
        charge (model-hinted exponential search, or plain binary search
        when ``has_model`` is false)."""
        raise NotImplementedError

    def find_key(self, keys: np.ndarray, occupied: np.ndarray,
                 target: float, has_model: bool, slope: float,
                 intercept: float) -> Tuple[int, int, int]:
        """Scalar occupied-slot resolution: ``(pos, search_charge,
        resolve_probes)`` where ``pos`` is the occupied slot holding
        ``target`` or -1."""
        raise NotImplementedError

    def find_insert_pos_many(self, keys: np.ndarray, targets: np.ndarray,
                             has_model: bool, slope: float,
                             intercept: float) -> Tuple[np.ndarray, int]:
        """Batch :meth:`find_insert_pos`: ``(positions, search_charge)``
        with positions identical to a loop over the scalar routine and
        the charge equal to the per-lane total."""
        raise NotImplementedError

    def find_keys_many(self, keys: np.ndarray, occupied: np.ndarray,
                       targets: np.ndarray, has_model: bool, slope: float,
                       intercept: float) -> Tuple[np.ndarray, int, int]:
        """Batch :meth:`find_key`: ``(positions, search_charge,
        resolve_probes)`` (-1 where absent)."""
        raise NotImplementedError

    # -- kernel 3: gapped-array / PMA shift-and-insert ----------------

    def closest_gaps(self, occupied: np.ndarray, pos: int, lo: int,
                     hi: int) -> Tuple[int, int]:
        """``(left_gap, right_gap)`` nearest to ``pos`` within
        ``[lo, hi)`` (-1 / ``hi`` when absent); ``pos`` itself excluded
        on the left side, included on the right."""
        raise NotImplementedError

    def shift_right(self, keys: np.ndarray, occupied: np.ndarray,
                    ip: int, gap: int) -> None:
        """Move the occupied key run ``[ip, gap)`` one slot right into
        the gap at ``gap`` (bitmap updated; payloads are the caller's)."""
        raise NotImplementedError

    def shift_left(self, keys: np.ndarray, occupied: np.ndarray,
                   gap: int, ip: int) -> None:
        """Move the occupied key run ``(gap, ip)`` one slot left into the
        gap at ``gap``, freeing slot ``ip - 1``."""
        raise NotImplementedError

    def place_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, key: float) -> int:
        """Write ``key`` into free slot ``pos`` and rewrite the gap run
        to its left with ``key`` (the gap-mirror invariant).  Returns the
        number of gap-fill writes."""
        raise NotImplementedError

    def erase_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, right_key: float) -> int:
        """Clear slot ``pos`` and rewrite the now-extended gap run ending
        at ``pos`` with ``right_key``.  Returns the number of gap-fill
        writes (always >= 1: slot ``pos`` itself is rewritten)."""
        raise NotImplementedError

    # -- kernel 4: model fit + model-based placement (leaf build) -----

    def fit_cdf(self, keys: np.ndarray, size: int) -> Tuple[float, float]:
        """``(slope, intercept)`` of the least-squares line through the
        points ``(keys[i], i * (size / n))``: the CDF model of sorted
        ``keys`` scaled onto ``[0, size)``.

        Every sum runs sequentially in key order, so both backends give
        the exact bits of :meth:`LinearModel.train_cdf
        <repro.core.linear_model.LinearModel.train_cdf>`.  No keys, equal
        keys, or a non-finite centred sum of squares or slope give the
        flat model ``(0, mean rank)``.
        """
        raise NotImplementedError

    def fit_place(self, keys: np.ndarray, bounds: np.ndarray,
                  capacities: np.ndarray, min_keys_for_model: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray, int]:
        """Algorithm 3's build of many leaves in one call.

        Segment ``j`` is ``keys[bounds[j]:bounds[j + 1]]`` (sorted; the
        bounds run from 0 to ``len(keys)``) placed into
        ``capacities[j]`` slots.  A segment of at least
        ``min_keys_for_model`` keys gets the :meth:`fit_cdf` model over
        its capacity; a smaller one gets no model (slope and intercept
        0) and the uniform spread ``(i * capacity) // n``.  Key ``i``
        goes to ``max(predicted, previous slot + 1)``, capped at
        ``capacity - n + i`` so the remaining keys still fit; the
        prediction is :meth:`predict_clamp`'s.

        Returns ``(slot_keys, occupied, slopes, intercepts, fills)``:
        the segments' gap-filled key arrays (each gap mirrors its nearest
        real right neighbour, trailing gaps hold ``+inf``) and bitmaps
        concatenated at offsets ``cumsum(capacities)``, the per-segment
        model parameters, and the total number of gap slots written.
        Slots are strictly increasing in key order, so key ``i`` of a
        segment sits at the segment's ``i``-th set bit; no per-key
        position array is returned (it would add eight bytes per key at
        the build's memory peak).
        """
        raise NotImplementedError

    # -- kernel 5: payload typing (bulk load) -------------------------

    def type_payloads(self, values) -> Optional[np.ndarray]:
        """``values`` as an ``int64`` or ``float64`` column whose
        ``tolist()`` restores every value exactly, or ``None``.

        The exact-kind rule: only a non-empty ``list`` of Python ``int``
        only, each in int64 range, becomes an ``int64`` column, and only
        one of Python ``float`` only a ``float64`` column (bit for bit:
        ``-0.0`` and NaN payloads included).  ``bool``, numpy scalars,
        ``float`` subclasses, a mix of ``1`` and ``1.0``, an int outside
        int64, an empty list and any sequence that is not a list give
        ``None``.
        """
        raise NotImplementedError

    # -- kernel 6: Algorithm 4's plan (adaptive RMI) ------------------

    def plan_adaptive(self, keys: np.ndarray, root_fanout: int,
                      inner_fanout: int, max_keys: int,
                      max_depth: int) -> AdaptivePlan:
        """Algorithm 4 over sorted ``keys``: the shape of the adaptive
        RMI, not yet its nodes.

        A run of at most ``max_keys`` keys, or one at depth
        ``max_depth``, is a leaf.  A larger run becomes an inner node:
        the :meth:`fit_cdf` model over ``root_fanout`` slots at the root
        (read only when ``len(keys) > max_keys``) and ``inner_fanout``
        below it partitions the run through :meth:`predict_clamp`.  When
        every key lands in one partition the run is a leaf after all
        (the model cannot split it).  Otherwise each partition of more
        than ``max_keys`` keys recurses one level deeper, and each
        smaller one is merged with its successors while the merged run
        stays within ``max_keys``; every slot of a merged run points at
        the same leaf.  A run to split with a fanout below one raises
        :class:`ValueError`.
        """
        raise NotImplementedError

    # -- kernel 7: shard partition (sharded bulk load) ----------------

    def partition_pairs(self, keys: np.ndarray, column: np.ndarray,
                        boundaries: np.ndarray) -> np.ndarray:
        """Move the pairs ``(keys[i], column[i])`` in place so that the
        keys of shard ``s``, the range ``[boundaries[s - 1],
        boundaries[s])`` (unbounded at both ends), are contiguous and the
        shards follow each other in order; a key equal to a boundary
        goes right, as in :meth:`ShardRouter.shard_for_many
        <repro.serve.router.ShardRouter.shard_for_many>`, and NaN goes to
        the last shard.  Returns the ``int64`` key count of every shard.

        ``keys`` is a writeable contiguous ``float64`` array and
        ``column`` a writeable contiguous array of 8-byte slots of the
        same length (``int64``, ``float64`` or ``object``: an object
        column's pointers move without any reference count changing, so
        the caller must own it).  The order within a shard is the
        backend's own: a stable one on numpy, Hoare's on cffi.
        """
        raise NotImplementedError


def check_pairs(keys: np.ndarray, column: np.ndarray,
                boundaries) -> np.ndarray:
    """Validate :meth:`KernelBackend.partition_pairs`'s arguments.

    Returns the boundaries as a contiguous ``float64`` array; raises
    :class:`ValueError` when an array cannot be moved in place or the
    boundaries are not finite and strictly increasing.
    """
    for name, array in (("keys", keys), ("column", column)):
        if (not isinstance(array, np.ndarray) or array.ndim != 1
                or array.dtype.itemsize != 8
                or not array.flags.c_contiguous
                or not array.flags.writeable):
            raise ValueError(f"{name} must be a writeable contiguous 1-D "
                             f"array of 8-byte items")
    if keys.dtype != np.float64 or len(column) != len(keys):
        raise ValueError("keys must be float64 and as long as the column")
    boundaries = np.ascontiguousarray(boundaries, dtype=np.float64)
    if (boundaries.ndim != 1 or not np.isfinite(boundaries).all()
            or not (boundaries[1:] > boundaries[:-1]).all()):
        raise ValueError("boundaries must be finite and strictly "
                         "increasing")
    return boundaries


def check_segments(keys: np.ndarray, bounds, capacities
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
    """Validate :meth:`KernelBackend.fit_place`'s arguments.

    Returns contiguous ``(keys, bounds, capacities, offsets)`` with
    ``offsets = [0, cumsum(capacities)]``; raises :class:`ValueError`
    when the bounds do not cover ``keys`` in order or a segment has
    more keys than slots.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    bounds = np.ascontiguousarray(bounds, dtype=np.int64)
    capacities = np.ascontiguousarray(capacities, dtype=np.int64)
    if (bounds.ndim != 1 or len(bounds) != len(capacities) + 1
            or bounds[0] != 0 or bounds[-1] != len(keys)):
        raise ValueError("segment bounds must run from 0 to len(keys) "
                         "with one more entry than capacities")
    sizes = np.diff(bounds)
    if (sizes < 0).any():
        raise ValueError("segment bounds must be non-decreasing")
    if (sizes > capacities).any():
        raise ValueError("a segment has more keys than slots")
    offsets = np.zeros(len(bounds), dtype=np.int64)
    np.cumsum(capacities, out=offsets[1:])
    return keys, bounds, capacities, offsets


# ----------------------------------------------------------------------
# Registry / resolution
# ----------------------------------------------------------------------

_CACHE: Dict[str, KernelBackend] = {}
_WARNED: set = set()
_DEFAULT_ENV = "REPRO_KERNEL_BACKEND"


def default_backend_name() -> str:
    """The process-default backend name (``$REPRO_KERNEL_BACKEND`` or
    ``numpy``) — what ``CoreConfig`` uses when not set explicitly."""
    return os.environ.get(_DEFAULT_ENV, "numpy")


def _numpy() -> KernelBackend:
    if "numpy" not in _CACHE:
        from .numpy_backend import NumpyKernels
        _CACHE["numpy"] = NumpyKernels()
    return _CACHE["numpy"]


def _try_cffi(warn: bool = True) -> Optional[KernelBackend]:
    if "cffi" in _CACHE:
        return _CACHE["cffi"]
    try:
        from .cffi_backend import CffiKernels
        backend: KernelBackend = CffiKernels()
    except Exception as exc:  # no cffi, no compiler, compile failure
        if warn and "cffi" not in _WARNED:
            _WARNED.add("cffi")
            warnings.warn("cffi kernel backend unavailable "
                          f"({exc!r}); falling back to numpy kernels",
                          RuntimeWarning, stacklevel=3)
        return None
    _CACHE["cffi"] = backend
    return backend


def check_backend_name(name: str) -> str:
    """Return ``name`` if it is one of :data:`BACKEND_NAMES`; otherwise
    raise :class:`ValueError` naming the valid choices."""
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown kernel backend {name!r}; "
                         f"choose one of {BACKEND_NAMES}")
    return name


def get_kernels(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend name to its process-wide singleton.

    ``"cffi"`` degrades gracefully to the numpy fallback (with a
    one-time :class:`RuntimeWarning`) when cffi or a C compiler is
    absent, so selecting the compiled backend is always safe.
    """
    name = check_backend_name(name or default_backend_name())
    backend = _numpy() if name == "numpy" else _try_cffi() or _numpy()
    obs.inc("kernel.dispatch." + backend.name)
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names that resolve to a *distinct, working* backend right now
    (``numpy`` always; ``cffi`` when its toolchain works).  The test
    matrices parameterize over this.  Probing is silent: nothing falls
    back here, and the one-time warning stays with the first explicit
    selection that does."""
    if _try_cffi(warn=False) is None:
        return ("numpy",)
    return BACKEND_NAMES


def clear_cache() -> None:
    """Drop resolved backends and warning dedup state (test hook: the
    cffi-absent fallback test re-resolves after monkeypatching the
    import machinery)."""
    _CACHE.clear()
    _WARNED.clear()


def describe_runtime() -> dict:
    """Self-describing kernel metadata for bench artifacts: what could
    run here and what versions were involved."""
    try:
        import cffi
        cffi_version: Optional[str] = cffi.__version__
    except Exception:
        cffi_version = None
    return {
        "default_kernel_backend": default_backend_name(),
        "available_kernel_backends": list(available_backends()),
        "cffi_version": cffi_version,
        "numpy_version": np.__version__,
    }
