"""C kernel backend: the hot loops compiled with the system C compiler.

The kernels — predict + clamp, exponential/binary search, shift-and-insert,
the leaf build (CDF model fit plus model-based placement, every
segment of a multi-leaf build in one call), the payload typing and the
plan of Algorithm 4's adaptive RMI — are the per-lane scalar
algorithms (identical control flow to the extracted NumPy reference, so
positions *and* counter charges match bit-for-bit; the placement runs
the sequential loop the reference vectorizes, and the fit runs the same
sequential sums as the reference's ``np.cumsum``, compiled with
``-ffp-contract=off`` so no product is fused into a multiply-add),
compiled through :mod:`cffi` in API mode.  The shard partition of a
sharded bulk load is a Hoare pass instead of the reference's stable
sort, so it matches the reference in every shard's pairs and count,
not in their order within a shard.  The extension is built once
per machine into a cache directory keyed by a hash of the C source and
compile flags (``$REPRO_KERNEL_CACHE`` or ``~/.cache/repro-kernels``)
and loaded from there afterwards, so only the first process on a
machine ever pays the compile; CFFI releases the GIL around every call,
which lets the thread serving backend scale these kernels across cores.
The payload typing alone reads Python objects: it takes the GIL back
for its one pass over the list (``PyGILState_Ensure``), so the extension
is built against the full C API, not cffi's default limited one, which
lacks ``PyList_GET_ITEM`` and ``PyFloat_AS_DOUBLE``.

Construction compiles/loads eagerly: if anything is missing (cffi, a C
compiler) it raises and the registry degrades the caller to the numpy
backend.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import threading
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import (FANOUT_ERROR, AdaptivePlan, KernelBackend, check_pairs,
               check_segments)

_CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Compile flags of the extension (part of its cache key).  Contraction
#: of ``a * b + c`` into a fused multiply-add is off: the model fit must
#: round every product exactly as the numpy reference does, whatever
#: ``-march`` the environment's ``CFLAGS`` add.  The full C API is on
#: for the payload typing (see the module docstring).
_CFLAGS = ("-O3", "-ffp-contract=off", "-D_CFFI_NO_LIMITED_API")

_CDEF = """
void k_predict_clamp(double slope, double intercept, const double *keys,
                     int64_t n, int64_t size, int64_t *out);
int64_t k_find_insert_pos(const double *keys, int64_t cap, double target,
                          int has_model, double slope, double intercept,
                          int64_t *charge);
int64_t k_find_key(const double *keys, const uint8_t *occ, int64_t cap,
                   double target, int has_model, double slope,
                   double intercept, int64_t *charge, int64_t *probes);
void k_find_insert_pos_many(const double *keys, int64_t cap,
                            const double *targets, int64_t n, int has_model,
                            double slope, double intercept, int64_t *out,
                            int64_t *charge);
void k_find_keys_many(const double *keys, const uint8_t *occ, int64_t cap,
                      const double *targets, int64_t n, int has_model,
                      double slope, double intercept, int64_t *out,
                      int64_t *charge, int64_t *probes);
void k_closest_gaps(const uint8_t *occ, int64_t pos, int64_t lo, int64_t hi,
                    int64_t *out2);
void k_shift_right(double *keys, uint8_t *occ, int64_t ip, int64_t gap);
void k_shift_left(double *keys, uint8_t *occ, int64_t gap, int64_t ip);
int64_t k_place_fill(double *keys, uint8_t *occ, int64_t pos, double key);
int64_t k_erase_fill(double *keys, uint8_t *occ, int64_t pos,
                     double right_key);
void k_fit_cdf(const double *keys, int64_t n, int64_t size, double *out2);
int64_t k_fit_place(const double *keys, const int64_t *bounds,
                    const int64_t *caps, int64_t m, int64_t min_keys,
                    double *slot_keys, uint8_t *occ, double *slopes,
                    double *intercepts);
int k_type_floats(void *list, int64_t n, double *out);
int k_type_ints(void *list, int64_t n, int64_t *out);
typedef struct {
    int64_t *starts, *offsets, *children;
    double *slopes, *intercepts;
    int64_t n_starts, n_inner, n_children, retrains;
    int64_t cap_starts, cap_offsets, cap_children, cap_slopes, cap_intercepts;
} plan_t;
int k_plan_adaptive(const double *keys, int64_t n, int64_t root_fanout,
                    int64_t inner_fanout, int64_t max_keys,
                    int64_t max_depth, plan_t *p);
void k_plan_free(plan_t *p);
void k_partition_pairs(double *keys, uint64_t *slots, int64_t n,
                       const double *bounds, int64_t m, int64_t *counts);
"""

_SOURCE = r"""
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Floor + clamp of the model prediction into [0, size - 1]; the !(p > 0)
 * test pins NaN and -inf to the left edge exactly like the Python
 * reference, and truncation toward zero equals floor for the surviving
 * non-negative values. */
static int64_t predict_1(double slope, double intercept, double key,
                         int64_t size)
{
    double pos = slope * key + intercept;
    if (!(pos > 0.0))
        return 0;
    if (pos >= (double)size)
        return size - 1;
    return (int64_t)pos;
}

static int64_t lb_1(const double *keys, double target, int64_t lo,
                    int64_t hi, int64_t *charge)
{
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        (*charge)++;
        if (keys[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int64_t exp_1(const double *keys, double target, int64_t hint,
                     int64_t lo, int64_t hi, int64_t *charge)
{
    int64_t slo, shi;
    if (hi <= lo)
        return lo;
    if (hint < lo)
        hint = lo;
    else if (hint >= hi)
        hint = hi - 1;
    if (keys[hint] >= target) {
        int64_t bound = 1;
        int64_t left = hint - bound;
        while (left >= lo && keys[left] >= target) {
            (*charge)++;
            bound <<= 1;
            left = hint - bound;
        }
        (*charge)++;
        slo = hint - bound;
        if (slo < lo)
            slo = lo;
        shi = hint - (bound >> 1) + 1;
    } else {
        int64_t bound = 1;
        int64_t right = hint + bound;
        while (right < hi && keys[right] < target) {
            (*charge)++;
            bound <<= 1;
            right = hint + bound;
        }
        (*charge)++;
        slo = hint + (bound >> 1);
        shi = hint + bound + 1;
        if (shi > hi)
            shi = hi;
    }
    return lb_1(keys, target, slo, shi, charge);
}

void k_predict_clamp(double slope, double intercept, const double *keys,
                     int64_t n, int64_t size, int64_t *out)
{
    double edge = (double)(size - 1);
    int64_t i;
    for (i = 0; i < n; i++) {
        double pos = slope * keys[i] + intercept;
        if (!(pos > 0.0))
            pos = 0.0;
        else if (pos > edge)
            pos = edge;
        out[i] = (int64_t)pos;
    }
}

int64_t k_find_insert_pos(const double *keys, int64_t cap, double target,
                          int has_model, double slope, double intercept,
                          int64_t *charge)
{
    if (!has_model)
        return lb_1(keys, target, 0, cap, charge);
    return exp_1(keys, target, predict_1(slope, intercept, target, cap),
                 0, cap, charge);
}

/* Occupied-slot resolution: the lower bound may land on a gap slot that
 * mirrors the target's value; the real slot is then the first occupied
 * slot to the right with the same value. */
static int64_t resolve_1(const double *keys, const uint8_t *occ, int64_t cap,
                         double target, int64_t pos, int64_t *probes)
{
    while (pos < cap && keys[pos] == target) {
        (*probes)++;
        if (occ[pos])
            return pos;
        pos++;
    }
    return -1;
}

int64_t k_find_key(const double *keys, const uint8_t *occ, int64_t cap,
                   double target, int has_model, double slope,
                   double intercept, int64_t *charge, int64_t *probes)
{
    int64_t pos = k_find_insert_pos(keys, cap, target, has_model, slope,
                                    intercept, charge);
    return resolve_1(keys, occ, cap, target, pos, probes);
}

void k_find_insert_pos_many(const double *keys, int64_t cap,
                            const double *targets, int64_t n, int has_model,
                            double slope, double intercept, int64_t *out,
                            int64_t *charge)
{
    int64_t i;
    if (has_model) {
        for (i = 0; i < n; i++)
            out[i] = exp_1(keys, targets[i],
                           predict_1(slope, intercept, targets[i], cap),
                           0, cap, charge);
    } else {
        for (i = 0; i < n; i++)
            out[i] = lb_1(keys, targets[i], 0, cap, charge);
    }
}

void k_find_keys_many(const double *keys, const uint8_t *occ, int64_t cap,
                      const double *targets, int64_t n, int has_model,
                      double slope, double intercept, int64_t *out,
                      int64_t *charge, int64_t *probes)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t pos = k_find_insert_pos(keys, cap, targets[i], has_model,
                                        slope, intercept, charge);
        out[i] = resolve_1(keys, occ, cap, targets[i], pos, probes);
    }
}

void k_closest_gaps(const uint8_t *occ, int64_t pos, int64_t lo, int64_t hi,
                    int64_t *out2)
{
    int64_t left = -1, right = hi, i;
    for (i = pos; i < hi; i++) {
        if (!occ[i]) {
            right = i;
            break;
        }
    }
    for (i = pos - 1; i >= lo; i--) {
        if (!occ[i]) {
            left = i;
            break;
        }
    }
    out2[0] = left;
    out2[1] = right;
}

void k_shift_right(double *keys, uint8_t *occ, int64_t ip, int64_t gap)
{
    memmove(keys + ip + 1, keys + ip, (size_t)(gap - ip) * sizeof(double));
    occ[gap] = 1;
    occ[ip] = 0;
}

void k_shift_left(double *keys, uint8_t *occ, int64_t gap, int64_t ip)
{
    memmove(keys + gap, keys + gap + 1,
            (size_t)(ip - 1 - gap) * sizeof(double));
    occ[gap] = 1;
    occ[ip - 1] = 0;
}

int64_t k_place_fill(double *keys, uint8_t *occ, int64_t pos, double key)
{
    int64_t fills = 0, i;
    keys[pos] = key;
    occ[pos] = 1;
    for (i = pos - 1; i >= 0 && !occ[i]; i--) {
        keys[i] = key;
        fills++;
    }
    return fills;
}

int64_t k_erase_fill(double *keys, uint8_t *occ, int64_t pos,
                     double right_key)
{
    int64_t fills = 0, i;
    occ[pos] = 0;
    for (i = pos; i >= 0 && !occ[i]; i--) {
        keys[i] = right_key;
        fills++;
    }
    return fills;
}

/* The CDF model of sorted keys[0..n) over [0, size): least squares
 * against the ranks i * (size / n), every sum strictly sequential so
 * the bits equal LinearModel.train_cdf's np.cumsum sums (the extension
 * is compiled with -ffp-contract=off: a fused multiply-add would round
 * differently).  No keys, equal keys, or a non-finite centred sum of
 * squares or slope give the flat model (0, mean rank). */
void k_fit_cdf(const double *keys, int64_t n, int64_t size, double *out2)
{
    double scale, key_sum = 0.0, rank_sum = 0.0, key_mean, rank_mean;
    double den = 0.0, num = 0.0, slope;
    int64_t i;
    out2[0] = 0.0;
    out2[1] = 0.0;
    if (n == 0)
        return;
    scale = (double)size / (double)n;
    for (i = 0; i < n; i++) {
        key_sum += keys[i];
        rank_sum += (double)i * scale;
    }
    key_mean = key_sum / (double)n;
    rank_mean = rank_sum / (double)n;
    for (i = 0; i < n; i++) {
        double c = keys[i] - key_mean;
        den += c * c;
        num += c * ((double)i * scale - rank_mean);
    }
    out2[1] = rank_mean;
    if (!isfinite(den) || den == 0.0)
        return;
    slope = num / den;
    if (!isfinite(slope))
        return;
    out2[0] = slope;
    out2[1] = rank_mean - slope * key_mean;
}

/* Algorithm 3's model-based insert in one pass: key i goes to
 * max(predicted, last + 1), capped at cap - n + i so the remaining keys
 * still fit (the cold-start prediction is the uniform spread
 * (i * cap) / n).  A backward pass then mirrors each gap's nearest real
 * right neighbour into it, +inf for trailing gaps.  Returns the number
 * of gap slots written. */
static int64_t place_1(const double *keys, int64_t n, int has_model,
                       double slope, double intercept, int64_t cap,
                       double *slot_keys, uint8_t *occ)
{
    int64_t i, last = -1, fills = 0;
    double fill = INFINITY;
    memset(occ, 0, (size_t)cap);
    for (i = 0; i < n; i++) {
        int64_t p = has_model ? predict_1(slope, intercept, keys[i], cap)
                              : (i * cap) / n;
        if (p <= last)
            p = last + 1;
        if (p > cap - n + i)
            p = cap - n + i;
        slot_keys[p] = keys[i];
        occ[p] = 1;
        last = p;
    }
    for (i = cap - 1; i >= 0; i--) {
        if (occ[i]) {
            fill = slot_keys[i];
        } else {
            slot_keys[i] = fill;
            fills++;
        }
    }
    return fills;
}

/* The leaf builds of one bulk load, split or rebuild: segment j is
 * keys[bounds[j]..bounds[j+1]), fitted (when it has min_keys keys) and
 * placed into caps[j] slots at the running offset of the concatenated
 * slot_keys / occ buffers.  Returns the total number of gap slots
 * written. */
int64_t k_fit_place(const double *keys, const int64_t *bounds,
                    const int64_t *caps, int64_t m, int64_t min_keys,
                    double *slot_keys, uint8_t *occ, double *slopes,
                    double *intercepts)
{
    int64_t j, off = 0, fills = 0;
    for (j = 0; j < m; j++) {
        int64_t lo = bounds[j], n = bounds[j + 1] - lo;
        int has_model = n >= min_keys;
        double fit[2] = {0.0, 0.0};
        if (has_model)
            k_fit_cdf(keys + lo, n, caps[j], fit);
        slopes[j] = fit[0];
        intercepts[j] = fit[1];
        fills += place_1(keys + lo, n, has_model, fit[0], fit[1], caps[j],
                         slot_keys + off, occ + off);
        off += caps[j];
    }
    return fills;
}

/* The exact-kind rule over a list of n values whose first is a float
 * (or an int): 1 with every value written to out when each one is
 * exactly a Python float (an int within int64), else 0.  cffi released
 * the GIL around the call; the list is read with it taken back.  A list
 * whose length is no longer n gives 0 too. */
int k_type_floats(void *list, int64_t n, double *out)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    PyObject *values = (PyObject *)list;
    int ok = PyList_GET_SIZE(values) == n;
    int64_t i;
    for (i = 0; ok && i < n; i++) {
        PyObject *item = PyList_GET_ITEM(values, i);
        if (PyFloat_CheckExact(item))
            out[i] = PyFloat_AS_DOUBLE(item);
        else
            ok = 0;
    }
    PyGILState_Release(gil);
    return ok;
}

int k_type_ints(void *list, int64_t n, int64_t *out)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    PyObject *values = (PyObject *)list;
    int ok = PyList_GET_SIZE(values) == n, overflow = 0;
    int64_t i;
    for (i = 0; ok && i < n; i++) {
        PyObject *item = PyList_GET_ITEM(values, i);
        if (!PyLong_CheckExact(item)) {
            ok = 0;
        } else {
            /* An exact int never raises here: out of range only sets
             * overflow. */
            out[i] = PyLong_AsLongLongAndOverflow(item, &overflow);
            ok = !overflow;
        }
    }
    PyGILState_Release(gil);
    return ok;
}

typedef struct {
    int64_t *starts, *offsets, *children;
    double *slopes, *intercepts;
    int64_t n_starts, n_inner, n_children, retrains;
    int64_t cap_starts, cap_offsets, cap_children, cap_slopes, cap_intercepts;
} plan_t;

/* No child reference is INT64_MIN or INT64_MIN + 1 (leaves are >= 0,
 * inner node k is ~k), so they mark a failed allocation and an inner
 * node asked for fewer than one slot. */
#define PLAN_FAIL INT64_MIN
#define PLAN_BAD_FANOUT (INT64_MIN + 1)

/* Grows *buf (NULL while *cap is 0) to hold at least need items of
 * width bytes. */
static int grow(void **buf, int64_t *cap, int64_t need, size_t width)
{
    int64_t c = *cap ? *cap : 16;
    void *p;
    if (need <= *cap)
        return 0;
    while (c < need)
        c *= 2;
    p = realloc(*buf, (size_t)c * width);
    if (p == NULL)
        return -1;
    *buf = p;
    *cap = c;
    return 0;
}

static int64_t plan_leaf(plan_t *p, int64_t start)
{
    if (grow((void **)&p->starts, &p->cap_starts, p->n_starts + 1,
             sizeof(int64_t)))
        return PLAN_FAIL;
    p->starts[p->n_starts] = start;
    return p->n_starts++;
}

/* What the recursion shares: the keys, one slot per key (each node
 * overwrites its own run's slots, which its parent no longer needs),
 * the fixed parameters and the plan being written. */
typedef struct {
    const double *keys;
    int64_t *slots;
    int64_t inner_fanout, max_keys, max_depth;
    plan_t *p;
} planner_t;

/* Algorithm 4 over keys[lo..hi) with the given fanout: the numpy
 * backend's recursion step for step.  bounds[s] is the first key whose
 * k_predict_clamp slot is at least s, as np.searchsorted finds it in the
 * (non-decreasing) slots.  Returns the run's child reference. */
static int64_t plan_node(const planner_t *c, int64_t lo, int64_t hi,
                         int64_t fanout, int64_t depth)
{
    plan_t *p = c->p;
    int64_t n = hi - lo, node, base, s, i, ref, *bounds;
    double fit[2];
    if (n <= c->max_keys || depth >= c->max_depth)
        return plan_leaf(p, lo);
    if (fanout < 1)
        return PLAN_BAD_FANOUT;
    k_fit_cdf(c->keys + lo, n, fanout, fit);
    p->retrains++;
    bounds = malloc((size_t)(fanout + 1) * sizeof(int64_t));
    if (bounds == NULL)
        return PLAN_FAIL;
    k_predict_clamp(fit[0], fit[1], c->keys + lo, n, fanout, c->slots + lo);
    for (i = 0, s = 0; i < n; i++)
        while (s <= c->slots[lo + i])
            bounds[s++] = i;
    while (s <= fanout)
        bounds[s++] = n;
    for (s = 0; s < fanout && bounds[s + 1] - bounds[s] < n; s++)
        ;
    if (s < fanout) {
        /* Degenerate: the model routes every key to one partition, so
         * recursing cannot make progress.  Accept an oversized leaf. */
        free(bounds);
        return plan_leaf(p, lo);
    }
    if (grow((void **)&p->slopes, &p->cap_slopes, p->n_inner + 1,
             sizeof(double))
            || grow((void **)&p->intercepts, &p->cap_intercepts,
                    p->n_inner + 1, sizeof(double))
            || grow((void **)&p->offsets, &p->cap_offsets, p->n_inner + 2,
                    sizeof(int64_t))
            || grow((void **)&p->children, &p->cap_children,
                    p->n_children + fanout, sizeof(int64_t))) {
        free(bounds);
        return PLAN_FAIL;
    }
    node = p->n_inner++;
    p->slopes[node] = fit[0];
    p->intercepts[node] = fit[1];
    base = p->n_children;
    p->n_children += fanout;
    p->offsets[node + 1] = p->n_children;
    for (s = 0; s < fanout;) {
        int64_t e = s + 1, acc = bounds[s + 1] - bounds[s];
        if (acc > c->max_keys) {
            ref = plan_node(c, lo + bounds[s], lo + bounds[s + 1],
                            c->inner_fanout, depth + 1);
        } else {
            /* Merge with the successors until just below the bound. */
            while (e < fanout
                   && acc + bounds[e + 1] - bounds[e] <= c->max_keys) {
                acc += bounds[e + 1] - bounds[e];
                e++;
            }
            ref = plan_leaf(p, lo + bounds[s]);
        }
        if (ref == PLAN_FAIL || ref == PLAN_BAD_FANOUT) {
            free(bounds);
            return ref;
        }
        /* Through p: the recursion may have moved p->children. */
        for (; s < e; s++)
            p->children[base + s] = ref;
    }
    free(bounds);
    return ~node;
}

void k_plan_free(plan_t *p)
{
    free(p->starts);
    free(p->slopes);
    free(p->intercepts);
    free(p->offsets);
    free(p->children);
    memset(p, 0, sizeof(*p));
}

/* Algorithm 4's whole plan in one call into growing buffers, which the
 * caller copies out and releases with k_plan_free (also after a
 * failure).  Returns 0, -1 when an allocation failed, or -2 when an
 * inner node was asked for fewer than one slot. */
int k_plan_adaptive(const double *keys, int64_t n, int64_t root_fanout,
                    int64_t inner_fanout, int64_t max_keys,
                    int64_t max_depth, plan_t *p)
{
    planner_t c = {keys, NULL, inner_fanout, max_keys, max_depth, p};
    int64_t root;
    memset(p, 0, sizeof(*p));
    c.slots = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (c.slots == NULL
            || grow((void **)&p->offsets, &p->cap_offsets, 1,
                    sizeof(int64_t))) {
        free(c.slots);
        return -1;
    }
    p->offsets[0] = 0;
    root = plan_node(&c, 0, n, root_fanout, 0);
    free(c.slots);
    return root == PLAN_FAIL ? -1 : root == PLAN_BAD_FANOUT ? -2 : 0;
}

/* Hoare's two-way pass over the pairs of [lo, hi): every key below pivot
 * moves before every other key (NaN included), each payload slot moving
 * with its key.  Returns where the right side starts. */
static int64_t split_pairs(double *keys, uint64_t *slots, int64_t lo,
                           int64_t hi, double pivot)
{
    int64_t i = lo, j = hi - 1;
    for (;;) {
        while (i <= j && keys[i] < pivot)
            i++;
        while (i <= j && !(keys[j] < pivot))
            j--;
        if (i > j)
            return i;
        double key = keys[i];
        uint64_t slot = slots[i];
        keys[i] = keys[j];
        slots[i] = slots[j];
        keys[j] = key;
        slots[j] = slot;
        i++;
        j--;
    }
}

/* Shards first..last over the pairs of [lo, hi): split at the middle
 * boundary, then partition each side among its own shards. */
static void partition_range(double *keys, uint64_t *slots, int64_t lo,
                            int64_t hi, const double *bounds, int64_t first,
                            int64_t last, int64_t *counts)
{
    if (first == last) {
        counts[first] = hi - lo;
        return;
    }
    int64_t mid = first + (last - first) / 2;
    int64_t cut = split_pairs(keys, slots, lo, hi, bounds[mid]);
    partition_range(keys, slots, lo, cut, bounds, first, mid, counts);
    partition_range(keys, slots, cut, hi, bounds, mid + 1, last, counts);
}

/* The m + 1 shards the m increasing bounds cut: a payload slot is any 8
 * bytes, an object column's pointers included, moved without touching
 * the objects, so the GIL stays released. */
void k_partition_pairs(double *keys, uint64_t *slots, int64_t n,
                       const double *bounds, int64_t m, int64_t *counts)
{
    partition_range(keys, slots, 0, n, bounds, 0, m, counts);
}
"""


def _module_name() -> str:
    """Cache name of the extension: a digest of everything that decides
    the machine code (declarations, C source and compile flags), so a
    change to any of them builds afresh instead of loading a stale
    ``.so``."""
    text = "\0".join((_CDEF, _SOURCE) + _CFLAGS)
    return "_repro_kernels_" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _cache_dir() -> Path:
    override = os.environ.get(_CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _find_built(cache_dir: Path, modname: str):
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        candidate = cache_dir / (modname + suffix)
        if candidate.exists():
            return candidate
    return None


class CffiKernels(KernelBackend):
    """Compiled C backend (per-lane loops, GIL released around calls)."""

    name = "cffi"
    compiled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._compile_events = 0
        self._ffi = None
        self._lib = None
        self.warm()  # fail here, at resolve time, not on the first call

    # -- lifecycle ----------------------------------------------------

    def warm(self) -> None:
        with self._lock:
            if self._lib is not None:
                return
            import cffi  # raises ImportError -> registry falls back

            modname = _module_name()
            cache_dir = _cache_dir()
            cache_dir.mkdir(parents=True, exist_ok=True)
            built = _find_built(cache_dir, modname)
            if built is None:
                ffibuilder = cffi.FFI()
                ffibuilder.cdef(_CDEF)
                ffibuilder.set_source(modname, _SOURCE,
                                      extra_compile_args=list(_CFLAGS))
                built = Path(ffibuilder.compile(tmpdir=str(cache_dir)))
                self._compile_events += 1
            spec = importlib.util.spec_from_file_location(modname, built)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self._ffi = module.ffi
            self._lib = module.lib
            self._compile_events += 1  # loading the extension counts too

    def compile_events(self) -> int:
        return self._compile_events

    # -- buffer plumbing ----------------------------------------------

    def _dbuf(self, arr: np.ndarray):
        return self._ffi.from_buffer("double[]", arr)

    def _ibuf(self, arr: np.ndarray):
        return self._ffi.from_buffer("int64_t[]", arr)

    def _obuf(self, occupied: np.ndarray):
        return self._ffi.from_buffer("uint8_t[]", occupied.view(np.uint8))

    # -- kernel 1: linear-model predict + clamp -----------------------

    def predict_clamp(self, slope: float, intercept: float,
                      keys: np.ndarray, size: int) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        out = np.empty(len(keys), dtype=np.int64)
        if len(keys):
            self._lib.k_predict_clamp(slope, intercept, self._dbuf(keys),
                                      len(keys), size, self._ibuf(out))
        return out

    # -- kernel 2: lock-step exponential/binary search ----------------

    def find_insert_pos(self, keys: np.ndarray, target: float,
                        has_model: bool, slope: float,
                        intercept: float) -> Tuple[int, int]:
        charge = self._ffi.new("int64_t *", 0)
        pos = self._lib.k_find_insert_pos(
            self._dbuf(keys), len(keys), target, int(has_model),
            slope, intercept, charge)
        return int(pos), int(charge[0])

    def find_key(self, keys: np.ndarray, occupied: np.ndarray,
                 target: float, has_model: bool, slope: float,
                 intercept: float) -> Tuple[int, int, int]:
        counts = self._ffi.new("int64_t[2]")
        pos = self._lib.k_find_key(
            self._dbuf(keys), self._obuf(occupied), len(keys), target,
            int(has_model), slope, intercept, counts, counts + 1)
        return int(pos), int(counts[0]), int(counts[1])

    def find_insert_pos_many(self, keys: np.ndarray, targets: np.ndarray,
                             has_model: bool, slope: float,
                             intercept: float) -> Tuple[np.ndarray, int]:
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        n = len(targets)
        out = np.empty(n, dtype=np.int64)
        if n == 0:
            return out, 0
        charge = self._ffi.new("int64_t *", 0)
        self._lib.k_find_insert_pos_many(
            self._dbuf(keys), len(keys), self._dbuf(targets), n,
            int(has_model), slope, intercept, self._ibuf(out), charge)
        return out, int(charge[0])

    def find_keys_many(self, keys: np.ndarray, occupied: np.ndarray,
                       targets: np.ndarray, has_model: bool, slope: float,
                       intercept: float) -> Tuple[np.ndarray, int, int]:
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        n = len(targets)
        if n == 0 or len(keys) == 0:
            return np.full(n, -1, dtype=np.int64), 0, 0
        out = np.empty(n, dtype=np.int64)
        counts = self._ffi.new("int64_t[2]")
        self._lib.k_find_keys_many(
            self._dbuf(keys), self._obuf(occupied), len(keys),
            self._dbuf(targets), n, int(has_model), slope, intercept,
            self._ibuf(out), counts, counts + 1)
        return out, int(counts[0]), int(counts[1])

    # -- kernel 3: gapped-array / PMA shift-and-insert ----------------

    def closest_gaps(self, occupied: np.ndarray, pos: int, lo: int,
                     hi: int) -> Tuple[int, int]:
        out2 = self._ffi.new("int64_t[2]")
        self._lib.k_closest_gaps(self._obuf(occupied), pos, lo, hi, out2)
        return int(out2[0]), int(out2[1])

    def shift_right(self, keys: np.ndarray, occupied: np.ndarray,
                    ip: int, gap: int) -> None:
        self._lib.k_shift_right(self._dbuf(keys), self._obuf(occupied),
                                ip, gap)

    def shift_left(self, keys: np.ndarray, occupied: np.ndarray,
                   gap: int, ip: int) -> None:
        self._lib.k_shift_left(self._dbuf(keys), self._obuf(occupied),
                               gap, ip)

    def place_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, key: float) -> int:
        return int(self._lib.k_place_fill(self._dbuf(keys),
                                          self._obuf(occupied), pos, key))

    def erase_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, right_key: float) -> int:
        return int(self._lib.k_erase_fill(self._dbuf(keys),
                                          self._obuf(occupied), pos,
                                          right_key))

    # -- kernel 4: model fit + model-based placement (leaf build) -----

    def fit_cdf(self, keys: np.ndarray, size: int) -> Tuple[float, float]:
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        out2 = self._ffi.new("double[2]")
        self._lib.k_fit_cdf(self._dbuf(keys), len(keys), size, out2)
        return float(out2[0]), float(out2[1])

    def fit_place(self, keys: np.ndarray, bounds: np.ndarray,
                  capacities: np.ndarray, min_keys_for_model: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray, int]:
        keys, bounds, capacities, offsets = check_segments(keys, bounds,
                                                           capacities)
        m = len(capacities)
        slot_keys = np.empty(offsets[-1], dtype=np.float64)
        occupied = np.empty(offsets[-1], dtype=bool)
        slopes = np.empty(m, dtype=np.float64)
        intercepts = np.empty(m, dtype=np.float64)
        fills = self._lib.k_fit_place(
            self._dbuf(keys), self._ibuf(bounds), self._ibuf(capacities), m,
            min_keys_for_model, self._dbuf(slot_keys), self._obuf(occupied),
            self._dbuf(slopes), self._dbuf(intercepts))
        return slot_keys, occupied, slopes, intercepts, int(fills)

    # -- kernel 5: payload typing (bulk load) -------------------------

    def type_payloads(self, values) -> Optional[np.ndarray]:
        if not isinstance(values, list) or not values:
            return None
        kind = type(values[0])
        if kind is float:
            column = np.empty(len(values), np.float64)
            typed = self._lib.k_type_floats(self._list(values), len(values),
                                            self._dbuf(column))
        elif kind is int:
            column = np.empty(len(values), np.int64)
            typed = self._lib.k_type_ints(self._list(values), len(values),
                                          self._ibuf(column))
        else:
            return None
        return column if typed else None

    def _list(self, values: list):
        """The list itself, by address: the C side reads it under the
        GIL while the caller's frame keeps it alive."""
        return self._ffi.cast("void *", id(values))

    # -- kernel 6: Algorithm 4's plan (adaptive RMI) ------------------

    def plan_adaptive(self, keys: np.ndarray, root_fanout: int,
                      inner_fanout: int, max_keys: int,
                      max_depth: int) -> AdaptivePlan:
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        plan = self._ffi.new("plan_t *")
        try:
            status = self._lib.k_plan_adaptive(
                self._dbuf(keys), len(keys), root_fanout, inner_fanout,
                max_keys, max_depth, plan)
            if status == -2:
                raise ValueError(FANOUT_ERROR)
            if status:
                raise MemoryError("out of memory planning the adaptive RMI")
            m = plan.n_inner
            return AdaptivePlan(
                self._copy(plan.starts, plan.n_starts, np.int64),
                self._copy(plan.slopes, m, np.float64),
                self._copy(plan.intercepts, m, np.float64),
                self._copy(plan.offsets, m + 1, np.int64),
                self._copy(plan.children, plan.n_children, np.int64),
                int(plan.retrains))
        finally:
            self._lib.k_plan_free(plan)

    def _copy(self, pointer, count: int, dtype) -> np.ndarray:
        """A numpy copy of the first ``count`` items of a C buffer (which
        is ``NULL`` while it holds none)."""
        if count == 0:
            return np.empty(0, dtype)
        return np.frombuffer(self._ffi.buffer(pointer, 8 * count),
                             dtype).copy()

    # -- kernel 7: shard partition (sharded bulk load) ----------------

    def partition_pairs(self, keys: np.ndarray, column: np.ndarray,
                        boundaries: np.ndarray) -> np.ndarray:
        boundaries = check_pairs(keys, column, boundaries)
        counts = np.zeros(len(boundaries) + 1, dtype=np.int64)
        # By address: numpy exports no buffer of an object column.  The
        # caller's references keep both arrays alive through the call.
        self._lib.k_partition_pairs(
            self._dbuf(keys), self._ffi.cast("uint64_t *", column.ctypes.data),
            len(keys), self._dbuf(boundaries), len(boundaries),
            self._ibuf(counts))
        return counts
