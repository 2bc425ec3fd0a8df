"""Integral homology of the realized posets.

Chains are the free groups on length-(p+1) members; faces delete one entry.
build_chain_complex finds the faces of a whole level at once: it deletes
one column of the level's int array at a time and looks the rows up by
searchsorted in the sorted row keys of the level below, so each boundary
is three COO arrays.  Homology reduces those arrays by unit pivots
(Kaczynski-Mrozek-Slusarek), degree by degree in ascending order: each
round takes a diagonal block of +-1 pivots at once and its Schur complement
as one sparse join, and the pivots' cells leave the neighbouring
boundaries.  The Smith-normal-form endgame runs on the small remainders.
The complex is augmented, so all reported numbers are reduced homology.
"""

import numpy as np

from wittlab import kernels


class ChainComplexData:
    """Sparse boundary matrices per degree, augmented at degree -1."""

    def __init__(self, counts, boundaries):
        # counts[p] = number of p-cells (p = -1 is the augmentation cell)
        self.counts = dict(counts)
        # boundaries[p] = (rows, cols, vals) int arrays of d_p: C_p ->
        # C_{p-1}, column-major with the deleted position minor
        self.boundaries = dict(boundaries)

    def dense(self, p):
        """d_p as a dense int64 array; for small complexes only."""
        out = np.zeros((self.counts.get(p - 1, 0), self.counts.get(p, 0)),
                       dtype=np.int64)
        if p in self.boundaries:
            rows, cols, vals = self.boundaries[p]
            np.add.at(out, (rows, cols), vals)
        return out

    def dd_is_zero(self):
        return not any((self.dense(p) @ self.dense(p + 1)).any()
                       for p in self.boundaries if p + 1 in self.boundaries)


def _row_keys(rows, base):
    """Keys in the lexicographic order of the rows (entries in [0, base)):
    mixed-radix codes while base**width fits an int64, else big-endian
    bytes."""
    width = rows.shape[1]
    if base ** width < 2 ** 63:
        return rows @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.ascontiguousarray(rows, dtype=">u4").view(
        "V%d" % (4 * width)).ravel()


def face_rows(level, lower, base):
    """F[j, i]: the row of lower (lexicographically sorted, entries below
    base) that is level[j] with entry i deleted; KeyError when one is not
    there."""
    keys = _row_keys(lower, base)
    out = np.empty(level.shape, dtype=np.intp)
    for i in range(level.shape[1]):
        face = _row_keys(np.delete(level, i, axis=1), base)
        pos = np.searchsorted(keys, face).clip(max=len(keys) - 1)
        if (keys[pos] != face).any():
            raise KeyError("a face is not in the level below")
        out[:, i] = pos
    return out


def build_chain_complex(poset, up_to_degree):
    """Boundary matrices of the realization through degree up_to_degree + 1."""
    counts, boundaries, lower = {-1: 1}, {}, None
    for p in range(0, up_to_degree + 2):
        level = poset.simplices(p)
        counts[p] = n = len(level)
        if not n:
            break
        faces = np.zeros((n, 1), dtype=np.intp) if p == 0 else \
            face_rows(level, lower, len(poset.atoms))  # p = 0: augmentation
        boundaries[p] = (faces.ravel(), np.repeat(np.arange(n), p + 1),
                         np.tile(np.where(np.arange(p + 1) % 2, -1, 1), n))
        lower = level
    return ChainComplexData(counts, boundaries)


# values stay int64 while a round's bound on its new entries stays below
# this; past it the degree's values become exact Python ints (dtype object)
INT64_BOUND = 2 ** 62


def _pivots(rows, cols, vals, shape):
    """Entry positions of one round's pivots in a COO matrix sorted by
    column, then row.  Candidates: the +-1 entry of least Markowitz cost in
    each column (least row on ties), then the least of those per row by
    priority (cost, col).  A candidate is kept when its priority is below
    every other one's whose column its row meets or whose row meets its
    column: the pivot block is diagonal, and the least candidate stays."""
    unit = np.flatnonzero(np.abs(vals) == 1)
    r, c = rows[unit], cols[unit]
    cost = (np.bincount(rows, minlength=shape[0])[r] - 1) \
        * (np.bincount(cols, minlength=shape[1])[c] - 1)
    start = np.flatnonzero(np.diff(c, prepend=-1))
    least = np.repeat(np.minimum.reduceat(cost, start),
                      np.diff(start, append=len(c)))
    best = np.flatnonzero(cost == least)
    best = best[np.diff(c[best], prepend=-1) != 0]
    k = len(best)
    rank = np.empty(k, dtype=np.intp)
    rank[np.argsort(cost[best], kind="stable")] = np.arange(k)
    o = np.argsort(r[best] * k + rank)
    o = o[np.diff(r[best][o], prepend=-1) != 0]
    cand, rank = unit[best[o]], rank[o]
    i, j = _pivot_ids(rows, cols, cand, shape)
    meet = (i >= 0) & (j >= 0) & (i != j)
    low = np.full(len(cand), k)
    np.minimum.at(low, i[meet], rank[j[meet]])
    np.minimum.at(low, j[meet], rank[i[meet]])
    return cand[rank < low]


def _pivot_ids(rows, cols, piv, shape):
    """Per entry, the pivot whose row (i) and whose column (j) it lies in,
    -1 for none."""
    at_row = np.full(shape[0], -1, dtype=np.intp)
    at_col = np.full(shape[1], -1, dtype=np.intp)
    at_row[rows[piv]] = at_col[cols[piv]] = np.arange(len(piv))
    return at_row[rows], at_col[cols]


def _reduce(rows, cols, vals, shape):
    """Unit-pivot reduction of one COO matrix, in rounds of _pivots: each
    takes the Schur complement A[~R,~C] - A[~R,C] diag(v) A[R,~C] of its
    diagonal +-1 block as one join over the pivots.  Returns the remainder
    (no +-1 entry left), and the pivot rows and columns."""
    pivot_rows = pivot_cols = np.zeros(0, dtype=np.intp)
    while True:
        # sort by column, then row, and sum equal positions; after a round
        # the kept entries and the sorted products are two sorted runs,
        # which the stable sort merges
        key = cols * shape[0] + rows
        o = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[o], prepend=-1))
        o, vals = o[first], np.add.reduceat(vals[o], first)
        nz = vals != 0
        rows, cols, vals = rows[o[nz]], cols[o[nz]], vals[nz]
        piv = _pivots(rows, cols, vals, shape)
        if not len(piv):
            return (rows, cols, vals), pivot_rows, pivot_cols
        pivot_rows = np.concatenate((pivot_rows, rows[piv]))
        pivot_cols = np.concatenate((pivot_cols, cols[piv]))
        i, j = _pivot_ids(rows, cols, piv, shape)
        a = np.flatnonzero((i < 0) & (j >= 0))  # A[~R,C]
        b = np.flatnonzero((i >= 0) & (j < 0))  # A[R,~C]
        # a pivot whose column has no other entry makes no products
        b = b[np.bincount(j[a], minlength=len(piv))[i[b]] > 0]
        b = b[np.argsort(i[b], kind="stable")]
        per = np.bincount(i[b], minlength=len(piv))
        reps = per[j[a]]
        total = int(reps.sum())
        if vals.dtype != object and int(np.abs(vals[a]).max(initial=0)) \
                * int(np.abs(vals[b]).max(initial=0)) * (total + 1) \
                + int(np.abs(vals).max(initial=0)) >= INT64_BOUND:
            vals = vals.astype(object)
        # product t: entry ia[t] of a pivot's column times ib[t] of its row
        ia = np.repeat(a, reps)
        ib = b[np.arange(total) + np.repeat(
            np.cumsum(per)[j[a]] - per[j[a]] - np.cumsum(reps) + reps, reps)]
        o = np.argsort(cols[ib] * shape[0] + rows[ia])
        ia, ib = ia[o], ib[o]
        keep = np.flatnonzero((i < 0) & (j < 0))
        rows = np.concatenate((rows[keep], rows[ia]))
        cols = np.concatenate((cols[keep], cols[ib]))
        vals = np.concatenate((vals[keep],
                               -vals[ia] * vals[piv][j[ia]] * vals[ib]))


def _summary(chain, up_to_degree, cells, divisors):
    """The report from the cell count cells(p) left in each degree and the
    SNF divisors of each d_p."""
    ranks = {p: len(divs) for p, divs in divisors.items()}
    top = range(0, up_to_degree + 1)
    return {"betti": {p: cells(p) - ranks.get(p, 0) - ranks.get(p + 1, 0)
                      for p in top},
            "torsion": {p: [d for d in divisors.get(p + 1, ())
                            if d not in (0, 1)] for p in top},
            "cells": {p: chain.counts.get(p, 0)
                      for p in range(0, up_to_degree + 2)}}


def homology_plain(chain, up_to_degree):
    """Oracle route: dense Smith normal form on every boundary matrix, no
    cross-degree reduction.  Only for small complexes."""
    divisors = {}
    for p in range(0, up_to_degree + 2):
        dense = chain.dense(p)
        divisors[p] = kernels.snf_divisors(dense.tolist()) if dense.any() \
            else []
    return _summary(chain, up_to_degree, lambda p: chain.counts.get(p, 0),
                    divisors)


def homology(chain, up_to_degree):
    """Reduced Betti numbers and torsion through the requested degree."""
    alive = {p: np.ones(chain.counts.get(p, 0), dtype=bool)
             for p in range(-1, up_to_degree + 2)}
    empty = (np.zeros(0, dtype=np.intp),) * 3
    rest = {}
    # cross-degree unit-pivot reduction, ascending: a pivot of d_p takes its
    # row's cell and its column's cell out, so d_p loses the rows that were
    # pivot columns of d_{p-1}, and d_{p-1}'s remainder (at the end) the
    # columns that are pivot rows of d_p
    for p in range(0, up_to_degree + 2):
        rows, cols, vals = chain.boundaries.get(p, empty)
        live = alive[p - 1][rows]
        vals = vals[live] if vals.dtype == object else \
            vals[live].astype(np.int64)
        rest[p], pivot_rows, pivot_cols = _reduce(
            rows[live], cols[live], vals, (len(alive[p - 1]), len(alive[p])))
        alive[p - 1][pivot_rows] = alive[p][pivot_cols] = False
    # SNF endgame on the remainders
    divisors = {}
    for p, (rows, cols, vals) in rest.items():
        live = alive[p][cols]
        divisors[p] = []
        if live.any():
            rows, ri = np.unique(rows[live], return_inverse=True)
            cols, ci = np.unique(cols[live], return_inverse=True)
            dense = np.zeros((len(rows), len(cols)), dtype=vals.dtype)
            dense[ri, ci] = vals[live]
            divisors[p] = kernels.snf_divisors(dense.tolist())
    return _summary(chain, up_to_degree, lambda p: int(alive[p].sum()),
                    divisors)
