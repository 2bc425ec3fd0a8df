"""Integral homology of the realized posets.

Chains are the free groups on length-(p+1) members; faces delete one entry.
build_chain_complex finds the faces of a whole level at once: it deletes
one column of the level's int array at a time and looks the rows up by
searchsorted in the sorted row keys of the level below, so each boundary
is three COO arrays.  Homology runs a cross-degree unit-pivot reduction
(Schur complement on one boundary matrix, row/column deletions on its
neighbours, homology-preserving) before the Smith-normal-form endgame on
the small remainders.  The complex is augmented, so all reported numbers
are reduced homology.
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


def _grouped(keys, inner, vals, pool):
    """{key: {inner: val}} over COO entries, keys in order of first
    appearance, inner dicts in entry order, indices the int objects of pool."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    starts = np.flatnonzero(np.diff(k, prepend=-1))  # keys are >= 0
    ends = np.r_[starts[1:], len(k)]
    seq = np.argsort(order[starts], kind="stable")
    inner, vals = pool[inner[order]].tolist(), vals[order].tolist()
    return {key: dict(zip(inner[s:e], vals[s:e])) for key, s, e in zip(
        pool[k[starts][seq]].tolist(), starts[seq].tolist(),
        ends[seq].tolist())}


def _columns(rows, vals, pool, width):
    """{col: {row: val}} of a column-major COO whose column c holds the
    `width` entries c * width ..., read in constant-size groups; indices
    the int objects of pool."""
    keys = pool[:len(rows) // width].tolist()
    rows, vals = iter(pool[rows].tolist()), iter(vals.tolist())
    return {c: dict(zip(r, v)) for c, r, v in zip(
        keys, zip(*[rows] * width), zip(*[vals] * width))}


class _Sparse:
    """Row/column indexed sparse integer matrix with unit-pivot reduction.
    d_p comes column-major with p + 1 entries per column (`width`)."""

    def __init__(self, coo, pool, width):
        rows, cols, vals = coo  # no zero entries
        self.rows = _grouped(rows, cols, vals, pool)
        self.cols = _columns(rows, vals, pool, width)

    def delete_row(self, r):
        for c in self.rows.pop(r, ()):
            col = self.cols[c]
            del col[r]
            if not col:
                del self.cols[c]

    def delete_col(self, c):
        for r in self.cols.pop(c, ()):
            row = self.rows[r]
            del row[c]
            if not row:
                del self.rows[r]

    def best_pivot_in_row(self, r):
        row = self.rows.get(r)
        if not row:
            return None
        best = None
        lr = len(row)
        for c, v in row.items():
            if v == 1 or v == -1:
                cost = (lr - 1) * (len(self.cols[c]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, c, v)
                    if cost == 0:
                        break
        return best

    def eliminate(self, r, c, v):
        """Schur complement step at a +-1 pivot; removes row r and col c.
        Writes go straight to the row and column dicts: row rr keeps its
        entry at c and column cc its entry at r until the deletions at the
        end, so none of them empties on the way."""
        rows, cols = self.rows, self.cols
        row_entries = [(cc, b) for cc, b in rows[r].items() if cc != c]
        for rr, a in [(rr, a) for rr, a in cols[c].items() if rr != r]:
            factor = a * v  # v in {1,-1}: a / v
            target = rows[rr]
            for cc, b in row_entries:
                x = target.get(cc, 0) - factor * b
                if x:
                    target[cc] = cols[cc][rr] = x
                else:
                    del target[cc], cols[cc][rr]
        self.delete_row(r)
        self.delete_col(c)


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
    live = {p: set(range(n)) for p, n in chain.counts.items()}
    empty = (np.zeros(0, dtype=np.intp),) * 3
    pool = np.arange(max(chain.counts.values()) + 1).astype(object)
    mats = {p: _Sparse(chain.boundaries.get(p, empty), pool, p + 1)
            for p in range(0, up_to_degree + 2)}
    # cross-degree unit-pivot reduction, ascending: eliminations only change
    # values within their own degree, so one pass of per-degree fixpoints is
    # a complete reduction
    for p in sorted(mats):
        sp = mats[p]
        pending = list(set(sp.rows))
        in_queue = set(pending)
        while pending:
            r = pending.pop()
            in_queue.discard(r)
            piv = sp.best_pivot_in_row(r)
            if piv is None:
                continue
            _, c, v = piv
            affected = [rr for rr in sp.cols[c] if rr != r]
            sp.eliminate(r, c, v)
            live[p - 1].discard(r)
            live[p].discard(c)
            if p + 1 in mats:
                mats[p + 1].delete_row(c)
            if p - 1 in mats:
                mats[p - 1].delete_col(r)
            for rr in affected:
                if rr not in in_queue:
                    pending.append(rr)
                    in_queue.add(rr)
    # SNF endgame on the remainders
    divisors = {}
    for p in sorted(mats):
        sp = mats[p]
        cols = sorted(sp.cols)
        dense = [[sp.rows[r].get(c, 0) for c in cols] for r in sorted(sp.rows)]
        divisors[p] = kernels.snf_divisors(dense) if dense and cols else []
    return _summary(chain, up_to_degree, lambda p: len(live.get(p, ())),
                    divisors)
