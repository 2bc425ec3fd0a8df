"""Integral homology of the realized posets.

Chains are the free groups on length-(p+1) members; faces delete one entry.
Homology runs a cross-degree unit-pivot reduction (Schur complement on one
boundary matrix, row/column deletions on its neighbours, homology-preserving)
before the Smith-normal-form endgame on the small remainders.  The complex
is augmented, so all reported numbers are reduced homology.
"""

from wittlab import kernels


class ChainComplexData:
    """Sparse boundary matrices per degree, augmented at degree -1."""

    def __init__(self, counts, boundaries):
        # counts[p] = number of p-cells (p = -1 is the augmentation cell)
        self.counts = dict(counts)
        # boundaries[p]: dict (row, col) -> coeff for d_p: C_p -> C_{p-1}
        self.boundaries = {p: dict(b) for p, b in boundaries.items()}

    def dd_is_zero(self):
        for p, bp in self.boundaries.items():
            bq = self.boundaries.get(p + 1)
            if not bq:
                continue
            # compose via column expansion of d_{p+1}
            cols = {}
            for (r, c), v in bq.items():
                cols.setdefault(c, []).append((r, v))
            rows_p = {}
            for (r, c), v in bp.items():
                rows_p.setdefault(c, {})[r] = v
            for c, entries in cols.items():
                acc = {}
                for mid, v in entries:
                    for r, w in rows_p.get(mid, {}).items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    return False
        return True


def build_chain_complex(poset, up_to_degree):
    """Boundary matrices of the realization through degree up_to_degree + 1."""
    counts = {-1: 1}
    boundaries = {}
    index = {}
    levels = {}
    for p in range(0, up_to_degree + 2):
        level = poset.simplices(p)
        levels[p] = level
        counts[p] = len(level)
        index[p] = {seq: i for i, seq in enumerate(level)}
        if not level:
            break
    # augmentation
    if counts.get(0):
        boundaries[0] = {(0, i): 1 for i in range(counts[0])}
    for p in range(1, up_to_degree + 2):
        if not counts.get(p):
            break
        entries = {}
        lower = index[p - 1]
        for col, seq in enumerate(levels[p]):
            for i in range(len(seq)):
                face = seq[:i] + seq[i + 1:]
                row = lower[face]
                coeff = 1 if i % 2 == 0 else -1
                entries[(row, col)] = entries.get((row, col), 0) + coeff
        boundaries[p] = {k: v for k, v in entries.items() if v}
    return ChainComplexData(counts, boundaries)


class _Sparse:
    """Row/column indexed sparse integer matrix with unit-pivot reduction."""

    def __init__(self, entries):
        self.rows = {}
        self.cols = {}
        for (r, c), v in entries.items():
            if v:
                self.rows.setdefault(r, {})[c] = v
                self.cols.setdefault(c, {})[r] = v

    def set(self, r, c, v):
        if v:
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, {})[r] = v
        else:
            if r in self.rows and c in self.rows[r]:
                del self.rows[r][c]
                if not self.rows[r]:
                    del self.rows[r]
            if c in self.cols and r in self.cols[c]:
                del self.cols[c][r]
                if not self.cols[c]:
                    del self.cols[c]

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, 0)

    def delete_row(self, r):
        for c in list(self.rows.get(r, {})):
            self.set(r, c, 0)

    def delete_col(self, c):
        for r in list(self.cols.get(c, {})):
            self.set(r, c, 0)

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
        """Schur complement step at a +-1 pivot; removes row r and col c."""
        row_entries = [(cc, vv) for cc, vv in self.rows[r].items() if cc != c]
        col_entries = [(rr, vv) for rr, vv in self.cols[c].items() if rr != r]
        for rr, a in col_entries:
            factor = a * v  # v in {1,-1}: a / v
            for cc, b in row_entries:
                self.set(rr, cc, self.get(rr, cc) - factor * b)
        self.delete_row(r)
        self.delete_col(c)

    def to_dense(self, row_ids, col_ids):
        ri = {r: i for i, r in enumerate(row_ids)}
        ci = {c: i for i, c in enumerate(col_ids)}
        out = [[0] * len(col_ids) for _ in row_ids]
        for r, row in self.rows.items():
            for c, v in row.items():
                out[ri[r]][ci[c]] = v
        return out

    def live_rows(self):
        return set(self.rows)

    def live_cols(self):
        return set(self.cols)


def homology_plain(chain, up_to_degree):
    """Oracle route: dense Smith normal form on every boundary matrix, no
    cross-degree reduction.  Only for small complexes."""
    ranks = {}
    torsion = {}
    for p in range(0, up_to_degree + 2):
        entries = chain.boundaries.get(p, {})
        nrows = chain.counts.get(p - 1, 0)
        ncols = chain.counts.get(p, 0)
        if not entries or not nrows or not ncols:
            ranks[p] = 0
            torsion[p] = []
            continue
        dense = [[0] * ncols for _ in range(nrows)]
        for (r, c), v in entries.items():
            dense[r][c] = v
        divs = kernels.snf_divisors(dense)
        ranks[p] = len(divs)
        torsion[p] = [d for d in divs if d not in (0, 1)]
    betti = {}
    tors = {}
    for p in range(0, up_to_degree + 1):
        cp = chain.counts.get(p, 0)
        betti[p] = cp - ranks.get(p, 0) - ranks.get(p + 1, 0)
        tors[p] = list(torsion.get(p + 1, []))
    return {"betti": betti, "torsion": tors,
            "cells": {p: chain.counts.get(p, 0)
                      for p in range(0, up_to_degree + 2)}}


def homology(chain, up_to_degree):
    """Reduced Betti numbers and torsion through the requested degree."""
    degrees = sorted(p for p in chain.counts if p >= -1)
    live = {p: set(range(chain.counts.get(p, 0))) for p in degrees}
    mats = {p: _Sparse(chain.boundaries.get(p, {}))
            for p in range(0, up_to_degree + 2)}
    # cross-degree unit-pivot reduction, ascending: eliminations only change
    # values within their own degree, so one pass of per-degree fixpoints is
    # a complete reduction
    for p in sorted(mats):
        sp = mats[p]
        pending = list(sp.live_rows())
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
    ranks = {}
    torsion = {}
    for p in sorted(mats):
        sp = mats[p]
        rows = sorted(sp.live_rows())
        cols = sorted(sp.live_cols())
        if rows and cols:
            dense = sp.to_dense(rows, cols)
            divs = kernels.snf_divisors(dense)
        else:
            divs = []
        ranks[p] = len(divs)
        torsion[p] = [d for d in divs if d not in (0, 1)]
    betti = {}
    tors = {}
    for p in range(0, up_to_degree + 1):
        cp = len(live.get(p, ()))
        betti[p] = cp - ranks.get(p, 0) - ranks.get(p + 1, 0)
        tors[p] = list(torsion.get(p + 1, []))
    return {"betti": betti, "torsion": tors,
            "cells": {p: chain.counts.get(p, 0) for p in range(0, up_to_degree + 2)}}
