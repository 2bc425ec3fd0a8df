"""Exact linear algebra over Z/m on top of the Howell-form kernels.

Everything downstream (unimodularity, splittings, unitary groups, posets)
reduces to row-oriented problems  x * A = b  over Z/m; this module wraps the
kernel calls with solving, kernels, membership, element enumeration and
size bookkeeping, and turns ring matrices into such systems.  A
LinearSolver factors one system, for the questions that need a witness
(a solution, a kernel, a canonical representative); a question that
needs none, whether rows are independent or a ring matrix has a left
inverse, is one rank test, invertible, for a whole (B, r, c) stack.  It
keeps no cache: callers that repeat a system keep their solver.
"""

import itertools

import numpy as np

from wittlab import kernels


class LinearSolver:
    """Factored row system over Z/m: solve x*A = b, kernel, membership."""

    def __init__(self, rows, m, width=None):
        rows = [list(r) for r in rows]
        self.m = m
        self.nrows = len(rows)
        if rows:
            self.width = len(rows[0])
        else:
            self.width = 0 if width is None else width
        H, pivots, T, K = kernels.howell_aug(rows, m) if rows else ([], [], [], [])
        self.H = H
        self.pivots = pivots
        self.T = T
        self.K = K

    def reduce(self, v):
        """Canonical representative of v modulo the row module, plus coeffs."""
        if not self.H:
            return [x % self.m for x in v], []
        return kernels.reduce_vec(self.H, self.pivots, list(v), self.m)

    def contains(self, v):
        rep, _ = self.reduce(v)
        return not any(rep)

    def solve(self, b):
        """One x with x*A == b mod m, or None."""
        rep, coeffs = self.reduce(b)
        if any(rep):
            return None
        m = self.m
        x = [0] * self.nrows
        for c, trow in zip(coeffs, self.T):
            if c:
                for i, t in enumerate(trow):
                    x[i] = (x[i] + c * t) % m
        return x

    def solve_delta(self, k, one, lead=0):
        """The k solutions x_i of x*A == (0^lead, delta_i1*one, ...,
        delta_ik*one), where one is the coordinate block of the unit and
        each other block is zero; None if one of them has no solution."""
        zero = [0] * len(one)
        out = []
        for i in range(k):
            target = [0] * lead
            for j in range(k):
                target.extend(one if i == j else zero)
            x = self.solve(target)
            if x is None:
                return None
            out.append(x)
        return out

    def kernel_rows(self):
        return self.K

    def kernel(self, width=None):
        """The solver of {x : x*A = 0}, or of its projection to the first
        `width` coordinates when width is given."""
        if width is None:
            return LinearSolver(self.K, self.m, width=self.nrows)
        return LinearSolver([row[:width] for row in self.K], self.m,
                            width=width)

    @property
    def module_size(self):
        size = 1
        for i, j in enumerate(self.pivots):
            size *= self.m // self.H[i][j]
        return size

    def module_rows(self):
        """All elements of the row module as the rows of one int64 array,
        coefficient tuples in lexicographic order (use only when small)."""
        if not self.H:
            return np.zeros((1, self.width), dtype=np.int64)
        ranges = [self.m // self.H[i][j] for i, j in enumerate(self.pivots)]
        coeffs = np.indices(ranges).reshape(len(ranges), -1).T
        return coeffs @ np.array(self.H, dtype=np.int64) % self.m

    def enumerate_module(self):
        """All elements of the row module, as tuples (use only when small)."""
        return map(tuple, self.module_rows().tolist())

    def _rep_ranges(self):
        """Per coordinate, the number of values a canonical representative
        takes there: its pivot, or m off the pivots."""
        n = self.width if not self.H else len(self.H[0])
        pivset = {j: self.H[i][j] for i, j in enumerate(self.pivots)}
        return [pivset.get(k, self.m) for k in range(n)]

    def enumerate_canonical_reps(self):
        """All canonical representatives modulo the row module."""
        yield from itertools.product(*map(range, self._rep_ranges()))

    def canonical_rep(self, i):
        """The i-th of enumerate_canonical_reps, by mixed-radix decoding
        (the last coordinate runs fastest)."""
        out = []
        for r in reversed(self._rep_ranges()):
            i, c = divmod(i, r)
            out.append(c)
        return tuple(reversed(out))

    def rep_index(self, V):
        """The positions in enumerate_canonical_reps of the canonical
        representatives in the rows of the int array V: the inverse of
        canonical_rep, one product with the mixed-radix weights."""
        ranges = self._rep_ranges()
        weights = np.cumprod(np.array([1] + ranges[::-1],
                                      dtype=np.int64)[:len(ranges)])
        return V @ weights[::-1]


def invertible(A, m):
    """(B,) bool: are the r rows of each A[b] of a (B, r, c) stack
    independent over Z/m?  For a square A[b]: is it invertible?  Over
    Z/p^k rows are independent iff they are mod p, so this asks, for each
    prime p dividing m, whether A mod p has rank r.  The rank of A is
    that of its transpose, so the stack is eliminated over the shorter
    side, min(r, c) columns, and the unit pivots on the diagonal are
    counted: one kernels._eliminate over the stack, or for a single
    system kernels.full_rank_mod_p, whose pure-Python loop is the faster
    of the two on one small matrix."""
    A = np.asarray(A, dtype=np.int64)
    B, r, c = A.shape
    n = min(r, c)
    ok = np.ones(B, dtype=bool)
    for p, _k in kernels.prime_powers(m):
        if B == 1:
            ok &= kernels.full_rank_mod_p(A[0].tolist(), p)
        else:
            P = kernels._eliminate(A.transpose(0, 2, 1) if c > r else A,
                                   p, 1, n)[0]
            ok &= (P[:, np.arange(n), np.arange(n)] == 1).sum(axis=1) == r
    return ok


# -- ring matrices ---------------------------------------------------------
# A ring matrix is a list of rows of ring indices; over the base Z/m of the
# ring each entry is a d x d block (Rmat for x -> x*c, Lmat for x -> c*x).


def ring_left_rows(ring, C):
    """The (n*d x k*d) int64 rows of x -> x C for an n x k ring matrix C,
    or their (B, n*d, k*d) stack for a (B, n, k) stack: row (l, t) holds
    the coordinates of b_t * C[l][j], d per column j."""
    C = np.asarray(C, dtype=np.int64)
    *lead, n, k = C.shape
    d = ring.base_dim
    # Rmat[c][s, t] is coordinate s of b_t * c: (..., n, k, s, t) is
    # brought to (..., n, t, k, s)
    X = ring.Rmat[C].swapaxes(-1, -2).swapaxes(-2, -3)
    return X.reshape(*lead, n * d, k * d)


def ring_left_inverse(ring, C, extra_rows=None):
    """The k solutions x_i of x (C; E) = (delta_ij)_j over R, where E are
    extra Z/m rows of width k*d stacked under the n x k ring matrix C:
    (L, tails) with L the k x n ring matrix of the x_i's ring parts and
    tails their extra coordinates; None if some x_i does not exist."""
    n, d = len(C), ring.base_dim
    k = len(C[0])
    rows = ring_left_rows(ring, C).tolist() + list(extra_rows or [])
    sols = LinearSolver(rows, ring.base_mod, width=k * d).solve_delta(
        k, ring.to_base[ring.one].tolist())
    if sols is None:
        return None
    X = np.array([sol[:n * d] for sol in sols], dtype=np.int64)
    return (ring.indices(X.reshape(k, n, d)).tolist(),
            [sol[n * d:] for sol in sols])


def left_invertible(ring, C):
    """(B,) bool for a (B, n, k) stack of ring matrices: has C[b] a left
    inverse over R (for n = k: is it invertible)?  It has one iff
    x -> x C maps R^n onto R^k, that is iff the rows of x -> x C span
    (Z/m)^(k d), iff their k d columns are independent over Z/m: one
    invertible call on the transposed rows.  A square matrix over a
    finite ring with a left inverse is invertible."""
    rows = ring_left_rows(ring, C)
    return invertible(rows.transpose(0, 2, 1), ring.base_mod)


def row_unimodular(ring, row):
    """Is a row of R^k left-unimodular (some c with sum c_i r_i = 1)?"""
    C = np.asarray(list(row), dtype=np.int64).reshape(1, -1, 1)
    return bool(left_invertible(ring, C)[0])


def unimodular_rows(ring, entries, memo):
    """Left-unimodularity of each row of an (N, k) array of ring indices.
    A unit among the entries settles a row; the others depend only on
    their set of entries, and the sets not yet in `memo` are settled by
    one left_invertible call on them as columns and kept there."""
    ok = (ring.inv[entries] >= 0).any(axis=1)
    rest = np.flatnonzero(~ok)
    if len(rest):
        sets, inverse = np.unique(np.sort(entries[rest], axis=1), axis=0,
                                  return_inverse=True)
        keys = [frozenset(row) for row in sets.tolist()]
        new = [i for i, key in enumerate(keys) if key not in memo]
        if new:
            ok_new = left_invertible(ring, sets[new, :, None])
            memo.update(zip([keys[i] for i in new], ok_new.tolist()))
        ok[rest] = np.array([memo[key] for key in keys],
                            dtype=bool)[inverse.reshape(-1)]
    return ok


def ring_matmul(ring, A, B):
    """The product of ring matrices A (n x l) and B (l x k)."""
    B = np.asarray(B, dtype=np.int64)
    A = np.asarray(A, dtype=np.int64).reshape(-1, len(B))
    # coords(a * b) = Lmat[a] @ coords(b)
    coords = np.einsum("ilst,ljt->ijs", ring.Lmat[A], ring.to_base[B])
    return ring.indices(coords).tolist()
