"""Exact linear algebra over Z/m on top of the Howell-form kernels.

Everything downstream (unimodularity, splittings, unitary groups, posets)
reduces to row-oriented problems  x * A = b  over Z/m; this module wraps the
kernel calls with solving, kernels, membership, element enumeration and
size bookkeeping, and turns ring matrices into such systems.  A
LinearSolver factors one system; a (B, r, c) stack of them goes through
kernels.howell_batch and kernels.howell_reduce, which answer each query for
all B at once.  It keeps no cache: callers that repeat a system keep their
solver.
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


def invertible(A, m):
    """(B,) bool: are the r rows of each A[b] of a (B, r, c) stack
    independent over Z/m?  For a square A[b]: is it invertible?  Over
    Z/p^k rows are independent iff they are mod p, so this asks, for each
    prime p dividing m, whether the elimination of A mod p has r unit
    pivots: one kernels._eliminate over the stack (only its pivot
    diagonal is read, so no Howell reduction runs), or for a single
    system kernels.full_rank_mod_p, whose pure-Python loop is the faster
    of the two on one small matrix."""
    A = np.asarray(A, dtype=np.int64)
    B, r, c = A.shape
    ok = np.ones(B, dtype=bool)
    for p, _k in kernels.prime_powers(m):
        if B == 1:
            ok &= kernels.full_rank_mod_p(A[0].tolist(), p)
        else:
            P = kernels._eliminate(A, p, 1, c)[0]
            ok &= (P[:, np.arange(c), np.arange(c)] == 1).sum(axis=1) == r
    return ok


# -- ring matrices ---------------------------------------------------------
# A ring matrix is a list of rows of ring indices; over the base Z/m of the
# ring each entry is a d x d block (Rmat for x -> x*c, Lmat for x -> c*x).


def ring_left_rows(ring, C):
    """The (n*d x k*d) int64 rows of x -> x C for an n x k ring matrix C:
    row (l, t) holds the coordinates of b_t * C[l][j], d per column j."""
    C = np.asarray(C, dtype=np.int64)
    n, k = C.shape
    d = ring.base_dim
    return ring.Rmat[C].transpose(0, 3, 1, 2).reshape(n * d, k * d)


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


def rows_unimodular(ring, R):
    """(S,) bool for an (S, k) array of ring indices: is row s of R^k
    left-unimodular (some c with sum c_i R[s, i] = 1)?  One
    kernels.howell_batch over the (k*d, d) systems x -> sum_i x_i R[s, i]
    and one kernels.howell_reduce ask whether the unit's coordinates lie
    in each row module."""
    R = np.asarray(R, dtype=np.int64)
    d, m = ring.base_dim, ring.base_mod
    S = ring.Rmat[R].transpose(0, 1, 3, 2).reshape(len(R), R.shape[1] * d, d)
    one = np.broadcast_to(ring.to_base[ring.one], (len(R), 1, d))
    rest = kernels.howell_reduce(kernels.howell_batch(S, m), one, m)
    return ~rest[:, 0].any(axis=1)


def row_unimodular(ring, row):
    """Is a row of R^k left-unimodular (some c with sum c_i r_i = 1)?"""
    return bool(rows_unimodular(ring, [list(row)])[0])


def unimodular_rows(ring, entries, memo):
    """Left-unimodularity of each row of an (N, k) array of ring indices.
    A unit among the entries settles a row; the others depend only on
    their set of entries, and the sets not yet in `memo` are settled by
    one rows_unimodular call and kept there."""
    ok = (ring.inv[entries] >= 0).any(axis=1)
    rest = np.flatnonzero(~ok)
    if len(rest):
        sets, inverse = np.unique(np.sort(entries[rest], axis=1), axis=0,
                                  return_inverse=True)
        keys = [frozenset(row) for row in sets.tolist()]
        new = [i for i, key in enumerate(keys) if key not in memo]
        if new:
            memo.update(zip([keys[i] for i in new],
                            rows_unimodular(ring, sets[new]).tolist()))
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
