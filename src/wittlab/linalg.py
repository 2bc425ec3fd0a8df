"""Exact linear algebra over Z/m on top of the Howell-form kernels.

Everything downstream (unimodularity, splittings, unitary groups, posets)
reduces to row-oriented problems  x * A = b  over Z/m; this module wraps the
kernel calls with solving, kernels, membership, element enumeration and
size bookkeeping.  It keeps no cache: callers that repeat a system keep
their LinearSolver.
"""

import itertools

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

    @property
    def module_size(self):
        size = 1
        for i, j in enumerate(self.pivots):
            size *= self.m // self.H[i][j]
        return size

    def enumerate_module(self):
        """All elements of the row module (use only when small)."""
        m = self.m
        if not self.H:
            yield (0,) * self.width
            return
        n = len(self.H[0])
        ranges = [range(m // self.H[i][j]) for i, j in enumerate(self.pivots)]
        for coeffs in itertools.product(*ranges):
            v = [0] * n
            for c, row in zip(coeffs, self.H):
                if c:
                    for k in range(n):
                        v[k] = (v[k] + c * row[k]) % m
            yield tuple(v)

    def enumerate_canonical_reps(self):
        """All canonical representatives modulo the row module."""
        m = self.m
        n = self.width if not self.H else len(self.H[0])
        pivset = {j: self.H[i][j] for i, j in enumerate(self.pivots)}
        ranges = [range(pivset.get(k, m)) for k in range(n)]
        for v in itertools.product(*ranges):
            yield v

