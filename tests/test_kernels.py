"""Kernel correctness against brute-force oracles."""

import itertools
import random
from math import gcd

import pytest

from wittlab import kernels


def row_module(rows, m, width=None):
    """All Z/m combinations of the given rows, as a set of tuples."""
    if not rows:
        return {(0,) * width} if width is not None else set()
    n = len(rows[0])
    out = set()
    for coeffs in itertools.product(range(m), repeat=len(rows)):
        v = tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) % m for k in range(n))
        out.add(v)
    return out


def random_matrix(rng, r, n, m):
    return [[rng.randrange(m) for _ in range(n)] for _ in range(r)]


CASES = [(2, 3, 4), (3, 3, 6), (3, 2, 8), (2, 4, 12), (4, 3, 2), (3, 4, 9), (2, 2, 5)]
# the kernels under test, named by the implementation a run records
KERNELS = pytest.mark.parametrize("impl", [kernels], ids=[kernels.IMPLEMENTATION])


@KERNELS
@pytest.mark.parametrize("r,n,m", CASES)
def test_howell_row_module_and_transform(impl, r, n, m):
    rng = random.Random(1000 * r + 10 * n + m)
    for _ in range(8):
        A = random_matrix(rng, r, n, m)
        H, pivots, T, K = impl.howell_aug(A, m)
        assert len(H) == len(pivots) == len(T)
        # transform replays: T * A == H
        for trow, hrow in zip(T, H):
            prod = [sum(t * a for t, a in zip(trow, col)) % m
                    for col in zip(*A)] if A else []
            assert prod == hrow
        # same row module as the input
        assert row_module(H, m, n) | {(0,) * n} == row_module(A, m, n) | {(0,) * n}
        # strictly increasing pivots, pivot divides m, entries above reduced
        assert pivots == sorted(pivots)
        for i, j in enumerate(pivots):
            p = H[i][j]
            assert m % p == 0
            for i2 in range(i):
                assert H[i2][j] < p
        # kernel rows annihilate A and generate the full kernel
        for krow in K:
            prod = [sum(t * a for t, a in zip(krow, col)) % m for col in zip(*A)]
            assert not any(prod)
        brute_kernel = {
            x
            for x in itertools.product(range(m), repeat=r)
            if not any(sum(c * A[i][k] for i, c in enumerate(x)) % m for k in range(n))
        }
        assert row_module(K, m, r) | {(0,) * r} == brute_kernel


@KERNELS
def test_reduce_vec_membership_and_canonical(impl):
    rng = random.Random(7)
    for r, n, m in [(2, 3, 4), (3, 3, 6), (2, 2, 9)]:
        A = random_matrix(rng, r, n, m)
        H, pivots, T, K = impl.howell_aug(A, m)
        module = row_module(A, m)
        reps = {}
        for v in itertools.product(range(m), repeat=n):
            red, coeffs = impl.reduce_vec(H, pivots, list(v), m)
            assert (not any(red)) == (v in module)
            # rep is constant on cosets and reps of distinct cosets differ
            key = tuple(
                tuple((x - y) % m for x, y in zip(v, w)) in module for w in reps
            )
            red = tuple(red)
            if red in reps:
                diff = tuple((a - b) % m for a, b in zip(v, reps[red]))
                assert diff in module
            else:
                reps[red] = v
            del key
        # number of canonical reps == index of the module
        assert len(reps) * len(module) == m ** n


def minor_gcd_divisors(A):
    """SNF divisors via gcds of k x k minors (independent oracle)."""
    import numpy as np

    M = np.array(A, dtype=object)
    nr, nc = M.shape
    divs = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = M[list(rows)][:, list(cols)]
                g = gcd(g, int(round(_det(sub))))
        if g == 0:
            break
        divs.append(g // prev)
        prev = g
    return sorted(divs)


def _det(sub):
    n = sub.shape[0]
    if n == 1:
        return int(sub[0, 0])
    total = 0
    for j in range(n):
        if sub[0, j]:
            import numpy as np

            minor = np.delete(np.delete(sub, 0, axis=0), j, axis=1)
            total += (-1) ** j * int(sub[0, j]) * _det(minor)
    return total


@KERNELS
def test_snf_divisors_against_minor_gcds(impl):
    rng = random.Random(11)
    fixed = [
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 0], [0, 1]],
        [[0, 0], [0, 0]],
        [[2, 0], [0, 3]],
        [[6]],
    ]
    cases = fixed + [random_matrix(rng, 3, 4, 7) for _ in range(6)]
    for A in cases:
        A = [[v - 3 for v in row] for row in A] if A and len(A[0]) == 4 else A
        got = sorted(impl.snf_divisors(A))
        want = minor_gcd_divisors(A)
        assert got == want, (A, got, want)


def test_snf_known_value():
    # divisors via minors: gcd 2, then 4, det 624 -> 2, 2, 156
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert sorted(kernels.snf_divisors(A)) == [2, 2, 156]
