"""Arithmetic kernels in pure Python: Howell form over Z/m with its
transform and kernel, reduction against it, and Smith normal form divisors.

All matrices are lists of lists of Python ints.  Entries of mod-m matrices
are kept in ``[0, m)``.
"""

from math import gcd

# the backend name a benchmark run records
IMPLEMENTATION = "pure"


def xgcd(a, b):
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def stab_unit(a, m):
    """A unit u of Z/m with u*a == gcd(a, m) mod m.

    Exists for every a; found by lifting the inverse of a/g mod m/g.
    """
    a %= m
    g = gcd(a, m)
    if a == 0:
        return 1
    a1, m1 = a // g, m // g
    u = pow(a1, -1, m1) if m1 > 1 else 1
    for _ in range(m):
        if gcd(u, m) == 1:
            return u % m
        u += m1
    raise ArithmeticError("no stabilizing unit found")  # unreachable


def howell_aug(A, m):
    """Howell form of the row module of A over Z/m with transform and kernel.

    A: r x n matrix (list of lists), entries in [0, m).
    Returns (H, pivots, T, K):
      H      h x n, the canonical Howell form (no zero rows),
      pivots list of pivot column indices of H, strictly increasing,
      T      h x r with T*A == H  (mod m),
      K      q x r, rows generate {x in (Z/m)^r : x*A == 0 mod m}.
    """
    r = len(A)
    n = len(A[0]) if r else 0
    width = n + r
    pool = []
    for i in range(r):
        row = [v % m for v in A[i]] + [0] * r
        row[n + i] = 1
        pool.append(row)

    h_rows = []
    pivots = []
    for j in range(n):
        keep = []
        sel = []
        for row in pool:
            (sel if row[j] else keep).append(row)
        if not sel:
            pool = keep
            continue
        piv = sel[0]
        for row in sel[1:]:
            a, b = piv[j], row[j]
            g = gcd(a, m)
            if b % g == 0:
                # single elimination keeps piv (and the transform) sparser;
                # a/g is invertible mod m/g and m/g >= 2 since 0 < a < m
                t = (b // g) * pow(a // g, -1, m // g) % m
                for k in range(j, width):
                    row[k] = (row[k] - t * piv[k]) % m
            else:
                g2, s, t = xgcd(a, b)
                ag, bg = a // g2, b // g2
                for k in range(j, width):
                    pk, rk = piv[k], row[k]
                    piv[k] = (s * pk + t * rk) % m
                    row[k] = (ag * rk - bg * pk) % m
            keep.append(row)
        u = stab_unit(piv[j], m)
        if u != 1:
            for k in range(j, width):
                piv[k] = piv[k] * u % m
        p = piv[j]
        q = m // p
        ann = [q * piv[k] % m for k in range(width)]
        if any(ann):
            keep.append(ann)
        h_rows.append(piv)
        pivots.append(j)
        pool = keep

    # entries above each pivot reduced mod the pivot -> canonical form
    for idx in range(len(h_rows)):
        piv, j = h_rows[idx], pivots[idx]
        p = piv[j]
        for idx2 in range(idx):
            row = h_rows[idx2]
            c = row[j] // p
            if c:
                for k in range(j, width):
                    row[k] = (row[k] - c * piv[k]) % m

    H = [row[:n] for row in h_rows]
    T = [row[n:] for row in h_rows]
    K = [row[n:] for row in pool if any(row[n:])]
    return H, pivots, T, K


def reduce_vec(H, pivots, v, m):
    """Greedy Howell reduction of v; returns (rep, coeffs).

    rep = v - coeffs*H mod m is the canonical representative of v modulo the
    row module of H (entry at each pivot column lies in [0, pivot)); v lies in
    the row module iff rep is zero.
    """
    w = [x % m for x in v]
    coeffs = [0] * len(H)
    n = len(w)
    for i, j in enumerate(pivots):
        p = H[i][j]
        c = w[j] // p
        if c:
            coeffs[i] = c
            hi = H[i]
            for k in range(j, n):
                w[k] = (w[k] - c * hi[k]) % m
    return w, coeffs


def snf_divisors(A):
    """Nonzero elementary divisors d_1 | d_2 | ... of an integer matrix.

    Plain Smith reduction with exact Python integers (no overflow); returns
    the positive divisors in divisibility order.  The input is not modified.
    """
    A = [list(map(int, row)) for row in A]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    divs = []
    t = 0
    while True:
        # pivot search: smallest nonzero magnitude in the remaining block
        best = None
        for i in range(t, nr):
            row = A[i]
            for j in range(t, nc):
                v = row[j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]

        while True:
            # clear column t
            for i in range(t + 1, nr):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        rt, ri = A[t], A[i]
                        for k in range(t, nc):
                            ri[k] -= q * rt[k]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
            # clear row t
            for j in range(t + 1, nc):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
            if any(A[i][t] for i in range(t + 1, nr)):
                continue  # row ops on column may have refilled it
            d = A[t][t]
            # enforce divisibility of the remaining block
            offender = None
            for i in range(t + 1, nr):
                row = A[i]
                for j in range(t + 1, nc):
                    if row[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            rt, ro = A[t], A[offender]
            for k in range(t, nc):
                rt[k] += ro[k]
        divs.append(abs(A[t][t]))
        t += 1
        if t >= nr or t >= nc:
            break
    divs.sort()
    return divs
