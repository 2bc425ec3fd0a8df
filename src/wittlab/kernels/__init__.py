"""Arithmetic kernels: Howell form over Z/m with its transform and kernel,
reduction against it, a rank test mod p, and Smith normal form divisors,
in pure Python; and in numpy, _eliminate, the elimination of a whole
stack of systems over Z/p^k, with howell_kernel the kernel rows of each
system over Z/m.

The pure-Python kernels take lists of lists of Python ints; the numpy
ones take a (B, r, c) int array.  Entries of mod-m matrices are kept in
``[0, m)``.
"""

import functools
from math import gcd

import numpy as np

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


def full_rank_mod_p(A, p):
    """Are the rows of A (list of lists) independent over the field Z/p?
    For a square A: is it invertible?  Gaussian elimination, stopping as
    soon as fewer columns than rows remain."""
    rows = [[x % p for x in row] for row in A]
    n = len(rows[0]) if rows else 0
    for j in range(n):
        if len(rows) > n - j:
            return False
        piv = next((row for row in rows if row[j]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[j], -1, p)
        for row in rows:
            c = row[j] * inv % p
            if c:
                for t in range(j + 1, n):
                    row[t] = (row[t] - c * piv[t]) % p
    return not rows


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
            if d == 1 or d == -1:
                break  # a unit divides every entry: nothing to scan
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


# -- batched Howell elimination over Z/m -------------------------------------
# A stack of B systems is one (B, r, c) int64 array.  Z/m splits by CRT
# into its prime-power factors Z/p^k, a chain ring: every nonzero a is
# p^v * u with u a unit, so each column pivots on an entry of least
# valuation, every other entry of the column is an exact multiple of it,
# and the annihilator of the pivot row is its p^(k-v) multiple.


def prime_powers(m):
    """The (p, k) with m = prod p^k, p ascending."""
    out, p = [], 2
    while p * p <= m:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


@functools.lru_cache(maxsize=None)
def _chain_tables(p, k):
    """Over Z/q, q = p^k: (pv, inv, dtype), pv[a] = gcd(a, q) = p^v (q for
    a = 0) and inv[a] the inverse of the unit part a / p^v (0 for a = 0),
    both in dtype, the narrowest integer type holding (-q^2, q^2)."""
    q = p ** k
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if q * q <= np.iinfo(t).max)
    pv = np.full(q, q, dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        pv[a] = gcd(a, q)
        inv[a] = pow(a // gcd(a, q), -1, q)
    return pv.astype(dtype), inv.astype(dtype), dtype


def _mod(X, q):
    """X mod q in place (a mask when q is a power of two)."""
    if q & (q - 1):
        return np.remainder(X, q, out=X)
    return np.bitwise_and(X, q - 1, out=X)


def _eliminate(W, p, k, c):
    """Howell rows of a stack W over Z/p^k, pivoting on the first c of
    its columns.  Returns (P, W): P (B, c, w) holds the pivot row of
    column j at j (its entry there p^v, zero when the column has no
    pivot), and the pool W has zeros in the first c columns.  A pivot row
    leaves the pool as its p^(k-v) multiple, so P's rows with the pool's
    generate the row module and have the Howell property."""
    q = p ** k
    # entries stay in (-q^2, q^2): the narrowest integer type that holds
    # them keeps the passes over the stack short
    pv, inv, dtype = _chain_tables(p, k)
    B = len(W)
    # reduce before narrowing: a cast of an entry past the narrow type's
    # range wraps modulo 2^bits, which keeps its residue only when q | 2^bits
    W = _mod(np.array(W, dtype=np.int64), q).astype(dtype)
    P = np.zeros((B, c, W.shape[2]), dtype=dtype)
    at = np.arange(B)
    for j in range(c if W.shape[1] else 0):
        col = W[:, :, j]
        i = pv[col].argmin(axis=1)  # least valuation
        a = col[at, i]
        piv = _mod(W[at, i] * inv[a][:, None], q)  # zero when a = 0
        g = pv[a]
        # entries of column j are p^v * (exact quotient); the pivot row
        # itself is cleared, then replaced by its annihilator multiple
        W -= (col // g[:, None])[:, :, None] * piv[:, None, :]
        W[at, i] += piv * (q // g)[:, None]
        _mod(W, q)
        P[:, j] = piv
    return P.astype(np.int64), W.astype(np.int64)


def howell_kernel(A, m):
    """Rows generating each {x : x A[b] = 0 mod m}, zero rows included:
    the pools of the elimination of (A | 1) past column c over each
    prime-power factor q of m, lifted by the factor's CRT idempotent (1
    when q = m).  The kernel is complete once every column of A has
    pivoted, so the pivot rows are not read."""
    A = np.asarray(A, dtype=np.int64)
    B, r, c = A.shape
    if B == 1 and r:
        K = howell_aug(A[0].tolist(), m)[3]
        return np.array(K, dtype=np.int64).reshape(1, len(K), r)
    W = np.concatenate([A, np.broadcast_to(np.eye(r, dtype=np.int64),
                                           (B, r, r))], axis=2)
    parts = []
    for p, k in prime_powers(m):
        q = p ** k
        pool = _eliminate(W, p, k, c)[1][:, :, c:]
        idem = m // q * pow(m // q, -1, q) % m
        parts.append(pool if idem == 1 else pool * idem % m)
    return np.concatenate(parts, axis=1)
