"""Finite rings with anti-involution, central units and form parameters.

Every ring here is a free Z/m-module of rank d (m = base modulus) with a
basis b_0..b_{d-1}, and is given by its structure constants: the tensor T
with b_s b_t = sum_u T[s, t, u] b_u and the matrix C whose column t holds
the coordinates of conj(b_t).  All tables (addition, multiplication,
involution, the base matrices of multiplication and conjugation) are
derived from T and C over canonical element indices, and all linear
algebra is done exactly in the base module.  Construction checks the ring
axioms on the basis only: T is associative on basis triples, C^2 = 1 and
C(b_s b_t) = C(b_t) C(b_s).  That is complete, because the product is
bilinear and C is linear, so addition, distributivity and additivity of
the involution hold by construction and the other laws extend from the
basis.
"""

import itertools

import numpy as np

SIZE_CAP = 256


class RingError(ValueError):
    pass


class Ring:
    """A finite ring with anti-involution, tabulated up to SIZE_CAP elements.

    Built from the structure tensor T (d x d x d over Z/m, T[s, t] the
    coordinates of b_s b_t) and the involution matrix C (column t the
    coordinates of conj(b_t)).  Elements are canonical indices
    0..size-1: index = sum_t c_t m^t for the coordinates c of the element,
    so `to_base[r]` holds the coordinates of r, index 0 is zero and
    `basis[t]` = m^t is b_t.
    """

    def __init__(self, name, kind, m, T, C):
        m = int(m)
        C = np.ascontiguousarray(C, dtype=np.int64) % m
        d = len(C)
        size = m ** d
        if size > SIZE_CAP:
            raise RingError(
                "ring with %d elements exceeds the tabulation cap %d"
                % (size, SIZE_CAP)
            )
        T = np.asarray(T, dtype=np.int64) % m
        _check_basis(T, C, m)
        self.name = name
        self.kind = kind
        self.size = size
        self.base_mod = m
        self.base_dim = d
        self.zero = 0
        self.basis = [m ** t for t in range(d)]

        coords = np.arange(size)[:, None] // np.array(self.basis) % m
        self.to_base = coords
        self.add = self.indices(coords[:, None, :] + coords[None, :, :])
        self.neg = self.indices(-coords)
        # column t of Lmat[a] / Rmat[a] holds the coordinates of a b_t / b_t a
        self.Lmat = np.einsum("as,stu->aut", coords, T, order="C") % m
        self.Rmat = np.einsum("as,tsu->aut", coords, T, order="C") % m
        self.Cmat = C
        self.mul = self.indices(np.einsum("aut,bt->abu", self.Lmat, coords))
        self.conj = self.indices(coords @ C.T)

        eye = np.eye(d, dtype=np.int64)
        one = np.flatnonzero((self.Lmat == eye).all(axis=(1, 2))
                             & (self.Rmat == eye).all(axis=(1, 2)))
        if not len(one):
            raise RingError("ring has no multiplicative identity")
        self.one = int(one[0])
        inverse = (self.mul == self.one) & (self.mul.T == self.one)
        self.inv = np.where(inverse.any(axis=1), inverse.argmax(axis=1), -1)
        self.units = frozenset(np.flatnonzero(self.inv >= 0).tolist())
        self.central = frozenset(
            np.flatnonzero((self.mul == self.mul.T).all(axis=1)).tolist())
        # posets._onto_hook's tables, per value-matrix shape (nd, d)
        self.hook_tables = {}

    # -- basics ---------------------------------------------------------

    def index_of_coords(self, coords):
        m = self.base_mod
        return sum(int(c) % m * m ** t for t, c in enumerate(coords))

    def indices(self, coords):
        """Ring indices of an int array's coordinate blocks (last axis)."""
        m = self.base_mod
        return (coords % m) @ (m ** np.arange(self.base_dim, dtype=np.int64))

    def elements(self):
        return range(self.size)

    def check_indices(self, values, what):
        """The entries of values as ints; RingError if one lies outside
        [0, size), so no index from outside wraps round or overruns a
        table."""
        values = [int(v) for v in values]
        if not all(0 <= v < self.size for v in values):
            raise RingError("%s: ring index outside [0, %d)"
                            % (what, self.size))
        return values

    def sub(self, a, b):
        return int(self.add[a, self.neg[b]])

    def label(self, a):
        """Human-readable element label."""
        if self.base_dim == 1:
            return str(int(a))
        return str(tuple(int(c) for c in self.to_base[a]))

    def __repr__(self):
        return "Ring(%s)" % self.name


def _check_basis(T, C, m):
    """The ring axioms on basis elements; see the module docstring."""
    d = len(C)
    # (b_s b_t) b_u and b_s (b_t b_u)
    if not np.array_equal(np.einsum("stv,vuw->stuw", T, T) % m,
                          np.einsum("tuv,svw->stuw", T, T) % m):
        raise RingError("multiplication not associative")
    if not np.array_equal(C @ C % m, np.eye(d, dtype=np.int64)):
        raise RingError("involution does not square to the identity")
    # conj(b_s b_t) and conj(b_t) conj(b_s)
    if not np.array_equal(np.einsum("wv,stv->stw", C, T) % m,
                          np.einsum("it,js,ijw->stw", C, C, T) % m):
        raise RingError("involution does not reverse products")


# -- constructors --------------------------------------------------------

_IRREDUCIBLE = {4: (1, 1), 8: (1, 1, 0), 9: (2, 0)}
# x^e rewritten as sum _IRREDUCIBLE[q][k] x^k: x^2 = x+1 over GF(2),
# x^3 = x+1 over GF(2), x^2 = -1 over GF(3)


def _gf_structure(q, mode):
    """(p, T, C) of GF(q) = GF(p)[x]/(x^e - ...) on the basis 1, x, .., x^(e-1)."""
    if not 2 <= q <= 9:
        raise RingError("gf supports prime powers 2 <= q <= 9")
    p = next(k for k in range(2, q + 1) if q % k == 0)
    e = next(k for k in range(1, q) if p ** k >= q)
    if p ** e != q:
        raise RingError("%d is not a prime power" % q)
    if mode not in ("id", "frobenius"):
        raise RingError("unknown conj mode %r" % mode)
    if mode == "frobenius" and e % 2 and e > 1:
        raise RingError("frobenius is not an involution on GF(%d)" % q)
    # x -> x^(p^(e/2)) has order 2; on GF(p) it is the identity
    exp = p ** (e // 2) if mode == "frobenius" else 1
    powers = [np.eye(e, dtype=np.int64)[0]]  # coordinates of x^k, reduced
    for _ in range(max(2 * e - 2, (e - 1) * exp)):
        top, low = powers[-1][-1], powers[-1][:-1]
        powers.append((np.concatenate(([0], low))
                       + top * np.array(_IRREDUCIBLE[q])) % p)
    s = np.arange(e)
    T = np.array(powers)[s[:, None] + s[None, :]]
    C = np.array(powers)[s * exp].T
    return p, T, C


def _group_structure(group, w1):
    """(T, C) of the group ring over its group basis: b_g b_h = b_gh and
    conj(b_g) = w1(g) b_(g^-1).  Associativity is the ring's basis check."""
    if isinstance(group, str):
        if group not in _NAMED_GROUPS:
            raise RingError("unknown group %r" % group)
        group = _NAMED_GROUPS[group]
    ng = len(group)
    if not ng or any(not isinstance(row, (list, tuple)) or len(row) != ng
                     for row in group):
        raise RingError("group table must be a non-empty square table")
    if ng > 8:
        raise RingError("group order must be <= 8")
    if not all(isinstance(g, int) and 0 <= g < ng for row in group for g in row):
        raise RingError("group table entries must be element indices < %d" % ng)
    table = np.array(group, dtype=np.int64)
    elems = np.arange(ng)
    ident = np.flatnonzero((table == elems).all(axis=1)
                           & (table.T == elems).all(axis=1))
    if not len(ident):
        raise RingError("group table has no identity")
    inverse = (table == ident[0]) & (table.T == ident[0])
    if not inverse.any(axis=1).all():
        raise RingError("group table has an element without inverse")
    w1 = w1 or [1] * ng
    if isinstance(w1, dict):
        w1 = [int(w1.get(str(g), w1.get(g, 1))) for g in range(ng)]
    if len(w1) != ng or any(v not in (1, -1) for v in w1):
        raise RingError("w1 must map each group element to +-1")
    w1 = np.array(w1, dtype=np.int64)
    if not np.array_equal(w1[table], np.outer(w1, w1)):
        raise RingError("w1 is not a homomorphism")
    T = np.zeros((ng, ng, ng), dtype=np.int64)
    T[elems[:, None], elems[None, :], table] = 1
    C = np.zeros((ng, ng), dtype=np.int64)
    C[inverse.argmax(axis=1), elems] = w1
    return T, C


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _product(t1, t2):
    n1, n2 = len(t1), len(t2)
    size = n1 * n2

    def enc(a, b):
        return a * n2 + b

    table = [[0] * size for _ in range(size)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[enc(a1, b1)][enc(a2, b2)] = enc(t1[a1][a2], t2[b1][b2])
    return table


def _perm_group(perms):
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(len(p)))] for q in perms]
             for p in perms]
    return table


def _s3():
    perms = list(itertools.permutations(range(3)))
    return _perm_group(perms)


def _d4():
    # symmetries of the square as permutations of its corners
    r = (1, 2, 3, 0)
    s = (1, 0, 3, 2)
    elems = set()
    frontier = [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        if p in elems:
            continue
        elems.add(p)
        frontier.append(tuple(r[p[k]] for k in range(4)))
        frontier.append(tuple(s[p[k]] for k in range(4)))
    return _perm_group(sorted(elems))


def _q8():
    # quaternion units as pairs (sign, symbol) with symbols 1,i,j,k
    names = [(s, x) for x in range(4) for s in (1, -1)]
    index = {nm: i for i, nm in enumerate(names)}
    sym_mul = {}
    for x in range(4):
        sym_mul[(0, x)] = (1, x)
        sym_mul[(x, 0)] = (1, x)
    sym_mul[(1, 1)] = (-1, 0)
    sym_mul[(2, 2)] = (-1, 0)
    sym_mul[(3, 3)] = (-1, 0)
    sym_mul[(1, 2)] = (1, 3)
    sym_mul[(2, 1)] = (-1, 3)
    sym_mul[(2, 3)] = (1, 1)
    sym_mul[(3, 2)] = (-1, 1)
    sym_mul[(3, 1)] = (1, 2)
    sym_mul[(1, 3)] = (-1, 2)
    table = []
    for s1, x1 in names:
        row = []
        for s2, x2 in names:
            s3, x3 = sym_mul[(x1, x2)]
            row.append(index[(s1 * s2 * s3, x3)])
        table.append(row)
    return table


_NAMED_GROUPS = {"C%d" % _n: _cyclic(_n) for _n in range(1, 9)}
_NAMED_GROUPS.update(
    C2xC2=_product(_cyclic(2), _cyclic(2)),
    C2xC4=_product(_cyclic(2), _cyclic(4)),
    C2xC2xC2=_product(_cyclic(2), _product(_cyclic(2), _cyclic(2))),
    S3=_s3(), D4=_d4(), Q8=_q8())


def make_ring(spec):
    """Build and validate a Ring from a JSON-style description.

    Supported kinds:
      {"kind": "zmod", "n": 4}
      {"kind": "gf", "q": 4, "conj": "id" | "frobenius"}
      {"kind": "group_ring", "m": 2, "group": "C2", "w1": [1, -1]}
    """
    kind = spec["kind"]
    if kind == "zmod":
        n = int(spec["n"])
        if n < 2:
            raise RingError("zmod needs n >= 2")
        return Ring(spec.get("name", "Z/%d" % n), kind, n, [[[1]]], [[1]])
    if kind == "gf":
        q = int(spec["q"])
        mode = spec.get("conj", "id")
        p, T, C = _gf_structure(q, mode)
        tilde = "~" if mode == "frobenius" and q != p else ""
        name = spec.get("name", "GF(%d)%s" % (q, tilde))
        return Ring(name, kind, p, T, C)
    if kind == "group_ring":
        m = int(spec["m"])
        if m < 2:
            raise RingError("group_ring needs m >= 2")
        group = spec["group"]
        T, C = _group_structure(group, spec.get("w1"))
        gname = group if isinstance(group, str) else "G%d" % len(C)
        suffix = "" if (C >= 0).all() else ",w1"  # C holds w1(g) = -1 as is
        name = spec.get("name", "(Z/%d)[%s%s]" % (m, gname, suffix))
        return Ring(name, kind, m, T, C)
    raise RingError("unknown ring kind %r" % kind)


# -- form parameters ------------------------------------------------------


def lambda_bounds(ring, epsilon):
    """(Lambda_min, Lambda_max) for a central unit epsilon with conj(e)=e^-1."""
    _check_epsilon(ring, epsilon)
    lam_min = set()
    for r in range(ring.size):
        lam_min.add(ring.sub(r, int(ring.mul[epsilon, ring.conj[r]])))
    lam_max = set()
    for r in range(ring.size):
        if int(ring.mul[epsilon, ring.conj[r]]) == int(ring.neg[r]):
            lam_max.add(r)
    if not lam_min <= lam_max:
        raise RingError("Lambda_min not inside Lambda_max; epsilon invalid")
    return frozenset(lam_min), frozenset(lam_max)


def _check_epsilon(ring, epsilon):
    if epsilon not in ring.units:
        raise RingError("epsilon is not a unit")
    if epsilon not in ring.central:
        raise RingError("epsilon is not central")
    if int(ring.conj[epsilon]) != int(ring.inv[epsilon]):
        raise RingError("conj(epsilon) != epsilon^-1")


class FormParameter:
    """A form parameter (epsilon, Lambda) on a ring with anti-involution."""

    def __init__(self, ring, epsilon, lam):
        self.ring = ring
        self.epsilon = int(epsilon)
        self.lam = frozenset(int(x) for x in lam)
        lam_min, lam_max = lambda_bounds(ring, self.epsilon)
        self.lam_min = lam_min
        self.lam_max = lam_max
        self._validate()
        rep = np.empty(ring.size, dtype=np.int64)
        for r in range(ring.size):
            rep[r] = min(int(ring.add[r, l]) for l in self.lam)
        self._rep = rep
        self.eps_bar = int(ring.conj[self.epsilon])
        self.name = "%s eps=%s |Lambda|=%d" % (ring.name, ring.label(self.epsilon),
                                               len(self.lam))

    def _validate(self):
        ring, lam = self.ring, self.lam
        if not self.lam_min <= lam:
            raise RingError("Lambda does not contain Lambda_min")
        if not lam <= self.lam_max:
            raise RingError("Lambda exceeds Lambda_max")
        for a in lam:
            if int(ring.neg[a]) not in lam:
                raise RingError("Lambda not closed under negation")
            for b in lam:
                if int(ring.add[a, b]) not in lam:
                    raise RingError("Lambda not additively closed")
        for r in range(ring.size):
            rc = ring.conj[r]
            for a in lam:
                if int(ring.mul[ring.mul[rc, a], r]) not in lam:
                    raise RingError("conj(r) Lambda r escapes Lambda")

    def coset_rep(self, r):
        return int(self._rep[r])

    def coset_reps(self, idx):
        """coset_rep of every ring index in an int array."""
        return self._rep[idx]

    def __repr__(self):
        return "FormParameter(%s)" % self.name


def make_form_parameter(ring, epsilon, generators=()):
    """Close generators together with Lambda_min into a form parameter.

    The closure runs under addition, negation and r -> conj(s) r s; if it
    escapes Lambda_max no form parameter contains the generators.
    """
    lam_min, lam_max = lambda_bounds(ring, epsilon)
    lam = set(lam_min) | set(ring.check_indices(generators,
                                                "Lambda generator"))
    changed = True
    while changed:
        changed = False
        for a in list(lam):
            na = int(ring.neg[a])
            if na not in lam:
                lam.add(na)
                changed = True
            for b in list(lam):
                ab = int(ring.add[a, b])
                if ab not in lam:
                    lam.add(ab)
                    changed = True
            for s in range(ring.size):
                v = int(ring.mul[ring.mul[ring.conj[s], a], s])
                if v not in lam:
                    lam.add(v)
                    changed = True
        if not lam <= lam_max:
            raise RingError("no valid form parameter contains these generators")
    return FormParameter(ring, epsilon, lam)
