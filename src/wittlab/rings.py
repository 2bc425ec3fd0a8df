"""Finite rings with anti-involution, central units and form parameters.

Rings are fully tabulated (addition/multiplication/involution tables as
numpy arrays over canonical element indices) and validated exhaustively at
construction.  Every ring also carries a base decomposition: a free Z/m
module structure of dimension d (m = base modulus) in which all linear
algebra is done exactly.
"""

import itertools

import numpy as np

SIZE_CAP = 256


class RingError(ValueError):
    pass


def _mixed_radix_index(coeffs, m):
    idx = 0
    for c in reversed(coeffs):
        idx = idx * m + int(c)
    return idx


def _mixed_radix_coeffs(idx, m, d):
    out = []
    for _ in range(d):
        out.append(idx % m)
        idx //= m
    return tuple(out)


class Ring:
    """A finite ring with anti-involution, tabulated up to SIZE_CAP elements.

    Elements are canonical indices 0..size-1.  `to_base[r]` holds the
    coordinates of r in the base free Z/m-module of rank `base_dim`; index 0
    is always zero and the base coordinates are the mixed-radix digits of
    the index, so `from_base` is just re-indexing.
    """

    def __init__(self, name, kind, base_mod, base_dim, mul, conj):
        size = base_mod ** base_dim
        if size > SIZE_CAP:
            raise RingError(
                "ring with %d elements exceeds the tabulation cap %d"
                % (size, SIZE_CAP)
            )
        self.name = name
        self.kind = kind
        self.size = size
        self.base_mod = int(base_mod)
        self.base_dim = int(base_dim)
        m, d = self.base_mod, self.base_dim

        self.to_base = np.array(
            [_mixed_radix_coeffs(i, m, d) for i in range(size)], dtype=np.int64
        )
        # addition is coordinatewise in the base module
        coords = self.to_base
        powers = np.array([m ** k for k in range(d)], dtype=np.int64)
        self.add = ((coords[:, None, :] + coords[None, :, :]) % m) @ powers
        self.neg = ((-coords) % m) @ powers
        self.mul = np.asarray(mul, dtype=np.int64)
        self.conj = np.asarray(conj, dtype=np.int64)
        self.zero = 0
        one = None
        for i in range(size):
            if np.array_equal(self.mul[i], np.arange(size)) and np.array_equal(
                self.mul[:, i], np.arange(size)
            ):
                one = i
                break
        if one is None:
            raise RingError("ring has no multiplicative identity")
        self.one = one

        self._validate()

        # units and inverses
        inv = np.full(size, -1, dtype=np.int64)
        eye = self.one
        for a in range(size):
            hits = np.where(self.mul[a] == eye)[0]
            for b in hits:
                if self.mul[b, a] == eye:
                    inv[a] = b
                    break
        self.inv = inv
        self.units = frozenset(int(a) for a in range(size) if inv[a] >= 0)
        mulT = self.mul.T
        self.central = frozenset(
            int(a) for a in range(size) if np.array_equal(self.mul[a], mulT[a])
        )

        # base-module matrices of left/right multiplication and conjugation
        basis = [self.index_of_coords(tuple(int(k == t) for k in range(d)))
                 for t in range(d)]
        self.basis = basis
        Lmat = np.empty((size, d, d), dtype=np.int64)
        Rmat = np.empty((size, d, d), dtype=np.int64)
        for a in range(size):
            for t, bt in enumerate(basis):
                Lmat[a, :, t] = coords[self.mul[a, bt]]
                Rmat[a, :, t] = coords[self.mul[bt, a]]
        self.Lmat = Lmat
        self.Rmat = Rmat
        Cmat = np.empty((d, d), dtype=np.int64)
        for t, bt in enumerate(basis):
            Cmat[:, t] = coords[self.conj[bt]]
        self.Cmat = Cmat

    # -- basics ---------------------------------------------------------

    def index_of_coords(self, coords):
        return _mixed_radix_index([c % self.base_mod for c in coords], self.base_mod)

    def indices(self, coords):
        """Ring indices of an int array's coordinate blocks (last axis)."""
        m = self.base_mod
        return (coords % m) @ (m ** np.arange(self.base_dim, dtype=np.int64))

    def elements(self):
        return range(self.size)

    def sub(self, a, b):
        return int(self.add[a, self.neg[b]])

    def label(self, a):
        """Human-readable element label."""
        if self.base_dim == 1:
            return str(int(a))
        return str(tuple(int(c) for c in self.to_base[a]))

    def __repr__(self):
        return "Ring(%s)" % self.name

    # -- validation -----------------------------------------------------

    def _validate(self):
        size = self.size
        add, mul, conj, neg = self.add, self.mul, self.conj, self.neg
        idx = np.arange(size)
        if not np.array_equal(add, add.T):
            raise RingError("addition not commutative")
        if not np.array_equal(add[0], idx):
            raise RingError("0 is not the additive identity")
        if not np.array_equal(add[idx, neg[idx]], np.zeros(size, dtype=np.int64)):
            raise RingError("negation broken")
        a = idx[:, None, None]
        b = idx[None, :, None]
        c = idx[None, None, :]
        if not np.array_equal(add[add[a, b], c], add[a, add[b, c]]):
            raise RingError("addition not associative")
        if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
            raise RingError("multiplication not associative")
        if not np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]]):
            raise RingError("left distributivity fails")
        if not np.array_equal(mul[add[a, b], c], add[mul[a, c], mul[b, c]]):
            raise RingError("right distributivity fails")
        if not np.array_equal(conj[conj[idx]], idx):
            raise RingError("involution does not square to the identity")
        if not np.array_equal(conj[add[idx[:, None], idx[None, :]]],
                              add[conj[idx][:, None], conj[idx][None, :]]):
            raise RingError("involution not additive")
        if not np.array_equal(conj[mul[idx[:, None], idx[None, :]]],
                              mul[conj[idx][None, :].T, conj[idx][None, :]].T):
            raise RingError("involution does not reverse products")


def _check_conj_reverses(ring):
    # direct, loop-based double check used by tests
    for a in range(ring.size):
        for b in range(ring.size):
            if ring.conj[ring.mul[a, b]] != ring.mul[ring.conj[b], ring.conj[a]]:
                return False
    return True


# -- constructors --------------------------------------------------------

_IRREDUCIBLE = {4: (1, 1), 8: (1, 1, 0), 9: (2, 0)}
# x^e rewritten as sum _IRREDUCIBLE[q][k] x^k: x^2 = x+1 over GF(2),
# x^3 = x+1 over GF(2), x^2 = -1 over GF(3)


def _gf_tables(q):
    ps = [p for p in (2, 3, 5, 7) if q % p == 0]
    p = ps[0]
    e = 0
    qq = q
    while qq > 1:
        if qq % p:
            raise RingError("%d is not a prime power" % q)
        qq //= p
        e += 1
    size = q

    def poly_mul(i, j):
        ci = _mixed_radix_coeffs(i, p, e)
        cj = _mixed_radix_coeffs(j, p, e)
        prod = [0] * (2 * e - 1)
        for s, a in enumerate(ci):
            for t, b in enumerate(cj):
                prod[s + t] = (prod[s + t] + a * b) % p
        if e > 1:
            red = _IRREDUCIBLE[q]  # x^e == sum red[k] x^k
            for s in range(2 * e - 2, e - 1, -1):
                v = prod[s]
                if v:
                    prod[s] = 0
                    for k, rk in enumerate(red):
                        prod[s - e + k] = (prod[s - e + k] + v * rk) % p
        return _mixed_radix_index(prod[:e], p)

    mul = [[poly_mul(i, j) for j in range(size)] for i in range(size)]
    return p, e, mul


_NAMED_GROUPS = {}


def _register_group(name, table, inverse=None):
    _NAMED_GROUPS[name] = table


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


for _n in range(1, 9):
    _register_group("C%d" % _n, _cyclic(_n))
_register_group("C2xC2", _product(_cyclic(2), _cyclic(2)))
_register_group("C2xC4", _product(_cyclic(2), _cyclic(4)))
_register_group("C2xC2xC2", _product(_cyclic(2), _product(_cyclic(2), _cyclic(2))))
_register_group("S3", _s3())
_register_group("D4", _d4())
_register_group("Q8", _q8())


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
        mul = [[(i * j) % n for j in range(n)] for i in range(n)]
        conj = list(range(n))
        return Ring(spec.get("name", "Z/%d" % n), kind, n, 1, mul, conj)
    if kind == "gf":
        q = int(spec["q"])
        if q > 9:
            raise RingError("gf supports q <= 9")
        p, e, mul = _gf_tables(q)
        mode = spec.get("conj", "id")
        if mode == "id":
            conj = list(range(q))
        elif mode == "frobenius":
            if e == 1:
                conj = list(range(q))  # x -> x^p is the identity on GF(p)
            elif e % 2:
                raise RingError("frobenius is not an involution on GF(%d)" % q)
            else:
                exp = p ** (e // 2)  # x -> x^(p^(e/2)) has order 2
                conj = []
                for a in range(q):
                    acc = a
                    for _ in range(exp - 1):
                        acc = mul[acc][a]
                    conj.append(acc)
        else:
            raise RingError("unknown conj mode %r" % mode)
        name = spec.get("name", "GF(%d)%s" % (q, "~" if mode == "frobenius" and e > 1 else ""))
        return Ring(name, kind, p, e, mul, conj)
    if kind == "group_ring":
        m = int(spec["m"])
        group = spec["group"]
        table = _NAMED_GROUPS[group] if isinstance(group, str) else group
        ng = len(table)
        if ng > 8:
            raise RingError("group order must be <= 8")
        w1 = spec.get("w1") or [1] * ng
        if isinstance(w1, dict):
            w1 = [int(w1.get(str(g), w1.get(g, 1))) for g in range(ng)]
        if len(w1) != ng or any(v not in (1, -1) for v in w1):
            raise RingError("w1 must map each group element to +-1")
        for g in range(ng):
            for h in range(ng):
                if w1[table[g][h]] != w1[g] * w1[h]:
                    raise RingError("w1 is not a homomorphism")
        ident = next(g for g in range(ng) if all(table[g][h] == h for h in range(ng)))
        ginv = [next(h for h in range(ng) if table[g][h] == ident) for g in range(ng)]
        size = m ** ng

        def gr_mul(i, j):
            ci = _mixed_radix_coeffs(i, m, ng)
            cj = _mixed_radix_coeffs(j, m, ng)
            out = [0] * ng
            for g in range(ng):
                if ci[g]:
                    for h in range(ng):
                        if cj[h]:
                            k = table[g][h]
                            out[k] = (out[k] + ci[g] * cj[h]) % m
            return _mixed_radix_index(out, m)

        mul = [[gr_mul(i, j) for j in range(size)] for i in range(size)]

        def gr_conj(i):
            ci = _mixed_radix_coeffs(i, m, ng)
            out = [0] * ng
            for g in range(ng):
                if ci[g]:
                    sign = w1[g]
                    out[ginv[g]] = (out[ginv[g]] + sign * ci[g]) % m
            return _mixed_radix_index(out, m)

        conj = [gr_conj(i) for i in range(size)]
        gname = group if isinstance(group, str) else "G%d" % ng
        suffix = "" if all(v == 1 for v in w1) else ",w1"
        name = spec.get("name", "(Z/%d)[%s%s]" % (m, gname, suffix))
        return Ring(name, kind, m, ng, mul, conj)
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

    def coset(self, r):
        return LambdaCoset(self, self.coset_rep(r))

    def __repr__(self):
        return "FormParameter(%s)" % self.name


class LambdaCoset:
    """An element of R/Lambda, stored by its canonical representative."""

    __slots__ = ("param", "rep")

    def __init__(self, param, rep):
        self.param = param
        self.rep = int(rep)

    def __eq__(self, other):
        return (
            isinstance(other, LambdaCoset)
            and self.param is other.param
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((id(self.param), self.rep))

    def is_zero(self):
        return self.rep == self.param.coset_rep(self.param.ring.zero)

    def __repr__(self):
        return "[%s]" % self.param.ring.label(self.rep)


def make_form_parameter(ring, epsilon, generators=()):
    """Close generators together with Lambda_min into a form parameter.

    The closure runs under addition, negation and r -> conj(s) r s; if it
    escapes Lambda_max no form parameter contains the generators.
    """
    lam_min, lam_max = lambda_bounds(ring, epsilon)
    lam = set(lam_min) | {int(g) for g in generators}
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
