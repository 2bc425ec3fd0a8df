"""Finitely presented right modules over a tabulated finite ring.

A module is R^n modulo the R-span of relator columns.  Elements are stored
as canonical base-coordinate vectors (length n*d over Z/m), canonicalized by
Howell reduction against the expanded relation module, so equality and
hashing are exact.  A module map is one int64 matrix on those coordinates,
so applying and composing maps are numpy products.
"""

import itertools

import numpy as np

from wittlab.linalg import LinearSolver, invertible, ring_left_rows
from wittlab.rings import RingError

ENUM_CAP = 4096


class CapExceeded(RuntimeError):
    pass


class Module:
    def __init__(self, ring, ngens, relators=(), name=None):
        self.ring = ring
        self.ngens = int(ngens)
        self.relators = tuple(tuple(ring.check_indices(col, "relator"))
                              for col in relators)
        for col in self.relators:
            if len(col) != self.ngens:
                raise RingError("relator length != number of generators")
        d, m = ring.base_dim, ring.base_mod
        self.nd = self.ngens * d
        rows = []
        if self.relators:  # rows (rho, t): the raw coordinates of rho * b_t
            X = ring.to_base[np.array(self.relators, dtype=np.int64)]
            rows = act_columns(ring, X.reshape(len(self.relators),
                                               self.nd)).T.tolist()
        self.rel = LinearSolver(rows, m, width=self.nd)
        self.size = m ** self.nd // self.rel.module_size
        self.name = name or "M(%s;%d gens,%d rels)" % (
            ring.name, self.ngens, len(self.relators))
        self._gen_columns = None

    # -- element plumbing -------------------------------------------------

    def canon(self, vec):
        rep, _ = self.rel.reduce(vec)
        return tuple(rep)

    def canon_columns(self, A):
        """A (nd x k int64) mod m, each column replaced by its canonical
        form: reduce_vec's pass over the Howell rows of the relations, in
        pivot order, on all columns at once."""
        m = self.ring.base_mod
        A = A % m
        for h, j in zip(self.rel.H, self.rel.pivots):
            A = (A - np.outer(h, A[j] // h[j])) % m
        return A

    @property
    def gen_columns(self):
        """The (nd x ngens) array of the generators' coordinates."""
        if self._gen_columns is None:
            n = self.ngens
            cols = np.zeros((n, self.ring.base_dim, n), dtype=np.int64)
            cols[np.arange(n), :, np.arange(n)] = \
                self.ring.to_base[self.ring.one]
            self._gen_columns = self.canon_columns(cols.reshape(self.nd, n))
        return self._gen_columns

    def element(self, blocks):
        """Element from a tuple of ring indices, one per generator."""
        ring = self.ring
        if len(blocks) != self.ngens:
            raise RingError("%d ring indices for %d generators"
                            % (len(blocks), self.ngens))
        vec = []
        for a in ring.check_indices(blocks, "element"):
            vec.extend(int(x) for x in ring.to_base[a])
        return ModuleElement(self, self.canon(vec))

    def from_vec(self, vec):
        return ModuleElement(self, self.canon(vec))

    def zero(self):
        return ModuleElement(self, (0,) * self.nd)

    def gen(self, i):
        blocks = [self.ring.zero] * self.ngens
        blocks[i] = self.ring.one
        return self.element(blocks)

    def gens(self):
        return [self.gen(i) for i in range(self.ngens)]

    def elements(self, cap=ENUM_CAP):
        if self.size > cap:
            raise CapExceeded("module has %d elements, cap %d" % (self.size, cap))
        for vec in self.rel.enumerate_canonical_reps():
            yield ModuleElement(self, vec)

    def element_at(self, i):
        """The i-th element in the order of elements(), for 0 <= i < size,
        without enumerating the others."""
        return ModuleElement(self, self.rel.canonical_rep(i))

    def element_index(self, V):
        """The positions in elements() of the rows of the (..., nd) int
        array V, canonical or not: the inverse of element_at."""
        V = np.asarray(V, dtype=np.int64)
        lead = V.shape[:-1]
        rows = self.canon_columns(V.reshape(int(np.prod(lead)), self.nd).T).T
        return self.rel.rep_index(rows).reshape(lead)

    def element_rows(self, cap=ENUM_CAP):
        """The elements, and their coordinates as one (size, nd) array."""
        elems = list(self.elements(cap=cap))
        return elems, self.coord_rows(elems)

    def coord_rows(self, elems):
        """The (len(elems), nd) int64 array of the elements' coordinates."""
        return np.array([x.vec for x in elems], dtype=np.int64).reshape(
            len(elems), self.nd)

    def add_vec(self, u, v):
        m = self.ring.base_mod
        return self.canon([(a + b) % m for a, b in zip(u, v)])

    def act_vec(self, vec, r):
        """vec * r (right action by a ring element)."""
        ring = self.ring
        d, m = ring.base_dim, ring.base_mod
        R = ring.Rmat[r]
        out = []
        for i in range(self.ngens):
            block = vec[i * d:(i + 1) * d]
            out.extend(int(sum(R[s, t] * block[t] for t in range(d))) % m
                       for s in range(d))
        return self.canon(out)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


class ModuleElement:
    __slots__ = ("module", "vec")

    def __init__(self, module, vec):
        self.module = module
        self.vec = tuple(vec)

    def ring_blocks(self):
        ring = self.module.ring
        d = ring.base_dim
        return tuple(
            ring.index_of_coords(self.vec[i * d:(i + 1) * d])
            for i in range(self.module.ngens)
        )

    def __add__(self, other):
        return ModuleElement(self.module, self.module.add_vec(self.vec, other.vec))

    def __sub__(self, other):
        m = self.module.ring.base_mod
        return ModuleElement(
            self.module,
            self.module.canon([(a - b) % m for a, b in zip(self.vec, other.vec)]),
        )

    def __neg__(self):
        m = self.module.ring.base_mod
        return ModuleElement(self.module, self.module.canon([-a % m for a in self.vec]))

    def __mul__(self, r):
        return ModuleElement(self.module, self.module.act_vec(self.vec, int(r)))

    def is_zero(self):
        return not any(self.vec)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module is other.module
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return "<%s>" % (",".join(self.module.ring.label(b)
                                  for b in self.ring_blocks()))


def free_module(ring, n, name=None):
    return Module(ring, n, (), name=name or "%s^%d" % (ring.name, n))

def cyclic_module(ring, a, name=None):
    M = Module(ring, 1, ((a,),))
    M.name = name or "%s/(%s)" % (ring.name, ring.label(a))
    return M


def direct_sum_modules(A, B):
    ring = A.ring
    n = A.ngens + B.ngens
    rels = [tuple(col) + (ring.zero,) * B.ngens for col in A.relators]
    rels += [(ring.zero,) * A.ngens + tuple(col) for col in B.relators]
    S = Module(ring, n, rels, name="%s + %s" % (A.name, B.name))

    def inj_a(x):
        return S.from_vec(list(x.vec) + [0] * B.nd)

    def inj_b(x):
        return S.from_vec([0] * A.nd + list(x.vec))

    return S, inj_a, inj_b


# -- functionals -----------------------------------------------------------


class Functional:
    """An R-linear functional M -> R given by its values on the generators."""

    __slots__ = ("module", "values")

    def __init__(self, module, values):
        self.module = module
        self.values = tuple(int(v) for v in values)

    def __call__(self, x):
        ring = self.module.ring
        acc = ring.zero
        for c, a in zip(self.values, x.ring_blocks()):
            acc = int(ring.add[acc, ring.mul[c, a]])
        return acc

    @property
    def matrix(self):
        """The d x nd int64 matrix F with coords(phi(x)) = F x mod m on raw
        coordinates: block i is Lmat[c_i]."""
        ring = self.module.ring
        L = ring.Lmat[np.array(self.values, dtype=np.int64)]
        return L.transpose(1, 0, 2).reshape(ring.base_dim, self.module.nd)

    def __eq__(self, other):
        return (isinstance(other, Functional) and self.module is other.module
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "phi%s" % (self.values,)


def _evaluation_matrix(M, elems=()):
    """The ngens x (relators + elems) ring matrix of generator entries: a
    functional's generator values c satisfy phi(x) = sum c_i x_i, so its
    ring_left_rows are the values on the relators (which must vanish) and
    then on the elements."""
    ring = M.ring
    V = np.array([x.vec for x in elems], dtype=np.int64).reshape(
        len(elems), M.ngens, ring.base_dim)
    cols = np.array(M.relators, dtype=np.int64).reshape(len(M.relators),
                                                        M.ngens)
    return np.vstack([cols, ring.indices(V)]).T


def functional_space(M):
    """LinearSolver whose row module is the set of all functionals M -> R
    (as base-coordinate vectors of their generator values)."""
    rows = ring_left_rows(M.ring, _evaluation_matrix(M)).tolist()
    return LinearSolver(rows, M.ring.base_mod).kernel()


def functional_from_coords(M, gamma):
    ring = M.ring
    d = ring.base_dim
    values = [ring.index_of_coords(gamma[i * d:(i + 1) * d]) for i in range(M.ngens)]
    return Functional(M, values)


def all_functionals(M, cap=ENUM_CAP):
    space = functional_space(M)
    if space.module_size > cap:
        raise CapExceeded("functional space too large")
    return [functional_from_coords(M, v) for v in space.enumerate_module()]


def is_unimodular(M, seq):
    """Dual maps phi_j with phi_j(v_i) = delta_ij, or None.

    A sequence admitting functionals with invertible value matrix admits
    corrected duals, so solvability of the delta system is the exact
    criterion.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    ring = M.ring
    d, m = ring.base_dim, ring.base_mod
    nrel_cols = d * len(M.relators)
    rows = ring_left_rows(ring, _evaluation_matrix(M, seq)).tolist()
    solver = LinearSolver(rows, m, width=nrel_cols + d * len(seq))
    gammas = solver.solve_delta(len(seq), ring.to_base[ring.one].tolist(),
                                lead=nrel_cols)
    if gammas is None:
        return None
    return [functional_from_coords(M, gamma) for gamma in gammas]


def is_unimodular_bruteforce(M, seq, cap=ENUM_CAP):
    """Definitional oracle: search all functional tuples for an invertible
    value matrix (an invertible matrix corrects to Kronecker duals),
    independent of the solver path."""
    seq = list(seq)
    funcs = all_functionals(M, cap=cap)
    k = len(seq)
    for combo in itertools.product(funcs, repeat=k):
        B = [[combo[j](seq[i]) for j in range(k)] for i in range(k)]
        if ring_matrix_invertible(M.ring, B):
            return True
    return False


def ring_matrix_invertible(ring, B):
    """Is a k x k matrix over R invertible (as a map of right modules)?
    Row (j, t) of its Z/m matrix holds the coordinates of B[i][j] b_t, d
    per i."""
    k, d = len(B), ring.base_dim
    L = ring.Lmat[np.asarray(B, dtype=np.int64).reshape(k, k)]
    rows = L.transpose(1, 3, 0, 2).reshape(1, k * d, k * d)
    return bool(invertible(rows, ring.base_mod)[0])


def rank(M, cap=ENUM_CAP):
    """Largest n with a unimodular length-n sequence (incremental search)."""
    if M.size == 1:
        return 0
    bound = 0
    size = M.size
    while size % M.ring.size == 0 and size > 1:
        size //= M.ring.size
        bound += 1
    if bound == 0:
        return 0
    elems = list(M.elements(cap=cap))
    best = [0]

    def dfs(seq, span_rows):
        if len(seq) > best[0]:
            best[0] = len(seq)
        if best[0] >= bound:
            return
        span = LinearSolver(span_rows, M.ring.base_mod, width=M.nd)
        for v in elems:
            if v.is_zero() or span.contains(v.vec):
                continue
            if is_unimodular(M, seq + [v]) is not None:
                rows = M.canon_columns(act_columns(M.ring, [v.vec])).T
                dfs(seq + [v], span_rows + rows.tolist())
                if best[0] >= bound:
                    return

    base_rows = [list(r) for r in M.rel.H]
    dfs([], base_rows)
    return best[0]


# -- maps ------------------------------------------------------------------


def act_columns(ring, X):
    """Columns (i, t) = x_i * b_t (raw, mod m) for the rows x_i of the
    (k, nd) coordinate array X: the (nd, k*d) matrix whose product with
    the raw coordinates of sum_i g_i * a_i is sum_i x_i * a_i."""
    d = ring.base_dim
    X = np.asarray(X, dtype=np.int64)
    k, nd = X.shape
    # act_vec per block: coords_s(y * b_t) = sum_u Rmat[b_t][s, u] * y_u
    B = np.einsum("tsu,iju->jsit", ring.Rmat[ring.basis],
                  X.reshape(k, nd // d, d))
    return B.reshape(nd, k * d) % ring.base_mod


class ModuleMap:
    """An R-linear map as one int64 matrix B (codomain.nd x domain.nd):
    column (i, t) holds the canonical coordinates of image_i * b_t, so the
    map is x -> B @ x mod m on raw coordinates."""

    def __init__(self, domain, codomain, images, check=True):
        images = tuple(images)
        X = codomain.coord_rows(images)
        self._setup(domain, codomain, act_columns(domain.ring, X), images,
                    check)

    @classmethod
    def from_matrix(cls, domain, codomain, B, check=True):
        """The map x -> B @ x mod m; its generator images are read off B."""
        f = cls.__new__(cls)
        f._setup(domain, codomain, np.asarray(B, dtype=np.int64), None, check)
        return f

    def _setup(self, domain, codomain, B, images, check):
        self.domain = domain
        self.codomain = codomain
        self.B = codomain.canon_columns(B.reshape(codomain.nd, domain.nd))
        self._images = images
        self._pre = None
        if check and not self.well_defined():
            raise RingError("map does not respect the relations")

    def generator_images(self):
        """Rows: the canonical coordinates of f(g) per domain generator g."""
        return self.codomain.canon_columns(
            self.B @ self.domain.gen_columns).T

    @property
    def images(self):
        if self._images is None:
            self._images = tuple(ModuleElement(self.codomain, tuple(row))
                                 for row in self.generator_images().tolist())
        return self._images

    def well_defined(self):
        rel = self.domain.rel.H
        if not rel:
            return True
        imgs = self.B @ np.array(rel, dtype=np.int64).T
        return not self.codomain.canon_columns(imgs).any()

    def __call__(self, x):
        m = self.domain.ring.base_mod
        vec = np.array(x.vec, dtype=np.int64)
        return self.codomain.from_vec(((self.B @ vec) % m).tolist())

    def _preimage_solver(self):
        """Solver over (x | c) for B@x + c-combination-of-relations = target."""
        if self._pre is None:
            m = self.domain.ring.base_mod
            rows = self.B.T.tolist() + [list(r) for r in self.codomain.rel.H]
            self._pre = LinearSolver(rows, m, width=self.codomain.nd)
        return self._pre

    def preimage(self, y):
        """One x with map(x) == y, or None."""
        sol = self._preimage_solver().solve(list(y.vec))
        if sol is None:
            return None
        return self.domain.from_vec(sol[:self.domain.nd])

    def kernel_preimage_size(self):
        """|{x in (Z/m)^nd : B@x lies in the codomain relation module}|."""
        return self._preimage_solver().kernel(self.domain.nd).module_size

    def is_injective(self):
        return self.kernel_preimage_size() == self.domain.rel.module_size

    def is_bijective(self):
        return self.domain.size == self.codomain.size and self.is_injective()

    def inverse(self):
        if not self.is_bijective():
            raise RingError("map is not invertible")
        imgs = []
        for j in range(self.codomain.ngens):
            x = self.preimage(self.codomain.gen(j))
            if x is None:
                raise RingError("map is not surjective")
            imgs.append(x)
        inv = ModuleMap(self.codomain, self.domain, imgs)
        return inv

    def compose(self, other):
        """self after other."""
        return ModuleMap.from_matrix(other.domain, self.codomain,
                                     self.B @ other.B, check=False)

    def key(self):
        return tuple(x.vec for x in self.images)

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.domain is other.domain
                and self.codomain is other.codomain and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())


def identity_map(M):
    return ModuleMap.from_matrix(M, M, np.eye(M.nd, dtype=np.int64),
                                 check=False)


def submodule(M, gens):
    """Present the R-span of `gens` inside M; returns (K, inclusion).

    Generators lying in the span of the others are dropped first.  When M
    has no relators and the rows g_i * b_t are independent mod every prime
    of m, the span is free on the g_i: nothing is dropped and the
    presentation has no relators, so K is R^s at once.
    """
    ring = M.ring
    d, m = ring.base_dim, ring.base_mod
    gens = [g for g in gens if not g.is_zero()]
    # rows (i, t): the canonical g_i * b_t
    A = M.canon_columns(act_columns(ring, M.coord_rows(gens))).T
    if gens and not M.relators and _independent(A, m):
        K = Module(ring, len(gens), ())
        return K, ModuleMap(K, M, gens, check=False)
    # spans[i]: the d rows g_i * b_t
    spans = A.reshape(len(gens), d, M.nd).tolist()
    # greedy minimization, first generator first: one pass drops what a
    # rescan after each drop would, since a generator outside the span of
    # the others stays outside it as they shrink
    idx = 0
    while idx < len(gens):
        rows = [list(r) for r in M.rel.H]
        rows += [row for j, span in enumerate(spans) if j != idx
                 for row in span]
        if LinearSolver(rows, m, width=M.nd).contains(gens[idx].vec):
            gens.pop(idx)
            spans.pop(idx)
        else:
            idx += 1
    s = len(gens)
    if s == 0:
        K = Module(ring, 0, (), name="0")
        return K, ModuleMap(K, M, [], check=False)
    # relation module of the presentation R^s ->> span
    rows = [row for span in spans for row in span]
    rows += [list(r) for r in M.rel.H]
    relators = []
    for row in LinearSolver(rows, m, width=M.nd).kernel(s * d).H:
        relators.append(tuple(ring.index_of_coords(row[i * d:(i + 1) * d])
                              for i in range(s)))
    K = Module(ring, s, relators)
    incl = ModuleMap(K, M, gens)
    return K, incl


def _independent(rows, m):
    """Are the rows of the int64 array independent over Z/m?"""
    return bool(invertible(rows[None], m)[0])


def split_summand(M, seq, witnesses=None):
    """Split M as R^k + complement along a unimodular sequence.

    Returns (K, incl, duals) with K the kernel of the dual tuple, incl its
    inclusion, duals the corrected functionals.
    """
    if witnesses is None:
        witnesses = is_unimodular(M, seq)
    if witnesses is None:
        raise RingError("sequence is not unimodular")
    ring = M.ring
    m = ring.base_mod
    # kernel of x -> (phi_j(x))_j
    rows = np.hstack([phi.matrix.T for phi in witnesses])
    gens = [M.from_vec(list(r))
            for r in LinearSolver(rows.tolist(), m).kernel().H]
    K, incl = submodule(M, gens)
    if K.size * ring.size ** len(seq) != M.size:
        raise RingError("splitting sizes inconsistent")
    return K, incl, witnesses


def is_isomorphic(M, N, cap=ENUM_CAP):
    """An explicit isomorphism M -> N, or None (exhaustive within cap)."""
    if M.size != N.size:
        return None
    if M.size == 1:
        return ModuleMap(M, N, [N.zero() for _ in range(M.ngens)], check=False)
    if _annihilator_profile(M) != _annihilator_profile(N):
        return None
    ring = M.ring
    m = ring.base_mod
    n_elems = list(N.elements(cap=cap))
    anns = [_generator_annihilator(M, i) for i in range(M.ngens)]

    rel_cols = list(M.relators)

    def dfs(assigned):
        i = len(assigned)
        if i == M.ngens:
            f = ModuleMap(M, N, assigned, check=True)
            if f.is_bijective():
                return f
            return None
        for h in n_elems:
            ok = True
            for r in anns[i]:
                if not (h * r).is_zero():
                    ok = False
                    break
            if not ok:
                continue
            if not _partial_consistent(M, N, assigned + [h], rel_cols):
                continue
            got = dfs(assigned + [h])
            if got is not None:
                return got
        return None

    return dfs([])


def _generator_annihilator(M, i):
    ring = M.ring
    g = M.gen(i)
    return [r for r in range(ring.size) if (g * r).is_zero()]


def _annihilator_profile(M):
    """|ker(x -> x*r)| per ring element; invariant under isomorphism."""
    ring = M.ring
    prof = []
    for r in range(ring.size):
        f = ModuleMap(M, M, [g * r for g in M.gens()], check=False)
        prof.append(f.kernel_preimage_size() // M.rel.module_size)
    return tuple(prof)


def _partial_consistent(M, N, assigned, rel_cols):
    """Can the remaining generator images be chosen to satisfy the relations?"""
    if not rel_cols:
        return True
    ring = M.ring
    m = ring.base_mod
    j = len(assigned)
    rest = M.ngens - j
    width = N.nd * len(rel_cols)
    # target: -(sum over assigned generators of h_i * rho_i) per relator
    target = []
    for col in rel_cols:
        acc = N.zero()
        for i in range(j):
            acc = acc + assigned[i] * col[i]
        target.extend((-a) % m for a in acc.vec)
    if rest == 0:
        return not any(N.canon(target[k * N.nd:(k + 1) * N.nd]) != (0,) * N.nd
                       for k in range(len(rel_cols)))
    # rows (i, s): the canonical e_s * col[j + i] per relator; x -> x * c
    # is kron(1, Rmat[c]) on raw coordinates
    eye = np.eye(N.ngens, dtype=np.int64)
    rows = []
    for i in range(rest):
        acts = [np.kron(eye, ring.Rmat[col[j + i]]) for col in rel_cols]
        rows += np.hstack([N.canon_columns(B).T for B in acts]).tolist()
    # allow adjusting by the relation module of N in every relator slot
    for k in range(len(rel_cols)):
        for hr in N.rel.H:
            row = [0] * width
            row[k * N.nd:(k + 1) * N.nd] = list(hr)
            rows.append(row)
    return LinearSolver(rows, m, width=width).contains(target)
