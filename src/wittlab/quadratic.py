"""Quadratic modules (M, lambda, mu), hyperbolic modules, unitary maps.

A quadratic module over (R, eps, Lambda) is a right module M with a
sesquilinear form lambda (antilinear first slot) and mu: M -> R/Lambda
satisfying the axioms

    (1)  lambda(x, y) = eps * conj(lambda(y, x)),
    (2)  mu(x*a) = conj(a) * mu(x) * a,
    (3)  mu(x+y) - mu(x) - mu(y) = lambda(x, y)  mod Lambda.

The form data lives on generators: gram[i][j] = lambda(g_i, g_j) and a
Lambda-coset representative mu_i per generator.  Internally both extend
through the sesquilinear lift q (upper triangle = gram, diagonal = mu
representatives): lambda = q + eps*conj(q^T) and mu(x) = q(x,x) mod Lambda.
Validation rejects any gram/mu pair violating the axioms or the relations.

On raw coordinate vectors both forms are Z/m-bilinear: lam_coeffs and
q_coeffs are int64 arrays T of shape (d, nd, nd) with coords_t of
lambda(x, y) (resp. q(x, y)) equal to x . T[t] . y mod m.  Every linear
system in lambda (unimodularity witnesses, complements, radicals, partners)
takes its rows from lam_rows, one numpy product over T; lambda and mu of
many vectors at once (isometry tests, sub-structures, signature pools, mu
classes) come from lam_table and mu_reps, one product each.
"""

import functools

import numpy as np

from wittlab.linalg import LinearSolver, invertible
from wittlab.modules import (
    CapExceeded,
    Module,
    ModuleElement,
    ModuleMap,
    _partial_consistent,
    act_columns,
    direct_sum_modules,
    functional_space,
    identity_map,
    is_unimodular,
    submodule,
)
from wittlab.rings import RingError

GROUP_CAP = 4096
# integers below this are exact in float64
FLOAT_EXACT = 1 << 53
# entries of an array past which a float64 BLAS product beats int64
BLAS_CELLS = 1 << 12


class QuadraticModule:
    def __init__(self, module, gram, mu, parameter, name=None):
        ring = module.ring
        if parameter.ring is not ring:
            raise RingError("form parameter belongs to a different ring")
        n = module.ngens
        gram = [ring.check_indices(row, "gram") for row in gram]
        mu = [parameter.coset_rep(v) for v in ring.check_indices(mu, "mu")]
        if len(gram) != n or any(len(row) != n for row in gram) or len(mu) != n:
            raise RingError("gram/mu shapes do not match the generators")
        self.module = module
        self.ring = ring
        self.param = parameter
        self.gram = gram
        self.mu = mu
        self.name = name or "Q(%s)" % module.name
        eps = parameter.epsilon
        # axiom (1) on the gram
        for i in range(n):
            for j in range(n):
                if gram[i][j] != int(ring.mul[eps, ring.conj[gram[j][i]]]):
                    raise RingError(
                        "axiom (1) fails on generators (%d, %d)" % (i, j))
        # diagonal consistency forced by axioms (1)+(3):
        # lambda(g,g) = mu(g) + eps*conj(mu(g)), independent of the mu rep
        for i in range(n):
            want = int(ring.add[mu[i], ring.mul[eps, ring.conj[mu[i]]]])
            if gram[i][i] != want:
                raise RingError(
                    "gram diagonal inconsistent with mu at generator %d" % i)
        # sesquilinear lift
        q = [[ring.zero] * n for _ in range(n)]
        for i in range(n):
            q[i][i] = mu[i]
            for j in range(i + 1, n):
                q[i][j] = gram[i][j]
        self.q = q
        # relations: lambda(g_i, rho) = 0 and mu(rho) in Lambda
        # (evaluated on the raw relator vector, not its canonical form)
        for rho in module.relators:
            vec = []
            for a in rho:
                vec.extend(int(x) for x in ring.to_base[a])
            for i in range(n):
                if self.lam_vec(module.gen(i).vec, vec) != ring.zero:
                    raise RingError("lambda does not vanish on a relator")
            if not parameter.coset_rep(self.q_vec(vec, vec)) == parameter.coset_rep(ring.zero):
                raise RingError("mu does not vanish on a relator")
        self.hyperbolic_pairs = []  # populated by the hyperbolic constructors
        # elementary unitary generators and their stacked matrices, filled
        # by the EU-orbit engine in stable_range
        self.eu_cache = {}

    # -- coefficient arrays, built on first use: a structure that is only
    # looked up in witt_index's memo never needs them ---------------------

    @functools.cached_property
    def lam_coeffs(self):
        return _coeff_array(self, self.gram)

    @functools.cached_property
    def q_coeffs(self):
        return _coeff_array(self, self.q)

    # list views for the scalar lam_vec / q_vec, whose pure-Python loop
    # beats a numpy product per pair at these sizes
    @functools.cached_property
    def _lam_list(self):
        return self.lam_coeffs.tolist()

    @functools.cached_property
    def _q_list(self):
        return self.q_coeffs.tolist()

    # -- evaluation -------------------------------------------------------

    def lam_vec(self, u, v):
        """lambda on raw coordinate vectors, as a ring index."""
        return _eval_pair(self, self._lam_list, u, v)

    def q_vec(self, u, v):
        return _eval_pair(self, self._q_list, u, v)

    def lam_rows(self, vecs, slot=0):
        """The nd x (d*k) coordinate rows of lambda against the k raw
        vectors vecs: row s holds coords of lambda(e_s, v_1), ...,
        lambda(e_s, v_k) (slot 0: the unit vector e_s in the first slot),
        or of lambda(v_j, e_s) (slot 1), d entries per v_j."""
        T = self.lam_coeffs
        d, nd = T.shape[0], T.shape[1]
        V = np.array(vecs, dtype=np.int64).reshape(len(vecs), nd)
        if slot == 0:
            R = (T @ V.T).transpose(1, 2, 0)  # [s, j, t] = lambda(e_s, v_j)_t
        else:
            R = (V @ T).transpose(2, 1, 0)  # [s, j, t] = lambda(v_j, e_s)_t
        return (R.reshape(nd, len(V) * d) % self.ring.base_mod).tolist()

    def lam_table(self, X, Y):
        """Ring indices of lambda(x_i, y_j) for the rows of the raw
        coordinate arrays X and Y, or of each pair of a stack of them: one
        product per base coordinate, summed in place so a large table is
        held about twice, not four times."""
        m = self.ring.base_mod
        out = np.zeros(X.shape[:-1] + Y.shape[-2:-1], dtype=np.int64)
        for t, T in enumerate(self.lam_coeffs):
            P = X @ T @ np.swapaxes(Y, -1, -2)
            P %= m
            P *= m ** t
            out += P
        return out

    def mu_reps(self, X):
        """Lambda-coset representatives of mu(x_i) for the rows of X."""
        return self.param.coset_reps(_diagonal(self, self.q_coeffs, X))

    def lam(self, x, y):
        return self.lam_vec(x.vec, y.vec)

    def mu_rep(self, x):
        return self.param.coset_rep(self.q_vec(x.vec, x.vec))

    def mu_zero(self, x):
        return self.mu_rep(x) == self.param.coset_rep(self.ring.zero)

    def mu_zero_rows(self, X):
        """mu_zero of each row of the raw coordinate array X, from one
        mu_reps product."""
        return self.mu_reps(X) == self.param.coset_rep(self.ring.zero)

    def __repr__(self):
        return self.name

    @property
    def size(self):
        return self.module.size


def _coeff_array(Q, coeff):
    """(d, nd, nd) int64 T with coords(form(x, y))_t = x . T[t] . y mod m,
    for the form with generator values coeff (antilinear first slot):
    T[t][i*d + s][j*d + u] = coords_t(conj(b_s) * coeff[i][j] * b_u)."""
    ring = Q.ring
    d = ring.base_dim
    n = Q.module.ngens
    basis = np.array(ring.basis, dtype=np.intp)
    # W[s, c, u, t] = coords_t(conj(b_s) * c * b_u) for every ring element c
    W = ring.to_base[ring.mul[ring.mul[ring.conj[basis]]][:, :, basis]]
    C = np.array(coeff, dtype=np.intp).reshape(n, n)
    # W[:, C] is indexed [s, i, j, u, t]; T is [t, (i, s), (j, u)]
    T = W[:, C].transpose(4, 1, 0, 2, 3).reshape(d, n * d, n * d)
    return np.ascontiguousarray(T, dtype=np.int64)


def _eval_pair(Q, tables, u, v):
    ring = Q.ring
    m = ring.base_mod
    d = ring.base_dim
    nd = Q.module.nd
    coords = []
    for tt in range(d):
        T = tables[tt]
        acc = 0
        for s in range(nd):
            us = u[s]
            if us:
                row = T[s]
                acc += us * sum(row[t] * v[t] for t in range(nd) if v[t])
        coords.append(acc % m)
    return ring.index_of_coords(coords)


def _diagonal(Q, coeffs, X):
    """Ring indices of form(x_i, x_i) for the rows of X, the form given by
    its coefficient array (lam_coeffs or q_coeffs).  Each coordinate is a
    sum of nd^2 products of two entries of x and one of coeffs, at most
    nd^2 v^2 (m - 1) for entries of size at most v: below FLOAT_EXACT a
    large X runs in float64 (numpy hands the product to BLAS, which it
    does not do for int64), exact, and otherwise in int64."""
    X = np.asarray(X)
    nd, m = X.shape[-1], Q.ring.base_mod
    v = int(np.abs(X).max(initial=0)) if X.size >= BLAS_CELLS else 0
    if v and nd * nd * v * v * (m - 1) < FLOAT_EXACT:
        Xf = X.astype(np.float64)
        diag = np.einsum("tiu,iu->it", Xf @ coeffs.astype(np.float64), Xf)
        return Q.ring.indices(diag.astype(np.int64))
    return Q.ring.indices(np.einsum("tiu,iu->it", X @ coeffs, X))


def make_quadratic(module, gram, mu, parameter, name=None):
    return QuadraticModule(module, gram, mu, parameter, name=name)


def zero_quadratic(parameter):
    ring = parameter.ring
    return QuadraticModule(Module(ring, 0, (), name="0"), [], [], parameter, name="0")


def hyperbolic(parameter, g):
    """H^g: generators ordered e_1, f_1, ..., e_g, f_g."""
    ring = parameter.ring
    module = Module(ring, 2 * g, (), name="H^%d(%s)" % (g, ring.name))
    n = 2 * g
    gram = [[ring.zero] * n for _ in range(n)]
    for l in range(g):
        gram[2 * l][2 * l + 1] = ring.one
        gram[2 * l + 1][2 * l] = parameter.epsilon
    Q = QuadraticModule(module, gram, [ring.zero] * n, parameter,
                        name="H^%d over %s" % (g, ring.name))
    gens = [ModuleElement(module, tuple(x))
            for x in module.gen_columns.T.tolist()]
    Q.hyperbolic_pairs = list(zip(gens[0::2], gens[1::2]))
    return Q


def direct_sum_quadratic(A, B, name=None):
    if A.param is not B.param:
        raise RingError("direct sum needs a common form parameter")
    S, ia, ib = direct_sum_modules(A.module, B.module)
    na, nb = A.module.ngens, B.module.ngens
    ring = A.ring
    gram = [[ring.zero] * (na + nb) for _ in range(na + nb)]
    for i in range(na):
        for j in range(na):
            gram[i][j] = A.gram[i][j]
    for i in range(nb):
        for j in range(nb):
            gram[na + i][na + j] = B.gram[i][j]
    mu = list(A.mu) + list(B.mu)
    Q = QuadraticModule(S, gram, mu, A.param,
                        name=name or "%s + %s" % (A.name, B.name))
    Q.hyperbolic_pairs = [(ia(x), ia(y)) for x, y in A.hyperbolic_pairs]
    Q.hyperbolic_pairs += [(ib(x), ib(y)) for x, y in B.hyperbolic_pairs]

    def lift_a(x):
        return S.from_vec(list(x.vec) + [0] * B.module.nd)

    def lift_b(x):
        return S.from_vec([0] * A.module.nd + list(x.vec))

    return Q, lift_a, lift_b


# -- sequence predicates ----------------------------------------------------


def is_lambda_unimodular(Q, seq):
    """Witnesses w_i with lambda(w_i, v_j) = delta_ij, or None."""
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    ring = Q.ring
    k = len(seq)
    # lambda(w, v_j) is Z/m-linear in the coordinates of w
    solver = LinearSolver(Q.lam_rows([v.vec for v in seq]), ring.base_mod,
                          width=ring.base_dim * k)
    sols = solver.solve_delta(k, [int(x) for x in ring.to_base[ring.one]])
    if sols is None:
        return None
    return [Q.module.from_vec(w) for w in sols]


def is_isotropic(Q, elements):
    """mu vanishes and lambda vanishes pairwise on the given elements."""
    X = Q.module.coord_rows(list(elements))
    return bool(Q.mu_zero_rows(X).all()
                and (Q.lam_table(X, X) == Q.ring.zero).all())


def isotropic_span_check(Q, elements):
    """Exhaustive check that the whole R-span is isotropic (small spans)."""
    K, incl = submodule(Q.module, list(elements))
    if K.size > GROUP_CAP:
        raise CapExceeded("span too large")
    span = [incl(x) for x in K.elements(cap=GROUP_CAP)]
    return is_isotropic(Q, span)


def lambda_radical_size(Q):
    """|{x in M : lambda(-, x) = 0}|."""
    module = Q.module
    m = Q.ring.base_mod
    units = np.eye(module.nd, dtype=np.int64)
    kernel = LinearSolver(Q.lam_rows(units, slot=1), m).kernel()
    return kernel.module_size // module.rel.module_size


def lambda_nonsingular(Q):
    """Is x -> lambda(-, x) a bijection onto the (anti)dual?"""
    if lambda_radical_size(Q) != 1:
        return False
    return functional_space(Q.module).module_size == Q.module.size


def nonsingular_promotion_check(Q, seq):
    """Nonsingularity promotes unimodular sequences to lambda-unimodular.

    When x -> lambda(-, x) is bijective, the witnesses w_i = w'_i * eps
    exist with lambda(-, w'_i) agreeing pointwise with the i-th
    unimodularity dual; they are constructed and checked here.  Raises if
    lambda is singular (the promotion does not apply).
    """
    if not lambda_nonsingular(Q):
        raise RingError("lambda singular: promotion not applicable")
    module = Q.module
    ring = Q.ring
    m = ring.base_mod
    witnesses = is_unimodular(module, seq)
    if witnesses is None:
        raise RingError("sequence is not unimodular")
    units = np.eye(module.nd, dtype=np.int64)
    # unknown w' coordinates: row s holds lambda(e_u, e_s) for every u
    solver = LinearSolver(Q.lam_rows(units, slot=1), m)
    out = []
    for phi in witnesses:
        wp = solver.solve(phi.matrix.T.reshape(-1).tolist())  # phi(e_u) per u
        if wp is None:
            raise RingError("nonsingular pairing yielded no witness (internal)")
        w = module.from_vec(wp) * Q.param.epsilon
        out.append(w)
    for i, w in enumerate(out):
        for j, v in enumerate(seq):
            want = ring.one if i == j else ring.zero
            if Q.lam(w, v) != want:
                raise RingError("constructed witnesses fail the Kronecker check")
    return out


# -- unitary maps -----------------------------------------------------------


class UnitaryMap:
    """An invertible module map preserving lambda and mu."""

    def __init__(self, Q, f, check=True, tag=None):
        self.Q = Q
        self.f = f
        self.tag = tag
        if check and not is_unitary(Q, f):
            raise RingError("map is not unitary")

    def __call__(self, x):
        return self.f(x)

    def compose(self, other):
        return UnitaryMap(self.Q, self.f.compose(other.f), check=False,
                          tag=("comp", self.tag, other.tag))

    def key(self):
        return self.f.key()

    @property
    def orthogonal(self):
        """For a transvection tau(e, u, x): is e lambda-unimodular?"""
        e = self.Q.module.from_vec(self.tag[1])
        return is_lambda_unimodular(self.Q, [e]) is not None

    def __eq__(self, other):
        return isinstance(other, UnitaryMap) and self.f == other.f

    def __hash__(self):
        return hash(self.f)


def is_isometry(Q1, Q2, f):
    """Does the module map f: Q1 -> Q2 preserve lambda and mu on the
    generators (sufficient by sesquilinearity and axiom (3)), and is it
    bijective?  Between free modules this is isometry_mask on f's matrix;
    a presented module keeps the solver's bijectivity test."""
    if f.domain is not Q1.module or f.codomain is not Q2.module:
        return False
    if not (Q1.module.relators or Q2.module.relators):
        return bool(isometry_mask(Q1, Q2, f.B[None])[0])
    if not f.well_defined():
        return False
    return bool(_preserves_forms(Q1, Q2, f.generator_images()[None])[0]
                and f.is_bijective())


def _preserves_forms(Q1, Q2, X):
    """(k,) bool: for the (k, n, nd2) stack X of generator images, is mu
    of each image Q1's mu of its generator and lambda among the images
    Q1's gram?  One product each for the whole stack."""
    k, n = X.shape[:2]
    mu = Q2.mu_reps(X.reshape(k * n, X.shape[2])).reshape(k, n)
    gram = np.array(Q1.gram, dtype=np.int64).reshape(n, n)
    return ((mu == np.array(Q1.mu, dtype=np.int64)).all(axis=1)
            & (Q2.lam_table(X, X) == gram).all(axis=(1, 2)))


def isometry_mask(Q1, Q2, Bs):
    """(k,) bool: which maps x -> Bs[i] x mod m of Q1's free module to
    Q2's (a (k, nd2, nd1) stack) preserve lambda and mu and are
    bijective: one product each for lambda and mu, and one invertibility
    query for the maps that pass them."""
    m = Q1.ring.base_mod
    Bs = np.asarray(Bs, dtype=np.int64)
    X = np.swapaxes(Bs @ Q1.module.gen_columns % m, 1, 2)
    ok = _preserves_forms(Q1, Q2, X)
    if Q1.module.nd != Q2.module.nd:
        return ok & False
    ok[ok] = invertible(Bs[ok], m)
    return ok


def is_unitary(Q, f):
    return is_isometry(Q, Q, f)


def identity_unitary(Q):
    return UnitaryMap(Q, identity_map(Q.module), check=False, tag="id")


def transvection_matrices(Q, e, U, X):
    """The matrices of tau(e, u_i, x_i), v -> v + u l(e,v) - e eps_bar l(u,v)
    - e eps_bar x l(e,v), for the rows u_i of the raw coordinate array U and
    the ring indices x_i of X, as one (k, nd, nd) int64 array mod m:

        I + M_u L_e - M_e Lmat[eps_bar] L_u - M_e Lmat[eps_bar x] L_e,

    with L_y the d x nd coordinate matrix of lambda(y, -) and M_y the
    nd x d matrix of r -> y r.  Requires mu(e) = 0, lambda(e, u_i) = 0 and
    x_i a representative of mu(u_i), each checked by one product over all
    rows; the maps are not yet verified unitary.
    """
    ring = Q.ring
    param = Q.param
    d, m = ring.base_dim, ring.base_mod
    nd = Q.module.nd
    U = np.asarray(U, dtype=np.int64).reshape(-1, nd)
    X = np.asarray(X, dtype=np.int64).reshape(len(U))
    EU = np.vstack([np.array(e, dtype=np.int64).reshape(1, nd), U])
    mu = Q.mu_reps(EU)
    L = np.einsum("kn,tnm->ktm", EU, Q.lam_coeffs)
    L_e, L_U = L[0], L[1:]
    if mu[0] != param.coset_rep(ring.zero):
        raise RingError("transvection needs mu(e) = 0")
    if (L_e @ U.T % m).any():
        raise RingError("transvection needs lambda(e, u) = 0")
    if not np.array_equal(param.coset_reps(X), mu[1:]):
        raise RingError("x must represent mu(u)")
    M = act_columns(ring, EU)
    M_e = M[:, :d]
    M_U = M[:, d:].reshape(nd, len(U), d).transpose(1, 0, 2)  # (k, nd, d)
    eb = param.eps_bar
    B = np.eye(nd, dtype=np.int64) + M_U @ L_e - (M_e @ ring.Lmat[eb]) @ L_U \
        - M_e @ ring.Lmat[ring.mul[eb, X]] @ L_e
    return B % m


def transvection(Q, e, u, x, check=True):
    """tau(e, u, x), the one-row case of transvection_matrices, verified
    unitary and invertible unless check=False (for a caller that verifies
    the map it composes from this one).  The orthogonal-transvection
    designation additionally asks e to be lambda-unimodular (the
    `orthogonal` property)."""
    B = transvection_matrices(Q, e.vec, [u.vec], [int(x)])[0]
    f = ModuleMap.from_matrix(Q.module, Q.module, B, check=False)
    return UnitaryMap(Q, f, check=check, tag=("tau", e.vec, u.vec, int(x)))


# -- sub-quadratic-structures ------------------------------------------------


def sub_quadratic(Q, gens):
    """Quadratic structure on the R-span of `gens`; returns (K, incl)."""
    K, incl = submodule(Q.module, list(gens))
    X = incl.generator_images()
    QK = QuadraticModule(K, Q.lam_table(X, X).tolist(), Q.mu_reps(X).tolist(),
                         Q.param)
    return QK, incl


def orthogonal_complement(Q, elements):
    """(S^perp as a quadratic module, inclusion into Q's module), generated
    by the Howell rows of the kernel of x -> (lambda(s, x))_s."""
    A = Q.lam_rows([x.vec for x in elements], slot=1)
    kernel = LinearSolver(A, Q.ring.base_mod).kernel()
    return sub_quadratic(Q, [Q.module.from_vec(row) for row in kernel.H])


# -- Witt index --------------------------------------------------------------


class WittDecomposition:
    """g hyperbolic pairs in M plus the orthogonal complement."""

    def __init__(self, Q, pairs, complement, complement_incl):
        self.Q = Q
        self.g = len(pairs)
        self.pairs = pairs
        self.complement = complement
        self.complement_incl = complement_incl


def _hyperbolic_pair_candidates(Q, cap):
    """The nonzero x with mu(x) = 0, in enumeration order."""
    elems, V = Q.module.element_rows(cap=cap)
    zero = Q.param.coset_rep(Q.ring.zero)
    keep = V.any(axis=1) & (Q.mu_reps(V) == zero)
    return [elems[i] for i in np.flatnonzero(keep).tolist()]


def tracked_decomposition(Q):
    """Q = H^g on its tracked hyperbolic pairs, with zero complement, when
    those pairs span Q; None otherwise.  No search, so no cap."""
    pairs = Q.hyperbolic_pairs
    if not pairs or Q.ring.size ** (2 * len(pairs)) != Q.size:
        return None
    P = zero_quadratic(Q.param)
    return WittDecomposition(Q, list(pairs), P,
                             ModuleMap(P.module, Q.module, [], check=False))


def _partners(Q, x, cap):
    """All y with lambda(x, y) = 1 and mu(y) = 0, in canonical order."""
    ring = Q.ring
    module = Q.module
    m = ring.base_mod
    solver = LinearSolver(Q.lam_rows([x.vec], slot=1), m)
    base = solver.solve([int(v) for v in ring.to_base[ring.one]])
    if base is None:
        return
    Y = module.canon_columns((solver.kernel().module_rows() + base).T).T
    if module.relators:
        # two coset vectors may canonicalize to one element: keep the first
        _, first = np.unique(Y, axis=0, return_index=True)
        Y = Y[np.sort(first)]
    for y in Y[Q.mu_reps(Y) == Q.param.coset_rep(ring.zero)].tolist():
        yield ModuleElement(module, tuple(y))


def _cardinality_bound(Q):
    ub = 0
    size = Q.size
    rs = Q.ring.size ** 2
    while size % rs == 0 and size > 1:
        size //= rs
        ub += 1
    return ub


WITT_MEMO_SIZE = 1 << 12
_WITT_MEMO = {}  # (presentation, usr, cap) -> (pair vectors, complement, B)


def witt_index(Q, usr=None, cap=GROUP_CAP):
    """Largest g with H^g a quadratic direct summand, with the decomposition.

    A depth-first search finds it (_witt_search): one branch per isotropic
    x, recursing through this function on each complement, cut off at the
    cardinality bound and, given usr, by cancellation.  When Q's tracked
    hyperbolic pairs span it they are returned as they are, so the
    decomposition of H^g never depends on the search order.

    The search reads Q only through its presentation (form parameter,
    generators, relators, gram and mu), so its result is memoized on that
    presentation together with usr and cap, for the life of the process
    (at most WITT_MEMO_SIZE entries, the oldest dropped first); the
    search's own nodes share that one memo.  An entry holds the pairs as
    coordinate vectors, the complement and the inclusion matrix; every call
    wraps them onto Q's own module.
    """
    if Q.module.size > cap:
        raise CapExceeded("module too large for Witt search")
    tracked = tracked_decomposition(Q)
    if tracked is not None:
        return tracked
    key = (_presentation(Q), usr, cap)
    entry = _WITT_MEMO.get(key)
    if entry is None:
        dec = _witt_search(Q, usr, cap)
        entry = (tuple((x.vec, y.vec) for x, y in dec.pairs),
                 None if dec.complement is Q else dec.complement,
                 dec.complement_incl.B)
        if len(_WITT_MEMO) >= WITT_MEMO_SIZE:
            del _WITT_MEMO[next(iter(_WITT_MEMO))]
        _WITT_MEMO[key] = entry
    pairs, complement, incl = entry
    module = Q.module
    if complement is None:  # no pair split off: Q is its own complement
        complement = Q
    return WittDecomposition(
        Q, [(ModuleElement(module, x), ModuleElement(module, y))
            for x, y in pairs], complement,
        ModuleMap.from_matrix(complement.module, module, incl, check=False))


def _presentation(Q):
    """Everything the Witt search reads of Q."""
    return (Q.param, Q.module.ngens, Q.module.relators,
            tuple(map(tuple, Q.gram)), tuple(Q.mu))


def _witt_search(Q, usr, cap):
    """The search behind witt_index, uncached at Q itself: for each
    candidate x in order, split off x and its first partner y and take the
    complement's decomposition from witt_index.  Q keeps the first branch
    of largest g; it stops at its cardinality bound, or by cancellation once
    a complement's index reaches usr.  Pairs and inclusion are on Q's module.

    One partner per x is enough: for another partner y' = y + x a + w with
    w orthogonal to <x, y>, some tau(x, u, .) with u in <x, y>^perp followed
    by some tau(x, 0, c) with c in Lambda is an isometry of Q fixing x and
    sending y to y'.  The two complements are isometric, so they have one
    Witt index, and the branch kept and the cuts depend only on that index.
    This holds whenever usr is None or at least the ring's usr (so the
    cancellation cut returns the true index), as at every call site."""
    best = WittDecomposition(Q, [], Q, identity_map(Q.module))
    ub = _cardinality_bound(Q)
    if ub == 0:
        return best
    for x in _hyperbolic_pair_candidates(Q, cap):
        y = next(_partners(Q, x, cap), None)
        if y is None:
            continue
        comp, incl = orthogonal_complement(Q, [x, y])
        sub = witt_index(comp, usr, cap)
        if sub.g >= best.g:
            best = WittDecomposition(
                Q, [(x, y)] + [(incl(u), incl(v)) for u, v in sub.pairs],
                sub.complement, incl.compose(sub.complement_incl))
        if best.g == ub or (usr is not None and sub.g >= usr):
            return best
    return best


def stable_witt_index(Q, k_max, usr=None):
    """max over 0 <= k <= k_max of witt(Q + H^k) - k, with certificates."""
    results = []
    for k in range(k_max + 1):
        if k == 0:
            Qk = Q
        else:
            Qk, _, _ = direct_sum_quadratic(Q, hyperbolic(Q.param, k))
        dec = witt_index(Qk, usr=usr)
        results.append(dec.g - k)
    gbar = max(results)
    report = {
        "gbar": gbar,
        "per_k": results,
        # with gbar >= usr, cancellation forces g = gbar; assert and check
        "equality_range": usr is not None and gbar >= usr,
    }
    if report["equality_range"]:
        report["g_equals_gbar"] = results[0] == gbar
    return report


# -- unitary group and isometries -------------------------------------------


def _signature_pools(Q, target, cap):
    """Candidate images per generator of `target`, bucketed by (mu,
    lambda-diag): Q's elements, their coordinate rows, and per signature
    the positions of its pool among them."""
    elems, V = Q.module.element_rows(cap=cap)
    mus = Q.mu_reps(V)
    lams = _diagonal(Q, Q.lam_coeffs, V)
    pools = {}
    for i in range(target.module.ngens):
        sig = (target.mu[i], target.gram[i][i])
        if sig not in pools:
            pools[sig] = np.flatnonzero((mus == sig[0]) & (lams == sig[1]))
    return elems, V, pools


def _images_dfs(Q1, module2, cands, lam, pools, assigned=()):
    """Tuples of generator images of Q1 (positions in cands) that keep the
    gram and mu and can satisfy the relations, in DFS order.  A node
    filters its pool against every assigned image in one array test on
    the table lam[a, b] = lambda(cands[a], cands[b])."""
    i = len(assigned)
    if i == Q1.module.ngens:
        yield assigned
        return
    gram = Q1.gram
    pool = pools[(Q1.mu[i], gram[i][i])]
    ok = np.ones(len(pool), dtype=bool)
    for j, a in enumerate(assigned):
        ok &= (lam[a, pool] == gram[j][i]) & (lam[pool, a] == gram[i][j])
    for h in pool[ok].tolist():
        imgs = [cands[a] for a in assigned + (h,)]
        if _partial_consistent(Q1.module, module2, imgs,
                               list(Q1.module.relators)):
            yield from _images_dfs(Q1, module2, cands, lam, pools,
                                   assigned + (h,))


def _quad_dfs(Q1, Q2, collect_all, cap):
    """DFS over generator images of Q1 into Q2 preserving gram and mu;
    lambda between pool elements is tabulated once."""
    elems, V, pools = _signature_pools(Q2, Q1, cap)
    # return_index keeps np.unique from importing numpy.ma
    used = np.unique(np.concatenate(list(pools.values())),
                     return_index=True)[0]
    cands = [elems[i] for i in used.tolist()]
    lam = Q2.lam_table(V[used], V[used])
    pools = {sig: np.searchsorted(used, p) for sig, p in pools.items()}
    out = []
    for assigned in _images_dfs(Q1, Q2.module, cands, lam, pools):
        f = ModuleMap(Q1.module, Q2.module, [cands[a] for a in assigned],
                      check=True)
        if f.is_bijective():
            out.append(f)
            if not collect_all:
                break
    return out


def unitary_group(Q, cap=GROUP_CAP):
    """All unitary automorphisms, by backtracking on generator images."""
    if Q.size > cap:
        raise CapExceeded("module exceeds the unitary-group cap")
    if Q.module.ngens == 0:
        return [identity_unitary(Q)]
    maps = _quad_dfs(Q, Q, collect_all=True, cap=cap)
    return [UnitaryMap(Q, f, check=False) for f in maps]


def is_quad_isomorphic(Q1, Q2):
    """An explicit isometry Q1 -> Q2, or None (exhaustive search)."""
    if Q1.param is not Q2.param:
        return None
    if Q1.size != Q2.size:
        return None
    if Q1.module.ngens == 0:
        return ModuleMap(Q1.module, Q2.module, [], check=False)
    maps = _quad_dfs(Q1, Q2, collect_all=False, cap=GROUP_CAP)
    return maps[0] if maps else None


def unitary_word(phi):
    """Flatten a composed unitary's tag tree into the move list that replays
    it: innermost (first-applied) move first.  Transvections serialize as
    ["tau", e_coords, u_coords, x]; named maps as ["named", tag]."""
    out = []

    def walk(tag):
        if tag is None or tag == "id":
            return
        if isinstance(tag, tuple) and tag and tag[0] == "comp":
            walk(tag[2])  # inner first
            walk(tag[1])
        elif isinstance(tag, tuple) and tag and tag[0] == "tau":
            out.append(["tau", list(tag[1]), list(tag[2]), tag[3]])
        elif isinstance(tag, tuple) and tag and tag[0] == "map":
            out.append(["map", [list(v) for v in tag[1]]])
        else:
            out.append(["named", str(tag)])

    walk(phi.tag)
    return out


def replay_word(Q, word):
    """Re-apply a serialized move list (transvections and generator-image
    maps, verified unitary); moves that carry no data raise."""
    phi = identity_unitary(Q)
    for move in word:
        kind = move[0]
        if kind == "tau":
            e = Q.module.from_vec(move[1])
            u = Q.module.from_vec(move[2])
            t = transvection(Q, e, u, int(move[3]))
            phi = t.compose(phi)
        elif kind == "map":
            imgs = [Q.module.from_vec(v) for v in move[1]]
            f = ModuleMap(Q.module, Q.module, imgs, check=False)
            phi = UnitaryMap(Q, f, check=True).compose(phi)
        else:
            raise RingError("move %r is not externally replayable" % (kind,))
    return phi
