"""n x k blocks, constructive matrix reducibility, and the pipelines built
on them: hyperbolic straightening, the transitive move, and cancellation.

A block is an n x k ring matrix over R plus a row of k anti-linear
functionals M -> R ("an n x k block has in fact n+1 rows").  The three
legal moves are left multiplication by a unipotent matrix with a module
column, left multiplication by GL_n, and right multiplication by GL_k;
certificates record the moves and replay exactly.
"""

import itertools

import numpy as np

from wittlab.linalg import (
    LinearSolver,
    invertible,
    left_invertible,
    ring_left_inverse,
    ring_matmul,
    row_unimodular,
)
from wittlab.modules import (
    Module,
    ModuleMap,
    act_columns,
    direct_sum_modules,
    free_module,
)
from wittlab.quadratic import (
    QuadraticModule,
    UnitaryMap,
    hyperbolic,
    identity_unitary,
    is_isometry,
    is_lambda_unimodular,
    is_unitary,
    orthogonal_complement,
    tracked_decomposition,
    transvection,
    witt_index,
)

SEARCH_BUDGET = 1 << 20


class BlockError(ValueError):
    pass


# -- ring matrix helpers -----------------------------------------------------


def rmat_identity(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


def ring_matrix_left_inverse(ring, B):
    """A k x n left inverse of an n x k matrix over R, or None."""
    inv = ring_left_inverse(ring, B)
    return None if inv is None else inv[0]


def ring_matrix_inverse(ring, C):
    n = len(C)
    inv = ring_matrix_left_inverse(ring, C)
    if inv is None:
        raise BlockError("matrix not invertible")
    # left inverse of a square matrix over a finite ring is the inverse
    if ring_matmul(ring, C, inv) != rmat_identity(ring, n):
        raise BlockError("one-sided inverse is not two-sided")
    return inv


def row_left_coefficients(ring, row):
    """c with sum c_i row_i = 1, or None."""
    inv = ring_matrix_left_inverse(ring, [[r] for r in row])
    return None if inv is None else inv[0]


def shorten_row(ring, row):
    """t in R^n with (row_i + t_i * last) unimodular, first found in a
    support-growing sweep; None after SEARCH_BUDGET visits."""
    n = len(row) - 1
    last = row[n]

    def shortened(t):
        return tuple(int(ring.add[row[i], ring.mul[t[i], last]])
                     for i in range(n))

    zero = tuple([ring.zero] * n)
    if row_unimodular(ring, shortened(zero)):
        return list(zero)
    visits = 0
    for support in range(1, n + 1):
        for positions in itertools.combinations(range(n), support):
            for vals in itertools.product(range(1, ring.size), repeat=support):
                visits += 1
                if visits > SEARCH_BUDGET:
                    return None
                t = [ring.zero] * n
                for p, v in zip(positions, vals):
                    t[p] = v
                if row_unimodular(ring, shortened(t)):
                    return t
    return None


def gl_column_to_e1(ring, col):
    """C in GL_n with C*col = e_1, built from elementary row operations.

    Needs n >= 2 and the shortening search to succeed (guaranteed when
    n - 1 >= sr(R)); raises otherwise.
    """
    n = len(col)
    if n < 2:
        raise BlockError("column reduction needs n >= 2")
    work = list(col)
    C = rmat_identity(ring, n)

    def row_op(i, j, t):
        # row_i += t * row_j
        work[i] = int(ring.add[work[i], ring.mul[t, work[j]]])
        C[i] = [int(ring.add[C[i][s], ring.mul[t, C[j][s]]]) for s in range(n)]

    t = shorten_row(ring, work)
    if t is None:
        raise BlockError("stable-range shortening failed")
    for i in range(n - 1):
        if t[i] != ring.zero:
            row_op(i, n - 1, t[i])
    coeffs = row_left_coefficients(ring, work[:n - 1])
    if coeffs is None:
        raise BlockError("shortened column is not unimodular")
    factor = int(ring.sub(ring.one, work[n - 1]))
    for i in range(n - 1):
        c = int(ring.mul[factor, coeffs[i]])
        if c != ring.zero:
            row_op(n - 1, i, c)
    if work[n - 1] != ring.one:
        raise BlockError("column reduction did not reach a unit (internal)")
    for i in range(n - 1):
        if work[i] != ring.zero:
            row_op(i, n - 1, int(ring.neg[work[i]]))
    # swap rows 0 and n-1
    work[0], work[n - 1] = work[n - 1], work[0]
    C[0], C[n - 1] = C[n - 1], C[0]
    if work[0] != ring.one or any(w != ring.zero for w in work[1:]):
        raise BlockError("column reduction did not reach e_1 (internal)")
    return C


# -- anti-linear functionals and blocks ---------------------------------------


class AntiFunctional:
    """f: M -> R with f(x*a) = conj(a) f(x), stored by generator values."""

    __slots__ = ("module", "values")

    def __init__(self, module, values, check=True):
        self.module = module
        self.values = tuple(int(v) for v in values)
        if check:
            ring = module.ring
            for rho in module.relators:
                acc = ring.zero
                for c, t in zip(rho, self.values):
                    acc = int(ring.add[acc, ring.mul[ring.conj[c], t]])
                if acc != ring.zero:
                    raise BlockError("functional does not kill a relator")

    def __call__(self, x):
        ring = self.module.ring
        acc = ring.zero
        for a, t in zip(x.ring_blocks(), self.values):
            acc = int(ring.add[acc, ring.mul[ring.conj[a], t]])
        return acc

    @property
    def matrix(self):
        """The d x nd int64 matrix F with coords(f(x)) = F x mod m on raw
        coordinates: block i is Rmat[t_i] @ Cmat (x_i -> conj(x_i) t_i)."""
        ring = self.module.ring
        T = ring.Rmat[np.array(self.values, dtype=np.int64)] @ ring.Cmat
        return T.transpose(1, 0, 2).reshape(
            ring.base_dim, self.module.nd) % ring.base_mod

    def key(self):
        return self.values


class Block:
    """matrix: n x k over R; funcs: k anti-linear maps M -> R."""

    def __init__(self, module, matrix, funcs):
        self.module = module
        self.ring = module.ring
        self.matrix = [[int(v) for v in row] for row in matrix]
        self.funcs = list(funcs)
        self.n = len(self.matrix)
        self.k = len(self.funcs)
        for row in self.matrix:
            if len(row) != self.k:
                raise BlockError("ragged block matrix")
        for f in self.funcs:
            if f.module is not module:
                raise BlockError("functional on the wrong module")

    def key(self):
        return (tuple(map(tuple, self.matrix)),
                tuple(f.key() for f in self.funcs))

    def __eq__(self, other):
        return isinstance(other, Block) and self.module is other.module \
            and self.key() == other.key()


def _require_gl(ring, C, n, name):
    """Raise unless C is an n x n ring matrix with a left inverse, which
    over a finite ring is an inverse."""
    if len(C) != n or any(len(row) != n for row in C):
        raise BlockError("%s block has wrong size" % name)
    if not left_invertible(ring, [C])[0]:
        raise BlockError("matrix not invertible")


def block_act(A, move):
    """Apply one legal move; returns a new block.

    Moves: ("left_unipotent", [m_1..m_n])      module column,
           ("left_gl", C)                      C in GL_n,
           ("right", D)                        D in GL_k.
    """
    ring = A.ring
    kind = move[0]
    if kind == "left_unipotent":
        column = move[1]
        if len(column) != A.n:
            raise BlockError("module column has wrong length")
        # f_j(m_i) for every i, j: one product of the column's coordinates
        # with the stacked functional matrices
        F = np.array([f.matrix for f in A.funcs], dtype=np.int64).reshape(
            A.k, ring.base_dim, A.module.nd)
        values = ring.indices(np.einsum("jsu,iu->ijs", F,
                                        A.module.coord_rows(column)))
        matrix = ring.add[np.array(A.matrix, dtype=np.int64).reshape(
            A.n, A.k), values]
        return Block(A.module, matrix.tolist(), A.funcs)
    if kind == "left_gl":
        C = move[1]
        _require_gl(ring, C, A.n, "GL_n")
        return Block(A.module, ring_matmul(ring, C, A.matrix), A.funcs)
    if kind == "right":
        D = move[1]
        _require_gl(ring, D, A.k, "GL_k")
        # the functional row moves like a matrix row: its generator values,
        # one column per functional, times D
        values = ring_matmul(ring, [[f.values[g] for f in A.funcs]
                                    for g in range(A.module.ngens)], D)
        funcs = [AntiFunctional(A.module, [row[j] for row in values],
                                check=False) for j in range(A.k)]
        return Block(A.module, ring_matmul(ring, A.matrix, D), funcs)
    raise BlockError("unknown move %r" % (kind,))


def is_unimodular_block(A):
    """A left inverse (r' k x n over R, m' in M^k) with A_L * A = 1, or None."""
    # module unknowns after the ring ones: row s holds f_j(e_s) for every j
    F = np.hstack([f.matrix.T for f in A.funcs])
    inv = ring_left_inverse(A.ring, A.matrix, F.tolist())
    if inv is None:
        return None
    rprime, tails = inv
    return rprime, [A.module.from_vec(tail) for tail in tails]


def is_unimodular_block_bruteforce(A, cap=1 << 22):
    """Exhaustive left-inverse search (oracle for small blocks)."""
    ring = A.ring
    M = A.module
    elems = list(M.elements())
    count = (ring.size ** A.n) * len(elems)
    if count ** A.k > cap:
        raise BlockError("oracle too large")
    singles = []
    for rvals in itertools.product(range(ring.size), repeat=A.n):
        for mp in elems:
            singles.append((rvals, mp))

    def row_ok(i, cand):
        rvals, mp = cand
        for j in range(A.k):
            acc = ring.zero
            for l in range(A.n):
                acc = int(ring.add[acc, ring.mul[rvals[l], A.matrix[l][j]]])
            acc = int(ring.add[acc, A.funcs[j](mp)])
            want = ring.one if i == j else ring.zero
            if acc != want:
                return False
        return True

    options = []
    for i in range(A.k):
        opts = [cand for cand in singles if row_ok(i, cand)]
        if not opts:
            return False
        options.append(opts)
    return True


# -- matrix reducibility -------------------------------------------------------


class ReductionCertificate:
    """Moves plus outputs; replay() re-applies the moves and compares."""

    def __init__(self, block, moves, m_column, top_matrix):
        self.block = block
        self.moves = list(moves)
        self.m_column = list(m_column)
        self.top_matrix = [row[:] for row in top_matrix]

    def replay(self):
        cur = self.block
        for move in self.moves:
            cur = block_act(cur, move)
        return cur

    def replay_ok(self):
        cur = self.replay()
        got = [cur.matrix[i][:] for i in range(len(self.top_matrix))]
        return got == self.top_matrix


def _conj_twist(ring, S, column):
    """(S ? column)_i = sum_l column_l * conj(S_il): the module-column part of
    composing left transforms [[S,.],[0,1]]."""
    n = len(S)
    out = []
    for i in range(n):
        acc = None
        for l in range(n):
            c = int(ring.conj[S[i][l]])
            if c == ring.zero:
                continue
            term = column[l] * c
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else column[0].module.zero()
                   if column else None)
    return out


def matrix_reduce(A, sr):
    """A vector m in M^n such that the unipotent move with column m makes the
    top n x k matrix unimodular, following the inductive proof: a
    stable-range correction of the first column, then (for k > 1) a GL_n
    pivot and a right move, whose sub-block's column is twisted back onto
    the correction; k = 1 is the step with no sub-block.  Requires
    k + sr <= n + 1 and a unimodular block."""
    ring = A.ring
    M = A.module
    n, k = A.n, A.k
    if k + sr > n + 1:
        raise BlockError("matrix reduction needs k + sr <= n + 1")
    left_inv = is_unimodular_block(A)
    if left_inv is None:
        raise BlockError("block is not unimodular")
    mprime = left_inv[1][0]
    row = tuple(A.matrix[i][0] for i in range(n)) + (A.funcs[0](mprime),)
    t = shorten_row(ring, row)
    if t is None:
        raise BlockError("stable-range shortening failed")
    m_col = [mprime * int(ring.conj[t[i]]) for i in range(n)]
    if k > 1:  # here n >= sr + 1
        A_a = block_act(A, ("left_unipotent", m_col))
        C = gl_column_to_e1(ring, [A_a.matrix[i][0] for i in range(n)])
        A_1 = block_act(A_a, ("left_gl", C))
        # right move clearing the first row
        D = rmat_identity(ring, k)
        for j in range(1, k):
            D[0][j] = int(ring.neg[A_1.matrix[0][j]])
        A_2 = block_act(A_1, ("right", D))
        # sub-block on rows 2..n, columns 2..k
        sub = Block(M, [row[1:] for row in A_2.matrix[1:]], A_2.funcs[1:])
        m4 = [M.zero()] + matrix_reduce(sub, sr).m_column
        twisted = _conj_twist(ring, ring_matrix_inverse(ring, C), m4)
        m_col = [a + b for a, b in zip(m_col, twisted)]
    moved = block_act(A, ("left_unipotent", m_col))
    if not left_invertible(ring, [moved.matrix])[0]:
        raise BlockError("matrix reduction produced a non-unimodular top")
    return ReductionCertificate(A, [("left_unipotent", m_col)], m_col,
                                moved.matrix)


def reduce_keep_tail(A, n_top, l, sr):
    """Structured reduction of a block whose n_top + l rows split into a top
    T and a tail L: a module column m on the top rows and a ring matrix Q
    (n_top x l) with T + f(m) + Q L unimodular, the tail rows and the
    functional row left untouched; then (T + f(m); L) is unimodular too.
    One matrix reduction over M' = M + R^l moves the tail into the
    functional row, f'_j(x, r) = f_j(x) + sum_s conj(r_s) L_sj: its column
    m'_i = (m_i, r_i) gives Q_is = conj(r_is).  Needs k + sr <= n_top + 1,
    l > 0."""
    ring = A.ring
    M = A.module
    n, k = n_top, A.k
    if A.n != n + l or l <= 0:
        raise BlockError("row split does not match the block")
    if k + sr > n + 1:
        raise BlockError("keep-tail reduction needs k + sr <= n_top + 1")
    tail = A.matrix[n:]
    Ml = direct_sum_modules(M, free_module(ring, l))[0]
    funcs = [AntiFunctional(Ml, f.values + tuple(row[j] for row in tail),
                            check=False) for j, f in enumerate(A.funcs)]
    inner = matrix_reduce(Block(Ml, A.matrix[:n], funcs), sr)
    # S = [[1, Q], [0, 1]] folds the tail into the top
    S = rmat_identity(ring, n + l)
    for i, x in enumerate(inner.m_column):
        S[i][n:] = [int(ring.conj[r]) for r in x.ring_blocks()[M.ngens:]]
    padded = [M.from_vec(x.vec[:M.nd]) for x in inner.m_column] \
        + [M.zero()] * l
    # mixing-form replay: top + Q*tail + f(m), which matrix_reduce has
    # checked unimodular, with the tail untouched
    top = inner.top_matrix
    replayed = block_act(block_act(A, ("left_gl", S)),
                         ("left_unipotent", padded))
    if replayed.matrix[:n] != top or replayed.matrix[n:] != tail:
        raise BlockError("certificate replay mismatch")
    # plain-form replay: the unipotent move alone leaves the whole matrix
    # (not just the top block) unimodular
    whole = block_act(A, ("left_unipotent", padded))
    if not left_invertible(ring, [whole.matrix])[0]:
        raise BlockError("whole-matrix form is not unimodular")
    cert = ReductionCertificate(A, [("left_gl", S), ("left_unipotent", padded)],
                                padded, replayed.matrix)
    cert.plain_matrix = whole.matrix
    cert.top_mixed = top
    cert.tail_rows = [row[:] for row in tail]
    return cert


# -- hyperbolic frames ---------------------------------------------------------


def pair_coordinates(Q, V):
    """The 2gd x nd matrix over Z/m sending v to the coordinates of
    (A_1, B_1, ..., A_g, B_g), where B_l = lambda(e_l, v) and
    A_l = eps^-1 lambda(f_l, v), for the pairs given as the rows
    e_1, f_1, ..., e_g, f_g of V.  When the pairs are hyperbolic and span
    Q, these are the coordinates of v in them."""
    ring = Q.ring
    d, nd = ring.base_dim, Q.module.nd
    g = len(V) // 2
    eps_inv = int(ring.inv[Q.param.epsilon])
    # L[l, 0] = lambda(e_l, -), L[l, 1] = lambda(f_l, -), as d x nd
    L = (V @ Q.lam_coeffs).transpose(1, 0, 2).reshape(g, 2, d, nd)
    Z = np.stack([ring.Lmat[eps_inv] @ L[:, 1], L[:, 0]], axis=1)
    return Z.reshape(2 * g * d, nd) % ring.base_mod


def adjoint_inverse(phi):
    """phi^-1 for a unitary phi of a hyperbolic H^g on its standard basis,
    read off the lambda-adjoint: phi sends (e_l, f_l) to (u_l, v_l), so the
    coordinates of phi^-1(x) are A_l = eps^-1 lambda(v_l, x) and
    B_l = lambda(u_l, x), one product.  The adjoint is the inverse only
    when phi is unitary, and neither map is checked here: the result is
    unitary iff phi is, so it stands verified once a map composed from it
    passes the isometry test (straightening verifies the map it returns)."""
    H = phi.Q
    Z = pair_coordinates(H, phi.f.generator_images())
    f = ModuleMap.from_matrix(H.module, H.module, Z, check=False)
    return UnitaryMap(H, f, check=False, tag=("inv", phi.tag))


class HyperbolicFrame:
    """A decomposition Q = P + H^g: g hyperbolic pairs plus the orthogonal
    complement P, with coordinate maps in both directions.

    Both directions are matrices over Z/m: E (Q.nd x 2gd) embeds the
    abstract H^g along the pairs (its columns are e_l b_t and f_l b_t), and
    Z (2gd x Q.nd) sends v to the coordinates of (A_1, B_1, ..., A_g, B_g),
    where B_l = lambda(e_l, v) and A_l = eps^-1 lambda(f_l, v).
    """

    def __init__(self, Q, pairs, P, P_incl):
        self.Q = Q
        self.pairs = list(pairs)
        self.g = len(self.pairs)
        self.P = P
        self.P_incl = P_incl
        ring = Q.ring
        if P.size * ring.size ** (2 * self.g) != Q.size:
            raise BlockError("frame sizes do not multiply up")
        self.eps = Q.param.epsilon
        self.eps_inv = int(ring.inv[self.eps])
        # abstract copy of the hyperbolic part
        self.H_std = hyperbolic(Q.param, self.g) if self.g else None
        V = Q.module.coord_rows([x for pair in self.pairs for x in pair])
        self._E = Q.module.canon_columns(act_columns(ring, V))
        self._Z = pair_coordinates(Q, V)
        # rows of Q's generators: P-parts (in Q) and H-coordinates, cached
        # by extend_h_unitary
        self._gen_rows = None

    def _std_coords(self, v):
        """Coordinates of (A_1, B_1, ..., A_g, B_g) for v, as an array."""
        vec = np.array(v.vec, dtype=np.int64)
        return (self._Z @ vec) % self.Q.ring.base_mod

    def hyperbolic_coords(self, v):
        """(A_1..A_g, B_1..B_g) with v = p + sum e_l A_l + f_l B_l."""
        ring = self.Q.ring
        AB = ring.indices(self._std_coords(v).reshape(self.g, 2,
                                                      ring.base_dim))
        return AB[:, 0].tolist(), AB[:, 1].tolist()

    def _embed_coords(self, coords):
        m = self.Q.ring.base_mod
        return self.Q.module.from_vec(((self._E @ coords) % m).tolist())

    def h_component(self, v):
        return self._embed_coords(self._std_coords(v))

    def p_component(self, v):
        """The P-part, as an element of P's module."""
        residual = v - self.h_component(v)
        p = self.P_incl.preimage(residual)
        if p is None:
            raise BlockError("element does not split along the frame")
        return p

    def embed_std(self, z):
        """Element of the abstract H^g into Q along the frame pairs."""
        return self._embed_coords(np.array(z.vec, dtype=np.int64))

    def project_std(self, v):
        return self.H_std.module.from_vec(self._std_coords(v).tolist())

    def extend_h_unitary(self, psi_std):
        """1_P + psi: extend a unitary of the abstract H^g to Q.  On the
        generator rows (P-parts P, H-coordinates Z_g) the images are
        P + (E Psi Z_g)^T mod m.  Not checked here: the callers verify
        the map they compose from this one."""
        Q = self.Q
        m = Q.ring.base_mod
        if self._gen_rows is None:
            gens = Q.module.gens()
            P = np.array([self.P_incl(self.p_component(x)).vec for x in gens],
                         dtype=np.int64).reshape(len(gens), Q.module.nd)
            self._gen_rows = (P, (self._Z @ Q.module.gen_columns) % m)
        P, Zg = self._gen_rows
        X = Q.module.canon_columns(P.T + (self._E @ psi_std.f.B) % m @ Zg)
        f = ModuleMap.from_matrix(Q.module, Q.module,
                                  act_columns(Q.ring, X.T), check=False)
        return UnitaryMap(Q, f, check=False,
                          tag=("map", tuple(map(tuple, X.T.tolist()))))


def frame_for(Q, usr=None, cap=1 << 12):
    """The frame of Q's Witt decomposition.  Tracked hyperbolic pairs that
    span Q need no search, so they give the frame past the search cap."""
    dec = tracked_decomposition(Q) or witt_index(Q, usr=usr, cap=cap)
    return HyperbolicFrame(Q, dec.pairs, dec.complement, dec.complement_incl)


# -- hyperbolic straightening -------------------------------------------------


def sequence_block(frame, seq):
    """The associated block of a sequence over the frame: 2g ring rows
    (e-coefficients first, then f-coefficients) and functionals
    lambda(-, p_i) on P."""
    Q = frame.Q
    P = frame.P
    k = len(seq)
    As = []
    Bs = []
    ps = []
    for v in seq:
        a, b = frame.hyperbolic_coords(v)
        As.append(a)
        Bs.append(b)
        ps.append(frame.p_component(v))
    matrix = [[As[i][l] for i in range(k)] for l in range(frame.g)]
    matrix += [[Bs[i][l] for i in range(k)] for l in range(frame.g)]
    funcs = []
    for i in range(k):
        values = [P.lam(P.module.gen(j), ps[i]) for j in range(P.module.ngens)]
        funcs.append(AntiFunctional(P.module, values, check=False))
    return Block(P.module, matrix, funcs), ps


def _dual_completion(H_std, zs, base, usr, cap):
    """A hyperbolic summand U containing the z's, its pairs, and the pairs of
    the complement: the searched substitute for the hyperbolic-basis step.
    base holds the z's lambda-unimodularity witnesses.

    A try takes duals ys and presents U = span(z's, ys) on the basis
    B = (z's, ys), its gram from one lam_table and its mu from one mu_reps.
    U is a free nonsingular summand (so H_std = U + U^perp, and both have
    the sizes of hyperbolic modules) iff the Gram matrix of B on base
    coordinates, act_columns(B)^T lam_rows(B), is invertible; the try then
    asks the Witt search for k pairs in U and the rest in U^perp.

    Strategy: the witnesses as duals first; then a seeded sweep of 300
    alternate duals (offsets from the witness kernel); finally an
    elementary-unitary orbit word moving the z's into H^k (search budget
    2^22), whose inverse pulls the standard pairs back to an envelope.
    The Witt searches on U and its complement go through witt_index's
    memo, so each presentation is searched once per process.  The pairs
    are not checked here: the caller verifies the map it builds from them.
    """
    import random

    k = len(zs)
    ring = H_std.ring
    m = ring.base_mod
    module = H_std.module
    free = Module(ring, 2 * k, ())

    def try_duals(ys):
        gens = list(zs) + list(ys)
        B = module.coord_rows(gens)
        gram = act_columns(ring, B).T @ np.array(H_std.lam_rows(B)) % m
        if not invertible(gram[None], m)[0]:
            return None
        U = QuadraticModule(free, H_std.lam_table(B, B).tolist(),
                            H_std.mu_reps(B).tolist(), H_std.param)
        dec = witt_index(U, usr=usr, cap=cap)
        if dec.g != k:
            return None
        incl = ModuleMap(free, module, gens, check=False)
        u_pairs = [(incl(x), incl(y)) for x, y in dec.pairs]
        V, vincl = orthogonal_complement(H_std, gens)
        vdec = witt_index(V, usr=usr, cap=cap)
        if vdec.g != len(H_std.hyperbolic_pairs) - k:
            return None
        v_pairs = [(vincl(x), vincl(y)) for x, y in vdec.pairs]
        return u_pairs, v_pairs

    got = try_duals(base)
    if got is not None:
        return got
    # seeded sweep of alternate dual tuples: offsets from the witness kernel
    K = np.array(LinearSolver(H_std.lam_rows([z.vec for z in zs]), m)
                 .kernel().H, dtype=np.int64).reshape(-1, module.nd)
    rng = random.Random(hash(tuple(z.vec for z in zs)) & 0xFFFFFFFF)

    def random_kernel_elem():
        c = np.array([rng.randrange(m) for _ in K], dtype=np.int64)
        return module.from_vec((c @ K % m).tolist())

    for _ in range(300):
        ys = [w + random_kernel_elem() for w in base]
        got = try_duals(ys)
        if got is not None:
            return got
    # elementary-orbit pull-back: move the z's into H^k, pull pairs back
    word = _eu_reach_span(H_std, zs, k, budget=1 << 22)
    rho = identity_unitary(H_std)
    for t in word:
        rho = t.compose(rho)
    rho_inv = adjoint_inverse(rho)
    pairs = [(rho_inv(module.gen(2 * l)), rho_inv(module.gen(2 * l + 1)))
             for l in range(len(H_std.hyperbolic_pairs))]
    return pairs[:k], pairs[k:]


def _eu_reach_span(H_std, zs, k, budget):
    """Word of elementary unitary generators carrying the whole tuple into
    the span of the first k hyperbolic pairs."""
    d = H_std.ring.base_dim
    return _eu_word(H_std, zs, lambda V: ~V[:, 2 * k * d:].any(axis=1),
                    budget, "EU span-reach")


def _eu_word(H_std, xs, target, budget, what):
    """The engine's word for xs and target (coordinate rows -> bool mask),
    with its budget exit and its failure both raised as BlockError."""
    from wittlab.stable_range import BudgetExceeded, eu_search

    try:
        word = eu_search(H_std, xs, target, budget=budget)[0]
    except BudgetExceeded as exc:
        raise BlockError("%s budget exhausted" % what) from exc
    if word is None:
        raise BlockError("%s: no elementary word reaches the target" % what)
    return word


def _verified(phi):
    """phi, once one isometry test of its matrix passes."""
    if not is_unitary(phi.Q, phi.f):
        raise BlockError("the composed map is not unitary")
    return phi


def hyperbolic_straighten(Q, seq, k=None, frame=None, usr=1, cap=1 << 12,
                          verify=True):
    """phi in U(P + H^g) with phi(seq) inside P + H^k and lambda-unimodular
    projection to H^k.  Needs g >= usr + k and a lambda-unimodular sequence.

    Pipeline: associated block, keep-tail reduction giving p-tilde, the
    transvection composition, then rectification of the enveloping
    hyperbolic basis (searched).  The maps in between are built unchecked.
    Both post-conditions are re-verified before returning, and phi passes
    one isometry test; verify=False leaves that test to a caller that
    verifies a map composed from phi, as transitive_move does.
    """
    seq = list(seq)
    if k is None:
        k = len(seq)
    if k != len(seq):
        raise BlockError("k must equal the sequence length")
    if frame is None:
        frame = frame_for(Q, usr=usr, cap=cap)
    g = frame.g
    if g < usr + k:
        raise BlockError("needs g >= usr + k")
    if is_lambda_unimodular(Q, seq) is None:
        raise BlockError("sequence is not lambda-unimodular")
    ring = Q.ring
    param = Q.param

    if frame.P.module.ngens == 0:
        phi1 = identity_unitary(Q)
    else:
        # the associated block is unimodular (matrix_reduce checks it)
        A_seq, _ = sequence_block(frame, seq)
        cert = reduce_keep_tail(A_seq, g, g, usr)  # usr >= sr: a valid bound
        p_tilde = cert.m_column[:g]
        # transvection composition tau(e_g, -eps_bar p_g, ...) ... tau(e_1, ...)
        phi1 = identity_unitary(Q)
        for l in range(g):
            if p_tilde[l].is_zero():
                continue
            e_l = frame.pairs[l][0]
            u = frame.P_incl(p_tilde[l]) * int(ring.neg[param.eps_bar])
            y = Q.mu_rep(u)
            t = transvection(Q, e_l, u, y, check=False)
            phi1 = t.compose(phi1)
    moved = [phi1(v) for v in seq]
    zs = [frame.project_std(v) for v in moved]
    witnesses = is_lambda_unimodular(frame.H_std, zs)
    if witnesses is None:
        raise BlockError("hyperbolic projections failed to become "
                         "lambda-unimodular (internal)")
    # rectify: hyperbolic envelope of the projections
    u_pairs, v_pairs = _dual_completion(frame.H_std, zs, witnesses, usr, cap)
    imgs = [x for pair in list(u_pairs) + list(v_pairs) for x in pair]
    F = ModuleMap(frame.H_std.module, frame.H_std.module, imgs, check=False)
    psi_std = adjoint_inverse(UnitaryMap(frame.H_std, F, check=False))
    phi = frame.extend_h_unitary(psi_std).compose(phi1)
    # post-conditions, re-verified independently
    out = [phi(v) for v in seq]
    for w in out:
        As, Bs = frame.hyperbolic_coords(w)
        if any(a != ring.zero for a in As[k:]) or \
                any(b != ring.zero for b in Bs[k:]):
            raise BlockError("image escaped P + H^k")
    proj = [frame.project_std(w) for w in out]
    if is_lambda_unimodular(frame.H_std, proj) is None:
        raise BlockError("projection to H^k is not lambda-unimodular")
    return _verified(phi) if verify else phi


def transitive_move(Q, v, r, frame=None, usr=1, cap=1 << 12, budget=1 << 22,
                    verify=True):
    """phi in U(M) with phi(v) = e_1 + f_1 r, for lambda-unimodular v with
    mu(v) = r + Lambda; needs witt index >= usr + 1.  The straightening,
    its extension and the transvections are built unchecked, and phi
    passes one isometry test (verify=False: see hyperbolic_straighten)."""
    ring = Q.ring
    param = Q.param
    if frame is None:
        frame = frame_for(Q, usr=usr, cap=cap)
    if frame.g < usr + 1:
        raise BlockError("needs witt index >= usr + 1")
    if not 0 <= int(r) < ring.size:
        raise BlockError("r is not a ring index in [0, %d)" % ring.size)
    if param.coset_rep(int(r)) != Q.mu_rep(v):
        raise BlockError("r does not represent mu(v)")
    phi1 = hyperbolic_straighten(Q, [v], 1, frame=frame, usr=usr, cap=cap,
                                 verify=False)
    w1 = phi1(v)
    z = frame.project_std(w1)
    # EU-orbit step on the hyperbolic part: move z to e_1 + f_1 * b
    word = _eu_reach_first_pair(frame.H_std, z, budget=budget)
    rho = identity_unitary(frame.H_std)
    for t in word:
        rho = t.compose(rho)
    phi2 = frame.extend_h_unitary(rho).compose(phi1)
    w2 = phi2(v)
    p = frame.p_component(w2)
    e1, f1 = frame.pairs[0]
    # tau(f_1, -p eps_bar, x): clears the P-part
    if not p.is_zero():
        u = frame.P_incl(p) * int(ring.neg[param.eps_bar])
        t3 = transvection(Q, f1, u, Q.mu_rep(u), check=False)
        phi3 = t3.compose(phi2)
    else:
        phi3 = phi2
    w3 = phi3(v)
    As, Bs = frame.hyperbolic_coords(w3)
    if As[0] != ring.one or any(a != ring.zero for a in As[1:]) or \
            any(b != ring.zero for b in Bs[1:]) or not frame.p_component(w3).is_zero():
        raise BlockError("normal form e_1 + f_1 b not reached (internal)")
    b = Bs[0]
    diff = ring.sub(b, int(r))
    if diff != ring.zero:
        if diff not in param.lam:
            raise BlockError("mu mismatch: b - r escaped Lambda (internal)")
        t4 = transvection(Q, f1, Q.module.zero(), diff, check=False)
        # tau(f_1, 0, b-r) sends e_1 + f_1 b to e_1 + f_1 r
        phi4 = t4.compose(phi3)
    else:
        phi4 = phi3
    target = e1 + f1 * int(r)
    if phi4(v) != target:
        raise BlockError("transitive move failed to reach e_1 + f_1 r")
    return (_verified(phi4) if verify else phi4), target


def _eu_reach_first_pair(H_std, z, budget):
    """Word of elementary unitary generators carrying z into
    {e_1 + f_1 s}; raises when the budget exhausts.  A non-empty word is
    kept in H_std.eu_cache under ("reach", z.vec, budget), beside the
    generators it lists: after straightening z lies in H^1, so a frame
    meets few distinct starts."""
    key = ("reach", z.vec, budget)
    if key in H_std.eu_cache:
        return list(H_std.eu_cache[key])
    ring = H_std.ring
    d = ring.base_dim
    one = ring.to_base[ring.one]
    word = _eu_word(H_std, [z], lambda V: (V[:, :d] == one).all(axis=1)
                    & ~V[:, 2 * d:].any(axis=1), budget, "EU reach")
    if word:  # the empty word is found before any generator is built
        H_std.eu_cache[key] = word
    return word


# -- cancellation --------------------------------------------------------------


def cancel_H(Qm, Qn, iso, sums, usr=1, cap=1 << 12, budget=1 << 22):
    """From an isometry M + H = N + H (the sums, with H appended last) with
    g(M) >= usr, produce an explicit isometry M = N: move the image of the
    appended hyperbolic pair onto the standard one by a transitive move plus
    two transvections, then restrict.  The move and the transvections are
    built unchecked; the restriction passes one isometry test.
    """
    param = Qm.param
    ring = Qm.ring
    MH, NH = sums
    d2 = 2 * ring.base_dim
    if MH.module.nd != Qm.module.nd + d2 or NH.module.nd != Qn.module.nd + d2:
        raise BlockError("sums must be M + H and N + H with H appended last")

    def lift_m(xx):
        return MH.module.from_vec(list(xx.vec) + [0] * d2)

    def lift_n(xx):
        return NH.module.from_vec(list(xx.vec) + [0] * d2)

    if not is_isometry(MH, NH, iso):
        raise BlockError("the given map is not an isometry of the sums")
    e_m, f_m = MH.hyperbolic_pairs[-1]
    e_n, f_n = NH.hyperbolic_pairs[-1]
    x = iso(e_m)
    y = iso(f_m)
    # frame for N + H with the appended pair first
    dec_n = witt_index(Qn, usr=usr, cap=cap)
    if dec_n.g < usr:
        raise BlockError("needs g(N) >= usr for the pipeline")
    pairs = [(e_n, f_n)] + [(lift_n(a), lift_n(b)) for a, b in dec_n.pairs]
    P = dec_n.complement
    P_incl = ModuleMap(P.module, NH.module,
                       [lift_n(dec_n.complement_incl(g)) for g in P.module.gens()],
                       check=False)
    frame = HyperbolicFrame(NH, pairs, P, P_incl)
    phi_a, target = transitive_move(NH, x, ring.zero, frame=frame, usr=usr,
                                    cap=cap, budget=budget, verify=False)
    if target != e_n:
        raise BlockError("transitive move missed the appended e (internal)")
    y1 = phi_a(y)
    if NH.lam(e_n, y1) != ring.one:
        raise BlockError("pairing broke during the move (internal)")
    As, Bs = frame.hyperbolic_coords(y1)
    a = As[0]
    w = y1 - e_n * a - f_n
    alpha = phi_a
    if not w.is_zero():
        t_b = transvection(NH, e_n, -w, NH.mu_rep(w), check=False)
        alpha = t_b.compose(alpha)
        y2 = t_b(y1)
    else:
        y2 = y1
    As2, Bs2 = frame.hyperbolic_coords(y2)
    c = As2[0]
    if any(v != ring.zero for v in As2[1:]) or Bs2[0] != ring.one or \
            any(v != ring.zero for v in Bs2[1:]) or \
            not frame.p_component(y2).is_zero():
        raise BlockError("transvection failed to reach e c + f (internal)")
    if c != ring.zero:
        xc = int(ring.mul[param.epsilon, c])
        if param.coset_rep(xc) != param.coset_rep(ring.zero):
            raise BlockError("eps*c escaped Lambda (internal)")
        t_c = transvection(NH, e_n, NH.module.zero(), xc, check=False)
        alpha = t_c.compose(alpha)
    gamma = alpha.f.compose(iso)
    if gamma(e_m) != e_n or gamma(f_m) != f_n:
        raise BlockError("appended pair not standardized (internal)")
    # restrict to the orthogonal complements: M = N
    imgs = []
    nh_h_offset = Qn.module.nd
    for gidx in range(Qm.module.ngens):
        im = gamma(lift_m(Qm.module.gen(gidx)))
        vec = list(im.vec)
        if any(vec[nh_h_offset:]):
            raise BlockError("restriction escaped N (internal)")
        imgs.append(Qn.module.from_vec(vec[:nh_h_offset]))
    beta = ModuleMap(Qm.module, Qn.module, imgs)
    if not is_isometry(Qm, Qn, beta):
        raise BlockError("restricted map failed the isometry check")
    return beta
