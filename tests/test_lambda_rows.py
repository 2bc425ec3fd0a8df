"""The lambda coordinate rows and the Kronecker delta solve, each against a
route that does not use it: per-pair lam_vec and the definitional
brute-force oracles."""

import itertools
import random

from wittlab import catalog as C
from wittlab.blocks import (
    AntiFunctional,
    Block,
    is_unimodular_block,
    is_unimodular_block_bruteforce,
    ring_matrix_left_inverse,
    rmat_identity,
)
from wittlab.linalg import LinearSolver
from wittlab.modules import Module, is_unimodular, is_unimodular_bruteforce
from wittlab.quadratic import (
    _partners,
    direct_sum_quadratic,
    hyperbolic,
    is_lambda_unimodular,
    make_quadratic,
)
from wittlab.rings import make_form_parameter, make_ring

Z4 = make_ring({"kind": "zmod", "n": 4})


def presented_quadratic():
    """Z/2 over Z/4 (one relator) with lambda(g, g) = 2, mu(g) = 1, plus H."""
    p = make_form_parameter(Z4, 1, (2,))
    Qx = make_quadratic(Module(Z4, 1, ((2,),)), [[2]], [1], p)
    Q, _, _ = direct_sum_quadratic(Qx, hyperbolic(p, 1))
    return Q


def row_instances():
    """H^1 and H^2 for every catalog parameter, H + degenerate point (a
    singular form), and a presented module with a relator."""
    out = []
    for rname in C.ring_names():
        for _pname, param in C.catalog_parameters(rname):
            out += [hyperbolic(param, 1), hyperbolic(param, 2)]
            Q, _, _ = direct_sum_quadratic(hyperbolic(param, 1),
                                           C.degenerate_point(param))
            out.append(Q)
    out.append(presented_quadratic())
    return out


def form_oracle(Q, coeff, u, v):
    """sum_ij conj(u_i) coeff[i][j] v_j, from the ring tables alone."""
    ring = Q.ring
    d = ring.base_dim
    n = Q.module.ngens
    ub = [ring.index_of_coords(u[i * d:(i + 1) * d]) for i in range(n)]
    vb = [ring.index_of_coords(v[i * d:(i + 1) * d]) for i in range(n)]
    acc = ring.zero
    for i in range(n):
        for j in range(n):
            term = ring.mul[ring.mul[ring.conj[ub[i]], coeff[i][j]], vb[j]]
            acc = int(ring.add[acc, term])
    return acc


def test_lam_rows_match_per_pair_lam_vec():
    rng = random.Random(11)
    for Q in row_instances():
        ring = Q.ring
        d, m, nd = ring.base_dim, ring.base_mod, Q.module.nd
        units = [[int(s == t) for t in range(nd)] for s in range(nd)]
        for k in (1, 2, 3):
            vecs = [[rng.randrange(m) for _ in range(nd)] for _ in range(k)]
            for slot in (0, 1):
                rows = Q.lam_rows(vecs, slot=slot)
                want = []
                for u in units:
                    row = []
                    for v in vecs:
                        val = Q.lam_vec(u, v) if slot == 0 else Q.lam_vec(v, u)
                        row.extend(int(x) for x in ring.to_base[val])
                    want.append(row)
                assert rows == want, (Q.name, k, slot)
        # the unit vectors themselves, the rows lambda_radical_size uses
        assert Q.lam_rows(units, slot=1) == [
            [int(x) for u in units for x in ring.to_base[Q.lam_vec(u, e)]]
            for e in units], Q.name
        assert Q.lam_coeffs.shape == Q.q_coeffs.shape == (d, nd, nd)


def test_coeff_arrays_match_the_generator_forms():
    rng = random.Random(12)
    for Q in row_instances():
        m, nd = Q.ring.base_mod, Q.module.nd
        for _ in range(20):
            u = [rng.randrange(m) for _ in range(nd)]
            v = [rng.randrange(m) for _ in range(nd)]
            assert Q.lam_vec(u, v) == form_oracle(Q, Q.gram, u, v), Q.name
            assert Q.q_vec(u, v) == form_oracle(Q, Q.q, u, v), Q.name


def lambda_unimodular_oracle(Q, seq, elems):
    """Some w_i with lambda(w_i, v_j) = delta_ij for each i, by search."""
    ring = Q.ring
    return all(any(all(Q.lam(w, v) == (ring.one if i == j else ring.zero)
                       for j, v in enumerate(seq)) for w in elems)
               for i in range(len(seq)))


def test_lambda_unimodular_matches_oracle():
    gf2 = C.default_parameter("gf2")
    deg, _, _ = direct_sum_quadratic(hyperbolic(gf2, 1),
                                     C.degenerate_point(gf2))
    p4 = make_form_parameter(Z4, 3, ())
    z2c2 = C.default_parameter("z2c2")
    for Q in (deg, hyperbolic(p4, 1), hyperbolic(z2c2, 1),
              presented_quadratic()):
        elems = list(Q.module.elements())
        for seq in itertools.chain(([x] for x in elems),
                                   itertools.permutations(elems, 2)):
            got = is_lambda_unimodular(Q, seq)
            assert (got is not None) == lambda_unimodular_oracle(Q, seq, elems)
            for i, w in enumerate(got or ()):
                for j, v in enumerate(seq):
                    assert Q.lam(w, v) == (Q.ring.one if i == j
                                           else Q.ring.zero)


def test_unimodular_matches_oracle_on_a_group_ring():
    # R + R/a over the group ring R = GF(2)[C2] (two base coordinates per
    # ring element), for the catalog's first non-unit a
    M = dict(C.catalog_modules("z2c2"))["mixed:3"]
    elems = list(M.elements())
    for seq in itertools.chain(([x] for x in elems),
                               itertools.permutations(elems, 2)):
        assert (is_unimodular(M, seq) is not None) == \
            is_unimodular_bruteforce(M, seq), seq


def scalar_partners(Q, x):
    """The y with lambda(x, y) = 1 and mu(y) = 0, one coset element at a
    time through from_vec and the scalar mu_zero."""
    ring, module, m = Q.ring, Q.module, Q.ring.base_mod
    solver = LinearSolver(Q.lam_rows([x.vec], slot=1), m)
    base = solver.solve(ring.to_base[ring.one].tolist())
    if base is None:
        return []
    kernel = LinearSolver(solver.kernel_rows(), m, width=module.nd)
    ranges = [range(m // kernel.H[i][j]) for i, j in enumerate(kernel.pivots)]
    seen, out = set(), []
    for coeffs in itertools.product(*ranges):
        v = list(base)
        for c, row in zip(coeffs, kernel.H):
            v = [(a + c * b) % m for a, b in zip(v, row)]
        y = module.from_vec(v)
        if y.vec not in seen:
            seen.add(y.vec)
            if Q.mu_zero(y):
                out.append(y.vec)
    return out


def test_partners_match_scalar_route():
    rng = random.Random(17)
    found = 0
    for Q in row_instances():
        m = Q.ring.base_mod
        xs = [Q.module.gen(0)] + [
            Q.module.from_vec([rng.randrange(m) for _ in range(Q.module.nd)])
            for _ in range(3)]
        for x in xs:
            got = [y.vec for y in _partners(Q, x, cap=None)]
            assert got == scalar_partners(Q, x), (Q.name, x)
            found += len(got)
    assert found


def test_left_inverse_matches_search():
    def rmat_mul(ring, A, B):  # plain-Python product through the tables
        out = [[ring.zero] * len(B[0]) for _ in A]
        for i, row in enumerate(A):
            for j in range(len(B[0])):
                for a, brow in zip(row, B):
                    out[i][j] = int(ring.add[out[i][j], ring.mul[a, brow[j]]])
        return out

    for ring, n, k in ((Z4, 2, 1), (Z4, 1, 1),
                       (make_ring({"kind": "gf", "q": 2}), 2, 2)):
        cands = [[list(c[i * n:(i + 1) * n]) for i in range(k)]
                 for c in itertools.product(range(ring.size), repeat=k * n)]
        for entries in itertools.product(range(ring.size), repeat=n * k):
            B = [list(entries[l * k:(l + 1) * k]) for l in range(n)]
            got = ring_matrix_left_inverse(ring, B)
            want = any(rmat_mul(ring, L, B) == rmat_identity(ring, k)
                       for L in cands)
            assert (got is not None) == want, B
            if got is not None:
                assert rmat_mul(ring, got, B) == rmat_identity(ring, k)


def test_block_unimodularity_matches_oracle():
    rng = random.Random(13)
    M = Module(Z4, 2, ((2, 0),))
    funcs = []
    for values in itertools.product(range(4), repeat=2):
        try:
            funcs.append(AntiFunctional(M, values))
        except ValueError:
            pass
    for _ in range(30):
        mat = [[rng.randrange(4) for _ in range(2)]]
        A = Block(M, mat, [rng.choice(funcs) for _ in range(2)])
        got = is_unimodular_block(A)
        assert (got is not None) == is_unimodular_block_bruteforce(A)
        if got is not None:
            rprime, mprime = got
            for i in range(2):
                for j in range(2):
                    acc = Z4.zero
                    for l in range(A.n):
                        acc = int(Z4.add[acc, Z4.mul[rprime[i][l],
                                                     mat[l][j]]])
                    acc = int(Z4.add[acc, A.funcs[j](mprime[i])])
                    assert acc == (Z4.one if i == j else Z4.zero)
