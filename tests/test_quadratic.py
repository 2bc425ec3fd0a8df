"""Quadratic modules: axioms, hyperbolic forms, transvections, Witt index."""

import copy
import itertools

import pytest

from wittlab import catalog
from wittlab.modules import Module, cyclic_module, free_module, is_unimodular
from wittlab.quadratic import (
    direct_sum_quadratic,
    hyperbolic,
    is_isotropic,
    is_lambda_unimodular,
    is_quad_isomorphic,
    isotropic_span_check,
    lambda_nonsingular,
    make_quadratic,
    nonsingular_promotion_check,
    stable_witt_index,
    transvection,
    unitary_group,
    identity_unitary,
    is_unitary,
    witt_index,
    zero_quadratic,
)
from wittlab.rings import RingError, make_form_parameter, make_ring
from wittlab.suites import _quad_axiom_sweep

GF2 = make_ring({"kind": "gf", "q": 2})
P2 = make_form_parameter(GF2, 1, ())          # Lambda = {0}
P2MAX = make_form_parameter(GF2, 1, (1,))     # Lambda = GF(2)
Z4 = make_ring({"kind": "zmod", "n": 4})
P4 = make_form_parameter(Z4, 3, ())           # eps = -1, Lambda = {0, 2}


def test_hyperbolic_gram():
    H = hyperbolic(P2, 1)
    e, f = H.hyperbolic_pairs[0]
    assert H.lam(e, f) == GF2.one
    assert H.lam(f, e) == P2.epsilon
    assert H.lam(e, e) == GF2.zero
    assert H.mu_zero(e) and H.mu_zero(f)


def _singular_sum(param, g, a):
    """H^g + R/(a) with the zero form on R/(a): presented and singular."""
    P = make_quadratic(cyclic_module(param.ring, a), [[0]], [0], param)
    return direct_sum_quadratic(hyperbolic(param, g), P)[0]


def test_axioms_exhaustive_small():
    for Q in [hyperbolic(P2, 1), hyperbolic(P4, 1), hyperbolic(P2, 2),
              _singular_sum(P4, 1, 2)]:
        ring = Q.ring
        eps = Q.param.epsilon
        elems = list(Q.module.elements())
        for x in elems:
            for y in elems:
                # axiom (1)
                assert Q.lam(x, y) == int(
                    ring.mul[eps, ring.conj[Q.lam(y, x)]])
                # axiom (3)
                s = Q.q_vec(x.vec, x.vec)
                t = Q.q_vec(y.vec, y.vec)
                sum_mu = Q.mu_rep(x + y)
                rhs = int(ring.add[ring.add[s, t], Q.lam(x, y)])
                assert Q.param.coset_rep(rhs) == sum_mu
            # axiom (2) for all scalars
            for a in range(ring.size):
                lhs = Q.mu_rep(x * a)
                r = Q.q_vec(x.vec, x.vec)
                rhs = int(ring.mul[ring.mul[ring.conj[a], r], a])
                assert Q.param.coset_rep(rhs) == lhs


def test_zero_module_valid():
    Q = zero_quadratic(P2)
    assert Q.size == 1


def _tampered(Q, **coeffs):
    """A copy of Q whose cached coefficient arrays are replaced."""
    T = copy.copy(Q)
    T.__dict__.update(coeffs)
    return T


def test_quad_axiom_sweep_statuses():
    # presented modules, one past the old 256-element fallback cap, and
    # the zero quadratic module pass
    Z3C2 = catalog.default_parameter("z3c2")
    for Q in [_singular_sum(P4, 1, 2), _singular_sum(P4, 2, 2),
              _singular_sum(Z3C2, 1, 4), zero_quadratic(P4)]:
        assert _quad_axiom_sweep(Q) == "pass", Q.name
    # over GF(4) (base_dim 2, conj the Frobenius, eps = 1, Lambda =
    # {0, 1}): each tampered copy breaks exactly one axiom
    Q = hyperbolic(catalog.default_parameter("gf4"), 1)
    lam, q = Q.lam_coeffs, Q.q_coeffs
    one_sided = lam.copy()
    one_sided[0, 0, 2] += 1  # lambda(e, f) moves, lambda(f, e) does not
    assert _quad_axiom_sweep(_tampered(Q, lam_coeffs=one_sided)) == \
        "axiom1-fails"
    # the zero form is hermitian, but mu(e + f w) - mu(e) - mu(f w) = w
    assert _quad_axiom_sweep(_tampered(Q, lam_coeffs=0 * lam)) == \
        "axiom3-fails"
    # q + D for the symmetric Z/2-form D(x, y) = x_0 y_0 w: lambda and
    # axiom (3) stay, but mu(e) = w while mu(e w) = 0
    plus_d = q.copy()
    plus_d[1, 0, 0] += 1
    assert _quad_axiom_sweep(_tampered(Q, q_coeffs=plus_d)) == \
        "axiom2-fails"


def test_axiom1_rejection():
    # eps = -1 over Z/4: lambda(x,x) = -lambda(x,x) forces 2*diag = 0
    M = free_module(Z4, 1)
    with pytest.raises(RingError):
        make_quadratic(M, [[1]], [0], P4)


def test_mu_diagonal_rejection():
    # eps = 1 over Z/4 (Lambda = {0,2}): gram diag 1 needs mu + conj(mu) = 1
    p = make_form_parameter(Z4, 1, (2,))
    M = free_module(Z4, 1)
    with pytest.raises(RingError):
        make_quadratic(M, [[1]], [0], p)


def test_relation_rejection():
    # hyperbolic-style gram on Z/2 + Z/4: lambda(g1, g0*2) = 2 != 0
    M = Module(Z4, 2, ((2, 0),))
    p = make_form_parameter(Z4, 1, (2,))
    with pytest.raises(RingError):
        make_quadratic(M, [[0, 1], [1, 0]], [0, 0], p)


def test_relation_respecting_form_accepted():
    # Z/2 over Z/4 with lambda(g,g) = 2, mu(g) = 1 is a valid quadratic module
    M = Module(Z4, 1, ((2,),))
    p = make_form_parameter(Z4, 1, (2,))
    Q = make_quadratic(M, [[2]], [1], p)
    assert Q.mu_rep(M.gen(0)) == p.coset_rep(1)


def test_direct_sum_mu_adds():
    # (Z/4-cyclic with mu(x) = 1) + H: mu((x, e)) = 1
    p = make_form_parameter(Z4, 1, (2,))
    M = free_module(Z4, 1)
    Qx = make_quadratic(M, [[2]], [1], p)  # mu = 1: diag = 1 + conj(1) = 2
    H = hyperbolic(p, 1)
    S, la, lb = direct_sum_quadratic(Qx, H)
    x = la(M.gen(0))
    e = lb(H.hyperbolic_pairs[0][0])
    assert S.mu_rep(x + e) == p.coset_rep(1)


def test_eval_mu_axiom3_on_hyperbolic():
    H = hyperbolic(P2, 1)
    e, f = H.hyperbolic_pairs[0]
    assert H.mu_rep(e + f) == P2.coset_rep(H.lam(e, f))
    assert H.lam(e, H.module.zero()) == GF2.zero


def test_lambda_unimodular_in_H():
    H = hyperbolic(P2, 1)
    e, f = H.hyperbolic_pairs[0]
    ws = is_lambda_unimodular(H, [e])
    assert ws is not None
    assert H.lam(ws[0], e) == GF2.one
    # the eps-corrected dual: lambda(f*conj(eps), e) = 1
    assert H.lam(f * P2.eps_bar, e) == GF2.one


def test_lambda_unimodular_zero_fails():
    H = hyperbolic(P2, 1)
    assert is_lambda_unimodular(H, [H.module.zero()]) is None


def test_unimodular_but_not_lambda_unimodular():
    # degenerate Q = GF(2) with gram 0, mu = 0: lambda = 0 everywhere
    M = free_module(GF2, 1)
    Q = make_quadratic(M, [[0]], [0], P2)
    x = M.gen(0)
    assert is_unimodular(M, [x]) is not None
    assert is_lambda_unimodular(Q, [x]) is None


def test_lambda_unimodular_implies_unimodular():
    H = hyperbolic(P4, 1)
    for x in H.module.elements():
        if x.is_zero():
            continue
        if is_lambda_unimodular(H, [x]) is not None:
            assert is_unimodular(H.module, [x]) is not None


def test_isotropic_examples():
    H2 = hyperbolic(P2, 2)
    (e1, f1), (e2, f2) = H2.hyperbolic_pairs
    assert is_isotropic(H2, [e1, e2])
    assert not is_isotropic(H2, [e1, f1])
    H = hyperbolic(P2, 1)
    e, f = H.hyperbolic_pairs[0]
    assert not is_isotropic(H, [e + f])  # mu = 1 over Lambda = {0}
    assert isotropic_span_check(H2, [e1, e2])


def test_nonsingular_promotion():
    H = hyperbolic(P2, 1)
    e, f = H.hyperbolic_pairs[0]
    assert lambda_nonsingular(H)
    ws = nonsingular_promotion_check(H, [e])
    assert H.lam(ws[0], e) == GF2.one
    # degenerate form: not applicable
    M = free_module(GF2, 1)
    Q = make_quadratic(M, [[0]], [0], P2)
    with pytest.raises(RingError):
        nonsingular_promotion_check(Q, [M.gen(0)])


def test_transvection_identity():
    H = hyperbolic(P2, 1)
    e, f = H.hyperbolic_pairs[0]
    t = transvection(H, e, H.module.zero(), 0)
    for x in H.module.elements():
        assert t(x) == x


def test_transvection_formula_h2():
    # in H^2 over GF(2): tau(e1, e2, 0): f1 -> f1 + e2, f2 -> f2 + e1
    H2 = hyperbolic(P2, 2)
    (e1, f1), (e2, f2) = H2.hyperbolic_pairs
    t = transvection(H2, e1, e2, 0)
    assert t(f1) == f1 + e2
    assert t(f2) == f2 + e1
    assert t(e1) == e1 and t(e2) == e2
    assert t.orthogonal


def test_transvection_preconditions():
    H = hyperbolic(P2, 1)
    e, f = H.hyperbolic_pairs[0]
    with pytest.raises(RingError):
        transvection(H, e + f, H.module.zero(), 0)  # mu(e+f) = 1
    with pytest.raises(RingError):
        transvection(H, e, f, 0)  # lambda(e, f) = 1 != 0


def test_transvections_are_unitary_and_compose():
    H2 = hyperbolic(P4, 2)
    (e1, f1), (e2, f2) = H2.hyperbolic_pairs
    t1 = transvection(H2, e1, e2 * 2, 0)
    t2 = transvection(H2, e1, f2, 0)
    assert is_unitary(H2, t1.f) and is_unitary(H2, t2.f)
    c = t1.compose(t2)
    assert is_unitary(H2, c.f)


def test_witt_index_hyperbolic():
    for g in (1, 2):
        assert witt_index(hyperbolic(P2, g)).g == g
    assert witt_index(hyperbolic(P4, 1)).g == 1


def test_witt_index_degenerate():
    M = free_module(GF2, 1)
    Q = make_quadratic(M, [[0]], [0], P2)
    assert witt_index(Q).g == 0
    H = hyperbolic(P2, 1)
    S, _, _ = direct_sum_quadratic(H, Q)
    dec = witt_index(S, usr=1)
    assert dec.g == 1
    assert dec.complement.size == 2
    x, y = dec.pairs[0]
    assert S.lam(x, y) == GF2.one and S.mu_zero(x) and S.mu_zero(y)


def test_witt_decomposition_pairs_are_orthogonal():
    H2 = hyperbolic(P2, 2)
    dec = witt_index(H2)
    assert dec.g == 2
    (x1, y1), (x2, y2) = dec.pairs
    for a, b in [(x1, x2), (x1, y2), (y1, x2), (y1, y2)]:
        assert H2.lam(a, b) == GF2.zero


def test_stable_witt_index():
    H = hyperbolic(P2, 1)
    rep = stable_witt_index(H, 1, usr=1)
    assert rep["gbar"] == 1 and rep["g_equals_gbar"]
    assert rep["equality_range"]
    Z = zero_quadratic(P2)
    assert stable_witt_index(Z, 1)["gbar"] == 0


def test_unitary_group_trivial():
    assert len(unitary_group(zero_quadratic(P2))) == 1


def test_unitary_group_h1_gf2():
    H = hyperbolic(P2, 1)
    G = unitary_group(H)
    # brute-force oracle: filter all invertible 2x2 matrices over GF(2)
    count = 0
    M = H.module
    for imgs in itertools.product(M.elements(), repeat=2):
        try:
            from wittlab.modules import ModuleMap

            f = ModuleMap(M, M, list(imgs), check=False)
            if f.is_bijective() and is_unitary(H, f):
                count += 1
        except Exception:
            pass
    assert len(G) == count
    ids = identity_unitary(H)
    assert any(g.f == ids.f for g in G)
    # contains the swap e <-> f (eps = 1 over GF(2))
    e, f = H.hyperbolic_pairs[0]
    assert any(g(e) == f and g(f) == e for g in G)


def test_unitary_group_closure_sample():
    H = hyperbolic(P2, 1)
    G = unitary_group(H)
    keys = {g.key() for g in G}
    for g1 in G:
        for g2 in G:
            assert g1.compose(g2).key() in keys


def test_is_quad_isomorphic():
    H = hyperbolic(P2, 1)
    assert is_quad_isomorphic(H, H) is not None
    M = free_module(GF2, 2)
    degenerate = make_quadratic(M, [[0, 0], [0, 0]], [0, 0], P2)
    assert is_quad_isomorphic(H, degenerate) is None
    # two presentations of H + cyclic
    M2 = free_module(GF2, 1)
    C = make_quadratic(M2, [[0]], [0], P2)
    A, _, _ = direct_sum_quadratic(H, C)
    B, _, _ = direct_sum_quadratic(C, H)
    iso = is_quad_isomorphic(A, B)
    assert iso is not None
    for x in A.module.elements():
        for y in A.module.elements():
            assert A.lam(x, y) == B.lam(iso(x), iso(y))
            assert A.mu_rep(x) == B.mu_rep(iso(x))


def test_witt_additivity_lower_bound():
    H = hyperbolic(P2, 1)
    M = free_module(GF2, 1)
    D = make_quadratic(M, [[0]], [0], P2)
    A, _, _ = direct_sum_quadratic(H, D)
    B, _, _ = direct_sum_quadratic(A, H)
    assert witt_index(B, usr=1).g >= witt_index(A, usr=1).g + 1


def test_lambda_unimodular_decomposition_properties():
    # For lambda-unimodular (v_i) with witnesses (w_i):
    # (1) M = <v> + <w>-perp as a direct sum of modules,
    # (2) appending a lambda-unimodular (u_j) with lambda(w_i, u_j) = 0
    #     keeps the combined sequence lambda-unimodular,
    # (3) u ~ its <w>-perp component: combined lambda-unimodularity agrees.
    import random

    from wittlab.linalg import LinearSolver
    from wittlab.modules import submodule

    rng = random.Random(99)
    for Q in [hyperbolic(P2, 2), hyperbolic(P4, 1)]:
        ring = Q.ring
        elems = list(Q.module.elements())
        for _ in range(12):
            v = elems[rng.randrange(len(elems))]
            ws = is_lambda_unimodular(Q, [v])
            if ws is None:
                continue
            w = ws[0]
            # (1): span(v) + ker lambda(w, -) = M, intersection trivial
            span_v, _ = submodule(Q.module, [v])
            m = ring.base_mod
            rows = []
            for s in range(Q.module.nd):
                unit = [0] * Q.module.nd
                unit[s] = 1
                rows.append([int(x) for x in
                             ring.to_base[Q.lam_vec(w.vec, unit)]])
            solver = LinearSolver(rows, m)
            perp = LinearSolver(solver.kernel_rows(), m, width=Q.module.nd)
            perp_size = perp.module_size // Q.module.rel.module_size
            assert span_v.size * perp_size == Q.size
            # intersection: x in span(v) with lambda(w, x) = 0 forces x = 0
            for t in range(ring.size):
                x = v * t
                if Q.lam(w, x) == ring.zero:
                    assert (x.is_zero() or t not in (ring.one,))
                    if not x.is_zero():
                        assert Q.lam(w, x) == ring.zero
            # (2): u lambda-unimodular with lambda(w, u) = 0 extends
            for u in elems:
                if u.is_zero() or Q.lam(w, u) != ring.zero:
                    continue
                if is_lambda_unimodular(Q, [u]) is None:
                    continue
                assert is_lambda_unimodular(Q, [v, u]) is not None
                break
            # (3): u vs its perp component decide together
            for u in elems[:20]:
                x_part = v * Q.lam(w, u)
                y_part = u - x_part
                got_u = is_lambda_unimodular(Q, [v, u]) is not None
                got_y = is_lambda_unimodular(Q, [v, y_part]) is not None
                assert got_u == got_y


def test_unitary_group_h1_z4_bruteforce():
    H = hyperbolic(P4, 1)
    G = unitary_group(H)
    count = 0
    from wittlab.modules import ModuleMap

    for imgs in itertools.product(H.module.elements(), repeat=2):
        f = ModuleMap(H.module, H.module, list(imgs), check=False)
        if f.is_bijective() and is_unitary(H, f):
            count += 1
    assert len(G) == count
    keys = {g.key() for g in G}
    assert len(keys) == len(G)


def test_stable_witt_degenerate():
    M = free_module(GF2, 1)
    D = make_quadratic(M, [[0]], [0], P2)
    rep = stable_witt_index(D, 2, usr=1)
    # a totally degenerate point gains no hyperbolic planes by stabilizing
    assert rep["gbar"] == 0
    assert rep["per_k"] == [0, 0, 0]
    S, _, _ = direct_sum_quadratic(D, hyperbolic(P2, 1))
    rep2 = stable_witt_index(S, 1, usr=1)
    assert rep2["gbar"] == 1 and rep2["equality_range"]
    assert rep2["g_equals_gbar"]
