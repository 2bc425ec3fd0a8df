"""Posets, chain complexes, homology and connectivity verdicts."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import wittlab
from wittlab import kernels
from wittlab.homology import (
    ChainComplexData,
    build_chain_complex,
    homology,
    homology_plain,
)
from wittlab.modules import free_module
from wittlab.posets import (
    PosetCapExceeded,
    SequencePoset,
    decorate,
    gl_poset,
    hu_poset,
    iu_poset,
    link,
    mu_poset,
)
from wittlab.quadratic import hyperbolic
from wittlab.rings import make_form_parameter, make_ring
from wittlab.verify import (
    _pi1_trivial,
    _presentation_trivial,
    connectivity_verdict,
    theorem_poset,
    verify,
    verify_gl_connectivity,
    verify_hu_connectivity,
    verify_iu_connectivity,
    verify_link_isos,
)

GF2 = make_ring({"kind": "gf", "q": 2})
P2 = make_form_parameter(GF2, 1, ())
Z4 = make_ring({"kind": "zmod", "n": 4})


def simple_poset(members):
    atoms = sorted({a for seq in members for a in seq})
    mset = {tuple(seq) for seq in members}

    def raw(seq):
        return tuple(seq) in mset

    return SequencePoset("test", atoms, raw)


def pi1_trivial(F):
    return _pi1_trivial(F, build_chain_complex(F, 1))


def closure(seqs):
    """All nonempty subsequences (chain condition closure)."""
    out = set()
    for seq in seqs:
        n = len(seq)
        for mask in range(1, 1 << n):
            sub = tuple(seq[i] for i in range(n) if mask >> i & 1)
            out.add(sub)
    return out


def test_triangle_boundary_is_a_circle():
    F = simple_poset(closure([(0, 1), (1, 2), (0, 2)]))
    chain = build_chain_complex(F, 1)
    assert chain.dd_is_zero()
    hom = homology(chain, 1)
    assert hom["betti"][0] == 0
    assert hom["betti"][1] == 1 and not hom["torsion"][1]


def test_filled_triangle_is_contractible():
    F = simple_poset(closure([(0, 1, 2)]))
    chain = build_chain_complex(F, 1)
    hom = homology(chain, 1)
    assert hom["betti"][0] == 0 and hom["betti"][1] == 0


def test_single_point():
    F = simple_poset([(0,)])
    hom = homology(build_chain_complex(F, 1), 1)
    assert hom["betti"][0] == 0 and hom["betti"][1] == 0


def test_two_points_disconnected():
    F = simple_poset([(0,), (1,)])
    hom = homology(build_chain_complex(F, 0), 0)
    assert hom["betti"][0] == 1


def test_reduced_vs_plain_homology():
    rng = random.Random(17)
    # random chain-closed member sets
    for trial in range(12):
        atoms = list(range(5))
        tops = set()
        for _ in range(rng.randrange(2, 7)):
            k = rng.randrange(1, 4)
            seq = tuple(rng.sample(atoms, k))
            tops.add(seq)
        F = simple_poset(closure(tops))
        chain = build_chain_complex(F, 2)
        assert chain.dd_is_zero()
        a = homology(chain, 2)
        b = homology_plain(chain, 2)
        assert a["betti"] == b["betti"], (tops, a, b)
        assert a["torsion"] == b["torsion"]


def test_u_gf2_squared():
    M = free_module(GF2, 2)
    F = gl_poset(M)
    assert len(F.vertex_ids) == 3
    assert len(F.simplices(1)) == 6
    assert len(F.simplices(2)) == 0
    hom = homology(build_chain_complex(F, 0), 0)
    assert hom["betti"][0] == 0  # connected: matches the bound rk - sr - 1 = 0


def test_u_poset_gf2_simplices_are_unimodular():
    M = free_module(GF2, 2)
    from wittlab.modules import is_unimodular

    F = gl_poset(M)
    for p in (0, 1):
        for seq in F.simplices(p):
            assert is_unimodular(M, [F.atoms[i] for i in seq]) is not None


def test_u_poset_z4():
    M = free_module(Z4, 1)
    F = gl_poset(M)
    # unimodular elements of Z/4: the units
    assert len(F.vertex_ids) == 2
    assert len(F.simplices(1)) == 0  # no unimodular pairs in rank 1


def test_chain_condition_sampled():
    rng = random.Random(3)
    M = free_module(GF2, 3)
    F = gl_poset(M)
    assert F.chain_condition_check(rng)
    H2 = hyperbolic(P2, 2)
    assert hu_poset(H2).chain_condition_check(rng)
    assert iu_poset(H2).chain_condition_check(rng)


def test_link_identity():
    # (F_v)_w = F_vw on a catalog poset
    M = free_module(GF2, 3)
    F = gl_poset(M)
    rng = random.Random(5)
    verts = F.vertex_ids
    for _ in range(6):
        v = F.atoms[rng.choice(verts)]
        Fv = link(F, [v])
        if not Fv.vertex_ids:
            continue
        w = Fv.atoms[rng.choice(Fv.vertex_ids)]
        Fvw = link(F, [w, v])
        Fv_w = link(Fv, [w])
        seqs1 = {tuple(Fv_w.atoms[i] for i in s) for s in Fv_w.simplices(0)}
        seqs2 = {tuple(Fvw.atoms[i] for i in s) for s in Fvw.simplices(0)}
        assert seqs1 == seqs2
        assert {tuple(Fv_w.atoms[i] for i in s) for s in Fv_w.simplices(1)} == \
            {tuple(Fvw.atoms[i] for i in s) for s in Fvw.simplices(1)}


def test_decorate():
    M = free_module(GF2, 2)
    F = gl_poset(M)
    D = decorate(F, ["s"])
    assert len(D.simplices(0)) == len(F.simplices(0))
    assert len(D.simplices(1)) == len(F.simplices(1))


def test_hu_h1_vertex():
    H = hyperbolic(P2, 1)
    F = hu_poset(H)
    e, f = H.hyperbolic_pairs[0]
    assert (e, f) in F.atoms
    ids = [F.atoms[i] for i in F.vertex_ids]
    assert (e, f) in ids


def test_iu_hu_counts_h2():
    H2 = hyperbolic(P2, 2)
    FI = iu_poset(H2)
    # isotropic nonzero vectors of the rank-4 hyperbolic quadric: 9 - 0 zeros
    assert len(FI.vertex_ids) == 9
    FH = hu_poset(H2)
    for (x, y) in [FH.atoms[i] for i in FH.vertex_ids][:10]:
        assert H2.lam(x, y) == GF2.one


def test_every_lambda_unimodular_sequence_is_unimodular():
    from wittlab.modules import is_unimodular

    H2 = hyperbolic(P2, 2)
    FI = iu_poset(H2)
    for p in (0, 1):
        for seq in FI.simplices(p):
            elems = [FI.atoms[i] for i in seq]
            assert is_unimodular(H2.module, elems) is not None


def test_verdict_tiers():
    M = free_module(GF2, 2)
    F = gl_poset(M)
    assert connectivity_verdict(F, -2).result == "vacuous"
    assert connectivity_verdict(F, -1).result == "nonempty-verified"
    assert connectivity_verdict(F, 0).ok()
    # empty poset
    E = simple_poset([])
    assert connectivity_verdict(E, -1).result == "refuted"


def test_pi1_counterexample_is_not_trivial():
    # edges (0,2) (1,2) (1,3) (2,3) (3,0) and the one triangle (1,2,3):
    # H_1 = Z, so pi_1 is not trivial; the filled triangle and the boundary
    # of a tetrahedron are simply connected
    F = simple_poset(closure([(0, 2), (3, 0), (1, 2, 3)]))
    assert sorted(map(tuple, F.simplices(1).tolist())) == [
        (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)]
    assert homology(build_chain_complex(F, 1), 1)["betti"][1] == 1
    assert not pi1_trivial(F)
    assert pi1_trivial(simple_poset(closure([(0, 1, 2)])))
    sphere = closure([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert pi1_trivial(simple_poset(sphere))


def test_pi1_never_trivial_with_nonzero_h1():
    # random small semisimplicial sets (face-closed sets of sequences)
    rng = random.Random(29)
    nonzero = 0
    for _ in range(1000):
        n = rng.randrange(4, 7)
        tops = {tuple(rng.sample(range(n), 3))
                for _ in range(rng.randrange(3, 12))}
        F = simple_poset(closure(tops))
        hom = homology(build_chain_complex(F, 1), 1)
        if hom["betti"][1] or hom["torsion"][1]:
            nonzero += 1
            assert not pi1_trivial(F), sorted(tops)
    assert nonzero >= 500


@pytest.mark.parametrize("ngens,relators,trivial", [
    (2, [[1, 2], [1, 2, 2]], True),       # g = h^-1, then h = 1
    (2, [[1, 2], [1, -2, -2]], False),    # g = h^-1 leaves h^3: Z/3
    (2, [[1, -2], [1, 2]], False),        # g = h leaves h^2: Z/2
    (2, [[2, 1, -2], [-1, 2, 1, 1]], True),   # cyclically g, then h
    (2, [[2, 1, -2]], False),             # g = 1 leaves h free: Z
    (1, [[1, 1]], False),                 # Z/2
    (3, [[1, 2, 3], [3, -1], [2]], False),   # k = g, h = 1 leave g^2
])
def test_presentation_trivial_substitutes(ngens, relators, trivial):
    assert _presentation_trivial(ngens, relators) is trivial


def test_cap_exits_are_inconclusive(monkeypatch):
    # GF(2) H^7 has 16384 elements: past the Witt-search and pair-table caps
    from types import SimpleNamespace

    from wittlab import verify

    H7 = hyperbolic(P2, 7)
    e1, f1 = H7.hyperbolic_pairs[0]
    for rep in (verify.verify_iu_connectivity(H7, usr=1),
                verify.verify_hu_connectivity(H7, usr=1)):
        assert rep.verdict.result == "inconclusive" and not rep.critical
        assert "Witt search" in rep.verdict.detail["reason"]
    res = verify.verify_link_isos(H7, [(e1, f1)], usr=1)
    assert res["result"] == "inconclusive"
    # past the Witt search, the pair tables' own cap exit
    monkeypatch.setattr(verify, "witt_index",
                        lambda Q, usr=None: SimpleNamespace(g=7))
    for rep in (verify.verify_iu_connectivity(H7, usr=1),
                verify.verify_hu_connectivity(H7, usr=1, base=[(e1, f1)])):
        assert rep.verdict.result == "inconclusive"
        assert "pair tables" in rep.verdict.detail["reason"]
    res = verify.verify_link_isos(H7, [(e1, f1)], usr=1)
    assert res == {"result": "inconclusive",
                   "reason": "module too large for pair tables"}


def test_homology_invariant_under_vertex_shuffle():
    M = free_module(GF2, 3)
    F1 = gl_poset(M)
    elems = list(M.elements())
    random.Random(9).shuffle(elems)
    F2 = gl_poset(M, universe=elems)
    h1 = homology(build_chain_complex(F1, 1), 1)
    h2 = homology(build_chain_complex(F2, 1), 1)
    assert h1["betti"] == h2["betti"]
    assert h1["cells"] == h2["cells"]


def test_gl_theorem_gf2_cubed():
    rep = verify_gl_connectivity(free_module(GF2, 3), sr=1)
    assert rep.bound == 1
    assert rep.verdict.ok() and not rep.critical
    assert rep.verdict.result in ("homology-verified", "fully-verified")


def test_gl_link_variant():
    M = free_module(GF2, 3)
    rep = verify_gl_connectivity(M, sr=1, base=[M.gen(0)])
    assert rep.bound == 0
    assert rep.verdict.ok()


def test_hu_theorem_small_tiers():
    # g = 1: bound floor((1-1-3)/2) = -2: vacuous
    rep = verify_hu_connectivity(hyperbolic(P2, 1), usr=1)
    assert rep.bound == -2 and rep.verdict.result == "vacuous"
    # g = 2: bound -1: nonempty
    rep2 = verify_hu_connectivity(hyperbolic(P2, 2), usr=1)
    assert rep2.bound == -1 and rep2.verdict.result == "nonempty-verified"


@pytest.mark.parametrize("rname", ["gf2", "z4"])
def test_zero_module_theorems_hold(rname):
    # rank 0 and g = 0: gl, iu and mu-poset are vacuous, every other
    # base-less theorem holds on the empty or one-vertex poset
    from wittlab import catalog as C
    from wittlab.quadratic import zero_quadratic
    from wittlab.verify import PROVED, THEOREMS

    ring, param = C.catalog_ring(rname), C.default_parameter(rname)
    for name, entry in THEOREMS.items():
        if entry.needs_base:
            continue
        zeros = [free_module(ring, 0)] if entry.rank == "sr" else [
            hyperbolic(param, 0), zero_quadratic(param)]
        for X in zeros:
            rep = verify(name, X, 1)
            assert not rep.critical and rep.verdict.result in PROVED, name
            if name in ("gl", "iu", "mu-poset") or rep.bound <= -2:
                assert rep.verdict.result == "vacuous", name


def test_iu_theorem_small_tiers():
    rep = verify_iu_connectivity(hyperbolic(P2, 2), usr=1)
    # bound floor((2-1-2)/2) = -1
    assert rep.bound == -1 and rep.verdict.result == "nonempty-verified"
    rep3 = verify_iu_connectivity(hyperbolic(P2, 3), usr=1)
    assert rep3.bound == 0
    assert rep3.verdict.ok()


def test_link_isos_h3():
    H3 = hyperbolic(P2, 3)
    e1, f1 = H3.hyperbolic_pairs[0]
    res = verify_link_isos(H3, [(e1, f1)], usr=1)
    assert res["iu"] and res["hu"] and res["decoration_count"]
    assert res["Y_size"] == 16  # H^2 inside H^3


def test_poset_iso_check_rejects_swapped_vertex_images(monkeypatch):
    # the HU link isomorphism of H^3, and the same map with the images of
    # two vertices with different neighborhoods swapped, which no
    # automorphism of the link undoes
    from wittlab import verify

    calls = []
    check = verify._poset_iso_check
    monkeypatch.setattr(verify, "_poset_iso_check",
                        lambda *args: calls.append(args) or check(*args))
    H3 = hyperbolic(P2, 3)
    e1, f1 = H3.hyperbolic_pairs[0]
    assert verify_link_isos(H3, [(e1, f1)], usr=1)["hu"]
    lhs, rhs, fwd = calls[-1]
    assert check(lhs, rhs, fwd)
    v, *rest = lhs.vertex_ids

    def around(a, b):
        return set(lhs.neighbors(a).tolist()) - {b}

    w = next(w for w in rest if around(v, w) != around(w, v))
    x, y = lhs.atoms[v], lhs.atoms[w]
    assert not check(lhs, rhs, {**fwd, x: fwd[y], y: fwd[x]})


def test_memory_exits_are_inconclusive(monkeypatch):
    # a MemoryError in the chain build keeps the bound and the poset name;
    # one in the link isomorphisms ends that report too
    from wittlab import verify

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(verify, "build_chain_complex", out_of_memory)
    rep = verify_gl_connectivity(free_module(GF2, 3), sr=1)
    assert rep.bound == 1 and rep.poset_name == "U(GF(2)^3)"
    assert rep.verdict.to_dict() == {"target": 1, "result": "inconclusive",
                                     "detail": {"reason": "out of memory"}}
    assert not rep.critical
    monkeypatch.setattr(verify, "witt_index", out_of_memory)
    H3 = hyperbolic(P2, 3)
    assert verify_link_isos(H3, [H3.hyperbolic_pairs[0]], usr=1) == {
        "result": "inconclusive", "reason": "out of memory"}


def test_link_isos_cap_exit_is_inconclusive():
    # a compared level past the simplex cap is not a pass: the report is
    # inconclusive and its reason names the poset and the level
    H3 = hyperbolic(P2, 3)
    e1, f1 = H3.hyperbolic_pairs[0]
    res = verify_link_isos(H3, [(e1, f1)], usr=1, cap=30)
    assert res == {"result": "inconclusive",
                   "reason": "IU(H^3 over GF(2))_link has > 10 1-simplices"}
    with pytest.raises(PosetCapExceeded):
        iu_poset(H3, cap=30).chain_condition_check(random.Random(0))


def test_link_needs_a_simplex_base():
    # e1 + f1 has mu = 1: lambda-unimodular, so the raw test accepts it, but
    # it is no atom of U(H^2, lam, mu)
    H2 = hyperbolic(P2, 2)
    e1, f1 = H2.hyperbolic_pairs[0]
    F = mu_poset(H2)
    with pytest.raises(ValueError, match="not a simplex"):
        link(F, [e1 + f1])
    with pytest.raises(ValueError, match="not a simplex"):
        link(F, [e1, e1])
    assert len(link(F, [e1]).vertex_ids) > 0


TRANSLATED_CASES = [
    # theorem, ring, rank n or g, cells through the bound + 1, and the cells
    # (vertices at d = 0) of the link at e_1
    ("gl-translated", {"kind": "gf", "q": 2}, 2, {0: 7, 1: 42, 2: 168}, 6),
    ("gl-translated", {"kind": "gf", "q": 2}, 3,
     {0: 15, 1: 210, 2: 2520, 3: 20160}, {0: 14, 1: 168, 2: 1344}),
    ("gl-translated", {"kind": "gf", "q": 3}, 2, {0: 17, 1: 264, 2: 3024},
     15),
    ("gl-translated", {"kind": "zmod", "n": 4}, 2,
     {0: 28, 1: 672, 2: 10752}, 24),
    ("lambda-translated", {"kind": "gf", "q": 2}, 2,
     {0: 7, 1: 42, 2: 168}, 6),
    ("lambda-translated", {"kind": "gf", "q": 2}, 3,
     {0: 15, 1: 210, 2: 2520, 3: 20160}, {0: 14, 1: 168, 2: 1344}),
]


@pytest.mark.parametrize("theorem,ring,n,cells,link_cells", TRANSLATED_CASES,
                         ids=["gf2^2", "gf2^3", "gf3^2", "z4^2", "H^2", "H^3"])
def test_translated_theorems(theorem, ring, n, cells, link_cells):
    # the interior induction's translated posets, O(M u (M+e)) cap U(M + R)
    # and O(I(P + (E_g u E_g+e), mu)) cap U(N, lambda), at their bounds
    # rk - sr - k and g - usr - k.  Over GF(2) a space and its translate
    # fill the next rank, so on GF(2)^n and GF(2) H^n both are the GL poset
    # of GF(2)^(n+1)
    if theorem == "gl-translated":
        X = free_module(make_ring(ring), n)
        e1 = X.gen(0)
    else:
        X = hyperbolic(P2, n)
        e1 = X.hyperbolic_pairs[0][0]
    _bound, F = theorem_poset(theorem, X, 1)
    assert F.chain_condition_check(random.Random(n), max_p=2)
    for base, want in (([], cells), ([e1], link_cells)):
        rep = verify(theorem, X, 1, base=base)
        assert rep.bound == n - 1 - len(base)
        assert rep.verdict.result in ("homology-verified", "fully-verified")
        detail = rep.verdict.detail
        assert detail.get("cells", detail.get("vertices")) == want


def test_lambda_and_mu_poset_theorems():
    H2 = hyperbolic(P2, 2)
    rep = verify("lambda-poset", H2, 1)
    assert rep.bound == 0 and rep.verdict.ok()
    rep2 = verify("mu-poset", H2, 1)
    assert rep2.bound == 0 and rep2.verdict.ok()
    # the universe is the span of the Witt decomposition's first entries,
    # the tracked e_1 and e_2 of H^2: e_1 is a vertex and f_1 is not
    e1, f1 = H2.hyperbolic_pairs[0]
    rep3 = verify("lambda-poset", H2, 1, base=[e1])
    assert rep3.theorem == "lambda-poset-link"
    assert rep3.bound == -1 and rep3.verdict.ok()
    with pytest.raises(ValueError, match="not a simplex"):
        verify("lambda-poset", H2, 1, base=[f1])


def test_perp_link_variant():
    H3 = hyperbolic(P2, 3)
    e1 = H3.hyperbolic_pairs[0][0]
    rep = verify("perp-link", H3, 1, base=[e1])
    assert rep.bound == 0
    assert rep.verdict.ok()
    # the link of U(H^3, lam, mu) on <e1>-perp: the mu = 0 vectors a e1 + y,
    # y in H^2 (10 of its 16), but not 0 or e1
    assert rep.verdict.detail["vertices"] == 18
    with pytest.raises(ValueError, match="needs a base"):
        verify("perp-link", H3, 1)


def test_reduced_vs_plain_on_real_posets():
    # the production reduction and the dense-SNF oracle agree on the actual
    # workbench posets, one degree beyond the theorem bounds
    cases = []
    M = free_module(GF2, 3)
    cases.append((gl_poset(M), 2))
    H3 = hyperbolic(P2, 3)
    cases.append((iu_poset(H3), 1))
    H2 = hyperbolic(P2, 2)
    cases.append((hu_poset(H2), 1))
    for poset, d in cases:
        chain = build_chain_complex(poset, d)
        assert chain.dd_is_zero()
        fast = homology(chain, d)
        slow = homology_plain(chain, d)
        assert fast["betti"] == slow["betti"], (poset.name, fast, slow)
        assert fast["torsion"] == slow["torsion"]


def _chain_of(mats):
    """ChainComplexData of dense boundary matrices {p: d_p}, p = 0, 1, ..."""
    counts = {-1: len(mats[0]), **{p: d.shape[1] for p, d in mats.items()}}
    boundaries = {}
    for p, d in mats.items():
        cols, rows = np.nonzero(d.T)  # column-major
        boundaries[p] = (rows, cols, d[rows, cols])
    return ChainComplexData(counts, boundaries)


def _unimodular(rng, n):
    """A random unimodular n x n integer matrix and its inverse."""
    U, V = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] += c * U[j]  # U <- E U, E = 1 + c e_ij
        V[:, j] -= c * V[:, i]  # V <- V E^-1
    if n:
        k = rng.randrange(n)
        U[k], V[:, k] = -U[k], -V[:, k]
    return U, V


def _planted_complex(rng, top):
    """d_p = U_{p-1} D_p U_p^-1 for p = 0..top, U random unimodular and D_p
    diagonal from C_p's first k_p cells onto the k_p cells of C_{p-1} after
    its own first k_{p-1}, so D_p D_{p+1} = 0.  The divisors come from
    (1, 2, 4, 6, 0).  Returns the chain and the divisors of each D_p."""
    k = [0] + [rng.randrange(0, 4) for _ in range(top + 1)] + [0]
    n = [k[p] + k[p + 1] + rng.randrange(0, 3) for p in range(top + 2)]
    divisors, mats = {}, {}
    U = [_unimodular(rng, m) for m in n]  # U[p + 1] acts on C_p
    for p in range(top + 1):
        divisors[p] = [rng.choice((1, 2, 4, 6, 0)) for _ in range(k[p + 1])]
        D = np.zeros((n[p], n[p + 1]), dtype=np.int64)
        for t, e in enumerate(divisors[p]):
            D[k[p] + t, t] = e
        mats[p] = U[p][0] @ D @ U[p + 1][1]
    return _chain_of(mats), divisors


def _prime_powers(divisors):
    """The finite abelian group of Z/d, d in divisors, as sorted prime
    powers."""
    out = []
    for d in divisors:
        q = 2
        while d > 1:
            e = 1
            while d % q == 0:
                d, e = d // q, e * q
            if e > 1:
                out.append(e)
            q += 1
    return sorted(out)


def _snf_calls(monkeypatch):
    calls = []
    snf = kernels.snf_divisors

    def spy(A):
        calls.append(A)
        return snf(A)

    monkeypatch.setattr(kernels, "snf_divisors", spy)
    return calls


def test_one_cell_z2_attachment(monkeypatch):
    # a vertex, a loop on it and a 2-cell attached by degree 2 (the cells of
    # the projective plane): reduced H_1 = Z/2, H_0 = H_2 = 0
    chain = _chain_of({0: np.array([[1]]), 1: np.array([[0]]),
                       2: np.array([[2]])})
    calls = _snf_calls(monkeypatch)
    hom = homology(chain, 2)
    assert calls == [[[2]]]
    assert hom == homology_plain(chain, 2)
    assert hom["betti"] == {0: 0, 1: 0, 2: 0}
    assert hom["torsion"] == {0: [], 1: [2], 2: []}


@pytest.mark.parametrize("seed", range(12))
def test_planted_torsion_matches_plain(seed, monkeypatch):
    # the unimodular changes of basis hide the unit pivots; the reduction
    # still finds the planted Betti numbers and torsion, and every non-unit
    # divisor goes through the SNF endgame
    chain, divisors = _planted_complex(random.Random(seed), 3)
    calls = _snf_calls(monkeypatch)
    hom = homology(chain, 2)
    assert bool(calls) == any(e not in (0, 1) for divs in divisors.values()
                              for e in divs)
    assert hom == homology_plain(chain, 2)
    rank = {p: sum(1 for e in divs if e) for p, divs in divisors.items()}
    assert hom["betti"] == {p: chain.counts[p] - rank[p] - rank[p + 1]
                            for p in range(3)}
    assert {p: _prime_powers(t) for p, t in hom["torsion"].items()} \
        == {p: _prime_powers(divisors[p + 1]) for p in range(3)}


def test_exact_ints_past_the_int64_bound(monkeypatch):
    # with the bound at 1, every degree's values turn into Python ints at its
    # first round, and the reports stay those of the int64 path
    import wittlab.homology as H

    cases = [(build_chain_complex(gl_poset(free_module(GF2, 4)), 2), 2)] + [
        (_planted_complex(random.Random(seed), 3)[0], 2) for seed in (3, 5)]
    want = [homology(chain, d) for chain, d in cases]
    remainders = []
    reduce = H._reduce

    def spy(*args):
        out = reduce(*args)
        remainders.append((len(out[1]), out[0][2].dtype))
        return out

    monkeypatch.setattr(H, "INT64_BOUND", 1)
    monkeypatch.setattr(H, "_reduce", spy)
    assert [homology(chain, d) for chain, d in cases] == want
    assert all(dtype == object for npiv, dtype in remainders if npiv)
    assert any(t for rep in want for t in rep["torsion"].values())


def test_pivot_rounds_are_diagonal_blocks(monkeypatch):
    # on GL(GF(2)^4)'s d_3, each round's pivots are +-1 entries in distinct
    # rows and columns, and no pivot row has an entry in another pivot's
    # column; every round but the last, which finds no +-1 entry, pivots
    import wittlab.homology as H

    chain = build_chain_complex(gl_poset(free_module(GF2, 4)), 2)
    rounds = []
    pivots = H._pivots

    def spy(rows, cols, vals, shape):
        piv = pivots(rows, cols, vals, shape)
        if shape == (chain.counts[2], chain.counts[3]):
            rounds.append((rows, cols, vals, piv))
        return piv

    monkeypatch.setattr(H, "_pivots", spy)
    homology(chain, 2)
    *work, (_rows, _cols, vals, last) = rounds
    assert len(work) >= 2
    assert not len(last) and not (np.abs(vals) == 1).any()
    for rows, cols, vals, piv in work:
        assert len(piv) and (np.abs(vals[piv]) == 1).all()
        in_rows = np.zeros(chain.counts[2], dtype=bool)
        in_cols = np.zeros(chain.counts[3], dtype=bool)
        in_rows[rows[piv]] = in_cols[cols[piv]] = True
        assert in_rows.sum() == in_cols.sum() == len(piv)
        block = np.flatnonzero(in_rows[rows] & in_cols[cols])
        assert block.tolist() == sorted(piv.tolist())


def test_homology_does_not_import_numpy_ma():
    # a bare np.unique imports numpy.ma (12-19 ms), which would land inside
    # every GL verdict
    code = ("import sys\n"
            "from wittlab.modules import free_module\n"
            "from wittlab.rings import make_ring\n"
            "from wittlab.verify import verify_gl_connectivity\n"
            "M = free_module(make_ring({'kind': 'gf', 'q': 2}), 4)\n"
            "rep = verify_gl_connectivity(M, sr=1)\n"
            "assert rep.verdict.result == 'fully-verified'\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(wittlab.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


HOOK_CASES = [
    pytest.param(theorem, q, n, k, id=prefix + "%d-%d-%d" % (q, n, k))
    for theorem, prefix, sizes in (
        ("gl", "", ((2, (2, 3, 4)), (3, (2, 3)), (4, (2,)))),
        ("gl-translated", "translated-", ((2, (2, 3)), (3, (2,)))))
    for q, ns in sizes for n in ns for k in (0, 1, 2)]


def _assert_hook_matches_raw(F, plain, d, rng, sample):
    """On every member prefix through p = 2, F's hook mask over all atoms
    is exactly the set of extensions the raw test accepts.  The plain copy
    memoizes the raw test of every extension it tried; past level d a
    seeded sample of at most `sample` prefixes per level is tested."""
    ids = np.arange(len(F.atoms))
    for p in range(-1, 3):
        level = [[]] if p < 0 else F.simplices(p).tolist()
        if p > d and len(level) > sample:
            level = rng.sample(level, sample)
        for seq in level:
            want = np.array([plain.member_ids(tuple(seq) + (w,))
                             for w in ids.tolist()], dtype=bool)
            got = F.extend(np.array([seq], dtype=np.intp), ids)[0]
            assert np.array_equal(got, want), seq


@pytest.mark.parametrize("theorem,q,n,k", HOOK_CASES)
def test_gl_extend_hook_matches_raw(theorem, q, n, k):
    # The poset of theorem on GF(q)^n, or its link at (e_1..e_k), against a
    # copy with no hook: the same levels and homology through the bound d,
    # neighbors against the pairwise raw test, and the exact extend mask
    # against the raw test on member prefixes (at most 500 per level past
    # d).
    M = free_module(make_ring({"kind": "gf", "q": q}), n)
    bound, F = theorem_poset(theorem, M, 1, base=M.gens()[:k])
    assert F.extend is not None
    plain = SequencePoset(F.name, F.atoms, F.member_atoms)
    d = max(bound, 0)
    for p in range(d + 2):
        assert np.array_equal(F.simplices(p), plain.simplices(p))
    a = homology(build_chain_complex(F, d), d)
    b = homology(build_chain_complex(plain, d), d)
    assert a["cells"] == b["cells"]
    assert a["betti"] == b["betti"] and a["torsion"] == b["torsion"]
    ids = range(len(F.atoms))
    for v in F.vertex_ids:
        assert F.neighbors(v).tolist() == [
            w for w in ids
            if plain.member_ids((v, w)) or plain.member_ids((w, v))]
    _assert_hook_matches_raw(F, plain, d, random.Random(100 * q + 10 * n + k),
                             500)


def _quad_hook_ids(ring, module, kinds):
    return [pytest.param(ring, module, kind, k,
                         id="%s-%s-%s-%d" % (ring, module, kind, k))
            for kind, ks in kinds for k in ks]


IU_KINDS = (("iu", (0, 1)), ("iu<V>", (1,)))
LAM_KINDS = (("lambda", (0, 1)), ("mu", (0, 1)))
QUAD_KINDS = IU_KINDS + (("hu", (0, 1)),) + LAM_KINDS
# GF(4) H^2 is IU's alone (its mu-poset passes the simplex cap at p = 2);
# on H + a degenerate point the lambda-poset's universe need not hold e_1
QUAD_HOOK_CASES = [
    case
    for ring, module, kinds in (
        [(ring, module, QUAD_KINDS)
         for ring, module in (("gf2", "H2"), ("gf2", "H3"), ("gf3", "H2"),
                              ("z4", "H2"))]
        + [("z2c2", "H2", IU_KINDS + LAM_KINDS), ("gf4", "H2", IU_KINDS),
           ("gf4", "H1", LAM_KINDS)]
        + [(ring, "H1+deg", (("lambda", (0,)), ("mu", (0, 1))))
           for ring in ("gf2", "gf3", "gf4", "z4")]
        + [(ring, module, (("gl", (0, 1)),))
           for ring, module in (("z4", "R2"), ("z4", "R+R/2"),
                                ("z4", "R2+R/2"), ("z2c2", "R2"))])
    for case in _quad_hook_ids(ring, module, kinds)
]


def _hook_case(ring, module, kind, k):
    """(bound, poset) of a hook case: a theorem's poset on the module (H^g,
    H^g + a degenerate point, R^2, R + R/2 or R^2 + R/2), linked at its
    first k base entries.  The lambda-poset is the registry's (on
    N = Q + H), the mu-poset all of U(Q, lam, mu), and iu<V> IU(Y)<V> as
    verify_link_isos builds it (Y = <e_1, f_1>-perp, V the span of e_1)."""
    from wittlab import catalog as C
    from wittlab.modules import cyclic_module, direct_sum_modules
    from wittlab.quadratic import direct_sum_quadratic, orthogonal_complement

    param = C.catalog_parameters(ring)[0][1]
    if kind == "gl":
        M = free_module(param.ring, 2 if module.startswith("R2") else 1)
        if module.endswith("+R/2"):
            M, _, _ = direct_sum_modules(M, cyclic_module(param.ring, 2))
        return theorem_poset("gl", M, 1, base=M.gens()[:k])
    g = int(module[1])
    Q = hyperbolic(param, g)
    if module.endswith("+deg"):
        Q, _, _ = direct_sum_quadratic(Q, C.degenerate_point(param))
    e1, f1 = Q.hyperbolic_pairs[0]
    if kind == "iu<V>":
        Y, _incl = orthogonal_complement(Q, [e1, f1])
        V = list({(e1 * c).vec: e1 * c for c in range(Q.ring.size)}.values())
        bound, _F = theorem_poset("iu", Q, 1, base=[e1])
        return bound, decorate(iu_poset(Y), V)
    theorem = {"lambda": "lambda-poset", "mu": "mu-poset"}.get(kind, kind)
    base = ([(e1, f1)] if kind == "hu" else [e1])[:k]
    return theorem_poset(theorem, Q, 1, base=base)


@pytest.mark.parametrize("ring,module,kind,k", QUAD_HOOK_CASES)
def test_quadratic_extend_hooks_match_raw(ring, module, kind, k):
    # IU, HU, the lambda- and mu-posets and GL of H^g (or of a module with
    # a singular form or a non-free one), their links at e_1 or (e_1, f_1),
    # and IU(Y)<V>: the hook mask is exactly the raw test's extensions on
    # member prefixes (at most 60 per level past the bound), and the
    # vertices are the raw test's
    bound, F = _hook_case(ring, module, kind, k)
    assert F.extend is not None
    plain = SequencePoset(F.name, F.atoms, F.member_atoms)
    assert F.vertex_ids == plain.vertex_ids
    _assert_hook_matches_raw(F, plain, bound,
                             random.Random("%s%s%s%d" % (
                                 ring, module.lstrip("H"), kind, k)),
                             60)


def test_hooked_posets_make_no_raw_call_at_construction():
    # HU and IU of H^3/GF(2), the mu-poset of H^2/GF(2), GL(GF(2)^3) and
    # GL((Z/4)^2) take their vertices from the hook at the empty prefix,
    # and their links from the parent's hook at the base: the one raw call,
    # and the one membership memoized, is the parent's check that the base
    # is a simplex
    H2, H3 = hyperbolic(P2, 2), hyperbolic(P2, 3)
    e1, f1 = H3.hyperbolic_pairs[0]
    M, M4 = free_module(GF2, 3), free_module(Z4, 2)
    for F, base, vertices, link_vertices in (
            (hu_poset(H3), (e1, f1), 560, 36),
            (iu_poset(H3), e1, 35, 18),
            (mu_poset(H2), H2.hyperbolic_pairs[0][0], 9, 8),
            (gl_poset(M), M.gen(0), 7, 6),
            (gl_poset(M4), M4.gen(0), 12, 8)):
        assert F._memo == {} and len(F.vertex_ids) == vertices
        calls = []
        raw = F._raw
        F._raw = lambda seq: calls.append(seq) or raw(seq)
        Fv = link(F, [base])
        assert calls == [(base,)]
        assert F._memo == {(F.atoms.index(base),): True} and Fv._memo == {}
        assert len(Fv.vertex_ids) == link_vertices


def test_iu_h5_edges_without_raw_calls():
    # IU(H^5/GF(2)): 527 vertices and 142,290 1-simplices, every one found
    # by the hook, so the raw test is never called
    F = iu_poset(hyperbolic(P2, 5))
    calls = []
    raw = F._raw
    F._raw = lambda seq: calls.append(seq) or raw(seq)
    assert len(F.vertex_ids) == 527
    assert len(F.simplices(1)) == 142_290
    assert calls == [] and F._memo == {}
