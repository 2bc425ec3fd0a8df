"""Posets, chain complexes, homology and connectivity verdicts."""

import random

import pytest

from wittlab.homology import build_chain_complex, homology, homology_plain
from wittlab.modules import free_module
from wittlab.posets import (
    SequencePoset,
    decorate,
    gl_poset,
    hu_poset,
    iu_poset,
    link,
    mu_pairs_poset,
    truncate,
)
from wittlab.quadratic import hyperbolic
from wittlab.rings import make_form_parameter, make_ring
from wittlab.verify import (
    _pi1_trivial,
    _presentation_trivial,
    connectivity_verdict,
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
    assert F.simplices(2) == []
    hom = homology(build_chain_complex(F, 0), 0)
    assert hom["betti"][0] == 0  # connected: matches the bound rk - sr - 1 = 0


def test_u_poset_field_fastpath_matches_generic():
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
    assert F.simplices(1) == []  # no unimodular pairs in rank 1


def test_chain_condition_sampled():
    rng = random.Random(3)
    M = free_module(GF2, 3)
    F = gl_poset(M)
    assert F.chain_condition_check(rng)
    H2 = hyperbolic(P2, 2)
    assert hu_poset(H2).chain_condition_check(rng)
    assert iu_poset(H2).chain_condition_check(rng)
    assert mu_pairs_poset(H2).chain_condition_check(rng)


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


def test_truncate_and_decorate():
    M = free_module(GF2, 2)
    F = gl_poset(M)
    F1 = truncate(F, 1)
    assert len(F1.simplices(0)) == 3
    assert F1.simplices(1) == []
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


def test_mu_identification():
    # IU(M) = MU(M) cap O(M x {0})
    H2 = hyperbolic(P2, 2)
    FI = iu_poset(H2)
    FM = mu_pairs_poset(H2)
    zero = H2.module.zero()
    iu_verts = {FI.atoms[i] for i in FI.vertex_ids}
    mu_zero_verts = {FM.atoms[i][0] for i in FM.vertex_ids
                     if FM.atoms[i][1] == zero}
    assert iu_verts == mu_zero_verts


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
    assert sorted(F.simplices(1)) == [(0, 2), (1, 2), (1, 3), (2, 3), (3, 0)]
    assert homology(build_chain_complex(F, 1), 1)["betti"][1] == 1
    assert not _pi1_trivial(F)
    assert _pi1_trivial(simple_poset(closure([(0, 1, 2)])))
    sphere = closure([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert _pi1_trivial(simple_poset(sphere))


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
            assert not _pi1_trivial(F), sorted(tops)
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


def test_translated_gl_poset():
    from wittlab.posets import gl_translated_poset

    M = free_module(GF2, 2)
    F = gl_translated_poset(M)
    # universe M u (M + e): 8 candidate atoms; e itself is unimodular
    assert len(F.atoms) == 8
    assert len(F.vertex_ids) > len(gl_poset(M).vertex_ids)
    rng = random.Random(1)
    assert F.chain_condition_check(rng)
    # bound from the interior induction: (rk - sr)-connected
    from wittlab.verify import connectivity_verdict

    assert connectivity_verdict(F, 0).ok()


def test_translated_quad_poset():
    from wittlab.blocks import frame_for
    from wittlab.posets import quad_translated_poset

    H2 = hyperbolic(P2, 2)
    frame = frame_for(H2, usr=1)
    F = quad_translated_poset(H2, frame)
    assert not F.is_empty()
    rng = random.Random(2)
    assert F.chain_condition_check(rng)
    from wittlab.verify import connectivity_verdict

    # interior bound g - usr = 1; certify the reachable d = 0 tier here
    assert connectivity_verdict(F, 0).ok()


def test_lambda_and_mu_poset_theorems():
    H2 = hyperbolic(P2, 2)
    rep = verify("lambda-poset", H2, 1)
    assert rep.bound == 0 and rep.verdict.ok()
    rep2 = verify("mu-poset", H2, 1)
    assert rep2.bound == 0 and rep2.verdict.ok()
    e1 = H2.hyperbolic_pairs[0][0]
    rep3 = verify("lambda-poset", H2, 1, base=[e1])
    assert rep3.theorem == "lambda-poset-link"
    assert rep3.bound == -1 and rep3.verdict.ok()


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


HOOK_CASES = [(q, n, k) for q, ns in ((2, (2, 3, 4)), (3, (2, 3)), (4, (2,)))
              for n in ns for k in (0, 1, 2)]


@pytest.mark.parametrize("q,n,k", HOOK_CASES)
def test_gl_extend_hook_matches_raw(q, n, k):
    # GF(q)^n, or its link at (e_1..e_k), against a copy with no hook: the
    # same levels and homology, neighbors against the pairwise raw test, and
    # the extend mask against the raw test on every member prefix through
    # p = 2.  The copy memoizes the raw test of every extension it tried,
    # which covers the prefixes through p = d; past d a seeded sample of at
    # most 500 prefixes per level is tested.
    M = free_module(make_ring({"kind": "gf", "q": q}), n)
    F = gl_poset(M)
    if k:
        F = link(F, M.gens()[:k])
    assert F.extend is not None
    plain = SequencePoset(F.name, F.atoms, F.member_atoms)
    d = max(n - k - 2, 0)
    for p in range(d + 2):
        assert F.simplices(p) == plain.simplices(p)
    a = homology(build_chain_complex(F, d), d)
    b = homology(build_chain_complex(plain, d), d)
    assert a["cells"] == b["cells"]
    assert a["betti"] == b["betti"] and a["torsion"] == b["torsion"]
    ids = range(len(F.atoms))
    for v in F.vertex_ids:
        assert F.neighbors(v).tolist() == [
            w for w in ids
            if plain.member_ids((v, w)) or plain.member_ids((w, v))]
    rng = random.Random(100 * q + 10 * n + k)
    for p in range(-1, 3):
        level = [()] if p < 0 else F.simplices(p)
        if p > d and len(level) > 500:
            level = rng.sample(level, 500)
        for seq in level:
            want = [plain.member_ids(seq + (w,)) for w in ids]
            assert F.extend(seq).tolist() == want, seq
