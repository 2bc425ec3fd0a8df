"""Module maps as int64 matrices, each against a route that does not use
the matrix: act_vec columns, image-by-image composition, per-pair
lam / mu_rep scalars, the transvection formula on module elements, the
embed_std path of a frame, per-element mu classes, and digests of moves,
straightenings, cancellations and isometry searches taken with the
element-by-element map code."""

import hashlib
import random

import numpy as np
import pytest

from wittlab import catalog as C
from wittlab import stable_range as S
from wittlab.blocks import (
    cancel_H,
    frame_for,
    hyperbolic_straighten,
    is_isometry as blocks_is_isometry,
    transitive_move,
)
from wittlab.linalg import row_unimodular
from wittlab.modules import (
    Module,
    ModuleMap,
    cyclic_module,
    direct_sum_modules,
    free_module,
)
from wittlab.quadratic import (
    direct_sum_quadratic,
    hyperbolic,
    is_isometry,
    is_lambda_unimodular,
    is_quad_isomorphic,
    is_unitary,
    make_quadratic,
    replay_word,
    transvection,
    unitary_group,
    unitary_word,
)
from wittlab.rings import make_form_parameter, make_ring

GF2 = make_ring({"kind": "gf", "q": 2})
P2 = make_form_parameter(GF2, 1, ())
Z4 = make_ring({"kind": "zmod", "n": 4})
# every catalog ring has symmetric right-multiplication matrices Rmat[b_t];
# these do not, and GF(2)[S3] is not commutative
GF9 = make_ring({"kind": "gf", "q": 9})
C3 = make_ring({"kind": "group_ring", "m": 2, "group": "C3"})
S3 = make_ring({"kind": "group_ring", "m": 2, "group": "S3"})


def presented_module():
    """Z/4 R + R/2: one relator."""
    S_, _, _ = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))
    return S_


def presented_quadratic():
    """Z/2 over Z/4 (one relator) with lambda(g, g) = 2, mu(g) = 1, plus H."""
    p = make_form_parameter(Z4, 1, (2,))
    Qx = make_quadratic(Module(Z4, 1, ((2,),)), [[2]], [1], p)
    Q, _, _ = direct_sum_quadratic(Qx, hyperbolic(p, 1))
    return Q


def h_plus_deg(param, g=1):
    Q, _, _ = direct_sum_quadratic(hyperbolic(param, g),
                                   C.degenerate_point(param))
    return Q


def random_images(rng, elems, k):
    return [rng.choice(elems) for _ in range(k)]


# -- the matrix against act_vec columns -------------------------------------


def act_vec_columns(codomain, images):
    """Column (i, t) = canon(image_i * b_t), by the scalar act_vec."""
    ring = codomain.ring
    cols = [codomain.act_vec(x.vec, t) for x in images for t in ring.basis]
    return [list(row) for row in zip(*cols)]


def element_image(f, images, x):
    """sum_i image_i * a_i for x = sum_i g_i * a_i, in module arithmetic."""
    acc = f.codomain.zero()
    for img, a in zip(images, x.ring_blocks()):
        acc = acc + img * a
    return acc


def map_modules():
    out = []
    for rname in ("gf2", "gf3", "gf4", "z4", "z2c2", "z3c2"):
        ring = C.catalog_ring(rname)
        out.append(("%s^2" % rname, free_module(ring, 2)))
    out.append(("gf9^2", free_module(GF9, 2)))
    out.append(("gf2[C3]^2", free_module(C3, 2)))
    out.append(("gf2[S3]^1", free_module(S3, 1)))
    out.append(("z4:R+R/2", presented_module()))
    out.append(("z4:H+deg", h_plus_deg(C.default_parameter("z4")).module))
    out.append(("z4:presented-Q", presented_quadratic().module))
    return out


@pytest.mark.parametrize("name,M", map_modules(),
                         ids=[n for n, _ in map_modules()])
def test_matrix_matches_act_vec_columns(name, M):
    rng = random.Random(name)
    elems = list(M.elements())
    targets = [M, free_module(M.ring, 1), presented_module()] \
        if M.ring is Z4 else [M, free_module(M.ring, 1)]
    for N in targets:
        n_elems = list(N.elements())
        for _ in range(12):
            images = random_images(rng, n_elems, M.ngens)
            f = ModuleMap(M, N, images, check=False)
            want = act_vec_columns(N, images)
            assert f.B.dtype == np.int64
            assert f.B.shape == (N.nd, M.nd)
            assert f.B.tolist() == want
            for x in elems:
                assert f(x) == element_image(f, images, x)
            g = ModuleMap.from_matrix(M, N, np.array(want), check=False)
            assert g.B.tolist() == want
            if f.well_defined():
                assert g.key() == f.key()
                assert g.key() == tuple(x.vec for x in images)


@pytest.mark.parametrize("name,M", map_modules(),
                         ids=[n for n, _ in map_modules()])
def test_compose_matches_image_by_image(name, M):
    rng = random.Random("compose" + name)
    elems = list(M.elements())
    maps = []
    while len(maps) < 8:
        f = ModuleMap(M, M, random_images(rng, elems, M.ngens), check=False)
        if f.well_defined():
            maps.append(f)
    for f in maps:
        for g in maps[:4]:
            got = g.compose(f)
            want = ModuleMap(M, M, [g(f(x)) for x in M.gens()], check=False)
            assert got.key() == want.key()
            assert got.B.tolist() == want.B.tolist()
            assert all(got(x) == g(f(x)) for x in elems[::7])


# -- the isometry test against per-pair scalars -------------------------------


def isometry_oracle(Q1, Q2, f):
    """Gram and mu of every generator image, one scalar pair at a time."""
    if f.domain is not Q1.module or f.codomain is not Q2.module:
        return False
    if not f.well_defined():
        return False
    imgs = [f(g) for g in Q1.module.gens()]
    for i in range(Q1.module.ngens):
        if Q2.mu_rep(imgs[i]) != Q1.mu[i]:
            return False
        for j in range(Q1.module.ngens):
            if Q2.lam(imgs[i], imgs[j]) != Q1.gram[i][j]:
                return False
    return f.is_bijective()


def lam_preserved(Q, f):
    gens = Q.module.gens()
    return all(Q.lam(f(x), f(y)) == Q.lam(x, y) for x in gens for y in gens)


def test_is_isometry_is_the_blocks_one():
    assert blocks_is_isometry is is_isometry


@pytest.mark.parametrize("rname", ["gf2", "gf3", "z4", "z2c2"])
def test_isometry_accepts_eu_generators_and_unitary_group(rname):
    ring = C.catalog_ring(rname)
    for _pname, param in C.catalog_parameters(rname):
        H, gens = S.elementary_unitary_generators(ring, param, 2,
                                                  u_mode="basis")
        for t in gens:
            assert is_isometry(H, H, t.f) and isometry_oracle(H, H, t.f)
        if rname != "z2c2":
            H1 = hyperbolic(param, 1)
            for u in unitary_group(H1):
                assert is_unitary(H1, u.f) and isometry_oracle(H1, H1, u.f)


def test_isometry_on_presented_module():
    Q = presented_quadratic()
    group = unitary_group(Q)
    assert group
    for u in group:
        assert is_isometry(Q, Q, u.f) and isometry_oracle(Q, Q, u.f)
    rng = random.Random(7)
    elems = list(Q.module.elements())
    verdicts = set()
    for _ in range(300):
        f = ModuleMap(Q.module, Q.module,
                      random_images(rng, elems, Q.module.ngens), check=False)
        got = is_isometry(Q, Q, f)
        assert got == isometry_oracle(Q, Q, f)
        verdicts.add(got)
    assert verdicts == {False, True}


def test_isometry_rejects_lambda_keeping_mu_breaking_map():
    for H in (hyperbolic(P2, 1), hyperbolic(P2, 2)):
        e1, f1 = H.hyperbolic_pairs[0]
        imgs = [e1 + f1] + H.module.gens()[1:]  # e_1 -> e_1 + f_1
        f = ModuleMap(H.module, H.module, imgs)
        assert f.is_bijective() and lam_preserved(H, f)
        assert H.mu_rep(f(e1)) != H.mu_rep(e1)
        assert not is_isometry(H, H, f) and not isometry_oracle(H, H, f)
    # the same forms on two modules, lambda kept and mu not
    H = hyperbolic(P2, 1)
    Arf = make_quadratic(free_module(GF2, 2), H.gram, [1, 0], P2)
    f = ModuleMap(H.module, Arf.module, Arf.module.gens())
    assert not is_isometry(H, Arf, f) and not isometry_oracle(H, Arf, f)


def test_isometry_rejects_non_bijective_map():
    for rname in ("gf2", "z4"):
        param = C.default_parameter(rname)
        D = C.degenerate_point(param)
        zero = ModuleMap(D.module, D.module, [D.module.zero()])
        assert not zero.is_bijective()
        assert not is_isometry(D, D, zero) and not isometry_oracle(D, D, zero)
        Q = h_plus_deg(param)
        gens = Q.module.gens()
        f = ModuleMap(Q.module, Q.module, gens[:2] + [Q.module.zero()])
        assert lam_preserved(Q, f)
        assert not is_isometry(Q, Q, f) and not isometry_oracle(Q, Q, f)


def test_isometry_rejects_one_perturbed_entry():
    H, gens = S.elementary_unitary_generators(GF2, P2, 2, u_mode="basis")
    m = GF2.base_mod
    checked = 0
    for t in gens:
        for i in range(H.module.nd):
            for j in range(H.module.nd):
                B = t.f.B.copy()
                B[i, j] = (B[i, j] + 1) % m
                f = ModuleMap.from_matrix(H.module, H.module, B)
                assert not is_isometry(H, H, f)
                assert not isometry_oracle(H, H, f)
                checked += 1
    assert checked == len(gens) * 16


# -- transvections -----------------------------------------------------------


def transvection_instances():
    out = []
    for rname in C.ring_names():
        for pname, param in C.catalog_parameters(rname):
            out.append(("%s:H^2" % pname, hyperbolic(param, 2)))
            out.append(("%s:H+deg" % pname, h_plus_deg(param)))
    for ring in (GF9, C3, S3):
        out.append(("%s:H^1" % ring.name,
                    hyperbolic(make_form_parameter(ring, ring.one, ()), 1)))
    out.append(("z4:presented", presented_quadratic()))
    return out


def transvection_formula_columns(Q, e, u, x):
    """Column per raw unit vector v: canon(v + u l(e,v) - e eps_bar l(u,v)
    - e eps_bar x l(e,v)), in module-element arithmetic."""
    ring = Q.ring
    eb = Q.param.eps_bar
    cols = []
    for s in range(Q.module.nd):
        unit = [0] * Q.module.nd
        unit[s] = 1
        v = Q.module.from_vec(unit)
        lev, luv = Q.lam(e, v), Q.lam(u, v)
        img = v + u * lev - e * int(ring.mul[eb, luv]) \
            - e * int(ring.mul[ring.mul[eb, x], lev])
        cols.append(img.vec)
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("name,Q", transvection_instances(),
                         ids=[n for n, _ in transvection_instances()])
def test_transvection_matrix_matches_formula(name, Q):
    rng = random.Random(name)
    ring = Q.ring

    def draw(accept):
        while True:
            y = Q.module.element([rng.randrange(ring.size)
                                  for _ in range(Q.module.ngens)])
            if accept(y):
                return y

    cases = 0
    while cases < 12:
        e = draw(Q.mu_zero)
        u = draw(lambda y: Q.lam(e, y) == ring.zero)
        x = int(ring.add[Q.mu_rep(u), rng.choice(sorted(Q.param.lam))])
        t = transvection(Q, e, u, x)
        assert t.f.B.tolist() == transvection_formula_columns(Q, e, u, x)
        assert t.tag == ("tau", e.vec, u.vec, x)
        assert t.orthogonal == (is_lambda_unimodular(Q, [e]) is not None)
        cases += 1


# -- frames ------------------------------------------------------------------


def frame_instances():
    out = []
    for rname, g in (("gf2", 3), ("z4", 2), ("gf3", 2), ("z2c2", 2)):
        out.append(("%s:H^%d" % (rname, g),
                    hyperbolic(C.default_parameter(rname), g)))
    for rname in ("gf2", "z4"):
        out.append(("%s:H^2+deg" % rname,
                    h_plus_deg(C.default_parameter(rname), 2)))
    return out


@pytest.mark.parametrize("name,Q", frame_instances(),
                         ids=[n for n, _ in frame_instances()])
def test_frame_maps_match_scalar_route(name, Q):
    frame = frame_for(Q, usr=1)
    ring = Q.ring
    for v in list(Q.module.elements())[::11]:
        As, Bs = frame.hyperbolic_coords(v)
        assert Bs == [Q.lam(e, v) for e, _ in frame.pairs]
        assert As == [int(ring.mul[frame.eps_inv, Q.lam(f, v)])
                      for _, f in frame.pairs]
        z = frame.project_std(v)
        assert z.vec == frame.H_std.module.element(
            [c for ab in zip(As, Bs) for c in ab]).vec
        emb = Q.module.zero()
        for (e, f), a, b in zip(frame.pairs, As, Bs):
            emb = emb + e * a + f * b
        assert frame.embed_std(z) == emb == frame.h_component(v)
    H, gens = S.elementary_unitary_generators(ring, Q.param, frame.g,
                                              u_mode="basis", H=frame.H_std)
    rng = random.Random(name)
    for psi in rng.sample(gens, min(len(gens), 25)):
        imgs = [frame.P_incl(frame.p_component(x))
                + frame.embed_std(psi(frame.project_std(x)))
                for x in Q.module.gens()]
        phi = frame.extend_h_unitary(psi)
        assert phi.key() == tuple(x.vec for x in imgs)
        assert phi.tag == ("map", phi.key())


# -- mu classes ----------------------------------------------------------------


def partition_oracle(H):
    """The per-element route: mu_rep and ring_blocks of every element."""
    classes = {}
    for x in H.module.elements(cap=H.module.size):
        if x.is_zero() or not row_unimodular(H.ring, frozenset(x.ring_blocks())):
            continue
        classes.setdefault(H.mu_rep(x), []).append(x.vec)
    return classes


@pytest.mark.parametrize("rname", C.ring_names())
def test_mu_class_partition_matches_per_element(rname):
    for _pname, param in C.catalog_parameters(rname):
        for n in (1, 2):
            H = hyperbolic(param, n)
            got = S._mu_class_partition(H, S.DEFAULT_BUDGET)
            elems = [x.vec for x in H.module.elements(cap=H.module.size)]
            assert {k: [elems[c] for c in v.tolist()]
                    for k, v in got.items()} == partition_oracle(H)
            assert all(type(k) is int for k in got)


# -- outputs pinned by digest ----------------------------------------------------
# Digests of repr() of every output, taken with the element-by-element map
# code (act_vec columns, per-pair lam/mu_rep, per-element frame maps).


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def move_outputs(rname, g):
    Q = hyperbolic(C.default_parameter(rname), g)
    frame = frame_for(Q, usr=1)
    out = []
    for v in Q.module.elements():
        if v.is_zero() or is_lambda_unimodular(Q, [v]) is None:
            continue
        phi, target = transitive_move(Q, v, Q.mu_rep(v), frame=frame, usr=1)
        word = unitary_word(phi)
        assert replay_word(Q, word).key() == phi.key()
        out.append((v.vec, phi.key(), target.vec, word))
    return out


def straighten_outputs(rname, g):
    Q = hyperbolic(C.default_parameter(rname), g)
    frame = frame_for(Q, usr=1)
    out = []
    for v in Q.module.elements():
        if v.is_zero() or is_lambda_unimodular(Q, [v]) is None:
            continue
        phi = hyperbolic_straighten(Q, [v], 1, frame=frame, usr=1)
        out.append((v.vec, phi.key(), unitary_word(phi)))
    return out


def cancellation_sums():
    """The four cancellation cases: (name, M, N, M + H, N + H)."""
    out = []
    for rname in ("gf2", "z4"):
        param = C.default_parameter(rname)
        H = hyperbolic(param, 1)
        D = C.degenerate_point(param)
        Qm, _, _ = direct_sum_quadratic(H, D)
        Qn, _, _ = direct_sum_quadratic(D, H)
        for cname, A, B in (("H~H", H, H), ("H+deg", Qm, Qn)):
            AH, _, _ = direct_sum_quadratic(A, hyperbolic(param, 1))
            BH, _, _ = direct_sum_quadratic(B, hyperbolic(param, 1))
            out.append(("%s:%s" % (rname, cname), A, B, AH, BH))
    return out


def cancel_outputs():
    out = []
    for name, A, B, AH, BH in cancellation_sums():
        iso = is_quad_isomorphic(AH, BH)
        beta = cancel_H(A, B, iso, sums=(AH, BH), usr=1)
        out.append((name, iso.key(), beta.key()))
    return out


def isometry_search_outputs():
    out = []
    for rname in ("gf2", "gf3", "z4"):
        for pname, param in C.catalog_parameters(rname):
            H = hyperbolic(param, 1)
            out.append((pname, [u.key() for u in unitary_group(H)],
                        is_quad_isomorphic(H, H).key()))
    return out


PINNED = {
    "moves:gf2:H^3": (
        lambda: move_outputs("gf2", 3), 63,
        "ce6600f086b119ff570d7030825d1b54bd033ed44612b797f3e7adb023f3760d"),
    "moves:z4:H^2": (
        lambda: move_outputs("z4", 2), 240,
        "63521a808ac862e11b8a15d68ddbe3de64a6b7cd2d4e4c73e386dd4b396ed994"),
    "straighten:gf2:H^3": (
        lambda: straighten_outputs("gf2", 3), 63,
        "de1c933adba86f9ddef9f74be9c723d8c78b179fd3d55fc70c7500eecd7fb0d2"),
    "straighten:z4:H^2": (
        lambda: straighten_outputs("z4", 2), 240,
        "c297151396fba920b67f49280c59b025b0a89dc00e9c8f935de1148062153fde"),
    "cancel": (
        cancel_outputs, 4,
        "ca4e0812619af4950d95f1e2d27ab57908435df74f372416fcf240ce3408f091"),
    "isometry-search:H^1": (
        isometry_search_outputs, 8,
        "abc973864d29cdadfb0f9fba3d9929b593a4b204b787e1c3a9672453f3e34a6e"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_pinned_digest(name):
    build, count, want = PINNED[name]
    out = build()
    assert len(out) == count
    assert digest(out) == want
