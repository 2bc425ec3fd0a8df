"""The move's Witt step against the routes it replaces: witt_index's
presentation memo against the uncached search, the cached EU-reach word
against a fresh eu_search, and the lambda-adjoint inverse against
ModuleMap.inverse.  The seeded sweep and the EU pull-back of
_dual_completion are forced by Witt decompositions that come back g-short."""

import random

import numpy as np
import pytest

from wittlab import blocks
from wittlab import catalog as C
from wittlab import quadratic
from wittlab import stable_range as S
from wittlab.blocks import (
    BlockError,
    _dual_completion,
    _eu_reach_first_pair,
    adjoint_inverse,
    frame_for,
    hyperbolic_straighten,
    pair_coordinates,
    transitive_move,
)
from wittlab.modules import ModuleMap
from wittlab.quadratic import (
    UnitaryMap,
    WittDecomposition,
    direct_sum_quadratic,
    hyperbolic,
    identity_unitary,
    is_lambda_unimodular,
    witt_index,
)


def instance(rname, g, deg=False):
    param = C.default_parameter(rname)
    Q = hyperbolic(param, g)
    if deg:
        Q, _, _ = direct_sum_quadratic(Q, C.degenerate_point(param))
    return Q


def movable(Q):
    return [v for v in Q.module.elements()
            if not v.is_zero() and is_lambda_unimodular(Q, [v]) is not None]


# -- the memo against the uncached search ------------------------------------


def record_witt_calls(monkeypatch):
    """(Q, usr, cap) of every witt_index call the blocks layer makes."""
    calls = []

    def recording(Q, usr=None, cap=quadratic.GROUP_CAP):
        calls.append((Q, usr, cap))
        return witt_index(Q, usr=usr, cap=cap)

    monkeypatch.setattr(blocks, "witt_index", recording)
    return calls


def assert_same_decomposition(dec, ref):
    """The same pair vectors, complement gram and mu, and inclusion matrix,
    with the pairs and the inclusion on the caller's module."""
    module = dec.Q.module
    assert [(x.vec, y.vec) for x, y in dec.pairs] == \
        [(x.vec, y.vec) for x, y in ref.pairs]
    assert all(x.module is module for pair in dec.pairs for x in pair)
    assert dec.complement.gram == ref.complement.gram
    assert dec.complement.mu == ref.complement.mu
    assert dec.complement.param is ref.complement.param
    assert dec.complement_incl.codomain is module
    assert dec.complement_incl.domain is dec.complement.module
    assert np.array_equal(dec.complement_incl.B, ref.complement_incl.B)


@pytest.mark.parametrize("rname,g,deg,sample", [
    ("gf2", 2, False, None),
    ("gf2", 3, False, None),
    ("gf2", 2, True, None),
    ("z4", 2, False, None),
    ("gf3", 2, False, 12),
], ids=["gf2-H2", "gf2-H3", "gf2-H2+deg", "z4-H2", "gf3-H2-sample"])
def test_memo_matches_uncached_search(monkeypatch, rname, g, deg, sample):
    Q = instance(rname, g, deg)
    frame = frame_for(Q, usr=1)
    vs = movable(Q)
    if sample:
        vs = random.Random(rname).sample(vs, sample)
    monkeypatch.setattr(quadratic, "_WITT_MEMO", {})
    calls = record_witt_calls(monkeypatch)
    for v in vs:
        transitive_move(Q, v, Q.mu_rep(v), frame=frame, usr=1)
    # every move meets U and its complement; few presentations repeat
    assert len(calls) >= 2 * len(vs)
    assert len({quadratic._presentation(U) for U, _, _ in calls}) < len(calls)
    for U, usr, cap in calls:
        dec = witt_index(U, usr=usr, cap=cap)
        # the search recurses through witt_index: start it on an empty memo
        quadratic._WITT_MEMO.clear()
        assert_same_decomposition(dec, quadratic._witt_search(U, usr, cap))


def test_memo_keeps_params_usr_and_cap_apart(monkeypatch):
    monkeypatch.setattr(quadratic, "_WITT_MEMO", {})
    searches = []
    real = quadratic._witt_search

    def counting(Q, usr, cap):
        searches.append((quadratic._presentation(Q), usr, cap))
        return real(Q, usr, cap)

    def top_level():
        # the searches of Qmin and Qmax, not of the complements they recurse to
        return [s for s in searches if s[0] in tops]

    monkeypatch.setattr(quadratic, "_witt_search", counting)
    # gf2 at eps = 1 with Lambda = {0} and with Lambda = {0, 1}: H + deg has
    # the same gram and mu under both
    (_, pmin), (_, pmax) = C.catalog_parameters("gf2")
    Qmin, Qmax = (direct_sum_quadratic(hyperbolic(p, 1),
                                       C.degenerate_point(p))[0]
                  for p in (pmin, pmax))
    tops = {quadratic._presentation(Qmin), quadratic._presentation(Qmax)}
    assert len(tops) == 2 and len({p[1:] for p in tops}) == 1
    dmin = witt_index(Qmin, usr=1)
    dmax = witt_index(Qmax, usr=1)
    assert len(top_level()) == 2
    assert dmin.complement.param is pmin and dmax.complement.param is pmax
    # a second module with Qmin's presentation is a hit, wrapped onto it
    again, _, _ = direct_sum_quadratic(hyperbolic(pmin, 1),
                                       C.degenerate_point(pmin))
    assert_same_decomposition(witt_index(again, usr=1), dmin)
    assert len(top_level()) == 2
    witt_index(Qmin, usr=None)
    witt_index(Qmin, usr=1, cap=1 << 10)
    assert len(top_level()) == 4
    assert sorted(map(repr, top_level())) == sorted(
        map(repr, [k for k in quadratic._WITT_MEMO if k[0] in tops]))


def test_memo_returns_the_callers_module_as_its_own_complement():
    # no hyperbolic pair: the complement is the caller's Q, not a stored one
    param = C.default_parameter("z4")
    first, second = C.degenerate_point(param), C.degenerate_point(param)
    assert witt_index(first).complement is first
    dec = witt_index(second)
    assert dec.g == 0 and dec.complement is second
    assert dec.complement_incl.domain is second.module


# -- the lambda-adjoint inverse ----------------------------------------------


@pytest.mark.parametrize("rname", ["gf2", "gf3", "z4", "z2c2"])
def test_adjoint_inverse_matches_module_inverse(rname):
    H = hyperbolic(C.default_parameter(rname), 2)
    _, gens = S.elementary_unitary_generators(H.ring, H.param, 2,
                                              u_mode="basis", H=H)
    rng = random.Random(rname)
    identity = identity_unitary(H).key()
    for _ in range(12):
        phi = identity_unitary(H)
        for t in rng.choices(gens, k=rng.randrange(1, 9)):
            phi = t.compose(phi)
        inv = adjoint_inverse(phi)
        assert inv.key() == phi.f.inverse().key()
        assert inv.compose(phi).key() == identity == phi.compose(inv).key()


# -- the cached EU-reach word ------------------------------------------------


def first_pair_target(H):
    ring = H.ring
    d = ring.base_dim
    one = ring.to_base[ring.one]
    return lambda V: (V[:, :d] == one).all(axis=1) & ~V[:, 2 * d:].any(axis=1)


@pytest.mark.parametrize("rname", ["gf2", "z4"])
def test_cached_reach_word_matches_fresh_search(rname):
    param = C.default_parameter(rname)
    H, fresh_H = hyperbolic(param, 2), hyperbolic(param, 2)
    budget = S.DEFAULT_BUDGET
    words = 0
    for z in movable(H):
        word = _eu_reach_first_pair(H, z, budget=budget)
        cached = _eu_reach_first_pair(H, z, budget=budget)
        fresh = S.eu_search(fresh_H, [fresh_H.module.from_vec(z.vec)],
                            first_pair_target(fresh_H), budget=budget)[0]
        keys = [t.key() for t in fresh]
        assert [t.key() for t in word] == [t.key() for t in cached] == keys
        assert (("reach", z.vec, budget) in H.eu_cache) == bool(fresh)
        words += bool(fresh)
    assert words


def test_failed_reach_is_not_cached():
    H = hyperbolic(C.default_parameter("gf2"), 2)
    z = H.module.element((0, 0, 1, 0))  # e_2: its reach needs a word
    with pytest.raises(BlockError):
        _eu_reach_first_pair(H, z, budget=1)
    assert ("reach", z.vec, 1) not in H.eu_cache
    assert _eu_reach_first_pair(H, z, budget=S.DEFAULT_BUDGET)


# -- the fallbacks of _dual_completion -----------------------------------------


def g_short(monkeypatch, short):
    """Wrap blocks.witt_index so that a decomposition comes back one pair
    short while short() says so."""
    real = blocks.witt_index

    def wrapped(Q, usr=None, cap=quadratic.GROUP_CAP):
        dec = real(Q, usr=usr, cap=cap)
        if dec.g and short():
            return WittDecomposition(Q, dec.pairs[:-1], dec.complement,
                                     dec.complement_incl)
        return dec

    monkeypatch.setattr(blocks, "witt_index", wrapped)


def spy_pull_back(monkeypatch):
    calls = []
    real = blocks._eu_reach_span

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(blocks, "_eu_reach_span", spy)
    return calls


def assert_envelope(H, zs, u_pairs, v_pairs):
    """The pairs are a hyperbolic basis (F verified unitary) and the z's lie
    in the span of the first k of them."""
    pairs = list(u_pairs) + list(v_pairs)
    assert len(u_pairs) == len(zs)
    imgs = [x for pair in pairs for x in pair]
    F = ModuleMap(H.module, H.module, imgs, check=False)
    UnitaryMap(H, F, check=True)
    V = np.array([x.vec for x in imgs], dtype=np.int64)
    d = H.ring.base_dim
    for z in zs:
        coords = pair_coordinates(H, V) @ np.array(z.vec) % H.ring.base_mod
        assert not coords[2 * len(zs) * d:].any()


def assert_straightened(Q, frame, seq, k, phi):
    """Both post-conditions of hyperbolic straightening."""
    out = [phi(v) for v in seq]
    for w in out:
        As, Bs = frame.hyperbolic_coords(w)
        assert not any(As[k:]) and not any(Bs[k:])
    proj = [frame.project_std(w) for w in out]
    assert is_lambda_unimodular(frame.H_std, proj) is not None


# (ring, g, degenerate summand, the z's as ring blocks of H^g)
FALLBACK_CASES = [
    ("gf2", 3, False, [(0, 0, 1, 0, 0, 1)]),
    ("gf2", 3, False, [(0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0)]),
    ("gf2", 2, True, [(0, 1, 1, 0)]),
    ("z4", 2, False, [(0, 2, 1, 0)]),
]
FALLBACK_IDS = ["gf2-H3-k1", "gf2-H3-k2", "gf2-H2+deg", "z4-H2"]


def straighten_case(rname, g, deg, blocks_):
    """Q, its frame, and a sequence of Q whose projections are the z's."""
    Q = instance(rname, g, deg)
    frame = frame_for(Q, usr=1)
    seq = [frame.embed_std(frame.H_std.module.element(b)) for b in blocks_]
    return Q, frame, seq


@pytest.mark.parametrize("run", ["completion", "straighten"])
@pytest.mark.parametrize("rname,g,deg,zs", FALLBACK_CASES, ids=FALLBACK_IDS)
def test_seeded_sweep(monkeypatch, rname, g, deg, zs, run):
    Q, frame, seq = straighten_case(rname, g, deg, zs)
    H = frame.H_std
    zs = [H.module.element(b) for b in zs]
    calls = iter(range(1 << 30))
    g_short(monkeypatch, lambda: next(calls) == 0)  # the first one only
    pulled = spy_pull_back(monkeypatch)
    if run == "completion":
        base = is_lambda_unimodular(H, zs)
        u_pairs, v_pairs = _dual_completion(H, zs, base, 1, 1 << 12)
        assert_envelope(H, zs, u_pairs, v_pairs)
    else:
        phi = hyperbolic_straighten(Q, seq, len(seq), frame=frame, usr=1)
        assert_straightened(Q, frame, seq, len(seq), phi)
    assert next(calls) > 2  # the sweep ran past the witnesses
    assert not pulled


@pytest.mark.parametrize("rname,g,deg,zs", FALLBACK_CASES, ids=FALLBACK_IDS)
def test_eu_pull_back(monkeypatch, rname, g, deg, zs):
    Q, frame, seq = straighten_case(rname, g, deg, zs)
    H = frame.H_std
    zs = [H.module.element(b) for b in zs]
    base = is_lambda_unimodular(H, zs)
    g_short(monkeypatch, lambda: True)
    pulled = spy_pull_back(monkeypatch)
    u_pairs, v_pairs = _dual_completion(H, zs, base, 1, 1 << 12)
    assert len(pulled) == 1
    assert_envelope(H, zs, u_pairs, v_pairs)
    phi = hyperbolic_straighten(Q, seq, len(seq), frame=frame, usr=1)
    assert len(pulled) == 2
    assert_straightened(Q, frame, seq, len(seq), phi)
