"""Stable rank, transitivity and unitary stable rank sweeps."""

import pytest

from wittlab import catalog as C
from wittlab.linalg import row_unimodular
from wittlab.rings import make_form_parameter, make_ring
from wittlab.stable_range import (
    check_Sn,
    check_Tn,
    elementary_unitary_generators,
    stable_rank,
    unitary_stable_rank,
)
from wittlab.quadratic import is_unitary

GF2 = make_ring({"kind": "gf", "q": 2})
GF3 = make_ring({"kind": "gf", "q": 3})
Z4 = make_ring({"kind": "zmod", "n": 4})
ZC2 = make_ring({"kind": "group_ring", "m": 2, "group": "C2"})

P2 = make_form_parameter(GF2, 1, ())


def test_row_unimodular_basics():
    assert row_unimodular(Z4, (1, 0, 0))
    assert row_unimodular(Z4, (2, 3))
    assert not row_unimodular(Z4, (2, 0))
    assert not row_unimodular(Z4, (2, 2))


def test_trivial_shortening_row():
    # any row (1, 0, ..., 0, r) shortens with t = 0
    rep = check_Sn(GF3, 1)
    assert rep.verdict == "holds"


def test_s1_holds_small_rings():
    for R in (GF2, GF3, Z4, ZC2):
        assert check_Sn(R, 1).verdict == "holds"


def test_stable_rank_semilocal_is_one():
    for R in (GF2, GF3, Z4, ZC2):
        assert stable_rank(R, 2).value == 1


def test_s_monotone_observed():
    # (S_1) => (S_2) observed on catalog rings (verified, not assumed)
    for R in (GF2, Z4):
        assert check_Sn(R, 2).verdict == "holds"


def test_eu_generators_are_unitary():
    H, gens = elementary_unitary_generators(GF2, P2, 2)
    assert gens
    for t in gens:
        assert is_unitary(H, t.f)
    # the example generator tau(e1, e2, 0) acts as in the transvection test
    (e1, f1), (e2, f2) = H.hyperbolic_pairs
    hit = [t for t in gens if t(f1) == f1 + e2 and t(f2) == f2 + e1]
    assert hit


def test_t2_gf2():
    rep = check_Tn(GF2, P2, 2)
    assert rep.verdict == "holds"
    assert rep.stats["classes"] == 2  # mu = 0 and mu = 1 classes


def test_t2_modes_agree_t1_flagged():
    # (T_2) verdicts coincide; (T_1) is the known mode-divergent case: the
    # transvection family on H^1 with Lambda = {0} is trivial while full
    # U(H^1) swaps e and f.  Reports carry the mode so divergence is visible.
    t2_trans = check_Tn(GF2, P2, 2, mode="transvection")
    t2_full = check_Tn(GF2, P2, 2, mode="full-u")
    assert t2_trans.verdict == t2_full.verdict == "holds"
    assert t2_trans.mode == "transvection" and t2_full.mode == "full-u"
    t1_trans = check_Tn(GF2, P2, 1, mode="transvection")
    t1_full = check_Tn(GF2, P2, 1, mode="full-u")
    assert t1_trans.verdict == "fails" and t1_full.verdict == "holds"


def test_usr_gf2():
    res = unitary_stable_rank(GF2, P2, 2)
    assert res.value is not None and res.value <= 2
    assert res.semi_local_ok
    sr = stable_rank(GF2, 2).value
    assert res.value >= sr


def test_usr_z4():
    p = make_form_parameter(Z4, 3, ())  # eps = -1, Lambda = {0,2}
    res = unitary_stable_rank(Z4, p, 2)
    assert res.value is not None and res.value <= 2


def test_orbit_order_independence():
    import random

    rep1 = check_Tn(GF2, P2, 2)
    # shuffle generator order: orbits as sets must not change the verdict
    H, gens = elementary_unitary_generators(GF2, P2, 2)
    random.Random(5).shuffle(gens)
    from wittlab.stable_range import _mu_class_partition

    classes = _mu_class_partition(H, 1 << 22)
    elems = list(H.module.elements())  # element codes index the enumeration
    for rep_mu, codes in classes.items():
        members = [elems[c] for c in codes.tolist()]
        seed = members[0]
        seen = {seed.vec}
        frontier = [seed]
        while frontier:
            nxt = []
            for x in frontier:
                for t in gens:
                    y = t(x)
                    if y.vec not in seen:
                        seen.add(y.vec)
                        nxt.append(y)
            frontier = nxt
        assert seen == {x.vec for x in members}
    assert rep1.verdict == "holds"


@pytest.mark.parametrize("rname", C.ring_names())
def test_mu_partition_memo_matches_per_element(rname):
    # the partition tests each set of entries once; the oracle tests every
    # element of H^1 and H^2
    from wittlab.quadratic import hyperbolic
    from wittlab.stable_range import _mu_class_partition

    ring = C.catalog_ring(rname)
    param = C.catalog_parameters(rname)[0][1]
    for n in (1, 2):
        H = hyperbolic(param, n)
        want = {}
        for x in H.module.elements(cap=H.module.size):
            if not x.is_zero() and row_unimodular(ring, x.ring_blocks()):
                want.setdefault(H.mu_rep(x), []).append(x)
        elems = list(H.module.elements(cap=H.module.size))
        got = _mu_class_partition(H, 1 << 22)
        assert {k: [elems[c] for c in v.tolist()] for k, v in got.items()} \
            == want
