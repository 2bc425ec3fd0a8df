"""The Witt search pinned by digest: every catalog quadratic up to H^3, a
seeded set of random free quadratic modules and a seeded set of random free
forms plus a presented singular summand, each at usr None, 1 and 2.  The
first two digests were taken with the greedy descent, bottom-up
backtracking and extraction, the third with the search that branched on
every partner of every isotropic x; each covers the pairs, the
complement's relators, gram and mu, and the inclusion matrix."""

import hashlib
import random

from wittlab import catalog as C
from wittlab.modules import cyclic_module, free_module
from wittlab.quadratic import (
    _hyperbolic_pair_candidates,
    _partners,
    _presentation,
    _witt_search,
    direct_sum_quadratic,
    make_quadratic,
    orthogonal_complement,
    witt_index,
)

CAP = 4096
USRS = (None, 1, 2)
RANDOM_CASES = 50
RANDOM_SIZE = 64
PRESENTED_CASES = 40


def catalog_cases():
    for rname in C.ring_names():
        for name, build in C.catalog_quadratics(rname, size_cap=CAP):
            if not name.endswith(("H^4", "H^5")):
                yield name, build()


def random_free_quadratic(rng, rnames=None):
    """A free module of at most RANDOM_SIZE elements with a random form: a
    random upper triangle and mu, the rest forced by axioms (1) and (3)."""
    rname = rng.choice([r for r in rnames or C.ring_names()
                        if C.catalog_ring(r).size ** 2 <= RANDOM_SIZE])
    ring = C.catalog_ring(rname)
    n = 1
    while ring.size ** (n + 1) <= RANDOM_SIZE:
        n += 1
    n = rng.randint(1, n)
    pname, param = rng.choice(C.catalog_parameters(rname))
    eps = param.epsilon
    mu = [rng.randrange(ring.size) for _ in range(n)]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = int(ring.add[mu[i], ring.mul[eps, ring.conj[mu[i]]]])
        for j in range(i + 1, n):
            gram[i][j] = rng.randrange(ring.size)
            gram[j][i] = int(ring.mul[eps, ring.conj[gram[i][j]]])
    return "%s^%d" % (pname, n), make_quadratic(free_module(ring, n), gram,
                                                mu, param)


def random_cases():
    rng = random.Random(1612)
    for _ in range(RANDOM_CASES):
        yield random_free_quadratic(rng)


def nonunits(ring):
    return [a for a in range(1, ring.size) if a not in ring.units]


def random_presented_sum(rng):
    """A random free form plus a singular cyclic summand: R/(a) with the
    zero form, or over Z/4 at eps = 1 also Z/4/(2) with gram [[2]] and
    mu [1]."""
    name, F = random_free_quadratic(rng, [
        r for r in C.ring_names() if nonunits(C.catalog_ring(r))])
    param = F.param
    ring = param.ring
    if ring.name == "z4" and param.epsilon == 1 and rng.random() < 0.5:
        a, gram, mu = 2, [[2]], [1]
    else:
        a, gram, mu = rng.choice(nonunits(ring)), [[ring.zero]], [ring.zero]
    P = make_quadratic(cyclic_module(ring, a), gram, mu, param)
    Q, _, _ = direct_sum_quadratic(F, P)
    return "%s+R/(%d):%s" % (name, a, mu), Q


def presented_cases():
    rng = random.Random(1813)
    for _ in range(PRESENTED_CASES):
        yield random_presented_sum(rng)


def search_record(name, Q, usr):
    dec = _witt_search(Q, usr, CAP)
    P = dec.complement
    return (name, usr, [(x.vec, y.vec) for x, y in dec.pairs],
            P.module.relators, P.gram, P.mu, dec.complement_incl.B.tolist())


def digest(cases):
    h = hashlib.sha256()
    count = 0
    for name, Q in cases:
        for usr in USRS:
            h.update(repr(search_record(name, Q, usr)).encode())
            count += 1
    return count, h.hexdigest()


def test_catalog_decompositions_match_pinned_digest():
    assert digest(catalog_cases()) == (
        300, "b7f163f6966897b2869ef3326a61c3947998c8e550466723ce089b5808ac0d2c")


def test_random_decompositions_match_pinned_digest():
    assert digest(random_cases()) == (
        150, "9625d61732a4961a70851db07112c23a46742ecd1c38ff9698d9e0d75fcc07fa")


def test_presented_sum_decompositions_match_pinned_digest():
    assert digest(presented_cases()) == (
        120, "aacde6e3a9dfdb8617f9e48caa2b77bddfeed77dee99d6853d25f064b8673a83")


def test_every_partner_of_x_leaves_a_complement_of_one_witt_index():
    """The lemma behind one branch per x: the stabilizer of x is transitive
    on its partners, so their complements share a Witt index."""
    rng = random.Random(18)
    cases = [c for c in list(random_cases()) + list(presented_cases())
             if c[1].size <= 64]
    distinct = 0
    for name, Q in cases:
        xs = _hyperbolic_pair_candidates(Q, CAP)
        for x in rng.sample(xs, min(6, len(xs))):
            comps = [orthogonal_complement(Q, [x, y])[0]
                     for y in _partners(Q, x, CAP)]
            assert len({witt_index(P, usr=None).g for P in comps}) <= 1, name
            distinct += len({_presentation(P) for P in comps}) > 1
    assert distinct >= 10, distinct
