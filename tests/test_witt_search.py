"""The Witt search pinned by digest: every catalog quadratic up to H^3 and a
seeded set of random free quadratic modules, each at usr None, 1 and 2.
The digest was taken with the search this one replaced (greedy descent,
bottom-up backtracking, extraction) and covers the pairs, the complement's
relators, gram and mu, and the inclusion matrix."""

import hashlib
import random

from wittlab import catalog as C
from wittlab.modules import free_module
from wittlab.quadratic import _witt_search, make_quadratic

CAP = 4096
USRS = (None, 1, 2)
RANDOM_CASES = 50
RANDOM_SIZE = 64


def catalog_cases():
    for rname in C.ring_names():
        for name, build in C.catalog_quadratics(rname, size_cap=CAP):
            if not name.endswith(("H^4", "H^5")):
                yield name, build()


def random_free_quadratic(rng):
    """A free module of at most RANDOM_SIZE elements with a random form: a
    random upper triangle and mu, the rest forced by axioms (1) and (3)."""
    rname = rng.choice([r for r in C.ring_names()
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
