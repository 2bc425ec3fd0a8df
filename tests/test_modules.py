"""Presented modules: canonicalization, unimodularity, rank, splittings."""

import itertools
import random

import numpy as np
import pytest

from wittlab.modules import (
    Module,
    cyclic_module,
    direct_sum_modules,
    free_module,
    is_isomorphic,
    is_unimodular,
    is_unimodular_bruteforce,
    rank,
    split_summand,
    submodule,
    ModuleMap,
)
from wittlab.quadratic import make_quadratic, unitary_group
from wittlab.rings import make_form_parameter, make_ring
from wittlab.stable_range import gl_transitive_check

Z4 = make_ring({"kind": "zmod", "n": 4})
GF2 = make_ring({"kind": "gf", "q": 2})
GF3 = make_ring({"kind": "gf", "q": 3})
Z8 = make_ring({"kind": "zmod", "n": 8})
Z2C2 = make_ring({"kind": "group_ring", "m": 2, "group": "C2", "w1": [1, 1]})
Z2S3 = make_ring({"kind": "group_ring", "m": 2, "group": "S3", "w1": [1] * 6})


@pytest.mark.parametrize("M", [
    free_module(Z4, 2), cyclic_module(Z4, 2), cyclic_module(Z8, 4),
    direct_sum_modules(free_module(Z2C2, 1), cyclic_module(Z2C2, 3))[0],
    Module(GF3, 3, [(1, 2, 0)]),
    Module(Z4, 2, ((2, 0), (0, 2))), cyclic_module(Z4, 1), free_module(Z4, 0),
], ids=["z4^2", "z4/2", "z8/4", "z2c2+cyclic", "gf3^3/rel", "z4^2/2",
        "z4/1", "zero"])
def test_element_at_is_the_enumeration_order(M):
    assert [M.element_at(i) for i in range(M.size)] == list(M.elements())
    # element_index inverts element_at, on the canonical rows and on rows
    # shifted by elements of the relation module
    X = M.element_rows()[1]
    everything = np.arange(M.size)
    assert (M.element_index(X) == everything).all()
    rel = M.rel.module_rows()
    shifted = X + rel[everything % len(rel)]
    assert (M.element_index(shifted[None]) == everything[None]).all()


def test_module_sizes():
    assert free_module(Z4, 2).size == 16
    assert cyclic_module(Z4, 2).size == 2
    M, _, _ = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))
    assert M.size == 8


def test_canonicalization_is_idempotent_and_additive():
    M = Module(Z4, 2, ((2, 0), (0, 2)))
    assert M.size == 4
    rng = random.Random(0)
    for _ in range(40):
        v = [rng.randrange(4) for _ in range(2)]
        w = [rng.randrange(4) for _ in range(2)]
        cv = M.canon(v)
        assert M.canon(list(cv)) == cv
        assert M.add_vec(cv, M.canon(w)) == M.canon([a + b for a, b in zip(v, w)])


@pytest.mark.parametrize("ring", [Z4, Z8, Z2C2], ids=lambda R: R.name)
def test_canon_columns_matches_per_column_canon(ring):
    rng = random.Random(ring.name)
    for _ in range(30):
        n = rng.randint(1, 3)
        rels = [[rng.randrange(ring.size) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        M = Module(ring, n, rels)
        A = np.array([[rng.randrange(-9, 9) for _ in range(20)]
                      for _ in range(M.nd)], dtype=np.int64)
        want = [M.canon(col) for col in A.T.tolist()]
        assert M.canon_columns(A).T.tolist() == [list(v) for v in want]


def test_right_action_respects_relations():
    M = cyclic_module(Z4, 2)  # Z/2 as Z/4-module
    x = M.gen(0)
    assert (x * 2).is_zero()
    assert x * 3 == x


def test_solve_linear_spec_examples():
    # over Z/4: A = (2), b = (1) unsolvable; b = (2) -> solution 1, kernel (2)
    from wittlab.linalg import LinearSolver

    solver = LinearSolver([[2]], 4)
    assert solver.solve([1]) is None
    x = solver.solve([2])
    assert x is not None and (x[0] * 2) % 4 == 2
    kernel = LinearSolver(solver.kernel_rows(), 4, width=1)
    assert kernel.module_size == 2 and kernel.contains([2])


def test_unimodular_free_basis_vector():
    M = free_module(Z4, 2)
    w = is_unimodular(M, [M.gen(0)])
    assert w is not None
    assert w[0](M.gen(0)) == Z4.one


def test_unimodular_torsion_vector_fails():
    M = cyclic_module(Z4, 0)  # Z/4 over Z/4 (free of rank 1)
    two = M.element((2,))
    assert is_unimodular(M, [two]) is None


def test_unimodular_mixed_module():
    M, ia, ib = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))
    x = M.element((1, 0))
    assert is_unimodular(M, [x]) is not None
    assert is_unimodular_bruteforce(M, [x])
    y = M.element((2, 1))
    assert (is_unimodular(M, [y]) is not None) == is_unimodular_bruteforce(M, [y])


def test_unimodular_agrees_with_bruteforce_exhaustive():
    mods = [
        free_module(GF2, 2),
        free_module(Z4, 1),
        Module(Z4, 2, ((2, 0),)),
        Module(GF2, 3, ((1, 1, 0),)),
    ]
    for M in mods:
        elems = list(M.elements())
        for x in elems:
            got = is_unimodular(M, [x]) is not None
            want = is_unimodular_bruteforce(M, [x])
            assert got == want, (M, x)
        for x, y in itertools.product(elems, elems):
            if x == y:
                continue
            got = is_unimodular(M, [x, y]) is not None
            want = is_unimodular_bruteforce(M, [x, y])
            assert got == want, (M, x, y)


def test_unimodular_witnesses_are_kronecker():
    M = free_module(Z4, 3)
    seq = [M.element((1, 2, 0)), M.element((0, 1, 1))]
    ws = is_unimodular(M, seq)
    assert ws is not None
    for j, phi in enumerate(ws):
        for i, v in enumerate(seq):
            assert phi(v) == (Z4.one if i == j else Z4.zero)


def test_rank_examples():
    assert rank(free_module(Z4, 3)) == 3
    assert rank(cyclic_module(Z4, 2)) == 0
    M, _, _ = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))
    assert rank(M) == 1
    assert rank(free_module(GF2, 4)) == 4


def test_rank_plus_free_summand():
    for M in [cyclic_module(Z4, 2), free_module(Z4, 1)]:
        S, _, _ = direct_sum_modules(M, free_module(Z4, 1))
        assert rank(S) == rank(M) + 1


def test_split_summand_free():
    M = free_module(Z4, 2)
    K, incl, duals = split_summand(M, [M.gen(0)])
    assert K.size == 4
    assert is_isomorphic(K, free_module(Z4, 1)) is not None
    K2, _, _ = split_summand(M, [M.gen(0), M.gen(1)])
    assert K2.size == 1


def test_split_summand_mixed():
    P, _, _ = direct_sum_modules(free_module(Z4, 2), cyclic_module(Z4, 2))
    K, incl, duals = split_summand(P, [P.element((1, 0, 0))])
    target, _, _ = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))
    assert K.size == target.size
    assert is_isomorphic(K, target) is not None


def test_split_then_reassemble():
    M = free_module(GF2, 3)
    x = M.element((1, 1, 0))
    K, incl, duals = split_summand(M, [x])
    S, _, _ = direct_sum_modules(free_module(GF2, 1), K)
    assert is_isomorphic(S, M) is not None


def test_is_isomorphic_negative():
    A = cyclic_module(Z4, 0)  # Z/4
    B, _, _ = direct_sum_modules(cyclic_module(Z4, 2), cyclic_module(Z4, 2))
    assert A.size == B.size == 4
    assert is_isomorphic(A, B) is None


def test_is_isomorphic_representations():
    # same module, redundant presentation
    A, _, _ = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))
    B = Module(Z4, 3, ((0, 2, 0), (0, 0, 1)))
    assert is_isomorphic(A, B) is not None
    f = is_isomorphic(B, A)
    assert f is not None and f.is_bijective()


def test_module_map_well_definedness():
    A = cyclic_module(Z4, 2)
    B = free_module(Z4, 1)
    with pytest.raises(Exception):
        ModuleMap(A, B, [B.gen(0)])  # g*2 = 0 must map to 0, but 2*e != 0
    f = ModuleMap(A, B, [B.element((2,))])  # 2*2 = 0: fine
    assert f(A.gen(0)) == B.element((2,))


def test_inverse_map():
    M = free_module(Z4, 2)
    f = ModuleMap(M, M, [M.element((1, 1)), M.element((0, 1))], check=False)
    g = f.inverse()
    for x in [M.element((1, 2)), M.element((3, 3))]:
        assert g(f(x)) == x


def test_submodule_presentation():
    M = free_module(Z4, 2)
    K, incl = submodule(M, [M.element((2, 0))])
    assert K.size == 2
    assert incl(K.gen(0)) == M.element((2, 0))


def test_gl_transitivity_gf2_squared():
    rep = gl_transitive_check(free_module(GF2, 2), sr=1)
    assert rep["applicable"] and rep["single_orbit"]
    assert rep["unimodular_count"] == 3


def test_gl_transitivity_z4_squared():
    rep = gl_transitive_check(free_module(Z4, 2), sr=1)
    assert rep["single_orbit"]


def test_gl1_orbit_units():
    M = free_module(Z4, 1)
    rep = gl_transitive_check(M, sr=1)
    # GL_1 = units acting by multiplication: unimodular elements are the units
    assert rep["unimodular_count"] == 2
    assert rep["single_orbit"]


def _plus(A, B):
    return direct_sum_modules(A, B)[0]


# (module, rank, unimodular count, orbit sizes) as the union-find engine over
# ModuleMap objects reported them; every one has sr = 1
GL_PINNED = {
    "gf2^1": (lambda: free_module(GF2, 1), 1, 1, [1]),
    "gf2^2": (lambda: free_module(GF2, 2), 2, 3, [3]),
    "gf2^3": (lambda: free_module(GF2, 3), 3, 7, [7]),
    "gf2^4": (lambda: free_module(GF2, 4), 4, 15, [15]),
    "z4^1": (lambda: free_module(Z4, 1), 1, 2, [2]),
    "z4^2": (lambda: free_module(Z4, 2), 2, 12, [12]),
    "z4^3": (lambda: free_module(Z4, 3), 3, 56, [56]),
    "gf3^3": (lambda: free_module(GF3, 3), 3, 26, [26]),
    "z2c2^2": (lambda: free_module(Z2C2, 2), 2, 12, [12]),
    "z4^2+z4/2": (lambda: _plus(free_module(Z4, 2), cyclic_module(Z4, 2)),
                  2, 24, [24]),
    "z4+z4/2": (lambda: _plus(free_module(Z4, 1), cyclic_module(Z4, 2)),
                1, 4, [4]),
    "z4/2+z4/2": (lambda: _plus(cyclic_module(Z4, 2), cyclic_module(Z4, 2)),
                  0, 0, None),
    "z8+z8/4": (lambda: _plus(free_module(Z8, 1), cyclic_module(Z8, 4)),
                1, 16, [16]),
}


@pytest.mark.parametrize("case", GL_PINNED)
def test_gl_transitivity_pinned_reports(case):
    build, rk, count, sizes = GL_PINNED[case]
    M = build()
    want = {"module": M.name, "rank": rk, "sr": 1, "applicable": rk >= 2,
            "unimodular_count": count, "orbits": len(sizes or []),
            "single_orbit": True}
    if sizes is not None:
        want["class_sizes"] = sizes
    assert gl_transitive_check(M) == want


def _automorphism_orbits(M):
    """The orbits of every automorphism of M (the unitary group of the zero
    form) on the unimodular elements found by the brute-force oracle."""
    param = make_form_parameter(M.ring, M.ring.one)
    Q = make_quadratic(M, [[M.ring.zero] * M.ngens] * M.ngens,
                       [M.ring.zero] * M.ngens, param)
    group = unitary_group(Q)
    left = {x for x in M.elements() if is_unimodular_bruteforce(M, [x])}
    orbits = []
    while left:
        orbit = {f(next(iter(left))) for f in group}
        orbits.append(len(orbit))
        left -= orbit
    return len(group), sorted(orbits)


GL_ORACLE = {
    "gf2^3": (lambda: free_module(GF2, 3), 168),
    "z4^2": (lambda: free_module(Z4, 2), 96),
    "z2c2^2": (lambda: free_module(Z2C2, 2), 96),
    "gf3^2": (lambda: free_module(GF3, 2), 48),
    "z4+z4/2": (lambda: _plus(free_module(Z4, 1), cyclic_module(Z4, 2)), 8),
    # the central units split the 12 units into six orbits of two, which
    # only the complement isomorphisms fuse
    "z2s3^1": (lambda: free_module(Z2S3, 1), 12),
}


@pytest.mark.parametrize("case", GL_ORACLE)
def test_gl_orbits_match_automorphism_group(case):
    build, group_size = GL_ORACLE[case]
    M = build()
    size, orbits = _automorphism_orbits(M)
    assert size == group_size
    rep = gl_transitive_check(M, sr=1)
    assert rep["unimodular_count"] == sum(orbits)
    assert rep["orbits"] == len(orbits)
    assert rep["class_sizes"] == orbits


def test_stabilization_depth_independence():
    # unimodularity of sequences inside M is independent of the number of
    # appended free summands (spot check for the finite stabilization)
    M, _, _ = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))
    seqs = [[M.element((1, 0))], [M.element((2, 1))], [M.element((0, 1))],
            [M.element((1, 0)), M.element((2, 1))]]
    base = [is_unimodular(M, s) is not None for s in seqs]
    stab = M
    embeds = [lambda x: x]
    for depth in (1, 2):
        prev = stab
        stab, inj_old, inj_new = direct_sum_modules(prev, free_module(Z4, 1))
        embeds = [(lambda f=f, inj=inj_old: (lambda x: inj(f(x))))()
                  for f in embeds]
        emb = embeds[0]
        got = [is_unimodular(stab, [emb(x) for x in s]) is not None
               for s in seqs]
        assert got == base, "stabilization depth %d changed verdicts" % depth
