"""The ring-matrix builders of linalg and the functionals' coordinate
matrices, each against a route that does not use them: per-entry loops
over the ring tables, a plain-Python product, the scalar __call__ of a
functional and the scalar act_vec."""

import itertools
import random

import numpy as np
import pytest

from wittlab import catalog as C
from wittlab.blocks import AntiFunctional
from wittlab.linalg import (
    LinearSolver,
    ring_left_inverse,
    ring_left_rows,
    ring_matmul,
)
from wittlab.modules import (
    Functional,
    Module,
    _partial_consistent,
    act_columns,
    all_functionals,
    cyclic_module,
    direct_sum_modules,
    free_module,
    functional_space,
)
from wittlab.rings import make_ring

# every catalog ring has symmetric right-multiplication matrices Rmat[b_t];
# these three do not (and GF(2)[S3] is not commutative), so only they
# catch a transposed index
EXTRA_RINGS = [
    ("gf9", {"kind": "gf", "q": 9}),
    ("gf2[C3]", {"kind": "group_ring", "m": 2, "group": "C3"}),
    ("gf2[S3]", {"kind": "group_ring", "m": 2, "group": "S3"}),
]
RINGS = [(name, C.catalog_ring(name)) for name in C.ring_names()]
RINGS += [(name, make_ring(spec)) for name, spec in EXTRA_RINGS]
IDS = [name for name, _ in RINGS]


def loop_rows(ring, C_):
    """Row (l, t): the coordinates of b_t * C[l][j] for every j."""
    rows = []
    for crow in C_:
        for t in ring.basis:
            row = []
            for c in crow:
                row.extend(int(v) for v in ring.to_base[ring.mul[t, c]])
            rows.append(row)
    return rows


def plain_product(ring, A, B):
    out = [[ring.zero] * len(B[0]) for _ in A]
    for i, row in enumerate(A):
        for j in range(len(B[0])):
            for a, brow in zip(row, B):
                out[i][j] = int(ring.add[out[i][j], ring.mul[a, brow[j]]])
    return out


def identity(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


def random_matrix(rng, ring, n, k):
    return [[rng.randrange(ring.size) for _ in range(k)] for _ in range(n)]


def modules_over(name, ring):
    """A free module and the presented modules R/(a) and R + R/(a) for the
    first non-unit a."""
    out = [free_module(ring, 1 if ring.size > 16 else 2)]
    a = next((x for x in range(1, ring.size) if x not in ring.units),
             ring.zero)
    out.append(cyclic_module(ring, a))
    out.append(direct_sum_modules(free_module(ring, 1),
                                  cyclic_module(ring, a))[0])
    return out


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_ring_left_rows_matches_loop(name, ring):
    rng = random.Random(name)
    d = ring.base_dim
    for n, k in ((1, 1), (2, 1), (1, 3), (3, 2), (2, 2)):
        for _ in range(5):
            C_ = random_matrix(rng, ring, n, k)
            R = ring_left_rows(ring, C_)
            assert R.dtype == np.int64 and R.shape == (n * d, k * d)
            assert R.tolist() == loop_rows(ring, C_)


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_ring_matmul_matches_plain_product(name, ring):
    rng = random.Random("matmul" + name)
    for n, l, k in ((1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 2), (2, 1, 3)):
        for _ in range(5):
            A = random_matrix(rng, ring, n, l)
            B = random_matrix(rng, ring, l, k)
            got = ring_matmul(ring, A, B)
            assert got == plain_product(ring, A, B)
            assert all(type(v) is int for row in got for v in row)
        assert ring_matmul(ring, identity(ring, n), A) == A
    assert ring_matmul(ring, [], [[ring.one]]) == []


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_ring_left_inverse(name, ring):
    rng = random.Random("inverse" + name)
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        for _ in range(6):
            # a product of elementary row operations and unit scalings,
            # cut to its first k columns, has a left inverse
            G = identity(ring, n)
            for _ in range(4):
                E = identity(ring, n)
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    E[i][j] = rng.randrange(ring.size)
                else:
                    E[i][i] = rng.choice(sorted(ring.units))
                G = plain_product(ring, E, G)
            for C_, exists in (([row[:k] for row in G], True),
                               (random_matrix(rng, ring, n, k), False)):
                got = ring_left_inverse(ring, C_)
                if got is None:
                    assert not exists
                    continue
                L, tails = got
                assert plain_product(ring, L, C_) == identity(ring, k)
                assert tails == [[]] * k


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_functional_matrices_match_scalar_call(name, ring):
    rng = random.Random("functional" + name)
    m = ring.base_mod
    for M in modules_over(name, ring):
        units = np.eye(M.nd, dtype=np.int64).tolist()
        vecs = units + [[rng.randrange(m) for _ in range(M.nd)]
                        for _ in range(10)]
        funcs = []
        while len(funcs) < 8:
            values = [rng.randrange(ring.size) for _ in range(M.ngens)]
            # keep the values that kill every relator (scalar check)
            if all(plain_product(ring, [values], [[c] for c in rho])[0][0]
                   == ring.zero for rho in M.relators):
                funcs.append(Functional(M, values))
            try:
                funcs.append(AntiFunctional(M, values))
            except ValueError:
                pass
        for f in funcs:
            F = f.matrix
            assert F.dtype == np.int64 and F.shape == (ring.base_dim, M.nd)
            for v in vecs:
                got = (F @ np.array(v, dtype=np.int64)) % m
                assert got.tolist() == ring.to_base[f(M.from_vec(v))].tolist()


def test_evaluation_systems_of_edge_modules():
    # no generators: one functional, the empty one; generators but no
    # relators: every value tuple is a functional
    ring = C.catalog_ring("z4")
    space = functional_space(Module(ring, 0, ()))
    assert (space.module_size, space.width) == (1, 0)
    assert [f.values for f in all_functionals(Module(ring, 0, ()))] == [()]
    assert functional_space(free_module(ring, 2)).module_size == ring.size ** 2
    assert functional_space(cyclic_module(ring, 2)).module_size == 2


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_relator_and_span_rows_match_act_vec(name, ring):
    rng = random.Random("span" + name)
    m = ring.base_mod
    for M in modules_over(name, ring):
        # the relation module of Module.__init__ against raw rho * b_t rows
        raw = [[x for c in rho for x in ring.to_base[ring.mul[c, t]].tolist()]
               for rho in M.relators for t in ring.basis]
        assert M.rel.H == LinearSolver(raw, m, width=M.nd).H
        for _ in range(10):
            v = M.from_vec([rng.randrange(m) for _ in range(M.nd)])
            rows = M.canon_columns(act_columns(ring, [v.vec])).T.tolist()
            assert rows == [list(M.act_vec(v.vec, t)) for t in ring.basis]


def partial_consistent_loop(M, N, assigned, rel_cols):
    """_partial_consistent with its rows built from act_vec on unit
    vectors."""
    m = M.ring.base_mod
    j = len(assigned)
    rest = M.ngens - j
    width = N.nd * len(rel_cols)
    target = []
    for col in rel_cols:
        acc = N.zero()
        for i in range(j):
            acc = acc + assigned[i] * col[i]
        target.extend((-a) % m for a in acc.vec)
    if rest == 0:
        return not any(N.canon(target[k * N.nd:(k + 1) * N.nd]) != (0,) * N.nd
                       for k in range(len(rel_cols)))
    rows = []
    for i in range(rest):
        for s in range(N.nd):
            unit = [0] * N.nd
            unit[s] = 1
            row = []
            for col in rel_cols:
                row.extend(N.act_vec(unit, col[j + i]))
            rows.append(row)
    for k in range(len(rel_cols)):
        for hr in N.rel.H:
            row = [0] * width
            row[k * N.nd:(k + 1) * N.nd] = list(hr)
            rows.append(row)
    return LinearSolver(rows, m, width=width).contains(target)


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_partial_consistent_rows_match_act_vec(name, ring):
    rng = random.Random("partial" + name)
    a = next((x for x in range(1, ring.size) if x not in ring.units),
             ring.zero)
    # two generators and two relators, so unassigned generators get rows
    M = Module(ring, 2, ((a, ring.one), (rng.randrange(ring.size), a)))
    verdicts = set()
    for N in modules_over(name, ring):
        elems = [N.from_vec([rng.randrange(ring.base_mod)
                             for _ in range(N.nd)]) for _ in range(6)]
        for j in (0, 1, 2):
            for assigned in itertools.islice(
                    itertools.product(elems, repeat=j), 12):
                got = _partial_consistent(M, N, list(assigned),
                                          list(M.relators))
                assert got == partial_consistent_loop(
                    M, N, list(assigned), list(M.relators))
                verdicts.add(got)
    assert verdicts == {True, False}


def test_module_rows_match_coefficient_sums():
    rng = random.Random(5)
    for m, width in ((2, 4), (4, 3), (8, 2), (9, 3)):
        for _ in range(5):
            rows = [[rng.randrange(m) for _ in range(width)]
                    for _ in range(rng.randrange(4))]
            sol = LinearSolver(rows, m, width=width)
            want = []
            ranges = [range(m // sol.H[i][j]) for i, j in
                      enumerate(sol.pivots)]
            for coeffs in itertools.product(*ranges):
                v = [0] * width
                for c, row in zip(coeffs, sol.H):
                    v = [(x + c * y) % m for x, y in zip(v, row)]
                want.append(tuple(v))
            assert sol.module_rows().tolist() == [list(v) for v in want]
            assert list(sol.enumerate_module()) == want
            assert len(want) == sol.module_size
