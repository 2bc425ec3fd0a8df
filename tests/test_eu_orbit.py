"""The EU-orbit engine against plain-Python oracles.

The engine (stable_range: cached generators, their digit-group image
tables, a frontier-only level-synchronous numpy BFS) must give the images
the maps give, reach exactly the orbits and tuple walks an
element-by-element BFS reaches, give the same results with a visited byte
map as with sorted codes, give the (T_n) verdicts the full-U route gives,
and emit words that replay externally.
"""

import functools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wittlab

from wittlab import catalog as C
from wittlab import stable_range as S
from wittlab.blocks import BlockError, _eu_reach_first_pair, transitive_move
from wittlab.modules import (ModuleMap, cyclic_module, direct_sum_modules,
                             free_module)
from wittlab.quadratic import (
    direct_sum_quadratic,
    hyperbolic,
    identity_unitary,
    is_lambda_unimodular,
    make_quadratic,
    replay_word,
    unitary_group,
    unitary_word,
)
from wittlab.rings import make_form_parameter, make_ring

GF2 = make_ring({"kind": "gf", "q": 2})
P2 = make_form_parameter(GF2, 1, ())
Z4 = make_ring({"kind": "zmod", "n": 4})
P4 = make_form_parameter(Z4, 3, ())


def reference_orbit(H, gens, seed):
    """Element-by-element BFS on coordinate tuples; each generator's images
    of all elements come from one product with its matrix, mod m."""
    m = H.ring.base_mod
    elems = [x.vec for x in H.module.elements(cap=H.module.size)]
    V = np.array(elems, dtype=np.int64)
    index = {vec: i for i, vec in enumerate(elems)}
    perms = [[index[tuple(row)] for row in (V @ t.f.B.T % m).tolist()]
             for t in gens]
    seen = {index[seed.vec]}
    frontier = list(seen)
    while frontier:
        nxt = []
        for i in frontier:
            for perm in perms:
                j = perm[i]
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return {elems[i] for i in seen}


def reference_walk(H, gens, xs, target):
    """The engine's tuple walk in plain Python: a level-synchronous BFS over
    k-tuples, each level expanded in chunks of 1, 2, 4, ... states up to
    the engine's cap, stopping after the first chunk with a fresh image on
    target and then at the level's first state on target.  Returns (path,
    sorted reached state codes, visits)."""
    m, nd, k = H.ring.base_mod, H.module.nd, len(xs)
    mats = [t.f.B.tolist() for t in gens]

    def image(B, vec):
        return tuple(sum(a * x for a, x in zip(row, vec)) % m for row in B)

    def code(state):
        return functools.reduce(lambda c, x: c * m + x, sum(state, ()), 0)

    def on_target(state):
        return bool(target(np.array(state, dtype=np.int64)).all())

    cap = max(1, S.CHUNK // (len(gens) * k * nd))
    start = tuple(x.vec for x in xs)
    seen, parent = {start}, {start: None}
    frontier, visits, hit = [start], 0, None
    while frontier and hit is None:
        level, lo, step = [], 0, 1
        while lo < len(frontier):
            chunk_hit = False
            for state in frontier[lo:lo + step]:
                visits += len(mats)
                for g, B in enumerate(mats):
                    img = tuple(image(B, vec) for vec in state)
                    if img not in seen:
                        seen.add(img)
                        parent[img] = (state, g)
                        level.append(img)
                        chunk_hit = chunk_hit or on_target(img)
            if chunk_hit:
                break
            lo, step = lo + step, min(2 * step, cap)
        frontier = level
        hit = next((st for st in level if on_target(st)), None)
    path = []
    while hit is not None and parent[hit] is not None:
        hit, g = parent[hit]
        path.append(g)
    return (path[::-1] if frontier else None,
            sorted(code(st) for st in seen), visits)


def _zero_form_automorphisms(M):
    param = make_form_parameter(M.ring, M.ring.one)
    Q = make_quadratic(M, [[M.ring.zero] * M.ngens] * M.ngens,
                       [M.ring.zero] * M.ngens, param)
    return [t.f for t in unitary_group(Q)]


def _one_group():
    Q = hyperbolic(P4, 1)
    return Q.module, [t.f for t in unitary_group(Q)], np.arange(16)


def _two_groups():
    ring = C.catalog_ring("z3c2")
    H, gens = S.elementary_unitary_generators(
        ring, C.catalog_parameters("z3c2")[0][1], 2, u_mode="basis")
    return H.module, [t.f for t in gens], np.arange(H.module.size)


def _presented():
    M = direct_sum_modules(free_module(Z4, 1), cyclic_module(Z4, 2))[0]
    return M, _zero_form_automorphisms(M), S._codes(
        [x.vec for x in M.elements()], 4)


def _two_words():
    # z3c2^8: 16 fields of 4 bits, past one 63-bit word
    M = free_module(C.catalog_ring("z3c2"), 8)
    rng = np.random.default_rng(5)
    maps = [ModuleMap.from_matrix(M, M, B, check=False)
            for B in rng.integers(0, 3, (6, M.nd, M.nd))]
    return M, maps, rng.integers(0, M.size, 500)


@pytest.mark.parametrize("case", [_one_group, _two_groups, _presented,
                                  _two_words])
def test_image_tables_match_maps(case):
    M, maps, codes = case()
    m = M.ring.base_mod
    tables = S._gen_permutations(M, [f.B.T for f in maps])
    imgs = tables.images(codes)
    assert imgs.shape == (len(codes), len(maps))
    for c, row in zip(codes.tolist(), imgs.tolist()):
        x = M.from_vec(S._digits([c], m, M.nd)[0].tolist())
        assert row == S._codes([f(x).vec for f in maps], m).tolist()


def test_element_codes_index_the_enumeration():
    Q = hyperbolic(P4, 2)
    assert S.element_codes(Q, [x.vec for x in Q.module.elements()]).tolist() \
        == list(range(Q.module.size))


def test_presented_module_is_refused():
    D = make_quadratic(cyclic_module(Z4, 2), [[0]], [0], P4)
    presented, _, _ = direct_sum_quadratic(hyperbolic(P4, 1), D)
    x = presented.module.gen(0)
    with pytest.raises(ValueError, match="free"):
        S.eu_search(presented, [x], want=np.array([0]))


def small_h2_rings():
    return [r for r in C.ring_names() if C.catalog_ring(r).size ** 4 <= 4096]


# z3c2 and z3c2w (m = 3, nd = 8) split a code into two digit groups
@pytest.mark.parametrize("rname", small_h2_rings() + ["z3c2", "z3c2w"])
def test_engine_orbits_match_reference_bfs(rname):
    ring = C.catalog_ring(rname)
    param = C.catalog_parameters(rname)[0][1]
    H, gens = S.elementary_unitary_generators(ring, param, 2, u_mode="basis")
    elems = [x.vec for x in H.module.elements(cap=H.module.size)]
    classes = S._mu_class_partition(H, S.DEFAULT_BUDGET)
    for want in classes.values():
        assert np.array_equal(want, np.sort(want))
        seed = H.module.from_vec(elems[want[0]])
        word, reached, u_mode, _ = S.eu_search(H, [seed], want=want)
        assert word is None and u_mode == "basis"
        got = {elems[i] for i in reached}
        assert got == reference_orbit(H, gens, seed)
        assert got == {elems[i] for i in want}


def _span_target(H, k):
    d = H.ring.base_dim
    return lambda V: ~V[:, 2 * k * d:].any(axis=1)


def _tuple_walks(H):
    """Seeded 2-tuples of H whose span walks need a word: lambda-unimodular
    pairs into H^2 on H^3, and pairs (v, v 2) into H^1 on H^2."""
    rng = random.Random(3)
    elems = [x for x in H.module.elements() if not x.is_zero()]
    out = []
    while len(out) < 12:
        if len(H.hyperbolic_pairs) == 3:
            xs, k = rng.sample(elems, 2), 2
            if is_lambda_unimodular(H, xs) is None:
                continue
        else:
            v = rng.choice(elems)
            if is_lambda_unimodular(H, [v]) is None:
                continue
            xs, k = [v, v * 2], 1
        start = np.array([x.vec for x in xs])
        if not _span_target(H, k)(start).all():
            out.append((xs, k))
    return out


@pytest.mark.parametrize("param,n", [(P2, 3), (P4, 2)],
                         ids=["gf2-h3", "z4-h2"])
def test_tuple_walks_match_reference(param, n):
    H = hyperbolic(param, n)
    for xs, k in _tuple_walks(H):
        target = _span_target(H, k)
        word, reached, u_mode, spent = S.eu_search(H, xs, target)
        assert u_mode == "basis"
        gens = H.eu_cache[("gens", "basis")]
        path, want, visits = reference_walk(H, gens, xs, target)
        assert [id(t) for t in word] == [id(gens[i]) for i in path]
        assert reached.tolist() == want
        assert spent == visits


def _walk_records(H):
    """Reached codes, visits and words of H's mu-class orbit walks and of
    its tuple span walks."""
    out = []
    for want in S._mu_class_partition(H, S.DEFAULT_BUDGET).values():
        seed = H.module.from_vec(_digits_of(H, want[0]))
        out.append(S.eu_search(H, [seed], want=want))
    for xs, k in _tuple_walks(H):
        out.append(S.eu_search(H, xs, _span_target(H, k)))
    return [(None if word is None else [id(t) for t in word],
             reached.dtype.str, reached.tobytes(), u_mode, spent)
            for word, reached, u_mode, spent in out]


def _digits_of(H, code):
    return S._digits([code], H.ring.base_mod, H.module.nd)[0].tolist()


@pytest.mark.parametrize("param,n", [(P2, 3), (P4, 2)],
                         ids=["gf2-h3", "z4-h2"])
def test_sorted_codes_match_the_bitmap(monkeypatch, param, n):
    H = hyperbolic(param, n)
    calls = [0]
    real = np.searchsorted

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    bitmap = _walk_records(H)
    assert calls[0] == 0
    monkeypatch.setattr(S, "BITMAP_STATES", 1)
    assert _walk_records(H) == bitmap
    assert calls[0] > 0


def test_large_tuple_walks_keep_sorted_codes():
    # a pair of Z/4 H^3 vectors has 4096^2 states, past BITMAP_STATES: a
    # byte map would take 16 MiB, the sorted codes take what the walk meets
    H = hyperbolic(P4, 3)
    assert 4 ** 12 > S.BITMAP_STATES
    e1, f1 = H.hyperbolic_pairs[0]
    e2, f2 = H.hyperbolic_pairs[1]
    e3, f3 = H.hyperbolic_pairs[2]
    xs = [e1 + f3, e2 + e3 * 2]
    assert is_lambda_unimodular(H, xs) is not None
    S.elementary_unitary_generators(Z4, P4, 3, u_mode="basis", H=H)
    tracemalloc.start()
    try:
        word, reached, u_mode, spent = S.eu_search(H, xs, _span_target(H, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word and u_mode == "basis"
    assert peak < 8 << 20


C4 = {"kind": "group_ring", "m": 2, "group": "C4", "w1": [1, 1, 1, 1]}


def test_usr_frontier_z3c2w():
    ring = C.catalog_ring("z3c2w")
    res = S.unitary_stable_rank(ring, C.catalog_parameters("z3c2w")[0][1], 2)
    assert res.value == 1
    assert res.reports[-1].stats["visits"] == 1081600


def test_usr_frontier_group_ring_c4():
    # H^2 over GF(2)[C4] has 2^16 elements in 8 mu-classes; the walks take
    # 11,366,400 visits, and one fewer stops them
    ring = make_ring(C4)
    param = make_form_parameter(ring, ring.one, ())
    res = S.unitary_stable_rank(ring, param, 2, budget=1 << 28)
    assert res.value == 1
    assert res.reports[-1].stats == {"classes": 8, "generators": 185,
                                     "visits": 11366400}
    with pytest.raises(S.BudgetExceeded, match="EU orbit BFS budget"):
        S.check_Tn(ring, param, 2, budget=11366400 - 1)


def test_usr_of_gf3_c3_stays_within_memory():
    # 2.8e8 visits: past 2^28 the sweep ends on its budget, under a 2 GiB
    # address-space limit and with no MemoryError
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from wittlab import stable_range as S\n"
            "from wittlab.rings import make_form_parameter, make_ring\n"
            "R = make_ring({'kind': 'group_ring', 'm': 3, 'group': 'C3',\n"
            "               'w1': [1, 1, 1]})\n"
            "P = make_form_parameter(R, R.one, ())\n"
            "try:\n"
            "    S.unitary_stable_rank(R, P, 2, budget=1 << 28)\n"
            "except S.BudgetExceeded as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(wittlab.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "EU orbit BFS budget"


# the full-U route enumerates U(H^2), which takes minutes over the larger
# rings (77,760 maps over GF(4)); the verdicts are compared where it is quick
@pytest.mark.parametrize("rname", ["gf2", "gf3", "z4"])
def test_check_Tn_modes_agree(rname):
    ring = C.catalog_ring(rname)
    param = C.catalog_parameters(rname)[0][1]
    trans = S.check_Tn(ring, param, 2, mode="transvection")
    full = S.check_Tn(ring, param, 2, mode="full-u")
    assert trans.verdict == full.verdict
    assert trans.stats["classes"] == full.stats["classes"]


def test_first_pair_words_replay_on_z4_h2():
    H = hyperbolic(P4, 2)
    e1, f1 = H.hyperbolic_pairs[0]
    targets = {(e1 + f1 * s).vec for s in range(Z4.size)}
    moved = 0
    for v in H.module.elements():
        if v.is_zero() or is_lambda_unimodular(H, [v]) is None:
            continue
        word = _eu_reach_first_pair(H, v, budget=S.DEFAULT_BUDGET)
        phi = identity_unitary(H)
        for t in word:
            phi = t.compose(phi)
        replayed = replay_word(H, unitary_word(phi))
        assert replayed(v) == phi(v)
        assert phi(v).vec in targets
        moved += 1
    assert moved == 240


@pytest.mark.parametrize("pname", ["z4:eps3:min", "z4:eps3:max"])
def test_transitive_move_on_z4_h4(pname):
    # H^4 has 65,536 elements and, at eps3:max, 529 basis-u generators: a
    # table over all of H would hold 34.7M entries; the BFS keeps only its
    # frontier
    param = dict(C.catalog_parameters("z4"))[pname]
    H = hyperbolic(param, 4)
    for vec in [(0, 0, 1, 0, 0, 0, 0, 0), (2, 0, 1, 0, 0, 3, 0, 0),
                (0, 1, 0, 0, 0, 0, 0, 1)]:
        v = H.module.element(vec)
        phi, target = transitive_move(H, v, H.mu_rep(v))
        assert phi(v) == target


def test_start_on_target_builds_nothing():
    H = hyperbolic(P4, 4)
    e1, f1 = H.hyperbolic_pairs[0]
    assert _eu_reach_first_pair(H, e1 + f1 * 2, budget=1) == []
    assert H.eu_cache == {}


def test_tiny_budgets_still_raise():
    # 16 elements pass the enumeration check; the orbit BFS then overruns
    with pytest.raises(S.BudgetExceeded):
        S.check_Tn(GF2, P2, 2, budget=16)
    H = hyperbolic(P2, 2)
    v = H.module.element((0, 0, 1, 0))  # e_2: its EU step needs a word
    with pytest.raises(BlockError, match="budget"):
        transitive_move(H, v, GF2.zero, usr=1, budget=1)


def test_generators_are_cached_on_h(monkeypatch):
    calls = [0]
    real = S.transvection_matrices

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(S, "transvection_matrices", counting)
    H = hyperbolic(P2, 2)
    _, first = S.elementary_unitary_generators(GF2, P2, 2, u_mode="basis",
                                               H=H)
    built = calls[0]
    assert built > 0
    _, again = S.elementary_unitary_generators(GF2, P2, 2, u_mode="basis",
                                               H=H)
    assert calls[0] == built
    assert [id(t) for t in again] == [id(t) for t in first]
    # a different H builds its own family
    S.elementary_unitary_generators(GF2, P2, 2, u_mode="basis")
    assert calls[0] == 2 * built


def test_orbit_bfs_does_not_import_numpy_ma():
    # np.unique without return flags and np.union1d import numpy.ma
    # (10-19 ms): neither the BFS, nor the failing (T_1) search, nor the
    # isometry search of a cancellation sum may call them
    code = ("import sys\n"
            "from wittlab import catalog as C\n"
            "from wittlab import stable_range as S\n"
            "from wittlab.quadratic import direct_sum_quadratic as plus\n"
            "from wittlab.quadratic import hyperbolic, is_quad_isomorphic\n"
            "from wittlab.rings import make_form_parameter, make_ring\n"
            "R = make_ring({'kind': 'gf', 'q': 2})\n"
            "P = make_form_parameter(R, 1, ())\n"
            "assert S.check_Tn(R, P, 2).verdict == 'holds'\n"
            "assert S.check_Tn(R, P, 1).verdict == 'fails'\n"
            "H, D = hyperbolic(P, 1), C.degenerate_point(P)\n"
            "A = plus(plus(H, D)[0], H)[0]\n"
            "B = plus(plus(D, H)[0], H)[0]\n"
            "assert is_quad_isomorphic(A, B) is not None\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(wittlab.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
