"""The EU-orbit engine against plain-Python oracles.

The engine (stable_range: cached generators, a frontier-only
level-synchronous numpy BFS) must reach exactly the orbits an
element-by-element BFS reaches, give the (T_n) verdicts the full-U route
gives, and emit words that replay externally.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import wittlab

from wittlab import catalog as C
from wittlab import stable_range as S
from wittlab.blocks import BlockError, _eu_reach_first_pair, transitive_move
from wittlab.modules import cyclic_module
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
    """Element-by-element BFS on coordinate tuples, each generator applied
    as its matrix in plain Python."""
    m = H.ring.base_mod
    mats = [t.f.B.tolist() for t in gens]
    seen = {seed.vec}
    frontier = [seed.vec]
    while frontier:
        nxt = []
        for vec in frontier:
            for B in mats:
                img = tuple(sum(a * x for a, x in zip(row, vec)) % m
                            for row in B)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def test_stacked_matrices_match_maps():
    Q = hyperbolic(P4, 1)
    gens = unitary_group(Q)
    mats = S._gen_permutations(Q, gens)
    nd = Q.module.nd
    assert mats.shape == (nd, len(gens) * nd)
    for x in Q.module.elements():
        imgs = (np.array(x.vec) @ mats) % Z4.base_mod
        assert [tuple(imgs[i * nd:(i + 1) * nd].tolist())
                for i in range(len(gens))] == [t(x).vec for t in gens]
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


@pytest.mark.parametrize("rname", small_h2_rings())
def test_engine_orbits_match_reference_bfs(rname):
    ring = C.catalog_ring(rname)
    param = C.catalog_parameters(rname)[0][1]
    H, gens = S.elementary_unitary_generators(ring, param, 2, u_mode="basis")
    elems = [x.vec for x in H.module.elements()]
    classes = S._mu_class_partition(H, S.DEFAULT_BUDGET)
    for want in classes.values():
        assert np.array_equal(want, np.sort(want))
        seed = H.module.from_vec(elems[want[0]])
        word, reached, u_mode, _ = S.eu_search(H, [seed], want=want)
        assert word is None and u_mode == "basis"
        got = {elems[i] for i in reached}
        assert got == reference_orbit(H, gens, seed)
        assert got == {elems[i] for i in want}


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
