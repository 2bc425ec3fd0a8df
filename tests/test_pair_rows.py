"""Pair rows on demand against the dense pair matrices they replace.

The oracle is the dense atom x atom pair matrix, built here from
`_PairTables.lam` by the formulas the posets used before rows were derived
on demand, one block at a time so that the large cases stay small.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from wittlab import catalog as C
from wittlab.posets import (
    SequencePoset,
    _PairTables,
    decorate,
    hu_poset,
    iu_poset,
    link,
)
from wittlab.quadratic import hyperbolic, orthogonal_complement
from wittlab.verify import _component_count

ROW_SAMPLE = 150       # rows checked when a poset has more atoms than this
ADJ_SAMPLE = 300       # vertices neighbors are read among, past this many
COPY_ATOMS = 25_000    # largest atom count given a rowless copy
COPY_COST = 200_000    # raw tests the rowless copy may spend on one level
BFS_VERTICES = 1_000   # largest vertex count given the plain-Python BFS


def _iu_block(T):
    keep = np.flatnonzero(T.mu0)
    Z = T.lam == T.Q.ring.zero
    return lambda R, Cs: Z[np.ix_(keep[R], keep[Cs])]


def _hu_block(T):
    mu0 = np.flatnonzero(T.mu0)
    rc = np.argwhere(T.lam[np.ix_(mu0, mu0)] == T.Q.ring.one)
    X, Y = mu0[rc[:, 0]], mu0[rc[:, 1]]
    Z = T.lam == T.Q.ring.zero

    def block(R, Cs):
        return (Z[np.ix_(X[R], X[Cs])] & Z[np.ix_(Y[R], Y[Cs])]
                & Z[np.ix_(X[R], Y[Cs])] & Z[np.ix_(X[Cs], Y[R])].T)
    return block


def _link_block(F, block, base_atoms):
    kept = np.array([i for i, a in enumerate(F.atoms)
                     if a not in set(base_atoms)], dtype=np.intp)
    return lambda R, Cs: block(kept[R], kept[Cs])


def _decorate_block(F, block, ns):
    base = np.repeat(np.arange(len(F.atoms)), ns)
    return lambda R, Cs: (block(base[R], base[Cs])
                          & (base[R][:, None] != base[Cs][None, :]))


def _cases():
    out = []
    for ring in ("gf2", "gf3", "z4"):
        for g in (1, 2, 3):
            for kind in ("iu", "hu"):
                out.append((ring, g, kind, False))
                out.append((ring, g, kind, True))
            if g > 1:
                out.append((ring, g, "iu<V>", False))
    return out


def _build(ring, g, kind, at_pair):
    """The poset and its dense oracle, as a block function of row and
    column ids."""
    Q = hyperbolic(C.catalog_parameters(ring)[0][1], g)
    e1, f1 = Q.hyperbolic_pairs[0]
    if kind == "iu<V>":
        # IU(Y)<V> as verify_link_isos builds it: Y = <e1, f1>-perp and
        # V the span of e1
        Y, _incl = orthogonal_complement(Q, [e1, f1])
        T = _PairTables(Y)
        V = list({(e1 * c).vec: e1 * c for c in range(Q.ring.size)}.values())
        return (decorate(iu_poset(Y, tables=T), V),
                _decorate_block(iu_poset(Y, tables=T), _iu_block(T), len(V)))
    T = _PairTables(Q)
    if kind == "iu":
        F, block, base = iu_poset(Q, tables=T), _iu_block(T), (e1,)
    else:
        F, block, base = hu_poset(Q, tables=T), _hu_block(T), ((e1, f1),)
    if at_pair:
        return link(F, base), _link_block(F, block, base)
    return F, block


def _adjacent(F, v, w):
    a, b = F.atoms[v], F.atoms[w]
    return F.member_atoms((a, b)) or F.member_atoms((b, a))


def _plain_components(F):
    todo = list(F.vertex_ids)
    comps = 0
    while todo:
        comps += 1
        stack = [todo.pop(0)]
        while stack:
            v = stack.pop()
            found = [w for w in todo if _adjacent(F, v, w)]
            todo = [w for w in todo if w not in set(found)]
            stack.extend(found)
    return comps


@pytest.mark.parametrize("ring,g,kind,at_pair", _cases())
def test_pair_rows_match_dense_oracle(ring, g, kind, at_pair):
    F, block = _build(ring, g, kind, at_pair)
    n = len(F.atoms)
    rng = random.Random("%s%d%s%d" % (ring, g, kind, at_pair))
    everything = np.arange(n)
    rows = range(n) if n <= ROW_SAMPLE else rng.sample(range(n), ROW_SAMPLE)
    for a in rows:
        row = F.pair_row(a, everything)
        assert np.array_equal(row, block([a], everything)[0])
        assert np.array_equal(row, block(everything, [a])[:, 0])

    verts = F.vertex_ids
    among = None
    pool = verts
    if len(verts) > ADJ_SAMPLE:
        pool = sorted(rng.sample(verts, ADJ_SAMPLE))
        among = np.array(pool, dtype=np.intp)
    for v in (verts if among is None else rng.sample(verts, 40)):
        got = F.neighbors(v, among=among)
        assert got.tolist() == [w for w in pool if _adjacent(F, v, w)]

    if n <= COPY_ATOMS:
        plain = SequencePoset(F.name, F.atoms, F.member_atoms)
        assert F.vertex_ids == plain.vertex_ids
        for p in (1, 2):
            if len(F.simplices(p - 1)) * len(verts) > COPY_COST:
                break
            assert F.simplices(p) == plain.simplices(p), p
    if len(verts) <= BFS_VERTICES:
        assert _component_count(F) == _plain_components(F)


def test_hu_h5_certified_under_one_gib():
    # HU(H^5/GF(2)) at d = 0 has 134,912 vertices, whose dense pair matrix
    # alone would take 17 GiB; a child process caps its address space at
    # 1 GiB and runs the verdict
    import wittlab

    code = "\n".join([
        "import resource",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
        "from wittlab import catalog as C",
        "from wittlab.quadratic import hyperbolic",
        "from wittlab.verify import verify_hu_connectivity",
        "Q = hyperbolic(C.catalog_parameters('gf2')[0][1], 5)",
        "v = verify_hu_connectivity(Q, usr=1).verdict",
        "print(v.result, v.detail.get('vertices'))",
    ])
    src = os.path.dirname(os.path.dirname(wittlab.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["homology-verified", "134912"]
