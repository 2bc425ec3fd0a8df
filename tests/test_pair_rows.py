"""The IU and HU hooks' one-atom masks against the dense pair matrices,
and their raw tests against pair loops.

The oracle is the dense atom x atom pair matrix, built here from
`_PairTables.lam` by the formulas the posets used before masks were derived
on demand, one block at a time so that the large cases stay small.  A
link's oracle is the parent's row of the atom AND the parent's rows of the
base entries, so it does not lean on the link's own hook.  The IU hook
also tests lambda-unimodularity, so its mask lies inside the pair row and,
at a vertex, is the pair row AND the raw test of each extension.

The raw tests read `_PairTables` in one fancy-indexed block per sequence;
their oracle is the pair loops they replaced, kept here.
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
from wittlab.quadratic import (
    hyperbolic,
    is_lambda_unimodular,
    orthogonal_complement,
)
from wittlab.verify import _component_count

ROW_SAMPLE = 150       # rows checked when a poset has more atoms than this
ADJ_SAMPLE = 300       # vertices neighbors are read among, past this many
COPY_ATOMS = 25_000    # largest atom count given a hookless copy
COPY_COST = 200_000    # raw tests the hookless copy may spend on one level
BFS_VERTICES = 1_000   # largest vertex count given the plain-Python BFS
UNI_ROWS = 10          # sampled rows whose IU mask is checked to the raw test


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


def _decorate_block(F, block, ns):
    base = np.repeat(np.arange(len(F.atoms)), ns)
    return lambda R, Cs: (block(base[R], base[Cs])
                          & (base[R][:, None] != base[Cs][None, :]))


def _row(block, r, cols):
    """The dense pair row of atom r over cols, checked symmetric."""
    row = block([r], cols)[0]
    assert np.array_equal(row, block(cols, [r])[:, 0])
    return row


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
    """The poset and the dense oracle of its one-atom hook mask, as a
    function of the atom id a: the pair row of a (never a itself), AND the
    pair rows of the base entries for a link."""
    Q = hyperbolic(C.catalog_parameters(ring)[0][1], g)
    e1, f1 = Q.hyperbolic_pairs[0]
    if kind == "iu<V>":
        # IU(Y)<V> as verify_link_isos builds it: Y = <e1, f1>-perp and
        # V the span of e1
        Y, _incl = orthogonal_complement(Q, [e1, f1])
        T = _PairTables(Y)
        V = list({(e1 * c).vec: e1 * c for c in range(Q.ring.size)}.values())
        F = iu_poset(Y, tables=T)
        F, block = decorate(F, V), _decorate_block(F, _iu_block(T), len(V))
        return F, lambda a: _row(block, a, np.arange(len(F.atoms)))
    T = _PairTables(Q)
    if kind == "iu":
        F, block, base = iu_poset(Q, tables=T), _iu_block(T), (e1,)
    else:
        F, block, base = hu_poset(Q, tables=T), _hu_block(T), ((e1, f1),)
    base_ids = [F.atoms.index(x) for x in base] if at_pair else []
    kept = np.array([i for i in range(len(F.atoms)) if i not in base_ids],
                    dtype=np.intp)

    def oracle(a):
        row = _row(block, kept[a], kept) & (np.arange(len(kept)) != a)
        for b in base_ids:
            row &= _row(block, b, kept)
        return row

    return (link(F, base) if at_pair else F), oracle


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
    F, oracle = _build(ring, g, kind, at_pair)
    n = len(F.atoms)
    rng = random.Random("%s%d%s%d" % (ring, g, kind, at_pair))
    everything = np.arange(n)
    rows = range(n) if n <= ROW_SAMPLE else rng.sample(range(n), ROW_SAMPLE)
    for i, a in enumerate(rows):
        got, want = F.extend(np.array([[a]]), everything)[0], oracle(a)
        if kind != "hu":
            assert not (got & ~want).any(), a
            if i >= UNI_ROWS or not F.member_ids((a,)):
                continue
            for w in np.flatnonzero(want).tolist():
                want[w] = F.member_atoms((F.atoms[a], F.atoms[w]))
        assert np.array_equal(got, want), a

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
            assert np.array_equal(F.simplices(p), plain.simplices(p)), p
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


def test_hu_h6_out_of_memory_is_inconclusive():
    # under a 400 MiB address space HU(H^6/GF(2))'s atom list does not fit;
    # the MemoryError ends as an inconclusive verdict with its reason, and
    # the process exits normally
    import wittlab

    code = "\n".join([
        "import resource",
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))",
        "from wittlab import catalog as C",
        "from wittlab.quadratic import hyperbolic",
        "from wittlab.verify import verify_hu_connectivity",
        "Q = hyperbolic(C.catalog_parameters('gf2')[0][1], 6)",
        "rep = verify_hu_connectivity(Q, usr=1)",
        "print(rep.verdict.result, rep.bound, rep.critical)",
        "print(rep.verdict.detail['reason'])",
    ])
    src = os.path.dirname(os.path.dirname(wittlab.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    verdict, reason = proc.stdout.splitlines()
    assert verdict == "inconclusive None False"
    assert reason.startswith("out of memory")


def _iu_raw_loops(T, seq):
    """The IU raw test as the pair loops over `_PairTables.lam`."""
    zero = T.Q.ring.zero
    idx = [T.index[x.vec] for x in seq]
    for a in range(len(idx)):
        if not T.mu0[idx[a]]:
            return False
        for b in range(len(idx)):
            if a != b and int(T.lam[idx[a], idx[b]]) != zero:
                return False
    return is_lambda_unimodular(T.Q, list(seq)) is not None


def _hu_raw_loops(T, seq):
    """The HU raw test as the pair loops over `_PairTables.lam`."""
    zero, one = T.Q.ring.zero, T.Q.ring.one
    idx = [(T.index[x.vec], T.index[y.vec]) for x, y in seq]
    for a, (ia, ja) in enumerate(idx):
        if not (T.mu0[ia] and T.mu0[ja]) or int(T.lam[ia, ja]) != one:
            return False
        for b, (ib, jb) in enumerate(idx):
            if a != b and (int(T.lam[ia, ib]) != zero
                           or int(T.lam[ja, jb]) != zero
                           or int(T.lam[ia, jb]) != zero):
                return False
    return True


def _raw_probes(F, rng, elems, count):
    """Sequences of length 1..3 to feed a raw test: members grown by random
    extension, members with one entry swapped for a random atom, and
    random sequences of elements (atoms of IU, pairs of them for HU)."""
    out = []
    for _ in range(count):
        seq = ()
        for _p in range(rng.randrange(1, 4)):
            cands = F._varr[F.extend(np.array([seq], dtype=np.intp),
                                     F._varr)[0]]
            if not len(cands):
                break
            seq += (int(cands[rng.randrange(len(cands))]),)
        if not seq:
            continue
        member = [F.atoms[i] for i in seq]
        out.append(tuple(member))
        member[rng.randrange(len(member))] = rng.choice(F.atoms)
        out.append(tuple(member))
        out.append(tuple(rng.choice(elems)
                         for _i in range(rng.randrange(1, 4))))
    return out


@pytest.mark.parametrize("ring", ["gf2", "gf3", "z4"])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_raw_tests_match_pair_loops(ring, g):
    Q = hyperbolic(C.catalog_parameters(ring)[0][1], g)
    T = _PairTables(Q)
    rng = random.Random("%s%d" % (ring, g))
    pairs = [(x, y) for x in T.elems for y in T.elems[:8]]
    for F, loops, elems in ((iu_poset(Q, tables=T), _iu_raw_loops, T.elems),
                            (hu_poset(Q, tables=T), _hu_raw_loops, pairs)):
        probes = _raw_probes(F, rng, elems, 150)
        assert any(loops(T, seq) for seq in probes)
        assert not all(loops(T, seq) for seq in probes)
        for seq in probes:
            assert bool(F._raw(seq)) == loops(T, seq), seq
