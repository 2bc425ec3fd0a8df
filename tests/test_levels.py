"""Array levels, batched hooks and COO boundaries against the tuple-level
and dict-boundary oracle they replaced."""

import random

import numpy as np
import pytest

from wittlab import catalog as C
from wittlab import posets
from wittlab.homology import build_chain_complex, face_rows
from wittlab.modules import cyclic_module, direct_sum_modules, free_module
from wittlab.posets import (
    PosetCapExceeded,
    SequencePoset,
    decorate,
    gl_poset,
    hu_poset,
    iu_poset,
    link,
)
from wittlab.quadratic import hyperbolic

TOP = 2  # levels 0..TOP are compared


def tuple_levels(F, top=TOP):
    """The levels as lists of tuples, grown one prefix at a time: each
    member's extensions among the vertices in ascending id, by the hook on
    that one row or, without a hook, by the raw test of each id."""
    ids = np.array(F.vertex_ids, dtype=np.intp)

    def extensions(seq):
        if F.extend is None:
            return [a for a in ids.tolist() if F.member_ids(seq + (a,))]
        return ids[F.extend(np.array([seq], dtype=np.intp), ids)[0]].tolist()

    levels = [[(v,) for v in F.vertex_ids]]
    for _p in range(top):
        levels.append([seq + (a,) for seq in levels[-1]
                       for a in extensions(seq)])
    return levels


def dict_boundaries(levels):
    """d_p as sorted (row, col, coeff) triples, each face found in a dict
    of the level below."""
    out = {0: [(0, i, 1) for i in range(len(levels[0]))]}
    for p in range(1, len(levels)):
        index = {seq: i for i, seq in enumerate(levels[p - 1])}
        entries = {}
        for col, seq in enumerate(levels[p]):
            for i in range(len(seq)):
                key = (index[seq[:i] + seq[i + 1:]], col)
                entries[key] = entries.get(key, 0) + (1 if i % 2 == 0 else -1)
        out[p] = sorted((r, c, v) for (r, c), v in entries.items() if v)
    return out


def coo_triples(chain, p):
    if p not in chain.boundaries:
        return []
    return sorted(zip(*(a.tolist() for a in chain.boundaries[p])))


def _base(kind, ring):
    """(poset, its first base entry as atoms) of GL(R^n) or IU/HU(H^2)."""
    if kind == "gl":
        M = free_module(C.catalog_ring(ring), 3 if ring == "gf2" else 2)
        return gl_poset(M), [M.gen(0)]
    Q = hyperbolic(C.catalog_parameters(ring)[0][1], 2)
    e1, f1 = Q.hyperbolic_pairs[0]
    if kind == "iu":
        return iu_poset(Q), [e1]
    return hu_poset(Q), [(e1, f1)]


BASES = [("gl", r) for r in ("gf2", "gf3", "gf4", "z4")] + [
    (kind, r) for kind in ("iu", "hu") for r in ("gf2", "gf3", "z4")]


def _poset(kind, ring, variant):
    F, base = _base(kind, ring)
    if variant == "link":
        return link(F, base)
    if variant == "decorated":
        return decorate(F, ["s", "t"])
    if variant == "hookless":
        return SequencePoset(F.name, F.atoms, F.member_atoms)
    return F


CASES = [
    pytest.param(kind, ring, variant, id="%s-%s-%s" % (kind, ring, variant))
    for kind, ring in BASES for variant in ("poset", "link", "decorated")
] + [pytest.param(kind, "gf2", "hookless", id="%s-gf2-hookless" % kind)
     for kind in ("gl", "iu", "hu")]


@pytest.mark.parametrize("kind,ring,variant", CASES)
def test_levels_and_boundaries_match_tuple_oracle(kind, ring, variant):
    F = _poset(kind, ring, variant)
    want = tuple_levels(F)
    for p in range(TOP + 1):
        level = F.simplices(p)
        assert level.shape == (len(want[p]), p + 1)
        assert list(map(tuple, level.tolist())) == want[p], p
    chain = build_chain_complex(F, TOP - 1)
    assert chain.counts == {-1: 1, **{p: len(want[p]) for p in range(TOP + 1)
                                      if p == 0 or want[p - 1]}}
    for p, triples in dict_boundaries(want).items():
        assert coo_triples(chain, p) == triples, p


@pytest.mark.parametrize("kind,ring", BASES)
def test_small_chunks_change_nothing(kind, ring, monkeypatch):
    # chunks of a few prefix rows split every level, mask and span array:
    # the levels and the neighbors are the default ones
    F = _poset(kind, ring, "poset")
    levels = [F.simplices(p) for p in range(TOP + 1)]
    frontier = np.array(F.vertex_ids[:5], dtype=np.intp)
    hood = F.neighbors(frontier)
    monkeypatch.setattr(posets, "CHUNK", 37)
    G = _poset(kind, ring, "poset")
    for p in range(TOP + 1):
        assert np.array_equal(G.simplices(p), levels[p]), p
    assert np.array_equal(G.neighbors(frontier), hood)


@pytest.mark.parametrize("kind,ring", BASES)
def test_multi_row_extend_is_the_stack_of_single_rows(kind, ring):
    # any prefix rows against any order of columns, and the neighbors of a
    # frontier are the union of its vertices' neighbors
    F = _poset(kind, ring, "poset")
    rng = np.random.default_rng(7)
    cols = rng.permutation(len(F.atoms)).astype(np.intp)
    for p in range(TOP):
        P = F.simplices(p)
        if not len(P):
            continue
        P = P[np.sort(rng.choice(len(P), min(len(P), 40), replace=False))]
        got = F.extend(P, cols)
        assert got.shape == (len(P), len(cols)) and got.dtype == bool
        assert np.array_equal(got, np.vstack([F.extend(P[i:i + 1], cols)
                                              for i in range(len(P))])), p
    frontier = np.array(F.vertex_ids[::3], dtype=np.intp)
    union = set()
    for v in frontier.tolist():
        union.update(F.neighbors(v).tolist())
    assert F.neighbors(frontier).tolist() == sorted(union)


@pytest.mark.parametrize("ring", ["gf2", "gf3", "gf4"])
def test_gl_over_a_field_on_a_module_with_a_relator(ring):
    # R^n + R/(1): a generator with a relator, on which the hook's
    # functionals must vanish (its lead columns)
    R = C.catalog_ring(ring)
    M, _, _ = direct_sum_modules(free_module(R, 3 if ring == "gf2" else 2),
                                 cyclic_module(R, 1))
    F = gl_poset(M)
    plain = SequencePoset(F.name, F.atoms, F.member_atoms)
    assert M.relators and len(F.simplices(1))
    for p in range(TOP + 1):
        assert np.array_equal(F.simplices(p), plain.simplices(p)), p


@pytest.mark.parametrize("p", [2, 3])
def test_face_lookup_with_large_ids(p):
    # ids >= 2^21: base^(p+1) >= 2^63, so the level's own rows would not fit
    # a mixed-radix int64 code; at p = 3 the faces do not either
    base = (1 << 21) + 64
    assert base ** (p + 1) >= 2 ** 63
    rng = random.Random(p)
    pool = [base - 1 - i for i in range(12)] + list(range(4))
    level = sorted({tuple(rng.sample(pool, p + 1)) for _ in range(300)})
    faces = {s[:i] + s[i + 1:] for s in level for i in range(p + 1)}
    extra = {tuple(rng.sample(pool, p)) for _ in range(50)}
    lower = np.array(sorted(faces | extra), dtype=np.intp)
    level = np.array(level, dtype=np.intp)
    F = face_rows(level, lower, base)
    for j, i in np.ndindex(*F.shape):
        assert np.array_equal(lower[F[j, i]], np.delete(level[j], i))
    short = np.array(sorted((faces | extra) - {min(faces)}), dtype=np.intp)
    with pytest.raises(KeyError):
        face_rows(level, short, base)


def test_tiny_cap_raises_before_a_level_is_kept(monkeypatch):
    # GL(GF(2)^3) has 42 edges; a budget of 3 is passed in the first chunk
    # of prefix rows, and the hook is not called on any later chunk
    monkeypatch.setattr(posets, "CHUNK", 7)
    F = gl_poset(free_module(C.catalog_ring("gf2"), 3), cap=10)
    calls = []
    hook = F.extend
    F.extend = lambda P, cols: calls.append(len(P)) or hook(P, cols)
    with pytest.raises(PosetCapExceeded, match="has > 3 1-simplices"):
        F.simplices(1)
    assert list(F._levels) == [0]
    assert calls == [1]
