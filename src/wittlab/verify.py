"""Connectivity verdicts, the theorem registry and the link isomorphisms.

A verdict certifies the stated connectivity level: vacuous for d <= -2,
nonemptiness for d = -1, and for d >= 0 path-connectedness plus vanishing
reduced homology through degree d, with a best-effort fundamental-group
simplification upgrading the certificate when it succeeds.  Refutations
carry witnesses.

THEOREMS is the one table of certified claims (the GL, IU/HU, lambda-,
mu- and perp-link posets, and the translated GL and lambda-posets of the
interior induction); verify(name, X, rank, base) runs any of them.
"""

import collections

import numpy as np

from wittlab.homology import _row_keys, build_chain_complex, homology
from wittlab.modules import (
    CapExceeded,
    direct_sum_modules,
    free_module,
    rank as module_rank,
)
from wittlab.posets import (
    PosetCapExceeded,
    decorate,
    gl_poset,
    hu_poset,
    iu_poset,
    lambda_poset,
    link,
    mu_poset,
    _PairTables,
)
from wittlab.quadratic import (
    direct_sum_quadratic,
    hyperbolic,
    orthogonal_complement,
    stable_witt_index,
    witt_index,
)


# the results that certify the target, each at its tier; the others are
# "refuted" and "inconclusive"
PROVED = ("vacuous", "nonempty-verified", "homology-verified",
          "fully-verified")


class ConnectivityVerdict:
    def __init__(self, target, result, detail=None):
        self.target = target
        self.result = result
        self.detail = detail or {}

    def ok(self):
        return self.result in PROVED

    def to_dict(self):
        return {"target": self.target, "result": self.result,
                "detail": self.detail}

    def __repr__(self):
        return "Verdict(d=%s: %s)" % (self.target, self.result)


def _component_count(poset):
    """Number of path components, by a level-synchronous BFS: each frontier
    asks for its neighbors among the shrinking array of unvisited vertex
    ids only, so no pair is tested once both ends are visited."""
    todo = np.array(poset.vertex_ids, dtype=np.intp)
    comps = 0
    while todo.size:
        comps += 1
        frontier, todo = todo[:1], todo[1:]
        while frontier.size and todo.size:
            frontier = poset.neighbors(frontier, among=todo)
            todo = np.setdiff1d(todo, frontier, assume_unique=True)
    return comps


def _free_reduce(word):
    """The freely and cyclically reduced form of a word in signed
    generators (g or -g for the inverse)."""
    out = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    i, j = 0, len(out)
    while j - i > 1 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return out[i:j]


def _pi1_trivial(poset, chain, budget=200000):
    """Spanning-tree edge-path presentation plus length-1/2 Tietze
    eliminations (`_presentation_trivial`); True only when every generator
    dies.  Each triangle's edges are its rows in d_2 of chain, the poset's
    chain complex through degree 1 at least."""
    verts = poset.vertex_ids
    if not verts:
        return False
    edges = poset.simplices(1)
    adj = {}
    for idx, (a, b) in enumerate(edges.tolist()):
        adj.setdefault(a, []).append((b, idx))
        adj.setdefault(b, []).append((a, idx))
    tree = np.zeros(len(edges), dtype=bool)
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        v = stack.pop()
        for w, idx in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                tree[idx] = True
                stack.append(w)
    if seen != set(verts):
        return False  # disconnected
    ngens = len(edges) - int(tree.sum())
    if not ngens:
        return True
    # triangle (a, b, c) reads (a, b) (b, c) (a, c)^-1: faces 2, 0 and 1,
    # and a tree edge is the identity 0
    E = chain.boundaries.get(2, (np.zeros(0, dtype=np.intp),))[0].reshape(
        -1, 3)[:, [2, 0, 1]]
    relators = np.where(tree[E], 0, (E + 1) * [1, 1, -1]).tolist()
    return _presentation_trivial(ngens, relators, budget)


def _presentation_trivial(ngens, relators, budget=200000):
    """True when length-1/2 Tietze eliminations kill all ngens generators
    of the presentation; relators are words in signed generators (g or -g
    for the inverse, g > 0, and 0 for the identity).

    A relator that reduces to g^(+-1) sets g = 1; one that reduces to
    g^s h^t with g != h sets g = h^(-s t) by substitution.  The eliminated
    generators form a forest of signed pointers (g -> a word of length at
    most one), and every pass reads each relator through it, then reduces
    it freely and cyclically, so each step is a Tietze transformation and
    the presented group never changes."""
    dead = {}  # eliminated generator -> its value: a signed generator or 0

    def value(s):
        path = []
        while abs(s) in dead:
            path.append(s)
            s = dead[abs(s)] if s > 0 else -dead[abs(s)]
        for t in path:  # path compression
            dead[abs(t)] = s if t > 0 else -s
        return s

    steps = 0
    changed = True
    while changed and len(dead) < ngens and steps < budget:
        changed = False
        kept = []
        for word in relators:
            steps += 1
            word = _free_reduce([t for t in map(value, word) if t])
            if len(word) == 1:
                dead[abs(word[0])] = 0
                changed = True
            elif len(word) == 2 and abs(word[0]) != abs(word[1]):
                g, h = word  # g h = 1: |g| is h^-1 if g > 0, else h
                dead[abs(g)] = -h if g > 0 else h
                changed = True
            elif word:
                kept.append(word)
            if len(dead) == ngens:  # nothing left to kill
                return True
        relators = kept
    return len(dead) == ngens


def exit_reason(exc):
    """The reason an inconclusive verdict gives for a cap or memory exit."""
    if isinstance(exc, MemoryError):
        return "out of memory" + (": %s" % exc if str(exc) else "")
    return str(exc)


def connectivity_verdict(poset, d, pi1_budget=200000):
    if d <= -2:
        return ConnectivityVerdict(d, "vacuous")
    if poset.is_empty():
        # d >= -1 asks for nonemptiness at least: no vertices refutes it
        return ConnectivityVerdict(d, "refuted", {"reason": "no vertices"})
    if d == -1:
        return ConnectivityVerdict(
            d, "nonempty-verified",
            {"witness": repr(poset.atoms[poset.vertex_ids[0]])})
    try:
        ncomp = _component_count(poset)
        if ncomp != 1:
            return ConnectivityVerdict(d, "refuted",
                                       {"components": ncomp})
        if d == 0:
            # reduced H_0 is free on components-1: the BFS is the certificate
            return ConnectivityVerdict(
                d, "homology-verified",
                {"betti": {0: 0}, "components": 1,
                 "vertices": len(poset.vertex_ids)})
        chain = build_chain_complex(poset, d)
        hom = homology(chain, d)
    except PosetCapExceeded as exc:
        return ConnectivityVerdict(d, "inconclusive", {"reason": str(exc)})
    for p in range(0, d + 1):
        if hom["betti"][p] != 0 or hom["torsion"][p]:
            return ConnectivityVerdict(
                d, "refuted",
                {"degree": p, "betti": hom["betti"][p],
                 "torsion": hom["torsion"][p], "cells": hom["cells"]})
    detail = {"betti": hom["betti"], "torsion": hom["torsion"],
              "cells": hom["cells"]}
    if d >= 1 and _pi1_trivial(poset, chain, budget=pi1_budget):
        detail["pi1"] = "trivial"
        return ConnectivityVerdict(d, "fully-verified", detail)
    return ConnectivityVerdict(d, "homology-verified", detail)


# -- theorem registry ----------------------------------------------------------


class TheoremReport:
    def __init__(self, theorem, bound, verdict, hypothesis, poset_name):
        self.theorem = theorem
        self.bound = bound
        self.verdict = verdict
        self.hypothesis = hypothesis
        self.poset_name = poset_name

    @property
    def critical(self):
        return self.verdict.result == "refuted"

    def to_dict(self):
        return {"theorem": self.theorem, "bound": self.bound,
                "verdict": self.verdict.to_dict(),
                "hypothesis": self.hypothesis, "poset": self.poset_name}

    def __repr__(self):
        return "TheoremReport(%s: d=%s -> %s)" % (
            self.theorem, self.bound, self.verdict.result)


# One certified claim: a poset built from X and the connectivity its bound
# promises.  X is a module M when the rank is "sr" and a quadratic module Q
# when it is "usr".  The invariant ("rank", "g" or "gbar") is the hypothesis
# key the bound reads; bound(invariant, rank, k) is the connectivity of the
# poset's link at a base of k entries (k = 0: the poset itself).  A base
# entry is an element of X's module or, for base "pair", a hyperbolic pair.
# build(X, base, cap, dec) returns the poset and the base as atoms of it;
# dec is the Witt decomposition when the invariant is g.
Theorem = collections.namedtuple(
    "Theorem", "statement rank invariant bound build base needs_base",
    defaults=("element", False))


def _plus(universe, shifts):
    """The distinct u + s, for s in shifts and u in universe."""
    out, seen = [], set()
    for s in shifts:
        for u in universe:
            v = u + s
            if v.vec not in seen:
                seen.add(v.vec)
                out.append(v)
    return out


def _gl_translated(M, base, cap, dec):
    """O(M u (M + e)) inside S = M + R, e the new basis vector; a base entry
    of M is lifted into S, one of S is kept."""
    R = free_module(M.ring, 1)
    S, inj, inj_new = direct_sum_modules(M, R)
    universe = _plus([inj(x) for x in M.elements()],
                     (S.zero(), inj_new(R.gen(0))))
    return (gl_poset(S, universe, name="U(%s u %s+e)" % (M.name, M.name),
                     cap=cap),
            [inj(v) if v.module is M else v for v in base])


def _lambda_universe(Q, base, dec):
    """N = Q + H, the mu = 0 part of P + <e_1..e_g> inside N with P the
    complement of the Witt decomposition dec, and the base in N: an entry
    of Q is lifted, one of N is kept."""
    N, lift, _ = direct_sum_quadratic(Q, hyperbolic(Q.param, 1),
                                      name="%s + H" % Q.name)
    universe = [lift(dec.complement_incl(p))
                for p in dec.complement.module.elements()]
    for e, _f in dec.pairs:
        universe = _plus(universe, [lift(e) * c for c in range(Q.ring.size)])
    keep = N.mu_zero_rows(N.module.coord_rows(universe))
    return (N, [v for v, k in zip(universe, keep) if k],
            [lift(v) if v.module is Q.module else v for v in base])


def _lambda_poset(Q, base, cap, dec):
    """O(I(P + <e_1..e_g>, mu)) cap U(N, lambda), N = Q + H."""
    N, universe, base = _lambda_universe(Q, base, dec)
    return lambda_poset(N, universe, cap=cap), base


def _lambda_translated(Q, base, cap, dec):
    """The lambda-poset's universe U with its translate U + e, e the new
    hyperbolic basis vector of N = Q + H: orthogonal to U and isotropic, so
    U + e has mu = 0 too."""
    N, universe, base = _lambda_universe(Q, base, dec)
    universe = _plus(universe, (N.module.zero(), N.hyperbolic_pairs[-1][0]))
    return (lambda_poset(N, universe, name="I(P+(E u E+e)) cap U(%s,lam)"
                         % N.name, cap=cap), base)


def _perp_poset(Q, base, cap, dec):
    """U(Q, lambda, mu) on the universe <base>-perp."""
    perp, incl = orthogonal_complement(Q, list(base))
    universe = [incl(x) for x in perp.module.elements()]
    return mu_poset(Q, universe=universe, cap=cap), base


# Each builder names its poset function at call time, so a patched or
# traced module attribute is the one that runs.
THEOREMS = {
    "gl": Theorem(
        "O(M) cap U(M-inf) and its links: (rk - sr - k - 1)-connected",
        "sr", "rank", lambda rk, sr, k: rk - sr - k - 1,
        lambda M, base, cap, dec: (gl_poset(M, cap=cap), base)),
    "gl-translated": Theorem(
        "O(M u (M+e)) cap U(M+R) and its links: (rk - sr - k)-connected",
        "sr", "rank", lambda rk, sr, k: rk - sr - k, _gl_translated),
    "iu": Theorem(
        "IU(M)_x: floor((g - usr - |x| - 2)/2)-connected",
        "usr", "g", lambda g, usr, k: (g - usr - k - 2) // 2,
        lambda Q, base, cap, dec: (iu_poset(Q, cap=cap), base)),
    "hu": Theorem(
        "HU(M)_x: floor((g - usr - |x| - 3)/2)-connected",
        "usr", "g", lambda g, usr, k: (g - usr - k - 3) // 2,
        lambda Q, base, cap, dec: (hu_poset(Q, cap=cap), base),
        base="pair"),
    "hu-stable": Theorem(
        "HU(M)_x: floor((gbar - usr - |x| - 3)/2)-connected",
        "usr", "gbar", lambda gbar, usr, k: (gbar - usr - k - 3) // 2,
        lambda Q, base, cap, dec: (hu_poset(Q, cap=cap), base),
        base="pair"),
    "lambda-poset": Theorem(
        "O(I(P+E_g,mu)) cap U(N,lam) and its links: "
        "(g - usr - k - 1)-connected",
        "usr", "g", lambda g, usr, k: g - usr - k - 1, _lambda_poset),
    "lambda-translated": Theorem(
        "O(I(P+(E_g u E_g+e),mu)) cap U(N,lam) and its links: "
        "(g - usr - k)-connected",
        "usr", "g", lambda g, usr, k: g - usr - k, _lambda_translated),
    "mu-poset": Theorem(
        "O(M) cap U(N,lam,mu) and its links: (g - usr - k - 1)-connected",
        "usr", "g", lambda g, usr, k: g - usr - k - 1,
        lambda Q, base, cap, dec: (mu_poset(Q, cap=cap), base)),
    "perp-link": Theorem(
        "O(<v>-perp) cap U(M,lam,mu)_v: (g - usr - |v| - 1)-connected",
        "usr", "g", lambda g, usr, k: g - usr - k - 1, _perp_poset,
        needs_base=True),
}

# the names a theorem runs under: "<name>-link" is the entry at a base
NAMES = [name + suffix for name, entry in THEOREMS.items()
         for suffix in ("",) + (() if entry.needs_base else ("-link",))]


def lookup(theorem):
    """(registry name, entry) of a name of NAMES."""
    name = theorem[:-len("-link")] if theorem.endswith("-link") else theorem
    if theorem in THEOREMS:
        return theorem, THEOREMS[theorem]
    if name in THEOREMS and not THEOREMS[name].needs_base:
        return name, THEOREMS[name]
    raise KeyError("unknown theorem %r (have: %s)"
                   % (theorem, ", ".join(NAMES)))


def _invariant(key, X, rank, k_max):
    """The invariant a bound reads, with the Witt decomposition when it
    is g."""
    if key == "rank":
        return module_rank(X), None
    if key == "gbar":
        return stable_witt_index(X, k_max, usr=rank)["gbar"], None
    dec = witt_index(X, usr=rank)
    return dec.g, dec


def theorem_poset(theorem, X, rank, base=None, cap=5_000_000, k_max=1,
                  hypothesis=None):
    """(bound, poset) of a registry theorem: the poset verify checks, linked
    at base when one is given.  The invariant is recorded in hypothesis as
    soon as it is known.  Cap exits in the Witt search, the module
    enumeration or the pair tables raise."""
    name, entry = lookup(theorem)
    base = list(base or ())
    if (name != theorem or entry.needs_base) and not base:
        raise ValueError("%s needs a base" % theorem)
    hypothesis = {} if hypothesis is None else hypothesis
    value, dec = _invariant(entry.invariant, X, rank, k_max)
    hypothesis[entry.invariant] = value
    poset, atoms = entry.build(X, base, cap, dec)
    if base:
        poset = link(poset, atoms)
    return entry.bound(value, rank, len(base)), poset


def verify(theorem, X, rank, base=None, cap=5_000_000, k_max=1):
    """Report on a registry theorem (a name of NAMES) for X at rank sr or
    usr, on its link at base if given; k_max is the stabilization depth of
    the gbar invariant.  A cap exit ends as inconclusive with the reason,
    and with no bound or poset name; so does running out of memory while
    the poset is built, and after that with the bound and the name."""
    name, entry = lookup(theorem)
    if base and not entry.needs_base:
        name += "-link"
    hypothesis = {entry.rank: rank}
    if base:
        hypothesis["k"] = len(base)
    try:
        bound, poset = theorem_poset(theorem, X, rank, base, cap, k_max,
                                     hypothesis)
    except (CapExceeded, PosetCapExceeded, MemoryError) as exc:
        verdict = ConnectivityVerdict(None, "inconclusive",
                                      {"reason": exit_reason(exc)})
        return TheoremReport(name, None, verdict, hypothesis, None)
    try:
        verdict = connectivity_verdict(poset, bound)
    except MemoryError as exc:
        verdict = ConnectivityVerdict(bound, "inconclusive",
                                      {"reason": exit_reason(exc)})
    return TheoremReport(name, bound, verdict, hypothesis, poset.name)


def verify_gl_connectivity(M, sr, base=None, cap=5_000_000):
    """The "gl" theorem, linked at base if given."""
    return verify("gl", M, sr, base=base, cap=cap)


def verify_iu_connectivity(Q, usr, base=None, cap=5_000_000):
    """The "iu" theorem, linked at base if given."""
    return verify("iu", Q, usr, base=base, cap=cap)


def verify_hu_connectivity(Q, usr, base=None, cap=5_000_000, stable=False,
                           k_max=1):
    """The "hu" theorem ("hu-stable" if stable), linked at base if given."""
    return verify("hu-stable" if stable else "hu", Q, usr, base=base,
                  cap=cap, k_max=k_max)


# -- link isomorphisms (the Y := V-perp cap W-perp decompositions) -------------


def verify_link_isos(Q, x_pairs, usr, cap=100000):
    """Check the three link decompositions at x = ((v_1,w_1)..(v_k,w_k)):
    the IU link against IU(Y)<V>, and the HU link against HU(Y), with
    Y = V-perp cap W-perp; each checked as an explicit poset isomorphism.
    A cap exit in the Witt search, the pair tables or a compared simplex
    level, or running out of memory, returns {"result": "inconclusive",
    "reason": ...} instead; a simplex cap's reason names the poset and the
    level."""
    try:
        return _link_iso_results(Q, x_pairs, usr, cap)
    except (CapExceeded, PosetCapExceeded, MemoryError) as exc:
        return {"result": "inconclusive", "reason": exit_reason(exc)}


def _link_iso_results(Q, x_pairs, usr, cap):
    ring = Q.ring
    k = len(x_pairs)
    vs = [p[0] for p in x_pairs]
    ws = [p[1] for p in x_pairs]
    g = witt_index(Q, usr=usr).g
    if g < usr + k:
        raise ValueError("link isomorphism check needs g >= usr + k")
    Y, y_incl = orthogonal_complement(Q, vs + ws)
    tables = _PairTables(Q)
    tables_Y = _PairTables(Y)

    def decompose(u):
        """u in V-perp as (y in Y, x in V)."""
        x = Q.module.zero()
        for v, w in zip(vs, ws):
            x = x + v * Q.lam(w, u)
        y_amb = u - x
        y = y_incl.preimage(y_amb)
        if y is None:
            raise ValueError("decomposition left V + Y")
        return y, x

    # span of the v's, as explicit decorations
    V_elems = [Q.module.zero()]
    for v in vs:
        V_elems = _plus(V_elems, [v * c for c in range(ring.size)])

    results = {}

    # (1) IU(M)_(v_1..v_k)  =  IU(Y)<V>
    big = iu_poset(Q, tables=tables, cap=cap)
    lhs = link(big, vs)
    iu_y = iu_poset(Y, tables=tables_Y, cap=cap)
    rhs = decorate(iu_y, V_elems)
    fwd = {lhs.atoms[i]: decompose(lhs.atoms[i]) for i in lhs.vertex_ids}
    results["iu"] = _poset_iso_check(lhs, rhs, fwd)

    # (3) HU(M)_x = HU(Y)
    bigH = hu_poset(Q, tables=tables, cap=cap)
    lhsH = link(bigH, x_pairs)
    rhsH = hu_poset(Y, tables=tables_Y, cap=cap)
    fwdH = {}
    ok = True
    for i in lhsH.vertex_ids:
        ax, ay = lhsH.atoms[i]
        yx = y_incl.preimage(ax)
        yy = y_incl.preimage(ay)
        if yx is None or yy is None:
            ok = False
            break
        fwdH[lhsH.atoms[i]] = (yx, yy)
    results["hu"] = ok and _poset_iso_check(lhsH, rhsH, fwdH)

    # vertex-count sanity on the decoration
    results["decoration_count"] = (
        len(rhs.vertex_ids) == len(iu_y.vertex_ids) * len(V_elems))
    results["Y_size"] = Y.size
    return results


def _poset_iso_check(lhs, rhs, fwd, max_p=3):
    """fwd: map on lhs vertices.  Read as lhs atom id -> rhs atom id, it
    must be a bijection onto rhs's vertices that maps each level through
    max_p onto rhs's, the levels compared as sorted row keys.  A level past
    either poset's simplex cap raises PosetCapExceeded."""
    index = {a: i for i, a in enumerate(rhs.atoms)}
    perm = np.full(len(lhs.atoms), -1, dtype=np.int64)
    perm[lhs.vertex_ids] = [index.get(fwd.get(lhs.atoms[i]), -1)
                            for i in lhs.vertex_ids]
    if not np.array_equal(np.sort(perm[lhs.vertex_ids]), rhs.vertex_ids):
        return False
    for p in range(0, max_p + 1):
        image, level = perm[lhs.simplices(p)], rhs.simplices(p)
        if not np.array_equal(np.sort(_row_keys(image, len(rhs.atoms))),
                              np.sort(_row_keys(level, len(rhs.atoms)))):
            return False
    return True
