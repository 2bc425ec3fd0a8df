"""Connectivity verdicts and theorem-by-theorem verification harnesses.

A verdict certifies the stated connectivity level: vacuous for d <= -2,
nonemptiness for d = -1, and for d >= 0 path-connectedness plus vanishing
reduced homology through degree d, with a best-effort fundamental-group
simplification upgrading the certificate when it succeeds.  Refutations
carry witnesses.
"""

import numpy as np

from wittlab.homology import build_chain_complex, homology
from wittlab.modules import CapExceeded, rank as module_rank
from wittlab.posets import (
    PosetCapExceeded,
    gl_poset,
    hu_poset,
    iu_poset,
    link,
    mu_poset,
    decorate,
    _PairTables,
)
from wittlab.quadratic import witt_index, stable_witt_index


VERDICTS = ("vacuous", "nonempty-verified", "homology-verified",
            "fully-verified", "refuted", "inconclusive")


class ConnectivityVerdict:
    def __init__(self, target, result, detail=None):
        self.target = target
        self.result = result
        self.detail = detail or {}

    def ok(self):
        return self.result in ("vacuous", "nonempty-verified",
                               "homology-verified", "fully-verified")

    def to_dict(self):
        return {"target": self.target, "result": self.result,
                "detail": self.detail}

    def __repr__(self):
        return "Verdict(d=%s: %s)" % (self.target, self.result)


def _component_count(poset):
    """Number of path components, by BFS over the shrinking array of
    unvisited vertex ids: each vertex asks for its neighbors among those
    only, so no pair is tested once both ends are visited."""
    todo = np.array(poset.vertex_ids, dtype=np.intp)
    comps = 0
    while todo.size:
        comps += 1
        stack = [int(todo[0])]
        todo = todo[1:]
        while stack and todo.size:
            found = poset.neighbors(stack.pop(), among=todo)
            if found.size:
                todo = np.setdiff1d(todo, found, assume_unique=True)
                stack.extend(found.tolist())
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


def _pi1_trivial(poset, budget=200000):
    """Spanning-tree edge-path presentation plus length-1/2 Tietze
    eliminations (`_presentation_trivial`); True only when every generator
    dies."""
    verts = poset.vertex_ids
    if not verts:
        return False
    edges = poset.simplices(1)
    adj = {}
    for idx, (a, b) in enumerate(edges):
        adj.setdefault(a, []).append((b, idx))
        adj.setdefault(b, []).append((a, idx))
    root = verts[0]
    tree = set()
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w, idx in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                tree.add(idx)
                stack.append(w)
    if seen != set(verts):
        return False  # disconnected
    ngens = len(edges) - len(tree)
    if not ngens:
        return True
    edge_index = {e: i for i, e in enumerate(edges)}
    relators = []
    for (a, b, c) in poset.simplices(2):
        word = []
        for e, sign in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
            idx = edge_index.get(e)
            if idx is None:
                return False
            if idx not in tree:
                word.append(sign * (idx + 1))
        relators.append(word)
    return _presentation_trivial(ngens, relators, budget)


def _presentation_trivial(ngens, relators, budget=200000):
    """True when length-1/2 Tietze eliminations kill all ngens generators
    of the presentation; relators are words in signed generators (g or -g
    for the inverse, g > 0).

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
        relators = kept
    return len(dead) == ngens


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
    if d >= 1 and _pi1_trivial(poset, budget=pi1_budget):
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


def verify_gl_connectivity(M, sr, base=None, cap=5_000_000):
    """O(M) cap U(M-infinity) is (rk - sr - 1)-connected; with a base
    sequence the link variant at (rk - sr - k - 1)."""
    k = len(base) if base else 0
    hypothesis = {"sr": sr, "k": k} if base else {"sr": sr}

    def run():
        rk = hypothesis["rank"] = module_rank(M)
        return rk - sr - k - 1, gl_poset(M, cap=cap)

    return _theorem_report("gl-link" if base else "gl", hypothesis, run, base)


def _theorem_report(name, hypothesis, run, base):
    """Report on the poset run() builds, with its bound (on its link at
    base, if given).  A cap exit in the Witt search, the module enumeration
    or the pair tables ends as inconclusive with the reason, and with no
    bound or poset name."""
    try:
        bound, poset = run()
    except (CapExceeded, PosetCapExceeded) as exc:
        verdict = ConnectivityVerdict(None, "inconclusive",
                                      {"reason": str(exc)})
        return TheoremReport(name, None, verdict, hypothesis, None)
    if base:
        poset = link(poset, base)
    verdict = connectivity_verdict(poset, bound)
    return TheoremReport(name, bound, verdict, hypothesis, poset.name)


def verify_iu_connectivity(Q, usr, base=None, cap=5_000_000):
    """IU(M) is floor((g - usr - 2)/2)-connected; links lose |x|."""
    k = len(base) if base else 0
    hypothesis = {"usr": usr, "k": k} if base else {"usr": usr}

    def run():
        g = hypothesis["g"] = witt_index(Q, usr=usr).g
        poset = iu_poset(Q, tables=_PairTables(Q), cap=cap)
        return (g - usr - k - 2) // 2, poset

    return _theorem_report("iu-link" if base else "iu", hypothesis, run, base)


def verify_hu_connectivity(Q, usr, base=None, cap=5_000_000, stable=False,
                           k_max=1):
    """HU(M) is floor((g - usr - 3)/2)-connected (floor((gbar - usr - 3)/2)
    in the stable variant); links lose |x|."""
    k = len(base) if base else 0
    hypothesis = {"usr": usr, "k": k} if base else {"usr": usr}

    def run():
        if stable:
            g = hypothesis["gbar"] = stable_witt_index(Q, k_max,
                                                       usr=usr)["gbar"]
        else:
            g = hypothesis["g"] = witt_index(Q, usr=usr).g
        poset = hu_poset(Q, tables=_PairTables(Q), cap=cap)
        return (g - usr - k - 3) // 2, poset

    name = ("hu-stable" if stable else "hu") + ("-link" if base else "")
    return _theorem_report(name, hypothesis, run, base)


def verify_lambda_poset(Q, usr, base=None, cap=5_000_000):
    """O(I(P + <e_1..e_g>, mu)) cap U(N, lambda) is (g - usr - 1)-connected,
    verified inside N = M + H; links (at sequences in U(N, lambda)) lose k.

    A base entry may be given as an element of Q (lifted into N) or as a
    raw element of N.
    """
    import itertools as it

    from wittlab.posets import lambda_poset
    from wittlab.quadratic import direct_sum_quadratic, hyperbolic

    N, lift, _ = direct_sum_quadratic(Q, hyperbolic(Q.param, 1),
                                      name="%s + H" % Q.name)
    if base:
        base = [lift(v) if v.module is Q.module else v for v in base]
    k = len(base) if base else 0
    hypothesis = {"usr": usr, "k": k} if base else {"usr": usr}

    def run():
        dec = witt_index(Q, usr=usr)
        g = hypothesis["g"] = dec.g
        ring = Q.ring
        e_only = [lift(x) for x, _y in dec.pairs]
        P_elems = [lift(dec.complement_incl(p))
                   for p in dec.complement.module.elements()]
        universe = []
        seen = set()
        for coeffs in it.product(range(ring.size), repeat=len(e_only)):
            h = N.module.zero()
            for c, e in zip(coeffs, e_only):
                h = h + e * c
            for p in P_elems:
                v = p + h
                if v.vec not in seen and N.mu_zero(v):
                    seen.add(v.vec)
                    universe.append(v)
        return g - usr - k - 1, lambda_poset(N, universe, cap=cap)

    name = "lambda-poset-link" if base else "lambda-poset"
    return _theorem_report(name, hypothesis, run, base)


def verify_mu_poset(Q, usr, base=None, cap=5_000_000):
    """O(M) cap U(N, lambda, mu) is (g(M) - usr - 1)-connected (N = M here);
    links lose |v|."""
    k = len(base) if base else 0
    hypothesis = {"usr": usr, "k": k} if base else {"usr": usr}

    def run():
        g = hypothesis["g"] = witt_index(Q, usr=usr).g
        return g - usr - k - 1, mu_poset(Q, cap=cap)

    return _theorem_report("mu-poset-link" if base else "mu-poset",
                           hypothesis, run, base)


THEOREMS = {
    "gl": "O(M) cap U(M-inf): (rk - sr - 1)-connected",
    "gl-link": "links of the GL poset: (rk - sr - k - 1)-connected",
    "iu": "IU(M): floor((g - usr - 2)/2)-connected",
    "iu-link": "IU(M)_x: floor((g - usr - |x| - 2)/2)-connected",
    "hu": "HU(M): floor((g - usr - 3)/2)-connected",
    "hu-link": "HU(M)_x: floor((g - usr - |x| - 3)/2)-connected",
    "hu-stable": "HU(M): floor((gbar - usr - 3)/2)-connected",
    "lambda-poset": "O(I(P+E_g,mu)) cap U(N,lam): (g - usr - 1)-connected",
    "mu-poset": "O(M) cap U(N,lam,mu): (g - usr - 1)-connected",
}


# -- link isomorphisms (the Y := V-perp cap W-perp decompositions) -------------


def verify_link_isos(Q, x_pairs, usr, cap=100000):
    """Check the three link decompositions at x = ((v_1,w_1)..(v_k,w_k)):
    the IU link against IU(Y)<V>, and the HU link against HU(Y), with
    Y = V-perp cap W-perp; each checked as an explicit poset isomorphism.
    A cap exit in the Witt search or the pair tables returns
    {"result": "inconclusive", "reason": ...} instead."""
    from wittlab.quadratic import orthogonal_complement

    ring = Q.ring
    k = len(x_pairs)
    vs = [p[0] for p in x_pairs]
    ws = [p[1] for p in x_pairs]
    try:
        g = witt_index(Q, usr=usr).g
        if g < usr + k:
            raise ValueError("link isomorphism check needs g >= usr + k")
        Y, y_incl = orthogonal_complement(Q, vs + ws)
        tables = _PairTables(Q)
        tables_Y = _PairTables(Y)
    except (CapExceeded, PosetCapExceeded) as exc:
        return {"result": "inconclusive", "reason": str(exc)}

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
    V_elems = []
    seen = set()
    import itertools as it

    for coeffs in it.product(range(ring.size), repeat=k):
        acc = Q.module.zero()
        for c, v in zip(coeffs, vs):
            acc = acc + v * c
        if acc.vec not in seen:
            seen.add(acc.vec)
            V_elems.append(acc)

    results = {}

    # (1) IU(M)_(v_1..v_k)  =  IU(Y)<V>
    big = iu_poset(Q, tables=tables, cap=cap)
    lhs = link(big, vs)
    rhs = decorate(iu_poset(Y, tables=tables_Y, cap=cap), V_elems)
    fwd = {}
    for i in lhs.vertex_ids:
        a = lhs.atoms[i]
        y, x = decompose(a)
        fwd[a] = (y, next(e for e in V_elems if e == x))
    results["iu"] = _poset_iso_check(lhs, rhs, fwd, cap)

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
    results["hu"] = ok and _poset_iso_check(lhsH, rhsH, fwdH, cap)

    # vertex-count sanity on the decoration
    iu_y = iu_poset(Y, tables=tables_Y, cap=cap)
    results["decoration_count"] = (
        len(rhs.vertex_ids) == len(iu_y.vertex_ids) * len(V_elems))
    results["Y_size"] = Y.size
    return results


def _poset_iso_check(lhs, rhs, fwd, cap, max_p=3):
    """fwd: map on lhs vertices; checks bijectivity on vertices and
    membership preservation in both directions through dimension max_p."""
    lhs_verts = [lhs.atoms[i] for i in lhs.vertex_ids]
    rhs_verts = {rhs.atoms[i] for i in rhs.vertex_ids}
    imgs = {}
    for a in lhs_verts:
        if a not in fwd:
            return False
        imgs[a] = fwd[a]
    if len(set(map(tuple_key, imgs.values()))) != len(lhs_verts):
        return False
    if {tuple_key(v) for v in imgs.values()} != \
            {tuple_key(v) for v in rhs_verts}:
        return False
    inv = {tuple_key(v): a for a, v in imgs.items()}
    for p in range(0, max_p + 1):
        try:
            lhs_level = lhs.simplices(p)
        except PosetCapExceeded:
            return True
        for seq in lhs_level:
            image = tuple(imgs[lhs.atoms[i]] for i in seq)
            if not rhs.member_atoms(image):
                return False
        try:
            rhs_level = rhs.simplices(p)
        except PosetCapExceeded:
            return True
        if len(rhs_level) != len(lhs_level):
            return False
        for seq in rhs_level:
            pre = tuple(inv[tuple_key(rhs.atoms[i])] for i in seq)
            if not lhs.member_atoms(pre):
                return False
    return True


def tuple_key(v):
    if isinstance(v, tuple):
        return tuple(tuple_key(x) for x in v)
    return v.vec


def verify_perp_link(Q, base, usr, cap=5_000_000):
    """O(<v>-perp) cap U(M, lambda, mu)_v is (g - usr - |v| - 1)-connected:
    the orthogonal-complement link variant."""
    from wittlab.quadratic import orthogonal_complement

    k = len(base)
    hypothesis = {"usr": usr, "k": k}

    def run():
        g = hypothesis["g"] = witt_index(Q, usr=usr).g
        perp, incl = orthogonal_complement(Q, list(base))
        universe = [incl(x) for x in perp.module.elements()]
        restricted = SequencePosetRestriction(mu_poset(Q, cap=cap), universe)
        return g - usr - k - 1, restricted

    return _theorem_report("perp-link", hypothesis, run, base)


def SequencePosetRestriction(F, universe):
    """The subposet on a smaller universe with the same membership."""
    from wittlab.posets import SequencePoset

    def raw(seq):
        return F.member_atoms(seq)

    return SequencePoset("%s|restricted" % F.name, universe, raw,
                         entry_cap=F.entry_cap)
