"""Stable rank sr(R), transitivity (T_n), and unitary stable rank usr(R).

(S_n) sweeps enumerate all unimodular rows of R^(n+1) and search shortening
vectors; (T_n) partitions the unimodular vectors of H^n by their mu-class
and runs orbit BFS under the elementary unitary generators.  Everything is
budgeted; RangeReports carry the verdict plus a witness or certificate.
"""

import itertools

import numpy as np

from wittlab.linalg import row_unimodular
from wittlab.quadratic import hyperbolic, transvection, unitary_group

DEFAULT_BUDGET = 1 << 22


class BudgetExceeded(RuntimeError):
    pass


class RangeReport:
    """Outcome of one (S_n) / (T_n) / (US_n) check."""

    def __init__(self, ring, prop, n, verdict, witness=None, stats=None,
                 mode=None):
        self.ring = ring
        self.prop = prop
        self.n = n
        self.verdict = verdict  # "holds" | "fails" | "budget"
        self.witness = witness
        self.stats = stats or {}
        self.mode = mode
        if verdict == "holds":
            assert witness is None
        if verdict == "fails":
            assert witness is not None

    def to_dict(self):
        return {
            "ring": self.ring.name,
            "property": self.prop,
            "n": self.n,
            "verdict": self.verdict,
            "witness": self.witness,
            "stats": self.stats,
            "mode": self.mode,
        }

    def __repr__(self):
        return "RangeReport(%s, %s_%d: %s)" % (
            self.ring.name, self.prop, self.n, self.verdict)


def check_Sn(ring, n, budget=DEFAULT_BUDGET):
    """(S_n): every unimodular row of R^(n+1) shortens to R^n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    size = ring.size ** (n + 1)
    if size > budget:
        raise BudgetExceeded("(S_%d) sweep needs %d rows" % (n, size))
    uni_short = {}

    def short_unimodular(row):
        if row not in uni_short:
            uni_short[row] = row_unimodular(ring, row)
        return uni_short[row]

    visits = 0
    checked = 0
    for row in itertools.product(range(ring.size), repeat=n + 1):
        if not row_unimodular(ring, row):
            continue
        checked += 1
        last = row[n]
        found = False
        for t in itertools.product(range(ring.size), repeat=n):
            visits += 1
            if visits > budget:
                raise BudgetExceeded("(S_%d) shortening search" % n)
            shortened = tuple(
                int(ring.add[row[i], ring.mul[t[i], last]]) for i in range(n))
            if short_unimodular(shortened):
                found = True
                break
        if not found:
            return RangeReport(ring, "S", n, "fails", witness=list(row),
                               stats={"checked": checked, "visits": visits})
    return RangeReport(ring, "S", n, "holds",
                       stats={"checked": checked, "visits": visits})


class StableRankResult:
    def __init__(self, value, reports):
        self.value = value  # int or None (> n_max)
        self.reports = reports

    def __repr__(self):
        return "sr=%s" % (self.value if self.value is not None else ">max")


def stable_rank(ring, n_max, budget=DEFAULT_BUDGET):
    """Least n <= n_max with (S_n), walking upward."""
    reports = []
    for n in range(1, n_max + 1):
        rep = check_Sn(ring, n, budget=budget)
        reports.append(rep)
        if rep.verdict == "holds":
            return StableRankResult(n, reports)
    return StableRankResult(None, reports)


# -- the EU-orbit engine and (T_n) -------------------------------------------
# The generators of each (H, u_mode) and their stacked matrices are cached in
# H.eu_cache, so each transvection is built and verified unitary once per H
# and the cache lives exactly as long as H.  The BFS keeps only its frontier,
# so what it holds does not grow with |H|.

CHUNK = 1 << 18  # image coordinates the BFS computes at once


def elementary_unitary_generators(ring, param, n, u_mode="all", H=None):
    """Transvections tau(b, u, x): b a standard basis vector of H^n, u over
    vectors supported off the dual coordinate of b with lambda(b, u) = 0,
    x over representatives of mu(u).

    u_mode "all" emits the full family; "basis" restricts u to the zero
    vector and single-coordinate vectors (the subgroup generated is the
    same by the Eichler composition law, which check_Tn does not assume:
    it only uses the reduced family for sound "holds" verdicts).  The
    family is cached on H: a repeated call returns the cached list.
    """
    if H is None:
        H = hyperbolic(param, n)
    if ("gens", u_mode) in H.eu_cache:
        return H, list(H.eu_cache[("gens", u_mode)])
    module = H.module
    gens = []
    lam = param.lam
    for bi in range(2 * n):
        b = module.gen(bi)
        dual = bi + 1 if bi % 2 == 0 else bi - 1
        support = [i for i in range(2 * n) if i != dual]
        if u_mode == "all":
            u_blocks = (
                dict(zip(support, coeffs))
                for coeffs in itertools.product(range(ring.size),
                                                repeat=len(support))
            )
        elif u_mode == "basis":
            singles = [{}]
            singles += [{i: c} for i in support for c in range(1, ring.size)]
            u_blocks = iter(singles)
        else:
            raise ValueError("unknown u_mode %r" % u_mode)
        for placed in u_blocks:
            blocks = [ring.zero] * (2 * n)
            for i, c in placed.items():
                blocks[i] = c
            u = module.element(blocks)
            mu_rep = H.mu_rep(u)
            for l in lam:
                x = int(ring.add[mu_rep, l])
                t = transvection(H, b, u, x)
                gens.append(t)
    # dedupe by action
    seen = set()
    out = []
    for t in gens:
        k = t.key()
        if k not in seen:
            seen.add(k)
            out.append(t)
    H.eu_cache[("gens", u_mode)] = out
    return H, list(out)


def _mu_class_partition(H, budget):
    """The unimodular vectors of H by mu-class, in enumeration order.  mu of
    every element comes from one product over q_coeffs; left-unimodularity
    depends only on the set of entries, so it is solved once per set."""
    ring = H.ring
    module = H.module
    if module.size > budget:
        raise BudgetExceeded("H^n too large to enumerate")
    elems, V = module.element_rows(cap=module.size)
    mu = H.mu_reps(V).tolist()
    entries = np.sort(ring.indices(V.reshape(len(elems), module.ngens,
                                             ring.base_dim)), axis=1)
    rows, inverse = np.unique(entries, axis=0, return_inverse=True)
    unimodular = {}  # per entry set
    row_ok = []
    for row in rows.tolist():
        key = frozenset(row)
        if key not in unimodular:
            unimodular[key] = row_unimodular(ring, key)
        row_ok.append(unimodular[key])
    ok = np.array(row_ok, dtype=bool)[inverse.reshape(-1)] & V.any(axis=1)
    classes = {}
    for i in np.flatnonzero(ok).tolist():
        classes.setdefault(mu[i], []).append(elems[i])
    return classes


def _codes(rows, m):
    """Mixed-radix codes (base m, first column most significant) of the rows
    of an integer array."""
    rows = np.asarray(rows, dtype=np.int64)
    width = rows.shape[1]
    return (rows % m) @ (m ** np.arange(width - 1, -1, -1, dtype=np.int64))


def element_codes(H, rows):
    """Indices in H's element enumeration of coordinate rows; H must be
    free (no relators to reduce by), as every H^n is."""
    if H.module.relators:
        raise ValueError("the EU-orbit engine needs a free module")
    return _codes(rows, H.ring.base_mod)


def _gen_permutations(H, gens):
    """The generators' actions on coordinate rows, as one nd x (G * nd)
    matrix: row block x @ M holds the images of x under each generator."""
    return np.hstack([t.f.B.T for t in gens])


def _bfs(mats, m, start, target, budget, spent):
    """Level-synchronous BFS from `start`, a k x nd array of coordinate rows
    moved entrywise by the generators stacked in `mats` (as built by
    _gen_permutations).  Only the frontier is kept as coordinates; a state
    is one mixed-radix int over its k * nd coordinates.

    With a `target` (coordinate rows -> bool mask) it stops at the first
    state whose entries all satisfy it, in the (state, generator) order of
    an object-by-object BFS, and returns the generator path to it; without
    one it walks the whole orbit.  Expanding a state costs one visit per
    generator, counted with `spent` against `budget`.
    Returns (path or None, sorted codes of the reached states, spent).
    """
    k, nd = start.shape
    ngens = mats.shape[1] // nd
    if m ** (k * nd) >= 1 << 62:
        raise BudgetExceeded("state space of %d-tuples too large" % k)
    radix = m ** np.arange(k * nd - 1, -1, -1, dtype=np.int64)
    frontier = start.reshape(1, k * nd) % m
    seen = frontier @ radix
    levels = []  # per level: (parent position, generator) of each new state
    hit = None
    while len(frontier) and hit is None:
        # chunks of 1, 2, 4, ... states: a hit early in the level ends the
        # level early, and a long level still takes few numpy calls
        lo, step, cap = 0, 1, max(1, CHUNK // (ngens * k * nd))
        found = []  # per chunk: (position, code, coordinates) of unseen images
        while lo < len(frontier):
            rows = frontier[lo:lo + step]
            spent += len(rows) * ngens
            if spent > budget:
                raise BudgetExceeded("EU orbit BFS budget")
            imgs = (rows.reshape(-1, nd) @ mats) % m  # (F*k) x (G*nd)
            imgs = imgs.reshape(len(rows), k, ngens, nd).transpose(0, 2, 1, 3)
            imgs = imgs.reshape(len(rows) * ngens, k * nd)
            codes = imgs @ radix
            at = np.minimum(np.searchsorted(seen, codes), len(seen) - 1)
            fresh = np.flatnonzero(seen[at] != codes)
            found.append((fresh + lo * ngens, codes[fresh], imgs[fresh]))
            if target is not None and target(
                    imgs[fresh].reshape(-1, nd)).reshape(-1, k).all(1).any():
                break  # the level's first hit lies in this chunk
            lo, step = lo + len(rows), min(2 * step, cap)
        pos, codes, imgs = (np.concatenate(a) for a in zip(*found))
        codes, first = np.unique(codes, return_index=True)
        order = np.argsort(first)
        frontier = imgs[first[order]]
        pos = pos[first[order]]
        levels.append((pos // ngens, pos % ngens))
        # codes are unique and none is in seen, so this is their union
        seen = np.sort(np.concatenate([seen, codes]))
        if target is not None:
            hits = np.flatnonzero(
                target(frontier.reshape(-1, nd)).reshape(-1, k).all(1))
            hit = hits[0] if len(hits) else None
    if hit is None:
        return None, seen, spent
    path = []
    for parent, gen in reversed(levels):
        path.append(int(gen[hit]))
        hit = parent[hit]
    return path[::-1], seen, spent


def eu_search(H, xs, target=None, want=None, budget=DEFAULT_BUDGET, spent=0):
    """BFS from the elements xs of H (moved entrywise) under the basis-u
    family, and again under the full family when that one falls short: no
    state whose coordinate rows all satisfy target(rows) -> bool mask, or
    with no target an orbit other than the sorted code array `want` (codes
    as element_codes gives them).  A start already on target returns the
    empty word before any generator is built.  Returns (word or None,
    sorted codes of the reached states, u_mode, spent); the word lists the
    cached generators in application order."""
    m = H.ring.base_mod
    start = np.array([x.vec for x in xs], dtype=np.int64).reshape(
        len(xs), H.module.nd)
    element_codes(H, start)  # refuses a presented H
    if target is not None and target(start).all():
        return [], _codes(start.reshape(1, -1), m), "basis", spent
    for u_mode in ("basis", "all"):
        _, gens = elementary_unitary_generators(
            H.ring, H.param, len(H.hyperbolic_pairs), u_mode=u_mode, H=H)
        if ("mats", u_mode) not in H.eu_cache:
            H.eu_cache[("mats", u_mode)] = _gen_permutations(H, gens)
        path, reached, spent = _bfs(H.eu_cache[("mats", u_mode)], m, start,
                                    target, budget, spent)
        if path is not None or (target is None
                                and np.array_equal(reached, want)):
            break
    word = None if path is None else [gens[i] for i in path]
    return word, reached, u_mode, spent


def check_Tn(ring, param, n, budget=DEFAULT_BUDGET, mode="transvection"):
    """(T_n): the elementary unitary group is transitive on each mu-class of
    unimodular vectors of H^n.  mode "full-u" uses full U(H^n) orbits.

    In transvection mode the BFS first runs under the reduced (basis-u)
    family, which is sound for a "holds" verdict; classes it leaves split
    are retried under the full u sweep before any "fails" verdict.
    """
    if mode == "transvection":
        H, gens = elementary_unitary_generators(ring, param, n, u_mode="basis")
    elif mode == "full-u":
        H = hyperbolic(param, n)
        gens = unitary_group(H, cap=budget)
    else:
        raise ValueError("unknown mode %r" % mode)
    classes = _mu_class_partition(H, budget)
    visits = 0
    stats = {"classes": len(classes), "generators": len(gens)}
    for rep_mu, members in sorted(classes.items()):
        member_idx = np.sort(element_codes(H, [x.vec for x in members]))
        if mode == "full-u":
            # the orbit under the whole group is the set of images of the seed
            visits += len(gens)
            if visits > budget:
                raise BudgetExceeded("full-U orbit budget")
            seen = np.unique(element_codes(H, [t(members[0]).vec
                                               for t in gens]))
        else:
            _, seen, u_mode, visits = eu_search(
                H, members[:1], want=member_idx, budget=budget, spent=visits)
            if u_mode == "all":
                stats["generators_full"] = len(H.eu_cache[("gens", "all")])
        if not np.array_equal(seen, member_idx):
            missing = int(np.setdiff1d(member_idx, seen)[0])
            m = ring.base_mod
            unreached = [missing // m ** i % m
                         for i in reversed(range(H.module.nd))]
            return RangeReport(ring, "T", n, "fails",
                               witness={"mu": rep_mu,
                                        "orbit_size": len(seen),
                                        "class_size": len(member_idx),
                                        "unreached": unreached},
                               stats=dict(stats, visits=visits), mode=mode)
    return RangeReport(ring, "T", n, "holds",
                       stats=dict(stats, visits=visits), mode=mode)


class UsrResult:
    def __init__(self, value, reports, semi_local_ok=None):
        self.value = value
        self.reports = reports
        self.semi_local_ok = semi_local_ok

    def __repr__(self):
        return "usr=%s" % (self.value if self.value is not None else ">max")


def unitary_stable_rank(ring, param, n_max, budget=DEFAULT_BUDGET,
                        mode="transvection"):
    """Least n <= n_max with (S_n) and (T_{n+1}).

    Cross-checks the semi-local bound usr <= 2 (every tabulated ring is
    finite, hence semi-local).
    """
    reports = []
    value = None
    for n in range(1, n_max + 1):
        s = check_Sn(ring, n, budget=budget)
        reports.append(s)
        if s.verdict != "holds":
            continue
        t = check_Tn(ring, param, n + 1, budget=budget, mode=mode)
        reports.append(t)
        if t.verdict == "holds":
            value = n
            break
    semi_local_ok = None
    if value is not None:
        semi_local_ok = value <= 2
    return UsrResult(value, reports, semi_local_ok)
