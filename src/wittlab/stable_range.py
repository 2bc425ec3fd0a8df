"""Stable rank sr(R), transitivity (T_n), and unitary stable rank usr(R).

(S_n) sweeps enumerate all unimodular rows of R^(n+1) and search shortening
vectors; (T_n) partitions the unimodular vectors of H^n by their mu-class
and runs orbit BFS under the elementary unitary generators.  GL transitivity
on the unimodular elements of any module walks the same BFS under the
elementary automorphisms.  Everything is budgeted; RangeReports carry the
verdict plus a witness or certificate.
"""

import functools

import numpy as np

from wittlab.linalg import unimodular_rows
from wittlab.modules import (ModuleMap, act_columns, functional_space,
                             is_isomorphic, rank, split_summand)
from wittlab.posets import gl_poset
from wittlab.quadratic import (
    UnitaryMap,
    hyperbolic,
    isometry_mask,
    transvection_matrices,
    unitary_group,
)
from wittlab.rings import RingError

DEFAULT_BUDGET = 1 << 22
CHUNK = 1 << 18  # array cells a chunked sweep or BFS step computes at once
# an orbit walk over at most BITMAP_STATES states keeps one byte per state
# as its visited set, a walk over more keeps sorted codes
BITMAP_STATES = 1 << 22
GROUP_VALUES = 256  # entries of one digit group's image table, at most
RUN_BITS = 12  # packed bits one reduction lookup reads, at most


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
        if verdict == "holds" and witness is not None:
            raise ValueError("a holding check carries no witness")
        if verdict == "fails" and witness is None:
            raise ValueError("a failing check needs a witness")

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
    """(S_n): every unimodular row of R^(n+1) shortens to R^n.

    The rows r go in product order, and for each the shortenings
    (r_i + t_i r_n)_i in product order of t, up to the first unimodular
    one; each one tried is a visit.  A chunk of rows and all of their
    shortenings are tested at once, and the counts, the budget exit and
    the first failing row are read off as a row-by-row search meets
    them."""
    if n < 1:
        raise ValueError("n >= 1 required")
    size = ring.size ** (n + 1)
    if size > budget:
        raise BudgetExceeded("(S_%d) sweep needs %d rows" % (n, size))
    memo = {}
    ts = _digits(np.arange(ring.size ** n), ring.size, n)
    step = max(1, CHUNK // (len(ts) * n))
    visits = 0
    checked = 0
    for lo in range(0, size, step):
        rows = _digits(np.arange(lo, min(lo + step, size)), ring.size, n + 1)
        rows = rows[unimodular_rows(ring, rows, memo)]
        if not len(rows):
            continue
        short = ring.add[rows[:, None, :n],
                         ring.mul[ts[None], rows[:, None, n:]]]
        hit = unimodular_rows(ring, short.reshape(-1, n), memo).reshape(
            len(rows), len(ts))
        found = hit.any(axis=1)
        spent = visits + np.cumsum(np.where(found, hit.argmax(axis=1) + 1,
                                            len(ts)))
        fails = np.flatnonzero(~found)
        last = fails[0] if len(fails) else len(rows) - 1
        if spent[last] > budget:
            raise BudgetExceeded("(S_%d) shortening search" % n)
        if len(fails):
            return RangeReport(ring, "S", n, "fails",
                               witness=rows[last].tolist(),
                               stats={"checked": checked + int(last) + 1,
                                      "visits": int(spent[last])})
        visits = int(spent[-1])
        checked += len(rows)
    return RangeReport(ring, "S", n, "holds",
                       stats={"checked": checked, "visits": visits})


class StableRankResult:
    def __init__(self, value, reports):
        self.value = value  # int or None (> n_max)
        self.reports = reports

    def __repr__(self):
        return "sr=%s" % (self.value if self.value is not None else ">max")


def stable_rank(ring, n_max):
    """Least n <= n_max with (S_n), walking upward."""
    reports = []
    for n in range(1, n_max + 1):
        rep = check_Sn(ring, n)
        reports.append(rep)
        if rep.verdict == "holds":
            return StableRankResult(n, reports)
    return StableRankResult(None, reports)


# -- the EU-orbit engine and (T_n) -------------------------------------------
# The generators of each (H, u_mode) and their image tables are cached in
# H.eu_cache, so each distinct transvection is verified unitary once per H
# and the cache lives exactly as long as H.  The BFS keeps its frontier and
# its visited set, a byte per state only while the states are few.


def _u_blocks(ring, ngens, support, u_mode):
    """The u's of one basis vector's family as ring-index rows: every
    vector supported on `support` in product order ("all"), or the zero
    vector and then c * g_i for i in support, c != 0 ("basis")."""
    if u_mode == "all":
        rows = _digits(np.arange(ring.size ** len(support)), ring.size,
                       len(support))
    elif u_mode == "basis":
        rows = np.kron(np.eye(len(support), dtype=np.int64),
                       np.arange(1, ring.size)[:, None])
        rows = np.vstack([np.zeros_like(rows[:1]), rows])
    else:
        raise ValueError("unknown u_mode %r" % u_mode)
    blocks = np.zeros((len(rows), ngens), dtype=np.int64)
    blocks[:, support] = rows
    return blocks


def elementary_unitary_generators(ring, param, n, u_mode="all", H=None):
    """Transvections tau(b, u, x): b a standard basis vector of H^n, u over
    vectors supported off the dual coordinate of b with lambda(b, u) = 0,
    x over representatives of mu(u).

    u_mode "all" emits the full family; "basis" restricts u to the zero
    vector and single-coordinate vectors (the subgroup generated is the
    same by the Eichler composition law, which check_Tn does not assume:
    it only uses the reduced family for sound "holds" verdicts).  The
    family is cached on H: a repeated call returns the cached list.

    Each b's matrices come from transvection_matrices a chunk of (u, x)
    rows at a time, in the order (b, u, x in mu(u) + Lambda); a matrix
    equal to an earlier one (the same map) is dropped, and the kept
    matrices are verified unitary together by one isometry_mask call.
    """
    if H is None:
        H = hyperbolic(param, n)
    if ("gens", u_mode) in H.eu_cache:
        return H, list(H.eu_cache[("gens", u_mode)])
    module = H.module
    lam = np.array(list(param.lam), dtype=np.int64)
    step = max(1, CHUNK // (module.nd * module.nd * len(lam)))
    seen = set()
    out = []
    for bi in range(2 * n):
        b = module.gen(bi).vec
        support = [i for i in range(2 * n) if i != bi ^ 1]
        blocks = _u_blocks(ring, 2 * n, support, u_mode)
        for lo in range(0, len(blocks), step):
            U = ring.to_base[blocks[lo:lo + step]].reshape(-1, module.nd)
            X = ring.add[np.repeat(H.mu_reps(U), len(lam)),
                         np.tile(lam, len(U))]
            U = np.repeat(U, len(lam), axis=0)
            for B, u, x in zip(transvection_matrices(H, b, U, X),
                               U.tolist(), X.tolist()):
                key = B.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                f = ModuleMap.from_matrix(module, module, B, check=False)
                out.append(UnitaryMap(H, f, check=False,
                                      tag=("tau", b, tuple(u), x)))
    mats = np.array([t.f.B for t in out], dtype=np.int64)
    if not isometry_mask(H, H, mats.reshape(-1, module.nd, module.nd)).all():
        raise RingError("map is not unitary")
    H.eu_cache[("gens", u_mode)] = out
    return H, list(out)


def _mu_class_partition(H, budget):
    """The unimodular vectors of H by mu-class: {mu: sorted element codes}
    (codes as element_codes gives them).  H is free, so the element with
    code c has the base-m digits of c as coordinates; they are read off a
    chunk of codes at a time, mu from one product over q_coeffs and
    unimodularity from unimodular_rows."""
    ring = H.ring
    module = H.module
    if module.size > budget:
        raise BudgetExceeded("H^n too large to enumerate")
    if module.relators:
        raise ValueError("the EU-orbit engine needs a free module")
    memo = {}
    mus, codes = [], []
    step = max(1, CHUNK // module.nd)
    for lo in range(0, module.size, step):
        code = np.arange(lo, min(lo + step, module.size), dtype=np.int64)
        V = _digits(code, ring.base_mod, module.nd)
        entries = ring.indices(V.reshape(len(V), module.ngens,
                                         ring.base_dim))
        ok = unimodular_rows(ring, entries, memo) & (code != 0)
        mus.append(H.mu_reps(V[ok]))
        codes.append(code[ok])
    mu, code = np.concatenate(mus), np.concatenate(codes)
    order = np.argsort(mu, kind="stable")
    keys, starts = np.unique(mu[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(code[order], starts[1:])))


def _codes(rows, m):
    """Mixed-radix codes (base m, first column most significant) of the rows
    of an integer array."""
    rows = np.asarray(rows, dtype=np.int64)
    width = rows.shape[1]
    return (rows % m) @ (m ** np.arange(width - 1, -1, -1, dtype=np.int64))


def _digits(codes, base, width):
    """The rows of `width` columns whose mixed-radix codes (base `base`,
    first column most significant) are the int array `codes`: the inverse
    of _codes, and row c of a product enumeration."""
    return np.asarray(codes, dtype=np.int64)[:, None] \
        // base ** np.arange(width - 1, -1, -1, dtype=np.int64) % base


def _canon_rows(module, V):
    """The rows of the int array V (k x nd) in the module's canonical form:
    V mod m on a free module."""
    return module.canon_columns(V.T).T


def element_codes(H, rows):
    """The codes (as _codes gives them) of the canonical forms of coordinate
    rows of H's module; on a free module, as every H^n is, the indices in
    its element enumeration."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, H.module.nd)
    return _codes(_canon_rows(H.module, rows), H.ring.base_mod)


class _ImageTables:
    """Digit-group image tables of a stack of generators of a module.

    A vector code's nd base-m digits (element_codes) split into t groups of
    at most w digits, m^w <= GROUP_VALUES.  Entry [v, j, g] of a group's
    table is word j of generator g's image of the group's part v: its nd
    coordinates reduced mod m, packed as fields of b = bit_length(t (m - 1))
    bits into words of at most 63 bits, so the t entries a code gathers add
    up with no carry between fields.  A run of fields of at most RUN_BITS
    bits is then reduced mod m and re-encoded by one lookup, and the image
    code is the sum of those lookups.  On a presented module the fields are
    read off as coordinates instead and put in canonical form."""

    def __init__(self, module, BT):
        m, nd = module.ring.base_mod, module.nd
        BT = np.asarray(BT, dtype=np.int64).reshape(-1, nd, nd) % m
        self.module, self.ngens = module, len(BT)
        w = 1
        while m ** (w + 1) <= GROUP_VALUES:
            w += 1
        bounds = list(range(0, nd, w)) + [nd]
        bits = ((len(bounds) - 1) * (m - 1)).bit_length()
        per_run = max(1, RUN_BITS // bits)
        per_word = max(1, 63 // (per_run * bits))  # runs in one word
        run = np.arange(nd) // per_run
        word = run // per_word
        offset = bits * (run % per_word * per_run + np.arange(nd) % per_run)
        nwords = int(word[-1]) + 1
        self.groups = []  # (divisor, table) per digit group
        for lo, hi in zip(bounds, bounds[1:]):
            # the images of the group's parts, one digit at a time, in
            # int16 (m <= SIZE_CAP = 256): a sum of two images is < 2m
            Y = np.zeros((1, self.ngens, nd), dtype=np.int16)
            for i in range(lo, hi):
                step = (np.arange(m)[:, None, None] * BT[:, i]) % m
                Y = (Y[:, None] + step.astype(np.int16)).reshape(
                    -1, self.ngens, nd)
                Y = np.where(Y >= m, Y - m, Y)
            table = np.zeros((len(Y), nwords, self.ngens), dtype=np.int64)
            for c in range(nd):
                table[:, word[c]] += Y[:, :, c].astype(np.int64) << int(
                    offset[c])
            self.groups.append((m ** (nd - hi), table))
        self.fmask = (1 << bits) - 1
        self.fields = list(zip(word.tolist(), offset.tolist()))  # per coord
        self.runs = []  # (word, shift, mask, lookup) per run of fields
        for r in range(int(run[-1]) + 1):
            cs = np.flatnonzero(run == r)
            keys = np.arange(1 << (bits * len(cs)), dtype=np.int64)
            lookup = sum((keys >> (bits * i) & self.fmask) % m
                         * m ** (nd - 1 - c)
                         for i, c in enumerate(cs.tolist()))
            self.runs.append((int(word[cs[0]]), int(offset[cs[0]]),
                              (1 << bits * len(cs)) - 1, lookup))

    def images(self, codes):
        """The (N, G) canonical image codes of the N vector codes."""
        module = self.module
        codes = np.asarray(codes, dtype=np.int64)
        packed = np.zeros((len(codes),) + self.groups[0][1].shape[1:],
                          dtype=np.int64)
        for div, table in self.groups:
            packed += table.take(codes // div % len(table), axis=0)
        if module.relators:
            # the fields are the images' coordinates up to multiples of m,
            # which canon_columns reduces with the relations
            A = np.stack([packed[:, j] >> shift & self.fmask
                          for j, shift in self.fields])
            A = module.canon_columns(A.reshape(module.nd, -1))
            return _codes(A.T, module.ring.base_mod).reshape(
                len(codes), self.ngens)
        out = np.zeros((len(codes), self.ngens), dtype=np.int64)
        field = np.empty_like(out)
        for j, shift, mask, lookup in self.runs:
            np.right_shift(packed[:, j], shift, out=field)
            field &= mask
            out += lookup.take(field)
        return out


def _gen_permutations(module, BT):
    """The image tables of the generators stacked in BT (G x nd x nd; row i
    of BT[g] holds the coordinates of generator g's image of basis vector
    i)."""
    return _ImageTables(module, BT)


def _bfs(tables, start, target, budget, spent):
    """Level-synchronous BFS from `start`, the k canonical vector codes of a
    tuple of elements of tables.module, moved entrywise by the generators
    of `tables`.  A state is one mixed-radix int, the concatenation of its
    vector codes; only the frontier is kept.  The states seen are a byte
    per state while there are at most BITMAP_STATES of them, else a sorted
    code array.

    With a `target` (coordinate rows -> bool mask) it stops at the first
    state whose entries all satisfy it, in the (state, generator) order of
    an object-by-object BFS, and returns the generator path to it; without
    one it walks the whole orbit.  Expanding a state costs one visit per
    generator, counted with `spent` against `budget`.
    Returns (path or None, sorted codes of the reached states, spent).
    """
    k = len(start)
    m, nd, ngens = tables.module.ring.base_mod, tables.module.nd, tables.ngens
    if m ** (k * nd) >= 1 << 62:
        raise BudgetExceeded("state space of %d-tuples too large" % k)
    radix = (m ** nd) ** np.arange(k - 1, -1, -1, dtype=np.int64)
    frontier = np.array([np.asarray(start, dtype=np.int64) @ radix])
    if m ** (k * nd) <= BITMAP_STATES:
        visited, seen = np.zeros(m ** (k * nd), dtype=np.uint8), None
        visited[frontier] = 1
    else:
        visited, seen = None, frontier

    def hits(codes):
        return target(_digits(codes, m, k * nd).reshape(-1, nd)).reshape(
            -1, k).all(axis=1)

    levels = []  # per level: (parent position, generator) of each new state
    hit = None
    cap = max(1, CHUNK // (ngens * k * nd))
    while len(frontier) and hit is None:
        # with a target, chunks of 1, 2, 4, ... states: a hit early in the
        # level ends the level early, and a long level still takes few
        # numpy calls; without one, every chunk is full
        lo, step = 0, cap if target is None else 1
        found = []  # per chunk: (position, code) of unseen images
        while lo < len(frontier):
            states = frontier[lo:lo + step]
            spent += len(states) * ngens
            if spent > budget:
                raise BudgetExceeded("EU orbit BFS budget")
            codes = tables.images(_digits(states, m ** nd, k).reshape(-1))
            if k > 1:
                codes = np.einsum("skg,k->sg", codes.reshape(
                    len(states), k, ngens), radix)
            codes = codes.reshape(-1)  # in (state, generator) order
            if seen is None:
                fresh = np.flatnonzero(visited[codes] == 0)
                visited[codes[fresh]] = 1
            else:
                at = np.minimum(np.searchsorted(seen, codes), len(seen) - 1)
                fresh = np.flatnonzero(seen[at] != codes)
            found.append((fresh + lo * ngens, codes[fresh]))
            if target is not None and hits(codes[fresh]).any():
                break  # the level's first hit lies in this chunk
            lo, step = lo + len(states), min(2 * step, cap)
        pos, codes = (np.concatenate(a) for a in zip(*found))
        codes, first = np.unique(codes, return_index=True)
        order = np.argsort(first)
        frontier = codes[order]
        if seen is not None:
            # codes are unique and none is in seen, so this is their union
            seen = np.sort(np.concatenate([seen, codes]))
        if target is not None:
            pos = pos[first[order]]
            levels.append((pos // ngens, pos % ngens))
            at = np.flatnonzero(hits(frontier))
            hit = at[0] if len(at) else None
    reached = np.flatnonzero(visited) if seen is None else seen
    if hit is None:
        return None, reached, spent
    path = []
    for parent, gen in reversed(levels):
        path.append(int(gen[hit]))
        hit = parent[hit]
    return path[::-1], reached, spent


def eu_search(H, xs, target=None, want=None, budget=DEFAULT_BUDGET, spent=0):
    """BFS from the elements xs of H (moved entrywise) under the basis-u
    family, and again under the full family when that one falls short: no
    state whose coordinate rows all satisfy target(rows) -> bool mask, or
    with no target an orbit other than the sorted code array `want` (codes
    as element_codes gives them).  A start already on target returns the
    empty word before any generator is built.  Returns (word or None,
    sorted codes of the reached states, u_mode, spent); the word lists the
    cached generators in application order."""
    if H.module.relators:  # the EU family is built on H^n
        raise ValueError("the EU-orbit engine needs a free module")
    m = H.ring.base_mod
    start = H.module.coord_rows(xs)
    if target is not None and target(start).all():
        return [], _codes(start.reshape(1, -1), m), "basis", spent
    for u_mode in ("basis", "all"):
        _, gens = elementary_unitary_generators(
            H.ring, H.param, len(H.hyperbolic_pairs), u_mode=u_mode, H=H)
        if ("tables", u_mode) not in H.eu_cache:
            H.eu_cache[("tables", u_mode)] = _gen_permutations(
                H.module, [t.f.B.T for t in gens])
        path, reached, spent = _bfs(H.eu_cache[("tables", u_mode)],
                                    element_codes(H, start), target, budget,
                                    spent)
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
        tables = _gen_permutations(H.module, [t.f.B.T for t in gens])
    else:
        raise ValueError("unknown mode %r" % mode)
    classes = _mu_class_partition(H, budget)
    m = ring.base_mod
    visits = 0
    stats = {"classes": len(classes), "generators": len(gens)}
    for rep_mu in sorted(classes):
        member_idx = classes[rep_mu]
        seed = _digits(member_idx[:1], m, H.module.nd)
        if mode == "full-u":
            # the orbit under the whole group is the set of images of the
            # seed; return_index keeps np.unique from importing numpy.ma
            visits += len(gens)
            if visits > budget:
                raise BudgetExceeded("full-U orbit budget")
            seen = np.unique(tables.images(member_idx[:1]),
                             return_index=True)[0]
        else:
            _, seen, u_mode, visits = eu_search(
                H, [H.module.from_vec(seed[0].tolist())], want=member_idx,
                budget=budget, spent=visits)
            if u_mode == "all":
                stats["generators_full"] = len(H.eu_cache[("gens", "all")])
        if not np.array_equal(seen, member_idx):
            missing = np.setdiff1d(member_idx, seen, assume_unique=True)
            unreached = _digits(missing[:1], m, H.module.nd)[0].tolist()
            return RangeReport(ring, "T", n, "fails",
                               witness={"mu": rep_mu,
                                        "orbit_size": len(seen),
                                        "class_size": len(member_idx),
                                        "unreached": unreached},
                               stats=dict(stats, visits=visits), mode=mode)
    return RangeReport(ring, "T", n, "holds",
                       stats=dict(stats, visits=visits), mode=mode)


# -- GL transitivity --------------------------------------------------------


def _gl_generators(M):
    """The image tables (_gen_permutations) of the elementary automorphisms
    of M, each in canonical form and once: x -> x + v phi(x) for v = +-g_i and
    phi(v) = 0 (phi over every functional if there are at most 512, else
    over the Z/m generators of their space), and x -> x u for the central
    units u != 1."""
    ring = M.ring
    m, d, nd = ring.base_mod, ring.base_dim, M.nd
    space = functional_space(M)
    gammas = space.module_rows() if space.module_size <= 512 \
        else np.array(space.H, dtype=np.int64)
    # Phi[p] x = coords(phi_p(x)) and Mv[i] r = coords(v_i r)
    Phi = ring.Lmat[ring.indices(gammas.reshape(-1, M.ngens, d))].transpose(
        0, 2, 1, 3).reshape(-1, d, nd)
    V = np.vstack([M.gen_columns.T, -M.gen_columns.T]) % m
    Mv = act_columns(ring, V).reshape(nd, len(V), d).transpose(1, 0, 2)
    iv, ip = np.nonzero(~(np.einsum("pdn,vn->vpd", Phi, V) % m).any(axis=2))
    Bs = [np.eye(nd, dtype=np.int64) + Mv[iv] @ Phi[ip]]
    Bs += [np.kron(np.eye(M.ngens, dtype=np.int64), ring.Rmat[u])[None]
           for u in sorted(ring.units & ring.central - {ring.one})]
    Bs = np.concatenate(Bs)
    BT = _canon_rows(M, Bs.transpose(0, 2, 1).reshape(-1, nd)).reshape(
        Bs.shape)  # BT[g, i] = the canonical image of basis vector i
    _, keep = np.unique(BT.reshape(len(BT), -1), axis=0, return_index=True)
    return _gen_permutations(M, BT[np.sort(keep)])


def gl_transitive_check(M, sr=None):
    """Do all split injections R -> M lie in one GL(M)-orbit?

    _bfs walks the orbits of the elementary automorphisms on the canonical
    codes of gl_poset's vertices, each from the least code no walk reached,
    on one DEFAULT_BUDGET of visits; orbits left apart fuse exactly when
    their complements are isomorphic.
    """
    if sr is None:
        sr = stable_rank(M.ring, 3).value
    rk = rank(M)
    F = gl_poset(M)
    report = {"module": M.name, "rank": rk, "sr": sr,
              "applicable": sr is not None and rk >= sr + 1,
              "unimodular_count": len(F.vertex_ids)}
    if not F.vertex_ids:
        return dict(report, orbits=0, single_orbit=True)
    m = M.ring.base_mod
    left = np.sort(_codes([F.atoms[i].vec for i in F.vertex_ids], m))
    tables, classes, spent = _gl_generators(M), [], 0
    while len(left):
        _, orbit, spent = _bfs(tables, left[:1], None, DEFAULT_BUDGET, spent)
        classes.append(orbit)
        left = np.setdiff1d(left, orbit, assume_unique=True)

    @functools.lru_cache(maxsize=None)
    def complement(i):
        x = M.from_vec(_digits(classes[i][:1], m, M.nd)[0].tolist())
        return split_summand(M, [x])[0]

    buckets = []
    for i in range(len(classes)):
        for bucket in buckets:
            if is_isomorphic(complement(bucket[0]), complement(i)) is not None:
                bucket.append(i)
                break
        else:
            buckets.append([i])
    return dict(report, orbits=len(buckets), single_orbit=len(buckets) == 1,
                class_sizes=sorted(sum(len(classes[i]) for i in bucket)
                                   for bucket in buckets))


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
