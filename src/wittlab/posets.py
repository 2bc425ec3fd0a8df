"""Posets of ordered sequences realized as semisimplicial sets.

A SequencePoset holds an explicit vertex universe and a lazily memoized
membership predicate on sequences of distinct atoms; p-simplices are the
members of length p+1, one (N, p+1) int32 array of atom ids per level in
lexicographic order, and faces delete one entry.

A kind finds extensions through one batched hook, `extend(P, cols)`: for an
(n, k) int array P of member prefixes and an int array cols of atom ids it
returns the (n, len(cols)) bool mask of exactly the (i, j) with P[i]
followed by cols[j] a member (never a prefix id), so no raw test runs.  A
level is the row-major nonzeros of the masks of the level below, one chunk
of prefix rows at a time (no mask past CHUNK cells); the vertices are the
extensions of the empty prefix.  Membership must not
depend on the order of the entries (unimodularity and pairwise lambda
conditions do not): neighbors reads (v, w) and (w, v) off one mask, and a
link puts its base after the prefix.  Links and decorations map P and cols
into the parent's hook and test membership through the parent's memo.

The unimodular kinds (GL over every ring, a field or not, the lambda- and
mu-posets, IU) share one hook: x_1..x_k is a member iff y -> (f(y, x_i))_i
is onto R^k, and then x_1..x_k, a is one iff f(K, a) = R for the kernel K
of that map, so one kernel query per slice of prefix rows gives every K
and one product per cache-sized slice their values on the candidates.
IU and HU AND the rows of `_PairTables.lam_zero` over the prefixes; no
atom x atom matrix is ever built.  Each kind's raw predicate stays as the
oracle: it decides member_atoms, the link's check that its base is a
simplex, and every membership of a poset built without a hook.
"""

import functools

import numpy as np

from wittlab.kernels import howell_kernel
from wittlab.linalg import ring_left_rows, unimodular_rows
from wittlab.modules import ENUM_CAP, _evaluation_matrix, is_unimodular
from wittlab.quadratic import is_lambda_unimodular

SIMPLEX_ENTRY_CAP = 5_000_000
# cells of the largest mask, or table slice, one hook call builds
CHUNK = 1 << 21
# cells of the stacked systems of one kernel query of _onto_hook: its
# elimination peaks at about 8x its input, so that stays near CHUNK
KERNEL_CELLS = CHUNK >> 3
# cells of the temporaries one pass of a hook's value loop builds, few
# enough to stay in cache
CACHE_CELLS = 1 << 16


class PosetCapExceeded(RuntimeError):
    pass


def _row_chunks(n, width, cells=None):
    """Slices of range(n), cells (CHUNK by default) // width rows each
    (one at least)."""
    step = max(1, (CHUNK if cells is None else cells) // max(width, 1))
    return [slice(s, s + step) for s in range(0, n, step)]


class SequencePoset:
    """A sequence poset with the optional batched hook extend (see the
    module docstring); without one the raw predicate decides extensions."""

    def __init__(self, name, atoms, raw_member, entry_cap=SIMPLEX_ENTRY_CAP,
                 extend=None):
        self.name = name
        self.atoms = list(atoms)
        self._raw = raw_member
        self._memo = {}
        self._levels = {}
        self.entry_cap = entry_cap
        # no dense atom x atom matrix exists; perfbench/tracing.py still
        # reads the size of this attribute when it is not None
        self.pair_ok = None
        self.extend = extend
        every = np.arange(len(self.atoms), dtype=np.int32)
        self._varr = every[self._mask(np.zeros((1, 0), dtype=np.intp),
                                      every)[0]]
        self.vertex_ids = self._varr.tolist()

    # -- membership -------------------------------------------------------

    def member_ids(self, ids):
        if len(set(ids)) != len(ids):
            return False
        if ids not in self._memo:
            self._memo[ids] = bool(
                self._raw(tuple(self.atoms[i] for i in ids)))
        return self._memo[ids]

    def member_atoms(self, atoms):
        if len(set(atoms)) != len(atoms):
            return False
        return bool(self._raw(tuple(atoms)))

    def _mask(self, P, ids):
        """The hook's mask, or without a hook the raw test's."""
        if self.extend is not None:
            return self.extend(P, ids)
        return np.array([[self.member_ids(seq + (a,)) for a in ids.tolist()]
                         for seq in map(tuple, P.tolist())],
                        dtype=bool).reshape(len(P), len(ids))

    def neighbors(self, vids, among=None):
        """The ids among the ascending vertex ids `among` (all vertices if
        None) adjacent to some id of vids (one id or an int array), in either
        orientation: a hook's mask at (v,) holds (w, v) too, and without a
        hook the raw test reads both.  Batches of vids double in size, each
        tested against the ids no earlier batch found."""
        vs = np.atleast_1d(np.asarray(vids, dtype=np.intp))
        ids = left = self._varr if among is None else among
        step = 1
        while len(vs) and len(left):
            rows, vs = vs[:step, None], vs[step:]
            hit = self._mask(rows, left).any(axis=0)
            if self.extend is None:
                hit |= self._mask(left[:, None], rows[:, 0]).any(axis=1)
            left = left[~hit]
            step = min(2 * step, max(1, CHUNK // max(len(left), 1)))
        return np.setdiff1d(ids, left, assume_unique=True)

    # -- simplices ---------------------------------------------------------

    def simplices(self, p):
        """The level of members of length p+1, grown from chunks of the
        level below (chain condition).  A level past entry_cap // (p+2)
        rows raises PosetCapExceeded and is not kept."""
        if p in self._levels:
            return self._levels[p]
        if p == 0:
            level = self._varr[:, None]
        else:
            lower, budget = self.simplices(p - 1), self.entry_cap // (p + 2)
            width, hits, count = len(self._varr), [], 0
            for rows in _row_chunks(len(lower), width):
                mask = self._mask(lower[rows], self._varr)
                per_row = mask.sum(axis=1)
                count += int(per_row.sum())
                if count > budget:
                    raise PosetCapExceeded(
                        "%s has > %d %d-simplices" % (self.name, budget, p))
                hits.append((rows, per_row, np.flatnonzero(mask)))
            # the row-major nonzeros of each mask: row i of the chunk
            # repeated per_row[i] times, each followed by its column's vertex
            level = np.empty((count, p + 1), dtype=np.int32)
            end = 0
            for rows, per_row, flat in hits:
                P = lower[rows]
                start, end = end, end + len(flat)
                level[start:end, :p] = np.repeat(P, per_row, axis=0)
                level[start:end, p] = self._varr[flat - np.repeat(
                    np.arange(len(P)) * width, per_row)]
        self._levels[p] = level
        return level

    def is_empty(self):
        return not self.vertex_ids

    # -- chain condition spot check ----------------------------------------

    def chain_condition_check(self, rng, max_p=3):
        """Every facet of 50 sampled p-simplices per p <= max_p is a member.
        A level past the simplex cap raises PosetCapExceeded."""
        for p in range(1, max_p + 1):
            level = self.simplices(p)
            if not len(level):
                break
            if len(level) > 50:
                level = level[[rng.randrange(len(level)) for _ in range(50)]]
            for seq in level.tolist():
                for i in range(len(seq)):
                    if not self.member_ids(tuple(seq[:i] + seq[i + 1:])):
                        return False
        return True


# -- derived posets -----------------------------------------------------------


def _parent_member(F, index, base_ids=()):
    """Membership in F of a sequence of F's atoms followed by base_ids,
    through F's memo; index maps F's atoms to their ids, and an atom
    outside F is in no member."""

    def member(atoms):
        ids = tuple(index.get(a) for a in atoms)
        return None not in ids and F.member_ids(ids + base_ids)

    return member


def link(F, base_atoms):
    """F_v: sequences w with (w, v) in F; the vertex universe drops v's atoms.

    v must be a simplex of F by F's raw test through its memo, not its hook:
    the raw predicate alone does not decide that, since a kind may keep part
    of its condition in the atom list (mu = 0 for the mu-poset, the universe
    for the lambda-poset).  The link's hook is F's at the prefixes followed
    by v, on the kept atoms: v after the extension, which is sound only
    because a hook's kind is order independent."""
    index = {a: i for i, a in enumerate(F.atoms)}
    base_ids = tuple(index.get(a) for a in base_atoms)
    if None in base_ids or not F.member_ids(base_ids):
        raise ValueError("base sequence is not a simplex of %s" % F.name)
    kept = np.array([i for i in range(len(F.atoms)) if i not in base_ids],
                    dtype=np.intp)
    tail = np.array(base_ids, dtype=np.intp)
    extend = None
    if F.extend is not None:
        def extend(P, cols):
            return F.extend(np.hstack([kept[P], np.broadcast_to(
                tail, (len(P), len(tail)))]), kept[cols])

    return SequencePoset("%s_link" % F.name,
                         [F.atoms[i] for i in kept],
                         _parent_member(F, index, base_ids),
                         entry_cap=F.entry_cap, extend=extend)


def decorate(F, decorations):
    """F<S>: atoms (v, s), membership tested on the v-part; the hook is F's
    on the v-parts, which excludes every atom whose v-part is in the
    prefix."""
    atoms = [(a, s) for a in F.atoms for s in decorations]
    base = np.repeat(np.arange(len(F.atoms)), len(decorations))
    extend = None
    if F.extend is not None:
        def extend(P, cols):
            return F.extend(base[P], base[cols])

    member = _parent_member(F, {a: i for i, a in enumerate(F.atoms)})

    def raw(seq):
        return member(tuple(v for v, _s in seq))

    return SequencePoset("%s<S>" % F.name, atoms, raw,
                         entry_cap=F.entry_cap, extend=extend)


# -- concrete kinds ------------------------------------------------------------


def _hook_tables(ring, nd, d):
    """The tables of _onto_hook that depend only on the ring and the shape
    (nd, d) of a value matrix, built once and kept in ring.hook_tables.

    A value's d coordinates, before reduction mod m, lie in [0, R): one
    value packs into a code below V = R^d, the values of g kernel rows into
    one code below V^g <= CACHE_CELLS, exact in float32, and tables indexed
    by code settle them: index[c], the ring index of the value with code
    c, and unit[code], a unit among the g values packed into code.  Past
    that size (a ring of large base_dim) both are None and the values are
    read coordinate-wise.  local: the non-units are closed under +."""
    got = ring.hook_tables.get((nd, d))
    if got is None:
        m = ring.base_mod
        R = nd * (m - 1) ** 2 + 1
        V = R ** d
        g = 1
        index = unit = None
        if V <= CACHE_CELLS:
            while g < nd and V ** (g + 1) <= CACHE_CELLS:
                g += 1
            index = ring.indices(np.arange(V)[:, None] // R ** np.arange(d)
                                 % R)
            unit = one = ring.inv[index] >= 0
            for _ in range(g - 1):
                unit = np.logical_or.outer(one, unit).ravel()
        nonunit = np.flatnonzero(ring.inv < 0)
        local = bool((ring.inv[ring.add[np.ix_(nonunit, nonunit)]] < 0).all())
        got = ring.hook_tables[(nd, d)] = (R, V, g, index, unit, local)
    return got


def _onto_hook(ring, A, lead=None):
    """The hook of a kind whose members x_1..x_k are the sequences on which
    y -> (f(y, x_i))_i maps onto R^k, y running over the Z/m coordinates on
    which the lead columns vanish: A[:, a, :] is the nd x d matrix of
    y -> f(y, a) for atom a, lead the nd x l columns that must vanish (a
    module's relators) or None.

    f(y, a) is semilinear in y, so f(K, a) is a left ideal for the kernel K
    of a member prefix's map, and the prefix extends by a iff it is R.  One
    kernels.howell_kernel per slice of prefix rows (at most KERNEL_CELLS
    cells of stacked systems) gives the Z/m generators of every K, and one
    product per cache-sized slice of rows their values on every candidate;
    a candidate (where the optional mask `where` holds) is accepted when a
    unit is among them.  Values without a unit never generate R over a
    local ring (its non-units are closed under +, so they form its one
    maximal left ideal; every field is one); over any other ring they go
    to the left ideal test, once per value set (linalg.unimodular_rows)."""
    m, nd, d = ring.base_mod, A.shape[0], A.shape[2]
    R, V, g, index, unit, local = _hook_tables(ring, nd, d)
    table = unit is not None
    dtype = np.float32 if table else np.float64
    shift = V ** np.arange(g) if table else np.ones(1, dtype=np.int64)
    if table:
        C = (A @ R ** np.arange(d)).astype(dtype)  # (nd, N)
    nlead = 0 if lead is None else lead.shape[1]
    memo = {}

    def kernel_slices(P, ncols):
        """(rows, Kr) over slices of the prefix rows P: Kr holds the
        nonzero kernel rows of each prefix, g to a row (the r-th goes to
        row r // g with weight V^(r % g)).  One kernel query per at most
        KERNEL_CELLS cells of stacked systems, each cut into slices whose
        values on ncols candidates stay under CACHE_CELLS."""
        n, k = P.shape
        for part in _row_chunks(n, nd * (nlead + k * d + nd), KERNEL_CELLS):
            Ps = P[part]
            S = A[:, Ps, :].reshape(nd, len(Ps), k * d).transpose(1, 0, 2)
            if lead is not None:
                S = np.concatenate([np.broadcast_to(
                    lead, (len(Ps),) + lead.shape), S], axis=2)
            K = howell_kernel(S, m)
            live = K.any(axis=2)
            rank = np.cumsum(live, axis=1) - 1
            q = -(-int(rank.max(initial=-1) + 1) // g)
            pack = np.where(live[:, None] & (rank[:, None] // g
                                             == np.arange(q)[:, None]),
                            shift[rank % g][:, None], 0)
            K = np.einsum("iqr,irn->iqn", pack, K).astype(dtype)
            for rows in _row_chunks(len(K), q * ncols * (1 if table else d),
                                    CACHE_CELLS):
                span = range(n)[part][rows]
                yield slice(span.start, span.stop), K[rows]

    def extend(P, cols, where=None):
        out = np.ones((len(P), len(cols)), dtype=bool) if where is None \
            else where.copy()
        Ac = C[:, cols] if table else \
            A[:, cols].reshape(nd, -1).astype(dtype)
        for rows, Kr in kernel_slices(P, len(cols)):
            q = Kr.shape[1]
            prod = (Kr.reshape(len(Kr) * q, nd) @ Ac).astype(np.intp)
            if table:
                # code[i, j, c]: the values f(k, a_c) of the j-th g rows
                code = prod.reshape(len(Kr), q, len(cols))
                ok = unit[code].any(axis=1)
            else:
                # vals[i, j, c]: the ring index of f(k_j, a_c), whose
                # coordinates (below R) are exact in float64
                vals = ring.indices(prod.reshape(len(Kr), q, len(cols), d))
                ok = (ring.inv[vals] >= 0).any(axis=1)
            rest = ((),) if local else np.nonzero(out[rows] & ~ok)
            if len(rest[0]):
                if table:
                    sel = index[code[rest[0], :, rest[1], None] // shift
                                % V].reshape(len(rest[0]), q * g)
                else:
                    sel = vals[rest[0], :, rest[1]]
                ok[rest] = unimodular_rows(ring, sel, memo)
            out[rows] &= ok
        return out

    return extend


def _lam_hook(Q, X):
    """The lambda-unimodularity hook over the atoms with raw coordinate rows
    X: f(y, a) = lambda(y, a), the witness in the antilinear slot."""
    A = np.einsum("tsy,ay->sat", Q.lam_coeffs, X) % Q.ring.base_mod
    return _onto_hook(Q.ring, A)


def gl_poset(M, universe=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """O(X) cap U(M): sequences from X (all of M by default) unimodular in
    M."""
    universe = list(M.elements()) if universe is None else list(universe)
    ring, nrel = M.ring, len(M.relators)

    def raw(seq):
        return is_unimodular(M, seq) is not None

    # f(y, a) = phi_y(a), y the generator values of a functional phi_y,
    # which must vanish on the relators
    A = ring_left_rows(ring, _evaluation_matrix(M, universe)).reshape(
        M.nd, nrel + len(universe), ring.base_dim)
    lead = A[:, :nrel, :].reshape(M.nd, -1) if nrel else None
    return SequencePoset(name or "U(%s)" % M.name, universe, raw,
                         entry_cap=cap,
                         extend=_onto_hook(ring, A[:, nrel:, :], lead))


def lambda_poset(Q_ambient, universe, name=None):
    """O(universe) cap U(N, lambda): lambda-unimodular sequences in N."""
    universe = list(universe)

    def raw(seq):
        return is_lambda_unimodular(Q_ambient, list(seq)) is not None

    return SequencePoset(
        name or "U(%s,lam)" % Q_ambient.name, universe, raw,
        extend=_lam_hook(Q_ambient, Q_ambient.module.coord_rows(universe)))


def mu_poset(Q_ambient, universe=None):
    """U(N, lambda, mu) = O(I(N, mu)) cap U(N, lambda): the lambda-poset on
    the mu-vanishing part of the universe (defaults to all of N)."""
    universe = list(Q_ambient.module.elements() if universe is None
                    else universe)
    keep = Q_ambient.mu_zero_rows(Q_ambient.module.coord_rows(universe))
    return lambda_poset(Q_ambient, [x for x, k in zip(universe, keep) if k],
                        name="U(%s,lam,mu)" % Q_ambient.name)


class _PairTables:
    """Precomputed lambda values and mu flags over an enumerated module;
    lam_zero is the |M| x |M| table lam == 0 that the IU and HU hooks and
    raw tests read, for a module of at most ENUM_CAP elements."""

    def __init__(self, Q):
        module = Q.module
        if module.size > ENUM_CAP:
            raise PosetCapExceeded("module too large for pair tables")
        self.Q = Q
        self.elems, self.X = module.element_rows()
        self.index = {x.vec: i for i, x in enumerate(self.elems)}
        self.lam = Q.lam_table(self.X, self.X)
        self.lam_zero = self.lam == Q.ring.zero
        self.mu0 = Q.mu_zero_rows(self.X)

    def indices(self, elems):
        return np.array([self.index[x.vec] for x in elems], dtype=np.intp)


@functools.lru_cache(maxsize=None)
def _off_diagonal(k, blocks=1):
    """The bool mask of the (blocks*k)^2 entries (i, j) with i != j mod k:
    pairs of distinct sequence entries; shared, so read-only."""
    mask = ~np.tile(np.eye(k, dtype=bool), (blocks, blocks))
    mask.flags.writeable = False
    return mask


def iu_poset(Q, tables=None, cap=SIMPLEX_ENTRY_CAP):
    """Isotropic lambda-unimodular sequences I U(M)."""
    if tables is None:
        tables = _PairTables(Q)
    keep = np.flatnonzero(tables.mu0)
    universe = [tables.elems[i] for i in keep]
    Z = tables.lam_zero
    Zk = Z[np.ix_(keep, keep)]
    onto = _lam_hook(Q, tables.X[keep])

    def extend(P, cols):
        # lambda(u, a) = 0 for every u in the prefix (the AND of the
        # prefix entries' rows of Zk), then lambda-unimodularity on the
        # candidates left
        return onto(P, cols, Zk[P].all(axis=1)[:, cols])

    def raw(seq):
        idx = tables.indices(seq)
        if not (tables.mu0[idx].all()
                and Z[idx[:, None], idx][_off_diagonal(len(idx))].all()):
            return False
        return is_lambda_unimodular(Q, list(seq)) is not None

    return SequencePoset("IU(%s)" % Q.name, universe, raw,
                         entry_cap=cap, extend=extend)


def hu_poset(Q, tables=None, cap=SIMPLEX_ENTRY_CAP):
    """Hyperbolic lambda-unimodular sequences H U(M): atoms are pairs (x, y)
    with mu(x) = mu(y) = 0 and lambda(x, y) = 1, all of them vertices;
    sequence membership reduces to pairwise lambda conditions (the
    witnesses are built into the pairs), so the hook reads them alone."""
    if tables is None:
        tables = _PairTables(Q)
    zero, one = Q.ring.zero, Q.ring.one
    mu0_idx = np.nonzero(tables.mu0)[0]
    lam = tables.lam
    pairs_rc = np.argwhere(lam[np.ix_(mu0_idx, mu0_idx)] == one)
    X = mu0_idx[pairs_rc[:, 0]]
    Y = mu0_idx[pairs_rc[:, 1]]
    atoms = [(tables.elems[i], tables.elems[j]) for i, j in zip(X, Y)]
    Z = tables.lam_zero

    def extend(P, cols):
        # both entries of each atom c lambda-orthogonal to both entries of
        # every prefix atom u (u itself fails: lambda(x, y) = 1)
        x, y = X[cols], Y[cols]
        mask = np.ones((len(P), len(cols)), dtype=bool)
        for rows in _row_chunks(len(P), len(Z) + len(cols)):
            for u in P[rows].T:
                z = Z[X[u]] & Z[Y[u]]
                mask[rows] &= z[:, x] & z[:, y]
        return mask

    def raw(seq):
        # B holds lambda among x_1..x_k, y_1..y_k: entries of distinct atoms
        # are lambda-orthogonal (lam == 0 is symmetric), lambda(x_a, y_a) = 1
        k = len(seq)
        both = tables.indices([x for x, _y in seq] + [y for _x, y in seq])
        B = lam[both[:, None], both]
        return bool(tables.mu0[both].all()
                    and (B[_off_diagonal(k, 2)] == zero).all()
                    and (B.diagonal(k) == one).all())

    return SequencePoset("HU(%s)" % Q.name, atoms, raw,
                         entry_cap=cap, extend=extend)
