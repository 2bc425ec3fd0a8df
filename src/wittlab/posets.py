"""Posets of ordered sequences realized as semisimplicial sets.

A SequencePoset holds an explicit vertex universe and a lazily memoized
membership predicate on sequences of distinct atoms; p-simplices are the
members of length p+1 and faces delete one entry.

A kind finds the extensions of a member through one hook, `extend(prefix,
cols)`: given a member prefix (a tuple of atom ids) and an int array of atom
ids, it returns the bool mask over cols that holds exactly the a with
prefix + (a,) a member, so no raw test runs.  The vertices are the
extensions of the empty prefix, and neighbors read (v, w) and (w, v) off
the one mask at (v,), so a hook is given only for kinds whose membership
does not depend on the order of the entries (unimodularity and pairwise
lambda conditions are).  Links and decorations compose the parent's hook
and test membership through the parent's memo.

Every concrete kind has a hook.  The unimodular kinds (GL over a general
ring, the lambda- and mu-posets, IU) share one: x_1..x_k is a member iff a
linear map y -> (f(y, x_i))_i is onto R^k, and then x_1..x_k, a is one iff
f(K, a) = R for the kernel K of that map, so each prefix costs one solver
and its candidates one product.  GL over a field keeps its span test, and
the IU and HU hooks AND the rows of the element-level table `lam == 0` of
`_PairTables` over the prefix; no atom x atom matrix is ever built.  Each
kind's raw predicate stays as the oracle: it decides member_atoms, the
link's check that its base is a simplex, and every membership of a poset
built without a hook.
"""

import functools

import numpy as np

from wittlab.linalg import LinearSolver, ring_left_rows, row_unimodular
from wittlab.modules import _evaluation_matrix, act_columns, is_unimodular
from wittlab.quadratic import is_lambda_unimodular

SIMPLEX_ENTRY_CAP = 5_000_000


class PosetCapExceeded(RuntimeError):
    pass


class SequencePoset:
    """extend (optional) maps a member prefix (a tuple of ids) and an int
    array of ids cols to the numpy bool mask over cols that holds exactly
    the a with prefix + (a,) a member (never a prefix id).  Give the hook
    only for kinds whose membership does not depend on order: neighbors
    reads (v, w) and (w, v) off one mask, and link puts the base after the
    prefix.  Without a hook the raw predicate decides every extension."""

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
        self._varr = self._extensions(
            (), np.arange(len(self.atoms), dtype=np.intp))
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

    def _extensions(self, seq, among=None):
        """The atom ids a with seq + (a,) a member, as an ascending int
        array drawn from among (ascending ids; all vertices if None): the
        hook's mask, or the raw test of each id without a hook."""
        ids = self._varr if among is None else among
        if self.extend is not None:
            return ids[self.extend(seq, ids)]
        return ids[np.array([self.member_ids(seq + (a,))
                             for a in ids.tolist()], dtype=bool)]

    def neighbors(self, vid, among=None):
        """Ids of the vertices adjacent to vid in the 1-skeleton (either
        orientation), as an ascending int array, restricted to the
        ascending vertex ids among when given.  A hook's mask at (vid,)
        holds (w, vid) too by order independence, so one mask serves both
        orientations; without a hook each id gets the raw test both
        ways."""
        if self.extend is not None:
            return self._extensions((vid,), among)
        ids = self._varr if among is None else among
        return ids[np.array([self.member_ids((vid, w))
                             or self.member_ids((w, vid))
                             for w in ids.tolist()], dtype=bool)]

    # -- simplices ---------------------------------------------------------

    def simplices(self, p):
        """Members of length p+1, generated by extension (chain condition),
        each member's extensions in ascending atom id."""
        if p in self._levels:
            return self._levels[p]
        if p == 0:
            level = [(v,) for v in self.vertex_ids]
        else:
            lower = self.simplices(p - 1)
            level = []
            budget = self.entry_cap // (p + 2)
            for seq in lower:
                level.extend(seq + (v,)
                             for v in self._extensions(seq).tolist())
                if len(level) > budget:
                    raise PosetCapExceeded(
                        "%s has > %d %d-simplices" % (self.name, budget, p))
        self._levels[p] = level
        return level

    def is_empty(self):
        return not self.vertex_ids

    # -- chain condition spot check ----------------------------------------

    def chain_condition_check(self, rng, samples=50, max_p=3):
        """Every facet (and hence subsequence) of a member is a member.
        A level past the simplex cap raises PosetCapExceeded."""
        for p in range(1, max_p + 1):
            level = self.simplices(p)
            if not level:
                break
            pool = level if len(level) <= samples else \
                [level[rng.randrange(len(level))] for _ in range(samples)]
            for seq in pool:
                for i in range(len(seq)):
                    sub = seq[:i] + seq[i + 1:]
                    if not self.member_ids(sub):
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


def link(F, base_atoms, name=None):
    """F_v: sequences w with (w, v) in F; the vertex universe drops v's atoms.

    v must be a simplex of F: atoms of F forming a member, by F's raw
    test through its memo, not its hook.  The raw predicate alone does not
    decide that, since a kind may keep part of its condition in the atom
    list (mu = 0 for the mu-poset, the universe for the lambda-poset).  The
    link's hook is F's at the prefix followed by v, read on the kept atoms.
    That puts v after the extension where membership puts it last, which is
    sound only because a hook's kind is order independent."""
    index = {a: i for i, a in enumerate(F.atoms)}
    base_ids = tuple(index.get(a) for a in base_atoms)
    if None in base_ids or not F.member_ids(base_ids):
        raise ValueError("base sequence is not a simplex of %s" % F.name)
    kept = [i for i in range(len(F.atoms)) if i not in base_ids]
    kept_ids = np.array(kept, dtype=np.intp)
    extend = None
    if F.extend is not None:
        def extend(ids, cols):
            return F.extend(tuple(kept[i] for i in ids) + base_ids,
                            kept_ids[cols])

    return SequencePoset(name or "%s_link" % F.name,
                         [F.atoms[i] for i in kept],
                         _parent_member(F, index, base_ids),
                         entry_cap=F.entry_cap, extend=extend)


def decorate(F, decorations, name=None):
    """F<S>: atoms (v, s), membership tested on the v-part; the hook is F's
    on the v-parts, which excludes every atom whose v-part is in the
    prefix."""
    atoms = [(a, s) for a in F.atoms for s in decorations]
    base = np.repeat(np.arange(len(F.atoms)), len(decorations))
    extend = None
    if F.extend is not None:
        def extend(ids, cols):
            return F.extend(tuple(int(base[i]) for i in ids), base[cols])

    member = _parent_member(F, {a: i for i, a in enumerate(F.atoms)})

    def raw(seq):
        return member(tuple(v for v, _s in seq))

    return SequencePoset(name or "%s<S>" % F.name, atoms, raw,
                         entry_cap=F.entry_cap, extend=extend)


# -- concrete kinds ------------------------------------------------------------


def _field_like(ring):
    if ring.kind == "gf":
        return True
    if ring.kind == "zmod":
        n = ring.size
        return n > 1 and all(n % p for p in range(2, n) if p * p <= n)
    return False


def _onto_hook(ring, A, lead=None):
    """The hook of a kind whose members x_1..x_k are the sequences on which
    y -> (f(y, x_i))_i maps onto R^k, y running over the Z/m coordinates on
    which the lead columns vanish: A[:, a, :] is the nd x d matrix of
    y -> f(y, a) for atom a, lead the nd x l columns that must vanish (a
    module's relators) or None.

    f(y, a) is semilinear in y, so f(K, a) is a left ideal for the kernel K
    of a member prefix's map, and the prefix extends by a iff it is R.  The
    Z/m generators of K give every candidate's values in one product; a
    unit among them settles it (over a field every nonzero value is one),
    and otherwise the left ideal test is solved once per set of values."""
    m, nd = ring.base_mod, A.shape[0]
    whole = np.eye(nd, dtype=np.int64)
    unit = ring.inv >= 0

    @functools.lru_cache(maxsize=None)
    def ideal_is_ring(values):
        return row_unimodular(ring, values)

    def extend(prefix, cols):
        rows = A[:, list(prefix), :].reshape(nd, -1)
        if lead is not None:
            rows = np.hstack([lead, rows])
        K = whole
        if rows.shape[1]:
            K = np.array(LinearSolver(rows.tolist(), m).kernel_rows(),
                         dtype=np.int64).reshape(-1, nd)
        vals = ring.indices(np.tensordot(K, A[:, cols, :], axes=1))
        ok = unit[vals].any(axis=0)  # vals[j, c]: f(k_j, a_c)
        rest = np.flatnonzero(~ok & vals.any(axis=0))
        if len(rest):
            ok[rest] = [ideal_is_ring(frozenset(col))
                        for col in vals[:, rest].T.tolist()]
        return ok

    return extend


def _lam_hook(Q, X):
    """The lambda-unimodularity hook over the atoms with raw coordinate rows
    X: f(y, a) = lambda(y, a), the witness in the antilinear slot."""
    A = np.einsum("tsy,ay->sat", Q.lam_coeffs, X) % Q.ring.base_mod
    return _onto_hook(Q.ring, A)


def _coord_rows(elems, nd):
    return np.array([x.vec for x in elems], dtype=np.int64).reshape(
        len(elems), nd)


def gl_poset(M, universe=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """O(X) cap U(M): sequences from X (all of M by default) unimodular in
    M."""
    universe = list(M.elements()) if universe is None else list(universe)
    ring = M.ring

    if _field_like(ring):
        def span_rows(vecs):
            """Rows (i, t): the canonical v_i * b_t, as one int64 array."""
            V = np.array(vecs, dtype=np.int64).reshape(len(vecs), M.nd)
            return M.canon_columns(act_columns(ring, V)).T

        def raw(seq):
            rows = span_rows([v.vec for v in seq]).tolist()
            sol = LinearSolver(rows, ring.base_mod, width=M.nd)
            return sol.module_size == ring.size ** len(seq)

        # Over a field a prefix is unimodular iff it is independent, and it
        # stays so after a exactly when a lies outside its span; reducing
        # by the span is faster here than _onto_hook's kernel product.
        vecs = [x.vec for x in universe]
        atom_rows = span_rows(vecs).reshape(len(vecs), ring.base_dim,
                                            M.nd).tolist()
        coords = _coord_rows(universe, M.nd)
        m = ring.base_mod

        def extend(ids, cols):
            sol = LinearSolver([r for i in ids for r in atom_rows[i]], m,
                               width=M.nd)
            rem = coords[cols]
            for row, j in zip(sol.H, sol.pivots):  # reduce_vec, all at once
                rem -= np.outer(rem[:, j] // row[j], row)
                rem %= m
            return rem.any(axis=1)
    else:
        def raw(seq):
            return is_unimodular(M, seq) is not None

        # f(y, a) = phi_y(a), y the generator values of a functional phi_y,
        # which must vanish on the relators
        nrel, d = len(M.relators), ring.base_dim
        A = ring_left_rows(ring, _evaluation_matrix(M, universe)).reshape(
            M.nd, nrel + len(universe), d)
        lead = A[:, :nrel, :].reshape(M.nd, -1) if nrel else None
        extend = _onto_hook(ring, A[:, nrel:, :], lead)

    return SequencePoset(name or "U(%s)" % M.name, universe, raw,
                         entry_cap=cap, extend=extend)


def lambda_poset(Q_ambient, universe, name=None, cap=SIMPLEX_ENTRY_CAP):
    """O(universe) cap U(N, lambda): lambda-unimodular sequences in N."""
    universe = list(universe)

    def raw(seq):
        return is_lambda_unimodular(Q_ambient, list(seq)) is not None

    return SequencePoset(
        name or "U(%s,lam)" % Q_ambient.name, universe, raw, entry_cap=cap,
        extend=_lam_hook(Q_ambient, _coord_rows(universe,
                                                Q_ambient.module.nd)))


def mu_poset(Q_ambient, universe=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """U(N, lambda, mu) = O(I(N, mu)) cap U(N, lambda): the lambda-poset on
    the mu-vanishing part of the universe (defaults to all of N)."""
    if universe is None:
        universe = Q_ambient.module.elements()
    return lambda_poset(Q_ambient, [x for x in universe
                                    if Q_ambient.mu_zero(x)],
                        name=name or "U(%s,lam,mu)" % Q_ambient.name, cap=cap)


class _PairTables:
    """Precomputed lambda values and mu flags over an enumerated module;
    lam_zero is the |M| x |M| table lam == 0 that the IU and HU hooks and
    raw tests read."""

    def __init__(self, Q, cap=4096):
        module = Q.module
        if module.size > cap:
            raise PosetCapExceeded("module too large for pair tables")
        self.Q = Q
        self.elems = list(module.elements(cap=cap))
        self.index = {x.vec: i for i, x in enumerate(self.elems)}
        ring = Q.ring
        m = ring.base_mod
        self.X = _coord_rows(self.elems, module.nd)
        coords = (self.X @ Q.lam_coeffs @ self.X.T) % m  # [t, x, y]
        powers = np.array([m ** k for k in range(ring.base_dim)],
                          dtype=np.int64)
        self.lam = np.tensordot(powers, coords, axes=1)
        self.lam_zero = self.lam == ring.zero
        self.mu0 = np.array([Q.mu_zero(x) for x in self.elems], dtype=bool)

    def indices(self, elems):
        return np.array([self.index[x.vec] for x in elems], dtype=np.intp)


@functools.lru_cache(maxsize=None)
def _off_diagonal(k, blocks=1):
    """The bool mask of the (blocks*k)^2 entries (i, j) with i != j mod k:
    pairs of distinct sequence entries; shared, so read-only."""
    mask = ~np.tile(np.eye(k, dtype=bool), (blocks, blocks))
    mask.flags.writeable = False
    return mask


def iu_poset(Q, tables=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """Isotropic lambda-unimodular sequences I U(M)."""
    if tables is None:
        tables = _PairTables(Q)
    keep = np.flatnonzero(tables.mu0)
    universe = [tables.elems[i] for i in keep]
    Z = tables.lam_zero
    onto = _lam_hook(Q, tables.X[keep])

    def extend(prefix, cols):
        # lambda(u, a) = 0 for every u in the prefix, then
        # lambda-unimodularity on the candidates left
        mask = Z[np.ix_(keep[list(prefix)], keep[cols])].all(axis=0)
        if mask.any():
            mask[mask] = onto(prefix, cols[mask])
        return mask

    def raw(seq):
        idx = tables.indices(seq)
        if not (tables.mu0[idx].all()
                and Z[idx[:, None], idx][_off_diagonal(len(idx))].all()):
            return False
        return is_lambda_unimodular(Q, list(seq)) is not None

    return SequencePoset(name or "IU(%s)" % Q.name, universe, raw,
                         entry_cap=cap, extend=extend)


def hu_poset(Q, tables=None, name=None, cap=SIMPLEX_ENTRY_CAP):
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

    def extend(prefix, cols):
        # both entries of each atom c lambda-orthogonal to both entries of
        # every prefix atom u (u itself fails: lambda(x, y) = 1)
        x, y = X[cols], Y[cols]
        mask = np.ones(len(cols), dtype=bool)
        for u in prefix:
            z = Z[X[u]] & Z[Y[u]]
            mask &= z[x] & z[y]
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

    return SequencePoset(name or "HU(%s)" % Q.name, atoms, raw,
                         entry_cap=cap, extend=extend)
