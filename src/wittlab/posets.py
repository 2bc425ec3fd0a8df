"""Posets of ordered sequences realized as semisimplicial sets.

A SequencePoset holds an explicit vertex universe and a lazily memoized
membership predicate on sequences of distinct atoms; p-simplices are the
members of length p+1 and faces delete one entry.

A kind finds the extensions of a member through one hook, `extend(prefix,
cols)`: given a member prefix (a tuple of atom ids) and an int array of atom
ids, it returns the bool mask over cols that holds every a with prefix + (a,)
a member, and never a prefix id.  With `exact` the mask holds exactly those
a and no raw test runs; otherwise the raw predicate decides among the atoms
it allows.  The vertices are the extensions of the empty prefix, and
neighbors read (v, w) and (w, v) off the one mask at (v,), so a hook is
given only for kinds whose membership does not depend on the order of the
entries (unimodularity and pairwise lambda conditions are).  Links and
decorations compose the parent's hook and test membership through the
parent's memo.  The IU and HU hooks AND the rows of the element-level
table `lam == 0` of `_PairTables` over the prefix; no atom x atom matrix
is ever built.
"""

import numpy as np

from wittlab.modules import act_columns, is_unimodular
from wittlab.quadratic import is_lambda_unimodular

SIMPLEX_ENTRY_CAP = 5_000_000


class PosetCapExceeded(RuntimeError):
    pass


class SequencePoset:
    """extend (optional) maps a member prefix (a tuple of ids) and an int
    array of ids cols to the numpy bool mask over cols that holds every a
    with prefix + (a,) a member and no prefix id; exact (only with extend)
    marks a mask that holds nothing else.  Give the hook only for kinds
    whose membership does not depend on order: neighbors reads (v, w) and
    (w, v) off one mask, and link puts the base after the prefix."""

    def __init__(self, name, atoms, raw_member, entry_cap=SIMPLEX_ENTRY_CAP,
                 extend=None, exact=False):
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
        self.exact = exact
        cand = self._candidates((), np.arange(len(self.atoms), dtype=np.intp))
        if not self.exact:
            cand = cand[np.array([self.member_ids((i,))
                                  for i in cand.tolist()], dtype=bool)]
        self._varr = cand
        self.vertex_ids = cand.tolist()

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

    def _candidates(self, seq, among=None):
        """Atom ids that may extend the member seq, as an ascending int
        array drawn from among (ascending ids; all vertices if None): the
        hook's mask, which is every extension when self.exact."""
        ids = self._varr if among is None else among
        return ids if self.extend is None else ids[self.extend(seq, ids)]

    def neighbors(self, vid, among=None):
        """Ids of the vertices adjacent to vid in the 1-skeleton (either
        orientation), as an ascending int array, restricted to the
        ascending vertex ids among when given.  A hook's mask at (vid,)
        holds (w, vid) too by order independence, so one candidate set
        serves both orientations; only inexact candidates get the raw
        test."""
        cand = self._candidates((vid,), among)
        if self.exact:
            return cand
        return cand[np.array([self.member_ids((vid, w))
                              or self.member_ids((w, vid))
                              for w in cand.tolist()], dtype=bool)]

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
                cands = (seq + (v,) for v in self._candidates(seq).tolist())
                level.extend(cands if self.exact
                             else filter(self.member_ids, cands))
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

    v must be a simplex of F: atoms of F forming a member.  The raw
    predicate alone does not decide that, since a kind may keep part of its
    condition in the atom list (mu = 0 for the mu-poset, the universe for
    the lambda-poset).  The link's hook is F's at the prefix followed by v,
    read on the kept atoms, and is as exact as F's.  That puts v after the
    extension where membership puts it last, which is sound only because a
    hook's kind is order independent."""
    base_atoms = tuple(base_atoms)
    index = {a: i for i, a in enumerate(F.atoms)}
    if any(a not in index for a in base_atoms) \
            or not F.member_atoms(base_atoms):
        raise ValueError("base sequence is not a simplex of %s" % F.name)
    base_ids = tuple(index[a] for a in base_atoms)
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
                         entry_cap=F.entry_cap, extend=extend, exact=F.exact)


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
                         entry_cap=F.entry_cap, extend=extend, exact=F.exact)


# -- concrete kinds ------------------------------------------------------------


def _field_like(ring):
    if ring.kind == "gf":
        return True
    if ring.kind == "zmod":
        n = ring.size
        return n > 1 and all(n % p for p in range(2, n) if p * p <= n)
    return False


def gl_poset(M, universe=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """O(X) cap U(M): sequences from X (all of M by default) unimodular in
    M."""
    universe = list(M.elements()) if universe is None else list(universe)
    extend = None

    if _field_like(M.ring):
        from wittlab.linalg import LinearSolver

        ring = M.ring

        def span_rows(vecs):
            """Rows (i, t): the canonical v_i * b_t, as one int64 array."""
            V = np.array(vecs, dtype=np.int64).reshape(len(vecs), M.nd)
            return M.canon_columns(act_columns(ring, V)).T

        def raw(seq):
            rows = span_rows([v.vec for v in seq]).tolist()
            sol = LinearSolver(rows, ring.base_mod, width=M.nd)
            return sol.module_size == ring.size ** len(seq)

        # Over a field a prefix is unimodular iff it is independent, and it
        # stays so after a exactly when a lies outside its span.
        vecs = [x.vec for x in universe]
        atom_rows = span_rows(vecs).reshape(len(vecs), ring.base_dim,
                                            M.nd).tolist()
        coords = np.array(vecs, dtype=np.int64).reshape(len(vecs), M.nd)
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

    return SequencePoset(name or "U(%s)" % M.name, universe, raw,
                         entry_cap=cap, extend=extend,
                         exact=extend is not None)


def lambda_poset(Q_ambient, universe, name=None, cap=SIMPLEX_ENTRY_CAP):
    """O(universe) cap U(N, lambda): lambda-unimodular sequences in N."""

    def raw(seq):
        return is_lambda_unimodular(Q_ambient, list(seq)) is not None

    return SequencePoset(name or "U(%s,lam)" % Q_ambient.name, universe, raw,
                         entry_cap=cap)


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
    lam_zero is the |M| x |M| table lam == 0 that the IU and HU hooks
    read."""

    def __init__(self, Q, cap=4096):
        module = Q.module
        if module.size > cap:
            raise PosetCapExceeded("module too large for pair tables")
        self.Q = Q
        self.elems = list(module.elements(cap=cap))
        self.index = {x.vec: i for i, x in enumerate(self.elems)}
        ring = Q.ring
        m = ring.base_mod
        X = np.array([x.vec for x in self.elems], dtype=np.int64)
        coords = (X @ Q.lam_coeffs @ X.T) % m  # [t, x, y]
        powers = np.array([m ** k for k in range(ring.base_dim)],
                          dtype=np.int64)
        self.lam = np.tensordot(powers, coords, axes=1)
        self.lam_zero = self.lam == ring.zero
        self.mu0 = np.array([Q.mu_zero(x) for x in self.elems], dtype=bool)

    def lam_idx(self, i, j):
        return int(self.lam[i, j])


def iu_poset(Q, tables=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """Isotropic lambda-unimodular sequences I U(M)."""
    if tables is None:
        tables = _PairTables(Q)
    zero = Q.ring.zero
    keep = np.flatnonzero(tables.mu0)
    universe = [tables.elems[i] for i in keep]
    Z = tables.lam_zero

    def extend(prefix, cols):
        # lambda(u, a) = 0 for every u in the prefix; lambda-unimodularity
        # is left to the raw test
        rows = keep[cols]
        mask = np.ones(len(cols), dtype=bool)
        for u in prefix:
            mask &= Z[keep[u], rows] & (cols != u)
        return mask

    def raw(seq):
        idx = [tables.index[x.vec] for x in seq]
        for a in range(len(idx)):
            if not tables.mu0[idx[a]]:
                return False
            for b in range(len(idx)):
                if a != b and tables.lam_idx(idx[a], idx[b]) != zero:
                    return False
        return is_lambda_unimodular(Q, list(seq)) is not None

    return SequencePoset(name or "IU(%s)" % Q.name, universe, raw,
                         entry_cap=cap, extend=extend)


def hu_poset(Q, tables=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """Hyperbolic lambda-unimodular sequences H U(M): atoms are pairs (x, y)
    with mu(x) = mu(y) = 0 and lambda(x, y) = 1, all of them vertices;
    sequence membership reduces to pairwise lambda conditions (the
    witnesses are built into the pairs), so the hook is exact."""
    if tables is None:
        tables = _PairTables(Q)
    ring = Q.ring
    zero, one = ring.zero, ring.one
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
        idx = [(tables.index[x.vec], tables.index[y.vec]) for x, y in seq]
        k = len(idx)
        for a in range(k):
            ia, ja = idx[a]
            if not (tables.mu0[ia] and tables.mu0[ja]):
                return False
            if tables.lam_idx(ia, ja) != one:
                return False
            for b in range(k):
                if a == b:
                    continue
                ib, jb = idx[b]
                if tables.lam_idx(ia, ib) != zero:
                    return False
                if tables.lam_idx(ja, jb) != zero:
                    return False
                if tables.lam_idx(ia, jb) != zero:
                    return False
        return True

    return SequencePoset(name or "HU(%s)" % Q.name, atoms, raw,
                         entry_cap=cap, extend=extend, exact=True)
