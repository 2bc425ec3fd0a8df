"""Posets of ordered sequences realized as semisimplicial sets.

A SequencePoset holds an explicit vertex universe and a lazily memoized
membership predicate on sequences of distinct atoms; p-simplices are the
members of length p+1 and faces delete one entry.  Links and decorations
compose the predicates.

Enumeration extends each member by the atoms one candidate set allows.  A
kind may give an `extend(ids)` hook that returns that set exactly, as a mask:
given a member prefix `ids`, the atoms a for which ids + (a,) is a member.
The hook is valid only for kinds whose membership does not depend on the
order of the entries (unimodularity is one), because links compose it by
putting the base sequence after the prefix.  Without the hook, the pair rows
and the vertex set prefilter the candidates and the raw predicate decides.

A pair row, `pair_row(a, cols)`, is atom a's pair condition against the atom
ids `cols`: a necessary condition on every two entries of a member, read off
the element-level table `lam == 0` of `_PairTables` on demand.  No atom x
atom matrix is ever built.  Rows are symmetric (row a at c equals row c at
a): lambda(x, y) = 0 iff lambda(y, x) = 0, by axiom (1), lambda(x, y) =
eps * conj(lambda(y, x)) with eps a unit.
"""

import numpy as np

from wittlab.modules import act_columns, is_unimodular
from wittlab.quadratic import is_lambda_unimodular

SIMPLEX_ENTRY_CAP = 5_000_000


class PosetCapExceeded(RuntimeError):
    pass


class SequencePoset:
    """pair_row (optional) maps an atom id and an int array of atom ids to
    the numpy bool array of the pair condition, symmetric in its two atoms;
    pairwise_complete marks kinds whose membership is exactly the
    conjunction of vertex and pair conditions, skipping the raw test.

    extend (optional) maps a member prefix (a tuple of ids) to the numpy
    bool mask of the atoms a with prefix + (a,) a member.  The mask is
    exact, so no raw test runs on the candidates it allows.  Give it only
    for kinds whose membership does not depend on order: neighbors reads
    (v, w) and (w, v) off one mask, and link puts the base after the
    prefix."""

    def __init__(self, name, atoms, raw_member, entry_cap=SIMPLEX_ENTRY_CAP,
                 pair_row=None, pairwise_complete=False, extend=None):
        self.name = name
        self.atoms = list(atoms)
        self._raw = raw_member
        self._memo = {}
        self._levels = {}
        self.entry_cap = entry_cap
        self.pair_row = pair_row
        # no dense atom x atom matrix exists; perfbench/tracing.py still
        # reads the size of this attribute when it is not None
        self.pair_ok = None
        self.pairwise_complete = pairwise_complete
        self.extend = extend
        self.vertex_ids = [i for i in range(len(self.atoms))
                           if self.member_ids((i,))]
        self._varr = np.array(self.vertex_ids, dtype=np.intp)

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
        array drawn from among (ascending vertex ids; all vertices if None),
        and whether they are exact (every seq + (a,) they give is a member).
        The extend hook is exact; the pair rows are exact when the kind is
        pairwise complete; the vertex set alone is a prefilter."""
        ids = self._varr if among is None else among
        if self.extend is not None:
            return ids[self.extend(seq)[ids]], True
        for u in seq:
            keep = ids != u
            if self.pair_row is not None:
                keep &= self.pair_row(u, ids)
            ids = ids[keep]
        return ids, self.pair_row is not None and self.pairwise_complete

    def neighbors(self, vid, among=None):
        """Ids of the vertices adjacent to vid in the 1-skeleton (either
        orientation), as an ascending int array, restricted to the
        ascending vertex ids among when given.  Pair rows are symmetric,
        and an extend mask holds (w, vid) too by order independence, so one
        candidate set serves both orientations; only inexact candidates get
        the raw test."""
        cand, exact = self._candidates((vid,), among)
        if exact:
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
                cand, exact = self._candidates(seq)
                cands = (seq + (v,) for v in cand.tolist())
                level.extend(cands if exact else filter(self.member_ids, cands))
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


def link(F, base_atoms, name=None):
    """F_v: sequences w with (w, v) in F; the vertex universe drops v's atoms.

    v must be a simplex of F: atoms of F forming a member.  The raw
    predicate alone does not decide that, since a kind may keep part of its
    condition in the atom list (mu = 0 for the mu-poset, the universe for
    the lambda-poset).  When F has an extend hook, the link's hook is F's at
    the prefix followed by v, read on the kept atoms.  That puts v after the
    extension where membership puts it last, so it is exact only because a
    hook's kind is order independent."""
    base_atoms = tuple(base_atoms)
    index = {a: i for i, a in enumerate(F.atoms)}
    if any(a not in index for a in base_atoms) \
            or not F.member_atoms(base_atoms):
        raise ValueError("base sequence is not a simplex of %s" % F.name)
    base_set = set(base_atoms)
    kept = [i for i, a in enumerate(F.atoms) if a not in base_set]
    atoms = [F.atoms[i] for i in kept]
    kept_ids = np.array(kept, dtype=np.intp)
    pair_row = None
    if F.pair_row is not None:
        def pair_row(a, cols):
            return F.pair_row(kept_ids[a], kept_ids[cols])
    extend = None
    if F.extend is not None:
        base_ids = tuple(index[a] for a in base_atoms)

        def extend(ids):
            return F.extend(tuple(kept[i] for i in ids) + base_ids)[kept_ids]

    def raw(seq):
        return F.member_atoms(tuple(seq) + base_atoms)

    return SequencePoset(name or "%s_link" % F.name, atoms, raw,
                         entry_cap=F.entry_cap, pair_row=pair_row,
                         pairwise_complete=F.pairwise_complete,
                         extend=extend)


def decorate(F, decorations, name=None):
    """F<S>: atoms (v, s), membership tested on the v-part."""
    atoms = [(a, s) for a in F.atoms for s in decorations]
    base = np.repeat(np.arange(len(F.atoms)), len(decorations))
    pair_row = None
    if F.pair_row is not None:
        def pair_row(i, cols):
            b = base[cols]
            return F.pair_row(base[i], b) & (b != base[i])

    def raw(seq):
        return F.member_atoms(tuple(v for v, _s in seq))

    return SequencePoset(name or "%s<S>" % F.name, atoms, raw,
                         entry_cap=F.entry_cap, pair_row=pair_row,
                         pairwise_complete=F.pairwise_complete)


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

        def extend(ids):
            sol = LinearSolver([r for i in ids for r in atom_rows[i]], m,
                               width=M.nd)
            rem = coords.copy()
            for row, j in zip(sol.H, sol.pivots):  # reduce_vec, all at once
                rem -= np.outer(rem[:, j] // row[j], row)
                rem %= m
            return rem.any(axis=1)
    else:
        def raw(seq):
            return is_unimodular(M, seq) is not None

    return SequencePoset(name or "U(%s)" % M.name, universe, raw,
                         entry_cap=cap, extend=extend)


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
    lam_zero is the |M| x |M| table lam == 0 that pair rows read."""

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
    ring = Q.ring
    zero = ring.zero
    lam_solver_memo = {}

    keep = np.flatnonzero(tables.mu0)
    universe = [tables.elems[i] for i in keep]
    Z = tables.lam_zero

    def pair_row(a, cols):
        return Z[keep[a], keep[cols]]

    def lam_uni(seq):
        key = tuple(x.vec for x in seq)
        if key not in lam_solver_memo:
            lam_solver_memo[key] = is_lambda_unimodular(Q, list(seq)) is not None
        return lam_solver_memo[key]

    def raw(seq):
        idx = [tables.index[x.vec] for x in seq]
        for a in range(len(idx)):
            if not tables.mu0[idx[a]]:
                return False
            for b in range(len(idx)):
                if a != b and tables.lam_idx(idx[a], idx[b]) != zero:
                    return False
        return lam_uni(seq)

    return SequencePoset(name or "IU(%s)" % Q.name, universe, raw,
                         entry_cap=cap, pair_row=pair_row)


def hu_poset(Q, tables=None, name=None, cap=SIMPLEX_ENTRY_CAP):
    """Hyperbolic lambda-unimodular sequences H U(M): atoms are pairs (x, y)
    with mu(x) = mu(y) = 0 and lambda(x, y) = 1; sequence membership reduces
    to pairwise lambda conditions (the witnesses are built into the pairs),
    so the poset is pairwise-complete and fully vectorized."""
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

    def pair_row(a, cols):
        # both entries of each atom c lambda-orthogonal to both of atom a's:
        # Z[x, X[c]] & Z[y, Y[c]] & Z[x, Y[c]] & Z[y, X[c]]
        z = Z[X[a]] & Z[Y[a]]
        return z[X[cols]] & z[Y[cols]]

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
                         entry_cap=cap, pair_row=pair_row,
                         pairwise_complete=True)
