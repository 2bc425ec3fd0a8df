"""Ring construction, involution laws, form parameters, Lambda cosets."""

import hashlib

import numpy as np
import pytest

from wittlab.rings import (
    RingError,
    lambda_bounds,
    make_form_parameter,
    make_ring,
    _IRREDUCIBLE,
    _NAMED_GROUPS,
)


def _check_conj_reverses(ring):
    # direct, loop-based check of conj(ab) = conj(b) conj(a)
    for a in range(ring.size):
        for b in range(ring.size):
            if ring.conj[ring.mul[a, b]] != ring.mul[ring.conj[b], ring.conj[a]]:
                return False
    return True


def test_zmod4_identity_involution():
    R = make_ring({"kind": "zmod", "n": 4})
    assert R.size == 4
    assert list(R.conj) == [0, 1, 2, 3]
    assert R.add[3, 2] == 1 and R.mul[3, 3] == 1
    assert R.units == {1, 3}


def test_gf2():
    R = make_ring({"kind": "gf", "q": 2})
    assert R.size == 2
    assert list(R.conj) == [0, 1]


def test_gf4_frobenius_is_involution():
    R = make_ring({"kind": "gf", "q": 4, "conj": "frobenius"})
    # x -> x^2 fixes GF(2) and swaps the two primitive elements
    assert R.conj[0] == 0 and R.conj[R.one] == R.one
    prim = [a for a in range(4) if a not in (0, R.one)]
    assert sorted(int(R.conj[a]) for a in prim) == sorted(prim)
    assert _check_conj_reverses(R)


def test_gf8_frobenius_rejected():
    with pytest.raises(RingError):
        make_ring({"kind": "gf", "q": 8, "conj": "frobenius"})


def test_gf_non_prime_power_rejected():
    with pytest.raises(RingError):
        make_ring({"kind": "gf", "q": 6})


def test_group_ring_z2c2_conj_is_identity():
    # conj(g) = w1(g) g^-1 = g over C_2: the involution is the identity
    R = make_ring({"kind": "group_ring", "m": 2, "group": "C2", "w1": [1, 1]})
    assert R.size == 4
    assert list(R.conj) == list(range(4))
    assert _check_conj_reverses(R)


def test_group_ring_w1_must_be_homomorphism():
    with pytest.raises(RingError):
        make_ring({"kind": "group_ring", "m": 3, "group": "C3", "w1": [1, -1, 1]})


def test_group_ring_sign_character():
    R = make_ring({"kind": "group_ring", "m": 3, "group": "C2", "w1": [1, -1]})
    # conj(g) = -g for the generator g of C_2
    g = R.index_of_coords((0, 1))
    minus_g = R.index_of_coords((0, 2))
    assert R.conj[g] == minus_g
    assert _check_conj_reverses(R)


def test_noncommutative_group_ring_involution():
    R = make_ring({"kind": "group_ring", "m": 2, "group": "S3"})
    assert R.size == 64
    assert _check_conj_reverses(R)
    assert not all(R.mul[a, b] == R.mul[b, a] for a in range(8) for b in range(8))


def test_size_cap():
    with pytest.raises(RingError):
        make_ring({"kind": "zmod", "n": 300})


def test_lambda_bounds_z4():
    R = make_ring({"kind": "zmod", "n": 4})
    # eps = 3 = -1: Lambda_max is all of Z/4, Lambda_min = {r + r} = {0, 2}
    lam_min, lam_max = lambda_bounds(R, 3)
    assert lam_min == {0, 2}
    assert lam_max == {0, 1, 2, 3}


def test_lambda_bounds_gf2():
    R = make_ring({"kind": "gf", "q": 2})
    lam_min, lam_max = lambda_bounds(R, 1)
    assert lam_min == {0}
    assert lam_max == {0, 1}


def test_lambda_bounds_rejects_bad_epsilon():
    R = make_ring({"kind": "zmod", "n": 4})
    with pytest.raises(RingError):
        lambda_bounds(R, 2)  # not a unit


def test_make_form_parameter_closure():
    R = make_ring({"kind": "gf", "q": 2})
    p0 = make_form_parameter(R, 1, ())
    assert p0.lam == {0}
    p1 = make_form_parameter(R, 1, (1,))
    assert p1.lam == {0, 1}

    Z4 = make_ring({"kind": "zmod", "n": 4})
    p2 = make_form_parameter(Z4, 3, ())
    assert p2.lam == {0, 2}


def test_form_parameter_rejects_escape():
    # Z/4 with eps = 1: Lambda_max = {0, 2}; generator 1 escapes
    Z4 = make_ring({"kind": "zmod", "n": 4})
    with pytest.raises(RingError):
        make_form_parameter(Z4, 1, (1,))


def test_cosets():
    Z4 = make_ring({"kind": "zmod", "n": 4})
    p = make_form_parameter(Z4, 3, ())  # Lambda = {0, 2}
    assert p.coset_rep(3) == p.coset_rep(1)
    assert p.coset_rep(0) != p.coset_rep(1)
    assert p.coset_rep(3) == 1
    assert p.coset_rep(0) == Z4.zero
    # coset equality consistent with addition: rep(a)+rep(b) ~ a+b
    for a in range(4):
        for b in range(4):
            s = int(Z4.add[a, b])
            assert p.coset_rep(int(Z4.add[p.coset_rep(a), p.coset_rep(b)])) == \
                p.coset_rep(s)


def test_form_parameter_sandwich_exhaustive():
    R = make_ring({"kind": "group_ring", "m": 3, "group": "C2", "w1": [1, -1]})
    eps = R.one
    lam_min, lam_max = lambda_bounds(R, eps)
    p = make_form_parameter(R, eps, ())
    for r in range(R.size):
        rc = int(R.conj[r])
        for a in p.lam:
            assert int(R.mul[R.mul[rc, a], r]) in p.lam


def test_all_supported_gf_sizes():
    for q in (2, 3, 4, 5, 7, 8, 9):
        R = make_ring({"kind": "gf", "q": q})
        assert R.size == q
        assert len(R.units) == q - 1
        assert _check_conj_reverses(R)
    for q in (4, 9):
        R = make_ring({"kind": "gf", "q": q, "conj": "frobenius"})
        fixed = sum(1 for a in range(q) if R.conj[a] == a)
        assert fixed == int(q ** 0.5)  # fixed field of the involution


def test_zmod_composite():
    R = make_ring({"kind": "zmod", "n": 12})
    assert R.size == 12
    assert len(R.units) == 4  # 1, 5, 7, 11


def test_group_ring_z4c2():
    R = make_ring({"kind": "group_ring", "m": 4, "group": "C2"})
    assert R.size == 16 and R.base_dim == 2
    assert _check_conj_reverses(R)


def test_w1_as_dict():
    R = make_ring({"kind": "group_ring", "m": 3, "group": "C2",
                   "w1": {"0": 1, "1": -1}})
    g = R.index_of_coords((0, 1))
    assert R.conj[g] == R.index_of_coords((0, 2))


def test_group_ring_q8():
    R = make_ring({"kind": "group_ring", "m": 2, "group": "Q8"})
    assert R.size == 256
    assert _check_conj_reverses(R)


# -- the tables against their definitions ---------------------------------
# The oracle builds each table element by element from the definition of the
# ring: the polynomial product mod _IRREDUCIBLE, Frobenius by repeated
# products, group-algebra convolution and conj(g) = w1(g) g^-1.


def _coeffs(i, m, d):
    return [i // m ** t % m for t in range(d)]


def _index(coeffs, m):
    return sum(int(c) % m * m ** t for t, c in enumerate(coeffs))


def _oracle_zmod(n):
    mul = [[i * j % n for j in range(n)] for i in range(n)]
    return n, 1, mul, list(range(n))


def _oracle_gf(q, mode):
    p = next(k for k in range(2, q + 1) if q % k == 0)
    e = next(k for k in range(1, q) if p ** k >= q)

    def poly_mul(i, j):
        prod = [0] * (2 * e - 1)
        for s, a in enumerate(_coeffs(i, p, e)):
            for t, b in enumerate(_coeffs(j, p, e)):
                prod[s + t] = (prod[s + t] + a * b) % p
        for s in range(2 * e - 2, e - 1, -1):  # x^e = sum red[k] x^k
            v, prod[s] = prod[s], 0
            for k, rk in enumerate(_IRREDUCIBLE[q]):
                prod[s - e + k] = (prod[s - e + k] + v * rk) % p
        return _index(prod[:e], p)

    mul = [[poly_mul(i, j) for j in range(q)] for i in range(q)]
    conj = list(range(q))
    if mode == "frobenius":
        for a in range(q):
            for _ in range(p ** (e // 2) - 1):
                conj[a] = mul[conj[a]][a]
    return p, e, mul, conj


def _oracle_group_ring(m, table, w1):
    ng = len(table)
    ident = next(g for g in range(ng) if table[g] == list(range(ng)))
    ginv = [table[g].index(ident) for g in range(ng)]

    def gr_mul(i, j):
        out = [0] * ng
        for g, a in enumerate(_coeffs(i, m, ng)):
            for h, b in enumerate(_coeffs(j, m, ng)):
                out[table[g][h]] += a * b
        return _index(out, m)

    def gr_conj(i):
        out = [0] * ng
        for g, a in enumerate(_coeffs(i, m, ng)):
            out[ginv[g]] += w1[g] * a
        return _index(out, m)

    size = m ** ng
    return (m, ng, [[gr_mul(i, j) for j in range(size)] for i in range(size)],
            [gr_conj(i) for i in range(size)])


def _oracle_specs():
    cases = [({"kind": "zmod", "n": n}, _oracle_zmod(n)) for n in range(2, 65)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        for mode in ("id", "frobenius") if q != 8 else ("id",):
            cases.append(({"kind": "gf", "q": q, "conj": mode},
                          _oracle_gf(q, mode)))
    for name, table in _NAMED_GROUPS.items():
        for m in range(2, 82):
            if m ** len(table) <= 81:
                cases.append(({"kind": "group_ring", "m": m, "group": name},
                              _oracle_group_ring(m, table, [1] * len(table))))
    cases.append(({"kind": "group_ring", "m": 3, "group": "C2", "w1": [1, -1]},
                  _oracle_group_ring(3, _NAMED_GROUPS["C2"], [1, -1])))
    return cases


def _loop_tables(ring):
    """Every exposed table, rebuilt by loops from mul and conj alone."""
    m, d, size = ring.base_mod, ring.base_dim, ring.size
    coords = [_coeffs(i, m, d) for i in range(size)]
    add = [[_index([a + b for a, b in zip(coords[i], coords[j])], m)
            for j in range(size)] for i in range(size)]
    one = next(i for i in range(size)
               if all(ring.mul[i, j] == ring.mul[j, i] == j for j in range(size)))
    inv = [next((j for j in range(size)
                 if ring.mul[i, j] == ring.mul[j, i] == one), -1)
           for i in range(size)]
    basis = [_index([int(k == t) for k in range(d)], m) for t in range(d)]
    return {
        "to_base": coords,
        "add": add,
        "neg": [_index([-c for c in x], m) for x in coords],
        "inv": inv,
        "Lmat": [[[coords[ring.mul[a, b]][u] for b in basis] for u in range(d)]
                 for a in range(size)],
        "Rmat": [[[coords[ring.mul[b, a]][u] for b in basis] for u in range(d)]
                 for a in range(size)],
        "Cmat": [[coords[ring.conj[b]][u] for b in basis] for u in range(d)],
        "one": one,
        "basis": basis,
        "units": {i for i in range(size) if inv[i] >= 0},
        "central": {a for a in range(size)
                    if all(ring.mul[a, b] == ring.mul[b, a] for b in range(size))},
    }


def test_tables_match_the_definitions():
    for spec, (m, d, mul, conj) in _oracle_specs():
        R = make_ring(spec)
        assert (R.base_mod, R.base_dim, R.size) == (m, d, m ** d), spec
        assert R.mul.tolist() == mul and R.conj.tolist() == conj, spec
        for name, want in _loop_tables(R).items():
            got = getattr(R, name)
            got = got.tolist() if isinstance(got, np.ndarray) else got
            assert got == want, (spec, name)
        assert R.zero == 0
        for name in ("to_base", "add", "neg", "mul", "conj", "inv", "Lmat",
                     "Rmat", "Cmat"):
            table = getattr(R, name)
            assert table.dtype == np.int64 and table.flags.c_contiguous, \
                (spec, name)


def _table_digest(ring):
    h = hashlib.sha256()
    for name in ("to_base", "add", "neg", "mul", "conj", "inv", "Lmat", "Rmat",
                 "Cmat"):
        h.update(np.ascontiguousarray(getattr(ring, name), dtype=np.int64))
    h.update(repr((ring.name, ring.one, sorted(ring.units), sorted(ring.central),
                   ring.basis)).encode())
    return h.hexdigest()


# sha256 of every table of the 256-element group rings over GF(2), taken from
# an element-by-element construction; the loop oracle above is too slow here
PINNED_256 = {
    "Q8":
        "d2d970f7d34a07f33a3f837d3746e75575cbeb5f1c644d7d18b863f9561ebc61",
    "D4":
        "33f29661592f97103413f45ee46890f59771aca79412bc3e17f86bbaaf4587f3",
    "C2xC4":
        "bff16a73bade355ee6c25a3508655d13ca5847084de3de5e0951c3dabf056849",
    "C2xC2xC2":
        "6cfb428c12bc950158bd56ffc8d992bcb3f40f6d329cd0630921d7cd03141c7e",
    "C8":
        "9c54829af25048d7c27a6e574001ede09a2e7367c7e1170e168572549354fd7d",
}


@pytest.mark.parametrize("group", sorted(PINNED_256))
def test_256_element_group_ring_tables_are_pinned(group):
    R = make_ring({"kind": "group_ring", "m": 2, "group": group})
    assert R.size == 256
    assert _table_digest(R) == PINNED_256[group]


@pytest.mark.parametrize("spec, message", [
    ({"kind": "group_ring", "m": 2, "group": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
     "multiplication not associative"),
    ({"kind": "gf", "q": 8, "conj": "frobenius"}, "not an involution"),
    ({"kind": "group_ring", "m": 3, "group": "C3", "w1": [1, -1, 1]},
     "w1 is not a homomorphism"),
])
def test_basis_checks_refuse_non_rings(spec, message):
    with pytest.raises(RingError, match=message):
        make_ring(spec)
