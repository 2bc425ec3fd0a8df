"""Blocks, matrix reducibility, straightening, transitivity, cancellation."""

import itertools
import random

import pytest

from wittlab.blocks import (
    AntiFunctional,
    Block,
    BlockError,
    block_act,
    cancel_H,
    frame_for,
    gl_column_to_e1,
    hyperbolic_straighten,
    is_isometry,
    is_unimodular_block,
    is_unimodular_block_bruteforce,
    matrix_reduce,
    reduce_keep_tail,
    ring_matrix_left_inverse,
    sequence_block,
    transitive_move,
)
from wittlab.catalog import catalog_ring
from wittlab.linalg import ring_left_inverse
from wittlab.modules import (
    Module,
    ModuleMap,
    cyclic_module,
    direct_sum_modules,
    free_module,
)
from wittlab.quadratic import (
    direct_sum_quadratic,
    hyperbolic,
    is_lambda_unimodular,
    is_quad_isomorphic,
    make_quadratic,
)
from wittlab.rings import make_form_parameter, make_ring

GF2 = make_ring({"kind": "gf", "q": 2})
Z4 = make_ring({"kind": "zmod", "n": 4})
P2 = make_form_parameter(GF2, 1, ())
P4 = make_form_parameter(Z4, 3, ())


def zero_funcs(M, k):
    return [AntiFunctional(M, [M.ring.zero] * M.ngens, check=False)
            for _ in range(k)]


def all_antifunctionals(M):
    ring = M.ring
    out = []
    for values in itertools.product(range(ring.size), repeat=M.ngens):
        try:
            out.append(AntiFunctional(M, values))
        except BlockError:
            pass
    return out


def test_identity_block_unimodular():
    M = free_module(GF2, 1)
    A = Block(M, [[GF2.one, GF2.zero], [GF2.zero, GF2.one]], zero_funcs(M, 2))
    got = is_unimodular_block(A)
    assert got is not None
    rprime, mprime = got
    assert rprime[0][0] == GF2.one and all(x.is_zero() for x in mprime)


def test_functional_only_block():
    # over GF(2), M = GF(2), A = (0; f = id): left inverse (0, m' = 1)
    M = free_module(GF2, 1)
    f = AntiFunctional(M, [GF2.one])
    A = Block(M, [[GF2.zero]], [f])
    got = is_unimodular_block(A)
    assert got is not None
    rprime, mprime = got
    assert f(mprime[0]) == GF2.one


def test_block_oracle_random_z4():
    rng = random.Random(42)
    M = Module(Z4, 1, ((2,),))  # Z/2 over Z/4
    funcs = all_antifunctionals(M)
    for _ in range(40):
        mat = [[rng.randrange(4) for _ in range(2)] for _ in range(3)]
        fs = [rng.choice(funcs) for _ in range(2)]
        A = Block(M, mat, fs)
        assert (is_unimodular_block(A) is not None) == \
            is_unimodular_block_bruteforce(A)


def test_left_unipotent_adds_functional_values():
    # the move's one product against AntiFunctional.__call__, on a
    # presented module over a ring of base_dim 2, then on empty shapes
    Z2C2 = catalog_ring("z2c2")
    M = direct_sum_modules(free_module(Z2C2, 1), cyclic_module(Z2C2, 3))[0]
    funcs = all_antifunctionals(M)
    rng = random.Random(5)
    for n, k in [(1, 1), (3, 2), (2, 3)]:
        A = Block(M, [[rng.randrange(4) for _ in range(k)] for _ in range(n)],
                  [rng.choice(funcs) for _ in range(k)])
        col = [M.element_at(rng.randrange(M.size)) for _ in range(n)]
        B = block_act(A, ("left_unipotent", col))
        assert B.matrix == [[int(Z2C2.add[A.matrix[i][j], A.funcs[j](col[i])])
                             for j in range(k)] for i in range(n)]
    assert block_act(Block(M, [[], []], []), (
        "left_unipotent", [M.gen(0), M.gen(1)])).matrix == [[], []]
    Z = free_module(Z2C2, 0)
    A = Block(Z, [[1, 2]], [AntiFunctional(Z, []), AntiFunctional(Z, [])])
    assert block_act(A, ("left_unipotent", [Z.zero()])) == A


def test_block_moves():
    M = free_module(GF2, 2)
    f1 = AntiFunctional(M, [GF2.one, GF2.zero])
    f2 = AntiFunctional(M, [GF2.zero, GF2.one])
    A = Block(M, [[1, 0], [1, 1]], [f1, f2])
    ident = [[GF2.one, GF2.zero], [GF2.zero, GF2.one]]
    assert block_act(A, ("left_gl", ident)) == A
    assert block_act(A, ("right", ident)) == A
    assert block_act(A, ("left_unipotent", [M.zero(), M.zero()])) == A
    # left unipotent adds f_j(m_i)
    m = [M.gen(0), M.gen(1)]
    B = block_act(A, ("left_unipotent", m))
    for i in range(2):
        for j in range(2):
            want = int(GF2.add[A.matrix[i][j], A.funcs[j](m[i])])
            assert B.matrix[i][j] == want
    # move and inverse restore bit-exactly
    C = block_act(B, ("left_unipotent", [-m[0], -m[1]]))
    assert C == A
    D = [[1, 1], [0, 1]]
    Dinv = [[1, 1], [0, 1]]  # self-inverse over GF(2)
    assert block_act(block_act(A, ("right", D)), ("right", Dinv)) == A


GL_RINGS = {
    "z4": lambda: Z4,
    "z2c2": lambda: catalog_ring("z2c2"),
    "gf2s3": lambda: make_ring({"kind": "group_ring", "m": 2,
                                "group": "S3"}),
}


@pytest.mark.parametrize("name", sorted(GL_RINGS))
def test_block_act_refuses_singular_matrices(name):
    # seeded square C, some with a zero or a repeated row: left_gl and
    # right raise exactly when C has no left inverse
    ring = GL_RINGS[name]()
    M = free_module(ring, 1)
    funcs = [f for f in all_antifunctionals(M) if any(f.values)]
    rng = random.Random(name)
    for k in (1, 2, 3):
        A = Block(M, [[rng.randrange(ring.size) for _ in range(k)]
                      for _ in range(k)],
                  [rng.choice(funcs) for _ in range(k)])
        seen = set()
        for t in range(30):
            C = [[rng.randrange(ring.size) for _ in range(k)]
                 for _ in range(k)]
            if t == 0:
                C = [[ring.one if i == j else ring.zero for j in range(k)]
                     for i in range(k)]
            elif t % 3 == 1:
                C[-1] = [ring.zero] * k
            elif t % 3 == 2 and k > 1:
                C[-1] = list(C[0])
            singular = ring_left_inverse(ring, C) is None
            seen.add(singular)
            for move in ("left_gl", "right"):
                if singular:
                    with pytest.raises(BlockError, match="not invertible"):
                        block_act(A, (move, C))
                else:
                    block_act(A, (move, C))
        assert seen == {True, False}


def test_unimodularity_invariant_under_moves():
    rng = random.Random(7)
    M = free_module(GF2, 1)
    funcs = all_antifunctionals(M)
    for _ in range(30):
        mat = [[rng.randrange(2) for _ in range(2)] for _ in range(3)]
        A = Block(M, mat, [rng.choice(funcs) for _ in range(2)])
        uni = is_unimodular_block(A) is not None
        m = [M.from_vec([rng.randrange(2)]) for _ in range(3)]
        assert (is_unimodular_block(block_act(A, ("left_unipotent", m)))
                is not None) == uni
        D = [[1, 1], [0, 1]]
        assert (is_unimodular_block(block_act(A, ("right", D)))
                is not None) == uni


def test_gl_column_to_e1():
    rng = random.Random(3)
    from wittlab.blocks import row_left_coefficients

    for ring in (GF2, Z4):
        for _ in range(25):
            n = rng.choice([2, 3])
            col = [rng.randrange(ring.size) for _ in range(n)]
            if row_left_coefficients(ring, col) is None:
                continue
            C = gl_column_to_e1(ring, col)
            out = [0] * n  # C @ col, entry by entry through the tables
            for i in range(n):
                for c, v in zip(C[i], col):
                    out[i] = int(ring.add[out[i], ring.mul[c, v]])
            assert out[0] == ring.one
            assert all(out[i] == ring.zero for i in range(1, n))


def test_matrix_reduce_minimal():
    # GF(2), M = GF(2), n = 1, k = 1, A = (0; id): m = (1)
    M = free_module(GF2, 1)
    A = Block(M, [[GF2.zero]], [AntiFunctional(M, [GF2.one])])
    cert = matrix_reduce(A, sr=1)
    assert cert.replay_ok()
    assert ring_matrix_left_inverse(GF2, cert.top_matrix) is not None
    assert cert.m_column[0] == M.gen(0)


def test_matrix_reduce_base_z4():
    # k = 1 over Z/4 with column (2; f), f(m') = 1
    M = free_module(Z4, 1)
    A = Block(M, [[2]], [AntiFunctional(M, [1])])
    cert = matrix_reduce(A, sr=1)
    assert cert.replay_ok()
    assert ring_matrix_left_inverse(Z4, cert.top_matrix) is not None


def test_matrix_reduce_accepts_trivial():
    # top already unimodular -> m = 0 accepted
    M = free_module(Z4, 1)
    A = Block(M, [[1], [2]], [AntiFunctional(M, [0], check=False)])
    cert = matrix_reduce(A, sr=1)
    assert all(x.is_zero() for x in cert.m_column)


def exhaustive_blocks(ring, M, n, k):
    funcs = all_antifunctionals(M)
    for entries in itertools.product(range(ring.size), repeat=n * k):
        mat = [list(entries[i * k:(i + 1) * k]) for i in range(n)]
        for fs in itertools.product(funcs, repeat=k):
            yield Block(M, mat, list(fs))


def test_matrix_reduce_exhaustive_gf2():
    # every unimodular block in range reduces, certificates replay
    M = free_module(GF2, 1)
    count = 0
    for n, k in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        if k + 1 > n + 1:
            continue
        for A in exhaustive_blocks(GF2, M, n, k):
            if is_unimodular_block(A) is None:
                continue
            cert = matrix_reduce(A, sr=1)
            assert cert.replay_ok()
            assert ring_matrix_left_inverse(GF2, cert.top_matrix) is not None
            count += 1
    assert count > 100


def test_reduce_keep_tail_gf2():
    # n = 2, k = 1, l = 1: tail rows preserved bit-exactly
    M = free_module(GF2, 1)
    rng = random.Random(11)
    funcs = all_antifunctionals(M)
    done = 0
    for A in exhaustive_blocks(GF2, M, 3, 1):
        if is_unimodular_block(A) is None:
            continue
        cert = reduce_keep_tail(A, 2, 1, sr=1)
        assert cert.replay_ok()
        # mixing-form outputs
        assert ring_matrix_left_inverse(GF2, cert.top_mixed) is not None
        assert cert.tail_rows == [A.matrix[2]]
        # plain form: whole matrix unimodular after the unipotent alone
        assert ring_matrix_left_inverse(GF2, cert.plain_matrix) is not None
        assert all(x.is_zero() for x in cert.m_column[2:])
        done += 1
    assert done > 10


KEEP_TAIL_MODULES = {
    "gf2": lambda: free_module(catalog_ring("gf2"), 1),
    "z4/(2)": lambda: cyclic_module(Z4, 2),
    "gf3": lambda: free_module(catalog_ring("gf3"), 1),
    "z2c2": lambda: free_module(catalog_ring("z2c2"), 1),
}


@pytest.mark.parametrize("n,l,k", [(2, 1, 1), (2, 2, 1), (3, 3, 1),
                                   (3, 3, 2)])
@pytest.mark.parametrize("module", sorted(KEEP_TAIL_MODULES))
def test_reduce_keep_tail_random(module, n, l, k):
    # seeded unimodular blocks with non-zero functionals, tails of any l
    M = KEEP_TAIL_MODULES[module]()
    ring = M.ring
    funcs = [f for f in all_antifunctionals(M) if any(f.values)]
    rng = random.Random("%s-%d-%d-%d" % (module, n, l, k))
    # the brute-force oracle's cap: every case but (3, 3, 2) off GF(2)
    fits = (ring.size ** (n + l) * M.size) ** k <= 1 << 22
    done = 0
    while done < 8:
        A = Block(M, [[rng.randrange(ring.size) for _ in range(k)]
                      for _ in range(n + l)],
                  [rng.choice(funcs) for _ in range(k)])
        if is_unimodular_block(A) is None:
            continue
        cert = reduce_keep_tail(A, n, l, sr=1)
        assert cert.replay_ok()
        assert ring_matrix_left_inverse(ring, cert.top_mixed) is not None
        assert cert.tail_rows == A.matrix[n:]
        assert ring_matrix_left_inverse(ring, cert.plain_matrix) is not None
        assert all(x.is_zero() for x in cert.m_column[n:])
        if fits:
            assert is_unimodular_block_bruteforce(
                Block(M, cert.plain_matrix, zero_funcs(M, k)))
        done += 1


def test_sequence_block_matches_lambda_unimodularity():
    D = make_quadratic(free_module(GF2, 1), [[0]], [0], P2)
    Q, la, lb = direct_sum_quadratic(D, hyperbolic(P2, 2))
    frame = frame_for(Q, usr=1)
    seq = [lb(hyperbolic(P2, 2).module.gen(0))]  # e_1 of the H^2 part
    A, ps = sequence_block(frame, seq)
    assert (is_unimodular_block(A) is not None) == \
        (is_lambda_unimodular(Q, seq) is not None)


def test_straighten_e2_in_h3():
    H3 = hyperbolic(P2, 3)
    v = H3.module.gen(2)  # e_2
    phi = hyperbolic_straighten(H3, [v], 1, usr=1)
    frame = frame_for(H3, usr=1)
    out = phi(v)
    As, Bs = frame.hyperbolic_coords(out)
    assert all(a == GF2.zero for a in As[1:])
    assert all(b == GF2.zero for b in Bs[1:])
    assert is_lambda_unimodular(H3, [out]) is not None


def test_straighten_with_p_part():
    D = make_quadratic(free_module(GF2, 1), [[0]], [0], P2)
    Q, la, lb = direct_sum_quadratic(hyperbolic(P2, 2), D)
    frame = frame_for(Q, usr=1)
    H2 = hyperbolic(P2, 2)
    # v mixes the P part with a hyperbolic coordinate
    v = la(H2.module.gen(0)) + lb(D.module.gen(0))
    assert is_lambda_unimodular(Q, [v]) is not None
    phi = hyperbolic_straighten(Q, [v], 1, frame=frame, usr=1)
    out = phi(v)
    As, Bs = frame.hyperbolic_coords(out)
    assert all(a == GF2.zero for a in As[1:])
    assert all(b == GF2.zero for b in Bs[1:])


@pytest.mark.parametrize("ring_name", ["gf3", "z4"])
def test_straighten_with_nondegenerate_complement(ring_name, monkeypatch):
    # P of rank 1 with gram [[2]] and mu [1]: lambda does not vanish on P,
    # so the keep-tail column is not always zero
    ring = catalog_ring(ring_name)
    param = make_form_parameter(ring, ring.one, ())
    P = make_quadratic(free_module(ring, 1), [[2]], [1], param)
    Q, _, _ = direct_sum_quadratic(hyperbolic(param, 2), P)
    frame = frame_for(Q, usr=1)
    columns = []

    def spy(*args, **kwargs):
        cert = reduce_keep_tail(*args, **kwargs)
        columns.append(cert.m_column)
        return cert

    monkeypatch.setattr("wittlab.blocks.reduce_keep_tail", spy)
    done = 0
    for v in Q.module.elements():
        if is_lambda_unimodular(Q, [v]) is None:
            continue
        phi = hyperbolic_straighten(Q, [v], 1, frame=frame, usr=1)
        out = phi(v)
        As, Bs = frame.hyperbolic_coords(out)
        assert all(a == ring.zero for a in As[1:])
        assert all(b == ring.zero for b in Bs[1:])
        assert is_lambda_unimodular(frame.H_std,
                                    [frame.project_std(out)]) is not None
        assert is_isometry(Q, Q, phi.f)
        done += 1
    assert done == len(columns) > 0
    assert any(not x.is_zero() for col in columns for x in col)


def test_transitive_move_e2_to_e1():
    H2 = hyperbolic(P2, 2)
    v = H2.module.gen(2)  # e_2
    phi, target = transitive_move(H2, v, GF2.zero, usr=1)
    e1 = H2.hyperbolic_pairs[0][0]
    assert target == e1
    assert phi(v) == e1
    # unitarity conserves mu and lambda-unimodularity
    assert H2.mu_rep(phi(v)) == H2.mu_rep(v)


def test_transitive_move_identity_case():
    H2 = hyperbolic(P2, 2)
    e1, f1 = H2.hyperbolic_pairs[0]
    v = e1 + f1  # mu(v) = 1
    phi, target = transitive_move(H2, v, GF2.one, usr=1)
    assert phi(v) == target == e1 + f1


def test_transitive_move_nonzero_mu_z4():
    H2 = hyperbolic(P4, 2)
    e1, f1 = H2.hyperbolic_pairs[0]
    v = e1 + f1 * 3
    r = H2.mu_rep(v)
    phi, target = transitive_move(H2, v, r, usr=1)
    assert phi(v) == target == e1 + f1 * r


def test_cancel_h_permuted_basis():
    H = hyperbolic(P2, 1)
    H1 = hyperbolic(P2, 1)
    MH, lift_m, _ = direct_sum_quadratic(H, H1)
    NH, lift_n, _ = direct_sum_quadratic(H, H1)
    # iso swapping the two hyperbolic planes
    e0, f0 = MH.hyperbolic_pairs[0]
    e1, f1 = MH.hyperbolic_pairs[1]
    imgs = {0: NH.module.gen(2), 1: NH.module.gen(3),
            2: NH.module.gen(0), 3: NH.module.gen(1)}
    iso = ModuleMap(MH.module, NH.module,
                    [imgs[i] for i in range(4)], check=False)
    assert is_isometry(MH, NH, iso)
    beta = cancel_H(H, H, iso, sums=(MH, NH), usr=1)
    assert is_isometry(H, H, beta)


def test_cancel_h_with_degenerate_part():
    D = make_quadratic(free_module(GF2, 1), [[0]], [0], P2)
    Qm, _, _ = direct_sum_quadratic(hyperbolic(P2, 1), D)
    Qn, _, _ = direct_sum_quadratic(D, hyperbolic(P2, 1))
    H1 = hyperbolic(P2, 1)
    MH, lift_m, _ = direct_sum_quadratic(Qm, H1)
    NH, lift_n, _ = direct_sum_quadratic(Qn, H1)
    iso = is_quad_isomorphic(MH, NH)
    assert iso is not None
    beta = cancel_H(Qm, Qn, iso, sums=(MH, NH), usr=1)
    assert is_isometry(Qm, Qn, beta)
    # cross-check against the exhaustive isometry search
    assert is_quad_isomorphic(Qm, Qn) is not None


def test_unitary_word_replay_roundtrip():
    from wittlab.quadratic import replay_word, unitary_word

    H3 = hyperbolic(P2, 3)
    v = H3.module.element((0, 1, 1, 0, 1, 0))
    if is_lambda_unimodular(H3, [v]) is None:
        v = H3.module.gen(2)
    phi, target = transitive_move(H3, v, H3.mu_rep(v), usr=1)
    word = unitary_word(phi)
    assert word, "pipeline must emit a non-empty move list"
    replayed = replay_word(H3, word)
    for x in [v, H3.module.gen(0), H3.module.gen(3)]:
        assert replayed(x) == phi(x)
    # the word is JSON-serializable as the external-replay contract asks
    import json

    parsed = json.loads(json.dumps(word))
    replayed2 = replay_word(H3, parsed)
    assert replayed2(v) == phi(v)
