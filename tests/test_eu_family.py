"""The (T_n) path: batched transvection families, mu classes as element
codes, and the usr reports, against pinned digests and per-element
oracles.

The digests were taken with the per-transvection route: every
tau(b, u, x) built from module elements and verified unitary one by one,
duplicates dropped afterwards, and mu classes collected as lists of
module elements.  The family oracle below is that route, with the
transvection formula evaluated in module-element arithmetic.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from wittlab import catalog as C
from wittlab import stable_range as S
from wittlab.linalg import row_unimodular
from wittlab.modules import ModuleElement, ModuleMap
from wittlab.quadratic import (
    hyperbolic,
    is_unitary,
    transvection,
    transvection_matrices,
)
from wittlab.rings import RingError, make_form_parameter, make_ring

GF2 = make_ring({"kind": "gf", "q": 2})
P2 = make_form_parameter(GF2, 1, ())


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def family_digest(gens):
    return sha(repr([(t.tag, t.f.B.tobytes()) for t in gens]))


def catalog_params():
    return [(rname, pname, param) for rname in C.ring_names()
            for pname, param in C.catalog_parameters(rname)]


USR_DIGESTS = {
    "gf2:eps1:min":
        "0af9819890d4ec9a7156160cda1289c7888ea3f57844c5725124911e4cfee58d",
    "gf2:eps1:max":
        "9f0eff36114249f183076e1f5c79bbb187e2eab3266ffe72bad337d0517aebce",
    "gf3:eps1:min":
        "47d2a38984aead2d99110af2e53ccb627e68f6174bf8178f79c907f6c5846ac8",
    "gf3:eps2:min":
        "e674da08500d8cbcf9ab9b03729832f515f03f33d963a556138677ad1f849ea9",
    "gf4:eps1:min":
        "007a334c15da1c60cb2ef622dfd4b4a6ec3abed6b276de2b01db8541afd0030e",
    "gf4:eps2:min":
        "007a334c15da1c60cb2ef622dfd4b4a6ec3abed6b276de2b01db8541afd0030e",
    "gf4:eps3:min":
        "007a334c15da1c60cb2ef622dfd4b4a6ec3abed6b276de2b01db8541afd0030e",
    "z2c2:eps1:min":
        "49a5d78fedbb7d75e30f71d275a50d4873767b27d82e080fe2237458796b46ef",
    "z2c2:eps1:max":
        "a7ba45456c5597dcdc5383568e7025a8d364aaec0117ee620ffead8116813645",
    "z2c2:eps2:min":
        "5cc0b21c4a771d09bb0f4d50756aad9942c4a4d6c3feeed8e5020525110da52b",
    "z3c2:eps1:min":
        "46842caf6ef256668e953534d66e221468e2b68d57011ec19337abfe07cf7b86",
    "z3c2:eps2:min":
        "cb310337e4cd137727b097334dbcd810ef04fd9d7b5fb61554da6bb8eaaa0d1a",
    "z3c2:eps3:min":
        "4beb187bb73e9650320429a44dab95aa4b4d5c119db2daa2a3706c47fe4aebf9",
    "z3c2:eps6:min":
        "4beb187bb73e9650320429a44dab95aa4b4d5c119db2daa2a3706c47fe4aebf9",
    "z3c2w:eps1:min":
        "8c1f9af9e98827a24c8bb23e5c400c44f44f5691c5faea5482246d8b8f422c36",
    "z3c2w:eps2:min":
        "8c1f9af9e98827a24c8bb23e5c400c44f44f5691c5faea5482246d8b8f422c36",
    "z4:eps1:min":
        "e52ddd7db8396472cbedc26fb7a8aeb48007538c1e48c8ef66af570ffde6a50f",
    "z4:eps1:max":
        "04cb284f9a7a9ca534d0420967738b8032cf8af12735a8cd53ba961326b55fa7",
    "z4:eps3:min":
        "04cb284f9a7a9ca534d0420967738b8032cf8af12735a8cd53ba961326b55fa7",
    "z4:eps3:max":
        "df7155210d47f17733dc487205dee6e1ee4a9be2bcf82f21d8aad60277008ba0",
    "z8:eps1:min":
        "d15c335ed489c48aef9cb86acac1beceb38c41531d7d78bb9269c3f32e5dc125",
    "z8:eps1:max":
        "164e16ae644f984950f9d1b9a4cfbf14d85938d3c593994c47bef6a8eeb6428b",
    "z8:eps3:min":
        "f495054ad7ccbc365027bce27da0e6e40d1366a237c679193c8359c93ba0a2db",
    "z8:eps5:min":
        "164e16ae644f984950f9d1b9a4cfbf14d85938d3c593994c47bef6a8eeb6428b",
    "z8:eps7:min":
        "f495054ad7ccbc365027bce27da0e6e40d1366a237c679193c8359c93ba0a2db",
    "z8:eps7:max":
        "f9696291fddff780b9bfa3d1ab438cc5f3f878af89d2ff00b01d3e597c6b2225",
}

# (basis on H^1, basis on H^2, all on H^1)
FAMILY_DIGESTS = {
    "gf2:eps1:min": (
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
        "5fe70a937c1140c98f64af5b94dc59e33fcdbd303928324a96103bc6b3b694e8",
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
    ),
    "gf2:eps1:max": (
        "fed1c94ac7343cc3546eadcfc4e3acb355db7e8bfec3aeffc30ef336dc13ce2b",
        "180cec74927169a82aac95a5f92d8cd40e9e6905cf77a23a8dcdeb6fadddf1f3",
        "fed1c94ac7343cc3546eadcfc4e3acb355db7e8bfec3aeffc30ef336dc13ce2b",
    ),
    "gf3:eps1:min": (
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
        "ca1304a1dc1b87fa2cbc86b54278931814eb254cd2bf5e715969b7782e4911fb",
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
    ),
    "gf3:eps2:min": (
        "889719a4585f8c34feda0086b0d24f73673bdcccaa7f1226a1489cccea99dede",
        "8ede7029fe3be02533d692c11b024bd33f2e31eda33fc88eaa406af1a4139c72",
        "889719a4585f8c34feda0086b0d24f73673bdcccaa7f1226a1489cccea99dede",
    ),
    "gf4:eps1:min": (
        "f9b66bc194eac25596614f87d5313c8b43a0fdd0d765194bae260d8107ef47ad",
        "86e261bffe8b3d81fc8cd17745327e38ed22999c8ae5b1e2c957bf9611c67dee",
        "f9b66bc194eac25596614f87d5313c8b43a0fdd0d765194bae260d8107ef47ad",
    ),
    "gf4:eps2:min": (
        "07eadfd34324ca4bfb160d29d9ec36f8d046cf76ee1e9423d7e67e99a72fb25c",
        "78135907d2bb8a354d1537cd8d641be99955106248b5f9396fc1671d09525ada",
        "07eadfd34324ca4bfb160d29d9ec36f8d046cf76ee1e9423d7e67e99a72fb25c",
    ),
    "gf4:eps3:min": (
        "3c78d92dfb09c4afb68bb2b1818efe1541a9533e22c8a5ab9796e640617be000",
        "a041af52c0834f32728c8d050e4d2a6efcc80b5609e8a81e820f1878cce5ff1e",
        "3c78d92dfb09c4afb68bb2b1818efe1541a9533e22c8a5ab9796e640617be000",
    ),
    "z2c2:eps1:min": (
        "343a9761f7417bc755c7ba519cf35334f60eab0c27f86882332393351f9fc066",
        "8495a4d2ad38dbf43e97f72034a43f878d21c82997254b06cd149f01aa858a32",
        "343a9761f7417bc755c7ba519cf35334f60eab0c27f86882332393351f9fc066",
    ),
    "z2c2:eps1:max": (
        "5a294a664c767b1556d9bbaf852d432f5a31392ac43d34b754c5003cc7bd42ab",
        "da6a1b249dafd3b1dcf9748ef5920d15df209d40b21e5023b4f6a73a9c33f8a2",
        "5a294a664c767b1556d9bbaf852d432f5a31392ac43d34b754c5003cc7bd42ab",
    ),
    "z2c2:eps2:min": (
        "d2a25b5738e14ba43f2c72bbe5632838842894c4325b61f0cb3637a273faa66c",
        "1879010e9bfa6bdf97d1b3262c0f7744bdc33c98caad2346cc73e5146bd06634",
        "d2a25b5738e14ba43f2c72bbe5632838842894c4325b61f0cb3637a273faa66c",
    ),
    "z3c2:eps1:min": (
        "343a9761f7417bc755c7ba519cf35334f60eab0c27f86882332393351f9fc066",
        "115c3e179f912d822310c5d81e26f46e29b5bac597c6880161a6ccaede214d8f",
        "343a9761f7417bc755c7ba519cf35334f60eab0c27f86882332393351f9fc066",
    ),
    "z3c2:eps2:min": (
        "02c5e3ec49a7d47e74c01f2bb42f62be3fa06a47e19e78b6827967adbab84ad3",
        "e85c39e8e7b9f3238cf50ff534cbda8c8c93cf60f19d207acba0497f2c9012a1",
        "02c5e3ec49a7d47e74c01f2bb42f62be3fa06a47e19e78b6827967adbab84ad3",
    ),
    "z3c2:eps3:min": (
        "0ff2c5e4847a784f000295bd0945633a39a468bbeba56c40f264f68b8f2c651e",
        "93355c6e945be529cd2e6b01da13e4e1311f359f4615c4fcb751cf23b9aa1948",
        "0ff2c5e4847a784f000295bd0945633a39a468bbeba56c40f264f68b8f2c651e",
    ),
    "z3c2:eps6:min": (
        "4dfe651d688e1e993711ad4df015679f7a5558084e6232f2ef1900ccd8a82b7f",
        "2b1b7ba3170b6601c52ea1a78eef6b718e52b64c97c39374f58d877a64b70e4c",
        "4dfe651d688e1e993711ad4df015679f7a5558084e6232f2ef1900ccd8a82b7f",
    ),
    "z3c2w:eps1:min": (
        "5fe4a519ba94208c21d10f889b4687d8b571e24a836e99a2caf1ee206f4af388",
        "01972c4fa422e169435892b301ca034ed5b12abea64ad40b5b86ea13622c3bc7",
        "5fe4a519ba94208c21d10f889b4687d8b571e24a836e99a2caf1ee206f4af388",
    ),
    "z3c2w:eps2:min": (
        "ef9d18a42c3fa985a2758605eddc5944d1cb80152002bee3790eef199d083d7b",
        "b55d19c6759a903cec784a99dca0f87a125f943c32a7935803a03a3c57d053f3",
        "ef9d18a42c3fa985a2758605eddc5944d1cb80152002bee3790eef199d083d7b",
    ),
    "z4:eps1:min": (
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
        "0a17103c3db49542c2f7c6ed6f4f39009ccdab66829f013169b1a1d2ed06ff6b",
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
    ),
    "z4:eps1:max": (
        "4cd386d87d6c7be1010189f028603985069420c544c281fbc28fac6a8726ff99",
        "5326b7ee20307ce7d339fcafbdba0294060c742d3bc55e4a2c3ba996e6295bb3",
        "4cd386d87d6c7be1010189f028603985069420c544c281fbc28fac6a8726ff99",
    ),
    "z4:eps3:min": (
        "4cd386d87d6c7be1010189f028603985069420c544c281fbc28fac6a8726ff99",
        "b15ac2090c8f20ee5fb371c458e32a241abb3803c750a521e8bf306f81ba51a3",
        "4cd386d87d6c7be1010189f028603985069420c544c281fbc28fac6a8726ff99",
    ),
    "z4:eps3:max": (
        "ba2251810bd88a4b93176630d0e416ce4f213bc167e1a0ba4d930d3fafe46f33",
        "08b4bc6cab165732164e3aa03bfdbb084cc4a495640dfe9d00378ff2dd17b64c",
        "ba2251810bd88a4b93176630d0e416ce4f213bc167e1a0ba4d930d3fafe46f33",
    ),
    "z8:eps1:min": (
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
        "9969e69a37bfe2d52954d95cfeeddec899342446c6d2c7d302970cb8f0ba3957",
        "d6f1e923644fa66eea4d31a5cbd0b513cb1115adb80e286174242c1bfe44e170",
    ),
    "z8:eps1:max": (
        "a1c7f328c328aee417995ddb70db9ac48bb99689298747d577fe74d52cd6db0e",
        "9082ec745c793eb24c51f5d7daebe7b911999b65c94c54248089d9259da091ba",
        "a1c7f328c328aee417995ddb70db9ac48bb99689298747d577fe74d52cd6db0e",
    ),
    "z8:eps3:min": (
        "649560c789b80770fecbe17c54ce5aa94d6848b9e3438ee4914fdfd6043a69cc",
        "a76a2ec43b659623820dd3ba9f960fffd85f2d33b9cab5bab49ca71ec2414d5b",
        "649560c789b80770fecbe17c54ce5aa94d6848b9e3438ee4914fdfd6043a69cc",
    ),
    "z8:eps5:min": (
        "a1c7f328c328aee417995ddb70db9ac48bb99689298747d577fe74d52cd6db0e",
        "5fabd6af47677d3db4fd40847dfcdbd87b5f7e8d41fa5e164627348d76ed9742",
        "a1c7f328c328aee417995ddb70db9ac48bb99689298747d577fe74d52cd6db0e",
    ),
    "z8:eps7:min": (
        "649560c789b80770fecbe17c54ce5aa94d6848b9e3438ee4914fdfd6043a69cc",
        "c1e706f838a6205e8327b408c11d851ff2b3b6121e39e461f7814938e2379ed7",
        "649560c789b80770fecbe17c54ce5aa94d6848b9e3438ee4914fdfd6043a69cc",
    ),
    "z8:eps7:max": (
        "5ad45ead17a84823c29948fd0a71588d41a0612bf21b178f1a5d4946ca8302cf",
        "11a2622234761029e1c37906618c4e344a9458d260830c5817ae04db1e4293ee",
        "5ad45ead17a84823c29948fd0a71588d41a0612bf21b178f1a5d4946ca8302cf",
    ),
}

# all on H^2, rings of at most 4 elements
ALL_H2_DIGESTS = {
    "gf2:eps1:min":
        "b01b4b54f9fa1f54a9d67ef0a7a92191f17a1eb78c1c541fe4e3d8cf80d9962b",
    "gf2:eps1:max":
        "17a2994fc0b39eda46587fbc067aebb2bda364e1b8227385b5e2b791e99c8f61",
    "gf3:eps1:min":
        "6b15199d8299efbe9d5df77c48466edebe9e2cc627d5f5d043b7b8e4415158a1",
    "gf3:eps2:min":
        "bb35c05cd2f1bf278bf1a123541f18eb422497e9a46f3652534785c96bf44b8d",
    "gf4:eps1:min":
        "e2b1f8e05eb1c9ed1d1f0927f77a47f72f1613f3bea0b56f4f216dd8a34e2dd1",
    "gf4:eps2:min":
        "66365327ef5cd501189f19a8ce5357afbced1a867eac5e452f87bcdc9b7fb90f",
    "gf4:eps3:min":
        "24bf61ddc3ff4c55b1c04251938b9e422299f17d71458f7225c0d894cc15acbf",
    "z2c2:eps1:min":
        "af417944927fbda6435bee4c687eefa72664bf13389e4fa7872e8a2c5d6aae14",
    "z2c2:eps1:max":
        "9946040ede38aa28b770100e04aeb3890476df6256254b1664ea98e2546209e6",
    "z2c2:eps2:min":
        "46b9a73074f1fff5902849e5d659bf158a8973a21fad4a3e7b1240bcbf89afcb",
    "z4:eps1:min":
        "3d1760ecf113de91f7252bc6d3a0d1d06970e3306ef77f343c84c8a651627845",
    "z4:eps1:max":
        "b73ce8ec0f208550b3ff4cfccec86dc8f746ab8f88a52f08c87218da3b4553e2",
    "z4:eps3:min":
        "03a6e62eecd668b3d42f922db4fc8a06bc01536b56e71a0e27f8b5a0f6005786",
    "z4:eps3:max":
        "6c8d5874a2da992104dc8d6d9e3c18ce2f94f3b00095602e00ed8bb95a6cabe5",
}


@pytest.mark.parametrize("rname,pname,param", catalog_params(),
                         ids=[p for _, p, _ in catalog_params()])
def test_usr_reports_match_pinned_digest(rname, pname, param):
    reports = S.unitary_stable_rank(C.catalog_ring(rname), param, 2).reports
    assert sha(json.dumps([r.to_dict() for r in reports], sort_keys=True)) \
        == USR_DIGESTS[pname]


@pytest.mark.parametrize("rname,pname,param", catalog_params(),
                         ids=[p for _, p, _ in catalog_params()])
def test_families_match_pinned_digest(rname, pname, param):
    ring = C.catalog_ring(rname)
    got = tuple(family_digest(S.elementary_unitary_generators(
        ring, param, n, u_mode=mode)[1])
        for n, mode in ((1, "basis"), (2, "basis"), (1, "all")))
    assert got == FAMILY_DIGESTS[pname]
    if pname in ALL_H2_DIGESTS:
        _, gens = S.elementary_unitary_generators(ring, param, 2,
                                                  u_mode="all")
        assert family_digest(gens) == ALL_H2_DIGESTS[pname]


# -- the per-transvection oracle ---------------------------------------------


def formula_matrix(H, e, u, x):
    """Column per raw unit vector v: v + u l(e,v) - e eps_bar l(u,v)
    - e eps_bar x l(e,v), in module-element arithmetic."""
    ring = H.ring
    eb = H.param.eps_bar
    cols = []
    for s in range(H.module.nd):
        v = H.module.from_vec([int(i == s) for i in range(H.module.nd)])
        lev, luv = H.lam(e, v), H.lam(u, v)
        img = v + u * lev - e * int(ring.mul[eb, luv]) \
            - e * int(ring.mul[ring.mul[eb, x], lev])
        cols.append(img.vec)
    return np.array(cols, dtype=np.int64).T


def oracle_family(H, u_mode):
    """(tag, matrix) per generator: every tau(b, u, x) checked, built and
    verified unitary on its own, then deduplicated by action."""
    ring, module = H.ring, H.module
    n = len(H.hyperbolic_pairs)
    out, seen = [], set()
    for bi in range(2 * n):
        b = module.gen(bi)
        dual = bi + 1 if bi % 2 == 0 else bi - 1
        support = [i for i in range(2 * n) if i != dual]
        if u_mode == "all":
            placements = [dict(zip(support, c)) for c in itertools.product(
                range(ring.size), repeat=len(support))]
        else:
            placements = [{}] + [{i: c} for i in support
                                 for c in range(1, ring.size)]
        for placed in placements:
            u = module.element([placed.get(i, ring.zero)
                                for i in range(2 * n)])
            assert H.mu_zero(b) and H.lam(b, u) == ring.zero
            for l in H.param.lam:
                x = int(ring.add[H.mu_rep(u), l])
                f = ModuleMap.from_matrix(module, module,
                                          formula_matrix(H, b, u, x))
                assert is_unitary(H, f)
                if f.key() not in seen:
                    seen.add(f.key())
                    out.append((("tau", b.vec, u.vec, x), f.B.tolist()))
    return out


def differential_cases():
    out = []
    for rname, pname, param in catalog_params():
        out.append((pname, param, 1, "all"))
        out.append((pname, param, 2, "basis"))
        if C.catalog_ring(rname).size <= 4:
            out.append((pname, param, 2, "all"))
    return out


@pytest.mark.parametrize("pname,param,n,u_mode", differential_cases(),
                         ids=["%s:H^%d:%s" % (c[0], c[2], c[3])
                              for c in differential_cases()])
def test_batched_family_matches_per_transvection_oracle(pname, param, n,
                                                        u_mode):
    H, gens = S.elementary_unitary_generators(param.ring, param, n,
                                              u_mode=u_mode)
    assert [(t.tag, t.f.B.tolist()) for t in gens] \
        == oracle_family(H, u_mode)


def test_small_chunks_change_nothing(monkeypatch):
    # chunks of one (u, x) row and of one element give the same family,
    # partition and reports
    ring = C.catalog_ring("z4")
    param = dict(C.catalog_parameters("z4"))["z4:eps3:max"]
    want_gens = [(t.tag, t.f.B.tolist()) for t in
                 S.elementary_unitary_generators(ring, param, 2, "all")[1]]
    H = hyperbolic(param, 2)
    want_classes = S._mu_class_partition(H, S.DEFAULT_BUDGET)
    want_usr = [r.to_dict() for r in
                S.unitary_stable_rank(ring, param, 2).reports]
    monkeypatch.setattr(S, "CHUNK", 1)
    assert [(t.tag, t.f.B.tolist()) for t in S.elementary_unitary_generators(
        ring, param, 2, "all")[1]] == want_gens
    classes = S._mu_class_partition(H, S.DEFAULT_BUDGET)
    assert list(classes) == list(want_classes)
    assert all(np.array_equal(classes[k], want_classes[k]) for k in classes)
    assert [r.to_dict() for r in
            S.unitary_stable_rank(ring, param, 2).reports] == want_usr


def test_refusals_match_the_oracle_checks():
    H = hyperbolic(P2, 2)
    (e1, f1), (e2, f2) = H.hyperbolic_pairs
    zero = H.module.zero()
    good = [zero.vec, e2.vec]
    cases = [
        (e1 + f1, [zero.vec], [0], "mu\\(e\\) = 0"),  # mu(e1 + f1) = 1
        (e1, good + [f1.vec], [0, 0, 0], "lambda\\(e, u\\) = 0"),
        (e1, good + [(e2 + f2).vec], [0, 0, 0], "represent mu\\(u\\)"),
    ]
    for e, U, X, msg in cases:
        with pytest.raises(RingError, match=msg):
            transvection_matrices(H, e.vec, U, X)
        with pytest.raises(RingError, match=msg):
            transvection(H, e, H.module.from_vec(U[-1]), X[-1])
    assert transvection_matrices(H, e1.vec, good, [0, 0]).shape == (2, 4, 4)


def test_check_Tn_builds_few_module_elements(monkeypatch):
    # the partition works on element codes; only class seeds (and the
    # generators' basis vectors) become ModuleElements: 7,073 of them
    # when every element of z3c2's H^2 was one
    ring = C.catalog_ring("z3c2")
    param = C.catalog_parameters("z3c2")[0][1]
    count = [0]
    real = ModuleElement.__init__

    def counting(self, *args):
        count[0] += 1
        real(self, *args)

    monkeypatch.setattr(ModuleElement, "__init__", counting)
    assert S.check_Tn(ring, param, 2).verdict == "holds"
    assert count[0] < 1000


def test_check_Sn_matches_row_by_row_search():
    # the row-by-row search with a fresh solve per row, as an oracle for
    # the chunked sweep's verdict, witness, checked and visits
    def oracle(ring, n):
        visits = checked = 0
        for row in itertools.product(range(ring.size), repeat=n + 1):
            if not row_unimodular(ring, row):
                continue
            checked += 1
            for t in itertools.product(range(ring.size), repeat=n):
                visits += 1
                if row_unimodular(ring, [int(ring.add[row[i], ring.mul[
                        t[i], row[n]]]) for i in range(n)]):
                    break
            else:
                return "fails", list(row), checked, visits
        return "holds", None, checked, visits

    z9 = make_ring({"kind": "zmod", "n": 9})
    for ring, n in [(GF2, 1), (GF2, 2), (C.catalog_ring("z4"), 2),
                    (C.catalog_ring("z3c2"), 1), (C.catalog_ring("z8"), 1),
                    (z9, 1)]:
        rep = S.check_Sn(ring, n)
        assert (rep.verdict, rep.witness, rep.stats["checked"],
                rep.stats["visits"]) == oracle(ring, n)
        # the search stops at the visit that passes the budget
        if ring.size ** (n + 1) < rep.stats["visits"]:
            assert S.check_Sn(ring, n, budget=rep.stats["visits"]) \
                .stats == rep.stats
            with pytest.raises(S.BudgetExceeded, match="shortening"):
                S.check_Sn(ring, n, budget=rep.stats["visits"] - 1)
