"""The three workloads: set-up, the op list of one pass, and output checks.

`setup(name, seed)` builds every input of a pass and returns its ops in a
seeded order.  An op is timed alone; its check runs afterwards, outside
the timed span, and returns None or the reason it failed.  Each op also has
a role: "a" and "b" name the two routes a workload compares (summed per
pass into route_a_s and route_b_s), "move" marks a transitive move (the
pass's median move latency is its route_a_s).

    gl-certify    route a: GL GF(2)^4 at d=2 (field route)
                  route b: the GL links of (Z/4)^3 and (Z/2C2)^3 at e_1
                           (general-ring route)
    quad-certify  route a: IU(H^4/GF(2));  route b: HU(H^4/GF(2))
    unitary       route a: the transitive moves;  route b: the usr sweep

Every op is short enough for a run to repeat its pass several times; the
longer instances are listed in perfbench/README.md with the reason.
"""

import itertools
import random

GL_TIERS = ("homology-verified", "fully-verified")
QUAD_TIERS = {-2: ("vacuous",), -1: ("nonempty-verified",)}
# catalog rings of the usr sweep: all but z3c2w, whose 4-6 s op alone
# would take a third of a run
USR_RINGS = ("gf2", "gf3", "gf4", "z2c2", "z3c2", "z4", "z8")
# (ring, g, lambda-unimodular vectors of H^g, vectors moved per mu-class,
# None for all).  The mu-class decides a move's cost (over Z/4, class 1
# moves take a tenth of the others), so a sample takes the same number
# from each class and its cost does not depend on the seed.
MOVES = (("gf2", 3, 63, None), ("z4", 2, 240, 8), ("z4", 3, 4032, 3))


class Op:
    def __init__(self, name, run, check, summary, role=None):
        self.name = name
        self.run = run
        self.check = check
        self.summary = summary
        self.role = role


# -- gl-certify ---------------------------------------------------------------

# (op name, ring, rank, link at e_1, bound, expected size, role); the size
# is the cells per degree, or at d = 0 the vertex count.  A link at e_1 of
# (R)^3 over a local ring with residue field GF(2) has 6 * 8 = 48 vertices:
# the vectors whose residue lies outside {0, e_1}.
GL_INSTANCES = [
    ("gl:gf2^4", "gf2", 4, False, 2, {0: 15, 1: 210, 2: 2520, 3: 20160}, "a"),
    ("gl-link:gf2^4@e1", "gf2", 4, True, 1, {0: 14, 1: 168, 2: 1344}, None),
    ("gl-link:z4^3@e1", "z4", 3, True, 0, 48, "b"),
    ("gl-link:z2c2^3@e1", "z2c2", 3, True, 0, 48, "b"),
]


def _check_gl(bound, size):
    def check(report):
        v = report.verdict
        if report.bound != bound:
            return "bound %s, expected %s" % (report.bound, bound)
        if v.result not in GL_TIERS or not v.ok():
            return "verdict %s" % v.result
        got = v.detail.get("cells" if isinstance(size, dict) else "vertices")
        if got != size:
            return "size %s, expected %s" % (got, size)
        if any(v.detail["betti"].values()) or \
                any(v.detail.get("torsion", {}).values()):
            return "homology %s %s" % (v.detail["betti"],
                                       v.detail.get("torsion"))
        return None
    return check


def _report_summary(report):
    return report.to_dict()


def _gl_ops():
    from wittlab import catalog as C
    from wittlab.modules import free_module
    from wittlab.verify import verify_gl_connectivity

    ops = []
    for name, ring, n, at_e1, bound, size, role in GL_INSTANCES:
        M = free_module(C.catalog_ring(ring), n)
        base = [M.gen(0)] if at_e1 else None
        run = (lambda M=M, base=base:
               verify_gl_connectivity(M, sr=1, base=base))
        ops.append(Op(name, run, _check_gl(bound, size), _report_summary,
                      role))
    return ops


# -- quad-certify -------------------------------------------------------------


def _gf2_hyperbolic_counts(g):
    """(singular nonzero vectors, hyperbolic pairs of singular vectors) of
    GF(2)^2g with q(x) = sum x_2i x_2i+1, by direct enumeration."""
    vecs = list(itertools.product((0, 1), repeat=2 * g))

    def q(x):
        return sum(x[2 * i] * x[2 * i + 1] for i in range(g)) % 2

    def lam(x, y):
        return sum(x[2 * i] * y[2 * i + 1] + x[2 * i + 1] * y[2 * i]
                   for i in range(g)) % 2

    singular = [x for x in vecs if any(x) and q(x) == 0]
    pairs = sum(1 for x in singular for y in singular if lam(x, y) == 1)
    return len(singular), pairs


def _check_quad(bound, vertices):
    def check(report):
        v = report.verdict
        if report.bound != bound:
            return "bound %s, expected %s" % (report.bound, bound)
        if v.result not in QUAD_TIERS.get(bound, GL_TIERS) or not v.ok():
            return "verdict %s" % v.result
        if bound >= 0:
            count = v.detail.get("vertices", v.detail.get("cells", {}).get(0))
            if count != vertices:
                return "vertices %s, expected %s" % (count, vertices)
        return None
    return check


def _check_link_isos(y_size):
    def check(res):
        if not (res["iu"] and res["hu"] and res["decoration_count"]):
            return "link isomorphisms %s" % res
        if res["Y_size"] != y_size:
            return "|Y| = %s, expected %s" % (res["Y_size"], y_size)
        return None
    return check


def _quad_ops():
    from wittlab import catalog as C
    from wittlab.quadratic import hyperbolic
    from wittlab.verify import (
        verify_hu_connectivity,
        verify_iu_connectivity,
        verify_link_isos,
    )

    param = C.catalog_parameters("gf2")[0][1]
    ops = []
    for g in range(1, 5):
        Q = hyperbolic(param, g)
        n_iu, n_hu = _gf2_hyperbolic_counts(g)
        ops.append(Op("iu:H^%d" % g,
                      lambda Q=Q: verify_iu_connectivity(Q, usr=1),
                      _check_quad((g - 3) // 2, n_iu), _report_summary,
                      "a" if g == 4 else None))
        ops.append(Op("hu:H^%d" % g,
                      lambda Q=Q: verify_hu_connectivity(Q, usr=1),
                      _check_quad((g - 4) // 2, n_hu), _report_summary,
                      "b" if g == 4 else None))
    for g in (2, 3):
        Q = hyperbolic(param, g)
        x_pairs = [Q.hyperbolic_pairs[0]]
        ops.append(Op("link-isos:H^%d" % g,
                      lambda Q=Q, x=x_pairs: verify_link_isos(Q, x, usr=1),
                      _check_link_isos(4 ** (g - 1)), dict))
    return ops


# -- unitary ------------------------------------------------------------------


def _check_usr(result):
    if result.value != 1:
        return "usr = %s, expected 1" % result.value
    return None


def _usr_summary(result):
    return {"value": result.value,
            "reports": [r.to_dict() for r in result.reports]}


def _unimodular_vectors(Q):
    """Vectors with a unit coordinate: over a local ring these are exactly
    the unimodular, hence (Q hyperbolic) lambda-unimodular, vectors."""
    units = Q.ring.units
    return [x for x in Q.module.elements(cap=Q.size)
            if any(b in units for b in x.ring_blocks())]


def _move_op(Q, frame, v):
    from wittlab.blocks import transitive_move
    from wittlab.quadratic import is_unitary

    r = Q.mu_rep(v)
    e1, f1 = frame.pairs[0]
    target = e1 + f1 * int(r)

    def check(out):
        phi, _ = out
        if phi(v) != target:
            return "phi(v) = %r, expected e1 + f1*%d" % (phi(v), r)
        if not is_unitary(Q, phi.f):
            return "phi is not unitary"
        return None

    return Op("move:%s:%s" % (Q.name, ",".join(map(str, v.vec))),
              lambda: transitive_move(Q, v, r, frame=frame, usr=1),
              check, lambda out: [out[0].key(), out[1].vec], "move")


def _cancel_ops():
    from wittlab import catalog as C
    from wittlab.blocks import cancel_H, is_isometry
    from wittlab.quadratic import (
        direct_sum_quadratic,
        hyperbolic,
        is_quad_isomorphic,
    )

    ops = []
    for rname in ("gf2", "z4"):
        param = C.catalog_parameters(rname)[0][1]
        H = hyperbolic(param, 1)
        D = C.degenerate_point(param)
        Qm, _, _ = direct_sum_quadratic(H, D)
        Qn, _, _ = direct_sum_quadratic(D, H)
        for cname, A, Bq in (("H~H", H, H), ("H+deg", Qm, Qn)):
            H1 = hyperbolic(param, 1)
            AH, _, _ = direct_sum_quadratic(A, H1)
            BH, _, _ = direct_sum_quadratic(Bq, H1)
            iso = is_quad_isomorphic(AH, BH)
            if iso is None:
                raise RuntimeError("no isometry of the sums for %s" % cname)
            ops.append(Op(
                "cancel:%s:%s" % (rname, cname),
                lambda A=A, Bq=Bq, iso=iso, s=(AH, BH):
                    cancel_H(A, Bq, iso, sums=s, usr=1),
                lambda beta, A=A, Bq=Bq: (None if is_isometry(A, Bq, beta)
                                          else "beta is not an isometry"),
                lambda beta: beta.key()))
    return ops


def _unitary_ops(rng):
    from wittlab import blocks as B
    from wittlab import catalog as C
    from wittlab import stable_range as S
    from wittlab.quadratic import hyperbolic

    ops = []
    for rname in USR_RINGS:
        ring = C.catalog_ring(rname)
        param = C.catalog_parameters(rname)[0][1]
        ops.append(Op("usr:%s" % rname,
                      lambda ring=ring, param=param:
                          S.unitary_stable_rank(ring, param, 2),
                      _check_usr, _usr_summary, "b"))
    for rname, g, expected, per_class in MOVES:
        Q = hyperbolic(C.catalog_parameters(rname)[0][1], g)
        frame = B.frame_for(Q, usr=1)
        vectors = _unimodular_vectors(Q)
        if len(vectors) != expected:
            raise RuntimeError("%s has %d unimodular vectors, expected %d"
                               % (Q.name, len(vectors), expected))
        if per_class is not None:
            classes = {}
            for v in vectors:
                classes.setdefault(Q.mu_rep(v), []).append(v)
            vectors = [v for mu in sorted(classes)
                       for v in rng.sample(classes[mu], per_class)]
        ops.extend(_move_op(Q, frame, v) for v in vectors)
    return ops + _cancel_ops()


# -- registry -----------------------------------------------------------------

WORKLOADS = ("gl-certify", "quad-certify", "unitary")


def setup(name, seed):
    """Inputs of one pass, as ops in the order the seed gives them."""
    rng = random.Random(seed)
    if name == "gl-certify":
        ops = _gl_ops()
    elif name == "quad-certify":
        ops = _quad_ops()
    elif name == "unitary":
        ops = _unitary_ops(rng)
    else:
        raise KeyError("unknown workload %r" % name)
    rng.shuffle(ops)
    return ops
