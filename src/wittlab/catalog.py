"""Built-in catalog: rings, form parameters, modules, quadratic instances.

Everything is constructed lazily and cached; every entry must build without
validation errors (the axioms suite re-runs construction on the full list).
"""

from wittlab.modules import Module, cyclic_module, direct_sum_modules, free_module
from wittlab.quadratic import (
    direct_sum_quadratic,
    hyperbolic,
    make_quadratic,
)
from wittlab.rings import (
    RingError,
    lambda_bounds,
    make_form_parameter,
    make_ring,
)

RING_SPECS = {
    "gf2": {"kind": "gf", "q": 2},
    "gf3": {"kind": "gf", "q": 3},
    "gf4": {"kind": "gf", "q": 4, "conj": "frobenius"},
    "z4": {"kind": "zmod", "n": 4},
    "z8": {"kind": "zmod", "n": 8},
    "z2c2": {"kind": "group_ring", "m": 2, "group": "C2", "w1": [1, 1]},
    "z3c2": {"kind": "group_ring", "m": 3, "group": "C2", "w1": [1, 1]},
    "z3c2w": {"kind": "group_ring", "m": 3, "group": "C2", "w1": [1, -1]},
}

_ring_cache = {}
_param_cache = {}


def catalog_ring(name):
    if name not in _ring_cache:
        if name not in RING_SPECS:
            raise KeyError("unknown catalog ring %r" % name)
        _ring_cache[name] = make_ring(dict(RING_SPECS[name], name=name))
    return _ring_cache[name]


def ring_names():
    return sorted(RING_SPECS)


def valid_epsilons(ring):
    """Central units with conj(eps) = eps^-1, in canonical order."""
    out = []
    for eps in sorted(ring.units):
        if eps in ring.central and int(ring.conj[eps]) == int(ring.inv[eps]):
            out.append(eps)
    return out


def catalog_parameters(ring_name):
    """Named form parameters: per valid epsilon, the minimal closure and
    (when different) Lambda_max."""
    if ring_name not in _param_cache:
        ring = catalog_ring(ring_name)
        params = []
        for eps in valid_epsilons(ring):
            pmin = make_form_parameter(ring, eps, ())
            params.append(("%s:eps%d:min" % (ring_name, eps), pmin))
            _, lam_max = lambda_bounds(ring, eps)
            if lam_max != pmin.lam:
                pmax = make_form_parameter(ring, eps, tuple(lam_max))
                params.append(("%s:eps%d:max" % (ring_name, eps), pmax))
        _param_cache[ring_name] = params
    return _param_cache[ring_name]


def default_parameter(ring_name):
    return catalog_parameters(ring_name)[0][1]


def catalog_modules(ring_name, size_cap=4096):
    """Named module instances over a catalog ring."""
    ring = catalog_ring(ring_name)
    out = []
    for n in (1, 2, 3):
        if ring.size ** n <= size_cap:
            out.append(("free:%d" % n, free_module(ring, n)))
    # cyclic quotients by a couple of canonical non-units
    nonunits = [a for a in range(1, ring.size) if a not in ring.units][:2]
    for a in nonunits:
        out.append(("cyclic:%d" % a, cyclic_module(ring, a)))
    if nonunits:
        a = nonunits[0]
        S, _, _ = direct_sum_modules(free_module(ring, 1),
                                     cyclic_module(ring, a))
        out.append(("mixed:%d" % a, S))
    return out


def degenerate_point(param):
    """Rank-1 free module with zero form: unimodular but not
    lambda-unimodular anywhere."""
    ring = param.ring
    M = free_module(ring, 1)
    return make_quadratic(M, [[ring.zero]], [ring.zero], param,
                          name="degenerate(%s)" % ring.name)


def catalog_quadratics(ring_name, size_cap=4096):
    """Named quadratic instances: H^g for g <= 5 within the cap, plus
    P + H^g mixes with a degenerate P."""
    out = []
    for pname, param in catalog_parameters(ring_name):
        ring = param.ring
        for g in range(1, 6):
            if ring.size ** (2 * g) > size_cap:
                break
            out.append(("%s:H^%d" % (pname, g), lambda param=param, g=g:
                        hyperbolic(param, g)))
        if ring.size ** 3 <= size_cap:
            def mixed(param=param):
                Q, _, _ = direct_sum_quadratic(hyperbolic(param, 1),
                                               degenerate_point(param))
                return Q
            out.append(("%s:H+deg" % pname, mixed))
        if ring.size ** 5 <= size_cap:
            def mixed2(param=param):
                Q, _, _ = direct_sum_quadratic(hyperbolic(param, 2),
                                               degenerate_point(param))
                return Q
            out.append(("%s:H^2+deg" % pname, mixed2))
    return out


def resolve_ring(ref):
    """Catalog name or an inline JSON ring spec."""
    if isinstance(ref, str) and ref in RING_SPECS:
        return catalog_ring(ref)
    if isinstance(ref, dict):
        return make_ring(ref)
    raise KeyError("cannot resolve ring reference %r" % (ref,))


def resolve_parameter(ring, epsilon=None, lam_generators=None):
    if epsilon is None:
        eps_list = valid_epsilons(ring)
        if not eps_list:
            raise RingError("ring has no valid epsilon")
        epsilon = eps_list[0]
    return make_form_parameter(ring, epsilon, tuple(lam_generators or ()))


def resolve_module(ring, ref):
    """"free:n", "cyclic:a", or {"generators": k, "relations": [[...]]}."""
    if isinstance(ref, str):
        if ref.startswith("free:"):
            return free_module(ring, int(ref.split(":")[1]))
        if ref.startswith("cyclic:"):
            return cyclic_module(ring, int(ref.split(":")[1]))
        raise KeyError("cannot resolve module reference %r" % ref)
    return Module(ring, ref["generators"],
                  [tuple(col) for col in ref.get("relations", [])])


def resolve_quadratic(param, ref):
    """"H^g" shorthand or {"module": ..., "gram": ..., "mu": ...}."""
    if isinstance(ref, str):
        if ref.startswith("H^"):
            return hyperbolic(param, int(ref[2:]))
        if ref == "H+deg":
            Q, _, _ = direct_sum_quadratic(hyperbolic(param, 1),
                                           degenerate_point(param))
            return Q
        raise KeyError("cannot resolve quadratic reference %r" % ref)
    module = resolve_module(param.ring, ref["module"])
    return make_quadratic(module, ref["gram"], ref["mu"], param)
