"""Span tracing of wittlab's layers, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper at every
wittlab module that bound it by name (`verify.build_chain_complex`,
`posets.is_unimodular`, `wittlab.kernels.howell_aug`, ...), and each traced
method on its class.  Two kinds of wrapper:

* span: one record per call (name, start, end, parent);
* hot: calls made 10^4-10^5 times per op are aggregated per (name, parent)
  into a count, summed time and summed cells instead of one record each.

The parent of a call is the innermost traced call around it: a span id, or
the key of the hot aggregate it ran inside.  Self time is a node's time
minus the time of its direct children.  `layer_metrics()` turns the records
into the per-layer metrics named in BENCHMARK.json.
"""

import sys
import time

perf_counter = time.perf_counter


def _matrix_cells(args, kwargs):
    A = args[0]
    return len(A) * len(A[0]) if A else 0


def _simplices_fresh(args, kwargs):
    poset, p = args[0], args[1]
    return p not in poset._levels


# (module, attribute, kind); "Class.method" attributes patch the class.
TRACED = [
    ("wittlab.kernels", "howell_aug", "hot"),
    ("wittlab.kernels", "reduce_vec", "hot"),
    ("wittlab.kernels", "snf_divisors", "hot"),
    ("wittlab.linalg", "LinearSolver.__init__", "hot"),
    ("wittlab.modules", "is_unimodular", "hot"),
    ("wittlab.posets", "SequencePoset.member_ids", "hot"),
    ("wittlab.posets", "SequencePoset.neighbors", "hot"),
    ("wittlab.posets", "SequencePoset.simplices", "span"),
    ("wittlab.posets", "_PairTables.__init__", "span"),
    ("wittlab.posets", "gl_poset", "span"),
    ("wittlab.posets", "iu_poset", "span"),
    ("wittlab.posets", "hu_poset", "span"),
    ("wittlab.posets", "link", "span"),
    ("wittlab.posets", "decorate", "span"),
    ("wittlab.homology", "build_chain_complex", "span"),
    ("wittlab.homology", "homology", "span"),
    ("wittlab.verify", "verify_gl_connectivity", "span"),
    ("wittlab.verify", "verify_iu_connectivity", "span"),
    ("wittlab.verify", "verify_hu_connectivity", "span"),
    ("wittlab.verify", "verify_link_isos", "span"),
    ("wittlab.verify", "_poset_iso_check", "span"),
    ("wittlab.verify", "connectivity_verdict", "span"),
    ("wittlab.verify", "_component_count", "span"),
    ("wittlab.verify", "_pi1_trivial", "span"),
    ("wittlab.quadratic", "is_lambda_unimodular", "hot"),
    ("wittlab.quadratic", "transvection", "hot"),
    ("wittlab.quadratic", "is_unitary", "hot"),
    ("wittlab.quadratic", "witt_index", "span"),
    ("wittlab.stable_range", "unitary_stable_rank", "span"),
    ("wittlab.stable_range", "check_Sn", "span"),
    ("wittlab.stable_range", "check_Tn", "span"),
    ("wittlab.stable_range", "elementary_unitary_generators", "span"),
    ("wittlab.stable_range", "_gen_permutations", "span"),
    ("wittlab.stable_range", "_mu_class_partition", "span"),
    ("wittlab.blocks", "transitive_move", "span"),
    ("wittlab.blocks", "hyperbolic_straighten", "span"),
    ("wittlab.blocks", "_dual_completion", "span"),
    ("wittlab.blocks", "_eu_reach_first_pair", "span"),
    ("wittlab.blocks", "_eu_reach_span", "span"),
    ("wittlab.blocks", "cancel_H", "span"),
    ("wittlab.rings", "make_ring", "span"),
]

# hot calls whose summed cells (rows x cols of the input matrix) are kept
CELLS = {"kernels.howell_aug": _matrix_cells,
         "kernels.snf_divisors": _matrix_cells}


def short_name(module, attr):
    return "%s.%s" % (module.rsplit(".", 1)[-1], attr.split(".")[0]
                      if attr.endswith("__init__") else attr.split(".")[-1])


class Tracer:
    """Records spans and hot-call aggregates of one process."""

    def __init__(self):
        self.enabled = False
        self.spans = []      # [name, parent, start, end]; id = list index
        self.hot = {}        # (name, parent) -> [count, seconds, cells]
        self.stack = [None]
        self.notes = {"simplices_emitted": 0, "pair_ok_bytes": 0,
                      "homology_cells": 0, "fully_verified": 0,
                      "orbit_visits": 0, "eu_generators_full": 0}

    # -- wrappers ----------------------------------------------------------

    def _hot(self, name, fn):
        cells = CELLS.get(name)
        stack = self.stack
        table = self.hot

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            key = (name, stack[-1])
            stack.append(key)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                node = table.get(key)
                if node is None:
                    node = table[key] = [0, 0.0, 0]
                node[0] += 1
                node[1] += dt
                if cells is not None:
                    node[2] += cells(args, kwargs)

        return wrapper

    def _span(self, name, fn):
        stack = self.stack
        spans = self.spans
        note = {
            "posets.simplices": self._note_simplices,
            "posets.iu_poset": self._note_pair_ok,
            "posets.hu_poset": self._note_pair_ok,
            "homology.build_chain_complex": self._note_chain,
            "verify.connectivity_verdict": self._note_verdict,
            "stable_range.check_Tn": self._note_check_Tn,
            "stable_range.elementary_unitary_generators": self._note_eu_mode,
        }.get(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            fresh = name == "posets.simplices" and _simplices_fresh(args, kwargs)
            rec = [name, stack[-1], perf_counter(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, kwargs, result, fresh)
            return result

        return wrapper

    # -- counts read from arguments and results ----------------------------

    def _note_simplices(self, args, kwargs, level, fresh):
        if fresh:
            self.notes["simplices_emitted"] += len(level)

    def _note_pair_ok(self, args, kwargs, poset, fresh):
        if poset.pair_ok is not None:
            self.notes["pair_ok_bytes"] = max(self.notes["pair_ok_bytes"],
                                              int(poset.pair_ok.nbytes))

    def _note_chain(self, args, kwargs, chain, fresh):
        self.notes["homology_cells"] += sum(
            n for p, n in chain.counts.items() if p >= 0)

    def _note_verdict(self, args, kwargs, verdict, fresh):
        if verdict.result == "fully-verified":
            self.notes["fully_verified"] += 1

    def _note_check_Tn(self, args, kwargs, report, fresh):
        self.notes["orbit_visits"] += report.stats.get("visits", 0)

    def _note_eu_mode(self, args, kwargs, result, fresh):
        if kwargs.get("u_mode", args[3] if len(args) > 3 else "all") == "all":
            self.notes["eu_generators_full"] += 1

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced name at every wittlab module that bound it."""
        import importlib

        for modname, attr, kind in TRACED:
            module = importlib.import_module(modname)
            name = short_name(modname, attr)
            make = self._hot if kind == "hot" else self._span
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, make(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = make(name, orig)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("wittlab"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    # -- spans around the benchmark's own steps ------------------------------

    def open(self, name):
        rec = [name, self.stack[-1], perf_counter(), None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)

    def close(self):
        sid = self.stack.pop()
        self.spans[sid][3] = perf_counter()

    # -- analysis ------------------------------------------------------------

    def nodes(self):
        """(key, name, parent, seconds, count, cells) for spans and hot
        aggregates alike; a span's key is its id."""
        out = [(sid, s[0], s[1], s[3] - s[2], 1, 0)
               for sid, s in enumerate(self.spans)]
        out += [(key, key[0], key[1], v[1], v[0], v[2])
                for key, v in self.hot.items()]
        return out

    def span_records(self):
        """Spans as JSON-ready dicts; a hot parent is named by its path."""
        def ref(parent):
            if parent is None or isinstance(parent, int):
                return parent
            path = []
            while isinstance(parent, tuple):
                path.append(parent[0])
                parent = parent[1]
            return "%s/%s" % (parent, "/".join(reversed(path)))

        spans = [{"id": sid, "name": s[0], "parent": ref(s[1]),
                  "start": s[2], "end": s[3]}
                 for sid, s in enumerate(self.spans)]
        hot = [{"name": k[0], "parent": ref(k[1]), "count": v[0],
                "seconds": v[1], "cells": v[2]}
               for k, v in self.hot.items()]
        return {"spans": spans, "hot": hot}

    def layer_metrics(self):
        nodes = self.nodes()
        name_of = {key: name for key, name, _p, _s, _c, _x in nodes}
        parent_of = {key: parent for key, _n, parent, _s, _c, _x in nodes}
        child_s = {}
        for _key, _name, parent, secs, _c, _x in nodes:
            child_s[parent] = child_s.get(parent, 0.0) + secs

        def outermost(key, name):
            parent = parent_of.get(key)
            while parent is not None:
                if name_of.get(parent) == name:
                    return False
                parent = parent_of.get(parent)
            return True

        calls, total, self_s, cells = {}, {}, {}, {}
        for key, name, parent, secs, count, ncells in nodes:
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + secs - child_s.get(key, 0.0)
            cells[name] = cells.get(name, 0) + ncells
            if outermost(key, name):
                total[name] = total.get(name, 0.0) + secs

        snf_remainder = sum(ncells for _k, name, parent, _s, _c, ncells in nodes
                            if name == "kernels.snf_divisors"
                            and name_of.get(parent) == "homology.homology")
        member_calls = calls.get("posets.member_ids", 0)
        n = self.notes
        c = calls.get
        t = lambda name: total.get(name, 0.0)  # noqa: E731
        s = lambda name: self_s.get(name, 0.0)  # noqa: E731
        return {
            "kernels.howell_calls": c("kernels.howell_aug", 0),
            "kernels.howell_s": t("kernels.howell_aug"),
            "kernels.howell_cells": cells.get("kernels.howell_aug", 0),
            "kernels.reduce_calls": c("kernels.reduce_vec", 0),
            "kernels.reduce_s": t("kernels.reduce_vec"),
            "kernels.snf_calls": c("kernels.snf_divisors", 0),
            "kernels.snf_s": t("kernels.snf_divisors"),
            "kernels.snf_cells": cells.get("kernels.snf_divisors", 0),
            "linalg.solver_builds": c("linalg.LinearSolver", 0),
            "linalg.solver_s": t("linalg.LinearSolver"),
            "modules.is_unimodular_calls": c("modules.is_unimodular", 0),
            "modules.is_unimodular_s": t("modules.is_unimodular"),
            "posets.simplices_self_s": s("posets.simplices"),
            "posets.member_calls": member_calls,
            "posets.member_s": t("posets.member_ids"),
            "posets.accept_ratio": (n["simplices_emitted"] / member_calls
                                    if member_calls else 0.0),
            "posets.neighbors_calls": c("posets.neighbors", 0),
            "posets.neighbors_s": t("posets.neighbors"),
            "posets.pair_table_s": t("posets._PairTables"),
            "posets.pair_ok_bytes": n["pair_ok_bytes"],
            "homology.build_self_s": s("homology.build_chain_complex"),
            "homology.cells": n["homology_cells"],
            "homology.reduce_s": s("homology.homology"),
            "homology.snf_remainder_cells": snf_remainder,
            "verify.verdict_self_s": s("verify.connectivity_verdict"),
            "verify.components_s": t("verify._component_count"),
            "verify.pi1_s": t("verify._pi1_trivial"),
            "verify.fully_verified": n["fully_verified"],
            "quadratic.lam_unimodular_calls": c("quadratic.is_lambda_unimodular", 0),
            "quadratic.lam_unimodular_s": t("quadratic.is_lambda_unimodular"),
            "quadratic.transvection_calls": c("quadratic.transvection", 0),
            "quadratic.transvection_s": t("quadratic.transvection"),
            "quadratic.is_unitary_calls": c("quadratic.is_unitary", 0),
            "quadratic.is_unitary_s": t("quadratic.is_unitary"),
            "quadratic.witt_index_s": t("quadratic.witt_index"),
            "stable_range.eu_generators_calls":
                c("stable_range.elementary_unitary_generators", 0),
            "stable_range.eu_generators_s":
                t("stable_range.elementary_unitary_generators"),
            "stable_range.eu_generators_full_calls": n["eu_generators_full"],
            "stable_range.check_Tn_s": t("stable_range.check_Tn"),
            "stable_range.gen_permutations_s": t("stable_range._gen_permutations"),
            "stable_range.mu_partition_s": t("stable_range._mu_class_partition"),
            "stable_range.orbit_visits": n["orbit_visits"],
            "blocks.transitive_move_self_s": s("blocks.transitive_move"),
            "blocks.straighten_calls": c("blocks.hyperbolic_straighten", 0),
            "blocks.straighten_s": t("blocks.hyperbolic_straighten"),
            "blocks.eu_reach_self_s": s("blocks._eu_reach_first_pair"),
            "blocks.cancel_s": t("blocks.cancel_H"),
            "rings.make_ring_s": t("rings.make_ring"),
        }

    def coverage(self):
        """Share of the op spans' time covered by spans and hot calls below
        them, and the op spans' summed time."""
        nodes = self.nodes()
        op_ids = {sid for sid, s in enumerate(self.spans) if s[0] == "op"}
        op_s = sum(self.spans[sid][3] - self.spans[sid][2] for sid in op_ids)
        covered = sum(secs for _k, _n, parent, secs, _c, _x in nodes
                      if parent in op_ids)
        return (covered / op_s if op_s else 0.0), op_s
