"""Per-layer tracing from outside the package.

install() rebinds each wrapped function in every loaded monodromy
module that holds it, so calls across modules are caught as well as
calls through the package namespace.  References captured before
install (closures, default arguments) are not rebound.  Each traced
call becomes a span (id, name, start, end, parent id, operation id)
kept in memory; count-only targets bump a counter and make no span.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, metric name); the metric is <layer>.<function>
SPANS = (
    ("torsion", "enumerate_subgroups", "torsion.enumerate_subgroups"),
    ("torsion", "fixed_subgroup", "torsion.fixed_subgroup"),
    ("torsion", "orthogonal_complement", "torsion.orthogonal_complement"),
    ("torsion", "extend_to_maximal_isotropic", "torsion.extend_to_maximal_isotropic"),
    ("inertia", "classify", "inertia.classify"),
    ("inertia", "find_witness_subgroup", "inertia.find_witness_subgroup"),
    ("inertia", "level_structure_criterion", "inertia.level_structure_criterion"),
    ("cyclotomic", "semistability_degree", "cyclotomic.semistability_degree"),
    ("cyclotomic", "cyclotomic_factor", "cyclotomic.cyclotomic_factor"),
    ("matrices", "smith_normal_form", "matrices.smith_normal_form"),
    ("matrices", "howell_form", "matrices.howell_form"),
    ("matrices", "kernel_mod_n", "matrices.kernel_mod_n"),
    ("matrices", "char_poly", "matrices.char_poly"),
    ("matrices", "exterior_power", "matrices.exterior_power"),
    ("neron", "neron_invariants", "neron.neron_invariants"),
    ("neron", "neron_torsion", "neron.neron_torsion"),
    ("neron", "verify_neron2", "neron.verify_neron"),
    ("neron", "verify_neron3", "neron.verify_neron"),
    ("neron", "verify_neron4", "neron.verify_neron"),
    ("cohomology", "cohomology_action", "cohomology.cohomology_action"),
    ("cohomology", "higher_cohomology_criterion", "cohomology.higher_cohomology_criterion"),
    ("scenarios", "scenario_from_dict", "scenarios.scenario_from_dict"),
    ("scenarios", "generate_hypothesis_instances", "scenarios.generate_hypothesis_instances"),
    ("catalog", "random_symplectic", "catalog.random_symplectic"),
    ("reports", "build_report", "reports.build_report"),
    ("reports", "canonical_json", "reports.canonical_json"),
    ("reports", "render_text", "reports.render_text"),
)
COUNTS = (
    ("torsion", "fixes_pointwise", "torsion.fixes_pointwise.calls"),
    ("cyclotomic", "power_membership", "cyclotomic.power_membership.calls"),
)
# (module, class, methods, counter)
METHOD_COUNTS = (
    ("polynomials", "IntPoly", ("__mul__", "__rmul__"), "polynomials.IntPoly.mul.calls"),
    ("matrices", "ModMatrix", ("__init__",), "matrices.ModMatrix.constructed"),
)
SUITE = ("suites", "run_suite")  # one span name per suite id: suites.<id>
RETURNED = "torsion.enumerate_subgroups.returned"
EXAMINED = "inertia.find_witness_subgroup.examined"
WITNESS = "inertia.find_witness_subgroup"
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))
COUNTER_NAMES = tuple(name for _, _, name in COUNTS) + tuple(
    name for *_, name in METHOD_COUNTS) + (RETURNED, EXAMINED)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.op = 0
        self._stack = []  # [span id, child seconds]
        self._next_id = 1
        self._witness_depth = 0
        self._patched = []

    def _span(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            name_ = f"suites.{args[0]}" if name == "suites" else name
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            if name == WITNESS:
                tracer._witness_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "torsion.enumerate_subgroups":
                    tracer.counters[RETURNED] += len(result)
                return result
            finally:
                end = time.perf_counter()
                if name == WITNESS:
                    tracer._witness_depth -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.calls[name_] += 1
                tracer.self_s[name_] += end - start - frame[1]
                tracer.total_s[name_] += end - start
                tracer.spans.append((span_id, name_, start, end, parent, tracer.op))

        return traced

    def _count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            if name == "torsion.fixes_pointwise.calls" and self._witness_depth:
                counters[EXAMINED] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "monodromy" or n.startswith("monodromy."))]
        targets = [(mod, attr, self._span, name) for mod, attr, name in SPANS]
        targets.append(SUITE + (self._span, "suites"))
        targets += [(mod, attr, self._count, name) for mod, attr, name in COUNTS]
        for mod, attr, make, name in targets:
            original = getattr(sys.modules["monodromy." + mod], attr)
            wrapper = make(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))
        for mod, cls_name, methods, name in METHOD_COUNTS:
            cls = getattr(sys.modules["monodromy." + mod], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, self._count(name, original))
                self._patched.append((cls, meth, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def absorb(self, spans, op):
        """Spans recorded by a child process, renumbered into this run."""
        offset = self._next_id
        for span_id, name, start, end, parent, _ in spans:
            self.spans.append((span_id + offset, name, start, end,
                               parent and parent + offset, op))
            self._next_id = max(self._next_id, span_id + offset + 1)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")

    def summary(self):
        """Totals as plain data, for a child process to hand back."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counters": dict(self.counters)}

    def merge(self, summary):
        for key, value in summary["calls"].items():
            self.calls[key] += value
        for key, value in summary["self_s"].items():
            self.self_s[key] += value
        for key, value in summary["total_s"].items():
            self.total_s[key] += value
        for key, value in summary["counters"].items():
            self.counters[key] += value

    def layer_metrics(self, ops, suites):
        """Per-operation means over `ops` traced operations, and the mean
        seconds of one run_suite call for each of `suites`."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
            out[f"{name}.self_ms"] = (1000 * self.self_s[name] / ops, "ms")
        for name in COUNTER_NAMES:
            out[name] = (self.counters[name] / ops, "count")
        for sid in suites:
            calls = self.calls[f"suites.{sid}"]
            out[f"suites.{sid}.s"] = (self.total_s[f"suites.{sid}"] / calls if calls else 0.0, "s")
        return out
