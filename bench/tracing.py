"""Layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of ``critflow`` at
run time and ``uninstall`` puts the originals back. A function is replaced
in every ``critflow`` module that holds it under some name, because the
modules import functions by name (``critflow.points.solve_linear`` is the
one Newton calls). Methods are replaced on their classes.

Two kinds of wrapper:

* spans (parsing, compilation, searches, integration, checks, I/O, the
  CLI) are kept in memory as (op, name, parent, start, end) and written
  out at the end of the run;
* leaf calls (field evaluations, ``solve_linear``, ``eigenvalues``) happen
  hundreds of thousands of times per pass, so they are only counted and
  timed, per enclosing span.

Every wrapper adds its duration to the child time of the frame below it,
so a span's self time is its duration minus its child spans. A call
nested in a call of the same span, or any field call nested in another
(a composed field evaluating its base), is not counted again.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter

#: (module, function name, span name); the functions are found in these
#: modules and replaced wherever the package holds them
SPANS = [
    ("critflow.expr", "parse_expression", "expr.parse"),
    ("critflow.expr", "compile_kernel", "expr.compile"),
    ("critflow.expr", "compile_array", "expr.compile"),
    ("critflow.expr", "differentiate", "expr.differentiate"),
    ("critflow.fields", "transformed_system", "fields.transform"),
    ("critflow.fields", "acceleration_field", "fields.acceleration"),
    ("critflow.fields", "image_region", "fields.image_region"),
    ("critflow.points", "fixed_point_search", "points.search"),
    ("critflow.points", "perpetual_point_search", "points.search"),
    ("critflow.flows", "integrate", "flows.integrate"),
    ("critflow.conjugacy", "select_flow_points", "conjugacy.flow_points"),
    ("critflow.conjugacy", "verify_flow_conjugacy", "conjugacy.flow_check"),
    ("critflow.conjugacy", "verify_point_mapping", "conjugacy.point_mapping"),
    ("critflow.conjugacy", "verify_spectrum_preservation", "conjugacy.spectra"),
    ("critflow.conjugacy", "detect_new_points", "conjugacy.new_points"),
    ("critflow.conjugacy", "run_verification", "conjugacy.run"),
    ("critflow.io", "load_system", "io.load"),
    ("critflow.io", "load_map", "io.load"),
    ("critflow.io", "canonical_json", "io.json"),
    ("critflow.io", "write_grid_csv", "io.csv"),
    ("critflow.io", "write_trajectory_csv", "io.csv"),
    ("critflow.cli", "main", "cli.main"),
]
LEAVES = [
    ("critflow.linalg", "solve_linear", "linalg.solve"),
    ("critflow.linalg", "eigenvalues", "linalg.eig"),
]
#: (class, method, name, leaf?)
METHODS = [
    ("VectorMap", "value", "fields.value", True),
    ("VectorMap", "jacobian", "fields.jacobian", True),
    ("VectorMap", "hessian", "fields.hessian", True),
    ("VectorMap", "value_grid", "fields.value_grid", False),
    ("AffineConjugateField", "value", "fields.value", True),
    ("AffineConjugateField", "jacobian", "fields.jacobian", True),
    ("AffineConjugateField", "hessian", "fields.hessian", True),
    ("AffineConjugateField", "value_grid", "fields.value_grid", False),
    ("JetAccelerationMap", "value", "fields.value", True),
    ("JetAccelerationMap", "jacobian", "fields.jacobian", True),
]


class Tracer:
    def __init__(self):
        self.op = None  # the op the next spans belong to
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open frames: [name, child seconds, leaf?]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # inclusive seconds
        self.own = defaultdict(float)  # self seconds
        self.within = defaultdict(int)  # (leaf name, enclosing span) -> calls
        self.counts = defaultdict(int)
        self._accel_sym = weakref.WeakSet()
        self._jet_accel = None
        self._undo: list[tuple] = []
        self.origin = _clock()

    # -- wrappers -----------------------------------------------------------

    def _close(self, frame, start: float) -> None:
        end = _clock()
        self.stack.pop()
        dur = end - start
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += dur
        self.own[name] += dur - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        if frame[2]:
            if parent is not None:
                self.within[name, parent[0]] += 1
        else:
            self.spans.append((self.op, name, parent and parent[0],
                               start - self.origin, end - self.origin))

    def _span(self, name: str, fn, after=None):
        tracer = self

        def span(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0, False]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._close(frame, start)
                if after is not None:
                    after(None, err)
                raise
            tracer._close(frame, start)
            if after is not None:
                after(result, None)
            return result
        span.__wrapped__ = fn
        return span

    def _leaf(self, name: str, fn, method: str | None = None):
        tracer = self

        def leaf(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][2]:
                return fn(*args, **kwargs)
            key = name
            if method == "jacobian":
                obj = args[0]
                if isinstance(obj, tracer._jet_accel):
                    key = "fields.accel_jet.jacobian"
                elif obj in tracer._accel_sym:
                    key = "fields.accel_sym.jacobian"
            frame = [key, 0.0, True]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, start)
        leaf.__wrapped__ = fn
        return leaf

    def _after(self, name: str):
        counts = self.counts
        if name == "points.search":
            def after(result, err):
                if result is not None:
                    counts["points.seeds"] += result.seeds_used
                    counts["points.converged"] += result.seeds_converged
            return after
        if name == "flows.integrate":
            blowup = sys.modules["critflow.flows"].BlowUpError

            def after(result, err):
                if isinstance(err, blowup):
                    counts["flows.blowups"] += 1
            return after
        if name == "fields.acceleration":
            return lambda result, err: result is not None and self._accel_sym.add(result)
        return None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "critflow" or k.startswith("critflow."))]
        fields = sys.modules["critflow.fields"]
        self._jet_accel = fields.JetAccelerationMap
        for spec, leaf in [(s, False) for s in SPANS] + [(s, True) for s in LEAVES]:
            module, attr, name = spec
            original = getattr(sys.modules[module], attr)
            wrapper = (self._leaf(name, original) if leaf
                       else self._span(name, original, self._after(name)))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)
        for cls_name, method, name, leaf in METHODS:
            cls = getattr(fields, cls_name)
            original = cls.__dict__[method]
            wrapper = (self._leaf(name, original, method) if leaf
                       else self._span(name, original))
            self._undo.append((cls, method, original))
            setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["op", "name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "leaf_calls": {f"{leaf} in {parent}": n
                           for (leaf, parent), n in sorted(self.within.items())},
        }))

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass figures over ``passes`` traced passes."""
        c, tot, own, within, counts = self.calls, self.total, self.own, self.within, self.counts

        def per_pass(v):
            return v / passes

        def ms(name):
            return per_pass(1e3 * tot[name])

        def self_ms(*names):
            return per_pass(1e3 * sum(own[n] for n in names))

        def us(name):
            return 1e6 * own[name] / c[name] if c[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        jac_names = ("fields.jacobian", "fields.accel_jet.jacobian", "fields.accel_sym.jacobian")
        seeds = counts["points.seeds"]
        conj = [n for n in tot if n.startswith("conjugacy.")]
        return {
            "expr.parse.ms": (ms("expr.parse"), "ms"),
            "expr.compile.calls": (per_pass(c["expr.compile"]), "count"),
            "expr.compile.ms": (ms("expr.compile"), "ms"),
            "expr.differentiate.ms": (ms("expr.differentiate"), "ms"),
            "fields.value.calls": (per_pass(c["fields.value"]), "count"),
            "fields.value.us": (us("fields.value"), "us"),
            "fields.jacobian.calls": (per_pass(c["fields.jacobian"]), "count"),
            "fields.jacobian.us": (us("fields.jacobian"), "us"),
            "fields.hessian.calls": (per_pass(c["fields.hessian"]), "count"),
            "fields.hessian.us": (us("fields.hessian"), "us"),
            "fields.accel.jacobian.calls": (per_pass(c["fields.accel_jet.jacobian"]
                                                     + c["fields.accel_sym.jacobian"]), "count"),
            "fields.accel_jet.jacobian.us": (us("fields.accel_jet.jacobian"), "us"),
            "fields.accel_sym.jacobian.us": (us("fields.accel_sym.jacobian"), "us"),
            "fields.transform.ms": (ms("fields.transform"), "ms"),
            "fields.value_grid.ms": (ms("fields.value_grid"), "ms"),
            "linalg.solve.calls": (per_pass(c["linalg.solve"]), "count"),
            "linalg.solve.us": (us("linalg.solve"), "us"),
            "linalg.eig.calls": (per_pass(c["linalg.eig"]), "count"),
            "linalg.eig.us": (us("linalg.eig"), "us"),
            "points.search.ms": (ms("points.search"), "ms"),
            "points.self.ms": (self_ms("points.search"), "ms"),
            "points.seeds": (per_pass(seeds), "count"),
            "points.converged_per_seed": (ratio(counts["points.converged"], seeds), "ratio"),
            "points.jacobian_per_seed": (ratio(sum(within[n, "points.search"] for n in jac_names),
                                               seeds), "ratio"),
            "points.value_per_seed": (ratio(within["fields.value", "points.search"], seeds),
                                      "ratio"),
            "flows.integrate.calls": (per_pass(c["flows.integrate"]), "count"),
            "flows.integrate.ms": (ms("flows.integrate"), "ms"),
            "flows.rhs_per_integrate": (ratio(within["fields.value", "flows.integrate"],
                                              c["flows.integrate"]), "ratio"),
            "flows.blowups": (per_pass(counts["flows.blowups"]), "count"),
            "conjugacy.flow_points.ms": (ms("conjugacy.flow_points"), "ms"),
            "conjugacy.flow_check.ms": (ms("conjugacy.flow_check"), "ms"),
            "conjugacy.spectra.ms": (ms("conjugacy.spectra"), "ms"),
            "conjugacy.self.ms": (self_ms(*conj), "ms"),
            "io.load.ms": (self_ms("io.load"), "ms"),
            "io.json.ms": (self_ms("io.json"), "ms"),
            "io.csv.ms": (self_ms("io.csv"), "ms"),
            "cli.self.ms": (self_ms("cli.main"), "ms"),
        }
