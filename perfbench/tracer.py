"""Spans around the calls into each ksfield module, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules (and
the two CSV writers) and rebinds the wrapper in every *other* ksfield
module namespace that holds the function.  A call between functions of
the same module is not a layer boundary and is not wrapped, so the
expression kernel's inner recursion stays untraced.  Imports made inside
a function body read the defining module and bypass the wrapper; their
time counts toward the caller.  ``uninstall`` restores every binding.

Spans (name, start, end, parent) live in flat arrays until the pass ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "expr", "sampling", "bundles", "forms", "lagrangian", "hamiltonian",
    "solver", "symmetry", "gauge", "modelfile", "cli",
)
CSV_WRITERS = (("solver", "SolutionGrid"), ("solver", "CurrentTrace"))

# per-layer metric -> the spans whose self time it sums; a function a later
# change removes simply contributes nothing
GROUPS = {
    "expr.parse_s": ("expr.parse",),
    "expr.diff_s": ("expr.diff",),
    "expr.subs_s": ("expr.substitute",),
    "expr.evaluate_s": ("expr.evaluate",),
    "expr.compile_s": ("expr.compile_vectorized",),
    "bundles.pullback_s": ("bundles.pullback_by_prolongation",),
    "forms.lie_s": ("forms.lie_derivative_function", "forms.lie_derivative_one",
                    "forms.lie_derivative_two", "forms.lie_bracket"),
    "forms.max_abs_s": ("forms.max_abs_expr", "forms.max_abs_one_form", "forms.max_abs_two_form"),
    "lagrangian.hessian_s": ("lagrangian.velocity_hessian",),
    "lagrangian.el_residual_s": ("lagrangian.el_residual",),
    "lagrangian.sopde_s": ("lagrangian.sopde_solve",),
    "lagrangian.legendre_s": ("lagrangian.legendre", "lagrangian.legendre_exprs",
                              "lagrangian.legendre_jacobian"),
    "hamiltonian.kvector_s": ("hamiltonian.ham_kvector", "hamiltonian.kvector_equation_residual"),
    "hamiltonian.hdw_s": ("hamiltonian.hdw_residual",),
    "solver.rk4_s": ("solver.integrate_k1",),
    "solver.leapfrog_s": ("solver.integrate_k2_hyperbolic",),
    "solver.current_s": ("solver.evaluate_current",),
    "solver.csv_s": ("solver.SolutionGrid.to_csv", "solver.CurrentTrace.to_csv"),
    "symmetry.cartan_s": ("symmetry.check_cartan_lagrangian", "symmetry.check_cartan_hamiltonian",
                          "symmetry.check_cartan_diffeomorphism"),
    "symmetry.noether_s": ("symmetry.noether_current_lagrangian",
                           "symmetry.noether_current_hamiltonian"),
    "symmetry.conservation_s": ("symmetry.verify_conservation",),
    "symmetry.bracket_s": ("symmetry.verify_bracket_theorem",),
    "symmetry.transport_s": ("symmetry.check_symmetry_by_transport",
                             "symmetry.kvector_residual_after_pushforward"),
    "gauge.compare_s": ("gauge.gauge_compare",),
    "gauge.same_solutions_s": ("gauge.verify_same_solutions",),
    "modelfile.load_s": ("modelfile.load_model",),
}
CALL_COUNTS = {
    "expr.diff_calls": "expr.diff",
    "expr.evaluate_calls": "expr.evaluate",
    "expr.compile_calls": "expr.compile_vectorized",
    "bundles.pullback_calls": "bundles.pullback_by_prolongation",
    "lagrangian.el_residual_calls": "lagrangian.el_residual",
}
# layers whose whole self time is a metric of its own ("<layer>.self_s")
SELF_LAYERS = ("expr", "bundles", "forms", "lagrangian", "hamiltonian", "solver",
               "symmetry", "gauge", "cli")


def node_count(e) -> int:
    """Nodes of an expression tree, counted through its dataclass fields."""
    total, stack = 0, [e]
    while stack:
        node = stack.pop()
        total += 1
        for value in vars(node).values() if hasattr(node, "__dict__") else ():
            if hasattr(value, "free_vars"):
                stack.append(value)
    return total


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, count_nodes: bool = False):
        self.count_nodes = count_nodes
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counters = Counter()
        self._saved: list = []

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, after=None):
        name_id = self._id(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                result = after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the harness's entry points)."""
        return self._wrap(name, fn)(*args, **kwargs)

    # -- counters taken at the boundaries ------------------------------------
    def _after(self, layer: str, attr: str):
        counters = self.counters
        if layer == "sampling":
            def after(args, kwargs, result):
                counters["sampling.points"] += len(result)
                return result
            return after
        if (layer, attr) == ("expr", "compile_vectorized"):
            def after(args, kwargs, compiled):
                def counted(*a):
                    counters["expr.compiled_calls"] += 1
                    return compiled(*a)
                return counted
            return after
        if (layer, attr) in (("expr", "diff"), ("expr", "substitute")) and self.count_nodes:
            def after(args, kwargs, result):
                counters["expr.nodes_max"] = max(counters["expr.nodes_max"], node_count(result))
                return result
            return after
        if (layer, attr) == ("solver", "integrate_k1"):
            def after(args, kwargs, sol):
                counters["solver.rk4_steps"] += sol.phi.shape[0] - 1
                return sol
            return after
        if (layer, attr) == ("solver", "integrate_k2_hyperbolic"):
            def after(args, kwargs, sol):
                steps = sol.phi.shape[0] - 1
                counters["solver.leapfrog_steps"] += steps
                counters["solver.leapfrog_nodes"] += steps * sol.phi.shape[1]
                return sol
            return after
        if attr == "to_csv":
            def after(args, kwargs, result):
                counters["solver.csv_bytes"] += os.path.getsize(kwargs.get("path", args[-1]))
                return result
            return after
        return None

    # -- installation --------------------------------------------------------
    def install(self):
        package = importlib.import_module("ksfield")
        modules = {name: importlib.import_module(f"ksfield.{name}") for name in LAYERS}
        namespaces = [package] + [
            m for name, m in sys.modules.items()
            if name.startswith("ksfield.") and m is not None
        ]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, self._after(layer, attr))
                for namespace in namespaces:
                    if namespace is module:
                        continue
                    for bound, value in list(vars(namespace).items()):
                        if value is fn:
                            self._saved.append((namespace, bound, fn))
                            setattr(namespace, bound, wrapper)
        for layer, cls_name in CSV_WRITERS:
            cls = getattr(modules[layer], cls_name)
            method = cls.__dict__["to_csv"]
            self._saved.append((cls, "to_csv", method))
            cls.to_csv = self._wrap(f"{layer}.{cls_name}.to_csv", method, self._after(layer, "to_csv"))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.int64),
            "end": np.frombuffer(self.span_end, dtype=np.int64),
        }

    def self_seconds(self) -> dict:
        """Self time per span name, in seconds."""
        a = self.arrays()
        duration = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - children
        per_name = np.bincount(a["name"], weights=own, minlength=len(self.names))
        return {name: float(per_name[i]) * 1e-9 for i, name in enumerate(self.names)}

    def call_counts(self) -> dict:
        per_name = np.bincount(self.arrays()["name"], minlength=len(self.names))
        return {name: int(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path):
        """Write the spans out (compressed arrays plus the name table)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_self_seconds(tracer: Tracer) -> dict:
    """Self time per layer (the span name's prefix)."""
    totals = Counter()
    for name, seconds in tracer.self_seconds().items():
        totals[name.split(".", 1)[0]] += seconds
    return dict(totals)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times and counts of one traced pass."""
    own = tracer.self_seconds()
    calls = tracer.call_counts()
    metrics = {}
    for metric, spans in GROUPS.items():
        metrics[metric] = sum(own.get(name, 0.0) for name in spans)
    layers = layer_self_seconds(tracer)
    metrics["sampling.s"] = layers.get("sampling", 0.0)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    for metric, span in CALL_COUNTS.items():
        metrics[metric] = calls.get(span, 0)
    counters = tracer.counters
    for key in ("expr.compiled_calls", "sampling.points", "solver.rk4_steps",
                "solver.leapfrog_steps", "solver.csv_bytes"):
        metrics[key] = counters[key]
    points = counters["sampling.points"]
    metrics["expr.diff_per_point"] = metrics["expr.diff_calls"] / points if points else 0.0
    rk4, leap = counters["solver.rk4_steps"], counters["solver.leapfrog_nodes"]
    metrics["solver.rk4_step_us"] = metrics["solver.rk4_s"] / rk4 * 1e6 if rk4 else 0.0
    metrics["solver.leapfrog_node_ns"] = metrics["solver.leapfrog_s"] / leap * 1e9 if leap else 0.0
    return metrics


# counts that must repeat exactly between two traced passes
EXACT_COUNTS = (
    "expr.diff_calls", "expr.evaluate_calls", "expr.compile_calls", "expr.compiled_calls",
    "solver.rk4_steps", "solver.csv_bytes", "sampling.points",
)
