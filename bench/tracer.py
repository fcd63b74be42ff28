"""Spans around the calls into each ``grwalk`` module, recorded from
outside the library.

Each traced function is replaced by a wrapper in every loaded namespace
that binds it (modules import functions by name, so one module's binding
is not enough); ``RatMatrix`` methods are replaced on the class.  A span's
self time is its duration minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Span name -> (module, attribute); "ratlin.*" attributes are methods of
# RatMatrix.
SPANS = {
    "graphs.enumerate_connected": ("grwalk.graphs", "enumerate_connected"),
    "graphs.bipartition": ("grwalk.graphs", "bipartition"),
    "graphs.canonical_form": ("grwalk.graphs", "canonical_form"),
    "ratlin.solve_min_norm_many": ("grwalk.ratlin", "solve_min_norm_many"),
    "ratlin.nullspace": ("grwalk.ratlin", "nullspace"),
    "ratlin.solve_many": ("grwalk.ratlin", "solve_many"),
    "ratlin.solve": ("grwalk.ratlin", "solve"),
    "ratlin.det": ("grwalk.ratlin", "det"),
    "ratlin.matmul": ("grwalk.ratlin", "__mul__"),
    "ratlin.construct": ("grwalk.ratlin", "__init__"),
    "stationary.internal_operator": ("grwalk.stationary", "internal_operator"),
    "stationary.source_vector": ("grwalk.stationary", "source_vector"),
    "stationary.unit_stationary_states": ("grwalk.stationary",
                                          "unit_stationary_states"),
    "stationary.stationary_state": ("grwalk.stationary", "stationary_state"),
    "stationary.scattering": ("grwalk.stationary", "scattering"),
    "stationary.outflow": ("grwalk.stationary", "outflow"),
    "potential.laplacian": ("grwalk.potential", "laplacian"),
    "potential.signless_laplacian": ("grwalk.potential", "signless_laplacian"),
    "potential.bipartite_route": ("grwalk.potential", "bipartite_route"),
    "potential.nonbipartite_route": ("grwalk.potential", "nonbipartite_route"),
    "potential.kirchhoff_audit": ("grwalk.potential", "kirchhoff_audit"),
    "factors.factor_counts": ("grwalk.factors", "factor_counts"),
    "factors.spanning_tree_count": ("grwalk.factors", "spanning_tree_count"),
    "factors.two_forest_count": ("grwalk.factors", "two_forest_count"),
    "factors.odd_unicyclic_sums": ("grwalk.factors", "odd_unicyclic_sums"),
    "factors.closed_form_comfort": ("grwalk.factors", "closed_form_comfort"),
    "simulate.simulate": ("grwalk.simulate", "simulate"),
    "simulate.step": ("grwalk.simulate", "step"),
    "catalog.rank": ("grwalk.catalog", "rank"),
    "catalog.analyze": ("grwalk.catalog", "analyze"),
}

_SOLVES = {"ratlin.solve_min_norm_many", "ratlin.solve_many", "ratlin.solve"}


def _max_bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Installs the span wrappers and accumulates calls and self time."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.kernel_dim_sum = 0
        self.result_max_bits = 0
        self._children = []          # child time of each open span
        self._restore = []           # (namespace, attribute, original)

    def install(self):
        ratmatrix = importlib.import_module("grwalk.ratlin").RatMatrix
        for name, (module, attr) in SPANS.items():
            if name.startswith("ratlin."):
                original = vars(ratmatrix)[attr]
                self._bind(ratmatrix, attr, original,
                           self._wrap(name, original))
                continue
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(attr) is original:
                    self._bind(mod, attr, original, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _bind(self, namespace, attr, original, wrapper):
        self._restore.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def _wrap(self, name, fn):
        children = self._children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.self_s[name] += duration - children.pop()
                self.calls[name] += 1
                if children:
                    children[-1] += duration
            # Counting is tracer work, so keep it out of the parent's self time.
            start = perf_counter()
            self._count(name, result)
            if children:
                children[-1] += perf_counter() - start
            return result

        return span

    def _count(self, name, result):
        if name == "ratlin.nullspace":
            self.kernel_dim_sum += len(result)
        elif name in _SOLVES:
            columns = [result] if name == "ratlin.solve" else result
            for col in columns:
                for x in col:
                    self.result_max_bits = max(self.result_max_bits,
                                               _max_bits(x))

    def metrics(self):
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        min_norm = self.calls["ratlin.solve_min_norm_many"]
        # Reductions per min-norm solve: 1.0 when no second reduction runs,
        # reported as 0 when the workload makes no min-norm solve.
        reductions = ((min_norm + self.calls["ratlin.nullspace"]) / min_norm
                      if min_norm else 0.0)
        steps = self.calls["simulate.step"]
        out["ratlin.kernel_dim_sum"] = (self.kernel_dim_sum, "count")
        out["ratlin.reductions_per_min_norm_solve"] = (reductions, "ratio")
        out["ratlin.result_max_bits"] = (self.result_max_bits, "bits")
        out["simulate.step_us"] = (
            self.self_s["simulate.step"] / steps * 1e6 if steps else 0.0, "us")
        return out
