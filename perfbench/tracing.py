"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each function listed in ``TRACED`` by a timing
wrapper in every package namespace that binds it (``cli`` binds
``load_model`` by name, ``lattice_ext`` binds several ``finite_solver``
functions by name), and ``uninstall`` puts the originals back.  A span is
(name, start, end, parent, command id); spans stay in memory until the run
writes them out.  Counts the functions return (solver iterations, which
branch decided) are read from their results; work counts marked
``_computed`` are derived from argument sizes and ignore caches.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

TRACED = {
    "cli": ("main",),
    "core_types": ("load_model",),
    "finite_solver": ("solve_invariant_hzmc", "select_base_triple", "check_belyaev",
                      "check_belyaev_diag", "solve_nu", "solve_eta", "check_eta_cubic",
                      "build_hzmc_kernels", "stationary_distribution", "check_toom_conditions",
                      "bruteforce_invariance", "push_forward_zigzag", "hzmc_cylinder_weights"),
    "lattice_ext": ("solve_chzmc", "check_chzmc_conditions", "check_cycle_commutation",
                    "partition_function", "chzmc_density", "bruteforce_cycle_invariance"),
    # _cond_residuals is the factorization sweep of the quadrature check
    "continuous_kernels": ("quadrature_check_conditions", "_cond_residuals", "compose_kernels",
                           "apply_law", "mu_equivalence_probe"),
    "simulator": ("simulate_diagram", "sample_hzmc_lines", "step_pca", "row_uniforms",
                  "write_diagram_csv", "write_diagram_binary"),
    "stats": ("summarize_line", "ks_distance"),
}


def _oracle_entries(a):
    kappa = a["tensor"].size
    return {"entries_computed": sum(kappa ** (2 * k + 3) for k in range(a["k_max"] + 1))}


# name -> f(bound arguments, result) -> {counter: value}
_COUNTERS = {
    "finite_solver.check_belyaev":
        lambda a, r: {"bytes_computed": 2 * 8 * a["tensor"].size ** 6},   # the two kappa^6 operands
    "finite_solver.solve_nu": lambda a, r: {"iters": r.iterations},
    "finite_solver.solve_eta": lambda a, r: {"iters": r.iterations},
    "finite_solver.stationary_distribution": lambda a, r: {"iters": r.iterations},
    "finite_solver.bruteforce_invariance": lambda a, r: _oracle_entries(a),
    "lattice_ext.bruteforce_cycle_invariance":
        lambda a, r: {"entries_computed": a["spec"].d.shape[0] ** (2 * a["spec"].n)},
    "lattice_ext.check_cycle_commutation":
        lambda a, r: {"sweeps": int(r.notes == "decided by full cycle sweep")},
    "continuous_kernels._cond_residuals":
        lambda a, r: {"density_evals_computed": a["grid"].size ** 3},
    "simulator.sample_hzmc_lines": lambda a, r: {"cells": a["length"] * a["n_chains"]},
    "simulator.write_diagram_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "simulator.write_diagram_binary": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """Span recorder.  ``cmd`` is the id of the command now running; the
    runner sets it before each command."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, cmd, counters]
        self.cmd = None
        self._stack = []
        self._patched = []       # (namespace, attribute, original)

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.cmd, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"zigzag_pca.{m}") for m in TRACED}
        for mod, names in TRACED.items():
            for fname in names:
                original = getattr(modules[mod], fname)
                wrapper = self._wrap(f"{mod}.{fname}", original)
                for ns in modules.values():
                    for attr, val in list(vars(ns).items()):
                        if val is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def dump(self):
        """Spans as JSON-ready dicts with their self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, cmd, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "cmd": s[4],
                 "self_s": (s[2] - s[1]) - child[i], **(s[5] or {})}
                for i, s in enumerate(self.spans)]


# (metric, unit, better, span name, statistic); statistic "s" is busy time,
# "self_s" busy time minus traced children, "calls" a call count, anything
# else a counter summed over the span's calls.
PER_LAYER = [
    ("cli.main.self_s", "s", "lower", "cli.main", "self_s"),
    ("core_types.load_model.s", "s", "lower", "core_types.load_model", "s"),
    ("finite_solver.check_belyaev.s", "s", "lower", "finite_solver.check_belyaev", "s"),
    ("finite_solver.check_belyaev.bytes_computed", "bytes", "lower",
     "finite_solver.check_belyaev", "bytes_computed"),
    ("finite_solver.solve_nu.s", "s", "lower", "finite_solver.solve_nu", "s"),
    ("finite_solver.solve_nu.iters", "count", "lower", "finite_solver.solve_nu", "iters"),
    ("finite_solver.solve_eta.s", "s", "lower", "finite_solver.solve_eta", "s"),
    ("finite_solver.solve_eta.iters", "count", "lower", "finite_solver.solve_eta", "iters"),
    ("finite_solver.stationary_distribution.s", "s", "lower",
     "finite_solver.stationary_distribution", "s"),
    ("finite_solver.stationary_distribution.iters", "count", "lower",
     "finite_solver.stationary_distribution", "iters"),
    ("finite_solver.check_eta_cubic.s", "s", "lower", "finite_solver.check_eta_cubic", "s"),
    ("finite_solver.build_hzmc_kernels.s", "s", "lower", "finite_solver.build_hzmc_kernels", "s"),
    ("finite_solver.check_toom_conditions.s", "s", "lower",
     "finite_solver.check_toom_conditions", "s"),
    ("finite_solver.push_forward_zigzag.s", "s", "lower", "finite_solver.push_forward_zigzag", "s"),
    ("finite_solver.hzmc_cylinder_weights.s", "s", "lower",
     "finite_solver.hzmc_cylinder_weights", "s"),
    ("finite_solver.bruteforce_invariance.s", "s", "lower",
     "finite_solver.bruteforce_invariance", "s"),
    ("finite_solver.bruteforce_invariance.entries_computed", "count", "lower",
     "finite_solver.bruteforce_invariance", "entries_computed"),
    ("lattice_ext.solve_chzmc.s", "s", "lower", "lattice_ext.solve_chzmc", "s"),
    ("lattice_ext.check_chzmc_conditions.s", "s", "lower", "lattice_ext.check_chzmc_conditions", "s"),
    ("lattice_ext.partition_function.s", "s", "lower", "lattice_ext.partition_function", "s"),
    ("lattice_ext.chzmc_density.s", "s", "lower", "lattice_ext.chzmc_density", "s"),
    ("lattice_ext.bruteforce_cycle_invariance.s", "s", "lower",
     "lattice_ext.bruteforce_cycle_invariance", "s"),
    ("lattice_ext.bruteforce_cycle_invariance.entries_computed", "count", "lower",
     "lattice_ext.bruteforce_cycle_invariance", "entries_computed"),
    ("lattice_ext.check_cycle_commutation.s", "s", "lower", "lattice_ext.check_cycle_commutation", "s"),
    ("lattice_ext.check_cycle_commutation.calls", "count", "lower",
     "lattice_ext.check_cycle_commutation", "calls"),
    ("lattice_ext.check_cycle_commutation.sweeps", "count", "lower",
     "lattice_ext.check_cycle_commutation", "sweeps"),
    ("continuous_kernels.quadrature_check_conditions.s", "s", "lower",
     "continuous_kernels.quadrature_check_conditions", "s"),
    ("continuous_kernels.compose_kernels.s", "s", "lower", "continuous_kernels.compose_kernels", "s"),
    ("continuous_kernels.apply_law.s", "s", "lower", "continuous_kernels.apply_law", "s"),
    ("continuous_kernels.factorization_sweep.self_s", "s", "lower",
     "continuous_kernels._cond_residuals", "self_s"),
    ("continuous_kernels.factorization_sweep.density_evals_computed", "count", "lower",
     "continuous_kernels._cond_residuals", "density_evals_computed"),
    ("continuous_kernels.mu_equivalence_probe.s", "s", "lower",
     "continuous_kernels.mu_equivalence_probe", "s"),
    ("simulator.write_diagram_csv.s", "s", "lower", "simulator.write_diagram_csv", "s"),
    ("simulator.write_diagram_csv.bytes", "bytes", "lower", "simulator.write_diagram_csv", "bytes"),
    ("simulator.write_diagram_binary.s", "s", "lower", "simulator.write_diagram_binary", "s"),
    ("simulator.write_diagram_binary.bytes", "bytes", "lower",
     "simulator.write_diagram_binary", "bytes"),
    ("simulator.sample_hzmc_lines.s", "s", "lower", "simulator.sample_hzmc_lines", "s"),
    ("simulator.sample_hzmc_lines.cells", "count", "lower", "simulator.sample_hzmc_lines", "cells"),
    ("simulator.step_pca.s", "s", "lower", "simulator.step_pca", "s"),
    ("simulator.step_pca.calls", "count", "lower", "simulator.step_pca", "calls"),
    ("simulator.row_uniforms.s", "s", "lower", "simulator.row_uniforms", "s"),
    ("stats.summarize_line.s", "s", "lower", "stats.summarize_line", "s"),
    ("stats.ks_distance.s", "s", "lower", "stats.ks_distance", "s"),
]

# metrics the runner adds: shares of one command kind's time spent in one
# function, and the tracing overhead
SHARES = [
    # (metric, span name, command kind, alphabet size or None)
    ("finite_solver.check_belyaev.share_of_check_k16", "finite_solver.check_belyaev", "check", 16),
    ("simulator.write_diagram_csv.share_of_simulate", "simulator.write_diagram_csv", "simulate", None),
]
OVERHEAD = "trace.overhead_s"
_COUNTER_STATS = {stat for *_, stat in PER_LAYER} - {"s", "self_s", "calls"}


def layer_values(spans: list[dict], cmds: set) -> dict:
    """Per-layer statistics over the spans of the commands in ``cmds``."""
    sums = {}
    for s in spans:
        if s["cmd"] not in cmds:
            continue
        acc = sums.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        acc["s"] += s["end"] - s["start"]
        acc["self_s"] += s["self_s"]
        acc["calls"] += 1
        for key in _COUNTER_STATS & s.keys():
            acc[key] = acc.get(key, 0) + s[key]
    return {metric: sums.get(span, {}).get(stat, 0)
            for metric, _, _, span, stat in PER_LAYER}


def share(spans: list[dict], cmds: set, span_name: str) -> float:
    """Time inside ``span_name`` over the time of the commands in ``cmds``."""
    total = inner = 0.0
    for s in spans:
        if s["cmd"] in cmds:
            if s["name"] == "cli.main":
                total += s["end"] - s["start"]
            elif s["name"] == span_name:
                inner += s["end"] - s["start"]
    return inner / total if total else 0.0

