"""Span tracing of the package's layers, from outside the package.

The tracer wraps each public function listed in ``LAYERS`` at every module
attribute where the package looks it up (``evaluate_jet``, for example, is
bound in ``jets``, ``graphgeom`` and ``lagrangian``), and the class
attribute for methods.  Two scipy functions are wrapped where the package
binds them: ``spsolve`` in ``solver`` and ``solve_ivp`` in ``graphgeom``.
Names are resolved once, when the tracer is made; a name the package no
longer has is reported as absent and its metrics read 0.

A span is (name, start, end, parent span, job id), kept in memory.  Self
time is a span's duration minus the time covered by its direct children.
The package runs single-threaded here, so spans nest strictly.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

LAYERS = {
    "cli": ("main", "write_records"),
    "exprparse": ("parse", "eval_values"),
    "jets": ("evaluate_jet",),
    "graphgeom": (
        "GraphMap.jet_data", "induced_metric", "immersion_geometry", "fundamental_forms",
        "curvature", "ricci_bound_check", "extremal_residual", "pseudo_distance",
        "covariant_h", "simons_report", "integrate_geodesic", "solve_ivp",
    ),
    "grassmann": ("gauss_map", "distance"),
    "lagrangian": ("gradient_graph", "ma_residual", "lagrangian_forms", "moduli_curvature",
                   "moduli_curvature_oracle"),
    "solver": ("solve_maximal", "solve_ma", "field_immersion_geometry", "save_field", "spsolve"),
    "bernstein": ("geodesic_radius", "estimate_report", "decay_scan", "completeness_probe"),
    "lattice": ("node_points", "active_mask"),
}


def _newton_steps(result) -> int:
    _, log = result
    return sum(1 for step in log.steps if step[1] >= 1)


# Counts read at a layer boundary: name -> (counter, f(args, result) -> amount)
_HOOKS = {
    "solver.spsolve": ("solver.unknowns_total", lambda args, res: args[0].shape[0]),
    "solver.solve_maximal": ("solver.newton_steps", lambda args, res: _newton_steps(res)),
    "solver.solve_ma": ("solver.newton_steps", lambda args, res: _newton_steps(res)),
    "bernstein.geodesic_radius": ("bernstein.geodesic_nodes",
                                  lambda args, res: int(np.isfinite(res.r).sum())),
}


class Tracer:
    def __init__(self):
        self.names = []          # span name by id
        self.absent = []         # listed names the package does not have
        self.spans = []          # (name id, start, end, parent index, job id)
        self.counters = {}
        self.job = ""
        self._stack = []
        self._patches = []       # (owner, attribute, original, wrapper)
        self._resolve()

    # -- resolution -----------------------------------------------------------

    def _resolve(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "spacelike" or key.startswith("spacelike."))]
        for module, funcs in LAYERS.items():
            home = sys.modules.get(f"spacelike.{module}")
            for func in funcs:
                name = f"{module}.{func}"
                owner, attr = home, func
                if "." in func:
                    cls_name, attr = func.split(".")
                    owner = getattr(home, cls_name, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(len(self.names), orig, _HOOKS.get(name))
                self.names.append(name)
                if owner is not home:      # a method: the class is shared by all callers
                    self._patches.append((owner, attr, orig, wrapper))
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, key, orig, wrapper))

    def _wrap(self, name_id, orig, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.job)
            if hook is not None:
                self._count(hook, args, result)
            return result

        return wrapper

    def _count(self, hook, args, result):
        counter, amount = hook
        try:
            value = amount(args, result)
        except (AttributeError, TypeError, IndexError, ValueError):
            # the result no longer has the expected shape: report the counter as absent
            if counter not in self.absent:
                self.absent.append(counter)
            return
        self.counters[counter] = self.counters.get(counter, 0) + value

    # -- switching --------------------------------------------------------------

    def enable(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------------

    def take(self):
        """Per-name calls and self time of the spans recorded since the last
        take, plus the calls made under each span name's ancestors, then
        forget the spans (the caller keeps the list if it wants them)."""
        spans = list(self.spans)
        self.spans.clear()
        n = len(self.names)
        calls = np.zeros(n, dtype=int)
        self_s = np.zeros(n)
        child = np.zeros(len(spans))
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, start, end, _, _) in enumerate(spans):
            calls[nid] += 1
            self_s[nid] += (end - start) - child[i]
        return spans, calls, self_s

    def under(self, spans, name: str, ancestor: str) -> int:
        """Spans of `name` that have a span of `ancestor` above them."""
        if name not in self.names or ancestor not in self.names:
            return 0
        nid, aid = self.names.index(name), self.names.index(ancestor)
        inside = np.zeros(len(spans), dtype=bool)
        count = 0
        for i, (sid, _, _, parent, _) in enumerate(spans):
            inside[i] = parent >= 0 and (inside[parent] or spans[parent][0] == aid)
            count += sid == nid and inside[i]
        return count
