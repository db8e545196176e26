"""Spans and counters around ptcontrol's public functions, from outside.

The package is not changed: while a traced operation runs, `Tracer.installed`
replaces the public functions of `mesh`, `fem`, `greens`, `control`, `error`
and `cli` with wrappers that record a span (name, start, end, parent,
operation id) and, where a layer has one, a work count.  Spans stay in memory
until the run ends.  A layer's self time is its spans' duration minus the time
their child spans cover.

Counts taken from a call's arguments or result, the ones the benchmark computes
itself (`COMPUTED`) among them, run in hook spans, so their cost is kept out of
every layer's self time and shows as `trace.hooks_s`.
"""

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

HOOK = "trace.hook"

# counts derived by the benchmark rather than read from the program
COMPUTED = ("fem.crossed_cells", "error.quad_points", "error.cut_frac")


def _ptcontrol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ptcontrol" or name.startswith("ptcontrol."))]


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.op_counts = {}
        self._stack = []
        self._op = None
        self._counts = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _add(self, key, amount):
        self._counts[key] = self._counts.get(key, 0) + amount

    def _hook(self, fn, *args):
        index = self._open(HOOK)
        try:
            fn(*args)
        finally:
            self._close(index)

    def _wrap(self, original, name, before=None, after=None, counter=None):
        signature = inspect.signature(original)

        def arguments(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if counter is not None:
                self._add(counter, 1)
            if before is not None:
                self._hook(before, arguments(args, kwargs))
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
            if after is not None:
                self._hook(after, arguments(args, kwargs), result)
            return result

        return traced

    # -- what is wrapped -----------------------------------------------------

    def _targets(self):
        from ptcontrol import cli, control, error, fem, greens, mesh, quadrature

        def rule_size(depth):
            return len(quadrature.subdivided_rule(depth)[1])

        def mesh_cells(a, result):
            self._add("mesh.cells", result.n_cells)

        def factor_nnz(a, result):
            lu = getattr(result, "_lu", None)
            if lu is not None:
                self._add("fem.factor_nnz", lu.L.nnz + lu.U.nnz)

        def crossed_cells(a):
            # the rule of the load_clipped_linear docstring: a cell takes the
            # clipping path unless -w/alpha stays within the bounds on it or
            # lies past one bound at all three vertices
            w = a["w"]
            nodal = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
            v = -nodal[a["mesh"].cells] / a["alpha"]
            lower, upper = a["lower"], a["upper"]
            within = np.all((v >= lower) & (v <= upper), axis=1)
            past = np.all(v <= lower, axis=1) | np.all(v >= upper, axis=1)
            self._add("fem.crossed_cells", int(np.count_nonzero(~(within | past))))

        def l2_points(a):
            self._add("error.quad_points", a["mesh"].n_cells * rule_size(a["depth"]))

        def l1_points(a):
            m = a["mesh"]
            singular = 0
            if a["singular_point"] is not None:
                at = np.flatnonzero(np.all(m.vertices == np.asarray(a["singular_point"]), axis=1))
                singular = int(np.count_nonzero(np.any(m.cells == at[0], axis=1)))
            self._add("error.quad_points",
                      (m.n_cells - singular) * rule_size(a["depth"])
                      + singular * rule_size(a["depth"] + a["extra_depth"]))

        def greens_points(a):
            x = np.asarray(a["x"])
            self._add("greens.points", 1 if x.ndim == 1 else len(x))

        def solution(a, result):
            p = a["problem"]
            self._add("control.iterations", result.iterations)
            self._add("control.accepted", len(result.objective_history))
            tags = error.classify_cells(a["mesh"], result.control, p.lower, p.upper)
            self._add("error.cut_cells", int(np.count_nonzero(tags == error.CUT)))
            self._add("error.classified_cells", a["mesh"].n_cells)

        def bytes_written(a, result):
            out = a["config"].out
            if out is not None:
                self._add("cli.bytes_written", os.path.getsize(out))

        targets = [
            (mesh, "build_disc_mesh", "mesh.build", None, mesh_cells),
            (fem, "assemble_stiffness", "fem.assemble", None, None),
            (fem, "factorize", "fem.factorize", None, factor_nnz),
            (fem.Factorization, "solve", "fem.solve", None, None),
            (fem, "load_smooth", "fem.load_smooth", None, None),
            (fem, "load_point", "fem.load_point", None, None),
            (fem, "load_cellwise", "fem.load_cellwise", None, None),
            (fem, "load_clipped_linear", "fem.load_clipped", crossed_cells, None),
            (fem, "clipped_field_l2_sq", "fem.clipped_l2", None, None),
            (control, "solve_discrete", "control.solve", None, solution),
            (control.ReducedSystem, "__init__", "control.setup", None, None),
            (error, "l2_error_control", "error.l2", l2_points, None),
            (error, "l1_error_fe", "error.l1", l1_points, None),
            (cli, "run_study", "cli.run_study", None, bytes_written),
            (cli, "run_solve", "cli.run_solve", None, bytes_written),
        ]
        targets += [(greens.ExactSolution, method, "greens.eval", greens_points, None)
                    for method in ("greens", "state", "control", "source")]
        return [(owner, attr, self._wrap(getattr(owner, attr), name, before, after))
                for owner, attr, name, before, after in targets] + [
            # counted, not timed: residual glue belongs to the Newton loop
            (control.ReducedSystem, "evaluate",
             self._wrap(control.ReducedSystem.evaluate, None,
                        counter="control.residual_evals")),
        ]

    @contextmanager
    def installed(self, op):
        """Trace operation ``op`` while the block runs; restore on exit."""
        saved = []
        self._op, self._counts = op, {}
        try:
            for owner, attr, wrapped in self._targets():
                original = getattr(owner, attr)
                # functions imported by name (cli's build_disc_mesh) are
                # replaced in every module namespace that holds them
                holders = [owner] if isinstance(owner, type) else [
                    m for m in _ptcontrol_modules() if getattr(m, attr, None) is original]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)
            self.op_counts[op] = self._counts
            self._op, self._counts = None, {}

    # -- results -------------------------------------------------------------

    def layer_metrics(self, op):
        """Per-layer metrics of one traced operation."""
        covered = {}
        for name, start, end, parent, span_op in self.spans:
            if span_op == op and parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        self_s, total_s, calls = {}, {}, {}
        for index, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered.get(index, 0.0)
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        counts = self.op_counts[op]
        c = counts.get

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "fem.factorize_s": self_s.get("fem.factorize", 0.0),
            "fem.factorize_calls": calls.get("fem.factorize", 0),
            "fem.factor_nnz": c("fem.factor_nnz", 0),
            "fem.solve_s": self_s.get("fem.solve", 0.0),
            "fem.solve_calls": calls.get("fem.solve", 0),
            "fem.load_clipped_s": self_s.get("fem.load_clipped", 0.0),
            "fem.load_clipped_calls": calls.get("fem.load_clipped", 0),
            "fem.crossed_cells": c("fem.crossed_cells", 0),
            "fem.clipped_l2_s": self_s.get("fem.clipped_l2", 0.0),
            "fem.assemble_s": self_s.get("fem.assemble", 0.0),
            "fem.load_smooth_s": self_s.get("fem.load_smooth", 0.0),
            "fem.load_point_s": self_s.get("fem.load_point", 0.0),
            "fem.load_cellwise_s": self_s.get("fem.load_cellwise", 0.0),
            "control.solve_s": total_s.get("control.solve", 0.0),
            "control.setup_self_s": self_s.get("control.setup", 0.0),
            "control.newton_self_s": self_s.get("control.solve", 0.0),
            "control.iterations": c("control.iterations", 0),
            "control.residual_evals": c("control.residual_evals", 0),
            "control.accepted_frac": ratio(c("control.accepted", 0),
                                           c("control.residual_evals", 0)),
            "error.l2_s": self_s.get("error.l2", 0.0),
            "error.l1_s": self_s.get("error.l1", 0.0),
            "error.quad_points": c("error.quad_points", 0),
            "error.cut_frac": ratio(c("error.cut_cells", 0),
                                    c("error.classified_cells", 0)),
            "greens.eval_s": self_s.get("greens.eval", 0.0),
            "greens.points": c("greens.points", 0),
            "cli.self_s": self_s.get("cli.run_study", 0.0) + self_s.get("cli.run_solve", 0.0),
            "cli.bytes_written": c("cli.bytes_written", 0),
            "mesh.build_s": self_s.get("mesh.build", 0.0),
            "mesh.cells": c("mesh.cells", 0),
            "trace.hooks_s": total_s.get(HOOK, 0.0),
        }

    def write(self, path, origin):
        """Write every span as one JSON line, times relative to ``origin``."""
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start - origin,
                                         "end": end - origin, "parent": parent,
                                         "op": op}) + "\n")
