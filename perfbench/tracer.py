"""Span tracer for the per-layer run.

The tracer wraps public functions of the nlsground layers from outside the
package: every module-level binding of a traced function in every
``nlsground`` module is replaced by a wrapper that records one span
(name, parent, start, end).  A function imported by name into several
modules (``project`` is bound in ``functional`` and ``optimizer``,
``minimize`` in ``optimizer`` and ``sweep``) is therefore traced on every
call path.  Methods are patched on their class.

Spans live in flat arrays in memory (a traced log sweep makes about a
million of them) and are written out once, at the end, by ``save``.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from array import array

import numpy as np

# (span label, module, attribute) of every traced function; a dotted
# attribute names a method on a class.
TRACED = (
    ("grid.grad_norm_sq", "nlsground.grid", "grad_norm_sq"),
    ("grid.neg_laplacian", "nlsground.grid", "neg_laplacian"),
    ("grid.solve_shifted", "nlsground.grid", "solve_shifted"),
    ("grid.GridFunction.to_csv", "nlsground.grid", "GridFunction.to_csv"),
    ("nonlinearity.g_quotient", "nlsground.nonlinearity", "g_quotient"),
    ("nonlinearity.check_conditions", "nlsground.nonlinearity", "check_conditions"),
    ("functional.project", "nlsground.functional", "project"),
    ("functional._fiber_bracket", "nlsground.functional", "_fiber_bracket"),
    ("functional.fiber_action", "nlsground.functional", "fiber_action"),
    ("functional.reduced_gradient", "nlsground.functional", "reduced_gradient"),
    ("functional.dilate", "nlsground.functional", "dilate"),
    ("optimizer.minimize", "nlsground.optimizer", "minimize"),
    ("optimizer.multistart_minimize", "nlsground.optimizer", "multistart_minimize"),
    ("optimizer._newton_polish", "nlsground.optimizer", "_newton_polish"),
    ("optimizer._Descent.step", "nlsground.optimizer", "_Descent.step"),
    ("sweep.sweep", "nlsground.sweep", "sweep"),
    ("cli.main", "nlsground.cli", "main"),
)
# the spec's own f and F, wrapped per NonlinearitySpec
SPEC_F = "nonlinearity.f"
SPEC_F_PRIMITIVE = "nonlinearity.F_primitive"
LABELS = tuple(label for label, _, _ in TRACED) + (SPEC_F, SPEC_F_PRIMITIVE)


def metric_unit(metric):
    """Unit of a per-layer metric."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls") or metric == "optimizer.iterations":
        return "count"
    return "ratio"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "nlsground" or name.startswith("nlsground."))]


class Tracer:
    """Records nested spans around the traced nlsground functions."""

    def __init__(self):
        self.labels = list(LABELS)
        self._label_id = {label: i for i, label in enumerate(self.labels)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []            # (owner, attribute, original value)
        self.solves = []           # (iterations, converged) per minimize return
        self.sweep_points = 0

    def wrap(self, label, fn, observe=None):
        """Return fn wrapped so that each call records one span."""
        nid = self._label_id[label]
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return traced

    def wrap_spec(self, nl):
        """A copy of the NonlinearitySpec whose f and F record spans."""
        return dataclasses.replace(nl, f=self.wrap(SPEC_F, nl.f),
                                   F=self.wrap(SPEC_F_PRIMITIVE, nl.F))

    def _rebind(self, original, replacement):
        hits = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {original!r} to patch")

    def install(self):
        """Patch every traced function in every nlsground module."""
        observers = {
            "optimizer.minimize":
                lambda rep: self.solves.append((rep.iterations, bool(rep.converged))),
            "sweep.sweep": self._count_points,
        }
        for label, module, attr in TRACED:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(label, original))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self.wrap(label, original, observers.get(label)))
        # specs built by the CLI get traced f and F
        nonlin = sys.modules["nlsground.nonlinearity"]
        for factory in (nonlin.builtin, nonlin.from_callables):
            self._rebind(factory, self._spec_factory(factory))
        return self

    def _spec_factory(self, factory):
        def make(*args, **kwargs):
            return self.wrap_spec(factory(*args, **kwargs))
        return make

    def _count_points(self, result):
        self.sweep_points += len(result.masses)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        """Write every span (label id, parent index, start, end) to an .npz file."""
        name, parent, start, end = self.arrays()
        np.savez(path, labels=np.array(self.labels), name=name, parent=parent,
                 start=start, end=end)

    def summary(self) -> dict:
        """Per-label calls and self time, plus the derived layer counters."""
        name, parent, start, end = self.arrays()
        n_labels = len(self.labels)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=name.size)
        self_s = np.bincount(name, weights=dur - covered, minlength=n_labels)
        calls = np.bincount(name, minlength=n_labels)
        out = {}
        for i, label in enumerate(self.labels):
            out[f"{label}.calls"] = int(calls[i])
            out[f"{label}.self_s"] = float(self_s[i])

        lid = self._label_id
        in_project = self._inside(name, parent, lid["functional.project"])
        in_minimize = self._inside(name, parent, lid["optimizer.minimize"])
        is_project = name == lid["functional.project"]
        projects = int(calls[lid["functional.project"]])
        iterations = sum(it for it, _ in self.solves)
        step = lid["optimizer._Descent.step"]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ls_trials = int(np.count_nonzero(is_project & (parent_name == step)))
        minimize_calls = int(calls[lid["optimizer.minimize"]])
        f_in_project = int(np.count_nonzero((name == lid[SPEC_F]) & in_project))

        def ratio(num, den):
            return float(num) / den if den else 0.0

        out.update({
            "functional.brackets_per_project":
                ratio(calls[lid["functional._fiber_bracket"]], projects),
            "nonlinearity.f_evals_per_project": ratio(f_in_project, projects),
            "optimizer.iterations": iterations,
            "optimizer.projections_per_iter":
                ratio(np.count_nonzero(is_project & in_minimize), iterations),
            "optimizer.ls_trials_per_iter": ratio(ls_trials, iterations),
            "optimizer.converged_frac":
                ratio(sum(c for _, c in self.solves), len(self.solves)),
            "sweep.solves_per_point": ratio(minimize_calls, self.sweep_points),
        })
        return out

    @staticmethod
    def _inside(name, parent, label_id):
        """Mask of spans that are label_id spans or descend from one.

        Parents are recorded before their children, so one forward pass
        resolves every ancestor chain."""
        flag = (name == label_id).tolist()
        par = parent.tolist()
        for i, p in enumerate(par):
            if p >= 0 and flag[p]:
                flag[i] = True
        return np.array(flag, dtype=bool)
