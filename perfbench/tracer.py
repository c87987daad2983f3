"""Span tracer installed around fsbp's public functions for the traced run.

Every public function of the traced modules, and the public methods of
``FunctionSpace`` and ``Engine``, is replaced by a wrapper that records a
span (id, parent id, name, start, end, ok).  Names bound elsewhere with
``from .x import y`` are rebound too, so a call reaches the wrapper
whichever module it is made from.  Spans stay in memory; ``write`` saves
them when the run ends.  Work counters are read from the public return
values only (rule traces, screen reports, integration results, energy
traces).  Nothing in the program itself is modified on disk.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import itertools
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

TRACED_MODULES = ("cli", "pipeline", "spaces", "integrate", "gauss", "operators", "ibvp")
TRACED_CLASSES = {"spaces": ("FunctionSpace",), "integrate": ("Engine",)}

COLLOCATION = ("spaces.FunctionSpace.collocation", "spaces.FunctionSpace.collocation_deriv")


class Tracer:
    def __init__(self):
        # (span id, parent id, name, start, end, ok, nested in a span of the same name)
        self.spans: list = []
        self.counters: Counter = Counter()
        self.study_keys: list = []          # (spec, node mode, n_nodes) per study operator
        self.operator_times: list = []      # (n nodes, seconds) per build_operator
        self._ids = itertools.count(1)
        self._stack = [0]
        self._active: Counter = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, active, ids = self.spans, self._stack, self._active, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            nested = active[name] > 0
            active[name] += 1
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans.append((sid, parent, name, start, end, ok, nested))
                if ok and hook is not None:
                    hook(self, args, kwargs, result, nested, end - start)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        replacements = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"fsbp.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replacements[obj] = self._wrap(name, obj, HOOKS.get(name))
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        name = f"{short}.{cls_name}.{attr}"
                        self._set(cls, attr, self._wrap(name, obj, HOOKS.get(name)))
        # rebind every module-level name of the package that refers to a
        # wrapped function, including names imported with `from .x import y`
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fsbp" and not mod_name.startswith("fsbp."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._set(mod, attr, replacements[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, passes: int, time_scale: float = 1.0) -> dict:
        """Per-layer numbers per traced pass (ratios and per-call figures as is),
        with every duration multiplied by ``time_scale``."""
        child = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            child[parent] += end - start
        inclusive = defaultdict(float)   # outermost spans of each name only
        calls = Counter()
        ok_calls = Counter()
        self_time = defaultdict(float)
        for sid, _, name, start, end, ok, nested in self.spans:
            self_time[name] += time_scale * ((end - start) - child[sid])
            if not nested:
                inclusive[name] += time_scale * (end - start)
                calls[name] += 1
                ok_calls[name] += ok

        c = self.counters
        per = 1.0 / passes

        def ratio(num, den):
            return num / den if den else 0.0

        colloc_calls = sum(calls[n] for n in COLLOCATION)
        op_max_n = max((n for n, _ in self.operator_times), default=0)
        rk4_s = inclusive["ibvp.time_integrate"]
        m = {
            "cli.self_s": per * sum(t for n, t in self_time.items() if n.startswith("cli.")),
            "pipeline.solve_rule_pipeline.s": per * inclusive["pipeline.solve_rule_pipeline"],
            "pipeline.build_study_operator.calls": per * calls["pipeline.build_study_operator"],
            "pipeline.build_study_operator.distinct_ratio":
                ratio(len(set(self.study_keys)), len(self.study_keys)),
            "spaces.collocation.calls": per * colloc_calls,
            "spaces.collocation.points": per * c["spaces.collocation.points"],
            "spaces.collocation.s": per * sum(inclusive[n] for n in COLLOCATION),
            "spaces.tchebyshev_screen.s": per * inclusive["spaces.tchebyshev_screen"],
            "spaces.tchebyshev_screen.tested_grids": per * c["spaces.tchebyshev_screen.tested_grids"],
        }
        for fn in ("make_family", "product_derivative_space", "orthonormalize", "augment_to_even"):
            m[f"spaces.{fn}.s"] = per * inclusive[f"spaces.{fn}"]
        m.update({
            "integrate.integrate_vector.calls": per * calls["integrate.integrate_vector"],
            "integrate.integrate_vector.s": per * inclusive["integrate.integrate_vector"],
            "integrate.subdivisions": per * c["integrate.subdivisions"],
            "integrate.converged_ratio": ratio(c["integrate.converged"],
                                               calls["integrate.integrate_vector"]),
            "gauss.continuation_solve.self_s": per * self_time["gauss.continuation_solve"],
            "gauss.measure_moments.s": per * inclusive["gauss.measure_moments"],
            "gauss.verify_exactness.s": per * inclusive["gauss.verify_exactness"],
            "gauss.equispaced_rule.s": per * inclusive["gauss.equispaced_rule"],
            "gauss.newton_solve.calls": per * calls["gauss.newton_solve"],
            "gauss.newton_solve.s": per * inclusive["gauss.newton_solve"],
            "gauss.newton_solve.success_ratio": ratio(ok_calls["gauss.newton_solve"],
                                                      calls["gauss.newton_solve"]),
            "gauss.newton_iterations": per * c["gauss.newton_iterations"],
            "gauss.homotopy_steps": per * c["gauss.homotopy_steps"],
            "operators.build_operator.calls": per * calls["operators.build_operator"],
            "operators.build_operator.s": per * inclusive["operators.build_operator"],
            "operators.build_operator.s_max_n": time_scale * statistics.median(
                [t for n, t in self.operator_times if n == op_max_n] or [0.0]),
            "operators.build_operator.max_n": op_max_n,
            "operators.verify_sbp.s": per * inclusive["operators.verify_sbp"],
            "operators.build_approximate_operator.s":
                per * inclusive["operators.build_approximate_operator"],
            "ibvp.time_integrate.s": per * rk4_s,
            "ibvp.rk4_steps": per * c["ibvp.rk4_steps"],
            "ibvp.rk4_steps_per_s": ratio(c["ibvp.rk4_steps"], rk4_s),
        })
        for fn in ("advdiff_rhs", "advection_rhs"):
            n = calls[f"ibvp.{fn}"]
            m[f"ibvp.{fn}.calls"] = per * n
            m[f"ibvp.{fn}.us_per_call"] = ratio(1e6 * inclusive[f"ibvp.{fn}"], n)
        return m

    def write(self, path: Path) -> None:
        """Save every span as gzipped CSV (times in seconds from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span_id", "parent_id", "name", "start_s", "end_s", "ok"])
            for sid, parent, name, start, end, ok, _ in sorted(self.spans):
                w.writerow([sid, parent, name, f"{start - t0:.9f}", f"{end - t0:.9f}", int(ok)])


# ---------------------------------------------------------------------------
# counters from public return values

def _collocation(tracer, args, kwargs, result, nested, seconds):
    if not nested:
        tracer.counters["spaces.collocation.points"] += result.shape[0]


def _screen(tracer, args, kwargs, report, nested, seconds):
    tracer.counters["spaces.tchebyshev_screen.tested_grids"] += report.tested_grids


def _integrate_vector(tracer, args, kwargs, res, nested, seconds):
    tracer.counters["integrate.subdivisions"] += res.subdivisions
    tracer.counters["integrate.converged"] += bool(res.converged)


def _continuation(tracer, args, kwargs, rule, nested, seconds):
    for stage in rule.trace["stages"]:
        steps = stage.get("steps", ())
        tracer.counters["gauss.homotopy_steps"] += len(steps)
        tracer.counters["gauss.newton_iterations"] += sum(s["iterations"] for s in steps)


def _study_operator(tracer, args, kwargs, result, nested, seconds):
    import fsbp.pipeline
    sig = inspect.signature(fsbp.pipeline.build_study_operator)   # follows __wrapped__
    a = sig.bind(*args, **kwargs).arguments
    tracer.study_keys.append((json.dumps(a["family_spec"], sort_keys=True),
                              a["node_mode"], a.get("n_nodes")))


def _build_operator(tracer, args, kwargs, op, nested, seconds):
    tracer.operator_times.append((op.size, seconds))


def _time_integrate(tracer, args, kwargs, result, nested, seconds):
    tracer.counters["ibvp.rk4_steps"] += len(result[1].times) - 1


HOOKS = {
    COLLOCATION[0]: _collocation,
    COLLOCATION[1]: _collocation,
    "spaces.tchebyshev_screen": _screen,
    "integrate.integrate_vector": _integrate_vector,
    "gauss.continuation_solve": _continuation,
    "pipeline.build_study_operator": _study_operator,
    "operators.build_operator": _build_operator,
    "ibvp.time_integrate": _time_integrate,
}
