"""Per-layer spans recorded around parmaint's public functions.

The benchmark's probe installs a :class:`Tracer` before it calls
``parmaint.cli.main``.  Every traced function is replaced in each
``parmaint`` module that binds it by name (``cli``, ``app`` and ``exact``
import ``build_model``, ``solve_average_cost`` and the others directly),
so calls made from any layer are seen.  Spans stay in memory and are
written out by the probe when the command ends.

Spans nest through one stack shared by all threads.  That is exact for
``--threads 1``, where a single pool worker runs while the caller waits,
which is the only load the benchmark runs.

Functions a later version renames or removes are skipped, and a hook
that cannot read a result records ``hook_error`` instead of failing the
command, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

import numpy as np

STATIC_MATCH_TOL = 1e-8  # |ln g_f - closed form| counted as a mismatch


def _args(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind_partial(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _design(model):
    design = getattr(model, "design", None)
    return None if design is None else [int(x) for x in design]


def _front_keys(front):
    return {"front": [[[int(x) for x in p.design], p.penalty] for p in front]}


def _build_model(a, model):
    return {
        "design": _design(model),
        "states": int(model.n_states),
        "sa_pairs": int(model.n_state_actions),
        "transitions": int(len(model.trn_targets)),
    }


def _solve(a, res):
    model = a["model"]
    return {
        "design": _design(model),
        "penalty": float(a["penalty"]),
        "sweeps": int(getattr(res, "iterations", 0)),
        "floor_limited": bool(getattr(res, "floor_limited", False)),
        "converged": bool(getattr(res, "converged", True)),
        "warm": a.get("v_init") is not None,
        "sa_pairs": int(model.n_state_actions),
    }


def _evaluate(a, gain):
    model, policy = a["model"], a["policy"]
    full = bool(np.array_equal(policy.choice, np.diff(model.act_offsets) - 1))
    attrs = {"design": _design(model), "full_repair": full, "static_mismatch": False}
    if full and model.design is not None and a.get("initial_state", 0) == 0:
        from parmaint.dop import dop_objectives

        _, ln_closed = dop_objectives(model.instance, model.design)
        ln = gain.ln_g_f
        attrs["static_mismatch"] = not (
            ln == ln_closed or abs(ln - ln_closed) <= STATIC_MATCH_TOL
        )
    return attrs


def _simulate(a, report):
    return {"events": int(report.events), "failure_entries": int(report.failure_entries)}


def _merge(a, front):
    points = a.get("points")
    n_in = len(points) if hasattr(points, "__len__") else None
    return {"n_in": n_in, "n_out": len(front)}


def _written(a, _):
    path = a.get("path")
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return {"bytes": os.path.getsize(path)}
    return {"bytes": 0}


# (module, function, span name, hook reading counts off the call)
TARGETS = [
    ("parmaint.cli", "main", "cli.main", None),
    ("parmaint.model", "load_instance", "model.load_instance", None),
    ("parmaint.dop", "sp1_sweep", "dop.sp1_sweep", lambda a, r: {"designs": len(r)}),
    ("parmaint.ctmdp", "build_model", "ctmdp.build_model", _build_model),
    ("parmaint.mdp_solve", "solve_average_cost", "mdp_solve.solve", _solve),
    ("parmaint.mdp_solve", "evaluate_policy", "mdp_solve.evaluate", _evaluate),
    ("parmaint.app", "run_app", "app.run_app", lambda a, r: _front_keys(r)),
    ("parmaint.app", "sp2", "app.sp2", None),
    ("parmaint.app", "non_dom_filter", "app.non_dom_filter", _merge),
    ("parmaint.exact", "exact_front", "exact.exact_front", lambda a, r: _front_keys(r)),
    (
        "parmaint.exact",
        "enumerate_feasible_designs",
        "exact.enumerate",
        lambda a, r: {"designs": len(r)},
    ),
    ("parmaint.sim", "simulate_policy", "sim.simulate_policy", _simulate),
]
for _name in ("write_front", "write_gain_report", "write_policy", "write_sim_report"):
    TARGETS.append(("parmaint.io", _name, "io." + _name, _written))
for _name in ("read_front", "read_policy"):
    TARGETS.append(("parmaint.io", _name, "io." + _name, None))


class Tracer:
    """In-memory span recorder for one command of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name, hook):
        spans, stack, workload = self.spans, self._stack, self.workload

        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "workload": workload,
            }
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span["attrs"] = hook(_args(fn, args, kwargs), result)
                except Exception as exc:  # a renamed field must not fail the command
                    span["attrs"] = {"hook_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded parmaint module."""
        for module_name, attr, name, hook in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self.wrap(original, name, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("parmaint"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
