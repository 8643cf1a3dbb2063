"""Two-stage heuristic construction of the cost/reliability front.

Stage one sweeps the static sizing problem (see :mod:`parmaint.dop`);
stage two keeps only designs not contained in another candidate and, for
each survivor, sweeps the failure penalty of the dynamic repair problem
to trace that design's policy trade-off curve.  The union of static and
dynamic points is then reduced to its non-dominated subset.  Containment
filtering is sound because a larger design can always emulate a smaller
one by never repairing the extra copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from parmaint.ctmdp import build_model
from parmaint.dop import dop_objectives, sp1_sweep
from parmaint.mdp_solve import (
    MaintenancePolicy,
    evaluate_policy,
    fully_active_policy,
    solve_average_cost,
)

__all__ = [
    "SolutionPoint",
    "ParetoFront",
    "non_nested_designs",
    "emulating_policy",
    "sp2",
    "non_dom_filter",
    "run_app",
    "STATIC_SP1",
    "DYNAMIC_SP2",
    "EXACT",
]

STATIC_SP1 = "static-SP1"
DYNAMIC_SP2 = "dynamic-SP2"
EXACT = "exact"

DEFAULT_P_MIN = 1.0
DEFAULT_DELTA_P = 2.0
SWEEP_CAP = 200  # penalty levels per design before giving up
LFR_MATCH_TOL = 1e-9  # |ln g_f - static ln g_f| counting as "reached"
DOM_TOL = 1e-9  # absolute dominance/duplicate tolerance
DICHOTOMIC_DEPTH = 40
PENALTY_CLAMP = (1e-9, 1e12)


@dataclass(frozen=True)
class SolutionPoint:
    """One (cost rate, log failure rate) point with its recipe."""

    g_o: float
    ln_g_f: float
    design: tuple
    provenance: str  # STATIC_SP1 | DYNAMIC_SP2 | EXACT
    penalty: float | None = None
    policy: object = field(default=None, compare=False)
    flags: tuple = field(default=(), compare=False)

    @property
    def g_f(self) -> float:
        return math.exp(self.ln_g_f)

    def identity_key(self):
        penalty = math.inf if self.penalty is None else float(self.penalty)
        return (self.provenance, self.design, penalty)


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated points ordered by ascending cost rate."""

    points: tuple
    notes: tuple = ()  # per-stage diagnostics; empty means complete

    @property
    def complete(self) -> bool:
        return not self.notes

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def designs(self):
        return sorted({p.design for p in self.points})


def non_nested_designs(solutions):
    """Drop solutions whose design fits componentwise inside another's."""
    designs = [s.design for s in solutions]
    keep = []
    for s in solutions:
        x = s.design
        nested = any(
            all(a <= b for a, b in zip(x, y)) and any(a < b for a, b in zip(x, y))
            for y in designs
        )
        if not nested:
            keep.append(s)
    return keep


def emulating_policy(model, sub_design) -> MaintenancePolicy:
    """Run a larger build as if it were a smaller one.

    Repairs every damaged copy except a per-type allowance equal to the
    extra copies; those are left damaged forever, so in the long run the
    system behaves exactly like the smaller design under full repair.
    """
    retired = [int(m) - int(x) for m, x in zip(model.design, sub_design)]
    if any(r < 0 for r in retired):
        raise ValueError(f"{tuple(sub_design)} does not fit inside {model.design}")
    rows = model.states.reshape(model.n_states, model.n_types, 2)
    damaged = rows[:, :, 1].astype(np.int64)
    act = np.maximum(damaged - np.array(retired, dtype=np.int64), 0)
    # index of the action vector in the state's lexicographic action list
    choice = np.zeros(model.n_states, dtype=np.int64)
    for i in range(model.n_types):
        stride = np.ones(model.n_states, dtype=np.int64)
        for k in range(i + 1, model.n_types):
            stride *= damaged[:, k] + 1
        choice += act[:, i] * stride
    return MaintenancePolicy(model, choice)


def _solve_point(model, design, penalty, tolerance, v_init):
    res = solve_average_cost(model, penalty, tolerance=tolerance, v_init=v_init)
    gain = evaluate_policy(model, res.policy)
    flags = () if res.converged else ("unconverged",)
    pt = SolutionPoint(
        g_o=gain.g_o,
        ln_g_f=gain.ln_g_f,
        design=design,
        provenance=DYNAMIC_SP2,
        penalty=penalty,
        policy=res.policy,
        flags=flags,
    )
    return pt, res.values


def _close(x: float, y: float, tol: float) -> bool:
    if x == y:  # covers matching infinities
        return True
    return abs(x - y) <= tol


def dichotomic_expand(solve_at, left, right, rel_tol=1e-9, max_depth=DICHOTOMIC_DEPTH):
    """Supported points strictly between two front points, recursively.

    ``solve_at(penalty)`` must return an exactly evaluated SolutionPoint.
    The weight vector is the segment normal; recursion stops when the
    scalarized solve no longer beats the segment by ``rel_tol`` relative,
    or at ``max_depth``.
    """
    if max_depth <= 0:
        return []
    w_go = left.g_f - right.g_f
    w_gf = right.g_o - left.g_o
    if w_go <= 0.0 or w_gf <= 0.0:
        return []
    penalty = min(max(w_gf / w_go, PENALTY_CLAMP[0]), PENALTY_CLAMP[1])
    mid = solve_at(penalty)
    base = w_go * left.g_o + w_gf * left.g_f
    value = w_go * mid.g_o + w_gf * mid.g_f
    if base - value <= rel_tol * max(1.0, abs(base)):
        return []
    for end in (left, right):
        if _close(mid.g_o, end.g_o, DOM_TOL) and _close(mid.ln_g_f, end.ln_g_f, DOM_TOL):
            return []
    return (
        dichotomic_expand(solve_at, left, mid, rel_tol, max_depth - 1)
        + [mid]
        + dichotomic_expand(solve_at, mid, right, rel_tol, max_depth - 1)
    )


def sp2(
    instance,
    design,
    ln_g_f_static=None,
    p_min: float = DEFAULT_P_MIN,
    delta_p: float = DEFAULT_DELTA_P,
    mode: str = "sweep",
    solver_tolerance: float = 1e-10,
    model=None,
):
    """Penalty-parametrized policy trade-off curve for one design.

    Sweep mode multiplies the failure penalty by ``delta_p`` per level
    until the achieved log failure rate reaches the design's full-repair
    value (``ln_g_f_static``, computed if omitted); dichotomic mode
    recursively inserts the scalarized solve for each segment's normal
    weight.  Both modes close with the exactly evaluated full-repair
    point, recorded as the design's static representative.
    """
    if p_min <= 0:
        raise ValueError(f"penalty floor must be positive, got {p_min}")
    if delta_p <= 1:
        raise ValueError(f"penalty growth factor must exceed 1, got {delta_p}")
    if mode not in ("sweep", "dichotomic"):
        raise ValueError(f"unknown mode {mode!r}")
    design = tuple(int(x) for x in design)
    if model is None:
        model = build_model(instance, design=design)
    if ln_g_f_static is None:
        _, ln_g_f_static = dop_objectives(instance, design)

    fa = fully_active_policy(model)
    fa_gain = evaluate_policy(model, fa)
    fa_flags = ()
    if not (
        _close(fa_gain.ln_g_f, ln_g_f_static, 1e-8)
        and abs(fa_gain.g_o - dop_objectives(instance, design)[0]) <= 1e-8
    ):
        fa_flags = ("static-mismatch",)
    endpoint = SolutionPoint(
        g_o=fa_gain.g_o,
        ln_g_f=fa_gain.ln_g_f,
        design=design,
        provenance=STATIC_SP1,
        penalty=None,
        policy=fa,
        flags=fa_flags,
    )

    points = []
    if mode == "sweep":
        penalty = float(p_min)
        v = None
        matched = False
        for _ in range(SWEEP_CAP):
            pt, v = _solve_point(model, design, penalty, solver_tolerance, v)
            points.append(pt)
            if pt.ln_g_f <= ln_g_f_static + LFR_MATCH_TOL:
                matched = True
                break
            penalty *= delta_p
        if not matched:
            points[-1] = replace(points[-1], flags=points[-1].flags + ("cap-reached",))
    else:
        v_store = {"v": None}

        def solve_at(penalty):
            pt, v_store["v"] = _solve_point(
                model, design, penalty, solver_tolerance, v_store["v"]
            )
            return pt

        left = solve_at(float(p_min))
        points = [left] + dichotomic_expand(solve_at, left, endpoint)

    points.append(endpoint)
    return points


def _dominates(a: SolutionPoint, b: SolutionPoint, tol: float) -> bool:
    return (
        a.g_o <= b.g_o + tol
        and a.ln_g_f <= b.ln_g_f + tol
        and (a.g_o < b.g_o - tol or a.ln_g_f < b.ln_g_f - tol)
    )


def non_dom_filter(points, tolerance: float = DOM_TOL) -> ParetoFront:
    """Keep exactly the points no other point dominates.

    Domination allows ``tolerance`` slack in both objectives; among
    points that coincide within tolerance only the first by (provenance,
    design, penalty) survives.  Output is ordered by ascending cost
    rate.
    """
    pts = list(points)
    survivors = [
        p
        for p in pts
        if not any(q is not p and _dominates(q, p, tolerance) for q in pts)
    ]
    survivors.sort(key=SolutionPoint.identity_key)
    kept = []
    for p in survivors:
        if any(
            _close(p.g_o, k.g_o, tolerance) and _close(p.ln_g_f, k.ln_g_f, tolerance)
            for k in kept
        ):
            continue
        kept.append(p)
    kept.sort(key=lambda p: (p.g_o, -p.ln_g_f))
    return ParetoFront(points=tuple(kept))


def run_app(
    instance,
    eps_min: float = 0.0,
    delta_eps: float = -0.1,
    delta: float = 0.1,
    p_min: float = DEFAULT_P_MIN,
    delta_p: float = DEFAULT_DELTA_P,
    mode: str = "sweep",
    tolerance: float = DOM_TOL,
    solver_tolerance: float = 1e-10,
    record_ties: bool = False,
) -> ParetoFront:
    """Full heuristic front: static sweep, containment filter, penalty
    sweeps, non-dominated merge.

    Static candidates whose design is contained in another candidate
    skip the dynamic stage but stay in the merge population; designs
    that do get a dynamic stage contribute their static values through
    the closing full-repair point of their sweep.  Per-design failures
    are collected into the front's notes rather than aborting the run.
    """
    statics = sp1_sweep(instance, eps_min, delta_eps, delta, record_ties=record_ties)
    selected = non_nested_designs(statics)
    chosen = {s.design for s in selected}

    population = [
        SolutionPoint(
            g_o=s.g_o, ln_g_f=s.ln_g_f, design=s.design, provenance=STATIC_SP1
        )
        for s in statics
        if s.design not in chosen
    ]
    notes = []
    for s in selected:
        try:
            pts = sp2(
                instance,
                s.design,
                ln_g_f_static=s.ln_g_f,
                p_min=p_min,
                delta_p=delta_p,
                mode=mode,
                solver_tolerance=solver_tolerance,
            )
        except Exception as exc:  # keep other designs' results
            notes.append(f"design {s.design}: dynamic stage failed: {exc}")
            continue
        for p in pts:
            for flag in p.flags:
                notes.append(f"design {s.design} penalty {p.penalty}: {flag}")
        population.extend(pts)

    front = non_dom_filter(population, tolerance)
    return replace(front, notes=tuple(notes))
