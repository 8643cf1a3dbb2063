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
from itertools import compress

import numpy as np

from parmaint.ctmdp import build_model
from parmaint.dop import dop_objectives, sp1_sweep
from parmaint.mdp_solve import (
    LN_GF_FLOOR,
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

P_MIN = 1.0  # first failure penalty of each design's sweep
DELTA_P = 2.0  # penalty growth factor per level
SWEEP_CAP = 200  # penalty levels per design before giving up
DOM_TOL = 1e-9  # absolute tolerance of every dominance, duplicate and "reached" test


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
    pair: object = field(default=None, compare=False)  # exact GainPair of a solved policy

    @property
    def g_f(self) -> float:  # 0 below mdp_solve.LN_GF_FLOOR, where pair keeps the value
        return math.exp(self.ln_g_f)

    def identity_key(self):
        penalty = math.inf if self.penalty is None else float(self.penalty)
        return (self.provenance, self.design, penalty)


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated points ordered by ascending cost rate."""

    points: tuple
    notes: tuple = ()  # flag_notes of the run; empty means complete

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def non_nested_designs(solutions):
    """Drop solutions whose design fits componentwise inside another's."""
    designs = np.array([s.design for s in solutions])
    return [
        s
        for s in solutions
        if not (np.all(designs >= s.design, axis=1) & np.any(designs > s.design, axis=1)).any()
    ]


def static_points(solutions):
    """Front points of static-sweep solutions, in their order."""
    return [
        SolutionPoint(g_o=s.g_o, ln_g_f=s.ln_g_f, design=s.design, provenance=STATIC_SP1)
        for s in solutions
    ]


def emulating_policy(model, sub_design) -> MaintenancePolicy:
    """Run a larger build as if it were a smaller one.

    Repairs every damaged copy except a per-type allowance equal to the
    extra copies; those are left damaged forever, so in the long run the
    system behaves exactly like the smaller design under full repair.
    """
    retired = [int(m) - int(x) for m, x in zip(model.design, sub_design)]
    if any(r < 0 for r in retired):
        raise ValueError(f"{tuple(sub_design)} does not fit inside {model.design}")
    damaged = model.states[:, 1::2].astype(np.int64)
    act = np.maximum(damaged - np.array(retired, dtype=np.int64), 0)
    return MaintenancePolicy(model, model.action_indices(act))


def _check_tolerance(tolerance) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")


def _solve_point(model, design, penalty, start, provenance):
    """Solve one penalty from the ``start`` policy (None for a cold
    start) and return the point of its exactly evaluated optimum; the
    point's policy warm-starts the next penalty."""
    res = solve_average_cost(model, penalty, initial_policy=start)
    return SolutionPoint(
        g_o=res.pair.g_o,
        ln_g_f=res.pair.ln_g_f,
        design=design,
        provenance=provenance,
        penalty=penalty,
        policy=res.policy,
        flags=() if res.converged else ("unconverged",),
        pair=res.pair,
    )


def _full_repair_point(instance, model, design, provenance):
    """The design's exactly evaluated full-repair point (penalty ``None``),
    flagged when it misses the closed form."""
    policy = fully_active_policy(model)
    gain = evaluate_policy(model, policy)
    g_o, ln_g_f = dop_objectives(instance, design)
    if ln_g_f < math.log(LN_GF_FLOOR):  # where gain.ln_g_f reads -inf
        ln_g_f = -math.inf
    matches = _gap(gain.ln_g_f, ln_g_f) <= 1e-8 and abs(gain.g_o - g_o) <= 1e-8
    return SolutionPoint(
        g_o=gain.g_o,
        ln_g_f=gain.ln_g_f,
        design=design,
        provenance=provenance,
        penalty=None,
        policy=policy,
        flags=() if matches else ("static-mismatch",),
        pair=gain,
    )


def _gap(x, y):
    """Elementwise ``|x - y|``, with matching infinities 0 apart."""
    with np.errstate(invalid="ignore"):  # inf - inf, discarded where x == y
        return np.where(x == y, 0.0, np.abs(np.subtract(x, y)))


def _coincide(a_g_o, a_ln_g_f, b_g_o, b_ln_g_f, tol):
    """Whether points a and b agree within ``tol`` in both objectives;
    elementwise on arrays."""
    return (_gap(a_g_o, b_g_o) <= tol) & (_gap(a_ln_g_f, b_ln_g_f) <= tol)


def _columns(points):
    """The ``g_o`` and ``ln_g_f`` columns of a list of points."""
    return np.array([(p.g_o, p.ln_g_f) for p in points], dtype=float).reshape(-1, 2).T


def sp2(instance, design):
    """Penalty-parametrized policy trade-off curve for one design.

    Multiplies the failure penalty by ``DELTA_P`` per level, starting at
    ``P_MIN``, until the achieved log failure rate reaches the design's
    full-repair value within ``DOM_TOL``, then closes with the exactly
    evaluated full-repair point, recorded as the design's static
    representative.
    """
    design = instance.check_design(design)
    model = build_model(instance, design=design)
    _, ln_g_f_static = dop_objectives(instance, design)

    points = []
    penalty = float(P_MIN)
    policy = None
    for _ in range(SWEEP_CAP):
        pt = _solve_point(model, design, penalty, policy, DYNAMIC_SP2)
        policy = pt.policy
        points.append(pt)
        if pt.ln_g_f <= ln_g_f_static + DOM_TOL:
            break
        penalty *= DELTA_P
    else:
        points[-1] = replace(points[-1], flags=points[-1].flags + ("cap-reached",))
    points.append(_full_repair_point(instance, model, design, STATIC_SP1))
    return points


def _dominates(a_g_o, a_ln_g_f, b_g_o, b_ln_g_f, tol):
    """Whether point a is within ``tol`` of point b in both objectives and
    better by more than ``tol`` in one; elementwise on arrays."""
    return (
        (a_g_o <= b_g_o + tol)
        & (a_ln_g_f <= b_ln_g_f + tol)
        & ((a_g_o < b_g_o - tol) | (a_ln_g_f < b_ln_g_f - tol))
    )


def non_dom_filter(points) -> ParetoFront:
    """Keep exactly the points no other point dominates.

    Domination allows ``DOM_TOL`` slack in both objectives; among points
    that coincide within it only the first by (provenance, design,
    penalty) survives.  Output is ordered by ascending cost rate.
    """
    pts = list(points)
    g_o, ln_g_f = _columns(pts)
    survivors = [p for p in pts if not _dominates(g_o, ln_g_f, p.g_o, p.ln_g_f, DOM_TOL).any()]
    survivors.sort(key=SolutionPoint.identity_key)
    g_o, ln_g_f = _columns(survivors)
    kept = np.zeros(len(survivors), dtype=bool)
    for i, p in enumerate(survivors):
        kept[i] = not _coincide(g_o[kept], ln_g_f[kept], p.g_o, p.ln_g_f, DOM_TOL).any()
    front = sorted(compress(survivors, kept), key=lambda p: (p.g_o, -p.ln_g_f))
    return ParetoFront(points=tuple(front))


def run_app(instance) -> ParetoFront:
    """Full heuristic front: static sweep, containment filter, penalty
    sweeps, non-dominated merge.

    Static candidates whose design is contained in another candidate
    skip the dynamic stage but stay in the merge population; designs
    that do get a dynamic stage contribute their static values through
    the closing full-repair point of their sweep.  Per-design failures
    are collected into the front's notes rather than aborting the run.
    """
    statics = sp1_sweep(instance)
    selected = non_nested_designs(statics)
    chosen = {s.design for s in selected}

    population = static_points(s for s in statics if s.design not in chosen)
    return _merge_traces(
        instance,
        [s.design for s in selected],
        lambda design, front: (sp2(instance, design), ()),
        "dynamic stage", population,
    )


def flag_notes(instance, design, flags, point=None) -> list:
    """The note of each flag on ``design``, named in catalog order:
    ``design <x> penalty <p>: <flag>`` for the flags of ``point``, its
    penalty written by ``repr``, and ``design <x>: <flag>`` without one."""
    where = "" if point is None else f" penalty {point.penalty!r}"
    return [f"design {instance.to_catalog(design)}{where}: {flag}" for flag in flags]


def _merge_traces(instance, designs, trace, stage, population) -> ParetoFront:
    """Front of ``population`` plus the points each design's trace keeps,
    merged design by design.

    ``trace(design, front)`` gets the front's points so far and returns
    the points it keeps and the flagged points it solved but left out; a
    trace that raises, and each flag of a kept or left-out point, become
    notes instead of failing.  As dominance within ``DOM_TOL`` is not
    transitive, this can differ from one ``non_dom_filter`` of them all.
    """
    notes = []
    front = non_dom_filter(population).points
    for design in designs:
        try:
            kept, dropped = trace(design, front)
        except Exception as exc:  # keep other designs' results
            notes += flag_notes(instance, design, [f"{stage} failed: {exc}"])
            continue
        for p in (*kept, *dropped):
            notes += flag_notes(instance, design, p.flags, p)
        front = non_dom_filter((*front, *kept)).points
    return ParetoFront(points=front, notes=tuple(notes))
