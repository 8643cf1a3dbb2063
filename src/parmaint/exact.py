"""Exact front oracle: every feasible design, exactly solved.

Enumerates the whole knapsack-feasible design space, traces each
design's supported policy trade-off curve with the recursive weighted
scalarization (every solve exactly re-evaluated), and merges everything
into one non-dominated front.  The bi-objective integrated problem
decomposes over fixed designs, so this per-design procedure is an exact
oracle for the heuristic to be judged against — at desk scale only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from parmaint.app import (
    DOM_TOL,
    EXACT,
    PENALTY_CLAMP,
    ParetoFront,
    SolutionPoint,
    _close,
    _dominates,
    dichotomic_expand,
    non_dom_filter,
)
from parmaint.ctmdp import build_model
from parmaint.dop import _feasible_designs, dop_objectives
from parmaint.mdp_solve import evaluate_policy, fully_active_policy, solve_average_cost

__all__ = [
    "EnumerationError",
    "enumerate_feasible_designs",
    "exact_front",
    "revalidate_front",
    "ComparisonEntry",
    "ComparisonReport",
    "compare_fronts",
]

DESIGN_CEILING = 200_000


class EnumerationError(RuntimeError):
    """Design space too large to enumerate; carries the offending count."""

    def __init__(self, count, ceiling):
        super().__init__(
            f"design space has {count} members, above the ceiling of {ceiling}"
        )
        self.count = count
        self.ceiling = ceiling


def enumerate_feasible_designs(
    instance, maximal_only: bool = False, ceiling: int = DESIGN_CEILING
):
    """All designs satisfying the knapsack constraints, in lex order.

    With ``maximal_only`` keeps just the designs to which no copy of any
    type can be added — sufficient for front purposes, since a larger
    design can emulate any smaller one.
    """
    designs = _feasible_designs(
        instance.constraints, instance.constraint_bounds, instance.copy_bounds
    )
    if len(designs) > ceiling:
        raise EnumerationError(len(designs), ceiling)
    if not maximal_only:
        return designs
    members = set(designs)
    caps = instance.copy_bounds
    out = []
    for x in designs:
        grown = (
            x[:i] + (x[i] + 1,) + x[i + 1 :]
            for i in range(len(x))
            if x[i] + 1 <= caps[i]
        )
        if not any(g in members for g in grown):
            out.append(x)
    return out


def _trace_design(instance, design, mode, solver_tolerance):
    """Supported points of one design's policy trade-off curve."""
    model = build_model(instance, design=design)
    store = {"v": None}

    def solve_at(penalty):
        res = solve_average_cost(
            model, penalty, tolerance=solver_tolerance, v_init=store["v"]
        )
        store["v"] = res.values
        gain = evaluate_policy(model, res.policy)
        return SolutionPoint(
            g_o=gain.g_o,
            ln_g_f=gain.ln_g_f,
            design=design,
            provenance=EXACT,
            penalty=penalty,
            policy=res.policy,
            flags=() if res.converged else ("unconverged",),
        )

    if mode == "sweep":
        _, ln_static = dop_objectives(instance, design)
        points = []
        penalty = 1.0
        for _ in range(200):
            pt = solve_at(penalty)
            points.append(pt)
            if pt.ln_g_f <= ln_static + 1e-9:
                return points
            penalty *= 2.0
        points[-1] = replace(points[-1], flags=points[-1].flags + ("cap-reached",))
        return points

    left = solve_at(PENALTY_CLAMP[0])
    right = solve_at(PENALTY_CLAMP[1])
    if _close(left.g_o, right.g_o, DOM_TOL) and _close(
        left.ln_g_f, right.ln_g_f, DOM_TOL
    ):
        return [left]
    return [left] + dichotomic_expand(solve_at, left, right) + [right]


def exact_front(
    instance,
    mode: str = "dichotomic",
    tolerance: float = DOM_TOL,
    solver_tolerance: float = 1e-10,
    maximal_only: bool = False,
    ceiling: int = DESIGN_CEILING,
) -> ParetoFront:
    """Non-dominated front over all feasible designs and their policies.

    Designs are traced one after another in lexicographic order and then
    merged.  Solver trouble on one design is reported in the front's
    notes instead of failing the whole oracle.
    """
    if mode not in ("dichotomic", "sweep"):
        raise ValueError(f"unknown mode {mode!r}")
    designs = enumerate_feasible_designs(
        instance, maximal_only=maximal_only, ceiling=ceiling
    )
    population = []
    notes = []
    for design in designs:
        try:
            pts = _trace_design(instance, design, mode, solver_tolerance)
        except Exception as exc:
            notes.append(f"design {design}: exact trace failed: {exc}")
            continue
        for p in pts:
            for flag in p.flags:
                notes.append(f"design {design} penalty {p.penalty}: {flag}")
        population.extend(pts)

    front = non_dom_filter(population, tolerance)
    return replace(front, notes=tuple(notes))


def revalidate_front(instance, front, solver_tolerance: float = 1e-10) -> float:
    """Recompute every front point from scratch and return the worst drift.

    Points without a penalty (static provenance) are re-evaluated under
    the always-repair policy; points with one re-solve the repair problem
    at that penalty.  The return value is the largest coordinate-wise
    difference between stored and recomputed values, so a round-tripped
    front file can be checked against the solver in one call.
    """
    drift = 0.0
    models: dict = {}
    for p in front:
        model = models.get(p.design)
        if model is None:
            model = build_model(instance, design=p.design)
            models[p.design] = model
        if p.penalty is None:
            policy = fully_active_policy(model)
        else:
            policy = solve_average_cost(model, p.penalty, tolerance=solver_tolerance).policy
        gain = evaluate_policy(model, policy)
        drift = max(
            drift,
            _coord_dist(gain.g_o, p.g_o),
            _coord_dist(gain.ln_g_f, p.ln_g_f),
        )
    return drift


def _coord_dist(x: float, y: float) -> float:
    if x == y:  # covers matching infinities
        return 0.0
    return abs(x - y)


@dataclass(frozen=True)
class ComparisonEntry:
    point: SolutionPoint
    status: str  # "matched" | "dominated" | "absent"
    distance: float  # Chebyshev distance to the nearest reference point
    dominator: SolutionPoint | None = None


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple
    tolerance: float

    def count(self, status: str) -> int:
        return sum(1 for e in self.entries if e.status == status)

    @property
    def dominated(self):
        return tuple(e for e in self.entries if e.status == "dominated")


def compare_fronts(front, reference, tolerance: float = 1e-6) -> ComparisonReport:
    """Judge each point of ``front`` against a reference front.

    A point is ``dominated`` when some reference point beats it beyond
    the tolerance, ``matched`` when a reference point coincides within
    the tolerance, and ``absent`` otherwise (the reference simply has no
    counterpart — relevant because the weighted recursion only finds
    supported points).
    """
    ref_pts = list(reference)
    entries = []
    for p in front:
        dominator = None
        for q in ref_pts:
            if _dominates(q, p, tolerance):
                dominator = q
                break
        if ref_pts:
            distance = min(
                max(_coord_dist(p.g_o, q.g_o), _coord_dist(p.ln_g_f, q.ln_g_f))
                for q in ref_pts
            )
        else:
            distance = float("inf")
        if dominator is not None:
            status = "dominated"
        elif distance <= tolerance:
            status = "matched"
        else:
            status = "absent"
        entries.append(
            ComparisonEntry(point=p, status=status, distance=distance, dominator=dominator)
        )
    return ComparisonReport(entries=tuple(entries), tolerance=tolerance)
