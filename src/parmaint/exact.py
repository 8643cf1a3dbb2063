"""Exact front oracle: every feasible design, exactly solved.

Enumerates the whole knapsack-feasible design space, traces each
design's supported policy trade-off curve with the recursive weighted
scalarization (each point the exact (g_o, g_f) of a certified solve's
policy, or of full repair), and merges everything into one
non-dominated front.  The bi-objective integrated problem
decomposes over fixed designs, so this per-design procedure is an exact
oracle for the heuristic to be judged against — at desk scale only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from parmaint.app import (
    DOM_TOL,
    EXACT,
    ParetoFront,
    SolutionPoint,
    _check_tolerance,
    _coincide,
    _columns,
    _dominates,
    _full_repair_point,
    _gap,
    _merge_traces,
    _solve_point,
)
from parmaint.ctmdp import build_model
from parmaint.dop import DESIGN_CEILING, _feasible_designs

__all__ = [
    "enumerate_feasible_designs",
    "exact_front",
    "ComparisonEntry",
    "ComparisonReport",
    "compare_fronts",
]

DICHOTOMIC_DEPTH = 40
DICHOTOMIC_RTOL = 1e-9  # relative margin a segment's solve must beat its ends by
PENALTY_CLAMP = (1e-9, 1e12)  # bounds on the segment weights solved at


def enumerate_feasible_designs(
    instance, maximal_only: bool = False, ceiling: int = DESIGN_CEILING
):
    """All designs satisfying the knapsack constraints, in lex order.

    With ``maximal_only`` keeps just the designs to which no copy of any
    type can be added — sufficient for front purposes, since a larger
    design can emulate any smaller one.  A space above ``ceiling`` raises
    ``dop.EnumerationError`` before any design is listed.
    """
    designs = _feasible_designs(instance, ceiling)
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


def dichotomic_expand(solve_at, left, right, depth=DICHOTOMIC_DEPTH):
    """Supported points strictly between two front points, recursively.

    ``solve_at(penalty)`` must return an exactly evaluated SolutionPoint.
    The solve is at the segment's slope, the penalty at which both ends
    scalarize (``g_o + penalty * g_f``) to the same value; recursion
    stops when the solve no longer beats that value by
    ``DICHOTOMIC_RTOL`` relative, or ``DICHOTOMIC_DEPTH`` levels down
    (``depth`` counts the levels left).
    """
    if depth <= 0:
        return []
    d_gf = left.g_f - right.g_f
    d_go = right.g_o - left.g_o
    if d_gf <= 0.0 or d_go <= 0.0:
        return []
    penalty = min(max(d_go / d_gf, PENALTY_CLAMP[0]), PENALTY_CLAMP[1])
    mid = solve_at(penalty)
    base = left.g_o + penalty * left.g_f
    value = mid.g_o + penalty * mid.g_f
    if base - value <= DICHOTOMIC_RTOL * max(1.0, abs(base)):
        return []
    for end in (left, right):
        if _coincide(mid.g_o, mid.ln_g_f, end.g_o, end.ln_g_f, DOM_TOL):
            return []
    return (
        dichotomic_expand(solve_at, left, mid, depth - 1)
        + [mid]
        + dichotomic_expand(solve_at, mid, right, depth - 1)
    )


def _trace_design(instance, design):
    """Supported points of one design's policy trade-off curve.

    The trace runs from the cheapest policy (the solve at the smallest
    penalty) to full repair, the limit of the penalty-optimal policies
    as the penalty grows, and fills the segments in between.
    """
    model = build_model(instance, design=design)
    policy = None

    def solve_at(penalty):
        nonlocal policy
        pt = _solve_point(model, design, penalty, policy, EXACT)
        policy = pt.policy
        return pt

    left = solve_at(PENALTY_CLAMP[0])
    right = _full_repair_point(instance, model, design, EXACT)
    if _coincide(left.g_o, left.ln_g_f, right.g_o, right.ln_g_f, DOM_TOL):
        return [left]
    return [left] + dichotomic_expand(solve_at, left, right) + [right]


def exact_front(
    instance,
    tolerance: float = DOM_TOL,
    maximal_only: bool = False,
    ceiling: int = DESIGN_CEILING,
) -> ParetoFront:
    """Non-dominated front over all feasible designs and their policies.

    Designs are traced one after another in lexicographic order and then
    merged.  Solver trouble on one design is reported in the front's
    notes instead of failing the whole oracle.
    """
    _check_tolerance(tolerance)
    designs = enumerate_feasible_designs(
        instance, maximal_only=maximal_only, ceiling=ceiling
    )
    return _merge_traces(
        designs, lambda design: _trace_design(instance, design), "exact trace", [], tolerance
    )


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


def compare_fronts(front, reference, tolerance: float = 1e-6) -> ComparisonReport:
    """Judge each point of ``front`` against a reference front.

    A point is ``dominated`` when some reference point beats it beyond
    the tolerance, ``matched`` when a reference point coincides within
    the tolerance, and ``absent`` otherwise (the reference simply has no
    counterpart — relevant because the weighted recursion only finds
    supported points).
    """
    _check_tolerance(tolerance)
    ref_pts = list(reference)
    g_o, ln_g_f = _columns(ref_pts)
    entries = []
    for p in front:
        beaten = np.flatnonzero(_dominates(g_o, ln_g_f, p.g_o, p.ln_g_f, tolerance))
        dominator = ref_pts[beaten[0]] if beaten.size else None
        gaps = np.maximum(_gap(g_o, p.g_o), _gap(ln_g_f, p.ln_g_f))
        distance = float(gaps.min(initial=np.inf))
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
