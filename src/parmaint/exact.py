"""Exact front oracle: every feasible design, exactly solved.

Enumerates the whole knapsack-feasible design space, traces each
design's supported policy trade-off curve with the dichotomic weighted
scalarization of Aneja and Nair (1979) (each point the exact (g_o, g_f)
of a certified solve's policy, or of full repair), and merges them into
one non-dominated front.  The bi-objective integrated problem
decomposes over fixed designs, so this is an exact oracle for the
heuristic to be judged against, within one policy class: it computes
the non-dominated set of every design's *supported* policies, the
vertices of the lower convex hull of the design's policies in linear
``(g_o, g_f)``.  It is not exact for all deterministic policies, whose
front also holds unsupported points (at least 275 on the base
instance, against its 18), nor for randomized ones, whose mixtures of
two supported policies lie on the chord between them (another design's
chord beats 6 of base's 18 points).
The front found so far bounds the traces to come, as in bi-objective
branch and bound (Ehrgott and Gandibleux, *Computers & Operations
Research* 34, 2007).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
from parmaint.dop import dop_objectives, enumerate_feasible_designs

__all__ = [
    "enumerate_feasible_designs",
    "exact_front",
    "ComparisonEntry",
    "ComparisonReport",
    "compare_fronts",
]

DICHOTOMIC_RTOL = 1e-9  # relative margin a segment's solve must beat its ends by


def _trace_design(instance, design, front=()):
    """Supported points of one design's policy trade-off curve: the
    vertices of the lower convex hull of its policies' ``(g_o, g_f)``,
    from the cheapest to full repair.

    The trace runs from the cheapest policy (the solve at penalty 0) to
    full repair, the limit of the penalty-optimal policies as the
    penalty grows, and fills the segments in between left first, each
    solve warm-started from the last.  A segment is solved at its slope,
    the penalty at which both ends scalarize (``g_o + penalty * g_f``)
    to the same value; the new point splits it unless it coincides with
    an end or fails to beat that value by ``DICHOTOMIC_RTOL`` relative.
    Each split adds a distinct policy, so the trace ends.  A segment's
    points lie in the box ``[left.g_o, right.g_o] x [right.ln_g_f,
    left.ln_g_f]``; one whose corner ``(left.g_o, right.ln_g_f)`` an
    unflagged point of ``front`` dominates is closed unsolved unless an
    end is flagged, as the bound holds only between certified points.
    Returns the kept points by cost and the flagged points left out.
    """
    model = build_model(instance, design=design)
    left = _solve_point(model, design, 0.0, None, EXACT)
    right = _full_repair_point(instance, model, design, EXACT)
    if _coincide(left.g_o, left.ln_g_f, right.g_o, right.ln_g_f, DOM_TOL):
        return [left], [right] if right.flags else []
    # points holds the finished prefix; ends the open right ends, nearest last
    points, ends, dropped, policy = [left], [right], [], left.policy
    g_o, ln_g_f = _columns([p for p in front if not p.flags])
    while ends:
        left, right = points[-1], ends[-1]
        d_gf = left.g_f - right.g_f
        d_go = right.g_o - left.g_o
        covered = _dominates(g_o, ln_g_f, left.g_o, right.ln_g_f, DOM_TOL).any()
        if d_gf > 0.0 and d_go > 0.0 and (left.flags or right.flags or not covered):
            penalty = d_go / d_gf
            mid = _solve_point(model, design, penalty, policy, EXACT)
            policy = mid.policy
            base = left.g_o + penalty * left.g_f
            value = mid.g_o + penalty * mid.g_f
            if base - value > DICHOTOMIC_RTOL * max(1.0, abs(base)) and not any(
                _coincide(mid.g_o, mid.ln_g_f, end.g_o, end.ln_g_f, DOM_TOL)
                for end in (left, right)
            ):
                ends.append(mid)
                continue
            if mid.flags:
                dropped.append(mid)
        points.append(ends.pop())
    return points, dropped


def exact_front(instance) -> ParetoFront:
    """Non-dominated front over all feasible designs and their supported
    policies (see the module docstring for what it leaves out).

    Designs are traced in ascending closed-form full-repair cost rate
    (ties in lexicographic order), each against the front merged so far.
    Solver trouble on one design is reported in the front's notes
    instead of failing the whole oracle, and so is every flagged solve,
    kept or not; a segment closed unsolved makes no note.  Where points
    lie within ``DOM_TOL`` (dominance is not transitive) or solves go
    uncertified (a closed segment shortens the warm-start chain), the
    front and notes can differ from one filter of every whole trace.
    """
    designs = enumerate_feasible_designs(instance)
    designs.sort(key=lambda design: dop_objectives(instance, design)[0])
    return _merge_traces(instance, designs, partial(_trace_design, instance), "exact trace", [])


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


def compare_fronts(front, reference, tolerance: float = DOM_TOL) -> ComparisonReport:
    """Judge each point of ``front`` against a reference front.

    A point is ``dominated`` when some reference point beats it beyond
    the tolerance, ``matched`` when a reference point coincides within
    the tolerance, and ``absent`` otherwise (the reference simply has no
    counterpart — relevant because the weighted recursion only finds
    supported points).  Designs of different lengths raise ``ValueError``.
    """
    _check_tolerance(tolerance)
    front, ref_pts = list(front), list(reference)
    ours, theirs = ({len(p.design) for p in pts} for pts in (front, ref_pts))
    if len(ours | theirs) > 1:
        raise ValueError(
            f"front design lengths {sorted(ours)} differ from reference "
            f"design lengths {sorted(theirs)}"
        )
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
