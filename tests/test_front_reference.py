"""The front layer against its pairwise-scan references.

``non_dom_filter``, ``compare_fronts`` and ``non_nested_designs`` apply
one elementwise dominance predicate to whole columns of points; the
references in ``_oracles`` compare every pair of points one at a time.
Results must agree in full: point order and identity, the dedupe's
choice among coinciding points, and each comparison entry's status,
distance and dominator.  The merge is checked at ``DOM_TOL``, its one
tolerance, on points spaced by each of ``TOLERANCES``; the comparison
at each of them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from parmaint.app import (
    DYNAMIC_SP2,
    EXACT,
    STATIC_SP1,
    SolutionPoint,
    non_dom_filter,
    non_nested_designs,
)
from parmaint.dop import StaticSolution, sp1_sweep
from parmaint.exact import _trace_design, compare_fronts, enumerate_feasible_designs

from _oracles import (
    reference_compare_fronts,
    reference_non_dom_filter,
    reference_non_nested_designs,
)

TOLERANCES = (0.0, 1e-9, 1e-6, 1e-3, 0.1)


@pytest.fixture(scope="module")
def base_population(base_instance):
    """Every traced point of the exact front on base, before the merge."""
    return [
        pt
        for design in enumerate_feasible_designs(base_instance)
        for pt in _trace_design(base_instance, design)[0]
    ]


def _random_population(rng, tol, n):
    """Points on a grid of step ``tol`` (so many pairs differ by exactly
    the tolerance, give or take rounding), some nudged by one ulp, some
    at ln_g_f = +-inf, with few distinct identity keys."""
    unit = tol if tol > 0 else 0.5
    g_o = 1.0 + unit * rng.integers(0, 8, n)
    ln_g_f = -unit * rng.integers(0, 8, n)
    for col in (g_o, ln_g_f):
        nudge = rng.random(n) < 0.2
        col[nudge] = np.nextafter(col[nudge], rng.choice([-np.inf, np.inf], nudge.sum()))
    ln_g_f[rng.random(n) < 0.1] = -np.inf
    ln_g_f[rng.random(n) < 0.03] = np.inf
    return [
        SolutionPoint(
            g_o=float(g_o[i]),
            ln_g_f=float(ln_g_f[i]),
            design=(int(rng.integers(0, 3)),),
            provenance=(STATIC_SP1, DYNAMIC_SP2, EXACT)[rng.integers(0, 3)],
            penalty=(None, 1.0, 2.0)[rng.integers(0, 3)],
        )
        for i in range(n)
    ]


def _static(design):
    return StaticSolution(design=design, g_o=0.0, ln_g_f=0.0)  # values unused


def _assert_same_front(points):
    got = non_dom_filter(points)
    want = reference_non_dom_filter(points)
    assert [id(p) for p in got] == [id(p) for p in want]
    assert got == want


def _assert_same_report(front, reference, tol):
    got = compare_fronts(front, reference, tol)
    want = reference_compare_fronts(front, reference, tol)
    assert got.tolerance == want.tolerance
    assert len(got.entries) == len(want.entries)
    for g, w in zip(got.entries, want.entries):
        assert g.point is w.point
        assert (g.status, g.distance) == (w.status, w.distance)
        assert g.dominator is w.dominator


def test_base_population_size(base_population):
    assert len(base_population) == 1278


@pytest.mark.parametrize("tol", TOLERANCES)
def test_merge_of_base_population(base_population, tol):
    # with a copy moved by tol in both objectives, which at and near
    # DOM_TOL sits on the merge's dominance and coincidence boundaries
    moved = [replace(p, g_o=p.g_o + tol, ln_g_f=p.ln_g_f + tol) for p in base_population]
    _assert_same_front(base_population + moved)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_compare_base_population_with_itself(base_population, tol):
    _assert_same_report(base_population, base_population, tol)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_random_populations(tol):
    rng = np.random.default_rng(int(tol * 1e9) + 19)
    for _ in range(40):
        points = _random_population(rng, tol, int(rng.integers(0, 60)))
        _assert_same_front(points)
        reference = _random_population(rng, tol, int(rng.integers(0, 30)))
        _assert_same_report(points, reference, tol)
        _assert_same_report(points, points, tol)


def test_random_populations_hit_the_hard_cases():
    rng = np.random.default_rng(19)
    points = _random_population(rng, 1e-6, 400)
    keys = [p.identity_key() for p in points]
    assert len(set(keys)) < len(keys)
    assert {-math.inf, math.inf} <= {p.ln_g_f for p in points}
    pairs = {(p.g_o, q.g_o) for p in points for q in points}
    assert any(math.isclose(abs(a - b), 1e-6, rel_tol=1e-6) for a, b in pairs)


def test_compare_against_empty_reference():
    rng = np.random.default_rng(5)
    _assert_same_report(_random_population(rng, 1e-6, 10), [], 1e-6)


def test_non_nested_on_base(base_instance):
    statics = sp1_sweep(base_instance, record_ties=True)
    assert non_nested_designs(statics) == reference_non_nested_designs(statics)
    every = [_static(d) for d in enumerate_feasible_designs(base_instance)]
    got = non_nested_designs(every)
    assert [id(s) for s in got] == [id(s) for s in reference_non_nested_designs(every)]


def test_non_nested_on_random_designs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n, k = int(rng.integers(1, 4)), int(rng.integers(0, 12))
        solutions = [
            _static(tuple(int(v) for v in rng.integers(0, 3, n)))
            for _ in range(k)
        ]
        got = non_nested_designs(solutions)
        assert [id(s) for s in got] == [id(s) for s in reference_non_nested_designs(solutions)]
