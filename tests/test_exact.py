import math

import numpy as np
import pytest

from parmaint.app import DYNAMIC_SP2, EXACT, STATIC_SP1, SolutionPoint, run_app
from parmaint.ctmdp import build_model
from parmaint.exact import (
    EnumerationError,
    compare_fronts,
    enumerate_feasible_designs,
    exact_front,
    revalidate_front,
)
from parmaint.mdp_solve import MaintenancePolicy, evaluate_policy

from _oracles import (
    grid_feasible_designs,
    iterate_policies,
    nondominated_values,
    single_type_instance,
)


def _pt(g_o, ln, design=(1,), provenance=EXACT, penalty=1.0):
    return SolutionPoint(
        g_o=g_o, ln_g_f=ln, design=design, provenance=provenance, penalty=penalty
    )


class TestEnumeration:
    def test_base_counts(self, base_instance):
        full = enumerate_feasible_designs(base_instance)
        maximal = enumerate_feasible_designs(base_instance, maximal_only=True)
        assert len(full) == 76
        assert len(maximal) == 36
        assert set(maximal) <= set(full)

    def test_matches_grid_filter(self, base_instance):
        assert set(enumerate_feasible_designs(base_instance)) == set(
            grid_feasible_designs(base_instance)
        )

    def test_lexicographic_order(self, base_instance):
        full = enumerate_feasible_designs(base_instance)
        assert full == sorted(full)
        assert full[0] == (0, 0, 0, 0)

    def test_every_design_fits_in_a_maximal_one(self, base_instance):
        full = enumerate_feasible_designs(base_instance)
        maximal = enumerate_feasible_designs(base_instance, maximal_only=True)
        for x in full:
            assert any(
                all(a <= b for a, b in zip(x, y)) for y in maximal
            ), x

    def test_single_type(self):
        inst = single_type_instance(q=0.1, repair=3.0, bound=3)
        assert enumerate_feasible_designs(inst) == [(0,), (1,), (2,), (3,)]
        assert enumerate_feasible_designs(inst, maximal_only=True) == [(3,)]

    def test_ceiling(self, base_instance):
        with pytest.raises(EnumerationError) as err:
            enumerate_feasible_designs(base_instance, ceiling=10)
        assert err.value.count == 76
        assert err.value.ceiling == 10


class TestCompareFronts:
    def test_statuses(self):
        reference = [_pt(1.0, -2.0), _pt(3.0, -5.0)]
        front = [
            _pt(1.0, -2.0),  # exact match
            _pt(2.0, -1.0),  # beaten by (1, -2) in both coordinates
            _pt(0.5, -0.5),  # better cost than anything in the reference
        ]
        report = compare_fronts(front, reference, tolerance=1e-6)
        assert [e.status for e in report.entries] == [
            "matched",
            "dominated",
            "absent",
        ]
        assert report.count("matched") == 1
        assert report.count("dominated") == 1
        assert report.count("absent") == 1
        assert report.dominated[0].dominator is reference[0]
        assert report.entries[0].distance == 0.0

    def test_matching_infinities_have_zero_distance(self):
        report = compare_fronts(
            [_pt(1.0, -math.inf)], [_pt(1.0, -math.inf)], tolerance=1e-6
        )
        assert report.entries[0].status == "matched"
        assert report.entries[0].distance == 0.0

    def test_empty_reference(self):
        report = compare_fronts([_pt(1.0, -1.0)], [])
        assert report.entries[0].status == "absent"
        assert math.isinf(report.entries[0].distance)

    def test_tolerance_boundary(self):
        reference = [_pt(1.0 + 5e-7, -1.0 - 5e-7)]
        front = [_pt(1.0, -1.0)]
        loose = compare_fronts(front, reference, tolerance=1e-6)
        tight = compare_fronts(front, reference, tolerance=1e-9)
        assert loose.entries[0].status == "matched"
        assert tight.entries[0].status == "absent"


@pytest.fixture(scope="module")
def base_front(base_instance):
    return exact_front(base_instance)


class TestExactFront:
    def test_base_front_shape(self, base_instance, base_front):
        assert base_front.complete
        assert len(base_front) == 17
        gos = [p.g_o for p in base_front]
        lns = [p.ln_g_f for p in base_front]
        assert gos == sorted(gos)
        assert lns == sorted(lns, reverse=True)
        assert all(p.provenance == EXACT for p in base_front)

    def test_heuristic_front_is_never_beaten(self, base_instance, base_front):
        app = run_app(base_instance)
        report = compare_fronts(app, base_front, tolerance=1e-6)
        assert report.count("dominated") == 0
        assert report.count("matched") == len(app)

    def test_maximal_only_agrees_in_the_dominance_sense(
        self, base_instance, base_front
    ):
        # the reduction drops nested designs, whose own curve vertices are
        # attainable by a larger design (emulation) but not vertices of its
        # envelope; such points may go missing yet can never be contradicted
        reduced = exact_front(base_instance, maximal_only=True)
        fwd = compare_fronts(reduced, base_front, tolerance=1e-8)
        assert fwd.count("matched") == len(reduced)
        back = compare_fronts(base_front, reduced, tolerance=1e-8)
        assert back.count("dominated") == 0
        maximal = set(
            enumerate_feasible_designs(base_instance, maximal_only=True)
        )
        for entry in back.entries:
            if entry.status == "absent":
                assert entry.point.design not in maximal

    def test_sweep_mode_approximates_the_dichotomic_front(
        self, base_instance, base_front
    ):
        # the geometric penalty grid can skip a supporting weight, so the
        # swept front may be slightly beaten, but never the other way round
        swept = exact_front(base_instance, mode="sweep")
        refined = compare_fronts(base_front, swept, tolerance=1e-6)
        assert refined.count("dominated") == 0
        coarse = compare_fronts(swept, base_front, tolerance=1e-6)
        assert all(e.distance <= 1e-2 for e in coarse.entries)
        assert swept.points[0].g_o == pytest.approx(
            base_front.points[0].g_o, abs=1e-8
        )
        assert swept.points[-1].ln_g_f == pytest.approx(
            base_front.points[-1].ln_g_f, abs=1e-6
        )

    def test_mode_validation(self, base_instance):
        with pytest.raises(ValueError):
            exact_front(base_instance, mode="grid")


class TestDecompositionSoundness:
    def test_front_touches_the_all_policy_cloud(self):
        # every (design, policy) pair evaluated by exact balance equations
        inst = single_type_instance(q=0.1, usage=1.0, repair=3.0, bound=2)
        cloud = []
        for design in enumerate_feasible_designs(inst):
            model = build_model(inst, design=design)
            for choice in iterate_policies(model, limit=10_000):
                gain = evaluate_policy(model, MaintenancePolicy(model, choice))
                cloud.append((gain.g_o, gain.ln_g_f))
        front = exact_front(inst)
        assert front.complete
        for p in front:
            # attainable: some policy realizes the point
            assert any(
                abs(p.g_o - go) <= 1e-8
                and (p.ln_g_f == ln or abs(p.ln_g_f - ln) <= 1e-8)
                for go, ln in cloud
            )
            # on the frontier: no policy anywhere beats it in both
            for go, ln in cloud:
                beats = (
                    go < p.g_o - 1e-8
                    and ln < p.ln_g_f + 1e-8
                    or go < p.g_o + 1e-8
                    and ln < p.ln_g_f - 1e-8
                )
                assert not (
                    go <= p.g_o + 1e-8 and ln <= p.ln_g_f + 1e-8 and beats
                )
        # the extreme points are present
        lo = min(cloud)
        assert front.points[0].g_o == pytest.approx(lo[0], abs=1e-8)
        best_ln = min(ln for _, ln in cloud)
        assert front.points[-1].ln_g_f == pytest.approx(best_ln, abs=1e-8)


class TestRevalidate:
    def test_app_front_round_trip(self, base_instance):
        front = run_app(base_instance)
        drift = revalidate_front(base_instance, front)
        assert drift <= 1e-8

    def test_detects_corruption(self, base_instance):
        inst = single_type_instance(q=0.01, usage=1.0, repair=100.0, bound=2)
        front = run_app(inst)
        from dataclasses import replace

        broken = [replace(front.points[0], g_o=front.points[0].g_o + 0.5)] + list(
            front.points[1:]
        )
        drift = revalidate_front(inst, broken)
        assert drift >= 0.5 - 1e-9

    def test_handles_static_points(self, base_instance):
        pts = [
            SolutionPoint(
                g_o=2.9999,
                ln_g_f=-9.21034037198,
                design=(2, 0, 0, 0),
                provenance=STATIC_SP1,
                penalty=None,
            )
        ]
        assert revalidate_front(base_instance, pts) <= 1e-8
