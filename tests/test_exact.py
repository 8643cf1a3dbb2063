import math

import numpy as np
import pytest

from parmaint.app import EXACT, STATIC_SP1, SolutionPoint, non_dom_filter, run_app, sp2
from parmaint.ctmdp import build_model
from parmaint.dop import EnumerationError, dop_objectives
from parmaint.exact import (
    _trace_design,
    compare_fronts,
    enumerate_feasible_designs,
    exact_front,
)
from parmaint.mdp_solve import MaintenancePolicy, evaluate_policy
from parmaint.model import load_instance

from _oracles import (
    grid_feasible_designs,
    iterate_policies,
    nondominated_values,
    reference_trace_design,
    revalidate_front,
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

    def test_ceiling(self, million_path):
        with pytest.raises(EnumerationError) as err:
            enumerate_feasible_designs(load_instance(million_path))
        assert err.value.count == 1_000_001
        assert err.value.ceiling == 200_000


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
        assert report.entries[1].dominator is reference[0]
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

    def test_bad_tolerance_rejected(self):
        for tolerance in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                compare_fronts([_pt(1.0, -1.0)], [_pt(1.0, -1.0)], tolerance)


@pytest.fixture(scope="module")
def base_front(base_instance):
    return exact_front(base_instance)


class TestExactFront:
    def test_base_front_shape(self, base_instance, base_front):
        assert base_front.complete
        assert len(base_front) == 18
        # the supported point of (2, 2, 0, 0) at penalty 13,150: it beats
        # both neighbours on that design's trace by 2.9e-6 there
        assert any(
            p.design == (2, 2, 0, 0)
            and p.g_o == pytest.approx(3.0374855774, abs=1e-9)
            and p.ln_g_f == pytest.approx(-9.9223049075, abs=1e-9)
            for p in base_front
        )
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


class TestTraceDesign:
    def test_single_copy_extremes_only(self):
        inst = single_type_instance(q=0.01, usage=1.0, repair=100.0, bound=4)
        points, _ = _trace_design(inst, (1,))
        assert len(points) == 2
        assert (points[0].g_o, points[0].ln_g_f) == (0.0, 0.0)
        assert points[1].g_o == pytest.approx(1.99, rel=1e-10)
        assert points[1].penalty is None

    def test_ends_at_full_repair(self, base_instance):
        points, _ = _trace_design(base_instance, (4, 0, 0, 0))
        end = points[-1]
        assert end.penalty is None and end.provenance == EXACT and end.flags == ()
        g_o, ln = dop_objectives(base_instance, (4, 0, 0, 0))
        assert end.g_o == pytest.approx(g_o, rel=1e-12)
        assert end.ln_g_f == pytest.approx(ln, abs=1e-12)
        assert all(p.penalty is not None for p in points[:-1])

    def test_supported_points_revalidate_and_are_nondominated(self, base_instance):
        points, _ = _trace_design(base_instance, (4, 0, 0, 0))
        assert len(points) >= 5
        for p in points:
            gain = evaluate_policy(p.policy.model, p.policy)
            assert gain.g_o == pytest.approx(p.g_o, abs=1e-12)
            assert gain.ln_g_f == pytest.approx(p.ln_g_f, abs=1e-12)
        front = non_dom_filter(points)
        coords = {(round(p.g_o, 8), round(p.ln_g_f, 8)) for p in points}
        assert len(front) == len(coords)

    def test_covers_every_sweep_point(self, base_instance):
        trace, _ = _trace_design(base_instance, (4, 0, 0, 0))
        for s in sp2(base_instance, (4, 0, 0, 0)):
            close = any(
                abs(s.g_o - d.g_o) <= 1e-6 and abs(s.ln_g_f - d.ln_g_f) <= 1e-6
                for d in trace
            )
            assert close, (s.penalty, s.g_o, s.ln_g_f)

    @staticmethod
    def _has_point(points, g_o, ln_g_f):
        return any(
            abs(p.g_o - g_o) <= 1e-7 and abs(p.ln_g_f - ln_g_f) <= 1e-4 for p in points
        )

    def test_keeps_supported_point_of_a_steep_segment(self):
        # the segment from (4.0015, -21.64) to full repair differs in g_f
        # by 4e-10, so its scalarized gaps are tiny unless taken per unit
        # of cost; the solve at its slope finds this point 19% below it
        inst = single_type_instance(q=1e-3, repair=1000.0, bound=5)
        points, _ = _trace_design(inst, (5,))
        assert self._has_point(points, 4.4305795, -23.1773)

    def test_keeps_supported_point_the_sweep_finds(self):
        # sp2 reaches this point at penalty 524,288; the trace must too
        inst = single_type_instance(q=1e-3, repair=100.0, bound=4)
        points, _ = _trace_design(inst, (4,))
        assert self._has_point(points, 1.3000001, -21.0111)
        assert self._has_point(sp2(inst, (4,)), 1.3000001, -21.0111)

    def test_reaches_full_repair_beyond_the_penalty_clamp(self):
        # the solve at the 1e12 clamp returns a policy short of full repair
        # here; the trace must still reach the closed form of (5,)
        inst = single_type_instance(q=1e-3, repair=1000.0, bound=5)
        front = exact_front(inst, maximal_only=True)
        _, ln5 = dop_objectives(inst, (5,))
        assert front.points[-1].ln_g_f == pytest.approx(ln5, abs=1e-9)

    def test_keeps_supported_point_beyond_the_penalty_clamp(self):
        # the segment ending at full repair has slope 2.5e12; a solve
        # clamped to 1e12 returned its left end and lost this point
        inst = single_type_instance(q=1e-3, repair=1000.0, bound=5)
        front = exact_front(inst, maximal_only=True)
        assert front.complete
        assert len(front) == 16
        assert self._has_point(front, 5.44629506, -29.823584)


@pytest.fixture(scope="module")
def single_instance(instances_dir):
    return load_instance(instances_dir.parent / "perfbench" / "data" / "single-1.json")


class TestTraceReference:
    @pytest.mark.parametrize("name", ["base_instance", "single_instance"])
    def test_every_design_matches_the_recursive_trace(self, name, request):
        # no slope on these curves leaves the old clamp, so only the first
        # solve's penalty differs: 0 instead of the clamp's 1e-9
        inst = request.getfixturevalue(name)
        for design in enumerate_feasible_designs(inst):
            got, _ = _trace_design(inst, design)
            want = reference_trace_design(inst, design)
            assert want[0].penalty == 1e-9 and got[0].penalty == 0.0
            assert [
                (p.g_o, p.ln_g_f, p.design, p.penalty, p.flags) for p in got[1:]
            ] == [(p.g_o, p.ln_g_f, p.design, p.penalty, p.flags) for p in want[1:]]
            assert (got[0].g_o, got[0].ln_g_f, got[0].design) == (
                want[0].g_o, want[0].ln_g_f, want[0].design
            )


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


class TestOneEvaluationPerPoint:
    def test_only_full_repair_points_are_re_evaluated(
        self, base_instance, instances_dir, monkeypatch
    ):
        # solved points carry the solve's own pair; evaluate_policy runs
        # once per design, for its full-repair point
        import parmaint.app
        from parmaint.model import load_instance

        calls = []

        def counting(model, policy, initial_state=0):
            calls.append(model.design)
            return evaluate_policy(model, policy, initial_state)

        monkeypatch.setattr(parmaint.app, "evaluate_policy", counting)
        sp2(base_instance, (2, 1, 0, 0))
        assert calls == [(2, 1, 0, 0)]
        calls.clear()
        single = load_instance(instances_dir.parent / "perfbench" / "data" / "single-1.json")
        exact_front(single)
        assert calls == enumerate_feasible_designs(single)


class TestFailureNotes:
    def test_failing_design_becomes_a_note(self, monkeypatch):
        # exact_front looks _trace_design up when it traces, so a stand-in
        # that raises for one design is seen; the others still count
        import parmaint.exact

        inst = single_type_instance(q=0.1, usage=1.0, repair=3.0, bound=2)
        real = parmaint.exact._trace_design

        def failing(instance, design):
            if design == (1,):
                raise RuntimeError("boom")
            return real(instance, design)

        monkeypatch.setattr(parmaint.exact, "_trace_design", failing)
        front = exact_front(inst)
        assert front.notes == ("design (1,): exact trace failed: boom",)
        designs = {p.design for p in front}
        assert (1,) not in designs
        assert (2,) in designs

    def test_every_flagged_solve_becomes_a_note(self, monkeypatch):
        # 6 solves on this curve end unconverged and none splits its
        # segment; each is still a note, and the front does not change
        import parmaint.exact

        inst = single_type_instance(q=1e-3, repair=1000.0, bound=10)
        real = parmaint.exact._solve_point
        flagged = []

        def spy(*args):
            point = real(*args)
            if point.flags:
                flagged.append(point)
            return point

        monkeypatch.setattr(parmaint.exact, "_solve_point", spy)
        front = exact_front(inst)
        assert len(flagged) == 6
        assert sorted(front.notes) == sorted(
            f"design {p.design} penalty {p.penalty}: unconverged" for p in flagged
        )
        assert len(front) == 117

    def test_lost_absorption_mass_is_named(self):
        # rates over sixteen decades: a transient solve of some chain here
        # absorbs no mass at all, which no penalty overflow explains
        front = exact_front(single_type_instance(q=1e-8, repair=1000.0, bound=40))
        failed = [note for note in front.notes if "exact trace failed" in note]
        assert not any("overflows" in note for note in failed)
        assert any("-node chain lost its mass" in note for note in failed)


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
