import math

import numpy as np
import pytest

from parmaint import app
from parmaint.app import (
    DYNAMIC_SP2,
    STATIC_SP1,
    ParetoFront,
    SolutionPoint,
    emulating_policy,
    non_dom_filter,
    non_nested_designs,
    run_app,
    sp2,
)
from parmaint.ctmdp import build_model
from parmaint.dop import StaticSolution, dop_objectives
from parmaint.mdp_solve import evaluate_policy, fully_active_policy

from _oracles import nondominated_values, single_type_instance


def _static(design):
    g_o, ln = design_free_values(design)
    return StaticSolution(design=design, g_o=g_o, ln_g_f=ln)


def design_free_values(design):
    # placeholder objective values; containment filtering ignores them
    return float(sum(design)), -float(sum(design))


def _point(g_o, ln, design=(0,), provenance=STATIC_SP1, penalty=None):
    return SolutionPoint(
        g_o=g_o, ln_g_f=ln, design=design, provenance=provenance, penalty=penalty
    )


class TestNonNested:
    def test_chain_collapses_to_largest(self):
        keep = non_nested_designs([_static((1, 0)), _static((2, 0))])
        assert [s.design for s in keep] == [(2, 0)]

    def test_incomparable_designs_both_stay(self):
        keep = non_nested_designs([_static((2, 0)), _static((0, 2))])
        assert [s.design for s in keep] == [(2, 0), (0, 2)]

    def test_mixed(self):
        keep = non_nested_designs(
            [_static((1, 1)), _static((2, 0)), _static((1, 2))]
        )
        assert [s.design for s in keep] == [(2, 0), (1, 2)]

    def test_duplicate_designs_survive(self):
        # equal designs do not count as nested in each other
        keep = non_nested_designs([_static((1, 1)), _static((1, 1))])
        assert len(keep) == 2

    def test_empty_input(self):
        assert non_nested_designs([]) == []


class TestNonDomFilter:
    def test_three_point_example(self):
        pts = [
            _point(1.0, -1.0, penalty=1.0, provenance=DYNAMIC_SP2),
            _point(2.0, -2.0, penalty=2.0, provenance=DYNAMIC_SP2),
            _point(1.5, -0.5, penalty=3.0, provenance=DYNAMIC_SP2),
        ]
        front = non_dom_filter(pts)
        assert [(p.g_o, p.ln_g_f) for p in front] == [(1.0, -1.0), (2.0, -2.0)]

    def test_identical_points_keep_one(self):
        pts = [
            _point(1.0, -1.0, design=(1,), provenance=STATIC_SP1),
            _point(1.0, -1.0, design=(1,), provenance=DYNAMIC_SP2, penalty=4.0),
        ]
        front = non_dom_filter(pts)
        assert len(front) == 1
        # identity order: "dynamic-SP2" sorts before "static-SP1"
        assert front.points[0].provenance == DYNAMIC_SP2

    def test_sorted_by_cost_then_reliability(self):
        pts = [
            _point(2.0, -5.0),
            _point(1.0, -1.0),
            _point(2.0, -4.0),
        ]
        # (2, -4) is dominated by (2, -5) even at equal cost: strictly
        # better reliability
        front = non_dom_filter(pts)
        assert [(p.g_o, p.ln_g_f) for p in front] == [(1.0, -1.0), (2.0, -5.0)]

    def test_minus_infinity_handled(self):
        pts = [_point(1.0, -math.inf), _point(0.5, -1.0), _point(2.0, -math.inf)]
        front = non_dom_filter(pts)
        assert [(p.g_o, p.ln_g_f) for p in front] == [
            (0.5, -1.0),
            (1.0, -math.inf),
        ]

    def test_empty_and_singleton(self):
        assert len(non_dom_filter([])) == 0
        assert len(non_dom_filter([_point(1.0, -1.0)])) == 1

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            k = int(rng.integers(2, 40))
            values = [
                (float(rng.integers(0, 15)) / 2.0, -float(rng.integers(0, 15)) / 2.0)
                for _ in range(k)
            ]
            pts = [
                _point(go, ln, design=(i,), penalty=float(i),
                       provenance=DYNAMIC_SP2)
                for i, (go, ln) in enumerate(values)
            ]
            front = non_dom_filter(pts)
            got = {(p.g_o, p.ln_g_f) for p in front}
            want = set(nondominated_values(values, 1e-9))
            assert got == want


class TestFrontContainer:
    def test_iteration_and_designs(self):
        front = ParetoFront(
            points=(
                _point(1.0, -1.0, design=(1, 0)),
                _point(2.0, -2.0, design=(0, 2)),
            )
        )
        assert len(front) == 2
        assert [p.g_o for p in front] == [1.0, 2.0]
        assert sorted({p.design for p in front}) == [(0, 2), (1, 0)]
        assert not front.notes


class TestEmulation:
    def test_reproduces_small_design(self, base_instance):
        model = build_model(base_instance, design=(3, 1, 0, 0))
        policy = emulating_policy(model, (1, 0, 0, 0))
        gain = evaluate_policy(model, policy)
        small = build_model(base_instance, design=(1, 0, 0, 0))
        want = evaluate_policy(small, fully_active_policy(small))
        assert gain.g_o == pytest.approx(want.g_o, abs=1e-10)
        assert gain.g_f == pytest.approx(want.g_f, abs=1e-12)

    def test_cross_type_sub_design(self, base_instance):
        model = build_model(base_instance, design=(2, 2, 0, 0))
        policy = emulating_policy(model, (1, 2, 0, 0))
        gain = evaluate_policy(model, policy)
        g_o, ln = dop_objectives(base_instance, (1, 2, 0, 0))
        assert gain.g_o == pytest.approx(g_o, rel=1e-10)
        assert gain.ln_g_f == pytest.approx(ln, rel=1e-10)

    def test_full_sub_design_is_fully_active(self, base_instance):
        model = build_model(base_instance, design=(2, 1, 0, 0))
        assert emulating_policy(model, (2, 1, 0, 0)) == fully_active_policy(model)

    def test_oversized_sub_design_rejected(self, base_instance):
        model = build_model(base_instance, design=(2, 0, 0, 0))
        with pytest.raises(ValueError):
            emulating_policy(model, (3, 0, 0, 0))


class TestPenaltySweep:
    def test_single_copy_two_regimes(self):
        inst = single_type_instance(q=0.01, usage=1.0, repair=100.0, bound=4)
        points = sp2(inst, (1,))
        assert points[-1].provenance == STATIC_SP1
        assert points[-1].penalty is None
        assert all(p.provenance == DYNAMIC_SP2 for p in points[:-1])
        distinct = {(round(p.g_o, 9), round(p.ln_g_f, 9)) for p in points}
        assert distinct == {
            (0.0, 0.0),
            (1.99, round(math.log(0.01), 9)),
        }
        assert points[-1].flags == ()

    def test_empty_design_single_point(self, base_instance):
        points = sp2(base_instance, (0, 0, 0, 0))
        values = {(p.g_o, p.ln_g_f) for p in points}
        assert values == {(0.0, 0.0)}

    def test_reaches_static_level(self, base_instance):
        points = sp2(base_instance, (0, 5, 0, 0))
        _, ln_static = dop_objectives(base_instance, (0, 5, 0, 0))
        assert abs(points[-1].ln_g_f - ln_static) <= 1e-6
        dyn = points[:-1]
        assert dyn[-1].ln_g_f <= ln_static + 1e-9
        assert dyn[-1].penalty == 2.0**26

    def test_penalties_grow_geometrically(self, base_instance, monkeypatch):
        monkeypatch.setattr(app, "DELTA_P", 4.0)
        points = sp2(base_instance, (2, 0, 0, 0))
        dyn = [p for p in points if p.penalty is not None]
        for a, b in zip(dyn, dyn[1:]):
            assert b.penalty == pytest.approx(4.0 * a.penalty)

    def test_points_carry_policies_that_revalidate(self, base_instance):
        points = sp2(base_instance, (2, 0, 0, 0))
        for p in points:
            gain = evaluate_policy(p.policy.model, p.policy)
            assert gain.g_o == pytest.approx(p.g_o, abs=1e-12)
            assert gain.ln_g_f == pytest.approx(p.ln_g_f, abs=1e-12)

    def test_cap_reached_flag(self, monkeypatch):
        # enormous repair cost keeps full repair unattractive within the
        # level budget of a slow-growing sweep
        inst = single_type_instance(q=0.01, usage=1.0, repair=10000.0, bound=1)
        monkeypatch.setattr(app, "DELTA_P", 1.01)
        points = sp2(inst, (1,))
        dyn = [p for p in points if p.penalty is not None]
        assert len(dyn) == 200
        assert "cap-reached" in dyn[-1].flags


BASE_FRONT = [
    # (g_o, ln_g_f, design, penalty)
    (0.0, 0.0, (0, 5, 0, 0), 1.0),
    (1.99, -4.60517018599, (4, 0, 0, 0), 4.0),
    (2.33665533147, -5.69376580827, (4, 0, 0, 0), 64.0),
    (2.9999, -9.21034037198, (2, 0, 0, 0), None),
    (3.00665594732, -9.6270703823, (4, 0, 0, 0), 256.0),
    (3.01652633796, -9.92140733948, (4, 0, 0, 0), 1024.0),
    (3.41321762297, -11.0887066561, (4, 0, 0, 0), 16384.0),
    (3.999999, -13.815510558, (3, 0, 0, 0), None),
    (4.01483712257, -14.5321104627, (4, 0, 0, 0), 65536.0),
    (4.44321289112, -15.7273735362, (4, 0, 0, 0), 2097152.0),
    (4.99999999, -18.420680744, (4, 0, 0, 0), 4194304.0),
    (10.9999999968, -19.5601150266, (0, 5, 0, 0), 67108864.0),
]


class TestRunApp:
    def test_base_instance_regression(self, base_instance):
        front = run_app(base_instance)
        assert not front.notes
        assert len(front) == len(BASE_FRONT)
        for point, (g_o, ln, design, penalty) in zip(front, BASE_FRONT):
            assert point.g_o == pytest.approx(g_o, abs=1e-6)
            assert point.ln_g_f == pytest.approx(ln, abs=1e-6)
            assert point.design == design
            if penalty is None:
                assert point.penalty is None
                assert point.provenance == STATIC_SP1
            else:
                assert point.penalty == penalty
                assert point.provenance == DYNAMIC_SP2

    def test_single_type_population(self):
        inst = single_type_instance(q=0.1, usage=1.0, repair=3.0, bound=2)
        front = run_app(inst)
        designs = {p.design for p in front}
        # only the largest design gets a dynamic stage; smaller statics
        # are dominated by its cheaper policies, except the trivial one
        assert designs <= {(0,), (2,)}
        assert (0.0, 0.0) in {(p.g_o, p.ln_g_f) for p in front}
        assert any(p.provenance == DYNAMIC_SP2 for p in front)
        _, ln2 = dop_objectives(inst, (2,))
        assert min(p.ln_g_f for p in front) == pytest.approx(ln2, abs=1e-8)

    def test_sweep_cap_surfaces_in_notes(self, monkeypatch):
        inst = single_type_instance(q=0.01, usage=1.0, repair=10000.0, bound=1)
        monkeypatch.setattr(app, "DELTA_P", 1.01)
        front = run_app(inst)
        assert front.notes
        assert any("cap-reached" in note for note in front.notes)

    def test_failing_design_becomes_a_note(self, monkeypatch):
        # run_app looks sp2 up when it traces, so a stand-in that raises
        # for one design is seen; the other designs still make the front
        inst = single_type_instance(q=0.1, usage=1.0, repair=3.0, bound=2)
        whole = run_app(inst)

        def failing(instance, design):
            raise RuntimeError("boom")

        monkeypatch.setattr(app, "sp2", failing)
        front = run_app(inst)
        assert front.notes == ("design (2,): dynamic stage failed: boom",)
        # only the statics of the nested designs are left
        assert {p.provenance for p in front} == {STATIC_SP1}
        assert len(front) < len(whole)
