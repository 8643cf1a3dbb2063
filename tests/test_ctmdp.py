import dataclasses
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from parmaint import ctmdp
from parmaint.ctmdp import (
    CtmdpModel,
    StateSpaceError,
    build_model,
    check_weakly_communicating,
)
from parmaint.exact import enumerate_feasible_designs
from parmaint.model import ComponentType, load_instance, make_instance

from _oracles import (
    apply_action,
    cost_rates,
    enumerate_states,
    feasible_actions,
    random_instance,
    single_type_instance,
    transition_rates,
    weak_communication_reference,
)

LARGE_DESIGNS = [(3, 4, 4), (5, 5, 5), (7, 7, 7)]


class TestEnumerateStates:
    def test_single_copy(self):
        states = enumerate_states([1])
        assert states == [((0, 0),), ((0, 1),), ((1, 0),)]

    def test_counts_match_triangular_formula(self):
        for bounds in ([2], [4, 5], [1, 2, 3], [0, 3]):
            states = enumerate_states(bounds)
            expected = 1
            for m in bounds:
                expected *= (m + 1) * (m + 2) // 2
            assert len(states) == expected
            assert len(set(states)) == expected

    def test_two_type_count(self):
        assert len(enumerate_states([4, 5])) == 315

    def test_zero_bound(self):
        assert enumerate_states([0]) == [((0, 0),)]

    def test_lexicographic_order_type0_most_significant(self):
        states = enumerate_states([1, 1])
        assert states[0] == ((0, 0), (0, 0))
        assert states[1] == ((0, 0), (0, 1))
        assert states[3] == ((0, 1), (0, 0))
        assert states[-1] == ((1, 0), (1, 0))

    def test_ceiling_raises_with_report(self):
        with pytest.raises(StateSpaceError) as err:
            enumerate_states([4, 5], ceiling=100)
        assert err.value.report["total"] == 315
        assert err.value.report["ceiling"] == 100


class TestActions:
    def test_counts(self):
        assert len(feasible_actions(((0, 2),))) == 3
        assert len(feasible_actions(((0, 1), (0, 1)))) == 4
        assert len(feasible_actions(((2, 0),))) == 1
        assert len(feasible_actions(((1, 1), (0, 3)))) == 8

    def test_lexicographic(self):
        acts = feasible_actions(((0, 1), (0, 2)))
        assert acts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_apply_full_repair(self):
        assert apply_action(((0, 2),), (2,)) == ((2, 0),)

    def test_apply_zero_is_identity(self):
        state = ((1, 1), (0, 2), (3, 0))
        assert apply_action(state, (0, 0, 0)) == state

    def test_apply_partial(self):
        assert apply_action(((0, 1), (2, 1)), (1, 0)) == ((1, 0), (2, 1))

    def test_apply_rejects_overshoot(self):
        with pytest.raises(ValueError):
            apply_action(((0, 1),), (2,))
        with pytest.raises(ValueError):
            apply_action(((0, 1),), (-1,))
        with pytest.raises(ValueError):
            apply_action(((0, 1),), (1, 0))


class TestRatesAndCosts:
    def test_single_type_transitions(self):
        inst = single_type_instance(q=0.2, tau=2.0, bound=1)
        alpha = inst.components[0].alpha
        assert transition_rates(inst, (1,), ((0, 0),)) == [(((0, 1),), alpha)]
        assert transition_rates(inst, (1,), ((1, 0),)) == [(((0, 0),), 2.0)]
        assert transition_rates(inst, (1,), ((0, 1),)) == []

    def test_rates_scale_with_counts(self):
        inst = single_type_instance(q=0.2, tau=2.0, bound=3)
        alpha = inst.components[0].alpha
        out = dict(
            (tgt, rate) for tgt, rate in transition_rates(inst, (3,), ((1, 0),))
        )
        assert out[((1, 1),)] == pytest.approx(2 * alpha)  # 2 healthy copies
        assert out[((0, 0),)] == pytest.approx(1 * 2.0)  # 1 repair under way

    def test_costs_pick_cheapest_healthy(self):
        # catalog lists the expensive type first; canonical order flips them
        comps = [
            ComponentType(
                alpha=0.1,
                tau=1.0,
                usage_cost=c,
                repair_cost=10.0,
                install_cost=1.0,
                weight=1.0,
                label=lab,
            )
            for c, lab in [(5.0, "dear"), (2.0, "cheap")]
        ]
        comps_inst = make_instance(comps, [[1.0, 1.0]], [4.0])
        bounds = (2, 2)
        # cheap type (canonical index 0) healthy: its cost is billed
        assert cost_rates(comps_inst, bounds, ((0, 0), (0, 0))) == (2.0, 0)
        # cheap type fully damaged: the dear one takes over
        assert cost_rates(comps_inst, bounds, ((0, 2), (0, 0))) == (5.0, 0)
        # repairs bill on top of usage
        op, fail = cost_rates(comps_inst, bounds, ((1, 1), (0, 0)))
        assert op == pytest.approx(5.0 + 10.0)
        assert fail == 0

    def test_failure_indicator(self):
        inst = single_type_instance(q=0.2, repair=7.0, bound=2)
        assert cost_rates(inst, (2,), ((0, 2),)) == (0.0, 1)
        assert cost_rates(inst, (2,), ((2, 0),)) == (14.0, 1)
        assert cost_rates(inst, (2,), ((1, 1),)) == (7.0, 1)
        assert cost_rates(inst, (2,), ((1, 0),))[1] == 0

    def test_state_validation(self):
        inst = single_type_instance(bound=1)
        with pytest.raises(ValueError):
            cost_rates(inst, (1,), ((1, 1),))
        with pytest.raises(ValueError):
            transition_rates(inst, (1,), ((0, 1), (0, 0)))


def _model_matches_primitives(model: CtmdpModel):
    """Cross-check every CSR array against the reference functions."""
    inst = model.instance
    bounds = model.design
    for sid in range(model.n_states):
        rows = model.state_rows(sid)
        # transitions
        lo, hi = model.trn_offsets[sid], model.trn_offsets[sid + 1]
        got = {
            model.state_rows(int(t)): float(r)
            for t, r in zip(model.trn_targets[lo:hi], model.trn_rates[lo:hi])
        }
        want = {}
        for tgt, rate in transition_rates(inst, bounds, rows):
            want[tgt] = want.get(tgt, 0.0) + rate
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12)
        assert model.outflow[sid] == pytest.approx(sum(want.values()), rel=1e-12)
        # costs
        op, fail = cost_rates(inst, bounds, rows)
        assert model.cost_op[sid] == pytest.approx(op, rel=1e-12)
        assert int(model.cost_fail[sid]) == fail
        # actions
        alo, ahi = model.act_offsets[sid], model.act_offsets[sid + 1]
        posts = [model.state_rows(int(p)) for p in model.act_posts[alo:ahi]]
        assert posts == [apply_action(rows, a) for a in feasible_actions(rows)]


class TestBuildModel:
    def test_fixed_design_small(self):
        inst = single_type_instance(q=0.2, tau=2.0, bound=4)
        model = build_model(inst, design=(2,))
        assert model.design == (2,)
        assert model.n_states == 6
        assert model.n_state_actions == 10
        assert model.state_rows(0) == ((0, 0),)
        assert model.state_rows(model.n_states - 1) == ((2, 0),)
        _model_matches_primitives(model)

    def test_fixed_design_two_types(self, base_instance):
        model = build_model(base_instance, design=(2, 1, 0, 0))
        assert model.n_states == 6 * 3
        _model_matches_primitives(model)

    def test_zero_copy_types_collapse(self, base_instance):
        model = build_model(base_instance, design=(0, 0, 0, 0))
        assert model.n_states == 1
        assert model.cost_fail[0] == 1
        assert model.cost_op[0] == 0.0

    def test_state_id_round_trip(self, base_instance):
        model = build_model(base_instance, design=(2, 2, 1, 0))
        for sid in range(0, model.n_states, 7):
            assert model.state_id(model.state_rows(sid)) == sid

    def test_state_id_names_a_bad_state(self, base_instance):
        # pair count first, then each pair's shape and bound in turn
        model = build_model(base_instance, design=(1, 1, 0, 0))
        for state, reason in (
            (((0, 1), (0, 1), (0, 0)), "state has 3 rows for 4 types"),
            (((0, 1), (0, 1, 0), (0, 0), (0, 0)), "state row (0, 1, 0) is not a pair"),
            (((0, 2), (0, 1, 0), (0, 0), (0, 0)), "state row (0, 2) violates copy bound 1"),
            (((0, 0), (1, 1), (0, 0), (0, 0)), "state row (1, 1) violates copy bound 1"),
            (((0, 0), (0, 0), (-1, 1), (0, 0)), "state row (-1, 1) violates copy bound 0"),
            (((0, 0), (0, 0), (0, 0), (0, 2**70)), f"state row (0, {2**70}) violates copy bound 0"),
        ):
            with pytest.raises(ValueError, match=re.escape(reason)):
                model.state_id(state)

    def test_all_healthy_is_zero_all_repairing_is_last(self, base_instance):
        model = build_model(base_instance, design=(1, 2, 0, 1))
        assert model.state_rows(0) == ((0, 0), (0, 0), (0, 0), (0, 0))
        assert model.state_rows(model.n_states - 1) == (
            (1, 0),
            (2, 0),
            (0, 0),
            (1, 0),
        )

    def test_action_vector(self, base_instance):
        model = build_model(base_instance, design=(2, 0, 0, 0))
        sid = model.state_id(((0, 2), (0, 0), (0, 0), (0, 0)))
        lo, hi = model.act_offsets[sid], model.act_offsets[sid + 1]
        repairs = model.states[model.act_posts[lo:hi], 0::2] - model.states[sid, 0::2]
        assert repairs.tolist() == [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [2, 0, 0, 0],
        ]

    def test_action_indices_pick_the_listed_actions(self, base_instance):
        rng = np.random.default_rng(5)
        model = build_model(base_instance, design=(2, 1, 1, 1))
        acts = rng.integers(0, model.states[:, 1::2].astype(np.int64) + 1)
        choice = model.action_indices(acts)
        posts = model.act_posts[model.act_offsets[:-1] + choice]
        np.testing.assert_array_equal(model.states[posts, 0::2] - model.states[:, 0::2], acts)

    def test_state_string(self, base_instance):
        model = build_model(base_instance, design=(2, 1, 0, 0))
        sid = model.state_id(((1, 1), (0, 1), (0, 0), (0, 0)))
        assert model.state_string(sid) == "1,1|0,1|0,0|0,0"

    def test_infeasible_design_rejected(self, base_instance):
        with pytest.raises(Exception):
            build_model(base_instance, design=(9, 9, 9, 9))

    def test_state_ceiling(self, base_instance, monkeypatch):
        monkeypatch.setattr(ctmdp, "DEFAULT_STATE_CEILING", 10)
        with pytest.raises(StateSpaceError) as err:
            build_model(base_instance, design=(2, 1, 0, 0))
        assert err.value.report["total"] == 18
        assert err.value.report["ceiling"] == 10

    def test_ceiling_checked_before_the_state_table_is_built(self):
        # 8,006,001 states, over the default ceiling: it must raise before
        # any per-state array exists
        inst = single_type_instance(bound=4000)
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceError) as err:
                build_model(inst, design=(4000,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.report["total"] == 4001 * 4002 // 2
        assert peak < 2**20

    def test_pair_ceiling_checked_before_the_action_table_is_built(self):
        # 4,504,501 states, under the state ceiling, but 4,509,005,501
        # state-action pairs: it must raise before any per-state array exists
        inst = single_type_instance(bound=3000)
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceError) as err:
                build_model(inst, design=(3000,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.report["total"] == 4_504_501 < ctmdp.DEFAULT_STATE_CEILING
        assert err.value.report["pairs"] == 3001 * 3002 * 3003 // 6
        assert "4504501 states and 4509005501 state-action pairs" in str(err.value)
        assert peak < 2**20

    def test_every_base_design_matches_primitives(self, base_instance):
        designs = enumerate_feasible_designs(base_instance)
        assert len(designs) == 76
        for design in designs:
            _model_matches_primitives(build_model(base_instance, design))

    def test_large_design_matches_primitives(self, large_instance):
        model = build_model(large_instance, (3, 4, 4))
        assert model.n_states == 2250
        _model_matches_primitives(model)


def _down_count_moves(model: CtmdpModel):
    """Per transition and per (state, action): the change in the total
    count of down copies (repairing plus damaged, over all types)."""
    level = model.states.sum(axis=1, dtype=np.int64)
    src = np.repeat(np.arange(model.n_states), np.diff(model.trn_offsets))
    pre = np.repeat(np.arange(model.n_states), np.diff(model.act_offsets))
    return level[model.trn_targets] - level[src], level[model.act_posts] - level[pre]


class TestDownCountLevels:
    """Every transition moves the down count by one and no action moves
    it, so each policy's chain is a quasi-birth-death process on it: the
    sparse factor's order relies on that for its fill, not its results."""

    @staticmethod
    def _check(model):
        moves, actions = _down_count_moves(model)
        assert moves.size > 0 or model.n_states == 1
        assert np.all(np.abs(moves) == 1)
        assert np.all(actions == 0)

    def test_base_designs(self, base_instance):
        for design in enumerate_feasible_designs(base_instance):
            self._check(build_model(base_instance, design))

    def test_single_type_benchmark_designs(self):
        single = load_instance(
            pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data" / "single-1.json"
        )
        for design in enumerate_feasible_designs(single):
            self._check(build_model(single, design))

    def test_large_design(self, large_instance):
        self._check(build_model(large_instance, (3, 4, 4)))

    def test_model_stores_sources_and_levels(self, base_instance):
        # the fields the improvement step and the factor order read
        for design in enumerate_feasible_designs(base_instance):
            model = build_model(base_instance, design)
            src = np.repeat(np.arange(model.n_states), np.diff(model.trn_offsets))
            np.testing.assert_array_equal(model.trn_sources, src)
            np.testing.assert_array_equal(model.levels, model.states.sum(axis=1))

    def test_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            inst = random_instance(rng)
            for design in enumerate_feasible_designs(inst)[:10]:
                self._check(build_model(inst, design))


class TestWeakCommunication:
    def test_fixed_design_report(self, base_instance):
        model = build_model(base_instance, design=(2, 1, 0, 0))
        report = check_weakly_communicating(model)
        assert report.weakly_communicating
        assert report.n_core_classes == 1
        assert report.all_repairing_id == model.n_states - 1
        assert report.all_repairing_id in report.transient_ids

    def test_all_repairing_has_no_incoming_arc(self):
        # failures add damaged copies and completions add healthy ones, so
        # nothing ever lands on the everything-in-repair state
        inst = single_type_instance(q=0.3, bound=3)
        model = build_model(inst, design=(3,))
        report = check_weakly_communicating(model)
        assert report.weakly_communicating
        assert model.state_id(((3, 0),)) in report.transient_ids

    def test_trivial_model(self, base_instance):
        model = build_model(base_instance, design=(0, 0, 0, 0))
        report = check_weakly_communicating(model)
        assert report.weakly_communicating
        assert report.n_core_classes == 1
        assert report.transient_ids == ()

    def test_random_fixed_designs(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 8:
            inst = random_instance(rng, n_types=int(rng.integers(1, 3)))
            design = tuple(
                int(rng.integers(0, min(m, 2) + 1)) for m in inst.copy_bounds
            )
            if sum(design) == 0 or not inst.is_feasible(design):
                continue
            model = build_model(inst, design=design)
            report = check_weakly_communicating(model)
            assert report.weakly_communicating
            assert report.all_repairing_id in report.transient_ids
            checked += 1

    def test_matches_union_graph_reference_on_base_designs(self, base_instance):
        for design in enumerate_feasible_designs(base_instance):
            model = build_model(base_instance, design)
            assert check_weakly_communicating(model) == weak_communication_reference(
                model
            ), design

    @pytest.mark.parametrize("design", LARGE_DESIGNS)
    def test_matches_union_graph_reference_on_large_designs(self, large_instance, design):
        model = build_model(large_instance, design)
        report = check_weakly_communicating(model)
        assert report == weak_communication_reference(model)
        assert report.weakly_communicating

    @staticmethod
    def _with_transitions(model, arcs):
        # the model with its transitions replaced by (source, target) arcs
        src = np.array([s for s, _ in arcs], dtype=np.int64)
        offsets = np.zeros(model.n_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=model.n_states), out=offsets[1:])
        return dataclasses.replace(
            model,
            trn_offsets=offsets,
            trn_targets=np.array([t for _, t in arcs], dtype=np.int64),
            trn_rates=np.ones(len(arcs)),
        )

    def test_broken_structures_match_the_reference(self):
        # design (1,): states 0 = (0,0), 1 = (0,1), 2 = (1,0); state 1 may
        # start a repair (post-state 2), the others have only the zero action
        model = build_model(single_type_instance(q=0.3, bound=1), design=(1,))
        assert model.act_posts.tolist() == [0, 1, 2, 2]
        # with 2 -> 0 gone, the transient state 2 reaches nothing
        stranded = self._with_transitions(model, [(0, 1)])
        report = check_weakly_communicating(stranded)
        assert report == weak_communication_reference(stranded)
        assert not report.weakly_communicating
        assert report.transient_ids == (0, 2)
        assert report.n_core_classes == 1
        # 1 and 2 each loop on themselves and 2 never leads back to 1
        split = self._with_transitions(model, [(0, 1), (1, 1), (2, 2)])
        report = check_weakly_communicating(split)
        assert report == weak_communication_reference(split)
        assert not report.weakly_communicating
        assert report.n_core_classes == 2

    def test_small_model_needs_no_scipy(self, instances_dir):
        # 18 states make 36 layered nodes, under DENSE_NODES: numpy alone
        # splits the graph, through the chains' strong-component routine
        code = (
            "import sys\n"
            "from parmaint.ctmdp import build_model, check_weakly_communicating\n"
            "from parmaint.model import load_instance\n"
            "model = build_model(load_instance(sys.argv[1]), (2, 1, 0, 0))\n"
            "print(check_weakly_communicating(model).weakly_communicating, 'scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code, str(instances_dir / "base-6-20.json")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "False"]

    def test_memory_stays_proportional_to_the_model(self, large_instance):
        # 46,656 states, 1.7 M state-action pairs: an edge per transition of
        # every action takes about 360 MB here, the layered graph about 26
        model = build_model(large_instance, (7, 7, 7))
        tracemalloc.start()
        try:
            report = check_weakly_communicating(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.weakly_communicating
        assert peak < 120 * 2**20
