import math

import numpy as np
import pytest

from parmaint import mdp_solve
from parmaint.app import run_app
from parmaint.ctmdp import build_model
from parmaint.dop import dop_objectives
from parmaint.exact import _trace_design, enumerate_feasible_designs, exact_front
from parmaint.mdp_solve import (
    GainPair,
    MaintenancePolicy,
    _chain_gains,
    _strong_components,
    evaluate_policy,
    fully_active_policy,
    solve_average_cost,
)
from parmaint.model import ComponentType, make_instance

from _oracles import (
    chain_gains_exact,
    evaluate_dense,
    improving_actions,
    iterate_policies,
    policy_from_rule,
    policy_gain_by_iteration,
    random_instance,
    rvi_solve,
    single_type_instance,
    stationary_design_gain,
    threshold_type_law,
)


class TestGainPair:
    def test_ln(self):
        assert GainPair(1.0, 0.01).ln_g_f == pytest.approx(math.log(0.01))

    def test_ln_of_zero_failure(self):
        assert GainPair(1.0, 0.0).ln_g_f == -math.inf
        assert GainPair(1.0, 1e-320).ln_g_f == -math.inf

    def test_scalarized(self):
        pair = GainPair(2.5, 0.25)
        assert pair.scalarized(0.0) == 2.5
        assert pair.scalarized(8.0) == pytest.approx(4.5)


class TestMaintenancePolicy:
    def test_choice_validation(self):
        inst = single_type_instance(q=0.2, bound=2)
        model = build_model(inst, design=(2,))
        counts = np.diff(model.act_offsets)
        with pytest.raises(ValueError):
            MaintenancePolicy(model, np.zeros(model.n_states - 1, dtype=np.int64))
        bad = np.zeros(model.n_states, dtype=np.int64)
        bad[0] = counts[0]  # one past the last feasible action
        with pytest.raises(ValueError):
            MaintenancePolicy(model, bad)

    def test_action_vectors_of_fully_active(self):
        inst = single_type_instance(q=0.2, bound=3)
        model = build_model(inst, design=(3,))
        policy = fully_active_policy(model)
        post = model.states[policy.post_ids]
        # every damaged copy goes to repair, so nothing is left damaged
        np.testing.assert_array_equal(post[:, 0] - model.states[:, 0], model.states[:, 1])
        assert not post[:, 1].any()

    def test_equality(self):
        inst = single_type_instance(q=0.2, bound=2)
        model = build_model(inst, design=(2,))
        a = fully_active_policy(model)
        b = fully_active_policy(model)
        zero = MaintenancePolicy(model, np.zeros(model.n_states, dtype=np.int64))
        assert a == b
        assert a != zero


def _single_type_always_repair_gain(q, usage, repair):
    # one copy, always repaired: availability p, under repair w.p. q
    p = 1.0 - q
    return GainPair(p * usage + q * repair, q)


class TestSingleCopyClosedForms:
    """One machine, one copy: everything is computable by hand."""

    def setup_method(self):
        self.inst = single_type_instance(q=0.01, usage=1.0, repair=100.0, bound=4)
        self.model = build_model(self.inst, design=(1,))

    def test_fully_active_evaluation(self):
        gain = evaluate_policy(self.model, fully_active_policy(self.model))
        assert gain.g_o == pytest.approx(1.99, abs=1e-12)
        assert gain.g_f == pytest.approx(0.01, abs=1e-12)

    def test_high_penalty_prefers_repair(self):
        res = solve_average_cost(self.model, penalty=100.0)
        assert res.converged
        # always-repair: 0.99 * 1 + 0.01 * 100 + 100 * 0.01 = 2.99
        assert res.gain == pytest.approx(2.99, abs=1e-8)
        gain = evaluate_policy(self.model, res.policy)
        assert gain.g_f == pytest.approx(0.01, abs=1e-10)

    def test_low_penalty_prefers_abandonment(self):
        res = solve_average_cost(self.model, penalty=1.0)
        assert res.converged
        # never repairing parks the system in permanent failure: 0 + 1 * 1
        assert res.gain == pytest.approx(1.0, abs=1e-8)
        gain = evaluate_policy(self.model, res.policy)
        assert gain.g_o == pytest.approx(0.0, abs=1e-10)
        assert gain.g_f == pytest.approx(1.0, abs=1e-10)

    def test_certificate_holds(self, monkeypatch):
        res = solve_average_cost(self.model, penalty=100.0)
        assert improving_actions(self.model, 100.0, res.policy, res.gains, res.bias) == []
        assert res.gains == pytest.approx(np.full(self.model.n_states, 2.99), rel=1e-12)
        # the never-repair start, cut off before improving, fails the check:
        # every start ends failed (gain 100), and repairing wins on bias
        monkeypatch.setattr(mdp_solve, "MAX_ITERATIONS", 1)
        early = solve_average_cost(self.model, penalty=100.0)
        found = improving_actions(self.model, 100.0, early.policy, early.gains, early.bias)
        assert found and {reason for _, _, reason in found} == {"bias"}

    def test_policy_iteration_cross_check(self):
        res = solve_average_cost(self.model, penalty=100.0)
        gain, converged, _ = policy_gain_by_iteration(
            self.model, res.policy, penalty=100.0
        )
        assert converged
        assert gain == pytest.approx(res.gain, abs=1e-8)

    def test_unconverged_run_reports_honestly(self, monkeypatch):
        # the cold start never repairs, so at least a second policy is
        # needed; a cap of one returns the first, exactly evaluated
        full = solve_average_cost(self.model, penalty=100.0)
        assert full.converged and full.iterations >= 2
        monkeypatch.setattr(mdp_solve, "MAX_ITERATIONS", 1)
        res = solve_average_cost(self.model, penalty=100.0)
        assert not res.converged
        assert res.iterations == 1
        assert not res.policy.choice.any()
        exact = evaluate_policy(self.model, res.policy).scalarized(100.0)
        assert res.gain == pytest.approx(exact, rel=1e-12)
        assert res.gain > full.gain + 1.0

    def test_warm_start_accepted(self):
        # the optimum at 64 is still optimal at 65: certified at once
        cold = solve_average_cost(self.model, penalty=64.0)
        warm = solve_average_cost(self.model, penalty=65.0, initial_policy=cold.policy)
        assert warm.converged
        assert warm.iterations == 1 < cold.iterations
        assert warm.policy == cold.policy
        other = build_model(self.inst, design=(1,))
        with pytest.raises(ValueError, match="another model"):
            solve_average_cost(other, penalty=65.0, initial_policy=cold.policy)

    def test_penalty_must_be_finite_and_non_negative(self):
        for penalty in (math.nan, math.inf, -math.inf, -5.0):
            with pytest.raises(ValueError, match="penalty"):
                solve_average_cost(self.model, penalty=penalty)

    def test_overflowing_penalty_is_an_error(self, base_instance):
        # the biases reach 1e308, so the bias test's terms overflow and
        # would be NaN
        model = build_model(base_instance, design=(1, 1, 0, 0))
        with pytest.raises(ValueError, match=r"penalty 1e\+306 overflows"):
            solve_average_cost(model, penalty=1e306)

    def test_zero_penalty_allowed(self):
        res = solve_average_cost(self.model, penalty=0.0)
        assert res.converged
        # failure is free, so never repairing costs nothing
        assert res.gain == pytest.approx(0.0, abs=1e-8)


class TestEmptyDesign:
    def test_gain_is_pure_failure(self, base_instance):
        model = build_model(base_instance, design=(0, 0, 0, 0))
        res = solve_average_cost(model, penalty=17.0)
        assert res.converged
        assert res.gain == pytest.approx(17.0, abs=1e-10)
        gain = evaluate_policy(model, res.policy)
        assert (gain.g_o, gain.g_f) == (0.0, 1.0)

    def test_certain_absorption_is_exact(self, base_instance):
        # never repairing walks every start into the all-damaged state
        model = build_model(base_instance, design=(0, 5, 0, 0))
        idle = MaintenancePolicy(model, np.zeros(model.n_states, dtype=np.int64))
        gain = evaluate_policy(model, idle)
        assert (gain.g_o, gain.g_f) == (0.0, 1.0)


class TestFullyActiveClosedForm:
    def test_two_copies_cheapest_type(self, base_instance):
        model = build_model(base_instance, design=(2, 0, 0, 0))
        gain = evaluate_policy(model, fully_active_policy(model))
        assert gain.g_o == pytest.approx(2.9999, abs=1e-10)
        assert gain.g_f == pytest.approx(1e-4, abs=1e-14)
        assert gain.ln_g_f == pytest.approx(-9.21034037198, abs=1e-9)

    def test_matches_independent_enumeration(self, base_instance):
        rng = np.random.default_rng(5)
        designs = [(1, 1, 0, 0), (0, 2, 1, 0), (2, 0, 0, 1), (0, 0, 2, 2)]
        for design in designs:
            assert base_instance.is_feasible(design)
            model = build_model(base_instance, design=design)
            gain = evaluate_policy(model, fully_active_policy(model))
            g_o, g_f = stationary_design_gain(base_instance, design)
            assert gain.g_o == pytest.approx(g_o, rel=1e-10)
            assert gain.g_f == pytest.approx(g_f, rel=1e-10)
        for _ in range(6):
            inst = random_instance(rng, n_types=int(rng.integers(1, 4)))
            design = tuple(int(min(m, rng.integers(0, 3))) for m in inst.copy_bounds)
            if not inst.is_feasible(design):
                continue
            model = build_model(inst, design=design)
            gain = evaluate_policy(model, fully_active_policy(model))
            g_o, g_f = stationary_design_gain(inst, design)
            assert gain.g_o == pytest.approx(g_o, rel=1e-9, abs=1e-12)
            assert gain.g_f == pytest.approx(g_f, rel=1e-9, abs=1e-12)


class TestFullRepairMatchesClosedForm:
    """Full repair is the static design objective, to the last digits."""

    def _check(self, instance, design):
        model = build_model(instance, design=design)
        gain = evaluate_policy(model, fully_active_policy(model))
        g_o, ln_g_f = dop_objectives(instance, design)
        assert gain.g_o == pytest.approx(g_o, rel=1e-12, abs=1e-300)
        assert gain.ln_g_f == pytest.approx(ln_g_f, rel=0.0, abs=1e-12)

    def test_every_base_design(self, base_instance):
        for design in enumerate_feasible_designs(base_instance):
            self._check(base_instance, design)

    def test_large_design(self, large_instance):
        # g_f is about 1.2e-19, far below the roundoff of a dense solve
        self._check(large_instance, (3, 4, 4))


class TestStartDependence:
    """A policy with several recurrent classes has start-dependent gains."""

    def _two_type_setup(self):
        comps = [
            ComponentType(
                alpha=0.05, tau=1.0, usage_cost=1.0, repair_cost=30.0,
                install_cost=1.0, weight=1.0, label="a",
            ),
            ComponentType(
                alpha=0.2, tau=1.0, usage_cost=2.0, repair_cost=5.0,
                install_cost=1.0, weight=1.0, label="b",
            ),
        ]
        inst = make_instance(comps, [[1.0, 1.0]], [3.0])
        model = build_model(inst, design=(1, 2))
        plan = {
            ((0, 1), (0, 2)): (1, 0),
            ((0, 0), (0, 2)): (0, 0),
            ((0, 1), (1, 0)): (0, 0),
            ((0, 1), (1, 1)): (0, 1),
            ((0, 1), (0, 1)): (0, 1),
            ((0, 1), (0, 0)): (0, 0),
            ((0, 1), (2, 0)): (0, 0),
        }
        policy = policy_from_rule(
            model, lambda rows: plan.get(rows, (0,) * len(rows))
        )
        return inst, model, policy

    def test_two_recurrent_classes(self):
        inst, model, policy = self._two_type_setup()
        q1, q2 = inst.q_vector()
        p1 = 1.0 - q1
        c1, c2 = inst.usage_costs()
        r1, r2 = inst.repair_costs()

        # class 1: type b abandoned with both copies damaged, type a cycling
        from_cls1 = evaluate_policy(model, policy, model.state_id(((0, 1), (0, 2))))
        assert from_cls1.g_o == pytest.approx(q1 * r1 + p1 * c1, rel=1e-10)
        assert from_cls1.g_f == pytest.approx(q1, rel=1e-10)

        # class 2: type a abandoned, type b fully active on two copies
        cls2 = GainPair(2 * q2 * r2 + c2 * (1 - q2 * q2), q2 * q2)
        from_cls2 = evaluate_policy(model, policy, model.state_id(((0, 1), (1, 0))))
        assert from_cls2.g_o == pytest.approx(cls2.g_o, rel=1e-10)
        assert from_cls2.g_f == pytest.approx(cls2.g_f, rel=1e-10)

        assert abs(from_cls1.g_o - from_cls2.g_o) > 1e-3
        assert abs(from_cls1.g_f - from_cls2.g_f) > 1e-3

    def test_transient_start_mixes_with_absorption_probabilities(self):
        inst, model, policy = self._two_type_setup()
        a1, a2 = (c.alpha for c in inst.components)
        cls1 = evaluate_policy(model, policy, model.state_id(((0, 1), (0, 2))))
        cls2 = evaluate_policy(model, policy, model.state_id(((0, 1), (1, 0))))
        # from all-healthy, reaching class 1 needs type b to fail twice
        # before type a fails once
        lam1 = (2 * a2 / (a1 + 2 * a2)) * (a2 / (a1 + a2))
        mixed = evaluate_policy(model, policy, initial_state=0)
        assert mixed.g_o == pytest.approx(
            lam1 * cls1.g_o + (1 - lam1) * cls2.g_o, rel=1e-10
        )
        assert mixed.g_f == pytest.approx(
            lam1 * cls1.g_f + (1 - lam1) * cls2.g_f, rel=1e-10
        )

    def test_single_type_unreachable_absorbing_class(self):
        inst = single_type_instance(q=0.2, tau=1.0, usage=1.0, repair=3.0, bound=2)
        model = build_model(inst, design=(2,))
        alpha = inst.components[0].alpha
        tau = 1.0
        plan = {
            ((0, 1),): (1,),
            ((1, 1),): (0,),
            ((0, 2),): (0,),
        }
        policy = policy_from_rule(model, lambda rows: plan.get(rows, (0,)))
        # cycle (0,0) -> (1,0) -> (1,1) -> (1,0) never lets both copies
        # sit damaged, so the absorbing all-damaged state is unreachable
        z = 1.0 + 2 * alpha / tau + 2 * alpha * alpha / (tau * tau)
        pi_a = 1.0 / z
        pi_b = 2 * alpha / tau / z
        pi_c = 2 * alpha * alpha / (tau * tau) / z
        gain = evaluate_policy(model, policy, initial_state=0)
        assert gain.g_o == pytest.approx(
            pi_a * 1.0 + pi_b * (1.0 + 3.0) + pi_c * 3.0, rel=1e-10
        )
        assert gain.g_f == pytest.approx(pi_c, rel=1e-10)
        # started on the absorbing state it is pure failure
        parked = evaluate_policy(model, policy, model.state_id(((0, 2),)))
        assert (parked.g_o, parked.g_f) == (0.0, 1.0)

    def test_dense_reference_agrees_from_every_start(self):
        _, two_type, multichain = self._two_type_setup()
        inst = single_type_instance(q=0.2, tau=1.0, usage=1.0, repair=3.0, bound=2)
        one_type = build_model(inst, design=(2,))
        plan = {((0, 1),): (1,), ((1, 1),): (0,), ((0, 2),): (0,)}
        unreachable = policy_from_rule(one_type, lambda rows: plan.get(rows, (0,)))
        for model, policy in ((two_type, multichain), (one_type, unreachable)):
            for start in range(model.n_states):
                gain = evaluate_policy(model, policy, initial_state=start)
                g_o, g_f = evaluate_dense(model, policy, initial_state=start)
                assert gain.g_o == pytest.approx(g_o, rel=1e-12, abs=1e-300)
                assert gain.g_f == pytest.approx(g_f, rel=1e-12, abs=1e-300)

    def test_out_of_range_start_rejected(self, base_instance):
        model = build_model(base_instance, design=(2, 1, 0, 0))
        policy = fully_active_policy(model)
        n = model.n_states
        for start in (-1, n, np.int64(n + 5)):
            with pytest.raises(ValueError, match=rf"initial state -?\d+ outside \[0, {n}\)"):
                evaluate_policy(model, policy, initial_state=start)

    def test_start_is_a_state_id(self, base_instance):
        # rows go through model.state_id; evaluate_policy takes the id only
        model = build_model(base_instance, design=(1, 1, 0, 0))
        policy = fully_active_policy(model)
        rows = ((0, 1), (0, 1), (0, 0), (0, 0))
        sid = model.state_id(rows)
        assert model.state_rows(sid) == rows
        by_id = evaluate_policy(model, policy, initial_state=sid)
        assert [by_id.g_o, by_id.g_f] == pytest.approx(evaluate_dense(model, policy, sid), rel=1e-12)
        for start in (rows, [sid], 1.0):
            with pytest.raises(ValueError, match="is not a state id"):
                evaluate_policy(model, policy, initial_state=start)


class TestDenseReference:
    def test_solved_policies_agree(self, base_instance):
        designs = [
            (1, 0, 0, 0), (2, 1, 0, 0), (3, 1, 0, 0), (4, 0, 0, 0), (0, 2, 1, 1), (1, 1, 1, 1)
        ]
        for design in designs:
            model = build_model(base_instance, design=design)
            for penalty in (1.0, 1e3, 1e5):
                policy = solve_average_cost(model, penalty).policy
                gain = evaluate_policy(model, policy)
                g_o, g_f = evaluate_dense(model, policy)
                assert gain.g_o == pytest.approx(g_o, rel=1e-12, abs=1e-300)
                assert gain.ln_g_f == pytest.approx(math.log(g_f), rel=0.0, abs=1e-8)


class TestLargeThresholdChain:
    """A 9,261-state chain whose gains have an independent product form."""

    def test_matches_product_of_per_type_laws(self, large_instance):
        copies, threshold = 7, 3
        model = build_model(large_instance, design=(copies,) * 3)
        policy = policy_from_rule(
            model, lambda rows: tuple(s2 if s2 >= threshold else 0 for _, s2 in rows)
        )
        gain = evaluate_policy(model, policy)
        # the types evolve independently under a per-type rule
        g_o = 0.0
        all_down = 1.0
        for comp in large_instance.components:
            law = threshold_type_law(comp.alpha, comp.tau, copies, threshold)
            down = sum(p for (s1, s2), p in law.items() if s1 + s2 == copies)
            repairing = sum(p * s1 for (s1, _), p in law.items())
            g_o += comp.repair_cost * repairing + comp.usage_cost * (1.0 - down) * all_down
            all_down *= down
        assert all_down < 1e-29
        assert gain.g_o == pytest.approx(g_o, rel=1e-12)
        assert gain.g_f == pytest.approx(all_down, rel=1e-12)


class TestOptimalityAgainstBruteForce:
    def test_small_models_all_policies(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 6:
            inst = random_instance(rng, n_types=int(rng.integers(1, 3)))
            design = tuple(int(min(m, rng.integers(0, 3))) for m in inst.copy_bounds)
            if not inst.is_feasible(design) or sum(design) == 0:
                continue
            model = build_model(inst, design=design)
            policies = iterate_policies(model, limit=200)
            if policies is None:
                continue
            penalty = float(rng.uniform(0.5, 50.0))
            best = min(
                evaluate_policy(
                    model, MaintenancePolicy(model, ch)
                ).scalarized(penalty)
                for ch in policies
            )
            res = solve_average_cost(model, penalty)
            assert res.converged
            assert res.gain == pytest.approx(best, abs=1e-8)
            checked += 1


class TestDeterminism:
    def test_identical_reruns(self, base_instance):
        model = build_model(base_instance, design=(2, 1, 0, 0))
        a = solve_average_cost(model, penalty=50.0)
        b = solve_average_cost(model, penalty=50.0)
        assert np.array_equal(a.policy.choice, b.policy.choice)
        assert a.gain == b.gain
        assert a.iterations == b.iterations


class TestHugePenaltyRegression:
    def test_span_floor_does_not_hang(self, base_instance):
        model = build_model(base_instance, design=(0, 5, 0, 0))
        res = solve_average_cost(model, penalty=float(2**26))
        assert res.converged
        gain = evaluate_policy(model, res.policy)
        assert gain.g_o == pytest.approx(10.9999999968, abs=1e-6)
        assert gain.ln_g_f == pytest.approx(-19.5601150266, abs=1e-6)


class TestPolicyCycle:
    def test_cycle_ends_with_the_least_gain_evaluated(self):
        # two policies differing only at state (0, 2): each one's bias test
        # sees the other's action as better, by more than the rounding
        # margin, so the loop alternated between them up to MAX_ITERATIONS;
        # of the two, (5.0000024, 6.0e-13) has the lesser penalized gain
        inst = single_type_instance(q=1e-3, repair=1000.0, bound=5)
        res = solve_average_cost(build_model(inst, (5,)), 6671582084.759989)
        assert not res.converged
        assert res.iterations <= 10
        assert res.pair.g_o == pytest.approx(5.00000240455958, rel=1e-12)
        assert res.pair.g_f == pytest.approx(5.99797678808505e-13, rel=1e-9)

    def test_cycle_through_full_repair_keeps_a_better_policy(self):
        # this cycle passes full repair (gain 301) and comes back to it;
        # ending there would return the trace's right end, and the trace
        # would drop the point and its flag
        inst = single_type_instance(q=1e-2, repair=1000.0, bound=30)
        model = build_model(inst, (30,))
        res = solve_average_cost(model, 4157400326.592283)
        assert not res.converged
        assert res.iterations <= 10
        full = evaluate_policy(model, fully_active_policy(model)).scalarized(4157400326.592283)
        assert res.gain < full - 100.0


GATE_PENALTIES = (1e-9, 1.0, 30.0, 1e3, 1e5, 1e8, 1e12)


class TestValueIterationGate:
    """Policy iteration against the value-iteration reference.

    Over all 76 base designs at the seven gate penalties the exactly
    evaluated scalarized gains agree to 1e-9 relative; this subset keeps
    the designs where a unichain treatment goes wrong.
    """

    @staticmethod
    def _gains(model, penalty):
        res = solve_average_cost(model, penalty)
        assert res.converged
        ours = evaluate_policy(model, res.policy).scalarized(penalty)
        assert res.gain == pytest.approx(ours, rel=1e-12)
        reference = evaluate_policy(model, rvi_solve(model, penalty)[0]).scalarized(penalty)
        return ours, reference

    def test_base_designs_at_gate_penalties(self, base_instance):
        designs = [(3, 1, 0, 0), (4, 0, 0, 0), (0, 5, 0, 0), (2, 1, 0, 0), (0, 2, 1, 1)]
        for design in designs:
            model = build_model(base_instance, design=design)
            for penalty in GATE_PENALTIES:
                ours, reference = self._gains(model, penalty)
                assert ours <= reference * (1 + 1e-9), (design, penalty)
                assert ours == pytest.approx(reference, rel=1e-9), (design, penalty)

    def test_multichain_designs(self, base_instance):
        # besides the policy's own cycle, the idle all-damaged post-state
        # is a recurrent class of its own; treating the chain as unichain
        # picked policies up to 4e4 times worse at these penalties
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        for design in ((3, 1, 0, 0), (4, 0, 0, 0)):
            model = build_model(base_instance, design=design)
            n = model.n_states
            for penalty in (30.0, 100.0, 300.0, 3e3, 1e4, 3e4, 1e5):
                ours, reference = self._gains(model, penalty)
                assert ours == pytest.approx(reference, rel=1e-9), (design, penalty)
                policy = solve_average_cost(model, penalty).policy
                src, dst, rate, _, _ = _full_chain(model, policy.post_ids)
                chain = coo_matrix((rate, (src, dst)), shape=(n, n))
                n_comp, labels = connected_components(chain, connection="strong")
                leaving = set(labels[src[labels[src] != labels[dst]]])
                assert n_comp - len(leaving) >= 2, (design, penalty)

    def test_certificate_on_base_designs(self, base_instance):
        for design in ((3, 1, 0, 0), (4, 0, 0, 0), (1, 1, 1, 1)):
            model = build_model(base_instance, design=design)
            for penalty in GATE_PENALTIES:
                res = solve_average_cost(model, penalty)
                bad = improving_actions(model, penalty, res.policy, res.gains, res.bias)
                assert bad == [], (design, penalty, bad[:3])


class TestSolvePair:
    """The solve's own (g_o, g_f) is the returned policy's exact pair."""

    @staticmethod
    def _check(model, res, penalty, initial_state=0):
        # the same chain solve, so the same bits
        assert res.pair == evaluate_policy(model, res.policy, initial_state=initial_state)
        assert res.gain == res.pair.scalarized(penalty)

    def test_every_base_design_at_gate_penalties(self, base_instance):
        designs = enumerate_feasible_designs(base_instance)
        assert len(designs) == 76
        for design in designs:
            model = build_model(base_instance, design=design)
            for penalty in GATE_PENALTIES:
                self._check(model, solve_average_cost(model, penalty), penalty)

    def test_multichain_and_transient_start(self, monkeypatch):
        # one evaluated step returns the start policy itself: state 0 is
        # transient and mixes the two recurrent classes
        _, model, policy = TestStartDependence()._two_type_setup()
        for penalty in (0.0, 7.0, 1e4):
            monkeypatch.setattr(mdp_solve, "MAX_ITERATIONS", 1)
            res = solve_average_cost(model, penalty, initial_policy=policy)
            assert res.policy == policy
            self._check(model, res, penalty)
            monkeypatch.undo()
            self._check(model, solve_average_cost(model, penalty), penalty)

    def test_large_design(self, large_instance):
        model = build_model(large_instance, design=(3, 4, 4))
        self._check(model, solve_average_cost(model, 1e5), 1e5)


def _full_chain(model, post_ids):
    """The policy's chain on all post-states, those it never uses
    included: arcs sorted by source, self-loops dropped, the two cost
    columns (operational cost rate, failure indicator) and each
    post-state's count of down copies."""
    src = np.repeat(np.arange(model.n_states), np.diff(model.trn_offsets))
    dst = post_ids[model.trn_targets]
    keep = src != dst
    costs = np.column_stack([model.cost_op, model.cost_fail])
    return src[keep], dst[keep], model.trn_rates[keep], costs, model.states.sum(axis=1)


class TestChainOnUsedPostStates:
    """A policy's chain solved on the post-states it uses gives the gains
    of its chain on all post-states."""

    @staticmethod
    def _full_gains(model, policy):
        gain, _ = _chain_gains(*_full_chain(model, policy.post_ids))
        return gain[policy.post_ids]

    @staticmethod
    def _close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_multichain_from_every_start(self, monkeypatch):
        _, model, policy = TestStartDependence()._two_type_setup()
        want = self._full_gains(model, policy)
        for start in range(model.n_states):
            pair = evaluate_policy(model, policy, initial_state=start)
            self._close([pair.g_o, pair.g_f], want[start])
        # one evaluated step: the solve's gains are those of this policy
        monkeypatch.setattr(mdp_solve, "MAX_ITERATIONS", 1)
        for penalty in (0.0, 7.0, 1e4):
            res = solve_average_cost(model, penalty, initial_policy=policy)
            self._close(res.gains, want[:, 0] + penalty * want[:, 1])

    def test_base_designs_at_gate_penalties(self, base_instance):
        for design in enumerate_feasible_designs(base_instance):
            model = build_model(base_instance, design=design)
            for penalty in GATE_PENALTIES:
                res = solve_average_cost(model, penalty)
                want = self._full_gains(model, res.policy)
                self._close(res.gains, want[:, 0] + penalty * want[:, 1])
                pair = evaluate_policy(model, res.policy)
                self._close([pair.g_o, pair.g_f], want[0])


def _random_chain(rng, m, n_classes):
    """Arcs (sorted by source) and two cost columns of a random m-node
    chain: ``n_classes`` closed classes, the first a single absorbing
    node, and transient nodes that each lead on to a later node in a
    random order ending with the recurrent ones, plus parallel arcs and
    arcs back among the transient nodes.  Rates span several orders of
    magnitude.  The chain is no birth-death process, so its levels, which
    only order the sparse factor, are the node numbers."""
    nodes = rng.permutation(m)
    n_trans = int(rng.integers(1, m // 2))
    trans, rec = nodes[:n_trans], nodes[n_trans:]
    cuts = np.sort(rng.choice(np.arange(2, rec.size), n_classes - 2, replace=False))
    arcs = []
    for cls in [rec[:1]] + np.split(rec[1:], cuts - 1):
        if cls.size > 1:
            arcs += zip(cls, np.roll(cls, -1))
            pairs = cls[rng.integers(0, cls.size, size=(2 * cls.size, 2))]
            arcs += [(u, v) for u, v in pairs if u != v]
    order = np.concatenate([trans, rec])
    for i, u in enumerate(trans):
        arcs += [(u, v) for v in rng.choice(order[i + 1 :], 2)]
        back = rng.choice(trans)
        if back != u:
            arcs.append((u, back))
    arcs.sort(key=lambda arc: arc[0])
    src, dst = np.array(arcs, dtype=np.int64).T
    rate = rng.lognormal(0.0, 2.0, size=src.size)
    costs = rng.random((m, 2)) * (rng.random((m, 1)) < 0.7)
    return src, dst, rate, costs, np.arange(m)


def _dense_and_sparse(monkeypatch, f, *args):
    """``f(*args)`` with every chain solved dense, then sparse."""
    monkeypatch.setattr(mdp_solve, "DENSE_NODES", 10**9)
    dense = f(*args)
    monkeypatch.setattr(mdp_solve, "DENSE_NODES", 0)
    return dense, f(*args)


class TestDenseAndSparsePaths:
    """Both ways of solving a chain give the same gains, biases, classes
    and policy-iteration paths, and on small chains the exact ones."""

    @staticmethod
    def _agree(monkeypatch, src, dst, rate, costs, level, bias_rtol=1e-12):
        (gain, bias), (want_gain, want_bias) = _dense_and_sparse(
            monkeypatch, _chain_gains, src, dst, rate, costs, level
        )
        np.testing.assert_allclose(gain, want_gain, rtol=1e-12, atol=0.0)
        # a bias entry can be a near-cancelling sum, so its error is
        # measured against the largest bias of its cost column
        scale = np.abs(want_bias).max(axis=0)
        assert np.all(np.abs(bias - want_bias) <= bias_rtol * scale)

    def test_base_designs_at_gate_penalties(self, base_instance, monkeypatch):
        solves = 0
        for design in enumerate_feasible_designs(base_instance):
            model = build_model(base_instance, design=design)
            for penalty in GATE_PENALTIES:
                dense, sparse = _dense_and_sparse(
                    monkeypatch, solve_average_cost, model, penalty
                )
                assert dense.converged and sparse.converged
                assert dense.iterations == sparse.iterations, (design, penalty)
                assert dense.policy == sparse.policy, (design, penalty)
                self._agree(monkeypatch, *_full_chain(model, dense.policy.post_ids))
                solves += 1
        assert solves == 532

    def test_multichain_transient_start(self, monkeypatch):
        _, model, policy = TestStartDependence()._two_type_setup()
        self._agree(monkeypatch, *_full_chain(model, policy.post_ids))

    def test_random_chains_with_several_classes(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(8, 70))
            n_classes = int(rng.integers(2, 5))
            src, dst, rate, costs, level = _random_chain(rng, m, n_classes)
            (count, labels), (want_count, want_labels) = _dense_and_sparse(
                monkeypatch, _strong_components, m, src, dst, rate
            )
            # the same grouping, so each class pins the same first node
            assert count == want_count
            assert np.unique(np.stack([labels, want_labels]), axis=1).shape[1] == count
            leaving = np.unique(labels[src[labels[src] != labels[dst]]])
            assert count - leaving.size == n_classes
            # rates over four decades: against exact rationals, each path's
            # biases are off by up to 2.7e-12 of the column's largest
            self._agree(monkeypatch, src, dst, rate, costs, level, bias_rtol=1e-11)

    def test_small_random_chains_against_exact_rationals(self, monkeypatch):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(8, 21))
            src, dst, rate, costs, level = _random_chain(rng, m, int(rng.integers(2, 5)))
            want_gain, want_bias = chain_gains_exact(src, dst, rate, costs)
            scale = np.abs(want_bias).max(axis=0)
            for gain, bias in _dense_and_sparse(
                monkeypatch, _chain_gains, src, dst, rate, costs, level
            ):
                np.testing.assert_allclose(gain, want_gain, rtol=1e-12, atol=0.0)
                assert np.all(np.abs(bias - want_bias) <= 1e-11 * scale)


class TestLostAbsorptionMass:
    def test_zero_mass_is_an_error(self, monkeypatch):
        # an absorption solve that returns no mass leaves nothing to divide
        # the transient gains by: that is named, not turned into NaN
        real = mdp_solve._m_matrix_lu

        def losing(*args, **kwargs):
            solve = real(*args, **kwargs)

            def lossy(b, trans="N"):
                x = solve(b, trans=trans)
                # the absorption solve is the one with a column per cost and one for the mass
                return np.zeros_like(x) if x.ndim == 2 and x.shape[1] == 3 else x

            return lossy

        monkeypatch.setattr(mdp_solve, "_m_matrix_lu", losing)
        chain = _random_chain(np.random.default_rng(3), 12, 2)
        with pytest.raises(ValueError, match=r"12-node chain lost its mass: \d+ of \d+ transient"):
            _chain_gains(*chain)


class TestDiagonalPivots:
    def test_exact_front_base_converges_in_few_steps(self, base_instance, monkeypatch):
        # a dense LU that exchanged rows of the row-dominant systems made
        # warm-started solves cycle to MAX_ITERATIONS at tie penalties
        # and took 8,806 steps here; the sparse LU took 4,787.  Every base
        # design is traced whole, with no front to close segments unsolved
        import parmaint.app

        runs = []

        def counting(*args, **kwargs):
            res = solve_average_cost(*args, **kwargs)
            runs.append((res.iterations, res.converged))
            return res

        monkeypatch.setattr(parmaint.app, "solve_average_cost", counting)
        for design in enumerate_feasible_designs(base_instance):
            _trace_design(base_instance, design)
        assert len(runs) == 2405
        assert all(converged for _, converged in runs)
        assert sum(steps for steps, _ in runs) <= 4787


class TestEvaluatedOnce:
    """A solve warm-started from a policy that a solve evaluated reuses
    that evaluation instead of solving the same chain again."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        real = mdp_solve._policy_gains

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(mdp_solve, "_policy_gains", counting)
        return calls

    def test_warm_start_from_a_solved_policy(self, base_instance, monkeypatch):
        model = build_model(base_instance, design=(2, 1, 0, 0))
        cold = solve_average_cost(model, 1e3)
        calls = self._counting(monkeypatch)
        warm = solve_average_cost(model, 1e3, initial_policy=cold.policy)
        # the optimum is certified on its carried evaluation alone
        assert len(calls) == 0 and warm.iterations == 1 and warm.converged
        assert warm.pair == cold.pair and warm.policy == cold.policy
        np.testing.assert_array_equal(warm.gains, cold.gains)
        np.testing.assert_array_equal(warm.bias, cold.bias)

    def test_front_builders_evaluate_each_policy_once(self, base_instance, monkeypatch):
        calls = self._counting(monkeypatch)
        run_app(base_instance)
        assert len(calls) == 32
        calls.clear()
        exact_front(base_instance)
        assert len(calls) <= 2600


class TestLevelOrderFill:
    def test_large_design_factors_stay_small(self, large_instance, monkeypatch):
        # every policy of design-large factors with at most 107,810 L+U
        # nonzeros in level-parity order; a minimum-degree order gave one
        # iterate 191,513
        import scipy.sparse.linalg

        real = scipy.sparse.linalg.splu
        factors = []

        def recording(*args, **kwargs):
            lu = real(*args, **kwargs)
            factors.append(lu)
            return lu

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
        res = solve_average_cost(build_model(large_instance, design=(3, 4, 4)), 1e5)
        # 11 policies; the never-repair one's chain is small enough for the dense path
        assert res.converged and res.iterations == 11 and len(factors) == 10
        assert max(lu.L.nnz + lu.U.nnz for lu in factors) <= 120_000
        # the factor keeps the given order and exchanges no rows
        for lu in factors:
            ids = np.arange(lu.shape[0])
            assert np.array_equal(lu.perm_c, ids) and np.array_equal(lu.perm_r, ids)
