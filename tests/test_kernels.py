import numpy as np
import pytest

from parmaint.ctmdp import build_model
from parmaint.mdp_solve import evaluate_policy, fully_active_policy, solve_average_cost
from parmaint.sim import CHUNK_START, _batch_arrays, _sim_loop, simulate_policy

from _oracles import (
    greedy_choice,
    greedy_loop,
    rvi_loop,
    rvi_solve,
    rvi_sweeps,
    single_type_instance,
    uniformized_arrays,
)

# (design, penalty): moderate, large and clamp-sized failure penalties
LOOP_CASES = [((2, 1, 0, 0), 37.0), ((3, 1, 0, 0), 1e5), ((1, 0, 0, 0), 1e12)]


@pytest.fixture(scope="module")
def small_model(base_instance):
    # base_instance is session-scoped, so requesting it here is fine
    return build_model(base_instance, design=(2, 1, 0, 0))


class TestSolverKernels:
    def test_single_copy_gain(self, base_instance):
        res = solve_average_cost(build_model(base_instance, design=(1, 0, 0, 0)), 100.0)
        assert res.converged
        assert res.gain == pytest.approx(2.99, abs=1e-8)


class TestLoopAgreement:
    """The vectorized value-iteration reference against the plain loops,
    and the policy-iteration solver against that reference."""

    def test_rvi_sweeps_bitwise(self, base_instance):
        for design, penalty in LOOP_CASES:
            model = build_model(base_instance, design=design)
            arrays, _ = uniformized_arrays(model, penalty)
            v_np = np.zeros(model.n_states)
            v_loop = np.zeros(model.n_states)
            out_np = rvi_sweeps(*arrays, v_np, 1e-10, 5000)
            out_loop = rvi_loop(*arrays, v_loop, 1e-10, 5000)
            assert out_np == out_loop  # iterations, span, dmin, dmax exactly
            assert np.array_equal(v_np, v_loop)

    def test_greedy_choice_bitwise(self, base_instance):
        for design, penalty in LOOP_CASES:
            model = build_model(base_instance, design=design)
            arrays, _ = uniformized_arrays(model, penalty)
            v = np.zeros(model.n_states)
            rvi_sweeps(*arrays, v, 1e-10, 5000)
            assert np.array_equal(greedy_choice(*arrays, v), greedy_loop(*arrays, v))

    def test_greedy_ties_pick_the_first_action(self):
        # free repairs, and failure costs what running does: every policy
        # has the same cost everywhere, so every action ties
        inst = single_type_instance(usage=1.0, repair=0.0, bound=2)
        model = build_model(inst, design=(2,))
        arrays, _ = uniformized_arrays(model, 1.0)
        v = np.zeros(model.n_states)
        rvi_sweeps(*arrays, v, 1e-10, 5000)
        choice = greedy_choice(*arrays, v)
        assert np.array_equal(choice, greedy_loop(*arrays, v))
        assert not choice.any()

    def test_ties_keep_the_current_action(self):
        # the same all-ties model: policy iteration certifies its start,
        # whichever it is, at the first evaluation
        inst = single_type_instance(usage=1.0, repair=0.0, bound=2)
        model = build_model(inst, design=(2,))
        for start in (None, fully_active_policy(model)):
            res = solve_average_cost(model, 1.0, initial_policy=start)
            assert res.converged and res.iterations == 1
            want = np.zeros(model.n_states) if start is None else start.choice
            assert np.array_equal(res.policy.choice, want)

    def test_solver_matches_rvi_reference(self, small_model):
        for penalty in (0.5, 50.0, 1e4):
            res = solve_average_cost(small_model, penalty)
            assert res.converged
            exact = evaluate_policy(small_model, res.policy).scalarized(penalty)
            assert res.gain == pytest.approx(exact, rel=1e-12)
            policy, bracket_mid = rvi_solve(small_model, penalty)
            rvi = evaluate_policy(small_model, policy).scalarized(penalty)
            assert exact == pytest.approx(rvi, rel=1e-12)
            assert exact == pytest.approx(bracket_mid, rel=1e-9)

    def test_buffer_refill_continues_the_path(self, small_model):
        # simulate_policy draws uniforms in growing chunks; one long buffer
        # from the same stream must give the same batch up to the rounding
        # of restarting the clock at each refill
        res = solve_average_cost(small_model, 50.0)
        horizon, batches, seed = 2e6, 4, 9
        report = simulate_policy(
            small_model, res.policy, horizon=horizon, batches=batches, seed=seed
        )
        arrays = _batch_arrays(small_model, res.policy)
        start = int(res.policy.post_ids[0])
        t_batch = horizon / batches
        events = 0
        for b, child in enumerate(np.random.SeedSequence(seed).spawn(batches)):
            rng = np.random.Generator(np.random.Philox(child))
            acc_o, acc_f, d_ev, _, _, t, _, exhausted = _sim_loop(
                start, t_batch, *arrays, rng.random(1 << 16)
            )
            assert not exhausted and t == t_batch
            assert 2 * d_ev > CHUNK_START  # the chunked run had to refill
            assert acc_o / t_batch == pytest.approx(report.batch_g_o[b], rel=1e-9)
            assert acc_f / t_batch == pytest.approx(report.batch_g_f[b], rel=1e-9)
            events += d_ev
        assert events == report.events


class TestSimBatchKernel:
    def test_absorbing_state_bills_remaining_time(self):
        inst = single_type_instance(q=0.2, bound=1)
        model = build_model(inst, design=(1,))
        # never repair: after the first failure the chain is stuck
        policy_post = np.array(
            [model.state_id(((0, 0),)), model.state_id(((0, 1),)),
             model.state_id(((0, 0),))],
            dtype=np.int64,
        )
        state_arrays = (
            policy_post,
            model.trn_offsets,
            model.trn_targets,
            model.trn_rates,
            model.outflow,
            model.cost_op,
            model.cost_fail.astype(np.float64),
        )
        uniforms = np.array([0.5, 0.5, 0.5, 0.5])
        out = _sim_loop(model.state_id(((0, 0),)), 1000.0, *state_arrays, uniforms)
        acc_o, acc_f, events, fails, cur, t, pos, exhausted = out
        assert not exhausted
        assert t == 1000.0
        assert events == 1
        assert fails == 1
        assert cur == model.state_id(((0, 1),))
        # failure time is exponential with the single unit's failure rate
        alpha = inst.components[0].alpha
        t_fail = -np.log1p(-0.5) / alpha
        assert acc_o == pytest.approx(t_fail * 1.0, rel=1e-12)
        assert acc_f == pytest.approx(1000.0 - t_fail, rel=1e-12)

    def test_buffer_exhaustion_reported(self):
        inst = single_type_instance(q=0.2, bound=1)
        model = build_model(inst, design=(1,))
        policy_post = np.array(
            [0, model.state_id(((1, 0),)), model.state_id(((1, 0),))],
            dtype=np.int64,
        )
        state_arrays = (
            policy_post,
            model.trn_offsets,
            model.trn_targets,
            model.trn_rates,
            model.outflow,
            model.cost_op,
            model.cost_fail.astype(np.float64),
        )
        uniforms = np.array([0.5, 0.5, 0.5])  # room for 1.5 events only
        out = _sim_loop(0, 1e9, *state_arrays, uniforms)
        assert out[-1] is True or out[-1] == 1  # exhausted flag
        assert out[6] <= 3
