import math
from bisect import bisect_right

import numpy as np
import pytest

from parmaint import sim
from parmaint.ctmdp import build_model
from parmaint.mdp_solve import (
    MaintenancePolicy,
    evaluate_policy,
    fully_active_policy,
    solve_average_cost,
)
from parmaint.sim import (
    CHUNK_CAP,
    CHUNK_START,
    _batch_runs,
    _compile,
    _replicate,
    simulate_policy,
)

from _oracles import (
    compile_nodes,
    policy_from_rule,
    replicate_per_event,
    rvi_solve,
    sim_arrays,
    sim_loop,
    simulate_reference,
    single_type_instance,
)


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
    """The policy-iteration solver on an all-ties model and against the
    value-iteration reference, and the simulator across refills."""

    def test_ties_keep_the_current_action(self):
        # free repairs, and failure costs what running does: every policy
        # has the same cost everywhere, so every action ties and policy
        # iteration certifies its start, whichever it is, at the first
        # evaluation
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

    def test_buffer_refill_continues_the_path(self, small_model, monkeypatch):
        # the replication keeps one absolute clock across refills, so the
        # chunk sizes of its uniform draws cannot change a single bit
        res = solve_average_cost(small_model, 50.0)
        horizon, seed = 8e6, 9
        monkeypatch.setattr(sim, "BATCHES", 4)
        report = simulate_policy(small_model, res.policy, horizon=horizon, seed=seed)
        runs = []
        for chunk in (CHUNK_START, 2, 3, CHUNK_CAP):
            monkeypatch.setattr(sim, "CHUNK_START", chunk)
            runs.append(_batch_runs(small_model, res.policy, horizon, seed))
        for means_o, means_f, events, fails in runs:
            assert np.array_equal(means_o, runs[0][0])
            assert np.array_equal(means_f, runs[0][1])
            assert (events, fails) == runs[0][2:]
        means_o, means_f, events, fails = runs[0]
        assert all(2 * n > CHUNK_CAP for n in events)  # every chunking had to refill
        assert (report.g_o, report.g_f) == (means_o.mean(), means_f.mean())
        assert (report.events, report.failure_entries) == (sum(events), sum(fails))


class _Uniforms:
    """Stand-in generator that hands out the given uniforms, once."""

    def __init__(self, values):
        self.values = values

    def random(self, n):
        values, self.values = self.values, None
        assert values is not None, "the loop asked for more uniforms"
        return np.array(values)


class TestSimBatchKernel:
    def test_absorbing_state_bills_remaining_time(self):
        inst = single_type_instance(q=0.2, bound=1)
        model = build_model(inst, design=(1,))
        # never repair: after the first failure the chain is stuck
        idle = MaintenancePolicy(model, [0] * model.n_states)
        healthy, failed = model.state_id(((0, 0),)), model.state_id(((0, 1),))
        nodes = _compile(model, idle)
        out = _replicate(model, nodes, healthy, 1000.0, _Uniforms([0.5, 0.5]))
        acc_o, acc_f, events, fails, cur = out
        assert events == 1
        assert fails == 1
        assert cur == failed
        # failure time is exponential with the single unit's failure rate
        alpha = inst.components[0].alpha
        t_fail = -np.log1p(-0.5) / alpha
        assert acc_o == pytest.approx(t_fail * 1.0, rel=1e-12)
        assert acc_f == pytest.approx(1000.0 - t_fail, rel=1e-12)

    def test_draw_past_the_last_cumulative_rate_takes_the_last_arc(self, small_model):
        policy = fully_active_policy(small_model)
        start = int(policy.post_ids[0])
        lo, hi = small_model.trn_offsets[start], small_model.trn_offsets[start + 1]
        successors = policy.post_ids[small_model.trn_targets[lo:hi]]
        assert len(set(successors.tolist())) > 1
        total = small_model.outflow[start]
        t_jump = -np.log1p(-0.5) / total
        # a jump uniform of 1.5 puts the draw past every cumulative rate;
        # the end of the run falls before the second event
        t_end = np.nextafter(t_jump, np.inf)
        uniforms = [0.5, 1.5, 0.5, 0.5]
        acc_o, _, events, _, cur = _replicate(
            small_model, _compile(small_model, policy), start, t_end, _Uniforms(uniforms)
        )
        assert events == 1
        assert cur == successors[-1]
        ref = sim_loop(start, t_end, *sim_arrays(small_model, policy), np.array(uniforms))
        assert ref[2] == 1 and ref[4] == cur


def _large_policy(large_instance):
    model = build_model(large_instance, design=(3, 4, 4))
    return model, solve_average_cost(model, 1e5).policy


def _base_cases(base_instance):
    single = build_model(base_instance, (1, 0, 0, 0))
    pair = build_model(base_instance, (2, 0, 0, 0))
    reliable = build_model(base_instance, (0, 5, 0, 0))
    empty = build_model(base_instance, (0, 0, 0, 0))
    return [
        (single, fully_active_policy(single), 20000.0, 0),
        (single, MaintenancePolicy(single, [0] * single.n_states), 40000.0, 1),
        (pair, solve_average_cost(pair, 64.0).policy, 20000.0, 3),
        (reliable, fully_active_policy(reliable), 1000.0, 0),
        (empty, fully_active_policy(empty), 100.0, 0),
    ]


class TestSimAgainstReference:
    """The compiled scalar loop against the old linear-search loop."""

    @staticmethod
    def assert_matches(model, policy, horizon, seed):
        report = simulate_policy(model, policy, horizon=horizon, seed=seed)
        means, events, fails = simulate_reference(model, policy, horizon, seed=seed)
        assert report.events == events
        assert report.failure_entries == fails
        got_o, got_f, _, _ = _batch_runs(model, policy, horizon, seed)
        assert (report.g_o, report.g_f) == (got_o.mean(), got_f.mean())
        for got, want in zip(zip(got_o, got_f), means, strict=True):
            assert got == pytest.approx(want, rel=1e-9)
        return report

    def test_base_fixtures(self, base_instance):
        for model, policy, horizon, seed in _base_cases(base_instance):
            self.assert_matches(model, policy, horizon, seed)

    def test_large_design(self, large_instance):
        model, policy = _large_policy(large_instance)
        for seed in (0, 7):
            report = self.assert_matches(model, policy, 1e6, seed)
            assert report.events > 40_000 and report.failure_entries > 0


class TestPathFirstAgainstPerEventLoop:
    """The path-first replication against the per-event compiled loop."""

    @staticmethod
    def assert_matches(model, policy, t_end, rng_of):
        start = int(policy.post_ids[0])
        got = _replicate(model, _compile(model, policy), start, t_end, rng_of())
        want = replicate_per_event(compile_nodes(model, policy), start, t_end, rng_of())
        assert got[2:] == want[2:]  # events, failure entries, final post-state
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)
        return got

    def assert_batches_match(self, model, policy, horizon, seed):
        runs = []
        for child in np.random.SeedSequence(seed).spawn(20):
            rng_of = lambda: np.random.Generator(np.random.Philox(child))  # noqa: E731
            runs.append(self.assert_matches(model, policy, horizon / 20, rng_of))
        return runs

    def test_base_fixtures(self, base_instance):
        for model, policy, horizon, seed in _base_cases(base_instance):
            self.assert_batches_match(model, policy, horizon, seed)

    def test_large_design(self, large_instance):
        model, policy = _large_policy(large_instance)
        for seed in (0, 7):
            runs = self.assert_batches_match(model, policy, 1e7, seed)
            assert sum(run[2] for run in runs) > 400_000
            assert sum(run[3] for run in runs) > 0

    def test_small_chunks(self, base_instance, monkeypatch):
        model, policy, horizon, seed = _base_cases(base_instance)[2]
        for chunk in (2, 3):
            monkeypatch.setattr(sim, "CHUNK_START", chunk)
            self.assert_batches_match(model, policy, horizon, seed)

    def test_absorption_inside_a_chunk(self):
        # three copies; one damaged copy alone is repaired, two are left,
        # so two failures during one repair lead to the absorbing (0, 3)
        inst = single_type_instance(q=0.05, bound=3)
        model = build_model(inst, (3,))
        policy = policy_from_rule(model, lambda rows: (int(rows[0] == (0, 1)),))
        dead = model.state_id(((0, 3),))
        # the event count at the end of each chunk
        chunk_ends, end, chunk = [], 0, CHUNK_START
        while end < 10**5:
            end += chunk // 2
            chunk_ends.append(end)
            chunk = min(2 * chunk, CHUNK_CAP)
        counts = []
        for child in np.random.SeedSequence(5).spawn(20):
            rng_of = lambda: np.random.Generator(np.random.Philox(child))  # noqa: E731
            _, acc_f, events, _, cur = self.assert_matches(model, policy, 1e6, rng_of)
            # absorbed before the end of a chunk, then billed failed to the end
            assert cur == dead and 0 < events < 10**5 and events not in chunk_ends
            assert acc_f > 0.5e6
            counts.append(events)
        assert max(counts) > chunk_ends[0]  # some runs absorb past the first chunk

    def test_sojourn_ending_at_the_horizon_is_no_event(self, small_model):
        # both logarithms round -log1p(-0.5) alike, so the two loops share
        # one clock; the run ends exactly when the third sojourn does
        assert np.log1p(-0.5) == math.log1p(-0.5)
        policy = fully_active_policy(small_model)
        start = int(policy.post_ids[0])
        nodes = compile_nodes(small_model, policy)
        t, cur = 0.0, start
        for _ in range(3):
            total, _, _, cum, succ = nodes[cur]
            t += -math.log1p(-0.5) / total
            cur = succ[bisect_right(cum, 0.5 * total)]
        uniforms = [0.5] * 8
        got = self.assert_matches(small_model, policy, t, lambda: _Uniforms(uniforms))
        assert got[2] == 2
