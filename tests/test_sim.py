import math

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
    MIN_FAILURE_ENTRIES,
    SIM_EVENT_CEILING,
    _batch_runs,
    simulate_policy,
)

from _oracles import single_type_instance


@pytest.fixture(scope="module")
def single_model(base_instance):
    return build_model(base_instance, (1, 0, 0, 0))


@pytest.fixture(scope="module")
def single_report(single_model):
    policy = fully_active_policy(single_model)
    return simulate_policy(single_model, policy, horizon=20000.0, seed=0)


@pytest.fixture(scope="module")
def single_batches(single_model):
    """Per-batch means and events of the run behind ``single_report``."""
    return _batch_runs(single_model, fully_active_policy(single_model), 20000.0, 0)


class TestReportStructure:
    def test_means_match_batch_arrays(self, single_report, single_batches):
        r = single_report
        means_o, means_f, _, _ = single_batches
        assert len(means_o) == r.batches == 20
        assert r.g_o == pytest.approx(np.mean(means_o), rel=1e-12)
        assert r.g_f == pytest.approx(np.mean(means_f), rel=1e-12)

    def test_standard_errors_recompute(self, single_report, single_batches):
        r = single_report
        means_o, means_f, _, _ = single_batches
        want_o = np.std(means_o, ddof=1) / math.sqrt(r.batches)
        want_f = np.std(means_f, ddof=1) / math.sqrt(r.batches)
        assert r.se_g_o == pytest.approx(want_o, rel=1e-12)
        assert r.se_g_f == pytest.approx(want_f, rel=1e-12)

    def test_bookkeeping_fields(self, single_report):
        r = single_report
        assert r.horizon == 20000.0
        assert r.seed == 0
        assert r.events >= r.failure_entries > 0


class TestDeterminism:
    def test_same_seed_bitwise(self, single_model):
        policy = fully_active_policy(single_model)
        a = simulate_policy(single_model, policy, horizon=500.0, seed=7)
        b = simulate_policy(single_model, policy, horizon=500.0, seed=7)
        assert a == b

    def test_different_seed_differs(self, single_model):
        policy = fully_active_policy(single_model)
        a = simulate_policy(single_model, policy, horizon=500.0, seed=7)
        b = simulate_policy(single_model, policy, horizon=500.0, seed=8)
        assert a.g_o != b.g_o

    def test_batch_count_sets_array_length(self, single_model, monkeypatch):
        policy = fully_active_policy(single_model)
        monkeypatch.setattr(sim, "BATCHES", 5)
        r = simulate_policy(single_model, policy, horizon=500.0)
        means_o, means_f, events, fails = _batch_runs(single_model, policy, 500.0, 0)
        assert r.batches == len(means_o) == len(means_f) == 5
        assert (r.g_o, r.g_f) == (means_o.mean(), means_f.mean())
        assert (r.events, r.failure_entries) == (sum(events), sum(fails))


class TestAgreementWithExactEvaluation:
    def test_fully_active_single_copy(self, single_model, single_report):
        exact = evaluate_policy(single_model, fully_active_policy(single_model))
        r = single_report
        assert abs(r.g_o - exact.g_o) <= 4.0 * r.se_g_o
        assert abs(r.g_f - math.exp(exact.ln_g_f)) <= 4.0 * r.se_g_f

    def test_solved_policy_two_copies(self, base_instance):
        model = build_model(base_instance, (2, 0, 0, 0))
        res = solve_average_cost(model, penalty=64.0)
        exact = evaluate_policy(model, res.policy)
        r = simulate_policy(model, res.policy, horizon=20000.0, seed=3)
        assert abs(r.g_o - exact.g_o) <= 4.0 * r.se_g_o
        assert abs(r.g_f - math.exp(exact.ln_g_f)) <= 4.0 * r.se_g_f

    def test_plain_birth_death(self):
        inst = single_type_instance(q=0.2, tau=1.0, usage=1.0, repair=2.0)
        model = build_model(inst, (1,))
        r = simulate_policy(model, fully_active_policy(model), horizon=2000.0)
        assert not r.rare_failure
        assert abs(r.g_o - 1.2) <= 4.0 * r.se_g_o
        assert abs(r.g_f - 0.2) <= 4.0 * r.se_g_f


class TestRareFailureFlag:
    def test_reliable_design_is_flagged(self, base_instance):
        model = build_model(base_instance, (0, 5, 0, 0))
        policy = fully_active_policy(model)
        r = simulate_policy(model, policy, horizon=1000.0)
        assert r.failure_entries < MIN_FAILURE_ENTRIES
        assert r.rare_failure
        assert r.g_f <= 1e-4

    def test_fragile_design_is_not(self, single_report):
        assert single_report.failure_entries >= MIN_FAILURE_ENTRIES
        assert not single_report.rare_failure


class TestAbsorption:
    def test_empty_design_always_failed(self, base_instance):
        model = build_model(base_instance, (0, 0, 0, 0))
        policy = fully_active_policy(model)
        r = simulate_policy(model, policy, horizon=100.0)
        assert r.g_o == 0.0
        assert r.g_f == 1.0 and r.se_g_f == 0.0  # every batch failed throughout
        assert r.events == 0

    def test_never_repair_sticks(self, single_model):
        idle = MaintenancePolicy(single_model, [0] * single_model.n_states)
        r = simulate_policy(single_model, idle, horizon=40000.0, seed=1)
        assert r.events == r.failure_entries == r.batches
        assert 0.9 < r.g_f < 1.0
        assert r.g_o < 0.1


class TestValidation:
    def test_horizon_positive(self, single_model):
        policy = fully_active_policy(single_model)
        for horizon in (0.0, -5.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                simulate_policy(single_model, policy, horizon=horizon)

    @pytest.mark.parametrize("other", [(0, 2, 0, 0), (1, 0, 0, 0)])
    def test_policy_of_another_model(self, base_instance, other):
        # (2,0,0,0) and (0,2,0,0) both have 6 states, so only the check
        # tells their policies apart; (1,0,0,0) has 3
        model = build_model(base_instance, (2, 0, 0, 0))
        policy = fully_active_policy(build_model(base_instance, other))
        with pytest.raises(ValueError, match="policy belongs to another model"):
            evaluate_policy(model, policy)
        with pytest.raises(ValueError, match="policy belongs to another model"):
            simulate_policy(model, policy, horizon=10.0)

    def test_horizon_beyond_event_ceiling(self, single_model):
        policy = fully_active_policy(single_model)
        horizon = 1.001 * SIM_EVENT_CEILING / single_model.max_outflow
        for h in (horizon, 1e30):
            with pytest.raises(ValueError, match="over the ceiling"):
                simulate_policy(single_model, policy, horizon=h)
