import itertools
import math
import re

import numpy as np
import pytest

from parmaint import dop
from parmaint.dop import (
    StaticSolution,
    dop_objectives,
    probability_chain_values,
    solve_fdop,
    sp1_sweep,
)
from parmaint.model import ComponentType, InstanceError, load_instance, make_instance

from _oracles import (
    grid_feasible_designs,
    random_instance,
    reference_fdop,
    reference_sweep,
    single_type_instance,
    augmented_slot_objective,
    stationary_design_gain,
)


def _identical_pair(weights=(1.0, 1.0), budget=2.0):
    comps = [
        ComponentType(
            alpha=0.05, tau=1.0, usage_cost=1.0, repair_cost=10.0,
            install_cost=1.0, weight=w, label=lab,
        )
        for w, lab in zip(weights, ("a", "b"))
    ]
    return make_instance(comps, [list(weights)], [budget])


class TestClosedForms:
    def test_single_copy_of_cheapest(self, base_instance):
        g_o, ln = dop_objectives(base_instance, (1, 0, 0, 0))
        assert g_o == pytest.approx(1.99, rel=1e-12)
        assert ln == pytest.approx(math.log(0.01), rel=1e-12)

    def test_empty_design(self, base_instance):
        assert dop_objectives(base_instance, (0, 0, 0, 0)) == (0.0, 0.0)

    @pytest.mark.parametrize("count", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_count_past_int64_names_the_design(self, base_instance, count):
        design = (count, 0, 0, 0)
        reason = f"design {design} has a count past int64"
        with pytest.raises(InstanceError, match=re.escape(reason)):
            dop_objectives(base_instance, design)
        assert dop_objectives(base_instance, (2**63 - 1, 0, 0, 0))[1] < -1e19

    def test_mixed_design_table_values(self, base_instance):
        # catalog design (0,4,0,1) under usage costs (10, 10, 1, 1)
        inst = base_instance.modified(usage_costs=[10.0, 10.0, 1.0, 1.0])
        design = inst.from_catalog((0, 4, 0, 1))
        g_o, ln = dop_objectives(inst, design)
        assert g_o == pytest.approx(13.36, abs=0.005)
        assert ln == pytest.approx(-18.87, abs=0.005)

    def test_matches_stationary_enumeration(self, base_instance):
        rng = np.random.default_rng(17)
        for design in [(2, 1, 0, 0), (0, 2, 0, 2), (1, 1, 1, 1), (0, 0, 4, 0)]:
            g_o, ln = dop_objectives(base_instance, design)
            ref_o, ref_f = stationary_design_gain(base_instance, design)
            assert g_o == pytest.approx(ref_o, rel=1e-11)
            assert math.exp(ln) == pytest.approx(ref_f, rel=1e-11)
        for _ in range(10):
            inst = random_instance(rng, n_types=int(rng.integers(1, 4)))
            design = tuple(int(min(m, rng.integers(0, 4))) for m in inst.copy_bounds)
            if not inst.is_feasible(design):
                continue
            g_o, ln = dop_objectives(inst, design)
            ref_o, ref_f = stationary_design_gain(inst, design)
            assert g_o == pytest.approx(ref_o, rel=1e-10, abs=1e-12)
            assert math.exp(ln) == pytest.approx(ref_f, rel=1e-10, abs=1e-12)

    def test_usage_priority_follows_order(self):
        # only the cheap type's usage cost shows while it has copies
        comps = [
            ComponentType(alpha=0.1, tau=1.0, usage_cost=4.0, repair_cost=0.0,
                          install_cost=1.0, weight=1.0, label="dear"),
            ComponentType(alpha=0.1, tau=1.0, usage_cost=1.0, repair_cost=0.0,
                          install_cost=1.0, weight=1.0, label="cheap"),
        ]
        inst = make_instance(comps, [[1.0, 1.0]], [4.0])
        q = inst.q_vector()[0]
        g_o, _ = dop_objectives(inst, (1, 1))
        # cheap runs unless down (prob q), then dear runs unless also down
        assert g_o == pytest.approx((1 - q) * 1.0 + q * (1 - q) * 4.0, rel=1e-12)


class TestProbabilityChain:
    def test_single_copy_slots(self, base_instance):
        y, z = probability_chain_values(base_instance, (1, 0, 0, 0))
        assert y[0][0] == pytest.approx(0.99, rel=1e-12)
        assert z[0][0] == pytest.approx(0.01, rel=1e-12)
        assert np.all(y[0][1:] == 0.0)
        # uninstalled slots pass the blocked probability through unchanged
        assert z[0][3] == pytest.approx(z[0][0], rel=1e-15)
        assert z[3][-1] == pytest.approx(0.01, rel=1e-12)

    def test_empty_design_chain(self, base_instance):
        y, z = probability_chain_values(base_instance, (0, 0, 0, 0))
        assert all(np.all(yi == 0.0) for yi in y)
        assert z[-1][-1] == 1.0

    def test_shapes_follow_copy_bounds(self, base_instance):
        y, z = probability_chain_values(base_instance, (1, 2, 0, 0))
        assert len(y) == 4
        for yi, zi, bound in zip(y, z, base_instance.copy_bounds):
            assert yi.shape == (bound,)
            assert zi.shape == (bound,)

    def test_identities_on_random_designs(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            inst = random_instance(rng, n_types=int(rng.integers(1, 5)))
            design = tuple(
                int(min(m, rng.integers(0, 4))) for m in inst.copy_bounds
            )
            y, z = probability_chain_values(inst, design)
            q = inst.q_vector()
            g_o, ln = dop_objectives(inst, design)
            # usage probability of type i: every earlier type down, i not
            prefix = 1.0
            for i, x in enumerate(design):
                expect = prefix * (1.0 - q[i] ** x)
                assert float(np.sum(y[i])) == pytest.approx(
                    expect, rel=1e-12, abs=1e-15
                )
                prefix *= q[i] ** x
            assert z[-1][-1] == pytest.approx(math.exp(ln), rel=1e-12)

    def test_design_length_checked(self, base_instance):
        with pytest.raises(ValueError):
            probability_chain_values(base_instance, (1, 0))


class TestSlotObjectiveStructure:
    def test_matches_penalized_design_objective(self):
        # the slot-set extension agrees with the design objective on
        # downward-closed slot sets
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng, n_types=int(rng.integers(1, 4)))
            delta = float(rng.uniform(0.0, 0.5))
            design = tuple(
                int(min(m, rng.integers(0, 4))) for m in inst.copy_bounds
            )
            slots = {
                (i, n) for i, x in enumerate(design) for n in range(x)
            }
            g_o, ln = dop_objectives(inst, design)
            expect = g_o + (1 + delta) * inst.usage_costs().max() * math.exp(ln)
            assert augmented_slot_objective(inst, slots, delta) == pytest.approx(
                expect, rel=1e-12, abs=1e-12
            )

    def test_marginals_grow_with_the_set(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            inst = random_instance(rng, n_types=int(rng.integers(1, 4)))
            delta = float(rng.uniform(0.0, 0.5))
            universe = [
                (i, n)
                for i, m in enumerate(inst.copy_bounds)
                for n in range(min(m, 3))
            ]
            if len(universe) < 3:
                continue
            rng.shuffle(universe)
            extra = universe[0]
            rest = universe[1:]
            cut = int(rng.integers(0, len(rest)))
            small = set(rest[:cut])
            grow = int(rng.integers(cut, len(rest) + 1))
            large = set(rest[:grow])
            f = lambda s: augmented_slot_objective(inst, s, delta)
            gain_small = f(small | {extra}) - f(small)
            gain_large = f(large | {extra}) - f(large)
            assert gain_small <= gain_large + 1e-12


class TestReliabilityExtreme:
    def test_base_instance(self, base_instance):
        assert solve_fdop(base_instance) == (0, 5, 0, 0)

    def test_single_type_fills_the_bound(self):
        inst = single_type_instance(q=0.3, bound=3)
        assert solve_fdop(inst) == (3,)

    def test_lighter_of_identical_types_wins(self):
        inst = _identical_pair(weights=(1.0, 2.0), budget=4.0)
        assert solve_fdop(inst) == (4, 0)

    def test_tie_breaks_lexicographically(self):
        inst = _identical_pair(weights=(1.0, 1.0), budget=2.0)
        assert solve_fdop(inst) == (0, 2)


class TestPenalizedSolve:
    """The penalized solve at each cap, seen through the sweep's records."""

    def test_base_at_loose_cap(self, base_instance):
        sol = sp1_sweep(base_instance)[1]
        assert sol.design == (1, 0, 0, 0)
        assert sol.epsilon == -0.1
        assert sol.tag == "sweep"
        assert sol.g_o == pytest.approx(1.99, rel=1e-12)
        assert sol.objective == pytest.approx(1.99 + 1.1 * 0.01, rel=1e-10)

    def test_vacuous_cap_picks_empty(self, base_instance):
        sol = sp1_sweep(base_instance)[0]
        assert sol.design == (0, 0, 0, 0)
        assert sol.epsilon == 0.0
        assert sol.tag == "trivial"
        assert sol.objective == pytest.approx(1.1, rel=1e-12)

    def test_cap_is_respected(self, base_instance, monkeypatch):
        for eps in (-0.1, -5.0, -10.0, -16.0):
            monkeypatch.setattr(dop, "EPS_MIN", eps)
            sols = [s for s in sp1_sweep(base_instance) if s.tag == "sweep"]
            assert sols[0].epsilon == eps
            for sol in sols:
                assert sol.ln_g_f <= sol.epsilon + 1e-9

    def test_argument_validation(self, base_instance):
        with pytest.raises(ValueError, match="penalty inflation"):
            sp1_sweep(base_instance, delta=-0.2)

    def test_ties_on_identical_types(self, monkeypatch):
        # co-optimal designs are recorded least reliable first, ending
        # with the representative the plain sweep keeps
        inst = _identical_pair()
        monkeypatch.setattr(dop, "EPS_MIN", -0.1)
        tied = sp1_sweep(inst, record_ties=True)
        assert [(s.design, s.epsilon) for s in tied[:3]] == [
            ((0, 0), None),
            ((1, 0), -0.1),
            ((0, 1), -0.1),
        ]
        assert sp1_sweep(inst)[1].design == (0, 1)

    def test_matches_exhaustive_search(self, monkeypatch):
        # independent oracle: enumerate the whole feasible grid and
        # evaluate each design by brute-force state enumeration
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 12:
            inst = random_instance(rng, n_types=int(rng.integers(1, 4)))
            delta = float(rng.uniform(0.0, 0.4))
            caps = inst.copy_bounds
            if np.prod([c + 1 for c in caps]) > 500:
                continue
            designs = grid_feasible_designs(inst)
            gains = [stationary_design_gain(inst, d) for d in designs]
            lns = [math.log(f) if f > 0 else 0.0 for _, f in gains]
            eps = float(rng.uniform(0.1, 0.9) * min(lns))
            c_top = inst.usage_costs().max()
            feas = [
                (g + (1 + delta) * c_top * f, d)
                for (g, f), ln, d in zip(gains, lns, designs)
                if ln <= eps + 1e-12
            ]
            if not feas:
                continue
            best = min(v for v, _ in feas)
            monkeypatch.setattr(dop, "EPS_MIN", eps)
            sols = sp1_sweep(inst, delta=delta)
            sol = next(s for s in sols if s.epsilon == eps)
            assert sol.objective == pytest.approx(best, rel=1e-9, abs=1e-12)
            checked += 1


class TestSweep:
    def test_base_defaults(self, base_instance):
        sols = sp1_sweep(base_instance)
        assert [s.design for s in sols] == [
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (2, 0, 0, 0),
            (3, 0, 0, 0),
            (4, 0, 0, 0),
            (0, 5, 0, 0),
        ]
        assert [s.tag for s in sols] == ["trivial"] + ["sweep"] * 5
        lns = [s.ln_g_f for s in sols]
        assert lns == sorted(lns, reverse=True)
        # each cap is the previous representative's level plus the step
        for prev, cur in zip(sols, sols[1:]):
            assert cur.epsilon == pytest.approx(prev.ln_g_f - 0.1, abs=1e-12)

    def test_single_type_enumerates_every_level(self):
        inst = single_type_instance(q=0.1, repair=3.0, bound=2)
        sols = sp1_sweep(inst)
        assert [s.design for s in sols] == [(0,), (1,), (2,)]

    def test_huge_step_jumps_to_the_extreme(self, base_instance, monkeypatch):
        monkeypatch.setattr(dop, "DELTA_EPS", -1000.0)
        sols = sp1_sweep(base_instance)
        assert [(s.design, s.tag) for s in sols] == [
            ((0, 0, 0, 0), "trivial"),
            ((0, 5, 0, 0), "reliability"),
        ]

    def test_start_below_the_extreme(self, base_instance, monkeypatch):
        monkeypatch.setattr(dop, "EPS_MIN", -30.0)
        sols = sp1_sweep(base_instance)
        assert [s.tag for s in sols] == ["trivial", "reliability"]

    def test_tie_recording(self):
        inst = _identical_pair()
        sols = sp1_sweep(inst, record_ties=True)
        assert [s.design for s in sols] == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]
        plain = sp1_sweep(inst, record_ties=False)
        assert [s.design for s in plain] == [(0, 0), (0, 1), (0, 2)]

    def test_representative_is_most_reliable_tie(self):
        comps = [
            ComponentType(alpha=0.05, tau=1.0, usage_cost=1.0, repair_cost=10.0,
                          install_cost=1.0, weight=1.0, label="a"),
            ComponentType(alpha=0.1, tau=1.0, usage_cost=1.0, repair_cost=5.0,
                          install_cost=1.0, weight=1.0, label="b"),
        ]
        for inst in (make_instance(comps, [[1.0, 1.0]], [4.0]), _identical_pair()):
            tied = sp1_sweep(inst, record_ties=True)
            for sol in (s for s in sp1_sweep(inst) if s.tag == "sweep"):
                ties = [t for t in tied if t.epsilon == sol.epsilon]
                assert sol.design == ties[-1].design
                assert sol.ln_g_f == min(t.ln_g_f for t in ties)


class TestOneEnumerationPerSweep:
    @staticmethod
    def _count_enumerations(monkeypatch):
        calls = []
        real = dop.enumerate_feasible_designs

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dop, "enumerate_feasible_designs", counted)
        return calls

    def test_base(self, base_instance, monkeypatch):
        calls = self._count_enumerations(monkeypatch)
        sols = sp1_sweep(base_instance)
        assert len(calls) == 1
        assert [(s.design, s.tag) for s in sols] == [
            ((0, 0, 0, 0), "trivial"),
            ((1, 0, 0, 0), "sweep"),
            ((2, 0, 0, 0), "sweep"),
            ((3, 0, 0, 0), "sweep"),
            ((4, 0, 0, 0), "sweep"),
            ((0, 5, 0, 0), "sweep"),
        ]

    def test_large(self, large_instance, monkeypatch):
        calls = self._count_enumerations(monkeypatch)
        sols = sp1_sweep(large_instance)
        assert len(calls) == 1
        assert [(s.design, s.tag) for s in sols] == [((0, 0, 0), "trivial")] + [
            ((k, 0, 0), "sweep") for k in range(1, 12)
        ]

    def test_with_ties(self, base_instance, monkeypatch):
        calls = self._count_enumerations(monkeypatch)
        sp1_sweep(base_instance, delta=0.0, record_ties=True)
        assert len(calls) == 1


class TestAgainstReference:
    """The sorted-table sweep against the per-cap masked argmin, bit for bit."""

    ARGUMENTS = [  # (EPS_MIN, DELTA_EPS, delta)
        (0.0, -0.1, 0.1),
        (-2.0, -0.05, 0.0),
        (0.0, -1e-3, 0.5),
        (-0.5, -0.3, 2.0),
    ]

    @staticmethod
    def _instances(base_instance, large_instance, instances_dir):
        single = load_instance(instances_dir.parent / "perfbench" / "data" / "single-1.json")
        yield from (base_instance, single, large_instance, _identical_pair())
        rng = np.random.default_rng(53)
        for _ in range(300):
            yield random_instance(rng)
        # a twin of one type makes exact ties in ln failure and objective,
        # which only the tie order and the tie tolerance decide
        for _ in range(60):
            comps, a = random_instance(rng)._catalog_view()
            twin = ComponentType(**{**vars(comps[0]), "label": "twin"})
            yield make_instance(comps + [twin], np.hstack([a, a[:, :1]]), [8.0] * len(a))

    def test_sweeps_and_extreme_match(
        self, base_instance, large_instance, instances_dir, monkeypatch
    ):
        fields = lambda s: (s.design, s.g_o, s.ln_g_f, s.tag, s.epsilon, s.objective)
        for inst in self._instances(base_instance, large_instance, instances_dir):
            assert solve_fdop(inst) == reference_fdop(inst)
            for eps_min, delta_eps, delta in self.ARGUMENTS:
                monkeypatch.setattr(dop, "EPS_MIN", eps_min)
                monkeypatch.setattr(dop, "DELTA_EPS", delta_eps)
                for ties in (False, True):
                    got = sp1_sweep(inst, delta=delta, record_ties=ties)
                    want = reference_sweep(inst, eps_min, delta_eps, delta, record_ties=ties)
                    assert list(map(fields, got)) == list(map(fields, want))


class TestDesignListing:
    """The array listing against the brute-force grid filter."""

    def test_committed_instances(self, base_instance, large_instance, instances_dir):
        single = load_instance(instances_dir.parent / "perfbench" / "data" / "single-1.json")
        for inst, want in ((base_instance, 76), (single, 5), (large_instance, 364)):
            designs = dop.enumerate_feasible_designs(inst)
            assert len(designs) == want
            assert designs == grid_feasible_designs(inst)

    def test_random_instances(self):
        # zeroed coefficients leave a type out of some rows; a type left out
        # of every row is rejected, and then gets its column back
        rng = np.random.default_rng(47)
        unrowed = 0
        for _ in range(40):
            inst = random_instance(rng, n_types=int(rng.integers(1, 5)))
            comps, a = inst._catalog_view()
            full = a.copy()
            a[rng.random(a.shape) < 0.3] = 0.0
            free = ~a.any(axis=0)
            if free.any():
                with pytest.raises(InstanceError, match="is not limited by any constraint row"):
                    make_instance(comps, a, inst.constraint_bounds)
                a[:, free] = full[:, free]
                unrowed += int(free.sum())
            inst = make_instance(comps, a, inst.constraint_bounds)
            designs = dop.enumerate_feasible_designs(inst)
            assert designs == grid_feasible_designs(inst)
            assert all(type(v) is int for x in designs for v in x)
            tops = (range(cap + 2) for cap in inst.copy_bounds)  # one copy past each bound
            assert designs == [x for x in itertools.product(*tops) if inst.is_feasible(x)]
        assert unrowed >= 10


class TestStaticSolutionRecord:
    def test_defaults(self):
        sol = StaticSolution(design=(1, 0), g_o=2.0, ln_g_f=-3.0)
        assert sol.tag == "sweep"
        assert sol.epsilon is None
        assert sol.objective is None
