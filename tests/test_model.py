import itertools
import math
import re

import numpy as np
import pytest

from parmaint import dop
from parmaint.ctmdp import build_model
from parmaint.model import (
    ComponentType,
    InstanceError,
    instance_document,
    derive_failure_rate,
    load_instance,
    make_instance,
    write_instance,
)

from _oracles import single_type_instance


def _comp(**kw):
    base = dict(
        alpha=0.1,
        tau=1.0,
        usage_cost=1.0,
        repair_cost=10.0,
        install_cost=2.0,
        weight=3.0,
    )
    base.update(kw)
    return ComponentType(**base)


class TestDeriveFailureRate:
    def test_half_reliability_unit_repair(self):
        assert derive_failure_rate(0.5, 1.0) == pytest.approx(1.0)

    def test_half_reliability_double_repair(self):
        assert derive_failure_rate(0.5, 2.0) == pytest.approx(2.0)

    def test_high_reliability(self):
        assert derive_failure_rate(0.99, 1.0) == pytest.approx(0.01 / 0.99)

    def test_low_reliability(self):
        assert derive_failure_rate(0.96, 1.0) == pytest.approx(0.04 / 0.96)

    def test_round_trip_with_component(self):
        alpha = derive_failure_rate(0.97, 1.4)
        comp = _comp(alpha=alpha, tau=1.4)
        assert comp.unavailability == pytest.approx(0.03)

    def test_rejects_degenerate_reliability(self):
        with pytest.raises(InstanceError):
            derive_failure_rate(0.0, 1.0)
        with pytest.raises(InstanceError):
            derive_failure_rate(1.0, 1.0)
        with pytest.raises(InstanceError):
            derive_failure_rate(0.5, 0.0)


class TestComponentType:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(InstanceError):
            _comp(alpha=0.0)
        with pytest.raises(InstanceError):
            _comp(alpha=-1.0)
        with pytest.raises(InstanceError):
            _comp(tau=0.0)

    def test_rejects_negative_costs(self):
        for field in ("usage_cost", "repair_cost", "install_cost", "weight"):
            with pytest.raises(InstanceError):
                _comp(**{field: -0.5})

    def test_rejects_non_finite(self):
        with pytest.raises(InstanceError):
            _comp(alpha=math.inf)
        with pytest.raises(InstanceError):
            _comp(usage_cost=math.nan)

    def test_zero_costs_allowed(self):
        comp = _comp(usage_cost=0.0, repair_cost=0.0)
        assert comp.usage_cost == 0.0

    def test_availability_split(self):
        comp = _comp(alpha=0.25, tau=0.75)
        assert comp.unavailability == pytest.approx(0.25)


class TestMakeInstanceValidation:
    def test_empty_catalog(self):
        with pytest.raises(InstanceError, match="empty"):
            make_instance([], np.zeros((1, 0)), [1.0])

    def test_column_count_mismatch(self):
        with pytest.raises(InstanceError, match="column"):
            make_instance([_comp()], [[1.0, 2.0]], [5.0])

    def test_bound_count_mismatch(self):
        with pytest.raises(InstanceError, match="bounds"):
            make_instance([_comp()], [[1.0]], [5.0, 6.0])

    def test_negative_coefficient(self):
        with pytest.raises(InstanceError, match="non-negative"):
            make_instance([_comp()], [[-1.0]], [5.0])

    def test_negative_bound(self):
        with pytest.raises(InstanceError, match="non-negative"):
            make_instance([_comp()], [[1.0]], [-5.0])

    def test_name_count_mismatch(self):
        with pytest.raises(InstanceError, match="name"):
            make_instance([_comp()], [[1.0]], [5.0], names=["a", "b"])

    def test_duplicate_labels(self):
        comps = [_comp(label="x"), _comp(label="x")]
        with pytest.raises(InstanceError, match="duplicate"):
            make_instance(comps, [[1.0, 1.0]], [5.0])

    def test_whitespace_label(self):
        with pytest.raises(InstanceError, match="whitespace"):
            make_instance([_comp(label="a b")], [[1.0]], [5.0])

    def test_missing_labels_filled_by_position(self):
        inst = make_instance([_comp(), _comp()], [[1.0, 1.0]], [5.0])
        assert inst.labels == ("1", "2")

    def test_unconstrained_type_without_repair_cost_rejected(self):
        # a zero constraint column would leave the copy count unbounded
        comps = [_comp(label="a"), _comp(label="b", repair_cost=0.0)]
        with pytest.raises(
            InstanceError, match="^component type 'b' is not limited by any constraint row$"
        ):
            make_instance(comps, [[1.0, 0.0]], [5.0])

    def test_unconstrained_type_that_is_never_available_rejected(self):
        # q = 1 / (1 + 1e-300) rounds to 1; the missing row is what is named
        comps = [_comp(label="a"), _comp(label="b", alpha=1.0, tau=1e-300)]
        with pytest.raises(InstanceError, match="'b' is not limited"):
            make_instance(comps, [[1.0, 0.0]], [5.0])

    @pytest.mark.parametrize("column", [1.0, 0.0], ids=["limited", "unlimited"])
    def test_unavailability_rounding_to_zero_rejected(self, column):
        # q = 1e-320 / (1e-320 + 1e10) underflows to 0, so ln q = -inf
        comps = [_comp(label="a"), _comp(label="b", alpha=1e-320, tau=1e10)]
        with pytest.raises(InstanceError, match="'b' has unavailability rounding to 0"):
            make_instance(comps, [[1.0, column]], [5.0])

    def test_bound_over_coefficient_overflow_rejected(self):
        # 1e300 / 1e-300 is past every float: no copy bound can be taken
        comps = [_comp(label="a"), _comp(label="b")]
        with pytest.raises(InstanceError, match="constraint 'slots' .* type 'b' overflows"):
            make_instance(comps, [[1.0, 1e-300]], [1e300], names=["slots"])


class TestCanonicalOrder:
    def test_sorted_by_usage_cost_stable(self):
        comps = [
            _comp(label="a", usage_cost=5.0),
            _comp(label="b", usage_cost=2.0),
            _comp(label="c", usage_cost=2.0),
            _comp(label="d", usage_cost=1.0),
        ]
        inst = make_instance(comps, np.ones((1, 4)), [10.0])
        assert inst.labels == ("d", "b", "c", "a")
        assert inst.catalog_order == (3, 1, 2, 0)

    def test_constraint_columns_follow_order(self):
        comps = [_comp(label="a", usage_cost=9.0), _comp(label="b", usage_cost=1.0)]
        inst = make_instance(comps, [[3.0, 7.0]], [21.0])
        assert inst.constraints[0, 0] == 7.0
        assert inst.constraints[0, 1] == 3.0
        assert inst.copy_bounds == (3, 7)

    def test_catalog_round_trip(self):
        comps = [
            _comp(label="a", usage_cost=5.0),
            _comp(label="b", usage_cost=1.0),
            _comp(label="c", usage_cost=3.0),
        ]
        inst = make_instance(comps, np.ones((1, 3)), [9.0])
        catalog_counts = (7, 8, 9)
        design = inst.from_catalog(catalog_counts)
        assert design == (8, 9, 7)
        assert inst.to_catalog(design) == catalog_counts

    def test_vector_accessors(self):
        comps = [_comp(label="a", alpha=0.5, tau=1.5, repair_cost=4.0)]
        inst = make_instance(comps, [[1.0]], [2.0])
        assert inst.n_types == 1
        assert inst.q_vector()[0] == pytest.approx(0.25)
        assert inst.ln_q_vector()[0] == pytest.approx(math.log(0.25))
        assert inst.components[0].alpha == 0.5
        assert inst.components[0].tau == 1.5
        assert inst.repair_costs()[0] == 4.0


class TestFeasibility:
    def test_within_budget(self, base_instance):
        assert base_instance.is_feasible((1, 0, 0, 0))
        assert base_instance.is_feasible((0, 5, 0, 0))
        assert base_instance.is_feasible((0, 0, 0, 0))

    def test_over_budget(self, base_instance):
        assert not base_instance.is_feasible((9, 9, 9, 9))
        assert not base_instance.is_feasible((10**400, 0, 0, 0))

    def test_bad_shape_or_sign(self, base_instance):
        assert not base_instance.is_feasible((1, 0, 0))
        assert not base_instance.is_feasible((-1, 0, 0, 0))

    def test_unlimited_count_past_int64_is_judged_in_integers(self):
        # a tiny coefficient gives "b" a copy bound near 2e30, past int64
        comps = [_comp(label="a"), _comp(label="b", usage_cost=2.0)]
        inst = make_instance(comps, [[1.0, 1e-30]], [2.0])
        assert inst.copy_bounds == (2, math.floor(2.0 / 1e-30))
        assert inst.is_feasible((2, 2**64))
        assert not inst.is_feasible((3, 2**64))
        assert not inst.is_feasible((0, inst.copy_bounds[1] + 1))
        assert not inst.is_feasible((0, 10**400))

    def test_count_above_copy_bound_rejected(self):
        # floor(b / a + 1e-12) = 0, though a exceeds b by only 1e-13
        inst = make_instance([_comp()], [[1.0000000001e-3]], [1e-3])
        assert inst.copy_bounds == (0,)
        assert inst.is_feasible((0,))
        assert not inst.is_feasible((1,))

    def test_matches_the_design_listing_on_boundary_instances(self):
        # coefficients c k and bounds c m (1 +- 1e-10): rows hit their
        # bounds to within rounding, and at c = 1, m near 10 the 1e-9
        # slack is decided by the order the terms are subtracted in
        rng = np.random.default_rng(11)
        checked = rejected = 0
        for trial in range(600):
            c = (1e-3, 1.0, 1e6)[trial % 3]
            n, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            k = rng.integers(0, 10, size=(r, n)).astype(float)
            k[:, rng.random(n) < 0.2] = 0.0  # some types in no row
            b = c * rng.integers(0, 12, size=r) * (1.0 + rng.choice([-1e-10, 0.0, 1e-10], r))
            comps = [_comp(label=f"t{i}", usage_cost=float(i + 1)) for i in range(n)]
            free = ~k.any(axis=0)
            if free.any():  # rejected, naming the first such type; then given a row
                with pytest.raises(InstanceError, match=f"'t{np.argmax(free)}' is not limited"):
                    make_instance(comps, c * k, b)
                k[rng.integers(0, r), free] = rng.integers(1, 10, size=int(free.sum()))
                rejected += 1
            inst = make_instance(comps, c * k, b)
            listed = set(dop.enumerate_feasible_designs(inst))
            for x in itertools.product(*(range(cap + 2) for cap in inst.copy_bounds)):
                assert inst.is_feasible(x) == (x in listed), (inst.constraints, b, x)
                checked += 1
        assert checked > 5_000
        assert rejected > 50


class TestCheckDesign:
    BAD = [
        ((1.5, 0, 0, 0), "design (1.5, 0, 0, 0) needs non-negative integer counts"),
        (("2", 0, 0, 0), "design ('2', 0, 0, 0) needs non-negative integer counts"),
        ((-1, 0, 0, 0), "design (-1, 0, 0, 0) needs non-negative integer counts"),
        ((1, 0, 0), "design needs 4 counts, got 3"),
    ]

    def test_counts_become_python_ints(self, base_instance):
        design = base_instance.check_design(np.array([1, 0, 2, 0]))
        assert design == (1, 0, 2, 0)
        assert all(type(c) is int for c in design)

    @pytest.mark.parametrize("design, reason", BAD)
    def test_every_entry_point_rejects_a_bad_design(self, base_instance, design, reason):
        for check in (
            base_instance.check_design,
            base_instance.from_catalog,
            lambda x: build_model(base_instance, x),
            lambda x: dop.dop_objectives(base_instance, x),
            lambda x: dop.probability_chain_values(base_instance, x),
        ):
            with pytest.raises(InstanceError, match=re.escape(reason)):
                check(design)
        assert not base_instance.is_feasible(design)


class TestCopyBounds:
    def test_base_instance_bounds(self, base_instance):
        assert base_instance.copy_bounds == (4, 5, 4, 5)

    def test_single_row_floor(self):
        inst = make_instance([_comp(weight=1.0)], [[1.0]], [3.0])
        assert inst.copy_bounds == (3,)

    def test_floor_is_exact_on_integer_ratio(self):
        inst = make_instance([_comp()], [[2.0]], [6.0])
        assert inst.copy_bounds == (3,)

    def test_multiple_rows_take_min(self):
        inst = make_instance([_comp()], [[2.0], [5.0]], [6.0, 10.0])
        assert inst.copy_bounds == (2,)


class TestModified:
    def test_usage_costs_resort(self, base_instance):
        inst = base_instance.modified(usage_costs=[10.0, 1.0, 1.0, 1.0])
        # catalog type 1 becomes the most expensive and sinks to the end
        assert inst.labels == ("2", "3", "4", "1")
        assert inst.usage_costs()[-1] == 10.0

    def test_repair_costs_keep_order(self, base_instance):
        inst = base_instance.modified(repair_costs=[300.0, 100.0, 100.0, 100.0])
        assert inst.labels == base_instance.labels
        assert inst.repair_costs()[0] == 300.0

    def test_rate_multipliers_scale_both_rates(self, base_instance):
        inst = base_instance.modified(rate_multipliers=[2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(
            inst.q_vector(), base_instance.q_vector(), rtol=1e-12
        )
        factors = [2.0, 3.0, 4.0, 5.0]
        for comp, old, f in zip(
            inst.components, base_instance.components, factors
        ):
            assert comp.alpha == pytest.approx(old.alpha * f)
            assert comp.tau == pytest.approx(old.tau * f)

    def test_multiplier_count_checked(self, base_instance):
        with pytest.raises(InstanceError):
            base_instance.modified(rate_multipliers=[2.0, 3.0])

    def test_no_override_keeps_a_permuted_instance(self):
        comps = [
            _comp(label="a", usage_cost=5.0, weight=1.0),
            _comp(label="b", usage_cost=1.0, weight=2.0),
            _comp(label="c", usage_cost=3.0, weight=4.0),
        ]
        inst = make_instance(comps, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [9.0, 30.0])
        again = inst.modified()
        assert again.components == inst.components
        assert again.catalog_order == inst.catalog_order == (1, 2, 0)
        np.testing.assert_array_equal(again.constraints, inst.constraints)


class TestLoaders:
    def test_base_values(self, base_instance):
        assert base_instance.n_types == 4
        assert base_instance.labels == ("1", "2", "3", "4")
        np.testing.assert_allclose(
            base_instance.q_vector(), [0.01, 0.02, 0.03, 0.04], atol=1e-12
        )
        np.testing.assert_allclose([c.tau for c in base_instance.components], np.ones(4))
        np.testing.assert_allclose(base_instance.usage_costs(), np.ones(4))
        np.testing.assert_allclose(base_instance.repair_costs(), 100 * np.ones(4))

    def test_json_round_trip(self, base_instance, tmp_path):
        path = tmp_path / "inst.json"
        write_instance(base_instance, path)
        again = load_instance(path)
        assert again.labels == base_instance.labels
        np.testing.assert_allclose(again.q_vector(), base_instance.q_vector())
        np.testing.assert_allclose(
            [c.alpha for c in again.components], [c.alpha for c in base_instance.components]
        )
        assert again.copy_bounds == base_instance.copy_bounds

    def test_document_is_in_catalog_order(self):
        comps = [
            _comp(label="a", usage_cost=5.0),
            _comp(label="b", usage_cost=1.0),
            _comp(label="c", usage_cost=3.0),
        ]
        inst = make_instance(comps, [[1.0, 2.0, 3.0]], [9.0], names=["r"])
        doc = instance_document(inst)
        assert [c["label"] for c in doc["components"]] == ["a", "b", "c"]
        assert [c["usage_cost"] for c in doc["components"]] == [5.0, 1.0, 3.0]
        assert doc["constraints"] == [
            {"name": "r", "coefficients": [1.0, 2.0, 3.0], "bound": 9.0}
        ]
        assert load_instance(doc).constraints.tolist() == inst.constraints.tolist()

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda d: d.update(components=[1]), "component 1 must be a mapping"),
            (lambda d: d.update(components=5), "must be lists"),
            (lambda d: d.update(constraints=5), "must be lists"),
            (lambda d: d.update(constraints=[1]), "constraint row 0 must be a mapping"),
            (
                lambda d: d["constraints"][0].update(coefficients=5),
                "coefficients must be a list",
            ),
        ],
        ids=[
            "component-not-mapping",
            "components-not-list",
            "constraints-not-list",
            "row-not-mapping",
            "coefficients-not-list",
        ],
    )
    def test_malformed_records_raise(self, edit, reason):
        doc = instance_document(single_type_instance())
        edit(doc)
        with pytest.raises(InstanceError, match=reason):
            load_instance(doc)

    def test_reliability_and_alpha_must_agree(self, tmp_path):
        doc = """{
          "components": [{"label": "a", "p": 0.99, "alpha": 0.5, "tau": 1.0,
                          "usage_cost": 1, "repair_cost": 1,
                          "install_cost": 1, "weight": 1}],
          "constraints": [{"name": "r", "coefficients": [1.0], "bound": 3.0}]
        }"""
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(InstanceError, match="agree|disagree|both"):
            load_instance(path)

    def test_alpha_far_below_the_derived_rate_rejected(self):
        # p implies 5e-10 at tau = 1: 1e-10 is 4e-10 off, under 1e-9 absolute
        doc = instance_document(single_type_instance())
        doc["components"][0].update(alpha=1e-10, tau=1.0, p=1.0 / (1.0 + 5e-10))
        with pytest.raises(InstanceError, match="disagree"):
            load_instance(doc)

    def test_large_consistent_rates_load(self):
        # p = tau / (tau + alpha) gives back alpha to ~1e-13 relative,
        # about 1e-8 absolute at alpha = 1e5
        tau, alpha = 1e8, 1e5
        doc = instance_document(single_type_instance())
        doc["components"][0].update(alpha=alpha, tau=tau, p=tau / (tau + alpha))
        loaded = load_instance(doc).components[0].alpha
        assert loaded == derive_failure_rate(tau / (tau + alpha), tau)
        assert loaded == pytest.approx(alpha, rel=1e-9)

    def test_component_requires_some_rate(self, tmp_path):
        doc = """{
          "components": [{"label": "a", "tau": 1.0, "usage_cost": 1,
                          "repair_cost": 1, "install_cost": 1, "weight": 1}],
          "constraints": [{"name": "r", "coefficients": [1.0], "bound": 3.0}]
        }"""
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(InstanceError):
            load_instance(path)
