"""End-to-end acceptance checks for the whole toolkit.

Each test covers one headline behavior on the packaged 4-type instance
(or small random models), asserts the stated numeric tolerance, checks
the expected runtime budget, and prints a single pass/fail line.
"""

import math
import time
import warnings

import numpy as np
import pytest

from parmaint import app as app_mod
from parmaint.app import emulating_policy, run_app
from parmaint.cli import EXIT_OK, main
from parmaint.ctmdp import build_model, check_weakly_communicating
from parmaint.dop import dop_objectives, probability_chain_values, sp1_sweep, solve_fdop
from parmaint.exact import compare_fronts, exact_front
from parmaint.mdp_solve import (
    MaintenancePolicy,
    evaluate_policy,
    fully_active_policy,
    solve_average_cost,
)
from parmaint.model import ComponentType, make_instance
from parmaint.sim import simulate_policy

from _oracles import (
    augmented_slot_objective,
    iterate_policies,
    nondominated_values,
    random_instance,
)

# expected static fronts (catalog order, values rounded to the printed
# precision of the reference results) keyed by the two varied usage costs
USAGE_COST_BLOCKS = {
    (1, 1): [
        ((1, 0, 0, 0), 1.99, -4.61),
        ((2, 0, 0, 0), 3.00, -9.21),
        ((3, 0, 0, 0), 4.00, -13.82),
        ((4, 0, 0, 0), 5.00, -18.42),
    ],
    (10, 1): [
        ((0, 1, 0, 0), 2.98, -3.91),
        ((1, 1, 0, 0), 4.18, -8.52),
        ((2, 1, 0, 0), 5.18, -13.12),
        ((3, 1, 0, 0), 6.18, -17.73),
    ],
    (10, 10): [
        ((0, 0, 1, 0), 3.97, -3.51),
        ((1, 0, 1, 0), 5.27, -8.11),
        ((2, 0, 1, 0), 6.27, -12.71),
        ((3, 0, 1, 0), 7.27, -17.32),
        ((0, 4, 0, 1), 13.36, -18.87),
    ],
    (100, 100): [
        ((0, 0, 1, 0), 3.97, -3.51),
        ((0, 0, 2, 0), 7.00, -7.01),
        ((1, 0, 1, 0), 7.94, -8.11),
        ((1, 0, 2, 0), 8.09, -11.62),
        ((2, 0, 1, 0), 8.97, -12.72),
        ((2, 0, 2, 0), 9.09, -16.22),
        ((3, 0, 1, 0), 9.97, -17.32),
        ((0, 3, 0, 2), 15.16, -18.17),
        ((0, 4, 0, 1), 16.96, -18.87),
    ],
}

# same layout, keyed by the two varied repair cost rates
REPAIR_COST_BLOCKS = {
    (100, 100): [
        ((1, 0, 0, 0), 1.99, -4.61),
        ((2, 0, 0, 0), 3.00, -9.21),
        ((3, 0, 0, 0), 4.00, -13.82),
        ((4, 0, 0, 0), 5.00, -18.42),
    ],
    (300, 100): [
        ((0, 1, 0, 0), 2.98, -3.91),
        ((1, 0, 0, 0), 3.99, -4.61),
        ((0, 2, 0, 0), 5.00, -7.82),
        ((1, 1, 0, 0), 6.00, -8.52),
        ((0, 3, 0, 0), 7.00, -11.74),
        ((1, 2, 0, 0), 8.00, -12.43),
        ((0, 4, 0, 0), 9.00, -15.65),
        ((1, 3, 0, 0), 10.00, -16.34),
    ],
    (300, 300): [
        ((1, 0, 0, 0), 3.99, -4.61),
        ((1, 0, 1, 0), 6.9997, -8.11),
        ((2, 0, 0, 0), 7.00, -9.21),
        ((3, 0, 0, 0), 10.00, -13.82),
        ((4, 0, 0, 0), 13.00, -18.42),
        ((0, 4, 0, 1), 29.00, -18.87),
    ],
    (500, 500): [
        ((0, 0, 1, 0), 3.97, -3.51),
        ((1, 0, 0, 0), 5.99, -4.61),
        ((0, 0, 2, 0), 7.00, -7.01),
        ((1, 0, 1, 0), 9.00, -8.11),
        ((0, 0, 3, 0), 10.00, -10.52),
        ((1, 0, 2, 0), 12.00, -11.62),
        ((0, 0, 4, 0), 13.00, -14.03),
        ((1, 0, 3, 0), 15.00, -15.12),
        ((2, 0, 2, 0), 17.00, -16.22),
        ((3, 0, 1, 0), 19.00, -17.32),
        ((4, 0, 0, 0), 21.00, -18.42),
        ((0, 4, 0, 1), 45.00, -18.87),
    ],
}

TABLE_TOL = 0.01


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _quiet_sweep(instance):
    # zero margin between equal usage costs falls back to knapsack bounds,
    # which warns; the fallback is exactly what we want here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return sp1_sweep(instance, delta=0.0, record_ties=True)


def _static_front_misses(instance, rows):
    found = {}
    for s in _quiet_sweep(instance):
        found.setdefault(s.design, (s.g_o, s.ln_g_f))
    misses = []
    for counts, g_o, ln_g_f in rows:
        design = instance.from_catalog(counts)
        if design not in found:
            misses.append((counts, "missing"))
            continue
        got_o, got_ln = found[design]
        if abs(got_o - g_o) > TABLE_TOL or abs(got_ln - ln_g_f) > TABLE_TOL:
            misses.append((counts, got_o, got_ln))
    return misses


def _block_designs(blocks, varied):
    """(instance, internal design) pairs for every expected front row."""
    out = []
    for key, rows in blocks.items():
        inst = varied(key)
        for counts, _, _ in rows:
            out.append((inst, inst.from_catalog(counts)))
    return out


def test_criterion_1_usage_cost_static_fronts(base_instance):
    start = time.perf_counter()
    misses = []
    for (c1, c2), rows in USAGE_COST_BLOCKS.items():
        inst = base_instance.modified(usage_costs=[float(c1), float(c2), 1.0, 1.0])
        misses += [((c1, c2), m) for m in _static_front_misses(inst, rows)]
    elapsed = time.perf_counter() - start
    ok = not misses and elapsed < 5.0
    _verdict(1, ok, f"misses={misses}, {elapsed:.2f}s of 5s")


def test_criterion_2_repair_cost_static_fronts(base_instance):
    start = time.perf_counter()
    misses = []
    for (r1, r2), rows in REPAIR_COST_BLOCKS.items():
        inst = base_instance.modified(
            repair_costs=[float(r1), float(r2), 100.0, 100.0]
        )
        misses += [((r1, r2), m) for m in _static_front_misses(inst, rows)]
    elapsed = time.perf_counter() - start
    ok = not misses and elapsed < 5.0
    _verdict(2, ok, f"misses={misses}, {elapsed:.2f}s of 5s")


def test_criterion_3_reliability_extreme(base_instance):
    start = time.perf_counter()
    design = solve_fdop(base_instance)
    elapsed = time.perf_counter() - start
    ok = design == (0, 5, 0, 0) and elapsed < 1.0
    _verdict(3, ok, f"design={design}, {elapsed:.2f}s of 1s")


def test_criterion_4_solver_matches_closed_forms(base_instance):
    start = time.perf_counter()
    cases = _block_designs(
        USAGE_COST_BLOCKS,
        lambda k: base_instance.modified(usage_costs=[float(k[0]), float(k[1]), 1.0, 1.0]),
    ) + _block_designs(
        REPAIR_COST_BLOCKS,
        lambda k: base_instance.modified(
            repair_costs=[float(k[0]), float(k[1]), 100.0, 100.0]
        ),
    )
    worst = 0.0
    for inst, design in cases:
        model = build_model(inst, design)
        pair = evaluate_policy(model, fully_active_policy(model))
        want_o, want_ln = dop_objectives(inst, design)
        worst = max(worst, abs(pair.g_o - want_o), abs(pair.ln_g_f - want_ln))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _verdict(4, ok, f"{len(cases)} designs, worst drift {worst:.2e}, {elapsed:.1f}s of 30s")


def test_criterion_5_dynamic_dominates_static(base_instance, tmp_path):
    start = time.perf_counter()
    inst_path = tmp_path / "r300-100.json"
    from parmaint.model import write_instance

    write_instance(
        base_instance.modified(repair_costs=[300.0, 100.0, 100.0, 100.0]), inst_path
    )
    static_table = tmp_path / "static.txt"
    dop_front = tmp_path / "dop_front.txt"
    app_front = tmp_path / "app_front.txt"
    report_path = tmp_path / "cmp.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert (
            main(
                [
                    "dop",
                    str(inst_path),
                    "--delta",
                    "0",
                    "--ties",
                    "--out",
                    str(static_table),
                    "--front-out",
                    str(dop_front),
                ]
            )
            == EXIT_OK
        )
    assert main(["app", str(inst_path), "--out", str(app_front)]) == EXIT_OK
    assert (
        main(["compare", str(dop_front), str(app_front), "--out", str(report_path)])
        == EXIT_OK
    )
    rows = [
        line.split()
        for line in report_path.read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    first_type = [r for r in rows if int(r[2]) > 0]
    bad = [
        r
        for r in first_type
        if r[0] != "dominated" or r[10] != app_mod.DYNAMIC_SP2
    ]
    elapsed = time.perf_counter() - start
    ok = len(first_type) >= 1 and not bad and elapsed < 60.0
    _verdict(
        5,
        ok,
        f"{len(first_type)} static points install the dear type, "
        f"undominated={len(bad)}, {elapsed:.1f}s of 60s",
    )


def test_criterion_6_heuristic_never_beaten_by_exact(base_instance):
    start = time.perf_counter()
    heuristic = run_app(base_instance)
    reference = exact_front(base_instance)
    report = compare_fronts(heuristic, reference, tolerance=1e-6)
    beaten = report.count("dominated")
    elapsed = time.perf_counter() - start
    ok = beaten == 0 and elapsed < 600.0
    _verdict(6, ok, f"{len(heuristic)} heuristic points, dominated={beaten}, {elapsed:.1f}s of 600s")


def _two_type_instance():
    comps = [
        ComponentType(
            alpha=0.01 / 0.99,
            tau=1.0,
            usage_cost=1.0,
            repair_cost=300.0,
            install_cost=3.0,
            weight=5.0,
            label="1",
        ),
        ComponentType(
            alpha=0.02 / 0.98,
            tau=1.0,
            usage_cost=1.0,
            repair_cost=100.0,
            install_cost=3.0,
            weight=4.0,
            label="2",
        ),
    ]
    return make_instance(
        comps, [[3.0, 3.0], [5.0, 4.0]], [20.0, 20.0], names=["cost", "weight"]
    )


def test_criterion_7_rate_scaling_invariance():
    start = time.perf_counter()
    duo = _two_type_instance()

    def front(mult):
        return run_app(duo.modified(rate_multipliers=list(mult)))

    reference = front((1.0, 1.0))

    def identical(other):
        return len(other) == len(reference) and all(
            a.design == b.design
            and abs(a.g_o - b.g_o) <= 1e-9
            and (a.ln_g_f == b.ln_g_f or abs(a.ln_g_f - b.ln_g_f) <= 1e-9)
            for a, b in zip(other, reference)
        )

    uniform_ok = identical(front((5.0, 5.0))) and identical(front((10.0, 10.0)))
    skewed = front((10.0, 1.0))
    skewed_differs = not identical(skewed) and (
        compare_fronts(skewed, reference, tolerance=1e-3).count("matched")
        < len(skewed)
    )
    elapsed = time.perf_counter() - start
    ok = uniform_ok and skewed_differs and elapsed < 600.0
    _verdict(
        7,
        ok,
        f"uniform identical={uniform_ok}, skewed differs={skewed_differs}, "
        f"{elapsed:.1f}s of 600s",
    )


def _chain_objectives(instance, design):
    q = instance.q_vector()
    r = instance.repair_costs()
    c = instance.usage_costs()
    y, z = probability_chain_values(instance, design)
    g_o = sum(r[i] * q[i] * design[i] for i in range(instance.n_types))
    g_o += sum(c[i] * float(y[i].sum()) for i in range(instance.n_types))
    tail = [zi[-1] for zi in z if len(zi)]
    return g_o, (tail[-1] if tail else 1.0)


def test_criterion_8_property_suite(base_instance):
    start = time.perf_counter()
    details = []

    # (a) tiny-model brute force equals the average-cost solver
    rng = np.random.default_rng(8001)
    checked = 0
    attempts = 0
    worst_a = 0.0
    while checked < 50 and attempts < 500:
        attempts += 1
        inst = random_instance(rng, n_types=int(rng.integers(1, 3)))
        design = tuple(int(rng.integers(0, min(c, 2) + 1)) for c in inst.copy_bounds)
        if sum(design) == 0 or not inst.is_feasible(design):
            continue
        model = build_model(inst, design)
        policies = iterate_policies(model, limit=200)
        if policies is None:
            continue
        penalty = float(rng.uniform(0.5, 100.0))
        best = min(
            evaluate_policy(model, MaintenancePolicy(model, ch)).scalarized(penalty)
            for ch in policies
        )
        worst_a = max(worst_a, abs(solve_average_cost(model, penalty).gain - best))
        checked += 1
    ok_a = checked >= 50 and worst_a <= 1e-8
    details.append(f"a: {checked} models, drift {worst_a:.1e}")

    # (b) probability chain equals the product-form objectives
    rng = np.random.default_rng(8002)
    worst_b = 0.0
    for _ in range(1000):
        inst = random_instance(rng)
        design = tuple(int(rng.integers(0, b + 1)) for b in inst.copy_bounds)
        chain_o, chain_f = _chain_objectives(inst, design)
        want_o, want_ln = dop_objectives(inst, design)
        worst_b = max(
            worst_b,
            abs(chain_o - want_o) / max(1.0, abs(want_o)),
            abs(chain_f - math.exp(want_ln)),
        )
    ok_b = worst_b <= 1e-12
    details.append(f"b: 1000 designs, drift {worst_b:.1e}")

    # (c) dominance filter equals the quadratic oracle
    rng = np.random.default_rng(8003)
    ok_c = True
    for _ in range(100):
        count = int(rng.integers(3, 40))
        values = [
            (float(rng.integers(0, 6)), -float(rng.integers(0, 6)))
            for _ in range(count)
        ]
        points = [
            app_mod.SolutionPoint(
                g_o=g, ln_g_f=ln, design=(k,), provenance=app_mod.EXACT, penalty=None
            )
            for k, (g, ln) in enumerate(values)
        ]
        got = {(p.g_o, p.ln_g_f) for p in app_mod.non_dom_filter(points)}
        want = set(nondominated_values(values, 1e-9))
        ok_c = ok_c and got == want
    details.append(f"c: 100 point sets, agree={ok_c}")

    # (d) supermodular marginals of the augmented slot objective
    rng = np.random.default_rng(8004)
    ok_d = True
    done_d = 0
    while done_d < 1000:
        inst = random_instance(rng)
        slots = [
            (i, j) for i in range(inst.n_types) for j in range(inst.copy_bounds[i])
        ]
        if len(slots) < 3:
            continue
        extra = slots[int(rng.integers(0, len(slots)))]
        rest = [s for s in slots if s != extra]
        mask_y = rng.random(len(rest)) < rng.uniform(0.3, 0.9)
        big = [s for s, keep in zip(rest, mask_y) if keep]
        if not big:
            continue
        mask_x = rng.random(len(big)) < rng.uniform(0.2, 0.8)
        small = [s for s, keep in zip(big, mask_x) if keep]
        if len(small) == len(big):
            small = big[:-1]
        delta = float(rng.uniform(0.0, 1.0))
        gain_small = augmented_slot_objective(
            inst, small + [extra], delta
        ) - augmented_slot_objective(inst, small, delta)
        gain_big = augmented_slot_objective(
            inst, big + [extra], delta
        ) - augmented_slot_objective(inst, big, delta)
        ok_d = ok_d and gain_small <= gain_big + 1e-12
        done_d += 1
    details.append(f"d: {done_d} triples, agree={ok_d}")

    # (e) weak-communication check with the all-repairing state transient
    rng = np.random.default_rng(8005)
    done_e = 0
    ok_e = True
    while done_e < 20:
        inst = random_instance(rng, n_types=int(rng.integers(1, 4)))
        design = tuple(int(rng.integers(0, min(c, 2) + 1)) for c in inst.copy_bounds)
        if sum(design) == 0 or not inst.is_feasible(design):
            continue
        model = build_model(inst, design)
        report = check_weakly_communicating(model)
        ok_e = ok_e and report.weakly_communicating
        ok_e = ok_e and (model.n_states - 1) in report.transient_ids
        done_e += 1
    details.append(f"e: {done_e} designs, agree={ok_e}")

    # (f) simulation agrees with exact evaluation within 4 standard errors
    hits = 0
    total = 0
    for design, penalty, horizon in [
        ((1, 0, 0, 0), None, 20000.0),
        ((0, 1, 0, 0), None, 20000.0),
        ((0, 0, 1, 0), None, 20000.0),
        ((2, 0, 0, 0), 64.0, 200000.0),
        ((0, 2, 0, 0), 100.0, 200000.0),
    ]:
        model = build_model(base_instance, design)
        if penalty is None:
            policy = fully_active_policy(model)
        else:
            policy = solve_average_cost(model, penalty).policy
        exact = evaluate_policy(model, policy)
        g_f = math.exp(exact.ln_g_f)
        for seed in range(30):
            r = simulate_policy(model, policy, horizon=horizon, seed=seed)
            total += 1
            if (
                abs(r.g_o - exact.g_o) <= 4.0 * r.se_g_o
                and abs(r.g_f - g_f) <= 4.0 * r.se_g_f
            ):
                hits += 1
    ok_f = total == 150 and hits >= math.ceil(0.95 * total)
    details.append(f"f: {hits}/{total} runs within 4 SE")

    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and ok_d and ok_e and ok_f and elapsed < 900.0
    _verdict(8, ok, "; ".join(details) + f"; {elapsed:.1f}s of 900s")


def test_criterion_9_nested_design_emulation():
    start = time.perf_counter()
    rng = np.random.default_rng(9001)
    done = 0
    attempts = 0
    worst = 0.0
    while done < 20 and attempts < 400:
        attempts += 1
        inst = random_instance(rng, n_types=int(rng.integers(1, 4)))
        big = tuple(int(rng.integers(0, min(c, 2) + 1)) for c in inst.copy_bounds)
        if sum(big) == 0 or not inst.is_feasible(big):
            continue
        sub = tuple(int(rng.integers(0, v + 1)) for v in big)
        if sub == big:
            continue
        big_model = build_model(inst, big)
        got = evaluate_policy(big_model, emulating_policy(big_model, sub))
        sub_model = build_model(inst, sub)
        want = evaluate_policy(sub_model, fully_active_policy(sub_model))
        worst = max(worst, abs(got.g_o - want.g_o), abs(got.g_f - want.g_f))
        done += 1
    elapsed = time.perf_counter() - start
    ok = done >= 20 and worst <= 1e-8
    _verdict(9, ok, f"{done} nested pairs, worst drift {worst:.1e}, {elapsed:.1f}s")
