"""Command-line entry points.

Subcommands cover the full workflow: validate an instance file, run the
static solver, the heuristic or exact front builders, solve or simulate
a single design, and compare two front files.  Exit status is 0 for a
complete run, 2 when results carry flags (partial or accuracy-limited),
and 1 on errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from parmaint import app as app_mod
from parmaint import io
from parmaint.dop import EnumerationError, sp1_sweep, solve_fdop
from parmaint.ctmdp import StateSpaceError, build_model
from parmaint.exact import compare_fronts, exact_front
from parmaint.mdp_solve import evaluate_policy, fully_active_policy, solve_average_cost
from parmaint.model import InstanceError, load_instance
from parmaint.sim import simulate_policy

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


def _numbers(flag, text, kind):
    """The comma-separated values of a flag, each parsed by ``kind``."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} needs comma-separated {what}, got {text!r}") from None


def _load(args):
    instance = load_instance(args.instance)
    if args.multipliers:
        values = _numbers("--multipliers", args.multipliers, float)
        instance = instance.modified(rate_multipliers=values)
    return instance


def _parse_design(instance, text):
    counts = _numbers("--design", text, int)
    if len(counts) != instance.n_types:
        raise InstanceError(
            f"design needs {instance.n_types} counts, got {len(counts)}"
        )
    if any(c < 0 for c in counts):
        raise InstanceError("design counts must be non-negative")
    design = instance.from_catalog(counts)
    if not instance.is_feasible(design):
        raise InstanceError(f"design {text} violates the instance constraints")
    return design


def cmd_instance_validate(args) -> int:
    instance = _load(args)
    print(f"instance ok: {instance.n_types} component types")
    print(f"priority order (by usage cost): {', '.join(instance.labels)}")
    print("unavailability:", " ".join(io.fmt(q) for q in instance.q_vector()))
    print("copy bounds (priority order):", " ".join(str(b) for b in instance.copy_bounds))
    for name, bound in zip(instance.constraint_names, instance.constraint_bounds):
        print(f"constraint {name}: bound {io.fmt(bound)}")
    return EXIT_OK


def cmd_dop(args) -> int:
    instance = _load(args)
    solutions = sp1_sweep(
        instance,
        eps_min=args.eps_min,
        delta_eps=args.delta_eps,
        delta=args.delta,
        record_ties=args.ties,
    )
    io.write_static_table(args.out, instance, solutions)
    print(f"static front: {len(solutions)} designs -> {args.out}")
    anchor = instance.to_catalog(solve_fdop(instance))
    print("reliability extreme:", ",".join(str(c) for c in anchor))
    if args.front_out:
        front = app_mod.non_dom_filter(app_mod.static_points(solutions))
        io.write_front(args.front_out, instance, front)
        print(f"non-dominated static front: {len(front)} points -> {args.front_out}")
    return EXIT_OK


def _report_front(front, instance, out, plot_out, label) -> int:
    io.write_front(out, instance, front)
    print(f"{label}: {len(front)} points -> {out}")
    if plot_out:
        io.write_plot_data(plot_out, instance, front)
        print(f"plot data -> {plot_out}")
    if not front.complete:
        for note in front.notes:
            print(f"flag: {note}", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_app(args) -> int:
    instance = _load(args)
    front = app_mod.run_app(
        instance,
        eps_min=args.eps_min,
        delta_eps=args.delta_eps,
        delta=args.delta,
        p_min=args.p_min,
        delta_p=args.delta_p,
    )
    return _report_front(front, instance, args.out, args.plot_out, "heuristic front")


def cmd_exact(args) -> int:
    instance = _load(args)
    front = exact_front(instance, maximal_only=args.maximal_only)
    return _report_front(front, instance, args.out, args.plot_out, "exact front")


def cmd_dmp(args) -> int:
    instance = _load(args)
    design = _parse_design(instance, args.design)
    model = build_model(instance, design=design)
    status = EXIT_OK
    if args.penalty is None:
        policy = fully_active_policy(model)
        penalty = None
        gain = evaluate_policy(model, policy)
    else:
        result = solve_average_cost(model, args.penalty)
        policy = result.policy
        penalty = args.penalty
        gain = result.pair
        if not result.converged:
            print("flag: solver did not converge", file=sys.stderr)
            status = EXIT_FLAGGED
    io.write_gain_report(args.out, instance, design, penalty, gain)
    print(f"g_o = {io.fmt(gain.g_o)}  g_f = {io.fmt(gain.g_f)}  ln_g_f = {io.fmt(gain.ln_g_f)}")
    print(f"gain report -> {args.out}")
    if args.policy_out:
        io.write_policy(args.policy_out, model, policy)
        print(f"policy -> {args.policy_out}")
    return status


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.policy_file and args.penalty is not None:
        raise ValueError("--penalty and --policy-file each choose the policy; give one")
    instance = _load(args)
    design = _parse_design(instance, args.design)
    model = build_model(instance, design=design)
    if args.policy_file:
        policy = io.read_policy(args.policy_file, model)
    elif args.penalty is not None:
        policy = solve_average_cost(model, args.penalty).policy
    else:
        policy = fully_active_policy(model)
    report = simulate_policy(
        model,
        policy,
        horizon=args.horizon,
        batches=args.batches,
        seed=args.seed,
    )
    io.write_sim_report(args.out, report)
    print(
        f"g_o = {io.fmt(report.g_o)} +- {io.fmt(report.se_g_o)}   "
        f"g_f = {io.fmt(report.g_f)} +- {io.fmt(report.se_g_f)}"
    )
    print(f"simulation report -> {args.out}")
    if report.rare_failure:
        print(
            f"flag: only {report.failure_entries} failure entries; "
            "g_f estimate is unreliable at this horizon",
            file=sys.stderr,
        )
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_compare(args) -> int:
    front = io.read_front(args.front)
    reference = io.read_front(args.reference)
    report = compare_fronts(front, reference, tolerance=args.tolerance)
    io.write_compare_report(args.out, report)
    counts = {s: report.count(s) for s in ("matched", "dominated", "absent")}
    print(
        f"matched {counts['matched']}, dominated {counts['dominated']}, "
        f"absent {counts['absent']} -> {args.out}"
    )
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("instance", help="instance file (json or table form)")
    sub.add_argument(
        "--multipliers",
        help="comma-separated per-type factors applied to both event rates",
    )
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored; every command runs serially",
    )


def _add_sweep_params(sub):
    sub.add_argument("--eps-min", type=float, default=0.0)
    sub.add_argument("--delta-eps", type=float, default=-0.1)
    sub.add_argument("--delta", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parmaint",
        description="Sizing and maintenance optimization for parallel machine groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    inst = subs.add_parser("instance", help="instance file utilities")
    inst_subs = inst.add_subparsers(dest="instance_command", required=True)
    val = inst_subs.add_parser("validate", help="check an instance file")
    _add_common(val)
    val.set_defaults(func=cmd_instance_validate)

    dop = subs.add_parser("dop", help="static design sweep")
    _add_common(dop)
    _add_sweep_params(dop)
    dop.add_argument(
        "--ties",
        action="store_true",
        help="record co-optimal designs of each static solve, not just one",
    )
    dop.add_argument("--out", default="parmaint_static.txt")
    dop.add_argument(
        "--front-out", default=None, help="also export the non-dominated static front"
    )
    dop.set_defaults(func=cmd_dop)

    appc = subs.add_parser("app", help="two-stage heuristic front")
    _add_common(appc)
    _add_sweep_params(appc)
    appc.add_argument("--p-min", type=float, default=app_mod.DEFAULT_P_MIN)
    appc.add_argument("--delta-p", type=float, default=app_mod.DEFAULT_DELTA_P)
    appc.add_argument("--out", default="parmaint_front.txt")
    appc.add_argument("--plot-out", default=None)
    appc.set_defaults(func=cmd_app)

    ex = subs.add_parser("exact", help="exact front over all feasible designs")
    _add_common(ex)
    ex.add_argument("--maximal-only", action="store_true")
    ex.add_argument("--out", default="parmaint_exact.txt")
    ex.add_argument("--plot-out", default=None)
    ex.set_defaults(func=cmd_exact)

    dmp = subs.add_parser("dmp", help="solve one design's repair problem")
    _add_common(dmp)
    dmp.add_argument("--design", required=True, help="comma-separated copy counts")
    dmp.add_argument(
        "--penalty",
        type=float,
        default=None,
        help="failure penalty; omitted means evaluate the full-repair policy",
    )
    dmp.add_argument("--out", default="parmaint_gain.txt")
    dmp.add_argument("--policy-out", default=None)
    dmp.set_defaults(func=cmd_dmp)

    simc = subs.add_parser("simulate", help="simulate a design under a policy")
    _add_common(simc)
    simc.add_argument("--design", required=True)
    simc.add_argument("--penalty", type=float, default=None)
    simc.add_argument("--policy-file", default=None)
    simc.add_argument("--horizon", type=float, default=1e5)
    simc.add_argument("--batches", type=int, default=20)
    simc.add_argument("--seed", type=int, default=0)
    simc.add_argument("--out", default="parmaint_sim.txt")
    simc.set_defaults(func=cmd_simulate)

    cmp = subs.add_parser("compare", help="judge one front file against another")
    cmp.add_argument("front", help="front file to judge")
    cmp.add_argument("reference", help="reference front file")
    cmp.add_argument("--tolerance", type=float, default=1e-6)
    cmp.add_argument("--out", default="parmaint_compare.txt")
    cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateSpaceError, EnumerationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
