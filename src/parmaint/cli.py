"""Command-line entry points.

Subcommands cover the full workflow: validate an instance file, run the
static solver, the heuristic or exact front builders, solve or simulate
a single design, and compare two front files.  Exit status is 0 for a
complete run, 2 when results carry flags (partial or accuracy-limited),
and 1 on errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from parmaint import app as app_mod
from parmaint import io
from parmaint.dop import EnumerationError, sp1_sweep, solve_fdop
from parmaint.ctmdp import StateSpaceError, build_model
from parmaint.exact import compare_fronts, exact_front
from parmaint.mdp_solve import fully_active_policy
from parmaint.model import STATIC_DELTA, InstanceError, load_instance
from parmaint.sim import simulate_policy

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


def _check_outputs(args):
    """Fail before any work when an output path cannot be written: its
    directory is missing or it is a directory itself."""
    for flag in ("--out", "--front-out", "--policy-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None) or ""
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ValueError(f"{flag} {path}: no directory {folder}")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")


def _parse_design(instance, text):
    try:
        counts = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--design needs comma-separated integers, got {text!r}") from None
    design = instance.from_catalog(counts)
    if not instance.is_feasible(design):
        raise InstanceError(f"design {text} violates the instance constraints")
    return design


def cmd_instance_validate(args) -> int:
    instance = load_instance(args.instance)
    print(f"instance ok: {instance.n_types} component types")
    print(f"priority order (by usage cost): {', '.join(instance.labels)}")
    print("unavailability:", " ".join(io.fmt(q) for q in instance.q_vector()))
    print("copy bounds (priority order):", " ".join(str(b) for b in instance.copy_bounds))
    for name, bound in zip(instance.constraint_names, instance.constraint_bounds):
        print(f"constraint {name}: bound {io.fmt(bound)}")
    return EXIT_OK


def cmd_dop(args) -> int:
    instance = load_instance(args.instance)
    solutions = sp1_sweep(instance, delta=args.delta, record_ties=args.ties)
    io.write_static_table(args.out, instance, solutions)
    print(f"static front: {len(solutions)} designs -> {args.out}")
    anchor = instance.to_catalog(solve_fdop(instance))
    print("reliability extreme:", ",".join(str(c) for c in anchor))
    if args.front_out:
        front = app_mod.non_dom_filter(app_mod.static_points(solutions))
        io.write_front(args.front_out, instance, front)
        print(f"non-dominated static front: {len(front)} points -> {args.front_out}")
    return EXIT_OK


def _report_flags(notes) -> int:
    """Print each ``app.flag_notes`` note as a ``flag:`` line; the exit status."""
    for note in notes:
        print(f"flag: {note}", file=sys.stderr)
    return EXIT_FLAGGED if notes else EXIT_OK


def _report_front(front, instance, out, label) -> int:
    io.write_front(out, instance, front)
    print(f"{label}: {len(front)} points -> {out}")
    return _report_flags(front.notes)


def cmd_app(args) -> int:
    instance = load_instance(args.instance)
    front = app_mod.run_app(instance)
    return _report_front(front, instance, args.out, "heuristic front")


def cmd_exact(args) -> int:
    instance = load_instance(args.instance)
    front = exact_front(instance)
    return _report_front(front, instance, args.out, "exact front")


def cmd_dmp(args) -> int:
    instance = load_instance(args.instance)
    design = _parse_design(instance, args.design)
    model = build_model(instance, design=design)
    if args.penalty is None:
        point = app_mod._full_repair_point(instance, model, design, app_mod.EXACT)
    else:
        point = app_mod._solve_point(model, design, args.penalty, None, app_mod.EXACT)
    gain = point.pair
    io.write_gain_report(args.out, instance, design, point.penalty, gain)
    print(f"g_o = {io.fmt(gain.g_o)}  g_f = {io.fmt(gain.g_f)}  ln_g_f = {io.fmt(gain.ln_g_f)}")
    print(f"gain report -> {args.out}")
    if args.policy_out:
        io.write_policy(args.policy_out, model, point.policy)
        print(f"policy -> {args.policy_out}")
    return _report_flags(app_mod.flag_notes(instance, design, point.flags, point))


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    instance = load_instance(args.instance)
    design = _parse_design(instance, args.design)
    model = build_model(instance, design=design)
    if args.policy_file:
        policy = io.read_policy(args.policy_file, model)
    else:
        policy = fully_active_policy(model)
    report = simulate_policy(model, policy, horizon=args.horizon, seed=args.seed)
    io.write_sim_report(args.out, report)
    print(
        f"g_o = {io.fmt(report.g_o)} +- {io.fmt(report.se_g_o)}   "
        f"g_f = {io.fmt(report.g_f)} +- {io.fmt(report.se_g_f)}"
    )
    print(f"simulation report -> {args.out}")
    if not report.rare_failure:
        return EXIT_OK
    entries = f"only {report.failure_entries} failure entries"
    flags = [f"{entries}; g_f estimate is unreliable at this horizon"]
    return _report_flags(app_mod.flag_notes(instance, design, flags))


def cmd_compare(args) -> int:
    front = io.read_front(args.front)
    reference = io.read_front(args.reference)
    report = compare_fronts(front, reference)
    io.write_compare_report(args.out, report)
    counts = {s: report.count(s) for s in ("matched", "dominated", "absent")}
    print(
        f"matched {counts['matched']}, dominated {counts['dominated']}, "
        f"absent {counts['absent']} -> {args.out}"
    )
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("instance", help="instance file (JSON)")
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored; every command runs serially",
    )


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
    dop.add_argument(
        "--delta",
        type=float,
        default=STATIC_DELTA,
        help="inflation of the failure penalty in the static objective",
    )
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
    appc.add_argument("--out", default="parmaint_front.txt")
    appc.set_defaults(func=cmd_app)

    ex = subs.add_parser("exact", help="exact front over all feasible designs")
    _add_common(ex)
    ex.add_argument("--out", default="parmaint_exact.txt")
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
    simc.add_argument(
        "--policy-file", default=None, help="policy to simulate; omitted means full repair"
    )
    simc.add_argument("--horizon", type=float, default=1e5)
    simc.add_argument("--seed", type=int, default=0)
    simc.add_argument("--out", default="parmaint_sim.txt")
    simc.set_defaults(func=cmd_simulate)

    cmp = subs.add_parser("compare", help="judge one front file against another")
    cmp.add_argument("front", help="front file to judge")
    cmp.add_argument("reference", help="reference front file")
    cmp.add_argument("--out", default="parmaint_compare.txt")
    cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (StateSpaceError, EnumerationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
