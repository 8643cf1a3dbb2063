"""parmaint benchmark: CLI workloads timed end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload app-base --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every gated workload
    python3 perfbench/run.py --selftest                # counts repeat exactly

Each command of a workload runs in a fresh Python process (probe.py)
through ``parmaint.cli.main`` with ``--threads 1``, one BLAS thread and
``PYTHONPATH`` set to this checkout's ``src``.  A run repeats the
workload until ``--seconds`` have passed (at least ``min_reps`` times),
checks every output against the frozen references in ``data/ref``, and
prints metrics by name and unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (commands) and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md for what each one means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
REF = DATA / "ref"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

FRONT_TOL = 1e-6  # compare_fronts tolerance for the front checks
STATIC_TOL = 1e-8  # full-repair g_o against the closed form
# Batch means over 20 batches are t-distributed with 19 degrees of freedom:
# a correct run lands beyond 4 standard errors about once in 1,300 checks,
# beyond 5 about once in 13,000.
SIM_SE = 5.0
LN_FLOOR = -700.0  # ln g_f below this (g_f = 0) counts as this in the hypervolume
COMMAND_TIMEOUT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "front_hv": "area"}
LAYER_UNITS = {
    "model.time_s": "s",
    "dop.time_s": "s",
    "dop.designs": "count",
    "ctmdp.calls": "count",
    "ctmdp.time_s": "s",
    "ctmdp.states": "count",
    "ctmdp.sa_pairs": "count",
    "ctmdp.transitions": "count",
    "mdp_solve.solve.calls": "count",
    "mdp_solve.solve.time_s": "s",
    "mdp_solve.solve.call_ms_p50": "ms",
    "mdp_solve.solve.call_ms_phi": "ms",
    "mdp_solve.solve.sweeps": "count",
    "mdp_solve.solve.sweeps_max": "count",
    "mdp_solve.solve.floor_limited": "count",
    "mdp_solve.solve.unconverged": "count",
    "mdp_solve.solve.warm_frac": "frac",
    "mdp_solve.solve.sa_updates": "count",
    "mdp_solve.solve.ns_per_sa_update": "ns",
    "mdp_solve.solve.useful_frac": "frac",
    "mdp_solve.evaluate.calls": "count",
    "mdp_solve.evaluate.time_s": "s",
    "mdp_solve.evaluate.call_ms_p50": "ms",
    "mdp_solve.evaluate.call_ms_phi": "ms",
    "mdp_solve.evaluate.static_mismatch": "count",
    "app.sp2_calls": "count",
    "app.sp2_s": "s",
    "app.merge_s": "s",
    "app.merge_in": "count",
    "app.merge_out": "count",
    "exact.designs": "count",
    "exact.design_s_p50": "s",
    "exact.design_s_max": "s",
    "exact.points_per_design": "count",
    "exact.self_s": "s",
    "sim.time_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.failure_entries": "count",
    "io.time_s": "s",
    "io.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "src.lines": "lines",
}


# --------------------------------------------------------------- file readers


def read_front(path) -> list:
    """(g_o, ln_g_f) rows of a front file (FORMATS.md, "Front")."""
    rows = [
        line.split()
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    header = rows[0]
    i_go, i_ln = header.index("g_o"), header.index("ln_g_f")
    return [(float(r[i_go]), float(r[i_ln])) for r in rows[1:]]


def read_report(path) -> dict:
    """``key = value`` lines of a gain or simulation report."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------- checks


def _close(a, b, tol) -> bool:
    return all(x == y or abs(x - y) <= tol for x, y in zip(a, b))


def _dominates(a, b, tol) -> bool:
    return (
        a[0] <= b[0] + tol
        and a[1] <= b[1] + tol
        and (a[0] < b[0] - tol or a[1] < b[1] - tol)
    )


def check_front(points, reference) -> str | None:
    """Both directions of ``compare_fronts`` at FRONT_TOL: the reference
    dominates no point of the run, and every reference point is matched
    or dominated by the run (so a better front passes)."""
    beaten = [p for p in points if any(_dominates(q, p, FRONT_TOL) for q in reference)]
    lost = [
        q
        for q in reference
        if not any(_close(p, q, FRONT_TOL) or _dominates(p, q, FRONT_TOL) for p in points)
    ]
    if beaten or lost:
        return f"front: {len(beaten)} points beaten by the reference, {len(lost)} reference points lost"
    return None


def hypervolume(points, ref) -> float:
    """Area dominated by ``points`` (both coordinates minimized) inside ``ref``."""
    hv, prev = 0.0, ref[1]
    for g_o, ln in sorted(points):
        ln = max(ln, LN_FLOOR)
        if g_o < ref[0] and ln < prev:
            hv += (ref[0] - g_o) * (prev - ln)
            prev = ln
    return hv


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Command:
    argv: list
    check: Callable  # (work dir) -> error text or None
    status: int = 0  # exit status of the reference run


@dataclass(frozen=True)
class Workload:
    commands: Callable  # (seed) -> [Command]
    points: Callable  # (work dir) -> [(g_o, ln_g_f)] for the hypervolume
    hv_ref: tuple  # hypervolume reference point (g_o, ln_g_f)
    min_reps: int = 3


def _front_workload(kind, instance, reference, min_reps=3):
    ref_points = read_front(REF / reference)

    def commands(seed):
        argv = [kind, str(instance), "--threads", "1", "--out", "front.txt"]
        return [Command(argv, lambda work: check_front(read_front(work / "front.txt"), ref_points))]

    return Workload(
        commands=commands,
        points=lambda work: read_front(work / "front.txt"),
        hv_ref=(12.0, 1.0),
        min_reps=min_reps,
    )


LARGE = DATA / "large-3.json"
LARGE_DESIGN = "3,4,4"
LARGE_PENALTY = 1e5


def _large_commands(seed):
    ref = json.loads((REF / "design-large.json").read_text())
    ref_pen = read_report(REF / "design-large-penalty.gain")
    common = ["--design", LARGE_DESIGN, "--threads", "1"]

    def full_repair(work):
        g_o = float(read_report(work / "full.gain")["g_o"])
        if abs(g_o - ref["closed_form_g_o"]) > STATIC_TOL:
            return f"full-repair g_o {g_o!r} is not the closed form {ref['closed_form_g_o']!r}"
        return None

    def penalized(work):
        got = read_report(work / "penalty.gain")
        scal = float(got["g_o"]) + LARGE_PENALTY * float(got["g_f"])
        best = float(ref_pen["g_o"]) + LARGE_PENALTY * float(ref_pen["g_f"])
        if scal > best * (1.0 + 1e-9):
            return f"scalarized gain {scal!r} above the reference {best!r}"
        return None

    def simulated(work):
        gain = read_report(work / "penalty.gain")
        sim = read_report(work / "sim.txt")
        for key in ("g_o", "g_f"):
            err = abs(float(sim[key]) - float(gain[key]))
            if err > SIM_SE * float(sim["se_" + key]):
                return f"simulated {key} {sim[key]} is {err:.3g} off the exact {gain[key]}"
        return None

    return [
        Command(["dmp", str(LARGE), *common, "--out", "full.gain"], full_repair),
        Command(
            ["dmp", str(LARGE), *common, "--penalty", repr(LARGE_PENALTY),
             "--policy-out", "policy.txt", "--out", "penalty.gain"],
            penalized,
        ),
        Command(
            ["simulate", str(LARGE), *common, "--policy-file", "policy.txt",
             "--horizon", "1e7", "--seed", str(seed), "--out", "sim.txt"],
            simulated,
        ),
    ]


def _large_points(work):
    return [
        (float(r["g_o"]), float(r["ln_g_f"]))
        for r in (read_report(work / "full.gain"), read_report(work / "penalty.gain"))
    ]


BASE = ROOT / "instances" / "base-6-20.json"
# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "app-base": _front_workload("app", BASE, "app-base.front"),
    "exact-small": _front_workload("exact", DATA / "single-1.json", "exact-small.front"),
    "design-large": Workload(commands=_large_commands, points=_large_points, hv_ref=(25.0, 0.0)),
    # Not gated: one command takes 75-90 s on 2 cores, longer than a gated run.
    "exact-base": _front_workload("exact", BASE, "exact-base.front", min_reps=1),
}
GATED = ("app-base", "exact-small", "design-large")


# --------------------------------------------------------------- running


@dataclass
class Rep:
    wall: float = 0.0
    setups: list = field(default_factory=list)
    rss_kb: int = 0
    attempted: int = 0
    errors: list = field(default_factory=list)
    processes: list = field(default_factory=list)  # span lists, one per command
    hv: float = 0.0
    points: int = 0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PARMAINT_THREADS", None)
    return env


def _probe(args, work, log_name, timeout=COMMAND_TIMEOUT_S):
    """Run probe.py in ``work``; return (wall seconds, exit code, start stamp)."""
    with open(work / f"{log_name}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), *args],
            cwd=work, env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        return time.monotonic() - start, code, start


def run_rep(name, seed, trace, work) -> Rep:
    wl = WORKLOADS[name]
    rep = Rep()
    for i, cmd in enumerate(wl.commands(seed)):
        rep.attempted += 1
        result = work / f"probe-{i}.json"
        result.unlink(missing_ok=True)
        wall, code, start = _probe(
            [str(result), str(int(trace)), name, "--", *cmd.argv], work, f"cmd-{i}"
        )
        rep.wall += wall
        if code != 0 or not result.is_file():
            rep.errors.append(f"{cmd.argv[0]}: probe exited with {code}")
            continue
        record = json.loads(result.read_text())
        rep.setups.append(record["t_import"] - start)
        rep.rss_kb = max(rep.rss_kb, record["maxrss_kb"])
        rep.processes.append(record["spans"])
        if record["error"] or record["status"] != cmd.status:
            rep.errors.append(
                f"{cmd.argv[0]}: status {record['status']} (expected {cmd.status}) "
                f"{record['error'] or ''}".strip()
            )
            continue
        try:
            err = cmd.check(work)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err:
            rep.errors.append(f"{cmd.argv[0]}: {err}")
    try:
        points = wl.points(work)
        rep.hv = hypervolume(points, wl.hv_ref)
        rep.points = len(points)
    except (OSError, ValueError, KeyError, IndexError):
        pass
    return rep


def run_workload(name, seed, seconds, trace, work):
    """Repeat the workload for ``seconds``; with ``trace`` alternate an
    untraced and a traced repetition.  Stops when the next repetition would
    end more than half a repetition past ``seconds``.  Returns (untraced,
    traced) reps."""
    plain, traced = [], []
    start = time.monotonic()
    min_reps = 1 if trace else WORKLOADS[name].min_reps
    while True:
        t0 = time.monotonic()
        plain.append(run_rep(name, seed, False, work))
        if trace:
            traced.append(run_rep(name, seed, True, work))
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(plain) >= min_reps and elapsed + last / 2 > seconds:
            return plain, traced


def tail(values):
    """Highest order statistic with at least ten samples beyond it, or the
    maximum when there are ten samples or fewer."""
    v = sorted(values)
    return v[-11] if len(v) >= 11 else v[-1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0  # every command failed


def e2e_metrics(reps) -> dict:
    return {
        "wall_s": _median(r.wall for r in reps),
        "setup_s": _median(s for r in reps for s in r.setups),
        "peak_rss_mb": _median(r.rss_kb / 1024.0 for r in reps),
        "front_hv": _median(r.hv for r in reps),
    }


# ------------------------------------------------------------ layer metrics


def _dur(s):
    return s["end"] - s["start"]


def layer_metrics(processes) -> dict:
    """Per-layer metrics of one repetition from its processes' spans."""
    by = {}
    self_time = {}
    useful = 0
    design_spans = {}
    for spans in processes:
        child_sum = [0.0] * len(spans)
        for s in spans:
            by.setdefault(s["name"], []).append(s)
            if s["parent"] is not None:
                child_sum[s["parent"]] += _dur(s)
        for s in spans:
            self_time[s["name"]] = self_time.get(s["name"], 0.0) + _dur(s) - child_sum[s["id"]]
        fronts = [s for s in spans if s["name"] in ("app.run_app", "exact.exact_front")]
        keys = {
            (tuple(d), p) for f in fronts for d, p in f.get("attrs", {}).get("front", [])
        }
        for s in spans:
            a = s.get("attrs", {})
            if s["name"] == "mdp_solve.solve":
                useful += (not fronts) or (tuple(a.get("design") or ()), a.get("penalty")) in keys
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
            if parent == "exact.exact_front" and a.get("design") is not None:
                lo, hi = design_spans.get(tuple(a["design"]), (math.inf, -math.inf))
                design_spans[tuple(a["design"])] = (min(lo, s["start"]), max(hi, s["end"]))

    def spans_of(name):
        return by.get(name, [])

    def total(name):
        return sum(_dur(s) for s in spans_of(name))

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key) or 0 for s in spans_of(name))

    def ratio(a, b):
        return a / b if b else 0.0

    def call_ms(name, fn):
        durs = [_dur(s) * 1e3 for s in spans_of(name)]
        return fn(durs) if durs else 0.0

    solves = spans_of("mdp_solve.solve")
    sa_updates = sum(s["attrs"]["sweeps"] * s["attrs"]["sa_pairs"] for s in solves if "sweeps" in s.get("attrs", {}))
    n_solves = len(solves)
    exact_merges = [
        s for spans in processes for s in spans
        if s["name"] == "app.non_dom_filter" and s["parent"] is not None
        and spans[s["parent"]]["name"] == "exact.exact_front"
    ]
    design_s = [hi - lo for lo, hi in design_spans.values()]
    n_designs = attr_sum("exact.enumerate", "designs")
    sim_time = total("sim.simulate_policy")
    io_spans = [s for name, ss in by.items() if name.startswith("io.") for s in ss]
    return {
        "model.time_s": total("model.load_instance"),
        "dop.time_s": total("dop.sp1_sweep"),
        "dop.designs": attr_sum("dop.sp1_sweep", "designs"),
        "ctmdp.calls": len(spans_of("ctmdp.build_model")),
        "ctmdp.time_s": total("ctmdp.build_model"),
        "ctmdp.states": attr_sum("ctmdp.build_model", "states"),
        "ctmdp.sa_pairs": attr_sum("ctmdp.build_model", "sa_pairs"),
        "ctmdp.transitions": attr_sum("ctmdp.build_model", "transitions"),
        "mdp_solve.solve.calls": n_solves,
        "mdp_solve.solve.time_s": total("mdp_solve.solve"),
        "mdp_solve.solve.call_ms_p50": call_ms("mdp_solve.solve", statistics.median),
        "mdp_solve.solve.call_ms_phi": call_ms("mdp_solve.solve", tail),
        "mdp_solve.solve.sweeps": attr_sum("mdp_solve.solve", "sweeps"),
        "mdp_solve.solve.sweeps_max": max((s.get("attrs", {}).get("sweeps", 0) for s in solves), default=0),
        "mdp_solve.solve.floor_limited": attr_sum("mdp_solve.solve", "floor_limited"),
        "mdp_solve.solve.unconverged": sum(not s.get("attrs", {}).get("converged", True) for s in solves),
        "mdp_solve.solve.warm_frac": ratio(attr_sum("mdp_solve.solve", "warm"), n_solves),
        "mdp_solve.solve.sa_updates": sa_updates,
        "mdp_solve.solve.ns_per_sa_update": ratio(total("mdp_solve.solve") * 1e9, sa_updates),
        "mdp_solve.solve.useful_frac": ratio(useful, n_solves),
        "mdp_solve.evaluate.calls": len(spans_of("mdp_solve.evaluate")),
        "mdp_solve.evaluate.time_s": total("mdp_solve.evaluate"),
        "mdp_solve.evaluate.call_ms_p50": call_ms("mdp_solve.evaluate", statistics.median),
        "mdp_solve.evaluate.call_ms_phi": call_ms("mdp_solve.evaluate", tail),
        "mdp_solve.evaluate.static_mismatch": attr_sum("mdp_solve.evaluate", "static_mismatch"),
        "app.sp2_calls": len(spans_of("app.sp2")),
        "app.sp2_s": total("app.sp2"),
        "app.merge_s": total("app.non_dom_filter"),
        "app.merge_in": attr_sum("app.non_dom_filter", "n_in"),
        "app.merge_out": attr_sum("app.non_dom_filter", "n_out"),
        "exact.designs": n_designs,
        "exact.design_s_p50": _median(design_s),
        "exact.design_s_max": max(design_s, default=0.0),
        "exact.points_per_design": ratio(sum(s["attrs"].get("n_in") or 0 for s in exact_merges), n_designs),
        "exact.self_s": self_time.get("exact.exact_front", 0.0),
        "sim.time_s": sim_time,
        "sim.events": attr_sum("sim.simulate_policy", "events"),
        "sim.events_per_s": ratio(attr_sum("sim.simulate_policy", "events"), sim_time),
        "sim.failure_entries": attr_sum("sim.simulate_policy", "failure_entries"),
        "io.time_s": sum(_dur(s) for s in io_spans),
        "io.bytes_written": sum(s.get("attrs", {}).get("bytes", 0) for s in io_spans),
        "cli.self_s": self_time.get("cli.main", 0.0),
    }


# ----------------------------------------------------------------- metadata


def run_meta(probe_meta) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for p in sorted((SRC / "parmaint").rglob("*.py")):
        text = p.read_bytes()
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + text)
        lines += len(text.splitlines())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        **{k: probe_meta[k] for k in ("python", "numpy", "scipy", "kernel_backend")},
        "PARMAINT_NO_NUMBA": os.environ.get("PARMAINT_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def setup_checkout(work) -> dict:
    """Import the program once (fills the bytecode cache) and return the
    probe's metadata; exit with status 1 when this checkout has no program."""
    if not (SRC / "parmaint" / "cli.py").is_file():
        sys.exit(f"error: no program at {SRC / 'parmaint'}; run from a parmaint checkout")
    meta_file = work / "meta.json"
    _, code, _ = _probe([str(meta_file), "--meta"], work, "meta", timeout=120)
    if code != 0 or not meta_file.is_file():
        sys.exit(f"error: cannot import parmaint.cli from {SRC} (see {work / 'meta.log'})")
    meta = json.loads(meta_file.read_text())
    if not Path(meta["parmaint_file"]).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: parmaint was imported from {meta['parmaint_file']}, not {SRC}")
    return meta


# ------------------------------------------------------------------- output


def _show(name, value, unit):
    print(f"  {name:<36} {value:>16.6g} {unit}")


def measure(name, seed, seconds, trace, work, meta) -> tuple:
    """One run of one workload; prints its table and returns
    (correct, attempted, failed, metrics)."""
    plain, traced = run_workload(name, seed, seconds, trace, work)
    reps = plain + traced
    errors = [e for r in reps for e in r.errors]
    attempted = sum(r.attempted for r in reps)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  repetitions {len(plain)}")
    if trace:
        per_rep = [layer_metrics(r.processes) for r in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        values["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(
            r.wall for r in plain
        )
        values["src.lines"] = meta["src_lines"]
        units = LAYER_UNITS
        WORK.mkdir(exist_ok=True)
        (WORK / f"trace-{name}.json").write_text(
            json.dumps({"workload": name, "seed": seed, "meta": meta,
                        "processes": [r.processes for r in traced]})
        )
    else:
        values = e2e_metrics(plain)
        units = E2E_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        _show(k, m["value"], m["unit"])
    walls = [r.wall for r in plain]
    print(f"  wall_s samples {len(walls)}: median {statistics.median(walls):.4f} s, "
          f"tail {tail(walls):.4f} s" + ("" if len(walls) >= 11 else " (max; fewer than 11 samples)"))
    print(f"  failed_frac {len(errors)}/{attempted} = {len(errors) / attempted:g}")
    for e in errors:
        print(f"  FAILED {e}")
    print("  meta " + json.dumps(meta, sort_keys=True))
    return not errors, attempted, len(errors), metrics


def selftest(names, work, meta) -> int:
    """Two traced repetitions per workload: the counts must repeat exactly.
    Differences from the frozen baseline counts are reported, not failed,
    since later solvers change them on purpose."""
    baseline = json.loads((DATA / "baseline_counts.json").read_text())
    keys = ("mdp_solve.solve.calls", "mdp_solve.solve.sweeps", "mdp_solve.solve.floor_limited",
            "ctmdp.calls", "ctmdp.states", "front.points")
    status = 0
    for name in names:
        seen = []
        for _ in range(2):
            rep = run_rep(name, 0, True, work)
            m = layer_metrics(rep.processes)
            m["front.points"] = rep.points
            seen.append({k: m[k] for k in keys})
            for e in rep.errors:
                print(f"{name}: FAILED {e}")
                status = 1
        share = m["mdp_solve.solve.time_s"] / rep.wall
        print(f"{name}: counts {json.dumps(seen[0])}; solve share of traced wall {share:.3f}")
        if seen[0] != seen[1]:
            print(f"{name}: FAILED counts differ between runs: {json.dumps(seen[1])}")
            status = 1
        for k, v in baseline.get(name, {}).items():
            if seen[0][k] != v:
                print(f"{name}: {k} = {seen[0][k]} differs from the baseline {v}")
    print("meta " + json.dumps(meta, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        meta = run_meta(setup_checkout(work))
        if args.selftest:
            names = ["app-base", "exact-base"] if args.workload == "all" else [args.workload]
            return selftest(names, work, meta)
        names = GATED if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            ok, n, bad, m = measure(name, args.seed, args.seconds, bool(args.trace), work, meta)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            metrics.update({(k if len(names) == 1 else f"{name}.{k}"): v for k, v in m.items()})
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
