import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from parmaint import app
from parmaint.app import non_dom_filter, run_app, sp2
from parmaint.cli import EXIT_ERROR, EXIT_FLAGGED, EXIT_OK, main
from parmaint.ctmdp import build_model
from parmaint.dop import sp1_sweep
from parmaint.exact import exact_front
from parmaint.io import read_front, read_policy
from parmaint.mdp_solve import fully_active_policy
from parmaint.model import instance_document, load_instance, write_instance
from parmaint.sim import simulate_policy

from _oracles import revalidate_front, single_type_instance


@pytest.fixture(scope="module")
def base_path(instances_dir):
    return str(instances_dir / "base-6-20.json")


@pytest.fixture(scope="module")
def tiny_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "tiny.json"
    write_instance(single_type_instance(), path)
    return str(path)


class TestValidate:
    def test_json_instance(self, base_path, capsys):
        assert main(["instance", "validate", base_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "instance ok: 4 component types" in out
        assert "copy bounds (priority order): 4 5 4 5" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["instance", "validate", str(tmp_path / "nope.json")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_uniform_multipliers_leave_unavailability(
        self, base_path, base_instance, tmp_path, capsys
    ):
        assert main(["instance", "validate", base_path]) == EXIT_OK
        plain = capsys.readouterr().out
        path = tmp_path / "scaled.json"
        write_instance(base_instance.modified(rate_multipliers=[2, 2, 2, 2]), path)
        assert main(["instance", "validate", str(path)]) == EXIT_OK
        scaled = capsys.readouterr().out
        line = next(l for l in plain.splitlines() if l.startswith("unavailability:"))
        assert line in scaled

    def test_malformed_record_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"components": [1]}')
        code = main(["instance", "validate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: component 1 must be a mapping")
        assert "Traceback" not in err

    def test_unknown_component_field_is_an_error(self, base_path, tmp_path, capsys):
        # "reliability" is not another name for "p"
        with open(base_path) as fh:
            doc = json.load(fh)
        doc["components"][0]["reliability"] = doc["components"][0].pop("p")
        path = tmp_path / "alias.json"
        path.write_text(json.dumps(doc))
        code = main(["instance", "validate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == "error: unknown component fields ['reliability']\n"

    def test_never_available_unconstrained_type_is_an_error(self, tmp_path, capsys):
        # unavailability 1 / (1 + 1e-300) rounds to 1; what is named is that no row limits "b"
        doc = {
            "components": [
                {"label": "a", "p": 0.9, "tau": 1, "usage_cost": 1, "repair_cost": 10,
                 "install_cost": 1, "weight": 1},
                {"label": "b", "alpha": 1, "tau": 1e-300, "usage_cost": 1,
                 "repair_cost": 10, "install_cost": 1, "weight": 1},
            ],
            "constraints": [{"name": "slots", "coefficients": [1, 0], "bound": 3}],
        }
        path = tmp_path / "never.json"
        path.write_text(json.dumps(doc))
        code = main(["instance", "validate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: component type 'b' is not limited")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["instance", "validate"], ["exact", "--out", "out.txt"],
         ["dmp", "--design", "2,3", "--out", "out.txt"]],
        ids=["validate", "exact", "dmp"],
    )
    def test_type_in_no_row_is_an_error(self, argv, tmp_path, monkeypatch, capsys):
        # every type needs a row: "b" would have no copy bound
        doc = {
            "components": [
                {"label": "a", "p": 0.9, "tau": 1, "usage_cost": 1, "repair_cost": 10,
                 "install_cost": 1, "weight": 1},
                {"label": "b", "p": 0.8, "tau": 1, "usage_cost": 1, "repair_cost": 10,
                 "install_cost": 1, "weight": 1},
            ],
            "constraints": [{"name": "slots", "coefficients": [1, 0], "bound": 2}],
        }
        monkeypatch.chdir(tmp_path)
        pathlib.Path("free.json").write_text(json.dumps(doc))
        code = main([*argv, "free.json"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: component type 'b' is not limited by any constraint row\n"
        assert captured.out == ""
        assert not pathlib.Path("out.txt").exists()

    @pytest.mark.parametrize("row", [[1, 1], [1, 0]], ids=["limited", "unlimited"])
    def test_unavailability_rounding_to_zero_is_an_error(self, row, tmp_path, capsys):
        # 1e-320 / (1e-320 + 1e10) underflows to 0, so ln q would be -inf
        doc = {
            "components": [
                {"label": "a", "p": 0.9, "tau": 1, "usage_cost": 1, "repair_cost": 10,
                 "install_cost": 1, "weight": 1},
                {"label": "b", "alpha": 1e-320, "tau": 1e10, "usage_cost": 1,
                 "repair_cost": 10, "install_cost": 1, "weight": 1},
            ],
            "constraints": [{"name": "slots", "coefficients": row, "bound": 3}],
        }
        path = tmp_path / "perfect.json"
        path.write_text(json.dumps(doc))
        for argv in (["instance", "validate"], ["dop", "--out", str(tmp_path / "s.txt")]):
            code = main([*argv, str(path)])
            err = capsys.readouterr().err
            assert code == EXIT_ERROR
            assert err == "error: component type 'b' has unavailability rounding to 0\n"
        assert not (tmp_path / "s.txt").exists()

    def test_integer_past_the_digit_limit_names_the_file(self, base_path, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer of more than
        # 4,300 digits, which used to escape as an unlabelled error
        with open(base_path) as fh:
            text = fh.read()
        path = tmp_path / "long.json"
        path.write_text(text.replace('"bound": 20', '"bound": ' + "9" * 5000, 1))
        code = main(["instance", "validate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith(f"error: {path}: invalid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "where, field, value, reason",
        [
            ("components", "tau", None, "component '1' field 'tau' must be a number"),
            ("constraints", "bound", [1], "constraint 'cost' field 'bound' must be a number"),
            (
                "constraints",
                "coefficients",
                [3, None, 2, 2],
                "constraint 'cost' field 'coefficients[1]' must be a number",
            ),
            ("components", "weight", {"a": 1}, "component '1' field 'weight' must be a number"),
            ("components", "tau", "1", "component '1' field 'tau' must be a number"),
            ("constraints", "bound", 10**400, "constraint 'cost' field 'bound' is too large"),
        ],
    )
    def test_non_numeric_field_is_an_error(
        self, base_path, tmp_path, capsys, where, field, value, reason
    ):
        with open(base_path) as fh:
            doc = json.load(fh)
        doc[where][0][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["instance", "validate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith(f"error: {reason}")
        assert "Traceback" not in err

    def test_row_bound_over_coefficient_overflow_is_an_error(self, tmp_path, capsys):
        doc = instance_document(single_type_instance())
        doc["constraints"][0].update(coefficients=[1e-300], bound=1e300)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert main(["instance", "validate", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: constraint 'slots' bound over the coefficient of component "
            "type 'only' overflows a float\n"
        )


class TestDop:
    def test_static_table(self, base_path, base_instance, tmp_path, capsys):
        out = tmp_path / "static.txt"
        assert main(["dop", base_path, "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "static front: 6 designs" in text
        assert "reliability extreme: 0,5,0,0" in text
        rows = [l.split() for l in out.read_text().splitlines()[1:]]
        assert rows[0] == ["x_1", "x_2", "x_3", "x_4", "g_o", "ln_g_f", "tag"]
        designs = [base_instance.from_catalog([int(t) for t in r[:4]]) for r in rows[1:]]
        assert designs[:2] == [(0, 0, 0, 0), (1, 0, 0, 0)]

    def test_zero_delta_accepted(self, base_path, tmp_path):
        out = tmp_path / "static.txt"
        code = main(
            ["dop", base_path, "--out", str(out), "--delta", "0", "--ties"]
        )
        assert code == EXIT_OK

    def test_front_out(self, base_path, base_instance, tmp_path):
        out = tmp_path / "static.txt"
        front_out = tmp_path / "static_front.txt"
        code = main(
            ["dop", base_path, "--out", str(out), "--front-out", str(front_out)]
        )
        assert code == EXIT_OK
        front = read_front(front_out)  # base's catalog order is its priority order
        assert len(front) >= 2
        assert all(p.provenance == "static-SP1" for p in front)
        assert revalidate_front(base_instance, front) <= 1e-8

    def test_non_finite_sweep_arguments(self, base_path, tmp_path, capsys):
        out = tmp_path / "static.txt"
        code = main(["dop", base_path, "--out", str(out), "--delta", "nan"])
        assert code == EXIT_ERROR
        assert "penalty inflation must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestApp:
    def test_front_file_revalidates(self, base_path, base_instance, tmp_path, capsys):
        out = tmp_path / "front.txt"
        assert main(["app", base_path, "--out", str(out)]) == EXIT_OK
        assert "heuristic front: 12 points" in capsys.readouterr().out
        front = read_front(out)
        assert len(front) == 12
        assert not front.notes
        assert revalidate_front(base_instance, front) <= 1e-8

    def test_thread_count_stable(self, base_path, base_instance, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["app", base_path, "--out", str(a), "--threads", "1"]) == EXIT_OK
        assert main(["app", base_path, "--out", str(b), "--threads", "2"]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_uniform_rate_scaling_keeps_front(self, base_path, base_instance, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        scaled = tmp_path / "scaled.json"
        write_instance(base_instance.modified(rate_multipliers=[5, 5, 5, 5]), scaled)
        assert main(["app", base_path, "--out", str(a)]) == EXIT_OK
        assert main(["app", str(scaled), "--out", str(b)]) == EXIT_OK
        fa = read_front(a)
        fb = read_front(b)
        assert len(fa) == len(fb)
        for pa, pb in zip(fa, fb):
            assert pa.design == pb.design
            assert abs(pa.g_o - pb.g_o) <= 1e-9
            assert abs(pa.ln_g_f - pb.ln_g_f) <= 1e-9 or pa.ln_g_f == pb.ln_g_f

    def test_sweep_cap_flagged(self, tmp_path, capsys, monkeypatch):
        inst_path = tmp_path / "stiff.json"
        write_instance(single_type_instance(repair=10000.0), inst_path)
        out = tmp_path / "front.txt"
        monkeypatch.setattr(app, "DELTA_P", 1.01)
        assert main(["app", str(inst_path), "--out", str(out)]) == EXIT_FLAGGED
        err = capsys.readouterr().err
        assert "flag:" in err and "cap-reached" in err

    def test_mode_flag_removed(self, base_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["app", base_path, "--out", str(tmp_path / "f.txt"), "--mode", "sweep"])
        assert exc.value.code == 2


class TestExact:
    def test_small_instance(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "exact.txt"
        assert main(["exact", tiny_path, "--out", str(out)]) == EXIT_OK
        assert "exact front:" in capsys.readouterr().out
        front = read_front(out)
        assert len(front) >= 2
        assert all(p.provenance == "exact" for p in front)

    def test_ceiling_checked_before_listing(self, million_path, tmp_path, capsys):
        # a million copies of one type: checked against the ceiling, never listed
        out = tmp_path / "exact.txt"
        start = time.perf_counter()
        code = main(["exact", million_path, "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        assert "design space has at least 200001 members" in capsys.readouterr().err
        assert not out.exists()

    def test_large_space_counted_quickly(self, instances_dir, tmp_path):
        # 3 types sharing 1,000 slots: C(1003, 3) designs, far too many to
        # list; the first two types already pass the ceiling
        doc = json.loads((instances_dir.parent / "perfbench/data/large-3.json").read_text())
        doc["constraints"][0]["bound"] = 1000
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "exact.txt"
        env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "parmaint.cli", "exact", str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == EXIT_ERROR
        assert "design space has at least 501501 members" in done.stderr
        assert not out.exists()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda path, out: main(["dop", path, "--out", out, "--tolerance", "1e-9"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--tolerance", "1e-9"]), SystemExit),
        (lambda path, out: main(["exact", path, "--out", out, "--tolerance", "1e-9"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--ties"]), SystemExit),
        (lambda path, out: run_app(load_instance(path), tolerance=1e-9), TypeError),
        (lambda path, out: run_app(load_instance(path), record_ties=True), TypeError),
        (lambda path, out: exact_front(load_instance(path), tolerance=1e-9), TypeError),
        (lambda path, out: main(["exact", path, "--out", out, "--maximal-only"]), SystemExit),
        (lambda path, out: exact_front(load_instance(path), maximal_only=True), TypeError),
        (lambda path, out: main(["compare", out, out, "--tolerance", "1e-6"]), SystemExit),
        (lambda path, out: non_dom_filter([], tolerance=1e-6), TypeError),
        (lambda path, out: write_instance(load_instance(path), out, form="table"), TypeError),
        (lambda path, out: main(["dop", path, "--out", out, "--eps-min", "0"]), SystemExit),
        (lambda path, out: main(["dop", path, "--out", out, "--delta-eps", "-0.1"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--eps-min", "0"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--delta-eps", "-0.1"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--delta", "0.1"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--p-min", "1"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--delta-p", "2"]), SystemExit),
        (lambda path, out: sp1_sweep(load_instance(path), eps_min=0.0), TypeError),
        (lambda path, out: sp2(load_instance(path), (1, 0, 0, 0), p_min=1.0), TypeError),
        (lambda path, out: run_app(load_instance(path), delta_p=2.0), TypeError),
        (lambda path, out: main(["instance", "validate", path, "--multipliers", "2,2,2,2"]),
         SystemExit),
        (lambda path, out: main(["dop", path, "--out", out, "--multipliers", "2,2,2,2"]),
         SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--multipliers", "2,2,2,2"]),
         SystemExit),
        (lambda path, out: main(["exact", path, "--out", out, "--multipliers", "2,2,2,2"]),
         SystemExit),
        (lambda path, out: main(["dmp", path, "--design", "1,0,0,0", "--out", out,
                                 "--multipliers", "2,2,2,2"]), SystemExit),
        (lambda path, out: main(["simulate", path, "--design", "1,0,0,0", "--out", out,
                                 "--multipliers", "2,2,2,2"]), SystemExit),
        (lambda path, out: main(["app", path, "--out", out, "--plot-out", out]), SystemExit),
        (lambda path, out: main(["exact", path, "--out", out, "--plot-out", out]), SystemExit),
        (lambda path, out: main(["simulate", path, "--design", "1,0,0,0", "--out", out,
                                 "--penalty", "100"]), SystemExit),
        (lambda path, out: main(["simulate", path, "--design", "1,0,0,0", "--out", out,
                                 "--batches", "20"]), SystemExit),
        (lambda path, out: _simulate_base(path, batches=20), TypeError),
        (lambda path, out: _validate_table_form(out), EXIT_ERROR),
    ],
    ids=[
        "dop-tolerance",
        "app-tolerance",
        "exact-tolerance",
        "app-ties",
        "run_app-tolerance",
        "run_app-record_ties",
        "exact_front-tolerance",
        "exact-maximal-only",
        "exact_front-maximal_only",
        "compare-tolerance",
        "non_dom_filter-tolerance",
        "write_instance-form",
        "dop-eps-min",
        "dop-delta-eps",
        "app-eps-min",
        "app-delta-eps",
        "app-delta",
        "app-p-min",
        "app-delta-p",
        "sp1_sweep-eps_min",
        "sp2-p_min",
        "run_app-delta_p",
        "instance-validate-multipliers",
        "dop-multipliers",
        "app-multipliers",
        "exact-multipliers",
        "dmp-multipliers",
        "simulate-multipliers",
        "app-plot-out",
        "exact-plot-out",
        "simulate-penalty",
        "simulate-batches",
        "simulate_policy-batches",
        "instance-validate-table-form",
    ],
)
def test_front_builder_options_removed(base_path, tmp_path, capsys, call, error):
    # the front builders dedupe and compare judges at DOM_TOL only, only
    # dop keeps --ties, the exact front always covers every feasible
    # design, instances are written and read as JSON only, the sweep
    # schedule is fixed (dop keeps only --delta), rates are scaled in the
    # instance file, fronts are plotted from the front file, simulate
    # takes its policy from a file, and a run has sim.BATCHES batches
    out = str(tmp_path / "f.txt")
    if error == EXIT_ERROR:
        assert call(base_path, out) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid JSON" in err
    else:
        with pytest.raises(error) as exc:
            call(base_path, out)
        if error is SystemExit:
            assert exc.value.code == 2
    assert not (tmp_path / "f.txt").exists()


def _simulate_base(path, **options):
    model = build_model(load_instance(path), (1, 0, 0, 0))
    return simulate_policy(model, fully_active_policy(model), horizon=10.0, **options)


def _validate_table_form(out):
    # the line-oriented table form of a one-type instance
    table = pathlib.Path(out).with_name("one-type.table")
    table.write_text(
        "component 1 p=0.99 tau=1 usage_cost=1 repair_cost=100 install_cost=3 weight=5\n"
        "constraint cost bound=20 coeffs=3\n"
    )
    return main(["instance", "validate", str(table)])


class TestOutputPaths:
    """Every output path is checked before the run, so a typo costs no
    front: the reason names the flag and the missing directory."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["app", "--out"], "--out"),
            (["dop", "--out", "{tmp}/static.txt", "--front-out"], "--front-out"),
            (["dmp", "--design", "1,0,0,0", "--out", "{tmp}/gain.txt", "--policy-out"],
             "--policy-out"),
        ],
        ids=["app-out", "dop-front-out", "dmp-policy-out"],
    )
    def test_missing_directory(self, base_path, tmp_path, capsys, argv, flag):
        missing = tmp_path / "missing"
        argv = [a.format(tmp=tmp_path) for a in argv]
        code = main([argv[0], base_path, *argv[1:], str(missing / "f.txt")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {flag} {missing / 'f.txt'}: no directory {missing}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_directory_as_output(self, base_path, tmp_path, capsys):
        assert main(["app", base_path, "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory\n"

    def test_exact_on_large_3_fails_at_once(self, instances_dir, tmp_path):
        # the whole large-3 front takes over a minute; the check comes first
        out = tmp_path / "missing" / "exact.txt"
        large = instances_dir.parent / "perfbench" / "data" / "large-3.json"
        env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "parmaint.cli", "exact", str(large), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == EXIT_ERROR
        assert done.stderr == f"error: --out {out}: no directory {out.parent}\n"


@pytest.mark.parametrize("command", ["dop", "app"])
def test_static_stage_checks_the_ceiling(command, million_path, instances_dir, tmp_path):
    # the sweep lists its designs through the same ceiling check as exact
    out = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "parmaint.cli", command, million_path, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == EXIT_ERROR
    assert "design space has at least 200001 members" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["dop", "app", "exact"])
def test_copy_bound_past_int64_stops_at_the_ceiling(command, million_path, instances_dir, tmp_path):
    # copy bounds of 5e18 and 1e19 would overflow an int64 count of copies;
    # every row is counted up to the ceiling only
    for bound in (5e18, 1e19):
        doc = json.loads(pathlib.Path(million_path).read_text())
        doc["constraints"][0]["bound"] = bound
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "parmaint.cli", command, str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == EXIT_ERROR
        assert done.stderr == (
            "error: design space has at least 200001 members, above the ceiling of 200000\n"
        )
        assert not out.exists()


@pytest.fixture(scope="module")
def stress_path(tmp_path_factory):
    """One type at q = 1e-6: design (6,) is the first whose exact trace
    meets a solve that ends without its certificate."""
    path = tmp_path_factory.mktemp("inst") / "stress.json"
    write_instance(single_type_instance(q=1e-6, repair=1000.0, bound=8), path)
    return str(path)


class TestFlags:
    """Every ``flag:`` and ``# note:`` line names its design in catalog
    order, a point's flags as ``design <x> penalty <p>: <flag>``."""

    def test_notes_name_designs_in_catalog_order(
        self, base_instance, tmp_path, capsys, monkeypatch
    ):
        # usage costs 4,3,2,1 reverse the priority order, so the catalog's
        # design 4,0,0,0 is (0, 0, 0, 4) inside
        path = tmp_path / "reversed.json"
        write_instance(base_instance.modified(usage_costs=[4, 3, 2, 1]), path)
        out = tmp_path / "front.txt"
        monkeypatch.setattr(app, "P_MIN", 1e-9)
        monkeypatch.setattr(app, "DELTA_P", 1.01)
        assert main(["app", str(path), "--out", str(out)]) == EXIT_FLAGGED
        lines = out.read_text().splitlines()
        notes = [l[len("# note: "):] for l in lines if l.startswith("# note: ")]
        assert notes[0].startswith("design (4, 0, 0, 0) penalty ")
        assert notes[0].endswith(": cap-reached")
        assert capsys.readouterr().err.splitlines() == [f"flag: {note}" for note in notes]

    def test_uncertified_solve_flags_dmp_and_simulate(self, stress_path, tmp_path, capsys):
        # dmp flags its uncertified solve; simulate of that policy flags
        # only what it saw itself
        flag = "flag: design (6,) penalty 6000006000.977458: unconverged"
        pol = tmp_path / "policy.txt"
        argv = ["--design", "6", "--penalty", "6000006000.977458", "--policy-out", str(pol)]
        code = main(["dmp", stress_path, *argv, "--out", str(tmp_path / "gain.txt")])
        assert code == EXIT_FLAGGED
        assert capsys.readouterr().err.splitlines() == [flag]
        sim = tmp_path / "sim.txt"
        argv = ["--design", "6", "--policy-file", str(pol), "--horizon", "1e3"]
        code = main(["simulate", stress_path, *argv, "--out", str(sim)])
        assert code == EXIT_FLAGGED
        assert capsys.readouterr().err.splitlines() == [
            "flag: design (6,): only 0 failure entries; g_f estimate is unreliable "
            "at this horizon",
        ]

    def test_full_repair_point_checks_the_closed_form(self, base_path, tmp_path, capsys,
                                                      monkeypatch):
        import parmaint.app

        monkeypatch.setattr(parmaint.app, "dop_objectives", lambda instance, design: (0.0, 0.0))
        code = main(["dmp", base_path, "--design", "1,0,0,0", "--out", str(tmp_path / "g.txt")])
        assert code == EXIT_FLAGGED
        assert capsys.readouterr().err == (
            "flag: design (1, 0, 0, 0) penalty None: static-mismatch\n"
        )

    def test_full_repair_below_the_log_floor_matches(self, tmp_path, capsys, monkeypatch):
        # g_f of 1e-304, 1e-312 and 1e-320 reads ln_g_f = -inf, as does a
        # closed form below the log of LN_GF_FLOOR
        import parmaint.app

        path = tmp_path / "one-type.json"
        write_instance(single_type_instance(q=1e-8, repair=1000.0, bound=40), path)
        argv = ["dmp", str(path), "--out", str(tmp_path / "g.txt"), "--design"]
        for design in ("38", "39", "40"):
            assert main([*argv, design]) == EXIT_OK
            assert capsys.readouterr().err == ""
        # a closed form above the floor against the evaluated -inf still flags
        real = parmaint.app.dop_objectives
        monkeypatch.setattr(parmaint.app, "dop_objectives", lambda i, d: (real(i, d)[0], -600.0))
        assert main([*argv, "38"]) == EXIT_FLAGGED
        assert capsys.readouterr().err == "flag: design (38,) penalty None: static-mismatch\n"


class TestDmp:
    def test_gain_report_keeps_g_f_below_the_log_floor(self, tmp_path):
        # full repair of 38 copies fails at rate 1e-304, below LN_GF_FLOOR,
        # where ln_g_f reads -inf and exp(ln_g_f) would read 0
        path = tmp_path / "one-type.json"
        write_instance(single_type_instance(q=1e-8, repair=1000.0, bound=40), path)
        out = tmp_path / "gain.txt"
        main(["dmp", str(path), "--design", "38", "--out", str(out)])
        text = out.read_text()
        assert "\ng_f = 1e-304\n" in text
        assert "\nln_g_f = -inf\n" in text

    def test_singular_sparse_factor_is_an_error(self, instances_dir, tmp_path):
        # SuperLU finds an exactly zero pivot in one of this solve's chains
        # (a 107-node block), at the penalty where exact's trace of this
        # design meets it
        path = tmp_path / "one-type.json"
        write_instance(single_type_instance(q=1e-8, repair=1000.0, bound=40), path)
        env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "parmaint.cli", "dmp", str(path), "--design", "20",
             "--penalty", "19001.000000007407", "--out", str(tmp_path / "gain.txt")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_ERROR
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "-node block" in lines[0]

    def test_empty_design_full_repair(self, base_path, tmp_path, capsys):
        out = tmp_path / "gain.txt"
        code = main(["dmp", base_path, "--design", "0,0,0,0", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "g_o = 0 " in text
        assert "g_f = 1 " in text
        assert "penalty = -" in out.read_text()

    def test_penalized_single_copy(self, base_path, base_instance, tmp_path, capsys):
        out = tmp_path / "gain.txt"
        pol = tmp_path / "policy.txt"
        code = main(
            [
                "dmp",
                base_path,
                "--design",
                "1,0,0,0",
                "--penalty",
                "100",
                "--out",
                str(out),
                "--policy-out",
                str(pol),
            ]
        )
        assert code == EXIT_OK
        got = dict(
            l.split(" = ", 1)
            for l in out.read_text().splitlines()
            if " = " in l and not l.startswith("#")
        )
        assert float(got["g_o"]) == pytest.approx(1.99, abs=1e-8)
        assert float(got["g_f"]) == pytest.approx(0.01, abs=1e-10)
        model = build_model(base_instance, (1, 0, 0, 0))
        policy = read_policy(pol, model)
        sid = model.state_id(((0, 1), (0, 0), (0, 0), (0, 0)))
        repairs = model.states[policy.post_ids[sid], 0::2] - model.states[sid, 0::2]
        assert repairs.tolist() == [1, 0, 0, 0]

    def test_wrong_design_length(self, base_path, capsys):
        code = main(["dmp", base_path, "--design", "1,0,0"])
        assert code == EXIT_ERROR
        assert "design needs 4 counts" in capsys.readouterr().err

    def test_infeasible_design(self, base_path, capsys):
        code = main(["dmp", base_path, "--design", "9,9,9,9"])
        assert code == EXIT_ERROR
        assert "violates" in capsys.readouterr().err

    def test_count_above_a_limited_copy_bound(self, tmp_path, capsys):
        # 1.0000000001e-3 > 1e-3 by only 1e-13, but the copy bound is 0
        doc = {
            "components": [
                {"label": "a", "p": 0.9, "tau": 1, "usage_cost": 1, "repair_cost": 10,
                 "install_cost": 1, "weight": 1}
            ],
            "constraints": [{"name": "slots", "coefficients": [1.0000000001e-3], "bound": 1e-3}],
        }
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        code = main(["dmp", str(path), "--design", "1", "--out", str(tmp_path / "gain.txt")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: design 1 violates the instance constraints\n"
        assert not (tmp_path / "gain.txt").exists()

    def test_count_past_a_float_is_infeasible(self, base_path, tmp_path, capsys):
        nines = "9" * 400
        code = main(["dmp", base_path, "--design", f"{nines},0,0,0",
                     "--out", str(tmp_path / "gain.txt")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: design {nines},0,0,0 violates the instance constraints\n"

    @staticmethod
    def _instance_path(tmp_path, usage_costs, coefficients, bound):
        comps = [
            {"label": str(i + 1), "p": 0.99, "tau": 1, "usage_cost": c, "repair_cost": 100,
             "install_cost": 1, "weight": 1}
            for i, c in enumerate(usage_costs)
        ]
        row = {"name": "slots", "coefficients": coefficients, "bound": bound}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"components": comps, "constraints": [row]}))
        return str(path)

    def test_state_count_past_int64_meets_the_ceiling(self, tmp_path, capsys):
        # 4,504,501^3 states wrap in int64; counted exactly they stop at the ceiling
        path = self._instance_path(tmp_path, [1, 2, 3], [1e-9, 1e-9, 1e-9], 1)
        tracemalloc.start()
        try:
            code = main(["dmp", path, "--design", "3000,3000,3000",
                         "--out", str(tmp_path / "gain.txt")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: design (3000, 3000, 3000) yields 91398709337699263501 states")
        assert err.count("\n") == 1
        assert peak < 2**20

    def test_unlimited_count_past_int64_meets_the_ceiling(self, tmp_path, capsys):
        # a tiny coefficient lets "2" take 5e9 copies, whose state count is past int64
        path = self._instance_path(tmp_path, [1, 2], [1, 1e-10], 3)
        code = main(["dmp", path, "--design", "1,5000000000", "--out", str(tmp_path / "gain.txt")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: design (1, 5000000000) yields 37500000022500000003 states")
        assert err.count("\n") == 1

    def test_state_action_pairs_meet_their_ceiling(self, tmp_path, capsys):
        path = self._instance_path(tmp_path, [1], [1], 3000)
        start = time.perf_counter()
        code = main(["dmp", path, "--design", "3000", "--out", str(tmp_path / "gain.txt")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "yields 4504501 states and 4509005501 state-action pairs" in err
        assert err.count("\n") == 1

    def test_state_ceiling_names_the_design_in_catalog_order(self, tmp_path, capsys):
        # type "1" costs more to run, so it comes second in priority order
        path = self._instance_path(tmp_path, [5, 1], [1e-9, 1e-9], 1)
        code = main(["dmp", path, "--design", "4000,1", "--out", str(tmp_path / "gain.txt")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: design (4000, 1) yields 24018003 states")
        assert err.count("\n") == 1

    def test_non_integer_design_count(self, base_path, capsys):
        code = main(["dmp", base_path, "--design", "1,x,0,0"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: --design needs comma-separated integers, got '1,x,0,0'\n"

    def test_bad_penalty(self, base_path, tmp_path, capsys):
        out = tmp_path / "gain.txt"
        for penalty in ("nan", "-5"):
            code = main(
                ["dmp", base_path, "--design", "1,0,0,0", "--penalty", penalty,
                 "--out", str(out)]
            )
            assert code == EXIT_ERROR
            assert "penalty must be finite and non-negative" in capsys.readouterr().err
            assert not out.exists()

    def test_overflowing_penalty(self, base_path, tmp_path, capsys):
        out = tmp_path / "gain.txt"
        code = main(
            ["dmp", base_path, "--design", "1,1,0,0", "--penalty", "1e306", "--out", str(out)]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: penalty 1e+306 overflows the policy-improvement tests\n"
        assert not out.exists()


class TestSimulate:
    def test_plain_run(self, base_path, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        code = main(
            [
                "simulate",
                base_path,
                "--design",
                "1,0,0,0",
                "--horizon",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert "g_o = " in capsys.readouterr().out
        assert "rare_failure = no" in out.read_text()

    def test_rare_failure_flagged(self, base_path, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        code = main(
            [
                "simulate",
                base_path,
                "--design",
                "0,5,0,0",
                "--horizon",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_FLAGGED
        assert "failure entries" in capsys.readouterr().err
        assert "rare_failure = yes" in out.read_text()

    def test_non_finite_horizon(self, base_path, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        for horizon in ("inf", "nan"):
            code = main(
                ["simulate", base_path, "--design", "1,0,0,0", "--horizon", horizon,
                 "--out", str(out)]
            )
            assert code == EXIT_ERROR
            assert "horizon must be positive and finite" in capsys.readouterr().err
            assert not out.exists()

    def test_horizon_beyond_event_ceiling(self, base_path, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        start = time.perf_counter()
        code = main(
            ["simulate", base_path, "--design", "1,0,0,0", "--horizon", "1e30",
             "--out", str(out)]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "horizon 1e+30" in err and "over the ceiling" in err
        assert not out.exists()

    def test_negative_seed(self, base_path, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        code = main(
            ["simulate", base_path, "--design", "1,0,0,0", "--seed", "-1", "--out", str(out)]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_policy_file_round_trip(self, base_path, tmp_path):
        pol = tmp_path / "policy.txt"
        gain = tmp_path / "gain.txt"
        code = main(
            [
                "dmp",
                base_path,
                "--design",
                "1,0,0,0",
                "--penalty",
                "100",
                "--out",
                str(gain),
                "--policy-out",
                str(pol),
            ]
        )
        assert code == EXIT_OK
        out = tmp_path / "sim.txt"
        code = main(
            [
                "simulate",
                base_path,
                "--design",
                "1,0,0,0",
                "--policy-file",
                str(pol),
                "--horizon",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK


    def test_policy_file_bad_rows(self, base_path, tmp_path, capsys):
        pol = tmp_path / "policy.txt"
        code = main(
            ["dmp", base_path, "--design", "1,1,0,0", "--out", str(tmp_path / "gain.txt"),
             "--policy-out", str(pol)]
        )
        assert code == EXIT_OK
        text = pol.read_text()
        row = "0,1|0,1|0,0|0,0 1,1,0,0"
        assert row in text
        out = tmp_path / "sim.txt"
        for bad, reason in (
            (text.replace(row, "0,1|0,1|0,0|0,0 0,2,0,0"),
             "state 0,1|0,1|0,0|0,0: action 0,2,0,0 repairs outside 0..damaged"),
            (text.replace(row, "0,1|0,1|0,0|0,0 1"),
             "state 0,1|0,1|0,0|0,0: action has 1 entries for 4 types"),
            (text + "0,1|0,1|0,0|0,0 0,0,0,0\n", "repeats state 0,1|0,1|0,0|0,0"),
            (text.replace(row, "0,99999999999999999999|0,1|0,0|0,0 1,1,0,0"),
             "state row (0, 99999999999999999999) violates copy bound 1"),
        ):
            pol.write_text(bad)
            code = main(
                ["simulate", base_path, "--design", "1,1,0,0", "--policy-file", str(pol),
                 "--horizon", "100", "--out", str(out)]
            )
            assert code == EXIT_ERROR
            assert reason in capsys.readouterr().err
            assert not out.exists()

    def test_policy_file_malformed_tokens(self, base_path, tmp_path, capsys):
        pol = tmp_path / "policy.txt"
        code = main(
            ["dmp", base_path, "--design", "1,1,0,0", "--out", str(tmp_path / "gain.txt"),
             "--policy-out", str(pol)]
        )
        assert code == EXIT_OK
        row = "0,1|0,1|0,0|0,0 1,1,0,0"
        bad = "0,x|0,1|0,0|0,0 1,1,0,0"
        pol.write_text(pol.read_text().replace(row, bad))
        out = tmp_path / "sim.txt"
        code = main(
            ["simulate", base_path, "--design", "1,1,0,0", "--policy-file", str(pol),
             "--horizon", "100", "--out", str(out)]
        )
        assert code == EXIT_ERROR
        assert f"bad policy row '{bad}'" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_file_without_header(self, base_path, tmp_path, capsys):
        # the first row must not stand in for the header, nor any other header
        pol = tmp_path / "policy.txt"
        code = main(
            ["dmp", base_path, "--design", "1,1,0,0", "--out", str(tmp_path / "gain.txt"),
             "--policy-out", str(pol)]
        )
        assert code == EXIT_OK
        text = pol.read_text()
        assert "\nstate action\n" in text
        out = tmp_path / "sim.txt"
        for header in ("", "foo bar\n"):
            pol.write_text(text.replace("state action\n", header))
            code = main(
                ["simulate", base_path, "--design", "1,1,0,0", "--policy-file", str(pol),
                 "--horizon", "100", "--out", str(out)]
            )
            assert code == EXIT_ERROR
            assert capsys.readouterr().err == f"error: {pol} has no policy header\n"
            assert not out.exists()


class TestCompare:
    def test_front_against_itself(self, base_path, tmp_path, capsys):
        front = tmp_path / "front.txt"
        assert main(["app", base_path, "--out", str(front)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "cmp.txt"
        code = main(["compare", str(front), str(front), "--out", str(out)])
        assert code == EXIT_OK
        assert "matched 12, dominated 0, absent 0" in capsys.readouterr().out
        assert "# matched = 12" in out.read_text()

    def test_exact_front_against_itself(self, tmp_path, capsys):
        # judged at DOM_TOL, the tolerance the front was merged at, no
        # point of a front is dominated by another of its points
        front = str(pathlib.Path(__file__).resolve().parent / "data" / "large-3-exact.front")
        out = tmp_path / "cmp.txt"
        assert main(["compare", front, front, "--out", str(out)]) == EXIT_OK
        assert "matched 207, dominated 0, absent 0" in capsys.readouterr().out
        assert "# tolerance = 1e-09" in out.read_text().splitlines()

    def test_fronts_of_different_widths_rejected(self, tmp_path, capsys):
        one, two = tmp_path / "one.txt", tmp_path / "two.txt"
        one.write_text("provenance x_1 p g_o ln_g_f\nexact 1 - 1 -1\n")
        two.write_text("provenance x_1 x_2 p g_o ln_g_f\nexact 1 0 - 1 -1\n")
        out = tmp_path / "cmp.txt"
        code = main(["compare", str(one), str(two), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "front design lengths [1] differ from reference design lengths [2]" in err
        assert not out.exists()

    def test_junk_front_rejected(self, tmp_path, capsys):
        junk = tmp_path / "junk.txt"
        junk.write_text("garbage\n")
        out = tmp_path / "cmp.txt"
        code = main(["compare", str(junk), str(junk), "--out", str(out)])
        assert code == EXIT_ERROR
        assert "no front header" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestScipyOnlyForLargeChains:
    """Chains of up to ``DENSE_NODES`` nodes are solved by numpy alone, so a
    command that solves only such chains never imports scipy."""

    @staticmethod
    def _run(root, *argv):
        code = (
            "import sys\n"
            "from parmaint.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(status, 'scipy' in sys.modules, 'scipy.sparse.linalg' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        status, scipy, splu = done.stdout.split("\n")[-2].split()
        assert status == str(EXIT_OK)
        return scipy == "True", splu == "True"

    def test_small_chains_take_numpy(self, instances_dir, tmp_path):
        root = instances_dir.parent
        out = str(tmp_path / "front.txt")
        assert self._run(root, "app", "instances/base-6-20.json", "--out", out) == (False, False)
        single = "perfbench/data/single-1.json"
        assert self._run(root, "exact", single, "--out", out) == (False, False)
        # full repair on 2,250 states uses the 100 with nothing damaged
        argv = ["dmp", "perfbench/data/large-3.json", "--design", "3,4,4"]
        assert self._run(root, *argv, "--out", str(tmp_path / "gain.txt")) == (False, False)

    def test_large_chain_takes_sparse_lu(self, instances_dir, tmp_path):
        # 2,250 states: the solve's chains are far above the cutoff
        argv = ["dmp", "perfbench/data/large-3.json", "--design", "3,4,4"]
        argv += ["--penalty", "1e5", "--out", str(tmp_path / "gain.txt")]
        assert self._run(instances_dir.parent, *argv) == (True, True)
