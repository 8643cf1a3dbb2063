import json
import os
import subprocess
import sys
import time

import pytest

from parmaint.app import run_app
from parmaint.cli import EXIT_ERROR, EXIT_FLAGGED, EXIT_OK, main
from parmaint.ctmdp import build_model
from parmaint.exact import exact_front
from parmaint.io import read_front, read_policy
from parmaint.model import load_instance, write_instance

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

    def test_table_instance(self, instances_dir, capsys):
        path = str(instances_dir / "base-6-20")
        assert main(["instance", "validate", path]) == EXIT_OK
        assert "instance ok" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["instance", "validate", str(tmp_path / "nope.json")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_uniform_multipliers_leave_unavailability(self, base_path, capsys):
        assert main(["instance", "validate", base_path]) == EXIT_OK
        plain = capsys.readouterr().out
        code = main(["instance", "validate", base_path, "--multipliers", "2,2,2,2"])
        assert code == EXIT_OK
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

    def test_never_available_unconstrained_type_is_an_error(self, tmp_path, capsys):
        # unavailability 1 / (1 + 1e-300) rounds to 1 and no row limits "b"
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

    def test_bad_multiplier_count(self, base_path, capsys):
        code = main(["instance", "validate", base_path, "--multipliers", "2,2"])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_multiplier(self, base_path, capsys):
        code = main(["instance", "validate", base_path, "--multipliers", "1,a,1,1"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: --multipliers needs comma-separated numbers, got '1,a,1,1'\n"


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
        for flag, value, reason in (
            ("--eps-min", "nan", "starting cap must be finite"),
            ("--delta-eps", "nan", "cap step must be finite"),
            ("--delta", "nan", "penalty inflation must be finite"),
        ):
            code = main(["dop", base_path, "--out", str(out), flag, value])
            assert code == EXIT_ERROR
            assert reason in capsys.readouterr().err
            assert not out.exists()


class TestApp:
    def test_front_file_revalidates(self, base_path, base_instance, tmp_path, capsys):
        out = tmp_path / "front.txt"
        assert main(["app", base_path, "--out", str(out)]) == EXIT_OK
        assert "heuristic front: 12 points" in capsys.readouterr().out
        front = read_front(out)
        assert len(front) == 12
        assert front.complete
        assert revalidate_front(base_instance, front) <= 1e-8

    def test_thread_count_stable(self, base_path, base_instance, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["app", base_path, "--out", str(a), "--threads", "1"]) == EXIT_OK
        assert main(["app", base_path, "--out", str(b), "--threads", "2"]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_uniform_rate_scaling_keeps_front(self, base_path, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        code = main(
            ["app", base_path, "--out", str(a), "--multipliers", "1,1,1,1"]
        )
        assert code == EXIT_OK
        code = main(
            ["app", base_path, "--out", str(b), "--multipliers", "5,5,5,5"]
        )
        assert code == EXIT_OK
        fa = read_front(a)
        fb = read_front(b)
        assert len(fa) == len(fb)
        for pa, pb in zip(fa, fb):
            assert pa.design == pb.design
            assert abs(pa.g_o - pb.g_o) <= 1e-9
            assert abs(pa.ln_g_f - pb.ln_g_f) <= 1e-9 or pa.ln_g_f == pb.ln_g_f

    def test_sweep_cap_flagged(self, tmp_path, capsys):
        inst_path = tmp_path / "stiff.json"
        write_instance(single_type_instance(repair=10000.0), inst_path)
        out = tmp_path / "front.txt"
        code = main(
            ["app", str(inst_path), "--out", str(out), "--delta-p", "1.01"]
        )
        assert code == EXIT_FLAGGED
        err = capsys.readouterr().err
        assert "flag:" in err and "cap-reached" in err

    def test_bad_sweep_arguments(self, base_path, tmp_path, capsys):
        out = tmp_path / "front.txt"
        for flag, value in (
            ("--delta-p", "1"), ("--p-min", "0"), ("--p-min", "nan"), ("--delta-p", "inf"),
        ):
            code = main(["app", base_path, "--out", str(out), flag, value])
            assert code == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: penalty")
            assert "dynamic stage failed" not in err
            assert not out.exists()

    def test_mode_flag_removed(self, base_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["app", base_path, "--out", str(tmp_path / "f.txt"), "--mode", "sweep"])
        assert exc.value.code == 2

    def test_plot_out(self, tiny_path, tmp_path):
        out = tmp_path / "front.txt"
        plot = tmp_path / "plot.txt"
        code = main(["app", tiny_path, "--out", str(out), "--plot-out", str(plot)])
        assert code == EXIT_OK
        assert plot.read_text().startswith("# parmaint plot data")


class TestExact:
    def test_small_instance(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "exact.txt"
        assert main(["exact", tiny_path, "--out", str(out)]) == EXIT_OK
        assert "exact front:" in capsys.readouterr().out
        front = read_front(out)
        assert len(front) >= 2
        assert all(p.provenance == "exact" for p in front)

    def test_ceiling_checked_before_listing(self, million_path, tmp_path, capsys):
        # a million copies of one type: counted at once, never listed
        out = tmp_path / "exact.txt"
        start = time.perf_counter()
        code = main(["exact", million_path, "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        assert "design space has 1000001 members" in capsys.readouterr().err
        assert not out.exists()

    def test_large_space_counted_quickly(self, instances_dir, tmp_path):
        # 3 types sharing 1,000 slots: C(1003, 3) designs, far too many to
        # list one by one, counted within the timeout
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
        assert "design space has 167668501 members" in done.stderr
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
    ],
    ids=[
        "dop-tolerance",
        "app-tolerance",
        "exact-tolerance",
        "app-ties",
        "run_app-tolerance",
        "run_app-record_ties",
        "exact_front-tolerance",
    ],
)
def test_front_builder_options_removed(base_path, tmp_path, call, error):
    # the front builders dedupe at DOM_TOL only, and only dop keeps --ties
    with pytest.raises(error) as exc:
        call(base_path, str(tmp_path / "f.txt"))
    if error is SystemExit:
        assert exc.value.code == 2
    assert not (tmp_path / "f.txt").exists()


@pytest.mark.parametrize("command", ["dop", "app"])
def test_static_stage_checks_the_ceiling(command, million_path, instances_dir, tmp_path):
    # the sweep lists its designs through the same counted guard as exact
    out = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "parmaint.cli", command, million_path, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == EXIT_ERROR
    assert "design space has 1000001 members" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


class TestDmp:
    def test_singular_sparse_factor_is_an_error(self, instances_dir, tmp_path):
        # SuperLU finds an exactly zero pivot in one of this solve's chains
        path = tmp_path / "one-type.json"
        write_instance(single_type_instance(q=1e-7, repair=1000.0, bound=40), path)
        env = dict(os.environ, PYTHONPATH=str(instances_dir.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "parmaint.cli", "dmp", str(path), "--design", "39",
             "--penalty", "10000", "--out", str(tmp_path / "gain.txt")],
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

    def test_batches_beyond_ceiling(self, base_path, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        start = time.perf_counter()
        code = main(
            ["simulate", base_path, "--design", "1,0,0,0", "--horizon", "100",
             "--batches", "1000000000", "--out", str(out)]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        assert "batches must lie in [2, 10000], got 1000000000" in capsys.readouterr().err
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

    def test_penalty_with_policy_file_rejected(self, base_path, tmp_path, capsys):
        pol = tmp_path / "policy.txt"
        code = main(
            ["dmp", base_path, "--design", "1,0,0,0", "--penalty", "100",
             "--out", str(tmp_path / "gain.txt"), "--policy-out", str(pol)]
        )
        assert code == EXIT_OK
        out = tmp_path / "sim.txt"
        code = main(
            ["simulate", base_path, "--design", "1,0,0,0", "--policy-file", str(pol),
             "--penalty", "100", "--horizon", "100", "--out", str(out)]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "--penalty" in err and "--policy-file" in err
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

    def test_bad_tolerance(self, tiny_path, tmp_path, capsys):
        front = tmp_path / "front.txt"
        assert main(["app", tiny_path, "--out", str(front)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "cmp.txt"
        for value in ("nan", "-1"):
            code = main(
                ["compare", str(front), str(front), "--out", str(out), "--tolerance", value]
            )
            assert code == EXIT_ERROR
            assert "tolerance must be finite" in capsys.readouterr().err
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
