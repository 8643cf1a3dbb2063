import math
import re
from pathlib import Path

import numpy as np
import pytest

from parmaint.app import DYNAMIC_SP2, STATIC_SP1, ParetoFront, SolutionPoint, run_app
from parmaint.ctmdp import build_model
from parmaint.dop import StaticSolution
from parmaint.exact import ComparisonEntry, ComparisonReport, compare_fronts
from parmaint.io import (
    fmt,
    read_front,
    read_policy,
    write_compare_report,
    write_front,
    write_gain_report,
    write_policy,
    write_sim_report,
    write_static_table,
)
from parmaint.mdp_solve import GainPair, evaluate_policy, fully_active_policy, solve_average_cost
from parmaint.model import ComponentType, make_instance
from parmaint.sim import SimReport, simulate_policy

FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"


def _example(heading):
    """The first code block under a FORMATS.md heading, as file text."""
    text = FORMATS.read_text()
    return text[text.index(f"\n## {heading}") :].split("```\n", 2)[1]


def _flipped_instance():
    dear = ComponentType(
        alpha=0.25,
        tau=1.0,
        usage_cost=5.0,
        repair_cost=1.0,
        install_cost=1.0,
        weight=1.0,
        label="dear",
    )
    cheap = ComponentType(
        alpha=0.25,
        tau=1.0,
        usage_cost=2.0,
        repair_cost=1.0,
        install_cost=1.0,
        weight=1.0,
        label="cheap",
    )
    return make_instance([dear, cheap], [[1.0, 1.0]], [6.0], names=["slots"])


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(2.0) == "2"
        assert fmt(1e-12) == "1e-12"
        assert fmt(-19.5601150266) == "-19.5601150266"

    def test_missing_and_infinite(self):
        assert fmt(None) == "-"
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"

    def test_signed_zero_written_as_zero(self):
        assert fmt(-0.0) == "0"
        assert fmt(0.0) == "0"


class TestStaticTable:
    def test_catalog_order_in_file(self, tmp_path):
        inst = _flipped_instance()
        sol = StaticSolution(design=(1, 2), g_o=0.5, ln_g_f=-1.0)
        path = tmp_path / "static.txt"
        write_static_table(path, inst, [sol])
        lines = path.read_text().splitlines()
        assert lines[0] == "# parmaint static front"
        assert lines[1] == "x_dear x_cheap g_o ln_g_f tag"
        assert lines[2].split()[:2] == ["2", "1"]


class TestFrontFiles:
    def test_round_trip_app_front(self, tmp_path, base_instance):
        front = run_app(base_instance)
        path = tmp_path / "front.txt"
        write_front(path, base_instance, front)
        back = read_front(path)
        assert len(back.points) == len(front.points)
        assert back.notes == front.notes
        for orig, got in zip(front.points, back.points):
            assert got.design == base_instance.to_catalog(orig.design)
            assert got.provenance == orig.provenance
            if orig.penalty is None:
                assert got.penalty is None
            else:
                assert got.penalty == pytest.approx(orig.penalty, rel=1e-11)
            assert got.g_o == pytest.approx(orig.g_o, rel=1e-11, abs=1e-11)
            assert got.ln_g_f == pytest.approx(orig.ln_g_f, rel=1e-11, abs=1e-11)

    def test_notes_round_trip(self, tmp_path, base_instance):
        front = ParetoFront(
            points=(
                SolutionPoint(
                    g_o=1.0,
                    ln_g_f=-2.0,
                    design=(1, 0, 0, 0),
                    provenance=STATIC_SP1,
                    penalty=None,
                ),
            ),
            notes=("sweep hit the iteration cap", "second remark"),
        )
        path = tmp_path / "front.txt"
        write_front(path, base_instance, front)
        back = read_front(path)
        assert back.notes == front.notes

    def test_designs_stay_in_catalog_order_without_instance(self, tmp_path):
        inst = _flipped_instance()
        front = ParetoFront(
            points=(
                SolutionPoint(
                    g_o=1.0,
                    ln_g_f=-2.0,
                    design=(1, 2),
                    provenance=DYNAMIC_SP2,
                    penalty=8.0,
                ),
            )
        )
        path = tmp_path / "front.txt"
        write_front(path, inst, front)
        raw = read_front(path)
        assert raw.points[0].design == (2, 1)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("# only comments here\n")
        with pytest.raises(ValueError, match="front header"):
            read_front(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text(
            "# parmaint front\n"
            "provenance x_1 x_2 x_3 x_4 p g_o ln_g_f\n"
            "static-SP1 1 0 0 0 -\n"
        )
        with pytest.raises(ValueError, match="front row"):
            read_front(path)

    def test_junk_header_rejected(self, tmp_path):
        path = tmp_path / "front.txt"
        for header in ("garbage", "provenance x_1 g_o ln_g_f", "x_1 p g_o ln_g_f"):
            path.write_text(f"# parmaint front\n{header}\n")
            with pytest.raises(ValueError, match="front header"):
                read_front(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "front.txt"
        for values in ("nan -1", "inf -1", "-inf -1", "1 nan", "1 inf"):
            path.write_text(f"provenance x_1 p g_o ln_g_f\nexact 1 - {values}\n")
            with pytest.raises(ValueError, match="front values"):
                read_front(path)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("exact x 5 2.5 -1", "invalid literal for int() with base 10: 'x'"),
            ("exact 1 abc 2.5 -1", "could not convert string to float: 'abc'"),
            ("exact 1 5 abc -1", "could not convert string to float: 'abc'"),
        ],
        ids=["design", "penalty", "g_o"],
    )
    def test_malformed_token_names_the_row(self, tmp_path, row, reason):
        path = tmp_path / "front.txt"
        path.write_text(f"provenance x_1 p g_o ln_g_f\n{row}\n")
        with pytest.raises(ValueError) as info:
            read_front(path)
        assert str(info.value) == f"bad front row {row!r}: {reason}"

    def test_minus_infinite_log_failure_rate_accepted(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("provenance x_1 p g_o ln_g_f\nexact 1 - 2.5 -inf\n")
        (point,) = read_front(path).points
        assert (point.g_o, point.ln_g_f, point.penalty) == (2.5, -math.inf, None)


class TestGainReport:
    def test_fields_written(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 0, 0, 0))
        res = solve_average_cost(model, penalty=100.0)
        pair = evaluate_policy(model, res.policy)
        path = tmp_path / "gain.txt"
        write_gain_report(
            path,
            base_instance,
            (1, 0, 0, 0),
            100.0,
            pair,
        )
        text = path.read_text()
        got = dict(
            line.split(" = ", 1)
            for line in text.splitlines()
            if " = " in line and not line.startswith("#")
        )
        assert got["design"] == "1 0 0 0"
        assert float(got["penalty"]) == 100.0
        assert float(got["g_o"]) == pytest.approx(pair.g_o, rel=1e-11)
        assert float(got["g_f"]) == pytest.approx(pair.g_f, rel=1e-11)
        assert float(got["ln_g_f"]) == pytest.approx(pair.ln_g_f, rel=1e-11)

    def test_missing_penalty_dash(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 0, 0, 0))
        gain = evaluate_policy(model, fully_active_policy(model))
        path = tmp_path / "gain.txt"
        write_gain_report(path, base_instance, (1, 0, 0, 0), None, gain)
        assert "penalty = -" in path.read_text()


class TestPolicyFiles:
    def test_round_trip_solved_policy(self, tmp_path, base_instance):
        model = build_model(base_instance, (2, 1, 0, 0))
        policy = solve_average_cost(model, penalty=64.0).policy
        path = tmp_path / "policy.txt"
        write_policy(path, model, policy)
        back = read_policy(path, model)
        assert back == policy

    def test_rows_readable(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 0, 0, 0))
        policy = fully_active_policy(model)
        path = tmp_path / "policy.txt"
        write_policy(path, model, policy)
        lines = path.read_text().splitlines()
        assert lines[0] == "# parmaint policy"
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(rows) == model.n_states
        assert "0,1|0,0|0,0|0,0 1,0,0,0" in rows

    def test_missing_state_rejected(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 0, 0, 0))
        policy = fully_active_policy(model)
        path = tmp_path / "policy.txt"
        write_policy(path, model, policy)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="misses state"):
            read_policy(path, model)

    def test_missing_or_junk_header_rejected(self, tmp_path, base_instance):
        # a headless file once lost its first row to the header slot
        model = build_model(base_instance, (1, 0, 0, 0))
        path = tmp_path / "policy.txt"
        write_policy(path, model, fully_active_policy(model))
        text = path.read_text()
        for header in ("", "foo bar\n", "state action extra\n"):
            path.write_text(text.replace("state action\n", header))
            with pytest.raises(ValueError, match=re.escape(f"{path} has no policy header")):
                read_policy(path, model)

    @staticmethod
    def _edited(tmp_path, model, state, action, extra=()):
        # the fully active policy's file with one state's action replaced
        path = tmp_path / "policy.txt"
        write_policy(path, model, fully_active_policy(model))
        lines = [
            f"{state} {action}" if l.split()[:1] == [state] else l
            for l in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines + list(extra)) + "\n")
        return path

    def test_action_beyond_damaged_copies_rejected(self, tmp_path, base_instance):
        # type 2 has one damaged copy here; the old reader took 0,2,0,0
        # for 1,0,0,0
        model = build_model(base_instance, (1, 1, 0, 0))
        big = "99999999999999999999"  # past int64; once an OverflowError
        for action in ("0,2,0,0", "0,-1,0,0", "2,0,0,0", f"0,{big},0,0", f"-{big},0,0,0"):
            path = self._edited(tmp_path, model, "0,1|0,1|0,0|0,0", action)
            with pytest.raises(ValueError, match=r"state 0,1\|0,1\|0,0\|0,0: action"):
                read_policy(path, model)

    def test_action_of_wrong_length_rejected(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 1, 0, 0))
        for action in ("1", "1,0,0,0,0"):
            path = self._edited(tmp_path, model, "0,1|0,0|0,0|0,0", action)
            with pytest.raises(ValueError, match=r"state 0,1\|0,0\|0,0\|0,0: action has"):
                read_policy(path, model)

    def test_repeated_state_rejected(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 1, 0, 0))
        path = self._edited(
            tmp_path, model, "0,1|0,0|0,0|0,0", "1,0,0,0", ["0,1|0,0|0,0|0,0 0,0,0,0"]
        )
        with pytest.raises(ValueError, match=r"repeats state 0,1\|0,0\|0,0\|0,0"):
            read_policy(path, model)

    def test_malformed_row_rejected(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 0, 0, 0))
        path = self._edited(tmp_path, model, "0,1|0,0|0,0|0,0", "1,0,0,0 extra")
        with pytest.raises(ValueError, match="bad policy row"):
            read_policy(path, model)

    def test_malformed_tokens_name_the_row(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 1, 0, 0))
        path = tmp_path / "policy.txt"
        write_policy(path, model, fully_active_policy(model))
        text = path.read_text()
        row = "0,1|0,1|0,0|0,0 1,1,0,0"
        assert row in text
        for bad in (
            "0,1,2|0,1|0,0|0,0 1,1,0,0",  # three counts in a state pair
            "0,x|0,1|0,0|0,0 1,1,0,0",  # a count that is no integer
            "0,1|0,1|0,0|0,0 1,,0,0",  # an empty action count
        ):
            path.write_text(text.replace(row, bad))
            with pytest.raises(ValueError, match=re.escape(f"bad policy row {bad!r}: ")):
                read_policy(path, model)

    def test_state_outside_the_model_names_the_row(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 1, 0, 0))
        path = tmp_path / "policy.txt"
        write_policy(path, model, fully_active_policy(model))
        text = path.read_text()
        row = "0,1|0,1|0,0|0,0 1,1,0,0"
        for bad, reason in (
            ("0,1|0,2|0,0|0,0 1,1,0,0", "state row (0, 2) violates copy bound 1"),
            ("-1,0|0,1|0,0|0,0 0,1,0,0", "state row (-1, 0) violates copy bound 1"),
            ("0,1|0,1|0,0 1,1,0,0", "state has 3 rows for 4 types"),
            ("0,1|0,1,0|0,0|0,0 1,1,0,0", "state row (0, 1, 0) is not a pair"),
            ("0,2|0,1,0|0,0|0,0 1,1,0,0", "state row (0, 2) violates copy bound 1"),
            # counts no int64 holds, and a pair whose int64 sum wraps negative
            # (that pair's wrapped mixed-radix code is a valid state id)
            (
                "0,99999999999999999999|0,1|0,0|0,0 1,1,0,0",
                "state row (0, 99999999999999999999) violates copy bound 1",
            ),
            (
                "0,1|-99999999999999999999,0|0,0|0,0 1,1,0,0",
                "state row (-99999999999999999999, 0) violates copy bound 1",
            ),
            (
                "0,0|4611686018427387904,6917529027641081857|0,0|0,0 1,1,0,0",
                "state row (4611686018427387904, 6917529027641081857) violates copy bound 1",
            ),
        ):
            path.write_text(text.replace(row, bad))
            with pytest.raises(ValueError, match=re.escape(f"bad policy row {bad!r}: {reason}")):
                read_policy(path, model)

    def test_faults_are_reported_in_file_order(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 1, 0, 0))
        path = tmp_path / "policy.txt"
        write_policy(path, model, fully_active_policy(model))
        lines = path.read_text().splitlines()
        repeat = "0,1|0,0|0,0|0,0 0,0,0,0"
        outside = "0,0|0,3|0,0|0,0 0,0,0,0"
        later = "0,0|0,0|0,0|0,0 0,0,0,0"
        path.write_text("\n".join(lines + [repeat, later, outside]) + "\n")
        with pytest.raises(ValueError, match=r"repeats state 0,1\|0,0"):
            read_policy(path, model)
        path.write_text("\n".join(lines + [outside, repeat]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"bad policy row {outside!r}")):
            read_policy(path, model)
        # a malformed row after it does not jump the queue
        malformed = "0,0|0,0|0,0|0,0 0,x,0,0"
        path.write_text("\n".join(lines + [outside, malformed]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"bad policy row {outside!r}: state row")):
            read_policy(path, model)

    def test_rows_in_a_looser_layout_read_alike(self, tmp_path, base_instance):
        # extra blanks and signed or zero-padded counts are still integers
        model = build_model(base_instance, (2, 1, 0, 0))
        policy = solve_average_cost(model, penalty=64.0).policy
        path = tmp_path / "policy.txt"
        write_policy(path, model, policy)
        lines = path.read_text().splitlines()
        loose = [
            l.replace(" ", "\t  ").replace("|0,", "|+0,").replace(",0|", ",00|") for l in lines
        ]
        assert loose != lines
        path.write_text("\n".join(loose) + "\n")
        assert read_policy(path, model) == policy


class TestSimReport:
    def test_key_value_lines(self, tmp_path, base_instance):
        model = build_model(base_instance, (1, 0, 0, 0))
        policy = fully_active_policy(model)
        report = simulate_policy(model, policy, horizon=2000.0, seed=2)
        path = tmp_path / "sim.txt"
        write_sim_report(path, report)
        lines = path.read_text().splitlines()
        got = dict(l.split(" = ", 1) for l in lines if " = " in l)
        assert float(got["g_o"]) == pytest.approx(report.g_o, rel=1e-11)
        assert float(got["se_g_f"]) == pytest.approx(report.se_g_f, rel=1e-11)
        assert got["batches"] == "20"
        assert got["seed"] == "2"
        assert got["rare_failure"] == ("yes" if report.rare_failure else "no")
        assert lines[-1].startswith("rare_failure = ")


class TestCompareReport:
    def _report(self):
        front = [
            SolutionPoint(
                g_o=1.0,
                ln_g_f=-1.0,
                design=(1, 0),
                provenance=STATIC_SP1,
                penalty=None,
            ),
            SolutionPoint(
                g_o=2.0,
                ln_g_f=-3.0,
                design=(2, 0),
                provenance=DYNAMIC_SP2,
                penalty=8.0,
            ),
        ]
        reference = [
            SolutionPoint(
                g_o=0.5,
                ln_g_f=-2.0,
                design=(0, 1),
                provenance=DYNAMIC_SP2,
                penalty=4.0,
            ),
            SolutionPoint(
                g_o=2.0,
                ln_g_f=-3.0,
                design=(2, 0),
                provenance=DYNAMIC_SP2,
                penalty=8.0,
            ),
        ]
        return compare_fronts(front, reference, tolerance=1e-6)

    def test_counts_and_rows(self, tmp_path):
        report = self._report()
        path = tmp_path / "cmp.txt"
        write_compare_report(path, report)
        lines = path.read_text().splitlines()
        assert "# tolerance = 1e-06" in lines
        assert "# matched = 1" in lines
        assert "# dominated = 1" in lines
        assert "# absent = 0" in lines
        header = [l for l in lines if l and not l.startswith("#")][0]
        assert header.split() == [
            "status",
            "provenance",
            "x_1",
            "x_2",
            "p",
            "g_o",
            "ln_g_f",
            "distance",
            "dom_provenance",
            "dom_p",
            "dom_g_o",
            "dom_ln_g_f",
        ]
        rows = [l.split() for l in lines if l and not l.startswith("#")][1:]
        dominated = next(r for r in rows if r[0] == "dominated")
        assert dominated[1] == STATIC_SP1
        assert dominated[4] == "-"
        assert dominated[8:] == [DYNAMIC_SP2, "4", "0.5", "-2"]
        matched = next(r for r in rows if r[0] == "matched")
        assert matched[8:] == ["-", "-", "-", "-"]


class TestWrittenBytes:
    """Each writer's whole output, from hand-built inputs."""

    def test_static_table(self, tmp_path, base_instance):
        solutions = [
            StaticSolution(base_instance.from_catalog(design), g_o, ln_g_f, tag)
            for design, g_o, ln_g_f, tag in (
                ((0, 0, 0, 0), 0.0, 0.0, "trivial"),
                ((1, 0, 0, 0), 1.99, -4.60517018599, "sweep"),
                ((0, 5, 0, 0), 10.9999999968, -19.5601150271, "sweep"),
            )
        ]
        path = tmp_path / "static.txt"
        write_static_table(path, base_instance, solutions)
        assert path.read_text() == _example("Static front")

    def test_front_with_a_note(self, tmp_path, base_instance):
        inst = base_instance
        front = ParetoFront(
            points=(
                SolutionPoint(0.0, 0.0, inst.from_catalog((0, 5, 0, 0)), DYNAMIC_SP2, 1.0),
                SolutionPoint(2.9999, -9.21034037198, inst.from_catalog((2, 0, 0, 0)), STATIC_SP1),
            ),
            notes=("design 0,5,0,0 penalty 1: unconverged",),
        )
        path = tmp_path / "front.txt"
        write_front(path, inst, front)
        title, rest = _example("Front").split("\n", 1)
        note = "# note: design 0,5,0,0 penalty 1: unconverged"
        assert path.read_text() == f"{title}\n{note}\n{rest}"

    def test_gain_report(self, tmp_path, base_instance):
        path = tmp_path / "gain.txt"
        design = base_instance.from_catalog((1, 0, 0, 0))
        write_gain_report(path, base_instance, design, 100.0, GainPair(1.99, 0.01))
        assert path.read_text() == _example("Gain report")

    def test_sim_report(self, tmp_path):
        report = SimReport(
            g_o=2.47969658303,
            g_f=0.0149464301316,
            se_g_o=0.665889256293,
            se_g_f=0.00672615410397,
            horizon=2000.0,
            batches=20,
            seed=0,
            events=32,
            failure_entries=16,
        )
        path = tmp_path / "sim.txt"
        write_sim_report(path, report)
        assert path.read_text() == _example("Simulation report")

    def test_compare_report(self, tmp_path):
        matched = SolutionPoint(0.0, 0.0, (0, 5), DYNAMIC_SP2, 1.0)
        beaten = SolutionPoint(2.9999, -9.21034037198, (2, 0), STATIC_SP1, None)
        report = ComparisonReport(
            entries=(
                ComparisonEntry(matched, "matched", 0.0),
                ComparisonEntry(beaten, "dominated", 0.5, matched),
            ),
            tolerance=1e-6,
        )
        path = tmp_path / "cmp.txt"
        write_compare_report(path, report)
        assert path.read_text() == (
            "# parmaint front comparison\n"
            "# tolerance = 1e-06\n"
            "# matched = 1\n"
            "# dominated = 1\n"
            "# absent = 0\n"
            "status provenance x_1 x_2 p g_o ln_g_f distance"
            " dom_provenance dom_p dom_g_o dom_ln_g_f\n"
            "matched dynamic-SP2 0 5 1 0 0 0 - - - -\n"
            "dominated static-SP1 2 0 - 2.9999 -9.21034037198 0.5 dynamic-SP2 1 0 0\n"
        )

    def test_policy_head(self, tmp_path, base_instance):
        model = build_model(base_instance, base_instance.from_catalog((1, 0, 0, 0)))
        path = tmp_path / "policy.txt"
        write_policy(path, model, fully_active_policy(model))
        head = _example("Policy").splitlines()[:3] + ["0,0|0,0|0,0|0,0 0,0,0,0"]
        assert path.read_text().splitlines()[:4] == head
