"""Command outputs against committed golden copies.

The files under ``tests/data`` were written by these commands, run from
the repository root (``<d>`` is ``--design 3,4,4`` on
``perfbench/data/large-3.json``):

- ``app`` and ``exact`` on ``instances/base-6-20.json`` and ``exact`` on
  ``perfbench/data/single-1.json`` (``base-app.front``,
  ``base-exact.front``, ``single-1-exact.front``);
- ``dop`` on ``instances/base-6-20.json`` with ``--front-out
  base-dop.front`` (``base-dop.static``); with ``--delta 0 --ties`` it
  writes the same two files;
- ``dmp <d>`` (``large-3-344.gain``) and ``dmp <d> --penalty 1e5
  --policy-out large-3-344-p1e5.policy`` (``large-3-344-p1e5.gain``);
- ``simulate <d> --policy-file large-3-344-p1e5.policy --horizon 1e5
  --seed 0`` (``large-3-344-sim.txt``).

Fronts must list the same (provenance, design) rows with every point
matched at 1e-9 both ways, reports must agree within 1e-12 relative, and
the policy file and ``dop``'s files byte for byte.
``large-3-exact.front`` (``exact`` on ``perfbench/data/large-3.json``,
over a minute) is checked by CI with ``parmaint compare``, not here.
"""

import math
import pathlib

import pytest

from parmaint.cli import EXIT_FLAGGED, EXIT_OK, main
from parmaint.exact import compare_fronts
from parmaint.io import read_front

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
BASE = str(ROOT / "instances" / "base-6-20.json")
SINGLE = str(ROOT / "perfbench" / "data" / "single-1.json")
LARGE = str(ROOT / "perfbench" / "data" / "large-3.json")
DESIGN = ["--design", "3,4,4"]


def _run(argv, out, code=EXIT_OK):
    assert main([*argv, "--out", str(out)]) == code
    return out


def _report(path):
    """A report's ``key = value`` lines as a dict of strings."""
    lines = path.read_text().splitlines()
    return dict(line.split(" = ") for line in lines if not line.startswith("#"))


def _assert_reports_agree(got, want):
    got, want = _report(got), _report(want)
    assert got.keys() == want.keys()
    for key, value in want.items():
        try:
            x, y = float(got[key]), float(value)
        except ValueError:
            assert got[key] == value, key
        else:
            assert math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0), key


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["app", BASE], "base-app.front"),
        (["exact", BASE], "base-exact.front"),
        (["exact", SINGLE], "single-1-exact.front"),
    ],
    ids=["app-base", "exact-base", "exact-single-1"],
)
def test_front(argv, golden, tmp_path):
    got = read_front(_run(argv, tmp_path / golden))
    want = read_front(DATA / golden)
    assert [(p.provenance, p.design) for p in got] == [(p.provenance, p.design) for p in want]
    assert got.notes == want.notes
    for front, reference in ((got, want), (want, got)):
        report = compare_fronts(front, reference)
        assert report.count("matched") == len(front)


@pytest.mark.parametrize("options", [[], ["--delta", "0", "--ties"]], ids=["default", "ties"])
def test_dop(options, tmp_path, capsys):
    static, front = tmp_path / "base-dop.static", tmp_path / "base-dop.front"
    _run(["dop", BASE, *options, "--front-out", str(front)], static)
    assert static.read_bytes() == (DATA / "base-dop.static").read_bytes()
    assert front.read_bytes() == (DATA / "base-dop.front").read_bytes()
    assert capsys.readouterr().out.splitlines() == [
        f"static front: 6 designs -> {static}",
        "reliability extreme: 0,5,0,0",
        f"non-dominated static front: 6 points -> {front}",
    ]


def test_design_reports_and_policy(tmp_path):
    _run(["dmp", LARGE, *DESIGN], tmp_path / "full.gain")
    _assert_reports_agree(tmp_path / "full.gain", DATA / "large-3-344.gain")
    policy = tmp_path / "policy.txt"
    argv = ["dmp", LARGE, *DESIGN, "--penalty", "1e5", "--policy-out", str(policy)]
    _run(argv, tmp_path / "penalty.gain")
    _assert_reports_agree(tmp_path / "penalty.gain", DATA / "large-3-344-p1e5.gain")
    assert policy.read_bytes() == (DATA / "large-3-344-p1e5.policy").read_bytes()
    # 4 failure entries at this horizon, so the run carries the rare-failure flag
    argv = ["simulate", LARGE, *DESIGN, "--policy-file", str(policy), "--horizon", "1e5"]
    _run([*argv, "--seed", "0"], tmp_path / "sim.txt", EXIT_FLAGGED)
    _assert_reports_agree(tmp_path / "sim.txt", DATA / "large-3-344-sim.txt")
