"""CLI: exit codes, artifacts, determinism of reports."""
import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mmslab import cli, core, models
from mmslab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main(args)


def assert_golden(out, name):
    """report.json is byte-identical to the stored golden report of this case."""
    assert (out / "report.json").read_bytes() == (GOLDEN / f"{name}.report.json").read_bytes()


def test_models_list(capsys):
    assert run(["models", "list"]) == 0
    out = capsys.readouterr().out
    assert "euclidean-grid" in out and "cylinder" in out


def test_w2_command(tmp_path, capsys):
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5",
                "--mu0", "left-half:0", "--mu1", "right-half:0",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["cost_squared"] == pytest.approx(0.36, abs=1e-9)
    assert (tmp_path / "plan.csv").exists()
    assert_golden(tmp_path, "w2")


def test_cdstar_command_holds(tmp_path, capsys):
    code = run(["cdstar", "euclidean-grid:1d,h=0.02,extent=0.5",
                "--K", "0", "--N", "1", "--out", str(tmp_path), "--svg"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "holds"
    assert (tmp_path / "slack.csv").exists()
    assert (tmp_path / "slack.svg").read_text().startswith("<svg")
    assert_golden(tmp_path, "cdstar")


def test_ghdist_identity_zero(tmp_path, capsys):
    # small enough that both balls stay within the 9-point exhaustive limit
    space = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.25, extent=0.3))
    path = tmp_path / "A.json"
    path.write_text(json.dumps(core.space_to_dict(space)))
    code = run(["ghdist", str(path), str(path), "--mode", "exhaustive",
                "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["value"] == 0.0
    assert_golden(tmp_path / "out", "ghdist")


def test_dimension_command(tmp_path, capsys):
    code = run(["dimension", "euclidean-grid:1d,h=0.1,extent=8", "--N", "1",
                "--out", str(tmp_path)])
    assert code == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["n"] == 1
    assert_golden(tmp_path, "dimension")


def test_prolong_command(tmp_path):
    code = run(["prolong", "euclidean-grid:2d,h=0.05,extent=0.5,shape=ball",
                "--R", "0.5", "--N", "2", "--out", str(tmp_path), "--svg"])
    assert code == 0
    assert (tmp_path / "prolong.csv").exists()
    assert (tmp_path / "prolong.svg").exists()
    assert_golden(tmp_path, "prolong")


def test_doubling_command(tmp_path):
    code = run(["doubling", "euclidean-grid:1d,h=0.01,extent=1",
                "--radii", "0.11,0.21", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["iterated_violations"] == 0
    assert_golden(tmp_path, "doubling")


def test_split_command(tmp_path):
    code = run(["split", "cylinder:c=1,L=10,h=0.1", "--L", "4.5",
                "--tol-line", "0.1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["delta_metric"] <= 0.15
    q = core.load_space(str(tmp_path / "quotient.json"))
    assert_golden(tmp_path, "split")


def test_blowup_command_with_target(tmp_path):
    code = run(["blowup", "euclidean-grid:2d,h=0.25,extent=4.5,shape=ball",
                "--radii", "1,0.5", "--window", "4",
                "--target", "euclidean-grid:2d,h=0.5,extent=4.5,shape=ball",
                "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "convergence.csv").exists()
    assert (tmp_path / "member_0.json").exists()
    assert_golden(tmp_path, "blowup")


def test_validation_error_exit_code(tmp_path):
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5",
                "--mu0", "dirac:999", "--mu1", "uniform", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


def test_budget_error_exit_code(tmp_path):
    space = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.1, extent=1.0))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(core.space_to_dict(space)))
    code = run(["ghdist", str(path), str(path), "--mode", "exhaustive",
                "--radii", "50", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_BUDGET


def test_report_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["cdstar", "euclidean-grid:1d,h=0.05,extent=0.5",
                    "--K", "0", "--N", "1", "--seed", "7", "--out", str(out)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert_golden(out1, "cdstar_seed7")


def test_non_finite_space_exit_code(tmp_path):
    obj = core.space_to_dict(models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.25, extent=0.5)))
    obj["weights"][-1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    code = run(["w2", str(path), "--mu0", "dirac:0", "--mu1", "dirac:1", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION


def test_every_option_is_read():
    # an option no command reads is a silent no-op
    text = Path(cli.__file__).read_text()
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for sp in subparsers.choices.values() for a in sp._actions
             if a.dest != argparse.SUPPRESS and a.dest != "help"}
    assert not sorted(d for d in dests if not re.search(rf"\bargs\.{d}\b", text))
