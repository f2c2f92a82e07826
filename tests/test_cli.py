"""CLI: exit codes, artifacts, determinism of reports."""
import argparse
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mmslab import cli, core, models, pmgh
from mmslab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main(args)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_report(out):
    """report.json parsed as strict JSON: NaN and Infinity literals are refused."""
    return json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)


def assert_golden(out, name, *csvs):
    """report.json (strict JSON) and the named CSVs are byte-identical to the
    stored golden files of this case."""
    strict_report(out)
    for fname in ("report.json", *csvs):
        assert (out / fname).read_bytes() == (GOLDEN / f"{name}.{fname}").read_bytes(), fname


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
    assert_golden(tmp_path, "w2", "plan.csv")


def test_cdstar_command_holds(tmp_path, capsys):
    code = run(["cdstar", "euclidean-grid:1d,h=0.02,extent=0.5",
                "--K", "0", "--N", "1", "--out", str(tmp_path), "--svg"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "holds"
    assert (tmp_path / "slack.csv").exists()
    assert (tmp_path / "slack.svg").read_text().startswith("<svg")
    assert_golden(tmp_path, "cdstar", "slack.csv")


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


def test_ghdist_anneal_golden(tmp_path, capsys):
    # anneal mode on balls past the exhaustive limit pins the search's certificates
    code = run(["ghdist", "euclidean-grid:2d,h=0.5,extent=2,shape=ball",
                "euclidean-grid:1d,h=0.4,extent=2", "--normalize", "--window", "2",
                "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    report = strict_report(tmp_path)
    assert report["value"] == pytest.approx(0.7736747530582685, abs=1e-12)
    assert [len(c) for c in report["certificates"]] == [9, 46, 51]
    assert_golden(tmp_path, "ghdist_anneal")


def test_dimension_command(tmp_path, capsys):
    code = run(["dimension", "euclidean-grid:1d,h=0.1,extent=8", "--N", "1",
                "--out", str(tmp_path)])
    assert code == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["n"] == 1
    assert_golden(tmp_path, "dimension")


def test_dimension_cylinder_counts_one_factor(tmp_path, capsys):
    # the axis is a line; the circle factor left after splitting it has none
    assert run(["dimension", "cylinder:c=1,L=10,h=0.05", "--N", "2",
                "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "metadata.json").read_text())["n"] == 1
    assert strict_report(tmp_path)["stages"][0]["status"] == "factored"


@pytest.mark.parametrize("p", ["1", "inf"])
def test_dimension_lp_plane_is_inconclusive(tmp_path, capsys, p):
    # l^p planes (p != 2) have lines but are not infinitesimally Hilbertian:
    # the line is found and the split's metric defect stays above tolerance
    assert run(["dimension", f"lp-plane:p={p},h=0.125,extent=4.5", "--N", "2",
                "--out", str(tmp_path)]) == 0
    stages = strict_report(tmp_path)["stages"]
    assert [st["status"] for st in stages] == ["inconclusive"]
    assert stages[0]["stage"] == 0 and stages[0]["line_length"] is not None
    assert stages[0]["delta_metric"] > max(8 * 0.125, 0.05 * 4.0)


def test_dimension_degenerate_report_is_strict_json(tmp_path, capsys):
    # a window too small for any blow-up member leaves a NaN member radius
    argv = ["dimension", "euclidean-grid:1d,h=0.1,extent=8", "--N", "1",
            "--window", "0.2", "--out", str(tmp_path)]
    assert run(argv) == 0
    report = strict_report(tmp_path)
    assert report["stages"][0]["status"] == "degenerate"
    assert report["stages"][0]["member_radius"] == "nan"


def test_metadata_records_main_argv(tmp_path, capsys):
    argv = ["doubling", "euclidean-grid:1d,h=0.1,extent=1", "--radii", "0.25",
            "--out", str(tmp_path)]
    assert run(argv) == 0
    assert json.loads((tmp_path / "metadata.json").read_text())["argv"] == argv


def test_prolong_command(tmp_path):
    code = run(["prolong", "euclidean-grid:2d,h=0.05,extent=0.5,shape=ball",
                "--R", "0.5", "--N", "2", "--out", str(tmp_path), "--svg"])
    assert code == 0
    assert (tmp_path / "prolong.csv").exists()
    assert (tmp_path / "prolong.svg").exists()
    assert_golden(tmp_path, "prolong", "prolong.csv")


def test_doubling_command(tmp_path):
    code = run(["doubling", "euclidean-grid:1d,h=0.01,extent=1",
                "--radii", "0.11,0.21", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["iterated_violations"] == 0
    assert_golden(tmp_path, "doubling", "doubling.csv")


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
    assert_golden(tmp_path, "blowup", "convergence.csv")


@pytest.mark.parametrize("point", ["999", "11", "-1"])
def test_validation_error_exit_code(tmp_path, point):
    # the grid has 11 points; a negative index must not wrap to the last one
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5",
                "--mu0", f"dirac:{point}", "--mu1", "uniform", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("x0", ["-1", "11"])
def test_prolong_center_out_of_range_exit_code(tmp_path, x0):
    code = run(["prolong", "euclidean-grid:1d,h=0.1,extent=0.5", "--x0", x0,
                "--R", "0.3", "--N", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "report.json").exists()


def test_budget_error_exit_code(tmp_path):
    space = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.1, extent=1.0))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(core.space_to_dict(space)))
    code = run(["ghdist", str(path), str(path), "--mode", "exhaustive",
                "--radii", "50", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_BUDGET


def test_ghdist_ball_size_limit_fails_fast(tmp_path, monkeypatch, capsys):
    # 1,681 points per side: above the anneal limit, refused before any search
    def no_search(*args, **kwargs):
        raise AssertionError("the size check must run before any search")

    monkeypatch.setattr(pmgh, "_anneal_radius", no_search)
    code = run(["ghdist", "euclidean-grid:2d,h=0.05", "euclidean-grid:2d,h=0.05",
                "--normalize", "--out", str(tmp_path)])
    assert code == cli.EXIT_BUDGET
    assert "1681 + 1681" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_ghdist_non_positive_radius_exit_code(tmp_path, capsys):
    code = run(["ghdist", "euclidean-grid:1d,h=0.1,extent=0.5",
                "euclidean-grid:1d,h=0.1,extent=0.5", "--radii", "0,1", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "radius 0.0" in capsys.readouterr().err


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


def _corrupt_weight(obj):
    obj["weights"][0] = -0.5


def _corrupt_symmetry(obj):
    obj["metric"]["data"][0][1] += 0.1


def _corrupt_sign(obj):
    obj["metric"]["data"][0][1] = obj["metric"]["data"][1][0] = -0.25


def _corrupt_diagonal(obj):
    obj["metric"]["data"][1][1] = 0.1


@pytest.mark.parametrize("corrupt", [_corrupt_weight, _corrupt_symmetry, _corrupt_sign,
                                     _corrupt_diagonal], ids=lambda f: f.__name__[9:])
def test_invalid_space_exit_code(tmp_path, corrupt):
    # each of these once loaded silently and produced a W2 value
    obj = core.space_to_dict(models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.25, extent=0.5)))
    corrupt(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = run(["w2", str(path), "--mu0", "dirac:2", "--mu1", "dirac:3", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command", [["cdstar", "--K", "0", "--N", "1"],
                                     ["prolong", "--R", "0.3", "--N", "1"]],
                         ids=lambda c: c[0])
def test_time_outside_unit_interval_exit_code(tmp_path, command):
    # t = 1.5 once evaluated sigma at the negative time 1 - t
    code = run([command[0], "euclidean-grid:1d,h=0.1,extent=0.5", *command[1:],
                "--t-grid", "0.5,1.5", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_prolong_empty_ball_exit_code(tmp_path, radius):
    # an open ball of radius <= 0 is empty; its mass was once a divisor
    code = run(["prolong", "euclidean-grid:1d,h=0.1,extent=0.5", f"--R={radius}", "--N", "1",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


def _source_reading_args(fn, seen=()):
    """Source of fn plus that of every cli helper it hands ``args`` to."""
    text = inspect.getsource(fn)
    for name in set(re.findall(r"\b(_\w+)\(args[,)]", text)) - set(seen):
        text += _source_reading_args(getattr(cli, name), (*seen, name))
    return text


def test_every_option_is_read():
    # an option a command accepts but never reads is a silent no-op
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, sp in subparsers.choices.items():
        text = _source_reading_args(sp.get_default("fn"))
        for a in sp._actions:
            if a.dest in (argparse.SUPPRESS, "help") or (command, a.dest) in (
                    ("cdstar", "seed"), ("dimension", "seed")):
                continue  # the benchmark passes --seed to both, which have no randomness
            if not re.search(rf"\bargs\.{a.dest}\b", text):
                unread.append((command, a.dest))
    assert not unread
