"""CLI: exit codes, artifacts, determinism of reports."""
import argparse
import inspect
import json
import re
import time
import tracemalloc
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from mmslab import cli, core, models, pmgh, tangent_lab, transport
from mmslab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main(args)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_report(out):
    """report.json parsed as strict JSON: NaN and Infinity literals are refused."""
    return json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)


def _leaf_diffs(got, want, path="$") -> list[str]:
    """Each differing JSON leaf as 'path: got != golden want'."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [d for k in sorted(got.keys() | want.keys())
                for d in _leaf_diffs(got.get(k, "<absent>"), want.get(k, "<absent>"),
                                     f"{path}.{k}")]
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != golden {len(want)} items"]
        return [d for k, (g, w) in enumerate(zip(got, want))
                for d in _leaf_diffs(g, w, f"{path}[{k}]")]
    if type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != golden {want!r}"]


def _golden_diff(fname, got: bytes, want: bytes) -> str:
    """The first 10 differing JSON leaves, or the first differing CSV row."""
    if fname.endswith(".json"):
        diffs = _leaf_diffs(json.loads(got), json.loads(want))
        more = f"; and {len(diffs) - 10} more" if len(diffs) > 10 else ""
        return "; ".join(diffs[:10]) + more if diffs else "formatting only"
    rows = zip_longest(got.decode().splitlines(), want.decode().splitlines(),
                       fillvalue="<absent>")
    return next((f"row {k}: {g!r} != golden {w!r}" for k, (g, w) in enumerate(rows)
                 if g != w), "line endings only")


def assert_golden(out, name, *csvs):
    """report.json (strict JSON) and the named CSVs are byte-identical to the
    stored golden files of this case; a mismatch names what differs."""
    strict_report(out)
    for fname in ("report.json", *csvs):
        got, want = (out / fname).read_bytes(), (GOLDEN / f"{name}.{fname}").read_bytes()
        if got != want:
            pytest.fail(f"{name}.{fname} differs from the golden: {_golden_diff(fname, got, want)}")


def test_golden_mismatch_names_what_differs(tmp_path):
    report = json.loads((GOLDEN / "ghdist.report.json").read_text())
    report["value"], report["per_radius"][0]["term"] = 0.5, 2
    (tmp_path / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    with pytest.raises(pytest.fail.Exception) as exc:
        assert_golden(tmp_path, "ghdist")
    assert "$.per_radius[0].term: 2 != golden 0.0" in str(exc.value)
    assert "$.value: 0.5 != golden 0.0" in str(exc.value)
    rows = (GOLDEN / "w2.plan.csv").read_text().splitlines()
    (tmp_path / "report.json").write_bytes((GOLDEN / "w2.report.json").read_bytes())
    (tmp_path / "plan.csv").write_text("\n".join(rows[:2] + ["0,0,0.5"] + rows[3:]) + "\n")
    with pytest.raises(pytest.fail.Exception, match=f"row 2: '0,0,0.5' != golden '{rows[2]}'"):
        assert_golden(tmp_path, "w2", "plan.csv")


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
    # small enough that both balls stay within the 9 points searched exactly
    space = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.25, extent=0.3))
    path = tmp_path / "A.json"
    path.write_text(json.dumps(core.space_to_dict(space)))
    code = run(["ghdist", str(path), str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["value"] == 0.0 and report["exact"] is True
    assert_golden(tmp_path / "out", "ghdist")


def test_ghdist_anneal_golden(tmp_path, capsys):
    # balls past the 9 points searched exactly are annealed; the golden pins
    # the anneal's certificates
    code = run(["ghdist", "euclidean-grid:2d,h=0.5,extent=2,shape=ball",
                "euclidean-grid:1d,h=0.4,extent=2", "--normalize", "--window", "2",
                "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    report = strict_report(tmp_path)
    assert report["value"] == pytest.approx(0.7736747530582685, abs=1e-12)
    assert [len(c) for c in report["certificates"]] == [9, 50, 54]
    assert_golden(tmp_path, "ghdist_anneal")


def test_dimension_command(tmp_path, capsys):
    code = run(["dimension", "euclidean-grid:1d,h=0.1,extent=8", "--N", "1",
                "--out", str(tmp_path)])
    assert code == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["n"] == 1
    assert_golden(tmp_path, "dimension")


@pytest.mark.parametrize("spec, flags, n", [
    ("euclidean-grid:2d,h=0.125,extent=5,shape=ball", ["--N", "2"], 2),
    ("euclidean-grid:3d,h=0.25,extent=2.5,shape=ball", ["--N", "3", "--window", "2"], 3),
    # the axis is a line; the circle factor left after splitting it has none
    ("cylinder:c=1,L=10,h=0.05", ["--N", "2"], 1),
], ids=["grid2", "grid3", "cylinder"])
def test_dimension_counts_bench_inputs(tmp_path, capsys, monkeypatch, spec, flags, n):
    # the benchmark's three dimension inputs, counted without any LP solve,
    # and with a traced peak below 1.3 metrics of the window ball (every
    # window here is at least 1, so stage 0's member is the whole ball): the
    # ball's metric and little else, no window copy
    def no_lp(*args, **kwargs):
        raise AssertionError("dimension solved an LP")

    monkeypatch.setattr(transport, "linprog", no_lp)
    tracemalloc.start()
    try:
        assert run(["dimension", spec, *flags, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((tmp_path / "metadata.json").read_text())["n"] == n
    stages = strict_report(tmp_path)["stages"]
    assert [st["status"] for st in stages[:n]] == ["factored"] * n
    window_metric = stages[0]["member_points"] ** 2 * 8
    assert peak < 1.3 * window_metric, f"peak {peak / window_metric:.2f} window metrics"


@pytest.mark.parametrize("spec", ["euclidean-grid:2d,h=0.125,extent=2.5,shape=ball",
                                  "lp-plane:p=inf,h=0.25,extent=3"], ids=["grid2", "lp-inf"])
@pytest.mark.parametrize("window", [[], ["--window", "0.8"]], ids=["default", "0.8"])
def test_dimension_reads_only_the_ball_of_max_window_1(tmp_path, capsys, spec, window):
    # the command loads the closed ball of radius max(window, 1): stage 0
    # normalizes over the open unit ball, so a window below 1 still keeps it,
    # and the stages read the same as on the whole model; a run that splits
    # nothing leaves the loaded ball as its remainder
    assert run(["dimension", spec, "--N", "2", *window, "--out", str(tmp_path)]) == 0
    w = float(window[1]) if window else 4.0
    full = models.make(models.parse_spec(spec))
    n, trace = tangent_lab.euclidean_dimension(full, 2, window=w)
    report = strict_report(tmp_path)
    assert report["stages"] == cli._plain(trace.records)
    assert report["stopped_because"] == trace.stopped_because
    ball = int((full.base_distances() <= max(w, 1.0)).sum())
    assert report["remainder_points"] == (trace.remainder.n if n else ball)


def test_whole_subset_and_unit_scaling_share_the_space():
    ps = models.make(models.parse_spec("euclidean-grid:2d,h=0.25,extent=2,shape=ball"))
    sp = ps.space
    assert sp.subset(np.arange(sp.n)) is sp and sp.scaled(1.0) is sp
    part = sp.subset(np.arange(sp.n - 1))
    assert not np.shares_memory(part.metric, sp.metric)
    assert np.array_equal(part.metric, sp.metric[:-1, :-1])
    # a window that keeps every point: the r = 1 member shares the input metric
    member = tangent_lab.blowup(ps, (1.0,), window=2.0).members[0]
    assert member.space.n == sp.n
    assert np.shares_memory(member.space.space.metric, sp.metric)


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


def test_split_without_line_exit_code(tmp_path, capsys):
    # no point of a 1-D segment of radius 1 lies 5 from its base
    code = run(["split", "euclidean-grid:1d,h=0.1,extent=1", "--L", "5",
                "--tol-line", "0.1", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert "invalid input: no line found with L=5.0 and --tol-line 0.1" in err
    assert "no line" not in out
    assert not (tmp_path / "report.json").exists()


def test_blowup_command_with_target(tmp_path):
    code = run(["blowup", "euclidean-grid:2d,h=0.25,extent=4.5,shape=ball",
                "--radii", "1,0.5", "--window", "4",
                "--target", "euclidean-grid:2d,h=0.5,extent=4.5,shape=ball",
                "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "convergence.csv").exists()
    assert (tmp_path / "member_0.json").exists()
    assert_golden(tmp_path, "blowup", "convergence.csv")


def test_blowup_target_without_usable_member_exit_code(tmp_path, capsys):
    # both members zoom below the data resolution; the run once exited 0
    # with no distance at all
    code = run(["blowup", "euclidean-grid:2d,h=0.25,extent=4.5,shape=ball",
                "--radii", "0.05,0.02", "--window", "4",
                "--target", "euclidean-grid:2d,h=0.5,extent=4.5,shape=ball",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "invalid input: blow-up sequence has no usable members" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert not list(tmp_path.glob("member_*.json"))


@pytest.mark.parametrize("point", ["999", "11", "-1"])
def test_validation_error_exit_code(tmp_path, point):
    # the grid has 11 points; a negative index must not wrap to the last one
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5",
                "--mu0", f"dirac:{point}", "--mu1", "uniform", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "report.json").exists()


def test_massless_measure_exit_code(tmp_path, capsys):
    # the empty ball once became 0/0 = NaN weights that failed inside the LP
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5", "--mu0", "uniform-ball:0",
                "--mu1", "uniform", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "the uniform-ball:0 measure has no mass" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("x0", ["-1", "11"])
def test_prolong_center_out_of_range_exit_code(tmp_path, x0):
    code = run(["prolong", "euclidean-grid:1d,h=0.1,extent=0.5", "--x0", x0,
                "--R", "0.3", "--N", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "report.json").exists()


def test_budget_error_exit_code(tmp_path, monkeypatch, capsys):
    # 21 + 21 ball points, one above the (lowered) anneal limit
    monkeypatch.setattr(pmgh, "ANNEAL_POINT_LIMIT", 41)
    space = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.1, extent=1.0))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(core.space_to_dict(space)))
    code = run(["ghdist", str(path), str(path), "--radii", "50", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_BUDGET
    assert "21 + 21" in capsys.readouterr().err


def test_transport_pair_limit_exit_code(tmp_path, monkeypatch, capsys):
    # 11 x 11 support pairs of equal mass, one above the assignment route's
    # limit: refused before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("the size check must run before any solve")

    monkeypatch.setattr(transport, "ASSIGNMENT_PAIR_LIMIT", 120)
    monkeypatch.setattr(transport, "transport_lp", no_solve)
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5", "--mu0", "uniform",
                "--mu1", "uniform", "--out", str(tmp_path)])
    assert code == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "11 x 11" in err and "assignment route's limit of 120" in err
    assert "entropic" not in err
    assert not (tmp_path / "report.json").exists()


def test_simplex_pair_limit_exit_code(tmp_path, monkeypatch, capsys):
    # a general measure above the simplex route's limit exits 3, and no
    # uncertified route answers it instead
    def no_solve(*args, **kwargs):
        raise AssertionError("the size check must run before any solve")

    monkeypatch.setattr(transport, "TRANSPORT_PAIR_LIMIT", 10)
    monkeypatch.setattr(transport, "transport_lp", no_solve)
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5", "--mu0", "left-half:0",
                "--mu1", "uniform", "--out", str(tmp_path)])
    assert code == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "x 11" in err and "simplex route's limit of 10" in err
    assert "entropic" not in err
    assert not (tmp_path / "report.json").exists()


def test_unsettled_assignment_above_simplex_limit_exit_code(tmp_path, monkeypatch, capsys):
    # 11 x 11 uniform pairs whose assignment duals do not settle, above the
    # (lowered) simplex limit: refused instead of handed to the simplex
    def no_simplex(*args, **kwargs):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(transport, "_sweep_duals", lambda arcs, tol: None)
    monkeypatch.setattr(transport, "TRANSPORT_PAIR_LIMIT", 120)
    monkeypatch.setattr(transport, "linprog", no_simplex)
    code = run(["w2", "euclidean-grid:1d,h=0.1,extent=0.5", "--mu0", "uniform",
                "--mu1", "uniform", "--out", str(tmp_path)])
    assert code == cli.EXIT_BUDGET
    assert "11 x 11" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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


def test_model_size_limit_fails_fast(tmp_path, capsys):
    # 25,050 points, whose metric would take 5 GB: refused before it exists
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = run(["dimension", "cylinder:c=1,L=10,h=0.02", "--N", "2", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_BUDGET
    assert elapsed < 1.0 and peak < 50e6
    assert "the model has 25050 points" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", [
    ["cdstar", "--K", "0", "--N", "nan"],
    ["cdstar", "--K", "nan", "--N", "2"],
    ["cdstar", "--K", "0", "--N", "2", "--Nprime-grid", "nan"],
    ["cdstar", "--K", "0", "--N", "2", "--tol-cd", "nan"],
    ["cdstar", "--K", "0", "--N", "2", "--tol-cd=-1"],
    ["prolong", "--R", "0.3", "--N", "nan"],
    ["doubling", "--radii", "nan"],
], ids=["cdstar-N", "cdstar-K", "cdstar-Nprime", "cdstar-tol-nan", "cdstar-tol-negative",
        "prolong-N", "doubling-radii"])
def test_non_finite_parameter_exit_code(tmp_path, command):
    # each once exited 0: a "violated" verdict with min slack nan, a
    # coverage, or the doubling envelope [nan]
    code = run([command[0], "euclidean-grid:1d,h=0.1,extent=0.5", *command[1:],
                "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, grid", [
    (["cdstar", "--K", "0", "--N", "2", "--t-grid", ""], "t_grid"),
    (["cdstar", "--K", "0", "--N", "2", "--Nprime-grid", ","], "nprime_grid"),
    (["prolong", "--R", "0.3", "--N", "1", "--t-grid", ""], "t_grid"),
], ids=["cdstar-t", "cdstar-Nprime", "prolong-t"])
def test_empty_grid_exit_code(tmp_path, capsys, command, grid):
    # prolong once exited 0 with no rows and coverage 0, and cdstar failed on
    # "min() arg is an empty sequence"
    code = run([command[0], "euclidean-grid:1d,h=0.1,extent=0.5", *command[1:],
                "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert f"{grid} is empty" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_measure_files_give_the_same_report(tmp_path):
    # a measure given as a one-row CSV, a JSON list or JSON {"weights": ...}
    space = "euclidean-grid:1d,h=0.1,extent=0.5"
    sp = models.make(models.parse_spec(space)).space
    mu0 = np.arange(1.0, 12.0) / 66.0
    forms = {"mu0.csv": ",".join(repr(float(m)) for m in mu0),
             "list.json": json.dumps(mu0.tolist()),
             "dict.json": json.dumps({"weights": mu0.tolist()})}
    reports = []
    for name, text in forms.items():
        (tmp_path / name).write_text(text)
        out = tmp_path / f"out-{name}"
        assert run(["w2", space, "--mu0", str(tmp_path / name), "--mu1", "uniform",
                    "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    direct = transport.w2(sp, mu0, np.full(sp.n, 1 / sp.n)).cost_squared
    assert json.loads(reports[0])["cost_squared"] == direct
    (tmp_path / "long.csv").write_text(",".join(["0.0"] * 11 + ["1.0"]))
    assert run(["w2", space, "--mu0", str(tmp_path / "long.csv"), "--mu1", "uniform",
                "--out", str(tmp_path / "o")]) == cli.EXIT_VALIDATION
