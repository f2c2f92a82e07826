"""Tests of the benchmark itself: seeded inputs, tracing wrappers, checkers.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from mmslab import cli  # noqa: E402


def _inputs(name, seed, where):
    where.mkdir()
    ops = workloads.WORKLOADS[name][0](seed, str(where))
    files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
    shown = json.dumps([(op.name, op.argv, op.expect) for op in ops])
    return files, shown.replace(str(where), "<in>")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    a = _inputs(name, 3, tmp_path / "a")
    again = _inputs(name, 3, tmp_path / "b")
    other = _inputs(name, 4, tmp_path / "c")
    assert a == again
    assert a != other
    if a[0]:
        assert a[0] != other[0]


def _run(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


def test_wrappers_keep_report_and_are_removed(tmp_path, capsys):
    argv = ["cdstar", "euclidean-grid:2d,h=0.1,extent=0.3", "--K", "0", "--N", "2"]
    sites = [(m, a) for _, where, _ in tracing.LAYERS for m, a in where]
    modules = {m: sys.modules[f"mmslab.{m}"] for m, _ in sites}
    before = {(m, a): getattr(modules[m], a) for m, a in sites}

    plain = _run(argv, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert all(getattr(modules[m], a) is not before[m, a] for m, a in sites)
        with tracer.span("cli.main"):
            traced = _run(argv, tmp_path / "traced")

    assert traced == plain
    assert all(getattr(modules[m], a) is before[m, a] for m, a in sites)
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    assert {"models.make", "curvature.cdstar_check", "transport.w2",
            "transport.geodesic_plan"} <= set(names)
    w2 = next(s for s in tracer.spans if s.name == "transport.w2")
    assert tracer.spans[w2.parent].name == "curvature.cdstar_check"
    assert w2.counts["pairs"] > 0
    assert sum(tracer.self_times()) == pytest.approx(tracer.spans[0].duration, rel=1e-9)


def test_cdstar_check_rejects_cost_off_by_1e_6(tmp_path, capsys):
    (tmp_path / "in").mkdir()
    op = workloads.prepare_cdstar(5, str(tmp_path / "in"))[0]
    text = _run(op.argv, tmp_path / "out").decode()
    assert workloads.check_cdstar(op, text) is None

    rep = json.loads(text)
    rep["plan_provenance"]["cost_squared"] += 1e-6
    assert "cost_squared" in workloads.check_cdstar(op, json.dumps(rep))
    rep = json.loads(text)
    rep["verdict"] = "inconclusive"
    assert "verdict" in workloads.check_cdstar(op, json.dumps(rep))


def test_ghdist_check_rejects_dropped_pair(tmp_path, capsys):
    (tmp_path / "in").mkdir()
    op = next(op for op in workloads.prepare_ghdist(5, str(tmp_path / "in"))
              if op.name == "ghdist-R1")
    text = _run(op.argv, tmp_path / "out").decode()
    assert workloads.check_ghdist(op, text) is None

    rep = json.loads(text)
    pairs = rep["certificates"][-1]
    firsts = [p[0] for p in pairs]
    lone = next(k for k, p in enumerate(pairs) if firsts.count(p[0]) == 1)
    del pairs[lone]
    assert workloads.check_ghdist(op, json.dumps(rep)) is not None
    rep = json.loads(text)
    rep["value"] += 1e-6
    assert "value" in workloads.check_ghdist(op, json.dumps(rep))


def test_dimension_check_rejects_wrong_count(tmp_path):
    ops = {op.name: op for op in workloads.prepare_dimension(5, str(tmp_path))}

    def report(*statuses):
        return json.dumps({"stages": [{"status": s} for s in statuses]})

    grid2 = ops["dimension-grid2"]
    assert workloads.check_dimension(grid2, report("factored", "factored")) is None
    assert workloads.check_dimension(grid2, report("factored", "no-line")) is not None
    assert workloads.check_dimension(grid2, report("factored", "factored", "factored")) is not None
    cylinder = ops["dimension-cylinder"]
    assert workloads.check_dimension(cylinder, report("no-line")) == cylinder.known_failure


def _bench(args, cwd, **env):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, **env})


def test_refuses_to_run_with_transport_cache():
    proc = _bench(["--workload", "cdstar", "--seed", "1", "--seconds", "1"], ROOT,
                  MMS_LAB_CACHE="cache")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "cdstar", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
