"""Benchmark of whole ``mmslab`` CLI runs on three seeded workloads.

    python3 bench/run.py --workload cdstar --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run is one fresh process with BLAS/OpenMP pinned to one thread. It
builds the workload's inputs from ``--seed``, then calls
``mmslab.cli.main(argv)`` in-process, in whole passes over the workload's
ops (at least three untraced), for about ``--seconds`` seconds. Each distinct
``report.json`` is checked (see ``workloads.py``); an op fails when its exit
code is not 0 or its report fails the check, and the run goes on. Failures
count in ``failed``; ``correct`` turns false on any failure other than the
one an op lists as known.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` is the time of one pass over the workload's ops (the sum of the
per-op median times), ``op_s.p50`` and ``op_s.max`` are the median and the
largest per-op median, ``setup_s`` is the median time over fresh processes
that import the program and build the inputs, and ``peak_rss_mb`` is the
peak resident size of this process. With ``--trace 1`` it runs one untraced
pass, then passes in which each op runs once untraced and once with every
layer function wrapped (``tracing.py``), and reports the per-layer metrics
per traced pass; ``trace.overhead_s`` is the mean traced pass minus the
mean untraced one of those passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit. Everything the run writes goes under
``bench/out/``. ``--workload all`` runs each workload in its own process and
prints all of their metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
WORKLOADS = ("cdstar", "ghdist", "dimension")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# whole passes only, at least this many, so each per-op median rides over
# one slow pass (the first pays the lazy imports)
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
# Self times may miss the op's wall time only by the span bookkeeping.
TRACE_SUM_TOL_S = 2e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program():
    """Import mmslab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mmslab.cli
    if src not in Path(mmslab.cli.__file__).resolve().parents:
        raise ImportError(f"mmslab was imported from {mmslab.cli.__file__}, not {src}")
    return mmslab.cli


def environment() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Runner:
    """Runs ops through ``cli.main`` and keeps their times and reports.

    Reports are checked once per distinct content after the timed loop
    (``settle``); a traced op is checked right after it ends, under a
    ``check`` span, because that check re-evaluates the pmGH certificates.
    """

    def __init__(self, cli, check, out_dir: Path):
        self.cli, self.check, self.out_dir = cli, check, out_dir
        self.runs: list[dict] = []
        self._verdicts: dict[tuple, str | None] = {}

    def execute(self, op, tracer=None) -> float:
        out = self.out_dir / op.name
        report = out / "report.json"
        report.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(out)]
        err = ""
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code, err = 1, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        run = {"op": op, "wall_s": wall, "traced": tracer is not None, "report": None,
               "error": None}
        if code != 0:
            run["error"] = f"exit code {code}: {(err or sink.getvalue()).strip()[-300:]}"
        else:
            run["report"] = report.read_bytes()
            if tracer is not None:
                with tracer.span("check"):
                    self._verdict(op, run["report"], fresh=True)
        self.runs.append(run)
        return wall

    def _verdict(self, op, report: bytes, fresh: bool = False) -> str | None:
        key = (op.name, report)
        if fresh or key not in self._verdicts:
            try:
                self._verdicts[key] = self.check(op, report.decode())
            except Exception:
                self._verdicts[key] = "check raised " + traceback.format_exc(limit=3)
        return self._verdicts[key]

    def settle(self) -> list[dict]:
        """Failed ops, each with its reason and whether it is the op's known failure."""
        failures = []
        for run in self.runs:
            reason = run["error"] or self._verdict(run["op"], run["report"])
            run["ok"] = reason is None
            if reason is not None:
                failures.append({"op": run["op"].name, "reason": reason,
                                 "known": reason == run["op"].known_failure})
        return failures

    def samples(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for run in self.runs:
            out.setdefault(run["op"].name, []).append(run["wall_s"])
        return out


def measure_setup(args, out_dir: Path) -> list[float]:
    """Wall time of fresh processes that import the program and build inputs."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--probe", str(out_dir / f"probe{k}")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait sees the exit at once; Popen.wait(timeout) polls
        # in steps of up to 50 ms, so the timeout is a separate watchdog
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"setup probe exited with code {code}")
    return times


def untraced_metrics(runner: Runner, setup: list[float]) -> dict[str, float]:
    per_op = [statistics.median(v) for v in runner.samples().values()]
    return {
        "wall_s": sum(per_op),
        "op_s.p50": statistics.median(per_op),
        "op_s.max": max(per_op),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# Layers whose time ``core.s`` adds up (self times, so nesting never counts twice).
CORE_SPANS = ("core.load_space", "core.normalize_at", "core.rescale", "core.ball_restrict")
# Spans timed when the check re-evaluates a certificate after the op.
CHECK_SPANS = ("pmgh.measure_gap", "pmgh.distortion")


def layer_totals(tracer) -> tuple[dict, dict, dict, dict[int, float]]:
    """Inclusive time, self time and counts per span name, and self-time sums per op."""
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    counts: dict[str, float] = {}
    per_op: dict[int, float] = {}
    roots, selfs = tracer.roots(), tracer.self_times()
    for s, root, st in zip(tracer.spans, roots, selfs):
        kind = tracer.spans[root].name
        if kind == "cli.main":
            per_op[root] = per_op.get(root, 0.0) + st
        elif not (kind == "check" and s.name in CHECK_SPANS):
            continue
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_t[s.name] = self_t.get(s.name, 0.0) + st
        counts[s.name + ".calls"] = counts.get(s.name + ".calls", 0) + 1
        for key, val in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + val
    return total, self_t, counts, per_op


def traced_metrics(totals, passes: int, untraced_wall: float, traced_wall: float) -> dict:
    total, self_t, counts, _ = totals
    t = {k: v / passes for k, v in total.items()}
    s = {k: v / passes for k, v in self_t.items()}
    c = {k: v / passes for k, v in counts.items()}
    m = {
        "transport.w2.s": t.get("transport.w2", 0.0),
        "transport.w2.calls": c.get("transport.w2.calls", 0),
        "transport.w2.pairs": c.get("transport.w2.pairs", 0),
        "transport.geodesic_plan.s": t.get("transport.geodesic_plan", 0.0),
        "transport.geodesic_plan.atoms": c.get("transport.geodesic_plan.atoms", 0),
        "curvature.cdstar_check.self_s": s.get("curvature.cdstar_check", 0.0),
        "pmgh.pmgh_distance.s": t.get("pmgh.pmgh_distance", 0.0),
        "pmgh.pmgh_distance.calls": c.get("pmgh.pmgh_distance.calls", 0),
        "pmgh.measure_gap.s": t.get("pmgh.measure_gap", 0.0),
        "pmgh.measure_gap.pairs": c.get("pmgh.measure_gap.pairs", 0),
        "pmgh.distortion.s": t.get("pmgh.distortion", 0.0),
        "pmgh.terms.aggregated": c.get("pmgh.pmgh_distance.aggregated", 0),
        "models.make.s": t.get("models.make", 0.0),
        "models.make.points": c.get("models.make.points", 0),
        "models.make.metric_mb": c.get("models.make.metric_mb", 0.0),
        "core.s": sum(s.get(k, 0.0) for k in CORE_SPANS),
        "tangent_lab.blowup.s": t.get("tangent_lab.blowup", 0.0),
        "tangent_lab.normalize_window.s": t.get("tangent_lab.normalize_window", 0.0),
        "tangent_lab.detect_line.s": t.get("tangent_lab.detect_line", 0.0),
        "tangent_lab.detect_line.found": c.get("tangent_lab.detect_line.found", 0),
        "tangent_lab.split.s": t.get("tangent_lab.split", 0.0),
        "tangent_lab.split.quotient_points": c.get("tangent_lab.split.quotient_points", 0),
        "tangent_lab.euclidean_dimension.self_s": s.get("tangent_lab.euclidean_dimension", 0.0),
        "cli.main.self_s": s.get("cli.main", 0.0),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    m["pmgh.search_s"] = m["pmgh.pmgh_distance.s"] - m["pmgh.measure_gap.s"] - m["pmgh.distortion.s"]
    return m


def self_time_gaps(runner: Runner, per_op: dict[int, float]) -> list[float]:
    """|op wall time - sum of the op's self times| for every traced op."""
    walls = [r["wall_s"] for r in runner.runs if r["traced"]]
    return [abs(w - per_op[root]) for w, root in zip(walls, sorted(per_op))]


def run_workload(args) -> int:
    t_start = time.perf_counter()
    cli = import_program()
    import tracing
    import workloads

    prepare, check = workloads.WORKLOADS[args.workload]
    if args.probe:
        os.makedirs(args.probe)
        prepare(args.seed, args.probe)
        return 0
    units = load_metric_units(args.trace)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "inputs").mkdir(parents=True)
    ops = prepare(args.seed, str(out_dir / "inputs"))
    setup_in_process = time.perf_counter() - t_start
    setup = measure_setup(args, out_dir)

    runner = Runner(cli, check, out_dir)
    extra: dict = {}
    start = time.perf_counter()
    if args.trace == 0:
        passes: list[float] = []
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start + min(passes) <= args.seconds):
            passes.append(sum(runner.execute(op) for op in ops))
        metrics = untraced_metrics(runner, setup)
        correct = True
    else:
        # one untraced pass pays the lazy imports; after it every op runs
        # untraced and traced back to back, in alternating order, so the
        # overhead compares like with like
        warm_wall = sum(runner.execute(op) for op in ops)
        tracer = tracing.Tracer()
        plain: list[float] = []
        passes = []
        while not passes or time.perf_counter() - start + passes[-1] + plain[-1] <= args.seconds:
            walls = {False: 0.0, True: 0.0}
            for k, op in enumerate(ops):
                for traced in ((False, True) if (k + len(passes)) % 2 == 0 else (True, False)):
                    if not traced:
                        walls[False] += runner.execute(op)
                        continue
                    tracer.op = len(runner.runs)
                    with tracing.install(tracer):
                        walls[True] += runner.execute(op, tracer)
            plain.append(walls[False])
            passes.append(walls[True])
        untraced_wall = statistics.mean(plain)
        totals = layer_totals(tracer)
        metrics = traced_metrics(totals, len(passes), untraced_wall, statistics.mean(passes))
        gaps = self_time_gaps(runner, totals[3])
        correct = max(gaps) <= TRACE_SUM_TOL_S
        extra = {"self_time_gap_max_s": max(gaps), "untraced_passes_s": [warm_wall, *plain],
                 "self_s": {k: v / len(passes) for k, v in sorted(totals[1].items())}}
        (out_dir / "spans.json").write_text(json.dumps(tracer.to_json()))

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failures = runner.settle()
    correct = correct and all(f["known"] for f in failures)
    attempted, failed = len(runner.runs), len(failures)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "correct": correct,
        "attempted": attempted, "failed": failed, "fail_share": failed / attempted,
        "failures": failures, "setup_in_process_s": setup_in_process,
        "setup_probes_s": setup, "passes_s": passes,
        "ops": [{"op": r["op"].name, "wall_s": r["wall_s"], "traced": r["traced"], "ok": r["ok"]}
                for r in runner.runs],
        "metrics": metrics, **extra,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2))

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in extra.get("self_s", {}).items():
        print(f"{args.workload} self time per pass {name} = {value:.6g} s")
    print(f"{args.workload} fail_share = {failed}/{attempted} ops")
    for (op, known, reason), n in Counter(
            (f["op"], f["known"], f["reason"]) for f in failures).items():
        print(f"{args.workload} failed {op} x{n}{' (known)' if known else ''}: {reason}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; their metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=4 * CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("MMS_LAB_CACHE"):
        print("refusing to run: MMS_LAB_CACHE is set, and a cache hit turns w2 into a file read",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
