"""Command-line front end tying the lab pipeline together.

Each subcommand is a thin shell over one module operation; outputs are a
deterministic report.json plus CSV series (and optional SVG plots), with
run metadata (timestamp, arguments) kept in a separate metadata.json so
reruns with the same seed produce byte-identical reports.

This module alone defines the report format: the library's report
dataclasses are plain data, each ``cmd_*`` picks the fields it reports, and
``_plain`` turns them into strict JSON (no NaN or Infinity literals;
non-finite values are written as the strings "inf", "-inf" and "nan").
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import astuple, fields, is_dataclass

import numpy as np

from . import core, curvature, models, pmgh, tangent_lab, transport
from .svg import line_chart

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

_VALIDATION_ERRORS = (ValueError, IndexError, FileNotFoundError, KeyError)
_BUDGET_ERRORS = (pmgh.PmghBudgetError, curvature.EnumerationBudgetError,
                  models.ModelBudgetError, transport.TransportBudgetError)


def _load_pointed(arg: str, within: float | None = None) -> core.PointedSpace:
    """A space argument is either a JSON file path or a model spec string.

    With ``within``, the space is the closed ball of that radius about the
    base: a model builds the metric of the ball only (its point budget still
    counts the whole model), a JSON space is loaded whole and then cut, so
    without a declared resolution it falls back to the ball's least distance."""
    if os.path.exists(arg) or arg.endswith(".json"):
        obj = core.load_space(arg)
        if not isinstance(obj, core.PointedSpace):
            obj = core.PointedSpace(obj, int(np.argmax(obj.weights > 0)))
        return obj if within is None else core.ball_restrict(obj, within, "closed")
    return models.make(models.parse_spec(arg), within)


def _parse_measure(spec: str, ps: core.PointedSpace) -> np.ndarray:
    space = ps.space
    n = space.n
    if spec.startswith("dirac:"):
        i = int(spec.split(":", 1)[1])
        if not 0 <= i < n:
            raise ValueError(f"dirac point {i} is not an index of the {n}-point space")
        mu = np.zeros(n)
        mu[i] = 1.0
        return mu
    if spec == "uniform":
        keep = np.ones(n, dtype=bool)
    elif spec.startswith("uniform-ball:"):
        keep = ps.base_distances() < float(spec.split(":", 1)[1])
    elif spec.startswith(("left-half", "right-half")):
        if space.coords is None:
            raise ValueError("half-space measures need coordinates")
        axis = int(spec.split(":", 1)[1]) if ":" in spec else 0
        x = space.coords[:, axis]
        keep = x < x[ps.base] if spec.startswith("left") else x > x[ps.base]
    elif spec.endswith(".csv"):
        return np.asarray(np.loadtxt(spec, delimiter=","), dtype=float).reshape(n)
    else:
        with open(spec) as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            obj = obj["weights"]
        return np.asarray(obj, dtype=float).reshape(n)
    mu = np.where(keep & (space.weights > 0), space.weights, 0.0)
    if mu.sum() <= 0:
        raise ValueError(f"the {spec} measure has no mass")
    return mu / mu.sum()


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x)


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _plain(obj):
    """Dataclasses, dicts, sequences, arrays and numpy scalars as plain JSON
    data; non-finite floats become the strings "inf", "-inf" and "nan"."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _write_report(args, report, extra_meta: dict | None = None) -> str:
    out = _out_dir(args)
    path = os.path.join(out, "report.json")
    with open(path, "w") as fh:
        json.dump(_plain(report), fh, indent=2, sort_keys=True, allow_nan=False)
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "argv": args.argv, **(extra_meta or {})}
    with open(os.path.join(out, "metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    return path


def _write_csv(args, name: str, header: list[str], rows: list) -> str:
    path = os.path.join(_out_dir(args), name)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_w2(args) -> int:
    ps = _load_pointed(args.space)
    mu0 = _parse_measure(args.mu0, ps)
    mu1 = _parse_measure(args.mu1, ps)
    res = transport.w2(ps.space, mu0, mu1)
    _write_csv(args, "plan.csv", ["i", "j", "mass"], res.plan.to_triplet_rows())
    _write_report(args, {
        "cost_squared": res.cost_squared,
        "distance": res.distance,
        "solver": res.solver,
        "support": [int(res.plan.rows.size), int(res.plan.cols.size)],
    })
    print(f"W2 = {res.distance:.9g} (squared {res.cost_squared:.9g})")
    return EXIT_OK


def cmd_cdstar(args) -> int:
    ps = _load_pointed(args.space)
    mu0 = _parse_measure(args.mu0, ps)
    mu1 = _parse_measure(args.mu1, ps)
    rep = curvature.cdstar_check(
        ps.space, mu0, mu1, K=args.K, N=args.N,
        t_grid=_floats(args.t_grid),
        nprime_grid=_floats(args.nprime_grid) if args.nprime_grid else None,
        tol=args.tol_cd, mode=args.mode,
    )
    w = rep.worst
    _write_report(args, {
        "K": rep.K, "N": rep.N, "t_grid": rep.t_grid, "nprime_grid": rep.nprime_grid,
        "tolerance": rep.tol, "verdict": rep.verdict, "rows": rep.rows, "notes": rep.notes,
        "worst": None if w is None else {"t": w.t, "nprime": w.nprime, "slack": w.slack},
        "plan_provenance": rep.plan_provenance,
    })
    _write_csv(args, "slack.csv", [f.name for f in fields(curvature.CdRow)],
               [astuple(r) for r in rep.rows])
    if args.svg:
        series = {}
        for npr in rep.nprime_grid:
            series[f"N'={npr:g}"] = [(r.t, r.slack) for r in rep.rows
                                     if r.nprime == npr and np.isfinite(r.slack)]
        line_chart(os.path.join(args.out, "slack.svg"), series,
                   title="entropy-convexity slack", xlabel="t", ylabel="slack")
    print(f"verdict: {rep.verdict} (min slack {rep.min_slack:.3g}, tol {rep.tol:.3g})")
    return EXIT_OK


def cmd_prolong(args) -> int:
    ps = _load_pointed(args.space)
    x0 = ps.base if args.x0 is None else args.x0
    rep = curvature.prolongability_experiment(
        ps.space, x0, R=args.R, t_grid=_floats(args.t_grid), N=args.N, K=args.K)
    _write_report(args, rep)
    _write_csv(args, "prolong.csv", [f.name for f in fields(curvature.ProlongRow)],
               [astuple(r) for r in rep.rows])
    if args.svg:
        line_chart(os.path.join(args.out, "prolong.svg"),
                   {"m(E_t)/m(B)": [(r.t, r.support_ratio) for r in rep.rows]},
                   title="geodesic-interior mass", xlabel="t", ylabel="ratio")
    print(f"coverage of the ball by interior points: {rep.coverage:.4f}")
    return EXIT_OK


def cmd_doubling(args) -> int:
    ps = _load_pointed(args.space)
    prof = core.doubling_profile(ps.space, _floats(args.radii), seed=args.seed)
    rows = [(float(r), float(q), float(e)) for r, q, e in
            zip(prof.radii, prof.ratios, prof.envelope)]
    _write_csv(args, "doubling.csv", ["radius", "ratio", "envelope"], rows)
    _write_report(args, {
        "radii": prof.radii,
        "ratios": prof.ratios,
        "envelope": prof.envelope,
        "centers_used": prof.centers_used,
        "iterated_checked": prof.iterated_checked,
        "iterated_violations": len(prof.iterated_violations),
    })
    if args.svg:
        line_chart(os.path.join(args.out, "doubling.svg"),
                   {"ratio": [(r, q) for r, q, _ in rows],
                    "envelope": [(r, e) for r, _, e in rows]},
                   title="doubling profile", xlabel="radius", ylabel="ratio")
    print(f"envelope: {prof.envelope.tolist()} "
          f"({len(prof.iterated_violations)} iterated-bound violations)")
    return EXIT_OK


def cmd_ghdist(args) -> int:
    # normalize_window reads the open unit ball and the window, nothing beyond
    within = max(args.window, 1.0) if args.normalize else None
    A = _load_pointed(args.space_a, within)
    B = _load_pointed(args.space_b, within)
    if args.normalize:
        A = tangent_lab.normalize_window(A, args.window)
        B = tangent_lab.normalize_window(B, args.window)
    est = pmgh.pmgh_distance(A, B, R_grid=_floats(args.radii) if args.radii else None,
                             seed=args.seed)
    _write_report(args, {"value": est.value, "exact": est.exact, "lower_bound": est.lower_bound,
                         "per_radius": est.per_radius,
                         "certificates": [c.pairs for c in est.certificates]})
    print(f"surrogate distance: {est.value:.6g} (lower bound {est.lower_bound:.6g})")
    return EXIT_OK


def cmd_blowup(args) -> int:
    ps = _load_pointed(args.space)
    seq = tangent_lab.blowup(ps, _floats(args.radii), window=args.window)
    estimates = {}
    if args.target:
        target = tangent_lab.normalize_window(_load_pointed(args.target), args.window)
        estimates = dict(tangent_lab.distances_to(seq, target, seed=args.seed))
    out = _out_dir(args)
    report = {"window": args.window, "members": []}
    for k, m in enumerate(seq.members):
        entry = {
            "radius": m.radius, "points": m.space.n, "usable": m.usable,
            "normalization": m.normalization,
            "relative_resolution": m.relative_resolution, "warning": m.warning,
        }
        if m.usable and estimates:
            est = estimates[m.radius]
            entry |= {"distance_to_target": est.value, "lower_bound": est.lower_bound,
                      "exact": est.exact}
        report["members"].append(entry)
        with open(os.path.join(out, f"member_{k}.json"), "w") as fh:
            json.dump(core.space_to_dict(m.space), fh)
    if estimates:
        rows = [(radius, est.value) for radius, est in estimates.items()]
        _write_csv(args, "convergence.csv", ["radius", "distance"], rows)
        if args.svg:
            line_chart(os.path.join(out, "convergence.svg"),
                       {"distance": rows}, title="blow-up convergence",
                       xlabel="radius", ylabel="surrogate distance")
    _write_report(args, report)
    print(f"{len(seq.members)} members, {len(seq.usable_members())} usable")
    return EXIT_OK


def cmd_split(args) -> int:
    ps = _load_pointed(args.space)
    line = tangent_lab.detect_line(ps, L=args.L, eps=args.tol_line)
    if line is None:
        raise ValueError(f"no line found with L={args.L} and --tol-line {args.tol_line}")
    res = tangent_lab.split(ps, line)
    with open(os.path.join(_out_dir(args), "quotient.json"), "w") as fh:
        json.dump(core.space_to_dict(res.quotient), fh)
    _write_report(args, {
        "line_length": line.length,
        "line_eps": line.eps_line,
        "chain": line.chain,
        "window": res.window,
        "delta_metric": res.delta_metric,
        "delta_measure": res.delta_measure,
        "quotient_points": res.quotient.n,
    })
    print(res.summary())
    return EXIT_OK


def cmd_dimension(args) -> int:
    # stage 0 reads the open unit ball (normalize_at) and the window, nothing beyond
    ps = _load_pointed(args.space, max(args.window, 1.0))
    n, trace = tangent_lab.euclidean_dimension(ps, args.N, window=args.window)
    _write_report(args, {
        "stopped_because": trace.stopped_because,
        "remainder_points": None if trace.remainder is None else trace.remainder.n,
        "stages": trace.records,
    }, extra_meta={"n": n})
    print(f"n = {n} (stopped: {trace.stopped_because})")
    return EXIT_OK


def cmd_models(args) -> int:
    if args.action == "list":
        for kind in models.KINDS:
            gt = models.ground_truth(kind)
            print(f"{kind:18s} tangent={gt.tangent_model:24s} "
                  f"doubling={gt.doubling_exponent} cd={gt.cd_params}")
        return EXIT_OK
    raise ValueError(f"unknown models action {args.action!r}")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mmslab",
                                description="finite metric-measure-space laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, space=True, seed=False, svg=False):
        if space:
            sp.add_argument("space", help="space JSON path or model spec (kind:params)")
        sp.add_argument("--out", default="mmslab_out")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if svg:
            sp.add_argument("--svg", action="store_true")

    sp = sub.add_parser("w2", help="exact quadratic transport between two measures; "
                                   "above its route's pair limit it exits 3")
    common(sp)
    sp.add_argument("--mu0", required=True)
    sp.add_argument("--mu1", required=True)
    sp.set_defaults(fn=cmd_w2)

    sp = sub.add_parser("cdstar", help="entropy-convexity inequality check")
    # cdstar reads no seed; --seed stays accepted because the benchmark's
    # workloads (bench/workloads.py) pass it.
    common(sp, seed=True, svg=True)
    sp.add_argument("--mu0", default="left-half:0")
    sp.add_argument("--mu1", default="right-half:0")
    sp.add_argument("--K", type=float, required=True)
    sp.add_argument("--N", type=float, required=True)
    sp.add_argument("--t-grid", default="0.25,0.5,0.75")
    sp.add_argument("--Nprime-grid", dest="nprime_grid", default="")
    sp.add_argument("--tol-cd", dest="tol_cd", type=float, default=None)
    sp.add_argument("--mode", choices=("two_sided", "dirac_target"), default="two_sided")
    sp.set_defaults(fn=cmd_cdstar)

    sp = sub.add_parser("prolong", help="ball-to-center transport experiment")
    common(sp, svg=True)
    sp.add_argument("--x0", type=int, default=None)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--t-grid", default="0.1,0.2,0.3,0.4,0.5")
    sp.add_argument("--N", type=float, required=True)
    sp.add_argument("--K", type=float, default=0.0)
    sp.set_defaults(fn=cmd_prolong)

    sp = sub.add_parser("doubling", help="doubling-ratio profile")
    common(sp, seed=True, svg=True)
    sp.add_argument("--radii", required=True)
    sp.set_defaults(fn=cmd_doubling)

    sp = sub.add_parser("ghdist", help="surrogate pointed-measured-GH distance")
    sp.add_argument("space_a")
    sp.add_argument("space_b")
    common(sp, space=False, seed=True)
    sp.add_argument("--radii", default="")
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--window", type=float, default=8.0)
    sp.set_defaults(fn=cmd_ghdist)

    sp = sub.add_parser("blowup", help="blow-up sequence (optionally vs a target model)")
    common(sp, seed=True, svg=True)
    sp.add_argument("--radii", default="1,0.5,0.25")
    sp.add_argument("--window", type=float, default=8.0)
    sp.add_argument("--target", default="")
    sp.set_defaults(fn=cmd_blowup)

    sp = sub.add_parser("split", help="detect a line and factor it off")
    common(sp)
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--tol-line", dest="tol_line", type=float, required=True)
    sp.set_defaults(fn=cmd_split)

    sp = sub.add_parser("dimension", help="iterated line factorization")
    # dimension reads no seed; --seed stays accepted because the benchmark's
    # workloads (bench/workloads.py) pass it.
    common(sp, seed=True)
    sp.add_argument("--N", type=float, required=True)
    sp.add_argument("--window", type=float, default=4.0,
                    help="blow-up window radius; only the closed ball of radius "
                         "max(window, 1) about the base is loaded and its metric "
                         "built, while a model's point budget counts the whole model")
    sp.set_defaults(fn=cmd_dimension)

    sp = sub.add_parser("models", help="model-space registry")
    sp.add_argument("action", choices=("list",))
    sp.set_defaults(fn=cmd_models)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except _BUDGET_ERRORS as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _VALIDATION_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
