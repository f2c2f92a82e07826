"""Medians and run-to-run spread of the results under ``bench/out``.

    python3 bench/summarize.py          # one line per workload and metric
    python3 bench/summarize.py --write  # also store them in bench/baseline.json

Spread is (Q3 - Q1) / median over the runs of one workload, with the
quartiles of ``statistics.quantiles(values, n=4)``; a line is flagged when
the spread of an end-to-end metric exceeds a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
BASELINE = ROOT / "bench" / "baseline.json"


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    results: dict[tuple, list[dict]] = {}
    for path in sorted(OUT.glob("*/result.json")):
        res = json.loads(path.read_text())
        results.setdefault((res["workload"], res["trace"]), []).append(res)

    baseline: dict = {}
    for (workload, trace), runs in sorted(results.items()):
        entry = baseline.setdefault(workload, {})
        entry["trace" if trace else "plain"] = {
            "seeds": sorted(r["seed"] for r in runs),
            "seconds": sorted({r["seconds"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
            "fail_share": summary([r["fail_share"] for r in runs]),
            "environment": runs[-1]["environment"],
            "metrics": {m: summary([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]},
        }
        for m, s in entry["trace" if trace else "plain"]["metrics"].items():
            flag = ""
            if m in bounds and s.get("spread", 0.0) > bounds[m] / 3:
                flag = f"  spread above bound/3 ({bounds[m]:g}/3)"
            spread = f"spread {s['spread']:.3f}" if "spread" in s else ""
            print(f"{workload:9s} trace={trace} {m:40s} {s['median']:12.6g} {units[m]:6s} "
                  f"runs {s['runs']:2d} {spread}{flag}")
        fs = entry["trace" if trace else "plain"]["fail_share"]["median"]
        print(f"{workload:9s} trace={trace} {'fail_share':40s} {fs:12.6g}")

    if args.write:
        doc = json.loads(BASELINE.read_text())
        doc["baseline"] = baseline
        BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
