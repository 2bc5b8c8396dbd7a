#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --seeds 1..10 --out perfbench/out/set-a.json
    python3 perfbench/spread.py --seeds 1..10 --out perfbench/out/set-b.json \\
        --compare perfbench/out/set-a.json

For every workload named in BENCHMARK.json (or --workloads) and every
seed, one untraced run of perfbench/run.py is made with the run_seconds
of BENCHMARK.json.  Each end-to-end metric gets its median, quartiles
(statistics.quantiles, n=4) and spread, the quartile distance as a share
of the median.  A spread above the metric's bound, or (with --compare) a
median worse than the other set's by more than the bound, is reported
and makes the exit status 1; setup_s is exempt from the spread rule.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(expr: str) -> list[int]:
    lo, sep, hi = expr.partition("..")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(v) for v in expr.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json")
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("--compare", help="summary JSON of an earlier set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    status = 0
    for name in workloads:
        for seed in seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = proc.returncode == 0 and result["correct"]
            status = status or (0 if ok else 1)
            runs[name].append({"seed": seed, "wall_s": wall, "exit": proc.returncode,
                               **result})
            print(f"{name} seed {seed}: exit {proc.returncode}, {wall:.1f} s, "
                  f"correct {result['correct']}", flush=True)

    previous = (json.loads(Path(args.compare).read_text(encoding="utf-8"))["workloads"]
                if args.compare else {})
    summary = {}
    for name, rows in runs.items():
        summary[name] = {"wall_s": summarize([r["wall_s"] for r in rows]), "metrics": {}}
        for metric, spec_m in bounds.items():
            values = [r["metrics"][metric]["value"] for r in rows]
            if any(v is None for v in values):
                summary[name]["metrics"][metric] = {"values": values, "failed": True}
                print(f"  {name:<14} {metric:<16} FAILED in some runs")
                continue
            s = summarize(values)
            summary[name]["metrics"][metric] = s
            bound = spec_m["bound"]
            notes = []
            if metric != "setup_s" and s["spread"] is not None and s["spread"] > bound:
                notes.append("SPREAD ABOVE BOUND")
            elif s["spread"] is not None and s["spread"] > bound / 3:
                notes.append("spread above a third of the bound")
            old = previous.get(name, {}).get("metrics", {}).get(metric)
            if old and not old.get("failed"):
                ratio = s["median"] / old["median"]
                worse = ratio - 1 if spec_m["better"] == "lower" else 1 - ratio
                s["vs_compare"] = ratio
                if worse > bound:
                    notes.append(f"MEDIAN WORSE BY {worse:.3f}")
            if any(n.isupper() for n in notes):
                status = 1
            print(f"  {name:<14} {metric:<16} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bound}) {'; '.join(notes)}")
    Path(args.out).write_text(json.dumps({"seeds": seeds, "run_seconds": spec["run_seconds"],
                                          "workloads": summary}, indent=1),
                              encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
