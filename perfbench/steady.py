"""Steadiness mode: run each workload repeatedly and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed, one run at a time, and prints for
every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and the bound BENCHMARK.json allows. An end-to-end metric is
steady when its spread is below a third of its bound. ``--out`` also
writes the summary, with every run's detail line, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            runs.append({"seed": seed, "detail": json.loads(lines[-2])["detail"],
                         "result": json.loads(lines[-1])})
        names = list(runs[0]["result"]["metrics"])
        metrics = {}
        print(f"\n{workload}: {len(runs)} runs, correct in "
              f"{sum(r['result']['correct'] for r in runs)}, error_rate median "
              f"{statistics.median(r['detail']['error_rate'] for r in runs):.4g}")
        for name in names:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
            mark = ""
            if stats["bound"] is not None:
                ok = name == "setup_s" or stats["spread"] < stats["bound"] / 3.0
                steady = steady and ok
                mark = f"bound {stats['bound']:<5} {'steady' if ok else 'NOT STEADY'}"
            print(f"  {name:<48} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g}"
                  f" q3 {stats['q3']:<12.6g} spread {stats['spread']:<8.3f} {mark}")
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
