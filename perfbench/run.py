"""lclc benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-monotone, verify-symmetric, small-mixed, hinge-order
(see perfbench/README.md for what each one stresses and why).

The run starts the workload in fresh worker processes with single-threaded
BLAS: one that writes the seeded input files, several that only set up
(import lclc from ``src/`` and build the seeded inputs) and one that sets
up, warms up and measures for S seconds.
``setup_s`` is the median set-up time over all of them, counted from the
moment the process is spawned. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run. The line before the result holds the details: the error rate with the
malformed-input share, the closed-form reference error, the tail
percentile used and its sample count, and the machine.

Exits non-zero, printing no result, if the worker fails or lclc's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up probes plus the measuring worker
DEADLINE_S = 170.0  # the whole run, set-up probes included
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              # arrays above 64 KiB always get their own mapping, so peak RSS
              # does not depend on glibc's adaptive threshold and call order
              "MALLOC_MMAP_THRESHOLD_": "65536"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, extra, deadline):
    """Run worker.py to completion; returns (set-up seconds, stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", str(args.inputs)] + extra
    env = dict(os.environ, **PINNED_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if not ready:
        raise WorkerError("worker never finished set-up")
    return ready[0] - spawned, lines


def end_to_end(raw, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(raw["walls"]),
        "cpu_s": statistics.fmean(raw["cpus"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "call_p50_ms": raw["call_p50_s"] * 1e3,
        "call_tail_ms": raw["call_tail_s"] * 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-monotone", "verify-symmetric",
                             "small-mixed", "hinge-order"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lclc" / "__init__.py").is_file():
        print(f"error: no lclc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    args.inputs = HERE / "out" / f"inputs-{os.getpid()}"
    try:
        run_worker(args, ["--prepare"], deadline)
        setups = [run_worker(args, ["--setup-only"], deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, lines = run_worker(args, [], deadline)
        raw = json.loads(lines[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.inputs, ignore_errors=True)
    setups.append(setup)

    correct = raw["failed"] == 0 and raw["ref_ok"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        missing = [n for n in names if n not in raw["per_layer"]]
        correct = correct and not missing and all(raw["selftests"].values())
        metrics = {n: {"value": raw["per_layer"][n], "unit": units[n]}
                   for n in names if n in raw["per_layer"]}
    else:
        values = end_to_end(raw, statistics.median(setups))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    all_attempted = raw["attempted"] + raw["malformed_attempted"]
    all_failed = raw["failed"] + raw["malformed_failed"]
    detail = {k: raw.get(k) for k in (
        "workload", "seed", "passes", "plain_passes", "traced_passes", "calls",
        "tail_pct", "tail_beyond", "malformed_attempted", "malformed_failed",
        "failure_reasons", "ref_rel_err_max", "ref_values_compared", "ref_note",
        "selftests", "missing", "span_file", "spans", "environment",
        "walls", "cpus") if k in raw}
    detail["error_rate"] = all_failed / all_attempted
    detail["setup_samples_s"] = setups
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
