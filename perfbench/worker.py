"""One workload in one fresh process: set up, warm up, time passes, check.

Started by run.py; prints ``ready <monotonic seconds>`` when set-up ends
and, as its last line, one JSON object with the raw measurements. With
``--setup-only`` it exits right after set-up; with ``--prepare`` it only
writes the input files under ``--inputs``.

Set-up is importing lclc from ``src/`` of the checkout and building the
workload's inputs. The warm-up runs the first call of each input class
once, untimed. Timed passes then repeat every call of the workload, in a
closed loop with one client, until the next pass would end after
``--seconds``. Outputs are checked after each pass, outside the timed
region.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from workloads import closed_forms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_REL_TOL = 1e-8  # closed form vs truncated law (tail mass below 1e-15)
MIN_COVERAGE = 0.9  # share of a traced pass inside top-level spans


def _import_lclc():
    src = ROOT / "src"
    if not (src / "lclc" / "__init__.py").is_file():
        raise SystemExit(f"error: no lclc sources under {src}")
    sys.path.insert(0, str(src))
    import lclc
    import lclc.cli  # noqa: F401  (not imported by the package itself)
    return lclc


def parse_rows(fmt: str, text: str) -> list[tuple[str, str]]:
    if not text:  # exit-2 runs write no rows
        return []
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
        return [(r[0], r[4]) for r in lines[1:]]
    return [(d["check_name"], d["verdict"]) for d in json.loads(text)]


def csv_lhs(text: str) -> dict[str, float]:
    return {r[0]: float(r[1]) for r in list(csv.reader(io.StringIO(text)))[1:] if r[1]}


class Checker:
    """Applies the reference to every call result and keeps the tallies."""

    def __init__(self):
        # digest of the first output seen per input, for the repeat check
        self.first_digest: dict[str, bytes] = {}
        self.attempted = self.failed = 0
        self.malformed_attempted = self.malformed_failed = 0
        self.reasons: dict[str, int] = {}
        self.repeat_mismatches = 0
        self.ref_rel_err_max = 0.0
        self.ref_values_compared = 0

    def problem(self, call, result) -> str | None:
        if isinstance(result, BaseException):
            return f"raised {type(result).__name__}"
        code, text = result
        if code != call.exit_code:
            return f"exit {code}, expected {call.exit_code}"
        if call.rows is not None and parse_rows(call.fmt, text) != call.rows:
            return "check_name/verdict columns differ from the reference"
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        first = self.first_digest.setdefault(call.key, digest)
        if first != digest:
            self.repeat_mismatches += 1
            return "output differs from an earlier call on the same input"
        if call.ref and first is digest:
            self.compare_closed_forms(call, text)
        return None

    def compare_closed_forms(self, call, text) -> None:
        lhs = csv_lhs(text)
        for row, expected in closed_forms(call.ref).items():
            err = abs(lhs[row] - expected) / abs(expected)
            self.ref_rel_err_max = max(self.ref_rel_err_max, err)
            self.ref_values_compared += 1

    def check(self, call, result) -> None:
        reason = self.problem(call, result)
        if call.malformed:
            self.malformed_attempted += 1
            self.malformed_failed += reason is not None
        else:
            self.attempted += 1
            self.failed += reason is not None
        if reason is not None:
            label = f"{call.key.rsplit('_', 1)[0] if call.malformed else call.klass}: {reason}"
            self.reasons[label] = self.reasons.get(label, 0) + 1


def run_pass(calls):
    latencies, results = [], []
    c0, t0 = time.process_time(), time.perf_counter()
    for call in calls:
        start = time.perf_counter()
        try:
            result = call.fn()
        except Exception as exc:  # a raise is a failed call, recorded below
            result = exc
        latencies.append(time.perf_counter() - start)
        results.append(result)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, latencies, results


def timed_passes(calls, checker, budget_s, on_pass=None):
    """Passes until the next one would end after budget_s; at least one."""
    walls, cpus, latencies = [], [], []
    begin = time.perf_counter()
    while True:
        if on_pass is not None:
            on_pass(len(walls))
        wall, cpu, lat, results = run_pass(calls)
        walls.append(wall)
        cpus.append(cpu)
        latencies += lat
        for call, result in zip(calls, results):
            checker.check(call, result)
        del results  # not alive during the next pass
        if time.perf_counter() - begin + statistics.median(walls) > budget_s:
            return walls, cpus, latencies


def tail(latencies, pct):
    """The pct-th percentile and how many samples lie beyond it."""
    value = float(np.percentile(latencies, pct))
    return value, sum(v > value for v in latencies)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--prepare", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    lclc = _import_lclc()

    inputs = workloads.InputDir(args.inputs, write=args.prepare)
    wl = workloads.build(args.workload, lclc, args.seed, inputs)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only or args.prepare:
        return 0
    with contextlib.redirect_stderr(io.StringIO()):  # lclc's `error:` lines
        result = measure(lclc, wl, args, HERE / "out")
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(lclc, wl, args, out_dir):
    checker = Checker()
    seen = set()
    for call in wl.calls:  # warm-up: first call of each input class
        if call.klass not in seen:
            seen.add(call.klass)
            try:
                checker.check(call, call.fn())
            except Exception as exc:
                checker.check(call, exc)

    result = {"workload": wl.name, "seed": args.seed}
    if not args.trace:
        walls, cpus, lat = timed_passes(wl.calls, checker, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # each input's latency averaged over the passes, so that a slow spell
        # of the machine weighs in by its length instead of flipping a median
        n = len(wl.calls)
        per_input = [statistics.fmean(lat[j::n]) for j in range(n)]
        tail_s, beyond = tail(per_input, wl.tail_pct)
        result.update({
            "passes": len(walls), "walls": walls, "cpus": cpus,
            "calls": len(lat), "call_p50_s": statistics.median(per_input),
            "tail_pct": wl.tail_pct, "call_tail_s": tail_s, "tail_beyond": beyond,
            "peak_rss_mib": peak_kib / 1024.0})
    else:
        result.update(traced_run(wl, checker, args, out_dir))

    worst = checker.ref_rel_err_max
    compared = checker.ref_values_compared
    result.update({
        "attempted": checker.attempted, "failed": checker.failed,
        "malformed_attempted": checker.malformed_attempted,
        "malformed_failed": checker.malformed_failed,
        "failure_reasons": checker.reasons,
        "ref_rel_err_max": worst, "ref_values_compared": compared,
        "ref_note": wl.no_ref_reason if compared == 0 else "mpmath closed forms",
        "ref_ok": worst <= REF_REL_TOL,
        "environment": environment()})
    return result


def traced_run(wl, checker, args, out_dir):
    """Untraced passes for half the time, then traced passes.

    Per-layer totals are per pass: counts from the first traced pass (the
    self-test requires every traced pass to repeat them exactly), self time
    as the median over traced passes.
    """
    from tracer import EXTRA, Tracer, function_names

    plain_walls, _, _ = timed_passes(wl.calls, checker, args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    per_pass = []

    def on_pass(index):
        if index:
            per_pass.append(tracer.reset_stats())
        tracer.recording = index == 0

    untraced_mismatches = checker.repeat_mismatches
    traced_walls, _, _ = timed_passes(wl.calls, checker, args.seconds / 2.0, on_pass)
    per_pass.append(tracer.reset_stats())

    metrics = {}
    first = per_pass[0]
    for name in function_names():
        metrics[f"{name}.calls"] = first[name][0]
        metrics[f"{name}.self_s"] = statistics.median(p[name][1] for p in per_pass)
        if name in EXTRA:
            metrics[f"{name}.{EXTRA[name][0]}"] = first[name][2]
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    top = [s for s in tracer.spans if s["parent"] is None]
    coverage = sum(s["end"] - s["start"] for s in top) / traced_walls[0]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.coverage"] = coverage

    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"trace-{wl.name}-{args.seed}.jsonl"
    tracer.write_spans(str(span_path))

    counts_repeat = all((p[n][0], p[n][2]) == (first[n][0], first[n][2])
                        for p in per_pass for n in function_names())
    missing = [f for f in wl.exercises if first[f][0] == 0]
    selftests = {
        "traced_bytes_equal_untraced": checker.repeat_mismatches == untraced_mismatches,
        "top_level_spans_cover_pass": coverage >= MIN_COVERAGE,
        "exercised_functions_counted": not missing,
        "counts_repeat_exactly": counts_repeat,
    }
    return {"traced_passes": len(traced_walls), "plain_passes": len(plain_walls),
            "per_layer": metrics, "selftests": selftests, "missing": missing,
            "span_file": str(span_path.relative_to(ROOT)), "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main())
