"""Seeded workload inputs, their expected outcomes, and closed-form references.

A workload is a list of calls into lclc's public entry points. Every call
carries the outcome the benchmark expects from it: the exit code and the
ordered (check_name, verdict) column pairs of its rows. The expectations
follow from the structural class the benchmark built the input to have
(the hypotheses of the paper's theorems), never from running lclc.

All inputs come from ``numpy.random.default_rng(seed)``: one seed, one set
of inputs. Sizes and shapes are fixed per workload and the seed only
perturbs values, so every seed costs about the same amount of work.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Structural classes of generated pmfs.
DEC = "decreasing"
INC = "increasing"
INT_SYM = "integer_symmetric"
HALF_SYM = "half_integer_symmetric"
ASYM_LC = "asymmetric_log_concave"
NON_LC = "non_log_concave"
CLASSES = (DEC, INC, INT_SYM, HALF_SYM, ASYM_LC, NON_LC)
MONOTONE = (DEC, INC)

N_T_GRID = 6  # entries of lclc.cli.DEFAULT_T_GRID; each gives an upper and a lower row


@dataclass
class Call:
    """One timed call and what it must return.

    ``fn`` returns ``(exit_code, text)``; ``text`` is the report exactly as
    written (CSV or JSON rows), so repeats can be compared byte for byte.
    ``rows`` is the expected list of (check_name, verdict) pairs, or None
    when only the exit code is checked. ``ref`` names a parametric law
    (family and lambda) whose closed forms the report's values must match.
    """

    key: str
    klass: str
    fmt: str
    fn: Callable[[], tuple[int, str]]
    exit_code: int
    rows: list[tuple[str, str]] | None
    malformed: bool = False
    ref: dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # percentile reported as call_tail_ms: the highest that keeps about ten
    # samples beyond it at the run length this benchmark uses
    tail_pct: float
    # lclc functions (per-layer metric prefixes) the workload must exercise
    exercises: tuple[str, ...]
    # why there is no closed-form reference, when there is none
    no_ref_reason: str | None = None


# ---------------------------------------------------------------------------
# Expected verify rows, from the hypotheses of each check.
# ---------------------------------------------------------------------------

def _concentration_rows(verdict: str) -> list[tuple[str, str]]:
    return [(f"concentration_{side}", verdict)
            for _ in range(N_T_GRID) for side in ("upper", "lower")]


def verify_rows(klass: str) -> list[tuple[str, str]]:
    """Rows `lclc verify` must produce for a pmf of the given class."""
    rows = [("classification", "info"), ("h2_hinf_identity", "pass"),
            ("cake_layer", "pass")]
    if klass == NON_LC:
        return rows + [(name, "n/a") for name in (
            "mean_mode", "phi_concavity", "varentropy_bound", "renyi_gap",
            "concentration", "epi_reversal", "renyi_dominance")]
    monotone = klass in MONOTONE
    rows.append(("mean_mode", "pass"))
    rows.append(("phi_concavity", "pass" if monotone or klass == HALF_SYM else "n/a"))
    if monotone or klass in (INT_SYM, HALF_SYM):
        rows.append(("varentropy_bound", "pass"))
        rows += _concentration_rows("pass")
    else:
        rows += [("varentropy_bound", "n/a"), ("concentration", "n/a")]
    if monotone:
        rows += [("renyi_gap", "pass"), ("epi_reversal", "pass"),
                 ("match_lambda", "info"), ("crossing_pattern", "pass"),
                 ("renyi_dominance", "pass")]
    elif klass == INT_SYM:
        rows += [("renyi_gap", "n/a"), ("epi_reversal", "n/a"),
                 ("match_lambda", "info"), ("renyi_dominance", "pass")]
    else:
        rows += [("renyi_gap", "n/a"), ("epi_reversal", "n/a"),
                 ("renyi_dominance", "n/a")]
    return rows


def subcommand_outcome(cmd: str, klass: str, which: str = "vs"):
    """(exit_code, rows) of a non-verify subcommand on a pmf of a class."""
    log_concave = klass != NON_LC
    monotone = klass in MONOTONE
    if cmd == "entropy":
        return 0, [("shannon_entropy", "info"), ("min_entropy", "info"),
                   ("varentropy", "info")]
    if cmd == "varentropy":
        covered = log_concave and (monotone or klass in (INT_SYM, HALF_SYM))
        return 0, [("varentropy", "info"),
                   ("varentropy_bound", "pass" if covered else "n/a")]
    if cmd == "phi":
        rows = [("phi", "info")] * N_T_GRID
        if log_concave and (monotone or klass == HALF_SYM):
            rows = rows + [("phi_concavity", "pass")]
        return 0, rows
    if cmd == "crossing":
        if log_concave and monotone:
            return 0, [("match_lambda", "info"), ("crossing_interval_lo", "info"),
                       ("crossing_pattern", "pass")]
        return 2, []
    if cmd == "match":
        if monotone or klass == INT_SYM:
            return 0, [("match_lambda", "info")]
        return 2, []
    if cmd == "concentration":
        if log_concave and (monotone or klass in (INT_SYM, HALF_SYM)):
            return 0, _concentration_rows("pass")
        return 2, []
    if cmd == "epi":
        if monotone:
            return 0, [("epi_reversal", "pass")]
        return 2, []
    if cmd == "constants":
        return 0, {"vs": [("lambda_star", "info"), ("V_S", "info")],
                   "gap": [("gap_constant", "info")],
                   "c": [("C_constant", "info")]}[which]
    if cmd == "counterexample":
        return 0, [("extended_phi_counterexample", "violated")]
    raise ValueError(f"unknown subcommand {cmd!r}")


# ---------------------------------------------------------------------------
# Generators. Log-concave shapes come from concave log-weight sequences.
# ---------------------------------------------------------------------------

def _concave_steps(rng, n_steps: int, lo: float, hi: float) -> np.ndarray:
    """Strictly decreasing increments in (lo, hi), so the cumsum is concave."""
    return -np.sort(-rng.uniform(lo, hi, n_steps))


def _log_weights(rng, klass: str, n: int) -> np.ndarray:
    if klass in MONOTONE:
        logw = np.concatenate(([0.0], np.cumsum(_concave_steps(rng, n - 1, -3.0, -0.01))))
        return logw if klass == DEC else logw[::-1]
    if klass == INT_SYM:
        half = np.concatenate(([0.0], np.cumsum(_concave_steps(rng, n // 2, -2.0, -0.01))))
        return np.concatenate((half[:0:-1], half))
    if klass == HALF_SYM:
        half = np.concatenate(([0.0], np.cumsum(_concave_steps(rng, n // 2 - 1, -2.0, -0.01))))
        return np.concatenate((half[::-1], half))
    if klass == ASYM_LC:
        up = int(rng.integers(1, n - 1))  # at least one rising and one falling step
        steps = np.concatenate((-np.sort(-rng.uniform(0.01, 2.0, up)),
                                -np.sort(rng.uniform(0.01, 2.0, n - 1 - up))))
        return np.concatenate(([0.0], np.cumsum(steps)))
    if klass == NON_LC:
        logw = rng.uniform(-3.0, 0.0, n)
        j = int(rng.integers(1, n - 1))
        logw[j] = min(logw[j - 1], logw[j + 1]) - 2.0  # interior dip
        return logw
    raise ValueError(klass)


def _min_size(klass: str) -> int:
    return {DEC: 2, INC: 2, INT_SYM: 3, HALF_SYM: 4, ASYM_LC: 3, NON_LC: 4}[klass]


def random_weights(rng, klass: str, n: int) -> list[float]:
    """Positive weights of the class, peak 1; lclc normalizes them."""
    n = max(n, _min_size(klass))
    if klass == INT_SYM and n % 2 == 0:
        n += 1
    if klass == HALF_SYM and n % 2 == 1:
        n += 1
    logw = _log_weights(rng, klass, n)
    return np.exp(logw - logw.max()).tolist()


def _shuffled(rng, calls: list) -> list:
    """The calls in a seeded order."""
    return [calls[j] for j in rng.permutation(len(calls))]


class InputDir:
    """JSON input documents for `--input`, one file per document.

    The files are written once per run, before any set-up is timed; the
    processes that measure rebuild the same documents from the seed and
    only take their paths.
    """

    def __init__(self, path: str, write: bool):
        self.path = path
        self.writing = write
        if write:
            os.makedirs(path, exist_ok=True)
        self.count = 0

    def write(self, doc: Any) -> str:
        name = os.path.join(self.path, f"in{self.count:05d}.json")
        self.count += 1
        if self.writing:
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
        return name


# ---------------------------------------------------------------------------
# Calls through the CLI entry point and the majorization library.
# ---------------------------------------------------------------------------

def _cli_call(lclc, command, fmt, input_path=None, **params):
    config = lclc.cli.RunConfig(command, input_path=input_path,
                                parameters=params, output_format=fmt)

    def fn():
        stream = io.StringIO()
        code = lclc.cli.run(config, stream)  # looked up per call, so tracing sees it
        return code, stream.getvalue()
    return fn


def _report_text(report) -> str:
    return json.dumps([{"check_name": report.name, "lhs": repr(report.lhs),
                        "rhs": repr(report.rhs), "margin": repr(report.margin),
                        "verdict": report.verdict, "params": repr(report.params)}])


def verify_monotone(lclc, rng, inputs: InputDir) -> Workload:
    calls = []
    for lam in (0.99, 0.999):
        calls.append(Call(f"geometric({lam!r})", DEC, "csv",
                          _cli_call(lclc, "verify", "csv",
                                    law="geometric", lam=lam),
                          0, verify_rows(DEC), ref={"family": "geometric", "lam": lam}))
    # ~20k-atom explicit laws: log w_i = -a i - c i**2 with a seeded share of
    # the total log-drop in the quadratic term, so every seed has the same
    # size and dynamic range
    n, drop = 20_000, 30.0
    share = rng.uniform(0.2, 0.4)
    i = np.arange(n, dtype=np.float64)
    logw = -(1.0 - share) * drop / n * i - share * drop / n**2 * i**2
    weights = np.exp(logw).tolist()
    for klass, w in ((DEC, weights), (INC, weights[::-1])):
        path = inputs.write({"offset": int(rng.integers(-5, 6)), "weights": w})
        calls.append(Call(f"explicit_{klass}", klass, "csv",
                          _cli_call(lclc, "verify", "csv", input_path=path),
                          0, verify_rows(klass)))
    return Workload("verify-monotone", calls, tail_pct=90.0, exercises=(
        "cli.run", "lattice.materialize", "lattice.pmf_from_json",
        "lattice.difference", "lyapunov._phi_on_grid",
        "majorization.crossing_verify", "majorization.GeometricSequence.level_count",
        "majorization.cake_layer_check", "matching.match_geometric",
        "optimize.bisect_root", "inequalities.epi_reversal_check"))


def verify_symmetric(lclc, rng, inputs: InputDir) -> Workload:
    calls = []
    for lam in (0.999, 0.9995, 0.9999):
        calls.append(Call(f"symmetric_geometric({lam!r})", INT_SYM, "csv",
                          _cli_call(lclc, "verify", "csv",
                                    law="symmetric_geometric", lam=lam),
                          0, verify_rows(INT_SYM),
                          ref={"family": "symmetric_geometric", "lam": lam}))
    return Workload("verify-symmetric", _shuffled(rng, calls), tail_pct=90.0, exercises=(
        "cli.run", "lattice.materialize", "lattice.difference",
        "majorization.LevelCount.segments", "majorization.cake_layer_check",
        "inequalities.check_concentration", "matching.match_symmetric_geometric",
        "inequalities.sup_varentropy_symmetric"))


SUBCOMMANDS = ("entropy", "varentropy", "phi", "crossing", "match",
               "concentration", "constants", "counterexample", "epi")
N_SMALL = 600
N_MALFORMED = 18  # two of each malformed shape per pass


def _malformed_calls(lclc, rng, inputs: InputDir) -> list[Call]:
    """Inputs outside the accepted formats; the exit contract says 2."""
    good = {"offset": 0, "weights": [0.5, 0.3, 0.2]}
    shapes = [
        ("empty_weights", "verify", {"offset": 0, "weights": []}, {}),
        ("non_numeric_weights", "verify", {"offset": 0, "weights": ["a", 0.5]}, {}),
        ("nan_weights", "verify", {"offset": 0, "weights": [0.5, math.nan]}, {}),
        ("top_level_array", "verify", [0.5, 0.5], {}),
        ("law_without_lambda", "verify", {"law": "geometric"}, {}),
        ("fractional_offset", "verify", {"offset": 1.5, "weights": [0.5, 0.3, 0.2]}, {}),
        ("negative_t_grid", "phi", good, {"t_grid": (-1.0,)}),
        ("negative_counterexample_lambda", "counterexample", None, {"lam": -1.0}),
        ("varentropy_law_without_lambda", "varentropy", None, {"law": "geometric"}),
    ]
    calls = []
    for k in range(N_MALFORMED):
        name, cmd, doc, params = shapes[k % len(shapes)]
        path = inputs.write(doc) if doc is not None else None
        fmt = "json" if rng.random() < 0.5 else "csv"
        calls.append(Call(f"malformed_{name}_{k}", "malformed", fmt,
                          _cli_call(lclc, cmd, fmt, input_path=path, **params),
                          2, None, malformed=True))
    return calls


def small_mixed(lclc, rng, inputs: InputDir) -> Workload:
    calls = []
    # every class gets the same multiset of support sizes, in seeded order,
    # so the total work is the same for every seed
    sizes = {klass: list(rng.permutation(np.linspace(2, 200, N_SMALL // len(CLASSES)).round()))
             for klass in CLASSES}
    for k in range(N_SMALL):
        klass = CLASSES[k % len(CLASSES)]
        n = int(sizes[klass].pop())
        path = inputs.write({"offset": int(rng.integers(-20, 21)),
                             "weights": random_weights(rng, klass, n)})
        fmt = "csv" if k % 2 == 0 else "json"
        calls.append(Call(f"verify_{k}", klass, fmt,
                          _cli_call(lclc, "verify", fmt, input_path=path),
                          0, verify_rows(klass)))
        # every pmf also goes through one other subcommand, rotating through
        # all nine; the format alternates independently of verify's
        cmd = SUBCOMMANDS[k % len(SUBCOMMANDS)]
        sub_fmt = "json" if (k // len(SUBCOMMANDS)) % 2 else "csv"
        params: dict[str, Any] = {}
        which = "vs"
        if cmd == "constants":
            which = ("vs", "gap", "c")[(k // len(SUBCOMMANDS)) % 3]
            params = {"which": which, "p": 2.0, "q": 1.0}
        elif cmd == "counterexample":
            params = {"lam": float(rng.uniform(0.05, 2.0)), "gamma": 1.0}
        code, rows = subcommand_outcome(cmd, klass, which)
        uses_pmf = cmd not in ("constants", "counterexample")
        calls.append(Call(f"{cmd}_{k}", klass, sub_fmt,
                          _cli_call(lclc, cmd, sub_fmt,
                                    input_path=path if uses_pmf else None, **params),
                          code, rows))
    calls += _malformed_calls(lclc, rng, inputs)
    return Workload("small-mixed", _shuffled(rng, calls), tail_pct=99.0,
                    exercises=(
        "cli.run", "cli.classify", "cli._emit", "lattice.pmf_from_json",
        "lattice.normalize", "lattice.is_log_concave", "lattice.monotonicity",
        "lattice.symmetry_center", "entropy.renyi", "entropy.shannon",
        "entropy.varentropy", "lyapunov.phi", "lyapunov.phi_second_derivative",
        "lyapunov.check_concavity", "majorization.crossing_interval",
        "majorization.crossing_verify", "matching.renyi_dominance_report",
        "optimize.bisect_root", "optimize.golden_section_max",
        "inequalities.check_renyi_gap", "inequalities.mean_mode_check"),
        no_ref_reason="explicit pmfs have no closed-form reference")


def hinge_order(lclc, rng, inputs: InputDir) -> Workload:
    from lclc import majorization as mj
    calls = []
    # monotone log-concave x next to its matched geometric comparator; the
    # comparator's support (about 34.5 / -log(lam) atoms) dominates the
    # combined size, which is what the hinge loops are quadratic in
    for n_x, lam0 in ((40, 0.87), (50, 0.90)):
        i = np.arange(n_x, dtype=np.float64)
        # a narrow curvature range keeps the comparator's length, and so the
        # cost, within about 1% across seeds
        curv = rng.uniform(0.70, 0.72) * 1e-3
        x = lclc.lattice.normalize(np.exp(i * math.log(lam0) - curv * i**2))
        for p in (2.0, 3.0):
            lam = lclc.matching.match_geometric(x, p).lam
            z = lclc.lattice.materialize(lclc.lattice.ParametricLaw.geometric(lam))
            if p == 2.0:
                def fn(x=x, z=z):
                    r = mj.convex_order_check(mj.level_count(x), mj.level_count(z))
                    return (0 if r.verdict == "pass" else 1), _report_text(r)
            else:
                def fn(x=x, z=z, e=p - 1.0):
                    r = mj.convex_order_check(
                        mj.power_transform_density(mj.level_count(x), e),
                        mj.power_transform_density(mj.level_count(z), e))
                    return (0 if r.verdict == "pass" else 1), _report_text(r)
            calls.append(Call(f"convex_order(n={n_x + len(z)},p={p})", DEC, "lib",
                              fn, 0, [("convex_order", "pass")]))
    for half in (1000, 1500, 2000):
        # gentle steps, so no atom underflows and the support stays 2 half + 1
        log_half = np.concatenate(([0.0], np.cumsum(_concave_steps(rng, half, -0.3, -0.001))))
        x = lclc.lattice.normalize(np.exp(np.concatenate((log_half[:0:-1], log_half))),
                                   int(rng.integers(-half - 5, -half + 6)))

        def fn(x=x):
            fold = mj.fold_symmetric(x)
            verdict = "pass" if fold.max_violation == 0 else "fail"
            text = json.dumps([{"check_name": "fold_symmetric", "verdict": verdict,
                                "center_mass": repr(fold.center_mass),
                                "half_levels": int(fold.half.breakpoints.size)}])
            return (0 if verdict == "pass" else 1), text
        calls.append(Call(f"fold_symmetric(n={len(x)})", INT_SYM, "lib", fn, 0,
                          [("fold_symmetric", "pass")]))
    return Workload("hinge-order", calls, tail_pct=90.0, exercises=(
        "majorization.convex_order_check", "majorization.level_count",
        "majorization.LevelCount.hinge_expectation",
        "majorization.PowerDensity.hinge_expectation",
        "majorization.LevelCount.segments", "majorization.fold_symmetric",
        "lattice.symmetry_center"),
        no_ref_reason="certificates have no closed-form reference")


WORKLOADS = {"verify-monotone": verify_monotone, "verify-symmetric": verify_symmetric,
             "small-mixed": small_mixed, "hinge-order": hinge_order}


def build(name: str, lclc, seed: int, inputs: InputDir) -> Workload:
    return WORKLOADS[name](lclc, np.random.default_rng(seed), inputs)


# ---------------------------------------------------------------------------
# Closed forms, evaluated with mpmath at 40 digits.
# ---------------------------------------------------------------------------

def closed_forms(ref: dict[str, Any]) -> dict[str, float]:
    """H_2, varentropy and the p=2 matched lambda of an untruncated law.

    Keys are the verify rows whose ``lhs`` carries the value.
    """
    import mpmath as mp

    mp.mp.dps = 40
    lam = mp.mpf(ref["lam"])  # the exact binary value lclc received
    log_lam = mp.log(lam)
    if ref["family"] == "geometric":
        sum_sq = (1 - lam) / (1 + lam)  # sum_n ((1-lam) lam**n)**2
        var_n = lam / (1 - lam) ** 2
        v = log_lam**2 * var_n
    else:
        c = (1 - lam) / (1 + lam)
        sum_sq = c**2 * (1 + lam**2) / (1 - lam**2)
        e_abs = 2 * lam / ((1 - lam) * (1 + lam))
        e_sq = 2 * lam / (1 - lam) ** 2
        v = log_lam**2 * (e_sq - e_abs**2)
    return {"h2_hinf_identity": float(-mp.log(sum_sq)),
            "varentropy_bound": float(v),
            "match_lambda": float(lam)}
