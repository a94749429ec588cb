"""Command-line front end.

Loads a distribution (inline JSON file or a parametric law), runs the
requested checks, and writes one row per check as CSV or JSON. Exit code 0
means every check passed, 1 means at least one inequality verdict failed,
2 means a usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple, TextIO

from . import entropy, inequalities, lattice, lyapunov, majorization, matching
from .errors import (
    BadOrdersError,
    DomainError,
    LatticeError,
    MissingParameterError,
    NoBracketError,
    UnclassifiedError,
)
from .lattice import DEFAULT_TAIL_TOL, Condition, LatticePMF, Subject, pmf_from_json
from .report import FAIL, NA, CheckReport, info

DEFAULT_T_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    parameters: dict[str, Any] = field(default_factory=dict)
    output_format: str = "csv"
    out_path: str | None = None


def classify(x: LatticePMF) -> Subject:
    """The run's subject: x with its structural facts, each decided at most
    once however many checks read them."""
    return Subject(x)


def _load_pmf(config: RunConfig) -> LatticePMF:
    params = config.parameters
    tail_tol = _param(params, "tail_tol")
    if config.input_path:
        with open(config.input_path, "r", encoding="utf-8") as fh:
            return pmf_from_json(json.load(fh), tail_tol)
    if params.get("law"):
        if params.get("lam") is None:
            raise MissingParameterError("--law needs --lambda")
        return pmf_from_json({"law": params["law"], "lambda": params["lam"]},
                             tail_tol)
    raise MissingParameterError("no distribution given: use --input or --law/--lambda")


# ---------------------------------------------------------------------------
# The check table.
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """A table entry: the row an n/a entry writes; the hypothesis conditions
    its check functions leave out, required of the subject before them; and
    the evaluator, which calls the public check functions through their
    modules, so a function rebound later is the one called. A view that
    reads no pmf passes its evaluators no subject (None)."""

    name: str
    requires: tuple[Condition, ...]
    rows: Callable[[Subject | None, dict[str, Any]], list[CheckReport]]


def _classification(s: Subject, params) -> list[CheckReport]:
    return [info("classification", s.pmf.support_size, {
        "log_concave": s.log_concave,
        "direction": s.direction.value,
        "symmetry_center": s.symmetry,
        "offset": s.pmf.offset,
    })]


def _concentration(s: Subject, params) -> list[CheckReport]:
    K = inequalities.class_constant(s)
    return [inequalities.check_concentration(s, float(t), side, K)
            for t in _t_grid_param(params) for side in inequalities.Side]


def _match(s: Subject, params) -> list[CheckReport]:
    p = _param(params, "p")
    result = matching.match_comparator(s, p)
    return [info("match_lambda", result.lam,
                 {"p": p, "residual": result.residual,
                  "iterations": result.iterations, "family": result.kind.value})]


def _crossing_pattern(s: Subject, lam: float) -> CheckReport:
    z = majorization.GeometricSequence(1.0 - lam, lam)
    return majorization.crossing_verify(s, z)


def _matching(s: Subject, params) -> list[CheckReport]:
    rows = _match(s, params)
    if s.monotone:
        rows.append(_crossing_pattern(s, rows[0].lhs))
    return rows + [matching.renyi_dominance_report(s, _param(params, "p"))]


def _crossing(s: Subject, params) -> list[CheckReport]:
    p = _param(params, "p")
    lam = matching.match_comparator(s, p).lam
    pattern = _crossing_pattern(s, lam)
    cross = pattern.params
    return [info("match_lambda", lam, {"p": p}),
            info("crossing_interval_lo", cross["interval_lo"],
                 {"a": cross["a"], "b": cross["b"], "hi": cross["interval_hi"]}),
            pattern]


def _entropy(s: Subject, params) -> list[CheckReport]:
    p = params.get("p")
    if p is not None:
        return [info("renyi_entropy", entropy.renyi(s, p), {"p": p})]
    return [info("shannon_entropy", entropy.shannon(s)),
            info("min_entropy", entropy.renyi(s, math.inf)),
            info("varentropy", entropy.varentropy(s))]


def _phi(s: Subject, params) -> list[CheckReport]:
    ts = _t_grid_param(params)
    phi_vals = lyapunov.phi(s, ts)
    phi2_vals = lyapunov.phi_second_derivative(s, ts)
    return [info("phi", float(v), {"t": float(t), "phi2": float(v2)})
            for t, v, v2 in zip(ts, phi_vals, phi2_vals)]


def _constants(s: None, params) -> list[CheckReport]:
    which = _param(params, "which")
    if which == "vs":
        lam_star, v_s = inequalities.sup_varentropy_symmetric()
        return [info("lambda_star", lam_star), info("V_S", v_s)]
    if which not in ("gap", "c"):
        raise LatticeError(f"unknown constant {which!r}: expected vs, gap, or c")
    p, q = params.get("p"), params.get("q")
    if p is None or q is None:
        raise MissingParameterError(f"missing required parameter --{'p' if p is None else 'q'}")
    if which == "gap":
        return [info("gap_constant", inequalities.gap_constant(p, q), {"p": p, "q": q})]
    return [info("C_constant", inequalities.C_constant(q, p), {"q": q, "p": p})]


PHI_CONCAVITY = Check("phi_concavity", (lattice.LC_CLASSIFIED, lattice.PHI_CLASS),
                      lambda s, params: [lyapunov.check_concavity(s)])
CONCENTRATION = Check("concentration", (lattice.LC_CLASSIFIED, lattice.CLASSIFIED),
                      _concentration)
RENYI_GAP = Check("renyi_gap", (lattice.LC_MONOTONE,), lambda s, params: [
    inequalities.check_renyi_gap(s, _param(params, "p"), _param(params, "q"))])
EPI_REVERSAL = Check("epi_reversal", (), lambda s, params: [
    inequalities.epi_reversal_check(s, _param(params, "alpha"))])
VARENTROPY_BOUND = Check("varentropy_bound", (), lambda s, params: [
    inequalities.check_varentropy(s)])

VERIFY = (
    Check("classification", (), _classification),
    Check("h2_hinf_identity", (), lambda s, params: [
        inequalities.h2_hinf_identity_check(s)]),
    Check("cake_layer", (), lambda s, params: [majorization.cake_layer_check(s, 2.0)]),
    Check("mean_mode", (), lambda s, params: [inequalities.mean_mode_check(s)]),
    PHI_CONCAVITY,
    VARENTROPY_BOUND,
    CONCENTRATION,
    RENYI_GAP,
    # verify asserts the reversal under the paper's hypothesis; the epi
    # subcommand evaluates any monotone pmf, so a genuine violation fails
    EPI_REVERSAL._replace(requires=(lattice.LC_MONOTONE,)),
    Check("renyi_dominance", (lattice.LC_CLASSIFIED,), _matching),
)
# a non-log-concave pmf's n/a rows list renyi_gap before concentration
_AT = VERIFY.index(CONCENTRATION)
VERIFY_NOT_LOG_CONCAVE = VERIFY[:_AT] + (RENYI_GAP, CONCENTRATION) + VERIFY[_AT + 2:]

# what an entry writes when a hypothesis fails: an n/a row, nothing, or
# it refuses the input (exit 2)
OMIT, REFUSE = "omit", "refuse"

# each subcommand's entries, the policy for a failed hypothesis and the
# parameters it reads; a view without PMF, the parameters that give the
# pmf, runs its entries on no subject
PMF = ("input_path", "law", "lam", "tail_tol")
VIEWS = {
    "verify": (VERIFY, NA, PMF + ("p", "q", "alpha", "t_grid")),
    "entropy": ((Check("entropy", (), _entropy),), REFUSE, PMF + ("p",)),
    "varentropy": ((Check("varentropy", (), lambda s, params: [
        info("varentropy", entropy.varentropy(s))]), VARENTROPY_BOUND), NA, PMF),
    "phi": ((Check("phi", (), _phi), PHI_CONCAVITY), OMIT, PMF + ("t_grid",)),
    "crossing": ((Check("crossing", (lattice.LC_MONOTONE, lattice.MONOTONE),
                        _crossing),), REFUSE, PMF + ("p",)),
    "match": ((Check("match", (), _match),), REFUSE, PMF + ("p",)),
    "concentration": ((CONCENTRATION,), REFUSE, PMF + ("t_grid",)),
    "constants": ((Check("constants", (), _constants),), REFUSE, ("which", "p", "q")),
    "counterexample": ((Check("counterexample", (), lambda s, params: [
        lyapunov.counterexample_check(_param(params, "lam"), _param(params, "gamma"))]),),
        REFUSE, ("lam", "gamma")),
    "epi": ((EPI_REVERSAL,), REFUSE, PMF + ("alpha",)),
}


def _evaluate(check: Check, s: Subject | None, params: dict[str, Any],
              policy: str) -> list[CheckReport]:
    """The entry's rows, or what the policy writes for the first condition s
    fails, the entry's or its check function's, for a refused order, or for
    a match the solver could not find."""
    try:
        return check.rows(s.require(*check.requires) if check.requires else s, params)
    except (BadOrdersError, NoBracketError, UnclassifiedError) as exc:
        reason = str(exc)
    if policy == REFUSE:
        raise LatticeError(f"{check.name}: {reason}")
    if policy == OMIT:
        return []
    return [CheckReport(check.name, math.nan, math.nan, math.nan, NA, {"reason": reason})]


def run(config: RunConfig, stream: TextIO | None = None) -> int:
    """Execute one command and write report rows; returns the exit code."""
    try:
        rows = _dispatch(config)
    except (LatticeError, OSError, json.JSONDecodeError) as exc:
        return _refuse(exc)
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            _emit(rows, config, fh)
    else:
        _emit(rows, config, stream or sys.stdout)
    return 1 if any(r.verdict == FAIL for r in rows) else 0


def _refuse(exc: Exception) -> int:
    print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
    return 2


def _dispatch(config: RunConfig) -> list[CheckReport]:
    params = config.parameters
    cmd = config.command
    if cmd not in VIEWS:
        raise LatticeError(f"unknown command {cmd!r}")
    checks, policy, reads = VIEWS[cmd]
    foreign = [FLAGS.get(k, (k,))[0] for k, v in
               {"input_path": config.input_path, **params}.items()
               if v is not None and k not in reads]
    if foreign:
        raise LatticeError(f"{cmd} does not read {', '.join(foreign)}")
    if cmd == "verify":
        # a bad order or grid exits 2 before any row, whatever the pmf
        for key in ("p", "q", "alpha"):
            if not _param(params, key) > 0.0:
                raise BadOrdersError(f"--{key} must be positive, got {_param(params, key)}")
        _t_grid_param(params)
    s = classify(_load_pmf(config)) if "input_path" in reads else None
    if cmd == "verify" and not s.log_concave:
        checks = VERIFY_NOT_LOG_CONCAVE
    return [row for check in checks for row in _evaluate(check, s, params, policy)]


# what a parameter reads when it is not given (counterexample's --lambda
# is 0.1); --law's --lambda and constants' --p and --q have no default
_DEFAULTS = {"p": 2.0, "q": 1.0, "alpha": 2.0, "t_grid": DEFAULT_T_GRID,
             "tail_tol": DEFAULT_TAIL_TOL, "which": "vs", "lam": 0.1, "gamma": 1.0}


def _param(params: dict[str, Any], key: str) -> Any:
    """The given value of a parameter, or its default when none was given;
    a given value is never replaced, so a bad one is refused downstream."""
    value = params.get(key)
    return _DEFAULTS[key] if value is None else value


def _t_grid_param(params: dict[str, Any]) -> tuple[float, ...]:
    """--t-grid, or the default grid when none is given; a given grid must
    be non-empty with every point finite and positive."""
    t_grid = _param(params, "t_grid")
    if not t_grid or not all(0.0 < float(t) < math.inf for t in t_grid):
        raise DomainError("--t-grid needs one or more finite positive points,"
                          f" got {tuple(t_grid)!r}")
    return t_grid


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    return value


def _emit(rows: list[CheckReport], config: RunConfig, stream: TextIO) -> None:
    dicts = [{"check_name": r.name, "lhs": _jsonable(r.lhs), "rhs": _jsonable(r.rhs),
              "margin": _jsonable(r.margin), "verdict": r.verdict,
              "params": _jsonable(r.params)} for r in rows]
    if config.output_format == "json":
        # one dumps and one write: json.dump would write chunk by chunk
        stream.write(json.dumps(dicts, indent=2, sort_keys=True) + "\n")
        return
    stream.write("check_name,lhs,rhs,margin,verdict,params\n")
    for d in dicts:
        numbers = ["" if d[key] is None else str(d[key]) for key in ("lhs", "rhs", "margin")]
        cells = [d["check_name"], *numbers, d["verdict"]]
        params = json.dumps(d["params"], sort_keys=True, separators=(",", ":"))
        cells.append('"' + params.replace('"', '""') + '"')
        stream.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _t_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad t-grid {text!r}") from None


# each parameter's flag and how argparse reads it; every subcommand has the last two
FLAGS = {
    "input_path": ("--input", {"help": "JSON file with weights/offset or law/lambda"}),
    "law": ("--law", {"choices": ("geometric", "symmetric_geometric")}),
    "lam": ("--lambda", {"type": float}),
    "p": ("--p", {"type": float}),
    "q": ("--q", {"type": float}),
    "alpha": ("--alpha", {"type": float}),
    "gamma": ("--gamma", {"type": float}),
    "t_grid": ("--t-grid", {"type": _t_grid}),
    "which": ("--which", {"choices": ("vs", "gap", "c")}),
    "tail_tol": ("--tail-tol", {"type": float}),
    "out_path": ("--out", {}),
    "output_format": ("--format", {"choices": ("csv", "json"), "default": "csv"}),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a LatticeError, which main reports in one line."""

    def error(self, message: str):
        raise LatticeError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lclc",
        description="Numerical checks for entropy inequalities of log-concave "
                    "lattice distributions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, reads) in VIEWS.items():
        p = sub.add_parser(name)
        for key in reads + ("out_path", "output_format"):
            flag, kwargs = FLAGS[key]
            p.add_argument(flag, dest=key, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    params = dict(vars(args))
    given = {f.name: params.pop(f.name) for f in fields(RunConfig) if f.name in params}
    return RunConfig(**given, parameters=params)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except LatticeError as exc:
        return _refuse(exc)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
