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
from dataclasses import dataclass, field
from typing import Any, TextIO

from . import entropy, inequalities, lyapunov, majorization, matching
from .errors import DomainError, LatticeError, MissingParameterError
from .lattice import (
    DEFAULT_TAIL_TOL,
    Direction,
    LatticePMF,
    is_log_concave,
    monotonicity,
    pmf_from_json,
    symmetry_center,
)
from .report import FAIL, NA, CheckReport, info

DEFAULT_T_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)

COMMANDS = ("verify", "entropy", "varentropy", "phi", "crossing", "match",
            "concentration", "constants", "counterexample", "epi")


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    parameters: dict[str, Any] = field(default_factory=dict)
    output_format: str = "csv"
    out_path: str | None = None


@dataclass(frozen=True)
class Classification:
    log_concave: bool
    direction: Direction
    symmetry: float | None
    support_size: int
    offset: int

    @property
    def monotone(self) -> bool:
        return self.direction is not Direction.NEITHER

    @property
    def integer_symmetric(self) -> bool:
        return self.symmetry is not None and self.symmetry == int(self.symmetry)

    @property
    def half_integer_symmetric(self) -> bool:
        return self.symmetry is not None and self.symmetry != int(self.symmetry)


def classify(x: LatticePMF) -> Classification:
    """Structural summary: log-concavity, monotone direction, symmetry."""
    return Classification(is_log_concave(x), monotonicity(x), symmetry_center(x),
                          x.support_size, x.offset)


def _skip(name: str, reason: str) -> CheckReport:
    return CheckReport(name, math.nan, math.nan, math.nan, NA, {"reason": reason})


def _load_pmf(config: RunConfig) -> LatticePMF:
    params = config.parameters
    tail_tol = _param(params, "tail_tol", DEFAULT_TAIL_TOL)
    if config.input_path:
        with open(config.input_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return pmf_from_json(doc, tail_tol)
    if params.get("law"):
        if params.get("lam") is None:
            raise MissingParameterError("--law needs --lambda")
        return pmf_from_json({"law": params["law"], "lambda": params["lam"]},
                             tail_tol)
    raise MissingParameterError("no distribution given: use --input or --law/--lambda")


def _classification_row(c: Classification) -> CheckReport:
    return info("classification", c.support_size, {
        "log_concave": c.log_concave,
        "direction": c.direction.value,
        "symmetry_center": c.symmetry,
        "offset": c.offset,
    })


def _concavity_row(x: LatticePMF) -> CheckReport:
    rep = lyapunov.check_concavity(x)
    margin = min(rep.min_second_difference, -rep.max_second_derivative)
    return CheckReport("phi_concavity", rep.min_second_difference,
                       rep.max_second_derivative, margin,
                       "pass" if rep.concave else FAIL,
                       {"t_min": float(rep.grid[0]), "t_max": float(rep.grid[-1]),
                        "n_points": int(rep.grid.size),
                        "witness": rep.witness})


def _matching_rows(x: LatticePMF, c: Classification, p: float) -> list[CheckReport]:
    rows: list[CheckReport] = []
    if c.support_size < 2:
        return [_skip("match", "matching needs a non-degenerate pmf")]
    if c.monotone:
        decreasing = x if c.direction is not Direction.INCREASING else x.reversed()
        result = matching.match_geometric(x, p)
        comparator = majorization.GeometricSequence(1.0 - result.lam, result.lam)
        rows.append(info("match_lambda", result.lam,
                         {"p": p, "residual": result.residual,
                          "iterations": result.iterations, "family": "geometric"}))
        rows.append(majorization.crossing_verify(decreasing, comparator))
    else:
        result = matching.match_symmetric_geometric(x, p)
        rows.append(info("match_lambda", result.lam,
                         {"p": p, "residual": result.residual,
                          "iterations": result.iterations,
                          "family": "symmetric_geometric"}))
    rows.append(matching.renyi_dominance_report(x, p))
    return rows


def _verify_rows(x: LatticePMF, params: dict[str, Any]) -> list[CheckReport]:
    c = classify(x)
    t_grid = _t_grid_param(params)
    p = _param(params, "p", 2.0)
    q = _param(params, "q", 1.0)
    alpha = _param(params, "alpha", 2.0)
    rows = [_classification_row(c),
            inequalities.h2_hinf_identity_check(x),
            majorization.cake_layer_check(x, 2.0)]

    if not c.log_concave:
        rows.append(_skip("mean_mode", "requires a log-concave pmf"))
        rows.append(_skip("phi_concavity", "requires monotone or symmetric log-concave"))
        rows.append(_skip("varentropy_bound", "requires monotone or symmetric log-concave"))
        rows.append(_skip("renyi_gap", "requires monotone log-concave"))
        rows.append(_skip("concentration", "requires monotone or symmetric log-concave"))
        rows.append(_skip("epi_reversal", "requires monotone log-concave"))
        rows.append(_skip("renyi_dominance", "requires monotone or symmetric log-concave"))
        return rows

    rows.append(inequalities.mean_mode_check(x))

    if c.monotone or c.half_integer_symmetric:
        rows.append(_concavity_row(x))
    else:
        rows.append(_skip("phi_concavity",
                          "asserted for monotone or half-integer-symmetric pmfs"))

    if c.monotone or c.symmetry is not None:
        rows.append(inequalities.check_varentropy(x))
        K = (inequalities.sup_varentropy_symmetric()[1]
             if c.integer_symmetric and not c.monotone else 1.0)
        for t in t_grid:
            for side in (inequalities.Side.UPPER, inequalities.Side.LOWER):
                rows.append(inequalities.check_concentration(x, float(t), side, K))
    else:
        rows.append(_skip("varentropy_bound", "pmf is neither monotone nor symmetric"))
        rows.append(_skip("concentration", "pmf is neither monotone nor symmetric"))

    if c.monotone:
        rows.append(inequalities.check_renyi_gap(x, p, q) if p > q
                    else _skip("renyi_gap", f"needs p > q, got p={p}, q={q}"))
        rows.append(inequalities.epi_reversal_check(x, alpha))
    else:
        rows.append(_skip("renyi_gap", "asserted for monotone pmfs"))
        rows.append(_skip("epi_reversal", "asserted for monotone pmfs"))

    if c.monotone or c.integer_symmetric:
        rows.extend(_matching_rows(x, c, p))
    else:
        rows.append(_skip("renyi_dominance",
                          "needs a monotone or integer-symmetric pmf"))
    return rows


def run(config: RunConfig, stream: TextIO | None = None) -> int:
    """Execute one command and write report rows; returns the exit code."""
    try:
        rows = _dispatch(config)
    except (LatticeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            _emit(rows, config, fh)
    else:
        _emit(rows, config, stream or sys.stdout)
    return 1 if any(r.verdict == FAIL for r in rows) else 0


def _dispatch(config: RunConfig) -> list[CheckReport]:
    params = config.parameters
    cmd = config.command

    if cmd == "constants":
        which = _param(params, "which", "vs")
        if which == "vs":
            lam_star, v_s = inequalities.sup_varentropy_symmetric()
            return [info("lambda_star", lam_star), info("V_S", v_s)]
        if which == "gap":
            p, q = _require(params, "p"), _require(params, "q")
            return [info("gap_constant", inequalities.gap_constant(p, q),
                         {"p": p, "q": q})]
        if which == "c":
            p, q = _require(params, "p"), _require(params, "q")
            return [info("C_constant", inequalities.C_constant(q, p),
                         {"q": q, "p": p})]
        raise LatticeError(f"unknown constant {which!r}: expected vs, gap, or c")

    if cmd == "counterexample":
        lam = _param(params, "lam", 0.1)
        gamma = _param(params, "gamma", 1.0)
        return [lyapunov.counterexample_check(lam, gamma)]

    x = _load_pmf(config)
    if cmd == "verify":
        return _verify_rows(x, params)
    if cmd == "entropy":
        if params.get("p") is not None:
            p = params["p"]
            return [info("renyi_entropy", entropy.renyi(x, p), {"p": p})]
        summary = entropy.info_summary(x)
        return [info("shannon_entropy", summary.shannon),
                info("min_entropy", summary.min_entropy),
                info("varentropy", summary.varentropy)]
    if cmd == "varentropy":
        rows = [info("varentropy", entropy.varentropy(x))]
        try:
            rows.append(inequalities.check_varentropy(x))
        except LatticeError as exc:
            rows.append(_skip("varentropy_bound", str(exc)))
        return rows
    if cmd == "phi":
        t_grid = _t_grid_param(params)
        rows = [info("phi", lyapunov.phi(x, float(t)),
                     {"t": float(t),
                      "phi2": lyapunov.phi_second_derivative(x, float(t))})
                for t in t_grid]
        c = classify(x)
        if c.log_concave and (c.monotone or c.half_integer_symmetric):
            rows.append(_concavity_row(x))
        return rows
    if cmd == "crossing":
        p = _param(params, "p", 2.0)
        c = classify(x)
        if not (c.log_concave and c.monotone):
            raise LatticeError("crossing needs a monotone log-concave pmf")
        decreasing = x if c.direction is not Direction.INCREASING else x.reversed()
        result = matching.match_geometric(x, p)
        comparator = majorization.GeometricSequence(1.0 - result.lam, result.lam)
        cross = majorization.crossing_interval(decreasing, comparator)
        return [info("match_lambda", result.lam, {"p": p}),
                info("crossing_interval_lo", cross.interval.lo,
                     {"a": cross.first_index, "b": cross.last_index,
                      "hi": cross.interval.hi}),
                majorization.crossing_verify(decreasing, comparator)]
    if cmd == "match":
        p = _param(params, "p", 2.0)
        c = classify(x)
        if c.monotone:
            result = matching.match_geometric(x, p)
            family = "geometric"
        elif c.integer_symmetric:
            result = matching.match_symmetric_geometric(x, p)
            family = "symmetric_geometric"
        else:
            raise LatticeError("match needs a monotone or integer-symmetric pmf")
        return [info("match_lambda", result.lam,
                     {"p": p, "residual": result.residual,
                      "iterations": result.iterations, "family": family})]
    if cmd == "concentration":
        t_grid = _t_grid_param(params)
        c = classify(x)
        if not c.log_concave or (not c.monotone and c.symmetry is None):
            raise LatticeError("concentration needs a monotone or symmetric "
                               "log-concave pmf")
        K = (inequalities.sup_varentropy_symmetric()[1]
             if c.integer_symmetric and not c.monotone else 1.0)
        return [inequalities.check_concentration(x, float(t), side, K)
                for t in t_grid
                for side in (inequalities.Side.UPPER, inequalities.Side.LOWER)]
    if cmd == "epi":
        alpha = _param(params, "alpha", 2.0)
        return [inequalities.epi_reversal_check(x, alpha)]
    raise LatticeError(f"unknown command {cmd!r}")


def _param(params: dict[str, Any], key: str, default: Any) -> Any:
    """The given value of a parameter, or its default when none was given;
    a given value is never replaced, so a bad one is refused downstream."""
    value = params.get(key)
    return default if value is None else value


def _require(params: dict[str, Any], key: str) -> float:
    value = params.get(key)
    if value is None:
        raise MissingParameterError(f"missing required parameter --{key}")
    return value


def _t_grid_param(params: dict[str, Any]) -> tuple[float, ...]:
    """--t-grid, or the default grid when none is given; a given grid must
    be non-empty with every point finite and positive."""
    t_grid = params.get("t_grid")
    if t_grid is None:
        return DEFAULT_T_GRID
    if not t_grid or not all(0.0 < float(t) < math.inf for t in t_grid):
        raise DomainError("--t-grid needs one or more finite positive points,"
                          f" got {tuple(t_grid)!r}")
    return t_grid


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    return value


def _row_dict(row: CheckReport) -> dict[str, Any]:
    return {"check_name": row.name, "lhs": _jsonable(row.lhs),
            "rhs": _jsonable(row.rhs), "margin": _jsonable(row.margin),
            "verdict": row.verdict, "params": _jsonable(row.params)}


def _emit(rows: list[CheckReport], config: RunConfig, stream: TextIO) -> None:
    dicts = [_row_dict(r) for r in rows]
    if config.output_format == "json":
        json.dump(dicts, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    stream.write("check_name,lhs,rhs,margin,verdict,params\n")
    for d in dicts:
        cells = [d["check_name"]]
        for key in ("lhs", "rhs", "margin"):
            value = d[key]
            cells.append("" if value is None else repr(value))
        cells.append(d["verdict"])
        params = json.dumps(d["params"], sort_keys=True, separators=(",", ":"))
        cells.append('"' + params.replace('"', '""') + '"')
        stream.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _float_or_inf(text: str) -> float:
    return math.inf if text.lower() in ("inf", "infinity") else float(text)

def _t_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad t-grid {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lclc",
        description="Numerical checks for entropy inequalities of log-concave "
                    "lattice distributions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", dest="input_path", default=None,
                       help="JSON file with weights/offset or law/lambda")
        p.add_argument("--law", choices=("geometric", "symmetric_geometric"),
                       default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--p", type=_float_or_inf, default=None)
        p.add_argument("--q", type=_float_or_inf, default=None)
        p.add_argument("--alpha", type=_float_or_inf, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--t-grid", dest="t_grid", type=_t_grid, default=None)
        p.add_argument("--which", choices=("vs", "gap", "c"), default=None)
        p.add_argument("--suite", default="all")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)
        p.add_argument("--out", dest="out_path", default=None)
        p.add_argument("--format", dest="output_format",
                       choices=("csv", "json"), default="csv")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    keys = ("law", "lam", "p", "q", "alpha", "gamma", "t_grid", "which",
            "suite", "seed", "tail_tol")
    params = {k: getattr(args, k) for k in keys}
    return RunConfig(command=args.command, input_path=args.input_path,
                     parameters=params, output_format=args.output_format,
                     out_path=args.out_path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
