"""Solve for the geometric or symmetric-geometric comparator whose p-th
power sum matches a given pmf, and verify the resulting Renyi dominance
pattern: at orders above the matched one the pmf has at least the
comparator's entropy, at orders below at most."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import entropy
from .errors import BadOrdersError, NoBracketError
from .lattice import MATCHABLE, NON_DEGENERATE, LawKind, Structure, as_subject
from .optimize import bisect_root
from .report import CheckReport, from_margin

_BRACKET_LO = 1e-12
_BRACKET_HI = 1.0 - 1e-12
_RESIDUAL_TOL = 1e-9

DEFAULT_Q_GRID = (0.5, 1.0, 1.5, 3.0, 5.0, math.inf)


@dataclass(frozen=True)
class MatchResult:
    kind: LawKind  # the comparator's family
    lam: float
    target: float
    residual: float  # relative
    iterations: int


def _solve(kind: LawKind, x, p: float) -> MatchResult:
    s = as_subject(x).require(NON_DEGENERATE)
    p = float(p)
    if not p > 0.0 or p == 1.0 or math.isinf(p):
        raise BadOrdersError(f"matching order must be finite, positive and != 1, got {p}")
    log_target = entropy.log_power_sum(s, p)
    log_psi = kind.log_power_sum
    root, iterations = bisect_root(lambda lam: log_psi(lam, p) - log_target,
                                   _BRACKET_LO, _BRACKET_HI)
    target = math.exp(log_target)
    try:
        residual = abs(math.expm1(log_psi(root, p) - log_target))
    except OverflowError:  # an extreme order can leave the root far off
        residual = math.inf
    if residual > _RESIDUAL_TOL:
        raise NoBracketError(f"matching did not converge: residual {residual:.3g}")
    return MatchResult(kind, root, target, residual, iterations)


def match_geometric(x, p: float) -> MatchResult:
    """Find lam with sum_k ((1-lam) lam**k)**p equal to sum_i x_i**p.

    For p > 1 the closed-form power sum decreases from 1 to 0 over
    lam in (0, 1) while the target lies strictly inside (0, 1) for any
    non-Dirac pmf, so a root always brackets; for p in (0, 1) the bracket
    orientation reverses and is detected at runtime.
    """
    return _solve(LawKind.GEOMETRIC, x, p)


def match_symmetric_geometric(x, p: float) -> MatchResult:
    """Find lam matching the symmetric-geometric p-th power sum to x's."""
    return _solve(LawKind.SYMMETRIC_GEOMETRIC, x, p)


def match_comparator(x, p: float) -> MatchResult:
    """The match at order p against the comparator family of x's structure.

    Monotone pmfs are matched against the geometric family,
    integer-symmetric pmfs against the symmetric-geometric family; any
    other raises UnclassifiedError. x is a LatticePMF or a Subject, and a
    subject solves each order once.
    """
    s = as_subject(x).require(MATCHABLE)

    def solve() -> MatchResult:
        if s.structure is Structure.MONOTONE:
            return match_geometric(s, p)
        return match_symmetric_geometric(s, p)

    return s.fact(("match", p), solve)


def renyi_dominance_report(x, p: float, q_grid=DEFAULT_Q_GRID) -> CheckReport:
    """Match a comparator at order p and check the dominance sign pattern.

    x is a LatticePMF or a Subject, matched as match_comparator() does. For
    every q in the grid the margin is oriented so that H_q(X) >= H_q(Z) is
    expected at q >= p and H_q(X) <= H_q(Z) at q <= p; pass means every
    margin is above -1e-9. The dominance pattern is only guaranteed for
    log-concave input; the report notes when that hypothesis fails instead
    of refusing to evaluate.
    """
    s = as_subject(x)
    match = match_comparator(s, p)
    margins = []
    worst = math.inf
    worst_pair = (math.nan, math.nan)
    for q in q_grid:
        h_x = entropy.renyi(s, q)
        h_z = match.kind.renyi(match.lam, q)
        margin = (h_x - h_z) if q >= p else (h_z - h_x)
        margins.append(margin)
        if margin < worst:
            worst, worst_pair = margin, (h_x, h_z)
    params = {"branch": match.kind.value, "p": p, "lam": match.lam,
              "residual": match.residual,
              "q_grid": [float(q) for q in q_grid],
              "margins": margins,
              "log_concave": s.log_concave}
    return from_margin("renyi_dominance", worst_pair[0], worst_pair[1], worst, 1e-9,
                       params)
