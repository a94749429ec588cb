"""Solve for the geometric or symmetric-geometric comparator whose p-th
power sum matches a given pmf, and verify the resulting Renyi dominance
pattern: at orders above the matched one the pmf has at least the
comparator's entropy, at orders below at most."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import entropy
from .errors import BadOrdersError, DiracInputError, NoBracketError, UnclassifiedError
from .lattice import LatticePMF, Structure, as_subject
from .optimize import bisect_root
from .report import CheckReport

_BRACKET_LO = 1e-12
_BRACKET_HI = 1.0 - 1e-12
_MAX_ITER = 200
_RESIDUAL_TOL = 1e-9

DEFAULT_Q_GRID = (0.5, 1.0, 1.5, 3.0, 5.0, math.inf)


@dataclass(frozen=True)
class MatchResult:
    lam: float
    target: float
    residual: float  # relative
    iterations: int


def _solve(log_psi, x: LatticePMF, p: float) -> MatchResult:
    p = float(p)
    if not p > 0.0 or p == 1.0 or math.isinf(p):
        raise BadOrdersError(f"matching order must be finite, positive and != 1, got {p}")
    if x.support_size == 1:
        raise DiracInputError("cannot match a point mass with an open-parameter law")
    log_target = entropy.log_power_sum(x, p)
    root, iterations = bisect_root(lambda lam: log_psi(lam, p) - log_target,
                                   _BRACKET_LO, _BRACKET_HI,
                                   xtol=1e-15, max_iter=_MAX_ITER)
    target = math.exp(log_target)
    residual = abs(math.expm1(log_psi(root, p) - log_target))
    if residual > _RESIDUAL_TOL:
        raise NoBracketError(f"matching did not converge: residual {residual:.3g}")
    return MatchResult(root, target, residual, iterations)


def match_geometric(x: LatticePMF, p: float) -> MatchResult:
    """Find lam with sum_k ((1-lam) lam**k)**p equal to sum_i x_i**p.

    For p > 1 the closed-form power sum decreases from 1 to 0 over
    lam in (0, 1) while the target lies strictly inside (0, 1) for any
    non-Dirac pmf, so a root always brackets; for p in (0, 1) the bracket
    orientation reverses and is detected at runtime.
    """
    return _solve(entropy.log_power_sum_geometric, x, p)


def match_symmetric_geometric(x: LatticePMF, p: float) -> MatchResult:
    """Find lam matching the symmetric-geometric p-th power sum to x's."""
    return _solve(entropy.log_power_sum_symmetric_geometric, x, p)


def match_comparator(x, p: float) -> tuple[str, MatchResult]:
    """The comparator family of x's structure and its match at order p.

    Monotone pmfs are matched against the geometric family,
    integer-symmetric pmfs against the symmetric-geometric family; any
    other raises UnclassifiedError. x is a LatticePMF or a Subject, and a
    subject solves each order once.
    """
    s = as_subject(x)

    def solve() -> tuple[str, MatchResult]:
        if s.structure is Structure.MONOTONE:
            return "geometric", match_geometric(s.pmf, p)
        if s.structure is Structure.INTEGER_SYMMETRIC:
            return "symmetric_geometric", match_symmetric_geometric(s.pmf, p)
        raise UnclassifiedError("matching needs a monotone or integer-symmetric pmf")

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
    branch, match = match_comparator(s, p)
    comparator_entropy = (entropy.renyi_geometric if branch == "geometric"
                          else entropy.renyi_symmetric_geometric)
    margins = []
    worst = math.inf
    worst_pair = (math.nan, math.nan)
    for q in q_grid:
        h_x = entropy.renyi(s.pmf, q)
        h_z = comparator_entropy(match.lam, q)
        margin = (h_x - h_z) if q >= p else (h_z - h_x)
        margins.append(margin)
        if margin < worst:
            worst, worst_pair = margin, (h_x, h_z)
    verdict = "pass" if worst >= -1e-9 else "fail"
    params = {"branch": branch, "p": p, "lam": match.lam,
              "residual": match.residual,
              "q_grid": [float(q) for q in q_grid],
              "margins": margins,
              "log_concave": s.log_concave}
    return CheckReport("renyi_dominance", worst_pair[0], worst_pair[1],
                       float(worst), verdict, params)
