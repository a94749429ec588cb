"""Evaluators for the headline inequalities: Renyi-gap reversals,
varentropy bounds, the mean-versus-mode comparison, concentration of
information content, the entropy-power reversal for differences, and the
extremal constants obtained by 1-D optimization over the geometric and
symmetric-geometric families. A check takes a LatticePMF or a Subject,
whose cached facts its guards read."""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

from . import entropy
from .errors import BadOrdersError, NotMonotoneLogConcaveError, UnclassifiedError
from .lattice import LatticePMF, Structure, as_subject
from .optimize import golden_section_max
from .report import CheckReport, from_margin

INF = math.inf
DEFAULT_ALPHA_GRID = np.geomspace(1e-3, 1e3, 200)


class Side(Enum):
    UPPER = "upper"
    LOWER = "lower"


def _as_side(side) -> Side:
    if isinstance(side, Side):
        return side
    return Side(str(side).lower())


# ---------------------------------------------------------------------------
# Renyi gap.
# ---------------------------------------------------------------------------

def _log_c(alpha: float) -> float:
    """log of alpha**(1/(alpha-1)), with the limits 1 at alpha=1, 0 at inf."""
    if alpha == 1.0:
        return 1.0
    if math.isinf(alpha):
        return 0.0
    if alpha - 1.0 == -1.0:  # alpha below 2**-53, where log1p would see -1
        return -math.log(alpha)
    return math.log1p(alpha - 1.0) / (alpha - 1.0)


def gap_constant(p: float, q: float) -> float:
    """The sharp Renyi-gap constant log(c(p)) - log(c(q)) in nats."""
    for order in (p, q):
        if not order > 0.0:
            raise BadOrdersError(f"orders must be positive, got {order}")
    return _log_c(p) - _log_c(q)


def check_renyi_gap(x, p: float, q: float) -> CheckReport:
    """H_p(X) > H_q(X) + gap for p > q on monotone log-concave pmfs.

    Non-monotone input raises NotMonotoneLogConcaveError; a log-concavity
    failure is noted in the report instead, since the margin is still
    well defined and informative.
    """
    if not p > q:
        raise BadOrdersError(f"needs p > q, got p={p}, q={q}")
    s = as_subject(x)
    if not s.monotone:
        raise NotMonotoneLogConcaveError("the gap bound needs a monotone pmf")
    h_p, h_q = entropy.renyi(s.pmf, p), entropy.renyi(s.pmf, q)
    gap = gap_constant(p, q)
    margin = h_p - h_q - gap
    return from_margin("renyi_gap", h_p, h_q + gap, margin, 1e-10,
                       {"p": p, "q": q, "gap": gap,
                        "log_concave": s.log_concave})


# ---------------------------------------------------------------------------
# Varentropy bounds.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def sup_varentropy_symmetric() -> tuple[float, float]:
    """Maximize the symmetric-geometric varentropy over lam in (0, 1).

    Golden-section search to bracket width 1e-12 on the open interval; the
    objective rises from 0, peaks near lam = 0.2, and decays to 1, so it is
    unimodal. Returns (lam_star, V_S).
    """
    lam, value, _ = golden_section_max(entropy.varentropy_symmetric_geometric,
                                       1e-9, 1.0 - 1e-9, xtol=1e-12)
    return lam, value


def class_constant(x) -> float:
    """The constant of x's structural class: V_S for integer-symmetric
    pmfs, else 1. It bounds the varentropy and sets the concentration rate."""
    if as_subject(x).structure is Structure.INTEGER_SYMMETRIC:
        return sup_varentropy_symmetric()[1]
    return 1.0


def check_varentropy(x) -> CheckReport:
    """V(X) against the bound for x's structural class.

    Monotone or half-integer-symmetric log-concave pmfs satisfy V < 1;
    integer-symmetric log-concave pmfs satisfy V <= V_S, the supremum over
    symmetric-geometric laws. Anything else is not covered and raises
    UnclassifiedError.
    """
    s = as_subject(x)
    if not s.log_concave:
        raise UnclassifiedError("varentropy bounds need a log-concave pmf")
    if s.structure is None:
        raise UnclassifiedError("pmf is neither monotone nor symmetric")
    bound = class_constant(s)
    v = entropy.varentropy(s.pmf)
    return from_margin("varentropy_bound", v, bound, bound - v, 1e-9,
                       {"class": s.structure.value})


def K_constant(x: LatticePMF, alpha_grid=None) -> float:
    """Grid lower bound of sup over alpha > 0 of V(tilt(x, alpha)).

    The default grid is 200 log-spaced points on [1e-3, 1e3]; the true
    supremum can only exceed the returned value.
    """
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else np.asarray(alpha_grid, float)
    return max(entropy.varentropy(entropy.tilt(x, float(a))) for a in grid)


# ---------------------------------------------------------------------------
# Mean versus mode.
# ---------------------------------------------------------------------------

def mean_mode_check(x) -> CheckReport:
    """max(f(floor EX), f(ceil EX)) >= e**-1 * max_i f(i) for log-concave f.

    Monotonicity is not required. The report also carries the stronger
    log-affine interpolated form: e * f(floor)**(1-frac) * f(ceil)**frac
    >= max f, of which the headline inequality is a relaxation.
    """
    s = as_subject(x)
    if not s.log_concave:
        raise UnclassifiedError("mean-mode bound needs a log-concave pmf")
    x = s.pmf
    # relative to the offset, which the report adds once
    mean = float(np.dot(x.weights, np.arange(len(x), dtype=np.float64)))
    lo, hi = math.floor(mean), math.ceil(mean)
    f_lo, f_hi = x.pmf(x.offset + lo), x.pmf(x.offset + hi)
    frac = mean - lo
    if lo == hi:
        interpolated = f_lo
    else:
        interpolated = f_lo ** (1.0 - frac) * f_hi**frac
    peak = x.max_weight
    lhs = math.e * max(f_lo, f_hi)
    strong_margin = math.e * interpolated - peak
    margin = min(lhs - peak, strong_margin)
    return from_margin("mean_mode", lhs, peak, margin, 1e-12,
                       {"mean": x.offset + mean, "interpolated": interpolated,
                        "strong_margin": strong_margin})


# ---------------------------------------------------------------------------
# Concentration of information content.
# ---------------------------------------------------------------------------

def rate_r(t: float) -> float:
    """r(t) = t - log(1 + t) for t >= -1 (infinite at t = -1), else +inf."""
    if t <= -1.0:
        return INF
    return t - math.log1p(t)


def concentration_bound(t: float, K: float, side) -> float:
    """exp(-K * r(+-t/K)): the tail bound at deviation t with constant K.

    At K = 1 this is (1+t) e**-t for the upper tail and (1-t) e**t for the
    lower tail (zero once t >= 1).
    """
    if not t >= 0.0:
        raise ValueError(f"deviation t must be non-negative, got {t}")
    if not K > 0.0:
        raise ValueError(f"constant K must be positive, got {K}")
    arg = t / K if _as_side(side) is Side.UPPER else -t / K
    r = rate_r(arg)
    return 0.0 if math.isinf(r) else math.exp(-K * r)


def _information_content(x: LatticePMF) -> tuple[np.ndarray, np.ndarray, float]:
    """The positive masses w, their information content -log w and H."""
    w = x.positive_weights()
    info = -np.log(w)
    return w, info, float(np.dot(w, info))


def empirical_tail(x, t: float, side) -> float:
    """Exact tail mass of the information content around the entropy.

    Upper: P(-log f(X) >= H + t). Lower: P(-log f(X) <= H - t).
    """
    if not t >= 0.0:
        raise ValueError(f"deviation t must be non-negative, got {t}")
    s = as_subject(x)
    w, info, h = s.fact("information", lambda: _information_content(s.pmf))
    if _as_side(side) is Side.UPPER:
        return float(w[info >= h + t].sum())
    return float(w[info <= h - t].sum())


def check_concentration(x, t: float, side, K: float = 1.0) -> CheckReport:
    """Exact tail against the rate bound with the given constant."""
    side = _as_side(side)
    tail = empirical_tail(as_subject(x), t, side)
    bound = concentration_bound(t, K, side)
    return from_margin(f"concentration_{side.value}", tail, bound, bound - tail,
                       1e-12, {"t": t, "K": K})


# ---------------------------------------------------------------------------
# Entropy-power reversal and the order-2 identity.
# ---------------------------------------------------------------------------

def epi_reversal_check(x, alpha: float = 2.0) -> CheckReport:
    """H_alpha(X - Y) <= H_alpha(X) + log 2 for iid monotone log-concave X, Y."""
    if not alpha >= 2.0:
        raise BadOrdersError(f"the reversal is asserted for alpha >= 2, got {alpha}")
    s = as_subject(x)
    if not s.monotone:
        raise NotMonotoneLogConcaveError("the reversal needs a monotone pmf")
    lhs = entropy.renyi(s.self_difference, alpha)
    rhs = entropy.renyi(s.pmf, alpha) + math.log(2.0)
    return from_margin("epi_reversal", lhs, rhs, rhs - lhs, 1e-10,
                       {"alpha": alpha, "log_concave": s.log_concave})


def h2_hinf_identity_check(x) -> CheckReport:
    """H_2(X) = H_inf(X - Y) for any iid pair, with the mode of the
    difference at zero; holds with no structural assumptions on x."""
    s = as_subject(x)
    diff = s.self_difference
    lhs = entropy.renyi(s.pmf, 2.0)
    rhs = entropy.renyi(diff, INF)
    err = abs(lhs - rhs)
    mode_slack = diff.pmf(0) - diff.max_weight  # zero when the mode sits at 0
    tol = 1e-12 * max(1.0, abs(lhs))
    return from_margin("h2_hinf_identity", lhs, rhs, tol - err, 0.0,
                       {"abs_error": err, "mode_slack": mode_slack})


# ---------------------------------------------------------------------------
# Extremal constants over the symmetric-geometric family.
# ---------------------------------------------------------------------------

def C_constant(q: float, p: float) -> float:
    """sup over symmetric-geometric Z of H_q(Z) - H_p(Z), for p >= q > 0.

    A coarse grid scan locates the bracket and golden-section search
    refines it to width 1e-12; suprema attained at the lam -> 1 boundary
    are returned at the edge of the open search interval.
    """
    if not (p >= q and q > 0.0):
        raise BadOrdersError(f"need p >= q > 0, got q={q}, p={p}")
    if p == q:
        return 0.0

    def objective(lam: float) -> float:
        return (entropy.renyi_symmetric_geometric(lam, q)
                - entropy.renyi_symmetric_geometric(lam, p))

    lo, hi = 1e-9, 1.0 - 1e-9
    grid = np.linspace(lo, hi, 129)
    values = [objective(float(lam)) for lam in grid]
    k = int(np.argmax(values))
    left = float(grid[max(0, k - 1)])
    right = float(grid[min(len(grid) - 1, k + 1)])
    _, value, _ = golden_section_max(objective, left, right, xtol=1e-12)
    return max(value, float(values[k]))
