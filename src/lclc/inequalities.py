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

from . import entropy, lattice, lyapunov
from .errors import BadOrdersError
from .lattice import LatticePMF, LawKind, Structure, as_subject
from .optimize import golden_section_max
from .report import CheckReport, from_margin

INF = math.inf
DEFAULT_ALPHA_GRID = np.geomspace(1e-3, 1e3, 200)


class Side(Enum):
    UPPER = "upper"
    LOWER = "lower"


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

    Non-monotone input raises NotMonotoneLogConcaveError, before the
    orders are checked; a log-concavity failure is noted in the report
    instead, since the margin is still well defined and informative.
    """
    s = as_subject(x).require(lattice.MONOTONE)
    if not p > q:
        raise BadOrdersError(f"needs p > q, got p={p}, q={q}")
    h_p, h_q = entropy.renyi(s, p), entropy.renyi(s, q)
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
    lam, value, _ = golden_section_max(LawKind.SYMMETRIC_GEOMETRIC.varentropy,
                                       1e-9, 1.0 - 1e-9)
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
    s = as_subject(x).require(lattice.LC_CLASSIFIED, lattice.CLASSIFIED)
    bound = class_constant(s)
    v = entropy.varentropy(s)
    return from_margin("varentropy_bound", v, bound, bound - v, 1e-9,
                       {"class": s.structure.value})


def K_constant(x: LatticePMF) -> float:
    """Grid lower bound of sup over alpha > 0 of the varentropy of the pmf
    proportional to x**alpha.

    The grid, DEFAULT_ALPHA_GRID, is 200 log-spaced points on [1e-3, 1e3];
    the true supremum can only exceed the returned value. The pmf
    proportional to x**a has varentropy a**2 Var_a(log x) = a**2 phi''(a) + 1,
    so one kernel pass over the grid gives every point. A row whose
    products a log x_i all underflow reads phi'' = -1/a**2, hence V = 0, the
    varentropy of the limit as a grows, uniform on the largest masses;
    rounding below 0 is clamped, as varentropy clamps it.
    """
    phi2 = lyapunov.phi_second_derivative(x, DEFAULT_ALPHA_GRID)
    return max(0.0, 1.0 + float((DEFAULT_ALPHA_GRID**2 * phi2).max()))


# ---------------------------------------------------------------------------
# Mean versus mode.
# ---------------------------------------------------------------------------

def mean_mode_check(x) -> CheckReport:
    """max(f(floor EX), f(ceil EX)) >= e**-1 * max_i f(i) for log-concave f.

    Monotonicity is not required. The report also carries the stronger
    log-affine interpolated form: e * f(floor)**(1-frac) * f(ceil)**frac
    >= max f, of which the headline inequality is a relaxation.
    """
    x = as_subject(x).require(lattice.LOG_CONCAVE).pmf
    # relative to the offset, which the report adds once; a pairwise sum,
    # not np.dot, whose threaded BLAS reduction order varies with the
    # thread count
    w = x.weights
    mean = entropy.pairwise_sum(len(x), lambda lo, hi, out: np.multiply(
        np.arange(lo, hi, dtype=np.float64), w[lo:hi], out=out))
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


def _check_side(side) -> None:
    """Refuse a side that is not a Side member: either branch would read it
    as the lower tail."""
    if not isinstance(side, Side):
        raise TypeError(f"side must be a Side member, got {side!r}")


def concentration_bound(t: float, K: float, side: Side) -> float:
    """exp(-K * r(+-t/K)): the tail bound at deviation t with constant K.

    At K = 1 this is (1+t) e**-t for the upper tail and (1-t) e**t for the
    lower tail (zero once t >= 1).
    """
    if not t >= 0.0:
        raise ValueError(f"deviation t must be non-negative, got {t}")
    if not K > 0.0:
        raise ValueError(f"constant K must be positive, got {K}")
    _check_side(side)
    arg = t / K if side is Side.UPPER else -t / K
    r = rate_r(arg)
    return 0.0 if math.isinf(r) else math.exp(-K * r)


def _tail(ascending: np.ndarray, h: float, t: float, side: Side) -> slice:
    """The entries of the mass table in the tail at deviation t, found by
    bisecting its logs in ascending order: the table's suffix with
    log v <= -(H + t) (upper), or its prefix with log v >= -(H - t)
    (lower)."""
    k = ascending.size
    if side is Side.UPPER:
        return slice(k - int(np.searchsorted(ascending, -(h + t), side="right")), None)
    return slice(0, k - int(np.searchsorted(ascending, -(h - t), side="left")))


def empirical_tail(x, t: float, side: Side) -> float:
    """Exact tail mass of the information content around the entropy.

    Upper: P(-log f(X) >= H + t). Lower: P(-log f(X) <= H - t). Negation
    is exact, so these are read off the logs as log f(X) <= -(H + t) and
    log f(X) >= -(H - t): a prefix or a suffix of the mass table, whose
    probabilities are summed as one slice.
    """
    if not t >= 0.0:
        raise ValueError(f"deviation t must be non-negative, got {t}")
    _check_side(side)
    s = as_subject(x)
    table = s.mass_table
    tail = _tail(table.logs[::-1], entropy.shannon(s), t, side)
    return float(table.probabilities[tail].sum())


def check_concentration(x, t: float, side: Side, K: float = 1.0) -> CheckReport:
    """Exact tail against the rate bound with the given constant."""
    tail = empirical_tail(as_subject(x), t, side)
    bound = concentration_bound(t, K, side)
    return from_margin(f"concentration_{side.value}", tail, bound, bound - tail,
                       1e-12, {"t": t, "K": K})


# ---------------------------------------------------------------------------
# Entropy-power reversal and the order-2 identity.
# ---------------------------------------------------------------------------

def epi_reversal_check(x, alpha: float = 2.0) -> CheckReport:
    """H_alpha(X - Y) <= H_alpha(X) + log 2 for iid monotone log-concave X, Y;
    only monotonicity is required, so a pmf far from log-concave can fail."""
    s = as_subject(x).require(lattice.MONOTONE)
    if not alpha >= 2.0:
        raise BadOrdersError(f"the reversal is asserted for alpha >= 2, got {alpha}")
    lhs = _difference_renyi(s, alpha)
    rhs = entropy.renyi(s, alpha) + math.log(2.0)
    return from_margin("epi_reversal", lhs, rhs, rhs - lhs, 1e-10,
                       {"alpha": alpha, "log_concave": s.log_concave})


def _difference_renyi(s, alpha: float) -> float:
    """H_alpha(X - Y) at alpha > 1, read off the lags k >= 0 of the law of
    X - Y, which is exactly symmetric: lag 0 is one atom and every other lag
    two. One pairwise sum runs over the lags in their own order, with no
    sort, no mass table and no array of the law: each block of lags is
    written into the sum's buffer, logged there (a contiguous log, as the
    mass table's is), scaled by alpha, shifted by the anchor alpha log max
    and exponentiated, in place; a lag that rounding left at 0 adds 0. The
    anchor is the log of the largest mass in the same contiguous loop, so it
    is alpha times the largest of the blocks' logs, np.log being monotone.
    As in entropy.renyi, alpha = inf, or a power sum that underflows, reads
    -log of the largest mass."""
    law = s.self_difference
    if not math.isinf(alpha):

        def terms(lo, hi, out):
            np.log(law.lags(lo, hi, out), out=out)
            np.multiply(alpha, out, out=out)
            out -= top
            np.exp(out, out=out)
            out[1 if lo == 0 else 0:] *= 2.0
            return out

        with np.errstate(divide="ignore", over="ignore"):
            top = alpha * float(np.log(np.full(1, law.max_weight))[0])
            if top != -INF:
                total = entropy.pairwise_sum(law.last + 1, terms)
                return (top + math.log(total)) / (1.0 - alpha)
    return -math.log(law.max_weight)


def h2_hinf_identity_check(x) -> CheckReport:
    """H_2(X) = H_inf(X - Y) for any iid pair, with the mode of the
    difference at zero; holds with no structural assumptions on x. The law
    of X - Y is read by its scalars, the largest mass and the mass at 0."""
    s = as_subject(x)
    diff = s.self_difference
    lhs = entropy.renyi(s, 2.0)
    rhs = -math.log(diff.max_weight)  # H_inf
    err = abs(lhs - rhs)
    mode_slack = diff.mass_at_zero - diff.max_weight  # zero when the mode sits at 0
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

    renyi = LawKind.SYMMETRIC_GEOMETRIC.renyi  # bound once, not per evaluation

    def objective(lam: float) -> float:
        return renyi(lam, q) - renyi(lam, p)

    lo, hi = 1e-9, 1.0 - 1e-9
    grid = np.linspace(lo, hi, 129)
    values = [objective(float(lam)) for lam in grid]
    k = int(np.argmax(values))
    left = float(grid[max(0, k - 1)])
    right = float(grid[min(len(grid) - 1, k + 1)])
    _, value, _ = golden_section_max(objective, left, right)
    return max(value, float(values[k]))
