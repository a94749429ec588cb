"""The functional phi_x(t) = log(t * sum_i x_i**t) and its curvature.

For monotone log-concave probability sequences phi_x is concave on
(0, inf); check_concavity verifies this numerically on a grid using both
analytic second derivatives and normalized second differences. The module
also evaluates the two-parameter extension
phi_y(t) = log((t + gamma) * sum_n y_n**(t/gamma)) and exhibits parameter
values where its concavity fails (counterexample_check), and it searches
symmetric peaked pmfs for points of convexity of phi (scan_symmetric_peaks),
which exist once the peak is wider than three atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import log_power_sum_geometric, log_power_sum_of_logs
from .errors import AllZeroError, DomainError
from .lattice import LatticePMF, _checked_weights, normalize
from .report import CheckReport

DEFAULT_T_MIN = 0.05
DEFAULT_T_MAX = 40.0
DEFAULT_N_POINTS = 256
CONCAVITY_TOL = 1e-9
_BLOCK_ELEMENTS = 1 << 20  # grid rows x atoms per block of _phi_on_grid


@dataclass(frozen=True, eq=False)
class ConcavityReport:
    """Grid evidence for concavity of phi.

    Second differences are reported as function minus chord, normalized by
    the local magnitude of phi, so they are non-negative for a concave
    function; concave holds iff min_second_difference >= -tolerance and
    max_second_derivative <= tolerance. witness is the t-triple around the
    worst violation when concavity fails.
    """

    grid: np.ndarray
    phi: np.ndarray
    min_second_difference: float
    concave: bool
    witness: tuple[float, float, float] | None
    max_second_derivative: float


def _log_values(x) -> np.ndarray:
    """Log of the positive entries of a pmf or raw non-negative sequence."""
    w = x.weights if isinstance(x, LatticePMF) else _checked_weights(x)
    if not np.any(w > 0.0):
        raise AllZeroError("all entries are zero")
    return np.log(w[w > 0.0])


def phi(x, t: float) -> float:
    """phi_x(t) = log t + log sum_i x_i**t for t > 0.

    Accepts a LatticePMF or any non-negative sequence; the sequence need
    not be normalized (phi_{c x}(t) = phi_x(t) + t log c).
    """
    return float(_phi_on_grid(_log_values(x), np.array([t], dtype=np.float64))[0][0])


def phi_second_derivative(x, t: float) -> float:
    """phi_x''(t), evaluated through the tilted log-mass variance.

    Writing w_i(t) for the tilt of x by t, phi''(t) equals
    Var_{w(t)}(log x) - 1/t**2, which is the standard ratio-of-sums
    expression rearranged into a numerically stable two-pass form.
    """
    return float(_phi_on_grid(_log_values(x), np.array([t], dtype=np.float64))[1][0])


def phi_geometric(lam: float, t: float) -> float:
    """Closed form for the geometric law: log t + t log(1-lam) - log(1-lam**t)."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return math.log(t) + log_power_sum_geometric(lam, t)


def phi_geometric_second_derivative(lam: float, t: float) -> float:
    """Closed form: (lam**t log^2(lam**t) - (1-lam**t)^2) / ((1-lam**t) t)^2."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    lam_t = math.exp(t * math.log(lam))
    one_minus = -math.expm1(t * math.log(lam))
    return (lam_t * math.log(lam_t) ** 2 - one_minus**2) / (one_minus * t) ** 2


def _phi_on_grid(logs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi, phi'') at each exponent t > 0 in ts, from the log-masses logs,
    in blocks of about _BLOCK_ELEMENTS entries, so memory stays bounded.

    A product t * log x_i below the float range is -inf, its limit. A row
    whose largest product t * max log x is -inf (rounding is monotone) has
    phi = -inf and tilted variance 0, the limits as t grows."""
    if not np.all(ts > 0.0):
        raise ValueError(f"t must be positive, got {ts.min()}")
    with np.errstate(over="ignore"):
        dead = ts * logs.max() == -np.inf
        if dead.any():
            phi_vals, phi2_vals = np.full(ts.size, -np.inf), 0.0 - 1.0 / ts**2
            phi_vals[~dead], phi2_vals[~dead] = _phi_on_grid(logs, ts[~dead])
            return phi_vals, phi2_vals
        phi_vals, var = np.empty(ts.size), np.empty(ts.size)
        height = max(1, _BLOCK_ELEMENTS // logs.size)
        for i in range(0, ts.size, height):
            rows = slice(i, i + height)
            s = ts[rows, None] * logs
            m = s.max(axis=1, keepdims=True)
            w = np.exp(s - m, out=s)
            totals = w.sum(axis=1, keepdims=True)
            phi_vals[rows] = np.log(ts[rows]) + m[:, 0] + np.log(totals[:, 0])
            w /= totals
            # row sums, not w @ logs or einsum: those pick their kernel by the
            # block's shape, so a row's bits would depend on the block height
            means = (w * logs).sum(axis=1, keepdims=True)
            var[rows] = (w * (logs - means) ** 2).sum(axis=1)
        return phi_vals, var - 1.0 / ts**2


def check_concavity(x, t_min: float = DEFAULT_T_MIN, t_max: float = DEFAULT_T_MAX,
                    n_points: int = DEFAULT_N_POINTS,
                    tol: float = CONCAVITY_TOL) -> ConcavityReport:
    """Verify concavity of phi_x on a geometric grid over [t_min, t_max].

    The grid is log-spaced because the curvature of phi concentrates near
    zero and flattens at infinity. At every interior node the analytic
    second derivative must stay below tol and the chord gap
    phi(mid) - linear interpolant must stay above -tol (normalized by the
    local scale of phi).
    """
    if not (0.0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    if n_points < 3:
        raise ValueError("need at least 3 grid points")
    ts = np.geomspace(t_min, t_max, n_points)
    phi_vals, phi2_vals = _phi_on_grid(_log_values(x), ts)

    lo, mid, hi = ts[:-2], ts[1:-1], ts[2:]
    u = (mid - lo) / (hi - lo)
    chord = (1.0 - u) * phi_vals[:-2] + u * phi_vals[2:]
    scale = np.maximum(1.0, np.maximum(np.abs(phi_vals[:-2]),
                                       np.maximum(np.abs(phi_vals[1:-1]),
                                                  np.abs(phi_vals[2:]))))
    gaps = (phi_vals[1:-1] - chord) / scale

    min_gap = float(gaps.min())
    max_phi2 = float(phi2_vals.max())
    concave = min_gap >= -tol and max_phi2 <= tol
    witness = None
    if not concave:
        if max_phi2 > tol:
            k = int(np.argmax(phi2_vals))
            k = min(max(k, 1), n_points - 2)
        else:
            k = int(np.argmin(gaps)) + 1
        witness = (float(ts[k - 1]), float(ts[k]), float(ts[k + 1]))
    return ConcavityReport(ts, phi_vals, min_gap, concave, witness, max_phi2)


def extended_phi(y, gamma: float, t: float) -> float:
    """log((t + gamma) * sum_n y_n**(t/gamma)) for positive y and t > -gamma."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not t > -gamma:
        raise DomainError(f"t must exceed -gamma = {-gamma}, got {t}")
    vals = np.asarray(y, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0 or np.any(vals <= 0.0):
        raise ValueError("y must be a non-empty sequence of positive reals")
    return math.log(t + gamma) + log_power_sum_of_logs(np.log(vals), t / gamma)


def counterexample_check(lam: float, gamma: float) -> CheckReport:
    """Concavity of extended phi fails for y = (lam, 1 + lam).

    Compares lhs = 4 gamma^2 (2 lam + 1) against
    rhs = 6 gamma^2 (lam^2 + (1 + lam)^2), the exponentiated comparison of
    extended phi at the points 0, gamma, 2 gamma; lhs < rhs reads
    "concavity violated". The report also carries the direct midpoint gap
    2 phi(gamma) - phi(0) - phi(2 gamma), which is negative exactly when
    the three-point concavity inequality fails.
    """
    for name, value in (("lam", lam), ("gamma", gamma)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")
    try:
        lhs = 4.0 * gamma**2 * (2.0 * lam + 1.0)
        rhs = 6.0 * gamma**2 * (lam**2 + (1.0 + lam) ** 2)
    except OverflowError:
        rhs = math.inf
    if math.isinf(rhs):  # lhs < rhs, so lhs is finite when rhs is
        raise DomainError(f"the comparison overflows at lam={lam}, gamma={gamma}")
    y = (lam, 1.0 + lam)
    midpoint_gap = (2.0 * extended_phi(y, gamma, gamma)
                    - extended_phi(y, gamma, 0.0)
                    - extended_phi(y, gamma, 2.0 * gamma))
    verdict = "violated" if lhs < rhs else "not-violated"
    return CheckReport("extended_phi_counterexample", lhs, rhs, rhs - lhs, verdict,
                       {"lam": lam, "gamma": gamma, "midpoint_gap": midpoint_gap})


def scan_symmetric_peaks(half_widths=(1, 2, 3), n_ratios: int = 60,
                         t_min: float = 0.05, t_max: float = 40.0,
                         n_points: int = 128) -> tuple[LatticePMF, float, float]:
    """Search symmetric log-affine peaks for a point where phi is convex.

    Candidates have weights proportional to mu**|n| for |n| <= k, which are
    log-concave and non-monotone; the scan returns the pmf, t, and phi''(t)
    of the largest curvature found. Half-width 1 (three atoms) can never
    produce a violation: with only two distinct log-masses the tilted
    variance satisfies t**2 Var <= max_s s**2 2 e**-s / (1 + 2 e**-s)**2,
    which stays below 0.77. From half-width 2 on, violations exist.
    """
    ts = np.geomspace(t_min, t_max, n_points)
    best_val = -math.inf
    best_pmf = None
    best_t = math.nan
    for k in half_widths:
        if k < 1:
            raise ValueError("half-width must be at least 1")
        abs_n = np.abs(np.arange(-k, k + 1))
        for mu in np.linspace(0.01, 0.9, n_ratios):
            pmf = normalize(mu ** abs_n.astype(np.float64), -k)
            _, phi2_vals = _phi_on_grid(_log_values(pmf), ts)
            j = int(np.argmax(phi2_vals))
            if phi2_vals[j] > best_val:
                best_val = float(phi2_vals[j])
                best_pmf = pmf
                best_t = float(ts[j])
    return best_pmf, best_t, best_val
