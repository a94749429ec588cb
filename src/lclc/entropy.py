"""Power sums, the Renyi entropy family, varentropy, and exponential tilting.

All entropies are in nats. Closed forms for the geometric and symmetric
geometric families sit alongside the generic finite-support evaluators so
truncated laws can be checked against exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLambdaError, BadOrdersError, OutOfSupportError
from .lattice import LatticePMF, normalize

INF = math.inf


@dataclass(frozen=True)
class InfoSummary:
    """Shannon entropy, min-entropy, and varentropy of one pmf (nats)."""

    shannon: float
    min_entropy: float
    varentropy: float


def _check_order(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 0.0:
        raise BadOrdersError(f"Renyi order must be >= 0, got {p}")
    return p


def log_power_sum_of_logs(log_w: np.ndarray, t: float) -> float:
    """log(sum_i w_i**t) from log-weights, max-shifted for stability.

    A product t * log w_i below the float range is -inf, its limit; when
    every product is, so is the log of the sum."""
    with np.errstate(over="ignore"):
        s = t * log_w
    m = float(s.max())
    if m == -INF:
        return m
    return m + math.log(float(np.exp(s - m).sum()))


def power_sum(x: LatticePMF, t: float) -> float:
    """S_t = sum_i x_i**t over the support, t > 0."""
    return math.exp(log_power_sum(x, t))


def log_power_sum(x: LatticePMF, t: float) -> float:
    if not t > 0.0:
        raise ValueError(f"power-sum exponent must be positive, got {t}")
    return log_power_sum_of_logs(np.log(x.positive_weights()), t)


def shannon(x: LatticePMF) -> float:
    """H(X) = -sum x_i log x_i; zero-mass terms contribute zero."""
    w = x.positive_weights()
    return float(-np.dot(w, np.log(w)))


def renyi(x: LatticePMF, p: float) -> float:
    """Renyi entropy H_p(X) with the limit cases p in {0, 1, inf}.

    p = 0 returns log(#support), the p -> 0+ limit for finite support;
    p = 1 is Shannon entropy; p = inf is -log(max mass), which is also the
    value at a finite order so large that the power sum underflows.
    """
    p = _check_order(p)
    if p == 0.0:
        return math.log(x.support_size)
    if p == 1.0:
        return shannon(x)
    log_sum = -INF if math.isinf(p) else log_power_sum(x, p)
    if log_sum == -INF:
        return -math.log(x.max_weight)
    return log_sum / (1.0 - p)


def varentropy(x: LatticePMF) -> float:
    """Variance of the information content -log x_I, I ~ x."""
    w = x.positive_weights()
    logs = np.log(w)
    mean = float(np.dot(w, logs))
    second = float(np.dot(w, logs * logs))
    return max(0.0, second - mean * mean)


def info_content(x: LatticePMF, i: int) -> float:
    """-log P(X = i); raises OutOfSupportError where the mass is zero."""
    mass = x.pmf(i)
    if mass <= 0.0:
        raise OutOfSupportError(f"index {i} carries no mass")
    return -math.log(mass)


def info_summary(x: LatticePMF) -> InfoSummary:
    return InfoSummary(shannon(x), renyi(x, INF), varentropy(x))


def tilt(x: LatticePMF, alpha: float) -> LatticePMF:
    """Exponential tilt: pmf proportional to x_i**alpha, alpha > 0."""
    if not alpha > 0.0:
        raise ValueError(f"tilt exponent must be positive, got {alpha}")
    logs = x.log_weights()
    s = alpha * logs
    m = float(s[np.isfinite(s)].max())
    with np.errstate(invalid="ignore"):
        w = np.exp(s - m)  # exp(-inf) = 0 keeps zero-mass indices at zero
    return normalize(w, x.offset)


# ---------------------------------------------------------------------------
# Closed forms for the parametric families.
# ---------------------------------------------------------------------------

def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise BadLambdaError(f"law parameter must lie in (0, 1), got {lam}")
    return lam


def log_power_sum_geometric(lam: float, p: float) -> float:
    """log sum_n ((1-lam) lam**n)**p = p log(1-lam) - log(1-lam**p)."""
    lam = _check_lambda(lam)
    # 1 - lam**p via expm1 keeps precision when lam**p is close to 1
    return p * math.log1p(-lam) - math.log(-math.expm1(p * math.log(lam)))


def power_sum_geometric(lam: float, p: float) -> float:
    return math.exp(log_power_sum_geometric(lam, p))


def log_power_sum_symmetric_geometric(lam: float, p: float) -> float:
    """log of sum_n (C lam**|n|)**p with C = (1-lam)/(1+lam)."""
    lam = _check_lambda(lam)
    lam_p = math.exp(p * math.log(lam))
    return (p * (math.log1p(-lam) - math.log1p(lam))
            + math.log1p(lam_p) - math.log(-math.expm1(p * math.log(lam))))


def power_sum_symmetric_geometric(lam: float, p: float) -> float:
    return math.exp(log_power_sum_symmetric_geometric(lam, p))


def renyi_geometric(lam: float, p: float) -> float:
    """H_p of the geometric law (1-lam) lam**n, including limit orders."""
    lam = _check_lambda(lam)
    p = _check_order(p)
    if p == 0.0:
        return INF  # support is infinite
    if math.isinf(p):
        return -math.log1p(-lam)
    if p == 1.0:
        return -math.log1p(-lam) - lam * math.log(lam) / (1.0 - lam)
    return log_power_sum_geometric(lam, p) / (1.0 - p)


def renyi_symmetric_geometric(lam: float, p: float) -> float:
    """H_p of the symmetric geometric law, including limit orders."""
    lam = _check_lambda(lam)
    p = _check_order(p)
    if p == 0.0:
        return INF
    log_c = math.log1p(-lam) - math.log1p(lam)
    if math.isinf(p):
        return -log_c
    if p == 1.0:
        # E|n| = 2 lam / ((1-lam)(1+lam))
        return -log_c - 2.0 * lam * math.log(lam) / ((1.0 - lam) * (1.0 + lam))
    return log_power_sum_symmetric_geometric(lam, p) / (1.0 - p)


def varentropy_geometric(lam: float) -> float:
    """V of the geometric law: log^2(lam) * Var(n) with Var(n) = lam/(1-lam)^2."""
    lam = _check_lambda(lam)
    return lam * math.log(lam) ** 2 / (1.0 - lam) ** 2


def varentropy_symmetric_geometric(lam: float) -> float:
    """V of the symmetric geometric law: log^2(lam) * Var(|n|).

    E|n| = 2 lam / ((1-lam)(1+lam)) and E n^2 = 2 lam / (1-lam)^2; both
    moments, and hence this closed form, are verified against direct
    summation in the test suite.
    """
    lam = _check_lambda(lam)
    e_abs = 2.0 * lam / ((1.0 - lam) * (1.0 + lam))
    e_sq = 2.0 * lam / (1.0 - lam) ** 2
    return math.log(lam) ** 2 * (e_sq - e_abs * e_abs)
