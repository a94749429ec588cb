"""Power sums, the Renyi entropy family and varentropy of finite-support
pmfs.

All entropies are in nats. The closed forms of the geometric and symmetric
geometric families are methods of lattice.LawKind.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticePMF, check_order

INF = math.inf


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
    p = check_order(p)
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

