"""Power sums, the Renyi entropy family and varentropy of finite-support
pmfs.

All entropies are in nats. Each function takes a LatticePMF or a
Subject, and reads the subject's log-mass table, so a subject's masses are
logged once and each power-sum order is summed once. The closed forms of
the geometric and symmetric geometric families are methods of
lattice.LawKind.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import as_subject, check_order

INF = math.inf


def log_power_sum_of_logs(log_w: np.ndarray, t: float) -> float:
    """log(sum_i w_i**t) from log-weights, max-shifted for stability; the
    products t log w_i, their shift and exponentials are formed in place
    in one buffer.

    A product t * log w_i below the float range is -inf, its limit; when
    every product is, so is the log of the sum."""
    with np.errstate(over="ignore"):
        s = np.multiply(t, log_w)
    m = float(s.max())
    if m == -INF:
        return m
    np.subtract(s, m, out=s)
    return m + math.log(float(np.exp(s, out=s).sum()))


def power_sum(x, t: float) -> float:
    """S_t = sum_i x_i**t over the support, t > 0."""
    return math.exp(log_power_sum(x, t))


def log_power_sum(x, t: float) -> float:
    """log S_t, evaluated once per order t for as long as the subject lives."""
    if not t > 0.0:
        raise ValueError(f"power-sum exponent must be positive, got {t}")
    s = as_subject(x)
    return s.fact(("log_power_sum", t),
                  lambda: log_power_sum_of_logs(s.log_masses[1], t))


def shannon(x) -> float:
    """H(X) = -sum x_i log x_i; zero-mass terms contribute zero."""
    w, logs = as_subject(x).log_masses
    return float(-np.dot(w, logs))


def renyi(x, p: float) -> float:
    """Renyi entropy H_p(X) with the limit cases p in {0, 1, inf}.

    p = 0 returns log(#support), the p -> 0+ limit for finite support;
    p = 1 is Shannon entropy; p = inf is -log(max mass), which is also the
    value at a finite order so large that the power sum underflows.
    """
    p = check_order(p)
    s = as_subject(x)
    if p == 0.0:
        return math.log(s.pmf.support_size)
    if p == 1.0:
        return shannon(s)
    log_sum = -INF if math.isinf(p) else log_power_sum(s, p)
    if log_sum == -INF:
        return -math.log(s.pmf.max_weight)
    return log_sum / (1.0 - p)


def varentropy(x) -> float:
    """Variance of the information content -log x_I, I ~ x."""
    w, logs = as_subject(x).log_masses
    mean = float(np.dot(w, logs))
    second = float(np.dot(w, logs * logs))
    return max(0.0, second - mean * mean)
