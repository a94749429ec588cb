"""Power sums, the Renyi entropy family and varentropy of finite-support
pmfs.

All entropies are in nats. Each function takes a LatticePMF or a
Subject, and reads the subject's mass table, one entry per distinct mass,
so a subject's masses are logged once, each sum weights an entry by the
number of atoms at its mass, and each power-sum order is summed once. The
closed forms of the geometric and symmetric geometric families are
methods of lattice.LawKind.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import as_subject, check_order
# the blocked sums live in pairwise, which lattice reads too; entropy keeps
# their names for its callers
from .pairwise import _LEAF, pairwise_sum  # noqa: F401

INF = math.inf


def log_power_sum_of_logs(logs: np.ndarray, t: float, counts=None) -> float:
    """log(sum_j m_j exp(t logs_j)), with m_j = counts[j] (1 when counts is
    None), for logs in any order. The sum is anchored at the largest
    product t logs_j, which one max (a min at t < 0) finds; each block of
    products, their shift, exponentials and weights is formed in place
    (pairwise_sum).

    A product t logs_j below the float range is -inf, its limit; when
    every product is, so is the log of the sum."""

    def terms(lo, hi, out):
        np.multiply(t, logs[lo:hi], out=out)
        out -= top
        np.exp(out, out=out)
        if counts is not None:
            out *= counts[lo:hi]
        return out

    top = t * float(logs.max() if t >= 0.0 else logs.min())
    if top == -INF:
        return top
    with np.errstate(over="ignore"):
        return top + math.log(pairwise_sum(logs.size, terms))


def power_sum(x, t: float) -> float:
    """S_t = sum_i x_i**t over the support, t > 0."""
    return math.exp(log_power_sum(x, t))


def log_power_sum(x, t: float) -> float:
    """log S_t, evaluated once per order t for as long as the subject lives."""
    if not t > 0.0:
        raise ValueError(f"power-sum exponent must be positive, got {t}")
    s = as_subject(x)

    def compute():
        table = s.mass_table
        return log_power_sum_of_logs(table.logs, t, table.counts)

    return s.fact(("log_power_sum", t), compute)


def shannon(x) -> float:
    """H(X) = -sum_j m_j v_j log v_j over the distinct masses v_j, each held
    by m_j atoms; evaluated once per subject."""
    s = as_subject(x)

    def compute():
        p, logs = s.mass_table.probabilities, s.mass_table.logs
        return -pairwise_sum(logs.size, lambda lo, hi, out: np.multiply(
            p[lo:hi], logs[lo:hi], out=out))

    return s.fact("shannon", compute)


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
    """Variance of the information content -log x_I, I ~ x, in two passes
    over the mass table: the mean of the depths d_j = log v_j - log v_0
    below the largest mass, then the sum of the squared deviations from
    it, weighted by m_j v_j. Every term is non-negative, and a law of one
    distinct mass, whose depths are all 0, reads 0 exactly."""
    table = as_subject(x).mass_table
    p, logs = table.probabilities, table.logs
    top = float(logs[0])

    def weighted_depths(lo, hi, out):
        np.subtract(logs[lo:hi], top, out=out)
        return np.multiply(p[lo:hi], out, out=out)

    mean = pairwise_sum(logs.size, weighted_depths)

    def squared_deviations(lo, hi, out):
        np.subtract(logs[lo:hi], top, out=out)
        out -= mean
        np.square(out, out=out)
        return np.multiply(p[lo:hi], out, out=out)

    return pairwise_sum(logs.size, squared_deviations)
