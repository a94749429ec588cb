"""The functional phi_x(t) = log(t * sum_i x_i**t) and its curvature.

For monotone log-concave probability sequences phi_x is concave on
(0, inf); check_concavity verifies this numerically on a grid using both
analytic second derivatives and normalized second differences. The module
also evaluates the two-parameter extension
phi_y(t) = log((t + gamma) * sum_n y_n**(t/gamma)) and exhibits parameter
values where its concavity fails (counterexample_check).
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import log_power_sum_of_logs
from .errors import DomainError
from .lattice import as_subject
from .report import CheckReport, from_margin

DEFAULT_T_MIN = 0.05
DEFAULT_T_MAX = 40.0
DEFAULT_N_POINTS = 256
CONCAVITY_TOL = 1e-9
_BLOCK_ELEMENTS = 1 << 16  # grid rows x atoms (or bins) per block of _phi_on_grid
_TAYLOR_TERMS = 24  # K: terms of exp(t d) per bin; the tail is 2**25 / 25! < 3e-18 of it
_BIN_RHO = 2.0  # t * bin width on the binned path
_BINNED_T_MAX = 64.0  # rows above it take the direct kernel
_BINNED_MIN_ATOMS = 2_000  # supports below it take the direct kernel
_TABLE_ATOMS = 1 << 16  # atoms per chunk of a moment table's bincounts
_STRIPES = 4  # partial sums per bin in a chunk of a moment table
_FINEST_LEVEL = math.frexp(_BIN_RHO / _BINNED_T_MAX)[1] - 1  # width 2**-5


def _on_grid(x, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_phi_on_grid of a pmf or a subject, over the logs and counts of its
    mass table."""
    table = as_subject(x).mass_table
    return _phi_on_grid(table.logs, ts, table.counts)


def phi(x, t):
    """phi_x(t) = log t + log sum_i x_i**t for t > 0; over a 1-D array of
    such t, the array of values.

    Accepts a LatticePMF or a Subject; a pmf built with unnormalized
    weights gives phi_{c x}(t) = phi_x(t) + t log c.
    """
    return _grid_row(x, t, 0)


def phi_second_derivative(x, t):
    """phi_x''(t), evaluated through the tilted log-mass variance; over a
    1-D array of t, the array of values.

    Writing w_i(t) for the tilt of x by t, phi''(t) equals
    Var_{w(t)}(log x) - 1/t**2, which is the standard ratio-of-sums
    expression rearranged into a numerically stable two-pass form.
    """
    return _grid_row(x, t, 1)


def _grid_row(x, t, row: int):
    """Row 0 (phi) or 1 (phi'') of _phi_on_grid: a float at a scalar t, an
    array over an array of t, whose entries have the scalar's bits."""
    values = _on_grid(x, np.array(t, dtype=np.float64, ndmin=1))[row]
    return values if np.ndim(t) else float(values[0])


def _phi_on_grid(logs: np.ndarray, ts: np.ndarray,
                 counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(phi, phi'') at each exponent t > 0 in ts, from the log-masses logs,
    the j-th held by counts[j] atoms (one each when counts is None).

    Each row takes one of two paths, chosen from logs and its own t only
    (_bin_levels), and each path's table depends on logs alone, so a row's
    bits do not depend on the rows evaluated with it:
    - the binned path (_binned_rows), on supports of at least
      _BINNED_MIN_ATOMS log-masses at t <= _BINNED_T_MAX, reads a table of
      moments of the log-masses over bins of width 2**j, the widest with
      t 2**j <= _BIN_RHO: O(bins) exponentials per row instead of O(n).
      One base table (_moment_table) is built at the finest width whose
      bins times _TAYLOR_TERMS are fewer than the atoms, and each wider
      one merges pairs of bins of the last (_merge_pairs);
    - every other row, including one narrower than the base table, takes
      the direct kernel (_direct_rows), which exponentiates every atom.

    Both paths measure the log-masses from their largest, max log x, and
    return log S, S = sum_i exp(t (log x_i - max log x)), and the tilted
    variance; phi = log t + t max log x + log S is formed once, here.
    A product below the float range is -inf, its limit, so a row whose
    t max log x is -inf reads phi = -inf from this anchor alone; its atoms
    below the largest then lie so deep that exp(t (log x_i - max log x))
    is 0, so its tilted variance is 0: the limits as t grows. A t whose
    square underflows has phi'' = -inf, its limit as t -> 0."""
    if not np.all(ts > 0.0):
        raise ValueError(f"t must be positive, got {ts.min()}")
    lmax = logs.max()
    depths = logs - lmax
    log_s, var = np.empty(ts.size), np.empty(ts.size)
    with np.errstate(over="ignore", divide="ignore"):
        levels, base = _bin_levels(depths, ts)
        direct = levels < base
        if direct.any():
            log_s[direct], var[direct] = _direct_rows(depths, ts[direct], counts)
        if not direct.all():
            table = _moment_table(depths, base, counts)
            for j in range(base, levels.max() + 1):
                if j > base:
                    table = _merge_pairs(table, math.ldexp(1.0, j - 1))
                rows = levels == j
                if rows.any():
                    log_s[rows], var[rows] = _binned_rows(table, j, ts[rows])
        return np.log(ts) + ts * lmax + log_s, var - 1.0 / ts**2


def _direct_rows(depths: np.ndarray, ts: np.ndarray,
                 counts: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(log S, tilted variance) at each t in ts, exponentiating every
    log-mass's depth log x_i - max log x <= 0 and weighting it by its count.

    The grid is walked in blocks of rows of about _BLOCK_ELEMENTS entries.
    Every step of a block runs in place in one workspace of two such blocks,
    allocated once per call and small enough to stay in cache, so memory
    stays bounded and no step maps fresh pages. A row's steps and its
    reductions do not depend on the block height, so neither do its bits."""
    log_s, var = np.empty(ts.size), np.empty(ts.size)
    height = max(1, min(ts.size, _BLOCK_ELEMENTS // depths.size))
    work = np.empty((2, height, depths.size))
    for i in range(0, ts.size, height):
        rows = slice(i, i + height)
        t = ts[rows]
        w, u = work[:, :t.size]
        np.multiply(t[:, None], depths, out=w)
        np.exp(w, out=w)
        if counts is not None:
            w *= counts
        totals = w.sum(axis=1, keepdims=True)
        log_s[rows] = np.log(totals[:, 0])
        w /= totals
        # row sums, not w @ logs or einsum: those pick their kernel by the
        # block's shape, so a row's bits would depend on the block height
        means = np.multiply(w, depths, out=u).sum(axis=1, keepdims=True)
        np.subtract(depths, means, out=u)
        np.square(u, out=u)
        var[rows] = np.multiply(w, u, out=u).sum(axis=1)
    return log_s, var


def _n_bins(span: float, j: int) -> int:
    """Bins of width 2**j below max log x that cover a log-mass span."""
    return int(math.ldexp(span, -j)) + 1


def _bin_levels(depths: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, int]:
    """(levels, base) for the depths log x_i - max log x: row i reads the
    moment table of width 2**levels[i] iff levels[i] >= base, and takes the
    direct kernel otherwise.

    A row's level is the largest j with t 2**j <= _BIN_RHO, capped at the
    level where one bin covers every log-mass; rows above _BINNED_T_MAX
    fall below _FINEST_LEVEL. base is the finest level from _FINEST_LEVEL up whose
    bins times _TAYLOR_TERMS are fewer than the log-masses (a mass table's
    entries, whatever their counts, since each costs one term per row); on
    fewer than _BINNED_MIN_ATOMS log-masses, or of no such level, it lies
    above every level."""
    span = float(-depths.min())
    top = max(math.frexp(span)[1], _FINEST_LEVEL)  # 2**top > span: one bin
    base = top + 1
    if depths.size >= _BINNED_MIN_ATOMS:
        base = next((j for j in range(_FINEST_LEVEL, top + 1)
                     if _n_bins(span, j) * _TAYLOR_TERMS < depths.size), base)
    levels = np.frexp(np.minimum(_BIN_RHO / ts, math.ldexp(1.0, top)))[1] - 1
    return levels, base


def _moment_table(depths: np.ndarray, j: int, counts: np.ndarray | None) -> np.ndarray:
    """M[k, b] = sum of m d**k over the log-masses of bin b at width
    w = 2**j, each held by m atoms (its count, or 1), for
    k <= _TAYLOR_TERMS + 2.

    An atom at depth e = max log x - log x_i >= 0 falls in bin
    b = floor(e / w), whose anchor lies at depth (b + 1) w, and sits
    d = (b + 1) w - e in (0, w] above it. d is exact unless b = 0 and
    e < w / 2 (Sterbenz), where it is off by at most w 2**-54, and every
    entry is a sum of non-negative terms. The atoms are taken in chunks of
    _TABLE_ATOMS, so the temporaries stay bounded, and within a chunk in
    turn into _STRIPES partial sums per bin, added at the end of the
    chunk: no partial sum adds more than 1/_STRIPES of a bin's atoms in
    sequence, and consecutive atoms of sorted log-masses do not wait on
    one another."""
    w = math.ldexp(1.0, j)
    bins = _n_bins(float(-depths.min()), j)
    table = np.zeros((_TAYLOR_TERMS + 3, bins))
    stripes = np.arange(min(depths.size, _TABLE_ATOMS)) % _STRIPES
    for i in range(0, depths.size, _TABLE_ATOMS):
        e = -depths[i:i + _TABLE_ATOMS]
        b = np.floor(e / w)
        d = (b + 1.0) * w - e
        slots = b.astype(np.intp) * _STRIPES + stripes[:e.size]
        power = np.ones_like(d) if counts is None else counts[i:i + _TABLE_ATOMS].copy()
        for row in table:
            partial = np.bincount(slots, weights=power, minlength=bins * _STRIPES)
            row += partial.reshape(bins, _STRIPES).sum(axis=1)
            power *= d
    return table


def _merge_pairs(table: np.ndarray, w: float) -> np.ndarray:
    """The moment table at width 2 w from the table at width w: bin b of the
    new table joins bins 2b and 2b + 1 and is anchored at the anchor of
    2b + 1, which bin 2b's lies w above, so
    M'_k = M_k(2b + 1) + sum_i C(k, i) w**(k-i) M_i(2b), all terms >= 0.

    The binomial sums are Pascal's rule applied in place to M_i(2b) / w**i,
    one stage per moment; scaling by a power of two is exact."""
    if table.shape[1] % 2:
        table = np.concatenate((table, np.zeros((table.shape[0], 1))), axis=1)
    scale = w ** np.arange(table.shape[0])[:, None]
    shifted = table[:, 0::2] / scale
    for k in range(1, table.shape[0]):
        shifted[k:] += shifted[k - 1:-1]
    return table[:, 1::2] + shifted * scale


def _binned_rows(table: np.ndarray, j: int, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log S, tilted variance) at each t in ts from the moment table at width
    w = 2**j, where t w <= _BIN_RHO.

    With o_b = -(b + 1) w the exact offset of bin b's anchor from max log x,
    A_r(b) = sum over the bin of exp(t d) d**r = sum_k t**k / k! M_{k+r}(b)
    by Horner, truncated after _TAYLOR_TERMS terms. Then the tilted sum is
    S = sum_b exp(t o_b) A_0(b), the tilted mean of the log-masses less
    max log x is mu = sum_b exp(t o_b) (o_b A_0 + A_1) / S, and the tilted
    variance is
    sum_b exp(t o_b) ((o_b - mu)**2 A_0 + 2 (o_b - mu) A_1 + A_2) / S.
    The three Horner arrays are walked in blocks of rows of about
    _BLOCK_ELEMENTS entries in all, and each row is reduced with a row sum,
    as in _direct_rows."""
    bins = table.shape[1]
    offsets = -math.ldexp(1.0, j) * np.arange(1.0, bins + 1.0)
    log_s, var = np.empty(ts.size), np.empty(ts.size)
    height = max(1, min(ts.size, _BLOCK_ELEMENTS // (3 * bins)))
    for i in range(0, ts.size, height):
        rows = slice(i, i + height)
        t = ts[rows, None]
        a = np.repeat(table[_TAYLOR_TERMS:, None, :], t.size, axis=1)
        for k in range(_TAYLOR_TERMS, 0, -1):
            a *= t / k
            a += table[k - 1:k + 2, None, :]
        tilt = np.multiply(t, offsets)
        a *= np.exp(tilt, out=tilt)
        a0, a1, a2 = a
        total = a0.sum(axis=1)
        log_s[rows] = np.log(total)
        mean = (a0 * offsets + a1).sum(axis=1) / total
        u = offsets - mean[:, None]
        var[rows] = ((u * a0 + 2.0 * a1) * u + a2).sum(axis=1) / total
    return log_s, var


def check_concavity(x) -> CheckReport:
    """Verify concavity of phi_x on DEFAULT_N_POINTS log-spaced points of
    [DEFAULT_T_MIN, DEFAULT_T_MAX].

    The grid is log-spaced because the curvature of phi concentrates near
    zero and flattens at infinity. lhs is the least chord gap
    phi(mid) - linear interpolant, normalized by the local scale of phi,
    and rhs the largest analytic second derivative; the margin is the
    smaller of lhs and -rhs, and concavity holds iff it is at least
    -CONCAVITY_TOL. witness is the t-triple around the worst violation
    when concavity fails, else None.
    """
    ts = np.geomspace(DEFAULT_T_MIN, DEFAULT_T_MAX, DEFAULT_N_POINTS)
    phi_vals, phi2_vals = _on_grid(x, ts)

    lo, mid, hi = ts[:-2], ts[1:-1], ts[2:]
    u = (mid - lo) / (hi - lo)
    chord = (1.0 - u) * phi_vals[:-2] + u * phi_vals[2:]
    scale = np.maximum(1.0, np.maximum(np.abs(phi_vals[:-2]),
                                       np.maximum(np.abs(phi_vals[1:-1]),
                                                  np.abs(phi_vals[2:]))))
    gaps = (phi_vals[1:-1] - chord) / scale

    min_gap = float(gaps.min())
    max_phi2 = float(phi2_vals.max())
    margin = min(min_gap, -max_phi2)
    witness = None
    if margin < -CONCAVITY_TOL:
        if max_phi2 > CONCAVITY_TOL:
            k = int(np.argmax(phi2_vals))
            k = min(max(k, 1), DEFAULT_N_POINTS - 2)
        else:
            k = int(np.argmin(gaps)) + 1
        witness = (float(ts[k - 1]), float(ts[k]), float(ts[k + 1]))
    return from_margin("phi_concavity", min_gap, max_phi2, margin, CONCAVITY_TOL,
                       {"t_min": float(ts[0]), "t_max": float(ts[-1]),
                        "n_points": DEFAULT_N_POINTS, "witness": witness})


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
