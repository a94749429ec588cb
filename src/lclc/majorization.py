"""Level-count step functions, crossing structure against geometric
comparators, the layer-cake identity, half-line folding of symmetric pmfs,
and convex-order verification through hinge functions.

The level-count function F_x(t) = #{i : x_i > t} of a probability sequence
is itself a probability density on (0, inf); for a monotone log-concave
x and a geometric comparator z the two step functions cross exactly
twice, which is what drives the power-sum comparisons. Every integral
here is evaluated segment-analytically, never by quadrature. The checks
take a LatticePMF or a Subject, whose cached facts they read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import power_sum
from .errors import MeanMismatchError, NoCrossingError
from .lattice import (
    INTEGER_SYMMETRIC,
    MONOTONE,
    Direction,
    as_subject,
    level_steps,
)
from .report import CheckReport, from_margin

HINGE_TOL = 1e-10
MEAN_TOL = 1e-10
_CROSSING_BLOCK = 1 << 16  # thresholds per block of crossing_verify
_CAKE_BLOCK = 7_936  # pieces per block of cake_layer_check: 62 KiB buffers


@dataclass(frozen=True, eq=False)
class LevelCount:
    """The right-continuous step function F(t) = #{i : x_i > t}.

    breakpoints holds the distinct positive values in increasing order;
    counts has one more entry than breakpoints, with counts[j] the value of
    F on [breakpoints[j-1], breakpoints[j]) (breakpoint -1 read as 0), so
    counts starts at the support size and ends at 0.
    """

    breakpoints: np.ndarray
    counts: np.ndarray

    def __call__(self, t):
        """F at a scalar threshold or elementwise over an array of them."""
        idx = np.searchsorted(self.breakpoints, t, side="right")
        return self.counts[idx]

    def segments(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The pieces covering (0, max value): edges e_0 = 0 < ... < e_K
        and the count c_k > 0 of F on [e_k, e_{k+1}). With lo and hi, only
        the pieces lo, ..., hi - 1: the edges e_lo, ..., e_hi and their
        counts. The edges are a fresh array when lo is 0, else a view of
        the breakpoints."""
        hi = self.counts.size - 1 if hi is None else min(hi, self.counts.size - 1)
        c = self.counts[lo:hi]
        if lo:
            return self.breakpoints[lo - 1:hi], c
        return np.concatenate(([0.0], self.breakpoints[:hi])), c

    def _pieces(self):
        """segments() and the tail masses G_k = int_{e_k}^inf F, G_K = 0."""
        edges, c = self.segments()
        return edges, c, _suffix_sum(c * (edges[1:] - edges[:-1]))

    def mass(self) -> float:
        """Total integral of F; equals 1 when built from a probability pmf."""
        return float(self._pieces()[2][0])

    def mean(self) -> float:
        """Mean of the density F: integral of t F(t) dt, that of power(1)."""
        return self.power(1.0).mean()

    def hinge_expectation(self, t):
        """E[(U - t)+] for U distributed with density F, at a scalar t or
        elementwise over an array of them: the values of power(1)."""
        return self.power(1.0).hinge_expectation(t)

    def power(self, p: float) -> "PowerDensity":
        return PowerDensity(self, p)


@dataclass(frozen=True, eq=False)
class PowerDensity:
    """Density of U**p where U is drawn from a step density.

    Represented as the base step density plus the exponent; hinge
    expectations are integrated exactly in the base variable, from suffix
    sums over the pieces of the base and a closed-form power integral for
    the piece a hinge falls in.
    """

    base: LevelCount
    exponent: float

    def __post_init__(self):
        if not self.exponent > 0.0:
            raise ValueError(f"power exponent must be positive, got {self.exponent}")

    @property
    def breakpoints(self) -> np.ndarray:
        return self.base.breakpoints ** self.exponent

    def mass(self) -> float:
        return self.base.mass()

    def _hinge_table(self):
        """Base edges e_k, counts c_k and tail masses G_k, the knots
        tau_k = e_k**p, and H_k = E[(U**p - tau_k)+] with H_K = 0."""
        p = self.exponent
        edges, c, tail = self.base._pieces()
        knots = edges ** p
        pieces = _power_piece(c, edges[1:], edges[:-1], knots[:-1], p)
        pieces += (knots[1:] - knots[:-1]) * tail[1:]
        return edges, c, tail, knots, _suffix_sum(pieces)

    def mean(self) -> float:
        """E[U**p]."""
        return float(self._hinge_table()[4][0])

    def hinge_expectation(self, t):
        """E[(U**p - t)+] at a scalar t or elementwise over an array.

        Scalar and array t take the same elementwise path, so a scalar result
        equals the array element bitwise. t <= 0 gives mean - t * mass and
        t >= tau_K gives 0; a NaN t gives NaN. Between, the value is the
        table entry at the knot above t plus the piece holding t**(1/p),
        integrated in closed form.
        """
        p = self.exponent
        edges, c, tail, knots, hinge = self._hinge_table()
        t = np.asarray(t, dtype=np.float64)
        flat = t.reshape(-1)
        # the piece formula is evaluated at t clamped into [0, tau_K]; the
        # regions outside take their own closed forms below
        inner = np.clip(flat, 0.0, knots[-1])
        k = np.minimum(np.searchsorted(knots, inner, side="right"), knots.size - 1) - 1
        inside = (hinge[k + 1] + (knots[k + 1] - inner) * tail[k + 1]
                  + _power_piece(c[k], edges[k + 1], inner ** (1.0 / p), inner, p))
        values = np.where(flat <= 0.0, hinge[0] - flat * tail[0],
                          np.where(flat >= knots[-1], 0.0, inside))
        return values.reshape(t.shape)[()]


def _suffix_sum(terms: np.ndarray) -> np.ndarray:
    """s_k = sum of terms[j] over j >= k, with a trailing s_K = 0."""
    return np.append(np.cumsum(terms[::-1])[::-1], 0.0)


def _power_piece(c, hi, cut, t, p: float):
    """c * int_cut^hi (u**p - t) du for t = cut**p, in closed form.

    At p = 1 it is c r**2 / 2 with r = hi - cut, whose terms are all
    non-negative; the general form cancels catastrophically near the top.
    """
    if p == 1.0:
        r = hi - cut
        return c * r * r / 2.0
    return c * ((hi ** (p + 1.0) - cut ** (p + 1.0)) / (p + 1.0) - t * (hi - cut))


def level_count(x) -> LevelCount:
    """Step function F_x of the positive masses of a pmf or a subject, read
    off the subject's cached level steps."""
    return LevelCount(*as_subject(x).levels)


def power_transform_density(d: LevelCount, p: float) -> PowerDensity:
    """Density descriptor of U**p for U drawn from the step density d."""
    return d.power(p)


# ---------------------------------------------------------------------------
# Crossing structure against geometric comparators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricSequence:
    """z_k = coeff * ratio**k on k = 0, 1, ...; need not sum to one."""

    coeff: float
    ratio: float

    def __post_init__(self):
        if not self.coeff > 0.0:
            raise ValueError(f"coeff must be positive, got {self.coeff}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")

    def value(self, k):
        """z_k for a scalar or an array k.

        Both go through one elementwise power over a 1-D array, so value(k)
        equals value(ks)[i] bitwise wherever ks[i] == k; a 0-d power would
        take numpy's squaring shortcut at k = 2 and differ by an ulp.
        """
        k = np.asarray(k, dtype=np.float64)
        z = self.coeff * np.power(self.ratio, k.reshape(-1))
        return z.reshape(k.shape)[()]

    def level_count(self, t):
        """#{k >= 0 : z_k > t} for a scalar or an array of thresholds t,
        exact with respect to the float values z_k.

        A log estimate is settled by stepping each threshold's count until
        z_m <= t < z_{m-1}, so memory stays proportional to the number of
        thresholds however large the counts are.
        """
        t = np.asarray(t, dtype=np.float64)
        if not np.all(t > 0.0):
            raise ValueError("level counts of a geometric sequence are "
                             "infinite at non-positive thresholds")
        flat = t.reshape(-1)
        # candidate from logs (clamped to 0 for t >= coeff), then settle
        # boundary rounding; each pass only revisits the unsettled entries
        est = np.floor((np.log(flat) - math.log(self.coeff)) / math.log(self.ratio))
        m = np.maximum(est, 0.0).astype(np.int64)
        todo = np.arange(flat.size)
        while todo.size:  # step up while z_m > t
            todo = todo[self.value(m[todo]) > flat[todo]]
            m[todo] += 1
        todo = np.flatnonzero(m > 0)
        while todo.size:  # step down while z_{m-1} <= t
            todo = todo[self.value(m[todo] - 1) <= flat[todo]]
            m[todo] -= 1
            todo = todo[m[todo] > 0]
        return int(m[0]) if t.ndim == 0 else m.reshape(t.shape)


@dataclass(frozen=True)
class CrossingResult:
    """Crossing set [a, b] of {k : x_k >= z_k} and the interval [lo, hi) =
    [z_b, x_a) of thresholds on which F_z sits below F_x.

    Indices count from the mode: from the start of the pmf's stored
    support when x is non-increasing, from its end when x is increasing.
    """

    first_index: int
    last_index: int
    lo: float
    hi: float


def crossing_interval(x, z: GeometricSequence) -> CrossingResult:
    """Locate the threshold interval on which F_z sits below F_x.

    With x read from its mode (an increasing x reversed, which leaves F_x
    unchanged), a = min{k : x_k >= z_k} and b = max{k : x_k >= z_k}, the
    interval is [z_b, x_a); F_z <= F_x on it and F_z >= F_x off it. The
    two-crossing guarantee presumes x is log-concave as well as monotone;
    only monotonicity is enforced here. Raises NoCrossingError when the
    comparator dominates x everywhere.
    """
    s = as_subject(x).require(MONOTONE)
    w = s.pmf.weights
    if s.direction is Direction.INCREASING:
        w = w[::-1]
    zv = _stored_values(s, z)[:7:-1]  # z_0, ..., z_{n-1}
    above = np.flatnonzero(w >= zv)
    if above.size == 0:
        raise NoCrossingError("x is everywhere below the comparator")
    a, b = int(above[0]), int(above[-1])
    return CrossingResult(a, b, float(zv[b]), float(w[a]))


def _stored_values(s, z: GeometricSequence) -> np.ndarray:
    """The comparator values z_k at k = n + 7, ..., 1, 0 for a subject of n
    atoms, so ascending: computed once per subject and comparator, for
    crossing_interval to read a and b off and crossing_verify to take as its
    thresholds."""
    n = len(s.pmf)
    return s.fact(("stored_values", z), lambda: z.value(np.arange(n + 7, -1, -1)))


def _worst_of(ts, fz, fx, lo: float, hi: float):
    """(slack, t, F_z, F_x) at the first worst slack over ascending ts, on
    which the thresholds inside [lo, hi) are one slice."""
    slack = fz - fx
    inside = slice(*np.searchsorted(ts, (lo, hi)))
    np.negative(slack[inside], out=slack[inside])
    j = int(np.argmin(slack))
    return int(slack[j]), float(ts[j]), int(fz[j]), int(fx[j])


def _is_member(sorted_values: np.ndarray, ts):
    """Whether each t is one of the ascending sorted_values."""
    k = np.searchsorted(sorted_values, ts, side="right")
    return (k > 0) & (sorted_values[k - 1] == ts)


def crossing_verify(x, z: GeometricSequence) -> CheckReport:
    """Confirm the two-crossing sign pattern of F_z against F_x.

    Both step functions are probed at every breakpoint of either function
    (comparator values down to below the interval's lower edge) and at the
    interval's edges: each piece once, at its left end. Each side is read at
    its own breakpoints, so the union of the thresholds is never built:
    - at a breakpoint of x, F_x is the level count's next step, and F_z the
      number of stored comparator values above it;
    - at a stored comparator value, F_z is the number of stored values past
      its run of equal values, and F_x a lookup into x's breakpoints.
    The float values z_k do not increase with k, as the settle loop presumes
    too, so no unstored value lies above the last stored one and these
    counts are exact with respect to the float values z_k; only the edges
    and the breakpoints below the last stored value go through the settle
    loop of GeometricSequence.level_count. Thresholds are taken in blocks of
    _CROSSING_BLOCK. The margin is the worst signed slack in level counts,
    the first in ascending t. thresholds is the number of distinct probes:
    those of both sides, less the equal values the lookups find. A failure
    indicates a library defect rather than a mathematical one.
    """
    s = as_subject(x)
    result = crossing_interval(s, z)
    lo, hi = result.lo, result.hi
    w = s.pmf.weights
    f_x = level_count(s)
    breakpoints, counts = f_x.breakpoints, f_x.counts

    # a monotone trimmed pmf has no zero mass; the comparator's thresholds
    # are its stored values from lowest up, rising[first:]
    lowest = max(min(float(w.min()), lo) / 4.0, 1e-300)
    rising = _stored_values(s, z)
    n_stored = rising.size
    first = int(np.searchsorted(rising, lowest))

    candidates = []
    shared = 0  # breakpoints of x that are comparator thresholds too
    for i in range(0, breakpoints.size, _CROSSING_BLOCK):
        ts = breakpoints[i:i + _CROSSING_BLOCK]
        ends = np.searchsorted(rising, ts, side="right")
        shared += int(np.count_nonzero((ends > first) & (rising[ends - 1] == ts)))
        fz = n_stored - ends
        low = int(np.searchsorted(ts, rising[0]))
        if low:
            fz[:low] = z.level_count(ts[:low])
        candidates.append(_worst_of(ts, fz, counts[i + 1:i + 1 + ts.size], lo, hi))

    distinct = 0  # a run of equal stored values is one threshold
    for i in range(first, n_stored, _CROSSING_BLOCK):
        ts = rising[i:i + _CROSSING_BLOCK]
        fz = np.arange(n_stored - 1 - i, n_stored - 1 - i - ts.size, -1)
        after = rising[i + 1:i + 1 + ts.size]
        tied = np.flatnonzero(ts[:after.size] == after)
        fz[tied] = n_stored - np.searchsorted(rising, ts[tied], side="right")
        distinct += ts.size - tied.size
        fx = counts[np.searchsorted(breakpoints, ts, side="right")]
        candidates.append(_worst_of(ts, fz, fx, lo, hi))

    # hi is a mass of x and lo <= hi a comparator value, no threshold once
    # it underflowed to 0; each may already be a threshold of either side
    edges = np.array([lo, hi] if 0.0 < lo < hi else [hi])
    fx = counts[np.searchsorted(breakpoints, edges, side="right")]
    candidates.append(_worst_of(edges, z.level_count(edges), fx, lo, hi))
    known = _is_member(breakpoints, edges) | _is_member(rising[first:], edges)
    thresholds = breakpoints.size + distinct - shared + int(np.count_nonzero(~known))

    slack, worst_t, fz, fx = min(candidates)
    params = {"a": result.first_index, "b": result.last_index,
              "interval_lo": lo, "interval_hi": hi,
              "thresholds": thresholds, "worst_t": worst_t}
    return from_margin("crossing_pattern", fz, fx, slack, 0.0, params)


# ---------------------------------------------------------------------------
# Layer cake, symmetric folding, convex order.
# ---------------------------------------------------------------------------

def cake_layer_check(x, t: float) -> CheckReport:
    """Layer-cake identity: sum_i x_i**t = t * int_0^inf s**(t-1) F_x(s) ds.

    The right side is summed in closed form over the step segments, so the
    reported margin is pure rounding. Requires t >= 1. The pieces are
    formed in blocks of _CAKE_BLOCK, in two buffers allocated once per call.
    """
    if not t >= 1.0:
        raise ValueError(f"layer-cake check requires t >= 1, got {t}")
    s = as_subject(x)
    lhs = power_sum(s, t)
    f = level_count(s)
    n_pieces = f.counts.size - 1
    size = min(_CAKE_BLOCK, n_pieces)
    knots, pieces = np.empty(size + 1), np.empty(size)
    # a running sum adds the pieces left to right, in the order of a loop;
    # each block's first piece takes the sum so far, so the bits are those
    # of one running sum over all the pieces
    rhs = 0.0
    for lo in range(0, n_pieces, size):
        edges, c = f.segments(lo, lo + size)
        e, p = knots[:edges.size], pieces[:c.size]
        e[:] = edges
        e **= t
        np.subtract(e[1:], e[:-1], out=p)
        p *= c
        p[0] += rhs
        rhs = float(np.cumsum(p, out=p)[-1])
    err = abs(lhs - rhs)
    tol = 1e-12 * max(1.0, lhs)
    return from_margin("cake_layer", lhs, rhs, tol - err, 0.0,
                       {"t": t, "abs_error": err})


@dataclass(frozen=True, eq=False)
class SymmetricFold:
    """F of a symmetric pmf and of its half-line restriction.

    For x symmetric about an integer, folding to x* = (x_i)_{i >= center}
    halves every level pair except the center atom, so
    F_x(t) = 2 F_{x*}(t) - 1 holds for every t below the center mass.
    """

    full: LevelCount
    half: LevelCount
    center_mass: float
    max_violation: int


def fold_symmetric(x) -> SymmetricFold:
    """Fold an integer-symmetric pmf onto the half line and verify the
    identity relating the two level counts below the central mass. Each
    piece of the two step functions is probed once, at its left end."""
    s = as_subject(x).require(INTEGER_SYMMETRIC)
    w = s.pmf.weights
    center_idx = (len(w) - 1) // 2
    center_mass = float(w[center_idx])
    full = level_count(s)
    half = LevelCount(*level_steps(w[center_idx:]))

    # 0 stands for the piece below the smallest mass
    ts = np.concatenate(([0.0], level_steps(np.concatenate(
        (full.breakpoints, half.breakpoints)))[0]))
    ts = ts[:np.searchsorted(ts, center_mass)]
    gaps = np.abs(full(ts) - (2 * half(ts) - 1))
    return SymmetricFold(full, half, center_mass, int(np.max(gaps, initial=0)))


def _default_hinge_grid(u, v) -> np.ndarray:
    # hinge functions are not constant between breakpoints: add midpoints.
    # Each merge is of two sorted runs, and level_steps keeps the positive
    # values: a breakpoint whose power underflowed to 0 goes back in
    both = np.concatenate((u.breakpoints, v.breakpoints))
    points, above = level_steps(both)
    if above[0] < both.size:
        points = np.concatenate(([0.0], points))
    midpoints = (points[:-1] + points[1:]) / 2.0
    return np.concatenate(([0.0], level_steps(np.concatenate((points, midpoints)))[0]))


def convex_order_check(u_density, v_density) -> CheckReport:
    """Hinge-function certificate that v_density majorizes u_density.

    Both arguments are step or power densities with equal means (within
    MEAN_TOL, else MeanMismatchError). The verdict is pass iff
    E[(V - t)+] >= E[(U - t)+] - HINGE_TOL at every hinge point t; by the
    hinge characterization of the convex order (dominance at the kinks plus
    convexity between them) this certifies E[w(V)] >= E[w(U)] for convex w.
    The hinge grid is the union of both breakpoint sets, the midpoints of
    consecutive points, and zero. Each density is evaluated once over the
    whole grid.
    """
    mu_u, mu_v = u_density.mean(), v_density.mean()
    if abs(mu_u - mu_v) > MEAN_TOL * max(1.0, abs(mu_u)):
        raise MeanMismatchError(
            f"means differ: {mu_u} vs {mu_v} (tolerance {MEAN_TOL})")
    ts = _default_hinge_grid(u_density, v_density)
    ev = v_density.hinge_expectation(ts)
    eu = u_density.hinge_expectation(ts)
    gap = ev - eu
    j = int(np.argmin(gap))  # first occurrence of the worst gap
    return from_margin("convex_order", ev[j], eu[j], gap[j], HINGE_TOL,
                       {"hinges": int(ts.size), "worst_t": float(ts[j]),
                        "mean": mu_u})
