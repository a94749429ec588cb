"""Level-count step functions, crossing structure against geometric
comparators, the layer-cake identity, half-line folding of symmetric pmfs,
and convex-order verification through hinge functions.

The level-count function F_x(t) = #{i : x_i > t} of a probability sequence
is itself a probability density on (0, inf); for a non-increasing
log-concave x and a geometric comparator z the two step functions cross
exactly twice, which is what drives the power-sum comparisons. Every
integral here is evaluated segment-analytically, never by quadrature. The
checks take a LatticePMF or a Subject, whose cached facts they read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import power_sum
from .errors import (
    DomainError,
    MeanMismatchError,
    NoCrossingError,
    NotMonotoneLogConcaveError,
    NotSymmetricError,
)
from .lattice import Direction, LatticePMF, Subject, as_subject
from .report import CheckReport, from_margin

HINGE_TOL = 1e-10
MEAN_TOL = 1e-10


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi); empty when lo >= hi."""

    lo: float
    hi: float

    def __contains__(self, t: float) -> bool:
        return self.lo <= t < self.hi


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

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The pieces covering (0, max value): edges e_0 = 0 < ... < e_K
        and the count c_k > 0 of F on [e_k, e_{k+1})."""
        return np.concatenate(([0.0], self.breakpoints)), self.counts[:-1]

    def _pieces(self):
        """segments() and the tail masses G_k = int_{e_k}^inf F, G_K = 0."""
        edges, c = self.segments()
        return edges, c, _suffix_sum(c * np.diff(edges))

    def _hinge_table(self):
        """_pieces() plus H_k = E[(U - e_k)+], with H_K = 0.

        H is a suffix sum of the non-negative piece terms
        c_k w_k**2 / 2 + w_k G_{k+1}; the form sum c (hi**2 - lo**2) / 2
        - t sum c (hi - lo) would cancel catastrophically near the top.
        """
        edges, c, tail = self._pieces()
        w = np.diff(edges)
        return edges, c, tail, _suffix_sum(c * w * w / 2.0 + w * tail[1:])

    def mass(self) -> float:
        """Total integral of F; equals 1 when built from a probability pmf."""
        return float(self._pieces()[2][0])

    def mean(self) -> float:
        """Mean of the density F: integral of t F(t) dt."""
        return float(self._hinge_table()[3][0])

    def hinge_expectation(self, t):
        """E[(U - t)+] for U distributed with density F, at a scalar t or
        elementwise over an array of them."""
        edges, c, tail, hinge = self._hinge_table()

        def partial(k, t):
            r = edges[k + 1] - t
            return c[k] * r * r / 2.0

        return _hinge_lookup(t, edges, tail, hinge, partial)

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
        return edges, c, tail, knots, _suffix_sum(pieces + np.diff(knots) * tail[1:])

    def mean(self) -> float:
        """E[U**p]."""
        return float(self._hinge_table()[4][0])

    def hinge_expectation(self, t):
        """E[(U**p - t)+] at a scalar t or elementwise over an array; the
        piece holding t**(1/p) is integrated in closed form."""
        p = self.exponent
        edges, c, tail, knots, hinge = self._hinge_table()

        def partial(k, t):
            return _power_piece(c[k], edges[k + 1], t ** (1.0 / p), t, p)

        return _hinge_lookup(t, knots, tail, hinge, partial)

    def power(self, q: float) -> "PowerDensity":
        return PowerDensity(self.base, self.exponent * q)


def _suffix_sum(terms: np.ndarray) -> np.ndarray:
    """s_k = sum of terms[j] over j >= k, with a trailing s_K = 0."""
    return np.append(np.cumsum(terms[::-1])[::-1], 0.0)


def _power_piece(c, hi, cut, t, p: float):
    """c * int_cut^hi (u**p - t) du, in closed form."""
    return c * ((hi ** (p + 1.0) - cut ** (p + 1.0)) / (p + 1.0) - t * (hi - cut))


def _hinge_lookup(t, knots, tail, hinge, partial):
    """E[(V - t)+] for a scalar or an array t, from V's knots
    tau_0 = 0 < ... < tau_K, the tables tail[k] = P(V > tau_k) and
    hinge[k] = E[(V - tau_k)+], and partial(k, t), the part of piece k
    above t, for tau_k <= t < tau_{k+1}.

    Scalar and array t take the same elementwise path, so a scalar result
    equals the array element bitwise. t <= 0 gives mean - t * mass and
    t >= tau_K gives 0; a NaN t gives NaN.
    """
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    # the piece formula is evaluated at t clamped into [0, tau_K]; the
    # regions outside take their own closed forms below
    inner = np.clip(flat, 0.0, knots[-1])
    k = np.minimum(np.searchsorted(knots, inner, side="right"), knots.size - 1) - 1
    inside = hinge[k + 1] + (knots[k + 1] - inner) * tail[k + 1] + partial(k, inner)
    values = np.where(flat <= 0.0, hinge[0] - flat * tail[0],
                      np.where(flat >= knots[-1], 0.0, inside))
    return values.reshape(t.shape)[()]


def _level_count_of(values: np.ndarray) -> LevelCount:
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[vals > 0.0]
    uniq, mult = np.unique(vals, return_counts=True)
    counts = np.concatenate(([vals.size], vals.size - np.cumsum(mult)))
    return LevelCount(uniq, counts.astype(np.int64))


def level_count(x: LatticePMF) -> LevelCount:
    """Step function F_x of the pmf's positive masses."""
    return _level_count_of(x.weights)


def _levels(s: Subject) -> LevelCount:
    """level_count of the subject's pmf, computed once per subject."""
    return s.fact("level_count", lambda: level_count(s.pmf))


def power_transform_density(d, p: float) -> PowerDensity:
    """Density descriptor of U**p for U drawn from d (step or power)."""
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
        est = np.floor((np.log(flat) - math.log(self.coeff)) / math.log(self.ratio)) - 2.0
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
    """Crossing set [a, b] of {k : x_k >= z_k} and the interval I = [z_b, x_a).

    Indices are relative to the start of the pmf's stored support.
    b_at_horizon marks the crossing set reaching the final stored index, the
    truncated stand-in for an unbounded crossing set, in which case z_b is
    the comparator value at the horizon.
    """

    first_index: int
    last_index: int
    interval: Interval
    b_at_horizon: bool


def crossing_interval(x, z: GeometricSequence) -> CrossingResult:
    """Locate the threshold interval on which F_z sits below F_x.

    With a = min{k : x_k >= z_k} and b = max{k : x_k >= z_k} (k counted from
    the start of x's support), the interval is I = [z_b, x_a); F_z <= F_x on
    I and F_z >= F_x off I. The two-crossing guarantee presumes x is
    log-concave as well as non-increasing; only monotonicity is enforced
    here. Raises NoCrossingError when the comparator dominates x everywhere.
    """
    s = as_subject(x)
    if s.direction not in (Direction.DECREASING, Direction.BOTH):
        raise NotMonotoneLogConcaveError("crossing requires a non-increasing pmf")
    w = s.pmf.weights
    zv = z.value(np.arange(len(w)))
    above = np.flatnonzero(w >= zv)
    if above.size == 0:
        raise NoCrossingError("x is everywhere below the comparator")
    a, b = int(above[0]), int(above[-1])
    interval = Interval(float(zv[b]), float(w[a]))
    return CrossingResult(a, b, interval, b == len(w) - 1)


def crossing_verify(x, z: GeometricSequence, n_samples: int = 0) -> CheckReport:
    """Confirm the two-crossing sign pattern of F_z against F_x.

    Evaluates both step functions at every breakpoint of either function
    (comparator values down to below the interval's lower edge), at the
    midpoints between consecutive levels, and at n_samples extra log-spaced
    thresholds. The margin is the worst signed slack in level counts; a
    failure indicates a library defect rather than a mathematical one.
    """
    s = as_subject(x)
    result = crossing_interval(s, z)
    interval = result.interval
    w = s.pmf.weights
    f_x = _levels(s)

    lowest = max(min(float(w[w > 0].min()), interval.lo) / 4.0, 1e-300)
    ks = np.arange(0, max(len(w) + 8, result.last_index + 8))
    zv = z.value(ks)
    points = np.concatenate((f_x.breakpoints, zv[zv >= lowest],
                             [interval.lo, interval.hi]))
    ts = _probe_grid(points[points > 0.0])
    ts = np.union1d(ts, np.geomspace(ts[0], ts[-1], max(n_samples, 0)))

    fz = z.level_count(ts)
    fx = f_x(ts)
    inside = (interval.lo <= ts) & (ts < interval.hi)
    slack = np.where(inside, fx - fz, fz - fx)
    j = int(np.argmin(slack))  # first occurrence of the worst slack
    params = {"a": result.first_index, "b": result.last_index,
              "interval_lo": interval.lo, "interval_hi": interval.hi,
              "thresholds": int(ts.size), "worst_t": float(ts[j])}
    return CheckReport("crossing_pattern", float(fz[j]), float(fx[j]),
                       float(slack[j]), "pass" if slack[j] >= 0 else "fail",
                       params)


# ---------------------------------------------------------------------------
# Layer cake, symmetric folding, convex order.
# ---------------------------------------------------------------------------

def cake_layer_check(x, t: float) -> CheckReport:
    """Layer-cake identity: sum_i x_i**t = t * int_0^inf s**(t-1) F_x(s) ds.

    The right side is summed in closed form over the step segments, so the
    reported margin is pure rounding. Requires t >= 1.
    """
    if not t >= 1.0:
        raise ValueError(f"layer-cake check requires t >= 1, got {t}")
    s = as_subject(x)
    lhs = power_sum(s.pmf, t)
    edges, c = _levels(s).segments()
    # a running sum adds the pieces left to right, in the order of a loop
    rhs = float(np.cumsum(c * np.diff(edges**t))[-1])
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
    identity relating the two level counts below the central mass."""
    s = as_subject(x)
    if not s.integer_symmetric:
        raise NotSymmetricError("requires a pmf symmetric about an integer")
    w = s.pmf.weights
    center_idx = (len(w) - 1) // 2
    center_mass = float(w[center_idx])
    full = _levels(s)
    half = _level_count_of(w[center_idx:])

    # from 0, so the grid holds half the smallest mass too
    ts = _probe_grid(np.concatenate(([0.0], full.breakpoints, half.breakpoints)))
    ts = ts[ts < center_mass]
    gaps = np.abs(full(ts) - (2 * half(ts) - 1))
    return SymmetricFold(full, half, center_mass, int(np.max(gaps, initial=0)))


def _probe_grid(points: np.ndarray) -> np.ndarray:
    """The distinct points, sorted, with the midpoint of each consecutive
    pair: the thresholds at which two step functions are compared."""
    points = np.unique(points)
    return np.unique(np.concatenate((points, (points[:-1] + points[1:]) / 2.0)))


def _default_hinge_grid(u, v) -> np.ndarray:
    points = np.concatenate((u.breakpoints, v.breakpoints))
    return np.union1d([0.0], _probe_grid(points[points >= 0.0]))


def convex_order_check(u_density, v_density, hinge_grid=None,
                       mean_tol: float = MEAN_TOL,
                       hinge_tol: float = HINGE_TOL) -> CheckReport:
    """Hinge-function certificate that v_density majorizes u_density.

    Both arguments are step or power densities with equal means (within
    mean_tol, else MeanMismatchError). The verdict is pass iff
    E[(V - t)+] >= E[(U - t)+] - hinge_tol at every hinge point t; by the
    hinge characterization of the convex order (dominance at the kinks plus
    convexity between them) this certifies E[w(V)] >= E[w(U)] for convex w.
    The default grid is the union of both breakpoint sets, the midpoints of
    consecutive points, and zero; an explicit hinge_grid must be a non-empty
    1-D sequence of finite points, else DomainError. Each density is
    evaluated once over the whole grid.
    """
    mu_u, mu_v = u_density.mean(), v_density.mean()
    if abs(mu_u - mu_v) > mean_tol * max(1.0, abs(mu_u)):
        raise MeanMismatchError(
            f"means differ: {mu_u} vs {mu_v} (tolerance {mean_tol})")
    if hinge_grid is None:
        ts = _default_hinge_grid(u_density, v_density)
    else:
        ts = np.asarray(hinge_grid, dtype=np.float64)
        if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
            raise DomainError("hinge_grid needs one or more finite points in a "
                              f"1-D sequence, got {hinge_grid!r}")
    ev = v_density.hinge_expectation(ts)
    eu = u_density.hinge_expectation(ts)
    gap = ev - eu
    j = int(np.argmin(gap))  # first occurrence of the worst gap
    return from_margin("convex_order", ev[j], eu[j], gap[j], hinge_tol,
                       {"hinges": int(ts.size), "worst_t": float(ts[j]),
                        "mean": mu_u})
