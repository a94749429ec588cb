"""Probability mass functions on the integer lattice.

Carriers and structural predicates for finite-support distributions:
normalization, log-concavity, monotonicity, symmetry detection, the law
of X - Y for iid X, Y, the two infinite parametric families (geometric
and symmetric geometric) with their closed forms and their controlled
truncation to finite support, the steps of the level count and the mass
table read off them, and the hypothesis conditions the checks require of
a Subject.

All values are immutable after construction and safe to share across
threads. A Subject pairs a pmf with the facts derived from it, computed
at most once for as long as the subject lives.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import pairwise
from .errors import (
    AllZeroError,
    BadDocumentError,
    BadLambdaError,
    BadOrdersError,
    BadToleranceError,
    BadWeightsError,
    DiracInputError,
    DomainError,
    NegativeWeightError,
    NotMonotoneLogConcaveError,
    NotSymmetricError,
    UnclassifiedError,
)

DEFAULT_TAIL_TOL = 1e-15
_SUM_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
_LOG_CONCAVE_REL_TOL = 1e-12
MAX_SUPPORT = 20_000_000  # atoms a truncation may take
_DIRECT_PRODUCTS = 4_000_000  # difference convolves directly up to ~2,000 atoms
_BLOCK = 8_192  # entries per block of the predicates and of the laws' construction


class Direction(Enum):
    """Monotonicity of a pmf on its support interval, zero masses included."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    BOTH = "both"  # constant on support, including point masses
    NEITHER = "neither"


class Structure(Enum):
    """The structural classes the bounds distinguish."""

    MONOTONE = "monotone"
    HALF_INTEGER_SYMMETRIC = "half_integer_symmetric"
    INTEGER_SYMMETRIC = "integer_symmetric"


def check_lambda(lam: float) -> float:
    """lam as a float, refused unless it lies in (0, 1)."""
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise BadLambdaError(f"law parameter must lie in (0, 1), got {lam}")
    return lam


def check_order(p: float) -> float:
    """A Renyi order as a float, refused if it is negative or NaN."""
    p = float(p)
    if math.isnan(p) or p < 0.0:
        raise BadOrdersError(f"Renyi order must be >= 0, got {p}")
    return p


class LawKind(Enum):
    """A parametric family, with its closed forms at parameter lam.

    Geometric: P(X = n) = (1 - lam) * lam**n on n >= 0.
    Symmetric geometric: P(X = n) = ((1 - lam) / (1 + lam)) * lam**|n| on Z.
    The methods compare against the alias _GEOMETRIC, a global, since an
    attribute lookup on the enum would cost each solver step more.
    """

    GEOMETRIC = "geometric"
    SYMMETRIC_GEOMETRIC = "symmetric_geometric"

    def log_power_sum(self, lam: float, p: float) -> float:
        """log sum_n P(X = n)**p: p log(1-lam) - log(1-lam**p) for the
        geometric law, p log C + log(1+lam**p) - log(1-lam**p) with
        C = (1-lam)/(1+lam) for the symmetric one. At p = 0 the sum counts
        the infinite support, +inf; a negative or NaN p is refused."""
        lam = check_lambda(lam)
        if not p > 0.0:  # one comparison on the solver's path
            check_order(p)  # a negative or NaN p raises; p = 0 diverges
            return math.inf
        # 1 - lam**p via expm1 keeps precision when lam**p is close to 1;
        # once p log lam is subnormal or 0, 1 - lam**p is -p log lam to
        # within rounding, and its log is taken as log p + log(-log lam)
        log_lam = math.log(lam)
        drop = p * log_lam
        if drop > -sys.float_info.min:
            log_gap = math.log(p) + math.log(-log_lam)
        else:
            log_gap = math.log(-math.expm1(drop))
        if self is _GEOMETRIC:
            return p * math.log1p(-lam) - log_gap
        return (p * (math.log1p(-lam) - math.log1p(lam))
                + math.log1p(math.exp(drop)) - log_gap)

    def renyi(self, lam: float, p: float) -> float:
        """H_p of the law, including the limit orders 0, 1 and inf."""
        lam = check_lambda(lam)
        p = check_order(p)
        if p == 0.0:
            return math.inf  # support is infinite
        if self is _GEOMETRIC:
            if math.isinf(p):
                return -math.log1p(-lam)
            if p == 1.0:
                return -math.log1p(-lam) - lam * math.log(lam) / (1.0 - lam)
        else:
            log_c = math.log1p(-lam) - math.log1p(lam)
            if math.isinf(p):
                return -log_c
            if p == 1.0:
                # E|n| = 2 lam / ((1-lam)(1+lam))
                return -log_c - 2.0 * lam * math.log(lam) / ((1.0 - lam) * (1.0 + lam))
        return self.log_power_sum(lam, p) / (1.0 - p)

    def phi(self, lam: float, t: float) -> float:
        """phi(t) = log t + log sum_n P(X = n)**t, for t > 0."""
        if not t > 0.0:
            raise ValueError(f"t must be positive, got {t}")
        return math.log(t) + self.log_power_sum(lam, t)

    def phi_second_derivative(self, lam: float, t: float) -> float:
        """phi''(t) for t > 0. With u = lam**t, the geometric law gives
        (u log^2 u - (1-u)^2) / ((1-u) t)^2, and the symmetric one adds
        log^2(lam) u / (1+u)^2, the curvature of its log(1 + lam**t)."""
        lam = check_lambda(lam)
        if not t > 0.0:
            raise ValueError(f"t must be positive, got {t}")
        lam_t = math.exp(t * math.log(lam))
        one_minus = -math.expm1(t * math.log(lam))
        value = (lam_t * math.log(lam_t) ** 2 - one_minus**2) / (one_minus * t) ** 2
        if self is _GEOMETRIC:
            return value
        return value + math.log(lam) ** 2 * lam_t / (1.0 + lam_t) ** 2

    def varentropy(self, lam: float) -> float:
        """V of the law: log^2(lam) * Var(n), with Var(n) = lam/(1-lam)^2 for
        the geometric law, and log^2(lam) * Var(|n|) for the symmetric one.

        E|n| = 2 lam / ((1-lam)(1+lam)) and E n^2 = 2 lam / (1-lam)^2; both
        moments, and hence this closed form, are verified against direct
        summation in the test suite.
        """
        lam = check_lambda(lam)
        if self is _GEOMETRIC:
            return lam * math.log(lam) ** 2 / (1.0 - lam) ** 2
        e_abs = 2.0 * lam / ((1.0 - lam) * (1.0 + lam))
        e_sq = 2.0 * lam / (1.0 - lam) ** 2
        return math.log(lam) ** 2 * (e_sq - e_abs * e_abs)

    def difference_lags(self, lam: float, n_max: int, start: int,
                        out: np.ndarray) -> np.ndarray:
        """out filled, in place, with d_k = sum_i lam**|i| lam**|i + k| over
        the atoms the law keeps when truncated at n_max (0 <= i <= N for the
        geometric law, |i| <= N for the symmetric one, N = n_max), at the
        lags k = start, start + 1, ...: the law of X - Y for iid X, Y drawn
        from the truncated law, up to the square of its mass at 0. The
        geometric law gives lam**k (1 - lam**(2(N-k+1))) / (1 - lam**2);
        the symmetric one lam**k (k + 1 + 2 lam**2 (1 - lam**(2(N-k))) /
        (1 - lam**2)) for k <= N and (2N - k + 1) lam**k above. Every term
        is non-negative, and each 1 - lam**m is -expm1(m log lam), so
        nothing cancels; lam**k is exp(k log lam), as materialize takes it.
        The factors are formed in place, in k and one more array of out's
        size."""
        log_lam = math.log(lam)
        span = 2.0 * log_lam
        k = np.arange(start, start + out.size, dtype=np.float64)
        np.exp(np.multiply(k, log_lam, out=out), out=out)
        if self is _GEOMETRIC:
            gap = np.subtract(n_max + 1, k, out=k)
            gap *= span
            np.expm1(gap, out=gap)
            gap /= math.expm1(span)
            out *= gap
            return out
        near = min(out.size, max(0, n_max + 1 - start))  # the lags k <= N
        inner = k[:near]
        gap = np.subtract(n_max, inner)
        gap *= span
        np.expm1(gap, out=gap)
        gap *= 2.0 * math.exp(span) / math.expm1(span)
        inner += 1.0
        gap += inner
        out[:near] *= gap
        far = k[near:]
        out[near:] *= np.subtract(2 * n_max + 1, far, out=far)
        return out


_GEOMETRIC = LawKind.GEOMETRIC


@dataclass(frozen=True)
class ParametricLaw:
    """A law of the family kind with parameter lam in (0, 1)."""

    kind: LawKind
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", check_lambda(self.lam))

    @classmethod
    def geometric(cls, lam: float) -> "ParametricLaw":
        return cls(LawKind.GEOMETRIC, lam)

    @classmethod
    def symmetric_geometric(cls, lam: float) -> "ParametricLaw":
        return cls(LawKind.SYMMETRIC_GEOMETRIC, lam)


@dataclass(frozen=True, eq=False)
class LatticePMF:
    """Finite-support pmf on the integers: weights[j] = P(X = offset + j).

    Stored weights are trimmed (first and last entries positive) and frozen.
    Construction normally goes through normalize(); the raw constructor
    only checks structural validity, not the total mass. Both check the
    caller's weights once and keep a copy of them, which normalize scales
    in place. That copy, and the laws that materialize and difference
    build, become the weights through _adopt, with no second copy or
    check.

    law records the ParametricLaw whose truncation the weights are. Only
    materialize sets it; every other pmf, explicit weights that happen to
    be geometric included, has None. difference reads it to build the law
    of X - Y in closed form.
    """

    offset: int
    weights: np.ndarray
    law: ParametricLaw | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        w = _checked_weights(self.weights)
        if w[0] == 0.0 or w[-1] == 0.0:
            raise ValueError("weights must be trimmed: endpoints positive")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offset", _float_sized_offset(self.offset))

    @classmethod
    def _adopt(cls, offset: int, w: np.ndarray,
               law: ParametricLaw | None = None) -> "LatticePMF":
        """The pmf whose weights are w itself, frozen: w must be a checked,
        trimmed float array that nothing else holds."""
        w.flags.writeable = False
        x = object.__new__(cls)
        object.__setattr__(x, "offset", _float_sized_offset(offset))
        object.__setattr__(x, "weights", w)
        object.__setattr__(x, "law", law)
        return x

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.weights))

    @property
    def max_weight(self) -> float:
        return float(self.weights.max())

    def pmf(self, i: int) -> float:
        j = i - self.offset
        if 0 <= j < len(self):
            return float(self.weights[j])
        return 0.0


def _float_sized_offset(offset) -> int:
    """int(offset), refused unless a float can hold it, since the symmetry
    center and the mean are floats."""
    try:
        offset = int(offset)
        fits = abs(offset) <= sys.float_info.max
    except (TypeError, ValueError, OverflowError):
        fits = False
    if not fits:
        raise DomainError("offset must be an integer that a float can hold")
    return offset


def _checked_weights(weights) -> np.ndarray:
    """A fresh float copy of the weights, refused unless they are numbers,
    1-D, non-empty, finite and non-negative. One min and one max decide
    both: a NaN or an infinity leaves one of them non-finite, and that is
    refused first, also when a negative weight sits next to a NaN."""
    try:
        w = np.array(weights, dtype=np.float64)
    except (TypeError, ValueError):
        raise BadWeightsError("weights must be numbers") from None
    if w.ndim != 1 or w.size == 0:
        raise BadWeightsError("weights must be a non-empty 1-D sequence")
    lo, hi = float(w.min()), float(w.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadWeightsError("weights must be finite")
    if lo < 0.0:
        raise NegativeWeightError("weights must be non-negative")
    return w


def normalize(weights, offset: int = 0) -> LatticePMF:
    """Trim zero tails and scale the weights to total mass one.

    Weights already summing to one within 1e-12 are kept as-is, which makes
    normalize exactly idempotent. The pmf holds a copy of the weights.
    """
    return _normalized(_checked_weights(weights), offset)


def _normalized(w: np.ndarray, offset: int, law: ParametricLaw | None = None) -> LatticePMF:
    """normalize() of finite non-negative float weights w that nothing else
    holds: w is scaled in place and its trimmed view adopted as the pmf's
    weights, with law as its record."""
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total == 0.0:  # a sum of non-negative numbers is 0 only if all are
        raise AllZeroError("all weights are zero")
    if not math.isfinite(total):  # finite weights whose sum overflows
        w /= w.max()
        total = float(w.sum())
    if abs(total - 1.0) > _SUM_TOL:
        # divide before trimming: subnormal entries may underflow to zero
        w /= total
    first, last = 0, w.size - 1
    if w[0] == 0.0 or w[-1] == 0.0:
        positive = w > 0.0  # a one-byte mask: the ends need no index array
        first, last = int(positive.argmax()), last - int(positive[::-1].argmax())
    return LatticePMF._adopt(offset + first, w[first : last + 1], law)


def is_log_concave(x: LatticePMF) -> bool:
    """True iff x has contiguous support and x_i**2 >= x_{i-1} * x_{i+1}.

    The inequality is compared in the log domain with the relative
    tolerance _LOG_CONCAVE_REL_TOL, so that exactly log-affine sequences
    are not rejected for rounding. The interior entries are taken in blocks
    of _BLOCK entries, each step run in place in buffers allocated once per
    call, so memory stays bounded; a block that fails ends the test."""
    w = x.weights
    if not w.all():
        return False  # the ends are positive, so a zero is an interior gap
    n = w.size
    if n <= 2:
        return True
    block = min(_BLOCK, n - 2)
    logw, mid, outer, scale = (np.empty(block + 2), np.empty(block),
                               np.empty(block), np.empty(block))
    holds = np.empty(block, dtype=bool)
    for i in range(1, n - 1, block):
        k = min(block, n - 1 - i)  # entries i .. i + k - 1 read their neighbours
        lg, md, ou, sc, ok = logw[:k + 2], mid[:k], outer[:k], scale[:k], holds[:k]
        np.log(w[i - 1:i + k + 1], out=lg)
        np.multiply(2.0, lg[1:-1], out=md)
        np.add(lg[:-2], lg[2:], out=ou)
        # scale = max(1, |mid|, |outer|), with lg's head as scratch
        np.abs(md, out=sc)
        np.maximum(sc, np.abs(ou, out=lg[:k]), out=sc)
        np.maximum(1.0, sc, out=sc)
        np.multiply(-_LOG_CONCAVE_REL_TOL, sc, out=sc)
        np.subtract(md, ou, out=md)
        if not np.greater_equal(md, sc, out=ok).all():
            return False
    return True


def monotonicity(x: LatticePMF) -> Direction:
    """Classify monotone behaviour over every adjacent pair of the support
    interval, zero masses included."""
    w = x.weights
    left, right = w[:-1], w[1:]
    increasing = bool(np.all(right >= left))
    decreasing = bool(np.all(right <= left))
    if increasing and decreasing:
        return Direction.BOTH
    if increasing:
        return Direction.INCREASING
    if decreasing:
        return Direction.DECREASING
    return Direction.NEITHER


def symmetry_center(x: LatticePMF) -> float | None:
    """Center c with pmf(c + u) = pmf(c - u) for all u, to within
    _SYMMETRY_TOL, else None.

    The only candidate is the midpoint of the trimmed support, so the
    returned value is an integer or half-integer (as a float). Since
    |w_i - w_j| = |w_j - w_i|, the first half of the entries decides; they
    are compared with their mirrors in blocks of _BLOCK entries, in place,
    in buffers allocated once per call."""
    w = x.weights
    n = w.size
    half = (n + 1) // 2
    mirror = w[::-1]
    gap = np.empty(min(_BLOCK, half))
    holds = np.empty(gap.size, dtype=bool)
    for i in range(0, half, gap.size):
        k = min(gap.size, half - i)
        g = np.subtract(w[i:i + k], mirror[i:i + k], out=gap[:k])
        np.abs(g, out=g)
        if not np.less_equal(g, _SYMMETRY_TOL, out=holds[:k]).all():
            return None
    return x.offset + (n - 1) / 2.0


def level_steps(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steps of the level count F(t) = #{i : values_i > t}: the
    distinct positive values in increasing order (its breakpoints), and
    counts[j], the value of F on [breakpoints[j-1], breakpoints[j])
    (breakpoint -1 read as 0), from the number of positive values down to 0.

    A unimodal pmf is two monotone runs, which the stable sort of floats
    (TimSort) finds and merges in linear time; F drops by the size of each
    run of equal values, at its value. When no two values are equal, the
    sorted copy itself is the breakpoints."""
    s = np.sort(values, kind="stable")
    if not s[0] > 0.0:
        s = s[np.searchsorted(s, 0.0, side="right"):]
    n = s.size
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(s[1:], s[:-1], out=starts[1:])
    if starts.all():
        return s, np.arange(n, -1, -1)
    starts = np.flatnonzero(starts)
    breakpoints = s[starts]
    del s  # the sorted copy goes before the counts are made
    counts = np.append(starts, n)
    return breakpoints, np.subtract(n, counts, out=counts)


def recorded_steps(x: LatticePMF) -> tuple[np.ndarray, np.ndarray] | None:
    """level_steps(x.weights), bit for bit, read off x's record with no
    sort, when x is a law that materialize built whose decreasing half
    (all of a geometric law, the right half of a symmetric one) is strictly
    decreasing; else None. A geometric law's breakpoints are its weights
    reversed, and F counts n, n - 1, ..., 0; a symmetric law's breakpoints
    are its left half, ascending, and F counts n, n - 2, ..., 1, 0, since
    every mass but the center's is held twice. A tail_tol near the float
    range keeps subnormal masses that tie, and such a law is left to the
    sort. The half's neighbours are compared in blocks of _BLOCK entries,
    in one buffer allocated once per call."""
    if x.law is None:
        return None
    w = x.weights
    n = w.size
    geometric = x.law.kind is _GEOMETRIC
    half = w if geometric else w[n // 2:]
    holds = np.empty(min(_BLOCK, max(half.size - 1, 1)), dtype=bool)
    for i in range(0, half.size - 1, holds.size):
        k = min(holds.size, half.size - 1 - i)
        if not np.less(half[i + 1:i + 1 + k], half[i:i + k], out=holds[:k]).all():
            return None
    if geometric:  # the breakpoints contiguous, for the searches that read them
        return w[::-1].copy(), np.arange(n, -1, -1)
    counts = np.arange(n, -2, -2)  # n, n - 2, ..., 1, and -1 read as 0
    counts[-1] = 0
    return w[:n // 2 + 1], counts


class MassTable(NamedTuple):
    """The law of the information content -log x_I, I ~ x: the distinct
    positive masses v from the largest down, their logs, the number m of
    atoms at each mass (None when every mass is distinct), and the
    probability m v of each value -log v (the masses themselves when m is
    None). A sum over the atoms is a sum over the table weighted by m, and
    a symmetric law's table has half its atoms. The order is that of a
    decreasing pmf's atoms, so on a decreasing pmf of distinct masses every
    sum over the table adds its terms in the order of the atoms."""

    masses: np.ndarray
    logs: np.ndarray
    counts: np.ndarray | None
    probabilities: np.ndarray


class Subject:
    """A pmf and the facts the checks derive from it, each computed at most
    once: the structural predicates, the law of X - Y for iid X, Y ~ x, the
    steps of the level count, the mass table read off them (one entry per
    distinct mass), and what a check caches through fact(), such as each
    power-sum order. Every fact but the direction depends only on the
    multiset of masses or on the law of X - Y, so it holds for -X as well.
    A subject lives for one run or one check call; the pmf stays a pure
    value."""

    def __init__(self, pmf: LatticePMF):
        self.pmf = pmf
        self._facts: dict = {}

    def fact(self, key, compute):
        """compute() the first time key is asked for, the cached value after."""
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    def require(self, *conditions: "Condition") -> "Subject":
        """This subject if it meets every condition, else the first failing
        condition's error, raised with its reason."""
        for holds, reason, error in conditions:
            if not holds(self):
                raise error(reason)
        return self

    @property
    def log_concave(self) -> bool:
        return self.fact("log_concave", lambda: is_log_concave(self.pmf))

    @property
    def direction(self) -> Direction:
        return self.fact("direction", lambda: monotonicity(self.pmf))

    @property
    def symmetry(self) -> float | None:
        return self.fact("symmetry", lambda: symmetry_center(self.pmf))

    @property
    def self_difference(self) -> DifferenceLaw:
        """The law of X - Y for iid X, Y ~ x, as difference reads it: its
        scalars and a reader of its lags, with no array of its atoms."""
        return self.fact("difference", lambda: difference(self.pmf))

    @property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """level_steps of the pmf's masses, which its level count and its
        mass table read: read off the record of a law that materialize
        built (recorded_steps), with no sort, or else from level_steps, the
        one sort of the subject."""
        return self.fact("levels", self._levels)

    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        steps = recorded_steps(self.pmf)
        return level_steps(self.pmf.weights) if steps is None else steps

    @property
    def mass_table(self) -> MassTable:
        """The law of the information content, the one table every entropy,
        power sum, tail and phi of the subject reads."""
        return self.fact("mass_table", self._mass_table)

    def _mass_table(self) -> MassTable:
        # the breakpoints are the distinct masses, ascending, and F rises by
        # the atoms at each mass as the threshold falls past it
        breakpoints, f = self.levels
        v = breakpoints[::-1]
        if f[0] == v.size:
            return MassTable(v, np.log(v), None, v)
        m = np.subtract(f[-2::-1], f[:0:-1], dtype=np.float64)
        return MassTable(v, np.log(v), m, v * m)

    @property
    def monotone(self) -> bool:
        return self.direction is not Direction.NEITHER

    # the center is an integer iff the trimmed support has odd length,
    # which holds exactly whatever the offset (the float center may not)
    @property
    def integer_symmetric(self) -> bool:
        return self.symmetry is not None and len(self.pmf) % 2 == 1

    @property
    def half_integer_symmetric(self) -> bool:
        return self.symmetry is not None and len(self.pmf) % 2 == 0

    @property
    def structure(self) -> Structure | None:
        """The first class x is in: monotone, half-integer-symmetric or
        integer-symmetric, in that order; None if it is in none."""
        if self.monotone:
            return Structure.MONOTONE
        if self.half_integer_symmetric:
            return Structure.HALF_INTEGER_SYMMETRIC
        if self.integer_symmetric:
            return Structure.INTEGER_SYMMETRIC
        return None


# a hypothesis of a check: a predicate on the subject, the reason the check
# reads n/a or is refused when it fails, and the error raised; each is
# stated once, here, and a check function requires those it needs
Condition = tuple[Callable[[Subject], bool], str, type[UnclassifiedError]]
LOG_CONCAVE = (lambda s: s.log_concave, "requires a log-concave pmf", UnclassifiedError)
LC_MONOTONE = (lambda s: s.log_concave, "requires monotone log-concave",
               NotMonotoneLogConcaveError)
LC_CLASSIFIED = (lambda s: s.log_concave, "requires monotone or symmetric log-concave",
                 UnclassifiedError)
MONOTONE = (lambda s: s.monotone, "asserted for monotone pmfs", NotMonotoneLogConcaveError)
CLASSIFIED = (lambda s: s.structure is not None, "pmf is neither monotone nor symmetric",
              UnclassifiedError)
PHI_CLASS = (
    lambda s: s.structure in (Structure.MONOTONE, Structure.HALF_INTEGER_SYMMETRIC),
    "asserted for monotone or half-integer-symmetric pmfs", UnclassifiedError)
MATCHABLE = (
    lambda s: s.structure in (Structure.MONOTONE, Structure.INTEGER_SYMMETRIC),
    "needs a monotone or integer-symmetric pmf", UnclassifiedError)
NON_DEGENERATE = (lambda s: s.pmf.support_size >= 2, "matching needs a non-degenerate pmf",
                  DiracInputError)
INTEGER_SYMMETRIC = (lambda s: s.integer_symmetric,
                     "requires a pmf symmetric about an integer", NotSymmetricError)


def as_subject(x) -> Subject:
    """x when it is a Subject, else a fresh subject of the pmf x."""
    return x if isinstance(x, Subject) else Subject(x)


def materialize(law: ParametricLaw, tail_tol: float = DEFAULT_TAIL_TOL) -> LatticePMF:
    """Truncate an infinite-support law to a finite pmf of at most
    MAX_SUPPORT atoms, else DomainError before any allocation.

    The discarded tail mass is strictly below tail_tol before the final
    renormalization. For the geometric law the mass beyond n_max is
    lam**(n_max + 1); for the symmetric law the two discarded tails sum to
    2 * lam**(n_max + 1) / (1 + lam), and when tail_tol * (1 + lam) / 2
    lies below the float range the tail is cut where lam**(n_max + 1) is 0.
    The pmf records law, so that difference builds its law of X - Y in
    closed form and Subject.levels reads its level steps off it.
    """
    if not (0.0 < tail_tol <= 1e-6):
        raise BadToleranceError(f"tail_tol must lie in (0, 1e-6], got {tail_tol}")
    lam = law.lam
    log_lam = math.log(lam)
    geometric = law.kind is LawKind.GEOMETRIC
    threshold = tail_tol if geometric else tail_tol * (1.0 + lam) / 2.0
    # a threshold that underflowed to 0 stands as the smallest subnormal:
    # a float lam**k lies below either only once it is 0
    threshold = max(threshold, math.ulp(0.0))
    n_max = max(0, math.ceil(math.log(threshold) / log_lam) - 1)
    while lam ** (n_max + 1) >= threshold:
        n_max += 1
    atoms = n_max + 1 if geometric else 2 * n_max + 1
    if atoms > MAX_SUPPORT:
        raise DomainError(f"truncation needs {atoms} atoms, above max_support")
    if geometric:
        w = np.arange(n_max + 1, dtype=np.float64)
        w *= log_lam
        np.exp(w, out=w)
        w *= 1.0 - lam
        return _normalized(w, 0, law)
    # lam**|k| on the right half: k log lam from a float arange, a block of
    # _BLOCK at a time, then exponentiated in place and mirrored
    w = np.empty(2 * n_max + 1)
    right = w[n_max:]
    for start in range(0, n_max + 1, _BLOCK):
        k = right[start:start + _BLOCK]
        np.multiply(np.arange(start, start + k.size, dtype=np.float64), log_lam, out=k)
    np.exp(right, out=right)
    w[:n_max] = right[:0:-1]
    return _normalized(w, -n_max, law)


@dataclass(frozen=True, eq=False)
class DifferenceLaw:
    """The law of X - Y for iid X, Y, exactly symmetric about 0, read by its
    lags k >= 0 instead of stored as its atoms: P(X - Y = k) and
    P(X - Y = -k) are both the mass at lag k. It holds the scalars the
    checks read: last, the largest lag of positive mass (the support is
    -last..last), max_weight and mass_at_zero. lags(lo, hi, out) writes the
    masses at lags lo..hi-1 into out and returns it, so a pass over the law
    takes it a block at a time; pmf() builds its 2 last + 1 atoms."""

    last: int
    max_weight: float
    mass_at_zero: float
    lags: Callable[[int, int, np.ndarray], np.ndarray] = field(repr=False)
    _pmf: LatticePMF | None = field(default=None, repr=False)

    def pmf(self) -> LatticePMF:
        """The law as a LatticePMF with offset -last, its weights mirrored
        from the lags."""
        if self._pmf is not None:
            return self._pmf
        last = self.last
        w = np.empty(2 * last + 1)
        right = w[last:]
        for start in range(0, last + 1, _BLOCK):
            self.lags(start, min(start + _BLOCK, last + 1), right[start:start + _BLOCK])
        w[:last] = right[:0:-1]
        return LatticePMF._adopt(-last, w)


def difference(x: LatticePMF) -> DifferenceLaw:
    """Law of X - Y for iid X, Y ~ x, exactly symmetric about 0.

    P(X - Y = k) is the autocorrelation of the weights at lag |k|, and the
    lags k >= 0 come from one of two sources (_lag_source): a pmf that
    materialize built has them from its family's closed form, any other from
    its n stored lags. The law is normalize() of the 2n - 1 mirrored lags,
    bit for bit, without storing them:
    - when the 2n - 1 fit in one leaf of a pairwise sum, they are built in
      one buffer and normalized, and the pmf is kept;
    - above, one sweep over the lags (_mirrored_sweep) gives their total
      in the bits of one np.sum over the mirrored 2n - 1, their largest, the
      mass at 0 and the last lag of positive mass. The lags are then read
      from their source, divided by the total when it is not within
      _SUM_TOL of 1, and a law of a recorded family holds no array at all.
      A total above the float range, which normalize first divides by the
      largest lag, cannot reach this path finite: the transform's squared
      term at frequency 0 is that total and overflows first, and a recorded
      family's total is within rounding of 1.
    """
    n = len(x)
    raw = _lag_source(x)
    if 2 * n - 1 <= pairwise._LEAF:
        law = np.empty(2 * n - 1)
        raw(0, n, law[n - 1:])
        law[:n - 1] = law[n:][::-1]
        d = _normalized(law, 1 - n)
        right = d.weights[len(d) // 2:]
        return DifferenceLaw(right.size - 1, d.max_weight, float(right[0]),
                             _copied(right), d)
    total, top, zero, last, tail = _mirrored_sweep(raw, n)
    if total == 0.0:  # a sum of non-negative numbers is 0 only if all are
        raise AllZeroError("all weights are zero")
    lags = raw
    if abs(total - 1.0) > _SUM_TOL:
        # a division is monotone, so it keeps the largest lag the largest
        lags = _divided(raw, total)
        top, zero, tail = top / total, zero / total, tail / total
    if tail == 0.0:  # the division took the last positive lag below the float range
        last = _last_positive(lags, last)
    return DifferenceLaw(last, top, zero, lags)


def _lag_source(x: LatticePMF) -> Callable[[int, int, np.ndarray], np.ndarray]:
    """raw(lo, hi, out): out filled with the autocorrelation of x's weights
    at lags lo..hi-1. A pmf that materialize built records its law, and its
    lags come from that family's closed form (LawKind.difference_lags) scaled
    by the square of the mass at 0: every lag keeps its own relative
    precision, so no tail is lost. Any other pmf has its n lags computed once
    and stored (_autocorrelation)."""
    if x.law is not None:
        kind, lam = x.law.kind, x.law.lam
        n = len(x)
        n_max = n - 1 if kind is _GEOMETRIC else n // 2  # the atoms kept
        scale = x.pmf(0) ** 2  # both families have their mode at 0

        def closed_form(lo, hi, out):
            kind.difference_lags(lam, n_max, lo, out)
            out *= scale
            return out

        return closed_form
    return _copied(_autocorrelation(x.weights))


def _autocorrelation(w: np.ndarray) -> np.ndarray:
    """The lags k = 0..n-1 of sum_i w_i w_{i+k}, copied out of the buffer
    that computes them. Up to _DIRECT_PRODUCTS products they come from a
    direct convolution; above, from one real FFT at a 5-smooth length of at
    least 2n - 1 (so no lag wraps), whose spectrum is squared in place into
    |F|**2 and transformed back, with rounding noise clipped at 0."""
    n = w.size
    if n * n <= _DIRECT_PRODUCTS:
        return np.convolve(w, w[::-1])[n - 1:].copy()  # lag k at n - 1 + k
    m = _smooth_length(2 * n - 1)
    spectrum = np.fft.rfft(w, m)
    power = spectrum.view(np.float64)  # re, im interleaved
    np.square(power, out=power)
    power[0::2] += power[1::2]
    power[1::2] = 0.0
    law = np.fft.irfft(spectrum, m)  # lag k at k
    del spectrum, power
    lags = law[:n].copy()
    del law
    return np.maximum(lags, 0.0, out=lags)


def _copied(lags: np.ndarray) -> Callable[[int, int, np.ndarray], np.ndarray]:
    """raw(lo, hi, out) reading stored lags."""

    def stored(lo, hi, out):
        np.copyto(out, lags[lo:hi])
        return out

    return stored


def _divided(raw, total: float) -> Callable[[int, int, np.ndarray], np.ndarray]:
    """raw's lags divided by total in place, as normalize divides its
    weights."""

    def divided(lo, hi, out):
        raw(lo, hi, out)
        out /= total
        return out

    return divided


def _mirrored_sweep(raw, n: int) -> tuple[float, float, float, int, float]:
    """One ascending sweep over the lags 0..n-1 that raw writes, each read
    once, in blocks of pairwise._LEAF: the sum of the masses of the 2n - 1
    positions, lag k at n - 1 - k and n - 1 + k, with the bits of one np.sum
    over them; the largest mass; the mass at lag 0; the last lag of positive
    mass and that mass.

    Each leaf of the pairwise tree over the positions is a run of lags,
    reversed left of lag 0 (both ways in the leaf that holds it). A block of
    lags is copied into the leaves it falls in, each leaf's buffer taken when
    the sweep first reaches it and its np.sum taken when it is full; since
    the runs partition the lags on each side, at most two leaves are open at
    a time. The leaf sums are then added in the tree's order."""
    center, size = n - 1, 2 * n - 1
    bounds = pairwise.leaves(size)
    starts = [lo for lo, _ in bounds]
    width = max(hi - lo for lo, hi in bounds)
    sums: dict[int, float] = {}
    open_leaves: dict[int, list] = {}  # a leaf's start -> [buffer, entries written]
    spare: list[np.ndarray] = []

    def put(p: int, values: np.ndarray) -> None:
        """values written at positions p, p + 1, ..."""
        i = bisect.bisect_right(starts, p) - 1
        done = 0
        while done < values.size:
            lo, hi = bounds[i]
            k = min(hi - p - done, values.size - done)
            leaf = open_leaves.get(lo)
            if leaf is None:
                leaf = open_leaves[lo] = [spare.pop() if spare else np.empty(width), 0]
            buf = leaf[0]
            buf[p + done - lo:p + done - lo + k] = values[done:done + k]
            leaf[1] += k
            if leaf[1] == hi - lo:
                sums[lo] = float(buf[:hi - lo].sum())
                spare.append(open_leaves.pop(lo)[0])
            done += k
            i += 1

    block = np.empty(min(n, pairwise._LEAF))
    top = zero = tail = 0.0
    last = -1
    with np.errstate(over="ignore"):
        for a in range(0, n, block.size):
            v = raw(a, min(n, a + block.size), block[:min(block.size, n - a)])
            top = max(top, float(v.max()))
            if v[-1] > 0.0:
                last, tail = a + v.size - 1, float(v[-1])
            else:
                positive = np.flatnonzero(v)
                if positive.size:
                    last, tail = a + int(positive[-1]), float(v[positive[-1]])
            b = a + v.size
            put(center + a, v)
            if a == 0:
                zero = float(v[0])
                v = v[1:]  # lag 0 sits at the center once
            put(center - b + 1, v[::-1])
    return pairwise.tree_sum(size, lambda lo, hi: sums[lo]), top, zero, last, tail


def _last_positive(lags, hi: int) -> int:
    """The largest lag at most hi of positive mass, searched down from hi in
    blocks of _BLOCK; the largest mass is at least the total over 2n - 1,
    so it stays positive and the search ends."""
    buf = np.empty(min(_BLOCK, hi + 1))
    while True:
        lo = max(0, hi + 1 - buf.size)
        positive = np.flatnonzero(lags(lo, hi + 1, buf[:hi + 1 - lo]))
        if positive.size:
            return lo + int(positive[-1])
        hi = lo - 1


def _smooth_length(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= m, a length numpy's FFT factors
    into its fast radices."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def pmf_from_json(doc: dict, tail_tol: float = DEFAULT_TAIL_TOL) -> LatticePMF:
    """Build a pmf from the JSON input document format.

    Accepted forms:
      {"offset": int, "weights": [w0, w1, ...]}
      {"law": "geometric" | "symmetric_geometric", "lambda": x}
    """
    if not isinstance(doc, dict):
        raise BadDocumentError("distribution document must be a JSON object")
    if "weights" in doc:
        weights = doc["weights"]
        # bool is final, so a type test finds exactly what isinstance finds
        if isinstance(weights, list) and bool in map(type, weights):
            raise BadWeightsError("weights must be numbers, not booleans")
        return normalize(weights, _integer_offset(doc.get("offset", 0)))
    if "law" in doc:
        try:
            kind = LawKind(doc["law"])
        except ValueError:
            raise BadDocumentError(
                f"unknown law {doc['law']!r}; expected 'geometric' or"
                " 'symmetric_geometric'") from None
        if "lambda" not in doc:
            raise BadDocumentError("parametric law document requires a 'lambda' field")
        try:
            lam = float(doc["lambda"])
        except (TypeError, ValueError):
            raise BadDocumentError(
                f"'lambda' must be a number, got {doc['lambda']!r}") from None
        return materialize(ParametricLaw(kind, lam), tail_tol)
    raise BadDocumentError("document must contain either 'weights' or 'law'")


def _integer_offset(value) -> int:
    """The document's offset: an integral number, never rounded."""
    try:
        integral = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise BadDocumentError(f"offset must be an integer, got {value!r}")
    return int(value)
