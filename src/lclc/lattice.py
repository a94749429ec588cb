"""Probability mass functions on the integer lattice.

Carriers and structural predicates for finite-support distributions:
normalization, log-concavity, monotonicity, symmetry detection, moments,
the law of a difference X - Y of independent variables, and controlled
truncation of the two infinite parametric families (geometric and
symmetric geometric) to finite support.

All values are immutable after construction and safe to share across
threads; the only caller-visible state is the sampling seed. A Subject
pairs a pmf with the facts derived from it, computed at most once for
as long as the subject lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    AllZeroError,
    BadDocumentError,
    BadLambdaError,
    BadToleranceError,
    BadWeightsError,
    DomainError,
    NegativeWeightError,
)

DEFAULT_TAIL_TOL = 1e-15
_SUM_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
_LOG_CONCAVE_REL_TOL = 1e-12


class Direction(Enum):
    """Monotonicity of a pmf restricted to its support."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    BOTH = "both"  # constant on support, including point masses
    NEITHER = "neither"


class Structure(Enum):
    """The structural classes the bounds distinguish."""

    MONOTONE = "monotone"
    HALF_INTEGER_SYMMETRIC = "half_integer_symmetric"
    INTEGER_SYMMETRIC = "integer_symmetric"


class LawKind(Enum):
    GEOMETRIC = "geometric"
    SYMMETRIC_GEOMETRIC = "symmetric_geometric"


@dataclass(frozen=True)
class ParametricLaw:
    """Geometric or symmetric-geometric law with parameter lam in (0, 1).

    Geometric: P(X = n) = (1 - lam) * lam**n on n >= 0.
    Symmetric geometric: P(X = n) = ((1 - lam) / (1 + lam)) * lam**|n| on Z.
    """

    kind: LawKind
    lam: float

    def __post_init__(self):
        lam = float(self.lam)
        if not (0.0 < lam < 1.0):
            raise BadLambdaError(f"law parameter must lie in (0, 1), got {self.lam}")
        object.__setattr__(self, "lam", lam)

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
    only checks structural validity, not the total mass.
    """

    offset: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(_checked_weights(self.weights), copy=True)
        if w[0] == 0.0 or w[-1] == 0.0:
            raise ValueError("weights must be trimmed: endpoints positive")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offset", int(self.offset))

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

    def log_weights(self) -> np.ndarray:
        """Elementwise log with -inf at zero-mass indices."""
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    def positive_weights(self) -> np.ndarray:
        w = self.weights
        return w[w > 0.0]

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def reversed(self) -> "LatticePMF":
        """Law of -X; value multiset (hence all entropies) unchanged."""
        return LatticePMF(-(self.offset + len(self) - 1), self.weights[::-1])


def _checked_weights(weights) -> np.ndarray:
    """The weights as a float array: numbers, 1-D, non-empty, finite and
    non-negative."""
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError):
        raise BadWeightsError("weights must be numbers") from None
    if w.ndim != 1 or w.size == 0:
        raise BadWeightsError("weights must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(w)):
        raise BadWeightsError("weights must be finite")
    if np.any(w < 0.0):
        raise NegativeWeightError("weights must be non-negative")
    return w


def normalize(weights, offset: int = 0) -> LatticePMF:
    """Trim zero tails and scale the weights to total mass one.

    Weights already summing to one within 1e-12 are kept as-is, which makes
    normalize exactly idempotent.
    """
    w = _checked_weights(weights)
    if not np.any(w > 0.0):
        raise AllZeroError("all weights are zero")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not math.isfinite(total):  # finite weights whose sum overflows
        w = w / w.max()
        total = float(w.sum())
    if abs(total - 1.0) > _SUM_TOL:
        # divide before trimming: subnormal entries may underflow to zero
        w = w / total
    nonzero = np.flatnonzero(w > 0.0)
    first, last = int(nonzero[0]), int(nonzero[-1])
    return LatticePMF(offset + first, w[first : last + 1].copy())


def is_log_concave(x: LatticePMF, rel_tol: float = _LOG_CONCAVE_REL_TOL) -> bool:
    """True iff x has contiguous support and x_i**2 >= x_{i-1} * x_{i+1}.

    The inequality is compared in the log domain with a relative tolerance
    so that exactly log-affine sequences are not rejected for rounding.
    """
    w = x.weights
    nonzero = np.flatnonzero(w > 0.0)
    if nonzero[-1] - nonzero[0] + 1 != nonzero.size:
        return False  # interior zero violates the support-interval condition
    if nonzero.size <= 2:
        return True
    logw = np.log(w[nonzero])
    mid = 2.0 * logw[1:-1]
    outer = logw[:-2] + logw[2:]
    scale = np.maximum(1.0, np.maximum(np.abs(mid), np.abs(outer)))
    return bool(np.all(mid - outer >= -rel_tol * scale))


def monotonicity(x: LatticePMF) -> Direction:
    """Classify monotone behaviour over adjacent positive-mass pairs."""
    w = x.weights
    left, right = w[:-1], w[1:]
    both = (left > 0.0) & (right > 0.0)
    increasing = bool(np.all(right[both] >= left[both]))
    decreasing = bool(np.all(right[both] <= left[both]))
    if increasing and decreasing:
        return Direction.BOTH
    if increasing:
        return Direction.INCREASING
    if decreasing:
        return Direction.DECREASING
    return Direction.NEITHER


def symmetry_center(x: LatticePMF, abs_tol: float = _SYMMETRY_TOL) -> float | None:
    """Center c with pmf(c + u) = pmf(c - u) for all u, else None.

    The only candidate is the midpoint of the trimmed support, so the
    returned value is an integer or half-integer (as a float).
    """
    w = x.weights
    if not np.all(np.abs(w - w[::-1]) <= abs_tol):
        return None
    return x.offset + (len(w) - 1) / 2.0


class Subject:
    """A pmf and the facts the checks derive from it, each computed at most
    once: the structural predicates, the law of X - Y for iid X, Y ~ x, and
    what a check caches through fact(). Every fact depends only on the
    multiset of masses or on the law of X - Y, so the subject of -X shares
    all but the direction. A subject lives for one run or one check call;
    the pmf stays a pure value."""

    def __init__(self, pmf: LatticePMF):
        self.pmf = pmf
        self._facts: dict = {}

    def fact(self, key, compute):
        """compute() the first time key is asked for, the cached value after."""
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

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
    def self_difference(self) -> LatticePMF:
        return self.fact("difference", lambda: difference(self.pmf, self.pmf))

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

    @property
    def decreasing(self) -> "Subject":
        """This subject when x is non-increasing, else the subject of -X,
        made once and given the facts known so far."""
        if self.direction is not Direction.INCREASING:
            return self

        def mirror() -> Subject:
            m = Subject(self.pmf.reversed())
            m._facts.update(self._facts, direction=Direction.DECREASING)
            return m

        return self.fact("decreasing", mirror)


def as_subject(x) -> Subject:
    """x when it is a Subject, else a fresh subject of the pmf x."""
    return x if isinstance(x, Subject) else Subject(x)


def mean_variance(x: LatticePMF) -> tuple[float, float]:
    """Exact finite-sum mean and variance, summed relative to the offset,
    which is added once, so a large offset costs the mean no precision."""
    idx = np.arange(len(x), dtype=np.float64)
    mean = float(np.dot(x.weights, idx))
    var = float(np.dot(x.weights, (idx - mean) ** 2))
    return x.offset + mean, var


def materialize(law: ParametricLaw, tail_tol: float = DEFAULT_TAIL_TOL,
                max_support: int = 20_000_000) -> LatticePMF:
    """Truncate an infinite-support law to a finite pmf.

    The discarded tail mass is strictly below tail_tol before the final
    renormalization. For the geometric law the mass beyond n_max is
    lam**(n_max + 1); for the symmetric law the two discarded tails sum to
    2 * lam**(n_max + 1) / (1 + lam).
    """
    if not (0.0 < tail_tol <= 1e-6):
        raise BadToleranceError(f"tail_tol must lie in (0, 1e-6], got {tail_tol}")
    lam = law.lam
    log_lam = math.log(lam)
    geometric = law.kind is LawKind.GEOMETRIC
    threshold = tail_tol if geometric else tail_tol * (1.0 + lam) / 2.0
    n_max = max(0, math.ceil(math.log(threshold) / log_lam) - 1)
    while lam ** (n_max + 1) >= threshold:
        n_max += 1
    atoms = n_max + 1 if geometric else 2 * n_max + 1
    if atoms > max_support:
        raise DomainError(f"truncation needs {atoms} atoms, above max_support")
    if geometric:
        logw = np.arange(n_max + 1) * log_lam
        return normalize((1.0 - lam) * np.exp(logw), 0)
    logw = np.abs(np.arange(-n_max, n_max + 1)) * log_lam
    return normalize(np.exp(logw), -n_max)


def difference(x: LatticePMF, y: LatticePMF) -> LatticePMF:
    """Law of X - Y for independent X ~ x and Y ~ y."""
    wx, wy = x.weights, y.weights
    if wx.size * wy.size <= 4_000_000:
        conv = np.convolve(wx, wy[::-1])
    else:
        conv = _fft_convolve(wx, wy[::-1])
    offset = x.offset - (y.offset + len(y) - 1)
    return normalize(conv, offset)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.size + b.size - 1
    nfft = 1 << (n - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]
    return np.maximum(out, 0.0)  # clip FFT rounding noise


def sample(x: LatticePMF, seed: int, count: int) -> np.ndarray:
    """Inverse-CDF sampling; bit-reproducible for a fixed seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    cdf = np.cumsum(x.weights)
    cdf[-1] = max(cdf[-1], 1.0)  # guard rounding at the top end
    j = np.searchsorted(cdf, u, side="right")
    return (j + x.offset).astype(np.int64)


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
        if isinstance(weights, list) and any(isinstance(w, bool) for w in weights):
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
    """The document's offset; integral numbers only, never rounded."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise BadDocumentError(f"offset must be an integer, got {value!r}")
