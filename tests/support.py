"""Randomized instance generators and reference loops shared across the
test modules.

Log-concave pmfs are produced by exponentiating concave log-weight
sequences (increments sorted to be non-increasing); forcing every
increment non-positive makes the pmf monotone decreasing, and mirroring a
monotone half builds the symmetric families.

The scalar_* functions evaluate the crossing and folding checks one
threshold at a time; the library's array evaluation must reproduce them
exactly. ref_crossing_verify evaluates the crossing check over the sorted
union of its thresholds, with the settle loop at every one of them; the
library's blocked reading of each side's own breakpoints must reproduce
its report field for field. direct_difference is the law of X - Y by direct convolution over
every lag, which the library's mirrored FFT autocorrelation must match to
rounding. ref_difference stores that law as its 2n - 1 atoms, its
closed-form lags from ref_difference_lags, and normalizes them; the
library's one-sweep reader of the lags must give its scalars, its pmf()
and the h2_hinf_identity and epi_reversal reports of
ref_h2_hinf_identity_check and ref_epi_reversal_check bit for bit. The
loop_* functions evaluate hinge expectations, means, the
convex-order certificate and the layer-cake sum one segment and one hinge
at a time; the library's suffix-sum tables and array sums must agree with
them to rounding. ref_cake_layer_rhs sums the layer cake's pieces in one
buffer, whose bits the library's blocked running sum must keep. tilt is
the exponential tilt of a pmf, and ref_K_constant the tilted-varentropy
constant taken tilt by tilt, which the library's one kernel pass must
match, and
mp_phi_rows evaluates phi and phi'' in 40-digit mpmath. The ref_* functions are the closed forms of the two
parametric families written as one function per family and quantity;
LawKind's methods must reproduce them bit for bit. mp_shannon,
mp_varentropy and mp_log_power_sum evaluate the entropies and power sums
over every atom in 40-digit mpmath, each with the forward error bound of
the library's sums over its mass table, within which the library must
land. ref_is_log_concave and ref_symmetry_center test every entry in one
pass; the blocked predicates must reproduce them bit for bit.
ref_level_count builds F with np.unique, one general sort of every value;
the library's stable sort over monotone runs must reproduce it array for
array, and ref_hinge_grid builds the convex-order hinge grid with np.unique
and np.union1d, which the library's merges of sorted runs must reproduce.
scan_symmetric_peaks searches symmetric peaked pmfs for points of
convexity of phi, which exist once the peak is wider than three atoms.
"""

import math

import numpy as np

from lclc import lattice
from lclc.entropy import log_power_sum_of_logs, power_sum, renyi, varentropy
from lclc.inequalities import DEFAULT_ALPHA_GRID
from lclc.errors import BadLambdaError, BadOrdersError, MeanMismatchError
from lclc.lattice import LatticePMF, LawKind, as_subject, level_steps, normalize, symmetry_center
from lclc.lyapunov import DEFAULT_N_POINTS, DEFAULT_T_MAX, DEFAULT_T_MIN, phi_second_derivative
from lclc.majorization import (
    HINGE_TOL,
    MEAN_TOL,
    LevelCount,
    _default_hinge_grid,
    crossing_interval,
    level_count,
)
from lclc.report import CheckReport, from_margin


def random_monotone_log_concave(rng, max_support=60, min_support=2,
                                max_step=3.0, direction=None) -> LatticePMF:
    """Monotone log-concave pmf with support size in [min_support, max_support]."""
    n = int(rng.integers(min_support, max_support + 1))
    if n == 1:
        return normalize([1.0])
    steps = -np.sort(rng.uniform(0.0, max_step, n - 1))  # <= 0, non-increasing
    log_w = np.concatenate(([0.0], np.cumsum(steps)))
    if direction is None:
        direction = "decreasing" if rng.random() < 0.5 else "increasing"
    if direction == "increasing":
        log_w = log_w[::-1]
    return normalize(np.exp(log_w - log_w.max()), int(rng.integers(-5, 6)))


def random_log_concave(rng, max_support=60, min_support=2, max_step=2.0) -> LatticePMF:
    """Log-concave pmf, not necessarily monotone (peak anywhere)."""
    n = int(rng.integers(min_support, max_support + 1))
    steps = np.sort(rng.uniform(-max_step, max_step, n - 1))[::-1]
    log_w = np.concatenate(([0.0], np.cumsum(steps)))
    return normalize(np.exp(log_w - log_w.max()), int(rng.integers(-5, 6)))


def _monotone_half(rng, half, max_step):
    steps = -np.sort(rng.uniform(0.0, max_step, half))
    return np.cumsum(np.concatenate(([0.0], steps)))


def random_symmetric_log_concave(rng, max_half=25, max_step=2.0) -> LatticePMF:
    """Log-concave pmf symmetric about an integer center."""
    half = int(rng.integers(1, max_half + 1))
    log_half = _monotone_half(rng, half, max_step)
    log_w = np.concatenate((log_half[:0:-1], log_half))
    center = int(rng.integers(-3, 4))
    return normalize(np.exp(log_w - log_w.max()), center - half)


def random_half_integer_symmetric(rng, max_half=25, max_step=2.0) -> LatticePMF:
    """Log-concave pmf symmetric about a half-integer (even support size)."""
    half = int(rng.integers(1, max_half + 1))
    log_half = _monotone_half(rng, half - 1, max_step) if half > 1 else np.zeros(1)
    log_w = np.concatenate((log_half[::-1], log_half))
    return normalize(np.exp(log_w - log_w.max()), int(rng.integers(-3, 4)) - half)


def random_pmf(rng, max_support=60, min_support=1) -> LatticePMF:
    """Arbitrary pmf with positive weights, no structural constraints."""
    n = int(rng.integers(min_support, max_support + 1))
    log_w = rng.uniform(-8.0, 0.0, n)
    return normalize(np.exp(log_w), int(rng.integers(-5, 6)))


def direct_difference(x: LatticePMF) -> np.ndarray:
    """P(X - Y = k) for iid X, Y ~ x at k = -(n-1), ..., n-1, each lag summed
    directly, with no transform and no mirroring."""
    return np.convolve(x.weights, x.weights[::-1])


def ref_difference_lags(kind, lam: float, n_max: int, start: int,
                        out: np.ndarray) -> np.ndarray:
    """LawKind.difference_lags with each factor formed as one expression of
    fresh arrays; the library forms them in place, with the same bits."""
    log_lam = math.log(lam)
    span = 2.0 * log_lam
    k = np.arange(start, start + out.size, dtype=np.float64)
    np.exp(np.multiply(k, log_lam, out=out), out=out)
    if kind is LawKind.GEOMETRIC:
        out *= np.expm1((n_max + 1 - k) * span) / math.expm1(span)
        return out
    near = min(out.size, max(0, n_max + 1 - start))
    inner = k[:near]
    out[:near] *= (np.expm1((n_max - inner) * span)
                   * (2.0 * math.exp(span) / math.expm1(span)) + (inner + 1.0))
    out[near:] *= 2 * n_max + 1 - k[near:]
    return out


def ref_difference(x: LatticePMF) -> LatticePMF:
    """The law of X - Y stored as its 2n - 1 atoms: its lags from the
    family's closed form in blocks of 8,192, from a direct convolution or
    from one real FFT, mirrored into one buffer and normalized. The
    library's reader must give this law's scalars, and its pmf(), bit for
    bit."""
    w = x.weights
    n = w.size
    if x.law is not None:
        kind, lam = x.law.kind, x.law.lam
        n_max = n - 1 if kind is LawKind.GEOMETRIC else n // 2
        scale = x.pmf(0) ** 2
        law = np.empty(2 * n - 1)
        for start in range(0, n, lattice._BLOCK):
            lags = law[n - 1 + start:n - 1 + start + lattice._BLOCK]
            ref_difference_lags(kind, lam, n_max, start, lags)
            lags *= scale
    elif n * n <= lattice._DIRECT_PRODUCTS:
        law = np.convolve(w, w[::-1])
    else:
        m = lattice._smooth_length(2 * n - 1)
        spectrum = np.fft.rfft(w, m)
        power = spectrum.view(np.float64)
        np.square(power, out=power)
        power[0::2] += power[1::2]
        power[1::2] = 0.0
        law = np.fft.irfft(spectrum, m)
        del spectrum, power
        np.maximum(law[:n], 0.0, out=law[:n])
        law[n - 1:2 * n - 1] = law[:n]
    law[:n - 1] = law[n:2 * n - 1][::-1]
    return lattice._normalized(law[:2 * n - 1], 1 - n)


def ref_difference_renyi(d: LatticePMF, alpha: float) -> float:
    """H_alpha of a stored law of X - Y from the logs of its lags k >= 0 in
    one array, each weighted by the atoms at its lag."""
    log_sum = -math.inf
    if not math.isinf(alpha):
        half = d.weights[len(d) // 2:]
        counts = np.full(half.size, 2.0)
        counts[0] = 1.0
        with np.errstate(divide="ignore"):
            log_sum = log_power_sum_of_logs(np.log(half), alpha, counts)
    if log_sum == -math.inf:
        return -math.log(d.max_weight)
    return log_sum / (1.0 - alpha)


def ref_h2_hinf_identity_check(x) -> CheckReport:
    """h2_hinf_identity_check read off ref_difference."""
    s = as_subject(x)
    d = ref_difference(s.pmf)
    lhs = renyi(s, 2.0)
    rhs = renyi(d, math.inf)
    err = abs(lhs - rhs)
    tol = 1e-12 * max(1.0, abs(lhs))
    return from_margin("h2_hinf_identity", lhs, rhs, tol - err, 0.0,
                       {"abs_error": err, "mode_slack": d.pmf(0) - d.max_weight})


def ref_epi_reversal_check(x, alpha: float) -> CheckReport:
    """epi_reversal_check read off ref_difference."""
    s = as_subject(x)
    lhs = ref_difference_renyi(ref_difference(s.pmf), alpha)
    rhs = renyi(s, alpha) + math.log(2.0)
    return from_margin("epi_reversal", lhs, rhs, rhs - lhs, 1e-10,
                       {"alpha": alpha, "log_concave": s.log_concave})


# the laws on which difference's reader must reproduce ref_difference:
# both families over the lambda sweep, at the default tail_tol, at the
# least subnormal and at 1e-300 (where the masses reach the subnormal range
# and the end lags round to 0 and are trimmed), and at 1e-12 (where the
# total of X - Y misses 1 by more than normalize's tolerance and the law is
# rescaled); lambda 0.9999 at two of them
DIFFERENCE_LAWS = [(kind, lam, tol) for kind in LawKind
                   for lam in (1e-20, 0.1, 0.5, 0.9, 0.99, 0.999)
                   for tol in (1e-15, 5e-324, 1e-300, 1e-12)]
DIFFERENCE_LAWS += [(kind, 0.9999, tol) for kind in LawKind for tol in (1e-15, 1e-12)]
# explicit supports: one atom, the direct path (up to 2,000 atoms), the
# transform on either side of one pairwise leaf (2n - 1 = _LEAF - 1 and
# _LEAF + 1 at 3,968 and 3,969 atoms; 2n - 1 is odd, _LEAF even), two leaves, and laws whose first split falls at
# lag 0 (n - 1 a multiple of 8)
DIFFERENCE_SIZES = (1, 2, 100, 2_000, 2_001, 3_968, 3_969, 7_936, 7_937, 8_001, 40_001)


def difference_law_id(case) -> str:
    kind, lam, tol = case
    return f"{kind.value}-{lam!r}-{tol!r}"


def explicit_decreasing(n: int) -> LatticePMF:
    """A decreasing log-concave pmf of n atoms, log-weights -3 i/n - (i/n)**2,
    with no record of a law."""
    i = np.arange(n, dtype=np.float64)
    return normalize(np.exp(-3.0 * i / n - (i / n) ** 2))


def lag_tail_underflow() -> LatticePMF:
    """Raw weights whose largest lags are subnormal and whose X - Y totals
    about 2.5e13: normalize's division takes those lags to 0, so the law is
    trimmed after it is rescaled."""
    w = np.full(5_000, 1_000.0)
    w[0] = w[-1] = 1e-160
    w[1] = w[-2] = 1e-158
    return LatticePMF(0, w)


def scalar_geometric_level_count(z, t: float) -> int:
    """#{k >= 0 : z_k > t}: log estimate, then settle rounding one step at a time."""
    if t >= z.coeff:
        return 0
    m = max(0, int(math.floor(math.log(t / z.coeff) / math.log(z.ratio))) - 2)
    while z.value(m) > t:
        m += 1
    while m > 0 and z.value(m - 1) <= t:
        m -= 1
    return m


def scalar_crossing_verify(x: LatticePMF, z, n_samples: int = 0) -> CheckReport:
    """crossing_verify's report, built by a per-threshold loop."""
    result = crossing_interval(x, z)
    w = x.weights
    f_x = level_count(x)

    lowest = max(min(float(w[w > 0].min()), result.lo) / 4.0, 1e-300)
    zv = z.value(np.arange(len(w) + 8))
    points = np.concatenate((f_x.breakpoints, zv[zv >= lowest],
                             [result.lo, result.hi]))
    points = np.unique(points[points > 0.0])
    mids = (points[:-1] + points[1:]) / 2.0
    ts = np.unique(np.concatenate((points, mids)))
    if n_samples > 0:
        extra = np.geomspace(ts[0], ts[-1], n_samples)
        ts = np.unique(np.concatenate((ts, extra)))

    worst = math.inf
    worst_t = math.nan
    worst_counts = (0, 0)
    ok = True
    for t in ts:
        fz = scalar_geometric_level_count(z, float(t))
        fx = int(f_x(float(t)))
        slack = (fx - fz) if result.lo <= t < result.hi else (fz - fx)
        if slack < worst:
            worst, worst_t, worst_counts = slack, float(t), (fz, fx)
        if slack < 0:
            ok = False
    params = {"a": result.first_index, "b": result.last_index,
              "interval_lo": result.lo, "interval_hi": result.hi,
              "thresholds": int(ts.size), "worst_t": worst_t}
    return CheckReport("crossing_pattern", float(worst_counts[0]),
                       float(worst_counts[1]), float(worst),
                       "pass" if ok else "fail", params)


def crossing_union(x, z) -> np.ndarray:
    """The sorted distinct thresholds crossing_verify probes: the level
    count's breakpoints, the comparator values from lowest up and the
    interval's edges."""
    s = as_subject(x)
    result = crossing_interval(s, z)
    w = s.pmf.weights
    lowest = max(min(float(w.min()), result.lo) / 4.0, 1e-300)
    zv = z.value(np.arange(len(w) + 8))
    return level_steps(np.concatenate(
        (level_count(s).breakpoints, zv[zv >= lowest], [result.lo, result.hi])))[0]


def ref_crossing_verify(x, z) -> CheckReport:
    """crossing_verify's report from the sorted union of its thresholds,
    with F_z from the settle loop of z.level_count and F_x by lookup at
    every threshold of the union."""
    s = as_subject(x)
    result = crossing_interval(s, z)
    f_x = level_count(s)
    ts = crossing_union(s, z)
    fz = z.level_count(ts)
    fx = f_x(ts)
    inside = (result.lo <= ts) & (ts < result.hi)
    slack = np.where(inside, fx - fz, fz - fx)
    j = int(np.argmin(slack))  # first occurrence of the worst slack
    params = {"a": result.first_index, "b": result.last_index,
              "interval_lo": result.lo, "interval_hi": result.hi,
              "thresholds": int(ts.size), "worst_t": float(ts[j])}
    return from_margin("crossing_pattern", fz[j], fx[j], slack[j], 0.0, params)


def scalar_fold_violation(x: LatticePMF) -> int:
    """fold_symmetric's max_violation, built by a per-threshold loop."""
    center_idx = int(symmetry_center(x)) - x.offset
    center_mass = float(x.weights[center_idx])
    full = ref_level_count(x.weights)
    half = ref_level_count(x.weights[center_idx:])
    points = np.concatenate((full.breakpoints, half.breakpoints))
    points = np.unique(points[points > 0.0])
    mids = (points[:-1] + points[1:]) / 2.0
    ts = np.concatenate((points, mids, [min(center_mass, points[0]) / 2.0]))
    worst = 0
    for t in ts:
        if t >= center_mass:
            continue
        gap = abs(int(full(float(t))) - (2 * int(half(float(t))) - 1))
        worst = max(worst, gap)
    return worst


def ref_level_count(values) -> LevelCount:
    """F of the positive values: their distinct values and multiplicities
    from np.unique."""
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[vals > 0.0]
    uniq, mult = np.unique(vals, return_counts=True)
    counts = np.concatenate(([vals.size], vals.size - np.cumsum(mult)))
    return LevelCount(uniq, counts.astype(np.int64))


def ref_hinge_grid(u, v) -> np.ndarray:
    """Zero, the non-negative breakpoints of u and v and the midpoints of
    consecutive ones, from np.unique and np.union1d."""
    points = np.concatenate((u.breakpoints, v.breakpoints))
    points = np.unique(points[points >= 0.0])
    return np.union1d([0.0], np.concatenate((points, (points[:-1] + points[1:]) / 2.0)))


def segment_tuples(f: LevelCount) -> list[tuple[float, float, int]]:
    """f.segments() as one (lo, hi, count) triple per piece."""
    edges, counts = f.segments()
    return [(float(edges[j]), float(edges[j + 1]), int(counts[j]))
            for j in range(counts.size)]


def loop_hinge_expectation(d, t: float) -> float:
    """E[(U - t)+] for a step density, or E[(U**p - t)+] for a power
    density, summed one segment at a time."""
    if isinstance(d, LevelCount):
        total = 0.0
        for lo, hi, c in segment_tuples(d):
            a = max(lo - t, 0.0)
            b = max(hi - t, 0.0)
            total += c * (b * b - a * a) / 2.0
        return total
    p = d.exponent
    cut = t ** (1.0 / p) if t > 0.0 else 0.0
    total = 0.0
    for lo, hi, c in segment_tuples(d.base):
        m = max(lo, cut)
        if hi <= m:
            continue
        total += c * ((hi ** (p + 1.0) - m ** (p + 1.0)) / (p + 1.0)
                      - t * (hi - m))
    return total


def loop_mean(d) -> float:
    """Mean of a step density (p = 1) or of a power density, per segment."""
    base, p = (d, 1.0) if isinstance(d, LevelCount) else (d.base, d.exponent)
    return sum(c * (hi ** (p + 1.0) - lo ** (p + 1.0)) / (p + 1.0)
               for lo, hi, c in segment_tuples(base))


def loop_convex_order_check(u, v, hinge_grid=None, mean_tol: float = MEAN_TOL,
                            hinge_tol: float = HINGE_TOL) -> CheckReport:
    """convex_order_check's report, built by a per-hinge loop."""
    mu_u, mu_v = loop_mean(u), loop_mean(v)
    if abs(mu_u - mu_v) > mean_tol * max(1.0, abs(mu_u)):
        raise MeanMismatchError(f"means differ: {mu_u} vs {mu_v}")
    ts = (np.asarray(hinge_grid, dtype=np.float64) if hinge_grid is not None
          else _default_hinge_grid(u, v))
    worst = math.inf
    worst_t = math.nan
    worst_pair = (math.nan, math.nan)
    for t in ts:
        ev = loop_hinge_expectation(v, float(t))
        eu = loop_hinge_expectation(u, float(t))
        if ev - eu < worst:
            worst, worst_t, worst_pair = ev - eu, float(t), (ev, eu)
    return from_margin("convex_order", worst_pair[0], worst_pair[1], worst,
                       hinge_tol, {"hinges": int(ts.size), "worst_t": worst_t,
                                   "mean": mu_u})


def loop_cake_layer_check(x: LatticePMF, t: float) -> CheckReport:
    """cake_layer_check's report, with the right side summed one segment
    at a time."""
    lhs = power_sum(x, t)
    rhs = sum(c * (hi**t - lo**t) for lo, hi, c in segment_tuples(level_count(x)))
    err = abs(lhs - rhs)
    tol = 1e-12 * max(1.0, lhs)
    return from_margin("cake_layer", lhs, rhs, tol - err, 0.0,
                       {"t": t, "abs_error": err})


def ref_cake_layer_rhs(x, t: float) -> float:
    """cake_layer_check's right side over the pieces in one buffer: every
    edge to the power t, the pieces c_k (e_{k+1}**t - e_k**t) and one
    running sum over all of them, left to right."""
    edges, c = level_count(as_subject(x)).segments()
    edges **= t
    pieces = edges[1:] - edges[:-1]
    pieces *= c
    return float(np.cumsum(pieces, out=pieces)[-1])


def _ref_lambda(lam: float) -> float:
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise BadLambdaError(f"law parameter must lie in (0, 1), got {lam}")
    return lam


def _ref_order(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 0.0:
        raise BadOrdersError(f"Renyi order must be >= 0, got {p}")
    return p


def ref_log_power_sum_geometric(lam: float, p: float) -> float:
    lam = _ref_lambda(lam)
    return p * math.log1p(-lam) - math.log(-math.expm1(p * math.log(lam)))


def ref_power_sum_geometric(lam: float, p: float) -> float:
    return math.exp(ref_log_power_sum_geometric(lam, p))


def ref_log_power_sum_symmetric_geometric(lam: float, p: float) -> float:
    lam = _ref_lambda(lam)
    lam_p = math.exp(p * math.log(lam))
    return (p * (math.log1p(-lam) - math.log1p(lam))
            + math.log1p(lam_p) - math.log(-math.expm1(p * math.log(lam))))


def ref_power_sum_symmetric_geometric(lam: float, p: float) -> float:
    return math.exp(ref_log_power_sum_symmetric_geometric(lam, p))


def ref_renyi_geometric(lam: float, p: float) -> float:
    lam = _ref_lambda(lam)
    p = _ref_order(p)
    if p == 0.0:
        return math.inf
    if math.isinf(p):
        return -math.log1p(-lam)
    if p == 1.0:
        return -math.log1p(-lam) - lam * math.log(lam) / (1.0 - lam)
    return ref_log_power_sum_geometric(lam, p) / (1.0 - p)


def ref_renyi_symmetric_geometric(lam: float, p: float) -> float:
    lam = _ref_lambda(lam)
    p = _ref_order(p)
    if p == 0.0:
        return math.inf
    log_c = math.log1p(-lam) - math.log1p(lam)
    if math.isinf(p):
        return -log_c
    if p == 1.0:
        return -log_c - 2.0 * lam * math.log(lam) / ((1.0 - lam) * (1.0 + lam))
    return ref_log_power_sum_symmetric_geometric(lam, p) / (1.0 - p)


def ref_varentropy_geometric(lam: float) -> float:
    lam = _ref_lambda(lam)
    return lam * math.log(lam) ** 2 / (1.0 - lam) ** 2


def ref_varentropy_symmetric_geometric(lam: float) -> float:
    lam = _ref_lambda(lam)
    e_abs = 2.0 * lam / ((1.0 - lam) * (1.0 + lam))
    e_sq = 2.0 * lam / (1.0 - lam) ** 2
    return math.log(lam) ** 2 * (e_sq - e_abs * e_abs)


def tilt(x: LatticePMF, alpha: float) -> LatticePMF:
    """Exponential tilt: pmf proportional to x_i**alpha, alpha > 0.

    A product alpha * log x_i below the float range is -inf, its limit;
    when every product is, the tilt is its alpha -> inf limit, the uniform
    law on the largest masses."""
    if not alpha > 0.0:
        raise ValueError(f"tilt exponent must be positive, got {alpha}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = alpha * np.log(x.weights)  # inf * log 1 is NaN
    finite = s[np.isfinite(s)]
    if finite.size == 0:
        return normalize(x.weights == x.max_weight, x.offset)
    m = float(finite.max())
    with np.errstate(invalid="ignore"):
        w = np.exp(s - m)  # exp(-inf) = 0 keeps zero-mass indices at zero
    return normalize(w, x.offset)


def ref_K_constant(x: LatticePMF) -> float:
    """max over DEFAULT_ALPHA_GRID of the varentropy of the tilt of x by a."""
    return max(varentropy(tilt(x, float(a))) for a in DEFAULT_ALPHA_GRID)


def mp_phi_rows(logs: np.ndarray, ts) -> tuple[list[float], list[float], list[float]]:
    """(phi, phi'', tilted variance) at each t, in 40-digit arithmetic on the
    float log-masses taken as exact."""
    import mpmath

    with mpmath.workdps(40):
        logs_mp = [mpmath.mpf(float(v)) for v in logs]
        top = max(logs_mp)
        phi_vals, phi2_vals, var_vals = [], [], []
        for t in ts:
            t = mpmath.mpf(float(t))
            weights = [mpmath.exp(t * (v - top)) for v in logs_mp]
            total = mpmath.fsum(weights)
            mean = mpmath.fsum(w * v for w, v in zip(weights, logs_mp)) / total
            var = mpmath.fsum(w * (v - mean) ** 2 for w, v in zip(weights, logs_mp)) / total
            phi_vals.append(float(mpmath.log(t) + t * top + mpmath.log(total)))
            phi2_vals.append(float(var - 1 / t**2))
            var_vals.append(float(var))
    return phi_vals, phi2_vals, var_vals


EPS = 2.0**-53  # unit roundoff
TINY = 5e-324  # the absolute error of a product or sum that underflows


def positive(x: LatticePMF) -> np.ndarray:
    """The positive masses of x, in the order of its atoms."""
    w = x.weights
    return w[w > 0.0]


def _mp_atoms(x: LatticePMF):
    """The positive masses of x and their logs, as exact 40-digit numbers."""
    import mpmath

    w = [mpmath.mpf(float(v)) for v in positive(x)]
    return w, [mpmath.log(v) for v in w]


def mp_shannon(x: LatticePMF) -> tuple[float, float]:
    """(H, bound): -sum w log w over the atoms in 40 digits, and the forward
    error bound of the mass table's sum of k = #distinct masses terms.

    Each term m v log v carries the log's error (at most 2 eps relative),
    its two products (eps each) and the pairwise sum of terms of one sign
    ((k - 1) eps), so it is within (k + 5) eps H, plus k TINY for terms
    that underflow."""
    import mpmath

    with mpmath.workdps(40):
        w, logs = _mp_atoms(x)
        h = -mpmath.fsum(v * lv for v, lv in zip(w, logs))
        k = len(set(positive(x).tolist()))
        return float(h), float((k + 5) * EPS * abs(h) + k * TINY)


def mp_varentropy(x: LatticePMF) -> tuple[float, float]:
    """(V, bound): the library's two-pass expression in 40 digits, from the
    depths d = log w - log max w, V = sum w (d - c)**2 with c = sum w d,
    and its forward error bound.

    A computed depth is off by at most 2 eps (|log w| + |log max w|) +
    eps |d| <= 5 eps L, L = max |log w|; the mean c by (k + 3) eps L more,
    so each deviation u = d - c is off by at most du = (k + 15) eps L. Then
    sum w u**2 moves by at most 2 sqrt(V) du + du**2 (Cauchy-Schwarz), and
    its k products and pairwise sum by (k + 5) eps V."""
    import mpmath

    with mpmath.workdps(40):
        w, logs = _mp_atoms(x)
        top = max(logs)
        depths = [lv - top for lv in logs]
        c = mpmath.fsum(v * d for v, d in zip(w, depths))
        v_exact = mpmath.fsum(v * (d - c) ** 2 for v, d in zip(w, depths))
        k = len(set(positive(x).tolist()))
        du = (k + 15) * EPS * float(max(abs(lv) for lv in logs))
        bound = 2.0 * math.sqrt(float(v_exact)) * du + du * du + (k + 5) * EPS * float(v_exact)
        return float(v_exact), bound + k * TINY


def mp_log_power_sum(x: LatticePMF, t: float) -> tuple[float, float]:
    """(log S_t, bound): log sum w**t over the atoms in 40 digits, and the
    forward error bound of the mass table's sum anchored at the largest
    mass v_0.

    A term exp(t (log v - log v_0)) is off relatively by at most
    3 eps t (|log v| + |log v_0|) (the logs and the products t log v) +
    eps t |log v - log v_0| (the shift) + 3 eps (exp and the count); the
    sum adds (k - 1) eps of itself and k TINY for terms that underflow, and
    log S_t = t log v_0 + log(sum) adds 3 eps t |log v_0| and eps for each
    of its two terms."""
    import mpmath

    with mpmath.workdps(40):
        w, logs = _mp_atoms(x)
        t_mp, top = mpmath.mpf(t), max(logs)
        terms = [mpmath.exp(t_mp * (lv - top)) for lv in logs]
        total = mpmath.fsum(terms)
        exact = t_mp * top + mpmath.log(total)
        k = len(set(positive(x).tolist()))
        term_err = mpmath.fsum(
            e * (3 * EPS * t_mp * (abs(lv) + abs(top)) + EPS * t_mp * abs(lv - top) + 3 * EPS)
            for e, lv in zip(terms, logs))
        bound = ((term_err + k * TINY) / total + (k + 1) * EPS
                 + 3 * EPS * t_mp * abs(top) + EPS * (abs(exact) + abs(mpmath.log(total))))
        return float(exact), float(bound)


def ref_is_log_concave(x: LatticePMF) -> bool:
    w = x.weights
    if not w.all():
        return False
    if w.size <= 2:
        return True
    logw = np.log(w)
    mid = 2.0 * logw[1:-1]
    outer = logw[:-2] + logw[2:]
    scale = np.maximum(1.0, np.maximum(np.abs(mid), np.abs(outer)))
    return bool(np.all(mid - outer >= -1e-12 * scale))


def ref_symmetry_center(x: LatticePMF) -> float | None:
    w = x.weights
    if not np.all(np.abs(w - w[::-1]) <= 1e-12):
        return None
    return x.offset + (len(w) - 1) / 2.0


_SCAN_RATIOS = 99  # peak ratios mu tried per half-width


def scan_symmetric_peaks(half_widths=(1, 2, 3)) -> tuple[LatticePMF, float, float]:
    """Search symmetric log-affine peaks for a point where phi is convex.

    Candidates have weights proportional to mu**|n| for |n| <= k, with
    _SCAN_RATIOS values of mu in [0.01, 0.9]; they are log-concave and
    non-monotone. phi'' is evaluated on check_concavity's grid, and the
    scan returns the pmf, t, and phi''(t) of the largest curvature found.
    Half-width 1 (three atoms) can never produce a violation: with only
    two distinct log-masses the tilted variance satisfies
    t**2 Var <= max_s s**2 2 e**-s / (1 + 2 e**-s)**2, which stays below
    0.77. From half-width 2 on, violations exist.
    """
    ts = np.geomspace(DEFAULT_T_MIN, DEFAULT_T_MAX, DEFAULT_N_POINTS)
    best_val = -math.inf
    best_pmf = None
    best_t = math.nan
    for k in half_widths:
        if k < 1:
            raise ValueError("half-width must be at least 1")
        abs_n = np.abs(np.arange(-k, k + 1))
        for mu in np.linspace(0.01, 0.9, _SCAN_RATIOS):
            pmf = normalize(mu ** abs_n.astype(np.float64), -k)
            phi2_vals = phi_second_derivative(pmf, ts)
            j = int(np.argmax(phi2_vals))
            if phi2_vals[j] > best_val:
                best_val = float(phi2_vals[j])
                best_pmf = pmf
                best_t = float(ts[j])
    return best_pmf, best_t, best_val
