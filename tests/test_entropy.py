import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lclc import entropy, inequalities
from lclc.entropy import log_power_sum, power_sum, renyi, shannon, varentropy
from lclc.errors import BadLambdaError, BadOrdersError
from lclc.inequalities import Side, empirical_tail
from lclc.lattice import (LatticePMF, LawKind, ParametricLaw, Subject, check_order, materialize,
                          normalize)
import support
from support import random_monotone_log_concave, random_pmf, tilt

INF = math.inf


@st.composite
def pmfs(draw, max_n=20):
    n = draw(st.integers(1, max_n))
    logs = draw(st.lists(st.floats(-15.0, 0.0), min_size=n, max_size=n))
    return normalize(np.exp(np.asarray(logs)))


class TestPowerSum:
    def test_normalization_at_t_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert power_sum(random_pmf(rng), 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_fair_coin_at_two(self):
        assert power_sum(normalize([1, 1]), 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_geometric_closed_form(self):
        # sum of ((1-lam) lam^n)^2 is a geometric series with ratio lam^2
        assert math.exp(LawKind.GEOMETRIC.log_power_sum(0.5, 2.0)) == pytest.approx(
            1.0 / 3.0, rel=1e-14)
        x = materialize(ParametricLaw.geometric(0.5))
        assert power_sum(x, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            power_sum(normalize([1, 1]), 0.0)


class TestRenyi:
    def test_uniform_is_log_n(self):
        x = normalize(np.ones(8))
        for p in (0.0, 0.5, 1.0, 2.0, 7.0, INF):
            assert renyi(x, p) == pytest.approx(math.log(8), abs=1e-12)

    def test_dirac_is_zero(self):
        for p in (0.0, 0.5, 1.0, 3.0, INF):
            assert renyi(normalize([1.0], 4), p) == 0.0

    def test_min_entropy(self):
        assert renyi(normalize([5, 3, 2]), INF) == pytest.approx(math.log(2.0))

    def test_order_zero_counts_support(self):
        assert renyi(normalize([5, 3, 2]), 0.0) == pytest.approx(math.log(3.0))

    def test_rejects_negative_order(self):
        with pytest.raises(BadOrdersError):
            renyi(normalize([1, 1]), -0.5)

    def test_underflowing_power_sum_takes_the_limit(self):
        # t * log x_i overflows to -inf at these orders: the power sum's
        # log is -inf and H_p is its p -> inf limit, -log max x, silently
        uniform = normalize(np.ones(10))
        peaked = normalize([1.5] + [1.0] * 9)  # every mass below exp(-1.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_power_sum(uniform, 1e308) == -INF
            assert renyi(uniform, 1e308) == -math.log(0.1)
            assert renyi(peaked, 1e308) == -math.log(peaked.max_weight)
            # some products overflow, the largest does not
            assert math.isfinite(log_power_sum(normalize([0.9, 1e-300]), 1e306))

    @settings(max_examples=60, deadline=None)
    @given(pmfs(), st.floats(0.1, 8.0), st.floats(0.1, 8.0))
    def test_monotone_decreasing_in_order(self, x, a, b):
        p, q = max(a, b), min(a, b)
        assert renyi(x, p) <= renyi(x, q) + 1e-11


class TestGeometricClosedForms:
    def test_examples_at_half(self):
        assert LawKind.GEOMETRIC.renyi(0.5, INF) == pytest.approx(math.log(2.0), rel=1e-14)
        assert LawKind.GEOMETRIC.renyi(0.5, 2.0) == pytest.approx(math.log(3.0), rel=1e-14)
        assert LawKind.GEOMETRIC.renyi(0.5, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_order_zero_is_infinite(self):
        assert LawKind.GEOMETRIC.renyi(0.5, 0.0) == INF
        assert LawKind.SYMMETRIC_GEOMETRIC.renyi(0.5, 0.0) == INF

    def test_bad_lambda(self):
        # the closed forms and the law refuse a parameter with one message
        message = r"^law parameter must lie in \(0, 1\), got 1\.0$"
        with pytest.raises(BadLambdaError, match=message):
            LawKind.GEOMETRIC.renyi(1.0, 2.0)
        with pytest.raises(BadLambdaError, match=message):
            ParametricLaw.geometric(1.0)

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_truncated_matches_closed_form(self, lam):
        x = materialize(ParametricLaw.geometric(lam), 1e-15)
        for p in (1.0, 2.0, 5.0, INF):
            assert renyi(x, p) == pytest.approx(LawKind.GEOMETRIC.renyi(lam, p), abs=1e-9)
        # p < 1 converges slower: the truncated tail of the p-th power sum
        # is of order lam**((n_max+1) p), well above the tail tolerance
        assert renyi(x, 0.5) == pytest.approx(LawKind.GEOMETRIC.renyi(lam, 0.5), abs=5e-7)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_symmetric_truncated_matches_closed_form(self, lam):
        z = materialize(ParametricLaw.symmetric_geometric(lam), 1e-15)
        for p in (1.0, 2.0, 5.0, INF):
            assert renyi(z, p) == pytest.approx(
                LawKind.SYMMETRIC_GEOMETRIC.renyi(lam, p), abs=1e-9)
        assert renyi(z, 0.5) == pytest.approx(
            LawKind.SYMMETRIC_GEOMETRIC.renyi(lam, 0.5), abs=5e-7)


def _outcome(fn, *args):
    """The value's bits, or the error raised with its message."""
    try:
        return fn(*args).hex()
    except Exception as exc:  # the reference must raise the same
        return type(exc), str(exc)


# each family's reference closed forms: log psi, psi, H_p and V
REFERENCES = {
    LawKind.GEOMETRIC: (
        support.ref_log_power_sum_geometric, support.ref_power_sum_geometric,
        support.ref_renyi_geometric, support.ref_varentropy_geometric),
    LawKind.SYMMETRIC_GEOMETRIC: (
        support.ref_log_power_sum_symmetric_geometric,
        support.ref_power_sum_symmetric_geometric,
        support.ref_renyi_symmetric_geometric, support.ref_varentropy_symmetric_geometric),
}


@pytest.mark.parametrize("kind", list(LawKind))
def test_law_kind_closed_forms_equal_the_references_bitwise(kind):
    ref_log_psi, ref_psi, ref_renyi, ref_varentropy = REFERENCES[kind]
    lams = list(np.random.default_rng(11).random(200)) + [
        1e-12, 1e-9, 0.5, 0.999, 0.9999, 1.0 - 1e-9]
    orders = (0.0, 1e-3, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 1e4, INF, -1.0, math.nan)
    for lam in map(float, lams):
        assert _outcome(kind.varentropy, lam) == _outcome(ref_varentropy, lam), lam
        for p in orders:
            args = (lam, p)
            assert _outcome(kind.renyi, *args) == _outcome(ref_renyi, *args), args
            if p > 0.0:
                log_psi, psi = _outcome(ref_log_psi, *args), _outcome(ref_psi, *args)
            else:
                # the references fail here (a math domain error, or NaN at
                # p = NaN); the power sum diverges at p = 0
                log_psi = psi = INF.hex() if p == 0.0 else _outcome(check_order, p)
            assert _outcome(kind.log_power_sum, *args) == log_psi, args
            assert _outcome(lambda *a: math.exp(kind.log_power_sum(*a)), *args) == psi, args


@pytest.mark.parametrize("kind", list(LawKind))
def test_law_kind_power_sums_at_subnormal_products(kind):
    """Where p log lam is subnormal or underflows to 0, log(1 - lam**p) is
    taken as log p + log(-log lam), within rounding of the 40-digit value;
    expm1 of a subnormal product keeps only its few significant bits."""
    import mpmath

    for p in (5e-324, 1e-320, 1e-310, 2e-308, 1e-300):
        for lam in (1e-12, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-12):
            with mpmath.workdps(40):
                lam_mp, p_mp = mpmath.mpf(lam), mpmath.mpf(p)
                exact = p_mp * mpmath.log1p(-lam_mp) - mpmath.log(
                    -mpmath.expm1(p_mp * mpmath.log(lam_mp)))
                if kind is LawKind.SYMMETRIC_GEOMETRIC:
                    exact += (mpmath.log1p(lam_mp ** p_mp)
                              - p_mp * mpmath.log1p(lam_mp))
            assert kind.log_power_sum(lam, p) == pytest.approx(float(exact), rel=1e-15), (p, lam)


class TestVarentropy:
    def test_uniform_and_dirac_are_zero(self):
        assert varentropy(normalize(np.ones(5))) == 0.0
        assert varentropy(normalize([1.0])) == 0.0

    def test_geometric_closed_form(self):
        x = materialize(ParametricLaw.geometric(0.5))
        expected = 2.0 * math.log(2.0) ** 2
        assert LawKind.GEOMETRIC.varentropy(0.5) == pytest.approx(expected, rel=1e-14)
        assert varentropy(x) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_geometric_closed_form_matches_summation(self, lam):
        x = materialize(ParametricLaw.geometric(lam), 1e-15)
        assert varentropy(x) == pytest.approx(LawKind.GEOMETRIC.varentropy(lam), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.2, 0.3, 0.5, 0.7, 0.9])
    def test_symmetric_closed_form_matches_summation(self, lam):
        z = materialize(ParametricLaw.symmetric_geometric(lam), 1e-15)
        assert varentropy(z) == pytest.approx(
            LawKind.SYMMETRIC_GEOMETRIC.varentropy(lam), abs=1e-9)

    def test_symmetric_dirac_limit(self):
        assert LawKind.SYMMETRIC_GEOMETRIC.varentropy(1e-8) == pytest.approx(0.0, abs=1e-4)

    def test_geometric_bound_sharp_but_strict(self):
        lams = np.linspace(0.01, 0.999, 500)
        values = [LawKind.GEOMETRIC.varentropy(l) for l in lams]
        assert max(values) < 1.0
        assert LawKind.GEOMETRIC.varentropy(0.999) > 0.999

    def test_monotone_log_concave_below_one(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            assert varentropy(random_monotone_log_concave(rng)) < 1.0

    def test_curvature_identity_with_finite_differences(self):
        # varentropy equals the second derivative of a -> log sum x_i**a at 1
        rng = np.random.default_rng(5)
        h = 1e-4
        for _ in range(50):
            x = random_pmf(rng, max_support=30)
            f = lambda a: entropy.log_power_sum(x, a)
            numeric = (f(1 + h) - 2 * f(1.0) + f(1 - h)) / (h * h)
            assert varentropy(x) == pytest.approx(numeric, abs=1e-5)


class TestTilt:
    def test_identity_tilt(self):
        x = normalize([5, 3, 2])
        np.testing.assert_allclose(tilt(x, 1.0).weights, x.weights, atol=1e-15)

    def test_squares_renormalized(self):
        t = tilt(normalize([5, 3, 2]), 2.0)
        np.testing.assert_allclose(t.weights, [25 / 38, 9 / 38, 4 / 38], atol=1e-15)

    def test_geometric_tilts_to_geometric(self):
        lam, alpha = 0.6, 2.5
        x = materialize(ParametricLaw.geometric(lam))
        tilted = tilt(x, alpha)
        expected = normalize((lam**alpha) ** np.arange(len(x), dtype=float))
        np.testing.assert_allclose(tilted.weights, expected.weights, atol=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(pmfs(), st.floats(0.2, 4.0), st.floats(0.2, 4.0))
    def test_tilt_composition(self, x, a, b):
        once = tilt(tilt(x, a), b)
        direct = tilt(x, a * b)
        np.testing.assert_allclose(once.weights, direct.weights, atol=1e-12)

    def test_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            tilt(normalize([1, 1]), 0.0)

    def test_overflowing_exponent_takes_the_limit(self):
        # every alpha * log x_i is below the float range: the tilt is its
        # alpha -> inf limit, uniform on the largest masses, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uniform = tilt(normalize(np.ones(10)), 1e308)
            peaks = tilt(normalize([0.1, 0.3, 0.3, 0.2], -2), 1e308)
            mixed = tilt(normalize([0.5, 0.3, 0.1]), 1e308)
            dirac = tilt(normalize([1.0], 4), math.inf)
        np.testing.assert_array_equal(uniform.weights, np.full(10, 0.1))
        assert peaks.offset == -1 and peaks.weights.tolist() == [0.5, 0.5]
        assert mixed.offset == 0 and mixed.weights.tolist() == [1.0]
        assert dirac.offset == 4 and dirac.weights.tolist() == [1.0]


def test_info_summary_invariants():
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = random_pmf(rng)
        assert renyi(x, INF) <= shannon(x) + 1e-12
        assert varentropy(x) >= 0.0


SUBNORMALS = st.sampled_from([5e-324, 1e-320, 1e-310, 2.2e-308])


@st.composite
def gapped_pmfs(draw, max_n=30):
    """pmfs with interior zeros and subnormal masses: weights that normalize
    rescales (whose subnormal entries may round to zero), or one unit mass
    among zeros and subnormals, which normalize keeps as they are."""
    if draw(st.booleans()):
        entries = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.just(0.0), SUBNORMALS),
                                min_size=1, max_size=max_n))
        assume(any(e > 0.0 for e in entries))
    else:
        entries = draw(st.lists(st.one_of(st.just(0.0), SUBNORMALS), max_size=max_n))
        entries.insert(draw(st.integers(0, len(entries))), 1.0)
    return normalize(entries, draw(st.integers(-5, 5)))


@st.composite
def tied_pmfs(draw, max_parts=10):
    """pmfs whose masses tie or nearly tie: plateaus of equal masses,
    interior zeros, sometimes a mirrored copy (symmetric pairs), and masses
    set one float above a neighbour after normalization, which therefore
    cannot round them together."""
    parts = draw(st.lists(st.tuples(st.floats(1e-8, 1.0), st.integers(1, 4), st.booleans()),
                          min_size=1, max_size=max_parts))
    w = []
    for v, repeat, gap in parts:
        w += [v] * repeat + [0.0] * gap
    if draw(st.booleans()):
        w = w[:0:-1] + w  # mirrored about the first entry
    x = normalize(w, draw(st.integers(-5, 5)))
    weights = x.weights.copy()
    for j in draw(st.lists(st.integers(1, 2 * len(w)), max_size=4)):
        if j < weights.size and weights[j - 1] > 0.0:
            weights[j] = np.nextafter(weights[j - 1], 1.0)
    return LatticePMF(x.offset, weights)


TABLE_PMFS = st.one_of(gapped_pmfs(), tied_pmfs())
ORDERS = (1e-320, 0.5, 2.0, 1e3, 1e308)


@settings(max_examples=200, deadline=None)
@given(TABLE_PMFS)
def test_mass_table_sums_are_within_their_rounding_bounds(x):
    # each sum over the mass table lands within the forward error bound of
    # its terms around a 40-digit sum over every atom
    s = Subject(x)
    for t in ORDERS + ORDERS:  # the second pass reads the memo
        value = log_power_sum(s, t)
        assert repr(log_power_sum(x, t)) == repr(value)  # a fresh subject
        with np.errstate(over="ignore"):
            top = t * s.mass_table.logs[0]
        if top == -INF:  # t log max x underflows: the sum takes its limit
            assert value == -INF
            continue
        exact, bound = support.mp_log_power_sum(x, t)
        assert abs(value - exact) <= bound, (t, value, exact, bound)
    exact, bound = support.mp_shannon(x)
    assert abs(shannon(s) - exact) <= bound
    exact, bound = support.mp_varentropy(x)
    assert abs(varentropy(s) - exact) <= bound


@settings(max_examples=200, deadline=None)
@given(TABLE_PMFS)
def test_tails_select_the_atoms_of_the_mask(x):
    # a tail is the slice of the mass table whose masses, with their
    # counts, are exactly the atoms the per-atom mask selects, and its sum
    # is within (k + 2) eps of theirs, for k table entries. An atom's log is
    # its mass's log in the table: numpy's log of one value can differ by
    # an ulp between a contiguous array (its SIMD loop) and a strided one
    s = Subject(x)
    h = shannon(s)
    table = s.mass_table
    counts = np.ones(table.logs.size) if table.counts is None else table.counts
    w = support.positive(x)
    log_of = dict(zip(table.masses.tolist(), table.logs.tolist()))
    logs = np.array([log_of[v] for v in w.tolist()])
    # deviations at which some atom's information content is H +- t
    boundaries = {abs(-float(lw) - h) for lw in logs}
    for t in sorted(boundaries | {0.0, 0.25, 1.0}):
        for side in Side:
            mask = logs <= -(h + t) if side is Side.UPPER else logs >= -(h - t)
            rows = inequalities._tail(table.logs[::-1], h, t, side)
            assert sorted(table.masses[rows].tolist()) == sorted(set(w[mask].tolist()))
            assert counts[rows].sum() == mask.sum()
            exact = math.fsum(w[mask])
            k = table.masses[rows].size
            assert abs(empirical_tail(s, t, side) - exact) <= (k + 2) * support.EPS * exact


@pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 4_095, 4_096, 4_097, 8_210, 37_011, 100_003,
                               entropy._LEAF - 1, entropy._LEAF, entropy._LEAF + 1,
                               2 * entropy._LEAF + 9])
def test_pairwise_sum_has_the_bits_of_one_numpy_sum(n):
    # blocks of at most _LEAF terms, added in numpy's own pairwise order,
    # keep the bits of np.sum over all the terms at once
    terms = np.random.default_rng(n).random(n)
    total = entropy.pairwise_sum(n, lambda lo, hi, out: np.copyto(out, terms[lo:hi]) or out)
    assert repr(total) == repr(float(terms.sum()))
