import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclc import entropy
from lclc.entropy import (
    info_content,
    info_summary,
    log_power_sum,
    power_sum,
    power_sum_geometric,
    renyi,
    renyi_geometric,
    renyi_symmetric_geometric,
    tilt,
    varentropy,
    varentropy_geometric,
    varentropy_symmetric_geometric,
)
from lclc.errors import BadLambdaError, BadOrdersError, OutOfSupportError
from lclc.lattice import LatticePMF, ParametricLaw, materialize, normalize
from support import random_monotone_log_concave, random_pmf

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
        assert power_sum_geometric(0.5, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
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
        assert renyi_geometric(0.5, INF) == pytest.approx(math.log(2.0), rel=1e-14)
        assert renyi_geometric(0.5, 2.0) == pytest.approx(math.log(3.0), rel=1e-14)
        assert renyi_geometric(0.5, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_order_zero_is_infinite(self):
        assert renyi_geometric(0.5, 0.0) == INF
        assert renyi_symmetric_geometric(0.5, 0.0) == INF

    def test_bad_lambda(self):
        with pytest.raises(BadLambdaError):
            renyi_geometric(1.0, 2.0)

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_truncated_matches_closed_form(self, lam):
        x = materialize(ParametricLaw.geometric(lam), 1e-15)
        for p in (1.0, 2.0, 5.0, INF):
            assert renyi(x, p) == pytest.approx(renyi_geometric(lam, p), abs=1e-9)
        # p < 1 converges slower: the truncated tail of the p-th power sum
        # is of order lam**((n_max+1) p), well above the tail tolerance
        assert renyi(x, 0.5) == pytest.approx(renyi_geometric(lam, 0.5), abs=5e-7)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_symmetric_truncated_matches_closed_form(self, lam):
        z = materialize(ParametricLaw.symmetric_geometric(lam), 1e-15)
        for p in (1.0, 2.0, 5.0, INF):
            assert renyi(z, p) == pytest.approx(
                renyi_symmetric_geometric(lam, p), abs=1e-9)
        assert renyi(z, 0.5) == pytest.approx(
            renyi_symmetric_geometric(lam, 0.5), abs=5e-7)


class TestVarentropy:
    def test_uniform_and_dirac_are_zero(self):
        assert varentropy(normalize(np.ones(5))) == 0.0
        assert varentropy(normalize([1.0])) == 0.0

    def test_geometric_closed_form(self):
        x = materialize(ParametricLaw.geometric(0.5))
        expected = 2.0 * math.log(2.0) ** 2
        assert varentropy_geometric(0.5) == pytest.approx(expected, rel=1e-14)
        assert varentropy(x) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_geometric_closed_form_matches_summation(self, lam):
        x = materialize(ParametricLaw.geometric(lam), 1e-15)
        assert varentropy(x) == pytest.approx(varentropy_geometric(lam), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.2, 0.3, 0.5, 0.7, 0.9])
    def test_symmetric_closed_form_matches_summation(self, lam):
        z = materialize(ParametricLaw.symmetric_geometric(lam), 1e-15)
        assert varentropy(z) == pytest.approx(
            varentropy_symmetric_geometric(lam), abs=1e-9)

    def test_symmetric_dirac_limit(self):
        assert varentropy_symmetric_geometric(1e-8) == pytest.approx(0.0, abs=1e-4)

    def test_geometric_bound_sharp_but_strict(self):
        lams = np.linspace(0.01, 0.999, 500)
        values = [varentropy_geometric(l) for l in lams]
        assert max(values) < 1.0
        assert varentropy_geometric(0.999) > 0.999

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


class TestInfoContent:
    def test_uniform(self):
        x = normalize(np.ones(8))
        assert info_content(x, 3) == pytest.approx(math.log(8.0))

    def test_dirac(self):
        assert info_content(normalize([1.0], 0), 0) == 0.0

    def test_geometric(self):
        x = materialize(ParametricLaw.geometric(0.5))
        assert info_content(x, 2) == pytest.approx(3.0 * math.log(2.0), abs=1e-12)

    def test_outside_support_raises(self):
        x = normalize([1, 1], 0)
        with pytest.raises(OutOfSupportError):
            info_content(x, 5)
        holey = LatticePMF(0, np.array([0.5, 0.0, 0.5]))
        with pytest.raises(OutOfSupportError):
            info_content(holey, 1)


def test_info_summary_invariants():
    rng = np.random.default_rng(9)
    for _ in range(100):
        summary = info_summary(random_pmf(rng))
        assert summary.min_entropy <= summary.shannon + 1e-12
        assert summary.varentropy >= 0.0
