import math
import warnings
import tracemalloc

import numpy as np
import pytest

from lclc.entropy import varentropy
from lclc.errors import DomainError
from lclc.lattice import ParametricLaw, materialize, normalize
from lclc.lyapunov import (
    _phi_on_grid,
    check_concavity,
    counterexample_check,
    extended_phi,
    phi,
    phi_geometric,
    phi_geometric_second_derivative,
    phi_second_derivative,
    scan_symmetric_peaks,
)
from support import random_log_concave, random_monotone_log_concave, random_pmf


def _kernel_cases():
    """Log-masses of geometric 0.99 and 0.999 and of random log-concave pmfs."""
    rng = np.random.default_rng(31)
    pmfs = [materialize(ParametricLaw.geometric(lam)) for lam in (0.99, 0.999)]
    pmfs += [random_log_concave(rng, max_support=400) for _ in range(6)]
    return pmfs


class TestGridKernel:
    """_phi_on_grid is the one evaluation of phi and phi''; a row's bits
    must not depend on the rows evaluated with it."""

    ts = np.geomspace(0.05, 40.0, 256)

    @pytest.mark.parametrize("height", [1, 7, 32])
    def test_split_grid_is_bitwise(self, height):
        # 256 rows in blocks of 7 leave a ragged last block of 4
        for x in _kernel_cases():
            logs = np.log(x.positive_weights())
            whole = _phi_on_grid(logs, self.ts)
            parts = [_phi_on_grid(logs, self.ts[i:i + height])
                     for i in range(0, self.ts.size, height)]
            for k in range(2):
                np.testing.assert_array_equal(
                    np.concatenate([part[k] for part in parts]), whole[k])

    def test_scalar_calls_are_grid_rows(self):
        for x in _kernel_cases():
            phi_vals, phi2_vals = _phi_on_grid(np.log(x.positive_weights()), self.ts)
            assert [phi(x, t) for t in self.ts] == phi_vals.tolist()
            assert [phi_second_derivative(x, t) for t in self.ts] == phi2_vals.tolist()

    def test_underflowing_rows_take_the_limit(self):
        # rows whose largest t * log x is -inf read phi = -inf and tilted
        # variance 0, with no warning; the other rows keep their bits
        logs = np.log(normalize(np.ones(10)).positive_weights())
        ts = np.array([0.5, 1e308, 2.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi_vals, phi2_vals = _phi_on_grid(logs, ts)
        assert phi_vals[1] == -math.inf and phi2_vals[1] == 0.0
        assert phi_vals[3] == pytest.approx(math.log(1e300) - 1e300 * math.log(10.0))
        assert phi2_vals[3] == 0.0
        for k in (0, 2):
            alone = _phi_on_grid(logs, ts[k:k + 1])
            assert (phi_vals[k], phi2_vals[k]) == (alone[0][0], alone[1][0])

    def test_check_concavity_memory_is_bounded(self):
        x = materialize(ParametricLaw.geometric(0.9999))
        assert x.support_size == 345_371
        check_concavity(normalize([0.5, 0.5]))  # warm up outside the measurement
        tracemalloc.start()
        try:
            report = check_concavity(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.concave
        assert peak < 64 * 2**20


class TestPhi:
    def test_zero_at_one_for_probability_input(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            assert abs(phi(random_pmf(rng), 1.0)) < 1e-13

    def test_dirac(self):
        assert phi(normalize([1.0]), 2.0) == pytest.approx(math.log(2.0))

    def test_matches_geometric_closed_form(self):
        # deep truncation: the power-sum tail at exponent t decays like
        # lam**(t n_max), much slower than the mass tail when t < 1
        for lam in (0.2, 0.5, 0.8):
            x = materialize(ParametricLaw.geometric(lam), 1e-60)
            for t in (0.3, 1.0, 2.0, 7.5):
                assert phi(x, t) == pytest.approx(phi_geometric(lam, t), abs=1e-10)

    def test_scaling_covariance_on_raw_sequences(self):
        rng = np.random.default_rng(11)
        w = rng.random(12) + 0.05
        for c in (0.25, 3.0):
            for t in (0.5, 1.0, 4.0):
                assert phi(c * w, t) == pytest.approx(
                    phi(w, t) + t * math.log(c), abs=1e-10)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            phi(normalize([1, 1]), 0.0)


class TestSecondDerivative:
    def test_varentropy_identity_at_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = random_pmf(rng, max_support=40)
            assert phi_second_derivative(x, 1.0) == pytest.approx(
                varentropy(x) - 1.0, abs=1e-12)

    def test_uniform_curvature(self):
        x = normalize(np.ones(6))
        for t in (0.5, 1.0, 3.0):
            assert phi_second_derivative(x, t) == pytest.approx(-1.0 / t**2, abs=1e-13)

    def test_geometric_closed_form(self):
        value = phi_second_derivative(materialize(ParametricLaw.geometric(0.5)), 2.0)
        lam_t = 0.25
        expected = (lam_t * math.log(lam_t) ** 2 - (1 - lam_t) ** 2) / ((1 - lam_t) * 2.0) ** 2
        assert value == pytest.approx(expected, abs=1e-9)
        assert phi_geometric_second_derivative(0.5, 2.0) == pytest.approx(expected, rel=1e-13)

    def test_matches_tilted_varentropy_form(self):
        rng = np.random.default_rng(6)
        from lclc.entropy import tilt
        for _ in range(30):
            x = random_pmf(rng, max_support=30)
            for t in (0.5, 1.5, 3.0):
                via_tilt = varentropy(tilt(x, t)) / t**2 - 1.0 / t**2
                assert phi_second_derivative(x, t) == pytest.approx(via_tilt, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-4
        for _ in range(25):
            x = random_pmf(rng, max_support=30)
            for t in (0.6, 1.0, 2.5):
                numeric = (phi(x, t + h) - 2 * phi(x, t) + phi(x, t - h)) / (h * h)
                assert phi_second_derivative(x, t) == pytest.approx(numeric, abs=1e-5)


class TestCheckConcavity:
    def test_monotone_log_concave_is_concave(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            report = check_concavity(random_monotone_log_concave(rng))
            assert report.concave, report.witness

    def test_dirac_is_concave(self):
        report = check_concavity(normalize([1.0]))
        assert report.concave
        assert report.max_second_derivative < 0.0  # phi = log t

    def test_geometric_closed_form_curvature_non_positive(self):
        for lam in (0.1, 0.5, 0.9):
            for t in np.geomspace(0.05, 50, 100):
                assert phi_geometric_second_derivative(lam, float(t)) <= 0.0

    def test_local_concavity_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            x = random_monotone_log_concave(rng, max_support=40)
            for p, q in ((2.0, 1.0), (5.0, 2.0), (3.0, 0.5)):
                fp, fq = phi(x, p), phi(x, q)
                for s in np.linspace(0.1, 0.9, 9):
                    mid = phi(x, (1 - s) * p + s * q)
                    assert mid >= (1 - s) * fp + s * fq - 1e-9

    def test_grid_validation(self):
        x = normalize([1, 1])
        with pytest.raises(ValueError):
            check_concavity(x, t_min=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            check_concavity(x, n_points=2)


class TestNonMonotoneWitness:
    def test_wide_symmetric_peaks_violate_concavity(self):
        pmf, t, curvature = scan_symmetric_peaks(half_widths=(2, 3))
        assert curvature > 1e-6
        report = check_concavity(pmf)
        assert not report.concave
        assert report.witness is not None
        lo, _, hi = report.witness
        assert lo < t < hi or report.max_second_derivative > 1e-6

    def test_three_atom_peaks_never_violate(self):
        # two distinct log-masses bound the tilted variance times t^2 by
        # max_s s^2 2 e^-s / (1 + 2 e^-s)^2 < 0.77, so phi'' stays negative
        _, _, curvature = scan_symmetric_peaks(half_widths=(1,), n_ratios=99)
        assert curvature < 0.0

    def test_witness_is_log_concave_and_non_monotone(self):
        from lclc.lattice import Direction, is_log_concave, monotonicity
        pmf, _, _ = scan_symmetric_peaks(half_widths=(2,))
        assert is_log_concave(pmf)
        assert monotonicity(pmf) is Direction.NEITHER


class TestExtendedPhi:
    def test_at_zero(self):
        lam, gamma = 0.3, 1.7
        assert extended_phi((lam, 1 + lam), gamma, 0.0) == pytest.approx(
            math.log(2 * gamma), rel=1e-13)

    def test_at_gamma(self):
        lam, gamma = 0.3, 1.7
        assert extended_phi((lam, 1 + lam), gamma, gamma) == pytest.approx(
            math.log(2 * gamma * (2 * lam + 1)), rel=1e-13)

    def test_at_two_gamma(self):
        lam, gamma = 0.3, 1.7
        expected = math.log(3 * gamma * (lam**2 + (1 + lam) ** 2))
        assert extended_phi((lam, 1 + lam), gamma, 2 * gamma) == pytest.approx(
            expected, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            extended_phi((0.5, 1.5), 1.0, -1.0)
        with pytest.raises(DomainError):
            extended_phi((0.5, 1.5), 1.0, -2.0)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            extended_phi((0.0, 1.0), 1.0, 0.5)


class TestCounterexample:
    def test_reference_point(self):
        report = counterexample_check(0.1, 1.0)
        assert report.lhs == pytest.approx(4.8)
        assert report.rhs == pytest.approx(7.32)
        assert report.verdict == "violated"
        assert report.params["midpoint_gap"] < 0.0

    def test_large_lambda_still_violated(self):
        report = counterexample_check(10.0, 1.0)
        assert report.lhs == pytest.approx(84.0)
        assert report.rhs == pytest.approx(6 * (100 + 121))
        assert report.verdict == "violated"

    def test_limit_ratio(self):
        report = counterexample_check(1e-4, 1.0)
        assert report.lhs / report.rhs == pytest.approx(4.0 / 6.0, abs=1e-3)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            counterexample_check(-0.1, 1.0)
        with pytest.raises(ValueError):
            counterexample_check(0.1, 0.0)
