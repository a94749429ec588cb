import math

import numpy as np
import pytest

from lclc.entropy import (
    renyi,
    renyi_geometric,
    renyi_symmetric_geometric,
    varentropy,
    varentropy_symmetric_geometric,
)
from lclc.errors import BadOrdersError, NotMonotoneLogConcaveError, UnclassifiedError
from lclc.inequalities import (
    C_constant,
    K_constant,
    Side,
    check_concentration,
    check_renyi_gap,
    check_varentropy,
    concentration_bound,
    empirical_tail,
    epi_reversal_check,
    gap_constant,
    h2_hinf_identity_check,
    mean_mode_check,
    rate_r,
    sup_varentropy_symmetric,
)
from lclc.lattice import ParametricLaw, materialize, normalize
from support import (
    random_half_integer_symmetric,
    random_log_concave,
    random_monotone_log_concave,
    random_pmf,
    random_symmetric_log_concave,
)

INF = math.inf


class TestGapConstant:
    def test_reference_values(self):
        assert gap_constant(INF, 1.0) == pytest.approx(-1.0)
        assert gap_constant(2.0, 2.0) == 0.0
        assert gap_constant(2.0, 1.0) == pytest.approx(math.log(2.0) - 1.0)

    def test_antisymmetry(self):
        for p, q in ((2.0, 0.5), (3.0, 1.0), (INF, 2.0)):
            assert gap_constant(p, q) == pytest.approx(-gap_constant(q, p), abs=1e-15)

    def test_continuity_at_one(self):
        assert abs(gap_constant(1.0 + 1e-6, 1.0)) < 1e-5

    def test_rejects_non_positive_orders(self):
        with pytest.raises(BadOrdersError):
            gap_constant(2.0, 0.0)


class TestRenyiGap:
    def test_sharpness_near_one(self):
        margin = (renyi_geometric(0.9, 3.0) - renyi_geometric(0.9, 1.5)
                  - gap_constant(3.0, 1.5))
        assert 0.0 < margin < 0.05

    def test_dirac(self):
        report = check_renyi_gap(normalize([1.0]), 3.0, 1.5)
        assert report.passed and report.margin > 0.0

    def test_three_atom_min_entropy_vs_shannon(self):
        x = normalize([5, 3, 2])
        report = check_renyi_gap(x, INF, 1.0)
        assert report.margin == pytest.approx(renyi(x, INF) - renyi(x, 1.0) + 1.0)
        assert report.passed

    def test_random_monotone_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = random_monotone_log_concave(rng)
            p, q = sorted(rng.uniform(0.2, 6.0, 2))[::-1]
            if p == q:
                continue
            assert check_renyi_gap(x, float(p), float(q)).passed

    def test_rejects_non_monotone(self):
        with pytest.raises(NotMonotoneLogConcaveError):
            check_renyi_gap(normalize([2, 6, 2]), 2.0, 1.0)

    def test_rejects_bad_order_pair(self):
        with pytest.raises(BadOrdersError):
            check_renyi_gap(normalize([1, 1]), 1.0, 2.0)


class TestVarentropyBound:
    def test_geometric_near_sharp(self):
        x = materialize(ParametricLaw.geometric(0.99))
        report = check_varentropy(x)
        assert report.passed and report.rhs == 1.0
        assert report.margin < 1e-3   # sharp end of the bound

    def test_uniform(self):
        report = check_varentropy(normalize(np.ones(10)))
        assert report.lhs == 0.0 and report.margin == pytest.approx(1.0)

    def test_symmetric_maximizer_is_tight_against_vs(self):
        lam_star, v_s = sup_varentropy_symmetric()
        z = materialize(ParametricLaw.symmetric_geometric(lam_star), 1e-15)
        report = check_varentropy(z)
        assert report.params["class"] == "integer_symmetric"
        assert report.passed
        assert report.margin < 1e-6

    def test_half_integer_symmetric_gets_unit_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = random_half_integer_symmetric(rng)
            report = check_varentropy(x)
            assert report.rhs == 1.0 and report.passed

    def test_unclassified_rejected(self):
        with pytest.raises(UnclassifiedError):
            check_varentropy(normalize([2, 5, 3]))
        with pytest.raises(UnclassifiedError):
            check_varentropy(normalize([0.4, 0.1, 0.4, 0.1]))


class TestSupVarentropySymmetric:
    def test_value_and_local_maximality(self):
        lam_star, v_s = sup_varentropy_symmetric()
        assert v_s == pytest.approx(1.16923, abs=1e-3)
        for eps in (1e-3, -1e-3):
            assert varentropy_symmetric_geometric(lam_star + eps) <= v_s

    def test_grid_dominance(self):
        _, v_s = sup_varentropy_symmetric()
        for lam in np.linspace(0.02, 0.98, 50):
            assert varentropy_symmetric_geometric(float(lam)) <= v_s + 1e-12
        for lam in (0.1, 0.2, 0.5):
            z = materialize(ParametricLaw.symmetric_geometric(lam))
            assert varentropy(z) <= v_s + 1e-9


class TestMeanMode:
    def test_geometric_half(self):
        # the truncated mean sits a hair below 1, so the log-affine
        # interpolation lands on f(1) = 1/4 while floor(mean) drops to 0
        x = materialize(ParametricLaw.geometric(0.5))
        report = mean_mode_check(x)
        assert report.params["mean"] == pytest.approx(1.0, abs=1e-9)
        assert report.params["interpolated"] == pytest.approx(0.25, abs=1e-9)
        assert math.e * report.params["interpolated"] >= report.rhs
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.passed

    def test_dirac_has_maximal_margin(self):
        report = mean_mode_check(normalize([1.0], 3))
        assert report.margin == pytest.approx(math.e - 1.0)

    def test_sharpness_at_integer_mean(self):
        lam = 20.0 / 21.0   # mean exactly 20 before truncation
        x = materialize(ParametricLaw.geometric(lam))
        report = mean_mode_check(x)
        ratio = math.e * report.params["interpolated"] / report.rhs
        assert 1.0 < ratio < 1.05

    def test_random_log_concave(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            assert mean_mode_check(random_log_concave(rng)).passed

    def test_rejects_non_log_concave(self):
        with pytest.raises(UnclassifiedError):
            mean_mode_check(normalize([0.4, 0.1, 0.4, 0.1]))

    @pytest.mark.parametrize("weights", [[0.2, 0.6, 0.2], [0.1, 0.4, 0.4, 0.1]])
    def test_large_offset_keeps_the_verdict(self, weights):
        # floor and ceil of the mean are taken relative to the offset, so
        # the mean's fraction is not lost in the offset's float
        near = mean_mode_check(normalize(weights, -1))
        far = mean_mode_check(normalize(weights, 10**20))
        assert near.passed and far.passed
        assert (far.lhs, far.rhs, far.margin) == (near.lhs, near.rhs, near.margin)
        assert far.params["mean"] == 1e20


class TestRate:
    def test_values(self):
        assert rate_r(0.0) == 0.0
        assert rate_r(1.0) == pytest.approx(1.0 - math.log(2.0))
        assert rate_r(-2.0) == INF
        assert rate_r(-1.0) == INF

    def test_non_negative(self):
        for t in np.linspace(-0.99, 5.0, 100):
            assert rate_r(float(t)) >= 0.0


class TestConcentrationBound:
    def test_unit_constant_forms(self):
        for t in (0.0, 0.3, 1.0, 2.5):
            assert concentration_bound(t, 1.0, Side.UPPER) == pytest.approx(
                (1 + t) * math.exp(-t), rel=1e-12)
        assert concentration_bound(1.0, 1.0, Side.LOWER) == 0.0
        assert concentration_bound(0.5, 1.0, Side.LOWER) == pytest.approx(
            0.5 * math.exp(0.5), rel=1e-12)
        assert concentration_bound(0.0, 1.0, Side.UPPER) == 1.0

    def test_general_constant_form(self):
        _, v_s = sup_varentropy_symmetric()
        expected = (1 + 2.0 / v_s) ** v_s * math.exp(-2.0)
        assert concentration_bound(2.0, v_s, "upper") == pytest.approx(expected, rel=1e-12)

    def test_upper_bound_decreasing_in_t(self):
        ts = np.linspace(0.0, 6.0, 50)
        for K in (0.5, 1.0, 1.16923):
            values = [concentration_bound(float(t), K, Side.UPPER) for t in ts]
            assert all(b1 >= b2 for b1, b2 in zip(values, values[1:]))
            assert all(0.0 < b <= 1.0 for b in values)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            concentration_bound(-0.1, 1.0, Side.UPPER)
        with pytest.raises(ValueError):
            concentration_bound(1.0, 0.0, Side.UPPER)


class TestEmpiricalTail:
    def test_uniform_and_dirac_tails_vanish(self):
        assert empirical_tail(normalize(np.ones(6)), 0.1, Side.UPPER) == 0.0
        assert empirical_tail(normalize([1.0]), 0.5, Side.LOWER) == 0.0

    def test_geometric_tails_below_bounds(self):
        x = materialize(ParametricLaw.geometric(0.9))
        for t in (0.5, 1.0, 2.0):
            for side in (Side.UPPER, Side.LOWER):
                assert (empirical_tail(x, t, side)
                        <= concentration_bound(t, 1.0, side) + 1e-12)

    def test_check_concentration_report(self):
        x = materialize(ParametricLaw.geometric(0.7))
        report = check_concentration(x, 1.0, "lower", 1.0)
        assert report.rhs == 0.0 and report.lhs == 0.0 and report.passed


class TestKConstant:
    def test_uniform_is_zero(self):
        assert K_constant(normalize(np.ones(7))) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_log_concave_below_one(self):
        rng = np.random.default_rng(44)
        grid = np.geomspace(1e-2, 1e2, 40)
        for _ in range(50):
            assert K_constant(random_monotone_log_concave(rng), grid) < 1.0

    def test_geometric_sup_approaches_one(self):
        x = materialize(ParametricLaw.geometric(0.9))
        value = K_constant(x)
        assert 0.9 < value < 1.0


class TestEpiReversal:
    def test_dirac(self):
        assert epi_reversal_check(normalize([1.0]), 2.0).passed

    def test_three_atoms(self):
        report = epi_reversal_check(normalize([5, 3, 2]), 2.0)
        assert report.passed and report.margin > 0.0

    def test_sharpness_via_closed_forms(self):
        lam = 0.999
        diff = renyi_symmetric_geometric(lam, 2.0) - renyi_geometric(lam, 2.0)
        assert math.log(2.0) - 0.01 < diff <= math.log(2.0)

    def test_materialized_geometric_across_orders(self):
        x = materialize(ParametricLaw.geometric(0.9))
        for alpha in (2.0, 3.0, INF):
            assert epi_reversal_check(x, alpha).passed

    def test_validates_order(self):
        with pytest.raises(BadOrdersError):
            epi_reversal_check(normalize([1, 1]), 1.5)

    def test_rejects_non_monotone(self):
        with pytest.raises(NotMonotoneLogConcaveError):
            epi_reversal_check(normalize([2, 6, 2]), 2.0)


class TestOrderTwoIdentity:
    def test_fair_coin(self):
        report = h2_hinf_identity_check(normalize([1, 1]))
        assert report.lhs == pytest.approx(math.log(2.0))
        assert report.rhs == pytest.approx(math.log(2.0))
        assert report.passed

    def test_dirac(self):
        report = h2_hinf_identity_check(normalize([1.0], 9))
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed

    def test_arbitrary_pmfs(self):
        rng = np.random.default_rng(45)
        for _ in range(300):
            report = h2_hinf_identity_check(random_pmf(rng))
            assert report.params["abs_error"] <= 1e-12
            assert report.params["mode_slack"] >= -1e-15


class TestCConstant:
    def test_equal_orders(self):
        assert C_constant(2.0, 2.0) == 0.0

    def test_shannon_vs_min_entropy(self):
        c = C_constant(1.0, INF)
        assert 0.9 < c <= 1.0 + 1e-9
        rng = np.random.default_rng(46)
        for _ in range(50):
            x = random_symmetric_log_concave(rng, max_half=15)
            assert renyi(x, 1.0) - renyi(x, INF) <= c + 1e-9

    def test_dominates_interior_grid_point(self):
        c = C_constant(1.0, 2.0)
        probe = (renyi_symmetric_geometric(0.5, 1.0)
                 - renyi_symmetric_geometric(0.5, 2.0))
        assert c >= probe - 1e-12

    def test_bound_on_random_symmetric_instances(self):
        c = C_constant(1.0, 2.0)
        rng = np.random.default_rng(47)
        for _ in range(50):
            x = random_symmetric_log_concave(rng, max_half=15)
            assert renyi(x, 1.0) - renyi(x, 2.0) <= c + 1e-9

    def test_rejects_bad_pairs(self):
        with pytest.raises(BadOrdersError):
            C_constant(2.0, 1.0)
        with pytest.raises(BadOrdersError):
            C_constant(0.0, 1.0)
