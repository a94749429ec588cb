import math
import sys
import tracemalloc

import numpy as np
import pytest

from lclc.entropy import renyi, shannon, varentropy
from lclc.errors import (
    BadOrdersError,
    DomainError,
    NotMonotoneLogConcaveError,
    UnclassifiedError,
)
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
from lclc.inequalities import _difference_renyi
from lclc.lattice import LawKind, ParametricLaw, Subject, materialize, normalize
from support import (
    DIFFERENCE_LAWS,
    DIFFERENCE_SIZES,
    difference_law_id,
    explicit_decreasing,
    lag_tail_underflow,
    mp_log_power_sum,
    random_half_integer_symmetric,
    random_log_concave,
    random_monotone_log_concave,
    random_pmf,
    random_symmetric_log_concave,
    ref_epi_reversal_check,
    ref_h2_hinf_identity_check,
    ref_K_constant,
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
        margin = (LawKind.GEOMETRIC.renyi(0.9, 3.0) - LawKind.GEOMETRIC.renyi(0.9, 1.5)
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
            assert LawKind.SYMMETRIC_GEOMETRIC.varentropy(lam_star + eps) <= v_s

    def test_grid_dominance(self):
        _, v_s = sup_varentropy_symmetric()
        for lam in np.linspace(0.02, 0.98, 50):
            assert LawKind.SYMMETRIC_GEOMETRIC.varentropy(float(lam)) <= v_s + 1e-12
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

    def test_offset_beyond_the_float_range(self):
        # the largest offset a float holds keeps the verdict; a larger one
        # is refused when the pmf is built, so no check meets it
        top = int(sys.float_info.max)
        near = mean_mode_check(normalize([0.2, 0.6, 0.2], -1))
        far = mean_mode_check(normalize([0.2, 0.6, 0.2], top))
        assert (far.lhs, far.rhs, far.margin) == (near.lhs, near.rhs, near.margin)
        for offset in (10**400, -(10**400)):
            with pytest.raises(DomainError, match="^offset must be an integer that a "
                                                  "float can hold$"):
                mean_mode_check(normalize([1, 2, 1], offset))


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
        assert concentration_bound(2.0, v_s, Side.UPPER) == pytest.approx(expected, rel=1e-12)

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

    @pytest.mark.parametrize("side", ["upper", "lower", None, 1])
    def test_refuses_a_side_that_is_not_a_member(self, side):
        # "upper" used to read as the lower tail: 0.8244 instead of 0.9098
        with pytest.raises(TypeError, match="side must be a Side member"):
            concentration_bound(0.5, 1.0, side)


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

    @pytest.mark.parametrize("side", ["upper", "lower", None, 1])
    def test_refuses_a_side_that_is_not_a_member(self, side):
        x = materialize(ParametricLaw.geometric(0.9))
        with pytest.raises(TypeError, match="side must be a Side member"):
            empirical_tail(x, 0.5, side)

    def test_an_atom_on_the_threshold_is_in_its_tail(self):
        # information contents 0.92, 1.20, 1.61, 2.30 nats around the
        # library's H = 1.28: each t below is exact (Sterbenz), so H + t or
        # H - t is exactly an atom's -log x, and the tail counts that atom
        x = normalize([1.0, 2.0, 3.0, 4.0])
        h = shannon(x)
        info = -np.log(x.weights)
        for k, side in ((1, Side.UPPER), (0, Side.UPPER), (2, Side.LOWER),
                        (3, Side.LOWER)):
            if side is Side.UPPER:
                t = float(info[k]) - h
                assert h + t == info[k]
                atoms = info >= info[k]
            else:
                t = h - float(info[k])
                assert h - t == info[k]
                atoms = info <= info[k]
            tail = empirical_tail(x, t, side)
            assert tail == float(x.weights[atoms].sum()) and tail >= x.weights[k]

    def test_check_concentration_report(self):
        x = materialize(ParametricLaw.geometric(0.7))
        report = check_concentration(x, 1.0, Side.LOWER, 1.0)
        assert report.rhs == 0.0 and report.lhs == 0.0 and report.passed


class TestKConstant:
    def test_uniform_is_zero(self):
        assert K_constant(normalize(np.ones(7))) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_log_concave_below_one(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            assert K_constant(random_monotone_log_concave(rng)) < 1.0

    def test_geometric_sup_approaches_one(self):
        x = materialize(ParametricLaw.geometric(0.9))
        value = K_constant(x)
        assert 0.9 < value < 1.0

    def test_matches_the_tilt_by_tilt_form(self):
        # one kernel pass, a**2 phi''(a) + 1, against V(tilt(x, a)) taken
        # tilt by tilt, on 3 to 3,437 atoms; the larger supports put the
        # kernel's rows at a <= 64 on the binned path
        rng = np.random.default_rng(45)
        pmfs = [normalize([0.5, 0.3, 0.2]), normalize(np.ones(3)),
                materialize(ParametricLaw.geometric(0.9)),
                materialize(ParametricLaw.geometric(0.99)),
                materialize(ParametricLaw.symmetric_geometric(0.9))]
        pmfs += [random_monotone_log_concave(rng, max_support=3437, min_support=3)
                 for _ in range(6)]
        pmfs += [random_log_concave(rng, max_support=3437, min_support=2000, max_step=0.02)
                 for _ in range(3)]
        assert max(x.support_size for x in pmfs) == 3437
        for x in pmfs:
            assert K_constant(x) == pytest.approx(ref_K_constant(x), abs=1e-12)


class TestEpiReversal:
    def test_dirac(self):
        assert epi_reversal_check(normalize([1.0]), 2.0).passed

    def test_three_atoms(self):
        report = epi_reversal_check(normalize([5, 3, 2]), 2.0)
        assert report.passed and report.margin > 0.0

    def test_sharpness_via_closed_forms(self):
        lam = 0.999
        diff = LawKind.SYMMETRIC_GEOMETRIC.renyi(lam, 2.0) - LawKind.GEOMETRIC.renyi(lam, 2.0)
        assert math.log(2.0) - 0.01 < diff <= math.log(2.0)

    def test_materialized_geometric_across_orders(self):
        x = materialize(ParametricLaw.geometric(0.9))
        for alpha in (2.0, 3.0, INF):
            assert epi_reversal_check(x, alpha).passed

    def test_validates_order(self):
        with pytest.raises(BadOrdersError):
            epi_reversal_check(normalize([1, 1]), 1.5)

    def test_difference_entropy_reads_the_half_of_x_minus_y(self):
        # the lags k >= 0 of the exactly symmetric law of X - Y, lag 0 once
        # and every other lag twice, summed in lag order with no sort, land
        # within the forward error bound of a 40-digit sum over every atom
        # of X - Y; the last two laws take the FFT path
        rng = np.random.default_rng(20)
        pmfs = [random_monotone_log_concave(rng) for _ in range(20)]
        pmfs += [materialize(ParametricLaw.geometric(0.99)), normalize(np.ones(2_500))]
        for x in pmfs:
            s = Subject(x)
            diff = s.self_difference.pmf()
            for alpha in (2.0, 3.5, 40.0):
                exact, bound = mp_log_power_sum(diff, alpha)
                value = _difference_renyi(s, alpha) * (1.0 - alpha)
                assert abs(value - exact) <= bound, (len(x), alpha, value, exact, bound)
            assert _difference_renyi(s, INF) == renyi(diff, INF)

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


ALPHAS = (2.0, 3.5, 1e6, 1e308, INF)


def _assert_reports_as_stored(x) -> None:
    """Every field of the h2_hinf_identity report, and of the epi_reversal
    report at each order of ALPHAS on a monotone x, as read off the law of
    X - Y stored as its atoms (ref_difference)."""
    s = Subject(x)
    assert repr(h2_hinf_identity_check(s)) == repr(ref_h2_hinf_identity_check(s))
    if s.monotone:
        for alpha in ALPHAS:
            assert repr(epi_reversal_check(s, alpha)) == repr(ref_epi_reversal_check(s, alpha))


def _traced_peak(call) -> float:
    """The peak memory that call() adds, under tracemalloc, in bytes."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


class TestDifferenceReports:
    """The two rows on the law of X - Y read its lags with no array of its
    atoms, and keep every bit of the rows read off the stored law."""

    @pytest.mark.parametrize("case", DIFFERENCE_LAWS, ids=difference_law_id)
    def test_law_reports_as_stored(self, case):
        kind, lam, tol = case
        _assert_reports_as_stored(materialize(ParametricLaw(kind, lam), tol))

    @pytest.mark.parametrize("n", DIFFERENCE_SIZES)
    def test_explicit_reports_as_stored(self, n):
        x = explicit_decreasing(n)
        _assert_reports_as_stored(x)
        _assert_reports_as_stored(normalize(x.weights[::-1], -3))

    def test_rescaled_trimmed_law_reports_as_stored(self):
        _assert_reports_as_stored(lag_tail_underflow())

    def test_h2_memory_at_690k_atoms(self):
        # symmetric geometric 0.9999, its mass table and order-2 sum cached:
        # the law of X - Y is read in one sweep of blocks and only its
        # scalars kept (reads 0.37 MiB; stored, 10.54 MiB and 10.79 peak)
        s = Subject(materialize(ParametricLaw.symmetric_geometric(0.9999)))
        renyi(s, 2.0)
        assert _traced_peak(lambda: h2_hinf_identity_check(s)) < 2**19

    def test_epi_memory_at_345k_atoms(self):
        # geometric 0.9999, its mass table, classification and order-2 sum
        # cached: the law's sweep and one pairwise pass over its lags, each
        # logged in the sum's buffer (reads 0.30 MiB; the stored law with
        # its logs and counts read 10.6 MiB)
        s = Subject(materialize(ParametricLaw.geometric(0.9999)))
        renyi(s, 2.0)
        assert s.direction is not None and s.log_concave
        assert _traced_peak(lambda: epi_reversal_check(s)) < 2**19


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
        probe = (LawKind.SYMMETRIC_GEOMETRIC.renyi(0.5, 1.0)
                 - LawKind.SYMMETRIC_GEOMETRIC.renyi(0.5, 2.0))
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
