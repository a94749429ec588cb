import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lclc.entropy import power_sum, power_sum_geometric
from lclc.errors import (
    DomainError,
    MeanMismatchError,
    NoCrossingError,
    NotMonotoneLogConcaveError,
    NotSymmetricError,
)
from lclc.lattice import ParametricLaw, materialize, normalize
from lclc.majorization import (
    GeometricSequence,
    LevelCount,
    _default_hinge_grid,
    cake_layer_check,
    convex_order_check,
    crossing_interval,
    crossing_verify,
    fold_symmetric,
    level_count,
    power_transform_density,
)
from lclc.matching import match_geometric
from support import (
    loop_cake_layer_check,
    loop_convex_order_check,
    loop_hinge_expectation,
    loop_mean,
    random_monotone_log_concave,
    random_pmf,
    random_symmetric_log_concave,
    scalar_crossing_verify,
    scalar_fold_violation,
    scalar_geometric_level_count,
    segment_tuples,
)


class TestLevelCount:
    def test_three_atom_counts(self):
        f = level_count(normalize([5, 3, 2]))
        assert f(0.25) == 2 and f(0.4) == 1 and f(0.6) == 0

    def test_uniform(self):
        f = level_count(normalize(np.ones(4)))
        assert f(0.1) == 4 and f(0.25) == 0 and f(0.3) == 0

    def test_dirac(self):
        f = level_count(normalize([1.0]))
        assert f(0.5) == 1 and f(1.0) == 0

    def test_density_mass_is_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            assert level_count(random_pmf(rng)).mass() == pytest.approx(1.0, abs=1e-12)

    def test_counts_strictly_decreasing_to_zero(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = random_pmf(rng)
            f = level_count(x)
            assert f.counts[0] == np.count_nonzero(x.weights > 0)
            assert np.all(np.diff(f.counts) < 0)
            assert f.counts[-1] == 0

    def test_segments_are_edge_and_count_arrays(self):
        edges, counts = level_count(normalize([5, 3, 2, 3])).segments()
        np.testing.assert_array_equal(edges, [0.0, 2 / 13, 3 / 13, 5 / 13])
        np.testing.assert_array_equal(counts, [4, 3, 1])


class TestCakeLayer:
    def test_mass_case(self):
        report = cake_layer_check(normalize([5, 3, 2]), 1.0)
        assert report.lhs == pytest.approx(1.0) and report.passed

    def test_fair_coin(self):
        report = cake_layer_check(normalize([1, 1]), 2.0)
        assert report.lhs == pytest.approx(0.5)
        assert report.rhs == pytest.approx(0.5)

    def test_geometric_margin(self):
        x = materialize(ParametricLaw.geometric(0.5))
        report = cake_layer_check(x, 3.0)
        assert report.params["abs_error"] < 1e-12 and report.passed

    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            report = cake_layer_check(random_pmf(rng), float(rng.uniform(1.0, 6.0)))
            assert report.params["abs_error"] < 1e-12

    def test_requires_t_at_least_one(self):
        with pytest.raises(ValueError):
            cake_layer_check(normalize([1, 1]), 0.5)

    def test_matches_segment_loop(self):
        # the array sum adds the pieces in the loop's order; numpy's powers
        # may differ from libm pow in the last ulp, nothing else does
        rng = np.random.default_rng(24)
        pmfs = [materialize(ParametricLaw.geometric(lam)) for lam in (0.99, 0.999)]
        pmfs.append(materialize(ParametricLaw.symmetric_geometric(0.999)))
        pmfs += [random_pmf(rng) for _ in range(60)]
        pmfs += [random_symmetric_log_concave(rng) for _ in range(20)]
        for x in pmfs:
            for t in (1.0, 2.0, 3.5):
                report, loop = cake_layer_check(x, t), loop_cake_layer_check(x, t)
                assert report.lhs == loop.lhs
                assert report.rhs == pytest.approx(loop.rhs, rel=1e-15, abs=0.0)
                assert report.verdict == loop.verdict


class TestCrossing:
    def test_reference_instance(self):
        x = normalize([5, 3, 2])
        z = GeometricSequence(2.0 / 3.0, 1.0 / 3.0)
        result = crossing_interval(x, z)
        assert result.first_index == 1 and result.last_index == 2
        assert result.interval.lo == pytest.approx(2.0 / 27.0, rel=1e-14)
        assert result.interval.hi == pytest.approx(0.3, rel=1e-14)
        assert crossing_verify(x, z).passed

    def test_self_match_covers_whole_support(self):
        # coarse truncation so the renormalization lift of x above z is far
        # larger than the rounding difference between lam**k code paths
        lam = 0.4
        x = materialize(ParametricLaw.geometric(lam), 1e-8)
        result = crossing_interval(x, GeometricSequence(1 - lam, lam))
        assert result.first_index == 0
        assert result.b_at_horizon
        assert result.interval.lo < 1e-7
        assert result.interval.hi == pytest.approx(1 - lam, rel=1e-8)
        assert crossing_verify(x, GeometricSequence(1 - lam, lam)).passed

    def test_dirac_against_small_coefficient(self):
        result = crossing_interval(normalize([1.0]), GeometricSequence(0.8, 0.5))
        assert (result.first_index, result.last_index) == (0, 0)
        assert result.interval.lo == pytest.approx(0.8)
        assert result.interval.hi == pytest.approx(1.0)

    def test_no_crossing(self):
        with pytest.raises(NoCrossingError):
            crossing_interval(normalize([1, 1]), GeometricSequence(2.0, 0.5))

    def test_requires_non_increasing(self):
        with pytest.raises(NotMonotoneLogConcaveError):
            crossing_interval(normalize([1, 2, 3]), GeometricSequence(0.5, 0.5))

    def test_matched_pairs_verify(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            x = random_monotone_log_concave(rng, max_support=40,
                                            direction="decreasing")
            p = float(rng.choice([1.5, 2.0, 3.0]))
            lam = match_geometric(x, p).lam
            report = crossing_verify(x, GeometricSequence(1 - lam, lam))
            assert report.passed, report.params

    def test_geometric_level_count_exact_at_breakpoints(self):
        z = GeometricSequence(0.5, 0.7)
        for k in range(40):
            zk = float(z.value(k))
            assert z.level_count(zk) == k       # strict inequality at the value
            assert z.level_count(zk * (1 - 1e-12)) == k + 1


class TestFoldSymmetric:
    def test_symmetric_geometric(self):
        z = materialize(ParametricLaw.symmetric_geometric(0.5))
        fold = fold_symmetric(z)
        assert fold.max_violation == 0

    def test_dirac(self):
        fold = fold_symmetric(normalize([1.0], 0))
        assert fold.max_violation == 0 and fold.center_mass == 1.0

    def test_three_atoms(self):
        fold = fold_symmetric(normalize([2, 6, 2], -1))
        assert fold.full(0.1) == 3
        assert 2 * fold.half(0.1) - 1 == 3
        assert fold.max_violation == 0

    def test_random_symmetric(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            assert fold_symmetric(random_symmetric_log_concave(rng)).max_violation == 0

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetricError):
            fold_symmetric(normalize([5, 3, 2]))

    def test_rejects_half_integer_center(self):
        with pytest.raises(NotSymmetricError):
            fold_symmetric(normalize([1, 1]))

    def test_large_offset(self):
        near = fold_symmetric(normalize([1, 2, 6, 2, 1], -2))
        far = fold_symmetric(normalize([1, 2, 6, 2, 1], 10**20))
        assert far.center_mass == near.center_mass == 0.5
        assert far.max_violation == near.max_violation == 0
        with pytest.raises(NotSymmetricError):
            fold_symmetric(normalize([1, 4, 4, 1], 10**20))


def _matched_decreasing(x, p):
    """x oriented non-increasing and its matched geometric comparator."""
    lam = match_geometric(x, p).lam
    decreasing = x if x.weights[0] >= x.weights[-1] else x.reversed()
    return decreasing, GeometricSequence(1 - lam, lam)


class TestArrayEvaluation:
    """The array evaluation of the crossing and folding checks against the
    per-threshold reference loops in support.py."""

    def test_crossing_matches_scalar_loop_on_random_pmfs(self):
        rng = np.random.default_rng(41)
        for direction in ("decreasing", "increasing"):
            for _ in range(40):
                x = random_monotone_log_concave(rng, max_support=80,
                                                direction=direction)
                p = float(rng.choice([1.5, 2.0, 3.0]))
                n_samples = int(rng.choice([0, 0, 33]))
                x, z = _matched_decreasing(x, p)
                assert (crossing_verify(x, z, n_samples)
                        == scalar_crossing_verify(x, z, n_samples))

    @pytest.mark.parametrize("lam", [0.99, 0.999])
    def test_crossing_matches_scalar_loop_on_geometric(self, lam):
        x, z = _matched_decreasing(materialize(ParametricLaw.geometric(lam)), 2.0)
        report = crossing_verify(x, z)
        assert report == scalar_crossing_verify(x, z)
        assert report.passed

    def test_array_level_counts_match_scalar_counts(self):
        rng = np.random.default_rng(42)
        for coeff, ratio in ((0.5, 0.7), (0.01, 0.99), (2.0, 0.999)):
            z = GeometricSequence(coeff, ratio)
            zs = z.value(np.arange(3000))
            ts = np.concatenate((zs, zs * (1 - 1e-15), zs * (1 + 1e-15),
                                 rng.uniform(0.0, 1.5 * coeff, 500) + 1e-300))
            ts = ts[ts > 0.0]  # z_k underflows to zero far out
            counts = z.level_count(ts)
            assert counts.shape == ts.shape
            assert counts.tolist() == [scalar_geometric_level_count(z, float(t))
                                       for t in ts]
            assert counts.tolist() == [z.level_count(float(t)) for t in ts]

    def test_level_count_rejects_non_positive_thresholds(self):
        z = GeometricSequence(0.5, 0.7)
        for bad in (0.0, -1.0, np.array([0.1, 0.0]), np.array([np.nan])):
            with pytest.raises(ValueError):
                z.level_count(bad)

    def test_fold_matches_scalar_loop(self):
        rng = np.random.default_rng(43)
        pmfs = [random_symmetric_log_concave(rng) for _ in range(40)]
        pmfs.append(materialize(ParametricLaw.symmetric_geometric(0.9)))
        # symmetric within symmetry_center's tolerance but not exactly: a
        # threshold between the two outer masses breaks the fold identity
        pmfs.append(normalize([0.2, 0.6, 0.2 + 1e-13], -1))
        violations = [fold_symmetric(x).max_violation for x in pmfs]
        assert violations == [scalar_fold_violation(x) for x in pmfs]
        assert violations[-1] == 1

    @pytest.mark.parametrize("coeff, ratio", [
        (0.04600809875831913, 0.9539919012416809),
        (0.5, 0.7), (0.01, 0.99), (1e-3, 0.999)])
    def test_scalar_and_array_values_agree_bitwise(self, coeff, ratio):
        z = GeometricSequence(coeff, ratio)
        array = z.value(np.arange(400))
        scalar = np.array([z.value(k) for k in range(400)])
        assert np.array_equal(array.view(np.int64), scalar.view(np.int64))
        assert z.value(2) == array[2]  # where numpy's 0-d power squares

    def test_memory_bounded_by_thresholds_not_counts(self):
        # a flat log-concave body with a steep last step: the comparator
        # has over a million values above the lowest threshold, while the
        # thresholds number only a few per atom
        n = 5000
        log_w = -5e-4 * np.arange(n)
        log_w[-1] = log_w[-2] - 690.0
        x, z = _matched_decreasing(normalize(np.exp(log_w)), 2.0)
        interval = crossing_interval(x, z).interval
        lowest = max(min(float(x.weights.min()), interval.lo) / 4.0, 1e-300)
        count = z.level_count(lowest)
        assert count > 1_000_000
        crossing_verify(x, z)  # warm up lazy imports outside the measurement
        tracemalloc.start()
        try:
            report = crossing_verify(x, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 * count / 4


def _uniform_density(hi: float) -> LevelCount:
    # a single unit-count segment on [0, hi): the level count of one atom
    return LevelCount(np.array([hi]), np.array([1, 0]))


def _integrate_piecewise_linear(density, knots, slopes0, w0) -> float:
    """E[w(U)] for convex piecewise-linear w, by hinge decomposition.

    w(t) = w0 + s0 * t + sum_j a_j * (t - c_j)+ with a_j >= 0 integrates to
    w0 * mass + s0 * mean + sum_j a_j * hinge(c_j), which is exact for step
    and power densities alike.
    """
    value = w0 * density.mass() + slopes0 * density.mean()
    for c, a in knots:
        value += a * density.hinge_expectation(c)
    return value


class TestConvexOrder:
    def test_equal_densities(self):
        f = level_count(normalize([5, 3, 2]))
        report = convex_order_check(f, f)
        assert report.passed and report.margin == pytest.approx(0.0, abs=1e-15)

    def test_matched_pair_geometric_majorizes(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            x = random_monotone_log_concave(rng, max_support=40,
                                            direction="decreasing")
            lam = match_geometric(x, 2.0).lam
            z = materialize(ParametricLaw.geometric(lam), 1e-15)
            report = convex_order_check(level_count(x), level_count(z))
            assert report.passed, report.params

    def test_power_transformed_ordering_preserved(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            x = random_monotone_log_concave(rng, max_support=30,
                                            direction="decreasing")
            p = 3.0
            lam = match_geometric(x, p).lam
            z = materialize(ParametricLaw.geometric(lam), 1e-15)
            u = power_transform_density(level_count(x), p - 1.0)
            v = power_transform_density(level_count(z), p - 1.0)
            report = convex_order_check(u, v)
            assert report.passed, report.params

    def test_uniform_square_moment(self):
        d = power_transform_density(_uniform_density(1.0), 2.0)
        assert d.mean() == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_power_round_trip(self):
        f = level_count(normalize([5, 3, 2]))
        back = power_transform_density(power_transform_density(f, 2.0), 0.5)
        for t in (0.0, 0.05, 0.2, 0.35):
            assert back.hinge_expectation(t) == pytest.approx(
                f.hinge_expectation(t), abs=1e-12)

    def test_identity_transform(self):
        f = level_count(normalize([5, 3, 2]))
        d = power_transform_density(f, 1.0)
        for t in (0.0, 0.1, 0.3):
            assert d.hinge_expectation(t) == pytest.approx(
                f.hinge_expectation(t), abs=1e-15)

    def test_mean_mismatch_raises(self):
        with pytest.raises(MeanMismatchError):
            convex_order_check(_uniform_density(1.0), _uniform_density(2.0))

    def test_hinge_dominance_implies_convex_dominance(self):
        # cross-validate the hinge certificate against direct expectations
        # of random piecewise-linear convex functions
        rng = np.random.default_rng(28)
        for _ in range(25):
            x = random_monotone_log_concave(rng, max_support=30,
                                            direction="decreasing")
            lam = match_geometric(x, 2.0).lam
            z = materialize(ParametricLaw.geometric(lam), 1e-15)
            u, v = level_count(x), level_count(z)
            assert convex_order_check(u, v).passed
            top = float(max(u.breakpoints.max(), v.breakpoints.max()))
            for _ in range(20):
                knots = [(float(rng.uniform(0, top)), float(rng.uniform(0, 3)))
                         for _ in range(int(rng.integers(1, 6)))]
                s0 = float(rng.uniform(-2, 2))
                w0 = float(rng.uniform(-1, 1))
                ew_v = _integrate_piecewise_linear(v, knots, s0, w0)
                ew_u = _integrate_piecewise_linear(u, knots, s0, w0)
                assert ew_v >= ew_u - 1e-9


def _matched_pair_densities(rng, p):
    """Level counts of a monotone log-concave x and of its matched
    geometric comparator, and their p - 1 power transforms."""
    x = random_monotone_log_concave(rng, max_support=30, direction="decreasing")
    lam = match_geometric(x, p).lam
    z = materialize(ParametricLaw.geometric(lam), 1e-15)
    u, v = level_count(x), level_count(z)
    return [(u, v), (power_transform_density(u, p - 1.0),
                     power_transform_density(v, p - 1.0))]


def _probe_grid(u, v) -> np.ndarray:
    """The default hinge grid plus negative hinges (small enough that the
    values stay below one) and hinges at and above the top of both
    supports."""
    top = float(max(u.breakpoints.max(), v.breakpoints.max()))
    return np.concatenate(([-0.1, -1e-3], _default_hinge_grid(u, v),
                           [top, top * (1 + 1e-12), 1.5 * top, 2.0]))


def _exact_hinge(f: LevelCount, t: float) -> Fraction:
    """E[(U - t)+] in exact rational arithmetic over the float breakpoints."""
    t = Fraction(t)
    total = Fraction(0)
    for lo, hi, c in segment_tuples(f):
        a = max(Fraction(lo) - t, Fraction(0))
        b = max(Fraction(hi) - t, Fraction(0))
        total += c * (b * b - a * a) / 2
    return total


def _raises_mean_mismatch(check, u, v) -> bool:
    try:
        check(u, v)
    except MeanMismatchError:
        return True
    return False


class TestHingeTables:
    """The suffix-sum hinge tables against the per-segment loops in
    support.py, an exact rational oracle, and their own scalar path."""

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    def test_matches_loop_on_matched_pairs(self, p):
        rng = np.random.default_rng(int(p) + 50)
        for _ in range(4):
            for u, v in _matched_pair_densities(rng, p):
                ts = _probe_grid(u, v)
                for d in (u, v):
                    loop = np.array([loop_hinge_expectation(d, float(t)) for t in ts])
                    assert np.max(np.abs(d.hinge_expectation(ts) - loop)) <= 1e-15
                    assert abs(d.mean() - loop_mean(d)) <= 1e-15
                assert (_raises_mean_mismatch(convex_order_check, u, v)
                        == _raises_mean_mismatch(loop_convex_order_check, u, v))
                # the hinge certificate itself, whether or not the means match
                ref = loop_convex_order_check(u, v, mean_tol=np.inf)
                report = convex_order_check(u, v, mean_tol=np.inf)
                assert report.verdict == ref.verdict
                assert abs(report.margin - ref.margin) <= 1e-15
                assert report.params["hinges"] == ref.params["hinges"]

    def test_scalar_equals_array_element_bitwise(self):
        rng = np.random.default_rng(51)
        for p in (2.0, 3.0):
            for u, v in _matched_pair_densities(rng, p):
                ts = _probe_grid(u, v)
                for d in (u, v, v.power(0.5)):
                    array = d.hinge_expectation(ts)
                    scalar = np.array([d.hinge_expectation(float(t)) for t in ts])
                    assert array.shape == ts.shape
                    assert np.array_equal(array.view(np.int64), scalar.view(np.int64))

    def test_regions_below_zero_and_above_the_top(self):
        f = level_count(normalize([5, 3, 2]))
        for t in (-2.0, -0.5, 0.0):
            assert f.hinge_expectation(t) == f.mean() - t * f.mass()
        assert f.hinge_expectation(np.array([0.5, 0.7, 1e300])).tolist() == [0.0] * 3
        assert np.isnan(f.hinge_expectation(np.nan))

    def test_exact_oracle_with_narrow_top_pieces(self):
        # two near-equal largest masses make the top piece 1e-9 wide, where
        # the form sum c (hi**2 - lo**2) / 2 - t sum c (hi - lo) loses every
        # digit of hinge values around 1e-19
        rng = np.random.default_rng(52)
        pmfs = [normalize([1.0, 1.0 - 1e-9, 0.5, 0.25, 0.125]),
                normalize([0.4, 0.4 - 1e-12, 0.2])]
        pmfs += [random_pmf(rng, max_support=40) for _ in range(10)]
        for x in pmfs:
            f = level_count(x)
            edges = np.concatenate(([0.0], f.breakpoints))
            ts = np.concatenate((edges, (edges[:-1] + edges[1:]) / 2.0,
                                 np.nextafter(edges[1:], 0.0), [-0.3, 1.0]))
            values = f.hinge_expectation(ts)
            for t, value in zip(ts.tolist(), values.tolist()):
                exact = _exact_hinge(f, t)
                assert abs(Fraction(value) - exact) <= Fraction(1e-13) * exact, (t, value)

    def test_first_worst_hinge_among_ties(self):
        f = level_count(normalize([5, 3, 2]))
        grid = [0.9, 0.8, 0.7]  # above the top: every gap is exactly zero
        report = convex_order_check(f, f, hinge_grid=grid)
        assert report.params["worst_t"] == 0.9
        assert report == loop_convex_order_check(f, f, hinge_grid=grid)
        assert convex_order_check(f, f).params["worst_t"] == 0.0

    @pytest.mark.parametrize("grid", [[], [np.nan], [0.1, np.inf], [[0.1, 0.2]]])
    def test_rejects_bad_hinge_grids(self, grid):
        f = level_count(normalize([5, 3, 2]))
        with pytest.raises(DomainError):
            convex_order_check(f, f, hinge_grid=grid)


class TestMomentDominance:
    def test_matched_pairs_power_sums(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = random_monotone_log_concave(rng, max_support=40,
                                            direction="decreasing")
            p = float(rng.choice([2.0, 3.0, 5.0]))
            lam = match_geometric(x, p).lam
            for q in np.linspace(1.0 + 1e-6, p - 1e-6, 7):
                assert power_sum(x, float(q)) >= power_sum_geometric(lam, float(q)) - 1e-10
