import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclc.errors import (
    AllZeroError,
    BadLambdaError,
    BadToleranceError,
    BadWeightsError,
    DomainError,
    NegativeWeightError,
)
from lclc.lattice import (
    Direction,
    LatticePMF,
    ParametricLaw,
    Structure,
    Subject,
    _fft_convolve,
    as_subject,
    difference,
    is_log_concave,
    materialize,
    mean_variance,
    monotonicity,
    normalize,
    pmf_from_json,
    sample,
    symmetry_center,
)
from support import random_pmf


@st.composite
def pmfs(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    logs = draw(st.lists(st.floats(-20.0, 0.0), min_size=n, max_size=n))
    offset = draw(st.integers(-10, 10))
    return normalize(np.exp(np.asarray(logs)), offset)


class TestNormalize:
    def test_uniform_pair(self):
        x = normalize([2.0, 2.0], 0)
        assert x.offset == 0
        np.testing.assert_array_equal(x.weights, [0.5, 0.5])

    def test_trim_adjusts_offset(self):
        x = normalize([0.0, 1.0, 0.0], 5)
        assert x.offset == 6
        np.testing.assert_array_equal(x.weights, [1.0])

    def test_scaling(self):
        x = normalize([5.0, 3.0, 2.0], 0)
        np.testing.assert_allclose(x.weights, [0.5, 0.3, 0.2], rtol=0, atol=0)

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroError):
            normalize([0.0, 0.0])

    def test_negative_raises(self):
        with pytest.raises(NegativeWeightError):
            normalize([0.5, -0.1, 0.6])

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            normalize([1.0, math.inf])
        with pytest.raises(ValueError):
            normalize([1.0, math.nan])

    def test_overflowing_sum_is_rescaled_first(self):
        # each weight is finite but their sum is not; dividing by it would
        # send every weight to zero
        x = normalize([1e308, 1e308], 3)
        assert x.offset == 3
        np.testing.assert_array_equal(x.weights, [0.5, 0.5])
        np.testing.assert_array_equal(normalize([1e308, 5e307, 1e308]).weights,
                                      [0.4, 0.2, 0.4])

    @settings(max_examples=80, deadline=None)
    @given(pmfs())
    def test_idempotent_and_normalized(self, x):
        again = normalize(x.weights, x.offset)
        assert again.offset == x.offset
        np.testing.assert_array_equal(again.weights, x.weights)
        assert abs(x.total_mass() - 1.0) < 1e-12

    def test_weights_are_frozen(self):
        x = normalize([1.0, 1.0])
        with pytest.raises(ValueError):
            x.weights[0] = 0.3


class TestPredicates:
    def test_geometric_is_log_concave(self):
        assert is_log_concave(materialize(ParametricLaw.geometric(0.5)))

    def test_log_concavity_counterexample(self):
        assert not is_log_concave(normalize([0.4, 0.1, 0.4, 0.1]))

    def test_dirac_is_log_concave(self):
        assert is_log_concave(normalize([1.0]))

    def test_interior_zero_fails_log_concavity(self):
        assert not is_log_concave(LatticePMF(0, np.array([0.5, 0.0, 0.5])))

    def test_monotonicity_cases(self):
        assert monotonicity(normalize([0.5, 0.3, 0.2])) is Direction.DECREASING
        assert monotonicity(normalize([1, 1, 1, 1])) is Direction.BOTH
        assert monotonicity(normalize([0.2, 0.6, 0.2])) is Direction.NEITHER
        assert monotonicity(normalize([0.1, 0.3, 0.6])) is Direction.INCREASING
        assert monotonicity(normalize([1.0])) is Direction.BOTH

    def test_symmetry_half_integer(self):
        assert symmetry_center(normalize([0.5, 0.5], 0)) == 0.5

    def test_symmetry_of_symmetric_geometric(self):
        z = materialize(ParametricLaw.symmetric_geometric(0.3))
        assert symmetry_center(z) == 0.0

    def test_symmetry_absent(self):
        assert symmetry_center(normalize([0.5, 0.3, 0.2])) is None

    def test_symmetry_respects_offset(self):
        assert symmetry_center(normalize([0.2, 0.6, 0.2], -1)) == 0.0
        assert symmetry_center(normalize([0.2, 0.6, 0.2], 4)) == 5.0


class TestMaterialize:
    def test_geometric_support(self):
        x = materialize(ParametricLaw.geometric(0.5), 1e-15)
        assert x.offset == 0 and len(x) == 50  # 0.5**50 < 1e-15 <= 0.5**49

    def test_symmetric_support(self):
        x = materialize(ParametricLaw.symmetric_geometric(0.5), 1e-15)
        assert x.offset == -50 and len(x) == 101

    def test_tiny_lambda_is_numerically_dirac(self):
        x = materialize(ParametricLaw.geometric(1e-9), 1e-8)
        assert x.pmf(0) == pytest.approx(1.0, abs=1e-8)

    def test_discarded_mass_below_tolerance(self):
        for lam in (0.1, 0.5, 0.9):
            n_max = len(materialize(ParametricLaw.geometric(lam), 1e-12)) - 1
            assert lam ** (n_max + 1) < 1e-12

    def test_bad_tolerance(self):
        for tol in (0.0, -1e-9, 1e-3):
            with pytest.raises(BadToleranceError):
                materialize(ParametricLaw.geometric(0.5), tol)

    def test_support_above_limit_is_a_domain_error(self):
        with pytest.raises(DomainError, match="34538760 atoms"):
            materialize(ParametricLaw.geometric(0.999999))
        with pytest.raises(DomainError):
            materialize(ParametricLaw.symmetric_geometric(0.5), max_support=100)

    def test_bad_lambda(self):
        for lam in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(BadLambdaError):
                ParametricLaw.geometric(lam)


class TestMoments:
    def test_dirac(self):
        assert mean_variance(normalize([1.0], 7)) == (7.0, 0.0)

    def test_bernoulli_half(self):
        mean, var = mean_variance(normalize([0.5, 0.5], 0))
        assert mean == pytest.approx(0.5) and var == pytest.approx(0.25)

    def test_geometric_closed_forms(self):
        x = materialize(ParametricLaw.geometric(0.5))
        mean, var = mean_variance(x)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert var == pytest.approx(2.0, abs=1e-9)

    def test_large_offset_is_added_once(self):
        # summed relative to the offset, the mean keeps its fraction until
        # the offset itself swamps it
        for offset in (0, 10**6, 10**15, 10**20):
            mean, var = mean_variance(normalize([0.25, 0.5, 0.25], offset))
            assert mean == offset + 1.0 and var == 0.5


class TestDifference:
    def test_uniform_pair(self):
        u = normalize([0.5, 0.5], 0)
        d = difference(u, u)
        assert d.offset == -1
        np.testing.assert_allclose(d.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_iid_geometric_gives_symmetric_geometric(self):
        for lam in (0.3, 0.7):
            x = materialize(ParametricLaw.geometric(lam))
            d = difference(x, x)
            z = materialize(ParametricLaw.symmetric_geometric(lam))
            lo = max(d.offset, z.offset)
            hi = min(d.offset + len(d), z.offset + len(z))
            dv = d.weights[lo - d.offset : hi - d.offset]
            zv = z.weights[lo - z.offset : hi - z.offset]
            np.testing.assert_allclose(dv, zv, atol=1e-12)

    def test_dirac_difference(self):
        d = difference(normalize([1.0], 5), normalize([1.0], 2))
        assert d.offset == 3 and len(d) == 1

    @settings(max_examples=60, deadline=None)
    @given(pmfs(), pmfs())
    def test_mass_conserved(self, x, y):
        assert abs(difference(x, y).total_mass() - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pmfs())
    def test_self_difference_symmetric_with_mode_at_zero(self, x):
        d = difference(x, x)
        assert symmetry_center(d) == 0.0
        assert d.pmf(0) >= d.max_weight - 1e-15

    def test_fft_path_matches_direct(self):
        rng = np.random.default_rng(7)
        a, b = rng.random(400), rng.random(300)
        np.testing.assert_allclose(_fft_convolve(a, b), np.convolve(a, b),
                                   rtol=0, atol=1e-10)


class TestSample:
    def test_dirac(self):
        assert list(sample(normalize([1.0], 3), seed=1, count=5)) == [3] * 5

    def test_reproducible(self):
        x = normalize([0.5, 0.5])
        np.testing.assert_array_equal(sample(x, 42, 1000), sample(x, 42, 1000))

    def test_geometric_mean_close(self):
        x = materialize(ParametricLaw.geometric(0.5))
        draws = sample(x, seed=12345, count=1_000_000)
        # 3 sigma / sqrt(n) ~ 0.0042 for variance 2
        assert abs(draws.mean() - 1.0) < 0.01

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample(normalize([1.0]), 0, 0)


class TestJsonInput:
    def test_weights_form(self):
        x = pmf_from_json({"offset": -2, "weights": [1, 1, 2]})
        assert x.offset == -2
        np.testing.assert_allclose(x.weights, [0.25, 0.25, 0.5])

    def test_law_form(self):
        x = pmf_from_json({"law": "geometric", "lambda": 0.5})
        assert x.offset == 0 and len(x) == 50

    def test_symmetric_law_form(self):
        x = pmf_from_json({"law": "symmetric_geometric", "lambda": 0.5})
        assert symmetry_center(x) == 0.0

    def test_rejects_unknown_law(self):
        with pytest.raises(ValueError, match="unknown law"):
            pmf_from_json({"law": "poisson", "lambda": 0.5})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            pmf_from_json({"law": "geometric"})

    def test_rejects_boolean_weights(self):
        for weights in ([True, False], [0.5, True]):
            with pytest.raises(BadWeightsError):
                pmf_from_json({"weights": weights})


class TestSubject:
    def test_structure_ladder(self):
        # monotone comes first: the fair coin is also half-integer-symmetric
        cases = [([1, 1], Structure.MONOTONE), ([5, 3, 2], Structure.MONOTONE),
                 ([1, 3, 3, 1], Structure.HALF_INTEGER_SYMMETRIC),
                 ([2, 6, 2], Structure.INTEGER_SYMMETRIC), ([1, 4, 2], None)]
        for weights, structure in cases:
            assert Subject(normalize(weights)).structure is structure, weights

    def test_symmetry_class_is_exact_at_large_offsets(self):
        # the float center offset + 1.5 rounds to an integer above 2**53;
        # the class comes from the parity of the support length instead
        for offset in (-1, 2**53, 10**20, -(10**20)):
            assert Subject(normalize([1, 4, 4, 1], offset)).structure \
                is Structure.HALF_INTEGER_SYMMETRIC, offset
            assert Subject(normalize([1, 3, 1], offset)).structure \
                is Structure.INTEGER_SYMMETRIC, offset

    def test_coercion(self):
        x = normalize([5, 3, 2])
        s = as_subject(x)
        assert s.pmf is x and as_subject(s) is s
        assert as_subject(x) is not s  # a plain pmf gets a fresh subject

    def test_facts_are_computed_once(self):
        s = Subject(normalize([5, 3, 2]))
        calls = []
        assert s.fact("k", lambda: calls.append(1) or 7) == 7
        assert s.fact("k", lambda: calls.append(1) or 8) == 7
        assert calls == [1]
        assert s.self_difference is s.self_difference

    def test_decreasing_orientation(self):
        dec = Subject(normalize([5, 3, 2]))
        assert dec.decreasing is dec
        inc = Subject(normalize([2, 3, 4], 4))
        assert inc.log_concave
        mirror = inc.decreasing
        assert mirror is inc.decreasing
        assert mirror.pmf.offset == -6
        np.testing.assert_array_equal(mirror.pmf.weights, inc.pmf.weights[::-1])
        assert mirror.direction is Direction.DECREASING
        assert mirror.direction is monotonicity(mirror.pmf)
        assert mirror.log_concave and inc.direction is Direction.INCREASING
        with pytest.raises(ValueError):
            pmf_from_json({"offset": 0})


def test_random_generators_have_expected_structure():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = random_pmf(rng)
        assert abs(x.total_mass() - 1.0) < 1e-12
