import bisect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclc.errors import (
    AllZeroError,
    BadLambdaError,
    BadToleranceError,
    BadWeightsError,
    DiracInputError,
    DomainError,
    LatticeError,
    NegativeWeightError,
    NotMonotoneLogConcaveError,
    UnclassifiedError,
)
from lclc.lattice import (
    LC_MONOTONE,
    MATCHABLE,
    MONOTONE,
    NON_DEGENERATE,
    Direction,
    LatticePMF,
    LawKind,
    ParametricLaw,
    Structure,
    Subject,
    _smooth_length,
    as_subject,
    difference,
    is_log_concave,
    level_steps,
    materialize,
    monotonicity,
    normalize,
    pmf_from_json,
    recorded_steps,
    symmetry_center,
)
from lclc import lattice
from lclc.majorization import GeometricSequence, crossing_interval, crossing_verify
from support import (
    DIFFERENCE_LAWS,
    DIFFERENCE_SIZES,
    difference_law_id,
    direct_difference,
    explicit_decreasing,
    lag_tail_underflow,
    random_pmf,
    ref_difference,
    ref_is_log_concave,
    ref_symmetry_center,
)


@st.composite
def pmfs(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    logs = draw(st.lists(st.floats(-20.0, 0.0), min_size=n, max_size=n))
    offset = draw(st.integers(-10, 10))
    return normalize(np.exp(np.asarray(logs)), offset)


def _explicit(x: LatticePMF) -> LatticePMF:
    """A pmf with the weights and offset of x and no record of a law, so
    that difference takes the direct or the transform path on it."""
    y = LatticePMF(x.offset, x.weights)
    assert y.law is None
    return y


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

    def test_offset_must_fit_a_float(self):
        top = int(sys.float_info.max)
        assert normalize([1, 2, 1], -top).offset == -top
        assert Subject(normalize([1, 2, 1], top)).structure is Structure.INTEGER_SYMMETRIC
        for offset in (10**400, -(10**400), top + 2**971, math.inf, math.nan, "one"):
            with pytest.raises(DomainError, match="^offset must be an integer that a "
                                                  "float can hold$"):
                LatticePMF(offset, np.array([0.5, 0.5]))
        for offset in (10**400, -(10**400)):
            with pytest.raises(DomainError):
                normalize([1, 2, 1], offset)

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
        assert abs(x.weights.sum() - 1.0) < 1e-12

    def test_weights_are_frozen(self):
        x = normalize([1.0, 1.0])
        with pytest.raises(ValueError):
            x.weights[0] = 0.3

    @pytest.mark.parametrize("weights, error, message", [
        ([0.5, math.nan, 0.5], BadWeightsError, "weights must be finite"),
        ([0.5, math.inf], BadWeightsError, "weights must be finite"),
        ([-math.inf, 0.5], BadWeightsError, "weights must be finite"),
        ([0.5, -0.1, 0.6], NegativeWeightError, "weights must be non-negative"),
        # a NaN next to a negative weight: finiteness is refused first
        ([-0.1, math.nan, 0.6], BadWeightsError, "weights must be finite"),
        ([math.nan, -0.1], BadWeightsError, "weights must be finite"),
    ])
    def test_validation_error_and_message(self, weights, error, message):
        for build in (normalize, lambda w: LatticePMF(0, w)):
            for given_as in (list, np.array):
                with pytest.raises(LatticeError) as caught:
                    build(given_as(weights))
                assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize("weights", [[0.25, 0.5, 0.25], [1.0, 2.0, 1.0]])
    def test_pmf_owns_its_weights(self, weights):
        # the first already sums to one (no division), the second does not
        a = np.array(weights)
        x = normalize(a)
        kept = x.weights.copy()
        a[:] = 7.0
        np.testing.assert_array_equal(x.weights, kept)
        assert not x.weights.flags.writeable
        with pytest.raises(ValueError):
            x.weights[0] = 0.3

    def test_constructor_copies(self):
        a = np.array([0.25, 0.5, 0.25])
        x = LatticePMF(3, a)
        a[0] = 9.0
        np.testing.assert_array_equal(x.weights, [0.25, 0.5, 0.25])
        assert not np.shares_memory(x.weights, a) and not x.weights.flags.writeable
        assert a.flags.writeable  # the caller's array is left as it was

    def test_built_laws_are_frozen(self):
        geometric = materialize(ParametricLaw.geometric(0.999))
        for x in (materialize(ParametricLaw.geometric(0.5)),
                  materialize(ParametricLaw.symmetric_geometric(0.5)),
                  difference(normalize([1.0, 2.0, 3.0])).pmf(),  # the direct path
                  difference(_explicit(geometric)).pmf(),  # the FFT
                  difference(geometric).pmf()):  # the closed form
            assert not x.weights.flags.writeable
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
        # an interior zero is a step down then up, not a gap to skip
        assert monotonicity(normalize([0.1, 0.0, 0.9])) is Direction.NEITHER
        assert monotonicity(normalize([0.5, 0.0, 0.3, 0.2])) is Direction.NEITHER
        assert monotonicity(normalize([0.5, 0.5, 0.0, 0.0, 0.5])) is Direction.NEITHER

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

    @pytest.mark.parametrize("n", [1, 2, 3, 8_193, 8_194, 8_195, 16_386, 16_387, 40_001])
    def test_blocked_predicates_decide_as_one_pass(self, n):
        # the blocked tests read each block's neighbours and each entry's
        # mirror across the block edges: a defect placed at, just before or
        # just after an edge is found as a one-pass test finds it
        base = np.exp(-np.abs(np.arange(n) - (n - 1) / 2.0) * 1e-3)
        for i in sorted({0, 1, n // 2, n - 2, n - 1, 8_191, 8_192, 8_193, 16_384}):
            if i >= n:
                continue
            for factor in (1.0, 1.0 + 1e-9, 1.0 - 1e-13, 0.5, 2.0):
                w = base.copy()
                w[i] *= factor
                x = normalize(w)
                assert is_log_concave(x) == ref_is_log_concave(x), (i, factor)
                assert symmetry_center(x) == ref_symmetry_center(x), (i, factor)

    def test_classification_memory_at_690k_atoms(self):
        # the log-concavity and symmetry tests run in blocks of 8,192
        # entries; what remains is monotonicity's one-byte comparison mask
        # (reads 0.66 MiB)
        x = materialize(ParametricLaw.symmetric_geometric(0.9999))
        tracemalloc.start()
        try:
            s = Subject(x)
            facts = (s.log_concave, s.direction, s.symmetry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert facts == (True, Direction.NEITHER, 0.0)
        assert peak < 2**20


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
            materialize(ParametricLaw.symmetric_geometric(0.999999))

    def test_bad_lambda(self):
        for lam in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(BadLambdaError):
                ParametricLaw.geometric(lam)

    @pytest.mark.parametrize("lam", [1e-20, 0.5, 0.999, 0.9999])
    def test_symmetric_weights_are_those_of_one_index_array(self, lam):
        # k log lam is formed from a float arange in blocks; the products of
        # one int64 index array have the same bits
        x = materialize(ParametricLaw.symmetric_geometric(lam))
        n_max = len(x) // 2
        right = np.exp(np.arange(n_max + 1) * math.log(lam))
        w = normalize(np.concatenate((right[:0:-1], right))).weights
        np.testing.assert_array_equal(x.weights, w)

    def test_symmetric_threshold_below_the_float_range(self):
        # tail_tol * (1 + lam) / 2 underflows to 0 for lam < 0.5 at the
        # least subnormal tail_tol: the tail is cut where lam**k is 0
        x = materialize(ParametricLaw.symmetric_geometric(1e-6), 5e-324)
        n_max = len(x) // 2
        assert 1e-6 ** (n_max + 1) == 0.0 < 1e-6 ** n_max

    def test_memory_at_690k_atoms(self):
        # symmetric geometric 0.9999: the law is allocated once, its right
        # half's k log lam written in blocks, exponentiated in place and
        # mirrored, and normalized in place (reads 5.33 MiB for the law's
        # 5.27; with the half's int64 index array 8.0 MiB, with four
        # full-size arrays 21.7 MiB)
        law = ParametricLaw.symmetric_geometric(0.9999)
        tracemalloc.start()
        try:
            x = materialize(law)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(x) == 690_741
        assert peak < 5.5 * 2**20


class TestDifference:
    def test_uniform_pair(self):
        u = normalize([0.5, 0.5], 0)
        d = difference(u).pmf()
        assert d.offset == -1
        np.testing.assert_allclose(d.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_iid_geometric_gives_symmetric_geometric(self):
        for lam in (0.3, 0.7):
            x = materialize(ParametricLaw.geometric(lam))
            d = difference(x).pmf()
            z = materialize(ParametricLaw.symmetric_geometric(lam))
            lo = max(d.offset, z.offset)
            hi = min(d.offset + len(d), z.offset + len(z))
            dv = d.weights[lo - d.offset : hi - d.offset]
            zv = z.weights[lo - z.offset : hi - z.offset]
            np.testing.assert_allclose(dv, zv, atol=1e-12)

    def test_dirac_difference(self):
        d = difference(normalize([1.0], 5)).pmf()
        assert d.offset == 0 and len(d) == 1

    @settings(max_examples=60, deadline=None)
    @given(pmfs())
    def test_mass_conserved(self, x):
        assert abs(difference(x).pmf().weights.sum() - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pmfs())
    def test_self_difference_symmetric_with_mode_at_zero(self, x):
        d = difference(x).pmf()
        assert symmetry_center(d) == 0.0
        assert d.pmf(0) >= d.max_weight - 1e-15

    @settings(max_examples=60, deadline=None)
    @given(pmfs())
    def test_bitwise_symmetric(self, x):
        d = difference(x).pmf()
        np.testing.assert_array_equal(d.weights, d.weights[::-1])
        assert symmetry_center(d) == 0.0

    def test_bitwise_symmetric_at_690k_atoms(self):
        # the weights of symmetric geometric 0.9999 as an explicit pmf: the
        # transform path, far above the crossover, where noise clipped at 0
        # must trim both ends alike
        d = difference(_explicit(materialize(ParametricLaw.symmetric_geometric(0.9999)))).pmf()
        assert len(d) == 2 * 690_741 - 1
        np.testing.assert_array_equal(d.weights, d.weights[::-1])
        assert symmetry_center(d) == 0.0

    def test_fft_path_matches_direct(self):
        rng = np.random.default_rng(7)
        for n in (2000, 2001):  # either side of the crossover
            x = normalize(rng.random(n))
            d = difference(x).pmf()
            assert d.offset == 1 - n
            np.testing.assert_allclose(d.weights, direct_difference(x), rtol=0,
                                       atol=1e-14 * d.max_weight)

    @pytest.mark.parametrize("lam", [0.99, 0.999])
    def test_truncated_geometric_difference_law(self, lam):
        # the transform path on the weights of geometric lam: on N + 1 atoms,
        # P(D = k) is proportional to lam**|k| * (1 - lam**(2(N - |k| + 1)));
        # the max absolute error reads 1.1e-17 at 0.99 and 1.1e-18 at 0.999
        x = _explicit(materialize(ParametricLaw.geometric(lam)))
        d = difference(x).pmf()
        k = np.abs(np.arange(d.offset, d.offset + len(d)))
        exact = lam**k * -np.expm1(2 * (len(x) - k) * math.log(lam))
        exact /= exact.sum()
        assert np.max(np.abs(d.weights - exact)) <= 1e-14 * d.max_weight

    def test_smooth_length_matches_brute_force(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        smooths = [k for k in range(1, 40_001) if smooth(k)]
        for m in range(1, 20_001):
            assert _smooth_length(m) == smooths[bisect.bisect_left(smooths, m)]
        assert [_smooth_length(m) for m in (138_089, 276_241, 1_381_481)] == [
            138_240, 276_480, 1_382_400]

    def test_memory_at_690k_atoms(self):
        # the weights of symmetric geometric 0.9999 as an explicit pmf: one
        # spectrum and one inverse transform, two 10.5 MiB buffers at a time
        # (reads 21.2 MiB; with a separate law and its trimmed copy, 22.5
        # MiB), of which the n lags k >= 0 are copied out and kept (5.27
        # MiB; the mirrored law held 10.54)
        x = _explicit(materialize(ParametricLaw.symmetric_geometric(0.9999)))
        tracemalloc.start()
        try:
            d = difference(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 22 * 2**20
        assert held < 5.5 * 2**20 and d.last == 690_740


CLOSED_FORM_LAWS = [ParametricLaw(kind, lam) for kind in LawKind
                    for lam in (1e-20, 0.5, 0.9, 0.99, 0.999)]


def _law_id(law: ParametricLaw) -> str:
    return f"{law.kind.value}-{law.lam!r}"


class TestClosedFormDifference:
    """difference of a materialized law, from its family's closed form."""

    def test_only_materialize_records_its_law(self):
        law = ParametricLaw.geometric(0.5)
        x = materialize(law)
        assert x.law is law
        assert pmf_from_json({"law": "geometric", "lambda": 0.5}).law == law
        w = x.weights
        for y in (normalize(w), LatticePMF(0, w), difference(x).pmf(),
                  pmf_from_json({"weights": w.tolist()})):
            assert y.law is None
        with pytest.raises(TypeError):
            LatticePMF(0, w, law)  # the constructor takes no record

    @pytest.mark.parametrize("law", CLOSED_FORM_LAWS, ids=_law_id)
    def test_every_lag_matches_direct_convolution(self, law):
        # against each lag of the materialized weights summed directly; the
        # worst relative error reads 4.3e-15 (geometric) and 1.6e-14
        # (symmetric geometric), at 0.999; lambda 1e-20 keeps one atom
        x = materialize(law)
        d = difference(x).pmf()
        exact = direct_difference(x)
        assert d.offset == 1 - len(x) and len(d) == exact.size
        assert np.max(np.abs(d.weights - exact) / exact) <= 1e-13

    @pytest.mark.parametrize("law", CLOSED_FORM_LAWS + [
        ParametricLaw.geometric(0.9999), ParametricLaw.symmetric_geometric(0.9999)],
        ids=_law_id)
    def test_full_symmetric_log_concave_with_mode_at_zero(self, law):
        # every lag is computed to its own relative precision, so no tail
        # is clipped to 0 and trimmed; the transform keeps 13,731 of the
        # 13,749 lags of symmetric geometric 0.99 and 690,739 of the
        # 690,741 of geometric 0.9999
        x = materialize(law)
        d = difference(x).pmf()
        assert len(d) == 2 * len(x) - 1
        np.testing.assert_array_equal(d.weights, d.weights[::-1])
        assert is_log_concave(d)
        assert d.pmf(0) == d.max_weight

    def test_memory_at_690k_atoms(self):
        # symmetric geometric 0.9999: one sweep over the lags in blocks of
        # _LEAF, each copied into the pairwise leaves it falls in, and no
        # array of the law (reads 0.37 MiB; the lags written into one
        # buffer of 2n - 1 entries read 10.79 MiB, the transform 21.2 MiB)
        x = materialize(ParametricLaw.symmetric_geometric(0.9999))
        tracemalloc.start()
        try:
            difference(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**19


def _assert_reads_as_stored(x: LatticePMF) -> None:
    """difference(x) gives ref_difference(x)'s scalars, lags and pmf bit for
    bit; the lags are read in blocks of 1,000, across the leaves' edges."""
    d, ref = difference(x), ref_difference(x)
    pmf = d.pmf()
    assert pmf.offset == ref.offset == -d.last
    assert pmf.weights.tobytes() == ref.weights.tobytes()
    assert repr(d.max_weight) == repr(ref.max_weight)
    assert repr(d.mass_at_zero) == repr(ref.pmf(0))
    right = np.empty(d.last + 1)
    for lo in range(0, right.size, 1_000):
        d.lags(lo, min(lo + 1_000, right.size), right[lo:lo + 1_000])
    assert right.tobytes() == ref.weights[d.last:].tobytes()


class TestDifferenceReader:
    """difference reads the law of X - Y by its lags, with the bits of the
    law stored as its 2n - 1 atoms and normalized."""

    @pytest.mark.parametrize("case", DIFFERENCE_LAWS, ids=difference_law_id)
    def test_law_reads_as_stored(self, case):
        kind, lam, tol = case
        _assert_reads_as_stored(materialize(ParametricLaw(kind, lam), tol))

    @pytest.mark.parametrize("n", DIFFERENCE_SIZES)
    def test_explicit_reads_as_stored(self, n):
        x = explicit_decreasing(n)
        _assert_reads_as_stored(x)
        _assert_reads_as_stored(LatticePMF(5, x.weights[::-1]))

    def test_rescaled_trimmed_law_reads_as_stored(self):
        x = lag_tail_underflow()
        assert direct_difference(x)[-1] > 0.0  # positive before the division
        _assert_reads_as_stored(x)
        assert difference(x).last < len(x) - 1

    def test_cases_rescale_and_trim(self):
        # geometric 0.5 at tail_tol 1e-12 keeps weights that total within
        # 1e-12 of 1, so X - Y misses 1 by about twice that, and is
        # rescaled; at the least subnormal tail_tol the end lags round to 0
        x = materialize(ParametricLaw.geometric(0.5), 1e-12)
        assert abs(direct_difference(x).sum() - 1.0) > 1e-12
        y = materialize(ParametricLaw.geometric(0.5), 5e-324)
        assert difference(y).last < len(y) - 1

    @pytest.mark.parametrize("n", [3_969, 3_970, 7_936, 7_937, 8_001, 40_001, 100_003])
    def test_sweep_has_the_bits_of_one_numpy_sum(self, n):
        # the sweep's total, largest mass, mass at 0 and last positive lag
        # over the mirrored 2n - 1 positions, against one pass over them
        # stored, on drawn lags with zeros at the end; a leaf's terms added
        # in another order change the total's last bit in about one draw in
        # four, so twenty draws find such a defect at every size
        rng = np.random.default_rng(n)
        for _ in range(20):
            lags = rng.random(n)
            lags[-(n // 7):] = 0.0
            lags[n // 3] = 0.0
            mirrored = np.concatenate((lags[:0:-1], lags))
            total, top, zero, last, tail = lattice._mirrored_sweep(lattice._copied(lags), n)
            assert repr(total) == repr(float(mirrored.sum()))
            assert (top, zero) == (mirrored.max(), lags[0])
            assert last == int(np.flatnonzero(lags)[-1]) and tail == lags[last]

    def test_all_zero_lags_are_refused(self):
        with pytest.raises(AllZeroError):
            difference(LatticePMF(0, np.full(4_000, 1e-200)))


def _assert_same_steps(steps, reference):
    """Breakpoints, counts and their dtypes bitwise equal."""
    for a, b in zip(steps, reference):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestRecordedSteps:
    """The level steps of a materialized law, read off its record."""

    @pytest.mark.parametrize("kind", list(LawKind), ids=lambda k: k.value)
    def test_equal_to_the_sort_over_lambda(self, kind):
        # lambda 1e-20 keeps one atom; a sweep of 400 lambdas from 0.001 to
        # 0.9999; 0.99999 keeps 6,907,721 atoms of the symmetric law
        sweep = 1.0 - np.geomspace(0.999, 1e-4, 400)
        for lam in [1e-20, 0.5, *sweep, 0.99999]:
            x = materialize(ParametricLaw(kind, float(lam)))
            steps = recorded_steps(x)
            assert steps is not None, lam
            _assert_same_steps(steps, level_steps(x.weights))

    @pytest.mark.parametrize("kind", list(LawKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("lam", [0.9, 0.999])
    def test_tied_subnormal_masses_take_the_sort(self, kind, lam):
        # tail_tol 5e-324 keeps subnormal masses that tie: at geometric
        # 0.999 the sort reads 731,259 distinct masses in 737,858 atoms
        x = materialize(ParametricLaw(kind, lam), 5e-324)
        assert recorded_steps(x) is None
        _assert_same_steps(Subject(x).levels, level_steps(x.weights))

    def test_explicit_weights_take_the_sort(self):
        x = _explicit(materialize(ParametricLaw.symmetric_geometric(0.5)))
        assert recorded_steps(x) is None


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
        for doc in ({"law": "geometric"}, {"offset": 0}):
            with pytest.raises(ValueError):
                pmf_from_json(doc)

    def test_rejects_boolean_weights(self):
        for weights in ([True, False], [0.5, True]):
            with pytest.raises(BadWeightsError):
                pmf_from_json({"weights": weights})

    def test_offset_must_fit_a_float(self):
        # the symmetry center and the mean are floats, so an offset whose
        # float overflows is refused, in a message without its digits; the
        # pmf refuses it, so a document gets the library's error
        assert pmf_from_json({"offset": 2**1000, "weights": [1, 2, 1]}).offset == 2**1000
        for offset in (10**400, -(10**400)):
            with pytest.raises(DomainError) as exc:
                pmf_from_json({"offset": offset, "weights": [1, 2, 1]})
            assert str(exc.value) == "offset must be an integer that a float can hold"


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

    def test_require_returns_the_subject_or_the_first_failure(self):
        s = Subject(normalize([5, 3, 1]))
        assert s.require() is s and s.require(LC_MONOTONE, MONOTONE, MATCHABLE) is s
        # [4, 1, 3] fails log-concavity first, then monotonicity
        for conditions, error, reason in (
                ((LC_MONOTONE, MONOTONE), NotMonotoneLogConcaveError,
                 "requires monotone log-concave"),
                ((MONOTONE, LC_MONOTONE), NotMonotoneLogConcaveError,
                 "asserted for monotone pmfs"),
                ((MATCHABLE,), UnclassifiedError, "needs a monotone or integer-symmetric pmf")):
            with pytest.raises(error) as exc:
                Subject(normalize([4, 1, 3])).require(*conditions)
            assert str(exc.value) == reason and type(exc.value) is error
        with pytest.raises(DiracInputError, match="^matching needs a non-degenerate pmf$"):
            Subject(normalize([1.0])).require(MONOTONE, NON_DEGENERATE)

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

    def test_increasing_subject_crosses_as_its_mirror(self):
        # the level count holds for -X as well, so an increasing subject
        # computes it once and crosses the comparator as its mirror does
        inc = Subject(normalize([2, 3, 4], 4))
        mirror = Subject(LatticePMF(-6, inc.pmf.weights[::-1]))  # support 4..6 negated
        z = GeometricSequence(0.5, 0.5)
        assert crossing_interval(inc, z) == crossing_interval(mirror, z)
        assert crossing_verify(inc, z) == crossing_verify(mirror, z)
        assert inc.direction is Direction.INCREASING
        assert mirror.direction is Direction.DECREASING
        assert inc.levels is inc.levels
        np.testing.assert_array_equal(inc.levels[0], mirror.levels[0])


def test_random_generators_have_expected_structure():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = random_pmf(rng)
        assert abs(x.weights.sum() - 1.0) < 1e-12
