import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lclc import majorization
from lclc.entropy import power_sum
from lclc.errors import (
    MeanMismatchError,
    NoCrossingError,
    NotMonotoneLogConcaveError,
    NotSymmetricError,
)
from lclc.lattice import (
    LatticePMF,
    LawKind,
    ParametricLaw,
    Subject,
    level_steps,
    materialize,
    normalize,
)
from lclc.majorization import (
    GeometricSequence,
    LevelCount,
    PowerDensity,
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
    crossing_union,
    loop_cake_layer_check,
    loop_convex_order_check,
    loop_hinge_expectation,
    loop_mean,
    random_monotone_log_concave,
    random_pmf,
    random_symmetric_log_concave,
    ref_cake_layer_rhs,
    ref_crossing_verify,
    ref_hinge_grid,
    ref_level_count,
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

    def test_a_range_of_segments_is_a_slice_of_all(self):
        f = level_count(normalize([5, 3, 2, 3, 1]))
        edges, counts = f.segments()
        for lo in range(counts.size):
            for hi in range(lo + 1, counts.size + 2):
                e, c = f.segments(lo, hi)
                np.testing.assert_array_equal(e, edges[lo:hi + 1])
                np.testing.assert_array_equal(c, counts[lo:hi])


@st.composite
def level_inputs(draw):
    """Masses of every shape the level count sees: a unimodal pmf's two
    monotone runs, those runs shuffled, runs with ties, an interior zero,
    subnormal masses, and the half law that fold_symmetric passes."""
    kind = draw(st.sampled_from(
        ["unimodal", "shuffled", "tied", "interior_zero", "subnormal", "half"]))
    rise = draw(st.lists(st.floats(-40.0, 0.0), max_size=30))
    fall = draw(st.lists(st.floats(-40.0, 0.0), min_size=1, max_size=30))
    if kind == "tied":  # few distinct logs, so runs of equal masses
        rise, fall = [round(v / 10.0) for v in rise], [round(v / 10.0) for v in fall]
    values = np.exp(np.concatenate((np.sort(rise), -np.sort(-np.asarray(fall)))))
    if kind == "shuffled":
        values = values[np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                        .permutation(values.size)]
    elif kind == "interior_zero":
        values = np.insert(values, draw(st.integers(0, values.size)), 0.0)
    elif kind == "subnormal":  # multiples of the least subnormal, ties included
        values = np.round(values * 50.0) * 5e-324
    elif kind == "half":
        half = -np.sort(-np.asarray(fall))
        x = normalize(np.exp(np.concatenate((half[:0:-1], half))))
        values = x.weights[(len(x) - 1) // 2:]
    return values


class TestLevelCountOracle:
    @settings(max_examples=300, deadline=None)
    @given(level_inputs())
    def test_matches_unique_array_for_array(self, values):
        f, ref = LevelCount(*level_steps(values)), ref_level_count(values)
        np.testing.assert_array_equal(f.breakpoints.view(np.int64),
                                      ref.breakpoints.view(np.int64))
        np.testing.assert_array_equal(f.counts, ref.counts)
        assert f.breakpoints.dtype == np.float64 and f.counts.dtype == np.int64

    def test_symmetric_law_and_its_fold(self):
        x = materialize(ParametricLaw.symmetric_geometric(0.999))
        w = x.weights
        for values in (w, w[(len(w) - 1) // 2:]):
            f, ref = LevelCount(*level_steps(values)), ref_level_count(values)
            np.testing.assert_array_equal(f.breakpoints, ref.breakpoints)
            np.testing.assert_array_equal(f.counts, ref.counts)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e3, 1e3), max_size=20), min_size=1, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4))
    def test_breakpoints_are_unique_of_sorted_runs(self, runs, descending):
        # the crossing and fold grids and the hinge grid are the breakpoints
        # of a union of sorted runs; level_steps reads s[0], and no caller
        # passes it an empty union
        runs = [np.sort(r)[::-1] if d else np.sort(r) for r, d in zip(runs, descending)]
        values = np.concatenate([np.asarray(r, dtype=np.float64) for r in runs])
        assume(values.size > 0)
        np.testing.assert_array_equal(level_steps(values)[0], np.unique(values[values > 0.0]))

    def test_memory_at_690k_atoms(self):
        # symmetric geometric 0.9999: the sorted copy of the masses, the
        # one-byte run mask, the run starts, then the breakpoints and the
        # counts (reads 10.5 MiB; np.unique read 19.1 MiB)
        x = materialize(ParametricLaw.symmetric_geometric(0.9999))
        tracemalloc.start()
        try:
            level_count(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11.5 * 2**20


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

    @pytest.mark.parametrize("pieces", [1, majorization._CAKE_BLOCK - 1,
                                        majorization._CAKE_BLOCK, majorization._CAKE_BLOCK + 1,
                                        3 * majorization._CAKE_BLOCK + 7])
    def test_blocks_keep_the_bits_of_one_buffer(self, pieces):
        # as many pieces as distinct masses: each once, then one to three
        # atoms at each
        masses = np.arange(pieces, 0.0, -1.0)
        for weights in (masses, np.repeat(masses, 1 + np.arange(pieces) % 3)):
            x = normalize(weights)
            assert level_count(x).counts.size == pieces + 1
            for t in (1.0, 2.0, 3.5):
                assert repr(cake_layer_check(x, t).rhs) == repr(ref_cake_layer_rhs(x, t))

    def test_memory_at_690k_atoms(self):
        # symmetric geometric 0.9999, its level count and power sum cached:
        # the pieces are formed in blocks of _CAKE_BLOCK in two buffers of
        # 62 KiB (reads 0.24 MiB; the edges and pieces of all 345,371
        # pieces at once read 5.33 MiB)
        s = Subject(materialize(ParametricLaw.symmetric_geometric(0.9999)))
        cake_layer_check(s, 2.0)
        tracemalloc.start()
        try:
            report = cake_layer_check(s, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 0.5 * 2**20


class TestCrossing:
    def test_reference_instance(self):
        x = normalize([5, 3, 2])
        z = GeometricSequence(2.0 / 3.0, 1.0 / 3.0)
        result = crossing_interval(x, z)
        assert result.first_index == 1 and result.last_index == 2
        assert result.lo == pytest.approx(2.0 / 27.0, rel=1e-14)
        assert result.hi == pytest.approx(0.3, rel=1e-14)
        assert crossing_verify(x, z).passed

    def test_self_match_covers_whole_support(self):
        # coarse truncation so the renormalization lift of x above z is far
        # larger than the rounding difference between lam**k code paths
        lam = 0.4
        x = materialize(ParametricLaw.geometric(lam), 1e-8)
        result = crossing_interval(x, GeometricSequence(1 - lam, lam))
        assert result.first_index == 0
        assert result.last_index == len(x) - 1  # the crossing set reaches the horizon
        assert result.lo < 1e-7
        assert result.hi == pytest.approx(1 - lam, rel=1e-8)
        assert crossing_verify(x, GeometricSequence(1 - lam, lam)).passed

    def test_dirac_against_small_coefficient(self):
        result = crossing_interval(normalize([1.0]), GeometricSequence(0.8, 0.5))
        assert (result.first_index, result.last_index) == (0, 0)
        assert result.lo == pytest.approx(0.8)
        assert result.hi == pytest.approx(1.0)

    def test_no_crossing(self):
        with pytest.raises(NoCrossingError):
            crossing_interval(normalize([1, 1]), GeometricSequence(2.0, 0.5))

    def test_requires_monotone(self):
        z = GeometricSequence(0.5, 0.5)
        with pytest.raises(NotMonotoneLogConcaveError, match="^asserted for monotone pmfs$"):
            crossing_interval(normalize([1, 3, 2]), z)
        # an increasing pmf is read from its mode: its mirror's result
        assert crossing_interval(normalize([1, 2, 3]), z) == crossing_interval(
            normalize([3, 2, 1]), z)

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


def _matched(x, p):
    """The geometric comparator matched to x at order p."""
    lam = match_geometric(x, p).lam
    return GeometricSequence(1 - lam, lam)


def _breakpoint_count(x, z) -> int:
    """The number of distinct positive breakpoints crossing_verify probes:
    those of F_x, the comparator values from lowest up and the interval's
    two edges."""
    result = crossing_interval(x, z)
    w = x.weights
    lowest = max(min(float(w[w > 0].min()), result.lo) / 4.0, 1e-300)
    zv = z.value(np.arange(len(w) + 8))
    points = np.concatenate((level_count(x).breakpoints, zv[zv >= lowest],
                             [result.lo, result.hi]))
    return np.unique(points[points > 0.0]).size


def _assert_matches_dense(report, x, z, n_samples=0):
    """report equals the dense reference loop's, which also probes every
    midpoint and n_samples log-spaced thresholds, in every field but the
    threshold count; that count is the number of distinct breakpoints."""
    dense = scalar_crossing_verify(x, z, n_samples)
    assert report.params["thresholds"] == _breakpoint_count(x, z)
    assert report.params["thresholds"] < dense.params["thresholds"]
    thresholds = {"thresholds": dense.params["thresholds"]}
    assert replace(report, params={**report.params, **thresholds}) == dense


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
                z = _matched(x, p)
                _assert_matches_dense(crossing_verify(x, z), x, z, n_samples)

    def test_increasing_pmf_crosses_as_its_mirror(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            x = random_monotone_log_concave(rng, max_support=80, direction="increasing")
            z = _matched(x, float(rng.choice([1.5, 2.0, 3.0])))
            n_samples = int(rng.choice([0, 0, 33]))
            mirror = LatticePMF(-(x.offset + len(x) - 1), x.weights[::-1])
            assert crossing_interval(x, z) == crossing_interval(mirror, z)
            report = crossing_verify(x, z)
            assert report == crossing_verify(mirror, z)
            _assert_matches_dense(report, mirror, z, n_samples)

    @pytest.mark.parametrize("lam", [0.99, 0.999])
    def test_crossing_matches_scalar_loop_on_geometric(self, lam):
        x = materialize(ParametricLaw.geometric(lam))
        z = _matched(x, 2.0)
        report = crossing_verify(x, z)
        _assert_matches_dense(report, x, z)
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

    def test_level_count_settles_from_its_log_estimate(self, monkeypatch):
        # settling from the log estimate takes 2.8 power evaluations per
        # threshold on the union of a geometric 0.999 crossing check's
        # thresholds, from two steps below it 4.8
        x = materialize(ParametricLaw.geometric(0.999))
        z = _matched(x, 2.0)
        ts = crossing_union(x, z)
        value = GeometricSequence.value
        powers = []

        def counting_value(self, k):
            powers.append(np.size(k))
            return value(self, k)

        monkeypatch.setattr(GeometricSequence, "value", counting_value)
        z.level_count(ts)
        assert ts.size > 10_000
        assert sum(powers) <= 3 * ts.size, (sum(powers), ts.size)

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
        x = normalize(np.exp(log_w))
        z = _matched(x, 2.0)
        lowest = max(min(float(x.weights.min()), crossing_interval(x, z).lo) / 4.0, 1e-300)
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

    def test_memory_of_crossing_at_345k_atoms(self):
        # geometric 0.9999 (345,371 atoms), its level count already cached:
        # each side is read at its own breakpoints in blocks, so the peak
        # (5.3 MiB) is the comparator values, computed once for the interval
        # and the thresholds, and the indices they are computed from; the
        # sorted union of both sides' thresholds took 35 MiB
        s = Subject(materialize(ParametricLaw.geometric(0.9999)))
        z = _matched(s.pmf, 2.0)
        crossing_verify(s.pmf, z)  # warm up lazy imports outside the measurement
        level_count(s)  # caches the level count, not the comparator values
        tracemalloc.start()
        try:
            report = crossing_verify(s, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 * 2**20


def _tied_at_the_mode(rng, x: LatticePMF) -> LatticePMF:
    """x with its largest mass repeated up to three more times; a plateau at
    the mode keeps the pmf monotone and log-concave."""
    w, copies = x.weights, int(rng.integers(1, 4))
    top = np.full(copies, w.max())
    return normalize(np.concatenate((top, w) if w[0] >= w[-1] else (w, top)), x.offset)


def _has_low_thresholds(x, z) -> bool:
    """Whether some breakpoint of x lies below the last stored value."""
    return level_count(x).breakpoints[0] < z.value(len(x) + 7)


class TestBlockedCrossing:
    """crossing_verify, which reads each side at its own breakpoints in
    blocks, against ref_crossing_verify, which evaluates the sorted union
    of the thresholds with the settle loop at each one: every field of the
    report, thresholds and worst_t included."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(2424)
        for k in range(60):
            direction = "decreasing" if k % 2 else "increasing"
            x = random_monotone_log_concave(rng, max_support=300, direction=direction)
            if k % 3 == 0:
                x = _tied_at_the_mode(rng, x)
            z = _matched(x, float(rng.choice([1.5, 2.0, 3.0])))
            yield x, z
            # a faster-decaying comparator with the same top, whose last
            # stored value lies below every breakpoint of x
            drop = (float(x.weights.min()) / (2.0 * z.coeff)) ** (1.0 / (len(x) + 7))
            yield x, GeometricSequence(z.coeff, min(z.ratio, drop))
        # stored values that tie: 16 among the first 40 of this comparator,
        # against pmfs above it at the top, and a sequence of its own values
        tied = GeometricSequence(0.3, 1 - 2**-53)
        for n in (3, 40, 200):
            yield normalize(0.6 ** np.arange(n)), tied
        yield LatticePMF(0, tied.value(np.arange(40))), tied
        # masses that are stored comparator values, with a lower tail
        z = GeometricSequence(0.25, 0.8)
        yield LatticePMF(0, np.concatenate((z.value(np.arange(30)), [1e-9, 1e-12]))), z
        yield materialize(ParametricLaw.geometric(0.99)), _matched(
            materialize(ParametricLaw.geometric(0.99)), 2.0)

    @pytest.mark.parametrize("block", [2**4, 2**16])
    def test_matches_the_union_form(self, monkeypatch, block):
        monkeypatch.setattr(majorization, "_CROSSING_BLOCK", block)
        low = clear = 0
        for x, z in self._cases():
            report, ref = crossing_verify(x, z), ref_crossing_verify(x, z)
            assert repr(report) == repr(ref), (x, z)
            if _has_low_thresholds(x, z):
                low += 1
            else:
                clear += 1
        assert low >= 20 and clear >= 20, (low, clear)

    def test_comparator_values_are_computed_once(self, monkeypatch):
        # crossing_interval reads a and b off the stored values that
        # crossing_verify then takes as its thresholds
        x = materialize(ParametricLaw.geometric(0.99))
        z = _matched(x, 2.0)
        sizes, value = [], GeometricSequence.value
        monkeypatch.setattr(GeometricSequence, "value",
                            lambda self, k: sizes.append(np.size(k)) or value(self, k))
        assert crossing_verify(x, z).passed
        assert [size for size in sizes if size >= len(x)] == [len(x) + 8]

    def test_tied_stored_values_are_one_threshold(self):
        z = GeometricSequence(0.3, 1 - 2**-53)
        zv = z.value(np.arange(48))
        assert np.count_nonzero(zv[1:40] == zv[:39]) == 16
        x = LatticePMF(0, zv[:40])
        report = crossing_verify(x, z)
        assert report.params["thresholds"] == np.unique(zv).size
        assert report == ref_crossing_verify(x, z)


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

    def test_identity_transform(self):
        # a level count's hinge values and mean are those of its power 1,
        # bit for bit, over the hinge tables' probe grids
        rng = np.random.default_rng(53)
        pairs = [(level_count(normalize([5, 3, 2])),) * 2]
        for p in (2.0, 3.0):
            pairs += _matched_pair_densities(rng, p)[:1]
        for u, v in pairs:
            ts = _probe_grid(u, v)
            for f in (u, v):
                d = power_transform_density(f, 1.0)
                assert np.array_equal(d.hinge_expectation(ts).view(np.int64),
                                      f.hinge_expectation(ts).view(np.int64))
                assert d.mean() == f.mean()

    def test_hinge_grid_is_the_unique_form(self):
        # bit for bit the grid of np.unique and np.union1d, also where a
        # breakpoint's power underflows to 0 and keeps its midpoint with the
        # smallest positive one, and where every breakpoint's power does
        rng = np.random.default_rng(61)
        level_pairs = [(level_count(normalize(0.01 ** np.arange(101.0))),) * 2]
        pairs = []
        for p in (2.0, 3.0):
            for _ in range(10):
                levels, powers = _matched_pair_densities(rng, p)
                level_pairs.append(levels)
                pairs.append(powers)
        for e in (2.0, 700.0, 1e6):
            pairs += [(power_transform_density(u, e), power_transform_density(v, e))
                      for u, v in level_pairs[:3]]
        pairs += level_pairs
        densities = [d for pair in pairs for d in pair]
        assert any(0.0 in d.breakpoints for pair in pairs for d in pair)
        assert any(not d.breakpoints.any() for pair in pairs for d in pair)
        for u, v in pairs + list(zip(densities, densities[::-1])):
            grid, ref = _default_hinge_grid(u, v), ref_hinge_grid(u, v)
            np.testing.assert_array_equal(grid.view(np.int64), ref.view(np.int64))
        # the midpoint of an underflowed 0 and the smallest subnormal is 0
        tiny = SimpleNamespace(breakpoints=np.array([0.0, 5e-324, 0.25]))
        np.testing.assert_array_equal(_default_hinge_grid(tiny, tiny), [0.0, 5e-324, 0.125, 0.25])
        np.testing.assert_array_equal(ref_hinge_grid(tiny, tiny), [0.0, 5e-324, 0.125, 0.25])

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
                mismatch = _raises_mean_mismatch(loop_convex_order_check, u, v)
                assert _raises_mean_mismatch(convex_order_check, u, v) == mismatch
                if mismatch:
                    continue
                ref = loop_convex_order_check(u, v)
                report = convex_order_check(u, v)
                assert report.verdict == ref.verdict
                assert abs(report.margin - ref.margin) <= 1e-15
                assert report.params["hinges"] == ref.params["hinges"]

    def test_scalar_equals_array_element_bitwise(self):
        rng = np.random.default_rng(51)
        for p in (2.0, 3.0):
            for u, v in _matched_pair_densities(rng, p):
                ts = _probe_grid(u, v)
                # and the density of the square root of v's variable
                half = (PowerDensity(v.base, 0.5 * v.exponent) if isinstance(v, PowerDensity)
                        else v.power(0.5))
                for d in (u, v, half):
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
            # exponent 1 takes the level count's form
            for d in (f, f.power(1.0)):
                values = d.hinge_expectation(ts)
                for t, value in zip(ts.tolist(), values.tolist()):
                    exact = _exact_hinge(f, t)
                    assert abs(Fraction(value) - exact) <= Fraction(1e-13) * exact, (t, value)

    def test_first_worst_hinge_among_ties(self):
        f = level_count(normalize([5, 3, 2]))
        assert convex_order_check(f, f).params["worst_t"] == 0.0


class TestMomentDominance:
    def test_matched_pairs_power_sums(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = random_monotone_log_concave(rng, max_support=40,
                                            direction="decreasing")
            p = float(rng.choice([2.0, 3.0, 5.0]))
            lam = match_geometric(x, p).lam
            for q in np.linspace(1.0 + 1e-6, p - 1e-6, 7):
                psi = math.exp(LawKind.GEOMETRIC.log_power_sum(lam, float(q)))
                assert power_sum(x, float(q)) >= psi - 1e-10
