import math
import warnings
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclc import lyapunov
from lclc.entropy import varentropy
from lclc.errors import DomainError
from lclc.lattice import LatticePMF, LawKind, ParametricLaw, Subject, materialize, normalize
from lclc.lyapunov import (
    _phi_on_grid,
    check_concavity,
    counterexample_check,
    extended_phi,
    phi,
    phi_second_derivative,
)
from support import (mp_phi_rows, positive, random_log_concave, random_monotone_log_concave,
                     random_pmf, scan_symmetric_peaks, tilt)


FLOORS = (0, math.inf)  # _BINNED_MIN_ATOMS that force the binned path, then the direct one


def _kernel_cases():
    """Log-masses of geometric 0.99 and 0.999 and of random log-concave pmfs."""
    rng = np.random.default_rng(31)
    pmfs = [materialize(ParametricLaw.geometric(lam)) for lam in (0.99, 0.999)]
    pmfs += [random_log_concave(rng, max_support=400) for _ in range(6)]
    return pmfs


def _binned(logs, ts):
    """Which rows of the grid ts take the binned path."""
    levels, base = lyapunov._bin_levels(logs - logs.max(), ts)
    return levels >= base


def _error_bound(logs, t, var):
    """Forward error bounds (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 4) on phi and phi'' at t on either path, given the
    tilted variance var.

    Both paths add only non-negative terms: the tilted weights, and the
    bincounts, merges and Horner steps of the moment table, whose Taylor
    tail past K terms is at most rho**(K+1) / (K+1)! of each bin's sum,
    since t d <= rho. So the tilted sum S is off by a relative
    delta = eps (6 t max|log x| + n + 2 K + 8) + rho**(K+1) / (K+1)!, where
    6 t max|log x| eps bounds the rounding of a term's exponent and
    n + 2 K + 8 the operations on its way into S. Weights off by delta move
    the variance by at most 3 delta var; the centred squares, within a bin
    of width at most rho / t, round within 4 (K + 4) eps (var + (rho/t)**2).
    phi = log t + t max log x + log S adds an eps for each of its terms,
    and phi'' = var - 1/t**2 two more."""
    eps, k, rho = 2.0**-53, lyapunov._TAYLOR_TERMS, lyapunov._BIN_RHO
    big = float(np.abs(logs).max())
    delta = eps * (6 * t * big + logs.size + 2 * k + 8) + rho ** (k + 1) / math.factorial(k + 1)
    phi_err = delta + eps * (abs(math.log(t)) + 2 * t * big + math.log(logs.size) + 4)
    var_err = 3 * delta * var + 4 * (k + 4) * eps * (var + (rho / t) ** 2)
    return phi_err, var_err + eps * (var + 3 / t**2)


@st.composite
def log_concave_logs(draw, min_atoms, max_atoms):
    """Log-masses of a log-concave pmf of min_atoms to max_atoms atoms whose
    log-mass span runs from under one to hundreds, so that its binned rows
    start at fine and at coarse widths."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_atoms, max_atoms))
    step = draw(st.floats(1e-4, 0.5))
    x = random_log_concave(rng, max_support=n, min_support=n, max_step=step)
    return np.log(positive(x))


class TestGridKernel:
    """_phi_on_grid is the one evaluation of phi and phi''; a row's bits
    must not depend on the rows evaluated with it, on either path."""

    ts = np.geomspace(0.05, 40.0, 256)
    # across the binned path's cutoff: 64 itself and the next float above it
    straddle = np.sort(np.concatenate((np.geomspace(8.0, 512.0, 61),
                                       [64.0, np.nextafter(64.0, 65.0)])))

    @pytest.mark.parametrize("height", [1, 7, 32])
    def test_split_grid_is_bitwise(self, height, monkeypatch):
        # 256 rows in blocks of 7 leave a ragged last block of 4
        for floor in FLOORS:
            monkeypatch.setattr(lyapunov, "_BINNED_MIN_ATOMS", floor)
            for x in _kernel_cases():
                logs = np.log(positive(x))
                for ts in (self.ts, self.straddle):
                    whole = _phi_on_grid(logs, ts)
                    parts = [_phi_on_grid(logs, ts[i:i + height])
                             for i in range(0, ts.size, height)]
                    for k in range(2):
                        np.testing.assert_array_equal(
                            np.concatenate([part[k] for part in parts]), whole[k])

    def test_scalar_calls_are_grid_rows(self, monkeypatch):
        # a pmf's rows are those of the grid over its mass table
        for floor in FLOORS:
            monkeypatch.setattr(lyapunov, "_BINNED_MIN_ATOMS", floor)
            for x in _kernel_cases():
                table = Subject(x).mass_table
                phi_vals, phi2_vals = _phi_on_grid(table.logs, self.ts, table.counts)
                assert [phi(x, t) for t in self.ts] == phi_vals.tolist()
                assert [phi_second_derivative(x, t) for t in self.ts] == phi2_vals.tolist()
                # an array of t gives the array of the same rows
                assert phi(x, self.ts).tolist() == phi_vals.tolist()
                assert phi_second_derivative(x, self.ts).tolist() == phi2_vals.tolist()

    def test_underflowing_rows_take_the_limit(self, monkeypatch):
        # rows whose largest t * log x is -inf read phi = -inf and tilted
        # variance 0, with no warning; the other rows keep their bits. On
        # 100 atoms the rows at t <= 64 can take the binned path, on 10 they
        # cannot; at t = 1e300 every depth of equal log-masses is 0, so the
        # variance is 0 and 1/t**2 underflows
        ts = np.array([0.5, 1e308, 2.0, 1e300])
        for floor in FLOORS:
            monkeypatch.setattr(lyapunov, "_BINNED_MIN_ATOMS", floor)
            for n in (10, 100):
                logs = np.log(positive(normalize(np.ones(n))))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    phi_vals, phi2_vals = _phi_on_grid(logs, ts)
                assert phi_vals[1] == -math.inf and phi2_vals[1] == 0.0
                assert phi_vals[3] == pytest.approx(math.log(1e300) - 1e300 * math.log(n))
                assert phi2_vals[3] == 0.0
                for k in (0, 2):
                    alone = _phi_on_grid(logs, ts[k:k + 1])
                    assert (phi_vals[k], phi2_vals[k]) == (alone[0][0], alone[1][0])
                    assert phi2_vals[k] == pytest.approx(-1.0 / ts[k] ** 2, abs=1e-15)

    def test_equal_masses_have_no_tilted_variance(self):
        # every depth below the largest log-mass is 0, so at any t the
        # tilted variance is 0 and phi'' is -1/t**2 to the bit, not a
        # rounding residue of the log-masses' mean that can exceed it
        ts = np.array([1e15, 1e16, 1e300])
        logs = np.log(positive(normalize(np.ones(100))))
        phi2_vals = _phi_on_grid(logs, ts)[1]
        with np.errstate(over="ignore"):  # (1e300)**2
            assert phi2_vals.tolist() == (0.0 - 1.0 / ts**2).tolist()
        assert (phi2_vals <= 0.0).all()

    @pytest.mark.parametrize("n", [3, 300, 2**10, 5_000, 2**16, 70_000])
    def test_block_size_is_bitwise(self, n, monkeypatch):
        # at 2**10, 2**16 and 2**20 elements per block these supports take
        # one row per block, a ragged last block, or one block that the
        # 256-row grid caps
        logs = np.log(positive(normalize(np.random.default_rng(n).random(n) + 0.01)))
        for floor in FLOORS:
            monkeypatch.setattr(lyapunov, "_BINNED_MIN_ATOMS", floor)
            results = []
            for block in (2**10, 2**16, 2**20):
                monkeypatch.setattr(lyapunov, "_BLOCK_ELEMENTS", block)
                results.append(_phi_on_grid(logs, np.concatenate((self.ts, self.straddle))))
            for k in range(2):
                for other in results[1:]:
                    np.testing.assert_array_equal(other[k], results[0][k])

    @pytest.mark.parametrize("block", [2**10, lyapunov._BLOCK_ELEMENTS, 2**20])
    def test_all_underflow_grid_at_any_block_size(self, block, monkeypatch):
        # every row underflows, so the blocked walk is reached with no rows
        monkeypatch.setattr(lyapunov, "_BLOCK_ELEMENTS", block)
        logs = np.log(positive(normalize(np.ones(10))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi_vals, phi2_vals = _phi_on_grid(logs, np.array([1e308]))
        assert phi_vals.tolist() == [-math.inf] and phi2_vals.tolist() == [0.0]

    def test_routing(self, monkeypatch):
        # the floor forces each path; by default, supports of at most 200
        # atoms and rows above t = 64 never take the binned path
        grid = np.concatenate((self.ts, self.straddle))
        geometric = np.log(positive(materialize(ParametricLaw.geometric(0.999))))
        np.testing.assert_array_equal(_binned(geometric, grid), grid <= 64.0)
        monkeypatch.setattr(lyapunov, "_BINNED_MIN_ATOMS", math.inf)
        assert not _binned(geometric, grid).any()
        monkeypatch.setattr(lyapunov, "_BINNED_MIN_ATOMS", 0)
        rng = np.random.default_rng(12)
        small = [np.log(positive(random_log_concave(rng, max_support=200)))
                 for _ in range(20)]
        assert any(_binned(logs, grid).any() for logs in small)
        monkeypatch.undo()
        assert not any(_binned(logs, grid).any() for logs in small)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(log_concave_logs(500, 6_000))
    def test_paths_agree(self, logs):
        # both sides of the default floor (2,000 atoms); each row routed by
        # default has the bits of the path it was routed to
        grid = np.concatenate((self.ts[::8], self.straddle))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lyapunov, "_BINNED_MIN_ATOMS", 0)
            binned = _phi_on_grid(logs, grid)
            patch.setattr(lyapunov, "_BINNED_MIN_ATOMS", math.inf)
            direct = _phi_on_grid(logs, grid)
        routed = np.where(_binned(logs, grid), binned, direct)
        np.testing.assert_array_equal(_phi_on_grid(logs, grid), routed)
        for i, t in enumerate(grid):
            phi_err, phi2_err = _error_bound(logs, t, direct[1][i] + 1.0 / t**2)
            assert abs(binned[0][i] - direct[0][i]) <= 2 * phi_err
            assert abs(binned[1][i] - direct[1][i]) <= 2 * phi2_err

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(log_concave_logs(1_000, 3_000))
    def test_paths_match_mpmath(self, logs):
        grid = np.array([0.05, 0.7, 5.0, 40.0, 64.0, np.nextafter(64.0, 65.0)])
        exact_phi, exact_phi2, exact_var = mp_phi_rows(logs, grid)
        for floor in FLOORS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lyapunov, "_BINNED_MIN_ATOMS", floor)
                phi_vals, phi2_vals = _phi_on_grid(logs, grid)
            for i, t in enumerate(grid):
                phi_err, phi2_err = _error_bound(logs, t, exact_var[i])
                assert abs(phi_vals[i] - exact_phi[i]) <= phi_err
                assert abs(phi2_vals[i] - exact_phi2[i]) <= phi2_err

    @pytest.mark.parametrize("kind", list(LawKind))
    def test_binned_rows_match_closed_forms(self, kind):
        # at t >= 2 the truncated tail moves phi'' by far less than the
        # bound; renormalizing moves phi by t times the discarded mass
        lam = 0.999
        x = materialize(ParametricLaw(kind, lam))
        logs = np.log(positive(x))
        grid = np.geomspace(2.0, 64.0, 11)
        assert _binned(logs, grid).all()
        phi_vals, phi2_vals = _phi_on_grid(logs, grid)
        for i, t in enumerate(grid):
            exact = kind.phi_second_derivative(lam, t)
            phi_err, phi2_err = _error_bound(logs, t, exact + 1.0 / t**2)
            assert abs(phi_vals[i] - kind.phi(lam, t)) <= phi_err + 2e-15 * t
            assert abs(phi2_vals[i] - exact) <= phi2_err

    @pytest.mark.parametrize("kind", list(LawKind))
    def test_counts_weigh_each_log_mass(self, kind, monkeypatch):
        # rows over a mass table equal the rows over its atoms, each log
        # repeated count times, within the error bound of the atoms' sums,
        # on either path; a symmetric law counts 2 atoms at each mass but
        # its mode
        x = materialize(ParametricLaw(kind, 0.999))
        table = Subject(x).mass_table
        assert (table.counts is None) == (kind is LawKind.GEOMETRIC)
        counts = np.ones(table.logs.size) if table.counts is None else table.counts
        atoms = np.repeat(table.logs, counts.astype(np.intp))
        assert atoms.size == len(x)
        grid = np.concatenate((self.ts[::8], self.straddle))
        for floor in FLOORS:
            monkeypatch.setattr(lyapunov, "_BINNED_MIN_ATOMS", floor)
            counted = _phi_on_grid(table.logs, grid, table.counts)
            repeated = _phi_on_grid(atoms, grid)
            for i, t in enumerate(grid):
                phi_err, phi2_err = _error_bound(atoms, t, repeated[1][i] + 1.0 / t**2)
                assert abs(counted[0][i] - repeated[0][i]) <= 2 * phi_err
                assert abs(counted[1][i] - repeated[1][i]) <= 2 * phi2_err

    def test_merged_tables_match_direct_tables(self):
        # merging pairs of bins equals binning at the wider width, up to
        # the rounding of sums of non-negative terms
        logs = np.log(positive(materialize(ParametricLaw.geometric(0.99))))
        depths = logs - logs.max()
        table = lyapunov._moment_table(depths, lyapunov._FINEST_LEVEL, None)
        for j in range(lyapunov._FINEST_LEVEL + 1, 7):
            table = lyapunov._merge_pairs(table, math.ldexp(1.0, j - 1))
            np.testing.assert_allclose(table, lyapunov._moment_table(depths, j, None),
                                       rtol=1e-12, atol=0.0)

    def test_replicated_witness_fails_on_the_binned_path(self):
        # repeating every atom of test_04's kind of witness m times moves
        # phi by the linear (1 - t) log m, so phi'' and the violation stay;
        # 7 * 1,600 atoms, one log each, put every grid row on the binned
        # path, and the law's mass table, 4 log-masses with their counts,
        # on the direct one
        pmf, t, curvature = scan_symmetric_peaks(half_widths=(3,))
        wide = normalize(np.repeat(pmf.weights, 1_600))
        logs = np.log(positive(wide))
        assert _binned(logs, self.ts).all()
        phi2_vals = _phi_on_grid(logs, self.ts)[1]
        assert phi2_vals.max() == pytest.approx(curvature, rel=1e-9)
        assert self.ts[np.argmax(phi2_vals)] == t
        table = Subject(wide).mass_table
        assert table.counts.tolist() == [1_600, 3_200, 3_200, 3_200]  # mode first
        report = check_concavity(wide)
        assert not report.passed
        assert report.rhs == pytest.approx(curvature, rel=1e-9)
        lo, _, hi = report.params["witness"]
        assert lo <= t <= hi

    @staticmethod
    def _concavity_peak(lam, atoms):
        """tracemalloc peak of a passing check_concavity on geometric lam."""
        x = materialize(ParametricLaw.geometric(lam))
        assert x.support_size == atoms
        check_concavity(normalize([0.5, 0.5]))  # warm up outside the measurement
        tracemalloc.start()
        try:
            report = check_concavity(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        return peak

    def test_check_concavity_memory_is_bounded(self):
        # a block is one row: the workspace's two rows take 5.3 MiB
        assert self._concavity_peak(0.9999, 345_371) < 16 * 2**20

    def test_check_concavity_memory_at_34k_atoms(self):
        # a block is one row: the workspace's two rows take 0.5 MiB
        assert self._concavity_peak(0.999, 34_522) < 4 * 2**20


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
                assert phi(x, t) == pytest.approx(LawKind.GEOMETRIC.phi(lam, t), abs=1e-10)

    def test_scaling_covariance_on_raw_sequences(self):
        # the raw constructor keeps unnormalized weights
        rng = np.random.default_rng(11)
        w = rng.random(12) + 0.05
        for c in (0.25, 3.0):
            for t in (0.5, 1.0, 4.0):
                assert phi(LatticePMF(0, c * w), t) == pytest.approx(
                    phi(LatticePMF(0, w), t) + t * math.log(c), abs=1e-10)

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
        assert LawKind.GEOMETRIC.phi_second_derivative(0.5, 2.0) == pytest.approx(expected, rel=1e-13)

    def test_matches_tilted_varentropy_form(self):
        rng = np.random.default_rng(6)
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
            assert report.passed, report.params["witness"]

    def test_dirac_is_concave(self):
        report = check_concavity(normalize([1.0]))
        assert report.passed
        assert report.rhs < 0.0  # phi = log t

    def test_geometric_closed_form_curvature_non_positive(self):
        for lam in (0.1, 0.5, 0.9):
            for t in np.geomspace(0.05, 50, 100):
                assert LawKind.GEOMETRIC.phi_second_derivative(lam, float(t)) <= 0.0

    def test_local_concavity_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            x = random_monotone_log_concave(rng, max_support=40)
            for p, q in ((2.0, 1.0), (5.0, 2.0), (3.0, 0.5)):
                fp, fq = phi(x, p), phi(x, q)
                for s in np.linspace(0.1, 0.9, 9):
                    mid = phi(x, (1 - s) * p + s * q)
                    assert mid >= (1 - s) * fp + s * fq - 1e-9


class TestNonMonotoneWitness:
    def test_wide_symmetric_peaks_violate_concavity(self):
        pmf, t, curvature = scan_symmetric_peaks(half_widths=(2, 3))
        assert curvature > 1e-6
        report = check_concavity(pmf)
        assert not report.passed
        assert report.params["witness"] is not None
        lo, _, hi = report.params["witness"]
        assert lo < t < hi or report.rhs > 1e-6

    def test_three_atom_peaks_never_violate(self):
        # two distinct log-masses bound the tilted variance times t^2 by
        # max_s s^2 2 e^-s / (1 + 2 e^-s)^2 < 0.77, so phi'' stays negative
        _, _, curvature = scan_symmetric_peaks(half_widths=(1,))
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
