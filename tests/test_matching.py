import math

import numpy as np
import pytest

from lclc.entropy import power_sum, renyi
from lclc.errors import BadOrdersError, DiracInputError, UnclassifiedError
from lclc.lattice import LawKind, ParametricLaw, materialize, normalize
from lclc.matching import (
    match_comparator,
    match_geometric,
    match_symmetric_geometric,
    renyi_dominance_report,
)
from support import random_monotone_log_concave, random_symmetric_log_concave

INF = math.inf


class TestMatchGeometric:
    def test_fair_coin_quadratic(self):
        # (1-lam)/(1+lam) = 1/2 solves to lam = 1/3
        result = match_geometric(normalize([1, 1]), 2.0)
        assert result.lam == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.target == pytest.approx(0.5)

    def test_three_atom_quadratic(self):
        result = match_geometric(normalize([5, 3, 2]), 2.0)
        assert result.lam == pytest.approx(0.62 / 1.38, abs=1e-12)
        assert result.target == pytest.approx(0.38)

    @pytest.mark.parametrize("lam0", [0.2, 0.5, 0.8])
    def test_self_match(self, lam0):
        x = materialize(ParametricLaw.geometric(lam0), 1e-15)
        assert match_geometric(x, 3.0).lam == pytest.approx(lam0, abs=1e-9)

    def test_dirac_rejected(self):
        with pytest.raises(DiracInputError):
            match_geometric(normalize([1.0]), 2.0)

    def test_order_one_rejected(self):
        with pytest.raises(BadOrdersError):
            match_geometric(normalize([1, 1]), 1.0)

    def test_residuals_small(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = random_monotone_log_concave(rng)
            p = float(rng.choice([1.5, 2.0, 3.0, 5.0]))
            result = match_geometric(x, p)
            assert result.residual < 1e-12
            assert 0.0 < result.lam < 1.0
            assert math.exp(LawKind.GEOMETRIC.log_power_sum(result.lam, p)) == pytest.approx(
                power_sum(x, p), rel=1e-11)

    def test_sub_one_order_brackets_upward(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            x = random_monotone_log_concave(rng, max_support=30)
            result = match_geometric(x, 0.5)
            assert result.residual < 1e-12
            assert result.target > 1.0  # power sums exceed one below order one


class TestMatchSymmetricGeometric:
    def test_power_sum_limits(self):
        # the symmetric closed form runs from 1 down to 0 as lam sweeps (0,1)
        log_psi = LawKind.SYMMETRIC_GEOMETRIC.log_power_sum
        assert math.exp(log_psi(1e-9, 2.0)) == pytest.approx(1.0, abs=1e-6)
        assert math.exp(log_psi(1.0 - 1e-9, 2.0)) < 1e-6

    def test_self_match(self):
        z = materialize(ParametricLaw.symmetric_geometric(0.5), 1e-15)
        assert match_symmetric_geometric(z, 2.0).lam == pytest.approx(0.5, abs=1e-10)

    def test_three_atom_target(self):
        result = match_symmetric_geometric(normalize([2, 6, 2]), 2.0)
        assert result.target == pytest.approx(0.44)
        assert math.exp(LawKind.SYMMETRIC_GEOMETRIC.log_power_sum(
            result.lam, 2.0)) == pytest.approx(0.44, rel=1e-12)

    def test_sub_one_order(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = random_symmetric_log_concave(rng, max_half=15)
            result = match_symmetric_geometric(x, 0.5)
            assert result.residual < 1e-12

    def test_dirac_rejected(self):
        with pytest.raises(DiracInputError):
            match_symmetric_geometric(normalize([1.0]), 2.0)


class TestRenyiDominance:
    def test_reference_monotone_instance(self):
        report = renyi_dominance_report(normalize([5, 3, 2]), 2.0)
        assert report.passed
        assert report.params["branch"] == "geometric"
        assert report.params["lam"] == pytest.approx(0.62 / 1.38, abs=1e-9)

    def test_matched_law_has_zero_margins(self):
        x = materialize(ParametricLaw.geometric(0.5), 1e-15)
        report = renyi_dominance_report(x, 2.0)
        assert report.passed
        assert max(abs(m) for m in report.params["margins"]) < 1e-6

    def test_symmetric_three_atoms(self):
        report = renyi_dominance_report(normalize([2, 6, 2]), 2.0)
        assert report.passed
        assert report.params["branch"] == "symmetric_geometric"

    def test_six_case_sign_table_for_symmetric(self):
        rng = np.random.default_rng(34)
        cases = {2.0: (1.5, 0.5, 3.0),   # 1<q<p, q<1<p, 1<p<q
                 0.7: (0.8, 0.3, 2.0)}   # p<q<1, q<p<1, p<1<q
        for _ in range(30):
            x = random_symmetric_log_concave(rng, max_half=15)
            for p, qs in cases.items():
                report = renyi_dominance_report(x, p, q_grid=qs)
                assert report.passed, (p, report.params)

    def test_monotone_dominance_both_sides_of_p(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            x = random_monotone_log_concave(rng, max_support=40)
            report = renyi_dominance_report(x, 2.0,
                                            q_grid=(0.5, 1.0, 1.5, 3.0, INF))
            assert report.passed, report.params

    def test_match_names_the_comparator_of_the_structure(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = random_monotone_log_concave(rng, max_support=30)
            assert match_comparator(x, 2.0).kind is LawKind.GEOMETRIC
            z = random_symmetric_log_concave(rng, max_half=15)
            match = match_comparator(z, 2.0)
            assert match.kind is LawKind.SYMMETRIC_GEOMETRIC
            assert match == match_symmetric_geometric(z, 2.0)

    def test_unclassified_input_rejected(self):
        # log-concave but neither monotone nor symmetric about an integer
        with pytest.raises(UnclassifiedError):
            renyi_dominance_report(normalize([2, 5, 3]), 2.0)

    def test_symmetric_entropy_comparisons_match_direct_sums(self):
        lam = 0.37
        z = materialize(ParametricLaw.symmetric_geometric(lam), 1e-15)
        for q in (2.0, 3.0, INF):
            assert renyi(z, q) == pytest.approx(
                LawKind.SYMMETRIC_GEOMETRIC.renyi(lam, q), abs=1e-10)


class TestPowerSumReversalOutsideWindow:
    def test_power_sums_reverse_above_p_and_below_one(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            x = random_monotone_log_concave(rng, max_support=40)
            p = 2.0
            lam = match_geometric(x, p).lam
            for q in (3.0, 5.0):   # q > p
                assert power_sum(x, q) <= math.exp(LawKind.GEOMETRIC.log_power_sum(lam, q)) + 1e-10
            for q in (0.5, 0.8):   # q < 1
                assert power_sum(x, q) <= math.exp(LawKind.GEOMETRIC.log_power_sum(lam, q)) + 1e-8
