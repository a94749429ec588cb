"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion; tolerances are fixed
here and nowhere else. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np

from lclc.entropy import power_sum
from lclc.inequalities import (
    K_constant,
    Side,
    concentration_bound,
    empirical_tail,
    gap_constant,
    mean_mode_check,
    h2_hinf_identity_check,
    sup_varentropy_symmetric,
)
from lclc.lattice import (
    Direction,
    LawKind,
    ParametricLaw,
    is_log_concave,
    materialize,
    monotonicity,
    symmetry_center,
)
from lclc.lyapunov import (
    check_concavity,
    counterexample_check,
    extended_phi,
    phi_second_derivative,
)
from lclc.majorization import GeometricSequence, cake_layer_check, crossing_verify
from lclc.matching import match_geometric, renyi_dominance_report
from support import (
    random_log_concave,
    random_monotone_log_concave,
    random_pmf,
    random_symmetric_log_concave,
    scan_symmetric_peaks,
)

LOG2 = math.log(2.0)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def test_01_symmetric_varentropy_supremum():
    sup_varentropy_symmetric.cache_clear()
    start = time.perf_counter()
    lam_star, v_s = sup_varentropy_symmetric()
    elapsed = time.perf_counter() - start
    ok = abs(v_s - 1.16923) <= 1e-3 and elapsed < 1.0
    _criterion("V_S reproduction", ok,
               f"V_S={v_s:.6f} at lam={lam_star:.6f} in {elapsed * 1e3:.1f} ms")


def test_02_geometric_varentropy_sharpness():
    # closed form in the tail-probability parameter p = 1 - lam
    ps = np.arange(0.01, 1.0, 0.01)
    values = np.array([LawKind.GEOMETRIC.varentropy(1.0 - p) for p in ps])
    near_one = values[ps <= 0.02 + 1e-12]
    ok = float(values.max()) < 1.0 and bool(np.all(near_one > 0.99))
    _criterion("varentropy sharpness", ok,
               f"max={values.max():.6f}, min near p->0: {near_one.min():.6f}")


def test_03_concavity_property_suite():
    rng = np.random.default_rng(20260808)
    failures = 0
    worst_gap, worst_curv = math.inf, -math.inf
    for _ in range(1000):
        x = random_monotone_log_concave(rng, max_support=60)
        report = check_concavity(x)
        worst_gap = min(worst_gap, report.lhs)
        worst_curv = max(worst_curv, report.rhs)
        if not report.passed:
            failures += 1
    _criterion("concavity property suite", failures == 0,
               f"failures={failures}, min chord gap={worst_gap:.2e}, "
               f"max phi''={worst_curv:.2e}")


def test_04_non_monotone_failure_witness():
    # three atoms (a, 1-2a, a) carry two distinct log-masses, so
    # t**2 Var = 2 s**2 e**-s / (1 + 2 e**-s)**2 with s = t log((1-2a)/a);
    # its supremum is 0.76180 (at s = 2.6547) < 1 and phi'' = (t**2 Var - 1)
    # / t**2 < 0 throughout, so the witness must come from five atoms or more
    pmf, t, curvature = scan_symmetric_peaks(half_widths=(1, 2, 3))
    center = symmetry_center(pmf)
    report = check_concavity(pmf)
    ok = (curvature > 1e-6
          and pmf.support_size >= 5
          and is_log_concave(pmf)
          and monotonicity(pmf) is Direction.NEITHER
          and center is not None and float(center).is_integer()
          and not report.passed and report.params["witness"] is not None
          and math.isclose(phi_second_derivative(pmf, t), curvature,
                           rel_tol=1e-9))
    _, t3, control = scan_symmetric_peaks(half_widths=(1,))
    ok = ok and control < 0.0
    _criterion("non-monotone witness via symmetric-peak scan", ok,
               f"max phi'' = {curvature:.4f} at t={t:.3f} on "
               f"{pmf.support_size} atoms; 3-atom control "
               f"max phi'' = {control:.3e} at t={t3:.3f}")


def test_05_extended_phi_counterexample():
    report = counterexample_check(0.1, 1.0)
    ok = (abs(report.lhs - 4.8) < 1e-12 and abs(report.rhs - 7.32) < 1e-12
          and report.verdict == "violated")
    y = (0.1, 1.1)
    midpoint = 2.0 * extended_phi(y, 1.0, 1.0)
    chord = extended_phi(y, 1.0, 0.0) + extended_phi(y, 1.0, 2.0)
    ok = ok and midpoint < chord
    limit = counterexample_check(1e-4, 1.0)
    ratio = limit.lhs / limit.rhs
    ok = ok and abs(ratio - 4.0 / 6.0) < 1e-3
    _criterion("extended-phi counterexample", ok,
               f"lhs={report.lhs}, rhs={report.rhs}, "
               f"midpoint gap={midpoint - chord:.4f}, limit ratio={ratio:.6f}")


def test_06_order_two_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        x = random_pmf(rng, max_support=60)
        report = h2_hinf_identity_check(x)
        worst = max(worst, report.params["abs_error"])
    _criterion("order-2 / min-entropy identity", worst <= 1e-12,
               f"worst |H_2(X) - H_inf(X-Y)| = {worst:.2e} over 1000 pmfs")


def test_07_epi_reversal_sharpness():
    lam = 0.999
    growth = LawKind.SYMMETRIC_GEOMETRIC.renyi(lam, 2.0) - LawKind.GEOMETRIC.renyi(lam, 2.0)
    ok = LOG2 - 0.01 < growth <= LOG2
    _criterion("entropy-power reversal sharpness", ok,
               f"H_2(X-Y) - H_2(X) = {growth:.8f}, log 2 = {LOG2:.8f}")


def test_08_renyi_gap_sharpness():
    lam, p, q = 0.999, 3.0, 1.5
    margin = (LawKind.GEOMETRIC.renyi(lam, p) - LawKind.GEOMETRIC.renyi(lam, q)
              - gap_constant(p, q))
    ok = 0.0 < margin < 0.01
    _criterion("Renyi gap sharpness", ok, f"margin at lam=0.999: {margin:.3e}")


def test_09_concentration_of_information():
    rng = np.random.default_rng(909)
    ts = (0.25, 0.5, 1.0, 2.0)
    ok = True
    worst = math.inf
    for _ in range(200):
        x = random_monotone_log_concave(rng, max_support=60)
        for t in ts:
            for side in (Side.UPPER, Side.LOWER):
                slack = (concentration_bound(t, 1.0, side)
                         - empirical_tail(x, t, side))
                worst = min(worst, slack)
                ok = ok and slack >= -1e-12
    _, v_s = sup_varentropy_symmetric()
    worst_sym = math.inf
    for _ in range(200):
        x = random_symmetric_log_concave(rng, max_half=30)
        for t in ts:
            for side in (Side.UPPER, Side.LOWER):
                slack = (concentration_bound(t, v_s, side)
                         - empirical_tail(x, t, side))
                worst_sym = min(worst_sym, slack)
                ok = ok and slack >= -1e-12
    _criterion("concentration of information", ok,
               f"worst monotone slack={worst:.3e}, "
               f"worst symmetric slack={worst_sym:.3e}")


def test_10_majorization_machinery():
    rng = np.random.default_rng(1010)
    orders = (1.5, 2.0, 3.0, 5.0)
    crossing_ok = cake_ok = moments_ok = True
    for i in range(500):
        x = random_monotone_log_concave(rng, max_support=50,
                                        direction="decreasing")
        p = orders[i % len(orders)]
        lam = match_geometric(x, p).lam
        report = crossing_verify(x, GeometricSequence(1.0 - lam, lam))
        crossing_ok = crossing_ok and report.passed
        cake = cake_layer_check(x, p)
        cake_ok = cake_ok and cake.params["abs_error"] < 1e-12
        for q in np.linspace(1.0 + 1e-3, p - 1e-3, 5):
            moments_ok = moments_ok and (
                power_sum(x, float(q))
                >= math.exp(LawKind.GEOMETRIC.log_power_sum(lam, float(q))) - 1e-10)
    sign_ok = True
    cases = {2.0: (1.5, 0.5, 3.0), 0.7: (0.8, 0.3, 2.0)}
    for _ in range(60):
        x = random_symmetric_log_concave(rng, max_half=20)
        for p, qs in cases.items():
            sign_ok = sign_ok and renyi_dominance_report(x, p, q_grid=qs).passed
    ok = crossing_ok and cake_ok and moments_ok and sign_ok
    _criterion("majorization machinery", ok,
               f"crossing={crossing_ok}, cake={cake_ok}, "
               f"moments={moments_ok}, sign table={sign_ok}")


def test_11_mean_versus_mode():
    rng = np.random.default_rng(1111)
    ok = all(mean_mode_check(random_log_concave(rng, max_support=60)).passed
             for _ in range(1000))
    x = materialize(ParametricLaw.geometric(20.0 / 21.0))
    report = mean_mode_check(x)
    ratio = math.e * report.params["interpolated"] / report.rhs
    ok = ok and 1.0 < ratio and abs(ratio - 1.0) < 0.05
    _criterion("mean versus mode", ok, f"integer-mean-20 ratio = {ratio:.6f}")


def test_12_tilted_varentropy_constant():
    rng = np.random.default_rng(1212)
    values = [K_constant(random_monotone_log_concave(rng, max_support=60))
              for _ in range(100)]
    below_one = max(values) < 1.0
    geo = K_constant(materialize(ParametricLaw.geometric(0.99)))
    ok = below_one and geo > 0.95 and geo < 1.0
    _criterion("tilted varentropy constant", ok,
               f"max over random instances={max(values):.6f}, "
               f"geometric(0.99) grid sup={geo:.6f}")
