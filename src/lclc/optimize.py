"""Scalar root finding and 1-D maximization used by the matching and
extremal-constant routines."""

from __future__ import annotations

from math import sqrt
from typing import Callable

from .errors import NoBracketError

_INV_PHI = (sqrt(5.0) - 1.0) / 2.0
BISECT_XTOL = 1e-15
BISECT_MAX_ITER = 200
GOLDEN_XTOL = 1e-12
GOLDEN_MAX_ITER = 300


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, int]:
    """Bisection with runtime bracket orientation, to bracket width
    BISECT_XTOL or BISECT_MAX_ITER steps.

    Returns (root, iterations). Raises NoBracketError when f has the same
    sign at both endpoints.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if (flo > 0.0) == (fhi > 0.0):
        raise NoBracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3g}, f(hi)={fhi:.3g}")
    it = 0
    while it < BISECT_MAX_ITER:
        it += 1
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) <= BISECT_XTOL:
            return mid, it
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi), it


def golden_section_max(f: Callable[[float], float], lo: float,
                       hi: float) -> tuple[float, float, int]:
    """Golden-section maximization of a unimodal function on [lo, hi].

    Returns (argmax, max, iterations) with the final bracket width below
    GOLDEN_XTOL, or after GOLDEN_MAX_ITER steps.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > GOLDEN_XTOL and it < GOLDEN_MAX_ITER:
        it += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), it
