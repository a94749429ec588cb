"""Sums with the bits of one numpy sum, formed in small blocks.

numpy's sum of a contiguous float array halves it (at a multiple of 8)
until a piece has at most 128 terms, and adds the pieces' sums up the
same tree. Splitting the same way down to leaves of at most _LEAF terms,
and adding the leaves' np.sum in that tree, reproduces its result exactly
while no more than one leaf of terms exists at a time. Pairwise summation
is Higham's, "Accuracy and Stability of Numerical Algorithms", ch. 4.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# terms per leaf of a sum: 62 KiB, which malloc serves from its heap even
# when it maps every block of 64 KiB and more on its own
_LEAF = 7_936


def tree_sum(n: int, leaf: Callable[[int, int], float]) -> float:
    """The sum over terms 0..n-1 in numpy's pairwise tree, where leaf(lo, hi)
    gives the np.sum of terms lo..hi-1 of one leaf, called for each leaf in
    ascending order."""
    return _tree(leaf, 0, n)


def _tree(leaf, lo: int, hi: int) -> float:
    # a module function: a nested one that calls itself is a reference
    # cycle, which would hold the arrays leaf reads until the next garbage
    # collection
    m = hi - lo
    if m > _LEAF:
        half = m // 2 - m // 2 % 8
        return _tree(leaf, lo, lo + half) + _tree(leaf, lo + half, hi)
    return leaf(lo, hi)


def leaves(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) of tree_sum's leaves over n terms, in ascending order."""
    found: list[tuple[int, int]] = []
    _tree(lambda lo, hi: found.append((lo, hi)) or 0.0, 0, n)
    return found


def pairwise_sum(n: int, terms) -> float:
    """The sum of n terms, where terms(lo, hi, out) writes terms lo..hi-1
    into out and returns it, with the bits of one np.sum over all n. The
    terms are formed a leaf at a time in one small buffer, reused, instead
    of in one n-sized array."""
    buf = np.empty(min(n, _LEAF))
    return _tree(lambda lo, hi: float(terms(lo, hi, buf[:hi - lo]).sum()), 0, n)
