"""Slow reference routes the tests check the library's fast paths against."""

from rademax.exactnum import LatticeValue, Ordering, Threshold, cmp_lattice_threshold


def boundary_by_bisection(k: int, t: Threshold, strict: bool) -> int:
    """Smallest m whose atom (2m-k)/sqrt(k) exceeds (or reaches) t, else k+1.

    Binary search over the increasing atom sequence with exact comparisons.
    """
    lo, hi = 0, k + 1
    while lo < hi:
        mid = (lo + hi) // 2
        c = cmp_lattice_threshold(LatticeValue(2 * mid - k, k), t)
        if c is Ordering.GT or (not strict and c is Ordering.EQ):
            hi = mid
        else:
            lo = mid + 1
    return lo
