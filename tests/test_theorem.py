"""The paper's theorem in quantile form, on exhaustive small grids.

Over nonnegative weight vectors of length n, the normalised mid-quantile
is largest at k-sparse equal weights: it never exceeds the largest
equal-weight mid-quantile over k <= n.  Both sides use the supremum
convention sup{t : mid-tail >= alpha}, the largest atom a with
P(S >= a) >= alpha.  Equality needs equal nonzero weights, except for the
ties in ``KNOWN_TIES``, which the test pins.
"""

import itertools
import math
from fractions import Fraction

from rademax.binomdist import mid_quantile
from rademax.envelope import quantile_finite
from rademax.oracle import WeightVector, enumerate_dist, normalized_mid_quantile

LEVELS = [Fraction(1, d) for d in (40, 30, 20, 15, 10, 8, 6, 5, 4, 3)]

# Unequal weights that reach the equal-weight maximum.  Quantiles are
# atoms, so a vector can share the maximising atom: (2, 2, 1, 1, 1, 1) has
# P(S >= 6) = 5/64 >= 1/15 at 6/sqrt(12) = sqrt(3), the k = 3 quantile.
KNOWN_TIES = {
    ((2, 1, 1, 1, 1, 1, 1, 1, 1), Fraction(1, 15)),
    ((2, 2, 1, 1, 1, 1), Fraction(1, 15)),
    ((2, 2, 2, 1, 1, 1, 1), Fraction(1, 30)),
}


def _grid_vectors():
    """{0..3}^n for n <= 8 and {0..2}^n for n <= 12, one vector per class
    under permutation and common factors (nonincreasing, gcd 1)."""
    vectors = set()
    for top, n_max in ((3, 8), (2, 12)):
        for n in range(1, n_max + 1):
            for w in itertools.combinations_with_replacement(range(top, -1, -1), n):
                if w[0] and math.gcd(*w) == 1:
                    vectors.add(w)
    return sorted(vectors)


def test_equal_weights_maximise_the_mid_quantile():
    envelope = {}
    for alpha in LEVELS:
        best = None
        for n in range(1, 13):
            q = mid_quantile(n, alpha)
            best = q if best is None or q > best else best
            envelope[n, alpha] = best
    vectors = _grid_vectors()
    assert len(vectors) == 658
    ties = set()
    for w in vectors:
        wv = WeightVector(tuple(map(Fraction, w)))
        dist = enumerate_dist(wv)
        for alpha in LEVELS:
            q = normalized_mid_quantile(wv, alpha, dist)
            assert q <= envelope[len(w), alpha], (w, alpha)
            if q == envelope[len(w), alpha] and len(set(w) - {0}) > 1:
                ties.add((tuple(x for x in w if x), alpha))
    assert ties == KNOWN_TIES


def test_envelope_quantile_sandwich():
    # inf{t : envelope <= alpha} never passes sup{t : mid-tail >= alpha} of
    # the best k <= n, and falls short only where the envelope sits at alpha
    cells = differ = 0
    for d in range(3, 200):
        alpha = Fraction(1, d)
        best = None
        for n in range(1, 41):
            q = mid_quantile(n, alpha)
            best = q if best is None or q > best else best
            if alpha < Fraction(1, 2 ** (n + 1)):
                continue  # quantile_finite raises: no smallest threshold
            r = quantile_finite(n, alpha)
            cells += 1
            assert r.t_star <= best, (n, alpha)
            if r.t_star != best:
                differ += 1
                assert r.value_at.as_fraction() == alpha, (n, alpha)
    assert (cells, differ) == (6938, 219)
