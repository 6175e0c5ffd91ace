"""Shared fixtures and independent oracles.

The oracles here avoid the code paths they are used to check: prefix counts
come from direct interval images via the closed-form partial sums, the
gasket clouds come from explicit base-m digit expansion, and hull membership
comes from simplices of the generators, never from facets.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from ifslab.core import new_ifs

RIGHT_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
RIGHT_TRIANGLE_EXACT = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
)


def unit_system(lam):
    return new_ifs(lam, [(0.0,), (1.0,)])


def triangle_system(lam):
    return new_ifs(lam, RIGHT_TRIANGLE)


def triangle_system_exact(lam):
    return new_ifs(Fraction(lam), RIGHT_TRIANGLE_EXACT)


def count_true_prefixes_1d(lam, points, x, depth):
    """Exhaustive prefix counts for a 1-D system by direct interval images.

    For every word w of each length, the image of [lo, hi] is computed from
    the closed-form partial sum (no inverse maps involved) and x is tested
    against its endpoints.  Returns counts[k] for k = 0..depth.
    """
    m = len(points)
    lo = min(p[0] for p in points)
    hi = max(p[0] for p in points)
    counts = [1]
    words = [((), 0.0)]  # (word, translation sum(1-lam)*lam^(k-1)*p)
    for dep in range(1, depth + 1):
        nxt = []
        hits = 0
        for w, t in words:
            for j in range(m):
                t2 = t + (1 - lam) * lam ** (dep - 1) * points[j][0]
                a = lam**dep * lo + t2
                b = lam**dep * hi + t2
                if a <= x <= b:
                    hits += 1
                    nxt.append((w + (j,), t2))
        counts.append(hits)
        words = nxt
    return counts


def gasket_corner_cloud(k):
    """All depth-k corner points f_w(p_0) of the lam=1/2 right-triangle gasket.

    These are the dyadic translations t_w, pairwise distinct, exactly 3^k of
    them, each the lower-left corner of its own 2^-k mesh cell.
    """
    pts = [(0.0, 0.0)]
    anchors = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for _ in range(k):
        pts = [
            (0.5 * x + 0.5 * a, 0.5 * y + 0.5 * b)
            for (x, y) in pts
            for (a, b) in anchors
        ]
    return np.array(sorted(set(pts)))


def in_hull_exact(points, x):
    """Exact membership of x in the convex hull of full-dimensional `points`.

    By Caratheodory, x lies in the hull exactly when it lies in the simplex
    of some d + 1 affinely independent generators.  Each simplex gives x's
    barycentric weights by an exact inverse.  Integer arithmetic on the
    rational values of the inputs, so a float counts as the rational it is.
    """
    den, simplices = _simplex_inverses(tuple(tuple(Fraction(v) for v in p) for p in points))
    xs = [Fraction(v) * den for v in x]
    q = math.lcm(*(v.denominator for v in xs))
    xq = [v.numerator * (q // v.denominator) for v in xs]  # q * den * x, in integers
    for base, num, scale in simplices:
        y = [a - q * b for a, b in zip(xq, base)]
        w = [sum(r * c for r, c in zip(row, y)) for row in num]  # q * scale * weights
        if min(w) >= 0 and sum(w) <= q * scale:
            return True
    return False


@functools.lru_cache(maxsize=None)
def _simplex_inverses(points):
    """(den, [(p_0, num, scale)]): den * points are integers, and for every
    affinely independent (d+1)-subset, num / scale is the exact inverse of
    M = [p_1 - p_0, ..., p_d - p_0] on those integers, num integer and scale > 0."""
    den = math.lcm(*(v.denominator for p in points for v in p))
    ipts = [tuple(int(v * den) for v in p) for p in points]
    d = len(ipts[0])
    out = []
    for sub in itertools.combinations(ipts, d + 1):
        cols = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        inv = _inverse([[Fraction(cols[c][r]) for c in range(d)] for r in range(d)])
        if inv is not None:
            scale = math.lcm(*(v.denominator for row in inv for v in row))
            out.append((sub[0], [[int(v * scale) for v in row] for row in inv], scale))
    return den, tuple(out)
def _inverse(a):
    """Exact Gauss-Jordan inverse of a square Fraction matrix; None when singular."""
    size = len(a)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(size)] for i, r in enumerate(a)]
    for c in range(size):
        piv = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        top = [v / rows[c][c] for v in rows[c]]
        rows[c] = top
        for r in range(size):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * t for v, t in zip(rows[r], top)]
    return [r[size:] for r in rows]
