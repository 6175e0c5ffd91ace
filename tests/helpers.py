"""Shared fixtures and independent oracles.

The oracles here avoid the code paths they are used to check: prefix counts
come from direct interval images via the closed-form partial sums, the
gasket clouds come from explicit base-m digit expansion, and hull membership
comes from simplices of the generators, never from facets.  Attractor
clouds and sampled points are summed word by word in Python floats, mesh
counts come from a set of integer tuples, and the triangle regions come
from their defining inequalities.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from ifslab.core import apply_map, centroid, image_polytope, new_ifs, project_prefix

RIGHT_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
RIGHT_TRIANGLE_EXACT = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
)
TETRAHEDRON = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def unit_system(lam):
    return new_ifs(lam, [(0.0,), (1.0,)])


def triangle_system(lam):
    return new_ifs(lam, RIGHT_TRIANGLE)


def triangle_system_exact(lam):
    return new_ifs(Fraction(lam), RIGHT_TRIANGLE_EXACT)


def contains_reference(poly, x):
    """Closed membership of x in the polytope, one facet at a time in the arithmetic of x."""
    return all(off - sum(n * v for n, v in zip(ns, x)) >= 0 for ns, off, _ in poly.halfspaces)


def ref_children(sys, x):
    """[(j, f_j^{-1}(x))] in plain Fractions, tested on the facets in Fractions."""
    lam = Fraction(sys.lam)
    out = []
    for j, p in enumerate(sys.points):
        y = tuple((Fraction(v) - (1 - lam) * Fraction(pv)) / lam for v, pv in zip(x, p))
        if contains_reference(sys.omega, y):
            out.append((j, y))
    return out


def float_facets(poly):
    """(A, b, |row| norms): the polytope's halfspaces as plain (facets, d), (facets,) float arrays."""
    A = np.array([[float(v) for v in n] for n, _, _ in poly.halfspaces])
    b = np.array([float(off) for _, off, _ in poly.halfspaces])
    return A, b, np.sqrt(np.array([float(sq) for _, _, sq in poly.halfspaces]))


def chaos_game_reference(sys, iters, burn_in, seed):
    """The chaos-game orbit as one loop over steps, all coordinates together.

    Same seeded digits, and per coordinate the same float operations in the
    same order (x <- lam * x + (1 - lam) * p_j), as `render.chaos_game`.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    digits = rng.integers(0, sys.m, size=iters).tolist()
    lam = float(sys.lam)
    Q = [[(1 - lam) * float(v) for v in p] for p in sys.points]
    x = [float(v) for v in centroid(sys)]
    out = []
    for j in digits:
        x = [lam * xk + qk for xk, qk in zip(x, Q[j])]
        out.append(x)
    return np.array(out, dtype=float).reshape(iters, sys.d)[burn_in:]


def prefix_closed_form(sys, w, x0):
    """lam^n * x0 + (1-lam) * sum_k lam^(k-1) p_{w_k}; regression oracle for project_prefix."""
    lam = sys.lam
    n = len(w)
    acc = [lam**n * v for v in x0]
    scale = 1 - lam
    for k, j in enumerate(tuple(w)):
        c = scale * lam**k
        acc = [a + c * pv for a, pv in zip(acc, sys.points[j])]
    return tuple(acc)


def word_sum_reference(sys, words, x0):
    """f_w(x0) of every digit word w of length K, one word at a time in Python floats.

    Per coordinate the sum starts at 0.0, adds (1-lam)*lam^t * p_{w_t} for
    t = 0..K-1 in order, then adds lam^K * x0.  The powers lam^t are
    numpy's, which are not always Python's correctly rounded ones (0.6**4
    is an ulp apart).
    """
    lam = float(sys.lam)
    P = [[float(v) for v in p] for p in sys.points]
    x0 = [float(v) for v in x0]
    K = len(words[0])
    weights = ((1 - lam) * lam ** np.arange(K)).tolist()
    rows = []
    for w in words:
        x = [0.0] * sys.d
        for c, j in zip(weights, w):
            x = [xk + c * pk for xk, pk in zip(x, P[j])]
        rows.append([xk + lam**K * ck for xk, ck in zip(x, x0)])
    return np.array(rows, dtype=float).reshape(len(rows), sys.d)


def attractor_cloud_reference(sys, K):
    """Every depth-K projection from the centroid; row i is the word whose digit t is (i // m^t) % m."""
    words = [[(i // sys.m**t) % sys.m for t in range(K)] for i in range(sys.m**K)]
    return word_sum_reference(sys, words, centroid(sys))


def reference_mesh_count(points, epsilon):
    """Occupied cells as a set of integer tuples."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    cells = np.floor(pts / epsilon).astype(np.int64)
    return len(set(map(tuple, cells.tolist())))


def exact_twin(sys):
    """The system on the exact values of its inputs."""
    return new_ifs(Fraction(sys.lam), [tuple(Fraction(v) for v in p) for p in sys.points])


def verify_witness(sys, w):
    """Post-hoc re-check of an overlap witness at its stated grade, on exact images.

    The block k j^(ell-1) must be the shortest of its kind that maps every
    anchor into the exact images f_i(Omega) and f_k(Omega), by hull
    membership in simplices of their vertices (`in_hull_exact`); a
    "vertex-interior" witness also needs f_k(p_j) at a positive slack of
    every facet of f_i(Omega).  An exact system is read as it is, so it can
    be checked where no hull may be built; any other goes through its
    `exact_twin`.
    """
    if w.i == w.k or w.block0 != (w.k,) + (w.j,) * (w.ell - 1):
        return False
    ex = sys if sys.is_exact else exact_twin(sys)
    images = [tuple(apply_map(ex, c, p) for p in ex.points) for c in (w.i, w.k)]

    def fits(word):
        return all(in_hull_exact(img, project_prefix(ex, word, p)) for img in images for p in ex.points)

    q = apply_map(ex, w.k, ex.points[w.j])
    interior = all(off - sum(a * b for a, b in zip(n, q)) > 0
                   for n, off, _ in image_polytope(ex, (w.i,)).halfspaces)
    return fits(w.block0) and not fits(w.block0[:-1]) and (interior or w.grade != "vertex-interior")


def in_delta_region(t, i, lam):
    """Membership of a barycentric triple in Delta_i = Delta minus the other two map images."""
    coords = t.as_tuple()
    return all(coords[j] < 1 - lam for j in range(3) if j != i)


def in_gamma_region(t, i, lam):
    """Membership in Gamma_i, the sub-corner of Delta_i that survives one pull-back."""
    coords = t.as_tuple()
    if not coords[i] < (1 - lam) / lam:
        return False
    return all(coords[j] < 1 - lam for j in range(3) if j != i)


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

    x lies in the hull exactly when it lies in the simplex of some d + 1
    affinely independent generators that include the first one, p_0.  If
    x = p_0, any such simplex holds it.  Otherwise let y be the last point
    of the ray from p_0 through x inside the hull.  Some facet F of the hull
    holds y but not p_0: were p_0 on every facet through y, the ray could go
    on past y.  By Caratheodory in F's d - 1 dimensions, y lies in the
    simplex of d affinely independent generators on F, and p_0 is off F's
    hyperplane, so those d and p_0 span a simplex that holds p_0, y and x.
    That is C(m-1, d) simplices rather than all C(m, d+1).  Each gives x's
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
    affinely independent (d+1)-subset holding the first point p_0, num / scale
    is the exact inverse of M = [q_1 - p_0, ..., q_d - p_0] on those integers,
    num integer and scale > 0."""
    den = math.lcm(*(v.denominator for p in points for v in p))
    ipts = [tuple(int(v * den) for v in p) for p in points]
    d = len(ipts[0])
    out = []
    for rest in itertools.combinations(ipts[1:], d):
        sub = (ipts[0],) + rest
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
