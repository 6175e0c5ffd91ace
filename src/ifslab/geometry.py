"""Convex polytopes with membership queries used for address feasibility.

A polytope is stored by its generators (V-representation) and by an
H-representation derived at construction time; its float arrays are built
once, at the first batched query, and its integer rows at the first exact
one.  Every polytope is full-dimensional:
`hull_polytope` rejects generators of lower affine rank.  In every
dimension the facets are the hyperplanes through d generators with every
generator on one side, found exactly on the rational values of the
generators, and `volume` reads its exact value from the same facets.

`contains` tests one point on the float or the exact-rational path: the
closed exact test is integer arithmetic, and the interior-margin test is
phrased with squared quantities so the rational path never needs a square
root.  `contains_many` is the one batched test, over float point arrays;
it repeats the float path of `contains` operation for operation, so the
two never disagree, not even within rounding of the tolerance shell.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import DegenerateAffineHull, DimensionMismatch

DEFAULT_TOL = 1e-9


def is_exact_scalar(v) -> bool:
    return isinstance(v, Rational)


def is_exact_point(p) -> bool:
    return all(is_exact_scalar(v) for v in p)


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional convex hull of `generators` with its halfspaces.

    Each halfspace is (normal, offset, sq_norm) with the inside convention
    normal . x <= offset: exact rationals on exact generators, else floats.
    Normals are *not* unit length, so they stay exact on the rational path;
    sq_norm carries |normal|^2 for margin tests.
    `float_halfspaces` is the same H-representation as float arrays, the
    only form the batched test `contains_many` reads.
    """

    generators: tuple
    halfspaces: tuple
    dim: int
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_exact", all(is_exact_point(g) for g in self.generators))

    @cached_property
    def float_halfspaces(self):
        """The H-representation as read-only float arrays (A, b, |row| norms).

        Built on the first batched query and kept.  Not at construction:
        polytopes that only scalar tests read never need it.
        """
        arrays = (
            np.array([[float(v) for v in n] for n, _, _ in self.halfspaces]),
            np.array([float(off) for _, off, _ in self.halfspaces]),
            np.sqrt(np.array([float(sq) for _, _, sq in self.halfspaces])),
        )
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def integer_halfspaces(self):
        """The H-representation of an exact polytope as integer rows (N, B), N.x <= B.

        Exact normals are integers (`_facets`), so each halfspace is scaled
        by the denominator of its offset.  Built on the first exact
        membership test and kept; `contains` then decides a rational point
        with one integer sign per facet.
        """
        out = []
        for n, off, _ in self.halfspaces:  # off is an int or a Fraction
            out.append((tuple(a * off.denominator for a in n), off.numerator))
        return tuple(out)

    def bounding_box(self):
        lo = tuple(min(g[k] for g in self.generators) for k in range(self.dim))
        hi = tuple(max(g[k] for g in self.generators) for k in range(self.dim))
        return lo, hi

    def diameter(self):
        # exact for convex hulls: the max pairwise generator distance
        best = 0.0
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                d = math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))
                best = max(best, d)
        return best


def hull_polytope(generators) -> Polytope:
    gens = tuple(tuple(p) for p in generators)
    if not gens:
        raise ValueError("polytope needs at least one generator")
    d = len(gens[0])
    if any(len(g) != d for g in gens):
        raise DimensionMismatch("generators of mixed dimension")
    den, ipts = _lattice(gens)
    rank = _affine_rank(ipts)
    if rank != d:
        raise DegenerateAffineHull(
            f"anchor points span affine dimension {rank} < {d}; "
            "re-embed them in that dimension"
        )
    return Polytope(generators=gens, halfspaces=_facets(gens, d, den, ipts), dim=d)


def _lattice(pts):
    """(den, integer points): the exact rational coordinates times their common denominator."""
    rat = [[Fraction(v) for v in p] for p in pts]
    den = math.lcm(*(v.denominator for p in rat for v in p))
    return den, [[v.numerator * (den // v.denominator) for v in p] for p in rat]


def _affine_rank(ipts):
    # fraction-free elimination on the difference vectors of the integer
    # lattice points from _lattice: floats count as the rationals they are,
    # so the verdict never depends on rounding
    rows = [[a - b for a, b in zip(p, ipts[0])] for p in ipts[1:]]
    rank = 0
    for col in range(len(ipts[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [a * top[col] - f * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def _facets(gens, d, den, ipts):
    """Facet halfspaces of a full-dimensional hull in R^d, found exactly.

    Each facet holds d affinely independent generators, so it is one of the
    hyperplanes through d generators; one is kept when every generator lies
    on its closed inside.  The generators' rational values are scaled by
    their common denominator to integers, so normals (cofactor vectors of
    the difference vectors) and side tests are exact integer arithmetic:
    a float side test would drop a facet through four coplanar vertices.
    `den` and `ipts` are that scaling, from _lattice.  An exact polytope
    keeps integer normals and |n|^2, and whole offsets as ints, which keeps
    the float test of `contains` cheap on integer generators; a float one
    stores floats, normals scaled to a largest entry of 1.
    """
    exact = all(is_exact_point(g) for g in gens)
    pts = sorted(set(map(tuple, ipts)))
    planes = []
    for sub in itertools.combinations(pts, d):
        rows = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        n = [(-1) ** k * _det([r[:k] + r[k + 1:] for r in rows]) for k in range(d)]
        if not any(n):
            continue  # affinely dependent subset
        off = sum(a * b for a, b in zip(n, sub[0]))
        sides = [off - sum(a * b for a, b in zip(n, p)) for p in pts]
        if min(sides) < 0:
            if max(sides) > 0:
                continue
            n, off = [-a for a in n], -off
        g = math.gcd(*n)
        planes.append((tuple(a // g for a in n), off // g))
    out = []
    for n, off in dict.fromkeys(planes):
        if exact:
            b = Fraction(off, den)
            out.append((n, b.numerator if b.denominator == 1 else b, sum(a * a for a in n)))
        else:
            big = max(abs(a) for a in n)
            nf = tuple(a / big for a in n)
            out.append((nf, off / (den * big), sum(a * a for a in nf)))
    return tuple(out)


def _det(a):
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in a]
    size = len(a)
    if not size:
        return 1  # the empty matrix: d = 1 facets have the normal (1,)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def contains(poly: Polytope, x, margin=0, tol=DEFAULT_TOL) -> bool:
    """Membership of x in poly, read from its halfspaces in every dimension.

    margin == 0 is the Closed mode: on the float path the boundary is
    widened by `tol`, on the exact path the test is exact.  There x is
    scaled by the lcm q of its denominators to integers a, and each facet
    N.x <= B of `integer_halfspaces` is the integer sign test N.a <= B*q.

    margin > 0 is InteriorMargin(margin): the ball of that radius around x
    must fit inside, via halfspace distances.  Both tests fail on a NaN
    slack, so a point with a NaN coordinate lies in no polytope.
    """
    if len(x) != poly.dim:
        raise DimensionMismatch(f"point has dimension {len(x)}, polytope {poly.dim}")
    if margin == 0 and poly.is_exact and is_exact_point(x):
        return _contains_exact(poly, x)
    for n, off, sq in poly.halfspaces:
        s = off - sum(nv * xv for nv, xv in zip(n, x))
        if margin == 0:
            if not float(s) >= -tol * math.sqrt(float(sq)):
                return False
        else:
            # distance to the facet is s/|n|; require >= margin without sqrt
            if not (s >= 0 and s * s >= margin * margin * sq):
                return False
    return True


def _contains_exact(poly, x):
    # kept out of `contains`, whose float path then pays nothing for it
    q = math.lcm(*(v.denominator for v in x))
    a = [v.numerator * (q // v.denominator) for v in x]
    return all(sum(map(operator.mul, n, a)) <= b * q for n, b in poly.integer_halfspaces)


def image_polytope(sys, w) -> Polytope:
    """Polytope f_w(Omega), read off Omega's own halfspaces; no hull is rebuilt.

    f_w(y) = lam^|w| y + f_w(0) is a homothety, so every facet n.y <= b of
    Omega maps to n.y <= lam^|w| b + n.f_w(0).  The generators are the
    mapped anchor points.
    """
    from .core import project_prefix  # deferred: core depends on geometry

    scale = math.prod([sys.lam] * len(w))  # an int 1 for the empty word, as project_prefix
    t = project_prefix(sys, w, (0,) * sys.d)
    hs = tuple((n, scale * off + sum(a * b for a, b in zip(n, t)), sq)
               for n, off, sq in sys.omega.halfspaces)
    gens = tuple(project_prefix(sys, w, p) for p in sys.points)
    return Polytope(generators=gens, halfspaces=hs, dim=sys.d)


def volume(poly: Polytope):
    """Exact volume in every dimension, by cones over the facets (`_volume`).

    A `Fraction` for an exact polytope, and the float of that value for a float one.
    """
    den, ipts = _lattice(poly.generators)
    vol = _volume(ipts, poly.dim) / den ** poly.dim
    return vol if poly.is_exact else float(vol)


def _volume(pts, d):
    """Volume of the hull of integer points spanning R^d, as a Fraction.

    Lasserre's cone decomposition (J. Optim. Theory Appl. 39, 1983): with
    apex v = pts[0], vol = (1/d) sum_f (b - n.v)/|n| vol(F_f) over the facets
    n.x <= b.  Each F_f is measured projected along a coordinate k with
    n_k != 0, a full-dimensional hull in R^(d-1) of volume vol(F_f)|n_k|/|n|,
    so the |n| cancel and no square root is taken.
    """
    if d == 1:
        return Fraction(max(p[0] for p in pts) - min(p[0] for p in pts))
    v = pts[0]
    total = Fraction(0)
    for n, b, _ in _facets(pts, d, 1, pts):
        height = b - sum(map(operator.mul, n, v))
        if height:  # facets through the apex span empty cones
            k = next(i for i, a in enumerate(n) if a)
            face = [p[:k] + p[k + 1:] for p in pts if sum(map(operator.mul, n, p)) == b]
            total += height * _volume(face, d - 1) / abs(n[k])
    return total / d


def contains_many(poly: Polytope, pts, tol=DEFAULT_TOL):
    """Closed membership over the last axis of a (..., d) float array, in any dimension.

    The one batched feasibility test, and the float path of `contains` bit
    for bit: per halfspace, s = off - (n_0 x_0 + n_1 x_1 + ...) summed one
    column at a time in that order, and x passes when s >= -tol * |n|.  The
    matmul form A x <= b + tol * |n| rounds otherwise and disagrees with
    `contains` on points within rounding of the tol shell.  A NaN slack
    fails, as in `contains`, so a NaN point lies in no polytope.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != poly.dim:
        raise DimensionMismatch(f"points have dimension {pts.shape[-1]}, polytope {poly.dim}")
    A, b, norms = poly.float_halfspaces
    cols = np.ascontiguousarray(pts.reshape(-1, poly.dim).T)  # (d, N): one row per coordinate
    acc = np.empty(cols.shape[1])
    tmp = np.empty_like(acc)
    inside = np.ones(cols.shape[1], dtype=bool)
    for n, off, thr in zip(A.tolist(), b.tolist(), (-float(tol) * norms).tolist()):
        np.multiply(cols[0], n[0], out=acc)
        for k in range(1, poly.dim):
            acc += np.multiply(cols[k], n[k], out=tmp)
        inside &= np.subtract(off, acc, out=acc) >= thr
    return inside.reshape(pts.shape[:-1])


def sample_uniform(poly: Polytope, n, rng, tol=DEFAULT_TOL):
    """n points uniform over poly by seeded rejection from the bounding box."""
    if n < 1:
        raise ValueError("need at least one sample")
    lo, hi = poly.bounding_box()
    lo = np.array([float(v) for v in lo])
    hi = np.array([float(v) for v in hi])
    out = []
    have = 0
    while have < n:
        cand = lo + rng.random((max(n, 128), poly.dim)) * (hi - lo)
        keep = cand[contains_many(poly, cand, tol=tol)]
        if len(keep):
            out.append(keep)
            have += len(keep)
    return np.concatenate(out)[:n]


def volume_mc(poly: Polytope, samples, seed, tol=DEFAULT_TOL):
    """Monte Carlo volume for any dimension: (estimate, standard error)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    lo, hi = poly.bounding_box()
    lo = np.array([float(v) for v in lo])
    hi = np.array([float(v) for v in hi])
    box = float(np.prod(hi - lo))
    pts = lo + rng.random((samples, poly.dim)) * (hi - lo)
    hits = int(np.count_nonzero(contains_many(poly, pts, tol=tol)))
    frac = hits / samples
    err = box * math.sqrt(max(frac * (1 - frac), 1e-12) / samples)
    return box * frac, err
