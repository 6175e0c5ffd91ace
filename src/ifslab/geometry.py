"""Convex polytopes with membership queries used for address feasibility.

A polytope is stored by its generators (V-representation) and by an
H-representation derived at construction time: integer rows when the
generators are exact, else floats.  Its float arrays are built once, at the
first batched query.  Every polytope is full-dimensional:
`hull_polytope` rejects generators of lower affine rank.  In every
dimension the facets are the hyperplanes through d generators with every
generator on one side, found exactly on the rational values of the
generators, and `volume` reads its exact value from the same facets.

`contains` tests one point on the float or the exact-rational path: the
exact test is closed integer arithmetic, and the float test moves every
facet outward by a signed `tol` (a negative one is an interior margin);
no other function takes a tolerance.  The one batched test, `_inside`,
reads points coordinate-major, as a (d, N) array with one row per
coordinate, and tests every facet at once on FACET_BLOCK columns at a
time.  `contains_many` hands it (..., d) point arrays transposed, and
core._feasible_many its candidates, built in that layout.  It repeats
the float path of `contains` at DEFAULT_TOL operation for operation, so
the two never disagree, not even within rounding of the tolerance shell.
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

from .errors import BudgetExceeded, DegenerateAffineHull, DimensionMismatch

DEFAULT_TOL = 1e-9
DRAW_BUDGET = 10_000  # most bounding-box draws sample_uniform makes per point it returns
# columns `_inside` tests against every facet at once: its (facets, block)
# float temporaries take 32 KB a facet, and a block costs a fixed number
# of numpy calls whatever the number of facets
FACET_BLOCK = 4096


def is_exact_scalar(v) -> bool:
    return isinstance(v, Rational)


def is_exact_point(p) -> bool:
    return all(is_exact_scalar(v) for v in p)


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional convex hull of `generators` with its halfspaces.

    Each halfspace is (normal, offset, sq_norm) with the inside convention
    normal . x <= offset and sq_norm = |normal|^2, for the tolerance.  On
    exact generators the entries are ints, the facet's primitive integer
    row (an `image_polytope` offset may be a Fraction); else floats.
    `float_halfspaces` is the same H-representation as float facet
    columns, the only form the batched test `_inside` reads.
    """

    generators: tuple
    halfspaces: tuple
    dim: int
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_exact", all(is_exact_point(g) for g in self.generators))

    @cached_property
    def float_halfspaces(self):
        """The H-representation as read-only float facet columns (A, b, -DEFAULT_TOL*|n|).

        A[k] is the (facets, 1) column of the k-th normal coordinates, and b
        and the least slacks are (facets, 1) columns too, so `_inside`
        broadcasts them against a block of points with no per-call
        reshaping.  Built on the first batched query and kept.  Not at
        construction: polytopes that only scalar tests read never need it.
        """
        arrays = (
            np.array([[float(v) for v in n] for n, _, _ in self.halfspaces]).T[:, :, None].copy(),
            np.array([[float(off)] for _, off, _ in self.halfspaces]),
            -DEFAULT_TOL * np.sqrt(np.array([[float(sq)] for _, _, sq in self.halfspaces])),
        )
        for a in arrays:
            a.flags.writeable = False
        return arrays

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
    rank = len(_pivot_rows([[a - b for a, b in zip(p, ipts[0])] for p in ipts[1:]], d))
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


def _pivot_rows(rows, width):
    """(column, row) of each pivot of a fraction-free reduction of integer rows.

    A pivot is cleared from the other rows by cross-multiplying, so entries
    stay integers and no verdict depends on rounding; len() is the rank.
    """
    out = []
    for col in range(width):
        top = next((r for r in rows if r[col]), None)
        if top is not None:
            rows = [[a * top[col] - r[col] * b for a, b in zip(r, top)] if r[col] else r
                    for r in rows if r is not top]
            out.append((col, top))
    return out


def _facets(gens, d, den, ipts):
    """Facet halfspaces of a full-dimensional hull in R^d, found exactly.

    Each facet holds d affinely independent generators, so it is one of the
    hyperplanes through d generators; one is kept when every generator lies
    on its closed inside, and dropped at the first generator on the side
    opposite an earlier one.  The generators' rational values are scaled by
    their common denominator to integers, so normals (kernel vectors of the
    reduced difference rows) and side tests are exact integer arithmetic:
    a float side test would drop a facet through four coplanar vertices.
    `den` and `ipts` are that scaling, from _lattice.  An exact polytope
    stores each facet n.x <= off/den as its primitive integer row (N, B, N.N):
    N = n*(den/g), B = off/g, g = gcd(den, off).  A float one stores floats,
    normals scaled to a largest entry of 1.
    """
    exact = all(is_exact_point(g) for g in gens)
    pts = sorted(set(map(tuple, ipts)))
    planes = []
    for sub in itertools.combinations(pts, d):
        piv = _pivot_rows([[a - b for a, b in zip(p, sub[0])] for p in sub[1:]], d)
        if len(piv) < d - 1:
            continue  # affinely dependent subset
        n = [0] * d
        n[next(c for c in range(d) if c not in dict(piv))] = 1
        for col, row in reversed(piv):  # back-substitute, scaling n to stay integral
            s = sum(map(operator.mul, row, n))
            g = math.gcd(s, row[col])
            n = [a * (row[col] // g) for a in n]
            n[col] = -s // g
        off = sum(a * b for a, b in zip(n, sub[0]))
        side = 0
        for p in pts:
            s = off - sum(a * b for a, b in zip(n, p))
            if s * side < 0:
                break
            side = side or s
        else:
            if side < 0:
                n, off = [-a for a in n], -off
            g = math.gcd(*n)
            planes.append((tuple(a // g for a in n), off // g))
    out = []
    for n, off in dict.fromkeys(planes):
        if exact:
            g = math.gcd(den, off)
            n = tuple(a * (den // g) for a in n)
            out.append((n, off // g, sum(a * a for a in n)))
        else:
            big = max(abs(a) for a in n)
            nf = tuple(a / big for a in n)
            out.append((nf, off / (den * big), sum(a * a for a in nf)))
    return tuple(out)


def contains(poly: Polytope, x, tol=DEFAULT_TOL) -> bool:
    """Membership of x in poly, read from its halfspaces in every dimension.

    On an exact polytope and an exact point the test is closed and exact,
    and `tol` is not read: x is scaled by the lcm q of its denominators to
    integers a, and each integer facet row N.x <= B is the integer sign
    test N.a <= B*q.  On the float path x passes a facet n.x <= off when
    off - n.x >= -tol*|n|: tol > 0 widens the polytope by tol, and tol < 0
    moves every facet inward by |tol|, so tol = -m asks that the ball of
    radius m around x fit inside.  A NaN slack fails, so a point with a NaN
    coordinate lies in no polytope.
    """
    if len(x) != poly.dim:
        raise DimensionMismatch(f"point has dimension {len(x)}, polytope {poly.dim}")
    if poly.is_exact and is_exact_point(x):
        return _contains_exact(poly, x)
    for n, off, sq in poly.halfspaces:
        s = off - sum(nv * xv for nv, xv in zip(n, x))
        if not float(s) >= -tol * math.sqrt(float(sq)):
            return False
    return True


def _contains_exact(poly, x):
    # kept out of `contains`, whose float path then pays nothing for it
    q = math.lcm(*(v.denominator for v in x))
    a = [v.numerator * (q // v.denominator) for v in x]
    return all(sum(map(operator.mul, n, a)) <= b * q for n, b, _ in poly.halfspaces)


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


def contains_many(poly: Polytope, pts):
    """Closed membership over the last axis of a (..., d) float array, in any dimension.

    The float path of `contains` at DEFAULT_TOL bit for bit: the points,
    transposed to coordinate rows without a copy, go through the one
    batched test `_inside`.  A NaN point lies in no polytope, as in `contains`.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != poly.dim:
        raise DimensionMismatch(f"points have dimension {pts.shape[-1]}, polytope {poly.dim}")
    return _inside(poly, pts.reshape(-1, poly.dim).T).reshape(pts.shape[:-1])


def _inside(poly: Polytope, cols):
    """Closed float membership of every column of a (d, N) coordinate array, as an (N,) bool mask.

    The one batched feasibility test, read by `contains_many` and
    core._feasible_many.  Per halfspace, s = off - (n_0 x_0 + n_1 x_1 +
    ...) is summed one coordinate at a time in that order, and x passes
    when s >= -DEFAULT_TOL * |n|: the float path of `contains`, operation
    for operation.  The matmul form A x <= b + DEFAULT_TOL * |n| rounds
    otherwise and disagrees with `contains` on points within rounding of
    the tolerance shell.  A NaN slack fails.  Every facet is tested at once on
    FACET_BLOCK columns at a time, so the temporaries stay bounded on any N.
    """
    A, b, thr = poly.float_halfspaces
    inside = np.empty(cols.shape[1], dtype=bool)
    for a in range(0, cols.shape[1], FACET_BLOCK):
        x = cols[:, a:a + FACET_BLOCK]
        s = A[0] * x[0]  # (facets, block)
        for k in range(1, poly.dim):
            s += A[k] * x[k]
        np.logical_and.reduce(np.subtract(b, s, out=s) >= thr, axis=0, out=inside[a:a + FACET_BLOCK])
    return inside


def sample_uniform(poly: Polytope, n, rng):
    """n points uniform over poly by seeded rejection of at most DRAW_BUDGET*n bounding-box draws."""
    if n < 1:
        raise ValueError("need at least one sample")
    lo, hi = (np.array(b, dtype=float) for b in poly.bounding_box())
    out, have, drawn = [], 0, 0
    while have < n:
        if drawn >= DRAW_BUDGET * n:
            raise BudgetExceeded(f"{have} of {drawn} draws from the bounding box fell in the hull, "
                                 f"too few for {n} samples (budget {DRAW_BUDGET} draws a sample)")
        cand = lo + rng.random((max(n, 128), poly.dim)) * (hi - lo)
        drawn += len(cand)
        out.append(cand[contains_many(poly, cand)])
        have += len(out[-1])
    return np.concatenate(out)[:n]


def volume_mc(poly: Polytope, samples, seed):
    """Monte Carlo volume for any dimension: (estimate, standard error)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    lo, hi = (np.array(b, dtype=float) for b in poly.bounding_box())
    box = float(np.prod(hi - lo))
    pts = lo + rng.random((samples, poly.dim)) * (hi - lo)
    frac = int(np.count_nonzero(contains_many(poly, pts))) / samples
    return box * frac, box * binomial_stderr(frac, samples)


def binomial_stderr(frac, n):
    """Standard error sqrt(f(1-f)/n) of a hit fraction f of n draws, f(1-f) floored at 1/n.

    The floor keeps an all-hit or all-miss draw from reading as certain: its
    error is 1/n.  The one error bar of every Monte Carlo fraction here.
    """
    return math.sqrt(max(frac * (1 - frac), 1.0 / n) / n)
