"""Convex polytopes with membership queries used for address feasibility.

A polytope is stored by its generators (V-representation).  For dimensions
one and two an H-representation is derived at construction time, and its
float arrays once, at the first batched query; every membership query is
a batch of halfspace evaluations.  In higher dimensions membership falls
back to an exact linear-feasibility program over the convex-combination
weights, so no hull algorithm is ever needed there.

`contains` tests one point on the float or the exact-rational path:
arithmetic stays within the input type, and the interior-margin test is
phrased with squared quantities so the rational path never needs a square
root.  `contains_many` is the one batched test, over float point arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension
from .linfeas import convex_combination_residual

DEFAULT_TOL = 1e-9


def is_exact_scalar(v) -> bool:
    return isinstance(v, Rational)


def is_exact_point(p) -> bool:
    return all(is_exact_scalar(v) for v in p)


@dataclass(frozen=True)
class Polytope:
    """Convex hull of `generators`; `halfspaces` present for dim <= 2.

    Each halfspace is (normal, offset, sq_norm) with the inside convention
    normal . x <= offset.  Normals are *not* normalised, so they stay exact
    on the rational path; sq_norm carries |normal|^2 for margin tests.
    `float_halfspaces` is the same H-representation as float arrays, the
    only form the batched test `contains_many` reads.
    """

    generators: tuple
    halfspaces: tuple | None
    dim: int
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_exact", all(is_exact_point(g) for g in self.generators))

    @cached_property
    def float_halfspaces(self):
        """The H-representation as read-only float arrays (A, b, |row| norms); None for dim >= 3.

        Built on the first batched query and kept.  Not at construction:
        scalar callers such as deleted_digits.count_expansions build a
        fresh system per call and never read it.
        """
        if self.halfspaces is None:
            return None
        arrays = (
            np.array([[float(v) for v in n] for n, _, _ in self.halfspaces]),
            np.array([float(off) for _, off, _ in self.halfspaces]),
            np.sqrt(np.array([float(sq) for _, _, sq in self.halfspaces])),
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
    hs = _halfspaces(gens, d) if d <= 2 else None
    return Polytope(generators=gens, halfspaces=hs, dim=d)


def _halfspaces(gens, d):
    if d == 1:
        lo = min(g[0] for g in gens)
        hi = max(g[0] for g in gens)
        one = 1 if is_exact_scalar(lo) else 1.0
        return (((-one,), -lo, one), ((one,), hi, one))
    hull = _hull2d(gens)
    if len(hull) == 1:
        p = hull[0]
        return (((1, 0), p[0], 1), ((-1, 0), -p[0], 1), ((0, 1), p[1], 1), ((0, -1), -p[1], 1))
    if len(hull) == 2:
        # degenerate segment: clamp to the segment's slab in both axes
        (x1, y1), (x2, y2) = hull
        n = (y1 - y2, x2 - x1)
        out = [
            (n, n[0] * x1 + n[1] * y1, n[0] ** 2 + n[1] ** 2),
            ((-n[0], -n[1]), -(n[0] * x1 + n[1] * y1), n[0] ** 2 + n[1] ** 2),
        ]
        t = (x2 - x1, y2 - y1)
        out.append((t, t[0] * x2 + t[1] * y2, t[0] ** 2 + t[1] ** 2))
        out.append(((-t[0], -t[1]), -(t[0] * x1 + t[1] * y1), t[0] ** 2 + t[1] ** 2))
        return tuple(out)
    out = []
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        # hull is counter-clockwise, so (dy, -dx) points outward
        n = (y2 - y1, x1 - x2)
        out.append((n, n[0] * x1 + n[1] * y1, n[0] * n[0] + n[1] * n[1]))
    return tuple(out)


def _hull2d(points):
    """Andrew's monotone chain; exact under rational coordinates."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all collinear: keep extreme pair
        hull = [pts[0], pts[-1]]
    return hull


def contains(poly: Polytope, x, margin=0, tol=DEFAULT_TOL) -> bool:
    """Membership of x in poly.

    margin == 0 is the Closed mode: on the float path the boundary is
    widened by `tol`, on the exact path the test is exact.  margin > 0 is
    InteriorMargin(margin): the ball of that radius around x must fit inside
    (dim <= 2, via halfspace distances); for dim >= 3 the margin is applied
    to the convex-combination weights instead, which is conservative in the
    same direction.
    """
    if len(x) != poly.dim:
        raise DimensionMismatch(f"point has dimension {len(x)}, polytope {poly.dim}")
    exact = poly.is_exact and is_exact_point(x) and (margin == 0 or is_exact_scalar(margin))
    if poly.halfspaces is not None:
        for n, off, sq in poly.halfspaces:
            s = off - sum(nv * xv for nv, xv in zip(n, x))
            if margin == 0:
                if exact:
                    if s < 0:
                        return False
                elif float(s) < -tol * math.sqrt(float(sq)):
                    return False
            else:
                # distance to the edge is s/|n|; require >= margin without sqrt
                if s < 0 or s * s < margin * margin * sq:
                    return False
        return True
    # dim >= 3: exact feasibility over convex weights
    if margin == 0:
        res = convex_combination_residual(poly.generators, x)
        if exact:
            return res == 0
        return float(res) <= tol
    delta = Fraction(margin) / (Fraction(len(poly.generators)) * max(ONE_F, _span(poly)))
    res = convex_combination_residual(poly.generators, x, min_weight=delta)
    return res == 0 if exact else float(res) <= tol


ONE_F = Fraction(1)


def _span(poly):
    lo, hi = poly.bounding_box()
    return max((Fraction(h) - Fraction(l) for l, h in zip(lo, hi)), default=ONE_F)


def image_polytope(sys, w) -> Polytope:
    """Polytope f_w(Omega): generators are the mapped anchor points."""
    from .core import project_prefix  # deferred: core depends on geometry

    gens = tuple(project_prefix(sys, w, p) for p in sys.points)
    return hull_polytope(gens)


def volume(poly: Polytope):
    """Exact volume for dim <= 2 (interval length / shoelace area)."""
    if poly.dim == 1:
        lo, hi = poly.bounding_box()
        return hi[0] - lo[0]
    if poly.dim == 2:
        hull = _hull2d(poly.generators)
        if len(hull) < 3:
            return 0 * hull[0][0]
        s = 0
        for i in range(len(hull)):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % len(hull)]
            s += x1 * y2 - x2 * y1
        return abs(s) / 2
    raise UnsupportedDimension("exact volume is only available for dim <= 2; use volume_mc")


def np_halfspaces(poly: Polytope):
    """H-representation as read-only float arrays (A, b, |row| norms); dim <= 2 only."""
    if poly.float_halfspaces is None:
        raise UnsupportedDimension("H-representation is only built for dim <= 2")
    return poly.float_halfspaces


def contains_many(poly: Polytope, pts, tol=DEFAULT_TOL):
    """Closed membership over the last axis of a (..., d) float array; dim <= 2.

    The one batched feasibility test: x passes when A x <= b + tol * |row|.
    """
    A, b, norms = np_halfspaces(poly)
    return np.all(pts @ A.T <= b + tol * norms, axis=-1)


def sample_uniform(poly: Polytope, n, rng, tol=DEFAULT_TOL):
    """n points uniform over poly by seeded rejection from the bounding box."""
    lo, hi = poly.bounding_box()
    lo = np.array([float(v) for v in lo])
    hi = np.array([float(v) for v in hi])
    out = []
    have = 0
    while have < n:
        cand = lo + rng.random((max(n, 128), poly.dim)) * (hi - lo)
        if poly.halfspaces is not None:
            keep = cand[contains_many(poly, cand, tol=tol)]
        else:
            keep = np.array([p for p in cand if contains(poly, tuple(p), tol=tol)])
        if len(keep):
            out.append(keep)
            have += len(keep)
    return np.concatenate(out)[:n]


def volume_mc(poly: Polytope, samples, seed, tol=DEFAULT_TOL):
    """Monte Carlo volume for any dimension: (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    lo, hi = poly.bounding_box()
    lo = np.array([float(v) for v in lo])
    hi = np.array([float(v) for v in hi])
    box = float(np.prod(hi - lo))
    pts = lo + rng.random((samples, poly.dim)) * (hi - lo)
    hits = sum(1 for p in pts if contains(poly, tuple(p), tol=tol))
    frac = hits / samples
    err = box * math.sqrt(max(frac * (1 - frac), 1e-12) / samples)
    return box * frac, err
