"""One-parameter similitude families f_j(x) = lam*x + (1-lam)*p_j.

The same code serves two arithmetic paths.  With float inputs everything is
double precision; with ``Fraction`` inputs (lam and every coordinate) all
maps, inverses and membership tests are exact, which is what uniqueness
certification relies on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BadProbabilityVector,
    DegenerateAffineHull,
    DigitOutOfRange,
    DuplicatePoints,
    LambdaOutOfRange,
)
from .geometry import (Polytope, contains, contains_many, hull_polytope, is_exact_point,
                       is_exact_scalar)


@dataclass(frozen=True)
class IfsSystem:
    lam: object
    points: tuple
    omega: Polytope
    is_exact: bool = field(init=False, repr=False, compare=False)
    # c_j = (1-lam)*p_j for every anchor, in the system's own arithmetic: the
    # one definition of the shifts of f_j^{-1}(x) = (x - c_j)/lam, read by
    # `apply_inverse` and rounded to float once in `float_shifts`
    shifts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exact = is_exact_scalar(self.lam) and all(is_exact_point(p) for p in self.points)
        object.__setattr__(self, "is_exact", exact)
        c = 1 - self.lam
        object.__setattr__(self, "shifts", tuple(tuple(c * v for v in p) for p in self.points))

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return len(self.points[0])

    def diameter(self) -> float:
        return self.omega.diameter()

    @cached_property
    def float_shifts(self):
        """`shifts` rounded to a read-only (m, d) float array, for `_children_many`.

        Built on the first batched expansion and kept.  The scalar
        `apply_inverse` reads the plain `shifts` field instead: a cached
        property costs an attribute lookup more on every scalar step.
        """
        a = np.array([[float(v) for v in c] for c in self.shifts])
        a.flags.writeable = False
        return a

    @cached_property
    def facet_slacks(self) -> tuple:
        """(u, h) from Omega's facets n_f.x <= b_f, on the exact values of the inputs.

        u[j][f] = b_f - n_f.p_j >= 0 and h[j][f] = (1-lam)/lam * n_f.p_j,
        Fractions, for every anchor point p_j and facet f.  Every f_i is a
        homothety, so every image f_w(Omega) has Omega's facet normals, and
        these numbers decide containment between images exactly
        (conditions.vertex_overlap_witness).
        """
        lam = Fraction(self.lam)
        pts = [tuple(Fraction(v) for v in p) for p in self.points]
        hs = hull_polytope(pts).halfspaces
        heights = [[sum(a * b for a, b in zip(n, p)) for n, _, _ in hs] for p in pts]
        u = tuple(tuple(off - a for (_, off, _), a in zip(hs, row)) for row in heights)
        h = tuple(tuple((1 - lam) / lam * a for a in row) for row in heights)
        return u, h


def new_ifs(lam, points) -> IfsSystem:
    """Validated system: 0 < lam < 1, distinct points, full affine dimension."""
    if not (0 < lam < 1):
        raise LambdaOutOfRange(f"lambda must lie strictly inside (0,1), got {lam}")
    pts = tuple(tuple(p) for p in points)
    if len(pts) < 2:
        raise DuplicatePoints("need at least two anchor points")
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("anchor points must be pairwise distinct")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DegenerateAffineHull("anchor points of mixed dimension")
    return IfsSystem(lam=lam, points=pts, omega=hull_polytope(pts))


def _check_digit(sys: IfsSystem, j):
    if not (isinstance(j, int) and 0 <= j < sys.m):
        raise DigitOutOfRange(f"digit {j} not in 0..{sys.m - 1}")


def apply_map(sys: IfsSystem, j: int, x):
    """f_j(x) = lam*x + (1-lam)*p_j."""
    _check_digit(sys, j)
    lam = sys.lam
    p = sys.points[j]
    return tuple(lam * xi + (1 - lam) * pi for xi, pi in zip(x, p))


def apply_inverse(sys: IfsSystem, j: int, x):
    """f_j^{-1}(x) = (x - c_j) / lam, with c_j = (1-lam)*p_j read from `sys.shifts`.

    On floats this is the inline (x - (1-lam)*p_j) / lam bit for bit.  On
    an exact system and point it is `_inverse_exact`.
    """
    _check_digit(sys, j)
    if sys.is_exact and is_exact_point(x):
        return _inverse_exact(sys.lam, sys.shifts[j], x)
    lam = sys.lam
    return tuple((xi - ci) / lam for xi, ci in zip(x, sys.shifts[j]))


def _inverse_exact(lam, c, x):
    """(x - c)/lam with each coordinate one Fraction built from integers.

    (a/b - e/f) * v/u = (a*f - e*b)*v / (b*f*u) for lam = u/v, reduced by a
    single gcd.  Kept out of `apply_inverse`, whose float path then pays
    nothing for it.
    """
    u, v = lam.numerator, lam.denominator
    return tuple(Fraction((xi.numerator * ci.denominator - ci.numerator * xi.denominator) * v,
                          xi.denominator * ci.denominator * u)
                 for xi, ci in zip(x, c))


def _children(sys: IfsSystem, x, tol):
    """[(j, f_j^{-1}(x))] for every digit j whose image lies in Omega (closed test).

    The one scalar feasibility kernel: the address walkers expand their
    nodes here, on floats or exactly on rationals, except for the wide
    float levels of `enumerate_prefixes` and `classify_point`, which
    `addresses._expand` sends to its batched twin `_children_many`.  The shifts
    c_j come cached on the system, and on the exact path `apply_inverse`
    and `contains` both work on integers.  It is private because
    bench/tracing.py wraps every public function, and its per-layer counts
    need each apply_inverse and contains call to stay a direct child of the
    walker that asked for it.
    """
    out = []
    for j in range(sys.m):
        r = apply_inverse(sys, j, x)
        if contains(sys.omega, r, tol=tol):
            out.append((j, r))
    return out


def _feasible_many(omega: Polytope, X, shifts, scale, tol):
    """Every (row x, map j) with (x - shifts[j])/scale in omega, as (parent, digit, remainders).

    The one batched feasibility kernel, over a (rows, d) float array and
    any family of inverse steps x -> (x - t_j)/scale: the maps f_j
    themselves (`_children_many`) or the block words of W_n
    (conditions.wn_entry_depths).  Pairs come row-major, then map-minor,
    and `contains_many` repeats the float membership test of `contains`
    in its order of operations.
    """
    cand = (X[:, None, :] - shifts) / scale  # (rows, maps, d)
    parent, digit = np.nonzero(contains_many(omega, cand, tol=tol))
    return parent, digit, cand[parent, digit]


def _children_many(sys: IfsSystem, X, tol):
    """`_children` of every row of a (rows, d) float array, as (parent, digit, remainders).

    `_feasible_many` on the system's own maps.  Children come node-major,
    then digit-minor, as `_children` lists them, and each is bit for bit
    what `_children` returns for a row given as a tuple of floats: f_j^{-1}
    is (x - c_j)/lam with c_j = `sys.shifts[j]`, taken in the system's own
    arithmetic and then rounded to float.
    """
    return _feasible_many(sys.omega, X, sys.float_shifts, float(sys.lam), tol)


def project_prefix(sys: IfsSystem, w, x0):
    """f_{w_1} o ... o f_{w_n}(x0), composed right to left (innermost digit last)."""
    x = tuple(x0)
    for j in reversed(tuple(w)):
        x = apply_map(sys, j, x)
    return x


def prefix_closed_form(sys: IfsSystem, w, x0):
    """lam^n * x0 + (1-lam) * sum_k lam^(k-1) p_{w_k}; regression oracle for project_prefix."""
    lam = sys.lam
    n = len(w)
    acc = [lam**n * v for v in x0]
    scale = 1 - lam
    for k, j in enumerate(tuple(w)):
        _check_digit(sys, j)
        c = scale * lam**k
        acc = [a + c * pv for a, pv in zip(acc, sys.points[j])]
    return tuple(acc)


def centroid(sys: IfsSystem):
    m = sys.m
    return tuple(sum(p[k] for p in sys.points) / m for k in range(sys.d))


def load_system(path, exact=False):
    """Read the IFS definition file; returns (system, probs-or-None).

    Format: {"lambda": number, "points": [[..], ..], "probs": [..]?}.
    With exact=True the decimal literals are parsed as exact rationals.
    """
    if exact:
        kw = {"parse_float": Fraction, "parse_int": Fraction}
    else:
        kw = {}
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f, **kw)
    return system_from_dict(raw)


def system_from_dict(raw):
    try:
        lam = raw["lambda"]
        points = raw["points"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"IFS definition must carry 'lambda' and 'points': {e}") from e
    pts = [[v for v in p] for p in points]
    values = [lam] + [v for p in pts for v in p]
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ValueError("IFS definition holds a non-finite number (inf or nan)")
    sys = new_ifs(lam, pts)
    probs = raw.get("probs")
    return sys, None if probs is None else check_probs(probs, sys.m)


def check_probs(probs, m) -> tuple:
    """The probability vector as floats: m nonnegative entries summing to 1 +- 1e-9."""
    p = tuple(float(v) for v in probs)
    if len(p) != m:
        raise BadProbabilityVector(f"need {m} probabilities, got {len(p)}")
    if not all(v >= 0 for v in p):  # each check asks for the good case: NaN fails
        raise BadProbabilityVector("probabilities must be nonnegative")
    if not abs(sum(p) - 1.0) <= 1e-9:
        raise BadProbabilityVector(f"probabilities sum to {sum(p)}, need 1 +- 1e-9")
    return p
