"""Closed forms and the digit-forcing procedure for the three-map triangle family.

The closed forms work in normalised barycentric coordinates (x, y, z) with
x + y + z = 1: the three maps act on a triple as t -> lam*t + (1-lam)*e_j, so
all the inequalities below are independent of the actual triangle shape.
Cartesian systems are converted through an affine change of basis first.

Digit forcing is the forced chain of `addresses.forced_chain` on the exact
triangle (1,0), (0,1), (0,0), where the triple (x, y, z) is the point (x, y)
and f_j^{-1} its digit step: it returns that chain's `addresses.ForcedChain`,
and this module keeps no walker and no record of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .addresses import ChainKind, ForcedChain, _chain, _with_points
from .core import IfsSystem, _root, new_ifs
from .errors import DimensionMismatch, IrrationalInput
from .geometry import _check_depth

SUM_TOL = 1e-12
_CORNERS = new_ifs(Fraction(1, 2), [(1, 0), (0, 1), (0, 0)])  # lam is set per call


@dataclass(frozen=True)
class BarycentricTriple:
    x: object
    y: object
    z: object

    def __post_init__(self):
        t = self.as_tuple()
        s = self.x + self.y + self.z
        exact = all(isinstance(v, Rational) for v in t)  # an exact triple is read exactly
        # each check asks for the good case: NaN fails
        if not (s == 1 if exact else abs(float(s) - 1.0) <= SUM_TOL):
            raise ValueError(f"barycentric coordinates must sum to 1, got {float(s)}")
        if not all(v >= 0 if exact else float(v) >= -SUM_TOL for v in t):
            raise ValueError(f"barycentric coordinates must be nonnegative: {self}")

    def as_tuple(self):
        return (self.x, self.y, self.z)


def golden_ratio() -> float:
    """(sqrt(5)-1)/2, the sharp one-dimensional multiplicity threshold."""
    return (5.0**0.5 - 1.0) / 2.0


def lambda0() -> float:
    """Unique positive root of t^3 + t = 1, the triangle threshold (~0.68233)."""
    t = 1.0  # t^3 + t - 1 rises convexly on [0, 1]: Newton falls monotonically to the root
    for _ in range(8):
        t -= (t**3 + t - 1) / (3 * t * t + 1)
    return t


def pi_point(lam) -> BarycentricTriple:
    """(lam^2, lam, 1) / (1 + lam + lam^2), the period-3 uniqueness candidate."""
    den = 1 + lam + lam * lam
    return BarycentricTriple(lam * lam / den, lam / den, 1 / den)


def pi_prime_point(lam) -> BarycentricTriple:
    """The reversed triple: generator of the mirror 3-cycle."""
    den = 1 + lam + lam * lam
    return BarycentricTriple(1 / den, lam / den, lam * lam / den)


def gamma_nonempty(lam) -> bool:
    """Whether the corner region Gamma_0 = {x<(1-lam)/lam, y<1-lam, z<1-lam} is nonempty.

    The open triangle {x<a, y<b, z<c} is nondegenerate iff a+b+c > 1; this
    predicate equals lam < 1/sqrt(2) identically.
    """
    return (1 - lam) / lam + 2 * (1 - lam) > 1


def m_point(lam) -> BarycentricTriple:
    """Top-left corner of the pulled-back corner region (needs 1/2 < lam < 1).

    The corner only lies inside the closed triangle once lam + lam^2 >= 1,
    i.e. lam at least the golden ratio; below that its z-coordinate is
    negative and the validated triple cannot be built.
    """
    if not (0.5 < lam < 1):
        raise ValueError(f"the M point is meaningful for lam in (1/2, 1), got {lam}")
    a = (1 - lam) / lam
    return BarycentricTriple(a * a, a, (-1 + lam + lam * lam) / (lam * lam))


def m_separation_holds(lam) -> bool:
    """z_M > 1 - lam: the pulled-back corner clears the neighbouring rhombus.

    Computed directly from the corner's z-coordinate so it stays defined on
    all of (1/2, 1); algebraically equivalent to lam > lambda0().
    """
    if not (0.5 < lam < 1):
        raise ValueError(f"the separation test needs lam in (1/2, 1), got {lam}")
    z = (-1 + lam + lam * lam) / (lam * lam)
    return z > 1 - lam


def digit_forcing(lam, target, max_steps: int = 10_000) -> ForcedChain:
    """Force the digits of a barycentric target with exact rationals.

    Digit d is feasible when (t - (1-lam)*e_d)/lam stays in the closed
    triangle, endpoints included so that uniqueness conclusions stay
    conservative.  The result is the target's ForcedChain on the corner
    triangle (see the module docstring), digit 0, 1, 2 for a_n, b_n, c_n = 1.
    """
    if not isinstance(lam, Rational):
        raise IrrationalInput("digit forcing certifies with exact rationals; a float chain "
                              "(addresses.forced_chain or classify_point) is never certified")
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    _check_depth(max_steps, "max_steps")
    triple = target.as_tuple() if isinstance(target, BarycentricTriple) else tuple(target)
    if len(triple) != 3:
        raise DimensionMismatch(f"barycentric target needs 3 coordinates, got {len(triple)}")
    if not all(isinstance(v, Rational) for v in triple):
        raise IrrationalInput("digit forcing needs exact rational target coordinates")
    if sum(triple) != 1:
        raise ValueError("barycentric target must satisfy x + y + z = 1 exactly")
    sys = _corner_system(lam)
    return _with_points(_chain(sys, _root(sys, triple[:2])[1], max_steps), True)


@functools.lru_cache
def _corner_system(lam):
    """`_CORNERS` at a Fraction lam in (0, 1); a new lam reuses its hull, built at import."""
    return IfsSystem(lam=lam, points=_CORNERS.points, omega=_CORNERS.omega)


# ---------------------------------------------------------------------------
# conversions between a concrete planar 3-map system and barycentric triples


def _require_triangle(sys):
    if sys.m != 3 or sys.d != 2:
        raise DimensionMismatch("barycentric conversion needs a 3-map planar system")


def barycentric_to_point(sys, t: BarycentricTriple):
    """x*p0 + y*p1 + z*p2 for the system's anchor triangle."""
    _require_triangle(sys)
    p0, p1, p2 = sys.points
    w = t.as_tuple()
    return tuple(w[0] * p0[k] + w[1] * p1[k] + w[2] * p2[k] for k in range(2))


def point_to_barycentric(sys, pt) -> BarycentricTriple:
    _require_triangle(sys)
    p0, p1, p2 = sys.points
    # solve [p0-p2 | p1-p2] (x, y)^T = pt - p2 by Cramer's rule
    a, b = p0[0] - p2[0], p1[0] - p2[0]
    c, d = p0[1] - p2[1], p1[1] - p2[1]
    det = a * d - b * c
    rx, ry = pt[0] - p2[0], pt[1] - p2[1]
    x = (rx * d - b * ry) / det
    y = (a * ry - rx * c) / det
    return BarycentricTriple(x, y, 1 - x - y)


def gamma_uniqueness_scan(lam, resolution: int = 60, max_steps: int = 400):
    """Exploratory scan of the corner regions for forcing-unique points.

    Walks a barycentric grid over Gamma_0 and returns the grid points whose
    digit forcing certifies a unique address.  This probes the conjecture
    that only the two period-3 cycles survive for 2/3 <= lam < lambda0; it
    is reported as-is and asserted nowhere.

    A cell (i0, i1, i2)/resolution lies in Gamma_i when i_i < res*(1-lam)/lam
    and every other i_j < res*(1-lam).  For integers these read i_i <= wide
    and i_j <= narrow, with both bounds computed once, so the test needs no
    Fraction per cell.  As wide >= narrow, a cell lies in some Gamma_i
    exactly when its middle entry is <= narrow and its largest <= wide.
    A visited cell's chain starts from its reduced state (i0, i1, res)/gcd.
    lam must be Rational: a float would be scanned at its dyadic value.
    """
    if not (0 < lam < 1):
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    if not isinstance(lam, Rational):
        raise IrrationalInput(f"the gamma scan forces digits with exact rationals; got lam = {lam!r}, "
                              "pass a Fraction")
    lam = Fraction(lam)
    _check_depth(max_steps, "max_steps")
    _check_depth(resolution, "resolution", 1)
    sys = _corner_system(lam)
    wide = math.ceil(resolution * (1 - lam) / lam) - 1
    narrow = math.ceil(resolution * (1 - lam)) - 1
    out = []
    for ix in range(1, resolution):
        for iy in range(1, resolution - ix):
            cell = (ix, iy, resolution - ix - iy)
            _, mid, top = sorted(cell)
            if mid > narrow or top > wide:
                continue
            g = math.gcd(ix, iy, resolution)
            r = _chain(sys, (ix // g, iy // g, resolution // g), max_steps)
            if r.kind is ChainKind.UNIQUE_BY_CYCLE:
                out.append((BarycentricTriple(*(Fraction(c, resolution) for c in cell)), r))
    return out
