"""One-dimensional expansions with deleted digits, reduced to the core family.

An expansion x = sum eps_n lam^n with eps_n drawn from a real digit set
a_1 < ... < a_m is an address for the maps f_j(x) = lam*(x + a_j); choosing
anchor points p_j = lam*a_j/(1-lam) turns those into the standard family, so
the whole address engine and its no-holes certificate apply unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import PointOutsideOmega
from . import addresses
from .conditions import check_digits, no_holes_sufficient
from .core import IfsSystem, _root, new_ifs
from .geometry import contains
from .measure import chain_walk

# Komornik-Loreti constant, cited numeric value (transcendental; 6 digits).
KOMORNIK_LORETI = 0.559525


@dataclass(frozen=True)
class DigitSet:
    digits: tuple

    def __post_init__(self):
        object.__setattr__(self, "digits", check_digits(self.digits))

    @property
    def m(self) -> int:
        return len(self.digits)


def attractor_interval(A: DigitSet, lam):
    """[lam*a_1/(1-lam), lam*a_m/(1-lam)], the reachable expansion values."""
    if not (0 < lam < 1):
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    seq = A.digits
    return lam * seq[0] / (1 - lam), lam * seq[-1] / (1 - lam)


def as_ifs(A: DigitSet, lam) -> IfsSystem:
    """The 1-D system with p_j = lam*a_j/(1-lam), so f_j(x) = lam*(x + a_j).

    Memoised: the system is immutable, and count_expansions asks for the
    same one on every call.  The key holds the type of lam and of every
    digit next to its value, since equal values of another type build
    another system: 0.45 == Fraction(0.45), yet only the second gives
    exact anchors.
    """
    if not (0 < lam < 1):
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    return _as_ifs(tuple((type(a), a) for a in A.digits), (type(lam), lam))


@functools.lru_cache
def _as_ifs(typed_digits, typed_lam):
    lam = typed_lam[1]
    return new_ifs(lam, [(lam * a / (1 - lam),) for _, a in typed_digits])


def count_expansions(A: DigitSet, lam, x, depth: int):
    """Classification report for the expansions of x in this digit system.

    The no-holes certificate is `conditions.no_holes_sufficient`: with every
    digit gap at most lam*(a_m-a_1)/(1-lam), bifurcations certify multiplicity.
    """
    sys = as_ifs(A, lam)
    pt = (x,) if not isinstance(x, tuple) else x
    # x lies in the interval as the walk reads it (`_root`); a NaN fails the first test
    if not (contains(sys.omega, pt) and contains(sys.omega, _root(sys, pt)[0])):
        raise PointOutsideOmega(f"{x} is outside the attractor interval")
    return addresses.classify_point(sys, pt, depth, no_holes_certified=no_holes_sufficient(sys)[0])


def multiplicity_lambda_estimate(A: DigitSet, grid: int = 200, depth: int = 50,
                                 probes: int = 64):
    """Empirical estimate of the smallest lambda with no unique expansions.

    Scans a lambda grid and returns the smallest grid value at which every
    probed interior point bifurcates within `depth`.  This is an estimate of
    the threshold whose existence the theory guarantees, not a derivation of
    it; treat it as exploratory output.
    """
    for k in range(1, grid):
        lam = k / grid
        lo, hi = attractor_interval(A, lam)
        width = hi - lo
        probe_pts = [(lo + width * t / (probes + 1),) for t in range(1, probes + 1)]
        bif, _ = chain_walk(as_ifs(A, lam), probe_pts, depth)
        if (bif >= 0).all():
            return lam
    return None
