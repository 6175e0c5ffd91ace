"""One-dimensional expansions with deleted digits, reduced to the core family.

An expansion x = sum eps_n lam^n with eps_n drawn from a real digit set
a_1 < ... < a_m is an address for the maps f_j(x) = lam*(x + a_j); choosing
anchor points p_j = lam*a_j/(1-lam) turns those into the standard family, so
the whole address engine applies unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import PointOutsideOmega, UnsortedDigits
from . import addresses
from .conditions import pedicini_holds
from .core import IfsSystem, new_ifs
from .geometry import DEFAULT_TOL, contains

# Komornik-Loreti constant, cited numeric value (transcendental; 6 digits).
KOMORNIK_LORETI = 0.559525


@dataclass(frozen=True)
class DigitSet:
    digits: tuple

    def __post_init__(self):
        seq = tuple(self.digits)
        if len(seq) < 2:
            raise UnsortedDigits("a digit set needs at least two digits")
        if not all(a < b for a, b in zip(seq, seq[1:])):  # NaN fails too
            raise UnsortedDigits(f"digits must be strictly increasing: {seq}")
        object.__setattr__(self, "digits", seq)

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


def count_expansions(A: DigitSet, lam, x, depth: int, tol=DEFAULT_TOL,
                     node_budget=addresses.DEFAULT_NODE_BUDGET):
    """Classification report for the expansions of x in this digit system.

    The no-holes certificate is exactly the Pedicini condition: when the
    largest digit gap is below lam*(a_m-a_1)/(1-lam), the attractor is the
    full interval and bifurcations certify multiplicity.
    """
    sys = as_ifs(A, lam)
    pt = (x,) if not isinstance(x, tuple) else x
    if not contains(sys.omega, pt, tol=tol):
        raise PointOutsideOmega(f"{x} is outside the attractor interval")
    return addresses.classify_point(sys, pt, depth, no_holes_certified=pedicini_holds(A, lam)[0],
                                    tol=tol, node_budget=node_budget)


def multiplicity_lambda_estimate(A: DigitSet, grid: int = 200, depth: int = 50,
                                 probes: int = 64, tol=DEFAULT_TOL):
    """Empirical estimate of the smallest lambda with no unique expansions.

    Scans a lambda grid and returns the smallest grid value at which every
    probed interior point bifurcates within `depth`.  This is an estimate of
    the threshold whose existence the theory guarantees, not a derivation of
    it; treat it as exploratory output.
    """
    for k in range(1, grid):
        lam = k / grid
        sys = as_ifs(A, lam)
        lo, hi = attractor_interval(A, lam)
        width = hi - lo
        all_branch = True
        for t in range(1, probes + 1):
            x = lo + width * t / (probes + 1)
            if addresses.first_bifurcation(sys, (x,), depth, tol=tol) is None:
                all_branch = False
                break
        if all_branch:
            return lam
    return None
