"""Feasible-prefix enumeration and uniqueness/multiplicity classification.

A digit i is a feasible continuation at a point x when f_i^{-1}(x) stays in
Omega.  Because the attractor is contained in Omega, this over-approximates
the set of true first digits; when the attractor has no holes (certified by
`conditions.no_holes_sufficient` alone) it is that set exactly, which is
what turns finite-depth observations into certificates:

* a bifurcation plus a no-holes certificate proves at least two addresses
  exist on the exact path; a float certificate rests on both children lying
  1e-9 inside Omega, the known defect that `classify_point` describes;
* a single feasible chain whose exact-rational remainder revisits an earlier
  value proves the address is unique forever, with no certificate needed,
  since the over-approximation already bounds the true tree from above.

Float-path single chains are never certified: they report Unknown.

`enumerate_prefixes` and `classify_point` walk the tree a level at a time
through `_expand`: a float level of two or more nodes runs on the batched
kernel `core._children_many`, every other level on the scalar
`core._children`.  Both give the same remainders bit for bit, so verdicts
and counts do not depend on which kernel ran.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, CertificateRequired, PointOutsideOmega
from .core import IfsSystem, _children, _children_many
from .geometry import DEFAULT_TOL, contains, is_exact_point

NODE_BUDGET = 10**6  # most nodes a prefix tree or a classification may hold
CERT_MARGIN = 1e-9  # interior margin required of both branches before certifying multiplicity


class Mode(enum.Enum):
    RELAXED_OMEGA = "relaxed-omega"
    EXACT_NO_HOLES = "exact-no-holes"


class Verdict(enum.Enum):
    UNIQUE_CERTIFIED = "unique-certified"
    MULTIPLE_CERTIFIED = "multiple-certified"
    MULTIPLE_LIKELY = "multiple-likely"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PrefixNode:
    prefix: tuple
    remainder: tuple


class PrefixTree:
    """The feasible-prefix tree of `point`, one level per depth.

    Each level below the root is kept as it was expanded: the index of
    every node's parent in the level above, its last digit, and its
    remainder (a list of tuples, or a (rows, d) float array from the
    batched kernel).  `counts` reads only their lengths; `levels` builds
    the PrefixNode lists, levels[k] holding depth k, on first read.
    """

    def __init__(self, point, steps):
        self.point = point
        self._steps = steps  # [(parents, digits, remainders)] for depths 1, 2, ...

    @property
    def counts(self):
        return [1] + [len(digits) for _, digits, _ in self._steps]

    @cached_property
    def levels(self):
        out = [[PrefixNode(prefix=(), remainder=self.point)]]
        for parents, digits, rems in self._steps:
            if isinstance(rems, np.ndarray):
                parents, digits, rems = parents.tolist(), digits.tolist(), map(tuple, rems.tolist())
            above = out[-1]
            out.append([PrefixNode(prefix=above[i].prefix + (j,), remainder=r)
                        for i, j, r in zip(parents, digits, rems)])
        return out


@dataclass(frozen=True)
class CycleCertificate:
    """Remainder orbit re-entered itself: digits repeat with this period forever."""

    entry_depth: int
    period: int
    digits: tuple  # the full forced digit chain up to cycle closure


@dataclass
class ClassificationReport:
    verdict: Verdict
    explored_depth: int
    first_bifurcation: int | None
    prefix_counts: list
    certificate: CycleCertificate | None = None
    exact: bool = False


def feasible_children(sys: IfsSystem, x):
    """Digits i with f_i^{-1}(x) in Omega (closed membership).

    A superset of the true first address digits of x, and equal to them
    when the attractor has no holes.
    """
    return tuple(j for j, _ in _children(sys, x))


def enumerate_prefixes(sys: IfsSystem, x, depth: int) -> PrefixTree:
    """Breadth-first tree of every feasible prefix of x down to `depth`.

    Distinct prefixes with equal remainders are kept distinct: the object of
    study is the address count, not the remainder orbit.  The levels are
    kept as arrays and turned into PrefixNodes only when `levels` is read.
    More than NODE_BUDGET nodes raise BudgetExceeded.
    """
    _check_depth(depth)
    budget = NODE_BUDGET
    x = tuple(x)
    steps = []
    frontier = [x]
    total = 1
    for dep in range(depth):
        parents, digits, frontier = _expand(sys, frontier)
        steps.append((parents, digits, frontier))
        total += len(digits)
        if total > budget:
            raise BudgetExceeded(f"prefix tree exceeded {budget} nodes at depth {dep + 1}")
        if not len(digits):
            break
    return PrefixTree(point=x, steps=steps)


def _expand(sys, frontier, tol=DEFAULT_TOL):
    """(parents, digits, remainders) of every feasible child of a level, node-major.

    The one level step of `enumerate_prefixes` and `classify_point`.  A
    level of two or more float remainders goes through the batched kernel
    as one (rows, d) array, and its children stay one.  A single node, or
    a level in exact or mixed arithmetic, steps through the scalar kernel.
    Either way every remainder is bit for bit what `_children` computes.
    """
    if isinstance(frontier, np.ndarray):
        if len(frontier) >= 2:
            return _children_many(sys, frontier, tol)
        frontier = [tuple(r) for r in frontier.tolist()]
    elif len(frontier) >= 2 and all(type(v) is float for v in frontier[0]):
        # every remainder of a level has the same coordinate types
        return _children_many(sys, np.array(frontier), tol)
    parents, digits, rems = [], [], []
    for i, r in enumerate(frontier):
        for j, rj in _children(sys, r, tol):
            parents.append(i)
            digits.append(j)
            rems.append(rj)
    return parents, digits, rems


def _fork_spans(parents):
    """[start, stop) child spans of every node of a level with two or more children."""
    if isinstance(parents, np.ndarray):
        cuts = (np.flatnonzero(parents[1:] != parents[:-1]) + 1).tolist()
    else:
        cuts = [i for i in range(1, len(parents)) if parents[i] != parents[i - 1]]
    bounds = [0, *cuts, len(parents)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b - a >= 2]


def _solid(sys, rems):
    """How many of these float remainders lie CERT_MARGIN or more inside Omega."""
    if isinstance(rems, np.ndarray):
        rems = rems.tolist()
    return sum(contains(sys.omega, r, tol=-CERT_MARGIN) for r in rems)


def _check_depth(depth):
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")


def first_bifurcation(sys: IfsSystem, x, depth: int):
    """Least n at which a common prefix of length n has two feasible continuations."""
    _check_depth(depth)
    r = tuple(x)
    for dep in range(depth):
        ch = _children(sys, r)
        if len(ch) >= 2:
            return dep
        if not ch:
            return None
        r = ch[0][1]
    return None


def classify_point(sys: IfsSystem, x, depth: int, mode=Mode.RELAXED_OMEGA,
                   no_holes_certified=False, tol=DEFAULT_TOL) -> ClassificationReport:
    """Classify the address structure of x from its feasible-prefix tree.

    Verdicts:

    * UNIQUE_CERTIFIED -- exact arithmetic, one feasible child at every
      depth, and the remainder sequence revisited an earlier exact value;
      the periodicity extends the single chain to an infinite certificate.
    * MULTIPLE_CERTIFIED -- requires no_holes_certified.  Some node has two
      feasible children; on the float path both must additionally sit
      inside Omega with interior margin 1e-9.  That margin does not bound
      the rounding error of a deep remainder, which grows like u*lam^-n,
      so a float certificate is not yet a proof: known defect, measured by
      bench/defects.py (9 false certificates in 3000 points at lam = 0.52,
      depth 120).  Exact inputs give sound certificates.
    * MULTIPLE_LIKELY -- a bifurcation was seen and at least two prefixes
      survive to the horizon, but no certificate applies.
    * UNKNOWN -- anything else (single float chain, no cycle yet, or the
      tree died out, which in relaxed mode means x is not in the attractor).

    The tree is walked a level at a time through `_expand`, so its wide
    float levels run on the batched kernel.  Verdicts, counts and the
    budget are those of a walk over `_children` one node at a time: the
    certifying node is the first in node-major order that qualifies, and
    the last count runs to its last child.  The budget is a count of
    children: with `room` = NODE_BUDGET minus the nodes held before a
    level, a fork whose first child has index a in that level may certify
    only when a <= room, and a level that brings the total past
    NODE_BUDGET without certifying raises BudgetExceeded.

    Exact-no-holes mode checks its premises and changes no verdict: it
    raises CertificateRequired without no_holes_certified, and
    PointOutsideOmega for x outside Omega.
    """
    _check_depth(depth)
    if mode is Mode.EXACT_NO_HOLES:
        if not no_holes_certified:
            raise CertificateRequired(
                "exact-no-holes mode needs a no-holes certificate (conditions.no_holes_sufficient)")
        if not contains(sys.omega, x, tol=tol):
            raise PointOutsideOmega(f"{x} is outside Omega")
    budget = NODE_BUDGET
    x = tuple(x)
    exact = sys.is_exact and is_exact_point(x)

    frontier = [x]
    counts = [1]
    bifurcation = None
    seen = {x: 0} if exact else None
    chain_digits = []  # None once the tree forks
    total_nodes = 1

    def report(verdict, explored, certificate=None):
        return ClassificationReport(verdict, explored, bifurcation, counts, certificate, exact)

    for dep in range(depth):
        parents, digits, frontier = _expand(sys, frontier, tol)
        n = len(digits)
        room = budget - total_nodes  # children the level may add
        forks = _fork_spans(parents) if n >= 2 and (no_holes_certified or bifurcation is None) else ()
        if forks and bifurcation is None:
            bifurcation = dep
        for a, b in forks if no_holes_certified else ():
            if a > room:
                break
            if exact or _solid(sys, frontier[a:b]) >= 2:
                counts.append(b)  # the children of every node up to this one
                return report(Verdict.MULTIPLE_CERTIFIED, dep + 1)
        total_nodes += n
        if total_nodes > budget:
            raise BudgetExceeded(f"classification exceeded {budget} nodes at depth {dep + 1}")
        counts.append(n)
        if not n:
            return report(Verdict.UNKNOWN, dep + 1)
        if chain_digits is not None and n == 1:
            # a pure chain's levels hold one node, so they stay scalar lists
            r = frontier[0]
            chain_digits.append(digits[0])
            if exact:
                if r in seen:
                    cycle = CycleCertificate(seen[r], dep + 1 - seen[r], tuple(chain_digits))
                    return report(Verdict.UNIQUE_CERTIFIED, dep + 1, cycle)
                seen[r] = dep + 1
        else:
            chain_digits = None

    return report(Verdict.MULTIPLE_LIKELY if counts[-1] >= 2 else Verdict.UNKNOWN, depth)
