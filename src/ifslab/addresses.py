"""Feasible-prefix enumeration and uniqueness/multiplicity classification.

A digit i is a feasible continuation at a point x when f_i^{-1}(x) stays in
Omega.  Because the attractor is contained in Omega, this over-approximates
the set of true first digits; when the attractor has no holes (a certificate
from the conditions module) it is that set exactly, which is what turns
finite-depth observations into certificates:

* a bifurcation whose two children are solidly inside Omega plus a no-holes
  certificate proves at least two addresses exist;
* a single feasible chain whose exact-rational remainder revisits an earlier
  value proves the address is unique forever, with no certificate needed,
  since the over-approximation already bounds the true tree from above.

Float-path single chains are never certified: they report Unknown.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, CertificateRequired, PointOutsideOmega
from .core import IfsSystem, _children, _children_many
from .geometry import DEFAULT_TOL, contains, is_exact_point

DEFAULT_NODE_BUDGET = 10**6
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


def _require_mode(sys, x, mode, no_holes_certified, tol):
    if mode is Mode.EXACT_NO_HOLES:
        if not no_holes_certified:
            raise CertificateRequired(
                "exact-no-holes mode needs a no-holes certificate "
                "(conditions.no_holes_sufficient or a Pedicini certificate)"
            )
        if not contains(sys.omega, x, tol=tol):
            raise PointOutsideOmega(f"{x} is outside Omega")


def feasible_children(sys: IfsSystem, x, mode=Mode.RELAXED_OMEGA,
                      no_holes_certified=False, tol=DEFAULT_TOL):
    """Digits i with f_i^{-1}(x) in Omega (closed membership).

    In exact-no-holes mode this equals the set of true first address digits;
    in relaxed mode it is a superset of it.
    """
    _require_mode(sys, x, mode, no_holes_certified, tol)
    return tuple(j for j, _ in _children(sys, x, tol))


def enumerate_prefixes(sys: IfsSystem, x, depth: int, mode=Mode.RELAXED_OMEGA,
                       no_holes_certified=False, tol=DEFAULT_TOL,
                       node_budget=DEFAULT_NODE_BUDGET) -> PrefixTree:
    """Breadth-first tree of every feasible prefix of x down to `depth`.

    Distinct prefixes with equal remainders are kept distinct: the object of
    study is the address count, not the remainder orbit.  The levels are
    kept as arrays and turned into PrefixNodes only when `levels` is read.
    """
    _require_mode(sys, x, mode, no_holes_certified, tol)
    x = tuple(x)
    steps = []
    frontier = [x]
    total = 1
    for dep in range(depth):
        parents, digits, frontier = _expand(sys, frontier, tol)
        steps.append((parents, digits, frontier))
        total += len(digits)
        if total > node_budget:
            raise BudgetExceeded(f"prefix tree exceeded {node_budget} nodes at depth {dep + 1}")
        if not len(digits):
            break
    return PrefixTree(point=x, steps=steps)


def _expand(sys, frontier, tol):
    """(parents, digits, remainders) of every feasible child of a level, node-major.

    A level of two or more float remainders goes through the batched kernel
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


def first_bifurcation(sys: IfsSystem, x, depth: int, mode=Mode.RELAXED_OMEGA,
                      no_holes_certified=False, tol=DEFAULT_TOL):
    """Least n at which a common prefix of length n has two feasible continuations."""
    _require_mode(sys, x, mode, no_holes_certified, tol)
    r = tuple(x)
    for dep in range(depth):
        ch = _children(sys, r, tol)
        if len(ch) >= 2:
            return dep
        if not ch:
            return None
        r = ch[0][1]
    return None


def classify_point(sys: IfsSystem, x, depth: int, mode=Mode.RELAXED_OMEGA,
                   no_holes_certified=False, tol=DEFAULT_TOL,
                   node_budget=DEFAULT_NODE_BUDGET) -> ClassificationReport:
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
    """
    _require_mode(sys, x, mode, no_holes_certified, tol)
    x = tuple(x)
    exact = sys.is_exact and is_exact_point(x)

    frontier = [(None, x)]  # (last digit, remainder)
    counts = [1]
    bifurcation = None
    seen = {x: 0} if exact else None
    chain_digits = []
    pure_chain = True
    total_nodes = 1

    for dep in range(depth):
        nxt = []
        for _, r in frontier:
            children = _children(sys, r, tol)
            if len(children) >= 2:
                if bifurcation is None:
                    bifurcation = dep
                if no_holes_certified:
                    if exact:
                        solid = children
                    else:
                        solid = [c for c in children if contains(sys.omega, c[1], margin=CERT_MARGIN, tol=tol)]
                    if len(solid) >= 2:
                        counts.append(len(nxt) + len(children))
                        return ClassificationReport(
                            verdict=Verdict.MULTIPLE_CERTIFIED,
                            explored_depth=dep + 1,
                            first_bifurcation=bifurcation,
                            prefix_counts=counts,
                            exact=exact,
                        )
            nxt.extend(children)
            total_nodes += len(children)
            if total_nodes > node_budget:
                raise BudgetExceeded(f"classification exceeded {node_budget} nodes at depth {dep + 1}")
        if not nxt:
            counts.append(0)
            return ClassificationReport(
                verdict=Verdict.UNKNOWN,
                explored_depth=dep + 1,
                first_bifurcation=bifurcation,
                prefix_counts=counts,
                exact=exact,
            )
        counts.append(len(nxt))
        if pure_chain and len(nxt) == 1:
            j, r = nxt[0]
            chain_digits.append(j)
            if exact:
                if r in seen:
                    period = (dep + 1) - seen[r]
                    return ClassificationReport(
                        verdict=Verdict.UNIQUE_CERTIFIED,
                        explored_depth=dep + 1,
                        first_bifurcation=None,
                        prefix_counts=counts,
                        certificate=CycleCertificate(
                            entry_depth=seen[r], period=period, digits=tuple(chain_digits)
                        ),
                        exact=True,
                    )
                seen[r] = dep + 1
        else:
            pure_chain = False
        frontier = nxt

    if counts[-1] >= 2:
        verdict = Verdict.MULTIPLE_LIKELY
    else:
        verdict = Verdict.UNKNOWN
    return ClassificationReport(
        verdict=verdict,
        explored_depth=depth,
        first_bifurcation=bifurcation,
        prefix_counts=counts,
        exact=exact,
    )
