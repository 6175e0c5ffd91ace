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

A forced chain, one feasible child a level, is walked by `_chain` alone
into one `ForcedChain`; `forced_chain`, `first_bifurcation`, `classify_point`
and digit forcing read it.  Trees are walked a level at a time by
`_expand`, every float level of two or more nodes on the batched kernel
`core._children_many`: one fused step from the level's (rows, d) array to
its children, which come back as one (children, d) array, a view of
coordinate rows, with remainders bit for bit those of the scalar
`core._children`.  Every walk reads its point through `core._root`,
and every other level steps through `core._children`, the one scalar
kernel; on an exact system each node is an integer state that only
`core` builds, and the state is the cycle key.  `PrefixTree.levels`
reads states back as the Fractions `apply_inverse` gives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, CertificateRequired, PointOutsideOmega
from .core import IfsSystem, _children, _children_many, _fractions, _root
from .geometry import _check_depth, contains, is_exact_point

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
    remainder (a list of tuples, a (rows, d) float array from the batched
    kernel, or a list of integer states on the exact path).  `counts` reads
    only their lengths; `levels` builds the PrefixNode lists, levels[k]
    holding depth k, on first read, with exact remainders as Fractions.
    """

    def __init__(self, point, steps):
        self.point = point  # as `_root` read it: exact just when the walk is
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
            elif is_exact_point(self.point):
                rems = map(_fractions, rems)
            above = out[-1]
            out.append([PrefixNode(prefix=above[i].prefix + (j,), remainder=r)
                        for i, j, r in zip(parents, digits, rems)])
        return out


class ChainKind(enum.Enum):
    UNIQUE_BY_CYCLE = "unique-by-cycle"
    FORCED_PREFIX_THEN_BRANCH = "forced-prefix-then-branch"
    DEAD_END = "dead-end"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class ForcedChain:
    """A forced chain of feasible digits and how it stopped.

    On a cycle the digits from step `entry_depth` on repeat forever.  At a
    fork or dead end `children` holds its (digit, remainder) pairs: points
    from `forced_chain` and digit forcing, Fractions on an exact walk, and
    integer states (built by `core._root`) inside the package's own walks.
    """

    kind: ChainKind
    digits: tuple  # 0..m-1, one forced digit per step
    entry_depth: int | None = None
    children: list | None = field(default=None, compare=False, repr=False)

    @property
    def step(self):
        return len(self.digits)

    @property
    def period(self):
        return None if self.entry_depth is None else len(self.digits) - self.entry_depth


@dataclass
class ClassificationReport:
    verdict: Verdict
    explored_depth: int
    first_bifurcation: int | None
    prefix_counts: list
    certificate: ForcedChain | None = None  # the chain, when it closed a cycle
    exact: bool = False


def feasible_children(sys: IfsSystem, x):
    """Digits i with f_i^{-1}(x) in Omega (closed membership).

    A superset of the true first address digits of x, and equal to them
    when the attractor has no holes.
    """
    _, root = _root(sys, x)
    return tuple(j for j, _ in _children(sys, root))


def enumerate_prefixes(sys: IfsSystem, x, depth: int) -> PrefixTree:
    """Breadth-first tree of every feasible prefix of x down to `depth`.

    Distinct prefixes with equal remainders are kept distinct: the object of
    study is the address count, not the remainder orbit.  The levels are
    kept as arrays and turned into PrefixNodes only when `levels` is read.
    More than NODE_BUDGET nodes raise BudgetExceeded.
    """
    _check_depth(depth)
    x, root = _root(sys, x)
    steps = []
    frontier = [root]
    total = 1
    for dep in range(depth):
        parents, digits, frontier = _expand(sys, frontier)
        steps.append((parents, digits, frontier))
        total += len(digits)
        if total > NODE_BUDGET:
            raise BudgetExceeded(f"prefix tree exceeded {NODE_BUDGET} nodes at depth {dep + 1}")
        if not len(digits):
            break
    return PrefixTree(point=x, steps=steps)


def _expand(sys, frontier):
    """(parents, digits, remainders) of every feasible child of a level, node-major.

    The level step of `enumerate_prefixes` and of `classify_point`'s tree
    phase.  A float level of two or more nodes takes the batched kernel's
    one fused step, its children one (children, d) view of coordinate rows;
    any other level steps one node at a time through `_children`.
    """
    if not sys.is_exact and len(frontier) >= 2:
        return _children_many(sys, np.asarray(frontier))
    if isinstance(frontier, np.ndarray):
        frontier = [tuple(r) for r in frontier.tolist()]
    parents, digits, rems = [], [], []
    for i, r in enumerate(frontier):
        for j, rj in _children(sys, r):
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


def first_bifurcation(sys: IfsSystem, x, depth: int):
    """Least n at which a common prefix of length n has two feasible continuations."""
    _check_depth(depth)
    chain = _chain(sys, _root(sys, x)[1], depth)
    return chain.step if chain.children else None  # children, if any, are a fork's


def forced_chain(sys: IfsSystem, x, steps: int) -> ForcedChain:
    """x's forced chain for at most `steps` levels; only an exact one can close a cycle."""
    _check_depth(steps, "steps")
    return _with_points(_chain(sys, _root(sys, x)[1], steps), sys.is_exact)


def _with_points(chain, exact):
    """`chain` with an exact fork's child states read back as the Fractions `apply_inverse` gives."""
    if not (exact and chain.children):
        return chain
    return replace(chain, children=[(j, _fractions(state)) for j, state in chain.children])


def _chain(sys, node, steps):
    """The one walk along a forced chain of feasible digits, as a ForcedChain.

    From `node` it follows the only feasible child through `_children`
    for at most `steps` levels, and stops at a node with no child or two
    or more, or at an exact state seen before: the chain is then periodic
    forever, which proves the address unique.  Float states are never
    compared.
    """
    exact = sys.is_exact
    seen = {node: 0} if exact else None
    digits = []
    for step in range(1, steps + 1):
        kids = _children(sys, node)
        if len(kids) != 1:
            kind = ChainKind.FORCED_PREFIX_THEN_BRANCH if kids else ChainKind.DEAD_END
            return ForcedChain(kind, tuple(digits), None, kids)
        [(j, node)] = kids
        digits.append(j)
        if exact and seen.setdefault(node, step) < step:
            return ForcedChain(ChainKind.UNIQUE_BY_CYCLE, tuple(digits), seen[node])
    return ForcedChain(ChainKind.EXHAUSTED, tuple(digits))


def classify_point(sys: IfsSystem, x, depth: int, mode=Mode.RELAXED_OMEGA,
                   no_holes_certified=False) -> ClassificationReport:
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
      survive to the horizon, but no certificate applies.  It counts the
      prefixes still alive at the horizon and is not a lower bound on x's
      addresses: 4/9 in the digits {0,1,4,6} at lam = 1/4 has one address,
      a dead branch splits off every third level, and `deleted-digits`
      prints `multiple-likely` at depth 10 and `unknown` at depth 11.
    * UNKNOWN -- anything else (single float chain, no cycle yet, or the
      tree died out, which in relaxed mode means x is not in the attractor).

    A chain phase follows x's one feasible child through `_chain` up to
    the first node with none or two or more; a chain whose exact state
    repeats is the certificate.  A tree phase then walks that node's children
    a level at a time through `_expand`, wide float levels on the batched
    kernel, with the verdicts and counts of a walk over `_children` one
    node at a time: the certifying node is the first in node-major order
    that qualifies, and the last count runs to its last child.  The budget
    counts nodes.  A chain that fills NODE_BUDGET raises BudgetExceeded;
    past it, with `room` = NODE_BUDGET minus the nodes held before a
    level, a fork whose first child has index a in that level may certify
    only when a <= room, and a level that brings the total past
    NODE_BUDGET without certifying raises BudgetExceeded.

    Exact-no-holes mode checks its premises and changes no verdict: it
    raises CertificateRequired without no_holes_certified, and
    PointOutsideOmega for x outside Omega.
    """
    _check_depth(depth)
    x, root = _root(sys, x)
    if mode is Mode.EXACT_NO_HOLES:
        if not no_holes_certified:
            raise CertificateRequired(
                "exact-no-holes mode needs a no-holes certificate (conditions.no_holes_sufficient)")
        if not contains(sys.omega, x):
            raise PointOutsideOmega(f"{x} is outside Omega")
    budget = NODE_BUDGET
    chain = _chain(sys, root, min(depth, budget))
    start, kids = chain.step, chain.children
    if start == budget:
        raise BudgetExceeded(f"classification exceeded {budget} nodes at depth {budget}")
    counts = [1] * (start + 1)
    bifurcation = start if kids else None  # children, if any, are a fork's

    def report(verdict, explored, certificate=None):
        return ClassificationReport(verdict, explored, bifurcation, counts, certificate, sys.is_exact)

    if chain.entry_depth is not None:  # a cycle
        return report(Verdict.UNIQUE_CERTIFIED, start, chain)
    total_nodes = start + 1
    for dep in range(start, depth):  # the first level holds the children the chain stopped at
        parents, digits, frontier = (_expand(sys, frontier) if dep > start else
                                     ([0] * len(kids), [j for j, _ in kids], [r for _, r in kids]))
        n = len(digits)
        room = budget - total_nodes  # children the level may add
        for a, b in _fork_spans(parents) if no_holes_certified else ():
            if a > room:
                break
            if sys.is_exact or _solid(sys, frontier[a:b]) >= 2:
                counts.append(b)  # the children of every node up to this one
                return report(Verdict.MULTIPLE_CERTIFIED, dep + 1)
        total_nodes += n
        if total_nodes > budget:
            raise BudgetExceeded(f"classification exceeded {budget} nodes at depth {dep + 1}")
        counts.append(n)
        if not n:
            return report(Verdict.UNKNOWN, dep + 1)

    return report(Verdict.MULTIPLE_LIKELY if counts[-1] >= 2 else Verdict.UNKNOWN, depth)
