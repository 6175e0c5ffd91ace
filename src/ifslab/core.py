"""One-parameter similitude families f_j(x) = lam*x + (1-lam)*p_j.

The same code serves two arithmetic paths.  With float inputs everything is
double precision; with ``Fraction`` inputs (lam and every coordinate) all
maps, inverses and membership tests are exact, which is what uniqueness
certification relies on.  On such a system `apply_map`, `apply_inverse` and
the walks read a float coordinate as the rational it is (`_root`).  Batches of digit
words are projected on floats in one summation order, by `project_words`
and `project_all_words`.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Integral, Rational, Real

import numpy as np

from .errors import (
    BadProbabilityVector,
    BudgetExceeded,
    DegenerateAffineHull,
    DigitOutOfRange,
    DimensionMismatch,
    DuplicatePoints,
    LambdaOutOfRange,
)
from .geometry import (Polytope, _facets, _inside, _lattice, contains, hull_polytope, is_exact_point,
                       is_exact_scalar)

CLOUD_POINT_BUDGET = 4_000_000  # most rows project_all_words lays out


@dataclass(frozen=True)
class IfsSystem:
    lam: object
    points: tuple
    omega: Polytope
    is_exact: bool = field(init=False, repr=False, compare=False)
    # c_j = (1-lam)*p_j for every anchor, in the system's own arithmetic: the
    # one definition of the shifts of f_j(x) = lam*x + c_j and of
    # f_j^{-1}(x) = (x - c_j)/lam, read by `apply_map` and `apply_inverse`
    # and rounded to float once in `float_shifts`
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

        `_feasible_many` reads its transpose, one row of shifts per
        coordinate, to build the candidates coordinate-major.  Built on the
        first batched expansion and kept.  The scalar
        `apply_inverse` reads the plain `shifts` field instead: a cached
        property costs an attribute lookup more on every scalar step.
        """
        a = np.array([[float(v) for v in c] for c in self.shifts])
        a.flags.writeable = False
        return a

    @cached_property
    def int_steps(self) -> tuple:
        """(Q, C, v, Q*u, rows, K): the exact inverse steps on integer states, built once.

        With lam = u/v and the shifts c_j = C[j]/Q over one denominator, the
        state (N_1, ..., N_d, D) of N/D steps to N' = (N*Q - C_j*D)*v over
        D' = D*Q*u (`_step`).  The child passes Omega's primitive facet row
        n.x <= B when n.N' <= B*D', that is when v*Q*(n.N) <= D*K[j][f] with
        K[j][f] = v*(n.C_j) + u*Q*B; `rows` holds the v*Q*n.
        """
        u, v = self.lam.numerator, self.lam.denominator  # every Rational is in lowest terms
        q = math.lcm(*(c.denominator for s in self.shifts for c in s))
        C = tuple(tuple(c.numerator * (q // c.denominator) for c in s) for s in self.shifts)
        hs = self.omega.halfspaces
        rows = tuple(tuple(v * q * a for a in n) for n, _, _ in hs)
        K = tuple(tuple(v * sum(map(operator.mul, n, c)) + u * q * b for n, b, _ in hs) for c in C)
        return q, C, v, q * u, rows, K

    @cached_property
    def facet_slacks(self) -> tuple:
        """(U, H): integer tables of Omega's facets at the anchors, independent of lam.

        With L the lcm of the anchors' denominators, Omega's facets are
        integer rows n_f.y <= L*b_f in the lattice y = L*x (geometry._facets
        on geometry._lattice), and H[j][f] = n_f.(L*p_j) and
        U[j][f] = L*b_f - H[j][f] >= 0 for every anchor point p_j and facet
        f.  Every f_i is a homothety, so every image f_w(Omega) has Omega's
        facet normals, and these numbers decide containment between images
        exactly (conditions.vertex_overlap_witness).
        """
        _, pts = _lattice(self.points)
        hs = _facets(pts, self.d, 1, pts)
        H = tuple(tuple(sum(map(operator.mul, n, p)) for n, _, _ in hs) for p in pts)
        U = tuple(tuple(b - h for (_, b, _), h in zip(hs, row)) for row in H)
        return U, H

    @cached_property
    def no_holes(self) -> tuple:
        """(lam >= lam_nh, float lam_nh, lam_nh): the one no-holes rule, decided once.

        lam_nh is exact: d/(d+1) in d >= 2; in d = 1, g/(g+R) for the largest
        anchor gap g and span R, as the images f_j(Omega) cover Omega (then the
        attractor, by Hutchinson's uniqueness) exactly when lam*R >= (1-lam)*g.
        """
        thr = Fraction(self.d, self.d + 1)
        if self.d == 1:
            p = sorted(Fraction(q[0]) for q in self.points)
            g = max(b - a for a, b in zip(p, p[1:]))
            thr = g / (g + p[-1] - p[0])
        return Fraction(self.lam) >= thr, float(thr), thr


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


def _check_depth(depth, name="depth", least=0):
    """Reject a step count (or `name`) that is not an integer of at least `least`."""
    if not (type(depth) is int or isinstance(depth, Integral)) or depth < least:  # int: no ABC check
        raise ValueError(f"{name} must be an integer of at least {least}, got {depth!r}")


def _check_digit(sys: IfsSystem, j):
    if not (isinstance(j, int) and 0 <= j < sys.m):
        raise DigitOutOfRange(f"digit {j} not in 0..{sys.m - 1}")


def apply_map(sys: IfsSystem, j: int, x):
    """f_j(x) = lam*x + c_j, with c_j = (1-lam)*p_j from `sys.shifts` and x as `_root` reads it."""
    _check_digit(sys, j)
    lam = sys.lam
    return tuple(lam * xi + ci for xi, ci in zip(_root(sys, x)[0], sys.shifts[j]))


def apply_inverse(sys: IfsSystem, j: int, x):
    """f_j^{-1}(x) = (x - c_j) / lam, with c_j = (1-lam)*p_j read from `sys.shifts`.

    On floats this is the inline (x - (1-lam)*p_j) / lam bit for bit.  On
    an exact system it is `_step` on the integer state `_root` reads x as,
    read back as one Fraction per coordinate.
    """
    _check_digit(sys, j)
    if sys.is_exact:
        q, C, v, qu, _, _ = sys.int_steps
        return _fractions(_step(_root(sys, x)[1], q, C[j], v, qu))
    c = sys.shifts[j]
    if len(x) != len(c):
        raise DimensionMismatch(f"point has dimension {len(x)}, system {len(c)}")
    lam = sys.lam
    return tuple((xi - ci) / lam for xi, ci in zip(x, c))


def _root(sys, x):
    """(point, root node) of a walk from x: x of the system's dimension, else DimensionMismatch.

    The one point reader.  An exact system reads a float coordinate as its
    exact Fraction, keeps Rationals, and starts from the `_state`; a float
    system reads floats and starts from the point.  A non-finite coordinate
    raises ValueError.  An all-Fraction point, what the exact callers hand
    over, takes one type test per coordinate.
    """
    x = tuple(x)
    if len(x) != sys.d:
        raise DimensionMismatch(f"point has dimension {len(x)}, system {sys.d}")
    if not sys.is_exact:
        x = tuple(map(float, x))
        if not all(map(math.isfinite, x)):
            raise ValueError(f"point {x} has a non-finite coordinate")
        return x, x
    if all(type(v) is Fraction for v in x):
        return x, _state(x)
    if not all(isinstance(v, Rational) or math.isfinite(v) for v in x):
        raise ValueError(f"point {x} has a non-finite coordinate")
    x = tuple(v if isinstance(v, Rational) else Fraction(v) for v in x)
    return x, _state(x)


def _state(x):
    """(N_1, ..., N_d, D): an exact point over the lcm D of its denominators, in lowest terms.

    Each coordinate is in lowest terms, so the entries have gcd 1 and equal
    points give equal states.
    """
    den = math.lcm(*(v.denominator for v in x))
    return (*(v.numerator * (den // v.denominator) for v in x), den)


def _fractions(state):
    """The point N/D of an integer state, one Fraction per coordinate."""
    *nums, den = state
    return tuple(Fraction(n, den) for n in nums)


def _step(state, q, c, v, qu):
    """The state of f_j^{-1}(N/D) = (N*Q - C_j*D)*v / (D*Q*u), reduced by one gcd.

    The one exact inverse step: `apply_inverse` and `_children` both take
    it, with (Q, C_j, v, Q*u) from `IfsSystem.int_steps`.
    """
    *nums, den = state
    out = [(n * q - cn * den) * v for n, cn in zip(nums, c)]
    den *= qu
    g = math.gcd(den, *out)
    return (*[n // g for n in out], den // g)


def _children(sys: IfsSystem, node):
    """[(j, child)] for every digit j whose f_j^{-1} image of `node` lies in Omega (closed test).

    The one scalar kernel, on nodes as `_root` reads them.  An exact node is
    an integer `_state`: its facet products v*Q*(n.N) are taken once and
    compared with D*K[j][f] (`IfsSystem.int_steps`), and only feasible
    children take the `_step`.  A float node calls `apply_inverse` and
    `contains` by name, so bench/tracing.py counts each call as a child of
    the walker that asked for it; wide float levels go to `_children_many`.
    """
    if sys.is_exact:
        q, C, v, qu, rows, K = sys.int_steps
        *nums, den = node
        tops = [sum(map(operator.mul, n, nums)) for n in rows]
        out = []
        for j, kj in enumerate(K):
            for t, k in zip(tops, kj):
                if t > den * k:
                    break
            else:
                out.append((j, _step(node, q, C[j], v, qu)))
        return out
    out = []
    for j in range(sys.m):
        r = apply_inverse(sys, j, node)
        if contains(sys.omega, r):
            out.append((j, r))
    return out


def _feasible_many(omega: Polytope, X, shifts, scale):
    """Every (row x, map j) with (x - shifts[j])/scale in omega, as (parent, digit, remainders).

    The one batched feasibility kernel, over a (rows, d) float array and
    any family of inverse steps x -> (x - t_j)/scale: the maps f_j
    themselves (`_children_many`) or the block words of W_n
    (conditions.wn_entry_depths).  One fused step: the candidates are
    built straight into coordinate rows, a (d, rows*maps) array with the
    pairs row-major, then map-minor; the one float membership test
    (geometry._inside) reads them in place, and the hits are taken as one
    flat index.  The remainders are a (hits, d) view of their coordinate
    rows, and each is bit for bit (x - t_j)/scale.
    """
    d, maps = omega.dim, len(shifts)
    cand = np.empty((d, len(X), maps))  # C order: each coordinate row holds the pairs row-major
    np.subtract(X.T[:, :, None], shifts.T[:, None, :], out=cand)
    cols = np.divide(cand, scale, out=cand).reshape(d, -1)
    hit = _inside(omega, cols).nonzero()[0]  # np.flatnonzero's ravel costs a Python call
    parent, digit = np.divmod(hit, maps)
    return parent, digit, cols.take(hit, axis=1).T


def _children_many(sys: IfsSystem, X):
    """`_children` of every row of a (rows, d) float array, as (parent, digit, remainders).

    `_feasible_many` on the system's own maps, in one fused step from the
    parent rows to the feasible children.  Children come node-major, then
    digit-minor, as `_children` lists them, and each is bit for bit what
    `_children` returns for a row given as a tuple of floats: f_j^{-1} is
    (x - c_j)/lam with c_j = `sys.shifts[j]`, taken in the system's own
    arithmetic and then rounded to float.  The remainders come as a
    (children, d) transposed view of coordinate rows, so the next level's
    candidates read each coordinate contiguously.
    """
    return _feasible_many(sys.omega, X, sys.float_shifts, float(sys.lam))


def project_prefix(sys: IfsSystem, w, x0):
    """f_{w_1} o ... o f_{w_n}(x0), composed right to left (innermost digit last)."""
    x = tuple(x0)
    for j in reversed(tuple(w)):
        x = apply_map(sys, j, x)
    return x


def _word_terms(sys: IfsSystem, K, x0):
    """(terms, tail): f_w(x0) is 0.0 + terms[0, w_0] + ... + terms[K-1, w_(K-1)] + tail, in order.

    terms[t, j] = (1-lam)*lam^t * p_j and tail = lam^K * x0, as floats.
    """
    lam = float(sys.lam)
    P = np.array(sys.points, dtype=float)
    return ((1 - lam) * lam ** np.arange(K))[:, None, None] * P, lam**K * np.array(x0, dtype=float)


def project_words(sys: IfsSystem, digits, x0):
    """f_w(x0) for every row w of an (n, K) digit array: the batched `project_prefix`.

    The term table is read flat, row t*m + j holding terms[t, j], so digit
    t of every word is one `take` of whole rows.  The rows are added in
    `_word_terms`' one order, 0.0 + terms[0, w_0] + ... + tail, so equal
    digits give equal bits.  A digit outside 0..m-1 raises DigitOutOfRange
    before any row is read.
    """
    digits = np.asarray(digits)
    n, K = digits.shape
    lo, hi = (digits.min(), digits.max()) if digits.size else (0, 0)
    if lo < 0 or hi >= sys.m:
        raise DigitOutOfRange(f"digit {lo if lo < 0 else hi} not in 0..{sys.m - 1}")
    terms, tail = _word_terms(sys, K, x0)
    rows = terms.reshape(-1, sys.d)
    pts = np.zeros((n, sys.d))
    for idx in digits.T + sys.m * np.arange(K)[:, None]:  # row of terms[t, w_t] for every word w
        pts += rows.take(idx, axis=0)
    return pts + tail


def project_all_words(sys: IfsSystem, K, x0):
    """`project_words` of all m^K words of length K; row i has digit t = (i // m^t) % m.

    Row j*m^t + i is row i with digit t = j, so the rows grow a digit at a
    time and no digit matrix is built.  Over CLOUD_POINT_BUDGET rows raise
    BudgetExceeded before anything is allocated.
    """
    if sys.m**K > CLOUD_POINT_BUDGET:
        raise BudgetExceeded(f"{sys.m}^{K} digit words exceed the budget of {CLOUD_POINT_BUDGET}")
    terms, tail = _word_terms(sys, K, x0)
    pts = np.zeros((1, sys.d))
    for t in range(K):
        pts = (terms[t][:, None, :] + pts).reshape(-1, sys.d)
    pts += tail
    return pts


def image_polytope(sys: IfsSystem, w) -> Polytope:
    """Polytope f_w(Omega), read off Omega's own halfspaces; no hull is rebuilt.

    f_w(y) = lam^|w| y + f_w(0) is a homothety, so every facet n.y <= b of
    Omega maps to n.y <= lam^|w| b + n.f_w(0).  The generators are the
    mapped anchor points.
    """
    scale = math.prod([sys.lam] * len(w))  # an int 1 for the empty word, as project_prefix
    t = project_prefix(sys, w, (0,) * sys.d)
    hs = tuple((n, scale * off + sum(a * b for a, b in zip(n, t)), sq)
               for n, off, sq in sys.omega.halfspaces)
    gens = tuple(project_prefix(sys, w, p) for p in sys.points)
    return Polytope(generators=gens, halfspaces=hs, dim=sys.d)


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
    try:
        pts = [list(p) for p in points]
    except TypeError as e:
        raise ValueError(f"IFS 'points' must be a list of coordinate lists: {e}") from e
    values = [lam] + [v for p in pts for v in p]
    # a JSON true is a bool, a numbers.Real that reads as 1
    bad = [v for v in values if isinstance(v, bool) or not isinstance(v, Real)]
    if bad:
        raise ValueError(f"IFS 'lambda' and coordinates must be numbers, got {bad[0]!r}")
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ValueError("IFS definition holds a non-finite number (inf or nan)")
    sys = new_ifs(lam, pts)
    probs = raw.get("probs")
    return sys, None if probs is None else check_probs(probs, sys.m)


def check_probs(probs, m) -> tuple:
    """The probability vector as floats: m finite nonnegative numbers summing to 1 +- 1e-9."""
    try:
        p = tuple(probs)
    except TypeError as e:
        raise BadProbabilityVector(f"probabilities must be a list of numbers: {e}") from e
    if any(isinstance(v, bool) or not isinstance(v, Real) for v in p):
        raise BadProbabilityVector(f"probabilities must be numbers, got {p}")
    p = tuple(map(float, p))
    if len(p) != m:
        raise BadProbabilityVector(f"need {m} probabilities, got {len(p)}")
    if not all(map(math.isfinite, p)):
        raise BadProbabilityVector(f"probabilities must be finite, got {p}")
    if not all(v >= 0 for v in p):
        raise BadProbabilityVector("probabilities must be nonnegative")
    if not abs(sum(p) - 1.0) <= 1e-9:
        raise BadProbabilityVector(f"probabilities sum to {sum(p)}, need 1 +- 1e-9")
    return p
