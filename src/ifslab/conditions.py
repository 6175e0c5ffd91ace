"""Checkable sufficient conditions and the forcing-block covering construction.

Three kinds of certificate live here:

* closed-form thresholds: OSC failure for lam > m^(-1/d) and no holes for
  lam >= lam_nh (`IfsSystem.no_holes`), both decided on the exact lam;
* an overlap witness: a triple (i, k, j) with the smallest block length
  ell such that the word k j^(ell-1) maps Omega into f_i(Omega) ∩ f_k(Omega).
  That block is a full-dimensional copy of Omega, so it proves a proper
  overlap; the witness is graded "vertex-interior" when the vertex image
  f_k(p_j) also sits strictly inside f_i(Omega).  Both tests are integer
  closed forms in Omega's exact facets, since every image is homothetic to Omega;
* empirical probes: covering deficiency of depth-n images and the measure
  of Omega left uncovered by block words containing the forcing block,
  whose block maps come from `core.project_all_words`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import (
    BudgetExceeded,
    CertificateRequired,
    NoEllFound,
    PointOutsideOmega,
    UnsortedDigits,
)
from .core import IfsSystem, _children_many, _feasible_many, _rows, project_all_words
from .geometry import _check_depth, _rng, binomial_stderr, contains, sample_uniform

ELL_CAP = 64
FRONTIER_CAP = 20_000_000  # rows across all samples in the block and covering searches
PAIR_BUDGET = 1_000_000  # most (row, map) pairs the block and covering searches lay out at once


def osc_failure_sufficient(sys: IfsSystem):
    """(lam > m^(-1/d), m^(-1/d)): pigeonhole bound forcing OSC failure, decided as m*lam^d > 1."""
    return sys.m * Fraction(sys.lam) ** sys.d > 1, sys.m ** (-1.0 / sys.d)


def no_holes_sufficient(sys: IfsSystem):
    """(lam >= lam_nh, lam_nh) from `IfsSystem.no_holes`: the one no-holes certificate."""
    return sys.no_holes[:2]


def check_digits(digits) -> tuple:
    """The digits as a tuple: two or more finite values, strictly increasing."""
    seq = tuple(digits)
    if len(seq) < 2:
        raise UnsortedDigits(f"a digit set needs two or more digits, got {seq}")
    if not all(a < b for a, b in zip(seq, seq[1:])):  # NaN fails here
        raise UnsortedDigits(f"digits must be strictly increasing: {seq}")
    if not all(isinstance(a, Rational) or math.isfinite(a) for a in seq):
        raise UnsortedDigits(f"digits must be finite: {seq}")
    return seq


def pedicini_holds(digits, lam):
    """(max gap < lam*(a_m - a_1)/(1-lam), max gap, that bound): Pedicini's strict 1-D test."""
    seq = check_digits(getattr(digits, "digits", digits))
    lhs = max(b - a for a, b in zip(seq, seq[1:]))
    rhs = lam * (seq[-1] - seq[0]) / (1 - lam)
    return lhs < rhs, lhs, rhs


# ---------------------------------------------------------------------------
# covering deficiency


def covering_deficiency(sys: IfsSystem, n: int, samples: int, seed: int):
    """Fraction of uniform Omega samples not in any depth-n image f_w(Omega).

    Decided per sample by a depth-n feasibility search on the batched
    kernel: zero is consistent with no holes, and an excess beyond ~3
    standard errors certifies holes at that depth.  A dive along every
    sample's first feasible child covers most samples; the rest get a
    breadth-first search over all feasible children, laid out PAIR_BUDGET
    pairs at a time and capped at FRONTIER_CAP rows a level.
    """
    _check_depth(n, "n")
    pts = sample_uniform(sys.omega, samples, _rng(seed))
    rest = pts[~_dive(sys, pts, n)]
    misses = len(rest) - _reached(sys, rest, n)
    frac = misses / samples
    return frac, binomial_stderr(frac, samples)


def _dive(sys, pts, n):
    """Mask of the rows of pts whose chain of first feasible children reaches depth n."""
    rows = np.arange(len(pts))
    r = pts
    for _ in range(n):
        if not len(r):
            break
        parent, _, rem = _children_many(sys, r)
        first = np.ones(len(parent), dtype=bool)
        first[1:] = parent[1:] != parent[:-1]
        rows = rows[parent[first]]
        r = rem[first]
    reached = np.zeros(len(pts), dtype=bool)
    reached[rows] = True
    return reached


def _reached(sys, pts, n):
    """Number of rows of pts with some chain of feasible children of depth n, breadth first."""
    r, s = pts, np.arange(len(pts))
    for _ in range(n):
        parent, r = _chunked_children(sys.omega, r, sys.float_shifts, float(sys.lam), "covering-search")
        s = s[parent]
    return len(np.unique(s))


# ---------------------------------------------------------------------------
# overlap witness and forcing blocks


@dataclass(frozen=True)
class OverlapWitness:
    i: int
    k: int
    j: int
    ell: int
    block0: tuple
    grade: str  # "vertex-interior" when f_k(p_j) is strictly inside f_i(Omega), else "proper-overlap"


def vertex_overlap_witness(sys: IfsSystem):
    """Search for an overlap witness and its minimal forcing-block length.

    The forcing block is k j^(ell-1), i != k: its image contracts onto
    f_k(p_j) and always lies in f_k(Omega).  A triple is a witness at the
    least ell whose block also lies in f_i(Omega) (see `_triple`).  The
    winner is the least (grade, ell, i, k, j): a triple whose vertex image
    is strictly inside f_i(Omega) beats one that only overlaps.  lam is read
    once as a/b and every triple is decided in integers.  Returns None when
    no block of length <= ELL_CAP fits; raises NoEllFound when some vertex
    image is strictly interior, so that a long enough block fits, but none
    of length <= ELL_CAP does.
    """
    a, b = Fraction(sys.lam).as_integer_ratio()
    U, H = sys.facet_slacks
    aU = [[a * uf for uf in row] for row in U]
    found, interior_seen = [], False
    for i, k in itertools.permutations(range(sys.m), 2):
        bD = [(b - a) * (hk - hi) for hi, hk in zip(H[i], H[k])]
        for j in range(sys.m):
            interior, ell = _triple(aU[j], bD, a, b)
            interior_seen |= interior
            if ell is not None:
                found.append((not interior, ell, i, k, j))
    if not found:
        if interior_seen:
            raise NoEllFound(f"witness hypothesis holds but no block length <= {ELL_CAP} lands "
                             "inside the overlap; refusing to guess")
        return None
    overlap_only, ell, i, k, j = min(found)
    return OverlapWitness(i=i, k=k, j=j, ell=ell, block0=(k,) + (j,) * (ell - 1),
                          grade="proper-overlap" if overlap_only else "vertex-interior")


def _triple(au, bd, a, b):
    """(f_k(p_j) strictly inside f_i(Omega), least ell <= ELL_CAP whose block fits, or None).

    Integer comparisons only, on lam = a/b and the rows au = a*U[j] and
    bd = (b-a)*(H[k] - H[i]) of `IfsSystem.facet_slacks`.  Per facet f of
    Omega, f_i(Omega) is {n_f.x <= lam b_f + (1-lam) n_f.p_i}, and the
    block maps Omega onto lam^ell Omega + (lam - lam^ell) p_j + (1-lam) p_k.
    So f_k(p_j) = lam p_j + (1-lam) p_k is strictly inside exactly when
    bd_f < au_f for every f, and, with e = ell-1, the block lies in
    f_i(Omega) exactly when (b^e - a^e) au_f >= b^e bd_f, that is
    b^e (au_f - bd_f) >= a^e au_f, for every f with bd_f > 0; the others
    hold for every e, and no e fits when some bd_f > 0 has au_f <= bd_f.
    """
    interior, rows = True, []
    for s, t in zip(au, bd):
        if t > 0:
            if s <= t:
                return False, None
            rows.append((s, s - t))
        interior = interior and t < s
    be = ae = 1  # b^e, a^e
    for ell in range(1, ELL_CAP + 1):
        if all(be * gap >= ae * s for s, gap in rows):
            return interior, ell
        be, ae = be * b, ae * a
    return interior, None


# ---------------------------------------------------------------------------
# W_n membership and coverage


def _block_tables(sys, w):
    """(beta, T, idx0): word u (digit t = (u // m^t) % m) maps x to beta*x + T[u]; w's block is idx0."""
    T = project_all_words(sys, w.ell, (0,) * sys.d)
    return float(sys.lam) ** w.ell, T, sum(b * sys.m**t for t, b in enumerate(w.block0))


def wn_entry_depths(sys: IfsSystem, w: OverlapWitness, pts, n_max: int):
    """Minimal block count n at which each point joins W_n (n_max+1 = not by n_max).

    Level-synchronous search over block words: a word is expanded only while
    it avoids the forcing block, because once the block is consumable the
    no-holes hypothesis guarantees a feasible continuation of any length.
    Both steps invert block maps x -> beta*x + T[u] in the batched kernel,
    the avoiding step on at most PAIR_BUDGET (row, word) pairs at a time
    (`_chunked_children`).  `core._rows` reads the points, as in
    measure.chain_walk: it refuses a row of another width or a non-finite one.
    """
    _check_depth(n_max, "n_max")
    r = _rows(sys, pts)
    beta, T, idx0 = _block_tables(sys, w)
    T0 = T[idx0:idx0 + 1]
    T_avoid = np.delete(T, idx0, axis=0)

    entry = np.full(len(r), n_max + 1, dtype=np.int64)
    s = np.arange(len(r))
    for k in range(1, n_max + 1):
        hit, _, _ = _feasible_many(sys.omega, r, T0, beta)
        if len(hit):
            hit = np.unique(s[hit])
            entry[hit] = np.minimum(entry[hit], k)
        keep = entry[s] > k
        r = r[keep]
        s = s[keep]
        if k == n_max or len(r) == 0:
            break
        parent, r = _chunked_children(sys.omega, r, T_avoid, beta, "block-word")
        s = s[parent]
    return entry


def _chunked_children(omega, X, shifts, scale, search):
    """(parents, remainders) of `_feasible_many`, laid out PAIR_BUDGET pairs at a time.

    The breadth-first step of the block-word and covering searches.  Rows
    go to `_feasible_many` in chunks, each chunk's pairs row-major, so the
    concatenation is its order on all rows at once.  Children past
    FRONTIER_CAP raise BudgetExceeded, naming the `search`, at the chunk
    that brings them there.
    """
    step = max(1, PAIR_BUDGET // len(shifts))
    parents, rems, total = [], [], 0
    for a in range(0, len(X) or 1, step):  # no rows still make one empty chunk
        parent, _, rem = _feasible_many(omega, X[a:a + step], shifts, scale)
        total += len(rem)
        if total > FRONTIER_CAP:
            raise BudgetExceeded(f"{search} frontier exceeded {FRONTIER_CAP} rows")
        parents.append(parent + a)
        rems.append(rem)
    return np.concatenate(parents), np.concatenate(rems)


def wn_membership(sys: IfsSystem, w: OverlapWitness, x, n: int) -> bool:
    """Is x in W_n, the union of n-block images whose word uses the forcing block?"""
    if not no_holes_sufficient(sys)[0]:
        raise CertificateRequired("W_n membership is only exact under a no-holes certificate")
    if not contains(sys.omega, x):
        raise PointOutsideOmega(f"{x} is outside Omega")
    if n < 1:
        return False
    entry = wn_entry_depths(sys, w, [x], n)
    return bool(entry[0] <= n)


def wn_coverage_estimate(sys: IfsSystem, w: OverlapWitness, n: int, samples: int, seed: int):
    """Monte Carlo (fraction of Omega outside W_n, standard error)."""
    if not no_holes_sufficient(sys)[0]:
        raise CertificateRequired("W_n coverage is only exact under a no-holes certificate")
    pts = sample_uniform(sys.omega, samples, _rng(seed))
    if n < 1:
        return 1.0, 0.0
    entry = wn_entry_depths(sys, w, pts, n)
    frac = float(np.mean(entry > n))
    return frac, binomial_stderr(frac, samples)
