"""Checkable sufficient conditions and the forcing-block covering construction.

Three kinds of certificate live here:

* closed-form thresholds: OSC failure for lam > m^(-1/d) and no holes for
  lam >= d/(d+1), both pure arithmetic;
* an overlap witness: a triple (i, k, j) with the smallest block length
  ell such that the word k j^(ell-1) maps Omega into f_i(Omega) ∩ f_k(Omega).
  That block is a full-dimensional copy of Omega, so it proves a proper
  overlap; the witness is graded "vertex-interior" when the vertex image
  f_k(p_j) also sits strictly inside f_i(Omega).  Both tests are closed
  forms in Omega's exact facets, since every image is homothetic to Omega;
* empirical probes: covering deficiency of depth-n images and the measure
  of Omega left uncovered by block words containing the forcing block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    CertificateRequired,
    NoEllFound,
    PointOutsideOmega,
    UnsortedDigits,
)
from .core import IfsSystem, _children, _children_many, _feasible_many, project_prefix
from .geometry import DEFAULT_TOL, contains, sample_uniform

ELL_CAP = 64
FRONTIER_CAP = 20_000_000  # rows across all samples in the block search
COVER_NODE_BUDGET = 1_000_000  # nodes expanded per sample by the covering search


def osc_failure_sufficient(sys: IfsSystem):
    """(lam > m^(-1/d), m^(-1/d)): pigeonhole bound forcing OSC failure."""
    threshold = sys.m ** (-1.0 / sys.d)
    return float(sys.lam) > threshold, threshold


def no_holes_sufficient(sys: IfsSystem):
    """(lam >= d/(d+1), d/(d+1)): universal bound for S_lam = Omega."""
    threshold = sys.d / (sys.d + 1.0)
    return float(sys.lam) >= threshold, threshold


def pedicini_holds(digits, lam):
    """(max gap < lam*(a_m - a_1)/(1-lam), max gap, that bound)."""
    seq = tuple(getattr(digits, "digits", digits))
    if len(seq) < 2:
        raise UnsortedDigits("need at least two digits")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise UnsortedDigits(f"digits must be strictly increasing: {seq}")
    lhs = max(b - a for a, b in zip(seq, seq[1:]))
    rhs = lam * (seq[-1] - seq[0]) / (1 - lam)
    return lhs < rhs, lhs, rhs


# ---------------------------------------------------------------------------
# covering deficiency


def covering_deficiency(sys: IfsSystem, n: int, samples: int, seed: int, tol=DEFAULT_TOL):
    """Fraction of uniform Omega samples not in any depth-n image f_w(Omega).

    Decided per sample by a pruned depth-n feasibility search: zero is
    consistent with no holes, and an excess beyond ~3 standard errors
    certifies holes at that depth.  One batched dive first follows every
    sample's first feasible child; a sample it carries to depth n is
    covered, and only the others get the full search.
    """
    rng = np.random.default_rng(seed)
    pts = sample_uniform(sys.omega, samples, rng, tol=tol)
    misses = 0
    for p in pts[~_dive(sys, pts, n, tol)]:
        if not _covered(sys, tuple(p), n, tol):
            misses += 1
    frac = misses / samples
    stderr = math.sqrt(max(frac * (1 - frac), 1.0 / samples) / samples)
    return frac, stderr


def _dive(sys, pts, n, tol):
    """Mask of the rows of pts whose chain of first feasible children reaches depth n."""
    rows = np.arange(len(pts))
    r = pts
    for _ in range(n):
        if not len(r):
            break
        parent, _, rem = _children_many(sys, r, tol)
        first = np.ones(len(parent), dtype=bool)
        first[1:] = parent[1:] != parent[:-1]
        rows = rows[parent[first]]
        r = rem[first]
    reached = np.zeros(len(pts), dtype=bool)
    reached[rows] = True
    return reached


def _covered(sys, x, n, tol):
    stack = [(x, 0)]
    for _ in range(COVER_NODE_BUDGET):
        if not stack:
            return False
        r, lev = stack.pop()
        if lev == n:
            return True
        stack.extend((rj, lev + 1) for _, rj in _children(sys, r, tol))
    raise BudgetExceeded(f"covering search undecided after {COVER_NODE_BUDGET} nodes of one sample")


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


@dataclass(frozen=True)
class BlockFamily:
    ell: int
    block0: tuple
    L: int


def vertex_overlap_witness(sys: IfsSystem):
    """Search for an overlap witness and its minimal forcing-block length.

    The forcing block is k j^(ell-1), i != k: its image contracts onto
    f_k(p_j) and always lies in f_k(Omega).  A triple is a witness at the
    least ell whose block also lies in f_i(Omega) (see `_triple`).  The
    winner is the least (grade, ell, i, k, j): a triple whose vertex image
    is strictly inside f_i(Omega) beats one that only overlaps.  Returns
    None when no block of length <= ELL_CAP fits; raises NoEllFound when
    some vertex image is strictly interior, so that a long enough block
    fits, but none of length <= ELL_CAP does.
    """
    lam = Fraction(sys.lam)
    u, h = sys.facet_slacks
    best, interior_seen = None, False
    for i in range(sys.m):
        for k in range(sys.m):
            if k == i:
                continue
            v = [b - a for a, b in zip(h[i], h[k])]
            for j in range(sys.m):
                interior, t = _triple(u[j], v)
                interior_seen |= interior
                rank = 0 if interior else 1
                # a later triple wins only with a smaller (rank, ell)
                if best is None or rank < best[0]:
                    cap = ELL_CAP
                else:
                    cap = best[1] - 1 if rank == best[0] else 0
                ell = _block_ell(lam, t, cap)
                if ell is not None:
                    best = (rank, ell, i, k, j)
    if best is None:
        if interior_seen:
            raise NoEllFound(
                f"witness hypothesis holds but no block length <= {ELL_CAP} lands "
                "inside the overlap; refusing to guess"
            )
        return None
    rank, ell, i, k, j = best
    return OverlapWitness(i=i, k=k, j=j, ell=ell, block0=(k,) + (j,) * (ell - 1),
                          grade="vertex-interior" if rank == 0 else "proper-overlap")


def _triple(u, v):
    """(f_k(p_j) strictly inside f_i(Omega), t): the block k j^(ell-1) fits iff lam^(ell-1) <= t.

    Exact, from (u, h) = `IfsSystem.facet_slacks` as u[j] and
    v = h[k] - h[i]: per facet f of Omega, u_f = b_f - n_f.p_j and
    v_f = (1-lam)/lam * n_f.(p_k - p_i).  f_i(Omega) is
    {n_f.x <= lam b_f + (1-lam) n_f.p_i}, and the block maps Omega onto
    lam^ell Omega + (lam - lam^ell) p_j + (1-lam) p_k.  So the block lies
    in f_i(Omega) exactly when (1 - lam^(ell-1)) u_f >= v_f for every f,
    that is lam^(ell-1) <= t = min over v_f > 0 of 1 - v_f/u_f, and
    f_k(p_j) = lam p_j + (1-lam) p_k is strictly inside exactly when
    v_f < u_f for every f.
    """
    interior, t = True, 1
    for uf, vf in zip(u, v):
        interior = interior and vf < uf
        if vf > 0:
            t = min(t, 1 - vf / uf) if uf else 0
    return interior, t


def _block_ell(lam, t, cap):
    """The least ell <= cap with lam^(ell-1) <= t, or None."""
    if t > 0:
        power = 1
        for ell in range(1, cap + 1):
            if power <= t:
                return ell
            power *= lam
    return None


def block_family(sys: IfsSystem, witness: OverlapWitness) -> BlockFamily:
    return BlockFamily(ell=witness.ell, block0=witness.block0, L=sys.m ** witness.ell)


def verify_witness(sys: IfsSystem, w: OverlapWitness) -> bool:
    """Post-hoc re-check of the witness invariants at the stated grade."""
    if w.i == w.k or w.block0 != (w.k,) + (w.j,) * (w.ell - 1):
        return False
    u, h = sys.facet_slacks
    interior, t = _triple(u[w.j], [b - a for a, b in zip(h[w.i], h[w.k])])
    return Fraction(sys.lam) ** (w.ell - 1) <= t and (interior or w.grade != "vertex-interior")


# ---------------------------------------------------------------------------
# W_n membership and coverage


def _block_tables(sys, fam):
    """(beta, T, idx0): block word w maps x to beta*x + T[w]; row idx0 is the forcing block."""
    words = list(itertools.product(range(sys.m), repeat=fam.ell))
    zero = tuple(0.0 for _ in range(sys.d))
    T = np.array([[float(v) for v in project_prefix(sys, w, zero)] for w in words])
    return float(sys.lam) ** fam.ell, T, words.index(tuple(fam.block0))


def wn_entry_depths(sys: IfsSystem, fam: BlockFamily, pts, n_max: int, tol=DEFAULT_TOL):
    """Minimal block count n at which each point joins W_n (n_max+1 = not by n_max).

    Level-synchronous search over block words: a word is expanded only while
    it avoids the forcing block, because once the block is consumable the
    no-holes hypothesis guarantees a feasible continuation of any length.
    Both steps invert block maps x -> beta*x + T[w] in the batched kernel.
    """
    beta, T, idx0 = _block_tables(sys, fam)
    T0 = T[idx0:idx0 + 1]
    T_avoid = np.delete(T, idx0, axis=0)

    pts = np.asarray(pts, dtype=float)
    npts = len(pts)
    entry = np.full(npts, n_max + 1, dtype=np.int64)
    r = pts.copy()
    s = np.arange(npts)
    for k in range(1, n_max + 1):
        hit, _, _ = _feasible_many(sys.omega, r, T0, beta, tol)
        if len(hit):
            hit = np.unique(s[hit])
            entry[hit] = np.minimum(entry[hit], k)
        keep = entry[s] > k
        r = r[keep]
        s = s[keep]
        if k == n_max or len(r) == 0:
            break
        parent, _, r = _feasible_many(sys.omega, r, T_avoid, beta, tol)
        s = s[parent]
        if len(r) > FRONTIER_CAP:
            raise BudgetExceeded(f"block-word frontier exceeded {FRONTIER_CAP} rows")
    return entry


def wn_membership(sys: IfsSystem, fam: BlockFamily, x, n: int, tol=DEFAULT_TOL) -> bool:
    """Is x in W_n, the union of n-block images whose word uses the forcing block?"""
    if not no_holes_sufficient(sys)[0]:
        raise CertificateRequired("W_n membership is only exact under a no-holes certificate")
    if not contains(sys.omega, x, tol=tol):
        raise PointOutsideOmega(f"{x} is outside Omega")
    if n < 1:
        return False
    entry = wn_entry_depths(sys, fam, [tuple(float(v) for v in x)], n, tol=tol)
    return bool(entry[0] <= n)


def wn_coverage_estimate(sys: IfsSystem, fam: BlockFamily, n: int, samples: int, seed: int,
                         tol=DEFAULT_TOL):
    """Monte Carlo (fraction of Omega outside W_n, standard error)."""
    if not no_holes_sufficient(sys)[0]:
        raise CertificateRequired("W_n coverage is only exact under a no-holes certificate")
    rng = np.random.default_rng(seed)
    pts = sample_uniform(sys.omega, samples, rng, tol=tol)
    if n < 1:
        return 1.0, 0.0
    entry = wn_entry_depths(sys, fam, pts, n, tol=tol)
    frac = float(np.mean(entry > n))
    stderr = math.sqrt(max(frac * (1 - frac), 1.0 / samples) / samples)
    return frac, stderr
