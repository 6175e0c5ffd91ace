"""Checkable sufficient conditions and the forcing-block covering construction.

Three kinds of certificate live here:

* closed-form thresholds: OSC failure for lam > m^(-1/d) and no holes for
  lam >= d/(d+1), both pure arithmetic;
* an overlap witness: a triple (i, k, j) whose vertex image f_k(p_j) sits
  strictly inside f_i(Omega), together with the smallest block length ell
  such that the word k j^(ell-1) maps Omega into f_i(Omega) ∩ f_k(Omega).
  In dimension <= 2 a proper pairwise overlap of images is accepted as the
  witness hypothesis when no vertex lands strictly inside any image (for a
  bare triangle every vertex image lies on the boundary of Omega, so the
  strict form can never fire there);
* empirical probes: covering deficiency of depth-n images and the measure
  of Omega left uncovered by block words containing the forcing block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    CertificateRequired,
    NoEllFound,
    PointOutsideOmega,
    UnsortedDigits,
    UnsupportedDimension,
)
from .core import IfsSystem, _children, _children_many, apply_map, project_prefix
from .geometry import (
    DEFAULT_TOL,
    contains,
    contains_many,
    image_polytope,
    sample_uniform,
)
from .linfeas import halfspace_interior_slack

WITNESS_MARGIN = 1e-9
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


def resolve_no_holes(sys: IfsSystem, certified=None) -> bool:
    """Normalise a caller-supplied certificate flag (None = use the threshold)."""
    if certified is None:
        return no_holes_sufficient(sys)[0]
    return bool(certified)


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
    grade: str  # "vertex-interior" or "proper-overlap" (the dim<=2 relaxation)


@dataclass(frozen=True)
class BlockFamily:
    ell: int
    block0: tuple
    L: int


def vertex_overlap_witness(sys: IfsSystem, margin=WITNESS_MARGIN, tol=DEFAULT_TOL):
    """Search for an overlap witness and its minimal forcing-block length.

    The forcing block is k j^(ell-1): its image contracts onto f_k(p_j), stays
    inside f_k(Omega) by construction, and enters f_i(Omega) because that
    vertex image is interior there.  Failing the strict vertex test, in
    dimension <= 2 any pair of images overlapping with nonempty interior is
    accepted and the same block search runs over every j.  Returns None when
    no witness exists; raises NoEllFound if a witness hypothesis holds but no
    block length <= 64 closes the containment.
    """
    images = [image_polytope(sys, (i,)) for i in range(sys.m)]
    hits = []
    for i in range(sys.m):
        for k in range(sys.m):
            if k == i:
                continue
            for j in range(sys.m):
                q = apply_map(sys, k, sys.points[j])
                if contains(images[i], q, margin=margin, tol=tol):
                    hits.append((i, k, j, "vertex-interior"))
    if not hits and sys.d <= 2:
        for i in range(sys.m):
            for k in range(i + 1, sys.m):
                if _proper_overlap(images[i], images[k]):
                    for j in range(sys.m):
                        hits.append((i, k, j, "proper-overlap"))
    if not hits:
        return None

    found = []
    cap = ELL_CAP
    for i, k, j, grade in hits:
        # a later hit wins only with an ell no longer than the best so far
        ell = _minimal_ell(sys, images, i, k, j, tol, cap)
        if ell is not None:
            found.append((ell, i, k, j, grade))
            cap = ell
    if not found:
        raise NoEllFound(
            f"witness hypothesis holds but no block length <= {ELL_CAP} lands "
            "inside the overlap; refusing to guess"
        )
    found.sort(key=lambda t: (t[0], t[4] != "vertex-interior", t[1], t[2], t[3]))
    ell, i, k, j, grade = found[0]
    return OverlapWitness(i=i, k=k, j=j, ell=ell, block0=(k,) + (j,) * (ell - 1), grade=grade)


def _proper_overlap(pa, pb):
    if pa.dim > 2:
        raise UnsupportedDimension("proper-overlap relaxation is a dim<=2 device")
    hs = [(n, off) for n, off, _ in pa.halfspaces + pb.halfspaces]
    slack = halfspace_interior_slack(hs)
    return slack is not None and slack > 0


def _minimal_ell(sys, images, i, k, j, tol, cap=ELL_CAP):
    # tails f_j^(ell-1)(p) advance one map per ell: the same arithmetic as
    # project_prefix on the word k j^(ell-1)
    tails = [tuple(p) for p in sys.points]
    for ell in range(1, cap + 1):
        verts = [apply_map(sys, k, t) for t in tails]
        if all(
            contains(images[i], v, tol=tol) and contains(images[k], v, tol=tol)
            for v in verts
        ):
            return ell
        tails = [apply_map(sys, j, t) for t in tails]
    return None


def block_family(sys: IfsSystem, witness: OverlapWitness) -> BlockFamily:
    return BlockFamily(ell=witness.ell, block0=witness.block0, L=sys.m ** witness.ell)


def verify_witness(sys: IfsSystem, w: OverlapWitness, margin=WITNESS_MARGIN, tol=DEFAULT_TOL) -> bool:
    """Post-hoc re-check of the witness invariants at the stated grade."""
    images = [image_polytope(sys, (i,)) for i in range(sys.m)]
    if w.grade == "vertex-interior":
        q = apply_map(sys, w.k, sys.points[w.j])
        if not contains(images[w.i], q, margin=margin, tol=tol):
            return False
    else:
        if not _proper_overlap(images[w.i], images[w.k]):
            return False
    verts = [project_prefix(sys, w.block0, p) for p in sys.points]
    return all(
        contains(images[w.i], v, tol=tol) and contains(images[w.k], v, tol=tol)
        for v in verts
    )


# ---------------------------------------------------------------------------
# W_n membership and coverage


def _block_affine(sys, word):
    zero = tuple(0.0 for _ in range(sys.d))
    t = project_prefix(sys, word, zero)
    beta = float(sys.lam) ** len(word)
    return beta, np.array([float(v) for v in t])


def _block_tables(sys, fam):
    import itertools

    words = list(itertools.product(range(sys.m), repeat=fam.ell))
    T = np.array([_block_affine(sys, w)[1] for w in words])
    beta = float(sys.lam) ** fam.ell
    idx0 = words.index(tuple(fam.block0))
    return beta, T, idx0


def wn_entry_depths(sys: IfsSystem, fam: BlockFamily, pts, n_max: int, tol=DEFAULT_TOL):
    """Minimal block count n at which each point joins W_n (n_max+1 = not by n_max).

    Level-synchronous search over block words: a word is expanded only while
    it avoids the forcing block, because once the block is consumable the
    no-holes hypothesis guarantees a feasible continuation of any length.
    """
    if sys.d > 2:
        raise UnsupportedDimension("the batch W_n search needs dim <= 2")
    beta, T, idx0 = _block_tables(sys, fam)
    t0 = T[idx0]
    T_avoid = np.delete(T, idx0, axis=0)

    pts = np.asarray(pts, dtype=float)
    npts = len(pts)
    entry = np.full(npts, n_max + 1, dtype=np.int64)
    r = pts.copy()
    s = np.arange(npts)
    for k in range(1, n_max + 1):
        rc = (r - t0) / beta
        ok = contains_many(sys.omega, rc, tol=tol)
        if ok.any():
            hit = np.unique(s[ok])
            entry[hit] = np.minimum(entry[hit], k)
        keep = entry[s] > k
        r = r[keep]
        s = s[keep]
        if k == n_max or len(r) == 0:
            break
        cand = (r[:, None, :] - T_avoid[None, :, :]) / beta
        mask = contains_many(sys.omega, cand, tol=tol)
        s = np.repeat(s, len(T_avoid))[mask.ravel()]
        r = cand[mask]
        if len(r) > FRONTIER_CAP:
            raise BudgetExceeded(f"block-word frontier exceeded {FRONTIER_CAP} rows")
    return entry


def wn_membership(sys: IfsSystem, fam: BlockFamily, x, n: int,
                  no_holes_certified=None, tol=DEFAULT_TOL) -> bool:
    """Is x in W_n, the union of n-block images whose word uses the forcing block?"""
    if not resolve_no_holes(sys, no_holes_certified):
        raise CertificateRequired("W_n membership is only exact under a no-holes certificate")
    if not contains(sys.omega, x, tol=tol):
        raise PointOutsideOmega(f"{x} is outside Omega")
    if n < 1:
        return False
    entry = wn_entry_depths(sys, fam, [tuple(float(v) for v in x)], n, tol=tol)
    return bool(entry[0] <= n)


def wn_coverage_estimate(sys: IfsSystem, fam: BlockFamily, n: int, samples: int, seed: int,
                         no_holes_certified=None, tol=DEFAULT_TOL):
    """Monte Carlo (fraction of Omega outside W_n, standard error)."""
    if not resolve_no_holes(sys, no_holes_certified):
        raise CertificateRequired("W_n coverage is only exact under a no-holes certificate")
    rng = np.random.default_rng(seed)
    pts = sample_uniform(sys.omega, samples, rng, tol=tol)
    if n < 1:
        return 1.0, 0.0
    entry = wn_entry_depths(sys, fam, pts, n, tol=tol)
    frac = float(np.mean(entry > n))
    stderr = math.sqrt(max(frac * (1 - frac), 1.0 / samples) / samples)
    return frac, stderr
