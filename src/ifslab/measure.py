"""Natural-measure sampling, mesh-cube counting and box-dimension estimates.

Monte Carlo runs draw from one generator seeded by the caller's seed, so the
same seed always reproduces the same output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, CertificateRequired, TooFewScales
from .conditions import resolve_no_holes
from .core import IfsSystem, _children_many, centroid, check_probs
from .geometry import DEFAULT_TOL, contains_many


GRID_CELL_BUDGET = 2**24  # most cells grid_points lays out


def default_truncation(lam, tol=DEFAULT_TOL) -> int:
    """Depth at which the sampling truncation error drops below the tolerance."""
    return max(1, math.ceil(math.log(tol) / math.log(float(lam))))


@dataclass
class MeasureSampler:
    sys: IfsSystem
    probs: tuple
    seed: int
    trunc: int = 0

    def __post_init__(self):
        self.probs = check_probs(self.probs, self.sys.m)
        if self.trunc <= 0:
            self.trunc = default_truncation(self.sys.lam)

    @property
    def truncation_error(self) -> float:
        return float(self.sys.lam) ** self.trunc * self.sys.diameter()


def sample_natural_measure(sampler: MeasureSampler, n: int):
    """n i.i.d. draws from the push-down of the Bernoulli(probs) measure.

    Addresses are truncated at sampler.trunc digits and projected from the
    centroid of Omega, so every point is within truncation_error of its
    infinite-address limit.  Returns (points (n,d) array, digits (n,trunc)).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(sampler.seed))
    sys = sampler.sys
    digits = rng.choice(sys.m, size=(n, sampler.trunc), p=sampler.probs)
    pts = project_digit_rows(sys, digits)
    return pts, digits


def project_digit_rows(sys: IfsSystem, digits):
    """Vectorised project_prefix over rows of digits, started at the centroid."""
    lam = float(sys.lam)
    P = np.array([[float(v) for v in p] for p in sys.points])
    n, T = digits.shape
    weights = (1 - lam) * lam ** np.arange(T)
    pts = np.einsum("t,ntd->nd", weights, P[digits])
    x0 = np.array([float(v) for v in centroid(sys)])
    return pts + lam**T * x0


def chain_walk(sys: IfsSystem, pts, depth: int, tol=DEFAULT_TOL):
    """Follow each point's feasible chain while it stays single.

    Returns (bif_depth, dead_depth): per point, the depth of the first step
    with two or more feasible children, and the depth of the first step with
    none; -1 where the event never happens within `depth`.
    """
    r = np.asarray(pts, dtype=float)
    n = len(r)
    bif = np.full(n, -1, dtype=np.int64)
    dead = np.full(n, -1, dtype=np.int64)
    alive = np.arange(n)  # original row of each chain still single
    for dep in range(depth):
        if len(alive) == 0:
            break
        parent, _, rem = _children_many(sys, r, tol)
        cnt = np.bincount(parent, minlength=len(r))
        bif[alive[cnt >= 2]] = dep
        dead[alive[cnt == 0]] = dep
        # advance single chains to their unique feasible child; drop the rest
        single = cnt == 1
        alive = alive[single]
        r = rem[single[parent]]
    return bif, dead


def mu_bifurcation_fraction(sampler: MeasureSampler, n: int, depth: int,
                            no_holes_certified=None, tol=DEFAULT_TOL):
    """(fraction of mu-samples that bifurcate within depth, standard error)."""
    if not resolve_no_holes(sampler.sys, no_holes_certified):
        raise CertificateRequired("bifurcation fractions are only meaningful with no holes")
    pts, _ = sample_natural_measure(sampler, n)
    bif, _ = chain_walk(sampler.sys, pts, depth, tol=tol)
    frac = float(np.mean(bif >= 0))
    stderr = math.sqrt(max(frac * (1 - frac), 1.0 / n) / n)
    return frac, stderr


def mesh_count(points, epsilon) -> int:
    """Number of occupied eps-mesh cells; the cell of x is floor(x_i/eps) per axis."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if len(pts) == 0:
        return 0
    cells = np.floor(pts / epsilon).astype(np.int64)
    lo = cells.min(axis=0)
    extent = [h - l + 1 for l, h in zip(lo.tolist(), cells.max(axis=0).tolist())]
    if math.prod(extent) >= 2**63:
        return len(np.unique(cells, axis=0))
    key = np.zeros(len(cells), dtype=np.int64)  # one mixed-radix key per cell
    for k, e in enumerate(extent):
        key = key * e + (cells[:, k] - lo[k])
    return len(np.unique(key))


def box_dim_estimate(points, eps_list):
    """Least-squares slope of log N_eps against log(1/eps).

    Returns (slope, rms fit residual, table of (eps, N_eps)).  The scales are
    used exactly as supplied; inspect the table rather than trusting the
    slope blindly.
    """
    eps = [float(e) for e in eps_list]
    if len(set(eps)) < 3:
        raise TooFewScales("need at least three distinct scales")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise TooFewScales("scales must be strictly decreasing")
    table = [(e, mesh_count(points, e)) for e in eps]
    if any(cnt == 0 for _, cnt in table):
        raise ValueError("empty point set at some scale; no slope to fit")
    logs = np.log([1.0 / e for e, _ in table])
    logn = np.log([cnt for _, cnt in table])
    A = np.vstack([logs, np.ones_like(logs)]).T
    coef, *_ = np.linalg.lstsq(A, logn, rcond=None)
    fit = A @ coef
    residual = float(np.sqrt(np.mean((fit - logn) ** 2)))
    return float(coef[0]), residual, table


def grid_points(sys: IfsSystem, resolution: int):
    """Lattice over Omega: interior fractions k/resolution in 1-D, else cell centres.

    In d >= 2 the bounding box is cut into resolution^d cells, the first
    axis slowest, and the centres inside Omega are kept.  More than
    GRID_CELL_BUDGET cells raise BudgetExceeded before anything is allocated.
    """
    if resolution**sys.d > GRID_CELL_BUDGET:
        raise BudgetExceeded(
            f"grid of resolution {resolution} in dimension {sys.d} has {resolution**sys.d} cells "
            f"(budget {GRID_CELL_BUDGET}); use a coarser resolution"
        )
    lo, hi = sys.omega.bounding_box()
    if sys.d == 1:
        lo, hi = float(lo[0]), float(hi[0])
        ks = np.arange(1, resolution) / resolution
        return (lo + ks * (hi - lo))[:, None]
    lo = np.array([float(v) for v in lo])
    hi = np.array([float(v) for v in hi])
    c = (np.arange(resolution) + 0.5) / resolution
    axes = np.meshgrid(*[c] * sys.d, indexing="ij")
    pts = lo + np.stack([g.ravel() for g in axes], axis=1) * (hi - lo)
    return pts[contains_many(sys.omega, pts)]


def uniqueness_grid(sys: IfsSystem, resolution: int, depth: int, tol=DEFAULT_TOL):
    """Grid points whose feasible-prefix tree is a single chain to `depth`.

    A shrinking over-approximation of the set of uniqueness: deepening can
    only remove points.  Dead-end chains (possible when the attractor has
    holes) are excluded, since such points carry no address at all.  Under
    a no-holes certificate (conditions.no_holes_sufficient) a single chain
    is a single true prefix; without one it only bounds the true tree.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be at least 8, got {resolution}")
    pts = grid_points(sys, resolution)
    bif, dead = chain_walk(sys, pts, depth, tol=tol)
    return pts[(bif < 0) & (dead < 0)]


def attractor_point_cloud(sys: IfsSystem, finest_eps, max_points: int = 4_000_000):
    """Deterministic attractor cloud: every depth-K projection, K matched to finest_eps.

    K is the smallest depth at which image diameters drop below finest_eps,
    so the cloud resolves every requested mesh scale without randomness.
    """
    lam = float(sys.lam)
    diam = sys.diameter()
    K = max(1, math.ceil(math.log(float(finest_eps) / diam) / math.log(lam)))
    if sys.m**K > max_points:
        raise BudgetExceeded(
            f"attractor cloud at scale {finest_eps} needs {sys.m**K} points "
            f"(budget {max_points}); use a coarser scale"
        )
    idx = np.arange(sys.m**K, dtype=np.int64)
    digits = np.empty((len(idx), K), dtype=np.int64)
    for t in range(K):
        digits[:, t] = (idx // sys.m**t) % sys.m
    return project_digit_rows(sys, digits)
