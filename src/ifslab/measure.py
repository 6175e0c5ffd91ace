"""Natural-measure sampling, mesh-cube counting and box-dimension estimates.

Monte Carlo runs draw from one generator seeded by the caller's seed, so the
same seed always reproduces the same output.  Samples and the box-dim
cloud are projected in `core`'s one order, so equal digits give equal bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import BudgetExceeded, CertificateRequired, TooFewScales
from .conditions import no_holes_sufficient
from .core import IfsSystem, _children_many, _rows, centroid, check_probs, project_all_words, project_words
from .geometry import DEFAULT_TOL, _check_depth, _rng, binomial_stderr, contains_many


GRID_CELL_BUDGET = 2**24  # most cells grid_points lays out
# cells grid_points lays out at once in d >= 2, in slabs of whole first-axis
# lines: grids of up to 256^2 cells stay one slab, one membership test
GRID_SLAB_CELLS = 2**16


def default_truncation(lam) -> int:
    """Depth at which the sampling truncation error drops below DEFAULT_TOL."""
    return max(1, math.ceil(math.log(DEFAULT_TOL) / math.log(float(lam))))


@dataclass
class MeasureSampler:
    sys: IfsSystem
    probs: tuple
    seed: int
    trunc: int = 0

    def __post_init__(self):
        self.probs = check_probs(self.probs, self.sys.m)
        _check_depth(self.seed, "seed")
        _check_depth(self.trunc, "trunc")
        if self.trunc == 0:
            self.trunc = default_truncation(self.sys.lam)

    @property
    def truncation_error(self) -> float:
        return float(self.sys.lam) ** self.trunc * self.sys.diameter()


def sample_natural_measure(sampler: MeasureSampler, n: int):
    """n i.i.d. draws from the push-down of the Bernoulli(probs) measure.

    Addresses are truncated at sampler.trunc digits and projected from the
    centroid of Omega, so every point is within truncation_error of its
    infinite-address limit.  Returns (points (n,d) array, digits (n,trunc)).

    Digits come by the inverse-CDF rule from one uniform draw u of shape
    (n, trunc): the digit is the number of entries of cdf = cumsum(probs) /
    its last entry that are <= u.  That is the rule and the stream of
    `Generator.choice(m, (n, trunc), p=probs)` on the same seed, so the
    digits are the ones it draws.
    """
    if not isinstance(n, Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("need at least one sample")
    u = _rng(sampler.seed).random((n, sampler.trunc))
    cdf = np.cumsum(sampler.probs)
    cdf /= cdf[-1]
    digits = np.zeros(u.shape, dtype=np.int64)
    for c in cdf[:-1]:
        digits += u >= c
    del u  # before the projection allocates its own (trunc, n) index table
    sys = sampler.sys
    return project_words(sys, digits, centroid(sys)), digits


def chain_walk(sys: IfsSystem, pts, depth: int):
    """Follow each point's feasible chain while it stays single.

    Returns (bif_depth, dead_depth): per point, the depth of the first step
    with two or more feasible children, and the depth of the first step with
    none; -1 where the event never happens within `depth`.  `core._rows`
    reads the points: it refuses a row of another width or a non-finite one.
    """
    _check_depth(depth)
    r = _rows(sys, pts)
    n = len(r)
    bif = np.full(n, -1, dtype=np.int64)
    dead = np.full(n, -1, dtype=np.int64)
    alive = np.arange(n)  # original row of each chain still single
    for dep in range(depth):
        if len(alive) == 0:
            break
        parent, _, rem = _children_many(sys, r)
        cnt = np.bincount(parent, minlength=len(r))
        bif[alive[cnt >= 2]] = dep
        dead[alive[cnt == 0]] = dep
        # advance single chains to their unique feasible child; drop the rest
        single = cnt == 1
        alive = alive[single]
        r = rem[single[parent]]
    return bif, dead


def mu_bifurcation_fraction(sampler: MeasureSampler, n: int, depth: int):
    """(fraction of mu-samples that bifurcate within depth, standard error)."""
    if not no_holes_sufficient(sampler.sys)[0]:
        raise CertificateRequired("bifurcation fractions are only meaningful with no holes")
    pts, _ = sample_natural_measure(sampler, n)
    bif, _ = chain_walk(sampler.sys, pts, depth)
    frac = float(np.mean(bif >= 0))
    return frac, binomial_stderr(frac, n)


def mesh_count(points, epsilon) -> int:
    """Number of occupied eps-mesh cells; the cell of x is floor(x_i/eps) per axis.

    Counts by sorting: each cell gets one mixed-radix int64 key, the keys are
    sorted in place, and the count is one plus the number of value changes.
    Cells are laid out one contiguous row per axis.  When a cell index nears
    int64's range or the extents multiply past it, unique rows of the float
    floors, which are the exact indices, are counted instead.  A non-finite
    coordinate, or a cell index past the float range, raises ValueError.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if len(pts) == 0:
        return 0
    pmin, pmax = float(pts.min()), float(pts.max())
    if not -math.inf < pmin <= pmax < math.inf:
        raise ValueError(f"points must be finite, got coordinates in [{pmin}, {pmax}]")
    reach = max(-pmin, pmax) / epsilon
    if reach == math.inf:
        raise ValueError(f"cell index {max(-pmin, pmax)}/{epsilon} is past the float range")
    if reach < 2**62:
        cells = np.floor(np.ascontiguousarray(pts.T) / epsilon).astype(np.int64)
        lo = cells.min(axis=1).tolist()
        extent = [h - l + 1 for l, h in zip(lo, cells.max(axis=1).tolist())]
        if math.prod(extent) < 2**63:
            key = cells[0] - lo[0]  # one mixed-radix key per cell
            for k in range(1, len(extent)):
                key *= extent[k]
                key += cells[k] - lo[k]
            key.sort()
            return 1 + int(np.count_nonzero(key[1:] != key[:-1]))
    return len(np.unique(np.floor(pts / epsilon), axis=0))


def box_dim_estimate(points, eps_list):
    """Least-squares slope of log N_eps against log(1/eps).

    Returns (slope, rms fit residual, table of (eps, N_eps)).  The scales are
    used exactly as supplied; inspect the table rather than trusting the
    slope blindly.
    """
    eps = [float(e) for e in eps_list]
    if not all(0 < e < math.inf for e in eps):
        raise ValueError(f"scales must be positive and finite, got {eps}")
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
    axis slowest, and the centres inside Omega are kept.  The centres are
    laid out and tested in slabs of first-axis lines of about
    GRID_SLAB_CELLS cells, so only the kept ones grow with the grid.  More
    than GRID_CELL_BUDGET cells raise BudgetExceeded before anything is
    allocated.
    """
    _check_depth(resolution, "resolution", 1)
    if resolution**sys.d > GRID_CELL_BUDGET:
        raise BudgetExceeded(
            f"grid of resolution {resolution} in dimension {sys.d} has {resolution**sys.d} cells "
            f"(budget {GRID_CELL_BUDGET}); use a coarser resolution"
        )
    lo, hi = (np.array(b, dtype=float) for b in sys.omega.bounding_box())
    if sys.d == 1:
        return lo + (np.arange(1, resolution) / resolution)[:, None] * (hi - lo)
    c = (np.arange(resolution) + 0.5) / resolution
    step = max(1, GRID_SLAB_CELLS // len(c) ** (sys.d - 1))  # first-axis lines a slab holds
    kept = []
    for a in range(0, len(c), step):
        axes = np.meshgrid(c[a:a + step], *[c] * (sys.d - 1), indexing="ij")
        pts = lo + np.stack([g.ravel() for g in axes], axis=1) * (hi - lo)
        kept.append(pts[contains_many(sys.omega, pts)])
    return np.concatenate(kept)


def uniqueness_grid(sys: IfsSystem, resolution: int, depth: int):
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
    bif, dead = chain_walk(sys, pts, depth)
    return pts[(bif < 0) & (dead < 0)]


def attractor_point_cloud(sys: IfsSystem, finest_eps):
    """Deterministic attractor cloud: every depth-K projection, K matched to finest_eps.

    K is the smallest depth at which image diameters drop below finest_eps,
    so the cloud resolves every requested mesh scale without randomness.
    Row i is the word whose digit t is (i // m^t) % m, projected from the
    centroid by `core.project_all_words`, whose budget caps the cloud.
    """
    if not 0 < finest_eps < math.inf:
        raise ValueError(f"finest_eps must be positive and finite, got {finest_eps}")
    K = max(1, math.ceil(math.log(float(finest_eps) / sys.diameter()) / math.log(float(sys.lam))))
    return project_all_words(sys, K, centroid(sys))
