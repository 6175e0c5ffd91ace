"""Chaos-game rendering to ASCII PGM images."""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import UnsupportedDimension
from .core import IfsSystem, centroid


def chaos_game(sys: IfsSystem, iters: int, burn_in: int, seed: int):
    """Orbit of the random map x -> f_j(x) with uniform digit choice.

    Returns the (iters - burn_in, d) float array of post-burn-in points.
    """
    if not (iters > burn_in >= 100):
        raise ValueError("need iters > burn_in >= 100")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    digits = rng.integers(0, sys.m, size=iters).tolist()
    lam = float(sys.lam)
    Q = [[(1 - lam) * float(v) for v in p] for p in sys.points]
    out = np.empty((iters - burn_in, sys.d))
    # the coordinates never mix, so each runs its own scalar recurrence
    # x <- lam * x + q_j, in the same float operations as the joint loop;
    # looking q_j up as the orbit advances keeps no per-iteration float list
    for k, x0 in enumerate(float(v) for v in centroid(sys)):
        qk = [q[k] for q in Q]
        orbit = accumulate(map(qk.__getitem__, digits), lambda x, q: lam * x + q, initial=x0)
        out[:, k] = np.fromiter(orbit, dtype=float, count=iters + 1)[burn_in + 1:]
    return out


def bin_to_grid(sys: IfsSystem, pts, resolution: int):
    """Occupancy grid over the bounding box of Omega (True = occupied)."""
    lo, hi = (np.array(b, dtype=float) for b in sys.omega.bounding_box())
    span = np.where(hi > lo, hi - lo, 1.0)
    idx = np.floor((pts - lo) / span * resolution).astype(np.int64)
    idx = np.clip(idx, 0, resolution - 1)
    grid = np.zeros((resolution, resolution), dtype=bool)
    if sys.d == 1:
        # a 1-D attractor renders as a strip: every row repeats the occupancy
        grid[:, np.unique(idx[:, 0])] = True
    elif sys.d == 2:
        # image rows grow downward; flip the y index so the picture is upright
        grid[resolution - 1 - idx[:, 1], idx[:, 0]] = True
    else:
        raise UnsupportedDimension("rendering is implemented for dim <= 2")
    return grid


def render_attractor(sys: IfsSystem, iters: int, burn_in: int, resolution: int, seed: int):
    """Chaos-game image: occupied cells 0 (black), empty cells 255."""
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    pts = chaos_game(sys, iters, burn_in, seed)
    grid = bin_to_grid(sys, pts, resolution)
    return np.where(grid, 0, 255).astype(np.uint8)


def write_pgm(stream, image) -> None:
    """ASCII PGM (magic P2, maxval 255, row-major pixels)."""
    h, w = image.shape
    stream.write(f"P2\n{w} {h}\n255\n")
    stream.writelines(" ".join(map(str, row.tolist())) + "\n" for row in image)
