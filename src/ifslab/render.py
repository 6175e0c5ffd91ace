"""Chaos-game rendering to ASCII PGM images."""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import UnsupportedDimension
from .core import IfsSystem, _check_depth, centroid

LANE_STEPS = 48  # lanes beat the scalar loop from iters * d of this many coupling lengths
_PIXELS = np.array([str(v) for v in range(256)], dtype=object)  # a pixel's PGM text


def _coupling_steps(lam) -> int:
    """W = 2 * ceil(log 2^-53 / log lam) + 8: twice the steps lam^k takes to fall below rounding."""
    return 2 * math.ceil(math.log(2.0**-53) / math.log(lam)) + 8


def chaos_game(sys: IfsSystem, iters: int, burn_in: int, seed: int):
    """Orbit of the random map x -> f_j(x) with uniform digit choice.

    Returns the (iters - burn_in, d) float array of post-burn-in points:
    x_1 .. x_iters, less the first burn_in, where x_0 is the centroid and
    x_{t+1} = fl(fl(lam * x_t) + q_j) with q_j = (1 - lam) * p_j.

    The orbit is cut into lanes of W = `_coupling_steps(lam)` steps that
    advance together, one numpy step for all lanes.  Lane 0 starts at x_0.
    Lane c > 0 starts at x_0 too and first replays lane c-1's W digits:
    orbits of one random contraction driven by the same maps coalesce, and
    in floats they become bit for bit equal once their gap falls below
    rounding, after which equal inputs give equal outputs.  Each step is
    the recurrence's multiply then add, with no fused multiply-add, so the
    lanes are proved right at the end: if every lane's state after its
    replay has the bits of lane c-1's last state, then by induction from
    lane 0 every lane holds the recurrence's points, byte for byte.  When
    a lane has not coupled, or when the lanes would not pay (iters * d
    below LANE_STEPS coupling lengths: lam near 1 or a short orbit), the
    recurrence runs as a scalar loop, one coordinate at a time.  At d = 2
    the lanes peak at 24 B per iteration (8 B of digit, 16 B of point) and
    the scalar loop at 32 B.
    """
    _check_depth(iters, "iters")
    _check_depth(burn_in, "burn_in")
    if not (iters > burn_in >= 100):
        raise ValueError("need iters > burn_in >= 100")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    digits = rng.integers(0, sys.m, size=iters)
    lam = float(sys.lam)
    Q = [[(1 - lam) * float(v) for v in p] for p in sys.points]
    x0 = [float(v) for v in centroid(sys)]
    w = _coupling_steps(lam)
    if iters * sys.d >= LANE_STEPS * w:
        out = _coupled_lanes(lam, np.array(Q), x0, digits, w)
        if out is not None:
            return out.reshape(-1, sys.d)[burn_in:iters]  # a view: the padding stays unread
    digits = digits.ravel()[:iters].tolist()  # the loop reads a list; the array goes
    out = np.empty((iters - burn_in, sys.d))
    # the coordinates never mix, so each runs its own scalar recurrence
    # x <- lam * x + q_j, in the same float operations as the joint loop;
    # looking q_j up as the orbit advances keeps no per-iteration float list
    for k, x in enumerate(x0):
        qk = [q[k] for q in Q]
        orbit = accumulate(map(qk.__getitem__, digits), lambda x, q: lam * x + q, initial=x)
        out[:, k] = np.fromiter(orbit, dtype=float, count=iters + 1)[burn_in + 1:]
    return out


def _coupled_lanes(lam, Q, x0, digits, w):
    """The orbit x_1 .. of `digits` from x0 as a (lanes, w, d) array, or None if a lane did not couple.

    Pads `digits` in place to (lanes, w) with zero digits, whose points
    follow x_iters and are never read.
    """
    lanes = -(-len(digits) // w)
    digits.resize((lanes, w), refcheck=False)  # one array, no view of it: grows in place
    x = np.tile(x0, (lanes, 1))
    rest, prev = x[1:], digits[:-1]
    for t in range(w):  # lane c > 0 replays lane c-1's digits; lane 0 stays at x0
        rest *= lam
        rest += Q.take(prev[:, t], 0)
    start = rest.copy()
    out = np.empty((lanes, w, len(x0)))
    for t in range(w):
        x *= lam
        x += Q.take(digits[:, t], 0)
        out[:, t] = x
    # the bits, not the values: -0.0 == 0.0, and only equal bits make equal orbits
    return out if np.array_equal(start.view(np.int64), x[:-1].view(np.int64)) else None


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
    _check_depth(resolution, "resolution", 1)
    if sys.d > 2:  # before the orbit: bin_to_grid would reject it only after
        raise UnsupportedDimension("rendering is implemented for dim <= 2")
    pts = chaos_game(sys, iters, burn_in, seed)
    grid = bin_to_grid(sys, pts, resolution)
    return np.where(grid, 0, 255).astype(np.uint8)


def write_pgm(stream, image) -> None:
    """ASCII PGM (magic P2, maxval 255, row-major pixels)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype.kind not in "iu" or (image.size and not
                                                           0 <= image.min() <= image.max() <= 255):
        raise ValueError(f"a PGM image is a 2-D integer array of values in 0..255, "
                         f"got {image.ndim}-D {image.dtype}")
    h, w = image.shape
    stream.write(f"P2\n{w} {h}\n255\n")
    stream.writelines([" ".join(row) + "\n" for row in _PIXELS.take(image).tolist()])
