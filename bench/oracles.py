"""Independent oracles for the benchmark's output checks.

Nothing here calls into ``ifslab``: prefix counts come from barycentric
coordinates (triangle) or closed-form interval images (1-D), the overlap
witness is re-derived from simplex barycentric weights, and the corner
regions are the closed-form inequalities.  Each oracle takes the same
inputs the program was given, so a disagreement is a wrong output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOL = 1e-9  # the program's default membership tolerance
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# right triangle (0,0), (1,0), (0,1) in barycentric coordinates


def _bary_feasible(t, exact):
    # (1-x-y, x, y); the program widens each edge by tol * |normal|
    if exact:
        return t[0] >= 0 and t[1] >= 0 and t[2] >= 0
    return t[1] >= -TOL and t[2] >= -TOL and t[0] >= -TOL * SQRT2


def _bary_children(lam, t, exact):
    out = []
    for j in range(3):
        c = tuple((t[k] - (1 - lam) * (1 if k == j else 0)) / lam for k in range(3))
        if _bary_feasible(c, exact):
            out.append((j, c))
    return out


def triangle_tree(lam, point, depth):
    """Relaxed-mode prefix tree of `point` in the right triangle, level by level.

    Returns (counts, first_bifurcation, cycle) where cycle is
    (entry_depth, period) when an exact single chain revisits a remainder.
    Exact arithmetic when lam and the coordinates are Fractions.
    """
    x, y = point
    exact = isinstance(lam, Fraction)
    frontier = [(1 - x - y, x, y)]
    counts = [1]
    bif = None
    seen = {frontier[0]: 0} if exact else None
    pure = True
    for dep in range(depth):
        nxt = []
        for t in frontier:
            ch = _bary_children(lam, t, exact)
            if len(ch) >= 2 and bif is None:
                bif = dep
            nxt.extend(c for _, c in ch)
        counts.append(len(nxt))
        if not nxt:
            return counts, bif, None
        if pure and len(nxt) == 1 and exact:
            if nxt[0] in seen:
                return counts, bif, (seen[nxt[0]], dep + 1 - seen[nxt[0]])
            seen[nxt[0]] = dep + 1
        elif len(nxt) != 1:
            pure = False
        frontier = nxt
    return counts, bif, None


def triangle_first_bifurcation(lam, point, depth):
    """First depth with two feasible children along the single chain, else None."""
    x, y = point
    t = (1 - x - y, x, y)
    for dep in range(depth):
        ch = _bary_children(lam, t, False)
        if len(ch) >= 2:
            return dep
        if not ch:
            return None
        t = ch[0][1]
    return None


# ---------------------------------------------------------------------------
# one-dimensional systems: closed-form interval images


def interval_counts(lam, anchors, x, depth):
    """Feasible prefix counts of x by direct images f_w([lo, hi]), exactly.

    A word w of length n is feasible iff x lies in
    lam^n [lo - tol, hi + tol] + t_w with t_w = (1-lam) sum lam^(k-1) p_{w_k};
    the inputs are taken at their exact rational values.
    """
    lam = Fraction(lam)
    ps = [Fraction(p) for p in anchors]
    x = Fraction(x)
    tol = Fraction(TOL)
    lo, hi = min(ps) - tol, max(ps) + tol
    counts = [1]
    words = [Fraction(0)]
    scale = 1 - lam
    for n in range(1, depth + 1):
        ln = lam**n
        nxt = []
        for t in words:
            for p in ps:
                t2 = t + scale * p
                if ln * lo + t2 <= x <= ln * hi + t2:
                    nxt.append(t2)
        counts.append(len(nxt))
        if not nxt:
            break
        words = nxt
        scale *= lam
    return counts


# ---------------------------------------------------------------------------
# triangle closed forms


def in_some_gamma(t, lam):
    """Corner regions Gamma_i: x_i < (1-lam)/lam and the other two < 1-lam."""
    a = (1 - lam) / lam
    b = 1 - lam
    return any(
        t[i] < a and all(t[j] < b for j in range(3) if j != i) for i in range(3)
    )


# ---------------------------------------------------------------------------
# simplex overlap witness


def _bary_weights(verts, q):
    verts = np.asarray(verts, dtype=float)
    w = np.linalg.solve((verts[1:] - verts[0]).T, np.asarray(q, dtype=float) - verts[0])
    return np.concatenate([[1.0 - w.sum()], w])


def _image(lam, P, word):
    # f_word(p) = lam^n p + (1-lam) sum_k lam^(k-1) p_{w_k}
    t = sum((1 - lam) * lam**k * P[j] for k, j in enumerate(word))
    return np.array([lam ** len(word) * p + t for p in P])


def vertex_in_image(lam, points, i, k, j):
    """f_k(p_j) lies in f_i(Omega), closed within the program's float tolerance.

    The program's 1e-9 interior margin is no wider than that tolerance, so a
    vertex image on a face of f_i(Omega) passes there; it is not counted as
    a wrong output here.
    """
    P = np.asarray(points, dtype=float)
    q = lam * P[j] + (1 - lam) * P[k]
    return _bary_weights(_image(lam, P, (i,)), q).min() >= -TOL


def minimal_block(lam, points, i, k, j, ell):
    """The vertices of f_w(Omega), w = k j^(ell-1), lie in f_i(Omega) and f_k(Omega), and ell - 1 fails."""
    P = np.asarray(points, dtype=float)
    Ai, Ak = _image(lam, P, (i,)), _image(lam, P, (k,))

    def block_inside(n):
        verts = _image(lam, P, (k,) + (j,) * (n - 1))
        return all(_bary_weights(A, v).min() >= -TOL for A in (Ai, Ak) for v in verts)

    return block_inside(ell) and (ell == 1 or not block_inside(ell - 1))
