"""Small dense two-phase simplex over exact rationals.

Every query this package needs from linear programming is tiny (a handful of
variables and constraints), so the tableau is kept as plain lists of
``Fraction`` and pivoting uses Bland's rule, which terminates without any
tolerance tuning.  Float inputs are converted with ``Fraction(x)``, which is
exact, so feasibility verdicts are deterministic.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


def _pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [v / piv for v in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [a - f * b for a, b in zip(T[i], T[r])]
    basis[r] = c


def _optimise(T, basis, ncols, allowed):
    """Run Bland-rule pivots on the bottom (objective) row until optimal."""
    m = len(T) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and T[m][j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LpUnbounded
        _pivot(T, basis, leave, enter)


def _phase1(A, b):
    """Phase 1 of {A z = b, z >= 0}: minimise the artificial sum.

    Returns the optimal tableau T and its basis.  T has the n real
    columns, one artificial column per row and the rhs; its bottom row is
    the phase-1 objective, so -T[-1][-1] is the minimal artificial sum.
    """
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    m = len(A)
    n = len(A[0]) if m else 0
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    T = [A[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [ZERO] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] -= T[i][j]
    for i in range(m):
        obj[n + i] = ZERO
    T.append(obj)
    _optimise(T, basis, n + m, [True] * (n + m))
    return T, basis


def solve_min(c, A, b):
    """Minimise c·z subject to A z = b, z >= 0, exactly.

    Returns (optimum, z).  Raises LpInfeasible / LpUnbounded.
    """
    c = [Fraction(v) for v in c]
    n = len(c)
    T, basis = _phase1(A, b)
    m = len(T) - 1
    if -T[m][-1] > 0:
        raise LpInfeasible
    # drive leftover artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j] != 0:
                    _pivot(T, basis, i, j)
                    break
    rows = [i for i in range(m) if basis[i] < n or any(T[i][j] != 0 for j in range(n))]
    T = [T[i] for i in rows]
    basis = [basis[i] for i in rows]
    m = len(T)

    # phase 2 on the original objective, artificial columns barred
    obj = list(c) + [ZERO] * (len(T[0]) - n - 1) + [ZERO]
    for i in range(m):
        cb = c[basis[i]] if basis[i] < n else ZERO
        if cb != 0:
            obj = [o - cb * t for o, t in zip(obj, T[i])]
    T.append(obj)
    allowed = [j < n for j in range(len(T[0]) - 1)]
    _optimise(T, basis, len(T[0]) - 1, allowed)

    z = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = T[i][-1]
    return sum(ci * zi for ci, zi in zip(c, z)), z


def min_infeasibility(A, b):
    """Phase-1 optimum of {A z = b, z >= 0}: zero iff the system is feasible.

    The value is the minimal artificial sum, an exact L1-style residual used
    to apply float-path tolerances to membership queries.
    """
    T, _ = _phase1(A, b)
    return -T[-1][-1]


def convex_combination_residual(points, x, min_weight=0):
    """Exact residual of 'x is a convex combination of points with weights >= min_weight'.

    Residual 0 means exact membership.  min_weight shifts every weight, which
    is the margin device used for interior queries in dimension >= 3.
    """
    pts = [[Fraction(v) for v in p] for p in points]
    xx = [Fraction(v) for v in x]
    delta = Fraction(min_weight)
    mpts = len(pts)
    d = len(xx)
    # w = v + delta, v >= 0
    A = []
    b = []
    for k in range(d):
        A.append([p[k] for p in pts])
        b.append(xx[k] - delta * sum(p[k] for p in pts))
    A.append([ONE] * mpts)
    b.append(ONE - delta * mpts)
    if b[-1] < 0:
        return abs(b[-1])  # min_weight already impossible
    return min_infeasibility(A, b)


def halfspace_interior_slack(halfspaces):
    """Largest uniform slack t with a·x + t <= b for every halfspace (a, b).

    Returns None when the closed intersection is already empty.  The slack is
    measured in raw normal units; only its sign is ever interpreted.
    """
    hs = [([Fraction(v) for v in a], Fraction(bb)) for a, bb in halfspaces]
    if not hs:
        return None
    d = len(hs[0][0])
    h = len(hs)
    # vars: x+ (d), x- (d), t, slack (h)
    n = 2 * d + 1 + h
    A = []
    b = []
    for i, (a, bb) in enumerate(hs):
        row = list(a) + [-v for v in a] + [ONE] + [ONE if j == i else ZERO for j in range(h)]
        A.append(row)
        b.append(bb)
    c = [ZERO] * n
    c[2 * d] = -ONE  # maximise t
    try:
        val, z = solve_min(c, A, b)
    except LpInfeasible:
        return None
    except LpUnbounded:
        return ONE  # interior certainly nonempty
    return -val
