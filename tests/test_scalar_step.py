"""The float scalar step, f_j^{-1} then membership in Omega, and the readers in front of it.

`geometry.contains` reads each facet's norm from `Polytope.facet_norms`,
taken once per polytope, and `core.apply_inverse` builds its tuple from a
list.  Both must stay bit for bit the formulas they replace: the tests
here hold them to copies of those formulas on points within a few ulps
of the tolerance shell, and count the square roots a query takes.  The
step's readers refuse a non-finite point, a bool digit or depth, and take
a numpy integer digit as the int it is.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ifslab.addresses import CERT_MARGIN, classify_point
from ifslab.core import _children, apply_inverse, apply_map, image_polytope, new_ifs, project_prefix
from ifslab.errors import DigitOutOfRange
from ifslab.geometry import DEFAULT_TOL, contains, hull_polytope

from helpers import RIGHT_TRIANGLE_EXACT, TETRAHEDRON, triangle_system

F = Fraction
TRI07 = triangle_system(0.7)
TOLS = [DEFAULT_TOL, 0.0, -CERT_MARGIN, 2.5e-4]
TET_EXACT = [(F(0), F(0), F(0)), (F(2), F(1, 3), F(0)), (F(1, 2), F(3, 2), F(1, 5)), (F(1, 3), F(1, 2), F(2))]


# d = 1, 2, 3: float polytopes, exact ones, and exact images with Fraction offsets
POLYS = {
    "interval-float": hull_polytope([(-0.3,), (1.7,)]),
    "quad-float": hull_polytope([(0.1, 0.2), (1.3, 0.05), (0.7, 1.1), (-0.2, 0.8)]),
    "tetrahedron-float": hull_polytope(TETRAHEDRON),
    "tet-skew-float": hull_polytope([(0.0, 0.0, 0.0), (1.1, 0.2, 0.0), (0.3, 0.9, 0.1), (0.2, 0.3, 1.3)]),
    "interval-exact": hull_polytope([(F(1, 3),), (F(7, 5),)]),
    "triangle-exact": hull_polytope([(F(0), F(0)), (F(3), F(1)), (F(1), F(5, 2))]),
    "tet-exact": hull_polytope(TET_EXACT),
    "image-exact-2d": image_polytope(new_ifs(F(7, 10), RIGHT_TRIANGLE_EXACT), (1, 2, 0)),
    "image-exact-3d": image_polytope(new_ifs(F(3, 5), TET_EXACT), (3, 1)),
}


def contains_per_call_roots(poly, x, tol):
    """The float path of `contains` with each facet's root taken on every call, in a generator sum."""
    for n, off, sq in poly.halfspaces:
        s = off - sum(nv * xv for nv, xv in zip(n, x))
        if not float(s) >= -tol * math.sqrt(float(sq)):
            return False
    return True


def shell_point(poly, facet, weights, k, ulps, tol, mixed):
    """A point `ulps` ulps (in coordinate k) off facet `facet`'s tolerance shell off - n.x = -tol*|n|.

    The other coordinates are those of a weighted mean of the generators:
    floats, or on `mixed` Fractions of small denominator.
    """
    n, off, sq = poly.halfspaces[facet]
    nz = [i for i, a in enumerate(n) if a]
    k = nz[k % len(nz)]
    gens = [[F(v) for v in g] for g in poly.generators]
    y = [sum(F(w) * g[i] for w, g in zip(weights, gens)) / (sum(weights) or 1) for i in range(poly.dim)]
    x = [y[i].limit_denominator(97) if mixed else float(y[i]) for i in range(poly.dim)]
    target = F(off) + F(tol) * F(math.sqrt(float(sq)))
    xk = float((target - sum(F(n[i]) * F(x[i]) for i in range(poly.dim) if i != k)) / F(n[k]))
    for _ in range(abs(ulps)):
        xk = math.nextafter(xk, math.copysign(math.inf, ulps))
    x[k] = xk
    return tuple(x)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(POLYS)), tol=st.sampled_from(TOLS),
       ulps=st.integers(-4, 4), mixed=st.booleans())
def test_float_contains_equals_the_per_call_root_formula_near_the_shell(data, name, tol, ulps, mixed):
    poly = POLYS[name]
    facet = data.draw(st.integers(0, len(poly.halfspaces) - 1))
    weights = data.draw(st.lists(st.integers(0, 9), min_size=len(poly.generators),
                                 max_size=len(poly.generators)))
    k = data.draw(st.integers(0, poly.dim - 1))
    x = shell_point(poly, facet, weights, k, ulps, tol, mixed and poly.is_exact)
    assert contains(poly, x, tol) == contains_per_call_roots(poly, x, tol)


@pytest.mark.parametrize("name", sorted(POLYS))
@pytest.mark.parametrize("tol", TOLS)
def test_float_contains_equals_the_per_call_root_formula_on_fixed_points(name, tol):
    poly = POLYS[name]
    points = [tuple(map(float, g)) for g in poly.generators]
    points.append(tuple(sum(float(g[i]) for g in poly.generators) / len(poly.generators)
                        for i in range(poly.dim)))
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(poly.dim):
            points += [p[:i] + (bad,) + p[i + 1:] for p in points[:2]]
    for facet in range(len(poly.halfspaces)):
        for ulps in (-2, -1, 0, 1, 2):
            points.append(shell_point(poly, facet, [1] * len(poly.generators), 0, ulps, tol, False))
            if poly.is_exact:
                points.append(shell_point(poly, facet, [1] * len(poly.generators), 0, ulps, tol, True))
    verdicts = [contains(poly, x, tol) for x in points]
    assert verdicts == [contains_per_call_roots(poly, x, tol) for x in points]
    assert True in verdicts and False in verdicts  # the points straddle the shell


SYSTEMS = {
    1: new_ifs(0.61, [(-1.0,), (0.25,), (2.0,)]),
    2: triangle_system(0.7),
    3: new_ifs(0.55, TETRAHEDRON),
}


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(sorted(SYSTEMS)), j=st.integers(0, 3),
       xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
@example(d=2, j=0, xs=[1.2e308, 1.2e308, 0.0])  # finite remainders whose sum overflows
def test_float_apply_inverse_is_the_inline_formula_bit_for_bit(d, j, xs):
    sys = SYSTEMS[d]
    j %= sys.m
    x = tuple(xs[:d])
    want = tuple((xi - ci) / sys.lam for xi, ci in zip(x, sys.shifts[j]))
    got = apply_inverse(sys, j, x)
    assert type(got) is tuple and [v.hex() for v in got] == [v.hex() for v in want]


def test_float_contains_takes_no_square_root_after_the_first_call(monkeypatch):
    sys = triangle_system(0.7)  # fresh polytopes: no facet norms built yet
    polys = [hull_polytope([(0.1, 0.2), (1.3, 0.05), (0.7, 1.1)]), hull_polytope(TET_EXACT), sys.omega]
    for poly in polys:
        contains(poly, (0.3,) * poly.dim)
    real, roots = math.sqrt, []
    monkeypatch.setattr(math, "sqrt", lambda v: roots.append(v) or real(v))
    for poly in polys:
        for tol in TOLS:
            contains(poly, (0.2,) * poly.dim, tol)
            contains(poly, (F(1, 3),) + (0.2,) * (poly.dim - 1), tol)
    for x in [(0.3, 0.4), (0.1, 0.1), (0.45, 0.45)]:
        _children(sys, x)
        classify_point(sys, x, 12, no_holes_certified=True)
    assert roots == []


@pytest.mark.parametrize("x", [(math.nan, 0.3), (0.3, math.inf), (-math.inf, math.nan)])
def test_float_apply_inverse_refuses_a_non_finite_point_as_apply_map_does(x):
    with pytest.raises(ValueError) as by_map:
        apply_map(TRI07, 0, x)
    for j in range(TRI07.m):
        with pytest.raises(ValueError) as by_inverse:
            apply_inverse(TRI07, j, x)
        assert str(by_inverse.value) == str(by_map.value) == f"point {x} has a non-finite coordinate"
    assert _children(TRI07, x) == []  # a node no walk builds: it lies in no polytope


@pytest.mark.parametrize("exact", [False, True])
def test_a_numpy_integer_digit_is_the_int_it_holds(exact):
    sys = new_ifs(F(7, 10), RIGHT_TRIANGLE_EXACT) if exact else TRI07
    x = (F(3, 10), F(2, 5)) if exact else (0.3, 0.4)
    assert project_prefix(sys, np.array([0, 1]), x) == project_prefix(sys, [0, 1], x)
    assert image_polytope(sys, np.array([2])) == image_polytope(sys, (2,))
    for j in (np.int64(1), np.uint8(2), np.int32(0)):
        assert apply_map(sys, j, x) == apply_map(sys, int(j), x)
        assert apply_inverse(sys, j, x) == apply_inverse(sys, int(j), x)
    with pytest.raises(DigitOutOfRange, match=r"^digit 3 not in 0\.\.2$"):
        apply_inverse(sys, np.int64(3), x)


@pytest.mark.parametrize("j, shown", [(True, "bool True"), (False, "bool False"), (1.0, "float 1.0"),
                                      (F(1), "Fraction Fraction(1, 1)"), ("1", "str '1'")])
def test_a_digit_that_is_no_integer_is_refused_by_its_type(j, shown):
    for step in (apply_map, apply_inverse):
        with pytest.raises(DigitOutOfRange) as exc:
            step(TRI07, j, (0.3, 0.4))
        assert str(exc.value) == f"digit must be an integer, got {shown}"


def test_a_bool_is_no_depth():
    # a bool seed is refused by the same reader: test_readers.py
    with pytest.raises(ValueError) as exc:
        classify_point(TRI07, (0.3, 0.4), True)
    assert str(exc.value) == "depth must be an integer of at least 0, got True"
    assert classify_point(TRI07, (0.3, 0.4), np.int64(4)).explored_depth == 4
