import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifslab.core import image_polytope, new_ifs
from ifslab.deleted_digits import DigitSet, as_ifs
from ifslab.errors import DegenerateAffineHull, DimensionMismatch
from ifslab.geometry import (
    binomial_stderr,
    contains,
    contains_many,
    hull_polytope,
    sample_uniform,
    volume,
    volume_mc,
)

from helpers import RIGHT_TRIANGLE_EXACT, TETRAHEDRON, in_hull_exact, triangle_system, unit_system

UNIT_TRIANGLE = hull_polytope([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
UNIT_INTERVAL = hull_polytope([(0.0,), (1.0,)])


class TestContains:
    def test_interval(self):
        assert contains(UNIT_INTERVAL, (0.5,))
        assert contains(UNIT_INTERVAL, (0.0,))
        assert not contains(UNIT_INTERVAL, (1.1,))

    def test_boundary_fails_interior_margin(self):
        assert not contains(UNIT_INTERVAL, (0.0,), tol=-0.01)
        assert contains(UNIT_INTERVAL, (0.5,), tol=-0.01)

    def test_triangle_convex_combination(self):
        assert contains(UNIT_TRIANGLE, (0.25, 0.25))
        assert not contains(UNIT_TRIANGLE, (0.6, 0.6))

    def test_tolerance_widens_closed(self):
        assert contains(UNIT_INTERVAL, (1.0 + 5e-10,))
        assert not contains(UNIT_INTERVAL, (1.0 + 5e-9,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(UNIT_INTERVAL, (0.5, 0.5))

    def test_margin_implies_closed_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = tuple(rng.uniform(-0.3, 1.3, size=2))
            big = contains(UNIT_TRIANGLE, x, tol=-0.05)
            small = contains(UNIT_TRIANGLE, x, tol=-0.01)
            closed = contains(UNIT_TRIANGLE, x)
            assert (not big or small) and (not small or closed)

    def test_generators_inside(self):
        for g in UNIT_TRIANGLE.generators:
            assert contains(UNIT_TRIANGLE, g)

    def test_exact_path_is_exact(self):
        tri = hull_polytope([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
        eps = Fraction(1, 10**30)
        assert contains(tri, (Fraction(1, 2), Fraction(1, 2)))
        assert not contains(tri, (Fraction(1, 2) + eps, Fraction(1, 2)))

    @pytest.mark.parametrize("poly", [UNIT_INTERVAL, UNIT_TRIANGLE, hull_polytope(TETRAHEDRON)],
                             ids=["interval", "triangle", "tetrahedron"])
    def test_nan_lies_in_no_polytope(self, poly):
        # a NaN slack compares false either way round, so each test must
        # ask for s >= threshold, not fail on s < threshold
        inner = [0.2] * poly.dim
        probes = [tuple(float("nan") if k == i else v for k, v in enumerate(inner))
                  for i in range(poly.dim)] + [(float("nan"),) * poly.dim, tuple(inner)]
        want = [False] * (len(probes) - 1) + [True]
        assert [contains(poly, p) for p in probes] == want
        assert [contains(poly, p, tol=-0.01) for p in probes] == want
        assert contains_many(poly, np.array(probes)).tolist() == want


class TestLinearFeasibilityPath:
    def test_tetrahedron_membership(self):
        tet = hull_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert contains(tet, (0.2, 0.2, 0.2))
        assert not contains(tet, (0.5, 0.5, 0.5))
        assert contains(tet, (0.2, 0.2, 0.2), tol=-1e-3)
        assert not contains(tet, (0.0, 0.0, 0.0), tol=-1e-3)

    def test_residual_agrees_with_halfspaces_2d(self):
        rng = np.random.default_rng(1)
        gens = [tuple(v) for v in rng.uniform(0, 1, size=(6, 2))]
        poly = hull_polytope(gens)
        for _ in range(120):
            x = tuple(rng.uniform(-0.2, 1.2, size=2))
            assert in_hull_exact(gens, x) == contains(poly, x, tol=1e-9) or _near_edge(poly, x)


def _near_edge(poly, x, eps=1e-8):
    return contains(poly, x, tol=eps) != contains(poly, x, tol=-eps)


class TestImagePolytope:
    def test_empty_word_is_omega(self):
        s = triangle_system(0.5)
        assert image_polytope(s, ()).generators == s.omega.generators

    def test_interval_image(self):
        s = unit_system(0.6)
        lo, hi = image_polytope(s, (1,)).bounding_box()
        assert lo[0] == pytest.approx(0.4) and hi[0] == pytest.approx(1.0)

    def test_sierpinski_step(self):
        s = triangle_system(0.5)
        img = image_polytope(s, (0,))
        assert sorted(img.generators) == pytest.approx([(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)])

    def test_diameter_scaling(self):
        s = triangle_system(0.7)
        img = image_polytope(s, (0, 1, 2, 1))
        assert img.diameter() == pytest.approx(0.7**4 * s.diameter())

    def test_nesting_under_extension(self):
        s = triangle_system(0.66)
        w = (1, 0, 2)
        outer = image_polytope(s, w)
        for a in range(3):
            inner = image_polytope(s, w + (a,))
            for g in inner.generators:
                assert contains(outer, g)


class TestVolume:
    def test_interval(self):
        assert volume(UNIT_INTERVAL) == 1.0

    def test_shoelace(self):
        assert volume(UNIT_TRIANGLE) == pytest.approx(0.5)

    def test_scaling_law(self):
        s = triangle_system(0.7)
        img = image_polytope(s, (0, 2, 1))
        ratio = volume(img) / volume(s.omega)
        assert ratio == pytest.approx(0.7**6, rel=1e-9)

    def test_dim3_exact(self):
        tet = hull_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert volume(tet) == Fraction(1, 6) and isinstance(volume(tet), Fraction)
        est, err = volume_mc(tet, 4000, seed=5)
        assert est == pytest.approx(1 / 6, abs=4 * err + 0.01)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_simplex_is_det_over_d_factorial(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            gens = [tuple(Fraction(int(a), int(b)) for a, b in zip(rng.integers(-9, 10, d),
                                                                  rng.integers(1, 7, d)))
                    for _ in range(d + 1)]
            det = _fraction_det([[a - b for a, b in zip(g, gens[0])] for g in gens[1:]])
            if det == 0:
                continue
            got = volume(hull_polytope(gens))
            assert isinstance(got, Fraction) and got == abs(det) / math.factorial(d)

    def test_unit_cube_is_one(self):
        assert volume(hull_polytope(_frac_points(_CUBE))) == Fraction(1)
        assert volume(hull_polytope(_CUBE)) == 1

    @pytest.mark.parametrize("points", [((0,), (1,), (3,)), RIGHT_TRIANGLE_EXACT, TETRAHEDRON],
                             ids=["digits013", "triangle", "tetrahedron"])
    def test_exact_image_scaling(self, points):
        lam = Fraction(4, 5)
        s = new_ifs(lam, _frac_points(points))
        base = volume(s.omega)
        for w in [(0,), (1, 2 % s.m), (0, 1, 2 % s.m)]:
            assert volume(image_polytope(s, w)) == lam ** (s.d * len(w)) * base


def _fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.2, 0.9),
    word=st.lists(st.integers(0, 2), min_size=1, max_size=6).map(tuple),
)
def test_volume_scaling_property(lam, word):
    s = new_ifs(lam, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    img = image_polytope(s, word)
    assert volume(img) / volume(s.omega) == pytest.approx(lam ** (2 * len(word)), rel=1e-9)


def test_sample_uniform_stays_inside():
    rng = np.random.default_rng(3)
    pts = sample_uniform(UNIT_TRIANGLE, 500, rng)
    assert contains_many(UNIT_TRIANGLE, pts).all()
    assert len(pts) == 500


def test_all_hit_volume_estimate_keeps_a_one_over_n_error():
    # every draw from the unit square's bounding box hits: f = 1, and f(1-f)
    # is floored at 1/n, so the error is 1/n rather than zero
    square = hull_polytope([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert volume_mc(square, 1000, 1) == (1.0, 0.001)
    assert binomial_stderr(0.0, 1000) == binomial_stderr(1.0, 1000) == 0.001
    assert binomial_stderr(0.3, 100) == math.sqrt(0.3 * 0.7 / 100)


@pytest.mark.parametrize("n", [0, -3])
def test_zero_samples_rejected(n):
    with pytest.raises(ValueError, match="need at least one sample"):
        sample_uniform(UNIT_TRIANGLE, n, np.random.default_rng(0))
    with pytest.raises(ValueError, match="need at least one sample"):
        volume_mc(UNIT_INTERVAL, n, seed=1)


# ---------------------------------------------------------------------------
# facets in every dimension against membership in simplices of the generators


def _frac_points(pts):
    return [tuple(Fraction(v) for v in p) for p in pts]


_TET = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
_CUBE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
_HULL10 = [tuple(v) for v in np.random.default_rng(11).uniform(0, 1, size=(10, 3)).round(3)]
_SIMPLEX4 = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)]
_INTERVAL = [(0,), (1,), (3,)]
_SQUARE_MIDPOINTS = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5)]
_PENTAGON = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(5, 2), Fraction(3, 2)),
             (Fraction(1), Fraction(7, 3)), (Fraction(-1, 2), Fraction(4, 3))]
_RANDOM6 = [tuple(v) for v in np.random.default_rng(12).uniform(0, 1, size=(6, 2)).round(3)]
_RANDOM40 = [tuple(v) for v in np.random.default_rng(13).uniform(0, 1, size=(40, 2)).round(3)]
FACET_CASES = {"tetrahedron": _TET, "cube": _CUBE, "hull10": _HULL10, "simplex4": _SIMPLEX4,
               "interval": _INTERVAL, "square-midpoints": _SQUARE_MIDPOINTS,
               "pentagon": _PENTAGON, "random6": _RANDOM6, "random40": _RANDOM40}


def _exact_probes(gens, rng, count):
    """Generators, midpoints and centroids of generator triples (on faces and
    inside), and small-denominator rationals around the bounding box."""
    gens = _frac_points(gens)
    d = len(gens[0])
    out = list(gens)
    for _ in range(count):
        i, j, k = rng.choice(len(gens), 3, replace=False)
        out.append(tuple((a + b) / 2 for a, b in zip(gens[i], gens[j])))
        out.append(tuple((a + b + c) / 3 for a, b, c in zip(gens[i], gens[j], gens[k])))
        out.append(tuple(Fraction(int(v), 12) for v in rng.integers(-2, 15, size=d)))
    return out


@pytest.mark.parametrize("name", list(FACET_CASES))
def test_exact_facets_match_lp(name):
    gens = _frac_points(FACET_CASES[name])
    poly = hull_polytope(gens)
    assert poly.halfspaces is not None
    rng = np.random.default_rng(7)
    for x in _exact_probes(gens, rng, 40):
        assert contains(poly, x) == in_hull_exact(gens, x), x


@pytest.mark.parametrize("name", list(FACET_CASES))
def test_float_facets_match_lp(name):
    gens = [tuple(float(v) for v in g) for g in FACET_CASES[name]]
    poly = hull_polytope(gens)
    d = poly.dim
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.2, 1.2, size=(300, d)) * np.max(gens, axis=0)
    verts = np.array(gens)
    pts = np.vstack([pts, verts, (verts[:-1] + verts[1:]) / 2])
    for x in map(tuple, pts):
        assert in_hull_exact(gens, x) == contains(poly, x, tol=1e-9) or _near_edge(poly, x)
    assert np.array_equal(contains_many(poly, pts), [contains(poly, tuple(x)) for x in pts])


def test_facet_counts():
    assert len(hull_polytope(_INTERVAL).halfspaces) == 2
    assert len(hull_polytope(_SQUARE_MIDPOINTS).halfspaces) == 4  # midpoints lie on the edges
    assert len(hull_polytope(_PENTAGON).halfspaces) == 5
    assert len(hull_polytope(_TET).halfspaces) == 4
    assert len(hull_polytope(_CUBE).halfspaces) == 6  # coplanar face vertices kept
    assert len(hull_polytope(_SIMPLEX4).halfspaces) == 5


def test_degenerate_hulls_raise():
    cases = [
        ([(0.0, 0.0, 0.5), (1.0, 0.0, 0.5), (0.0, 1.0, 0.5), (1.0, 1.0, 0.5)], 2),
        ([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(6))], 1),
        ([(0, 0, 0), (1, 2, 3), (-2, -4, -6), (3, 6, 9)], 1),  # rank d-2
        ([(0.5, 0.0, 1.0, 2.0), (1.5, 1.0, 1.0, 2.0), (0.0, 2.0, 1.0, 2.0), (2.5, 5.0, 1.0, 2.0)], 2),
        ([(Fraction(1, 3), 0, 0, 1), (Fraction(2, 3), 1, 2, 1), (0, -1, -2, 1), (1, 2, 4, 1)], 1),  # d-3
        ([(1, 2, 3), (1, 2, 3)], 0),
    ]
    for points, rank in cases:
        with pytest.raises(DegenerateAffineHull, match=f"affine dimension {rank} < {len(points[0])};"):
            hull_polytope(points)


def _cofactor_facets(gens):
    """Independent facet oracle: (primitive integer N, B) of each N.x <= B
    through d generators with every generator inside, from Fraction cofactors."""
    pts = sorted(set(_frac_points(gens)))
    d = len(pts[0])
    rows = set()
    for sub in itertools.combinations(pts, d):
        diff = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        n = [(-1) ** k * _fraction_det([r[:k] + r[k + 1:] for r in diff]) for k in range(d)]
        s = [sum(a * (v - w) for a, v, w in zip(n, p, sub[0])) for p in pts]
        if not any(n) or (max(s) > 0 and min(s) < 0):
            continue
        row = [-a if max(s) > 0 else a for a in n + [sum(a * v for a, v in zip(n, sub[0]))]]
        ints = [int(v * math.lcm(*(w.denominator for w in row))) for v in row]
        rows.add(tuple(v // math.gcd(*ints) for v in ints))
    return rows


@pytest.mark.parametrize("kind", ["integer", "rational", "float"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_facets_equal_fraction_cofactor_oracle(d, kind):
    rng = np.random.default_rng(60 + d)
    draw = {"integer": lambda: int(rng.integers(-5, 6)),
            "rational": lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))),
            "float": lambda: float(rng.uniform(-1, 1))}[kind]
    built = 0
    for _ in range(12):
        gens = [tuple(draw() for _ in range(d)) for _ in range(d + 1 + int(rng.integers(0, 4)))]
        try:
            poly = hull_polytope(gens)
        except DegenerateAffineHull:
            continue
        built += 1
        want = _cofactor_facets(gens)
        if kind == "float":  # the same rows scaled to a normal with largest entry 1
            want = {_float_row(row) for row in want}
            got = set(poly.halfspaces)
        else:
            got = {(*n, off) for n, off, _ in poly.halfspaces}
            assert all(sq == sum(a * a for a in n) for n, _, sq in poly.halfspaces)
        assert len(got) == len(poly.halfspaces) and got == want, gens
    assert built >= 6


def _float_row(row):
    *n, b = row
    g = math.gcd(*n)
    big = max(abs(a) for a in n) // g
    nf = tuple(a // g / big for a in n)
    return nf, float(Fraction(b, g * big)), sum(a * a for a in nf)


@pytest.mark.parametrize("name", ["tetrahedron-0.8", "tetrahedron-0.8-f012", "hull10"])
def test_float_volume_agrees_with_monte_carlo(name):
    tet = new_ifs(0.8, TETRAHEDRON)
    poly = {"tetrahedron-0.8": tet.omega, "tetrahedron-0.8-f012": image_polytope(tet, (0, 1, 2)),
            "hull10": hull_polytope(_HULL10)}[name]
    got = volume(poly)
    est, err = volume_mc(poly, 100_000, seed=9)
    assert isinstance(got, float) and abs(got - est) <= 4 * err


def test_exact_entries_stay_int_where_whole():
    # exact facets are integer rows, also where the generators are not integers
    skew = hull_polytope([(Fraction(1, 3), Fraction(1, 7)), (Fraction(5, 2), Fraction(2, 9)),
                          (Fraction(3, 4), Fraction(9, 5))])
    for poly in (hull_polytope(RIGHT_TRIANGLE_EXACT), hull_polytope(_TET), skew):
        for n, off, sq in poly.halfspaces:
            assert all(type(v) is int for v in (*n, off, sq))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rational_hulls_store_primitive_integer_rows(d):
    rng = np.random.default_rng(20 + d)
    for _ in range(5):
        gens = [tuple(Fraction(int(a), int(b)) for a, b in zip(rng.integers(-9, 10, size=d),
                                                                rng.integers(1, 13, size=d)))
                for _ in range(d + 3)]
        try:
            poly = hull_polytope(gens)
        except DegenerateAffineHull:
            continue
        for n, off, sq in poly.halfspaces:
            assert all(type(v) is int for v in (*n, off, sq))
            assert math.gcd(*n, off) == 1 and sq == sum(a * a for a in n)
        for x in _exact_probes(gens, rng, 20):
            assert contains(poly, x) == in_hull_exact(gens, x), x


def test_float_halfspaces_of_lattice_systems():
    # the benchmark's right triangle and {0,1,3} digit intervals: their
    # exact facets round to these values, normals scaled to a largest entry of 1
    tri = {((-1.0, 0.0), 0.0, 1.0), ((0.0, -1.0), 0.0, 1.0), ((1.0, 1.0), 1.0, 2.0)}
    assert set(triangle_system(0.7).omega.halfspaces) == tri
    for lam in (0.35, 0.45):
        hi = lam * 3 / (1 - lam)  # as_ifs's anchor of the digit 3
        want = {((-1.0,), 0.0, 1.0), ((1.0,), hi, 1.0)}
        assert set(as_ifs(DigitSet((0, 1, 3)), lam).omega.halfspaces) == want
