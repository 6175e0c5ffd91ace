from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifslab import geometry
from ifslab.core import new_ifs
from ifslab.errors import DimensionMismatch, UnsupportedDimension
from ifslab.geometry import (
    contains,
    contains_many,
    hull_polytope,
    image_polytope,
    margin_verdict,
    np_halfspaces,
    sample_uniform,
    volume,
    volume_mc,
)
from ifslab.linfeas import convex_combination_residual, halfspace_interior_slack

from helpers import triangle_system, unit_system

UNIT_TRIANGLE = hull_polytope([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
UNIT_INTERVAL = hull_polytope([(0.0,), (1.0,)])


class TestContains:
    def test_interval(self):
        assert contains(UNIT_INTERVAL, (0.5,))
        assert contains(UNIT_INTERVAL, (0.0,))
        assert not contains(UNIT_INTERVAL, (1.1,))

    def test_boundary_fails_interior_margin(self):
        assert not contains(UNIT_INTERVAL, (0.0,), margin=0.01)
        assert contains(UNIT_INTERVAL, (0.5,), margin=0.01)

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
            big = contains(UNIT_TRIANGLE, x, margin=0.05)
            small = contains(UNIT_TRIANGLE, x, margin=0.01)
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

    def test_exact_interior_margin(self):
        seg = hull_polytope([(Fraction(0),), (Fraction(1),)])
        m = Fraction(1, 4)
        assert contains(seg, (Fraction(1, 4),), margin=m)
        assert not contains(seg, (Fraction(1, 4) - Fraction(1, 10**20),), margin=m)


class TestLinearFeasibilityPath:
    def test_tetrahedron_membership(self):
        tet = hull_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert contains(tet, (0.2, 0.2, 0.2))
        assert not contains(tet, (0.5, 0.5, 0.5))
        assert contains(tet, (0.2, 0.2, 0.2), margin=1e-3)
        assert not contains(tet, (0.0, 0.0, 0.0), margin=1e-3)

    def test_residual_agrees_with_halfspaces_2d(self):
        rng = np.random.default_rng(1)
        gens = [tuple(v) for v in rng.uniform(0, 1, size=(6, 2))]
        poly = hull_polytope(gens)
        for _ in range(120):
            x = tuple(rng.uniform(-0.2, 1.2, size=2))
            by_lp = float(convex_combination_residual(gens, x)) <= 1e-9
            assert by_lp == contains(poly, x, tol=1e-9) or _near_edge(poly, x)

    def test_interior_slack_signs(self):
        hs = [(n, off) for n, off, _ in UNIT_TRIANGLE.halfspaces]
        assert halfspace_interior_slack(hs) > 0
        # shifted apart: empty intersection
        hs_empty = [((1.0,), 0.0), ((-1.0,), -1.0)]  # x <= 0 and x >= 1
        assert halfspace_interior_slack(hs_empty) is None


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

    def test_dim3_exact_raises(self):
        tet = hull_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(UnsupportedDimension):
            volume(tet)
        est, err = volume_mc(tet, 4000, seed=5)
        assert est == pytest.approx(1 / 6, abs=4 * err + 0.01)


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


# ---------------------------------------------------------------------------
# d >= 3 facets against the convex-combination LP


def _frac_points(pts):
    return [tuple(Fraction(v) for v in p) for p in pts]


_TET = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
_CUBE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
_HULL10 = [tuple(v) for v in np.random.default_rng(11).uniform(0, 1, size=(10, 3)).round(3)]
_SIMPLEX4 = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)]
FACET_CASES = {"tetrahedron": _TET, "cube": _CUBE, "hull10": _HULL10, "simplex4": _SIMPLEX4}


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
        assert contains(poly, x) == (convex_combination_residual(gens, x) == 0), x


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
        by_lp = float(convex_combination_residual(gens, x)) <= 1e-9
        assert by_lp == contains(poly, x, tol=1e-9) or _near_edge(poly, x)
    assert np.array_equal(contains_many(poly, pts), [contains(poly, tuple(x)) for x in pts])


def test_facet_counts():
    assert len(hull_polytope(_TET).halfspaces) == 4
    assert len(hull_polytope(_CUBE).halfspaces) == 6  # coplanar face vertices kept
    assert len(hull_polytope(_SIMPLEX4).halfspaces) == 5


def test_planar_hull_in_3d_keeps_lp():
    gens = [(0.0, 0.0, 0.5), (1.0, 0.0, 0.5), (0.0, 1.0, 0.5), (1.0, 1.0, 0.5)]
    poly = hull_polytope(gens)
    assert poly.halfspaces is None and poly.float_halfspaces is None
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.uniform(-0.2, 1.2, size=(40, 3)), [[0.3, 0.6, 0.5], [1.0, 1.0, 0.5]]])
    pts[::2, 2] = 0.5
    want = [float(convex_combination_residual(gens, tuple(x))) <= 1e-9 for x in pts]
    assert [contains(poly, tuple(x)) for x in pts] == want
    assert contains_many(poly, pts).tolist() == want
    assert contains_many(poly, pts.reshape(2, -1, 3)).shape == (2, len(pts) // 2)
    with pytest.raises(UnsupportedDimension):
        np_halfspaces(poly)


def test_dim3_lp_serves_only_margin_tests(monkeypatch):
    calls = []

    def counting(points, x, min_weight=0):
        calls.append(min_weight)
        return convex_combination_residual(points, x, min_weight=min_weight)

    monkeypatch.setattr(geometry, "convex_combination_residual", counting)
    tet = hull_polytope(_TET)
    assert contains(tet, (0.2, 0.2, 0.2)) and contains(tet, (Fraction(1, 3),) * 3)
    assert calls == []
    # a simplex decides a margin test from its exact weights; any other hull asks the LP
    assert contains(tet, (0.2, 0.2, 0.2), margin=1e-3)
    assert calls == []
    assert contains(hull_polytope(_CUBE), (0.5, 0.5, 0.5), margin=1e-3)
    assert len(calls) == 1 and calls[0] > 0


def _lp_margin_verdict(poly, x, margin, tol):
    """The weights-margin verdict of `contains` taken from the LP alone."""
    lo, hi = poly.bounding_box()
    span = max(Fraction(h) - Fraction(l) for l, h in zip(lo, hi))
    delta = Fraction(margin) / (len(poly.generators) * max(Fraction(1), span))
    res = convex_combination_residual(poly.generators, x, min_weight=delta)
    exact = poly.is_exact and all(isinstance(v, Rational) for v in x + (margin,))
    return res == 0 if exact else float(res) <= tol


def _simplex_probes(gens, rng, delta):
    """Points by their exact barycentric weights: inside, on a facet, on an
    edge, outside, at weight delta, and short of delta by a hair (inside
    the float tol shell), by amounts across the shell's edge and by a lot."""
    size = len(gens)
    hair = Fraction(1, 10**11)
    weights = []
    for _ in range(4):
        i, j = rng.choice(size, 2, replace=False)
        w = [Fraction(int(v), 1000) for v in rng.integers(1, 400, size=size)]
        for cut in (w, [0 if k == i else v for k, v in enumerate(w)],
                    [v if k in (i, j) else 0 for k, v in enumerate(w)]):
            weights.append([v / sum(cut) for v in cut])
        across = [delta - Fraction(10 ** float(e)) for e in rng.uniform(-10, -8, size=3)]
        for wi in [-Fraction(1, 10), delta, delta - hair, delta + hair, delta - Fraction(1, 3), *across]:
            u = [Fraction(1, size)] * size
            u[i] = wi
            u[j] += 1 - sum(u)
            weights.append(u)
    return [tuple(sum(wl * g[k] for wl, g in zip(w, gens)) for k in range(len(gens[0])))
            for w in weights]


_SKEW = [(0, 0, 0), (2, Fraction(1, 2), 0), (Fraction(1, 4), Fraction(3, 2), 0),
         (Fraction(1, 2), Fraction(3, 4), Fraction(5, 4))]
SIMPLEX_CASES = {"tetrahedron": _TET, "skew": _SKEW, "simplex4": _SIMPLEX4,
                 "simplex4-small": [tuple(Fraction(v, 7) for v in g) for g in _SIMPLEX4]}


@pytest.mark.parametrize("name", list(SIMPLEX_CASES))
@pytest.mark.parametrize("arith", ["float", "exact"])
def test_weights_margin_matches_lp(name, arith):
    """Seeded probes: the LP-free verdict never disagrees with the LP."""
    gens = _frac_points(SIMPLEX_CASES[name])
    conv = Fraction if arith == "exact" else float
    poly = hull_polytope([tuple(conv(v) for v in g) for g in gens])
    assert poly.barycentric is not None
    rng = np.random.default_rng(12)
    big = 2 * poly.weight_scale  # delta * m > 1: the LP's early return
    decided = disagree = total = 0
    for margin in (1e-9, 1e-3, Fraction(1, 50), big):
        delta = Fraction(margin) / poly.weight_scale
        for p in _simplex_probes(gens, rng, delta):
            x = tuple(conv(v) for v in p)
            want = _lp_margin_verdict(poly, x, margin, 1e-9)
            fast = margin_verdict(poly, x, margin, tol=1e-9)
            decided += fast is not None
            disagree += fast not in (None, want)
            disagree += contains(poly, x, margin=margin) != want
            total += 1
    assert disagree == 0
    assert 0 < decided < total
