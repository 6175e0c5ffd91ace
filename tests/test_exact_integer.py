"""The exact path on integers, checked against Fraction references kept here.

`geometry.contains` (exact, margin 0), `triangle.digit_forcing` and
`triangle.gamma_uniqueness_scan` compute with integer numerators instead of
one Fraction per operation, and `core.apply_inverse` reads cached shifts.
Each reference below is the plain Fraction formula; the fast paths must
agree with it exactly.
"""

from __future__ import annotations

import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ifslab import triangle
from ifslab.cli import main
from ifslab.core import apply_inverse, new_ifs
from ifslab.geometry import contains, contains_many, hull_polytope, image_polytope
from ifslab.triangle import (
    BarycentricTriple,
    ForcingKind,
    ForcingResult,
    digit_forcing,
    gamma_uniqueness_scan,
    in_gamma_region,
    pi_point,
    pi_prime_point,
)

from helpers import RIGHT_TRIANGLE, TETRAHEDRON

F = Fraction


def _exact(points):
    return tuple(tuple(F(v) for v in p) for p in points)


POLYTOPES = {
    "interval": _exact([(0,), (1,)]),
    "triangle": _exact(RIGHT_TRIANGLE),
    "square": _exact([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "tetrahedron": _exact(TETRAHEDRON),
    "skew-triangle": ((F(1, 3), F(1, 7)), (F(5, 2), F(2, 9)), (F(3, 4), F(9, 5))),
    "skew-tetrahedron": ((F(0), F(1, 3), F(0)), (F(7, 5), F(0), F(1, 11)),
                         (F(1, 2), F(9, 4), F(0)), (F(2, 3), F(2, 3), F(13, 6))),
}


def _contains_reference(poly, x):
    return all(off - sum(n * v for n, v in zip(ns, x)) >= 0 for ns, off, _ in poly.halfspaces)


def _boundary_points(poly, rng):
    """Vertices, rational points on each facet, and points a hair inside and outside them."""
    gens = list(poly.generators)
    out = list(gens)
    d = poly.dim
    for ns, off, _ in poly.halfspaces:
        on = [g for g in gens if sum(n * v for n, v in zip(ns, g)) == off]
        for _ in range(4):
            w = [F(int(k)) for k in rng.integers(1, 50, size=len(on))]
            p = tuple(sum(wi * g[k] for wi, g in zip(w, on)) / sum(w) for k in range(d))
            out.append(p)
            step = F(1, 10**30)
            out.append(tuple(v + step * n for v, n in zip(p, ns)))
            out.append(tuple(v - step * n for v, n in zip(p, ns)))
    return out


@pytest.mark.parametrize("name", list(POLYTOPES))
def test_exact_contains_matches_fraction_reference(name):
    poly = hull_polytope(POLYTOPES[name])
    rng = np.random.default_rng(11)
    lo, hi = poly.bounding_box()
    pts = _boundary_points(poly, rng)
    for _ in range(400):
        den = int(rng.integers(1, 10**6))
        pts.append(tuple(l - 1 / F(4) + F(int(rng.integers(0, 3 * den)), 2 * den) * (h - l)
                         for l, h in zip(lo, hi)))
    pts.append(tuple(F(0) if k else 1 for k in range(poly.dim)))  # int coordinates mixed in
    inside = [contains(poly, p) for p in pts]
    assert inside == [_contains_reference(poly, p) for p in pts]
    assert all(inside[:len(poly.generators)])  # every vertex is in
    assert 0 < sum(inside) < len(pts)


def _forcing_reference(lam, triple, max_steps):
    """The Fraction loop: three remainders x/(1-lam) shifted and divided by lam per step."""
    top = 1 / (1 - lam)
    state = tuple(v / (1 - lam) for v in triple)
    seen = {state: 0}
    digits = []
    for step in range(max_steps):
        feasible = []
        for d in range(3):
            nxt = tuple((state[c] - (1 if c == d else 0)) / lam for c in range(3))
            if all(0 <= v <= top for v in nxt):
                feasible.append((d, nxt))
        if not feasible:
            return ForcingResult(ForcingKind.DEAD_END, step, None, tuple(digits))
        if len(feasible) >= 2:
            return ForcingResult(ForcingKind.FORCED_PREFIX_THEN_BRANCH, step, None, tuple(digits))
        d, state = feasible[0]
        digits.append(d)
        if state in seen:
            return ForcingResult(ForcingKind.UNIQUE_BY_CYCLE, step + 1, step + 1 - seen[state],
                                 tuple(digits))
        seen[state] = step + 1
    return ForcingResult(ForcingKind.EXHAUSTED, max_steps, None, tuple(digits))


def test_digit_forcing_matches_fraction_reference():
    rng = np.random.default_rng(5)
    kinds = set()
    for k in range(501, 1000, 3):
        lam = F(k, 1000)
        targets = [pi_point(lam).as_tuple(), pi_prime_point(lam).as_tuple(),
                   (F(1), F(0), F(0)), (F(0), F(1, 2), F(1, 2)), (F(1, 3), F(0), F(2, 3))]
        for _ in range(3):
            den = int(rng.integers(2, 5000))
            a, b = sorted(int(v) for v in rng.integers(0, den + 1, size=2))
            targets.append((F(a, den), F(b - a, den), F(den - b, den)))
        for t, steps in itertools.product(targets, (2, 60)):
            got = digit_forcing(lam, t, max_steps=steps)
            assert got == _forcing_reference(lam, t, steps), (lam, t)
            kinds.add(got.kind)
    assert kinds == set(ForcingKind)


def _gamma_reference(lam, resolution, max_steps, visit):
    out = []
    for ix in range(1, resolution):
        for iy in range(1, resolution - ix):
            t = BarycentricTriple(F(ix, resolution), F(iy, resolution),
                                  F(resolution - ix - iy, resolution))
            if any(in_gamma_region(t, i, lam) for i in range(3)):
                visit.append(t)
                r = _forcing_reference(lam, t.as_tuple(), max_steps)
                if r.kind is ForcingKind.UNIQUE_BY_CYCLE:
                    out.append((t, r))
    return out


@pytest.mark.parametrize("resolution", [24, 31, 60])
def test_gamma_scan_matches_fraction_reference(resolution, monkeypatch):
    visited = []

    def recording(lam, target, max_steps):
        visited.append(target)
        return digit_forcing(lam, target, max_steps=max_steps)

    monkeypatch.setattr(triangle, "digit_forcing", recording)
    total = 0
    # 2/3 and 7/10 put res*(1-lam) or res*(1-lam)/lam on an integer
    for lam in [F(k, 1000) for k in range(667, 683)] + [F(2, 3), F(7, 10)]:
        want_visits = []
        want = _gamma_reference(lam, resolution, 120, want_visits)
        visited.clear()
        assert triangle.gamma_uniqueness_scan(lam, resolution, max_steps=120) == want, lam
        assert visited == want_visits, lam
        total += len(visited)
    assert total > 0


@pytest.mark.parametrize("lam", [0, F(3, 2), 1, -0.5])
def test_gamma_scan_rejects_lambda_outside_unit_interval(lam):
    with pytest.raises(ValueError, match="lambda must lie in"):
        gamma_uniqueness_scan(lam, 12)


@pytest.mark.parametrize("points", [[(0.0,), (1.0,)], RIGHT_TRIANGLE, TETRAHEDRON,
                                    [(0.1, 0.3), (2.0, -0.7), (1.3, 1.9), (-0.4, 1.1)]])
def test_float_apply_inverse_matches_inline_formula(points):
    rng = np.random.default_rng(8)
    for lam in (0.52, 0.55, 0.7, 1 / 3):
        s = new_ifs(lam, points)
        for x in rng.random((25, len(points[0]))).tolist():
            for j, p in enumerate(s.points):
                want = tuple((xi - (1 - lam) * pi) / lam for xi, pi in zip(x, p))
                assert repr(apply_inverse(s, j, x)) == repr(want)


def test_exact_apply_inverse_matches_fraction_formula():
    s = new_ifs(F(13, 20), POLYTOPES["skew-triangle"])
    for x in [(F(1, 3), F(1, 4)), (0, 1), (F(-7, 9), F(22, 7))]:
        for j, p in enumerate(s.points):
            want = tuple((F(xi) - (1 - s.lam) * pi) / s.lam for xi, pi in zip(x, p))
            got = apply_inverse(s, j, x)
            assert got == want and all(type(v) is Fraction for v in got)


IMAGE_CASES = {
    "interval": [(0,), (1,), (F(2, 5),)],
    "triangle": [(0, 0), (1, 0), (0, 1)],
    "pentagon": [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)],
    "tetrahedron": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("name", list(IMAGE_CASES))
def test_image_polytope_agrees_with_hull(name, exact):
    pts = IMAGE_CASES[name]
    pts = _exact(pts) if exact else [tuple(float(v) for v in p) for p in pts]
    lam = F(7, 10) if exact else 0.7
    s = new_ifs(lam, pts)
    rng = np.random.default_rng(len(pts))
    for w in [(), (0,), (1, 0), (2, 1, 0, 1)]:
        img = image_polytope(s, w)
        hull = hull_polytope(img.generators)
        assert img.generators == hull.generators and img.is_exact == exact
        assert all(contains(img, g) for g in img.generators)
        lo, hi = (np.array([float(v) for v in b]) for b in hull.bounding_box())
        box = lo - 0.2 * (hi - lo) + rng.random((300, s.d)) * 1.4 * (hi - lo)
        probe = [tuple(F(v) for v in p) for p in box.tolist()] if exact else box.tolist()
        inside = [contains(img, p) for p in probe]
        assert inside == [contains(hull, p) for p in probe]
        assert 0 < sum(inside) < len(probe)
        if not exact:
            assert contains_many(img, box).tolist() == inside


def test_classify_grid_over_budget_exits_3_with_one_line(tmp_path, capsys):
    p = tmp_path / "tet.json"
    p.write_text(json.dumps({"lambda": 0.8, "points": [list(q) for q in TETRAHEDRON]}))
    out = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        code = main(["classify-grid", "--ifs", str(p), "--resolution", "400", "--depth", "5",
                     "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: grid of resolution 400")
    assert not out.exists()

