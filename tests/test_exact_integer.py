"""The exact path on integers, checked against Fraction references kept here.

`geometry.contains` (exact path) computes with integer numerators instead
of one Fraction per operation.  The exact address walk (`classify_point`,
`enumerate_prefixes`, `first_bifurcation`, `feasible_children`) carries
each remainder as one integer state (N_1, ..., N_d, D) through
`core._children_exact`, and `core.apply_inverse` takes the same integer
step.  `triangle.digit_forcing` and `triangle.gamma_uniqueness_scan` walk
their forced chains through the same kernel, by the one chain walker
`addresses._chain`, on the corner triangle (1,0), (0,1), (0,0).  Each
reference below is the plain Fraction formula, the address walker a
node-at-a-time loop over Fraction tuples; the fast paths must agree with
it exactly, verdicts, counts, certificates and remainders.
"""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ifslab import addresses, core, triangle
from ifslab.addresses import (
    ChainKind,
    ForcedChain,
    Mode,
    Verdict,
    classify_point,
    enumerate_prefixes,
    feasible_children,
    first_bifurcation,
)
from ifslab.cli import main
from ifslab.core import apply_inverse, image_polytope, new_ifs, project_prefix
from ifslab.errors import BudgetExceeded
from ifslab.geometry import contains, contains_many, hull_polytope
from ifslab.triangle import (
    BarycentricTriple,
    digit_forcing,
    gamma_uniqueness_scan,
    pi_point,
    pi_prime_point,
)

from helpers import RIGHT_TRIANGLE, TETRAHEDRON, in_gamma_region

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
            return ForcedChain(ChainKind.DEAD_END, tuple(digits))
        if len(feasible) >= 2:
            return ForcedChain(ChainKind.FORCED_PREFIX_THEN_BRANCH, tuple(digits))
        d, state = feasible[0]
        digits.append(d)
        if state in seen:
            return ForcedChain(ChainKind.UNIQUE_BY_CYCLE, tuple(digits), seen[state])
        seen[state] = step + 1
    return ForcedChain(ChainKind.EXHAUSTED, tuple(digits))


def test_digit_forcing_matches_fraction_reference():
    rng = np.random.default_rng(5)
    kinds = set()
    for k in range(501, 1000, 3):
        lam = F(k, 1000)
        targets = [pi_point(lam).as_tuple(), pi_prime_point(lam).as_tuple(),
                   (F(1), F(0), F(0)), (F(0), F(1, 2), F(1, 2)), (F(1, 3), F(0), F(2, 3)),
                   # outside the triangle: one or two coordinates negative
                   (F(-1, 3), F(2, 3), F(2, 3)), (F(3, 2), F(-1, 4), F(-1, 4)),
                   (F(1, 5), F(-1, 10), F(9, 10)),
                   # vertices and edge points given as ints, or ints mixed with Fractions
                   (0, 1, 0), (0, 0, 1), (F(1, 2), F(1, 2), 0), (0, F(2, 7), F(5, 7)),
                   (1, F(1, 3), F(-1, 3)), (2, -1, 0)]
        for _ in range(3):
            den = int(rng.integers(2, 5000))
            a, b = sorted(int(v) for v in rng.integers(0, den + 1, size=2))
            targets.append((F(a, den), F(b - a, den), F(den - b, den)))
        for t, steps in itertools.product(targets, (0, 2, 60)):
            got = digit_forcing(lam, t, max_steps=steps)
            assert got == _forcing_reference(lam, t, steps), (lam, t)
            kinds.add(got.kind)
    assert kinds == set(ChainKind)


def _gamma_reference(lam, resolution, max_steps, visit):
    out = []
    for ix in range(1, resolution):
        for iy in range(1, resolution - ix):
            t = BarycentricTriple(F(ix, resolution), F(iy, resolution),
                                  F(resolution - ix - iy, resolution))
            if any(in_gamma_region(t, i, lam) for i in range(3)):
                visit.append(t)
                r = _forcing_reference(lam, t.as_tuple(), max_steps)
                if r.kind is ChainKind.UNIQUE_BY_CYCLE:
                    out.append((t, r))
    return out


@pytest.mark.parametrize("resolution", [24, 31, 60])
def test_gamma_scan_matches_fraction_reference(resolution, monkeypatch):
    visited = []
    chain = triangle._chain

    def recording(sys, exact, state, max_steps):
        x, y, den = state  # the cell (x, y, den - x - y)/den of the corner triangle
        visited.append(BarycentricTriple(F(x, den), F(y, den), F(den - x - y, den)))
        return chain(sys, exact, state, max_steps)

    monkeypatch.setattr(triangle, "_chain", recording)
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
    for pts in POLYTOPES.values():
        s = new_ifs(F(13, 20), pts)
        for x in [(F(1, 3), F(1, 4), F(2, 9)), (0, 1, 0), (F(-7, 9), F(22, 7), 5)]:
            x = x[:s.d]
            for j, p in enumerate(s.points):
                want = tuple((F(xi) - (1 - s.lam) * pi) / s.lam for xi, pi in zip(x, p))
                got = apply_inverse(s, j, x)
                assert got == want and all(type(v) is Fraction for v in got)
            state = core._state(x)  # the integer state apply_inverse steps from
            assert core._fractions(state) == tuple(F(v) for v in x)
            assert math.gcd(*state) == 1 and state[-1] > 0


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



# ---------------------------------------------------------------------------
# the exact address walk against a Fraction reference walker


WALK_SYSTEMS = {
    "digits01-13/20": (F(13, 20), [(0,), (1,)]),
    "digits013-11/20": (F(11, 20), [(0,), (1,), (3,)]),
    "triangle-7/10": (F(7, 10), RIGHT_TRIANGLE),
    "skew-triangle-5/7": (F(5, 7), POLYTOPES["skew-triangle"]),
    "rectangle-3/5": (F(3, 5), [(0, 0), (2, 0), (2, 1), (0, 1)]),
    "tetrahedron-3/4": (F(3, 4), TETRAHEDRON),
    "skew-tetrahedron-4/5": (F(4, 5), POLYTOPES["skew-tetrahedron"]),
}


def _walk_system(name):
    lam, pts = WALK_SYSTEMS[name]
    return new_ifs(lam, _exact(pts))


def _ref_children(sys, x):
    """[(j, f_j^{-1}(x))] in plain Fractions, tested on the facets in Fractions."""
    lam = F(sys.lam)
    out = []
    for j, p in enumerate(sys.points):
        y = tuple((F(v) - (1 - lam) * F(pv)) / lam for v, pv in zip(x, p))
        if _contains_reference(sys.omega, y):
            out.append((j, y))
    return out


def _ref_first_bifurcation(sys, x, depth):
    for dep in range(depth):
        ch = _ref_children(sys, x)
        if len(ch) != 1:
            return dep if ch else None
        x = ch[0][1]
    return None


def _ref_levels(sys, x, depth, budget):
    """[[(prefix, remainder)] per depth], node-major; BudgetExceeded past `budget` nodes."""
    levels = [[((), tuple(x))]]
    total = 1
    for _ in range(depth):
        level = [(w + (j,), y) for w, r in levels[-1] for j, y in _ref_children(sys, r)]
        total += len(level)
        if total > budget:
            raise BudgetExceeded
        levels.append(level)
        if not level:
            break
    return levels


def _ref_classify(sys, x, depth, certified, budget):
    """(verdict, explored, first bifurcation, counts, cycle) from a walk one node at a time.

    The first node of a level with two children certifies multiplicity
    under `certified`, when its first child's index in the level is at most
    the room left in the budget; a single chain certifies uniqueness at the
    first remainder it has seen before.
    """
    x = tuple(x)
    frontier, counts, bif, seen, chain, total = [x], [1], None, {x: 0}, [], 1
    for dep in range(depth):
        level, room = [], budget - total
        for r in frontier:
            ch = _ref_children(sys, r)
            if len(ch) >= 2 and bif is None:
                bif = dep
                if certified and len(level) <= room:
                    return "multiple-certified", dep + 1, bif, counts + [len(level) + len(ch)], None
            level += ch
        total += len(level)
        if total > budget:
            raise BudgetExceeded
        counts.append(len(level))
        if not level:
            return "unknown", dep + 1, bif, counts, None
        frontier = [y for _, y in level]
        if chain is not None and len(level) == 1:
            chain.append(level[0][0])
            y = frontier[0]
            if y in seen:
                return "unique-certified", dep + 1, bif, counts, (seen[y], dep + 1 - seen[y], tuple(chain))
            seen[y] = dep + 1
        else:
            chain = None
    return "multiple-likely" if counts[-1] >= 2 else "unknown", depth, bif, counts, None


def _walk_points(sys, rng):
    """Rationals of unequal denominators in and near Omega, ints mixed in, and periodic points."""
    lo, hi = (tuple(F(v) for v in b) for b in sys.omega.bounding_box())
    out = [tuple(sys.points[0])]
    for _ in range(5):
        dens = rng.integers(2, 400, size=sys.d).tolist()
        out.append(tuple(a + F(int(rng.integers(0, k + 1)), k) * (b - a)
                         for a, b, k in zip(lo, hi, dens)))
    out.append(tuple(int(v) for v in lo))
    zero = (F(0),) * sys.d
    for w in ((0,), (1, 0), (sys.m - 1, 0, 1), (0, 0, 1)):
        out.append(tuple(v / (1 - sys.lam ** len(w)) for v in project_prefix(sys, w, zero)))
    return out


def _report(rep):
    c = rep.certificate
    return (rep.verdict.value, rep.explored_depth, rep.first_bifurcation, rep.prefix_counts,
            None if c is None else (c.entry_depth, c.period, c.digits))


def _walk_outputs(sys, x, depth):
    tree = enumerate_prefixes(sys, x, depth)
    return (feasible_children(sys, x), first_bifurcation(sys, x, 3 * depth), tree.counts,
            [[(nd.prefix, nd.remainder) for nd in lv] for lv in tree.levels],
            _report(classify_point(sys, x, 2 * depth)),
            _report(classify_point(sys, x, 3 * depth, mode=Mode.EXACT_NO_HOLES,
                                   no_holes_certified=True)))


@pytest.mark.parametrize("name", list(WALK_SYSTEMS))
def test_exact_walk_matches_fraction_reference_walker(name):
    sys = _walk_system(name)
    depth = 5 if sys.d < 3 else 4  # trees grow like (m*lam)^depth
    rng = np.random.default_rng(len(name))
    verdicts = set()
    for x in _walk_points(sys, rng):
        inside = _contains_reference(sys.omega, tuple(F(v) for v in x))
        assert feasible_children(sys, x) == tuple(j for j, _ in _ref_children(sys, x))
        assert first_bifurcation(sys, x, 40) == _ref_first_bifurcation(sys, x, 40)
        tree = enumerate_prefixes(sys, x, depth)
        want = _ref_levels(sys, x, depth, addresses.NODE_BUDGET)
        assert tree.counts == [len(lv) for lv in want]
        got = [[(nd.prefix, nd.remainder) for nd in lv] for lv in tree.levels]
        assert got == want
        assert all(type(v) is Fraction for lv in tree.levels[1:] for nd in lv for v in nd.remainder)
        for certified in (False, True) if inside else (False,):
            rep = classify_point(sys, x, 2 * depth, no_holes_certified=certified)
            assert rep.exact
            assert _report(rep) == _ref_classify(sys, x, 2 * depth, certified, addresses.NODE_BUDGET)
            verdicts.add(rep.verdict.value)
    assert len(verdicts) >= 2


def test_exact_walk_inputs_reach_every_verdict():
    seen = set()
    for name in WALK_SYSTEMS:
        sys = _walk_system(name)
        depth = 10 if sys.d < 3 else 8  # as in the comparison above
        for x in _walk_points(sys, np.random.default_rng(len(name))):
            inside = _contains_reference(sys.omega, tuple(F(v) for v in x))
            for certified in (False, True) if inside else (False,):
                seen.add(classify_point(sys, x, depth, no_holes_certified=certified).verdict.value)
    assert seen == {"unique-certified", "multiple-certified", "multiple-likely", "unknown"}


@pytest.mark.parametrize("name, x", [
    ("digits013-11/20", (F(7, 5),)),
    ("triangle-7/10", (F(2, 7), F(1, 3))),
    ("tetrahedron-3/4", (F(1, 5), F(2, 7), F(1, 4))),
])
def test_exact_walk_budget_matches_fraction_reference_walker(name, x, monkeypatch):
    sys = _walk_system(name)
    raised = set()
    for budget in (3, 12, 40, 150):
        monkeypatch.setattr(addresses, "NODE_BUDGET", budget)
        for certified in (False, True):
            try:
                want = _ref_classify(sys, x, 8, certified, budget)
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded, match=f"exceeded {budget} nodes"):
                    classify_point(sys, x, 8, no_holes_certified=certified)
                raised.add(certified)
            else:
                assert _report(classify_point(sys, x, 8, no_holes_certified=certified)) == want
        try:
            want = _ref_levels(sys, x, 6, budget)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded, match=f"exceeded {budget} nodes"):
                enumerate_prefixes(sys, x, 6)
        else:
            assert [[(nd.prefix, nd.remainder) for nd in lv]
                    for lv in enumerate_prefixes(sys, x, 6).levels] == want
    assert False in raised  # a certified walk may certify before the budget runs out


def test_exact_walk_never_calls_apply_inverse(monkeypatch):
    cases = []
    for name in ("digits013-11/20", "skew-triangle-5/7", "skew-tetrahedron-4/5"):
        sys = _walk_system(name)
        for x in _walk_points(sys, np.random.default_rng(1)):
            if _contains_reference(sys.omega, tuple(F(v) for v in x)):
                cases.append((sys, x, _walk_outputs(sys, x, 4)))

    def refuse(*args):
        raise AssertionError("the exact walk stepped through apply_inverse")

    monkeypatch.setattr(core, "apply_inverse", refuse)
    with pytest.raises(AssertionError, match="apply_inverse"):
        core._children(cases[0][0], cases[0][1])  # the patch reaches the scalar float kernel
    assert len(cases) >= 12
    for sys, x, want in cases:
        assert _walk_outputs(sys, x, 4) == want


def test_digit_forcing_expands_only_through_the_core_kernel(monkeypatch):
    calls = []
    kernel = addresses._children_exact  # where the forced-chain walker reads it

    def counting(sys, state):
        calls.append(state)
        return kernel(sys, state)

    built = []

    class CountingTriple(BarycentricTriple):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(addresses, "_children_exact", counting)
    monkeypatch.setattr(triangle, "BarycentricTriple", CountingTriple)
    kinds = set()
    for lam in (F(2, 5), F(3, 5), F(7, 10)):
        for t in (pi_point(lam).as_tuple(), (F(1, 2), F(1, 4), F(1, 4)), (1, 0, 0)):
            for steps in (0, 2, 200):
                calls.clear()
                r = digit_forcing(lam, t, max_steps=steps)
                kinds.add(r.kind)
                # one call per walked node: the last node of a fork or dead end is walked too
                walked = r.step + (r.kind in (ChainKind.FORCED_PREFIX_THEN_BRANCH,
                                              ChainKind.DEAD_END))
                assert len(calls) == walked, (lam, t, steps, r)
    assert kinds == set(ChainKind)
    # the scan builds a triple for a hit only: none on the 40-grid at 2/3, six on the 19-grid
    for resolution, hits in ((40, 0), (19, 6)):
        calls.clear()
        built.clear()
        assert len(gamma_uniqueness_scan(F(2, 3), resolution, max_steps=100)) == hits
        assert len(calls) > 0 and len(built) == hits
    # a new lam builds only its IfsSystem: the corner hull is the one built at import
    digit_forcing(F(5, 11), pi_point(F(5, 11)))
    assert triangle._corner_system(F(5, 11)).omega is triangle._CORNERS.omega


@pytest.mark.parametrize("name", list(WALK_SYSTEMS))
def test_first_bifurcation_is_the_classification_fork(name):
    exact = _walk_system(name)
    approx = new_ifs(float(exact.lam), [tuple(map(float, p)) for p in exact.points])
    depth = 12 if exact.d == 1 else 8
    seen = set()
    for x in _walk_points(exact, np.random.default_rng(len(name))):
        for sys, pt in ((exact, x), (approx, tuple(map(float, x)))):
            for certified in (False, True):
                rep = classify_point(sys, pt, depth, no_holes_certified=certified)
                assert first_bifurcation(sys, pt, depth) == rep.first_bifurcation, (pt, certified)
                seen.add((sys.is_exact, rep.first_bifurcation is None))
    assert len(seen) >= 3  # forks and unforked chains, on both paths between them


def test_digit_forcing_agrees_with_classify_point_on_the_corner_triangle():
    # both walk the forced chain of (x, y) on the triangle (1,0), (0,1), (0,0)
    kinds = set()
    for k in range(501, 1000, 11):
        lam = F(k, 1000)
        sys = new_ifs(lam, [(1, 0), (0, 1), (0, 0)])
        for t in (pi_point(lam).as_tuple(), pi_prime_point(lam).as_tuple(), (F(1, 3),) * 3,
                  (1, 0, 0), (F(1, 2), F(1, 4), F(1, 4)), (F(1, 7), F(2, 7), F(4, 7)),
                  (F(-1, 3), F(2, 3), F(2, 3))):
            for steps in (2, 60):
                r = digit_forcing(lam, t, max_steps=steps)
                kinds.add(r.kind)
                closed = r.kind in (ChainKind.UNIQUE_BY_CYCLE, ChainKind.EXHAUSTED)
                rep = classify_point(sys, t[:2], r.step if closed else r.step + 1)
                assert rep.prefix_counts[:r.step + 1] == [1] * (r.step + 1)
                if r.kind is ChainKind.UNIQUE_BY_CYCLE:
                    c = rep.certificate
                    assert rep.verdict is Verdict.UNIQUE_CERTIFIED and rep.explored_depth == r.step
                    assert (c.entry_depth, c.period, c.digits) == (r.step - r.period, r.period,
                                                                  r.digits)
                    continue
                assert rep.certificate is None
                fork = r.step if r.kind is ChainKind.FORCED_PREFIX_THEN_BRANCH else None
                assert rep.first_bifurcation == fork
                assert (rep.prefix_counts[-1] == 0) == (r.kind is ChainKind.DEAD_END)
    assert kinds == set(ChainKind)


def _int_steps_reference(sys):
    """`IfsSystem.int_steps` built from Fraction copies of lam and of every shift."""
    lam = F(sys.lam)
    u, v = lam.numerator, lam.denominator
    sh = [[F(c) for c in s] for s in sys.shifts]
    q = math.lcm(*(c.denominator for s in sh for c in s))
    C = tuple(tuple(c.numerator * (q // c.denominator) for c in s) for s in sh)
    hs = sys.omega.halfspaces
    rows = tuple(tuple(v * q * a for a in n) for n, _, _ in hs)
    K = tuple(tuple(v * sum(a * b for a, b in zip(n, c)) + u * q * b for n, b, _ in hs) for c in C)
    return q, C, v, q * u, rows, K


@pytest.mark.parametrize("sys", [
    triangle._corner_system(F(2, 3)),
    triangle._corner_system(F(683, 1000)),
    new_ifs(F(3, 4), [(0, 0, 0), (F(3, 2), 0, 0), (0, F(1, 3), 0), (F(1, 5), F(2, 7), 1)]),
], ids=["corner-2/3", "corner-683/1000", "tetrahedron-3/4"])
def test_int_steps_matches_fraction_built_values(sys):
    got = sys.int_steps
    assert got == _int_steps_reference(sys)
    q, C, v, qu, rows, K = got
    ints = [q, v, qu, *itertools.chain(*C, *rows, *K)]
    assert all(type(a) is int for a in ints)

