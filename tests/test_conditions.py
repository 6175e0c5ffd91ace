import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifslab.conditions import (
    covering_deficiency,
    no_holes_sufficient,
    osc_failure_sufficient,
    pedicini_holds,
    vertex_overlap_witness,
    wn_coverage_estimate,
    wn_entry_depths,
    wn_membership,
)
from ifslab.core import apply_map, image_polytope, new_ifs, project_prefix
from ifslab import conditions, core, geometry
from ifslab.deleted_digits import DigitSet, as_ifs
from ifslab.errors import BudgetExceeded, CertificateRequired, PointOutsideOmega, UnsortedDigits
from ifslab.geometry import contains

from helpers import TETRAHEDRON, exact_twin, triangle_system, unit_system, verify_witness


class TestThresholds:
    def test_osc_triangle(self):
        ok, thr = osc_failure_sufficient(triangle_system(0.7))
        assert ok and thr == pytest.approx(0.57735026919, abs=1e-9)

    def test_osc_interval(self):
        ok, thr = osc_failure_sufficient(unit_system(0.51))
        assert ok and thr == 0.5

    def test_osc_below_threshold(self):
        # 0.5 < 3^(-1/2); the sharper triangle bound from the literature is
        # intentionally not asserted here
        ok, _ = osc_failure_sufficient(triangle_system(0.5))
        assert not ok

    def test_no_holes_thresholds(self):
        ok, thr = no_holes_sufficient(triangle_system(0.7))
        assert ok and thr == pytest.approx(2 / 3)
        ok, thr = no_holes_sufficient(unit_system(0.5))
        assert ok and thr == 0.5
        ok, thr = no_holes_sufficient(new_ifs(0.76, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert ok and thr == 0.75

    def test_thresholds_decided_on_exact_lambda(self):
        # the float 2/3 lies below 2/3, and the float 0.2 above 1/5
        assert no_holes_sufficient(triangle_system(Fraction(2, 3)))[0]
        assert not no_holes_sufficient(triangle_system(2 / 3))[0]
        five = [(k,) for k in range(5)]
        assert osc_failure_sufficient(new_ifs(0.2, five)) == (True, 0.2)
        assert osc_failure_sufficient(new_ifs(Fraction(1, 5), five)) == (False, 0.2)


class TestPedicini:
    def test_binary(self):
        ok, lhs, rhs = pedicini_holds((0, 1), 0.6)
        assert ok and lhs == 1 and rhs == pytest.approx(1.5)

    def test_gap_passes(self):
        ok, lhs, rhs = pedicini_holds((0, 1, 3), 0.45)
        assert ok and lhs == 2 and rhs == pytest.approx(2.454545454545, abs=1e-9)

    def test_gap_fails(self):
        ok, lhs, rhs = pedicini_holds((0, 1, 3), 0.35)
        assert not ok and rhs == pytest.approx(1.615384615, abs=1e-9)

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedDigits):
            pedicini_holds((1, 0), 0.5)
        with pytest.raises(UnsortedDigits):
            pedicini_holds((1,), 0.5)

    def test_nan_digit_rejected(self):
        with pytest.raises(UnsortedDigits, match="strictly increasing"):
            pedicini_holds((0, float("nan"), 3), 0.45)


def _seeded_digit_sets(seed, count):
    """`count` exact digit sets of 2-6 distinct integers in [-20, 20], sorted."""
    rng = np.random.default_rng(seed)
    return [tuple(sorted(int(v) for v in rng.choice(np.arange(-20, 21), size=m, replace=False)))
            for m in rng.integers(2, 7, size=count)]


def _images_cover(lam, anchors):
    """Do the intervals f_j([p_1, p_m]) cover [p_1, p_m]?  A Fraction sweep, left to right."""
    p = sorted(anchors)
    reach = p[0]
    for lo, hi in sorted((lam * p[0] + (1 - lam) * a, lam * p[-1] + (1 - lam) * a) for a in p):
        if lo > reach:
            return False
        reach = max(reach, hi)
    return reach >= p[-1]


class TestNoHolesRule:
    """One rule: lam_nh = g/(g+R) in d = 1 (largest anchor gap g, span R), d/(d+1) above."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_interval_threshold_is_where_the_images_start_to_cover(self, seed):
        for digits in _seeded_digit_sets(seed, 40):
            anchors = [Fraction(a, 7) for a in digits]
            thr = new_ifs(Fraction(1, 2), [(a,) for a in anchors]).no_holes[2]
            g = max(b - a for a, b in zip(anchors, anchors[1:]))
            assert thr == g / (g + anchors[-1] - anchors[0])
            assert _images_cover(thr, anchors)
            below = thr - Fraction(1, 1000)
            assert not _images_cover(below, anchors)
            assert new_ifs(thr, [(a,) for a in anchors]).no_holes[0]
            assert not new_ifs(below, [(a,) for a in anchors]).no_holes[0]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pedicini_is_the_strict_form(self, seed):
        for digits in _seeded_digit_sets(seed, 60):
            g, span = max(b - a for a, b in zip(digits, digits[1:])), digits[-1] - digits[0]
            for k in range(5, 100, 5):
                lam = Fraction(k, 100)
                rule = no_holes_sufficient(as_ifs(DigitSet(digits), lam))[0]
                equality = (1 - lam) * g == lam * span
                assert rule == (pedicini_holds(digits, lam)[0] or equality)

    @pytest.mark.parametrize("digits, lam", [((0, 1, 3), Fraction(2, 5)), ((1, 9), Fraction(1, 2))])
    def test_equality_is_certified(self, digits, lam):
        assert not pedicini_holds(digits, lam)[0]
        assert no_holes_sufficient(as_ifs(DigitSet(digits), lam)) == (True, float(lam))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_simplex_thresholds_stay_d_over_d_plus_1(self, d):
        simplex = [(0,) * d] + [tuple(int(i == k) for i in range(d)) for k in range(d)]
        at = Fraction(d, d + 1)
        assert new_ifs(at, simplex).no_holes == (True, d / (d + 1.0), at)
        assert no_holes_sufficient(new_ifs(at - Fraction(1, 1000), simplex)) == (False, d / (d + 1.0))
        cube = [tuple((v >> i) & 1 for i in range(d)) for v in range(2**d)]
        assert no_holes_sufficient(new_ifs(0.9, cube)) == (True, d / (d + 1.0))


@settings(max_examples=150, deadline=None)
@given(
    digits=st.lists(st.integers(-9, 9), min_size=2, max_size=5, unique=True).map(sorted),
    lam=st.floats(0.05, 0.95),
)
def test_pedicini_forces_osc_failure(digits, lam):
    ok, _, _ = pedicini_holds(tuple(digits), lam)
    if ok:
        assert lam > 1.0 / len(digits)


class TestCoveringDeficiency:
    def test_no_holes_triangle_is_zero(self):
        frac, _ = covering_deficiency(triangle_system(0.7), n=4, samples=2000, seed=1)
        assert frac == 0.0

    def test_gasket_area_recursion(self):
        # non-overlapping gasket loses 1/4 of the area per level
        frac, err = covering_deficiency(triangle_system(0.5), n=6, samples=20000, seed=2)
        assert frac == pytest.approx(1 - 0.75**6, abs=4 * err)

    def test_interval_gaps(self):
        frac, err = covering_deficiency(unit_system(0.45), n=8, samples=20000, seed=3)
        assert frac == pytest.approx(1 - 0.9**8, abs=4 * err)
        assert frac > 0

    def test_node_budget_raises(self, monkeypatch):
        # the batched dive decides the samples its first-child chain covers;
        # the breadth-first search over the samples it drops holds more
        # than 5 rows at some level
        monkeypatch.setattr(conditions, "FRONTIER_CAP", 5)
        with pytest.raises(BudgetExceeded, match="exceeded 5 rows"):
            covering_deficiency(triangle_system(0.5), n=6, samples=50, seed=2)

    @pytest.mark.parametrize("budget", [1, 6, 100])
    def test_pair_budget_bounds_the_search_and_keeps_its_output(self, budget, monkeypatch):
        cases = [(triangle_system(0.5), 6, 400, 2), (unit_system(0.45), 8, 300, 3),
                 (new_ifs(0.55, TETRAHEDRON), 4, 200, 4)]
        want = [covering_deficiency(*c) for c in cases]
        pairs = []
        feasible = conditions._feasible_many

        def recording(omega, X, shifts, scale):
            pairs.append(len(X) * len(shifts))
            return feasible(omega, X, shifts, scale)

        monkeypatch.setattr(conditions, "_feasible_many", recording)
        monkeypatch.setattr(conditions, "PAIR_BUDGET", budget)
        assert [covering_deficiency(*c) for c in cases] == want
        assert len(pairs) > 10 and max(pairs) <= max(budget, 4)  # a chunk holds one row at least

    def test_covering_cap_fires_inside_a_chunked_level(self, monkeypatch):
        rows = []
        feasible = conditions._feasible_many

        def recording(omega, X, shifts, scale):
            rows.append(len(X))
            return feasible(omega, X, shifts, scale)

        monkeypatch.setattr(conditions, "_feasible_many", recording)
        monkeypatch.setattr(conditions, "PAIR_BUDGET", 6)
        monkeypatch.setattr(conditions, "FRONTIER_CAP", 40)
        with pytest.raises(BudgetExceeded, match="covering-search frontier exceeded 40 rows"):
            covering_deficiency(triangle_system(0.5), n=6, samples=200, seed=2)
        assert max(rows) == 2  # PAIR_BUDGET // 3 maps: no level is laid out whole


class TestOverlapWitness:
    def test_interval_witness_strict(self):
        s = unit_system(0.6)
        w = vertex_overlap_witness(s)
        assert w is not None and w.grade == "vertex-interior"
        assert (w.i, w.k, w.j, w.ell) == (0, 1, 0, 4)
        assert w.block0 == (1, 0, 0, 0)
        assert verify_witness(s, w)

    def test_touching_gasket_has_none(self):
        assert vertex_overlap_witness(triangle_system(0.5)) is None

    def test_triangle_witness_via_proper_overlap(self):
        s = triangle_system(0.7)
        w = vertex_overlap_witness(s)
        assert w is not None and w.grade == "proper-overlap"
        assert w.ell == 3
        assert verify_witness(s, w)

    def test_witness_block_invariants(self):
        # all block-image vertices inside both images, closed membership
        for s, expect_ell in ((unit_system(0.6), 4), (triangle_system(0.7), 3)):
            w = vertex_overlap_witness(s)
            assert w.ell == expect_ell
            fi = image_polytope(s, (w.i,))
            fk = image_polytope(s, (w.k,))
            for p in s.points:
                v = project_prefix(s, w.block0, p)
                assert contains(fi, v) and contains(fk, v)

    def test_strict_witness_vertex_location(self):
        s = unit_system(0.6)
        w = vertex_overlap_witness(s)
        q = apply_map(s, w.k, s.points[w.j])
        assert contains(image_polytope(s, (w.i,)), q, tol=-1e-9)

    def test_second_witness_builds_no_polytope(self, monkeypatch):
        s = new_ifs(0.8, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
        w = vertex_overlap_witness(s)
        assert s.facet_slacks is s.facet_slacks
        ex = exact_twin(s)  # verify_witness reads an exact system without building its hull

        def refuse(*args):
            raise AssertionError("a polytope was built")

        monkeypatch.setattr(core, "hull_polytope", refuse)
        monkeypatch.setattr(geometry, "hull_polytope", refuse)
        assert vertex_overlap_witness(s) == w and verify_witness(ex, w)

    def test_facet_slacks_are_integers_independent_of_lambda(self):
        exact = [tuple(map(Fraction, p)) for p in TETRAHEDRON]
        tables = [new_ifs(lam, pts).facet_slacks
                  for lam, pts in ((0.8, TETRAHEDRON), (Fraction(1, 3), exact), (0.55, TETRAHEDRON))]
        assert tables[0] == tables[1] == tables[2]
        assert all(type(v) is int for U_or_H in tables[0] for row in U_or_H for v in row)
        U, H = new_ifs(0.6, [(0.5, 0.0), (0.0, 0.25), (1.0, 1.0), (0.5, 0.5)]).facet_slacks
        assert all(v >= 0 for row in U for v in row) and all(v > 0 for v in U[3])  # p_3 is interior

    def test_block_search_gives_up_when_limit_escapes(self):
        # the k j^(ell-1) images contract onto f_k(p_j); aimed at a vertex
        # that never enters the other image, no ell can close the containment
        s = unit_system(0.6)
        a, b = Fraction(s.lam).as_integer_ratio()
        U, H = s.facet_slacks
        got = conditions._triple([a * v for v in U[1]], [(b - a) * (hk - hi) for hi, hk in zip(H[0], H[1])],
                                 a, b)
        assert got == (False, None)


def brute_force_wn(s, w, x, n):
    """Independent W_n oracle: enumerate every word of n blocks outright and
    test x in F_w(Omega) through the forward image polytope."""
    import itertools

    blocks = list(itertools.product(range(s.m), repeat=w.ell))
    for word in itertools.product(blocks, repeat=n):
        if w.block0 not in word:
            continue
        digits = tuple(d for blk in word for d in blk)
        if contains(image_polytope(s, digits), x):
            return True
    return False


@pytest.fixture(scope="module")
def tri():
    s = triangle_system(0.7)
    return s, vertex_overlap_witness(s)


class TestWn:
    def test_block0_image_is_w1(self, tri):
        s, w = tri
        x = project_prefix(s, w.block0, (0.2, 0.3))
        assert wn_membership(s, w, x, 1)

    def test_vertex_never_member(self, tri):
        s, w = tri
        for n in (1, 2, 4):
            assert not wn_membership(s, w, s.points[0], n)

    def test_monotone_in_n(self, tri):
        s, w = tri
        rng = np.random.default_rng(7)
        from ifslab.geometry import sample_uniform

        pts = sample_uniform(s.omega, 100, rng)
        entry = wn_entry_depths(s, w, pts, 6)
        for p, e in zip(pts, entry):
            for n in (1, 2, 3, 4, 5, 6):
                assert wn_membership(s, w, tuple(p), n) == (e <= n)

    def test_family_size(self):
        # one translation f_u(0) per block word u: m^ell of them, the forcing block among them
        for s in (triangle_system(0.7), new_ifs(0.8, TETRAHEDRON), new_ifs(0.45, [(0.0,), (1.0,), (3.0,)])):
            w = vertex_overlap_witness(s)
            beta, T, idx0 = conditions._block_tables(s, w)
            assert T.shape == (s.m**w.ell, s.d) and beta == s.lam**w.ell
            zero = (0.0,) * s.d
            for i, row in enumerate(T):
                u = [(i // s.m**t) % s.m for t in range(w.ell)]  # row i holds digit t = (i // m^t) % m
                assert np.allclose(project_prefix(s, u, zero), row, rtol=0, atol=1e-15)
            assert np.allclose(project_prefix(s, w.block0, zero), T[idx0], rtol=0, atol=1e-15)

    def test_against_brute_force_block_words(self, tri):
        s, w = tri
        rng = np.random.default_rng(19)
        from ifslab.geometry import sample_uniform

        pts = sample_uniform(s.omega, 12, rng)
        for p in pts:
            for n in (1, 2):
                assert wn_membership(s, w, tuple(p), n) == brute_force_wn(s, w, tuple(p), n)

    def test_tetrahedron_against_brute_force_block_words(self):
        # lam = 0.8 >= 3/4 gives no holes in R^3; the witness block has
        # length 3, so W_1 is searched over 64 block words
        s = new_ifs(0.8, TETRAHEDRON)
        w = vertex_overlap_witness(s)
        assert w.ell == 3
        from ifslab.geometry import sample_uniform

        rng = np.random.default_rng(23)
        pts = [tuple(p) for p in sample_uniform(s.omega, 30, rng).tolist()]
        pts += [project_prefix(s, w.block0, tuple(p))
                for p in rng.dirichlet([1.0] * 4, 10)[:, 1:].tolist()]
        got = [wn_membership(s, w, p, 1) for p in pts]
        assert got == [brute_force_wn(s, w, p, 1) for p in pts]
        assert any(got) and not all(got)

    @pytest.mark.parametrize("budget", [1, 7, 500])
    def test_pair_budget_keeps_every_level_row_major(self, tri, budget, monkeypatch):
        s, w = tri
        rng = np.random.default_rng(29)
        pts = rng.random((300, 2)) * [1.2, 1.2] - 0.1
        want = wn_entry_depths(s, w, pts, 7)
        beta, T, _ = conditions._block_tables(s, w)
        X = pts[:120]
        parent, _, rem = core._feasible_many(s.omega, X, T, beta)
        monkeypatch.setattr(conditions, "PAIR_BUDGET", budget)
        got_parent, got_rem = conditions._chunked_children(s.omega, X, T, beta, "block-word")
        assert got_parent.tolist() == parent.tolist()
        assert got_rem.tobytes() == rem.tobytes()
        assert wn_entry_depths(s, w, pts, 7).tolist() == want.tolist()

    def test_frontier_cap_fires_inside_a_chunked_level(self, tri, monkeypatch):
        s, w = tri
        monkeypatch.setattr(conditions, "PAIR_BUDGET", 30)
        monkeypatch.setattr(conditions, "FRONTIER_CAP", 40)
        pts = np.random.default_rng(3).random((50, 2)) * 0.5
        with pytest.raises(BudgetExceeded, match="block-word frontier exceeded 40 rows"):
            wn_entry_depths(s, w, pts, 5)

    def test_long_block_memory_stays_within_the_pair_budget(self):
        # lam just above 1/2 on {0, 1}: the block has length 16, so every
        # row meets 65535 block words; 60 rows took 99 MB laid out at once
        s = unit_system(0.50001)
        w = vertex_overlap_witness(s)
        assert w.ell == 16
        tracemalloc.start()
        try:
            frac, _ = wn_coverage_estimate(s, w, 2, samples=60, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frac == 1.0
        assert peak < 48 * 2**20

    def test_requires_certificate(self):
        s = triangle_system(0.6)  # below the 2/3 threshold
        w = vertex_overlap_witness(s)
        with pytest.raises(CertificateRequired):
            wn_membership(s, w, (0.2, 0.2), 2)

    def test_coverage_decreases(self, tri):
        s, w = tri
        fracs = []
        for n in (1, 3, 6, 9):
            frac, err = wn_coverage_estimate(s, w, n, samples=2000, seed=11)
            fracs.append((frac, err))
        for (f1, e1), (f2, e2) in zip(fracs, fracs[1:]):
            assert f2 <= f1 + 2 * (e1 + e2)
        assert fracs[-1][0] < 0.05


TRI07 = triangle_system(0.7)
W07 = vertex_overlap_witness(TRI07)


@pytest.mark.parametrize("call, error, want", [
    (lambda: wn_membership(TRI07, W07, (0.9, 0.9), 3), PointOutsideOmega, "(0.9, 0.9) is outside Omega"),
    (lambda: wn_membership(TRI07, W07, (0.3, 0.3), 0), None, False),
    (lambda: wn_coverage_estimate(triangle_system(0.5), W07, 3, 10, 1), CertificateRequired,
     "W_n coverage is only exact under a no-holes certificate"),
    (lambda: wn_coverage_estimate(TRI07, W07, 0, 10, 1), None, (1.0, 0.0)),
], ids=["membership-outside", "membership-n-0", "coverage-holes", "coverage-n-0"])
def test_w_n_edges(call, error, want):
    # W_0 is empty: no point is in it and all of Omega is outside it
    if error is None:
        assert call() == want
    else:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == want
