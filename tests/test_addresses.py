import math
from fractions import Fraction

import numpy as np
import pytest

from ifslab import addresses
from ifslab.addresses import (
    Mode,
    Verdict,
    classify_point,
    enumerate_prefixes,
    feasible_children,
    first_bifurcation,
)
from ifslab.core import apply_inverse, new_ifs, project_prefix
from ifslab.errors import BudgetExceeded, CertificateRequired, PointOutsideOmega
from ifslab.triangle import barycentric_to_point, pi_point

from helpers import count_true_prefixes_1d, triangle_system, triangle_system_exact, unit_system


class TestFeasibleChildren:
    def test_overlap_point_sees_both(self):
        s = unit_system(0.6)
        assert feasible_children(s, (0.5,)) == (0, 1)

    def test_left_of_overlap_forced(self):
        s = unit_system(0.6)
        assert feasible_children(s, (0.1,)) == (0,)

    def test_vertex_forced(self):
        s = triangle_system(0.7)
        assert feasible_children(s, s.points[2]) == (2,)


class TestEnumerate:
    def test_depth_one_overlap(self):
        s = unit_system(0.6)
        tree = enumerate_prefixes(s, (0.5,), 1)
        assert tree.counts == [1, 2]

    def test_branching_above_golden_ratio(self):
        s = unit_system(0.7)
        tree = enumerate_prefixes(s, (0.37,), 20)
        assert sum(tree.counts[1:]) > 20

    def test_vertex_single_chain(self):
        s = triangle_system(0.7)
        tree = enumerate_prefixes(s, s.points[0], 25)
        assert tree.counts == [1] * 26

    def test_counts_match_interval_oracle(self):
        # with lam > 1/2 the attractor is the full interval, so relaxed
        # feasibility must agree exactly with the direct image enumeration
        rng = np.random.default_rng(11)
        for lam in (0.55, 0.6, 0.72):
            s = unit_system(lam)
            for _ in range(12):
                x = float(rng.uniform(0.02, 0.98))
                want = count_true_prefixes_1d(lam, s.points, x, 10)
                got = enumerate_prefixes(s, (x,), 10).counts
                assert got == want

    def test_budget_errors_out(self, monkeypatch):
        s = unit_system(0.9)
        monkeypatch.setattr(addresses, "NODE_BUDGET", 2000)
        with pytest.raises(BudgetExceeded, match="exceeded 2000 nodes"):
            enumerate_prefixes(s, (0.5,), 60)
        with pytest.raises(BudgetExceeded, match="exceeded 2000 nodes"):
            classify_point(s, (0.5,), 60)

    def test_shift_consistency(self):
        s = triangle_system_exact(Fraction(7, 10))
        x = (Fraction(2, 7), Fraction(1, 3))
        tree = enumerate_prefixes(s, x, 6)
        for level in tree.levels[1:]:
            for node in level:
                parent = x
                for j in node.prefix[:-1]:
                    parent = apply_inverse(s, j, parent)
                assert node.remainder == apply_inverse(s, node.prefix[-1], parent)

    def test_geometric_consistency(self):
        s = triangle_system(0.66)
        x = (0.31, 0.22)
        tree = enumerate_prefixes(s, x, 12)
        for node in tree.levels[12]:
            y = project_prefix(s, node.prefix, (0.2, 0.2))
            d = math.dist(y, x)
            assert d <= 0.66**12 * s.diameter() + 1e-9


class TestFirstBifurcation:
    def test_immediate(self):
        assert first_bifurcation(unit_system(0.6), (0.5,), 10) == 0

    def test_one_forced_step(self):
        assert first_bifurcation(unit_system(0.6), (0.3,), 10) == 1

    def test_absent_for_vertex(self):
        assert first_bifurcation(unit_system(0.6), (0.0,), 64) is None


class TestClassify:
    def test_period_two_unique(self):
        lam = Fraction(11, 20)
        s = new_ifs(lam, [(Fraction(0),), (Fraction(1),)])
        x = (1 / (1 + lam),)
        rep = classify_point(s, x, 64)
        assert rep.verdict is Verdict.UNIQUE_CERTIFIED
        assert rep.certificate.period == 2
        assert rep.certificate.digits[:2] == (1, 0)
        assert all(c == 1 for c in rep.prefix_counts)

    def test_multiple_certified_above_golden(self):
        s = unit_system(0.63)
        rep = classify_point(s, (0.5,), 50, no_holes_certified=True)
        assert rep.verdict is Verdict.MULTIPLE_CERTIFIED
        assert rep.first_bifurcation == 0

    def test_triangle_pi_period_three(self):
        s = triangle_system_exact(Fraction(3, 5))
        pt = barycentric_to_point(s, pi_point(Fraction(3, 5)))
        rep = classify_point(s, pt, 64)
        assert rep.verdict is Verdict.UNIQUE_CERTIFIED
        assert rep.certificate.period == 3

    def test_float_single_chain_is_unknown(self):
        s = unit_system(0.55)
        rep = classify_point(s, (1 / 1.55,), 40)
        assert rep.verdict is Verdict.UNKNOWN
        assert rep.first_bifurcation is None
        assert not rep.exact

    def test_multiple_likely_without_certificate(self):
        s = unit_system(0.63)
        rep = classify_point(s, (0.5,), 12, no_holes_certified=False)
        assert rep.verdict is Verdict.MULTIPLE_LIKELY
        assert rep.first_bifurcation == 0

    def test_exact_mode_guards(self):
        s = unit_system(0.6)
        with pytest.raises(CertificateRequired):
            classify_point(s, (0.5,), 10, mode=Mode.EXACT_NO_HOLES)
        with pytest.raises(PointOutsideOmega):
            classify_point(s, (1.5,), 10, mode=Mode.EXACT_NO_HOLES, no_holes_certified=True)

    def test_dead_end_reports_unknown(self):
        # lam < 1/2 leaves gaps: the midpoint of the first gap has no address
        s = unit_system(0.4)
        rep = classify_point(s, (0.5,), 10)
        assert rep.verdict is Verdict.UNKNOWN
        assert rep.prefix_counts[-1] == 0

    def test_uniqueness_sound_against_oracle(self):
        # relaxed single chains bound the true prefix tree from above
        lam = 0.57
        s = unit_system(lam)
        rng = np.random.default_rng(23)
        for _ in range(40):
            x = float(rng.uniform(0.01, 0.99))
            rep = classify_point(s, (x,), 10)
            oracle = count_true_prefixes_1d(lam, s.points, x, 10)
            if all(c == 1 for c in rep.prefix_counts):
                assert all(c == 1 for c in oracle)


@pytest.mark.parametrize("walk", [classify_point, enumerate_prefixes, first_bifurcation])
def test_negative_depth_is_rejected(walk):
    with pytest.raises(ValueError, match="depth must be an integer of at least 0, got -3"):
        walk(triangle_system(0.7), (0.3, 0.4), -3)


def test_counts_non_decreasing_no_holes():
    s = unit_system(0.6)
    rng = np.random.default_rng(31)
    for _ in range(15):
        x = float(rng.uniform(0, 1))
        counts = enumerate_prefixes(s, (x,), 12).counts
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        # once a bifurcation happened the count stays above one
        if any(c >= 2 for c in counts):
            first = next(i for i, c in enumerate(counts) if c >= 2)
            assert all(c >= 2 for c in counts[first:])


class TestExtensionProperty:
    def test_every_prefix_extends_no_holes_1d(self):
        # exhaustive over the whole tree: lam > 1/2 means no holes
        s = unit_system(0.6)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = float(rng.uniform(0, 1))
            tree = enumerate_prefixes(s, (x,), 30)
            for dep in range(30):
                children = {n.prefix[:dep] for n in tree.levels[dep + 1] for _ in (0,)}
                for node in tree.levels[dep]:
                    assert any(c == node.prefix for c in children)

    def test_omega_points_have_children_triangle(self):
        from ifslab.geometry import sample_uniform

        s = triangle_system(0.7)
        rng = np.random.default_rng(6)
        pts = sample_uniform(s.omega, 200, rng)
        for p in pts:
            assert feasible_children(s, tuple(p))
