from fractions import Fraction

import numpy as np
import pytest

from ifslab.addresses import ChainKind, Verdict, classify_point
from ifslab.errors import DimensionMismatch, IrrationalInput
from ifslab.triangle import (
    BarycentricTriple,
    barycentric_to_point,
    digit_forcing,
    gamma_nonempty,
    gamma_uniqueness_scan,
    golden_ratio,
    lambda0,
    m_point,
    m_separation_holds,
    pi_point,
    pi_prime_point,
    point_to_barycentric,
)

from helpers import in_delta_region, in_gamma_region, triangle_system, triangle_system_exact


class TestConstants:
    def test_lambda0_value(self):
        t = lambda0()
        assert t == pytest.approx(0.68233, abs=5e-6)
        assert abs(t**3 + t - 1) < 1e-12
        assert t == 0.6823278038280193  # pinned bit for bit

    def test_lambda0_bracket(self):
        assert 2 / 3 - 0.02 < lambda0() < 2**-0.5

    def test_golden_ratio(self):
        g = golden_ratio()
        assert g == pytest.approx(0.6180339887498949, abs=1e-15)
        assert abs(g * g + g - 1) < 1e-15
        assert g < lambda0()


class TestPiPoints:
    def test_closed_form(self):
        t = pi_point(0.6)
        assert t.as_tuple() == pytest.approx((0.183673469, 0.306122449, 0.510204082), abs=1e-9)

    def test_at_lambda0(self):
        lam = lambda0()
        t = pi_point(lam)
        assert t.as_tuple() == pytest.approx((lam**4, lam**3, lam**2), abs=1e-12)

    def test_sum_is_one(self):
        rng = np.random.default_rng(9)
        for lam in rng.uniform(0.05, 0.95, size=100):
            assert sum(pi_point(lam).as_tuple()) == pytest.approx(1.0, abs=1e-12)
            assert sum(pi_prime_point(lam).as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_prime_is_reversal(self):
        a = pi_point(0.66).as_tuple()
        b = pi_prime_point(0.66).as_tuple()
        assert a == tuple(reversed(b))


class TestRegions:
    def test_gamma_nonempty_examples(self):
        assert gamma_nonempty(0.69)
        assert not gamma_nonempty(0.72)
        assert not gamma_nonempty(2**-0.5)  # strict at the boundary

    def test_gamma_equivalence_grid(self):
        for k in range(501, 900):
            lam = k / 1000
            if abs(lam - 2**-0.5) < 1e-6:
                continue
            assert gamma_nonempty(lam) == (lam < 2**-0.5)

    def test_m_point_example(self):
        t = m_point(0.69)
        assert t.as_tuple() == pytest.approx((0.201848, 0.449275, 0.348877), abs=1e-6)
        assert sum(t.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_m_separation_examples(self):
        assert m_separation_holds(0.69)
        assert not m_separation_holds(0.66)

    def test_m_separation_equivalence_grid(self):
        lam0 = lambda0()
        for k in range(551, 850):
            lam = k / 1000
            if abs(lam - lam0) < 1e-6:
                continue
            assert m_separation_holds(lam) == (lam > lam0)

    def test_region_membership(self):
        lam = 0.69
        assert in_delta_region(BarycentricTriple(0.9, 0.05, 0.05), 0, lam)
        assert not in_delta_region(BarycentricTriple(0.2, 0.5, 0.3), 0, lam)
        # below lambda0 the period-3 point lives in a corner region
        assert any(in_gamma_region(pi_point(0.6), i, 0.6) for i in range(3))
        # above 1/sqrt2 the corner regions are degenerate
        for lam in (0.72, 0.8):
            t = pi_point(lam)
            assert not any(in_gamma_region(t, i, lam) for i in range(3))


class TestBarycentricConversion:
    def test_roundtrip(self):
        s = triangle_system(0.7)
        t = BarycentricTriple(0.2, 0.3, 0.5)
        back = point_to_barycentric(s, barycentric_to_point(s, t))
        assert back.as_tuple() == pytest.approx(t.as_tuple(), abs=1e-12)

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            BarycentricTriple(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            BarycentricTriple(1.2, -0.1, -0.1)
        with pytest.raises(ValueError, match="must sum to 1"):
            BarycentricTriple(float("nan"), 0.5, 0.5)

    def test_exact_triple_is_read_exactly(self):
        # floats keep SUM_TOL; three Rationals must sum to 1 exactly, each >= 0
        half, tiny = Fraction(1, 2), Fraction(1e-13)
        assert BarycentricTriple(0.5, 0.5, 1e-13).as_tuple() == (0.5, 0.5, 1e-13)
        assert BarycentricTriple(0.5, 0.5 + 1e-13, -1e-13).as_tuple() == (0.5, 0.5 + 1e-13, -1e-13)
        assert BarycentricTriple(half, half, Fraction(0)).as_tuple() == (half, half, 0)
        with pytest.raises(ValueError, match="must sum to 1, got 1.0000000000001"):
            BarycentricTriple(half, half, tiny)
        with pytest.raises(ValueError, match="must be nonnegative"):
            BarycentricTriple(half, half + tiny, -tiny)


class TestDigitForcing:
    def test_unique_cycle_at_three_fifths(self):
        r = digit_forcing(Fraction(3, 5), pi_point(Fraction(3, 5)))
        assert r.kind is ChainKind.UNIQUE_BY_CYCLE
        assert r.period == 3
        # forced coordinate indices c, b, a repeating: digit triples
        # (0,0,1), (0,1,0), (1,0,0)
        assert r.digits == (2, 1, 0)

    def test_vertex_period_one(self):
        r = digit_forcing(Fraction(3, 5), (Fraction(1), Fraction(0), Fraction(0)))
        assert r.kind is ChainKind.UNIQUE_BY_CYCLE
        assert r.period == 1 and r.digits == (0,)

    def test_branch_above_lambda0(self):
        r = digit_forcing(Fraction(7, 10), pi_point(Fraction(7, 10)))
        assert r.kind is ChainKind.FORCED_PREFIX_THEN_BRANCH
        assert r.step <= 20

    def test_unique_below_branch_above(self):
        for num, den in ((11, 20), (3, 5), (13, 20), (27, 40)):
            r = digit_forcing(Fraction(num, den), pi_point(Fraction(num, den)))
            assert r.kind is ChainKind.UNIQUE_BY_CYCLE
        for num, den in ((69, 100), (7, 10), (71, 100)):
            r = digit_forcing(Fraction(num, den), pi_point(Fraction(num, den)))
            assert r.kind is ChainKind.FORCED_PREFIX_THEN_BRANCH

    def test_float_rejected(self):
        with pytest.raises(IrrationalInput):
            digit_forcing(0.6, pi_point(Fraction(3, 5)))
        with pytest.raises(IrrationalInput):
            digit_forcing(Fraction(3, 5), (0.2, 0.3, 0.5))

    @pytest.mark.parametrize("target", [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4),) * 4,
        (),
    ])
    def test_target_of_wrong_length_rejected(self, target):
        with pytest.raises(DimensionMismatch, match="3 coordinates"):
            digit_forcing(Fraction(3, 5), target)

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            digit_forcing(Fraction(3, 5), pi_point(Fraction(3, 5)), max_steps=-1)
        with pytest.raises(ValueError, match="max_steps"):
            gamma_uniqueness_scan(Fraction(2, 3), 19, max_steps=-1)
        # no corner region at this lambda, so the scan walks nothing; it still refuses
        with pytest.raises(ValueError, match="max_steps"):
            gamma_uniqueness_scan(Fraction(9, 10), 19, max_steps=-1)

    @pytest.mark.parametrize("resolution", [0, -7, 19.0, Fraction(19), "19"])
    def test_resolution_must_be_a_positive_int(self, resolution):
        with pytest.raises(ValueError, match="resolution must be an integer of at least 1"):
            gamma_uniqueness_scan(Fraction(2, 3), resolution)

    def test_smallest_resolution_scans_an_empty_grid(self):
        assert gamma_uniqueness_scan(Fraction(2, 3), 1) == []
        assert gamma_uniqueness_scan(Fraction(2, 3), np.int64(19)) == gamma_uniqueness_scan(
            Fraction(2, 3), 19)

    def test_pi_is_period_three_of_inverse_shift(self):
        # applying the three forced inverse steps returns the exact triple
        lam = Fraction(3, 5)
        t = pi_point(lam).as_tuple()
        state = t
        for d in digit_forcing(lam, t).digits[:3]:
            state = tuple((state[c] - (1 - lam) * (1 if c == d else 0)) / lam for c in range(3))
        assert state == t

    def test_dead_end_outside_attractor(self):
        # a gap midpoint for small lambda: no digit keeps remainders in range
        lam = Fraction(2, 5)
        r = digit_forcing(lam, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        assert r.kind is ChainKind.DEAD_END

    def test_remainder_sum_invariant(self):
        # replaying the forced digits: the three remainders always sum to
        # 1/(1-lam), exactly
        lam = Fraction(13, 20)
        t = pi_point(lam).as_tuple()
        r = digit_forcing(lam, t, max_steps=50)
        state = tuple(v / (1 - lam) for v in t)
        total = 1 / (1 - lam)
        for d in r.digits:
            assert sum(state) == total
            state = tuple((state[c] - (1 if c == d else 0)) / lam for c in range(3))
        assert sum(state) == total


class TestAgreementWithEngine:
    def test_forcing_matches_classifier(self):
        lam = Fraction(7, 10)
        s = triangle_system_exact(lam)
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            a = Fraction(int(rng.integers(1, 98)), 101)
            b = Fraction(int(rng.integers(1, 98)), 103)
            if a + b >= 1:
                a, b = (1 - a) / 2, (1 - b) / 2
            t = BarycentricTriple(a, b, 1 - a - b)
            f = digit_forcing(lam, t, max_steps=200)
            pt = barycentric_to_point(s, t)
            rep = classify_point(s, pt, 200, no_holes_certified=True)
            if f.kind is ChainKind.UNIQUE_BY_CYCLE:
                assert rep.verdict is Verdict.UNIQUE_CERTIFIED
            elif f.kind is ChainKind.FORCED_PREFIX_THEN_BRANCH:
                assert rep.first_bifurcation == f.step
            checked += 1
        assert checked == 200


def test_gamma_scan_reports_only_cycles():
    hits = gamma_uniqueness_scan(Fraction(67, 100), resolution=24, max_steps=200)
    for t, r in hits:
        assert r.kind is ChainKind.UNIQUE_BY_CYCLE


def test_gamma_scan_finds_the_rotations_of_both_period_three_points():
    # pi(2/3) = (4, 6, 9)/19 lies on the resolution-19 grid, and so do the
    # rotations of it and of its reversal pi'(2/3)
    lam = Fraction(2, 3)
    assert pi_point(lam).as_tuple() == tuple(Fraction(k, 19) for k in (4, 6, 9))
    assert pi_prime_point(lam).as_tuple() == tuple(Fraction(k, 19) for k in (9, 6, 4))
    hits = gamma_uniqueness_scan(lam, resolution=19)
    assert [tuple(int(v * 19) for v in t.as_tuple()) for t, _ in hits] == [
        (4, 6, 9), (4, 9, 6), (6, 4, 9), (6, 9, 4), (9, 4, 6), (9, 6, 4)]
    assert all(r.kind is ChainKind.UNIQUE_BY_CYCLE and r.period == 3 for _, r in hits)
