from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ifslab.addresses import Verdict
from ifslab.conditions import covering_deficiency, pedicini_holds
from ifslab.core import image_polytope, project_prefix
from ifslab.deleted_digits import (
    KOMORNIK_LORETI,
    DigitSet,
    as_ifs,
    attractor_interval,
    count_expansions,
    multiplicity_lambda_estimate,
)
from ifslab.errors import PointOutsideOmega, UnsortedDigits
from ifslab.geometry import volume


class TestDigitSet:
    def test_valid(self):
        assert DigitSet((0, 1, 3)).m == 3

    def test_invalid(self):
        with pytest.raises(UnsortedDigits):
            DigitSet((1, 0))
        with pytest.raises(UnsortedDigits):
            DigitSet((2,))

    def test_nan_digit_rejected(self):
        with pytest.raises(UnsortedDigits, match="strictly increasing"):
            DigitSet((0, float("nan"), 3))


class TestAttractorInterval:
    def test_binary(self):
        assert attractor_interval(DigitSet((0, 1)), 0.6) == pytest.approx((0.0, 1.5))

    def test_three_digits(self):
        lo, hi = attractor_interval(DigitSet((0, 1, 3)), 0.45)
        assert (lo, hi) == pytest.approx((0.0, 2.454545454545), abs=1e-9)

    def test_symmetric(self):
        assert attractor_interval(DigitSet((-1, 1)), 0.5) == pytest.approx((-1.0, 1.0))


class TestAsIfs:
    def test_anchor_points(self):
        s = as_ifs(DigitSet((0, 1)), 0.6)
        assert [p[0] for p in s.points] == pytest.approx([0.0, 1.5])
        lo, hi = s.omega.bounding_box()
        assert (lo[0], hi[0]) == pytest.approx((0.0, 1.5))

    def test_partial_sum_identity(self):
        # digit values 1 then 3 (indices 1 and 2): 0.45*1 + 0.45^2*3
        s = as_ifs(DigitSet((0, 1, 3)), 0.45)
        got = project_prefix(s, (1, 2), (0.0,))[0]
        assert got == pytest.approx(1.0575, abs=1e-12)

    def test_memo_keeps_arithmetic_apart(self):
        # equal values of another type must not share a memoised system:
        # 0.45 == Fraction(0.45) and 1 == 1.0, with equal hashes
        ints, floats = DigitSet((0, 1, 3)), DigitSet((0.0, 1.0, 3.0))
        cases = [(ints, 0.45, False), (ints, Fraction(0.45), True), (ints, Fraction(9, 20), True),
                 (floats, Fraction(9, 20), False), (floats, 0.45, False), (ints, Fraction(9, 20), True)]
        for A, lam, exact in cases:
            s = as_ifs(A, lam)
            assert s.is_exact is exact, (A, lam)
            assert type(s.lam) is type(lam) and s.lam == lam
            assert [type(p[0]) for p in s.points] == [Fraction if exact else float] * 3
            assert as_ifs(A, lam) is s


@settings(max_examples=120, deadline=None)
@given(
    lam=st.floats(0.15, 0.85),
    word=st.lists(st.integers(0, 2), min_size=1, max_size=12).map(tuple),
)
def test_prefix_equals_partial_sum(lam, word):
    A = DigitSet((0, 1, 3))
    s = as_ifs(A, lam)
    got = project_prefix(s, word, (0.0,))[0]
    want = sum(A.digits[j] * lam**k for k, j in enumerate(word, start=1))
    assert got == pytest.approx(want, abs=1e-12)


class TestCountExpansions:
    def test_left_endpoint_unique(self):
        rep = count_expansions(DigitSet((0, 1)), Fraction(63, 100), 0, depth=50)
        assert rep.verdict is Verdict.UNIQUE_CERTIFIED
        assert rep.certificate.period == 1
        assert rep.certificate.digits == (0,)

    def test_overlap_point_multiple(self):
        rep = count_expansions(DigitSet((0, 1)), 0.63, 0.8, depth=50)
        assert rep.verdict is Verdict.MULTIPLE_CERTIFIED

    def test_typical_point_bifurcates(self):
        rep = count_expansions(DigitSet((0, 1, 3)), 0.45, 1.2, depth=60)
        assert rep.first_bifurcation is not None

    def test_outside_interval_rejected(self):
        with pytest.raises(PointOutsideOmega):
            count_expansions(DigitSet((0, 1)), 0.6, 2.0, depth=10)


class TestPediciniConsequences:
    def test_no_holes_under_pedicini(self):
        A = DigitSet((0, 1, 3))
        lam = 0.45
        assert pedicini_holds(A, lam)[0]
        for n in (2, 6, 10):
            frac, _ = covering_deficiency(as_ifs(A, lam), n, samples=1500, seed=n)
            assert frac == 0.0

    def test_some_adjacent_images_overlap(self):
        # Pedicini makes the image lengths exceed the interval, so two
        # adjacent image intervals share interior
        A = DigitSet((0, 1, 3))
        lam = 0.45
        s = as_ifs(A, lam)
        total = sum(volume(image_polytope(s, (j,))) for j in range(s.m))
        assert total > volume(s.omega)
        overlaps = []
        for j in range(s.m - 1):
            a = image_polytope(s, (j,)).bounding_box()
            b = image_polytope(s, (j + 1,)).bounding_box()
            overlaps.append(min(a[1][0], b[1][0]) - max(a[0][0], b[0][0]))
        assert max(overlaps) > 0


def test_komornik_loreti_literal():
    assert KOMORNIK_LORETI == pytest.approx(0.559525, abs=5e-7)


def test_multiplicity_lambda_estimate_is_plausible():
    # binary digits: the scan should land between 1/2 (exclusive: float
    # probes are dyadic, and depth 40 stays below the bit-length horizon at
    # which their doubling orbits degenerate) and the golden ratio
    # neighbourhood, above which every point bifurcates
    est = multiplicity_lambda_estimate(DigitSet((0, 1)), grid=40, depth=40, probes=24)
    assert est is not None
    assert 0.5 < est <= 0.7


@pytest.mark.parametrize("digits, want", [((0, 1), 0.55), ((0, 1, 3), 0.4)])
def test_multiplicity_lambda_estimate_is_pinned(digits, want):
    # the values of the scan over the scalar first_bifurcation, one probe at a time
    assert multiplicity_lambda_estimate(DigitSet(digits), grid=40) == want


@pytest.mark.parametrize("call, lam", [(attractor_interval, 1.0), (as_ifs, 0)],
                         ids=["attractor-interval", "as-ifs"])
def test_a_lambda_outside_0_1_is_refused(call, lam):
    with pytest.raises(ValueError) as exc:
        call(DigitSet((0, 1, 3)), lam)
    assert str(exc.value) == f"lambda must lie in (0,1), got {lam}"
