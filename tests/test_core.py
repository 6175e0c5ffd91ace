import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ifslab.core import (
    apply_inverse,
    apply_map,
    check_probs,
    load_system,
    new_ifs,
    project_prefix,
    system_from_dict,
)
from ifslab.errors import (
    BadProbabilityVector,
    DegenerateAffineHull,
    DigitOutOfRange,
    DimensionMismatch,
    DuplicatePoints,
    LambdaOutOfRange,
)

from helpers import RIGHT_TRIANGLE_EXACT, prefix_closed_form, triangle_system, unit_system


def dist(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


class TestNewIfs:
    def test_unit_interval(self):
        s = unit_system(0.5)
        assert s.m == 2 and s.d == 1
        assert s.omega.bounding_box() == ((0.0,), (1.0,))

    def test_lambda_bounds(self):
        for bad in (1.0, 0.0, -0.3, 1.7):
            with pytest.raises(LambdaOutOfRange):
                new_ifs(bad, [(0.0,), (1.0,)])

    def test_collinear_points_rejected(self):
        with pytest.raises(DegenerateAffineHull):
            new_ifs(0.7, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            new_ifs(0.5, [(0.0,), (0.0,), (1.0,)])
        with pytest.raises(DuplicatePoints):
            new_ifs(0.5, [(0.0,)])


class TestMaps:
    def test_midpoint_map(self):
        s = unit_system(0.5)
        assert apply_map(s, 0, (1.0,)) == (0.5,)

    def test_anchor_is_fixed_point(self):
        s = new_ifs(0.7, [(0.3, -0.2), (1.0, 2.0), (0.7, 0.1)])
        for j, p in enumerate(s.points):
            assert dist(apply_map(s, j, p), p) < 1e-15
            assert dist(apply_inverse(s, j, p), p) < 1e-15

    def test_translation_weight(self):
        s = unit_system(0.6)
        assert apply_map(s, 1, (0.0,)) == pytest.approx((0.4,))

    def test_inverse_examples(self):
        s = unit_system(0.5)
        assert apply_inverse(s, 0, (0.5,)) == (1.0,)
        t = new_ifs(0.7, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert apply_inverse(t, 1, (1.0, 0.7)) == pytest.approx((1.0, 1.0))

    def test_exact_system_reads_a_float_point_exactly_both_ways(self):
        s = new_ifs(Fraction(7, 10), RIGHT_TRIANGLE_EXACT)
        for j in range(s.m):
            y = apply_map(s, j, (0.3, 0.4))
            assert all(type(v) is Fraction for v in y)
            assert apply_inverse(s, j, y) == (Fraction(0.3), Fraction(0.4))

    def test_digit_range(self):
        s = unit_system(0.5)
        with pytest.raises(DigitOutOfRange):
            apply_map(s, 2, (0.0,))
        with pytest.raises(DigitOutOfRange):
            apply_inverse(s, -1, (0.0,))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("x", [(0.3,), (0.3, 0.1, 0.2)])
    def test_a_point_of_another_dimension_is_refused(self, x, exact):
        s = new_ifs(Fraction(7, 10), RIGHT_TRIANGLE_EXACT) if exact else triangle_system(0.7)
        for step in (apply_map, apply_inverse):
            with pytest.raises(DimensionMismatch, match=f"point has dimension {len(x)}, system 2"):
                step(s, 0, x)
        with pytest.raises(DimensionMismatch):
            project_prefix(s, (1, 0), x)


class TestProjectPrefix:
    def test_constant_word_fixes_anchor(self):
        s = triangle_system(0.7)
        assert project_prefix(s, (0,) * 9, s.points[0]) == pytest.approx(s.points[0])

    def test_binary_partial_sums(self):
        s = unit_system(0.5)
        assert project_prefix(s, (1,), (0.0,)) == pytest.approx((0.5,))
        assert project_prefix(s, (1, 1), (0.0,)) == pytest.approx((0.75,))

    def test_matches_closed_form_triangle(self):
        s = triangle_system(0.7)
        w = (0, 1)
        got = project_prefix(s, w, s.points[2])
        want = prefix_closed_form(s, w, s.points[2])
        assert dist(got, want) < 1e-12

    def test_composition_order(self):
        # f_{w1} applied last: prepending a digit maps the whole previous image
        s = unit_system(0.6)
        inner = project_prefix(s, (1, 0), (0.3,))
        assert project_prefix(s, (0, 1, 0), (0.3,)) == pytest.approx(apply_map(s, 0, inner))

    def test_starting_point_independence_at_depth(self):
        s = triangle_system(0.58)
        w = (0, 2, 1, 1, 0, 2, 2, 1, 0, 2, 0, 1) * 3
        a = project_prefix(s, w, (0.1, 0.1))
        b = project_prefix(s, w, (0.0, 0.9))
        assert dist(a, b) <= 0.58 ** len(w) * s.diameter() + 1e-15


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(0.05, 0.95),
    x=st.floats(-5, 5),
    j=st.integers(0, 2),
)
def test_roundtrip_inverse(lam, x, j):
    s = new_ifs(lam, [(-1.0,), (0.5,), (2.0,)])
    y = apply_map(s, j, apply_inverse(s, j, (x,)))[0]
    assert abs(y - x) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(0.1, 0.9),
    word=st.lists(st.integers(0, 2), min_size=0, max_size=14).map(tuple),
    x0=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_closed_form_agrees(lam, word, x0):
    s = new_ifs(lam, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    a = project_prefix(s, word, x0)
    b = prefix_closed_form(s, word, x0)
    assert dist(a, b) < 1e-11


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(0.1, 0.9),
    word=st.lists(st.integers(0, 2), min_size=1, max_size=20).map(tuple),
    t=st.floats(0, 1),
    u=st.floats(0, 1),
)
@example(lam=0.1, word=(1, 0, 0, 0, 0, 0, 0, 0), t=0.0, u=1.0)
def test_contraction_bound(lam, word, t, u):
    # on the exact rationals of the inputs, so the bound holds with no
    # slack: float rounding adds an absolute error near 1e-16 that a
    # relative slack cannot absorb once lam**n is that small
    lam, t, u = Fraction(lam), Fraction(t), Fraction(u)
    s = new_ifs(lam, RIGHT_TRIANGLE_EXACT)
    # two points of Omega: convex combinations of the anchors
    a = (t, (1 - t) * u)
    b = (u, (1 - u) * t)
    fa = project_prefix(s, word, a)
    fb = project_prefix(s, word, b)
    diam_sq = max(sum((x - y) ** 2 for x, y in zip(p, q)) for p in s.points for q in s.points)
    assert sum((x - y) ** 2 for x, y in zip(fa, fb)) <= lam ** (2 * len(word)) * diam_sq


class TestExactPath:
    def test_exact_roundtrip_is_identity(self):
        s = new_ifs(Fraction(7, 10), [(Fraction(0),), (Fraction(1),)])
        x = (Fraction(3, 8),)
        assert apply_map(s, 1, apply_inverse(s, 1, x)) == x
        assert s.is_exact

    def test_float_system_not_exact(self):
        assert not unit_system(0.5).is_exact


class TestLoadSystem:
    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "ifs.json"
        p.write_text('{"lambda": 0.7, "points": [[0,0],[1,0],[0,1]], "probs": [0.2,0.3,0.5]}')
        s, probs = load_system(p)
        assert s.m == 3 and probs == (0.2, 0.3, 0.5)

    def test_exact_parse_keeps_decimals(self, tmp_path):
        p = tmp_path / "ifs.json"
        p.write_text('{"lambda": 0.7, "points": [[0],[1]]}')
        s, _ = load_system(p, exact=True)
        assert s.lam == Fraction(7, 10)
        assert s.is_exact

    def test_bad_probs(self):
        with pytest.raises(BadProbabilityVector):
            system_from_dict({"lambda": 0.5, "points": [[0], [1]], "probs": [0.5, 0.6]})
        with pytest.raises(BadProbabilityVector):
            system_from_dict({"lambda": 0.5, "points": [[0], [1]], "probs": [1.0]})

    def test_nan_probs_rejected(self):
        # named as not finite, before the sign and sum checks they would fail
        nan, inf = float("nan"), float("inf")
        for probs in [(nan, 0.5, 0.5), (0.5, 0.5, nan), (inf, 0.5, 0.5), (0.5, -inf, inf)]:
            with pytest.raises(BadProbabilityVector, match="must be finite"):
                check_probs(probs, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: new_ifs(0.5, [(0, 0), (1,), (0, 1)]), DegenerateAffineHull, "anchor points of mixed dimension"),
    (lambda: system_from_dict({"points": [[0], [1]]}), ValueError,
     "IFS definition must carry 'lambda' and 'points': 'lambda'"),
    (lambda: check_probs((1.5, -0.5), 2), BadProbabilityVector, "probabilities must be nonnegative"),
], ids=["mixed-dimension", "no-lambda", "negative-prob"])
def test_a_malformed_definition_is_refused_with_one_line(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
