"""Known defects of the float path, held as strict expected failures.

A float `multiple-certified` verdict rests on both children lying 1e-9
inside Omega, a margin that neither bounds the rounding error of a deep
remainder nor lets a child on the boundary count.  So a float verdict can
differ from the verdict on the exact value of the same float inputs, both
ways.  Each test asserts that they agree; it fails today, and `strict`
turns it into a failure once float inputs are classified exactly, so the
mark comes off with the fix.
"""

from fractions import Fraction

import pytest

from ifslab.addresses import classify_point
from ifslab.core import new_ifs
from ifslab.deleted_digits import DigitSet, count_expansions


@pytest.mark.xfail(strict=True, reason="float path misses a certificate with children on the boundary")
def test_float_digits_certify_what_their_exact_values_certify():
    # x = 5 at lam = 1/2 has children 9 and 1, the two ends of Omega = [1, 9]
    A = DigitSet((1, 9))
    approx = count_expansions(A, 0.5, 5.0, 40)
    exact = count_expansions(A, Fraction(0.5), Fraction(5.0), 40)
    assert approx.verdict == exact.verdict


@pytest.mark.xfail(strict=True, reason="float path certifies a fork its exact value does not have")
def test_float_line_certifies_only_what_its_exact_value_certifies():
    x = 0.9169181148414005  # a false certificate of the kind bench/defects.py counts
    approx = classify_point(new_ifs(0.52, [(0.0,), (1.0,)]), (x,), 120, no_holes_certified=True)
    line = new_ifs(Fraction(0.52), [(Fraction(0),), (Fraction(1),)])
    exact = classify_point(line, (Fraction(x),), 120, no_holes_certified=True)
    assert approx.verdict == exact.verdict
