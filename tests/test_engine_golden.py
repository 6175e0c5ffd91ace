"""Golden digest of the scalar address engine.

One sha256 over the repr of every output of feasible_children,
first_bifurcation, enumerate_prefixes, classify_point (relaxed and
certified, float and exact) and covering_deficiency at fixed seeded points
on three systems.  A rewrite of the feasibility kernel must keep every
verdict, count, digit and remainder bit for bit.
"""

import hashlib
from fractions import Fraction

import numpy as np

from ifslab.addresses import (
    Mode,
    classify_point,
    enumerate_prefixes,
    feasible_children,
    first_bifurcation,
)
from ifslab.conditions import covering_deficiency
from ifslab.core import new_ifs
from ifslab.deleted_digits import DigitSet, as_ifs

from helpers import prefix_closed_form, triangle_system, triangle_system_exact, unit_system

GOLDEN = "9846f974014ca506223ae6171fa4961742250d3e79c50d088d03011e360529a0"


def _systems():
    # (name, float system, exact system, enumerate depth, classify depth)
    d013 = DigitSet((0, 1, 3))
    return [
        ("triangle-0.7", triangle_system(0.7), triangle_system_exact(Fraction(7, 10)), 7, 10),
        ("unit-0.55", unit_system(0.55),
         new_ifs(Fraction(11, 20), [(Fraction(0),), (Fraction(1),)]), 12, 24),
        ("digits013-0.45", as_ifs(d013, 0.45), as_ifs(d013, Fraction(9, 20)), 10, 20),
    ]


def _points(sys, rng, count):
    """An anchor point, whose chain never splits, then seeded uniform points of Omega."""
    lo, hi = sys.omega.bounding_box()
    out = [tuple(float(v) for v in sys.points[0])]
    for _ in range(count):
        u = rng.random(sys.d).tolist()
        if sys.d == 2 and u[0] + u[1] > 1:
            u = [1 - u[0], 1 - u[1]]
        out.append(tuple(float(a) + t * (float(b) - float(a)) for a, b, t in zip(lo, hi, u)))
    return out


def _exact_points(sys, rng, count):
    """Small-denominator rationals of Omega plus fixed points of short words."""
    out = []
    for x in _points(sys, rng, count)[1:]:
        out.append(tuple(Fraction(v).limit_denominator(97) for v in x))
    zero = tuple(Fraction(0) for _ in range(sys.d))
    for w in ((0,), (0, 1), (1, 0, 0), (sys.m - 1, 0)):
        c = prefix_closed_form(sys, w, zero)
        out.append(tuple(v / (1 - sys.lam ** len(w)) for v in c))
    return out


def _report(rep):
    return (rep.verdict.value, rep.explored_depth, rep.first_bifurcation,
            rep.prefix_counts, rep.certificate, rep.exact)


def _engine_outputs():
    rng = np.random.default_rng(20240611)
    out = []
    for name, fsys, esys, enum_depth, depth in _systems():
        for sys, pts in ((fsys, _points(fsys, rng, 6)), (esys, _exact_points(esys, rng, 4))):
            for x in pts:
                out.append((name, x, feasible_children(sys, x)))
                out.append(first_bifurcation(sys, x, 3 * depth))
                tree = enumerate_prefixes(sys, x, enum_depth)
                out.append((tree.counts, [(nd.prefix, nd.remainder) for lv in tree.levels for nd in lv]))
                out.append(_report(classify_point(sys, x, depth)))
                out.append(_report(classify_point(sys, x, 3 * depth, mode=Mode.EXACT_NO_HOLES,
                                                  no_holes_certified=True)))
        out.append(covering_deficiency(fsys, 5, 60, seed=7))
    return out


def test_scalar_engine_outputs_match_golden_digest():
    digest = hashlib.sha256(repr(_engine_outputs()).encode()).hexdigest()
    assert digest == GOLDEN
