"""Each kind of caller input enters through one reader.

A seed through `geometry._rng`, an integer of at least 0 read by
`_check_depth`; a projection's start point through `core._root`; a digit
array through `core.project_words`' own check, a 2-D integer array.  (A
point batch goes through `core._rows`; test_measure.py pins its refusals
for both batched walks.)  Each test here pins an input that some site once
read in its own way: silently, or with numpy's error instead of a one-line
diagnostic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ifslab.conditions import covering_deficiency, vertex_overlap_witness, wn_coverage_estimate, wn_membership
from ifslab.core import project_all_words, project_words
from ifslab.deleted_digits import DigitSet, attractor_interval, count_expansions
from ifslab.errors import DimensionMismatch, PointOutsideOmega
from ifslab.geometry import _rng, volume_mc
from ifslab.measure import MeasureSampler
from ifslab.render import chaos_game

from helpers import triangle_system

TRI07 = triangle_system(0.7)
W07 = vertex_overlap_witness(TRI07)

SEEDED = {
    "measure-sampler": lambda seed: MeasureSampler(TRI07, (1 / 3,) * 3, seed),
    "covering-deficiency": lambda seed: covering_deficiency(TRI07, 2, 20, seed),
    "wn-coverage": lambda seed: wn_coverage_estimate(TRI07, W07, 2, 20, seed),
    "volume-mc": lambda seed: volume_mc(TRI07.omega, 20, seed),
    "chaos-game": lambda seed: chaos_game(TRI07, 300, 100, seed),
}


@pytest.mark.parametrize("seed", [None, -1, 2.5, True], ids=["none", "negative", "float", "bool"])
@pytest.mark.parametrize("run", SEEDED.values(), ids=SEEDED.keys())
def test_a_seed_is_an_integer_of_at_least_0(run, seed):
    # None would draw fresh OS entropy, so two runs with it would differ,
    # and True would draw seed 1's stream; the sampler refuses them at
    # construction, before any draw
    with pytest.raises(ValueError) as exc:
        run(seed)
    assert str(exc.value) == f"seed must be an integer of at least 0, got {seed!r}"


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**40, np.int64(5)])
def test_the_one_generator_draws_default_rngs_stream(seed):
    # the sites that seeded with default_rng(seed) keep their outputs
    assert np.array_equal(_rng(seed).random(64), np.random.default_rng(seed).random(64))
    assert np.array_equal(_rng(seed).integers(0, 3, 64), np.random.default_rng(seed).integers(0, 3, 64))


def test_w_n_membership_reads_an_exact_point_as_its_float():
    for n in (1, 3, 6):
        assert wn_membership(TRI07, W07, (Fraction(3, 10), Fraction(1, 5)), n) == \
            wn_membership(TRI07, W07, (0.3, 0.2), n)


PROJECTIONS = {
    "words": lambda x0: project_words(TRI07, [[0, 1]], x0),
    "all-words": lambda x0: project_all_words(TRI07, 2, x0),
}


@pytest.mark.parametrize("x0, error, message", [
    ((0.5,), DimensionMismatch, "point has dimension 1, system 2"),
    ((math.nan, 0.5), ValueError, "point (nan, 0.5) has a non-finite coordinate"),
], ids=["one-coordinate", "nan"])
@pytest.mark.parametrize("project", PROJECTIONS.values(), ids=PROJECTIONS.keys())
def test_a_projection_reads_its_start_point_as_a_walk_does(project, x0, error, message):
    # (0.5,) used to broadcast to (0.5, 0.5)
    with pytest.raises(error) as exc:
        project(x0)
    assert str(exc.value) == message


@pytest.mark.parametrize("digits, shown", [
    (np.array([[0.0, 1.0]]), "2-D float64"),
    (np.array([0, 1]), "1-D int64"),
    (np.array([[True, False]]), "2-D bool"),
], ids=["float", "1-D", "bool"])
def test_digits_that_are_not_a_2d_integer_array_are_refused(digits, shown):
    with pytest.raises(ValueError) as exc:
        project_words(TRI07, digits, (0, 0))
    assert str(exc.value) == f"digits must be a 2-D integer array, got {shown}"


def test_uint64_digits_project_as_their_int64_values():
    # uint64 + int64 promotes to float64, which numpy refused as an index
    digits = np.random.default_rng(4).integers(0, 3, (50, 20))
    want = project_words(TRI07, digits, (0, 0))
    assert np.array_equal(project_words(TRI07, digits.astype(np.uint64), (0, 0)), want)


@pytest.mark.parametrize("K", [-1, 2.5])
def test_the_word_length_is_a_count(K):
    # -1 used to return [[x0/lam]]
    with pytest.raises(ValueError) as exc:
        project_all_words(TRI07, K, (0, 0))
    assert str(exc.value) == f"K must be an integer of at least 0, got {K!r}"


def test_count_expansions_reads_x_in_the_systems_arithmetic():
    # float(27/11) lies above the exact top endpoint 27/11: the walk reads
    # it exactly, so the pre-check must too, or the report is "unknown"
    A, lam = DigitSet((0, 1, 3)), Fraction(9, 20)
    top = attractor_interval(A, lam)[1]
    assert top == Fraction(27, 11) and Fraction(float(top)) > top
    assert count_expansions(A, lam, top, 20).prefix_counts[-1] == 1
    for x in (float(top), math.nan):
        with pytest.raises(PointOutsideOmega) as exc:
            count_expansions(A, lam, x, 20)
        assert str(exc.value) == f"{x} is outside the attractor interval"
