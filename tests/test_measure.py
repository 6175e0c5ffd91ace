import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from ifslab.addresses import classify_point
from ifslab.conditions import covering_deficiency, vertex_overlap_witness, wn_entry_depths
from ifslab import core
from ifslab.core import centroid, new_ifs, project_words
from ifslab.errors import (BadProbabilityVector, CertificateRequired, DigitOutOfRange, DimensionMismatch,
                           TooFewScales)
from ifslab import measure
from ifslab.geometry import contains, contains_many
from ifslab.measure import (
    MeasureSampler,
    attractor_point_cloud,
    box_dim_estimate,
    chain_walk,
    default_truncation,
    grid_points,
    mesh_count,
    mu_bifurcation_fraction,
    sample_natural_measure,
    uniqueness_grid,
)
from ifslab.triangle import barycentric_to_point, pi_point

from helpers import (
    TETRAHEDRON,
    attractor_cloud_reference,
    gasket_corner_cloud,
    reference_mesh_count,
    triangle_system,
    unit_system,
    word_sum_reference,
)


class TestSampler:
    def test_truncation_default(self):
        t = default_truncation(0.7)
        assert 0.7**t * 1.0 <= 1e-9 < 0.7 ** (t - 1)

    def test_determinism(self):
        s = triangle_system(0.7)
        a, da = sample_natural_measure(MeasureSampler(s, (1 / 3,) * 3, seed=42), 50)
        b, db = sample_natural_measure(MeasureSampler(s, (1 / 3,) * 3, seed=42), 50)
        assert np.array_equal(a, b) and np.array_equal(da, db)

    @pytest.mark.parametrize("make, probs", [
        (lambda: unit_system(0.53), (0.5, 0.5)),
        (lambda: new_ifs(0.45, [(0.0,), (1.0,), (3.0,)]), (0.2, 0.3, 0.5)),
        (lambda: triangle_system(0.7), (0.2, 0.3, 0.5)),
        (lambda: new_ifs(0.8, TETRAHEDRON), (0.1, 0.2, 0.3, 0.4)),
    ], ids=["line-0.53", "digits013-0.45", "triangle-0.7", "tetrahedron-0.8"])
    def test_points_are_word_sums_of_their_digits(self, make, probs):
        # the kernel's one order of summation, bit for bit, in d = 1, 2 and 3
        s = make()
        pts, digits = sample_natural_measure(MeasureSampler(s, probs, seed=5), 300)
        assert np.array_equal(pts, word_sum_reference(s, digits.tolist(), centroid(s)))

    def test_degenerate_probs_collapse_to_anchor(self):
        s = triangle_system(0.5)
        sampler = MeasureSampler(s, (1.0, 0.0, 0.0), seed=1)
        pts, _ = sample_natural_measure(sampler, 20)
        assert np.allclose(pts, [0.0, 0.0], atol=sampler.truncation_error + 1e-12)

    def test_bad_probs(self):
        s = triangle_system(0.5)
        with pytest.raises(BadProbabilityVector):
            MeasureSampler(s, (0.5, 0.5), seed=0)
        with pytest.raises(BadProbabilityVector):
            MeasureSampler(s, (0.5, 0.4, 0.2), seed=0)

    def test_chaos_game_support_matches_gasket(self):
        # uniform digit sampling reproduces the gasket's occupied cells
        s = triangle_system(0.5)
        pts, _ = sample_natural_measure(MeasureSampler(s, (1 / 3,) * 3, seed=7), 30000)
        k = 4
        cells = set(map(tuple, np.floor(pts / 2.0**-k).astype(int).tolist()))
        want = set(map(tuple, np.floor(gasket_corner_cloud(k) / 2.0**-k).astype(int).tolist()))
        assert cells <= want
        assert len(cells) >= 0.95 * len(want)


def choice_digits(probs, shape, seed):
    """The digits `Generator.choice` draws from the sampler's seed: the reference stream."""
    return np.random.default_rng(np.random.SeedSequence(seed)).choice(len(probs), size=shape, p=probs)


def gather_then_sum(sys, digits, x0):
    """f_w(x0) of every row of digits by a 2-index gather of a (K, n, d) term array, then its sum."""
    terms, tail = core._word_terms(sys, digits.shape[1], x0)
    pts = np.zeros((len(digits), sys.d))
    for picked in terms[np.arange(len(terms))[:, None], digits.T]:
        pts += picked
    return pts + tail


ONE_SYSTEM_PER_D = [
    lambda: new_ifs(0.45, [(0.0,), (1.0,), (3.0,)]),
    lambda: triangle_system(0.7),
    lambda: new_ifs(0.8, TETRAHEDRON),
]


def zero_patterns(m, rng):
    """Probability vectors on m digits: one with no zero, then one zero first, in the middle, last."""
    out = []
    for zero in (None, 0, m // 2, m - 1):
        p = rng.random(m) + 0.05
        if zero is not None:
            p[zero] = 0.0
        out.append(tuple((p / p.sum()).tolist()))
    return out


class TestInverseCdfDraw:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_digits_are_the_choice_stream(self, m):
        rng = np.random.default_rng(100 + m)
        s = new_ifs(0.5, [(float(k),) for k in range(m)])
        for probs in zero_patterns(m, rng):
            for (n, K), seed in itertools.product([(1, 1), (7, 3), (300, 70), (64, 59)], (0, 5, 2**40 + 3)):
                sampler = MeasureSampler(s, probs, seed=seed, trunc=K)
                _, digits = sample_natural_measure(sampler, n)
                assert (digits.shape, digits.dtype) == ((n, K), np.int64)
                assert np.array_equal(digits, choice_digits(sampler.probs, (n, K), seed)), (probs, n, K, seed)

    @pytest.mark.parametrize("off", [-5e-10, 5e-10])
    def test_the_cdf_is_divided_by_its_last_entry_as_choice_divides_it(self, off):
        # probs summing to 1 + off, with the first CDF entry a placed so that
        # the first uniform u lies between a and a / (1 + off): the digit
        # drawn there is choice's only when the CDF is divided by its sum
        seed, shape = 11, (500, 40)
        u = np.random.default_rng(np.random.SeedSequence(seed)).random(shape)[0, 0]
        a = u * (1 + off / 2)
        sampler = MeasureSampler(unit_system(0.6), (a, 1 + off - a), seed=seed, trunc=shape[1])
        _, digits = sample_natural_measure(sampler, shape[0])
        assert np.array_equal(digits, choice_digits(sampler.probs, shape, seed))
        assert digits[0, 0] == (1 if off > 0 else 0)

    def test_trunc_is_a_count_and_zero_takes_the_default(self):
        s = triangle_system(0.7)
        assert MeasureSampler(s, (1 / 3,) * 3, seed=0).trunc == default_truncation(0.7)
        assert MeasureSampler(s, (1 / 3,) * 3, seed=0, trunc=np.int64(4)).trunc == 4
        for bad in (-3, 2.5, "7", None):
            with pytest.raises(ValueError, match=re.escape(f"trunc must be an integer of at least 0, got {bad!r}")):
                MeasureSampler(s, (1 / 3,) * 3, seed=0, trunc=bad)

    def test_sample_count_is_an_integer_of_at_least_one(self):
        sampler = MeasureSampler(triangle_system(0.7), (1 / 3,) * 3, seed=0)
        for bad in (2.5, 3.0, "4", None):
            with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {bad!r}")):
                sample_natural_measure(sampler, bad)
        for bad in (0, -2, np.int64(0)):
            with pytest.raises(ValueError, match="^need at least one sample$"):
                sample_natural_measure(sampler, bad)
        assert sample_natural_measure(sampler, np.int64(2))[0].shape == (2, 2)

    @pytest.mark.parametrize("make", ONE_SYSTEM_PER_D, ids=["d1", "d2", "d3"])
    def test_peak_memory_per_digit_drawn(self, make):
        # the uniforms, the digits and one comparison mask while drawing; the
        # digits and the projection's index table after the uniforms are freed
        s = make()
        sampler = MeasureSampler(s, (1 / s.m,) * s.m, seed=4, trunc=59)
        sample_natural_measure(sampler, 5)  # builds the system's cached arrays
        tracemalloc.start()
        try:
            sample_natural_measure(sampler, 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 3000 * 59


class TestProjectWords:
    @pytest.mark.parametrize("make", ONE_SYSTEM_PER_D, ids=["d1", "d2", "d3"])
    def test_flat_table_equals_the_gather_bit_for_bit(self, make):
        s = make()
        x0 = centroid(s)
        rng = np.random.default_rng(17 + s.d)
        big = rng.integers(0, s.m, (120, 64))
        cases = [rng.integers(0, s.m, shape) for shape in [(1, 30), (1, 1), (40, 0), (0, 12), (500, 59)]]
        cases += [big[:, ::2], big[::3, 5:], big.T[:50], np.asfortranarray(big), big[::-1, ::-1],
                  big.astype(np.int32), big.astype(np.uint8)]
        for digits in cases:
            got, want = project_words(s, digits, x0), gather_then_sum(s, digits, x0)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert np.array_equal(got, want)

    def test_a_list_of_words_reads_as_an_array(self):
        s = triangle_system(0.7)
        words = [[0, 1, 2], [2, 2, 0]]
        assert np.array_equal(project_words(s, words, (0, 0)), gather_then_sum(s, np.array(words), (0, 0)))

    @pytest.mark.parametrize("bad, word", [(-1, [0, -1, 2]), (3, [0, 3, 2]), (-7, [3, 1, -7])])
    def test_a_digit_outside_the_maps_is_refused(self, bad, word):
        s = triangle_system(0.7)
        with pytest.raises(DigitOutOfRange, match=re.escape(f"digit {bad} not in 0..2")):
            project_words(s, [[0, 1, 2], word], (0, 0))


class TestMeshCount:
    def test_single_point(self):
        assert mesh_count([(0.3, 0.7)], 0.25) == 1

    def test_unit_segment(self):
        xs = np.linspace(0, 1, 4097)[:, None]
        assert abs(mesh_count(xs, 1 / 8) - 8) <= 1

    def test_gasket_subdivision_exact(self):
        for k in (2, 3, 5):
            cloud = gasket_corner_cloud(k)
            assert mesh_count(cloud, 2.0**-k) == 3**k

    def test_refinement_monotone(self):
        rng = np.random.default_rng(12)
        pts = rng.random((500, 2))
        for e in (0.5, 0.25, 0.125):
            n1 = mesh_count(pts, e)
            n2 = mesh_count(pts, e / 2)
            assert n1 <= n2 <= 4 * n1


CLOUD_CASES = [
    ("line-0.53", lambda: unit_system(0.53), 0.005),
    ("digits013-0.45", lambda: new_ifs(0.45, [(0.0,), (1.0,), (3.0,)]), 0.01),
    ("triangle-0.6", lambda: triangle_system(0.6), 0.05),
    ("tetrahedron-0.55", lambda: new_ifs(0.55, TETRAHEDRON), 0.1),
]


@pytest.mark.parametrize("name,make,eps", CLOUD_CASES, ids=[c[0] for c in CLOUD_CASES])
def test_attractor_cloud_matches_word_sums(name, make, eps):
    s = make()
    K = math.ceil(math.log(eps / s.diameter()) / math.log(s.lam))
    cloud = attractor_point_cloud(s, eps)
    want = attractor_cloud_reference(s, K)
    assert cloud.shape == (s.m**K, s.d)
    assert np.array_equal(cloud, want)  # bit for bit, row order included
    for e in (4 * eps, 2 * eps, eps, 0.7 * eps):
        assert mesh_count(cloud, e) == reference_mesh_count(cloud, e)


@pytest.mark.parametrize("name,make,eps", CLOUD_CASES, ids=[c[0] for c in CLOUD_CASES])
def test_sampled_points_are_cloud_points(name, make, eps):
    # a sample and a cloud row with the same digits are the same bits
    s = make()
    cloud = attractor_point_cloud(s, eps)
    K = round(math.log(len(cloud), s.m))
    pts, digits = sample_natural_measure(MeasureSampler(s, (1 / s.m,) * s.m, seed=3, trunc=K), 200)
    assert np.array_equal(pts, cloud[digits @ s.m ** np.arange(K)])


@pytest.mark.parametrize("eps", [math.inf, 0.0, -0.1, math.nan])
def test_attractor_cloud_rejects_scale_outside_positive_reals(eps):
    with pytest.raises(ValueError, match="finest_eps must be positive and finite"):
        attractor_point_cloud(triangle_system(0.6), eps)


class TestBoxDim:
    def test_gasket_cloud_slope(self):
        cloud = attractor_point_cloud(triangle_system(0.5), 2.0**-7)
        slope, _, table = box_dim_estimate(cloud, [2.0**-k for k in range(3, 8)])
        assert slope == pytest.approx(math.log(3) / math.log(2), abs=0.2)
        assert [cnt for _, cnt in table] == [3**k for k in range(3, 8)]

    def test_dense_square_slope(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200000, 2))
        slope, _, _ = box_dim_estimate(pts, [2.0**-k for k in range(2, 6)])
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_too_few_scales(self):
        with pytest.raises(TooFewScales):
            box_dim_estimate([(0.0, 0.0)], [0.5, 0.25])
        with pytest.raises(TooFewScales):
            box_dim_estimate([(0.0, 0.0)], [0.25, 0.5, 0.125])


class TestUniquenessGrid:
    def test_empty_above_golden_ratio(self):
        assert len(uniqueness_grid(unit_system(0.63), 500, 50)) == 0

    def test_nonempty_below_komornik_loreti(self):
        pts = uniqueness_grid(unit_system(0.53), 4096, 40)
        assert len(pts) > 0

    def test_deepening_shrinks(self):
        s = unit_system(0.53)
        shallow = {float(p[0]) for p in uniqueness_grid(s, 1024, 25)}
        deep = {float(p[0]) for p in uniqueness_grid(s, 1024, 35)}
        assert deep <= shallow

    def test_pi_cell_marked_at_matched_depth(self):
        # grid pitch 1/64: the cell centre nearest the period-3 point stays a
        # single chain for ~log(res)/log(1/lam) steps, no further
        s = triangle_system(0.6)
        res, depth = 64, 7
        pts = uniqueness_grid(s, res, depth)
        target = barycentric_to_point(s, pi_point(0.6))
        cell = np.floor(np.array(target) * res)
        hits = np.floor(pts * res)
        assert any(np.array_equal(cell, h) for h in hits)

    def test_agrees_with_classifier(self):
        s = unit_system(0.58)
        res, depth = 200, 30
        marked = {round(float(p[0]) * res) for p in uniqueness_grid(s, res, depth)}
        for k in range(1, res, 17):
            x = k / res
            rep = classify_point(s, (x,), depth)
            single = all(c == 1 for c in rep.prefix_counts) and rep.prefix_counts[-1] == 1
            assert (k in marked) == single

    def test_grid_points_tetrahedron_matches_plain_loop(self):
        s = new_ifs(0.8, TETRAHEDRON)
        res = 12
        lo, hi = s.omega.bounding_box()
        want = []
        for cell in itertools.product(range(res), repeat=3):
            x = [a + (k + 0.5) / res * (b - a) for k, a, b in zip(cell, lo, hi)]
            if contains(s.omega, x):
                want.append(x)
        assert grid_points(s, res).tolist() == want

    @staticmethod
    def _one_shot_grid(s, res):
        """The lattice laid out in one piece: every cell centre at once, then one membership test."""
        lo, hi = (np.array(b, dtype=float) for b in s.omega.bounding_box())
        if s.d == 1:
            return lo + (np.arange(1, res) / res)[:, None] * (hi - lo)
        c = (np.arange(res) + 0.5) / res
        axes = np.meshgrid(*[c] * s.d, indexing="ij")
        pts = lo + np.stack([g.ravel() for g in axes], axis=1) * (hi - lo)
        return pts[contains_many(s.omega, pts)]

    @pytest.mark.parametrize("slab", [1, 7, 300, measure.GRID_SLAB_CELLS])
    def test_grid_slabs_match_the_one_shot_lattice(self, slab, monkeypatch):
        # a slab of one first-axis line, of a few, and the default, which
        # holds the 37^2 and 23^3 grids whole and cuts the others in two
        monkeypatch.setattr(measure, "GRID_SLAB_CELLS", slab)
        cases = [(unit_system(0.6), 50), (triangle_system(0.7), 1),
                 (triangle_system(0.7), 37), (triangle_system(0.7), 300),
                 (new_ifs(0.8, TETRAHEDRON), 23), (new_ifs(0.8, TETRAHEDRON), 50)]
        for s, res in cases:
            got, want = grid_points(s, res), self._one_shot_grid(s, res)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    def test_grid_memory_grows_with_the_kept_points_only(self):
        s = triangle_system(0.7)
        grid_points(s, 2)  # builds the polytope's cached float arrays
        tracemalloc.start()
        try:
            pts = grid_points(s, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kept points twice (the slabs' pieces, then their concatenation)
        # and one slab's temporaries; a one-shot lattice of 2^20 cells is 16 MB
        # a coordinate array before any test
        assert peak <= 2 * pts.nbytes + 8 * 2**20


class TestChainWalk:
    def test_matches_first_bifurcation(self):
        from ifslab.addresses import first_bifurcation

        s = triangle_system(0.7)
        rng = np.random.default_rng(8)
        pts = rng.random((60, 2))
        pts = pts[pts.sum(axis=1) <= 1]
        bif, dead = chain_walk(s, pts, 30)
        for p, b in zip(pts, bif):
            want = first_bifurcation(s, tuple(p), 30)
            assert (None if b < 0 else int(b)) == want

    def test_dead_end_detection(self):
        s = unit_system(0.4)
        bif, dead = chain_walk(s, np.array([[0.5]]), 10)
        assert dead[0] >= 0 and bif[0] < 0


TRI07 = triangle_system(0.7)


@pytest.mark.parametrize("call, error, message", [
    (lambda: uniqueness_grid(TRI07, 16, -1), ValueError, "depth must be an integer of at least 0, got -1"),
    (lambda: chain_walk(TRI07, [(0.3, 0.3)], 2.5), ValueError,
     "depth must be an integer of at least 0, got 2.5"),
    (lambda: grid_points(TRI07, 2.5), ValueError, "resolution must be an integer of at least 1, got 2.5"),
    (lambda: grid_points(TRI07, 0), ValueError, "resolution must be an integer of at least 1, got 0"),
    (lambda: covering_deficiency(TRI07, -2, 50, 1), ValueError,
     "n must be an integer of at least 0, got -2"),
    (lambda: wn_entry_depths(TRI07, vertex_overlap_witness(TRI07), [(0.3, 0.3)], -1), ValueError,
     "n_max must be an integer of at least 0, got -1"),
    (lambda: chain_walk(TRI07, np.zeros((4, 3)), 5), DimensionMismatch,
     "points of shape (4, 3) are not rows of dimension 2"),
    (lambda: chain_walk(TRI07, [0.3, 0.3], 5), DimensionMismatch,
     "points of shape (2,) are not rows of dimension 2"),
    # the scalar walkers raise ValueError for the same points
    (lambda: chain_walk(TRI07, [(0.3, 0.3), (math.nan, 0.3)], 5), ValueError,
     "points hold a non-finite coordinate"),
    (lambda: chain_walk(TRI07, [(0.3, -math.inf)], 5), ValueError, "points hold a non-finite coordinate"),
    # the block search reads its rows through the same core._rows
    (lambda: wn_entry_depths(TRI07, vertex_overlap_witness(TRI07), [(math.nan, 0.3), (0.3, 0.3)], 5),
     ValueError, "points hold a non-finite coordinate"),
    (lambda: wn_entry_depths(TRI07, vertex_overlap_witness(TRI07), np.full((2, 3), 0.2), 5),
     DimensionMismatch, "points of shape (2, 3) are not rows of dimension 2"),
], ids=["uniqueness-grid-depth", "chain-walk-depth", "grid-resolution-float", "grid-resolution-0",
        "covering-n", "wn-n-max", "chain-walk-width", "chain-walk-flat", "chain-walk-nan",
        "chain-walk-inf", "wn-nan-row", "wn-3-wide"])
def test_a_batched_walk_checks_its_counts_and_rows(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: uniqueness_grid(TRI07, 7, 5), "resolution must be at least 8, got 7"),
    (lambda: box_dim_estimate(np.zeros((0, 2)), [0.5, 0.25, 0.125]),
     "empty point set at some scale; no slope to fit"),
], ids=["uniqueness-grid-resolution", "box-dim-no-points"])
def test_a_grid_or_fit_with_nothing_to_work_on_is_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestMuBifurcation:
    def test_triangle_mostly_bifurcates(self):
        s = triangle_system(0.7)
        frac, err = mu_bifurcation_fraction(MeasureSampler(s, (1 / 3,) * 3, seed=5), 800, 40)
        assert frac >= 0.99

    def test_interval_all_bifurcate(self):
        s = unit_system(0.63)
        frac, _ = mu_bifurcation_fraction(MeasureSampler(s, (0.5, 0.5), seed=6), 500, 50)
        assert frac == 1.0

    def test_degenerate_probs_never_bifurcate(self):
        s = triangle_system(0.7)
        frac, _ = mu_bifurcation_fraction(MeasureSampler(s, (1.0, 0.0, 0.0), seed=7), 200, 40)
        assert frac == 0.0

    def test_tetrahedron_bifurcates(self):
        s = new_ifs(0.8, TETRAHEDRON)
        frac, _ = mu_bifurcation_fraction(MeasureSampler(s, (1 / 4,) * 4, seed=9), 500, 30)
        assert frac >= 0.99

    def test_needs_certificate(self):
        s = triangle_system(0.6)
        with pytest.raises(CertificateRequired):
            mu_bifurcation_fraction(MeasureSampler(s, (1 / 3,) * 3, seed=8), 100, 20)
