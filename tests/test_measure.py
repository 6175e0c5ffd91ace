import math

import numpy as np
import pytest

from ifslab.addresses import classify_point
from ifslab.errors import BadProbabilityVector, CertificateRequired, TooFewScales
from ifslab.measure import (
    MeasureSampler,
    attractor_point_cloud,
    box_dim_estimate,
    chain_walk,
    default_truncation,
    mesh_count,
    mu_bifurcation_fraction,
    sample_natural_measure,
    uniqueness_grid,
)
from ifslab.triangle import barycentric_to_point, golden_ratio, pi_point

from helpers import gasket_corner_cloud, triangle_system, unit_system


class TestSampler:
    def test_truncation_default(self):
        t = default_truncation(0.7)
        assert 0.7**t * 1.0 <= 1e-9 < 0.7 ** (t - 1)

    def test_determinism(self):
        s = triangle_system(0.7)
        a, da = sample_natural_measure(MeasureSampler(s, (1 / 3,) * 3, seed=42), 50)
        b, db = sample_natural_measure(MeasureSampler(s, (1 / 3,) * 3, seed=42), 50)
        assert np.array_equal(a, b) and np.array_equal(da, db)

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

    def test_needs_certificate(self):
        s = triangle_system(0.6)
        with pytest.raises(CertificateRequired):
            mu_bifurcation_fraction(MeasureSampler(s, (1 / 3,) * 3, seed=8), 100, 20)
