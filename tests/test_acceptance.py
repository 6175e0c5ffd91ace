"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream;
a failing criterion shows up as an ordinary pytest failure.
"""

import time
from fractions import Fraction

import numpy as np

from ifslab.addresses import ChainKind, Verdict, classify_point
from ifslab.conditions import (
    covering_deficiency,
    no_holes_sufficient,
    osc_failure_sufficient,
    pedicini_holds,
    vertex_overlap_witness,
    wn_coverage_estimate,
)
from ifslab.core import apply_inverse, apply_map, new_ifs
from ifslab.deleted_digits import DigitSet, as_ifs
from ifslab.geometry import contains, sample_uniform
from ifslab.measure import (
    MeasureSampler,
    box_dim_estimate,
    chain_walk,
    mu_bifurcation_fraction,
    uniqueness_grid,
)
from ifslab.render import chaos_game
from ifslab.triangle import (
    digit_forcing,
    gamma_nonempty,
    golden_ratio,
    lambda0,
    m_separation_holds,
    pi_point,
)

from helpers import triangle_system, unit_system


def _report(num, text, t0):
    print(f"\nACCEPTANCE {num} PASS: {text} [{time.time() - t0:.2f}s]")


def test_criterion_1_constants():
    t0 = time.time()
    assert abs(lambda0() - 0.682327803828) <= 1e-9
    assert abs(golden_ratio() - 0.618033988750) <= 1e-12
    _, thr = osc_failure_sufficient(triangle_system(0.7))
    assert abs(thr - 0.577350269) <= 1e-9
    _, thr = no_holes_sufficient(triangle_system(0.7))
    assert abs(thr - 0.666666667) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "closed-form constants at stated tolerances", t0)


def test_criterion_2_forcing_cycles():
    t0 = time.time()
    for num, den in ((3, 5), (11, 20), (13, 20)):
        tick = time.time()
        lam = Fraction(num, den)
        r = digit_forcing(lam, pi_point(lam))
        assert r.kind is ChainKind.UNIQUE_BY_CYCLE
        assert r.period == 3
        # forced one-hot triples rotate (0,0,1) -> (0,1,0) -> (1,0,0):
        # coordinates a, b, c carry the patterns (001), (010), (100)
        assert r.digits == (2, 1, 0)
        assert time.time() - tick < 1.0
    _report(2, "digit forcing certifies the period-3 cycle below lambda0", t0)


def test_criterion_3_all_points_multiple_at_07():
    t0 = time.time()
    s = triangle_system(0.7)
    assert no_holes_sufficient(s)[0]
    rng = np.random.default_rng(2024)
    pts = []
    P = np.array(s.points)
    while len(pts) < 1000:
        cand = sample_uniform(s.omega, 2000, rng)
        dist = np.linalg.norm(cand[:, None, :] - P[None, :, :], axis=2).min(axis=1)
        pts.extend(cand[dist > 1e-3].tolist())
    pts = pts[:1000]
    verdicts = [
        classify_point(s, tuple(p), 40, no_holes_certified=True).verdict for p in pts
    ]
    certified = sum(v is Verdict.MULTIPLE_CERTIFIED for v in verdicts)
    assert certified == 1000
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, "1000/1000 points MultipleCertified within depth 40 at lam=0.7", t0)


def test_criterion_4_lambda_grid_equivalences():
    t0 = time.time()
    lam0 = lambda0()
    inv_sqrt2 = 2**-0.5
    gamma_violations = 0
    sep_violations = 0
    for k in range(551, 850):
        lam = k / 1000
        if abs(lam - lam0) >= 1e-6 and gamma_nonempty(lam) != (lam < inv_sqrt2):
            if abs(lam - inv_sqrt2) >= 1e-6:
                gamma_violations += 1
        if abs(lam - inv_sqrt2) >= 1e-6 and abs(lam - lam0) >= 1e-6:
            if m_separation_holds(lam) != (lam > lam0):
                sep_violations += 1
    assert gamma_violations == 0 and sep_violations == 0
    _report(4, "corner-region and M-point equivalences hold on the whole grid", t0)


def test_criterion_5_one_dimensional_shadows():
    t0 = time.time()
    s = unit_system(0.63)
    xs = (np.arange(1, 1000) / 1000.0)[:, None]
    bif, dead = chain_walk(s, xs, 50)
    assert (bif >= 0).all(), "every grid point must bifurcate by depth 50"
    assert len(uniqueness_grid(s, 1000, 50)) == 0

    lam = Fraction(29, 50)  # 0.58, between the Komornik-Loreti constant and g
    se = new_ifs(lam, [(Fraction(0),), (Fraction(1),)])
    x = (1 / (1 + lam),)
    rep = classify_point(se, x, 64)
    assert rep.verdict is Verdict.UNIQUE_CERTIFIED
    assert rep.certificate is not None and rep.certificate.period == 2
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(5, "lam=0.63 grid fully bifurcates; lam=0.58 period-2 point certified unique", t0)


def test_criterion_6_pedicini_suite():
    t0 = time.time()
    A = DigitSet((0, 1, 3))
    ok, _, rhs = pedicini_holds(A, 0.45)
    assert ok and abs(rhs - 2.454545454545) <= 1e-9
    ok, _, _ = pedicini_holds(A, 0.35)
    assert not ok

    frac45, _ = covering_deficiency(as_ifs(A, 0.45), n=8, samples=10_000, seed=61)
    assert frac45 == 0.0
    frac35, _ = covering_deficiency(as_ifs(A, 0.35), n=8, samples=10_000, seed=62)
    assert frac35 > 0.05

    s = as_ifs(A, 0.45)
    rng = np.random.default_rng(63)
    pts = sample_uniform(s.omega, 2000, rng)
    bif, _ = chain_walk(s, pts, 60)
    assert float(np.mean(bif >= 0)) >= 0.99
    _report(6, "Pedicini bounds, covering deficiencies and a.e. bifurcation shadow", t0)


def test_criterion_7_wn_coverage():
    t0 = time.time()
    s = triangle_system(0.7)
    w = vertex_overlap_witness(s)
    assert w is not None
    results = []
    for n in range(1, 13):
        frac, err = wn_coverage_estimate(s, w, n, samples=10_000, seed=71)
        results.append((n, frac, err))
    for (_, f1, e1), (_, f2, e2) in zip(results, results[1:]):
        assert f2 <= f1 + 2 * (e1 + e2)
    assert min(f for _, f, _ in results) < 0.05
    _report(7, f"W_n coverage non-increasing, min fraction {min(f for _, f, _ in results):.4f}", t0)


def test_criterion_8_natural_measure_bifurcation():
    t0 = time.time()
    s = triangle_system(0.7)
    sampler = MeasureSampler(s, (1 / 3, 1 / 3, 1 / 3), seed=81)
    frac, _ = mu_bifurcation_fraction(sampler, 10_000, 40)
    assert frac >= 0.99
    _report(8, f"mu-sample bifurcation fraction {frac:.4f} >= 0.99", t0)


def test_criterion_9_dimension_estimates():
    t0 = time.time()
    # gasket render: chaos-game cloud at lam = 1/2
    tick = time.time()
    pts = chaos_game(triangle_system(0.5), iters=200_000, burn_in=1000, seed=91)
    slope, _, _ = box_dim_estimate(pts, [2.0**-k for k in range(3, 8)])
    assert 1.38 <= slope <= 1.78
    assert time.time() - tick < 120.0

    # comparative 1-D uniqueness grids
    tick = time.time()
    eps_1d = [2.0**-k for k in range(3, 9)]
    u53 = uniqueness_grid(unit_system(0.53), 4096, 40)
    u60 = uniqueness_grid(unit_system(0.60), 4096, 40)
    s53, _, _ = box_dim_estimate(u53, eps_1d)
    s60, _, _ = box_dim_estimate(u60, eps_1d)
    assert s53 >= s60 + 0.2
    assert time.time() - tick < 120.0

    # triangle at the golden ratio: depth matched to the grid pitch
    tick = time.time()
    ug = uniqueness_grid(triangle_system(golden_ratio()), 512, 14)
    sg, _, _ = box_dim_estimate(ug, [2.0**-k for k in range(2, 7)])
    assert 1.1 <= sg <= 1.7
    assert time.time() - tick < 120.0
    _report(9, f"slopes: gasket {slope:.3f}, 1-D {s53:.3f} vs {s60:.3f}, triangle {sg:.3f}", t0)


def test_criterion_10_infrastructure():
    t0 = time.time()
    # inverse/forward round trip at 1e-12 relative
    rng = np.random.default_rng(101)
    systems = [unit_system(0.57), triangle_system(0.7), triangle_system(0.51)]
    for s in systems:
        for _ in range(200):
            x = tuple(rng.uniform(-2, 2, size=s.d))
            j = int(rng.integers(0, s.m))
            y = apply_map(s, j, apply_inverse(s, j, x))
            assert max(abs(a - b) for a, b in zip(x, y)) <= 1e-12 * max(
                1.0, max(abs(v) for v in x)
            )

    # extension property in no-holes mode: depth 30, 200 random points
    violations = 0
    for s in (unit_system(0.6), triangle_system(0.7)):
        pts = sample_uniform(s.omega, 100, np.random.default_rng(102))
        for p in pts:
            r = tuple(p)
            for _ in range(30):
                children = [
                    j for j in range(s.m)
                    if contains(s.omega, apply_inverse(s, j, r))
                ]
                if not children:
                    violations += 1
                    break
                r = apply_inverse(s, children[int(rng.integers(0, len(children)))], r)
    assert violations == 0

    # byte-identical reruns for a fixed seed
    import tempfile
    from pathlib import Path

    from ifslab.cli import main

    with tempfile.TemporaryDirectory() as td:
        ifs = Path(td) / "tri.json"
        ifs.write_text('{"lambda": 0.7, "points": [[0,0],[1,0],[0,1]]}')
        outs = []
        for name in ("a.pgm", "b.pgm"):
            out = Path(td) / name
            assert main(["render-attractor", "--ifs", str(ifs),
                         "--iters", "20000", "--burn-in", "200", "--resolution", "64",
                         "--seed", "5", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
    _report(10, "round trips, extension property and byte-identical reruns", t0)
