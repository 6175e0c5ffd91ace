"""The batch kernels against the plain loops they replaced.

Each rewrite of a hot loop (mesh counting, the chain walk, the CSV cells and
the chaos game) performs the same float operations in the same order as the
loop before it.  The reference loops are kept here, the chaos game's in
helpers.py, and the CLI outputs are pinned by sha256 digests taken from the
loop implementations.
The closed-form overlap witness is checked against a brute-force search
over block vertices in exact image polytopes.
"""

import hashlib
import io
import itertools
import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ifslab import conditions, render
from ifslab.addresses import first_bifurcation
from ifslab.cli import fmt, main, write_csv
from ifslab.core import apply_map, image_polytope, new_ifs, project_prefix
from ifslab.errors import DegenerateAffineHull, DuplicatePoints, NoEllFound
from ifslab.geometry import DEFAULT_TOL, contains
from ifslab.measure import box_dim_estimate, chain_walk, mesh_count
from ifslab.render import chaos_game

from helpers import (chaos_game_reference, exact_twin, float_facets, reference_mesh_count,
                     triangle_system, unit_system)

TETRAHEDRON = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# reference loops


def reference_triple(ex, images, i, k, j):
    """(f_k(p_j) strictly inside f_i(Omega), least ell whose block fits, or None), by brute force.

    Every vertex of the block k j^(ell-1) is projected from scratch and
    tested exactly in f_i(Omega) and f_k(Omega); strictness reads the exact
    facet slacks of f_i(Omega).  The block's vertex from p_j is f_k(p_j)
    for every ell, so when that point is outside f_i(Omega) no ell fits.
    """
    q = apply_map(ex, k, ex.points[j])
    interior = all(off - sum(a * b for a, b in zip(n, q)) > 0 for n, off, _ in images[i].halfspaces)
    if not contains(images[i], q):
        return interior, None
    for ell in range(1, conditions.ELL_CAP + 1):
        word = (k,) + (j,) * (ell - 1)
        verts = [project_prefix(ex, word, p) for p in ex.points]
        if all(contains(images[i], v) and contains(images[k], v) for v in verts):
            return interior, ell
    return interior, None


def reference_witness(sys):
    """The least (grade, ell, i, k, j) over every triple, on the exact twin system."""
    ex = exact_twin(sys)
    images = [image_polytope(ex, (i,)) for i in range(ex.m)]
    found, interior_seen = [], False
    for i in range(ex.m):
        for k in range(ex.m):
            if k == i:
                continue
            for j in range(ex.m):
                interior, ell = reference_triple(ex, images, i, k, j)
                interior_seen |= interior
                if ell is not None:
                    found.append((not interior, ell, i, k, j))
    if not found:
        if interior_seen:
            raise NoEllFound("no block length closes the containment")
        return None
    overlap_only, ell, i, k, j = min(found)
    return conditions.OverlapWitness(
        i=i, k=k, j=j, ell=ell, block0=(k,) + (j,) * (ell - 1),
        grade="proper-overlap" if overlap_only else "vertex-interior")


def reference_chain_walk(sys, pts, depth, tol=DEFAULT_TOL):
    """The chain walk over every row at every depth, dead or alive."""
    A, b, norms = float_facets(sys.omega)
    slack = b + tol * norms
    lam = float(sys.lam)
    P = np.array([[float(v) for v in p] for p in sys.points])
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    bif = np.full(n, -1, dtype=np.int64)
    dead = np.full(n, -1, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    r = pts.copy()
    for dep in range(depth):
        if not alive.any():
            break
        cand = (r[:, None, :] - (1 - lam) * P[None, :, :]) / lam
        feas = np.all(cand @ A.T <= slack, axis=2)
        cnt = feas.sum(axis=1)
        bif[alive & (cnt >= 2)] = dep
        dead[alive & (cnt == 0)] = dep
        alive &= cnt == 1
        pick = np.argmax(feas, axis=1)
        r = cand[np.arange(n), pick]
    return bif, dead


def reference_write_csv(stream, header, rows):
    """The CSV writer as one `fmt` call per cell, row by row."""
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    stream.write("\n".join(lines) + "\n")


def _witness_or_error(fn, sys):
    try:
        return fn(sys)
    except NoEllFound:
        return "NoEllFound"


# ---------------------------------------------------------------------------
# forcing-block search


LAMBDA_GRID = [0.5, 0.52, 0.55, 0.58, 0.6, 0.62, 0.65, 0.68, 0.7, 0.75, 0.8, 0.85, 0.9]


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_witness_matches_reference_triangle(lam):
    s = triangle_system(lam)
    assert _witness_or_error(conditions.vertex_overlap_witness, s) == \
        _witness_or_error(reference_witness, s)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.55, 0.6, 0.7, 0.9])
def test_witness_matches_reference_interval(lam):
    s = unit_system(lam)
    assert _witness_or_error(conditions.vertex_overlap_witness, s) == \
        _witness_or_error(reference_witness, s)


def test_witness_matches_reference_tetrahedron():
    s = new_ifs(0.8, TETRAHEDRON)
    got = conditions.vertex_overlap_witness(s)
    assert got is not None
    assert got == reference_witness(s)


def _exact(points):
    return [tuple(Fraction(v) for v in p) for p in points]


SKEW_TETRAHEDRON = ((0.0, 0.0, 0.0), (2.0, 0.5, 0.0), (0.25, 1.5, 0.0), (0.5, 0.75, 1.25))
SIMPLEX4 = tuple(tuple(float(i == k) for k in range(4)) for i in range(-1, 4))
PRISM = tuple(v + (h,) for h in (0.0, 1.0) for v in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
# the float tetrahedron at 0.8 has its own test above
DIM3_CASES = {f"tetrahedron-{lam}": (lam, TETRAHEDRON) for lam in [0.45, 0.5, 0.55, 0.6, 0.7, 0.9]}
DIM3_CASES.update({
    "tetrahedron-exact-4/5": (Fraction(4, 5), _exact(TETRAHEDRON)),
    "tetrahedron-exact-1/2": (Fraction(1, 2), _exact(TETRAHEDRON)),
    "skew-tetrahedron-0.7": (0.7, SKEW_TETRAHEDRON),
    "simplex4-0.75": (0.75, SIMPLEX4),
    "prism-0.8": (0.8, PRISM),  # not a simplex
})


@pytest.mark.parametrize("name", list(DIM3_CASES))
def test_witness_matches_reference_dim3(name):
    lam, points = DIM3_CASES[name]
    s = new_ifs(lam, points)
    got = _witness_or_error(conditions.vertex_overlap_witness, s)
    assert got == _witness_or_error(reference_witness, s)
    assert (got is None) == (lam <= 0.5)  # at 0.5 the first-level images only touch


def test_no_ell_found_only_with_an_interior_vertex(monkeypatch):
    # on the interval at 0.6, f_1(p_0) is strictly inside f_0(Omega) and
    # its block needs ell = 4; on the tetrahedron at 0.8 no vertex image is
    # strictly inside any image and the overlap blocks need ell = 3
    monkeypatch.setattr(conditions, "ELL_CAP", 3)
    s = unit_system(0.6)
    assert _witness_or_error(conditions.vertex_overlap_witness, s) == "NoEllFound"
    assert _witness_or_error(reference_witness, s) == "NoEllFound"
    monkeypatch.setattr(conditions, "ELL_CAP", 2)
    s = new_ifs(0.8, TETRAHEDRON)
    assert conditions.vertex_overlap_witness(s) is None
    assert reference_witness(s) is None


@pytest.mark.parametrize("sys_", [triangle_system(0.65), unit_system(0.6),
                                  new_ifs(Fraction(7, 10), [(Fraction(0),), (Fraction(1),)])])
def test_minimal_ell_matches_reference_per_triple(sys_):
    ex = exact_twin(sys_)
    images = [image_polytope(ex, (i,)) for i in range(ex.m)]
    a, b = Fraction(sys_.lam).as_integer_ratio()
    U, H = sys_.facet_slacks
    for i, k, j in itertools.product(range(sys_.m), repeat=3):
        got = conditions._triple([a * v for v in U[j]], [(b - a) * (hk - hi) for hi, hk in zip(H[i], H[k])],
                                 a, b)
        assert got == reference_triple(ex, images, i, k, j)


def _random_anchor_sets(count, seed):
    """(lam, anchors) draws in d = 1..3 with m <= d + 3 anchors, half exact and half float.

    Each set is a random simplex plus up to two more anchors, each either a
    positive mix of the simplex's vertices, so strictly inside the hull, or
    a free point, which most often makes a hull that is not a simplex.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, exact = rng.randint(1, 3), len(out) % 2 == 0
        coord = (lambda: Fraction(rng.randint(-8, 8), rng.randint(1, 3))) if exact else \
            (lambda: round(rng.uniform(-2, 2), rng.choice([1, 3, 17])))
        pts = [tuple(coord() for _ in range(d)) for _ in range(d + 1)]
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                wts = [rng.randint(1, 4) for _ in pts[:d + 1]]
                pts.append(tuple(sum(wt * p[c] for wt, p in zip(wts, pts)) / sum(wts) for c in range(d)))
            else:
                pts.append(tuple(coord() for _ in range(d)))
        lam = Fraction(rng.randint(7, 17), 20) if exact else rng.uniform(0.35, 0.85)
        try:
            out.append((lam, new_ifs(lam, pts)))
        except (DegenerateAffineHull, DuplicatePoints):
            continue
    return out


RANDOM_ANCHOR_SETS = _random_anchor_sets(20, seed=31)


def test_random_anchor_sets_cover_interior_anchors_and_non_simplex_hulls():
    systems = [s for _, s in RANDOM_ANCHOR_SETS]
    assert {s.d for s in systems} == {1, 2, 3} and max(s.m - s.d for s in systems) == 3
    assert any(all(v > 0 for v in row) for s in systems for row in s.facet_slacks[0])
    assert any(len(s.omega.halfspaces) > s.d + 1 for s in systems)
    assert {type(lam) for lam, _ in RANDOM_ANCHOR_SETS} == {Fraction, float}


@pytest.mark.parametrize("case", range(len(RANDOM_ANCHOR_SETS)))
def test_witness_matches_reference_random_anchors(case):
    _, s = RANDOM_ANCHOR_SETS[case]
    assert _witness_or_error(conditions.vertex_overlap_witness, s) == \
        _witness_or_error(reference_witness, s)


# ---------------------------------------------------------------------------
# mesh counts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mesh_count_matches_set_of_tuples(d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=3.0, size=(2000, d)) - 1.0  # negative coordinates too
    for eps in (2.0, 0.5, 0.1, 0.013):
        assert mesh_count(pts, eps) == reference_mesh_count(pts, eps)
    if d == 1:
        flat = pts[:, 0]
        for eps in (0.5, 0.01):
            assert mesh_count(flat, eps) == reference_mesh_count(flat, eps)


def test_mesh_count_wide_extent():
    # cells far apart on every axis: the per-axis extents multiply past int64
    pts = np.array([[-1e15, 1e15, 3.0], [1e15, -1e15, -3.0], [1e15, -1e15, -3.0], [0.0, 0.0, 0.0]])
    assert mesh_count(pts, 1e-3) == reference_mesh_count(pts, 1e-3) == 3


def test_mesh_count_cells_past_int64():
    # cell indices near or past 2^63 are counted on their float floors, not wrapped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mesh_count([[1e300], [2e300], [3e300]], 1.0) == 3
        assert mesh_count([[1e19], [1e19 + 4096.0]], 1.0) == 2
        assert mesh_count([[-1e300, 0.5], [-1e300, 0.7], [0.0, -0.0]], 1.0) == 2
        # past the float range no two cells can be told apart: refuse, do not count
        for pts in ([[1e300], [2e300]], [[0.0], [-1e300]]):
            with pytest.raises(ValueError, match="past the float range"):
                mesh_count(pts, 1e-10)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_mesh_count_rejects_points_that_are_not_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="points must be finite"):
            mesh_count([(0.0, 0.0), (bad, 0.7)], 0.1)


def test_mesh_count_empty_and_bad_epsilon():
    assert mesh_count(np.empty((0, 2)), 0.1) == 0
    with pytest.raises(ValueError):
        mesh_count([(0.0, 0.0)], 0.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -0.1, -float("inf")])
def test_mesh_count_rejects_scale_outside_positive_reals(eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy cast warning on the way to the error
        with pytest.raises(ValueError, match="positive and finite"):
            mesh_count([(0.0, 0.0), (0.3, 0.7)], eps)
        with pytest.raises(ValueError, match="positive and finite"):
            box_dim_estimate([(0.0, 0.0), (0.3, 0.7)], [0.5, 0.25, eps])


# ---------------------------------------------------------------------------
# chain walk


@pytest.mark.parametrize("lam", [0.45, 0.5, 0.55, 0.6, 0.7])
def test_chain_walk_matches_uncompacted_triangle(lam):
    s = triangle_system(lam)
    pts = np.random.default_rng(5).dirichlet([1.0, 1.0, 1.0], 3000)[:, 1:]
    got = chain_walk(s, pts, 30)
    want = reference_chain_walk(s, pts, 30)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("lam", [0.4, 0.53, 0.6])
def test_chain_walk_matches_uncompacted_interval(lam):
    s = unit_system(lam)
    pts = (np.arange(1, 4096) / 4096)[:, None]
    got = chain_walk(s, pts, 40)
    want = reference_chain_walk(s, pts, 40)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_chain_walk_empty_input():
    bif, dead = chain_walk(unit_system(0.6), np.empty((0, 1)), 10)
    assert bif.shape == dead.shape == (0,)


@pytest.mark.parametrize("lam", [0.6, 0.7, 0.8])
def test_chain_walk_matches_first_bifurcation_tetrahedron(lam):
    s = new_ifs(lam, TETRAHEDRON)
    pts = np.random.default_rng(9).dirichlet([1.0] * 4, 300)[:, 1:]
    bif, _ = chain_walk(s, pts, 30)
    got = [None if b < 0 else b for b in bif.tolist()]
    assert got == [first_bifurcation(s, tuple(p), 30) for p in pts.tolist()]


# ---------------------------------------------------------------------------
# chaos game


CHAOS_SYSTEMS = {
    "d1-m2": unit_system(0.6),
    "d1-m3": new_ifs(0.45, [(0.0,), (0.5,), (1.0,)]),
    "d1-m4": new_ifs(0.3, [(-1.0,), (0.25,), (0.5,), (2.0,)]),
    "d2-m3": triangle_system(0.7),
    "d2-m4": new_ifs(0.55, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
    "d2-m3-fraction": new_ifs(Fraction(3, 5), [(Fraction(0), Fraction(0)),
                                               (Fraction(1), Fraction(0)),
                                               (Fraction(1, 3), Fraction(2, 3))]),
    "d2-m3-lam095": triangle_system(0.95),  # W = 1442: too long a coupling to pay at 20,000
}


def _record_lanes(monkeypatch):
    """A list that gets, per call of the coupled lanes, whether every lane coupled."""
    seen, lanes = [], render._coupled_lanes

    def recording(*args):
        out = lanes(*args)
        seen.append(out is not None)
        return out

    monkeypatch.setattr(render, "_coupled_lanes", recording)
    return seen


@pytest.mark.parametrize("name", list(CHAOS_SYSTEMS))
@pytest.mark.parametrize("seed", [0, 7])
def test_chaos_game_matches_joint_loop(name, seed, monkeypatch):
    s = CHAOS_SYSTEMS[name]
    lanes = _record_lanes(monkeypatch)
    for iters in (3000, 20_000):
        got = chaos_game(s, iters, 150, seed)
        want = chaos_game_reference(s, iters, 150, seed)
        assert got.shape == want.shape == (iters - 150, s.d)
        assert got.tobytes() == want.tobytes()
    # 3,000 iterations are too few for lanes to pay; 20,000 run every
    # system but lam = 0.95 in lanes, and every lane couples
    assert lanes == ([] if name == "d2-m3-lam095" else [True])


def test_chaos_game_falls_back_when_a_lane_does_not_couple(monkeypatch):
    # two steps of replay leave every lane far from its predecessor's end
    monkeypatch.setattr(render, "_coupling_steps", lambda lam: 2)
    lanes = _record_lanes(monkeypatch)
    for s in CHAOS_SYSTEMS.values():
        got = chaos_game(s, 5000, 150, 3)
        assert got.tobytes() == chaos_game_reference(s, 5000, 150, 3).tobytes()
    assert lanes == [False] * len(CHAOS_SYSTEMS)


def test_coupling_steps():
    assert [render._coupling_steps(lam) for lam in (0.6, 0.7, 0.95)] == [152, 214, 1442]


# ---------------------------------------------------------------------------
# CSV cells


CSV_CASES = {
    "signed-zeros": [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [0.5, -0.0]],
    "non-finite": [[float("nan"), float("inf")], [float("-inf"), float("nan")], [1e-300, 0.1]],
    "bool-int-str": [[True, 3, "ab"], [False, -1, ""], [True, 0, "0"]],
    "fraction": [[Fraction(1, 3), 0.25], [Fraction(-2), 0.25]],
    "mixed-int-float": [[1, 0.1], [0.1, 2], [3, 0.30000000000000004]],
    "numpy-scalars": [[np.float64(0.1), np.int64(4)], [np.float64(-0.0), np.int64(-4)]],
    "repeats": [[v, -v, v * 3] for v in (0.1, 0.2, 0.1, 0.0, 0.2, 0.1)],
    "distinct-with-zeros": [[-0.0, 1.0], [0.0, 2.0], [0.25, -0.0]],
    "zero-rows": [],
}


@pytest.mark.parametrize("name", list(CSV_CASES))
def test_write_csv_matches_cell_loop(name):
    rows = CSV_CASES[name]
    header = ["c%d" % k for k in range(len(rows[0]) if rows else 2)]
    got, want = io.StringIO(), io.StringIO()
    write_csv(got, header, rows)
    reference_write_csv(want, header, rows)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# CLI outputs pinned to the loop implementations


def _ifs(tmp_path, name, lam, points):
    p = tmp_path / name
    p.write_text(json.dumps({"lambda": lam, "points": points}))
    return str(p)


def _run(capsys, tmp_path, argv, out=None):
    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    data = stdout.encode()
    if out is not None:
        data += b"\0" + (tmp_path / out).read_bytes()
    return hashlib.sha256(data).hexdigest()


GOLDEN = {
    "classify-grid-tri07":
        "12c12c3a82a9d366732171c16b8913f181d090653aeb12886216f0f63fd15d96",
    "classify-grid-tri05":
        "2fd501f65433aaa3b41844d625bb4ccbe0be3e2189d133c6ab95c5208eba490b",
    "classify-grid-line045":
        "b156bc3972ffeefef7f72234ed6394aa12a8676fee1937bf7bce8c788d2a91f8",
    "sample-measure-tri07":
        "338447b64b6ba03ecd4058c047153be5fa04e5259ab237f3df242e2b94a3ac11",
    "sample-measure-line":
        "a1c22365eb4b0f8fa3ecd214a230af05a5c6ab9c1c48356f3fe85f2313626d9a",
    "box-dim-attractor-tri06":
        "3d933d8a5e59e5c4ee411ccf8024f79afe666d8f5479b424c784c1300cb45fa4",
    "box-dim-attractor-line053":
        "bdbe2ff800767681a02265537c35f5ee9668b2267c161e17e32e48172fe41a7d",
    "box-dim-uniqueness-line053":
        "9d5a561b111155b968e747c24125c992ee7e60bfe93426cf2a08ca413c9cdc15",
    "render-attractor-tri07":
        "3bfad2ecc0f5c4ef500e035d42ad1d71af7b3e22dabb2989ce6316d38e1bf5ad",
    "render-attractor-line":
        "367a3623257746c4b8b3fcbbec2d5345855f2853e3f39f004da0a2a53fd4c8d5",
}


def golden_digests(capsys, tmp_path):
    tri07 = _ifs(tmp_path, "tri07.json", 0.7, [[0, 0], [1, 0], [0, 1]])
    tri06 = _ifs(tmp_path, "tri06.json", 0.6, [[0, 0], [1, 0], [0, 1]])
    tri05 = _ifs(tmp_path, "tri05.json", 0.5, [[0, 0], [1, 0], [0, 1]])
    line045 = _ifs(tmp_path, "line045.json", 0.45, [[0], [1]])
    line053 = _ifs(tmp_path, "line053.json", 0.53, [[0], [1]])
    out = str(tmp_path / "out")
    return {
        "classify-grid-tri07": _run(capsys, tmp_path, [
            "classify-grid", "--ifs", tri07, "--resolution", "48", "--depth", "30",
            "--out", out], "out"),
        "classify-grid-tri05": _run(capsys, tmp_path, [
            "classify-grid", "--ifs", tri05, "--resolution", "40", "--depth", "20",
            "--out", out], "out"),
        "classify-grid-line045": _run(capsys, tmp_path, [
            "classify-grid", "--ifs", line045, "--resolution", "700", "--depth", "40",
            "--out", out], "out"),
        "sample-measure-tri07": _run(capsys, tmp_path, [
            "sample-measure", "--ifs", tri07, "--probs", "0.2,0.3,0.5", "--samples", "400",
            "--depth", "25", "--seed", "11"]),
        "sample-measure-line": _run(capsys, tmp_path, [
            "sample-measure", "--ifs", line053, "--samples", "300", "--seed", "4"]),
        "box-dim-attractor-tri06": _run(capsys, tmp_path, [
            "box-dim", "--ifs", tri06, "--set", "attractor", "--eps", "0.1,0.05,0.025",
            "--out", out], "out"),
        "box-dim-attractor-line053": _run(capsys, tmp_path, [
            "box-dim", "--ifs", line053, "--set", "attractor", "--eps", "0.02,0.01,0.005",
            "--out", out], "out"),
        "box-dim-uniqueness-line053": _run(capsys, tmp_path, [
            "box-dim", "--ifs", line053, "--set", "uniqueness", "--eps", "0.02,0.01,0.005",
            "--depth", "30", "--out", out], "out"),
        "render-attractor-tri07": _run(capsys, tmp_path, [
            "render-attractor", "--ifs", tri07, "--iters", "20000", "--burn-in", "100",
            "--resolution", "64", "--seed", "7", "--out", out], "out"),
        "render-attractor-line": _run(capsys, tmp_path, [
            "render-attractor", "--ifs", line045, "--iters", "8000", "--burn-in", "150",
            "--resolution", "50", "--seed", "3", "--out", out], "out"),
    }


def test_cli_outputs_match_golden_digests(capsys, tmp_path):
    assert golden_digests(capsys, tmp_path) == GOLDEN
