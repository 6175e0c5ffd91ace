"""The batch kernels against the plain loops they replaced.

Each rewrite of a hot loop (mesh counting, the chain walk, the CSV rows and
the chaos game) performs the same float operations in the same order as the
loop before it.  The reference loops are kept here verbatim, and the CLI
outputs are pinned by sha256 digests taken from the loop implementations.
The closed-form overlap witness is checked against a brute-force search
over block vertices in exact image polytopes.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from ifslab import conditions
from ifslab.cli import main
from ifslab.core import apply_map, new_ifs, project_prefix
from ifslab.errors import NoEllFound, UnsupportedDimension
from ifslab.geometry import DEFAULT_TOL, contains, image_polytope, np_halfspaces
from ifslab.measure import chain_walk, mesh_count

from helpers import triangle_system, unit_system

TETRAHEDRON = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# reference loops


def exact_twin(sys):
    """The system on the exact values of its inputs."""
    return new_ifs(Fraction(sys.lam), [tuple(Fraction(v) for v in p) for p in sys.points])


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


def reference_mesh_count(points, epsilon):
    """Occupied cells as a set of integer tuples."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    cells = np.floor(pts / epsilon).astype(np.int64)
    return len(set(map(tuple, cells.tolist())))


def reference_chain_walk(sys, pts, depth, tol=DEFAULT_TOL):
    """The chain walk over every row at every depth, dead or alive."""
    A, b, norms = np_halfspaces(sys.omega)
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
    u, h = sys_.facet_slacks
    for i in range(sys_.m):
        for k in range(sys_.m):
            for j in range(sys_.m):
                interior, t = conditions._triple(u[j], [b - a for a, b in zip(h[i], h[k])])
                got = (interior, conditions._block_ell(Fraction(sys_.lam), t, conditions.ELL_CAP))
                assert got == reference_triple(ex, images, i, k, j)


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


def test_mesh_count_empty_and_bad_epsilon():
    assert mesh_count(np.empty((0, 2)), 0.1) == 0
    with pytest.raises(ValueError):
        mesh_count([(0.0, 0.0)], 0.0)


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


def test_chain_walk_still_refuses_dim3():
    with pytest.raises(UnsupportedDimension):
        chain_walk(new_ifs(0.8, TETRAHEDRON), np.zeros((1, 3)), 5)


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
        "9753ec3804bbe776ef3f6da9d2aab2c48cbc812355aa36270b081b909f839ce8",
    "box-dim-attractor-tri06":
        "3d933d8a5e59e5c4ee411ccf8024f79afe666d8f5479b424c784c1300cb45fa4",
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
