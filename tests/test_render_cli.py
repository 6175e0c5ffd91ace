import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ifslab
from ifslab.cli import main
from ifslab.core import load_system, new_ifs
from ifslab.deleted_digits import DigitSet, as_ifs
from ifslab.errors import UnsupportedDimension
from ifslab.measure import MeasureSampler, sample_natural_measure
from ifslab import render
from ifslab.render import chaos_game, render_attractor, write_pgm

from helpers import TETRAHEDRON, triangle_system, unit_system


class TestRender:
    def test_gasket_occupancy(self):
        s = triangle_system(0.5)
        for k in (5, 6):
            img = render_attractor(s, iters=120000, burn_in=500, resolution=2**k, seed=9)
            occupied = int(np.sum(img == 0))
            assert 0.9 * 3**k <= occupied <= 3**k

    def test_no_holes_triangle_fills(self):
        s = triangle_system(0.7)
        img = render_attractor(s, iters=200000, burn_in=500, resolution=16, seed=10)
        grid = img == 0
        # every cell whose centre is well inside the triangle is occupied
        c = (np.arange(16) + 0.5) / 16
        gx, gy = np.meshgrid(c, c, indexing="xy")
        inside = gx + (1 - gy - 1 / 16) < 1 - 2 / 16  # image rows flipped
        assert grid[inside.T].all() or grid[inside].all()

    def test_cantor_strip_has_gaps(self):
        s = as_ifs(DigitSet((0, 1)), 0.45)
        img = render_attractor(s, iters=60000, burn_in=500, resolution=64, seed=11)
        assert (img == 255).any() and (img == 0).any()
        # strip: all rows identical
        assert (img == img[0]).all()

    def test_burn_in_validation(self):
        with pytest.raises(ValueError):
            chaos_game(unit_system(0.6), iters=50, burn_in=10, seed=0)

    def test_pgm_format(self):
        buf = io.StringIO()
        write_pgm(buf, np.array([[0, 255], [255, 0]], dtype=np.uint8))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3:] == ["0 255", "255 0"]

    def test_pgm_rows_are_the_pixels_text(self):
        image = np.arange(256, dtype=np.int64).reshape(16, 16)
        for img in (image, image.astype(np.uint8), image.T):
            buf = io.StringIO()
            write_pgm(buf, img)
            rows = buf.getvalue().splitlines()[3:]
            assert rows == [" ".join(str(v) for v in row) for row in img.tolist()]

    @pytest.mark.parametrize("image", [
        np.array([[300, -1]]), np.array([[0, 256]]), np.array([[-1, 0]], dtype=np.int8),
        np.array([0, 255]), np.zeros((2, 2, 2), dtype=np.uint8), np.array([[0.0, 255.0]]),
        np.array([[True, False]]),
    ], ids=["out-of-range", "256", "negative-int8", "1-D", "3-D", "float", "bool"])
    def test_pgm_rejects_what_is_not_a_2d_integer_image_in_0_255(self, image):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="2-D integer array of values in 0..255"):
            write_pgm(buf, image)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("name, value, least", [
        *[(name, v, 0) for name in ("iters", "burn_in") for v in (5000.5, -1, "3")],
        *[("resolution", v, 1) for v in (2.5, 0, "3")],
    ])
    def test_a_count_is_an_integer_of_at_least_its_least(self, name, value, least):
        # each count passes the one step-count rule before iters > burn_in >= 100
        args = {"iters": 5000, "burn_in": 100, "resolution": 64, "seed": 1, name: value}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer of at least "
                                                       f"{least}, got {value!r}")):
            render_attractor(triangle_system(0.7), **args)

    def test_a_numpy_integer_count_is_a_count(self):
        s = triangle_system(0.7)
        want = render_attractor(s, 5000, 100, 64, 1)
        got = render_attractor(s, np.int64(5000), np.int64(100), np.int64(64), 1)
        assert got.tobytes() == want.tobytes()

    def test_a_solid_attractor_is_refused_before_the_orbit_runs(self, monkeypatch):
        def orbit(*args):
            raise AssertionError("chaos_game ran on a system it cannot render")

        monkeypatch.setattr(render, "chaos_game", orbit)
        tet = new_ifs(0.95, TETRAHEDRON)
        with pytest.raises(UnsupportedDimension, match="dim <= 2"):
            render_attractor(tet, 300_000, 1000, 64, 1)

    def test_binning_a_solid_cloud_is_refused(self):
        with pytest.raises(UnsupportedDimension) as exc:
            render.bin_to_grid(new_ifs(0.6, TETRAHEDRON), np.zeros((1, 3)), 4)
        assert str(exc.value) == "rendering is implemented for dim <= 2"

    @pytest.mark.parametrize("path", ["lanes", "fallback"])
    def test_chaos_game_peak_memory(self, path, monkeypatch):
        # 10^6 iterations at d = 2 hold 16 B of point each, and either 8 B
        # of digit (the lanes) or, after lanes that did not couple, 8 B of
        # digit list and 8 B of coordinate column (the scalar recurrence)
        if path == "fallback":
            lanes = render._coupled_lanes

            def uncoupled(*args):
                lanes(*args)

            monkeypatch.setattr(render, "_coupled_lanes", uncoupled)
        n = 10**6
        tracemalloc.start()
        try:
            pts = chaos_game(triangle_system(0.7), n, 100, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts.shape == (n - 100, 2)
        assert peak <= 33 * n


@pytest.fixture()
def tri_json(tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps({"lambda": 0.7, "points": [[0, 0], [1, 0], [0, 1]]}))
    return str(p)


@pytest.fixture()
def interval_json(tmp_path):
    p = tmp_path / "unit.json"
    p.write_text(json.dumps({"lambda": 0.6, "points": [[0], [1]]}))
    return str(p)


class TestCli:
    def test_triangle_constants(self, capsys):
        assert main(["triangle-constants"]) == 0
        out = capsys.readouterr().out
        assert "lambda0=0.682327803828" in out
        assert "g=0.618033988750" in out
        assert "inv_sqrt2=0.707106781187" in out

    def test_check_conditions(self, tri_json, capsys):
        assert main(["check-conditions", "--ifs", tri_json]) == 0
        out = capsys.readouterr().out
        assert "osc_failure=true" in out
        assert "threshold=0.57735026918962573" in out
        assert "no_holes=true" in out
        assert "overlap_witness=" in out and "grade=proper-overlap" in out

    def test_analyze_point(self, tri_json, capsys):
        assert main(["analyze-point", "--ifs", tri_json, "--point", "0.3,0.4", "--depth", "40"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("verdict,explored_depth,first_bifurcation")
        assert "multiple-certified" in out[1]

    @pytest.mark.parametrize("lam, points, point", [
        (0.45, [[0], [1]], "5"), (0.55, [[0], [1]], "5"),
        (0.6, [[0, 0], [1, 0], [0, 1]], "2,2"), (0.7, [[0, 0], [1, 0], [0, 1]], "2,2"),
    ], ids=["interval-0.45", "interval-0.55", "triangle-0.6", "triangle-0.7"])
    def test_analyze_point_outside_omega_exit_code(self, tmp_path, capsys, lam, points, point):
        # the same exit below and above the no-holes threshold d/(d+1)
        p = tmp_path / "ifs.json"
        p.write_text(json.dumps({"lambda": lam, "points": points}))
        assert main(["analyze-point", "--ifs", str(p), "--point", point, "--depth", "20"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.endswith(" is outside Omega\n")

    def test_analyze_point_bary_exact(self, tmp_path, capsys):
        p = tmp_path / "tri.json"
        p.write_text(json.dumps({"lambda": 0.6, "points": [[0, 0], [1, 0], [0, 1]]}))
        lam = 0.6
        den = 1 + lam + lam * lam
        assert main([
            "analyze-point", "--ifs", str(p), "--exact",
            "--bary", "9/49,15/49,25/49", "--depth", "64",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "unique-certified" in out[1]
        assert out[1].strip().endswith("3")  # period-3 cycle

    def test_deleted_digits(self, capsys):
        assert main(["deleted-digits", "--digits", "0,1,3", "--lambda", "0.45",
                     "--point", "1.2", "--depth", "50"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("lambda,lo,hi,verdict")

    def test_multiple_likely_is_not_a_lower_bound(self, capsys):
        # 4/9 has one address in {0,1,4,6} at 1/4, but a dead branch splits
        # off every third level, so the verdict at the horizon flips
        rows = []
        for depth in ("10", "11"):
            assert main(["deleted-digits", "--digits", "0,1,4,6", "--lambda", "0.25",
                         "--point", "0.4444444444444444", "--depth", depth]) == 0
            rows.append(capsys.readouterr().out.splitlines()[1])
        assert rows == ["0.25,0,2,multiple-likely,10,0,2", "0.25,0,2,unknown,11,0,1"]

    def test_interval_verdict_agrees_with_deleted_digits(self, tmp_path, capsys):
        # {0,1,3} at 0.45: the images cover from lam_nh = g/(g+R) ~ 2/5 on,
        # below d/(d+1) = 1/2, and both commands read that one rule
        anchors = as_ifs(DigitSet((0, 1, 3)), 0.45).points
        p = tmp_path / "digits.json"
        p.write_text(json.dumps({"lambda": 0.45, "points": [list(a) for a in anchors]}))
        assert main(["deleted-digits", "--digits", "0,1,3", "--lambda", "0.45",
                     "--point", "1.2"]) == 0
        digits_row = capsys.readouterr().out.splitlines()[1]
        assert main(["analyze-point", "--ifs", str(p), "--point", "1.2"]) == 0
        point_row = capsys.readouterr().out.splitlines()[1]
        assert digits_row.endswith(",multiple-certified,3,2,2")
        assert point_row.startswith("multiple-certified,3,2,2,")
        assert main(["check-conditions", "--ifs", str(p)]) == 0
        assert "no_holes=true threshold=0.40000000000000002\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["deleted-digits", "--digits", "0,nan,3", "--lambda", "0.45", "--point", "0.5"],
         "error: digits must be strictly increasing: (0.0, nan, 3.0)\n"),
        (["sample-measure", "--probs", "nan,0.5,0.5", "--samples", "3", "--seed", "1"],
         "error: probabilities must be finite, got (nan, 0.5, 0.5)\n"),
        (["sample-measure", "--probs", "0.5,inf,0.5", "--samples", "3", "--seed", "1"],
         "error: probabilities must be finite, got (0.5, inf, 0.5)\n"),
    ], ids=["digits", "probs", "probs-inf"])
    def test_nan_input_exits_2_with_its_own_message(self, tri_json, capsys, argv, message):
        if argv[0] == "sample-measure":
            argv = argv + ["--ifs", tri_json]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == message

    @pytest.mark.parametrize("ifs, argv", [
        ({"lambda": "0.7", "points": [[0, 0], [1, 0], [0, 1]]}, ["check-conditions"]),
        ({"lambda": 0.7, "points": [0, 1]}, ["check-conditions"]),
        ({"lambda": 0.7, "points": [[0, "1"], [1, 0], [0, 0]]},
         ["analyze-point", "--point", "0.1,0.1"]),
        ({"lambda": 0.7, "points": [[0, 0], [1, 0], [0, 1]], "probs": 3}, ["check-conditions"]),
        ({"lambda": 0.7, "points": [[0, 0], [1, 0], [0, 1]], "probs": [0.5, None, 0.5]},
         ["sample-measure", "--samples", "3", "--seed", "1"]),
        ({"lambda": 0.7, "points": [[0, True], [1, 0], [0, 0]]}, ["check-conditions"]),
        ({"lambda": 0.7, "points": [[0, 0], [1, 0], [0, 1]], "probs": ["0.5", "0.25", "0.25"]},
         ["sample-measure", "--samples", "3", "--seed", "1"]),
        (None, ["analyze-point", "--exact", "--point", "1/0,1/3"]),
        (None, ["analyze-point", "--bary", "0.2,0.3"]),
        (None, ["deleted-digits", "--digits", "0,1,inf", "--lambda", "0.45", "--point", "0.5"]),
    ], ids=["lambda-string", "points-flat", "coordinate-string", "probs-scalar", "probs-null",
            "coordinate-true", "probs-strings", "zero-denominator", "bary-arity", "digit-inf"])
    def test_malformed_input_exits_2_with_one_line(self, tri_json, tmp_path, capsys, ifs, argv):
        if argv[0] != "deleted-digits":
            path = tri_json
            if ifs is not None:
                path = tmp_path / "bad.json"
                path.write_text(json.dumps(ifs))
            argv = argv + ["--ifs", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_classify_grid(self, interval_json, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["classify-grid", "--ifs", interval_json, "--resolution", "64",
                     "--depth", "30", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,single_chain,first_bifurcation,dead_end_depth"
        assert len(lines) == 64  # header + 63 interior points

    def test_grid_commands_on_tetrahedron(self, tmp_path, capsys):
        # lam = 0.8 >= 3/4: no holes in R^3, so the frontier walks apply
        p = tmp_path / "tet.json"
        p.write_text(json.dumps({"lambda": 0.8, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        grid, dims = tmp_path / "grid.csv", tmp_path / "dims.csv"
        assert main(["classify-grid", "--ifs", str(p), "--resolution", "24", "--depth", "20",
                     "--out", str(grid)]) == 0
        assert grid.read_text().splitlines()[0] == (
            "x0,x1,x2,single_chain,first_bifurcation,dead_end_depth")
        assert main(["wn-coverage", "--ifs", str(p), "--n", "4", "--samples", "2000",
                     "--seed", "1"]) == 0
        assert main(["box-dim", "--ifs", str(p), "--set", "uniqueness",
                     "--eps", "0.25,0.125,0.0625", "--depth", "9", "--out", str(dims)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("classified ") and out[1] == "n,block,ell,fraction_outside,stderr"
        assert out[-1].startswith("slope=")

    def test_wn_coverage(self, tri_json, capsys):
        assert main(["wn-coverage", "--ifs", tri_json, "--n", "6", "--samples", "2000",
                     "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,block,ell,fraction_outside,stderr"
        frac = float(lines[1].split(",")[3])
        assert 0 <= frac < 0.2

    def test_sample_measure(self, tri_json, capsys):
        assert main(["sample-measure", "--ifs", tri_json, "--probs", "0.3,0.3,0.4",
                     "--samples", "5", "--depth", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x0,x1,prefix"
        assert len(out) == 6
        assert len(out[1].split(",")[2]) == 30

    def test_box_dim_attractor(self, tri_json, tmp_path, capsys):
        out = tmp_path / "dims.csv"
        code = main(["box-dim", "--ifs", tri_json, "--set", "attractor",
                     "--eps", "0.125,0.0625,0.03125", "--out", str(out)])
        assert code == 0
        assert "slope=" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "epsilon,count"

    def test_render_attractor_determinism(self, tri_json, tmp_path):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        for path in (a, b):
            assert main(["render-attractor", "--ifs", tri_json, "--iters", "5000",
                         "--burn-in", "200", "--resolution", "32", "--seed", "7",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"P2\n32 32\n255\n")

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": 1.5, "points": [[0],[1]]}')
        assert main(["check-conditions", "--ifs", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_render_zero_resolution_exit_code(self, tri_json, tmp_path, capsys):
        code = main(["render-attractor", "--ifs", tri_json, "--iters", "1000",
                     "--burn-in", "100", "--resolution", "0", "--seed", "1",
                     "--out", str(tmp_path / "x.pgm")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "resolution" in err and err.count("\n") == 1

    def test_box_dim_zero_epsilon_exit_code(self, tri_json, tmp_path, capsys):
        for which in ("attractor", "uniqueness"):
            code = main(["box-dim", "--ifs", tri_json, "--set", which,
                         "--eps", "0,0.1,0.05", "--out", str(tmp_path / "x.csv")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--eps" in err and err.count("\n") == 1

    def test_infinite_coordinate_exit_code(self, tmp_path, capsys):
        p = tmp_path / "inf.json"
        p.write_text('{"lambda": 0.7, "points": [[0, 0], [1e400, 0], [0, 1]]}')
        assert main(["check-conditions", "--ifs", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1

    def test_missing_file_exit_code(self, capsys):
        assert main(["check-conditions", "--ifs", "/nonexistent.json"]) == 2

    def test_budget_exit_code(self, tmp_path, capsys):
        p = tmp_path / "ifs.json"
        p.write_text(json.dumps({"lambda": 0.9, "points": [[0], [1]]}))
        code = main(["box-dim", "--ifs", str(p), "--set", "attractor",
                     "--eps", "0.01,0.005,0.0025,1e-12", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("lam, points", [
        # ell = 23, so the block table would hold 2^23 words
        (0.5000001, [[0], [1]]),
        # the hull fills 5e-10 of its bounding box, so uniform draws almost never land in it
        (0.7, [[0, 0], [1, 1], [0.5, 0.500000001]]),
    ], ids=["block-table", "thin-hull"])
    def test_wn_coverage_budget_exits_3_with_one_line(self, tmp_path, capsys, lam, points):
        p = tmp_path / "ifs.json"
        p.write_text(json.dumps({"lambda": lam, "points": points}))
        start = time.perf_counter()
        assert main(["wn-coverage", "--ifs", str(p), "--n", "2", "--samples", "100", "--seed", "1"]) == 3
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bare_memory_error_is_named(self, tri_json, monkeypatch, capsys):
        # a MemoryError raised by Python code carries no message
        def fail(*args):
            raise MemoryError()

        monkeypatch.setattr(ifslab.conditions, "vertex_overlap_witness", fail)
        assert main(["wn-coverage", "--ifs", tri_json, "--n", "2", "--samples", "10", "--seed", "1"]) == 3
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize("argv", [
        "sample-measure --ifs IFS --samples 1000000000000000 --seed 1",
        "wn-coverage --ifs IFS --n 2 --samples 1000000000000000 --seed 1",
        "render-attractor --ifs IFS --iters 1000 --burn-in 100 --resolution 100000000 "
        "--seed 1 --out OUT",
    ], ids=["sample-measure", "wn-coverage", "render-attractor"])
    def test_unallocatable_count_exits_3_with_one_line(self, tri_json, tmp_path, capsys, argv):
        # each count asks numpy for petabytes, past any address space, so
        # the allocation fails at once and nothing is written
        out = tmp_path / "x.pgm"
        argv = [{"IFS": tri_json, "OUT": str(out)}.get(a, a) for a in argv.split()]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, option", [
        ("classify-grid --ifs IFS --resolution 0 --depth 5 --out OUT", "--resolution"),
        ("classify-grid --ifs IFS --resolution -3 --depth 5 --out OUT", "--resolution"),
        ("classify-grid --ifs IFS --resolution 8 --depth -1 --out OUT", "--depth"),
        ("analyze-point --ifs IFS --point 0.3,0.4 --depth -3", "--depth"),
        ("deleted-digits --digits 0,1,3 --lambda 0.45 --point 1.2 --depth -2", "--depth"),
        ("box-dim --ifs IFS --set uniqueness --eps 0.1,0.05 --depth -1 --out OUT", "--depth"),
        ("sample-measure --ifs IFS --samples 5 --depth -2 --seed 1", "--depth"),
        ("render-attractor --ifs IFS --iters 1000 --burn-in 100 --resolution -1 --seed 1 "
         "--out OUT", "--resolution"),
        ("wn-coverage --ifs IFS --n 0 --samples 100 --seed 1", "--n"),
        ("wn-coverage --ifs IFS --n -3 --samples 100 --seed 1", "--n"),
        ("wn-coverage --ifs IFS --n 4 --samples 100 --seed -1", "--seed"),
        ("sample-measure --ifs IFS --samples 5 --seed -1", "--seed"),
        ("render-attractor --ifs IFS --iters 1000 --burn-in 100 --resolution 8 --seed -2 "
         "--out OUT", "--seed"),
    ])
    def test_out_of_range_count_exit_code(self, tri_json, tmp_path, capsys, argv, option):
        out = tmp_path / "x.out"
        argv = [{"IFS": tri_json, "OUT": str(out)}.get(a, a) for a in argv.split()]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: {option} must be at least ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        ("analyze-point --ifs IFS --point nan,0.3", "error: (nan, 0.3) is outside Omega"),
        ("analyze-point --ifs IFS --bary nan,0.3,0.3",
         "error: barycentric coordinates must sum to 1, got nan"),
        ("deleted-digits --digits 0,1,3 --lambda 0.45 --point nan",
         "error: nan is outside the attractor interval"),
    ])
    def test_nan_point_or_bad_tol_exit_code(self, tri_json, capsys, argv, message):
        # a NaN coordinate lies in no hull (a NaN barycentric one fails the
        # triple's own check first)
        assert main([tri_json if a == "IFS" else a for a in argv.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

    @pytest.mark.parametrize("lam, argv, code, out, err", [
        (0.7, "analyze-point --ifs IFS --depth 5", 2, "", "error: give exactly one of --point or --bary\n"),
        (0.7, "analyze-point --ifs IFS --point 0.2,0.2 --bary 0.2,0.2,0.6 --depth 5", 2, "",
         "error: give exactly one of --point or --bary\n"),
        (0.7, "analyze-point --ifs IFS --point 0.2,0.2,0.6 --depth 5", 2, "",
         "error: got 3 coordinates for a planar triangle; use --bary x,y,z\n"),
        (0.45, "check-conditions --ifs IFS", 0, "overlap_witness=none\n", ""),
        (0.45, "wn-coverage --ifs IFS --n 2 --samples 10 --seed 1", 2, "",
         "error: no overlap witness: the covering construction does not apply\n"),
        # at lambda = 0.7 every interior grid point bifurcates by depth 40
        (0.7, "box-dim --ifs IFS --set uniqueness --eps 0.2,0.1,0.05 --depth 40 --out OUT", 2, "",
         "error: the uniqueness grid is empty at this depth; nothing to fit\n"),
    ], ids=["neither-point-nor-bary", "both-point-and-bary", "three-coordinates", "no-witness",
            "wn-coverage-no-witness", "empty-uniqueness-grid"])
    def test_triangle_edge_exit_code(self, tmp_path, capsys, lam, argv, code, out, err):
        ifs, csv = tmp_path / "tri.json", tmp_path / "x.csv"
        ifs.write_text(json.dumps({"lambda": lam, "points": [[0, 0], [1, 0], [0, 1]]}))
        assert main([{"IFS": str(ifs), "OUT": str(csv)}.get(a, a) for a in argv.split()]) == code
        captured = capsys.readouterr()
        assert captured.out.endswith(out) and captured.err == err
        assert code == 0 or (captured.out == "" and not csv.exists())

    def test_exact_bary_must_sum_to_one_exactly(self, tri_json, capsys):
        # a float triple may miss 1 by SUM_TOL; an exact one is read exactly
        argv = ["analyze-point", "--ifs", tri_json, "--bary", "0.5,0.5,1e-13", "--depth", "8"]
        assert main(argv) == 0
        assert main(argv + ["--exact"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: barycentric coordinates must sum to 1, got 1.0000000000001\n"
        assert captured.out.count("\n") == 2  # the float run's header and row only

    def test_analyze_point_takes_no_tol(self, tri_json, capsys):
        # the hull pre-check and the walk both widen Omega by DEFAULT_TOL
        with pytest.raises(SystemExit) as exc:
            main(["analyze-point", "--ifs", tri_json, "--point", "0.3,0.3", "--tol", "1e-9"])
        assert exc.value.code == 2 and "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    def test_zero_samples_exit_code(self, tri_json, capsys):
        for argv in (["wn-coverage", "--ifs", tri_json, "--n", "4", "--samples", "0", "--seed", "1"],
                     ["sample-measure", "--ifs", tri_json, "--samples", "0", "--seed", "1"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: need at least one sample\n"

    def test_sample_measure_two_digit_symbols(self, tmp_path, capsys):
        # with m = 12 the digits 10 and 11 are two characters in the prefix
        p = tmp_path / "m12.json"
        p.write_text(json.dumps({"lambda": 0.9, "points": [[k] for k in range(12)]}))
        assert main(["sample-measure", "--ifs", str(p), "--samples", "60", "--depth", "9",
                     "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        sampler = MeasureSampler(load_system(str(p))[0], (1 / 12,) * 12, 5, trunc=9)
        pts, digs = sample_natural_measure(sampler, 60)
        assert lines[0] == "x0,prefix"
        assert lines[1:] == ["%.17g,%s" % (x, "".join(map(str, row)))
                             for x, row in zip(pts[:, 0].tolist(), digs.tolist())]
        assert any(len(line.split(",")[1]) > 9 for line in lines[1:])

    def test_repeated_main_matches_fresh_processes(self, tri_json, capsys):
        # the parser is built once per process; a later call must not see
        # options left over from an earlier one
        runs = [["sample-measure", "--ifs", tri_json, "--probs", "0.2,0.3,0.5",
                 "--samples", "40", "--depth", "12", "--seed", "3"],
                ["sample-measure", "--ifs", tri_json, "--samples", "40", "--depth", "12",
                 "--seed", "3"]]
        in_process = []
        for argv in runs:
            assert main(argv) == 0
            captured = capsys.readouterr()
            in_process.append((captured.out, captured.err))
        fresh = [(r.stdout, r.stderr) for r in map(_fresh_cli, runs)]
        assert in_process == fresh
        assert in_process[0][0] != in_process[1][0]

    def test_entry_point_runs(self):
        r = _fresh_cli(["triangle-constants"])
        assert r.returncode == 0 and "lambda0=" in r.stdout


def _fresh_cli(argv):
    """`python -m ifslab.cli argv` in a child that imports the same ifslab as this process."""
    src = str(Path(ifslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ifslab.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
