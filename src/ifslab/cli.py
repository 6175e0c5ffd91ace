"""Command-line entry point.

Exit codes: 0 success, 2 input error, 3 budget exceeded or an array too large.
All diagnostics go to stderr; results go to stdout or to --out files.
Randomised commands take an explicit --seed and never consult an entropy
source, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys as _sys
from fractions import Fraction

import numpy as np

from . import addresses, conditions, measure, render, triangle
from .core import load_system
from .deleted_digits import DigitSet, attractor_interval, count_expansions
from .errors import BudgetExceeded, IfsLabError, PointOutsideOmega
from .geometry import contains


def fmt(v) -> str:
    """CSV cell: floats at 17 significant digits, everything else verbatim."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(stream, header, rows) -> None:
    """Header line, then one line per row, cells formatted by `fmt`.

    Cells are formatted a column at a time.  A column of plain floats in
    which some value repeats, as lattice coordinates do, goes through a memo
    of "%.17g" strings, one per distinct value; zeros bypass the memo,
    because -0.0 == 0.0 would find each other's key but they print as "-0"
    and "0".  Every other column goes through `fmt` cell by cell.
    """
    lines = [",".join(header)]
    lines += map(",".join, zip(*map(_format_column, zip(*rows))))
    stream.write("\n".join(lines) + "\n")


def _format_column(col):
    if all(type(v) is float for v in col):
        distinct = dict.fromkeys(col)
        if len(distinct) == len(col):  # no value repeats, so a memo saves nothing
            return ["%.17g" % v for v in col]
        memo = {v: "%.17g" % v for v in distinct}
        return [memo[v] if v else "%.17g" % v for v in col]
    return list(map(fmt, col))


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


def _parse_fracs(text):
    try:
        return tuple(Fraction(v) for v in text.split(","))
    except ZeroDivisionError as e:
        raise ValueError(f"{text!r} holds a fraction with denominator 0") from e


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one."""
    ap = argparse.ArgumentParser(prog="ifslab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-point", help="classify the addresses of one point")
    p.add_argument("--ifs", required=True)
    p.add_argument("--point")
    p.add_argument("--bary")
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--exact", action="store_true")

    p = sub.add_parser("classify-grid", help="chain-classify a grid over Omega")
    p.add_argument("--ifs", required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check-conditions", help="sufficient conditions and overlap witness")
    p.add_argument("--ifs", required=True)

    sub.add_parser("triangle-constants", help="print the triangle-case constants")

    p = sub.add_parser("deleted-digits", help="count expansions with a deleted digit set")
    p.add_argument("--digits", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=int, default=40)

    p = sub.add_parser("wn-coverage", help="measure of Omega missed by block words")
    p.add_argument("--ifs", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sample-measure", help="draw points from the natural measure")
    p.add_argument("--ifs", required=True)
    p.add_argument("--probs")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("box-dim", help="box-counting slope of a point set")
    p.add_argument("--ifs", required=True)
    p.add_argument("--set", choices=["attractor", "uniqueness"], required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render-attractor", help="chaos-game PGM image")
    p.add_argument("--ifs", required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--burn-in", type=int, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    return ap


def cmd_analyze_point(args) -> int:
    sys_, _ = load_system(args.ifs, exact=args.exact)
    if (args.point is None) == (args.bary is None):
        raise ValueError("give exactly one of --point or --bary")
    if args.bary is not None:
        parts = _parse_fracs(args.bary) if args.exact else _parse_floats(args.bary)
        if len(parts) != 3:
            raise ValueError(f"--bary takes three weights x,y,z, got {len(parts)}")
        t = triangle.BarycentricTriple(*parts)
        pt = triangle.barycentric_to_point(sys_, t)
    else:
        pt = _parse_fracs(args.point) if args.exact else _parse_floats(args.point)
        if len(pt) == 3 and sys_.d == 2 and sys_.m == 3:
            raise ValueError("got 3 coordinates for a planar triangle; use --bary x,y,z")
    if not contains(sys_.omega, pt):
        raise PointOutsideOmega(f"{pt} is outside Omega")
    rep = addresses.classify_point(sys_, pt, args.depth,
                                   no_holes_certified=conditions.no_holes_sufficient(sys_)[0])
    write_csv(_sys.stdout,
              ["verdict", "explored_depth", "first_bifurcation", "final_count",
               "exact", "cycle_entry", "cycle_period"],
              [[rep.verdict.value, rep.explored_depth,
                -1 if rep.first_bifurcation is None else rep.first_bifurcation,
                rep.prefix_counts[-1], rep.exact,
                -1 if rep.certificate is None else rep.certificate.entry_depth,
                -1 if rep.certificate is None else rep.certificate.period]])
    return 0


def cmd_classify_grid(args) -> int:
    sys_, _ = load_system(args.ifs)
    pts = measure.grid_points(sys_, args.resolution)
    bif, dead = measure.chain_walk(sys_, pts, args.depth)
    header = [f"x{k}" for k in range(sys_.d)] + ["single_chain", "first_bifurcation", "dead_end_depth"]
    single = (bif < 0) & (dead < 0)
    rows = list(zip(*pts.T.tolist(), single.tolist(), bif.tolist(), dead.tolist()))
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        write_csv(f, header, rows)
    print(f"classified {len(pts)} grid points to depth {args.depth} -> {args.out}")
    return 0


def cmd_check_conditions(args) -> int:
    sys_, _ = load_system(args.ifs)
    osc, osc_thr = conditions.osc_failure_sufficient(sys_)
    holes, holes_thr = conditions.no_holes_sufficient(sys_)
    print(f"lambda={fmt(float(sys_.lam))}")
    print(f"maps={sys_.m} dim={sys_.d}")
    print(f"osc_failure={fmt(osc)} threshold={fmt(osc_thr)}")
    print(f"no_holes={fmt(holes)} threshold={fmt(holes_thr)}")
    w = conditions.vertex_overlap_witness(sys_)
    if w is None:
        print("overlap_witness=none")
    else:
        block = "".join(str(d) for d in w.block0)
        print(f"overlap_witness=i{w.i},k{w.k},j{w.j} ell={w.ell} block={block} grade={w.grade}")
    return 0


def cmd_triangle_constants(_args) -> int:
    print(f"lambda0={triangle.lambda0():.12f}")
    print(f"g={triangle.golden_ratio():.12f}")
    print(f"inv_sqrt2={2**-0.5:.12f}")
    return 0


def cmd_deleted_digits(args) -> int:
    digits = DigitSet(_parse_floats(args.digits))
    lam = float(args.lam)
    x = float(args.point)
    rep = count_expansions(digits, lam, x, args.depth)
    lo, hi = attractor_interval(digits, lam)
    write_csv(_sys.stdout,
              ["lambda", "lo", "hi", "verdict", "explored_depth", "first_bifurcation", "final_count"],
              [[lam, lo, hi, rep.verdict.value, rep.explored_depth,
                -1 if rep.first_bifurcation is None else rep.first_bifurcation,
                rep.prefix_counts[-1]]])
    return 0


def cmd_wn_coverage(args) -> int:
    sys_, _ = load_system(args.ifs)
    w = conditions.vertex_overlap_witness(sys_)
    if w is None:
        raise ValueError("no overlap witness: the covering construction does not apply")
    frac, err = conditions.wn_coverage_estimate(sys_, w, args.n, args.samples, args.seed)
    block = "".join(str(d) for d in w.block0)
    write_csv(_sys.stdout,
              ["n", "block", "ell", "fraction_outside", "stderr"],
              [[args.n, block, w.ell, frac, err]])
    return 0


def cmd_sample_measure(args) -> int:
    sys_, file_probs = load_system(args.ifs)
    probs = _parse_floats(args.probs) if args.probs else file_probs
    if probs is None:
        probs = tuple(1.0 / sys_.m for _ in range(sys_.m))
    sampler = measure.MeasureSampler(sys_, probs, args.seed, trunc=args.depth)
    pts, digs = measure.sample_natural_measure(sampler, args.samples)
    header = [f"x{k}" for k in range(sys_.d)] + ["prefix"]
    syms = np.array([str(j) for j in range(sys_.m)], dtype=object)
    rows = list(zip(*pts.T.tolist(), map("".join, syms[digs].tolist())))
    write_csv(_sys.stdout, header, rows)
    print(f"truncation_error={fmt(sampler.truncation_error)}", file=_sys.stderr)
    return 0


def cmd_box_dim(args) -> int:
    sys_, _ = load_system(args.ifs)
    eps = sorted(_parse_floats(args.eps), reverse=True)
    if not all(0 < e < math.inf for e in eps):
        raise ValueError(f"--eps scales must be positive and finite, got {args.eps}")
    if args.set == "attractor":
        pts = measure.attractor_point_cloud(sys_, min(eps))
    else:
        # grid pitch twice as fine as the smallest box scale
        resolution = max(8, round(2.0 / min(eps)))
        pts = measure.uniqueness_grid(sys_, resolution, args.depth)
        if len(pts) == 0:
            raise ValueError("the uniqueness grid is empty at this depth; nothing to fit")
    slope, resid, table = measure.box_dim_estimate(pts, eps)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        write_csv(f, ["epsilon", "count"], table)
    print(f"slope={fmt(slope)} residual={fmt(resid)} points={len(pts)}")
    return 0


def cmd_render_attractor(args) -> int:
    sys_, _ = load_system(args.ifs)
    image = render.render_attractor(sys_, args.iters, args.burn_in, args.resolution, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        render.write_pgm(f, image)
    occupied = int(np.sum(image == 0))
    print(f"rendered {args.resolution}x{args.resolution} image, {occupied} occupied cells -> {args.out}")
    return 0


_COMMANDS = {
    "analyze-point": cmd_analyze_point,
    "classify-grid": cmd_classify_grid,
    "check-conditions": cmd_check_conditions,
    "triangle-constants": cmd_triangle_constants,
    "deleted-digits": cmd_deleted_digits,
    "wn-coverage": cmd_wn_coverage,
    "sample-measure": cmd_sample_measure,
    "box-dim": cmd_box_dim,
    "render-attractor": cmd_render_attractor,
}


# Least valid value of each count option, checked before any command runs.
_COUNT_MINIMA = {"depth": 0, "resolution": 1, "n": 1, "seed": 0}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, least in _COUNT_MINIMA.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ValueError(f"--{name} must be at least {least}, got {value}")
        return _COMMANDS[args.command](args)
    except (BudgetExceeded, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=_sys.stderr)
        return 3
    except (IfsLabError, ValueError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
