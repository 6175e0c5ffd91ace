"""Seeded request lists for the three workloads, and how each request is run and checked.

A request is plain data, ``(kind, params)``.  ``KINDS[kind]`` holds three
functions: ``run(env, params)`` is the timed call into ``ifslab``;
``summarize(env, params, out)`` reduces the output to a small deterministic
tuple (the digest is taken over these); ``check(env, params, summary)``
compares that tuple with an oracle and returns a failure message or None.
Every call into the package goes through a module attribute looked up at
call time, so a tracer that rebinds module attributes sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

LAYERS = ("core", "geometry", "linfeas", "addresses", "conditions", "measure",
          "triangle", "deleted_digits", "render", "cli")
RIGHT_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
TETRAHEDRON = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
DIGITS_013 = (0, 1, 3)
LAMBDA0 = 0.682327803828  # root of t^3 + t = 1; exact pi(lam) requests stay below it
# IFS definition files the CLI requests read: name -> (lambda, anchor points)
IFS_FILES = {"tri07": (0.7, RIGHT_TRIANGLE), "tri06": (0.6, RIGHT_TRIANGLE),
             "line053": (0.53, ((0.0,), (1.0,)))}


# ---------------------------------------------------------------------------
# set-up: import the package from the checkout and build what requests share


def import_ifslab(src: Path):
    """Fresh import of ifslab from `src`; returns a namespace of its modules."""
    for name in [n for n in sys.modules if n == "ifslab" or n.startswith("ifslab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("ifslab")
    if Path(pkg.__file__).resolve().parent != (src / "ifslab").resolve():
        raise RuntimeError(f"ifslab imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**{n: importlib.import_module(f"ifslab.{n}") for n in LAYERS})


class Env:
    """Systems, IFS files and the scratch directory one workload's requests share."""

    def __init__(self, lab, workload, requests, tmp: Path):
        self.lab = lab
        self.tmp = tmp
        self.systems = {}
        self.ifs_files = {}
        new_ifs = lab.core.new_ifs
        frac_triangle = tuple(tuple(Fraction(v) for v in p) for p in RIGHT_TRIANGLE)
        if workload == "point-queries":
            self.systems["tri07"] = new_ifs(0.7, RIGHT_TRIANGLE)
            self.systems["tri06"] = new_ifs(0.6, RIGHT_TRIANGLE)
            self.systems["line055"] = new_ifs(0.55, ((0.0,), (1.0,)))
            self.systems["line055-exact"] = new_ifs(Fraction(0.55), ((Fraction(0),), (Fraction(1),)))
            self.systems["tri07-exact"] = new_ifs(Fraction(0.7), frac_triangle)
            self.systems["digits013"] = lab.deleted_digits.as_ifs(
                lab.deleted_digits.DigitSet(DIGITS_013), 0.45)
        elif workload == "grid-sweeps":
            for name, (lam, pts) in IFS_FILES.items():
                self.systems[name] = new_ifs(lam, pts)
                path = tmp / f"{name}.json"
                path.write_text(json.dumps({"lambda": lam, "points": [list(p) for p in pts]}),
                                encoding="utf-8")
                self.ifs_files[name] = str(path)
            for lam in (0.45, 0.35):
                self.systems[f"digits013-{lam}"] = lab.deleted_digits.as_ifs(
                    lab.deleted_digits.DigitSet(DIGITS_013), lam)
        else:
            self.systems["tet08"] = new_ifs(0.8, TETRAHEDRON)
            self.systems["tet08-exact"] = new_ifs(
                Fraction(0.8), tuple(tuple(Fraction(v) for v in p) for p in TETRAHEDRON))
            lams = {p[0] for k, p in requests if k in ("pi-exact", "relaxed-exact")}
            for lam in sorted(lams):
                self.systems[("tri-exact", lam)] = new_ifs(lam, frac_triangle)


def setup(lab, workload, requests, tmp: Path):
    """Build the workload's systems and run one untimed request of each kind."""
    env = Env(lab, workload, requests + WARMUP[workload], tmp)
    for kind, params in WARMUP[workload]:
        run, summarize, _ = KINDS[kind]
        summarize(env, params, run(env, params))
    return env


# ---------------------------------------------------------------------------
# request generation


def _strata(rng, n, lo, hi):
    """n values spread evenly over [lo, hi) with seeded jitter, in seeded order.

    Stratifying keeps a list's total work nearly the same for every seed,
    while which request gets which size still comes from the seed.
    """
    return rng.permutation(lo + (np.arange(n) + rng.random(n)) / n * (hi - lo))


def _int_strata(rng, n, lo, hi):
    return [int(v) for v in np.floor(_strata(rng, n, lo, hi + 1))]


def _triangle_points(rng, n):
    p = rng.random((n, 2))
    flip = p.sum(axis=1) > 1
    p[flip] = 1 - p[flip][:, ::-1]
    return [(float(x), float(y)) for x, y in p]


def _point_queries(rng):
    out = []
    out += [("classify-tri07", p) for p in _triangle_points(rng, 350)]
    # 1-D {0,1} at 0.55, not 0.52: at 0.52 the float path gives false
    # multiple-certified verdicts; defects.py measures that regime
    out += [("classify-line055", (float(x),)) for x in rng.random(350)]
    hi = 0.45 * 3 / 0.55
    out += [("count-expansions", (float(x),)) for x in rng.random(350) * hi]
    out += [("first-bif-tri06", p) for p in _triangle_points(rng, 350)]
    depths = _int_strata(rng, 300, 11, 12)
    out += [("relaxed-tri07", p + (d,)) for p, d in zip(_triangle_points(rng, 300), depths)]
    depths = _int_strata(rng, 300, 13, 14)
    out += [("enumerate-013", (float(x), d)) for x, d in zip(rng.random(300) * hi, depths)]
    return out


def _grid_sweeps(rng):
    out = []
    seeds = iter(rng.integers(1, 2**31, size=1000).tolist())
    n = 0

    def name(ext):
        nonlocal n
        n += 1
        return f"r{n:03d}.{ext}"

    for ifs in ("tri07", "tri06"):
        out += [("classify-grid", (ifs, r, 30, name("csv"))) for r in _int_strata(rng, 8, 64, 80)]
    out += [("classify-grid", ("line053", r, 40, name("csv"))) for r in _int_strata(rng, 8, 1024, 4096)]
    # the W_n frontier, and so peak memory, grows steeply with n and from
    # n = 11 on depends on a few sample points (4-24 MB at n = 11); n <= 10
    # and a fixed sample count keep it below the box-dim requests' 15 MB
    out += [("wn-coverage", ("tri07", k, 1500, next(seeds))) for k in _int_strata(rng, 12, 8, 10)]
    out += [("sample-measure", ("tri07", s, d, next(seeds)))
            for s, d in zip(_int_strata(rng, 12, 800, 1200), _int_strata(rng, 12, 20, 40))]
    out += [("box-dim-attractor", ("tri06", "0.1,0.05,0.025" + (",0.0125" if f else ""), name("csv")))
            for f in rng.permutation([0, 0, 1] * 4)]
    out += [("box-dim-uniqueness", ("line053", "0.01,0.005,0.0025", d, name("csv")))
            for d in _int_strata(rng, 12, 24, 40)]
    out += [("render-attractor", (ifs, it, r, next(seeds), name("pgm")))
            for ifs, it, r in zip(["tri07", "tri06"] * 6, _int_strata(rng, 12, 12_000, 20_000),
                                  _int_strata(rng, 12, 64, 128))]
    covering = ["digits013-0.45"] * 6 + ["digits013-0.35"] * 5 + ["tri06"] * 5
    out += [("covering", (s, k, m, next(seeds)))
            for s, k, m in zip(covering, _int_strata(rng, 16, 5, 7), _int_strata(rng, 16, 200, 250))]
    out += [("mu-bifurcation", (s, next(seeds))) for s in _int_strata(rng, 12, 1000, 3000)]
    return out


def _exact_3d(rng):
    # counts put p50 inside the pi(lambda) certificates and p90 inside the
    # witness searches, so neither sits between two kinds of request
    out = []
    ks = rng.integers(501, int(LAMBDA0 * 1000) + 1, size=75)
    for k in ks[:45]:
        lam = Fraction(int(k), 1000)
        den = 1 + lam + lam * lam
        out.append(("pi-exact", (lam, lam / den, 1 / den)))
    out += [("digit-forcing", (Fraction(int(k), 1000),)) for k in ks[45:]]
    lam = Fraction(13, 20)
    for a, b in zip(rng.integers(1, 211, size=15), rng.integers(1, 223, size=15)):
        x, y = Fraction(int(a), 211), Fraction(int(b), 223)
        if x + y > 1:
            x, y = 1 - x, 1 - y
        out.append(("relaxed-exact", (lam, x, y, 8)))
    out += [("gamma-scan", (Fraction(int(k), 1000), r))
            for k, r in zip(rng.integers(667, 683, size=8), _int_strata(rng, 8, 24, 32))]
    out += [("classify-tet", tuple(float(v) for v in w[1:])) for w in rng.dirichlet([1.0] * 4, 15)]
    out += [("witness-tet", ())] * 16
    out += [("volume-tet", (s, int(sd)))
            for s, sd in zip(_int_strata(rng, 8, 60, 120), rng.integers(1, 2**31, size=8))]
    return out


GENERATORS = {"point-queries": _point_queries, "grid-sweeps": _grid_sweeps, "exact-3d": _exact_3d}


def generate(workload, seed):
    """The workload's request list for `seed`, in a seeded order."""
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    reqs = GENERATORS[workload](rng)
    return [reqs[i] for i in rng.permutation(len(reqs))]


# ---------------------------------------------------------------------------
# point-queries kinds


def _summary_of(env, p, rep):
    cert = rep.certificate
    return (rep.verdict.value, rep.explored_depth, rep.first_bifurcation, tuple(rep.prefix_counts),
            None if cert is None else (cert.entry_depth, cert.period))


def _certified(env, sys_, x, depth):
    A = env.lab.addresses
    return A.classify_point(sys_, x, depth, mode=A.Mode.EXACT_NO_HOLES, no_holes_certified=True)


def _replay_exact(env, sys_exact, x, depth, summary):
    """Float multiple-certified verdicts must survive on the exact values of the inputs."""
    if summary[0] != "multiple-certified":
        return None
    rep = _certified(env, sys_exact, tuple(Fraction(v) for v in x), depth)
    if rep.verdict.value != "multiple-certified":
        return f"float multiple-certified, exact replay says {rep.verdict.value}"
    return None


def _check_counts_prefix(counts, explored, oracle):
    # a certified early return leaves the last level partial
    if list(counts[:explored]) != oracle[:explored]:
        return f"prefix counts {list(counts[:explored])} != oracle {oracle[:explored]}"
    if not 2 <= counts[explored] <= oracle[explored]:
        return f"partial level count {counts[explored]} outside [2, {oracle[explored]}]"
    return None


def _run_classify_tri07(env, p):
    return _certified(env, env.systems["tri07"], p, 40)


def _check_classify_tri07(env, p, s):
    if s[0] != "multiple-certified":
        return f"interior point of the lambda=0.7 triangle got {s[0]}"
    oracle, _, _ = oracles.triangle_tree(0.7, p, s[1])
    return (_check_counts_prefix(s[3], s[1], oracle)
            or _replay_exact(env, env.systems["tri07-exact"], p, 40, s))


def _run_classify_line055(env, p):
    return _certified(env, env.systems["line055"], p, 120)


def _check_classify_line055(env, p, s):
    return _replay_exact(env, env.systems["line055-exact"], p, 120, s)


def _run_count_expansions(env, p):
    D = env.lab.deleted_digits
    return D.count_expansions(D.DigitSet(DIGITS_013), 0.45, p[0], 50)


def _check_count_expansions(env, p, s):
    if s[0] != "multiple-certified":
        return f"Pedicini-certified point got {s[0]}"
    anchors = [0.45 * a / (1 - 0.45) for a in DIGITS_013]
    oracle = oracles.interval_counts(0.45, anchors, p[0], s[1])
    err = _check_counts_prefix(s[3], s[1], oracle)
    if err:
        return err
    D = env.lab.deleted_digits
    rep = D.count_expansions(D.DigitSet(DIGITS_013), Fraction(0.45), Fraction(p[0]), 50)
    if rep.verdict.value != "multiple-certified":
        return f"float multiple-certified, exact replay says {rep.verdict.value}"
    return None


def _run_first_bif(env, p):
    return env.lab.addresses.first_bifurcation(env.systems["tri06"], p, 60)


def _check_first_bif(env, p, s):
    want = oracles.triangle_first_bifurcation(0.6, p, 60)
    return None if s == want else f"first bifurcation {s} != oracle {want}"


def _run_relaxed_tri07(env, p):
    return env.lab.addresses.classify_point(env.systems["tri07"], p[:2], p[2])


def _check_relaxed(s, oracle, depth):
    counts, bif, cycle = oracle
    if cycle is not None:
        verdict = "unique-certified"
    elif len(counts) <= depth or counts[-1] < 2:
        verdict = "unknown"
    else:
        verdict = "multiple-likely"
    want = (verdict, len(counts) - 1, bif, tuple(counts), cycle)
    return None if s == want else f"report {s} != oracle {want}"


def _check_relaxed_tri07(env, p, s):
    return _check_relaxed(s, oracles.triangle_tree(0.7, p[:2], p[2]), p[2])


def _run_enumerate(env, p):
    return env.lab.addresses.enumerate_prefixes(env.systems["digits013"], (p[0],), p[1])


def _check_enumerate(env, p, s):
    anchors = [0.45 * a / (1 - 0.45) for a in DIGITS_013]
    want = oracles.interval_counts(0.45, anchors, p[0], p[1])
    return None if list(s) == want else f"prefix counts {list(s)} != oracle {want}"


# ---------------------------------------------------------------------------
# grid-sweeps kinds: CLI commands run in-process, plus library probes


def _cli(env, argv, out_name=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = env.lab.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue(), out_name


def _summarize_cli(env, p, res):
    """(exit code, stdout, stderr, output file text); the file is removed once read."""
    rc, out, err, out_name = res
    text = None
    if out_name and rc == 0:
        path = env.tmp / out_name
        text = path.read_text(encoding="utf-8")
        path.unlink()
    # output paths name the per-process scratch directory; keep digests comparable
    return rc, out.replace(str(env.tmp), "<tmp>"), err, text


def _csv_rows(text):
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _run_classify_grid(env, p):
    ifs, res, depth, out = p
    return _cli(env, ["classify-grid", "--ifs", env.ifs_files[ifs], "--resolution", str(res),
                      "--depth", str(depth), "--out", str(env.tmp / out)], out)


def _check_classify_grid(env, p, s):
    ifs, res, depth, _ = p
    rc, _, _, text = s
    if rc != 0:
        return f"classify-grid rc={rc}"
    _, rows = _csv_rows(text)
    # cell centres (i+1/2, j+1/2)/res lie in the triangle iff i + j + 1 <= res
    want = res - 1 if ifs == "line053" else res * (res + 1) // 2
    consistent = all(
        (r[-3] == "true") == (int(r[-2]) < 0 and int(r[-1]) < 0)
        and -1 <= int(r[-2]) < depth and -1 <= int(r[-1]) < depth
        for r in rows)
    if len(rows) != want or not consistent:
        return f"classify-grid rows={len(rows)} (want {want}) consistent={consistent}"
    return None


def _run_wn_coverage(env, p):
    ifs, n, samples, seed = p
    return _cli(env, ["wn-coverage", "--ifs", env.ifs_files[ifs], "--n", str(n),
                      "--samples", str(samples), "--seed", str(seed)])


def _check_wn_coverage(env, p, s):
    rc, out, _, _ = s
    if rc != 0:
        return f"wn-coverage rc={rc}"
    _, rows = _csv_rows(out)
    n, block, ell, frac, err = rows[0]
    if int(n) != p[1] or len(block) != int(ell) or not 0 <= float(frac) <= 1 or not float(err) > 0:
        return f"wn-coverage row {rows[0]} malformed"
    return None


def _run_sample_measure(env, p):
    ifs, samples, depth, seed = p
    return _cli(env, ["sample-measure", "--ifs", env.ifs_files[ifs], "--samples", str(samples),
                      "--depth", str(depth), "--seed", str(seed)])


def _check_sample_measure(env, p, s):
    ifs, samples, depth, _ = p
    rc, out, _, _ = s
    if rc != 0:
        return f"sample-measure rc={rc}"
    _, rows = _csv_rows(out)
    if len(rows) != samples or any(len(r[2]) != depth for r in rows):
        return f"sample-measure gave {len(rows)} rows, want {samples} of depth {depth}"
    # each point is the closed-form projection of its digits, started at the centroid
    lam, P = IFS_FILES[ifs]
    P = np.array(P)
    digits = np.array([[int(c) for c in r[2]] for r in rows])
    want = np.einsum("t,ntd->nd", (1 - lam) * lam ** np.arange(depth), P[digits])
    want += lam**depth * P.mean(axis=0)
    got = np.array([[float(r[0]), float(r[1])] for r in rows])
    if np.abs(got - want).max() > 1e-12:
        return f"sample-measure points off their prefixes by {np.abs(got - want).max():.3g}"
    return None


def _run_box_dim(env, p, which):
    ifs, eps, out = p[0], p[1], p[-1]
    argv = ["box-dim", "--ifs", env.ifs_files[ifs], "--set", which, "--eps", eps,
            "--out", str(env.tmp / out)]
    if which == "uniqueness":
        argv += ["--depth", str(p[2])]
    return _cli(env, argv, out)


def _box_dim_result(s):
    rc, out, _, text = s
    fields = dict(kv.split("=") for kv in out.split())
    counts = [int(c) for _, c in _csv_rows(text)[1]]
    return int(fields["points"]), float(fields["slope"]), counts


def _check_box_dim_attractor(env, p, s):
    if s[0] != 0:
        return f"box-dim rc={s[0]}"
    points, slope, counts = _box_dim_result(s)
    # the cloud is every depth-K image point, K the first depth whose images
    # are finer than the smallest scale (the right triangle's diameter is sqrt 2)
    lam = IFS_FILES[p[0]][0]
    K = math.ceil(math.log(min(float(e) for e in p[1].split(",")) / math.sqrt(2)) / math.log(lam))
    if points != 3**K or counts != sorted(counts) or not 1.0 <= slope <= 2.2:
        return f"box-dim attractor: points={points} (want {3**K}) counts={counts} slope={slope}"
    return None


def _check_box_dim_uniqueness(env, p, s):
    if s[0] != 0:
        return f"box-dim rc={s[0]}"
    points, slope, counts = _box_dim_result(s)
    if points < 1 or counts != sorted(counts) or not -0.5 <= slope <= 1.0:
        return f"box-dim uniqueness: points={points} counts={counts} slope={slope}"
    return None


def _run_render(env, p):
    ifs, iters, res, seed, out = p
    return _cli(env, ["render-attractor", "--ifs", env.ifs_files[ifs], "--iters", str(iters),
                      "--burn-in", "100", "--resolution", str(res), "--seed", str(seed),
                      "--out", str(env.tmp / out)], out)


def _check_render(env, p, s):
    res = p[2]
    rc, out, _, text = s
    if rc != 0:
        return f"render-attractor rc={rc}"
    lines = text.splitlines()
    rows = [ln.split() for ln in lines[3:]]
    black = sum(r.count("0") for r in rows)
    if lines[:3] != ["P2", f"{res} {res}", "255"] or len(rows) != res \
            or any(len(r) != res or not set(r) <= {"0", "255"} for r in rows) \
            or black < 1 or f"{black} occupied" not in out:
        return f"render-attractor image malformed: header={lines[:3]} rows={len(rows)} black={black}"
    return None


def _run_covering(env, p):
    name, n, samples, seed = p
    return env.lab.conditions.covering_deficiency(env.systems[name], n, samples, seed)


def _check_covering(env, p, s):
    frac, err = s
    if p[0] == "digits013-0.45" and frac != 0.0:
        return f"{{0,1,3}} at 0.45 has no holes, covering deficiency {frac} != 0"
    return None if 0 <= frac <= 1 and err > 0 else f"covering deficiency {s} out of range"


def _run_mu_bif(env, p):
    M = env.lab.measure
    return M.mu_bifurcation_fraction(M.MeasureSampler(env.systems["tri07"], (1 / 3,) * 3, p[1]),
                                     p[0], 30)


def _check_mu_bif(env, p, s):
    # at lambda = 0.7 every point of the triangle has many addresses
    frac, err = s
    return None if frac >= 0.99 and err > 0 else f"mu bifurcation fraction {s} < 0.99"


# ---------------------------------------------------------------------------
# exact-3d kinds


def _run_pi_exact(env, p):
    lam, x, y = p
    sys_ = env.systems[("tri-exact", lam)]
    C, A = env.lab.conditions, env.lab.addresses
    certified = C.no_holes_sufficient(sys_)[0]
    mode = A.Mode.EXACT_NO_HOLES if certified else A.Mode.RELAXED_OMEGA
    return A.classify_point(sys_, (x, y), 64, mode=mode, no_holes_certified=certified)


def _check_pi_exact(env, p, s):
    if s[0] != "unique-certified" or s[4] is None or s[4][1] != 3:
        return f"pi({p[0]}) got {s[0]} cycle {s[4]}, want unique-certified with period 3"
    return None


def _run_relaxed_exact(env, p):
    lam, x, y, depth = p
    return env.lab.addresses.classify_point(env.systems[("tri-exact", lam)], (x, y), depth)


def _check_relaxed_exact(env, p, s):
    lam, x, y, depth = p
    return _check_relaxed(s, oracles.triangle_tree(lam, (x, y), depth), depth)


def _forcing_summary(r):
    return r.kind.value, r.step, r.period, r.digits


def _run_digit_forcing(env, p):
    T = env.lab.triangle
    return T.digit_forcing(p[0], T.pi_point(p[0]))


def _check_digit_forcing(env, p, s):
    if s != ("unique-by-cycle", 3, 3, (2, 1, 0)):
        return f"digit forcing at pi({p[0]}) gave {s}, want the (2,1,0) 3-cycle"
    return None


def _run_gamma_scan(env, p):
    return env.lab.triangle.gamma_uniqueness_scan(p[0], p[1])


def _summarize_gamma_scan(env, p, out):
    return tuple((t.as_tuple(),) + _forcing_summary(r) for t, r in out)


def _check_gamma_scan(env, p, s):
    for t, kind, *_ in s:
        if kind != "unique-by-cycle" or not oracles.in_some_gamma(t, p[0]):
            return f"gamma scan returned {t} ({kind}) outside the corner regions"
    return None


def _run_classify_tet(env, p):
    return _certified(env, env.systems["tet08"], p, 20)


def _check_classify_tet(env, p, s):
    if s[0] != "multiple-certified":
        return f"interior point of the lambda=0.8 tetrahedron got {s[0]}"
    return _replay_exact(env, env.systems["tet08-exact"], p, 20, s)


def _run_witness(env, p):
    return env.lab.conditions.vertex_overlap_witness(env.systems["tet08"])


def _summarize_witness(env, p, w):
    return None if w is None else (w.i, w.k, w.j, w.ell, w.block0, w.grade)


def _check_witness(env, p, s):
    if s is None:
        return "no overlap witness on the lambda=0.8 tetrahedron, where the images overlap"
    i, k, j, ell, block0, grade = s
    if block0 != (k,) + (j,) * (ell - 1) or not oracles.minimal_block(0.8, TETRAHEDRON, i, k, j, ell):
        return f"overlap witness {s}: block is not the minimal one inside both images"
    if grade == "vertex-interior" and not oracles.vertex_in_image(0.8, TETRAHEDRON, i, k, j):
        return f"overlap witness {s}: vertex image outside f_{i}(Omega)"
    return None


def _run_volume(env, p):
    return env.lab.geometry.volume_mc(env.systems["tet08"].omega, p[0], p[1])


def _check_volume(env, p, s):
    est, err = s
    return None if abs(est - 1 / 6) <= 4 * err else f"volume {est} +- {err} misses 1/6"


def _identity(env, p, out):
    return out


KINDS = {
    "classify-tri07": (_run_classify_tri07, _summary_of, _check_classify_tri07),
    "classify-line055": (_run_classify_line055, _summary_of, _check_classify_line055),
    "count-expansions": (_run_count_expansions, _summary_of, _check_count_expansions),
    "first-bif-tri06": (_run_first_bif, _identity, _check_first_bif),
    "relaxed-tri07": (_run_relaxed_tri07, _summary_of, _check_relaxed_tri07),
    "enumerate-013": (_run_enumerate, lambda env, p, t: tuple(t.counts), _check_enumerate),
    "classify-grid": (_run_classify_grid, _summarize_cli, _check_classify_grid),
    "wn-coverage": (_run_wn_coverage, _summarize_cli, _check_wn_coverage),
    "sample-measure": (_run_sample_measure, _summarize_cli, _check_sample_measure),
    "box-dim-attractor": (lambda env, p: _run_box_dim(env, p, "attractor"), _summarize_cli,
                          _check_box_dim_attractor),
    "box-dim-uniqueness": (lambda env, p: _run_box_dim(env, p, "uniqueness"), _summarize_cli,
                           _check_box_dim_uniqueness),
    "render-attractor": (_run_render, _summarize_cli, _check_render),
    "covering": (_run_covering, _identity, _check_covering),
    "mu-bifurcation": (_run_mu_bif, _identity, _check_mu_bif),
    "pi-exact": (_run_pi_exact, _summary_of, _check_pi_exact),
    "relaxed-exact": (_run_relaxed_exact, _summary_of, _check_relaxed_exact),
    "digit-forcing": (_run_digit_forcing, lambda env, p, r: _forcing_summary(r), _check_digit_forcing),
    "gamma-scan": (_run_gamma_scan, _summarize_gamma_scan, _check_gamma_scan),
    "classify-tet": (_run_classify_tet, _summary_of, _check_classify_tet),
    "witness-tet": (_run_witness, _summarize_witness, _check_witness),
    "volume-tet": (_run_volume, _identity, _check_volume),
}

# fixed (seed-independent) warm-up requests, one per kind, so set-up time
# does not depend on the seed
WARMUP = {
    "point-queries": [
        ("classify-tri07", (0.3, 0.4)), ("classify-line055", (0.3,)),
        ("count-expansions", (1.2,)), ("first-bif-tri06", (0.3, 0.4)),
        ("relaxed-tri07", (0.3, 0.4, 6)), ("enumerate-013", (1.2, 8)),
    ],
    "grid-sweeps": [
        ("classify-grid", ("tri07", 16, 10, "warm.csv")), ("wn-coverage", ("tri07", 4, 100, 1)),
        ("sample-measure", ("tri07", 50, 10, 1)),
        ("box-dim-attractor", ("tri06", "0.2,0.1,0.05", "warm.csv")),
        ("box-dim-uniqueness", ("line053", "0.04,0.02,0.01", 20, "warm.csv")),
        ("render-attractor", ("tri07", 1000, 16, 1, "warm.pgm")),
        ("covering", ("digits013-0.45", 3, 50, 1)), ("mu-bifurcation", (100, 1)),
    ],
    "exact-3d": [
        ("pi-exact", (Fraction(3, 5), Fraction(3, 5) / Fraction(49, 25), Fraction(25, 49))),
        ("relaxed-exact", (Fraction(13, 20), Fraction(1, 3), Fraction(1, 4), 4)),
        ("digit-forcing", (Fraction(3, 5),)), ("gamma-scan", (Fraction(2, 3), 8)),
        ("classify-tet", (0.2, 0.3, 0.1)), ("witness-tet", ()), ("volume-tet", (20, 1)),
    ],
}


def digest(summaries):
    """sha256 over the summaries of one pass, in request order."""
    h = hashlib.sha256()
    for s in summaries:
        h.update(repr(s).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def make_tmp(root: Path) -> Path:
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    tmp = base / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    return tmp
