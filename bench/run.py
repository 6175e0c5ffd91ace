"""ifslab benchmark: seeded closed-loop request workloads against the library and CLI.

One workload per process:

    python3 bench/run.py --workload point-queries --seed 1 --seconds 10 --trace 0

builds the workload's request list from the seed, sets up (import ifslab
from the checkout's src/, build the systems, one warm-up request per kind)
several times, then replays the list, one request at a time from a single
caller, until --seconds have passed.  Every output is checked against an
oracle after the timed passes.  With --trace 0 the last stdout line is a
JSON object carrying the end-to-end metrics; with --trace 1 half the time
runs untraced and half traced, and it carries the per-layer metrics.

    python3 bench/run.py --all --seed 1 --seconds 10

runs every workload in its own process, untraced and traced, and prints
both sets of metrics and whether the two runs' output digests agree.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported: the program
# is driven by one caller and the per-layer times must not depend on
# how many idle cores a BLAS pool finds
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# The host is shared: its speed for the same code swings by 20-40% over
# seconds to minutes.  Fixed pure-Python work, timed between requests,
# tracks that speed; every time is scaled by REF / (its time) so that it
# reads as seconds on the host at the speed where the work takes REF.
# Two thirds of the work is the benchmark's own prefix-tree oracle: its
# tuple, float and call-heavy code slows with the host as ifslab does, and
# tracked run-to-run drift about twice as closely as a tight integer loop.
CALIBRATION_LOOPS = 25_000
CALIBRATION_REF_S = 3.7e-3  # about its median on a 2-core x86-64 host at full speed, Python 3.11
CALIBRATION_EVERY_S = 0.25
END_TO_END = ("setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb")


class Raised(NamedTuple):
    """Summary of a request that raised instead of returning."""

    error: str
    message: str


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def calibration_loop():
    """Seconds the host takes right now for fixed pure-Python work that does not use ifslab."""
    t0 = time.perf_counter()
    for _ in range(2):
        oracles.triangle_tree(0.7, (0.3, 0.31), 10)
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def host_factor(samples):
    """Scale from this host's measured speed to the reference speed."""
    return CALIBRATION_REF_S / statistics.median(samples)


def run_pass(env, requests, tracer=None, stats=None):
    """One closed-loop pass.

    Returns per-request latencies in s, per-request summaries, and the host
    factor from calibration loops timed between requests.
    """
    lat, summaries = [], []
    clock = time.perf_counter
    samples = [calibration_loop()]
    next_sample = clock() + CALIBRATION_EVERY_S
    for i, (kind, params) in enumerate(requests):
        run, summarize, _ = W.KINDS[kind]
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            out = run(env, params)
        except Exception as e:  # a failed request is counted, and the run goes on
            lat.append(clock() - t0)
            summaries.append(Raised(type(e).__name__, str(e)))
        else:
            lat.append(clock() - t0)
            summaries.append(summarize(env, params, out))
        if tracer is not None:
            stats.fold(tracer.take())
        if clock() >= next_sample:
            samples.append(calibration_loop())
            next_sample = clock() + CALIBRATION_EVERY_S
    samples.append(calibration_loop())
    return lat, summaries, host_factor(samples)


def measure(env, requests, seconds, first, tracer=None, stats=None):
    """Passes until `seconds` have elapsed (at least one).

    Returns host-scaled latencies per pass, the digest per pass and the host
    factor per pass.  The first pass's summaries are appended to `first`
    when it is a list.
    """
    passes, digests, factors = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.install()
        try:
            lat, summaries, factor = run_pass(env, requests, tracer, stats)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if first is not None and not first:
            first.extend(summaries)
        passes.append([v * factor for v in lat])
        digests.append(W.digest(summaries))
        factors.append(factor)
    return passes, digests, factors


def typical_latencies(passes):
    """Each request's median latency over the passes.

    The host's slow spells last a second or two; a per-request median over
    passes a second or more apart keeps them out of every end-to-end time.
    """
    return np.median(np.asarray(passes), axis=0)


def check(env, requests, summaries):
    """Oracle verdicts for one pass, outside the timed phase: [(index, kind, message)]."""
    failures = []
    for i, ((kind, params), s) in enumerate(zip(requests, summaries)):
        if isinstance(s, Raised):
            failures.append((i, kind, f"raised {s.error}: {s.message}"))
            continue
        try:
            msg = W.KINDS[kind][2](env, params, s)
        except Exception as e:  # the exact replay runs the program again; it may fail too
            msg = f"check raised {type(e).__name__}: {e}"
        if msg:
            failures.append((i, kind, msg))
    return failures


def run_workload(args) -> int:
    if not (SRC / "ifslab" / "__init__.py").is_file():
        print(f"error: no ifslab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    requests = W.generate(args.workload, args.seed)
    tmp = W.make_tmp(ROOT)
    try:
        return _run_workload(args, requests, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_workload(args, requests, tmp) -> int:
    setups = []
    tracer = setup_stats = None
    if args.trace:
        lab = W.import_ifslab(SRC)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            env = W.setup(lab, args.workload, requests, tmp)
        finally:
            tracer.uninstall()
        setup_stats = tracing.LayerStats(tracer.names)
        setup_stats.fold(tracer.take())
    else:
        for _ in range(SETUP_REPEATS):
            samples = [calibration_loop() for _ in range(3)]
            t0 = time.perf_counter()
            env = W.setup(W.import_ifslab(SRC), args.workload, requests, tmp)
            elapsed = time.perf_counter() - t0
            samples += [calibration_loop() for _ in range(3)]
            setups.append(elapsed * host_factor(samples))

    first = []
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, digests, factors = measure(env, requests, budget, first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    typical = typical_latencies(passes)
    if args.trace:
        stats = tracing.LayerStats(tracer.names)
        t_passes, t_digests, t_factors = measure(env, requests, budget, None, tracer, stats)
        # self times are raw, so their shares are of the raw traced wall
        raw_wall = statistics.mean(sum(p) / f for p, f in zip(t_passes, t_factors))
        layer = stats.metrics(len(t_passes), raw_wall,
                              float(typical_latencies(t_passes).sum() - typical.sum()), setup_stats)
        digests += t_digests

    failures = check(env, requests, first)
    attempted = len(requests) * len(digests)
    failed = len(failures) * len(digests)
    stable = len(set(digests)) == 1

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "ifslab": str(Path(sys.modules["ifslab"].__file__).parent),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "requests": len(requests),
        "passes": len(digests), "host_factor_median": statistics.median(factors),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for i, kind, msg in failures[:20]:
        print(f"FAIL request {i} ({kind}): {msg}")
    if not stable:
        print(f"FAIL outputs differ between passes: {sorted(set(digests))}")
    print(f"digest {digests[0]}")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        for k, (v, u) in layer.items():
            print(f"{k} = {v:.6g} {u}")
    else:
        n = f"n={len(typical)} requests, each the median of {len(passes)} passes"
        values = {
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
            "wall_s": (float(typical.sum()), "s", "sum of per-request medians"),
            "req_p50_ms": (1e3 * float(np.percentile(typical, 50)), "ms", n),
            "req_p90_ms": (1e3 * float(np.percentile(typical, 90)), "ms",
                           f"{n}, {len(typical) // 10} beyond"),
            "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the timed passes"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
        for k, (v, u, note) in values.items():
            print(f"{k} = {v:.6g} {u} ({note})")

    result = {"correct": not failures and stable, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, meta=meta, digest=digests[0],
                  failures=[list(f) for f in failures[:100]])
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, with a summary."""
    rc = 0
    rows = []
    for workload in W.GENERATORS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(f"== {workload} trace={trace} (exit {proc.returncode})")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))  # the metrics by name; the JSON line repeats them
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                rc = 1
                continue
            runs[trace] = (json.loads(lines[-1]),
                           next(ln.split()[1] for ln in lines if ln.startswith("digest ")))
        if len(runs) == 2:
            same = runs[0][1] == runs[1][1]
            rows.append((workload, runs[0][0], same))
            print(f"== {workload}: untraced and traced output digests "
                  f"{'agree' if same else 'DIFFER'}")
    print("== end-to-end summary")
    for workload, res, same in rows:
        cells = " ".join(f"{k}={res['metrics'][k]['value']:.4g}{res['metrics'][k]['unit']}"
                         for k in END_TO_END)
        print(f"{workload:14s} correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              f"{cells} digests_agree={same}")
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(W.GENERATORS))
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
