"""Known-defect probe: unsound float certificates on the 1-D {0,1} system at lambda=0.52.

    python3 bench/defects.py --seed 1 --count 3000

Classifies `--count` seeded uniform points of [0, 1) on the float system at
depth 120 with no_holes_certified, and replays every multiple-certified
verdict on the exact Fraction values of the same inputs, as the benchmark's
oracle does.  The float remainder error grows like u * lambda**-n, so a
bifurcation seen deep in the chain can be rounding noise.  The benchmark's
timed workloads leave this regime out, because no request there may fail;
this probe keeps the defect measured.  It prints the false certificates and
their count, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads as W

SRC = Path(__file__).resolve().parent.parent / "src"
LAMBDA = 0.52
DEPTH = 120


def false_certificates(lab, xs):
    """(x, message) for each float multiple-certified verdict the exact replay rejects."""
    env = types.SimpleNamespace(lab=lab)
    line = lab.core.new_ifs(LAMBDA, ((0.0,), (1.0,)))
    line_exact = lab.core.new_ifs(Fraction(LAMBDA), ((Fraction(0),), (Fraction(1),)))
    out = []
    for x in xs:
        summary = W._summary_of(env, (x,), W._certified(env, line, (x,), DEPTH))
        err = W._replay_exact(env, line_exact, (x,), DEPTH, summary)
        if err:
            out.append((x, err))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=3000)
    args = ap.parse_args(argv)
    lab = W.import_ifslab(SRC)
    xs = [float(x) for x in np.random.default_rng(args.seed).random(args.count)]
    bad = false_certificates(lab, xs)
    for x, err in bad:
        print(f"x={x!r}: {err}")
    print(f"false certificates at lambda={LAMBDA}, depth {DEPTH}: {len(bad)} of {len(xs)} points")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
