"""Golden digest of the d = 3 outputs on the lambda = 0.8 tetrahedron.

One sha256 over the repr of classify_point (certified, depth 20) at seeded
float points and at rational points on the exact system, of the overlap
witness and its re-check, and of volume_mc and sample_uniform at three
seeds.  A change of the d >= 3 membership test must keep every verdict,
count, witness and sample bit for bit.
"""

import hashlib
from fractions import Fraction

import numpy as np

from ifslab.addresses import Mode, classify_point
from ifslab.conditions import vertex_overlap_witness
from ifslab.core import new_ifs
from ifslab.geometry import sample_uniform, volume_mc

from helpers import verify_witness

TETRAHEDRON = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

# The witness is graded "proper-overlap": f_1(p_0) lies on a face of
# f_0(Omega).  With its grade set back to "vertex-interior", as the earlier
# weights-margin witness graded it, the digest is
# e422d84cffa5e9ee77ff9af57412fc8dd43b7dab2d9dd00847a9485998f7e1a4.
GOLDEN = "5dc2654ea34b2842ea016904ed82609a638fc7b5f5774ae1936889f30b1c71c3"

F = Fraction
EXACT_POINTS = (
    (F(1, 5), F(3, 10), F(1, 10)),
    (F(1, 4), F(1, 4), F(1, 4)),
    (F(1, 7), F(2, 7), F(4, 7)),
    (F(0), F(0), F(0)),
    (F(3, 5), F(1, 10), F(1, 5)),
)


def _report(rep):
    c = rep.certificate
    return (rep.verdict.value, rep.explored_depth, rep.first_bifurcation, rep.prefix_counts,
            None if c is None else (c.entry_depth, c.period, c.digits), rep.exact)


def _certified(sys, x):
    return _report(classify_point(sys, x, 20, mode=Mode.EXACT_NO_HOLES, no_holes_certified=True))


def _dim3_outputs():
    fsys = new_ifs(0.8, TETRAHEDRON)
    esys = new_ifs(F(4, 5), tuple(tuple(F(v) for v in p) for p in TETRAHEDRON))
    out = []
    pts = np.random.default_rng(20240611).dirichlet([1.0] * 4, 30)[:, 1:]
    for x in pts:
        x = tuple(float(v) for v in x)
        out.append((x, _certified(fsys, x)))
    for x in EXACT_POINTS:
        out.append((x, _certified(esys, x)))
    w = vertex_overlap_witness(fsys)
    out.append((w, verify_witness(fsys, w)))
    for seed in (1, 2, 3):
        out.append(volume_mc(fsys.omega, 400, seed))
        out.append(sample_uniform(fsys.omega, 150, np.random.default_rng(seed)).tolist())
    return out


def test_dim3_outputs_golden():
    digest = hashlib.sha256(repr(_dim3_outputs()).encode()).hexdigest()
    assert digest == GOLDEN
