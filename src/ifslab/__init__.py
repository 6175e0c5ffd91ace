"""Address structure of overlapping self-similar attractors.

The family under study is f_j(x) = lam*x + (1-lam)*p_j for anchor points
p_0..p_{m-1}; the package enumerates feasible addresses of attractor points,
certifies uniqueness or multiplicity, checks the sufficient overlap/no-holes
conditions, evaluates the triangle-case closed forms, and estimates measures
and box-counting dimensions of the exceptional sets.
"""

from .core import IfsSystem, new_ifs, apply_map, apply_inverse, project_prefix, image_polytope, load_system
from .geometry import Polytope, hull_polytope, contains, volume
from .addresses import (
    ClassificationReport,
    Mode,
    PrefixNode,
    Verdict,
    classify_point,
    enumerate_prefixes,
    feasible_children,
    first_bifurcation,
)
from .conditions import (
    OverlapWitness,
    covering_deficiency,
    no_holes_sufficient,
    osc_failure_sufficient,
    pedicini_holds,
    vertex_overlap_witness,
    wn_coverage_estimate,
    wn_membership,
)
from .triangle import (
    BarycentricTriple,
    digit_forcing,
    gamma_nonempty,
    golden_ratio,
    lambda0,
    m_point,
    m_separation_holds,
    pi_point,
    pi_prime_point,
)
from .deleted_digits import DigitSet, as_ifs, attractor_interval, count_expansions
from .measure import (
    MeasureSampler,
    box_dim_estimate,
    mesh_count,
    mu_bifurcation_fraction,
    sample_natural_measure,
    uniqueness_grid,
)
from .render import render_attractor, write_pgm

__all__ = [name for name in dir() if not name.startswith("_")]
