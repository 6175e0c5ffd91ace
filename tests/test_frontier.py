"""Differential tests of the batched frontier kernel against the scalar one.

`core._children_many` and `geometry.contains_many` must give, bit for bit,
what the scalar `core._children` and `geometry.contains` give.  The
references below are plain scalar walkers over `_children`, so each
walker that switches wide float levels to the kernel is held to the
outputs of a walker that never does.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ifslab import addresses, conditions, geometry
from ifslab.addresses import enumerate_prefixes
from ifslab.conditions import covering_deficiency
from ifslab.core import _children, _children_many, _feasible_many, new_ifs, project_all_words
from ifslab.deleted_digits import DigitSet, as_ifs
from ifslab.errors import BudgetExceeded, DimensionMismatch
from ifslab.geometry import DEFAULT_TOL, contains, contains_many, hull_polytope, sample_uniform

from helpers import (RIGHT_TRIANGLE_EXACT, float_facets, triangle_system, triangle_system_exact,
                     unit_system)

TETRAHEDRON = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

# (name, system, depth): seeded points of these reach levels of thousands of rows
WIDE = {
    "triangle-0.7": (triangle_system(0.7), 20),
    "triangle-0.7-exact-system": (new_ifs(Fraction(7, 10), RIGHT_TRIANGLE_EXACT), 20),
    "digits013-0.45": (as_ifs(DigitSet((0, 1, 3)), 0.45), 26),
    "unit-0.6": (unit_system(0.6), 40),
    "tetrahedron-0.8": (new_ifs(0.8, TETRAHEDRON), 11),
}


def _points(sys, seed, count):
    return [tuple(p) for p in sample_uniform(sys.omega, count, np.random.default_rng(seed)).tolist()]


def _shell_probes(poly, rng, count, tol=DEFAULT_TOL):
    """Points within rounding of the tol shell of a random facet, in float."""
    A, b, norms = float_facets(poly)
    lo, hi = (np.array([float(v) for v in c]) for c in poly.bounding_box())
    x = lo + rng.random((count, poly.dim)) * (hi - lo)
    h = rng.integers(len(A), size=count)
    n = A[h]
    slack = b[h] - np.einsum("ij,ij->i", x, n)
    # move each point along its facet normal to slack -tol*|n|; rounding
    # leaves it a few ulps to either side
    step = (slack + tol * norms[h]) / norms[h] ** 2
    return x + step[:, None] * n


SHELL_CASES = {
    "interval": ((0.0,), (1.0,)),
    "triangle": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
    "tetrahedron": TETRAHEDRON,
    "skew-tetrahedron": ((0.0, 0.0, 0.0), (1.0, 0.1, 0.0), (0.3, 1.0, 0.2), (0.2, 0.4, 1.1)),
}


@pytest.mark.parametrize("name", list(SHELL_CASES))
def test_contains_many_equals_contains_on_the_tol_shell(name):
    gens = SHELL_CASES[name]
    poly = hull_polytope(gens)
    probes = _shell_probes(poly, np.random.default_rng(11), 20_000)
    want = [contains(poly, tuple(p)) for p in probes.tolist()]
    assert 0 < sum(want) < len(want)  # the probes straddle the shell
    assert contains_many(poly, probes).tolist() == want
    assert contains_many(poly, probes.reshape(4, -1, poly.dim)).ravel().tolist() == want


def test_contains_many_rejects_points_of_another_dimension():
    with pytest.raises(DimensionMismatch):
        contains_many(hull_polytope(SHELL_CASES["triangle"]), np.zeros((4, 3)))


def _scalar_children_many(sys, X, tol):
    parents, digits, rems = [], [], []
    for i, row in enumerate(X.tolist()):
        for j, r in _children(sys, tuple(row), tol):
            parents.append(i)
            digits.append(j)
            rems.append(r)
    return parents, digits, rems


@pytest.mark.parametrize("name", list(WIDE))
def test_kernel_equals_scalar_children(name):
    sys = WIDE[name][0]
    rng = np.random.default_rng(12)
    lo, hi = (np.array([float(v) for v in c]) for c in sys.omega.bounding_box())
    X = lo - 0.1 + rng.random((3000, sys.d)) * (hi - lo + 0.2)
    if sys.omega.float_halfspaces is not None:  # and some rows on the tol shell
        X = np.vstack([X, _shell_probes(sys.omega, rng, 3000)])
    parents, digits, rems = _children_many(sys, X, DEFAULT_TOL)
    want = _scalar_children_many(sys, X, DEFAULT_TOL)
    assert (parents.tolist(), digits.tolist()) == want[:2]
    assert repr([tuple(r) for r in rems.tolist()]) == repr(want[2])


def _scalar_feasible(omega, X, shifts, scale, tol=DEFAULT_TOL):
    """`_feasible_many` one (row, map) pair at a time over the scalar `contains`."""
    parents, digits, rems = [], [], []
    for i, row in enumerate(X.tolist()):
        for j, t in enumerate(shifts.tolist()):
            r = tuple((x - c) / scale for x, c in zip(row, t))
            if contains(omega, r, tol):
                parents.append(i)
                digits.append(j)
                rems.append(r)
    return parents, digits, rems


def _block_family(sys, ell, avoid):
    """The W_n block steps x -> (x - T[u])/lam^ell: the block word 0^ell alone, or every other word."""
    T = project_all_words(sys, ell, (0.0,) * sys.d)
    return (T[1:] if avoid else T[:1]), float(sys.lam) ** ell


# (system, (ell, avoid) of a W_n block family, or None for the system's own
# maps): one map (the W_n block test), m maps in d = 1, 2, 3, and the 26
# avoiding words of a triangle block of length 3
FAMILIES = {
    "interval-maps": (unit_system(0.6), None),
    "triangle-maps": (triangle_system(0.7), None),
    "triangle-block": (triangle_system(0.7), (3, False)),
    "triangle-avoid-26": (triangle_system(0.7), (3, True)),
    "tetrahedron-maps": (new_ifs(0.8, TETRAHEDRON), None),
}


def _family(name):
    sys, block = FAMILIES[name]
    shifts, scale = _block_family(sys, *block) if block else (sys.float_shifts, float(sys.lam))
    return sys, shifts, scale


def _fused_rows(sys, shifts, scale, rows, rng):
    """Rows whose candidates straddle Omega: in and around it, on its tol shell, and NaN."""
    lo, hi = (np.array([float(v) for v in c]) for c in sys.omega.bounding_box())
    X = lo - 0.2 + rng.random((rows, sys.d)) * (hi - lo + 0.4)
    # candidates within rounding of the tol shell: x = scale*p + t_j for a shell probe p
    shell = rng.random(rows) < 0.4
    j = rng.integers(len(shifts), size=rows)
    X[shell] = _shell_probes(sys.omega, rng, rows)[shell] * scale + shifts[j[shell]]
    X[rng.random((rows, sys.d)) < 0.05] = np.nan
    X[1:2, -1] = np.nan
    return X


def _assert_fused_step_equals_scalar(sys, shifts, scale, X, own_maps):
    parent, digit, rems = _feasible_many(sys.omega, X, shifts, scale)
    assert parent.dtype == digit.dtype == np.intp and rems.dtype == np.float64
    assert parent.shape == digit.shape == (len(rems),) and rems.shape == (len(rems), sys.d)
    pairs = list(zip(parent.tolist(), digit.tolist()))
    assert pairs == sorted(set(pairs))  # row-major, then map-minor
    want = _scalar_feasible(sys.omega, X, shifts, scale)
    assert (parent.tolist(), digit.tolist()) == want[:2]
    assert repr([tuple(r) for r in rems.tolist()]) == repr(want[2])
    if own_maps:
        got = _children_many(sys, X)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, (parent, digit, rems)))
        assert repr(_scalar_children_many(sys, X, DEFAULT_TOL)) == repr(want)


@pytest.mark.parametrize("name", list(FAMILIES))
@pytest.mark.parametrize("rows", [0, 1, 2, 37])
def test_fused_step_equals_scalar_at_block_edges(name, rows, monkeypatch):
    # 0 rows is _chunked_children's empty chunk; each block size puts the
    # rows*maps candidate columns one short of a block bound, on it, one
    # past it, or across several blocks
    sys, shifts, scale = _family(name)
    X = _fused_rows(sys, shifts, scale, rows, np.random.default_rng(31 + rows))
    cols = rows * len(shifts)
    for block in sorted({max(cols - 1, 1), max(cols, 1), cols + 1, max(cols // 3, 1), 1}):
        monkeypatch.setattr(geometry, "FACET_BLOCK", block)
        _assert_fused_step_equals_scalar(sys, shifts, scale, X, FAMILIES[name][1] is None)


@pytest.mark.parametrize("cols", [geometry.FACET_BLOCK - 1, geometry.FACET_BLOCK,
                                  geometry.FACET_BLOCK + 1, 3 * geometry.FACET_BLOCK + 5])
def test_fused_step_equals_scalar_around_the_real_block(cols):
    sys, shifts, scale = _family("triangle-block")
    X = _fused_rows(sys, shifts, scale, cols, np.random.default_rng(cols))
    _assert_fused_step_equals_scalar(sys, shifts, scale, X, False)


def test_fused_step_holds_no_copy_of_its_candidates():
    sys = triangle_system(0.7)
    X = np.random.default_rng(37).random((200_000, 2))
    _children_many(sys, X[:2])  # builds the cached float shifts and facet columns
    tracemalloc.start()
    try:
        out = _children_many(sys, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cand = len(X) * sys.m * sys.d * 8  # the (d, rows*maps) candidate rows
    assert peak <= cand + sum(a.nbytes for a in out) + 4 * 2**20


# ---------------------------------------------------------------------------
# scalar references: the walkers as they were before the batched kernel


def _ref_enumerate(sys, x, depth, tol=DEFAULT_TOL):
    budget = addresses.NODE_BUDGET
    levels = [[((), tuple(x))]]
    total = 1
    for dep in range(depth):
        nxt = []
        for prefix, r in levels[-1]:
            for j, rj in _children(sys, r, tol):
                nxt.append((prefix + (j,), rj))
                total += 1
                if total > budget:
                    raise BudgetExceeded(f"prefix tree exceeded {budget} nodes at depth {dep + 1}")
        levels.append(nxt)
        if not nxt:
            break
    return levels


def _ref_solid(omega, x, m):
    # the ball of radius m around x fits inside: slack s >= m*|n| at every facet, without sqrt
    for n, off, sq in omega.halfspaces:
        s = off - sum(nv * xv for nv, xv in zip(n, x))
        if not (s >= 0 and s * s >= m * m * sq):
            return False
    return True


def _ref_classify(sys, x, depth, no_holes_certified=False, tol=DEFAULT_TOL):
    """`classify_point` node by node over `_children`, as it was before the batched kernel."""
    budget = addresses.NODE_BUDGET
    Report, Verdict = addresses.ClassificationReport, addresses.Verdict
    x = tuple(x)
    exact = sys.is_exact and all(isinstance(v, Fraction) for v in x)
    frontier = [(None, x)]
    counts = [1]
    bifurcation = None
    seen = {x: 0} if exact else None
    chain_digits = []
    pure_chain = True
    total_nodes = 1
    for dep in range(depth):
        nxt = []
        for _, r in frontier:
            children = _children(sys, r, tol)
            if len(children) >= 2:
                if bifurcation is None:
                    bifurcation = dep
                if no_holes_certified:
                    if exact:
                        solid = children
                    else:
                        solid = [c for c in children if _ref_solid(sys.omega, c[1], addresses.CERT_MARGIN)]
                    if len(solid) >= 2:
                        counts.append(len(nxt) + len(children))
                        return Report(Verdict.MULTIPLE_CERTIFIED, dep + 1, bifurcation, counts, exact=exact)
            nxt.extend(children)
            total_nodes += len(children)
            if total_nodes > budget:
                raise BudgetExceeded(f"classification exceeded {budget} nodes at depth {dep + 1}")
        if not nxt:
            counts.append(0)
            return Report(Verdict.UNKNOWN, dep + 1, bifurcation, counts, exact=exact)
        counts.append(len(nxt))
        if pure_chain and len(nxt) == 1:
            j, r = nxt[0]
            chain_digits.append(j)
            if exact:
                if r in seen:
                    cert = addresses.ForcedChain(addresses.ChainKind.UNIQUE_BY_CYCLE, tuple(chain_digits), seen[r])
                    return Report(Verdict.UNIQUE_CERTIFIED, dep + 1, None, counts, cert, exact=True)
                seen[r] = dep + 1
        else:
            pure_chain = False
        frontier = nxt
    verdict = Verdict.MULTIPLE_LIKELY if counts[-1] >= 2 else Verdict.UNKNOWN
    return Report(verdict, depth, bifurcation, counts, exact=exact)


def _ref_covered(sys, x, n, tol):
    """Depth-first search for one chain of feasible children of depth n."""
    stack = [(x, 0)]
    while stack:
        r, lev = stack.pop()
        if lev == n:
            return True
        stack.extend((rj, lev + 1) for _, rj in _children(sys, r, tol))
    return False


def _ref_covering(sys, n, samples, seed, tol=DEFAULT_TOL):
    pts = sample_uniform(sys.omega, samples, np.random.default_rng(seed))
    misses = sum(not _ref_covered(sys, tuple(p), n, tol) for p in pts)
    return misses / samples


@pytest.fixture
def kernel_rows(monkeypatch):
    """Rows the batched kernel expanded, counted through both walkers' imports."""
    rows = []

    def counting(sys, X, tol=DEFAULT_TOL):
        rows.append(len(X))
        return _children_many(sys, X, tol)

    monkeypatch.setattr(addresses, "_children_many", counting)
    monkeypatch.setattr(conditions, "_children_many", counting)
    return rows


@pytest.mark.parametrize("name", list(WIDE))
def test_enumerate_prefixes_equals_scalar_reference(name, kernel_rows):
    sys, depth = WIDE[name]
    for x in _points(sys, 13, 3):
        tree = enumerate_prefixes(sys, x, depth)
        want = _ref_enumerate(sys, x, depth)
        assert tree.counts == [len(lv) for lv in want]
        got = [[(nd.prefix, nd.remainder) for nd in lv] for lv in tree.levels]
        assert repr(got) == repr(want)
    assert max(kernel_rows) >= 1000


def test_a_batched_level_of_one_row_steps_through_the_scalar_kernel(kernel_rows):
    # the two-row levels at depths 2-5 run on the kernel and leave one child
    # at depth 6, which _expand must take back to the scalar kernel
    sys, x, depth = triangle_system(0.6), (0.31183145201048545, 0.42332644897257565), 14
    tree = enumerate_prefixes(sys, x, depth)
    assert tree.counts[:8] == [1, 1, 2, 2, 2, 2, 1, 2]
    got = [[(nd.prefix, nd.remainder) for nd in lv] for lv in tree.levels]
    assert repr(got) == repr(_ref_enumerate(sys, x, depth))
    assert kernel_rows


def test_levels_of_other_arithmetic_stay_scalar(kernel_rows):
    # a Fraction coordinate under an exact system stays exact, and numpy
    # scalars stay numpy scalars: the kernel would round both to float
    cases = [(WIDE["triangle-0.7-exact-system"][0], (0.3, Fraction(1, 5)), 8),
             (WIDE["triangle-0.7"][0], (np.float64(0.3), np.float64(0.2)), 10)]
    for sys, x, depth in cases:
        tree = enumerate_prefixes(sys, x, depth)
        assert tree.counts[-1] >= 2
        got = [[(nd.prefix, nd.remainder) for nd in lv] for lv in tree.levels]
        assert repr(got) == repr(_ref_enumerate(sys, x, depth))
    assert kernel_rows == []


@pytest.mark.parametrize("sys, n", [(triangle_system(0.5), 6), (unit_system(0.45), 8),
                                    (as_ifs(DigitSet((0, 1, 3)), 0.35), 7),
                                    (new_ifs(0.6, TETRAHEDRON), 5)],
                         ids=["gasket", "interval-0.45", "digits013-0.35", "tetrahedron-0.6"])
def test_covering_deficiency_equals_scalar_reference(sys, n, kernel_rows):
    frac, _ = covering_deficiency(sys, n, 2000, seed=15)
    assert frac == _ref_covering(sys, n, 2000, seed=15)
    assert max(kernel_rows) >= 1000


def test_prefix_budget_fires_with_the_same_message_on_both_paths(monkeypatch, kernel_rows):
    sys, depth = WIDE["triangle-0.7"]
    x = _points(sys, 16, 1)[0]
    budget = sum(len(lv) for lv in _ref_enumerate(sys, x, depth)) - 1
    monkeypatch.setattr(addresses, "NODE_BUDGET", budget)
    with pytest.raises(BudgetExceeded) as want:
        _ref_enumerate(sys, x, depth)
    with pytest.raises(BudgetExceeded) as got:
        enumerate_prefixes(sys, x, depth)
    assert str(got.value) == str(want.value) == f"prefix tree exceeded {budget} nodes at depth {depth}"
    assert kernel_rows



def _outcome(classify, sys, x, depth, **kw):
    """repr of the report, or the message of the BudgetExceeded raised instead."""
    try:
        return repr(classify(sys, x, depth, **kw))
    except BudgetExceeded as e:
        return f"BudgetExceeded: {e}"


CLASSIFY = {**WIDE, "unit-0.55": (unit_system(0.55), 60)}


@pytest.mark.parametrize("name", list(CLASSIFY))
def test_classify_point_equals_scalar_reference(name, kernel_rows):
    sys, depth = CLASSIFY[name]
    for x in _points(sys, 13, 3):
        for certified in (False, True):
            got = addresses.classify_point(sys, x, depth, no_holes_certified=certified)
            want = _ref_classify(sys, x, depth, no_holes_certified=certified)
            assert repr(got) == repr(want)
    assert max(kernel_rows) >= 100


EXACT_SYSTEMS = {
    "triangle-1/2": triangle_system_exact(Fraction(1, 2)),
    "triangle-7/10": triangle_system_exact(Fraction(7, 10)),
    "unit-3/5": new_ifs(Fraction(3, 5), ((Fraction(0),), (Fraction(1),))),
}


@pytest.mark.parametrize("name", list(EXACT_SYSTEMS))
def test_exact_classify_point_equals_scalar_reference(name, kernel_rows):
    # rational points of small height: their chains close into cycles or fork
    sys = EXACT_SYSTEMS[name]
    rng = np.random.default_rng(14)
    verdicts = set()
    for _ in range(40):
        q = int(rng.integers(2, 30))
        a = rng.integers(0, q + 1, size=sys.d)
        if sys.d == 2 and a.sum() > q:
            a = q - a
        x = tuple(Fraction(int(v), q) for v in a)
        # a relaxed exact tree grows without a certificate to stop it: keep it short
        for certified, depth in ((False, 10), (True, 30)):
            got = addresses.classify_point(sys, x, depth, no_holes_certified=certified)
            assert repr(got) == repr(_ref_classify(sys, x, depth, no_holes_certified=certified))
            verdicts.add(got.verdict)
    assert {addresses.Verdict.UNIQUE_CERTIFIED, addresses.Verdict.MULTIPLE_CERTIFIED} <= verdicts
    assert kernel_rows == []


def test_a_later_fork_of_the_level_certifies_when_the_first_fails_the_margin(monkeypatch, kernel_rows):
    # a wide margin makes forks that fail it common enough for a seeded
    # search; the partial count must then run to the certifying node
    monkeypatch.setattr(addresses, "CERT_MARGIN", 0.05)
    sys, depth = triangle_system(0.7), 20

    def first_fork_stop(x, level):
        heads = [nd.prefix[:-1] for nd in enumerate_prefixes(sys, x, level).levels[level]]
        i = next(i for i in range(len(heads) - 1) if heads[i] == heads[i + 1])
        return max(k for k, h in enumerate(heads) if h == heads[i]) + 1

    def late(x):
        rep = _ref_classify(sys, x, depth, no_holes_certified=True)
        return (rep.verdict is addresses.Verdict.MULTIPLE_CERTIFIED
                and rep.prefix_counts[-1] > first_fork_stop(x, rep.explored_depth))

    x = next(x for x in _points(sys, 17, 300) if late(x))
    kernel_rows.clear()
    want = _ref_classify(sys, x, depth, no_holes_certified=True)
    assert repr(addresses.classify_point(sys, x, depth, no_holes_certified=True)) == repr(want)
    assert kernel_rows
    # budgets that end the walk at every node of the last level
    total = sum(want.prefix_counts)
    for budget in range(total - want.prefix_counts[-1] - 1, total + 1):
        monkeypatch.setattr(addresses, "NODE_BUDGET", budget)
        assert (_outcome(addresses.classify_point, sys, x, depth, no_holes_certified=True)
                == _outcome(_ref_classify, sys, x, depth, no_holes_certified=True))


@pytest.mark.parametrize("certified", [False, True])
def test_classify_budget_matches_scalar_reference(certified, monkeypatch, kernel_rows):
    sys, depth = WIDE["triangle-0.7"]
    for x in _points(sys, 16, 4):
        total = sum(_ref_classify(sys, x, depth, no_holes_certified=certified).prefix_counts)
        for budget in (total, total - 1):
            with monkeypatch.context() as mp:
                mp.setattr(addresses, "NODE_BUDGET", budget)
                assert (_outcome(addresses.classify_point, sys, x, depth, no_holes_certified=certified)
                        == _outcome(_ref_classify, sys, x, depth, no_holes_certified=certified))
    assert kernel_rows or certified  # these points certify at single-node levels


# (system, depth): trees of tens to hundreds of nodes, small enough to try every budget on
SWEEP = {
    "triangle-0.7": (triangle_system(0.7), 8),
    "unit-0.6": (unit_system(0.6), 14),
    "digits013-0.45": (as_ifs(DigitSet((0, 1, 3)), 0.45), 12),
}


def _budget_sweep(monkeypatch, sys, x, depth, certified):
    """Compare both walkers under every budget from 1 to one past the tree's node count."""
    total = sum(_ref_classify(sys, x, depth, no_holes_certified=certified).prefix_counts)
    for budget in range(1, total + 2):
        with monkeypatch.context() as mp:
            mp.setattr(addresses, "NODE_BUDGET", budget)
            assert (_outcome(addresses.classify_point, sys, x, depth, no_holes_certified=certified)
                    == _outcome(_ref_classify, sys, x, depth, no_holes_certified=certified)), budget
    return total


@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize("name", list(SWEEP))
def test_classify_point_equals_scalar_reference_under_every_budget(name, certified, monkeypatch,
                                                                   kernel_rows):
    sys, depth = SWEEP[name]
    for x in _points(sys, 18, 2):
        _budget_sweep(monkeypatch, sys, x, depth, certified)
    assert kernel_rows or certified  # these points certify at single-node levels


def test_every_budget_around_a_certificate_partway_through_a_batched_level(monkeypatch, kernel_rows):
    # under a wide margin the first fork among the children of the 13 nodes
    # at depth 7 fails it, and a later fork of that batched level certifies
    monkeypatch.setattr(addresses, "CERT_MARGIN", 0.05)
    sys, x, depth = triangle_system(0.7), (0.2854949753092525, 0.0037326991074312366), 20
    want = _ref_classify(sys, x, depth, no_holes_certified=True)
    assert want.verdict is addresses.Verdict.MULTIPLE_CERTIFIED
    assert want.prefix_counts == [1, 1, 2, 3, 4, 6, 9, 13, 9]
    assert _budget_sweep(monkeypatch, sys, x, depth, True) == 48
    assert max(kernel_rows) >= 13
