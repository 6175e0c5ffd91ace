"""`addresses.forced_chain` and the one record every forced-chain reader gets.

The chain walker stops at a fork, a dead end, a repeated exact remainder
or the step limit, and `first_bifurcation`, `classify_point` and
`triangle.digit_forcing` each read that one `ForcedChain`.  The checks
below walk exact and float points to every kind of stop and hold the
readers to the record, and hold every step-count argument to one rule.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

import ifslab
from ifslab.addresses import (
    ChainKind,
    ForcedChain,
    Verdict,
    classify_point,
    enumerate_prefixes,
    first_bifurcation,
    forced_chain,
)
from ifslab.core import apply_inverse, new_ifs
from ifslab.errors import IrrationalInput
from ifslab.triangle import (
    barycentric_to_point,
    digit_forcing,
    gamma_uniqueness_scan,
    pi_point,
    pi_prime_point,
)

from helpers import triangle_system, triangle_system_exact, unit_system

F = Fraction


def _cases():
    """(system, point, steps): exact and float twins on a line and a triangle."""
    rng = np.random.default_rng(27)
    out = []
    for lam in (F(3, 5), F(7, 10)):
        exact, approx = triangle_system_exact(lam), triangle_system(float(lam))
        for t in (pi_point(lam), pi_prime_point(lam)):
            out.append((exact, barycentric_to_point(exact, t), 40))
        pts = [(F(1, 3), F(1, 3)), (F(1, 2), F(1, 4)), (F(3, 2), F(1, 2)), (F(0), F(0))]
        pts += [tuple(F(int(v), 97) for v in rng.integers(0, 48, size=2)) for _ in range(6)]
        for x in pts:
            for steps in (0, 3, 40):
                out.append((exact, x, steps))
                out.append((approx, tuple(map(float, x)), steps))
    line, line_exact = unit_system(0.6), new_ifs(F(3, 5), [(F(0),), (F(1),)])
    for x in (F(1, 10), F(1, 2), F(3, 2), F(0), F(5, 8), F(1, 4)):
        for steps in (2, 30):
            out.append((line_exact, (x,), steps))
            out.append((line, (float(x),), steps))
    return out


def test_readers_agree_with_the_record():
    kinds = {True: set(), False: set()}
    for sys, x, steps in _cases():
        c = forced_chain(sys, x, steps)
        rep = classify_point(sys, x, min(steps, c.step + 1))  # one tree level past a fork
        kinds[rep.exact].add(c.kind)
        assert rep.exact == sys.is_exact
        fork = c.step if c.kind is ChainKind.FORCED_PREFIX_THEN_BRANCH else None
        assert first_bifurcation(sys, x, steps) == rep.first_bifurcation == fork, (x, steps)
        assert rep.prefix_counts[:c.step + 1] == [1] * (c.step + 1)
        assert c.step <= steps and (c.period is None) == (c.entry_depth is None)
        if c.kind is ChainKind.UNIQUE_BY_CYCLE:
            assert rep.verdict is Verdict.UNIQUE_CERTIFIED and rep.certificate == c
            assert rep.explored_depth == c.step and 0 <= c.entry_depth < c.step
            assert c.children is None
            continue
        assert rep.certificate is None and c.entry_depth is None
        if c.kind is ChainKind.EXHAUSTED:
            assert c.step == steps and c.children is None
        elif c.kind is ChainKind.DEAD_END:
            assert c.children == [] and rep.prefix_counts == [1] * (c.step + 1) + [0]
            assert rep.verdict is Verdict.UNKNOWN
        else:
            assert len(c.children) >= 2 and rep.prefix_counts[c.step + 1] == len(c.children)
            tree = enumerate_prefixes(sys, x, c.step + 1)
            assert [nd.prefix for nd in tree.levels[-1]] == [c.digits + (j,) for j, _ in c.children]
    assert kinds[True] == set(ChainKind)
    # a float chain is never compared with itself, so it never closes a cycle
    assert kinds[False] == set(ChainKind) - {ChainKind.UNIQUE_BY_CYCLE}


def test_digit_forcing_is_the_corner_triangle_chain():
    seen = set()
    for k in range(501, 1000, 37):
        lam = F(k, 1000)
        corners = new_ifs(lam, [(1, 0), (0, 1), (0, 0)])
        for t in (pi_point(lam).as_tuple(), pi_prime_point(lam).as_tuple(), (F(1, 3),) * 3,
                  (F(1, 2), F(1, 4), F(1, 4)), (F(-1, 3), F(2, 3), F(2, 3))):
            for steps in (2, 60):
                want = forced_chain(corners, t[:2], steps)
                got = digit_forcing(lam, t, max_steps=steps)
                assert got == want and got.children == want.children, (lam, t, steps)
                seen.add(got.kind)
                # the exact corner system walks a float point at its exact value
                floats = tuple(map(float, t[:2]))
                exact = tuple(map(F, floats))
                assert forced_chain(corners, floats, steps) == forced_chain(corners, exact, steps)
    assert seen == set(ChainKind)


def _forked_children(sys, x, chain):
    """The fork's children as `apply_inverse` gives them, after the chain's forced digits."""
    for j in chain.digits:
        x = apply_inverse(sys, j, x)
    return [(j, apply_inverse(sys, j, x)) for j, _ in chain.children]


def test_a_fork_gives_its_children_as_points():
    forks = {True: 0, False: 0}
    for sys, x, steps in _cases():
        c = forced_chain(sys, x, steps)
        if c.kind is ChainKind.FORCED_PREFIX_THEN_BRANCH:
            assert c.children == _forked_children(sys, x, c), (x, steps)
            assert all(type(v) is (Fraction if sys.is_exact else float) for _, r in c.children for v in r)
            forks[sys.is_exact] += 1
    for k in range(501, 1000, 37):
        lam = F(k, 1000)
        corners = new_ifs(lam, [(1, 0), (0, 1), (0, 0)])
        for t in ((F(1, 3),) * 3, (F(1, 2), F(1, 4), F(1, 4))):
            c = digit_forcing(lam, t, max_steps=60)
            if c.kind is ChainKind.FORCED_PREFIX_THEN_BRANCH:
                assert c.children == _forked_children(corners, t[:2], c), (lam, t)
                forks[True] += 1
    assert forks[True] > 0 and forks[False] > 0


def test_gamma_scan_takes_only_a_rational_lambda():
    with pytest.raises(IrrationalInput, match="exact rationals"):
        gamma_uniqueness_scan(2 / 3, 19)
    assert len(gamma_uniqueness_scan(F(2, 3), 19)) == 6


def test_the_record_keeps_the_names_the_bench_reads():
    # bench/workloads.py and cli.cmd_analyze_point read kind.value, step, period, digits, entry_depth
    c = digit_forcing(F(3, 5), pi_point(F(3, 5)))
    assert (c.kind.value, c.step, c.period, c.digits, c.entry_depth) == ("unique-by-cycle", 3, 3,
                                                                         (2, 1, 0), 0)
    assert c == ForcedChain(ChainKind.UNIQUE_BY_CYCLE, (2, 1, 0), 0)
    fork = forced_chain(unit_system(0.6), (0.5,), 10)
    assert (fork.kind.value, fork.step, fork.period, fork.digits) == ("forced-prefix-then-branch",
                                                                      0, None, ())
    assert "children" not in repr(fork) and fork == ForcedChain(ChainKind.FORCED_PREFIX_THEN_BRANCH, ())
    assert ifslab.forced_chain is forced_chain and ifslab.ForcedChain is ForcedChain
    assert ifslab.ChainKind is ChainKind


STEP_TAKERS = {
    "forced_chain": lambda n: forced_chain(triangle_system(0.7), (0.3, 0.3), n),
    "classify_point": lambda n: classify_point(triangle_system(0.7), (0.3, 0.3), n),
    "enumerate_prefixes": lambda n: enumerate_prefixes(triangle_system(0.7), (0.3, 0.3), n).counts,
    "first_bifurcation": lambda n: first_bifurcation(triangle_system(0.7), (0.3, 0.3), n),
    "digit_forcing": lambda n: digit_forcing(F(3, 5), pi_point(F(3, 5)), max_steps=n),
    "gamma_uniqueness_scan": lambda n: gamma_uniqueness_scan(F(2, 3), 19, max_steps=n),
}


@pytest.mark.parametrize("steps", [2.5, -1, "3"])
@pytest.mark.parametrize("walk", list(STEP_TAKERS))
def test_a_step_count_is_an_integer_of_at_least_0(walk, steps):
    with pytest.raises(ValueError, match=re.escape(f"must be an integer of at least 0, got {steps!r}")):
        STEP_TAKERS[walk](steps)


@pytest.mark.parametrize("walk", list(STEP_TAKERS))
def test_a_numpy_integer_is_a_step_count(walk):
    assert STEP_TAKERS[walk](np.int64(3)) == STEP_TAKERS[walk](3)
