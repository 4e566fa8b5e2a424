"""Exact packing simplex: frozen solves, certificate verification, a
brute-force basic-point oracle on random bounded programs, and the former
two-phase simplex with recomputed pricing on random programs of both
statuses."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from dtspan import DomainError, certificate_ok, linear_program, solve
from dtspan.lp import OPTIMAL, UNBOUNDED, LPSolution
from oracles import (
    GeneralProgram,
    general_certificate_ok,
    recomputed_pricing_solve,
    solve_square,
)

F0 = Fraction(0)
F1 = Fraction(1)


def test_single_variable_max():
    lp = linear_program([F1], [[F1]], [Fraction(3)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x == (Fraction(3),) and sol.value == 3
    assert sol.duals == (F1,)
    assert certificate_ok(lp, sol)
    # with no variables the objective is still the Fraction 0, not the int 0
    empty = solve(linear_program([], [], []))
    assert empty.status == OPTIMAL and empty.value == 0
    assert type(empty.value) is Fraction


def test_unbounded():
    lp = linear_program([F1], [[F0]], [F1])
    assert solve(lp).status == UNBOUNDED


def test_no_cycling_on_degenerate_program():
    # classic degenerate instance that cycles under naive pivoting
    lp = linear_program(
        [Fraction(3, 4), Fraction(-150), Fraction(1, 50), Fraction(-6)],
        [
            [Fraction(1, 4), Fraction(-60), Fraction(-1, 25), Fraction(9)],
            [Fraction(1, 2), Fraction(-90), Fraction(-1, 50), Fraction(3)],
            [F0, F0, F1, F0],
        ],
        [F0, F0, F1],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(1, 20)
    assert certificate_ok(lp, sol)


def test_malformed_programs():
    for rows, rhs in (
        ([[F1]], [F1, F1]),  # more right-hand sides than rows
        ([[F1, F1]], [F1]),  # a ragged row
        ([[F1]], [-F1]),  # a negative right-hand side: the origin is infeasible
    ):
        with pytest.raises(DomainError) as err:
            linear_program([F1], rows, rhs)
        assert err.value.code == "MalformedLP"


def _brute_force_optimum(lp):
    """Best objective over all basic points of {Ax <= b, x >= 0}.

    The feasible region is pointed (x >= 0), so if the program is bounded
    its optimum is attained at a basic point: the solution of n constraints
    chosen tight among rows and axes.
    """
    n = len(lp.objective)
    planes = [(list(row), rhs) for row, rhs in zip(lp.rows, lp.rhs)]
    for i in range(n):
        axis = [F0] * n
        axis[i] = F1
        planes.append((axis, F0))
    best = None
    for chosen in combinations(range(len(planes)), n):
        a = [planes[i][0] for i in chosen]
        b = [planes[i][1] for i in chosen]
        x = solve_square(a, b)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(
            sum(c * v for c, v in zip(row, x)) > rhs for row, rhs in zip(lp.rows, lp.rhs)
        ):
            continue
        val = sum(c * v for c, v in zip(lp.objective, x))
        if best is None or val > best:
            best = val
    return best


def test_random_bounded_instances_against_enumeration():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [
            [Fraction(rng.randint(-2, 4)) for _ in range(n)] for _ in range(m)
        ]
        rhs = [Fraction(rng.randint(0, 6)) for _ in range(m)]
        # bounding box keeps the optimum finite
        rows.append([F1] * n)
        rhs.append(Fraction(12))
        objective = [Fraction(rng.randint(-3, 4)) for _ in range(n)]
        lp = linear_program(objective, rows, rhs)
        sol = solve(lp)
        assert sol.status == OPTIMAL  # origin is feasible, box bounds it
        assert certificate_ok(lp, sol)
        assert sol.value == _brute_force_optimum(lp)


def test_certificate_rejects_wrong_duals():
    lp = linear_program([F1], [[F1]], [Fraction(3)])
    sol = solve(lp)
    forged = sol.__class__(OPTIMAL, sol.x, sol.value, (Fraction(2),))
    assert not certificate_ok(lp, forged)
    forged2 = sol.__class__(OPTIMAL, sol.x, Fraction(4), sol.duals)
    assert not certificate_ok(lp, forged2)
    # a negative multiplier can balance b . y but proves no upper bound
    lp2 = linear_program([F1, F0], [[F1, F0], [F0, F1]], [Fraction(3), F1])
    sol2 = solve(lp2)
    assert sol2.duals == (F1, F0)
    forged3 = sol2.__class__(OPTIMAL, sol2.x, sol2.value, (Fraction(2), -Fraction(3)))
    assert not certificate_ok(lp2, forged3)


def _random_program(rng):
    """A packing program with n, m in 0..4: A of any sign, b >= 0 with many
    zeros, so that pivots are often degenerate."""
    n = rng.randint(0, 4)
    m = rng.randint(0, 4)
    rows = [[Fraction(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
    rhs = [Fraction(max(0, rng.randint(-3, 5)), rng.randint(1, 2)) for _ in range(m)]
    objective = [Fraction(rng.randint(-3, 4)) for _ in range(n)]
    return linear_program(objective, rows, rhs)


def _fractional_program(rng):
    """A packing program whose rows each have their own denominators, so
    that every tableau row starts with its own scale."""
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    rows = []
    for _ in range(m):
        den = rng.randint(1, 6)
        rows.append([Fraction(rng.randint(-3, 4), den * rng.randint(1, 2)) for _ in range(n)])
    rhs = [Fraction(max(0, rng.randint(-2, 7)), rng.randint(1, 4)) for _ in range(m)]
    objective = [Fraction(rng.randint(-3, 5), rng.randint(1, 5)) for _ in range(n)]
    return linear_program(objective, rows, rhs)


def _path_shaped_program(rng):
    """A 0/1 program the size of a six-vertex packing network's path LP:
    10-25 edge rows, 40-80 path columns of 1-5 steps each, capacities in
    0..3 and rational path weights."""
    m = rng.randint(10, 25)
    n = rng.randint(40, 80)
    rows = [[F0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), rng.randint(1, 5)):
            rows[i][j] = F1
    rhs = [Fraction(rng.randint(0, 3)) for _ in range(m)]
    objective = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
    return linear_program(objective, rows, rhs)


def _assert_matches_recomputed_pricing(lp):
    general = GeneralProgram(lp.objective, lp.rows, ("<=",) * len(lp.rows), lp.rhs)
    got, want = solve(lp), recomputed_pricing_solve(general)
    assert (got.status, got.x, got.value, got.duals) == (
        want.status,
        want.x,
        want.value,
        want.duals,
    )
    return got.status


def test_solve_matches_recomputed_pricing():
    rng = random.Random(211)
    seen = set()
    degenerate = 0
    for _ in range(400):
        lp = _random_program(rng)
        seen.add(_assert_matches_recomputed_pricing(lp))
        degenerate += F0 in lp.rhs and lp.nvars > 0
    assert seen == {OPTIMAL, UNBOUNDED}
    assert degenerate >= 100

    seen = set()
    mixed = 0
    for _ in range(300):
        lp = _fractional_program(rng)
        seen.add(_assert_matches_recomputed_pricing(lp))
        scales = {lcm(*(a.denominator for a in row)) for row in lp.rows}
        mixed += len(scales) > 1
    assert seen == {OPTIMAL, UNBOUNDED}
    assert mixed >= 150

    for _ in range(12):
        lp = _path_shaped_program(rng)
        assert _assert_matches_recomputed_pricing(lp) == OPTIMAL


def test_integer_certificate_agrees_with_fraction_certificate():
    # Optimal solutions and copies with one x_j, one y_i or the value moved
    # by +-1/k: the integer certificate and the Fraction one of the general
    # program must give the same verdict on every one.
    rng = random.Random(307)
    verdicts = {True: 0, False: 0}
    for draw in range(200):
        lp = _fractional_program(rng) if draw % 2 else _random_program(rng)
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        general = GeneralProgram(lp.objective, lp.rows, ("<=",) * len(lp.rows), lp.rhs)
        candidates = [sol]
        for _ in range(6):
            shift = Fraction(rng.choice((-1, 1)), rng.randint(1, 4))
            x, y = list(sol.x), list(sol.duals)
            field = rng.randrange(3)
            if field == 0 and x:
                x[rng.randrange(len(x))] += shift
            elif field == 1 and y:
                y[rng.randrange(len(y))] += shift
            value = sol.value + shift if field == 2 else sol.value
            candidates.append(LPSolution(OPTIMAL, tuple(x), value, tuple(y)))
        for cand in candidates:
            verdict = certificate_ok(lp, cand)
            assert verdict == general_certificate_ok(general, cand)
            verdicts[verdict] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 500
