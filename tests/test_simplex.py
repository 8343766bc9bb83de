import random
from fractions import Fraction

import pytest

from typesemigroup import simplex
from typesemigroup.errors import ConsistencyError
from typesemigroup.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_lp,
)


def test_basic_maximization():
    # max x + y  s.t.  x + 2y + s = 4, 3x + y + t = 6
    A = [[1, 2, 1, 0], [3, 1, 0, 1]]
    b = [4, 6]
    c = [1, 1, 0, 0]
    sol = solve_lp(A, b, c, maximize=True)
    assert sol.status == OPTIMAL
    assert sol.objective == Fraction(14, 5)
    x = sol.x
    assert x[0] + 2 * x[1] + x[2] == 4
    assert 3 * x[0] + x[1] + x[3] == 6


def test_infeasible_has_verified_farkas():
    # x1 + x2 = -1 with x >= 0 is infeasible
    sol = solve_lp([[1, 1]], [-1], [0, 0])
    assert sol.status == INFEASIBLE
    assert sol.farkas is not None
    (y,) = sol.farkas
    assert y * 1 <= 0 and y * (-1) > 0


def test_failed_farkas_check_raises_consistency_error(monkeypatch):
    monkeypatch.setattr(simplex, "_check_farkas", lambda A, b, y: False)
    with pytest.raises(ConsistencyError):
        solve_lp([[1, 1]], [-1], [0, 0])


def test_unbounded():
    # max x1 with only x1 - x2 = 0
    sol = solve_lp([[1, -1]], [0], [1, 0], maximize=True)
    assert sol.status == UNBOUNDED


def test_degenerate_instance_terminates():
    # Classic cycling-prone instance; Bland's rule must terminate.
    A = [
        [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0]
    sol = solve_lp(A, b, c)
    assert sol.status == OPTIMAL
    # optimum sits at x = (1, 0, 1, 0) with both slack rows tight
    assert sol.objective == Fraction(-77, 100)


def test_random_feasible_systems_are_solved():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        x_star = [Fraction(rng.randint(0, 4)) for _ in range(n)]
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [sum(A[i][j] * x_star[j] for j in range(n)) for i in range(m)]
        sol = solve_lp(A, b, [Fraction(0)] * n)
        assert sol.status == OPTIMAL
        for i in range(m):
            assert sum(A[i][j] * sol.x[j] for j in range(n)) == b[i]
        assert all(v >= 0 for v in sol.x)


def test_builder_free_variables_and_inequalities():
    lp = LinearProgram()
    lp.variable("u", free=True)
    lp.variable("v")
    lp.constrain({"u": 1, "v": 1}, "==", 0)
    lp.constrain({"v": 1}, ">=", 3)
    sol = lp.solve(objective={"v": 1}, maximize=False)
    assert sol.status == OPTIMAL
    assert sol.values["v"] == 3
    assert sol.values["u"] == -3


def test_builder_infeasibility():
    lp = LinearProgram()
    lp.variable("x")
    lp.constrain({"x": 1}, "<=", 1)
    lp.constrain({"x": 1}, ">=", 2)
    sol = lp.solve()
    assert sol.status == INFEASIBLE
