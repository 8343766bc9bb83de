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


# ---------------------------------------------------------------------------
# differential tests against the textbook tableau over Fraction


def _reference_solve_lp(A, b, c, maximize=False):
    """The solver as it was over `Fraction`, before it went fraction-free."""
    m = len(A)
    n = len(c)
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    cost = [Fraction(x) for x in c]
    if maximize:
        cost = [-x for x in cost]
    sign = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            rows[i] = [-x for x in rows[i]]
            sign[i] = -1

    width = n + m
    T = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    state = {"Z": [Fraction(0)] * (width + 1)}

    def pivot(r: int, col: int) -> None:
        pr = T[r]
        inv = Fraction(1) / pr[col]
        pr = [x * inv for x in pr]
        T[r] = pr
        for i in range(len(T)):
            if i != r and T[i][col]:
                f = T[i][col]
                T[i] = [a - f * p for a, p in zip(T[i], pr)]
        Z = state["Z"]
        if Z[col]:
            f = Z[col]
            state["Z"] = [a - f * p for a, p in zip(Z, pr)]
        basis[r] = col

    def run(cols: range) -> str:
        while True:
            Z = state["Z"]
            col = None
            for j in cols:
                if Z[j] < 0:
                    col = j
                    break
            if col is None:
                return OPTIMAL
            best_ratio = None
            best_row = None
            for i in range(len(T)):
                a = T[i][col]
                if a > 0:
                    ratio = T[i][-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[best_row])
                    ):
                        best_ratio = ratio
                        best_row = i
            if best_row is None:
                return UNBOUNDED
            pivot(best_row, col)

    # Phase I: minimize the sum of artificial variables.
    Z = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        s = sum(T[i][j] for i in range(len(T)))
        cj = Fraction(1) if n <= j < width else Fraction(0)
        Z[j] = cj - s
    state["Z"] = Z
    run(range(width))
    infeasibility = -state["Z"][width]
    if infeasibility > 0:
        y = [Fraction(1) - state["Z"][n + i] for i in range(m)]
        farkas = tuple(sign[i] * y[i] for i in range(m))
        if not simplex._check_farkas([[Fraction(x) for x in row] for row in A], [Fraction(x) for x in b], farkas):
            raise ConsistencyError("internal: Farkas certificate failed substitution")
        return simplex.LPSolution(INFEASIBLE, farkas=farkas)

    # Drive leftover artificials out of the basis; drop redundant rows.
    drop = []
    for r in range(len(T)):
        if basis[r] >= n:
            col = None
            for j in range(n):
                if T[r][j] != 0:
                    col = j
                    break
            if col is None:
                drop.append(r)
            else:
                pivot(r, col)
    for r in sorted(drop, reverse=True):
        del T[r]
        del basis[r]

    # Phase II on the real columns.
    T2 = [row[:n] + [row[-1]] for row in T]
    T.clear()
    T.extend(T2)
    Z = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        cj = cost[j] if j < n else Fraction(0)
        Z[j] = cj - sum(cost[basis[i]] * T[i][j] for i in range(len(T)))
    state["Z"] = Z
    status = run(range(n))
    if status == UNBOUNDED:
        return simplex.LPSolution(UNBOUNDED)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    objective = -state["Z"][n]
    if maximize:
        objective = -objective
    return simplex.LPSolution(OPTIMAL, x=tuple(x), objective=objective)


def _entry(rng, fractions):
    v = rng.randint(-4, 4)
    if fractions and rng.random() < 0.4:
        return Fraction(v, rng.randint(1, 6))
    return v


def _seeded_lp(rng, kind, fractions):
    m, n = rng.randint(1, 4), rng.randint(2, 6)
    A = [[_entry(rng, fractions) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
    if kind in ("feasible", "redundant", "degenerate"):
        x = [rng.randint(0, 3) if kind != "degenerate" or rng.random() < 0.4 else 0
             for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x)) for row in A]
    else:
        b = [_entry(rng, fractions) for _ in range(m)]
    if kind == "redundant":
        k = _entry(rng, fractions) or 1
        A.append([k * a + v for a, v in zip(A[0], A[-1])])
        b.append(k * b[0] + b[-1])
    c = [_entry(rng, fractions) for _ in range(n)]
    if kind == "bounded":
        # min of a nonnegative cost is bounded whenever the LP is feasible
        c = [abs(v) for v in c]
    return A, b, c


def _assert_same_solution(got, want):
    assert got == want
    assert repr(got) == repr(want)
    for vec in (got.x, got.farkas):
        if vec is not None:
            assert type(vec) is tuple and all(type(v) is Fraction for v in vec)
    if got.objective is not None:
        assert type(got.objective) is Fraction


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("kind", ["feasible", "redundant", "degenerate", "bounded", "any"])
def test_matches_fraction_tableau_on_seeded_lps(kind, fractions):
    rng = random.Random(f"{kind}/{fractions}")
    statuses = set()
    for _ in range(150):
        A, b, c = _seeded_lp(rng, kind, fractions)
        for maximize in (False, True):
            got = solve_lp(A, b, c, maximize=maximize)
            _assert_same_solution(got, _reference_solve_lp(A, b, c, maximize))
            statuses.add(got.status)
    if kind == "any":
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    elif kind != "bounded":
        assert OPTIMAL in statuses


def test_matches_fraction_tableau_on_fixed_instances():
    cycling = (
        [[Fraction(1, 4), -8, -1, 9, 1, 0, 0],
         [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
         [0, 0, 1, 0, 0, 0, 1]],
        [0, 0, 1],
        [Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0],
    )
    cases = [
        cycling,
        # one common lcm of 2 would not be the determinant of the basis
        ([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), 1]], [1, 1], [1, 1]),
        # artificials left in the basis, driven out on a negative pivot
        ([[-1, 1], [1, -1]], [0, 0], [1, 2]),
        ([[Fraction(-1, 2), Fraction(1, 2), 1], [Fraction(1, 3), Fraction(-1, 3), -1]],
         [0, 0], [1, 2, -1]),
        ([[1, -1, 0], [2, -2, 0], [0, 1, 1]], [0, 0, 1], [0, 1, -1]),
        ([[1, 1], [1, 1]], [1, 1], [1, 2]),
        ([[1, 1]], [-1], [0, 0]),
        ([[1, -1]], [0], [1, 0]),
        ([], [], [1, -1]),
        ([[0, 0]], [0], [1, 1]),
    ]
    for A, b, c in cases:
        for maximize in (False, True):
            _assert_same_solution(solve_lp(A, b, c, maximize=maximize),
                                  _reference_solve_lp(A, b, c, maximize))


def test_builder_keeps_int_coefficients_and_returns_fractions():
    lp = LinearProgram()
    lp.variable("u", free=True)
    lp.variable("v")
    lp.constrain({"u": 2, "v": Fraction(1, 3)}, "<=", Fraction(7, 2))
    lp.constrain({"u": 1, "v": 0}, ">=", -1)
    assert all(type(v) is int for v in lp._cons[1][0].values())
    sol = lp.solve(objective={"u": 1, "v": 1}, maximize=True)
    assert sol.status == OPTIMAL
    assert all(type(v) is Fraction for v in sol.values.values())
    assert type(sol.objective) is Fraction
