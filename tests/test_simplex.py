import random
from fractions import Fraction
from math import lcm

import pytest

from library_traffic import run_library_sample
from lp_reference import reference_solve_lp
from typesemigroup import monoid, simplex, states
from typesemigroup.errors import ConsistencyError
from typesemigroup.simplex import INFEASIBLE, OPTIMAL, solve_lp


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


def test_nonzero_cost_rejected():
    # the solver decides feasibility only
    with pytest.raises(ValueError):
        solve_lp([[1, 1]], [1], [0, 1])


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), 0.5, 1.0, True])
def test_non_int_entry_rejected(bad):
    # A and b hold ints; nothing is scaled or converted
    with pytest.raises(ValueError):
        solve_lp([[bad, 1]], [1], [0, 0])
    with pytest.raises(ValueError):
        solve_lp([[1, 1], [1, bad]], [1, 1], [0, 0])
    with pytest.raises(ValueError):
        solve_lp([[1, 1]], [bad], [0, 0])


@pytest.mark.parametrize("seed", [0, 1])
def test_library_builds_integer_lps_with_nonnegative_b(seed, monkeypatch):
    # every LP the library solves has int entries and b >= 0, so the solver
    # scales nothing, and its sign flip of a row with b < 0 is never needed
    seen = {monoid: [], states: []}
    for module, calls in seen.items():
        def recording(A, b, c, real=module.solve_lp, calls=calls):
            calls.append((A, b))
            return real(A, b, c)

        monkeypatch.setattr(module, "solve_lp", recording)
    run_library_sample(seed)
    assert len(seen[monoid]) > 50 and len(seen[states]) > 10
    for A, b in seen[monoid] + seen[states]:
        assert all(type(v) is int for row in A for v in row)
        assert all(type(v) is int and v >= 0 for v in b)


# Beale's cycling-prone instance (its cost left out), each row scaled to
# integers: the first by 4, the second by 2
BEALE = ([[1, -32, -4, 36, 4, 0, 0],
          [1, -24, -1, 6, 0, 2, 0],
          [0, 0, 1, 0, 0, 0, 1]], [0, 0, 1])


def _integral(A, b):
    """A x = b with each row and its b scaled by the lcm of their
    denominators: the same instance in ints."""
    rows, rhs = [], []
    for row, bi in zip(A, b):
        vals = [Fraction(v) for v in (*row, bi)]
        s = lcm(*(v.denominator for v in vals))
        rows.append([int(v * s) for v in vals[:-1]])
        rhs.append(int(vals[-1] * s))
    return rows, rhs


def test_degenerate_instance_terminates():
    # Bland's rule must terminate on the cycling-prone instance
    A, b = BEALE
    sol = solve_lp(A, b, [0] * 7)
    assert sol.status == OPTIMAL
    assert all(v >= 0 for v in sol.x)
    assert [sum(a * v for a, v in zip(row, sol.x)) for row in A] == b


def test_random_feasible_systems_are_solved():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        x_star = [rng.randint(0, 4) for _ in range(n)]
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [sum(A[i][j] * x_star[j] for j in range(n)) for i in range(m)]
        sol = solve_lp(A, b, [0] * n)
        assert sol.status == OPTIMAL
        for i in range(m):
            assert sum(A[i][j] * sol.x[j] for j in range(n)) == b[i]
        assert all(v >= 0 for v in sol.x)


# ---------------------------------------------------------------------------
# differential tests against the two-phase tableau over Fraction at zero cost


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
    else:  # "bounded" and "any": b drawn freely, each kind from its own seed
        b = [_entry(rng, fractions) for _ in range(m)]
    if kind == "redundant":
        k = _entry(rng, fractions) or 1
        A.append([k * a + v for a, v in zip(A[0], A[-1])])
        b.append(k * b[0] + b[-1])
    return A, b


def _assert_same_solution(got, want):
    assert (got.status, got.x, got.farkas) == (want.status, want.x, want.farkas)
    assert (repr(got.x), repr(got.farkas)) == (repr(want.x), repr(want.farkas))
    for vec in (got.x, got.farkas):
        if vec is not None:
            assert type(vec) is tuple and all(type(v) is Fraction for v in vec)


def _record_phase_one_bases(monkeypatch):
    """The basis each solve ends Phase I with, in call order."""
    bases = []
    real = simplex._phase_one

    def recording(T, D, basis):
        D = real(T, D, basis)
        bases.append(list(basis))
        return D

    monkeypatch.setattr(simplex, "_phase_one", recording)
    return bases


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("kind", ["feasible", "redundant", "degenerate", "bounded", "any"])
def test_matches_fraction_tableau_on_seeded_lps(kind, fractions, monkeypatch):
    rng = random.Random(f"{kind}/{fractions}")
    bases = _record_phase_one_bases(monkeypatch)
    statuses = set()
    stuck = 0  # feasible LPs that end Phase I with an artificial in the basis
    for _ in range(150):
        # a rational instance is solved as its integer scaling
        A, b = _integral(*_seeded_lp(rng, kind, fractions))
        n = len(A[0])
        got = solve_lp(A, b, [0] * n)
        _assert_same_solution(got, reference_solve_lp(A, b, [0] * n))
        statuses.add(got.status)
        stuck += got.status == OPTIMAL and any(j >= n for j in bases[-1])
    if kind in ("any", "bounded"):
        assert statuses == {OPTIMAL, INFEASIBLE}
    else:
        assert statuses == {OPTIMAL}
    if kind in ("redundant", "degenerate"):
        # the point is read past those rows, which sit at level 0
        assert stuck > 0


def test_matches_fraction_tableau_on_fixed_instances(monkeypatch):
    bases = _record_phase_one_bases(monkeypatch)
    cases = [
        BEALE,
        # [[1/2, 1/2], [1/2, 1]] x = [1, 1], each row scaled to integers
        ([[1, 1], [1, 2]], [2, 2]),
        # artificials left in the basis at level 0
        ([[-1, 1], [1, -1]], [0, 0]),
        # [[-1/2, 1/2, 1], [1/3, -1/3, -1]] x = 0, each row scaled to integers
        ([[-1, 1, 2], [1, -1, -3]], [0, 0]),
        ([[1, -1, 0], [2, -2, 0], [0, 1, 1]], [0, 0, 1]),
        ([[1, 1], [1, 1]], [1, 1]),
        ([[1, 1]], [-1]),
        ([[1, -1]], [0]),
        ([[0, 0]], [0]),
    ]
    for A, b in cases:
        zero = [0] * len(A[0])
        _assert_same_solution(solve_lp(A, b, zero), reference_solve_lp(A, b, zero))
    assert any(j >= 2 for j in bases[2])
    # no rows: the cost gives the column count
    _assert_same_solution(solve_lp([], [], [0, 0]), reference_solve_lp([], [], [0, 0]))
    assert solve_lp([], [], [0, 0]).x == (0, 0)
