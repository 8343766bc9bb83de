"""Exact rational simplex solver.

Solves  min/max c.x  subject to  A x = b, x >= 0  over the rationals with
Bland's rule (no cycling) and no floating point anywhere.  Infeasibility
comes with a Farkas certificate y satisfying y.A <= 0 and y.b > 0, verified
by substitution before it is returned.

`LinearProgram` is a small builder on top of `solve_lp` that supports free
variables (split into differences) and inequality constraints (slacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ConsistencyError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None


def _check_farkas(A, b, y) -> bool:
    n = len(A[0]) if A else 0
    for j in range(n):
        if sum(y[i] * A[i][j] for i in range(len(A))) > 0:
            return False
    return sum(y[i] * b[i] for i in range(len(A))) > 0


def solve_lp(
    A: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int],
    maximize: bool = False,
) -> LPSolution:
    """min (or max) c.x subject to A x = b, x >= 0, in exact arithmetic."""
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
        if not _check_farkas([[Fraction(x) for x in row] for row in A], [Fraction(x) for x in b], farkas):
            raise ConsistencyError("internal: Farkas certificate failed substitution")
        return LPSolution(INFEASIBLE, farkas=farkas)

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
        return LPSolution(UNBOUNDED)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    objective = -state["Z"][n]
    if maximize:
        objective = -objective
    return LPSolution(OPTIMAL, x=tuple(x), objective=objective)


@dataclass(frozen=True)
class BuiltSolution:
    status: str
    values: dict[str, Fraction] | None = None
    objective: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None


class LinearProgram:
    """Incremental LP builder over named variables.

    Variables are nonnegative by default; `free=True` splits a variable into
    a difference of two nonnegative columns.  Constraints accept senses
    "==", "<=" and ">=" (slack columns are added as needed).
    """

    def __init__(self) -> None:
        self._vars: list[tuple[str, bool]] = []
        self._index: dict[str, int] = {}
        self._cons: list[tuple[dict[str, Fraction], str, Fraction]] = []

    def variable(self, name: str, free: bool = False) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._vars)
        self._vars.append((name, free))
        return name

    def constrain(self, coeffs: Mapping[str, Fraction | int], sense: str, rhs: Fraction | int) -> None:
        if sense not in ("==", "<=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        clean = {k: Fraction(v) for k, v in coeffs.items() if Fraction(v) != 0}
        for k in clean:
            if k not in self._index:
                raise ValueError(f"unknown variable {k!r}")
        self._cons.append((clean, sense, Fraction(rhs)))

    def solve(self, objective: Mapping[str, Fraction | int] | None = None, maximize: bool = False) -> BuiltSolution:
        cols: list[tuple[str, int]] = []  # (var name, +1/-1)
        for name, free in self._vars:
            cols.append((name, 1))
            if free:
                cols.append((name, -1))
        ncols = len(cols)
        nslack = sum(1 for _, sense, _ in self._cons if sense != "==")
        A: list[list[Fraction]] = []
        b: list[Fraction] = []
        slack_at = 0
        for coeffs, sense, rhs in self._cons:
            row = [Fraction(0)] * (ncols + nslack)
            for j, (name, sgn) in enumerate(cols):
                v = coeffs.get(name)
                if v:
                    row[j] = sgn * v
            if sense != "==":
                row[ncols + slack_at] = Fraction(1) if sense == "<=" else Fraction(-1)
                slack_at += 1
            A.append(row)
            b.append(rhs)
        c = [Fraction(0)] * (ncols + nslack)
        if objective:
            for j, (name, sgn) in enumerate(cols):
                v = objective.get(name)
                if v:
                    c[j] = sgn * Fraction(v)
        sol = solve_lp(A, b, c, maximize=maximize)
        if sol.status != OPTIMAL:
            return BuiltSolution(sol.status, farkas=sol.farkas)
        values: dict[str, Fraction] = {}
        for j, (name, sgn) in enumerate(cols):
            values[name] = values.get(name, Fraction(0)) + sgn * sol.x[j]
        return BuiltSolution(OPTIMAL, values=values, objective=sol.objective)
