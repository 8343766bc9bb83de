"""Exact rational simplex solver.

Solves  min/max c.x  subject to  A x = b, x >= 0  over the rationals with
Bland's rule (no cycling) and no floating point anywhere.  Infeasibility
comes with a Farkas certificate y satisfying y.A <= 0 and y.b > 0, verified
by substitution before it is returned.

The tableau is fraction-free (Edmonds 1967; Bareiss, Math. Comp. 22, 1968):
Python ints over one common denominator D, the determinant of the current
basis.  A pivot on p keeps its row and maps every other row, the objective
row included, to (p.T[i] - T[i][col].T[r]) // D, which is exact; the new D
is p.  Bland's ratios are compared by cross-multiplication, so the pivots,
the basis and every returned `Fraction` are those of the textbook tableau
over `Fraction`.

`LinearProgram` is a small builder on top of `solve_lp` that supports free
variables (split into differences) and inequality constraints (slacks).
The library's own LPs are many and tiny, so it hands `solve_lp` their
matrices directly: on a one-variable LP the builder's bookkeeping adds about
half the cost of the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Mapping, Sequence

from .errors import ConsistencyError
from .linalg import integer_row

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


def _exact(v: Fraction | int) -> Fraction | int:
    return v if type(v) is int else Fraction(v)


def _eliminate(row: list[int], pr: list[int], col: int, p: int, D: int) -> list[int]:
    """`row` after a pivot on p = pr[col], over the new denominator p."""
    f = row[col]
    if f:
        return [(p * a - f * q) // D for a, q in zip(row, pr)]
    if p == D:
        return row
    return [p * a // D for a in row]


class _Tableau:
    """Rows T and objective row Z as ints, each D times its rational value."""

    __slots__ = ("T", "Z", "D", "basis")

    def __init__(self, T: list[list[int]], D: int, basis: list[int]):
        self.T = T
        self.Z: list[int] = []
        self.D = D
        self.basis = basis

    def pivot(self, r: int, col: int) -> None:
        T, D = self.T, self.D
        pr = T[r]
        p = pr[col]
        if p < 0:
            # The negated row pivots to the same tableau, and D stays
            # positive, so the sign of an entry is the sign of its value.
            pr = T[r] = [-v for v in pr]
            p = -p
        for i, row in enumerate(T):
            if i != r:
                T[i] = _eliminate(row, pr, col, p, D)
        self.Z = _eliminate(self.Z, pr, col, p, D)
        self.D = p
        self.basis[r] = col

    def run(self, ncols: int) -> str:
        """Bland's rule on the first `ncols` columns."""
        T, basis = self.T, self.basis
        while True:
            Z = self.Z
            col = None
            for j in range(ncols):
                if Z[j] < 0:
                    col = j
                    break
            if col is None:
                return OPTIMAL
            best_row = None
            for i, row in enumerate(T):
                a = row[col]
                if a > 0:
                    num = row[-1]
                    if best_row is None:
                        best_row, best_num, best_a = i, num, a
                        continue
                    # num / a against best_num / best_a, both denominators > 0
                    lhs, rhs = num * best_a, best_num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best_row]):
                        best_row, best_num, best_a = i, num, a
            if best_row is None:
                return UNBOUNDED
            self.pivot(best_row, col)


def solve_lp(
    A: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int],
    maximize: bool = False,
) -> LPSolution:
    """min (or max) c.x subject to A x = b, x >= 0, in exact arithmetic."""
    m = len(A)
    n = len(c)
    # Row i is scaled by s_i, the lcm of its own denominators.  The
    # artificial basis then has determinant D = prod s_i, and D.[A | I | b]
    # is integral.  (One common lcm is not a determinant, and the exact
    # divisions of the pivots would fail.)
    scales, rows, sign = [], [], [1] * m
    for i in range(m):
        s, row = integer_row([*A[i], b[i]])
        if row[-1] < 0:
            row = [-v for v in row]
            sign[i] = -1
        scales.append(s)
        rows.append(row)
    D = prod(scales)
    width = n + m
    T = []
    for i, (s, row) in enumerate(zip(scales, rows)):
        if s != D:
            k = D // s
            row = [k * v for v in row]
        art = [0] * m
        art[i] = D
        T.append(row[:n] + art + row[n:])
    tab = _Tableau(T, D, [n + i for i in range(m)])
    basis = tab.basis

    # Phase I: minimize the sum of artificial variables.  Each artificial
    # column sums to D against its cost D.1, so its reduced cost is 0.
    Z = [-sum(col) for col in zip(*T)] if T else [0] * (width + 1)
    Z[n:width] = [0] * m
    tab.Z = Z
    tab.run(width)
    D = tab.D
    if tab.Z[width] < 0:
        # y = D.(1 - Z[n + i]) in rationals: positive scaling keeps the
        # certificate's inequalities, so it is checked in integers.
        y = [sign[i] * (D - tab.Z[n + i]) for i in range(m)]
        if not _check_farkas(A, b, y):
            raise ConsistencyError("internal: Farkas certificate failed substitution")
        # built from a list, so the tuple is allocated at its final size
        # (see `monoid._SearchTree.expand`)
        return LPSolution(INFEASIBLE, farkas=tuple([Fraction(v, D) for v in y]))

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
                tab.pivot(r, col)
    for r in reversed(drop):
        del T[r]
        del basis[r]

    # Phase II on the real columns, with the cost scaled by its own lcm cs.
    T[:] = [row[:n] + [row[-1]] for row in T]
    cs, cost = integer_row(c)
    if maximize:
        cost = [-v for v in cost]
    D = tab.D
    Z = [v * D for v in cost] + [0]
    for i, row in enumerate(T):
        cb = cost[basis[i]]
        if cb:
            Z = [z - cb * v for z, v in zip(Z, row)]
    tab.Z = Z
    if tab.run(n) == UNBOUNDED:
        return LPSolution(UNBOUNDED)
    D = tab.D
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(T[i][-1], D)
    objective = Fraction(-tab.Z[n], D * cs)
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
        self._cons: list[tuple[dict[str, Fraction | int], str, Fraction | int]] = []

    def variable(self, name: str, free: bool = False) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._vars)
        self._vars.append((name, free))
        return name

    def constrain(self, coeffs: Mapping[str, Fraction | int], sense: str, rhs: Fraction | int) -> None:
        if sense not in ("==", "<=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        clean = {}
        for k, v in coeffs.items():
            v = _exact(v)
            if v:
                if k not in self._index:
                    raise ValueError(f"unknown variable {k!r}")
                clean[k] = v
        self._cons.append((clean, sense, _exact(rhs)))

    def solve(self, objective: Mapping[str, Fraction | int] | None = None, maximize: bool = False) -> BuiltSolution:
        # One column per variable; a free variable's negative part follows it.
        col: dict[str, int] = {}
        ncols = 0
        for name, free in self._vars:
            col[name] = ncols
            ncols += 2 if free else 1
        split = {name for name, free in self._vars if free}
        nslack = sum(1 for _, sense, _ in self._cons if sense != "==")
        A: list[list[Fraction | int]] = []
        b: list[Fraction | int] = []
        slack_at = ncols
        for coeffs, sense, rhs in self._cons:
            row: list[Fraction | int] = [0] * (ncols + nslack)
            for name, v in coeffs.items():
                row[col[name]] = v
                if name in split:
                    row[col[name] + 1] = -v
            if sense != "==":
                row[slack_at] = 1 if sense == "<=" else -1
                slack_at += 1
            A.append(row)
            b.append(rhs)
        c: list[Fraction | int] = [0] * (ncols + nslack)
        for name, v in (objective or {}).items():
            v = _exact(v)
            if v and name in col:
                c[col[name]] = v
                if name in split:
                    c[col[name] + 1] = -v
        sol = solve_lp(A, b, c, maximize=maximize)
        if sol.status != OPTIMAL:
            return BuiltSolution(sol.status, farkas=sol.farkas)
        x = sol.x
        values = {name: x[col[name]] - x[col[name] + 1] if free else x[col[name]]
                  for name, free in self._vars}
        return BuiltSolution(OPTIMAL, values=values, objective=sol.objective)
