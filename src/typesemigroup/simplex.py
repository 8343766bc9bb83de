"""Exact rational feasibility solver.

Finds x >= 0 with A x = b over the rationals, or proves that there is none
with a Farkas certificate y satisfying y.A <= 0 and y.b > 0, verified by
substitution before it is returned.  This is Phase I of the simplex method
with Bland's rule (no cycling) and no floating point anywhere: it minimises
the sum of one artificial variable per row.  At a zero optimum the basis
gives x; an artificial still in the basis sits at level 0 and is skipped.

A and b hold ints, as every LP the library builds does.  The tableau is
fraction-free (Edmonds 1967; Bareiss, Math. Comp. 22, 1968): Python ints
over one common denominator D, the determinant of the current basis, which
is 1 at the artificial start.  Each pivot is `linalg.pivot`, applied to the
objective row as well.  Bland's ratios are compared by cross-multiplication,
so the pivots, the basis and every returned `Fraction` are those of the
textbook tableau over `Fraction`.  Only x and y are rationals.

The library's LPs are tiny, so they hand `solve_lp` their matrices
directly.  There are two: `states.coboundary_check`, once per model, and
`cones._cone_solution`'s order separator on a support without cone
generators, which a presentation built by `build_presentation` from moves
with non-unit left sides can have and a k-graph presentation never has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConsistencyError
from .linalg import pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


def _check_farkas(A, b, y) -> bool:
    n = len(A[0]) if A else 0
    for j in range(n):
        if sum(y[i] * A[i][j] for i in range(len(A))) > 0:
            return False
    return sum(y[i] * b[i] for i in range(len(A))) > 0


def _phase_one(T: list[list[int]], D: int, basis: list[int]) -> int:
    """Bland's rule to optimality on the rows T[:-1] under the objective row
    T[-1], in place; returns the final denominator."""
    m = len(T) - 1
    while True:
        Z = T[m]
        col = None
        for j in range(len(Z) - 1):
            if Z[j] < 0:
                col = j
                break
        if col is None:
            return D
        best_row = None
        for i in range(m):
            row = T[i]
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
            # the sum of the artificials is bounded below by 0, so every
            # column that would lower it has a positive entry
            raise ConsistencyError("internal: Phase I found no pivot row")
        # the ratio test pivots on a positive entry, so D stays positive and
        # the sign of an entry is the sign of its value
        D = pivot(T, best_row, col, D)
        basis[best_row] = col


def solve_lp(A: Sequence[Sequence[int]], b: Sequence[int], c: Sequence[int]) -> LPSolution:
    """A point x >= 0 with A x = b, or a checked Farkas certificate.

    A and b must hold ints (a `bool` is not one); any other entry raises
    `ValueError`.  `c` holds one cost per column and must be zero: under a
    zero cost every feasible point is optimal, so only feasibility is
    decided.  Its length is the column count, which an LP with no rows
    takes from it.  The benchmark's tracer (`bench/tracing.py`) reads `c`
    from every call.
    """
    if any(c):
        raise ValueError("solve_lp decides feasibility only; the cost must be zero")
    m = len(A)
    n = len(c)
    width = n + m
    T = []
    for i in range(m):
        row = [*A[i], b[i]]
        if any(type(v) is not int for v in row):
            raise ValueError("solve_lp takes A and b of ints")
        if row[-1] < 0:  # Phase I starts from the artificial basis, at b >= 0
            row = [-v for v in row]
        art = [0] * m
        art[i] = 1
        T.append(row[:n] + art + row[n:])
    basis = [n + i for i in range(m)]

    # Minimise the sum of the artificial variables.  Each artificial column
    # sums to 1 against its cost 1, so its reduced cost is 0.
    Z = [-sum(col) for col in zip(*T)] if T else [0] * (width + 1)
    Z[n:width] = [0] * m
    T.append(Z)
    D = _phase_one(T, 1, basis)
    Z = T.pop()
    if Z[width] < 0:
        # y = D.(1 - Z[n + i]) in rationals, negated on a flipped row:
        # positive scaling keeps the certificate's inequalities, so it is
        # checked in integers.
        y = [D - Z[n + i] if b[i] >= 0 else Z[n + i] - D for i in range(m)]
        if not _check_farkas(A, b, y):
            raise ConsistencyError("internal: Farkas certificate failed substitution")
        # built from a list, so the tuple is allocated at its final size:
        # tuple() of a generator resizes a 10-slot tuple, and every freed one
        # would grow CPython's free list of tuples of that size, which only a
        # full collection empties
        return LPSolution(INFEASIBLE, farkas=tuple([Fraction(v, D) for v in y]))
    x = [Fraction(0)] * n
    for row, j in zip(T, basis):
        if j < n:  # an artificial left in the basis sits at level 0
            x[j] = Fraction(row[-1], D)
    return LPSolution(OPTIMAL, x=tuple(x))
