"""LP helpers shared by the tests: the simplex over `Fraction` as it was
first written, an optimiser kept here as the reference the library's
feasibility solver is compared with, and the matrix of a list of
constraints for the rule-free reference copies of the library's LPs."""

from dataclasses import dataclass
from fractions import Fraction

from typesemigroup import simplex
from typesemigroup.errors import ConsistencyError
from typesemigroup.simplex import INFEASIBLE, OPTIMAL

UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class ReferenceSolution:
    status: str
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None


def reference_solve_lp(A, b, c, maximize=False):
    """min (or max) c.x subject to A x = b, x >= 0: the two-phase textbook
    tableau over `Fraction` with Bland's rule, the solver as it was before it
    went fraction-free and lost its Phase II."""
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
        return ReferenceSolution(INFEASIBLE, farkas=farkas)

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
        return ReferenceSolution(UNBOUNDED)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    objective = -state["Z"][n]
    if maximize:
        objective = -objective
    return ReferenceSolution(OPTIMAL, x=tuple(x), objective=objective)


def lp_matrix(ncols, constraints):
    """A and b of the constraints (coeffs, op, rhs) on nonnegative columns
    0..ncols-1: coeffs maps columns to coefficients, op is "==" or ">=", and
    each ">=" row gets a surplus column, -1 in that row, after the ncols in
    row order."""
    width = ncols + sum(op == ">=" for _, op, _ in constraints)
    A, b = [], []
    surplus = ncols
    for coeffs, op, rhs in constraints:
        row = [0] * width
        for j, v in coeffs.items():
            row[j] = v
        if op == ">=":
            row[surplus] = -1
            surplus += 1
        A.append(row)
        b.append(rhs)
    return A, b


def feasible_point(ncols, constraints):
    """The library solver's point of the constraints on the first ncols
    columns, or None when they are infeasible."""
    A, b = lp_matrix(ncols, constraints)
    sol = simplex.solve_lp(A, b, [0] * len(A[0]))
    return None if sol.status != OPTIMAL else sol.x[:ncols]
