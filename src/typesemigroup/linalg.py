"""Exact integer and rational linear algebra used by the decision procedures.

Everything here is arbitrary precision: rationals are `fractions.Fraction`,
integers are Python ints.  No floating point.  Elimination over the
rationals takes integer rows and runs fraction-free (Bareiss, Math. Comp.
22, 1968): the rows are ints over one common denominator D, which starts at
1, and `pivot` is the one elimination step, shared with `simplex`.  Only
the returned vectors are `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def vec_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_scale(k, a):
    return tuple(k * x for x in a)


def pivot(rows: list[Sequence[int]], r: int, col: int, D: int) -> int:
    """One fraction-free pivot on p = rows[r][col], in place; returns p.

    The rows are ints over the common denominator D.  Row r is kept and
    every other row maps to (p.row - row[col].rows[r]) // D, which is exact,
    over the new denominator p.
    """
    pr = rows[r]
    p = pr[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            if f:
                rows[i] = [(p * a - f * q) // D for a, q in zip(row, pr)]
            elif p != D:
                rows[i] = [p * a // D for a in row]
    return p


def rational_kernel_basis(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[Fraction, ...]]:
    """Basis of { c in Q^dim : row . c = 0 for every row }, for int rows.

    The basis is produced in echelon order (one vector per free column,
    ascending), so the output is deterministic in the input ordering.

    Gauss-Jordan elimination runs fraction-free with `pivot`, from D = 1.
    The reduced row echelon form is unique, so the basis is the one that
    elimination over `Fraction` gives.  An entry that is not an `int` (a
    `bool` included) raises `ValueError`.
    """
    mat = []
    for row in rows:
        if any(type(a) is not int for a in row):
            raise ValueError("rational_kernel_basis takes rows of ints")
        if any(row):
            mat.append(row)
    D = 1
    pivots: list[int] = []
    r = 0
    for col in range(dim):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        D = pivot(mat, r, col, D)
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-mat[i][fc], D)
        basis.append(tuple(v))
    return basis


def primitive_integer(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector.

    The first nonzero entry is made positive, so the representative of each
    ray is unique.  `int` and `Fraction` entries are read as they are; any
    other entry (a float, say) is converted by `Fraction` first.
    """
    vec = [f if type(f) is int or type(f) is Fraction else Fraction(f) for f in vec]
    mult = 1
    for f in vec:
        mult = lcm(mult, f.denominator)
    ints = [f.numerator * (mult // f.denominator) for f in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def integer_diagonalize(rows: Sequence[Sequence[int]], dim: int) -> tuple[list[int], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diag, V) where V is a dim x dim unimodular matrix such that the
    solutions of  rows . c = 0 (mod m)  are exactly  c = V . y  with
    diag[j] * y[j] = 0 (mod m) for j < len(diag) and y[j] free otherwise.
    Only column operations are mirrored into V; row operations do not change
    the solution set.
    """
    M = [list(map(int, row)) for row in rows]
    V = [[int(i == j) for j in range(dim)] for i in range(dim)]
    nrows = len(M)
    t = 0
    while t < nrows and t < dim:
        # locate smallest-magnitude nonzero pivot in the remaining block
        piv = None
        for i in range(t, nrows):
            for j in range(t, dim):
                v = M[i][j]
                if v and (piv is None or abs(v) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            M[pi], M[t] = M[t], M[pi]
        if pj != t:
            for row in M:
                row[pj], row[t] = row[t], row[pj]
            for row in V:
                row[pj], row[t] = row[t], row[pj]
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, nrows):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    if q:
                        M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    if M[i][t]:
                        M[i], M[t] = M[t], M[i]
                        dirty = True
            if dirty:
                continue
            # clear row t right of the pivot (column ops, mirrored into V)
            dirty = False
            for j in range(t + 1, dim):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    if q:
                        for row in M:
                            row[j] -= q * row[t]
                        for row in V:
                            row[j] -= q * row[t]
                    if M[t][j]:
                        for row in M:
                            row[j], row[t] = row[t], row[j]
                        for row in V:
                            row[j], row[t] = row[t], row[j]
                        dirty = True
            if not dirty:
                break
        t += 1
    diag = [M[i][i] for i in range(t)]
    return diag, V

