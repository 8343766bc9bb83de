import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from typesemigroup.linalg import (
    integer_diagonalize,
    primitive_integer,
    rational_kernel_basis,
    vec_dot,
)

from library_traffic import run_library_sample
from linalg_reference import modular_kernel_generators
from typesemigroup import monoid


def test_kernel_of_empty_system_is_standard_basis():
    basis = rational_kernel_basis([], 3)
    assert basis == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_single_row():
    basis = rational_kernel_basis([(1, -1)], 2)
    assert len(basis) == 1
    (c,) = basis
    assert c[0] == c[1]


def test_kernel_annihilates_rows_random():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(1, 5)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(0, 4))
        ]
        basis = rational_kernel_basis(rows, dim)
        for c in basis:
            for row in rows:
                assert vec_dot(c, row) == 0
        # rank-nullity: len(basis) == dim - rank
        rank = dim - len(basis)
        assert 0 <= rank <= min(dim, len([r for r in rows if any(r)]))


def _reference_kernel_basis(rows, dim):
    """The kernel basis as it was computed over `Fraction`."""
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
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
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
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
            v[pc] = -mat[i][fc]
        basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_kernel_matches_fraction_elimination(fractions):
    rng = random.Random(f"kernel/{fractions}")
    for _ in range(300):
        dim = rng.randint(0, 7)
        rows = [[rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(dim)]
                for _ in range(rng.randint(0, 6))]
        if fractions:
            # rational rows, each scaled to integers: the same kernel
            rows = [[Fraction(x, rng.randint(1, 5)) for x in row] for row in rows]
            rows = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]
        if rows and rng.random() < 0.4:  # a dependent row
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
        got, want = rational_kernel_basis(rows, dim), _reference_kernel_basis(rows, dim)
        assert got == want and repr(got) == repr(want)
        assert all(type(v) is tuple and all(type(x) is Fraction for x in v) for v in got)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), 0.5, 1.0, True])
def test_non_int_row_entry_rejected(bad):
    # rows hold ints; nothing is scaled or converted, a zero row included
    for rows in ([(bad, 1)], [(1, 1), (1, bad)], [(0, 0), (type(bad)(0), 0)]):
        with pytest.raises(ValueError):
            rational_kernel_basis(rows, 2)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), 0.5, 2.7, 1.0, True])
def test_diagonalize_non_int_row_entry_rejected(bad):
    # nothing is truncated or read as 0 or 1, a zero row included
    for rows in ([(bad, 1)], [(1, 1), (1, bad)], [(0, 0), (type(bad)(0), 0)]):
        with pytest.raises(ValueError):
            integer_diagonalize(rows, 2)


@pytest.mark.parametrize("seed", [0, 1])
def test_library_asks_kernels_of_integer_rows(seed, monkeypatch):
    # the library reads its kernels off `integer_diagonalize`
    seen = []

    def recording(rows, dim, real=monoid.integer_diagonalize):
        seen.append(rows)
        return real(rows, dim)

    monkeypatch.setattr(monoid, "integer_diagonalize", recording)
    run_library_sample(seed)
    assert len(seen) > 50
    assert all(type(v) is int for rows in seen for row in rows for v in row)


def test_primitive_integer_normalizes_sign_and_content():
    assert primitive_integer([Fraction(-2, 3), Fraction(4, 3)]) == (1, -2)
    assert primitive_integer([Fraction(0), Fraction(5)]) == (0, 1)
    assert primitive_integer([Fraction(6), Fraction(4)]) == (3, 2)


def _brute_modular_kernel(rows, dim, m):
    sols = set()
    for c in itertools.product(range(m), repeat=dim):
        if all(sum(r * x for r, x in zip(row, c)) % m == 0 for row in rows):
            sols.add(c)
    return sols


def test_modular_generators_span_exact_kernel():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(1, 3)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(0, 3))
        ]
        diag, V = integer_diagonalize(rows, dim)
        for m in (2, 3, 4, 6):
            gens = modular_kernel_generators(diag, V, dim, m)
            expected = _brute_modular_kernel(rows, dim, m)
            # every generator is a solution
            for g in gens:
                assert g in expected
            # the generated subgroup is the whole solution set
            span = {tuple([0] * dim)}
            frontier = [tuple([0] * dim)]
            while frontier:
                nxt = []
                for s in frontier:
                    for g in gens:
                        t = tuple((a + b) % m for a, b in zip(s, g))
                        if t not in span:
                            span.add(t)
                            nxt.append(t)
                frontier = nxt
            assert span == expected
