"""Exact normalized states, positive invariant vectors, and coboundaries.

A state on the type semigroup is an additive map into [0, oo] that respects
the defining relations, normalized at a target class: an extended invariant
functional, the same kind of object as an EXTENDED order separator, with
c . target = 1 in place of c(f) > c(g).  On the presentation the k-graph
model carries, every state at the target is finite on the least admissible
support F containing the target's support
(`cones.least_admissible_support`), infinite off it, and on F a point of
the invariant cone, whose exact integral generators a k-graph support
always has (`cones._cone_generators`).  So a state exists exactly when some
generator r is positive at the target, and r scaled to r . target = 1 is
one; a strictly positive invariant vector exists exactly when the
generators of the full support together cover every vertex, and their sum
is one.  Both are read off the generators with no LP, and the vector is
checked positive and invariant in extended arithmetic
(`monoid._ext_invariant`) on every call.  A faithful state is that vector
scaled to mass one.

The coboundary check decides whether the integer lattice spanned by the
columns of the operators (I - A_i^t) meets the positive cone nontrivially;
witnesses are returned scaled to integers and verified by substitution.  The
Stiemke cross-check compares it with the dual problem (a strictly positive
invariant vector), solved by the other route: a mismatch is a bug, never a
property of the model.

The coboundary result depends on the matrices alone, so it is computed once
per model, by whichever query asks first, after its check passes, and kept
on the model (`KGraphModel._coboundary`, which no other module reads or
writes); a call that raises keeps nothing.  `classify` and
`stiemke_crosscheck` then share it.  States and positive vectors are read
afresh on every call from the generators the presentation keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ZERO_TARGET, ConsistencyError, InputError
from .graphs import KGraphModel, _require_model
from .cones import INFINITY, _cone_generators, least_admissible_support
from .monoid import Vector, _ext_dot, _ext_invariant, _is_infinity, _is_int_tuple, _support, as_vector
from .simplex import OPTIMAL, solve_lp


@dataclass(frozen=True)
class StateCertificate:
    values: tuple  # Fraction per vertex, or INFINITY off the finite support
    target: Vector
    support: tuple[int, ...]


@dataclass(frozen=True)
class CoboundaryResult:
    holds: bool
    witness_y: Vector | None = None
    witness_z: tuple[Vector, ...] | None = None  # one integer vector per matrix


@dataclass(frozen=True)
class StiemkeResult:
    consistent: bool
    coboundary_holds: bool
    positive_vector: tuple[Fraction, ...] | None


def solve_state_at(model: KGraphModel, target: Sequence[int]) -> StateCertificate | None:
    """A normalized invariant extended vector at `target`, or None.

    A state is an extended invariant functional normalized at the target.
    Its finite support is admissible: every move of the model's
    presentation has both sides inside it or both sticking out, so it is
    out-closed, and every vertex outside it escapes it through each matrix.
    Every admissible support containing the target's support contains the
    least one, F (`cones.least_admissible_support`), and F is out-closed,
    so a state on any of them restricts to one on F.  On F a state is a
    point of the invariant cone, a nonnegative combination of its
    generators (`cones._cone_generators`): there is one exactly when some
    generator r has r . target > 0, and the answer is the first such r,
    scaled to r . target = 1, infinite off F.  None is then a complete
    negative answer over all admissible supports.  Each generator is
    checked by substitution, but the None itself carries no certificate.
    On F every generator is positive at the target, since the zero set of
    an invariant r >= 0 in F is admissible, so the answer is the first
    generator, and None means the cone on F is zero.
    """
    _require_model(model)
    target = as_vector(target, model.dim)
    seed = _support(target)
    if not seed:
        raise InputError(ZERO_TARGET, "target vector must be nonzero")
    F = least_admissible_support(zip(*model._presentation._supports), seed)
    for r in _kgraph_generators(model, F):
        mass = sum(x * t for x, t in zip(r, target))
        if mass > 0:
            values = tuple(Fraction(x, mass) if F >> v & 1 else INFINITY for v, x in enumerate(r))
            support = tuple(v for v in range(model.dim) if F >> v & 1)
            return StateCertificate(values=values, target=target, support=support)
    return None


def _kgraph_generators(model: KGraphModel, F: int) -> tuple:
    """The invariant cone generators on F (`cones._cone_generators`), which
    every support of a k-graph presentation has; `ConsistencyError` if they
    are missing."""
    gens = _cone_generators(model._presentation, F)
    if gens is None:
        raise ConsistencyError("k-graph support has no invariant cone generators")
    return gens


def verify_state_certificate(model: KGraphModel, cert: StateCertificate) -> bool:
    """Substitution check, independent of the solver.

    Verifies the shape (a nonnegative int target and one value per vertex,
    a Fraction or int exactly on the support, which lists its vertices in
    order, and INFINITY off it), nonnegativity, exact normalization, and
    invariance under every move of the model's presentation in extended
    arithmetic, the check `verify_separator` makes of an EXTENDED separator.
    Malformed certificates, and objects that are not a `StateCertificate`,
    are rejected, never coerced.
    """
    _require_model(model)
    if type(cert) is not StateCertificate:
        return False
    n = model.dim
    vals, target, support = cert.values, cert.target, cert.support
    if type(vals) is not tuple or len(vals) != n:
        return False
    if not _is_int_tuple(target, n) or any(t < 0 for t in target):
        return False
    finite = tuple(v for v in range(n) if not _is_infinity(vals[v]))
    if not _is_int_tuple(support, len(finite)) or support != finite:
        return False
    if any(type(vals[v]) not in (int, Fraction) or vals[v] < 0 for v in support):
        return False
    return _ext_dot(vals, target) == 1 and _ext_invariant(model._presentation, vals)


def faithful_finite_state(model: KGraphModel) -> tuple[Fraction, ...] | None:
    """Strictly positive normalized invariant vector, or None.

    A faithful state exists exactly when a strictly positive invariant
    vector does, and is then that vector (`positive_invariant_vector`,
    checked positive and invariant on every call) scaled to mass one,
    which is positive and invariant exactly when the vector is.
    """
    pos = positive_invariant_vector(model)
    if pos is None:
        return None
    total = sum(pos)
    return tuple(Fraction(x, total) for x in pos)


def coboundary_check(model: KGraphModel) -> CoboundaryResult:
    """Does the span of the (I - A_i^t) images meet the positive cone?

    Rational feasibility of { y = sum_i (I - A_i^t) z_i, y >= 0, sum y = 1 }
    scales to an integer witness, so HOLDS (infeasible) is exact.  One LP:
    a column per y_v, then each free z_i[w] as the difference of two
    adjacent nonnegative columns; a row per vertex, then the mass row.
    The result is kept on the model once its witness passes substitution.
    """
    _require_model(model)
    if model._coboundary is not None:
        return model._coboundary
    n = model.dim
    ncols = n + 2 * model.k * n
    A = []
    for v in range(n):
        row = [0] * ncols
        row[v] = -1
        for i, mat in enumerate(model.matrices):
            for w in range(n):
                # ((I - A_i^t) z_i)_v = z_i[v] - sum_w A_i[w][v] z_i[w]
                a = int(v == w) - mat[w][v]
                col = n + 2 * (i * n + w)
                row[col], row[col + 1] = a, -a
        A.append(row)
    A.append([1] * n + [0] * (ncols - n))
    sol = solve_lp(A, [0] * n + [1], [0] * ncols)
    if sol.status != OPTIMAL:
        result = CoboundaryResult(holds=True)
    else:
        x = sol.x
        zs = [[x[c] - x[c + 1] for c in range(n + 2 * i * n, n + 2 * (i + 1) * n, 2)]
              for i in range(model.k)]
        scale = lcm(*(q.denominator for q in x[:n]), *(q.denominator for z in zs for q in z))
        y = tuple(int(q * scale) for q in x[:n])
        z = tuple(tuple(int(q * scale) for q in zi) for zi in zs)
        result = CoboundaryResult(holds=False, witness_y=y, witness_z=z)
        if not verify_coboundary_witness(model, result):
            raise ConsistencyError("scaled coboundary witness fails substitution")
    object.__setattr__(model, "_coboundary", result)
    return result


def verify_coboundary_witness(model: KGraphModel, result: CoboundaryResult) -> bool:
    """Check y = sum_i (I - A_i^t) z_i with y >= 0 and y != 0, by substitution.

    y and each of the k vectors z_i must be tuples of `model.dim` ints.
    """
    _require_model(model)
    n = model.dim
    y, z = result.witness_y, result.witness_z
    if result.holds or not _is_int_tuple(y, n):
        return False
    if type(z) is not tuple or len(z) != model.k or not all(_is_int_tuple(zi, n) for zi in z):
        return False
    if any(v < 0 for v in y) or not any(y):
        return False
    for v in range(n):
        acc = 0
        for zi, mat in zip(z, model.matrices):
            acc += zi[v] - sum(mat[w][v] * zi[w] for w in range(n))
        if acc != y[v]:
            return False
    return True


def positive_invariant_vector(model: KGraphModel) -> tuple[Fraction, ...] | None:
    """Strictly positive y with A_i y = y for all i, or None.

    Every invariant y >= 0 is a nonnegative combination of the invariant
    cone generators on every vertex (`cones._cone_generators`), so a
    strictly positive one exists exactly when the generators together
    cover every vertex, and their sum is then one.  It is checked positive
    and invariant on every call, or `ConsistencyError` is raised.
    """
    _require_model(model)
    n = model.dim
    gens = _kgraph_generators(model, (1 << n) - 1)
    pos = [sum(r[v] for r in gens) for v in range(n)]
    if not all(pos):
        return None
    if not (all(x > 0 for x in pos) and _ext_invariant(model._presentation, pos)):
        raise ConsistencyError("positive invariant vector is not positive and invariant")
    return tuple(map(Fraction, pos))


def stiemke_crosscheck(model: KGraphModel) -> StiemkeResult:
    """Two independent routes to the same dichotomy must agree.

    The coboundary condition (one LP on the matrices) and a strictly
    positive invariant vector (the sum of the invariant cone's generators,
    no LP) are a strict alternative: exactly one of them exists.
    Disagreement indicates an implementation bug, not a mathematical
    possibility.  The coboundary result is kept on the model, so after
    `classify` this solves no LP.
    """
    cob = coboundary_check(model)
    pos = positive_invariant_vector(model)
    return StiemkeResult(
        consistent=(cob.holds == (pos is not None)),
        coboundary_holds=cob.holds,
        positive_vector=pos,
    )
