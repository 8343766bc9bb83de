"""Exact solvers for normalized states, invariant vectors, and coboundaries.

A state on the type semigroup is an additive map into [0, oo] that respects
the defining relations, normalized at a target class: an extended invariant
functional, the same kind of object as an EXTENDED order separator, with
c . target = 1 in place of c(f) > c(g).  So the same code solves and checks
both, on the presentation the k-graph model carries: the least admissible
support F containing the target (`cones.least_admissible_support`), the
invariant cone on F (`cones._cone_solution`), with values infinite off F,
and the move check in extended arithmetic (`monoid._ext_invariant`).  Fixing
the finite support first keeps the linear program purely rational.  A
positive invariant vector is the same cone on every vertex with c_v >= 1,
and a faithful state is that vector scaled to mass one.

The coboundary check decides whether the integer lattice spanned by the
columns of the operators (I - A_i^t) meets the positive cone nontrivially;
witnesses are returned scaled to integers and verified by substitution.  The
Stiemke cross-check solves the dual feasibility problem (a strictly positive
invariant vector) independently and compares: a mismatch is a bug, never a
property of the model.

The coboundary result and the positive invariant vector depend on the
matrices alone, so each is computed once per model, by whichever query asks
first, after its check passes, and kept on the model (`KGraphModel._answers`,
which no other module reads or writes); a call that raises keeps nothing.
`classify`, `stiemke_crosscheck` and `faithful_finite_state` then share
them.  A state at a target is solved on every call, and the faithful state
is rescaled and checked positive and invariant on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ZERO_TARGET, ConsistencyError, InputError
from .graphs import KGraphModel, _require_model
from .cones import _cone_solution, least_admissible_support
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
    """First normalized invariant extended vector at `target`, or None.

    A state is an extended invariant functional normalized at the target,
    solved as the order separators are.  "First" is over admissible finite
    supports ordered by size, then lexicographically.  A support is
    admissible when every move of the model's presentation has both sides
    inside it or both sticking out: it is out-closed, and every vertex
    outside it escapes it through each matrix.  Every admissible support
    contains the least one containing the target's support, F
    (`cones.least_admissible_support`), which comes first; F is out-closed,
    so a solution on any admissible support restricts to one on F.  The
    invariant cone on F with c . target = 1 (`cones._cone_solution`)
    therefore decides: a solution on F is the answer, and none on F is a
    complete negative answer over all admissible supports.  On a k-graph
    the cone's generators give that None without an LP: none of them is
    positive at the target.  Each generator is checked by substitution, but
    the None itself carries no certificate.
    """
    _require_model(model)
    target = as_vector(target, model.dim)
    seed = _support(target)
    if not seed:
        raise InputError(ZERO_TARGET, "target vector must be nonzero")
    pres = model._presentation
    F = least_admissible_support(zip(*pres._supports), seed)
    values = _cone_solution(pres, F, [({v: t for v, t in enumerate(target) if t}, "==")])
    if values is None:
        return None
    support = tuple(v for v in range(model.dim) if F >> v & 1)
    return StateCertificate(values=tuple(values), target=target, support=support)


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
    vector does, and is then that vector (`positive_invariant_vector`)
    scaled to mass one, which is positive and invariant exactly when the
    vector is.  The vector is kept on the model; the check runs on every
    call.
    """
    pos = positive_invariant_vector(model)
    if pos is None:
        return None
    if not _positive_invariant(model, pos):
        raise ConsistencyError("faithful state is not positive and invariant")
    total = sum(pos)
    return tuple(x / total for x in pos)


def coboundary_check(model: KGraphModel) -> CoboundaryResult:
    """Does the span of the (I - A_i^t) images meet the positive cone?

    Rational feasibility of { y = sum_i (I - A_i^t) z_i, y >= 0, sum y = 1 }
    scales to an integer witness, so HOLDS (infeasible) is exact.  One LP:
    a column per y_v, then each free z_i[w] as the difference of two
    adjacent nonnegative columns; a row per vertex, then the mass row.
    The result is kept on the model once its witness passes substitution.
    """
    _require_model(model)
    kept = _kept(model, "coboundary")
    if kept is not _UNASKED:
        return kept
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
        return _keep(model, "coboundary", CoboundaryResult(holds=True))
    x = sol.x
    zs = [[x[c] - x[c + 1] for c in range(n + 2 * i * n, n + 2 * (i + 1) * n, 2)]
          for i in range(model.k)]
    scale = lcm(*(q.denominator for q in x[:n]), *(q.denominator for z in zs for q in z))
    y = tuple(int(q * scale) for q in x[:n])
    z = tuple(tuple(int(q * scale) for q in zi) for zi in zs)
    result = CoboundaryResult(holds=False, witness_y=y, witness_z=z)
    if not verify_coboundary_witness(model, result):
        raise ConsistencyError("scaled coboundary witness fails substitution")
    return _keep(model, "coboundary", result)


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
    """Strictly positive y with A_i y = y for all i (entries >= 1 after scaling).

    The invariant cone on every vertex with y_v >= 1 (`cones._cone_solution`):
    refuted without an LP when no cone generator is positive at some vertex,
    otherwise decided by one feasibility LP.  A vector found is checked
    positive and invariant, or `ConsistencyError` is raised; the answer,
    None included, is kept on the model.
    """
    _require_model(model)
    kept = _kept(model, "positive")
    if kept is not _UNASKED:
        return kept
    n = model.dim
    values = _cone_solution(model._presentation, (1 << n) - 1, [({v: 1}, ">=") for v in range(n)])
    pos = None if values is None else tuple(values)
    if pos is not None and not _positive_invariant(model, pos):
        raise ConsistencyError("positive invariant vector is not positive and invariant")
    return _keep(model, "positive", pos)


def _positive_invariant(model: KGraphModel, pos: tuple) -> bool:
    return all(x > 0 for x in pos) and _ext_invariant(model._presentation, pos)


_UNASKED = object()  # no answer kept yet


def _kept(model: KGraphModel, key: str):
    """The answer kept on the model under `key`, or `_UNASKED`."""
    for k, answer in model._answers:
        if k == key:
            return answer
    return _UNASKED


def _keep(model: KGraphModel, key: str, answer):
    """Keep `answer` on the model under `key` and return it."""
    object.__setattr__(model, "_answers", model._answers + ((key, answer),))
    return answer


def stiemke_crosscheck(model: KGraphModel) -> StiemkeResult:
    """Two independent routes to the same dichotomy must agree.

    The coboundary condition (one LP on the matrices) and a strictly
    positive invariant vector (the invariant cone, refuted by its
    generators or decided by one LP) are a strict alternative: exactly one
    of them exists.  Disagreement indicates an implementation bug, not a
    mathematical possibility.  Both answers are kept on the model, so after
    `classify` this solves nothing.
    """
    cob = coboundary_check(model)
    pos = positive_invariant_vector(model)
    return StiemkeResult(
        consistent=(cob.holds == (pos is not None)),
        coboundary_holds=cob.holds,
        positive_vector=pos,
    )
