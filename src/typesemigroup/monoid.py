"""Finitely presented commutative monoids with certified decision procedures.

A presentation is a dimension d together with a finite list of moves, each a
pair (lhs, rhs) of vectors in N^d.  Two vectors are congruent when one can be
rewritten into the other by repeatedly replacing an embedded copy of lhs with
rhs or vice versa; the congruence is the reflexive-transitive-additive
closure of the moves.

Decision procedures return one of three verdicts:

* EQUIV with a replayable step-by-step certificate,
* NOT_EQUIV with a linear separator (a functional, rational or modular or
  extended-valued, that is invariant under every move yet distinguishes the
  two queried vectors), or
* UNKNOWN with a budget report when the bounded search was inconclusive.

Each decider takes one path: the trivial case, then the unit-move fast path,
then its separators, then one bounded breadth-first search.  Congruence
tries `find_separator` (rational, then modular), then `_support_separator`:
vectors with different least admissible supports are never congruent, and
the extended separator 0 on one of those supports and oo off it shows it.
The order tries `_order_separator`: the full support gives a rational
separator, the least admissible support an extended one.  Both
searches grow their levels with the same `_SearchTree.expand`, over the
moves compiled to their nonzero coordinates (`_compiled_moves`) once per
search.  `almost_unperforated_up_to` compiles them once per sweep and grows
one tree per right-hand side eta, shared by every theta whose pair reaches
the search (`_dominate`).

What depends on the moves alone is derived once, when the presentation is
constructed: the unit-move structure (if every move is unit) and the
move-side supports.  Both are private fields of the frozen
`MonoidPresentation`, outside equality, hashing and repr; every query reads
them and still validates its own vectors.  `_order_separator` also takes a
memo of its results keyed by (support, gap on it), which is all the
separator LP depends on: `decide_leq` passes a fresh one, so its result
never depends on earlier calls.  `almost_unperforated_up_to`, which asks
thousands of order questions of one presentation and only counts, asks each
pair of eta's least admissible support alone (a full-support separator
restricts to it), with tables that live only for that call: the least
admissible support once per support of eta; on a support whose cone is one
matrix's, that matrix's Frobenius-Victory rays and the value of every span
vector under them, which decide each pair with integer comparisons and no
LP (`_ray_values`); on any other support, one memo of separator results.  The
moves it compiles and the trees it grows live only for that call as well.

An order separator, a state (`states.solve_state_at`) and a positive
invariant vector are the same kind of object: an additive map into [0, oo]
that every move leaves invariant, finite exactly on an admissible support,
and normalised.  One function, `_cone_solution`, solves that cone for all of
them, by the zero-cone rule or one exact LP, and one check, `_ext_invariant`,
verifies invariance for all of them in extended arithmetic.

Positive certificates and separators are both checkable by independent code
paths (`replay`, `verify_separator`); nothing is trusted from the search.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    CERTIFICATE_MISMATCH,
    DIMENSION_MISMATCH,
    INVALID_PAIR,
    STEP_NOT_APPLICABLE,
    ConsistencyError,
    InputError,
    negative_entry,
    non_integral_entry,
    require_int,
)
from .linalg import (
    integer_diagonalize,
    primitive_integer,
    rational_kernel_basis,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .simplex import OPTIMAL, solve_lp

Vector = tuple[int, ...]

INFINITY = float("inf")

MODULUS_BOUND = 64


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def _flip(d: Direction) -> Direction:
    return Direction.BACKWARD if d is Direction.FORWARD else Direction.FORWARD


class Verdict(Enum):
    EQUIV = "equiv"
    NOT_EQUIV = "not_equiv"
    UNKNOWN = "unknown"


class SeparatorKind(Enum):
    RATIONAL = "rational"
    MODULAR = "modular"
    EXTENDED = "extended"


@dataclass(frozen=True, slots=True)
class Move:
    lhs: Vector
    rhs: Vector


@dataclass(frozen=True)
class MonoidPresentation:
    """A dimension and its moves.

    `__post_init__` derives what the deciders need of the moves alone, once:
    the unit-move structure (None unless every move is a basis vector on
    both sides) and the supports of the move sides as bitmasks, one tuple
    for the left sides and one for the right.  Both fields stay out of
    `==`, `hash` and `repr`, and equal presentations derive equal forms, so
    no verdict can depend on how a presentation was built.
    """

    dim: int
    moves: tuple[Move, ...]
    _unit: _UnitStructure | None = field(init=False, repr=False, compare=False)
    _supports: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_unit", _unit_structure(self))
        object.__setattr__(self, "_supports", _move_supports(self))


@dataclass(frozen=True)
class RewriteStep:
    move_index: int
    direction: Direction


@dataclass(frozen=True)
class EquivCertificate:
    start: Vector
    steps: tuple[RewriteStep, ...]
    end: Vector


@dataclass(frozen=True)
class LinearSeparator:
    """Move-invariant functional distinguishing two vectors.

    kind RATIONAL: integer coefficients, exact dot products.
    kind MODULAR: integer coefficients evaluated mod `modulus`.
    kind EXTENDED: nonnegative integer-or-infinity coefficients, evaluated in
    [0, oo].  An invariant one is a monoid homomorphism into [0, oo], so it
    refutes congruence when its values differ and divisibility when the
    value at f exceeds a finite value at g.
    """

    kind: SeparatorKind
    coeffs: tuple
    modulus: int | None = None


@dataclass(frozen=True)
class BudgetReport:
    states_visited: int
    coordinate_cap_hit: bool
    exhausted: bool


@dataclass(frozen=True)
class SearchBudget:
    """States visited and largest coordinate of one search, `int`s >= 0."""

    max_states: int = 200_000
    max_coord: int = 64

    def __post_init__(self) -> None:
        require_int("max_states", self.max_states, nonnegative=True)
        require_int("max_coord", self.max_coord, nonnegative=True)


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class DecisionOutcome:
    verdict: Verdict
    certificate: EquivCertificate | None = None
    slack: Vector | None = None
    separator: LinearSeparator | None = None
    budget: BudgetReport | None = None

    @property
    def is_equiv(self) -> bool:
        return self.verdict is Verdict.EQUIV

    @property
    def is_not_equiv(self) -> bool:
        return self.verdict is Verdict.NOT_EQUIV

    @property
    def is_unknown(self) -> bool:
        return self.verdict is Verdict.UNKNOWN


@dataclass(frozen=True)
class UnperforationSweep:
    counterexample: None  # see `almost_unperforated_up_to`
    pairs_checked: int
    unknown_pairs: int
    truncated: bool


def as_vector(entries: Sequence[int], dim: int) -> Vector:
    try:
        vec = tuple(entries)
    except TypeError:
        raise InputError(
            DIMENSION_MISMATCH,
            f"vector must be a sequence of {dim} integers, got {type(entries).__name__}",
            dim=dim,
        ) from None
    if len(vec) != dim:
        raise InputError(
            DIMENSION_MISMATCH,
            f"vector has length {len(vec)}, presentation dimension is {dim}",
            length=len(vec),
            dim=dim,
        )
    for x in vec:
        if type(x) is not int:  # also rejects bool
            raise non_integral_entry(x)
        if x < 0:
            raise negative_entry(x)
    return vec


def _support(vec: Vector) -> int:
    """Bitmask of the nonzero coordinates."""
    return sum(1 << i for i, x in enumerate(vec) if x)


def _move_supports(pres: MonoidPresentation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`_support` of every left side and of every right side.

    One pass over the moves, written out, because it runs at every
    construction of a presentation.
    """
    lhs, rhs = [], []
    for mv in pres.moves:
        ls = rs = 0
        bit = 1
        for a, b in zip(mv.lhs, mv.rhs):
            if a:
                ls |= bit
            if b:
                rs |= bit
            bit <<= 1
        lhs.append(ls)
        rhs.append(rs)
    return tuple(lhs), tuple(rhs)


def unit_vector(dim: int, index: int) -> Vector:
    return tuple(int(i == index) for i in range(dim))


def build_presentation(dim: int, moves: Iterable) -> MonoidPresentation:
    """Validate and freeze a presentation; move order is preserved.

    `dim` must be an `int` (a `bool` is not one) and at least 1.
    """
    require_int("dim", dim)
    if dim < 1:
        raise InputError(DIMENSION_MISMATCH, "dimension must be positive", dim=dim)
    frozen = []
    for mv in moves:
        if isinstance(mv, Move):
            lhs, rhs = mv.lhs, mv.rhs
        else:
            lhs, rhs = mv
        frozen.append(Move(as_vector(lhs, dim), as_vector(rhs, dim)))
    return MonoidPresentation(dim=dim, moves=tuple(frozen))


def replay(pres: MonoidPresentation, start: Sequence[int], cert: EquivCertificate) -> Vector:
    """Apply a certificate step by step; pure, independent of any search.

    Raises CERTIFICATE_MISMATCH unless `cert` is an `EquivCertificate`
    whose steps are a tuple of `RewriteStep`s, each with an int move index
    in range and a `Direction`, and STEP_NOT_APPLICABLE at the first step
    whose required side does not embed into the current vector.
    """
    start_v = as_vector(start, pres.dim)
    if type(cert) is not EquivCertificate:
        raise InputError(CERTIFICATE_MISMATCH, "certificate is not an EquivCertificate")
    if cert.start != start_v:
        raise InputError(
            CERTIFICATE_MISMATCH,
            "certificate start does not match the given start vector",
        )
    if type(cert.steps) is not tuple:
        raise InputError(CERTIFICATE_MISMATCH, "certificate steps must be a tuple")
    x = start_v
    for i, step in enumerate(cert.steps):
        if (type(step) is not RewriteStep or type(step.move_index) is not int
                or type(step.direction) is not Direction):
            raise InputError(CERTIFICATE_MISMATCH, f"step {i} is malformed", index=i)
        if not 0 <= step.move_index < len(pres.moves):
            raise InputError(CERTIFICATE_MISMATCH, f"step {i} references unknown move", index=i)
        mv = pres.moves[step.move_index]
        if step.direction is Direction.FORWARD:
            take, give = mv.lhs, mv.rhs
        else:
            take, give = mv.rhs, mv.lhs
        if any(xv < tv for xv, tv in zip(x, take)):
            raise InputError(STEP_NOT_APPLICABLE, f"step {i} not applicable", index=i)
        x = tuple(xv - tv + gv for xv, tv, gv in zip(x, take, give))
    return x


def verify_certificate(pres: MonoidPresentation, cert: EquivCertificate) -> bool:
    if type(cert) is not EquivCertificate or not _is_int_tuple(cert.end, pres.dim):
        return False
    try:
        return replay(pres, cert.start, cert) == cert.end
    except InputError:
        return False


def _ext_dot(coeffs, vec):
    total = 0
    for c, v in zip(coeffs, vec):
        if v == 0:
            continue
        if c == INFINITY:
            return INFINITY
        total += c * v
    return total


def _ext_invariant(pres: MonoidPresentation, coeffs) -> bool:
    """Every move takes the same value on both sides, in [0, oo] arithmetic."""
    return all(_ext_dot(coeffs, mv.lhs) == _ext_dot(coeffs, mv.rhs) for mv in pres.moves)


def _is_infinity(x) -> bool:
    return type(x) is float and x == INFINITY


def _is_int_tuple(vec, dim: int) -> bool:
    """A tuple of `dim` entries of type int (bool, float and str fail)."""
    return type(vec) is tuple and len(vec) == dim and all(type(x) is int for x in vec)


def verify_separator(
    pres: MonoidPresentation,
    sep: LinearSeparator,
    f: Sequence[int],
    g: Sequence[int],
    order: bool = False,
) -> bool:
    """Check move invariance plus separation of f from g by substitution.

    With order=False the values at f and g must differ (mod the modulus for
    a MODULAR separator).  With order=True the separator must refute f <= g:
    coefficients must be nonnegative and the value at f strictly exceeds the
    value at g, which must be finite.  The separator
    must be a `LinearSeparator` whose coefficients are a tuple of `pres.dim`
    ints, INFINITY being allowed only in an EXTENDED one, whose ints are
    nonnegative; only a MODULAR one has a modulus, an int >= 2.  Anything
    else is rejected, never coerced.
    """
    f = as_vector(f, pres.dim)
    g = as_vector(g, pres.dim)
    if type(sep) is not LinearSeparator:
        return False
    coeffs = sep.coeffs
    if sep.kind is SeparatorKind.MODULAR:
        m = sep.modulus
        if order or type(m) is not int or m < 2 or not _is_int_tuple(coeffs, pres.dim):
            return False
        for mv in pres.moves:
            if (vec_dot(coeffs, mv.lhs) - vec_dot(coeffs, mv.rhs)) % m != 0:
                return False
        return (vec_dot(coeffs, f) - vec_dot(coeffs, g)) % m != 0
    if sep.modulus is not None:
        return False
    if sep.kind is SeparatorKind.RATIONAL:
        if not _is_int_tuple(coeffs, pres.dim):
            return False
        for mv in pres.moves:
            if vec_dot(coeffs, mv.lhs) != vec_dot(coeffs, mv.rhs):
                return False
        if order:
            if any(c < 0 for c in coeffs):
                return False
            return vec_dot(coeffs, f) > vec_dot(coeffs, g)
        return vec_dot(coeffs, f) != vec_dot(coeffs, g)
    # extended-valued: an invariant map into [0, oo] is additive, so it is
    # constant on congruence classes and monotone in the algebraic order
    if sep.kind is not SeparatorKind.EXTENDED:
        return False
    if type(coeffs) is not tuple or len(coeffs) != pres.dim:
        return False
    for c in coeffs:
        if not (_is_infinity(c) or (type(c) is int and c >= 0)):
            return False
    if not _ext_invariant(pres, coeffs):
        return False
    vf, vg = _ext_dot(coeffs, f), _ext_dot(coeffs, g)
    if order:
        return vg != INFINITY and vf > vg
    return vf != vg


def verify_leq_outcome(
    pres: MonoidPresentation, f: Sequence[int], g: Sequence[int], outcome: DecisionOutcome
) -> bool:
    """Replay a LEQ certificate: chain from g to some g' >= f with the stated slack.

    The outcome must be an EQUIV `DecisionOutcome` whose certificate is an
    `EquivCertificate`, and the certificate's start and end and the slack
    must be tuples of `pres.dim` ints; anything else is rejected, never
    coerced.
    """
    if type(outcome) is not DecisionOutcome or not outcome.is_equiv:
        return False
    cert = outcome.certificate
    if type(cert) is not EquivCertificate:
        return False
    f = as_vector(f, pres.dim)
    g = as_vector(g, pres.dim)
    if not all(_is_int_tuple(v, pres.dim) for v in (cert.start, cert.end, outcome.slack)):
        return False
    if cert.start != g:
        return False
    try:
        end = replay(pres, g, cert)
    except InputError:
        return False
    if end != cert.end:
        return False
    if any(ev < fv for ev, fv in zip(end, f)):
        return False
    return outcome.slack == vec_sub(end, f)


# ---------------------------------------------------------------------------
# separators


def _difference_rows(pres: MonoidPresentation) -> list[Vector]:
    return [vec_sub(mv.lhs, mv.rhs) for mv in pres.moves if mv.lhs != mv.rhs]


def find_separator(
    pres: MonoidPresentation, f: Sequence[int], g: Sequence[int]
) -> LinearSeparator | None:
    """Search for a move-invariant functional with c.f != c.g.

    Rational kernel vectors are tried first (echelon basis order), then the
    moduli m = 2..MODULUS_BOUND ascending.  Deterministic.

    The moduli are read off the diagonal form: with the rows diagonalized
    to s_j by the unimodular V, the kernel mod m is generated by
    (m / gcd(s_j, m)) V_j, and such a generator separates f from g exactly
    when gcd(s_j, m) does not divide t_j = V_j . (f - g) (s_j = 0 past the
    rank).  A column with s_j dividing t_j never separates.  The separator
    is the generator of the first separating column at the least m that
    has one, reduced mod m.
    """
    f = as_vector(f, pres.dim)
    g = as_vector(g, pres.dim)
    rows = _difference_rows(pres)
    diff = vec_sub(f, g)
    for cand in rational_kernel_basis(rows, pres.dim):
        if vec_dot(cand, diff) != 0:
            return LinearSeparator(SeparatorKind.RATIONAL, primitive_integer(cand))
    if not rows:
        return None
    diag, V = integer_diagonalize(rows, pres.dim)
    d = pres.dim
    s_all = diag + [0] * (d - len(diag))
    t_all = [sum(V[i][j] * diff[i] for i in range(d)) for j in range(d)]
    torsion = [(j, s, t) for j, (s, t) in enumerate(zip(s_all, t_all)) if (t % s if s else t)]
    for m in range(2, MODULUS_BOUND + 1):
        for j, s, t in torsion:
            if t % gcd(s, m):
                gen = tuple(V[i][j] * (m // gcd(s, m)) % m for i in range(d))
                return LinearSeparator(SeparatorKind.MODULAR, gen, modulus=m)
    return None


def _scale_extended(values: list) -> tuple:
    """Scale the finite part of an extended vector to primitive integers."""
    finite = [v for v in values if v != INFINITY]
    if not any(finite):
        return tuple(0 if v != INFINITY else INFINITY for v in values)
    scaled = iter(primitive_integer(finite))
    return tuple(INFINITY if v == INFINITY else next(scaled) for v in values)


def least_admissible_support(sides: Iterable[tuple[int, int]], seed: int) -> int:
    """The least admissible support containing `seed`, as a bitmask.

    A support F is admissible for a list of side pairs (bitmasks) when every
    pair has both sides inside F or both sticking out.  Admissible supports
    are closed under intersection, so a least one containing `seed` exists.
    A pair with exactly one side inside F forces the other side into every
    admissible support containing F, so F grows by both sides until no such
    pair is left; the fixpoint is admissible.
    """
    sides = list(sides)
    F = seed
    grown = True
    while grown:
        grown = False
        for ls, rs in sides:
            if ((ls & ~F) == 0) != ((rs & ~F) == 0):
                F |= ls | rs
                grown = True
    return F


def _order_separator(pres: MonoidPresentation, f: Vector, g: Vector, memo: dict) -> LinearSeparator | None:
    """Nonnegative invariant functional c with c.f > c.g, finite on a support F.

    F is admissible when it contains the support of g and every move has
    either both sides supported inside F or both sides sticking out; c is
    infinite off F and solves an exact feasibility problem on F.  The full
    support comes first and gives a RATIONAL separator.  If it gives none,
    the least admissible support F0 decides alone, with an EXTENDED one.
    If f sticks out of F0, c = 0 on F0 and infinite off it separates.
    Otherwise f and g vanish off F0; every admissible F contains F0 and
    every move inside F0 is inside F, so a separator on F restricts to one
    on F0, and one problem on F0 answers for every support.  That problem
    depends only on F and on the gap f - g on F, so `memo` keeps its result
    per (F, gap).
    """
    full = (1 << pres.dim) - 1
    sep = _separator_on_support(pres, full, f, g, memo)
    if sep is not None:
        return sep
    F = least_admissible_support(zip(*pres._supports), _support(g))
    if F == full:
        return None
    if _support(f) & ~F:
        return _zero_on_support(pres.dim, F)
    return _separator_on_support(pres, F, f, g, memo)


def _zero_on_support(dim: int, F: int) -> LinearSeparator:
    """The EXTENDED separator 0 on F and infinite off it.  Every move takes
    the same value on both sides exactly when F is admissible: 0 when both
    sides lie inside F, infinite when both stick out."""
    return LinearSeparator(SeparatorKind.EXTENDED, tuple(
        0 if F >> i & 1 else INFINITY for i in range(dim)))


def _support_separator(pres: MonoidPresentation, f: Vector, g: Vector) -> LinearSeparator | None:
    """`_zero_on_support` on the least admissible support of one vector
    when the other sticks out of it, or None.

    Congruent vectors have the same least admissible support, and this finds
    every pair whose supports differ: if each vector lies inside the other's
    least support, the two least supports contain each other.  For a graph
    monoid these supports are the hereditary saturated vertex sets, which
    index its order ideals (Ara, Moreno and Pardo, Algebr. Represent.
    Theory 10, 2007), so this refutes exactly the pairs that generate
    different order ideals.  No LP and no search.
    """
    sides = list(zip(*pres._supports))
    for a, b in ((f, g), (g, f)):
        F = least_admissible_support(sides, _support(b))
        if _support(a) & ~F:
            return _zero_on_support(pres.dim, F)
    return None


def _separator_on_support(pres: MonoidPresentation, F: int, f: Vector, g: Vector,
                          memo: dict) -> LinearSeparator | None:
    """The cone solution on F with c.gap >= 1, scaled to a separator, once
    per (F, gap) in `memo`."""
    d = pres.dim
    support = [i for i in range(d) if F >> i & 1]
    gap = tuple([f[i] - g[i] for i in support])
    if not any(gap):
        return None
    if (F, gap) not in memo:
        values = _cone_solution(pres, F, [({i: v for i, v in zip(support, gap) if v}, ">=")])
        kind = SeparatorKind.RATIONAL if len(support) == d else SeparatorKind.EXTENDED
        memo[F, gap] = None if values is None else LinearSeparator(kind, _scale_extended(values))
    return memo[F, gap]


def _cone_solution(pres: MonoidPresentation, F: int,
                   rows: list[tuple[dict[int, int], str]]) -> list | None:
    """A c >= 0 on F, invariant under every move inside F, with c.w >= 1 or
    c.w == 1 for each of one or more rows (w, op), w a map from vertices of
    F to nonzero coefficients: separators pass c.gap >= 1, states
    c.target == 1, invariant vectors c_v >= 1 for every v.  Returns its
    values, INFINITY off F, or None when there is none.

    The zero-cone rule comes first.  It applies when the left side of every
    move inside F is a unit vector e_v and every vertex of F has such a
    move, as in a k-graph presentation.  Then the j-th moves of the vertices
    of F are the rows of a nonnegative integer matrix B_j (`_cone_matrices`),
    and every c in the cone solves c = B_j c.  By the Frobenius-Victory theorem
    (H. Schneider, Linear Algebra Appl. 84, 1986) the nonnegative solutions
    of c = B c are generated by one ray per distinguished class
    (`_distinguished_rays`), so a row that no ray of some B_j makes positive
    has no solution, and no LP is solved.  The rays are generated only until
    every row has a positive one.  A wrong refutation could only drop a
    solution, never certify a false one.

    Otherwise one exact feasibility LP decides: one column per vertex of F,
    ascending, then a slack per row c.w >= 1; one row lhs - rhs == 0 per
    move inside F (zero rows dropped), then the normalising rows in order.
    The solver returns the point its Phase I ends at.
    """
    support, inside, matrices = _cone_matrices(pres, F)
    for B in matrices or ():
        pending = [w for w, _ in rows]
        for ray in _distinguished_rays(B, support):
            pending = [w for w in pending
                       if sum(c * w.get(v, 0) for v, c in ray.items()) <= 0]
            if not pending:
                break
        else:
            return None
    nslack = sum(op == ">=" for _, op in rows)
    A = [row + [0] * nslack for row in (
        [mv.lhs[i] - mv.rhs[i] for i in support] for mv, _ in inside) if any(row)]
    b = [0] * len(A)
    slack = len(support)
    for w, op in rows:
        row = [w.get(i, 0) for i in support] + [0] * nslack
        if op == ">=":
            row[slack] = -1
            slack += 1
        A.append(row)
        b.append(1)
    sol = solve_lp(A, b, [0] * (len(support) + nslack))
    if sol.status != OPTIMAL:
        return None
    x = iter(sol.x)
    return [next(x) if F >> i & 1 else INFINITY for i in range(pres.dim)]


def _cone_matrices(pres: MonoidPresentation, F: int):
    """The vertices of F, ascending, the moves inside F with the supports of
    their left sides, in move order, and the matrices of the zero-cone rule,
    or None when the rule does not apply.

    The rule applies when the left side of every move inside F is a unit
    vector e_v with coefficient 1.  Then the j-th matrix B_j maps each
    vertex v of F to the right side of v's j-th move, for j up to the least
    number of moves any vertex of F has.  So there is one matrix, and the
    cone is exactly {c >= 0 : c = B_1 c}, when every vertex of F has
    exactly one move inside F.
    """
    support = [i for i in range(pres.dim) if F >> i & 1]
    inside = [(mv, ls) for mv, ls, rs in zip(pres.moves, *pres._supports) if not (ls | rs) & ~F]
    moved: dict[int, list[Vector]] = {v: [] for v in support}
    for mv, ls in inside:
        if not ls or ls & (ls - 1) or mv.lhs[ls.bit_length() - 1] != 1:
            return support, inside, None
        moved[ls.bit_length() - 1].append(mv.rhs)
    # the j-th move of every vertex of F
    return support, inside, [dict(zip(support, B)) for B in zip(*moved.values())]


def _access_masks(vertices, succ) -> tuple[dict[int, int], dict[int, int]]:
    """The access relation of the edges v -> w for w in succ[v], as bitmasks
    over `vertices`: reach[v] holds every vertex v has access to, v itself
    included, and cls[v] the strongly connected class of v."""
    reach = {}
    for v in vertices:
        mask, stack = 1 << v, [v]
        while stack:
            for w in succ[stack.pop()]:
                if not mask >> w & 1:
                    mask |= 1 << w
                    stack.append(w)
        reach[v] = mask
    cls = {v: sum(1 << w for w in vertices if reach[v] >> w & 1 and reach[w] >> v & 1)
           for v in vertices}
    return reach, cls


def _distinguished_rays(B: dict[int, Vector], support: list[int]):
    """The integral generators of { c >= 0 : c = B c } on `support`, as
    {vertex: value} maps of their nonzero entries, one per distinguished
    class.

    A strongly connected class C is distinguished when B restricted to C has
    spectral radius 1, which for an integer matrix means every row sum
    inside C is 1, and every other class with access to C has spectral
    radius 0, which means it is one vertex without a loop.  Its ray is 1 on
    C, B c on the vertices with access to C, filled in from C upwards, and 0
    elsewhere.
    """
    succ = {v: [w for w in support if B[v][w]] for v in support}
    reach, cls = _access_masks(support, succ)
    for v in support:
        C = cls[v]
        if C & ((1 << v) - 1):
            continue  # each class once, at its least vertex
        members = [w for w in support if C >> w & 1]
        if any(sum(B[w][x] for x in members) != 1 for w in members):
            continue
        upstream = [u for u in support if not C >> u & 1 and reach[u] & C]
        if any(cls[u] != 1 << u or B[u][u] for u in upstream):
            continue
        # a vertex with access to C reaches strictly fewer vertices than
        # each vertex with access to it, so this order fills successors first
        ray = dict.fromkeys(members, 1)
        for u in sorted(upstream, key=lambda u: reach[u].bit_count()):
            ray[u] = sum(B[u][w] * ray[w] for w in succ[u] if w in ray)
        yield ray


# ---------------------------------------------------------------------------
# unit-move presentations (every move is a basis vector on both sides)
#
# For these the congruence is exactly "equal coordinate sums on each
# connected component of the move graph", so congruence and divisibility are
# decided directly and certificates are built by routing single units along
# move-graph paths.  Presentations coming from group actions are of this
# shape; the general search below never sees them.


class _UnitStructure:
    __slots__ = ("comp", "adj")

    def __init__(self, comp: list[int], adj: list[list[tuple[int, int, Direction]]]):
        self.comp = comp
        self.adj = adj


def _unit_structure(pres: MonoidPresentation) -> _UnitStructure | None:
    """Move graph and its components, or None if some move is not unit;
    built once per presentation, by `MonoidPresentation.__post_init__`."""
    for mv in pres.moves:
        if sum(mv.lhs) != 1 or sum(mv.rhs) != 1:
            return None
    d = pres.dim
    adj: list[list[tuple[int, int, Direction]]] = [[] for _ in range(d)]
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, mv in enumerate(pres.moves):
        a = mv.lhs.index(1)
        b = mv.rhs.index(1)
        if a != b:
            adj[a].append((b, idx, Direction.FORWARD))
            adj[b].append((a, idx, Direction.BACKWARD))
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    comp = [find(v) for v in range(d)]
    return _UnitStructure(comp, adj)


def _component_sums(unit: _UnitStructure, vec: Vector) -> dict[int, int]:
    sums: dict[int, int] = {}
    for v, x in enumerate(vec):
        c = unit.comp[v]
        sums[c] = sums.get(c, 0) + x
    return sums


def _component_indicator(unit: _UnitStructure, dim: int, comp_id: int) -> LinearSeparator:
    coeffs = tuple(int(unit.comp[v] == comp_id) for v in range(dim))
    return LinearSeparator(SeparatorKind.RATIONAL, coeffs)


def _unit_path(unit: _UnitStructure, src: int, dst: int) -> list[tuple[int, int, Direction]]:
    """Move-graph path src -> dst as (target vertex, move index, direction) hops."""
    if src == dst:
        return []
    prev: dict[int, tuple[int, int, Direction]] = {src: None}  # type: ignore[dict-item]
    queue = [src]
    while queue:
        nxt = []
        for v in queue:
            for (w, idx, dn) in unit.adj[v]:
                if w not in prev:
                    prev[w] = (v, idx, dn)
                    if w == dst:
                        hops = []
                        cur = dst
                        while cur != src:
                            p, i, d = prev[cur]
                            hops.append((cur, i, d))
                            cur = p
                        hops.reverse()
                        return hops
                    nxt.append(w)
        queue = nxt
    raise ConsistencyError("internal: no path inside a connected component")


def _route_units(unit: _UnitStructure, start: Vector, goal: Vector) -> list[RewriteStep]:
    cur = list(start)
    steps: list[RewriteStep] = []
    while True:
        src = next((v for v in range(len(cur)) if cur[v] > goal[v]), None)
        if src is None:
            return steps
        comp = unit.comp[src]
        dst = next(
            v for v in range(len(cur)) if unit.comp[v] == comp and cur[v] < goal[v]
        )
        at = src
        for (to, idx, dn) in _unit_path(unit, src, dst):
            cur[at] -= 1
            cur[to] += 1
            steps.append(RewriteStep(idx, dn))
            at = to


def _equiv_unit(pres: MonoidPresentation, unit: _UnitStructure, f: Vector, g: Vector) -> DecisionOutcome:
    sf = _component_sums(unit, f)
    sg = _component_sums(unit, g)
    for c in sorted(sf):
        if sf[c] != sg[c]:
            return DecisionOutcome(
                Verdict.NOT_EQUIV, separator=_component_indicator(unit, pres.dim, c)
            )
    steps = _route_units(unit, f, g)
    return DecisionOutcome(
        Verdict.EQUIV, certificate=EquivCertificate(f, tuple(steps), g)
    )


def _leq_unit(pres: MonoidPresentation, unit: _UnitStructure, f: Vector, g: Vector) -> DecisionOutcome:
    sf = _component_sums(unit, f)
    sg = _component_sums(unit, g)
    for c in sorted(sf):
        if sf[c] > sg[c]:
            return DecisionOutcome(
                Verdict.NOT_EQUIV, separator=_component_indicator(unit, pres.dim, c)
            )
    target = list(f)
    for c in sorted(sf):
        extra = sg[c] - sf[c]
        if extra:
            root = min(v for v in range(pres.dim) if unit.comp[v] == c)
            target[root] += extra
    target_v = tuple(target)
    steps = _route_units(unit, g, target_v)
    return DecisionOutcome(
        Verdict.EQUIV,
        certificate=EquivCertificate(g, tuple(steps), target_v),
        slack=vec_sub(target_v, f),
    )


# ---------------------------------------------------------------------------
# bounded search


def _compiled_moves(pres: MonoidPresentation):
    """Both directions of every move, in move order, compiled once per
    search: (idx, direction, need, delta, the nonzero (i, need_i), the
    nonzero (i, delta_i), the coordinates the delta raises)."""
    comp = []
    for i, mv in enumerate(pres.moves):
        forward = tuple([b - a for a, b in zip(mv.lhs, mv.rhs)])
        for dn, need, delta in ((Direction.FORWARD, mv.lhs, forward),
                                (Direction.BACKWARD, mv.rhs, tuple([-x for x in forward]))):
            comp.append((i, dn, need, delta,
                         [(j, x) for j, x in enumerate(need) if x],
                         [(j, x) for j, x in enumerate(delta) if x],
                         [j for j, x in enumerate(delta) if x > 0]))
    return comp


def _back_steps(visited: dict, moves, state: Vector) -> list[RewriteStep]:
    """The steps from the root to `state`.  Each step is the first compiled
    move that takes the parent to the child, which is the one `expand`
    recorded: it tries a state's moves in the same order."""
    steps = []
    prev = visited[state]
    while prev is not None:
        for (idx, dn, need, delta, *_) in moves:
            if all(pv >= nv and pv + dv == sv
                   for pv, nv, dv, sv in zip(prev, need, delta, state)):
                steps.append(RewriteStep(idx, dn))
                break
        state, prev = prev, visited[prev]
    steps.reverse()
    return steps


class _SearchTree:
    """One breadth-first search: visited states, each mapped to its parent,
    and the current frontier."""

    __slots__ = ("visited", "frontier", "cap_hit")

    def __init__(self, root: Vector):
        self.visited: dict = {root: None}
        self.frontier: list[Vector] = [root]
        self.cap_hit = False

    def expand(self, moves, cap: int):
        """Advance the frontier one level, yielding each newly visited state
        in discovery order.  A caller that stops early ends the search.

        `moves` is `_compiled_moves`' list.  A move applies when the state
        covers its nonzero need coordinates, and the new state is the state
        plus the move's nonzero delta coordinates.  A state within the cap
        leaves it only through a coordinate the move raises, so only those
        are checked.  Only a root can lie above the cap, and its new states
        get the full test, on every coordinate.
        """
        visited = self.visited
        nxt: list[Vector] = []
        for state in self.frontier:
            everywhere = range(len(state)) if max(state) > cap else None
            for (_, _, _, _, need, delta, raised) in moves:
                for i, nv in need:
                    if state[i] < nv:
                        break
                else:
                    new = list(state)
                    for i, dv in delta:
                        new[i] += dv
                    for i in everywhere or raised:
                        if new[i] > cap:
                            self.cap_hit = True
                            break
                    else:
                        # From a list, the tuple is allocated at its final
                        # size; tuple() of a generator resizes a 10-slot
                        # tuple, and every freed state would then grow
                        # CPython's free list of dim-sized tuples, which only
                        # a full collection empties.
                        new = tuple(new)
                        if new not in visited:
                            visited[new] = state
                            yield new
                            nxt.append(new)
        self.frontier = nxt


def _bfs_equiv(pres: MonoidPresentation, f: Vector, g: Vector, budget: SearchBudget) -> DecisionOutcome:
    """Bidirectional breadth-first search over the rewrite graph.

    Budgets are enforced at level boundaries so the verdict depends only on
    level sets, not on intra-level ordering (this keeps verdicts invariant
    under coordinate relabeling).
    """
    moves = _compiled_moves(pres)
    from_f, from_g = _SearchTree(f), _SearchTree(g)

    def report(exhausted: bool) -> DecisionOutcome:
        return DecisionOutcome(
            Verdict.UNKNOWN,
            budget=BudgetReport(
                states_visited=len(from_f.visited) + len(from_g.visited),
                coordinate_cap_hit=from_f.cap_hit or from_g.cap_hit,
                exhausted=exhausted,
            ),
        )

    while from_f.frontier or from_g.frontier:
        if from_f.frontier and (
            not from_g.frontier or len(from_f.visited) <= len(from_g.visited)
        ):
            mine, other = from_f, from_g
        else:
            mine, other = from_g, from_f
        for new in mine.expand(moves, budget.max_coord):
            if new in other.visited:
                steps_f = _back_steps(from_f.visited, moves, new)
                steps_g = _back_steps(from_g.visited, moves, new)
                inverted = [
                    RewriteStep(s.move_index, _flip(s.direction))
                    for s in reversed(steps_g)
                ]
                cert = EquivCertificate(f, tuple(steps_f + inverted), g)
                return DecisionOutcome(Verdict.EQUIV, certificate=cert)
        if not mine.frontier and not mine.cap_hit:
            # This side's congruence class is fully enumerated and misses the
            # other endpoint, so the classes are disjoint.  Every separator
            # `decide_equiv` tries has failed by now, and the enumeration is
            # no certificate a verifier could check without redoing it, so
            # the verdict stays UNKNOWN; the report records the exhaustion.
            return report(exhausted=True)
        if len(from_f.visited) + len(from_g.visited) > budget.max_states:
            return report(exhausted=False)
    return report(exhausted=not (from_f.cap_hit or from_g.cap_hit))


def _dominate(tree: _SearchTree, moves, fs: list[Vector],
              budget: SearchBudget) -> tuple[dict, list[Vector], bool]:
    """Grow `tree` by whole levels until a visited state dominates every f in
    `fs`, the frontier runs out, or a level ends with more than
    `budget.max_states` states visited.

    Returns the first new state that dominates each f found, as a dict, the
    fs left undominated, in order, and whether the budget stopped the search.
    The root is not tested.  The levels do not depend on `fs`, and the search
    stops only at the end of a level or once no f is left, so f is found
    exactly when a search for f alone would find it.
    """
    found: dict = {}
    left = list(fs)
    while tree.frontier:
        for new in tree.expand(moves, budget.max_coord):
            hit = [f for f in left if all(map(operator.ge, new, f))]
            if hit:
                found.update(dict.fromkeys(hit, new))
                left = [f for f in left if f not in found]
                if not left:
                    return found, left, False
        if len(tree.visited) > budget.max_states:
            return found, left, True
    return found, left, False


def _bfs_leq(pres: MonoidPresentation, f: Vector, g: Vector, budget: SearchBudget) -> DecisionOutcome:
    """Breadth-first search from g for a congruent vector dominating f."""
    moves = _compiled_moves(pres)
    tree = _SearchTree(g)
    found, _, stopped = _dominate(tree, moves, [f], budget)
    if found:
        new = found[f]
        return DecisionOutcome(
            Verdict.EQUIV,
            certificate=EquivCertificate(g, tuple(_back_steps(tree.visited, moves, new)), new),
            slack=vec_sub(new, f),
        )
    return DecisionOutcome(
        Verdict.UNKNOWN,
        budget=BudgetReport(len(tree.visited), tree.cap_hit,
                            exhausted=not (stopped or tree.cap_hit)),
    )


# ---------------------------------------------------------------------------
# public decision procedures


def decide_equiv(
    pres: MonoidPresentation,
    f: Sequence[int],
    g: Sequence[int],
    budget: SearchBudget | None = None,
) -> DecisionOutcome:
    """Decide congruence of f and g under the presentation."""
    budget = budget or DEFAULT_BUDGET
    f = as_vector(f, pres.dim)
    g = as_vector(g, pres.dim)
    if f == g:
        return DecisionOutcome(Verdict.EQUIV, certificate=EquivCertificate(f, (), g))
    if pres._unit is not None:
        return _equiv_unit(pres, pres._unit, f, g)
    sep = find_separator(pres, f, g) or _support_separator(pres, f, g)
    if sep is not None:
        return DecisionOutcome(Verdict.NOT_EQUIV, separator=sep)
    return _bfs_equiv(pres, f, g, budget)


def decide_leq(
    pres: MonoidPresentation,
    f: Sequence[int],
    g: Sequence[int],
    budget: SearchBudget | None = None,
) -> DecisionOutcome:
    """Decide f <= g in the quotient's algebraic order.

    EQUIV verdict means the order relation holds, certified by a rewrite
    chain from g to some g' >= f together with the slack g' - f.  NOT_EQUIV
    comes with a nonnegative (possibly extended-valued) invariant functional
    whose value at f strictly exceeds its value at g.
    """
    budget = budget or DEFAULT_BUDGET
    f = as_vector(f, pres.dim)
    g = as_vector(g, pres.dim)
    if all(fv <= gv for fv, gv in zip(f, g)):
        return DecisionOutcome(
            Verdict.EQUIV,
            certificate=EquivCertificate(g, (), g),
            slack=vec_sub(g, f),
        )
    if pres._unit is not None:
        return _leq_unit(pres, pres._unit, f, g)
    sep = _order_separator(pres, f, g, {})
    if sep is not None:
        return DecisionOutcome(Verdict.NOT_EQUIV, separator=sep)
    return _bfs_leq(pres, f, g, budget)


def kl_paradoxical(
    pres: MonoidPresentation,
    theta: Sequence[int],
    k: int,
    l: int,
    budget: SearchBudget | None = None,
) -> DecisionOutcome:
    """Decide whether k copies of theta fit below l copies (k > l >= 1).

    The (2, 1) case is the properly-infinite test.  Delegates to
    :func:`decide_leq` on the scalar multiples; theta = 0 is trivially
    paradoxical and short-circuits before any search.
    """
    if not (type(k) is int and type(l) is int and k > l >= 1):  # also rejects bool
        raise InputError(INVALID_PAIR, f"need integers k > l >= 1, got k={k}, l={l}", k=k, l=l)
    theta = as_vector(theta, pres.dim)
    return decide_leq(pres, vec_scale(k, theta), vec_scale(l, theta), budget)


def almost_unperforated_up_to(
    pres: MonoidPresentation,
    generators: Sequence[Sequence[int]],
    coeff_bound: int = 4,
    mult_bound: int = 4,
    budget: SearchBudget | None = None,
    max_pairs: int = 5000,
) -> UnperforationSweep:
    """Bounded sweep of the order on the span of `generators`.

    Decides theta <= eta for the first `max_pairs` pairs of the span with
    coefficients up to `coeff_bound`, once per pair, and counts the pairs
    left undecided.  Each pair is counted as `decide_leq` would count it.  A
    unit presentation's pairs are only counted, since its unit path decides
    every pair.  Otherwise a pair not below eta coordinatewise is decided on
    the least admissible support F0 of eta alone: it is refuted when theta
    sticks out of F0, or when some invariant functional c >= 0 on F0 has
    c.theta > c.eta.  These are exactly the pairs `_order_separator`
    refutes, and its full-support pass adds none: a functional on the full
    support that refutes theta <= eta restricts to F0 (infinite off it)
    when theta lies inside F0, the restriction stays invariant because F0
    is admissible, and theta and eta keep their values.  So whether a
    separator exists is F0's question alone; `_order_separator` asks the
    full support first only to return a RATIONAL separator when there is
    one.  F0 is found once per support of eta.  Where the cone on a
    support is one matrix's cone
    (`_ray_values`), its Frobenius-Victory rays are found once and the value
    of every span vector under each of them once, and a functional exists
    exactly when some ray is larger at theta than at eta: no LP.  On the
    other supports each separator LP is solved once per distinct
    (support, gap) key.  The pairs nothing refutes are searched with one
    tree per distinct eta, over moves compiled once; all of it lives only
    until the call returns.  `coeff_bound`, `mult_bound` and `max_pairs` are
    `int`s >= 0.

    One tree per eta counts what one search per pair would.  The search
    from eta has the same levels whatever theta is, and it stops only at the
    end of a level that leaves more than `budget.max_states` states visited,
    or when the frontier runs out.  So theta is decided exactly when a new
    state in the levels up to that stop dominates it, and `_dominate` grows
    the shared tree to that stop unless every theta is dominated sooner.
    No certificate is built: the sweep only counts.

    Multipliers n > m need no search: a pair refuted by an order separator c
    has c(n theta) = n c(theta) > m c(eta), so every scaled pair
    n theta <= m eta is refuted as well.  `mult_bound` is accepted for
    compatibility and changes nothing.  A counterexample needs a refutation
    that is not a functional, which no decider here produces, so
    `counterexample` is always None.
    """
    gens = [as_vector(gv, pres.dim) for gv in generators]
    if not gens:
        raise InputError(DIMENSION_MISMATCH, "generator list must be nonempty")
    # a negative bound is rejected, not read as an empty span or no pairs
    require_int("coeff_bound", coeff_bound, nonnegative=True)
    require_int("mult_bound", mult_bound, nonnegative=True)
    require_int("max_pairs", max_pairs, nonnegative=True)
    # one vector past max_pairs already gives more pairs than max_pairs
    span: list[Vector] = []
    seen = set()
    for coeffs in itertools.product(range(coeff_bound + 1), repeat=len(gens)):
        vec = tuple(sum(c * gv[i] for c, gv in zip(coeffs, gens)) for i in range(pres.dim))
        if vec not in seen:
            seen.add(vec)
            span.append(vec)
            if len(span) > max_pairs:
                break
    pairs_checked = min(len(span) ** 2, max_pairs)
    unknown = 0
    if pres._unit is None:
        sides = list(zip(*pres._supports))
        supports = [_support(vec) for vec in span]
        least: dict[int, int] = {}  # support of eta -> its least admissible support
        values: dict[int, list | None] = {}  # F -> `_ray_values` of the span on F
        memo: dict = {}
        searches: dict[Vector, list[Vector]] = {}  # eta -> the thetas it must dominate

        def refuted(F: int, i: int, j: int) -> bool:
            """Some invariant c >= 0 on F has c.theta > c.eta."""
            if F not in values:
                values[F] = _ray_values(pres, F, span)
            table = values[F]
            if table is None:
                return _separator_on_support(pres, F, span[i], span[j], memo) is not None
            return any(map(operator.gt, table[i], table[j]))

        for (i, theta), (j, eta) in itertools.islice(
                itertools.product(enumerate(span), repeat=2), max_pairs):
            # theta <= eta coordinatewise is decided without a search
            if all(map(operator.le, theta, eta)):
                continue
            if supports[j] not in least:
                least[supports[j]] = least_admissible_support(sides, supports[j])
            F = least[supports[j]]
            if not (supports[i] & ~F or refuted(F, i, j)):
                searches.setdefault(eta, []).append(theta)
        if searches:
            moves = _compiled_moves(pres)
            budget = budget or DEFAULT_BUDGET
            for eta, thetas in searches.items():
                unknown += len(_dominate(_SearchTree(eta), moves, thetas, budget)[1])
    return UnperforationSweep(None, pairs_checked, unknown, len(span) ** 2 > pairs_checked)


def _ray_values(pres: MonoidPresentation, F: int,
                vectors: list[Vector]) -> list[tuple[int, ...]] | None:
    """The value of each vector under each generating ray of the cone on F,
    in `_distinguished_rays` order, or None unless the cone is one matrix's.

    It is when `_cone_matrices` gives one matrix B and every vertex of F has
    exactly one move inside F.  Then the cone is {c >= 0 : c = B c}, which
    the rays generate (Frobenius-Victory), so for a vector w that vanishes
    off F some c in the cone has c.w >= 1 exactly when some ray r has
    r.w > 0: the order-separator LP on F is feasible exactly then.
    """
    support, inside, matrices = _cone_matrices(pres, F)
    if matrices is None or len(matrices) != 1 or len(inside) != len(support):
        return None
    rays = list(_distinguished_rays(matrices[0], support))
    return [tuple([sum(c * vec[v] for v, c in ray.items()) for ray in rays]) for vec in vectors]
