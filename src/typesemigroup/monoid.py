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
tries `find_separator`, which reads a rational or a modular separator off
one diagonal form of the move differences and finds one exactly when f - g
is not in their integer span, then `_support_separator`: vectors with
different least admissible supports are never congruent, and the extended
separator 0 on one of those supports and oo off it shows it.  The order
tries `_order_separator`, which asks the least admissible support of g
alone: rational when it is the full support, extended otherwise.  Both
searches grow their levels with the same `_SearchTree.expand`, over
states packed into one int each, with the moves compiled once per search
to packed ints of the same layout (`_compiled_moves`, `_Layout`): a move
is tested by one guarded subtraction and applied as s - need + give, and
certificates are unpacked only when a result is returned.
`almost_unperforated_up_to` compiles them once per sweep on a presentation
that is not unit, in one layout for its whole span, packs the span in it
and walks the right-hand sides eta: every theta of one eta is tested
below eta by one guarded subtraction, and those no separator refutes share
one tree from eta (`_dominate`).  `classify`'s
per-vertex (2, 1) tests run the order's ladder (`_decide_leq`) over moves
compiled at most once per call.

What depends on the moves alone is derived once, when the presentation is
constructed: the unit-move structure (if every move is unit) and the
move-side supports.  The invariant cone generators of each admissible
support depend on the moves alone too, and are built once per
presentation, when a query first asks for them (`cones._cone_generators`).
All three are private fields of the frozen `MonoidPresentation`, outside
equality, hashing and repr; every query reads them and still validates its
own vectors.  `almost_unperforated_up_to`, which asks thousands of order
questions of one presentation and only counts, asks each pair what
`_order_separator` asks, with tables that live only for that call: the
least admissible support once per support of eta; on a support whose
invariant cone has generators, the value of every span vector under them,
which decide each pair with integer comparisons and no LP; on any other
support, one separator LP per pair.  A unit presentation's sweep decides
no pair and builds only as much of the span as fixes the count.  The
moves it compiles and the trees it grows live only for that call as well,
as do each decider's compiled moves and search tree.

An order separator, a state (`states.solve_state_at`) and a positive
invariant vector are the same kind of object: an additive map into [0, oo]
that every move leaves invariant, finite exactly on an admissible support,
and normalised.  The cone layer, `cones`, gives that cone's generators,
off which `states` reads states and positive vectors and `cones` itself
reads order separators, already primitive integers; an LP is solved only
on a support without generators.  This module keeps only the wrappers that
turn those values into `LinearSeparator`s (`_zero_on_support`,
`_separator_on_support`).  One check, `_ext_invariant`, verifies invariance
for all of them in extended arithmetic.

Positive certificates and separators are both checkable by independent code
paths (`replay`, `verify_separator`); nothing is trusted from the search.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from math import gcd, isqrt
from typing import Iterable, Sequence

from .errors import (
    CERTIFICATE_MISMATCH,
    DIMENSION_MISMATCH,
    INVALID_PAIR,
    SCHEMA_VIOLATION,
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
    vec_dot,
    vec_scale,
    vec_sub,
)
from .cones import INFINITY, _cone_generators, _cone_solution, least_admissible_support

Vector = tuple[int, ...]

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
    for the left sides and one for the right.  `_cones` starts empty and
    keeps the invariant cone generators of each admissible support the
    first time any query asks for them (`cones._cone_generators`, the only
    code that reads or writes it).  The fields stay out of `==`, `hash` and
    `repr`, and equal presentations derive equal forms, so no verdict can
    depend on how a presentation was built or what it was asked before.
    """

    dim: int
    moves: tuple[Move, ...]
    _unit: _UnitStructure | None = field(init=False, repr=False, compare=False)
    _supports: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False)
    _cones: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_unit", _unit_structure(self))
        object.__setattr__(self, "_supports", _move_supports(self))
        object.__setattr__(self, "_cones", ())


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


def _search_budget(budget) -> SearchBudget:
    """`None` is `DEFAULT_BUDGET`; anything but a `SearchBudget` is
    rejected, never coerced."""
    if type(budget) is not SearchBudget:
        if budget is not None:
            raise InputError(SCHEMA_VIOLATION, f"budget must be a SearchBudget, got {budget!r}",
                             budget=repr(budget))
        return DEFAULT_BUDGET
    return budget


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

    Both kinds are read off one diagonal form: with the move differences
    diagonalized to s_j by the unimodular V (`integer_diagonalize`), let
    t_j = V_j . (f - g).  The columns V_j past the rank span the rational
    kernel, so the first of them with t_j != 0, made primitive, is the
    RATIONAL separator.  Otherwise the kernel mod m is generated by
    (m / gcd(s_j, m)) V_j, and such a generator separates exactly when
    gcd(s_j, m) does not divide t_j.  The MODULAR separator is the
    generator of the first separating column at the least m <= MODULUS_BOUND
    that has one, reduced mod m; past that bound, the first column with s_j
    not dividing t_j at m = |s_j|, which always separates.  Deterministic.

    So None comes back exactly when t_j = 0 past the rank and s_j divides
    t_j below it, that is, when f - g lies in the integer span of the move
    differences.
    """
    f = as_vector(f, pres.dim)
    g = as_vector(g, pres.dim)
    d = pres.dim
    diff = vec_sub(f, g)
    diag, V = integer_diagonalize(_difference_rows(pres), d)
    t_all = [sum(V[i][j] * diff[i] for i in range(d)) for j in range(d)]
    for j in range(len(diag), d):
        if t_all[j]:
            return LinearSeparator(SeparatorKind.RATIONAL, primitive_integer([row[j] for row in V]))
    torsion = [(j, s, t) for j, (s, t) in enumerate(zip(diag, t_all)) if t % s]
    if not torsion:
        return None
    # at m = |s_j| of the first torsion column, that column separates
    for m in [*range(2, MODULUS_BOUND + 1), abs(torsion[0][1])]:
        for j, s, t in torsion:
            if t % gcd(s, m):
                return LinearSeparator(SeparatorKind.MODULAR, tuple(
                    row[j] * (m // gcd(s, m)) % m for row in V), modulus=m)


def _order_separator(pres: MonoidPresentation, f: Vector, g: Vector) -> LinearSeparator | None:
    """Nonnegative invariant functional c with c.f > c.g, finite on a support F.

    F is admissible when it contains the support of g and every move has
    either both sides supported inside F or both sides sticking out; c is
    infinite off F.  The least admissible support F0 decides alone.  If f
    sticks out of F0, c = 0 on F0 and infinite off it separates.  Otherwise
    f and g vanish off F0; every admissible F contains F0 and every move
    inside F0 is inside F, so a separator on F restricts to one on F0 (the
    restriction stays invariant because F0 is admissible, and f and g keep
    their values), and the cone on F0 answers for every support
    (`cones._cone_solution`).  Its separator is RATIONAL when F0 is the full
    support and EXTENDED otherwise.
    """
    F = least_admissible_support(zip(*pres._supports), _support(g))
    if _support(f) & ~F:
        return _zero_on_support(pres.dim, F)
    return _separator_on_support(pres, F, f, g)


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


def _separator_on_support(pres: MonoidPresentation, F: int, f: Vector,
                          g: Vector) -> LinearSeparator | None:
    """The cone solution on F with c.gap > 0, as a separator."""
    gap = {i: f[i] - g[i] for i in range(pres.dim) if F >> i & 1 and f[i] != g[i]}
    values = _cone_solution(pres, F, gap) if gap else None
    if values is None:
        return None
    kind = SeparatorKind.RATIONAL if F == (1 << pres.dim) - 1 else SeparatorKind.EXTENDED
    return LinearSeparator(kind, values)


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


class _Layout:
    """One search's packing of vectors into ints, and its compiled moves.

    Coordinate i sits in field i, `bits` bits at offset i * (bits + 1),
    under one guard bit; `guard` has every guard bit set.  Width condition:
    2**bits > max(cap, c) + e, where c is the largest coordinate of any
    vector the search packs (its roots and `_dominate`'s targets) and e the
    largest move entry.  Under it no field borrows from or carries into the
    next, so one int operation tests or moves every coordinate at once:

    * s covers a packed v iff ((s | guard) - v) & guard == guard: each
      field's guard bit survives exactly when s_i >= v_i;
    * a move from need to give turns s into s - need + give;
    * a state exceeds the cap iff (s + over) & guard, where `over` adds
      2**bits - 1 - cap to every field.

    `moves` holds both directions of every move, in move order, as
    (idx, direction, need, give) with need and give packed.
    """

    __slots__ = ("dim", "stride", "mask", "guard", "over", "moves")

    def __init__(self, pres: MonoidPresentation, cap: int, bits: int):
        self.dim = pres.dim
        self.stride = bits + 1
        self.mask = (1 << bits) - 1
        self.guard = self.pack((1 << bits,) * pres.dim)
        self.over = self.pack((self.mask - cap,) * pres.dim)
        self.moves = []
        for i, mv in enumerate(pres.moves):
            lhs, rhs = self.pack(mv.lhs), self.pack(mv.rhs)
            self.moves.append((i, Direction.FORWARD, lhs, rhs))
            self.moves.append((i, Direction.BACKWARD, rhs, lhs))

    def pack(self, vec: Vector) -> int:
        state = 0
        for x in reversed(vec):
            state = state << self.stride | x
        return state

    def unpack(self, state: int) -> Vector:
        mask = self.mask
        return tuple([state >> shift & mask
                      for shift in range(0, self.dim * self.stride, self.stride)])


def _compiled_moves(pres: MonoidPresentation, cap: int, largest: int) -> _Layout:
    """The narrowest `_Layout` of a search within coordinate `cap` that
    meets the width condition for roots and targets whose coordinates are
    at most `largest`; packing a larger coordinate breaks it."""
    entry = max((max(mv.lhs + mv.rhs) for mv in pres.moves), default=0)
    return _Layout(pres, cap, (max(cap, largest) + entry).bit_length())


def _back_steps(visited: dict, layout: _Layout, state: int) -> list[RewriteStep]:
    """The steps from the root to `state`, both packed by `layout`.  Each
    step is the first compiled move that applies to the parent and takes it
    to the child, which is the one `expand` recorded: it tries a state's
    moves in the same order."""
    guard = layout.guard
    steps = []
    prev = visited[state]
    while prev is not None:
        armed = prev | guard
        for (idx, dn, need, give) in layout.moves:
            if (armed - need) & guard == guard and prev - need + give == state:
                steps.append(RewriteStep(idx, dn))
                break
        state, prev = prev, visited[prev]
    steps.reverse()
    return steps


class _SearchTree:
    """One breadth-first search over packed states: visited states, each
    mapped to its parent, and the current frontier."""

    __slots__ = ("visited", "frontier", "cap_hit")

    def __init__(self, root: int):
        self.visited: dict = {root: None}
        self.frontier: list[int] = [root]
        self.cap_hit = False

    def expand(self, layout: _Layout):
        """Advance the frontier one level, yielding each newly visited state
        in discovery order.  A caller that stops early ends the search.

        The root must be packed by `layout`, under its width condition.
        Each state tries `layout.moves` in order: a move applies when the
        state covers its need, and the new state is kept unless it exceeds
        the cap on some coordinate, which sets `cap_hit` instead.  A state
        within the cap can exceed it only where the move raises a
        coordinate, and a root above the cap anywhere; one mask test covers
        both.
        """
        visited = self.visited
        guard, over = layout.guard, layout.over
        nxt = []
        for state in self.frontier:
            armed = state | guard
            for (_, _, need, give) in layout.moves:
                if (armed - need) & guard == guard:
                    new = state - need + give
                    if (new + over) & guard:
                        self.cap_hit = True
                    elif new not in visited:
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
    layout = _compiled_moves(pres, budget.max_coord, max(f + g))
    from_f, from_g = _SearchTree(layout.pack(f)), _SearchTree(layout.pack(g))

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
        for new in mine.expand(layout):
            if new in other.visited:
                steps_f = _back_steps(from_f.visited, layout, new)
                steps_g = _back_steps(from_g.visited, layout, new)
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


def _dominate(tree: _SearchTree, layout: _Layout, fs: list[int],
              budget: SearchBudget) -> tuple[dict, list[int], bool]:
    """Grow `tree` by whole levels until a visited state dominates every f in
    `fs`, the frontier runs out, or a level ends with more than
    `budget.max_states` states visited.

    The fs are packed by `layout`, and its width condition must hold for
    them as for the root: a wider f would spill into the next field.
    Returns the first new state that dominates each f found, as a dict, the
    fs left undominated, in order, and whether the budget stopped the
    search.  The root is not tested.  A new state is tested against the fs
    left until one is dominated; lists are rebuilt only on such a hit.  The levels do not depend on `fs`, and
    the search stops only at the end of a level or once no f is left, so f
    is found exactly when a search for f alone would find it.
    """
    guard = layout.guard
    found: dict = {}
    left = list(fs)
    while tree.frontier:
        for new in tree.expand(layout):
            armed = new | guard
            for f in left:
                if (armed - f) & guard == guard:
                    break
            else:
                continue
            found.update(dict.fromkeys([f for f in left if (armed - f) & guard == guard], new))
            left = [f for f in left if f not in found]
            if not left:
                return found, left, False
        if len(tree.visited) > budget.max_states:
            return found, left, True
    return found, left, False


def _bfs_leq(pres: MonoidPresentation, f: Vector, g: Vector, budget: SearchBudget,
             layout: _Layout | None = None) -> DecisionOutcome:
    """Breadth-first search from g for a congruent vector dominating f, over
    the `_Layout` `layout`, compiled here when it is None; its fields must
    hold f and g."""
    if layout is None:
        layout = _compiled_moves(pres, budget.max_coord, max(f + g))
    tree = _SearchTree(layout.pack(g))
    found, _, stopped = _dominate(tree, layout, [layout.pack(f)], budget)
    if found:
        [new] = found.values()
        end = layout.unpack(new)
        return DecisionOutcome(
            Verdict.EQUIV,
            certificate=EquivCertificate(g, tuple(_back_steps(tree.visited, layout, new)), end),
            slack=vec_sub(end, f),
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
    budget = _search_budget(budget)
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
    f = as_vector(f, pres.dim)
    g = as_vector(g, pres.dim)
    budget = _search_budget(budget)
    return _decide_leq(pres, f, g, budget,
                       lambda: _compiled_moves(pres, budget.max_coord, max(f + g)))


def _decide_leq(pres: MonoidPresentation, f: Vector, g: Vector, budget: SearchBudget,
                layout) -> DecisionOutcome:
    """`decide_leq`'s ladder on checked vectors: coordinatewise order, the
    unit path, an order separator, then the search over the `_Layout`
    `layout()` gives, asked for only when the search is reached; its fields
    must hold f and g."""
    if all(fv <= gv for fv, gv in zip(f, g)):
        return DecisionOutcome(
            Verdict.EQUIV,
            certificate=EquivCertificate(g, (), g),
            slack=vec_sub(g, f),
        )
    if pres._unit is not None:
        return _leq_unit(pres, pres._unit, f, g)
    sep = _order_separator(pres, f, g)
    if sep is not None:
        return DecisionOutcome(Verdict.NOT_EQUIV, separator=sep)
    return _bfs_leq(pres, f, g, budget, layout())


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


def _sweep_span(gens: list[Vector], coeff_bound: int, limit: int) -> list[Vector]:
    """The first `limit` distinct combinations of `gens` with coefficients
    up to `coeff_bound`, in the order `itertools.product` gives the
    coefficients, each summed from the generators' precomputed multiples."""
    multiples = [[tuple([c * x for x in gv]) for c in range(coeff_bound + 1)] for gv in gens]
    span: dict[Vector, None] = {}
    for parts in itertools.product(*multiples):
        span[tuple(map(sum, zip(*parts)))] = None
        if len(span) >= limit:
            break
    return list(span)


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
    left undecided.  Pairs run theta-major over the span, so eta j is paired
    with the thetas i < ceil((pairs_checked - j) / n), n the span's length.
    Each pair is counted as `decide_leq` would count it.  The span is summed
    from each generator's multiples (`_sweep_span`) and cut one vector past
    max_pairs, since max_pairs + 1 vectors already give more pairs.

    A unit presentation's pairs are only counted, since its unit path
    decides every pair; its span stops once its square passes max_pairs,
    at isqrt(max_pairs) + 1 vectors, which decide the count.  Otherwise the
    span is packed in one `_Layout`, compiled once per sweep, and the sweep
    walks the etas, deciding all the thetas of one eta together, each test
    one list comprehension over the thetas the last one left:
    theta <= eta coordinatewise is one guarded subtraction on the packed
    vectors, and holds with no search.  The rest are decided on the least
    admissible support F0 of eta alone: refuted when theta sticks out of F0,
    one mask test, or when some invariant functional c >= 0 on F0 has
    c.theta > c.eta: exactly the pairs `_order_separator` refutes.  F0 is
    found once per support of eta.  Where the cone on F0 has generators
    (`cones._cone_generators`, built once per presentation and kept on it),
    the value of every span vector under each of them is found once, the
    first time a theta gets past the first two tests on F0, and a functional
    exists exactly when some generator is larger at theta than at eta: no
    LP.  On the other supports each pair solves its separator LP
    (`_separator_on_support`).  The thetas nothing refutes go to one search
    tree from eta.  The least supports, the value tables, the compiled moves
    and the trees live only until the call returns.  `coeff_bound`,
    `mult_bound` and `max_pairs` are `int`s >= 0.

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
    budget = _search_budget(budget)
    gens = [as_vector(gv, pres.dim) for gv in generators]
    if not gens:
        raise InputError(DIMENSION_MISMATCH, "generator list must be nonempty")
    # a negative bound is rejected, not read as an empty span or no pairs
    require_int("coeff_bound", coeff_bound, nonnegative=True)
    require_int("mult_bound", mult_bound, nonnegative=True)
    require_int("max_pairs", max_pairs, nonnegative=True)
    unit = pres._unit is not None
    # one vector past max_pairs already gives more pairs than max_pairs; a
    # unit sweep only counts, and more than max_pairs pairs decide its count
    span = _sweep_span(gens, coeff_bound, isqrt(max_pairs) + 1 if unit else max_pairs + 1)
    n = len(span)
    pairs_checked = min(n * n, max_pairs)
    unknown = 0
    if not unit:
        layout = _compiled_moves(pres, budget.max_coord, max(map(max, span)))
        guard = layout.guard
        packed = [layout.pack(vec) for vec in span]
        sides = list(zip(*pres._supports))
        # support of eta -> its least admissible support F, and the fields
        # off F packed at their full width
        least: dict[int, tuple[int, int]] = {}
        values: dict[int, list | None] = {}  # F -> the span's values under F's generators
        # pair (i, j) is the (i * n + j)-th, so the first pairs_checked pairs
        # give eta j the thetas i < ceil((pairs_checked - j) / n)
        for j in range(min(n, pairs_checked)):
            armed = packed[j] | guard
            # theta <= eta coordinatewise is decided without a search
            left = [i for i in range((pairs_checked - j + n - 1) // n)
                    if (armed - packed[i]) & guard != guard]
            if not left:
                continue
            support = _support(span[j])
            if support not in least:
                F = least_admissible_support(sides, support)
                least[support] = F, layout.pack(
                    [0 if F >> k & 1 else layout.mask for k in range(pres.dim)])
            F, off = least[support]
            # a theta that sticks out of F is refuted
            left = [i for i in left if not packed[i] & off]
            if not left:
                continue
            if F not in values:
                rays = _cone_generators(pres, F)
                values[F] = None if rays is None else [tuple([
                    sum(map(operator.mul, ray, vec)) for ray in rays]) for vec in span]
            table = values[F]
            if table is None:
                left = [i for i in left
                        if _separator_on_support(pres, F, span[i], span[j]) is None]
            else:
                at_eta = table[j]
                left = [i for i in left if not any(map(operator.gt, table[i], at_eta))]
            if left:
                unknown += len(_dominate(_SearchTree(packed[j]), layout,
                                         [packed[i] for i in left], budget)[1])
    return UnperforationSweep(None, pairs_checked, unknown, n * n > pairs_checked)

