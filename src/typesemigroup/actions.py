"""Finite group actions as explicit groupoid models.

An action is a finite point set together with generating permutations.  The
associated groupoid has one arrow (t, x) per group element t and point x,
with source x and range t.x.  These models serve as ground truth: the
orbit-sum oracle decides class equality directly, the brute-force procedure
produces witness bisections matching the defining decomposition identity,
and the induced monoid presentation ties the models to the generic decision
engine.

The orbit index (the orbit root of each point) depends on the generators
alone, so a `FiniteGroupAction` derives it once, when it is constructed, as a
private field outside equality, hashing and repr; `orbits`, the oracle and
the brute-force decider read it and validate only their vectors per call.
The transporters the brute-force decider needs for its witnesses are built
per EQUIV call, because most uses of an action never ask for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .errors import (
    BAD_REFERENCE,
    DIMENSION_MISMATCH,
    GROUP_TOO_LARGE,
    NOT_A_PERMUTATION,
    InputError,
    negative_entry,
    non_integral_entry,
    require_int,
)
from .monoid import MonoidPresentation, Move, build_presentation, unit_vector

Perm = tuple[int, ...]  # index-based one-line notation

DEFAULT_CLOSURE_CAP = 5040


@dataclass(frozen=True)
class FiniteGroupAction:
    points: tuple[Any, ...]
    generators: tuple[Perm, ...]
    _roots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_roots", tuple(_orbit_index(self)))

    @property
    def degree(self) -> int:
        return len(self.points)


def build_action(points: Sequence[Any], generators: Sequence[Sequence[Any]]) -> FiniteGroupAction:
    """Validate an action given by one-line images over the declared points.

    The points and each generator's images are lists, never a string, whose
    characters would otherwise be read as points; the points are hashable,
    and each image is one of the points, of the same type."""
    if isinstance(points, str):
        raise InputError(BAD_REFERENCE, f"points must be a list, got {points!r}")
    pts = tuple(points)
    try:
        index = {p: i for i, p in enumerate(pts)}
    except TypeError:
        raise InputError(BAD_REFERENCE, f"points must be hashable, got {points!r}") from None
    if not pts or len(index) != len(pts):
        raise InputError(BAD_REFERENCE, "points must be nonempty and distinct")
    gens = []
    for g in generators:
        if isinstance(g, str):
            raise InputError(BAD_REFERENCE, f"generator must be a list of points, got {g!r}")
        if len(g) != len(pts):
            raise InputError(
                NOT_A_PERMUTATION, "generator image list has wrong length", length=len(g)
            )
        try:
            images = tuple(index[x] for x in g)
        except KeyError as bad:
            raise InputError(BAD_REFERENCE, f"generator maps to unknown point {bad}") from None
        except TypeError:
            raise InputError(BAD_REFERENCE, f"generator has an unhashable image: {g!r}") from None
        # an image equal to a point of another type (True to 1) is not that point
        for x, i in zip(g, images):
            if type(x) is not type(pts[i]):
                raise InputError(BAD_REFERENCE, f"generator maps to unknown point {x!r}")
        if len(set(images)) != len(images):
            raise InputError(NOT_A_PERMUTATION, "generator is not a bijection")
        gens.append(images)
    return FiniteGroupAction(pts, tuple(gens))


def _compose(p: Perm, q: Perm) -> Perm:
    """(p after q)(i) = p[q[i]]."""
    return tuple(p[qi] for qi in q)


def _inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def closure(action: FiniteGroupAction, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[Perm, ...]:
    """The generated permutation group, breadth-first from the identity.

    Raises GROUP_TOO_LARGE when more than `cap` elements appear.
    """
    ident = tuple(range(action.degree))
    elements = {ident: None}
    frontier = [ident]
    gens = list(action.generators)
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                new = _compose(g, el)
                if new not in elements:
                    if len(elements) + 1 > cap:
                        raise InputError(
                            GROUP_TOO_LARGE,
                            f"group closure exceeds cap {cap}",
                            cap=cap,
                        )
                    elements[new] = None
                    nxt.append(new)
        frontier = nxt
    return tuple(elements)


@dataclass(frozen=True)
class OrbitPartition:
    blocks: tuple[tuple[Any, ...], ...]
    minimal: bool


def _orbit_index(action: FiniteGroupAction) -> list[int]:
    """Orbit id per point index (the smallest member index); built once per
    action, by `FiniteGroupAction.__post_init__`."""
    n = action.degree
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in action.generators:
        for x in range(n):
            rx, ry = find(x), find(g[x])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


def orbits(action: FiniteGroupAction) -> OrbitPartition:
    blocks: dict[int, list[int]] = {}
    for x, r in enumerate(action._roots):
        blocks.setdefault(r, []).append(x)
    ordered = [blocks[r] for r in sorted(blocks)]
    return OrbitPartition(
        blocks=tuple(tuple(action.points[i] for i in blk) for blk in ordered),
        minimal=len(ordered) == 1,
    )


def oracle_equiv(action: FiniteGroupAction, f: Sequence[int], g: Sequence[int]) -> bool:
    """Independent class-equality oracle: equal coordinate sums on every orbit."""
    n = action.degree
    if len(f) != n or len(g) != n:
        raise InputError(DIMENSION_MISMATCH, "vectors must be indexed by the points")
    roots = action._roots
    sums: dict[int, int] = {}
    for x in range(n):
        fx, gx = f[x], g[x]
        if type(fx) is not int:  # also rejects bool
            raise non_integral_entry(fx)
        if type(gx) is not int:
            raise non_integral_entry(gx)
        if fx < 0 or gx < 0:
            raise negative_entry(fx if fx < 0 else gx)
        r = roots[x]
        sums[r] = sums.get(r, 0) + fx - gx
    return all(v == 0 for v in sums.values())


@dataclass(frozen=True)
class Bisection:
    """A set of arrows with injective range and injective source maps."""

    arrows: tuple[tuple[Perm, int], ...]

    def sources(self) -> tuple[int, ...]:
        return tuple(x for (_, x) in self.arrows)

    def ranges(self) -> tuple[int, ...]:
        return tuple(t[x] for (t, x) in self.arrows)

    def is_valid(self) -> bool:
        srcs = self.sources()
        rngs = self.ranges()
        return len(set(srcs)) == len(self.arrows) == len(set(rngs))


EQUIV = "equiv"
NOT_EQUIV = "not_equiv"
TOO_LARGE = "too_large"


@dataclass(frozen=True)
class BruteforceOutcome:
    verdict: str
    witnesses: tuple[Bisection, ...] | None = None


def _transporters(action: FiniteGroupAction) -> list[Perm]:
    """For each point x, a group element carrying the orbit root to x."""
    n = action.degree
    ident = tuple(range(n))
    trans: list[Perm | None] = [None] * n
    roots = action._roots
    for x in range(n):
        if roots[x] == x:
            trans[x] = ident
    frontier = [x for x in range(n) if roots[x] == x]
    while frontier:
        nxt = []
        for x in frontier:
            for g in action.generators:
                for h in (g, _inverse(g)):
                    y = h[x]
                    if trans[y] is None:
                        trans[y] = _compose(h, trans[x])
                        nxt.append(y)
        frontier = nxt
    return trans  # type: ignore[return-value]


def bruteforce_equiv(
    action: FiniteGroupAction,
    f: Sequence[int],
    g: Sequence[int],
    cap: int = 4096,
) -> BruteforceOutcome:
    """Decide class equality by decomposing into unit indicators.

    f and g are split into single-point units; units are matched orbit by
    orbit, and every matched pair (x, y) yields a singleton witness bisection
    {(t, x)} with t.x = y.  The full witness family satisfies
    f = sum of source indicators and g = sum of range indicators, exactly.
    """
    n = action.degree
    if len(f) != n or len(g) != n:
        raise InputError(DIMENSION_MISMATCH, "vectors must be indexed by the points")
    for x in (*f, *g):
        if type(x) is not int:  # also rejects bool
            raise non_integral_entry(x)
        if x < 0:
            raise negative_entry(x)
    if n > cap or sum(f) > cap or sum(g) > cap:
        return BruteforceOutcome(TOO_LARGE)
    roots = action._roots
    by_orbit_f: dict[int, list[int]] = {}
    by_orbit_g: dict[int, list[int]] = {}
    for x in range(n):
        by_orbit_f.setdefault(roots[x], []).extend([x] * f[x])
        by_orbit_g.setdefault(roots[x], []).extend([x] * g[x])
    for r in sorted(by_orbit_f):
        if len(by_orbit_f[r]) != len(by_orbit_g[r]):
            return BruteforceOutcome(NOT_EQUIV)
    trans = _transporters(action)
    witnesses = []
    for r in sorted(by_orbit_f):
        for x, y in zip(by_orbit_f[r], by_orbit_g[r]):
            t = _compose(trans[y], _inverse(trans[x]))
            witnesses.append(Bisection(arrows=((t, x),)))
    return BruteforceOutcome(EQUIV, witnesses=tuple(witnesses))


def _is_point(v: Any, n: int) -> bool:
    return type(v) is int and 0 <= v < n  # also rejects bool


def verify_witnesses(
    action: FiniteGroupAction,
    f: Sequence[int],
    g: Sequence[int],
    witnesses: Sequence[Bisection],
    check_membership: bool = False,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> bool:
    """Check the defining sums and bisection validity by direct substitution.

    f and g must be vectors of `int` entries (no `bool`) indexed by the
    points, every witness a `Bisection` whose arrows are a tuple of pairs,
    and every arrow (t, x) must pair a permutation tuple t of the point
    indices with a point index x.  Malformed witnesses answer False.
    """
    n = action.degree
    f, g = tuple(f), tuple(g)
    if any(type(x) is not int for x in (*f, *g)):
        return False
    fsum = [0] * n
    gsum = [0] * n
    for bis in witnesses:
        if not (isinstance(bis, Bisection) and type(bis.arrows) is tuple):
            return False
        for arrow in bis.arrows:
            if not (type(arrow) is tuple and len(arrow) == 2):
                return False
            t, x = arrow
            if not (type(t) is tuple and all(_is_point(v, n) for v in t)
                    and sorted(t) == list(range(n)) and _is_point(x, n)):
                return False
        if not bis.is_valid():
            return False
        for (t, x) in bis.arrows:
            fsum[x] += 1
            gsum[t[x]] += 1
    if tuple(fsum) != f or tuple(gsum) != g:
        return False
    if check_membership:
        group = set(closure(action, cap))
        for bis in witnesses:
            for (t, _) in bis.arrows:
                if t not in group:
                    return False
    return True


def transformation_presentation(action: FiniteGroupAction) -> MonoidPresentation:
    """Moves delta_x <-> delta_{g.x} per point and generator, deduped up to symmetry."""
    n = action.degree
    moves = []
    seen = set()
    for x in range(n):
        for g in action.generators:
            y = g[x]
            key = (min(x, y), max(x, y))
            if key in seen:
                continue
            seen.add(key)
            moves.append(Move(unit_vector(n, x), unit_vector(n, y)))
    return build_presentation(n, moves)


def stabilize(action: FiniteGroupAction, n: int) -> FiniteGroupAction:
    """Product with the full equivalence relation on n copies.

    Points are (p, i) for i = 1..n; the original generators act on the first
    coordinate and, for n > 1, an n-cycle on the copy index makes each fibre
    a single class.  Orbits are exactly (orbit of p) x {1..n}.  `n` is an
    `int` >= 1.
    """
    require_int("n", n)
    if n < 1:
        raise InputError(DIMENSION_MISMATCH, "need n >= 1", n=n)
    pts = tuple((p, i) for p in action.points for i in range(1, n + 1))
    index = {pt: k for k, pt in enumerate(pts)}
    gens = []
    for g in action.generators:
        gens.append(
            tuple(index[(action.points[g[action.points.index(p)]], i)] for (p, i) in pts)
        )
    if n > 1:
        gens.append(tuple(index[(p, i % n + 1)] for (p, i) in pts))
    return FiniteGroupAction(pts, tuple(gens))


def orbit_fingerprint(action: FiniteGroupAction) -> int:
    """Isomorphism invariant of the orbit-sum monoid: the number of orbits."""
    return len(orbits(action).blocks)
