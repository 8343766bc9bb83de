"""The invariant cone on an admissible support, exactly.

An order separator, a state (`states.solve_state_at`) and a positive
invariant vector are the same kind of object: a c >= 0 on a support F,
invariant under every move inside F, infinite off F and normalised.  F is
admissible when every move has both sides inside F or both sticking out
(`least_admissible_support`); then c, infinite off F, is invariant under
every move.

When the left side of every move inside F is a unit vector e_v and every
vertex of F has the same number of moves inside F, as on a k-graph
presentation, the j-th moves of the vertices of F are the rows of a
nonnegative integer matrix B_j, and the cone is {c >= 0 : c = B_j c for
every j}.  `_cone_generators` gives its integral generators.  It starts
from the rays of B_1 and takes the other colours in turn.  Each generator
r_i has a marker, a vertex where it is 1 and every other generator is 0, so
the coefficients of B_j r_i on the generators are read off at the markers,
and B_j r_i = sum_l N_li r_l is then checked by integer substitution.  A
c = sum_i y_i r_i solves c = B_j c exactly when y = N y, whose nonnegative
solutions are generated by one integral ray per distinguished class of N
(Frobenius-Victory: H. Schneider, Linear Algebra Appl. 84, 1986;
`_distinguished_rays`), and the sums y . r are the next generators.  When
the B_j commute, as the matrices of a k-graph do (Kumjian and Pask, New
York J. Math. 6, 2000), each B_j r_i lies in the cone of the r_l and the
check passes, so a k-graph support always has generators.  Where the check
fails there are none.  So the generators, when given, are exact even for
matrices that do not commute, and each is checked nonnegative and invariant
under every move inside F before it is returned, or `ConsistencyError` is
raised.

The generators depend on the moves alone, so each (presentation, support)
pair is built once, by whichever query asks first, and kept on the
presentation (`MonoidPresentation._cones`, which no other module reads or
writes) as tuples.  A build that raises keeps nothing.  States and positive
invariant vectors are read off them (`states`), with no LP.

An order separator is a c with c.gap > 0, read off the same generators by
`_cone_solution`: the first generator positive on the gap, or none when no
generator is, with no LP.  So the separator every k-graph query prints is
decided here, by generator order.  Only a support without generators,
which no k-graph presentation has, solves one exact feasibility LP, whose
point is scaled to primitive integers.  The substitution checks guarantee that every
generator lies in the cone, and that each step's generators are the
combinations y . r of the last step's for the rays y of N.  That the rays
of each matrix generate all of its nonnegative fixed vectors is the
Frobenius-Victory theorem, which `_distinguished_rays` implements and no
check covers: a ray it missed would refute a gap or a state wrongly, and
for a state nothing downstream would notice, since "no state" carries no
certificate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import ConsistencyError
from .linalg import primitive_integer
from .simplex import OPTIMAL, solve_lp

if TYPE_CHECKING:
    from .monoid import MonoidPresentation

INFINITY = float("inf")


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


def _cone_solution(pres: MonoidPresentation, F: int, gap: dict[int, int]) -> tuple | None:
    """A c >= 0 on F, invariant under every move inside F, with c.gap > 0,
    `gap` a map from vertices of F to nonzero coefficients.  Returns its
    values, primitive integers on F and INFINITY off it, or None when there
    is none.

    Where the cone has generators (`_cone_generators`), c is the first of
    them with c.gap > 0: a c in the cone is a nonnegative combination of
    them, so none exists when no generator is positive on the gap.  No LP
    is solved.  Only on a support without generators does one exact
    feasibility LP decide: one column per vertex of F, ascending, then a
    slack; one row lhs - rhs == 0 per move inside F (zero rows dropped),
    then c.gap - slack == 1.  Its Phase I point, scaled to primitive
    integers, is c.
    """
    gens = _cone_generators(pres, F)
    if gens is None:
        support, inside = _support_and_inside(pres, F)
        A = [row + [0] for row in (
            [mv.lhs[i] - mv.rhs[i] for i in support] for mv, _ in inside) if any(row)]
        A.append([gap.get(i, 0) for i in support] + [-1])
        sol = solve_lp(A, [0] * (len(A) - 1) + [1], [0] * (len(support) + 1))
        if sol.status != OPTIMAL:
            return None
        x = iter(primitive_integer(sol.x[:-1]))
        return tuple(next(x) if F >> i & 1 else INFINITY for i in range(pres.dim))
    ray = next((r for r in gens if sum(r[v] * c for v, c in gap.items()) > 0), None)
    return None if ray is None else tuple(c if F >> i & 1 else INFINITY for i, c in enumerate(ray))


def _support_and_inside(pres: MonoidPresentation, F: int) -> tuple[list[int], list]:
    """The vertices of F, ascending, and the moves inside F with the
    supports of their left sides, in move order."""
    return ([i for i in range(pres.dim) if F >> i & 1],
            [(mv, ls) for mv, ls, rs in zip(pres.moves, *pres._supports) if not (ls | rs) & ~F])


def _cone_generators(pres: MonoidPresentation, F: int) -> tuple | None:
    """The integral generators of {c >= 0 on F : c invariant under every
    move inside F}, as a tuple of vectors of length `pres.dim`, 0 off F.

    They are None when the left side of some move inside F is not a unit
    vector e_v with coefficient 1, when the vertices of F do not all have
    the same number of moves inside F, or when some B_j r_i is not the
    combination of the generators read off at their markers.

    They depend on the moves alone, so they are built once per presentation
    and support and kept in `pres._cones`, a flat tuple of (F, generators)
    entries, which is looked up first; a build that raises keeps nothing.
    Only the generators are kept: a caller that needs the vertices of F or
    the moves inside it builds them (`_support_and_inside`).
    """
    entries = iter(pres._cones)
    for key, gens in zip(entries, entries):
        if key == F:
            return gens
    gens = _build_generators(pres.dim, *_support_and_inside(pres, F))
    object.__setattr__(pres, "_cones", pres._cones + (F, gens))
    return gens


def _build_generators(dim: int, support: list[int], inside) -> tuple | None:
    """`_cone_generators`' generators, built afresh."""
    moved: dict[int, list] = {v: [] for v in support}
    for mv, ls in inside:
        if not ls or ls & (ls - 1) or mv.lhs[ls.bit_length() - 1] != 1:
            return None
        moved[ls.bit_length() - 1].append(mv.rhs)
    # the j-th move of every vertex of F, up to the least number of moves
    matrices = [dict(zip(support, B)) for B in zip(*moved.values())]
    if len(inside) != len(matrices) * len(support):
        return None
    # (marker, generator): the rays of B_1, or the unit vectors of F
    gens = list(_distinguished_rays(matrices[0], support)) if matrices else [
        (v, {v: 1}) for v in support]
    for B in matrices[1:]:
        images = [{v: x for v in support if (x := sum(B[v][w] * c for w, c in r.items()))}
                  for _, r in gens]
        N = [[image.get(marker, 0) for image in images] for marker, _ in gens]
        if any(image != _combination(gens, {l: row[i] for l, row in enumerate(N) if row[i]})
               for i, image in enumerate(images)):
            return None
        gens = [(gens[i][0], _combination(gens, y))
                for i, y in _distinguished_rays(N, list(range(len(gens))))]
    for _, r in gens:
        if min(r.values(), default=0) < 0 or any(
                sum(c * (mv.lhs[w] - mv.rhs[w]) for w, c in r.items()) for mv, _ in inside):
            raise ConsistencyError("cone generator is not nonnegative and invariant")
    return tuple(tuple(r.get(v, 0) for v in range(dim)) for _, r in gens)


def _combination(gens, y: dict[int, int]) -> dict[int, int]:
    """sum_i y_i r_i over the generators (marker, r_i), by nonzero entries."""
    out: dict[int, int] = {}
    for i, yi in y.items():
        for v, c in gens[i][1].items():
            out[v] = out.get(v, 0) + yi * c
    return {v: c for v, c in out.items() if c}


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


def _distinguished_rays(B, support: list[int]):
    """The integral generators of { c >= 0 : c = B c } on `support`, as
    (marker, {vertex: value}) pairs of their nonzero entries, one per
    distinguished class, whose least vertex is the marker.

    A strongly connected class C is distinguished when B restricted to C has
    spectral radius 1, which for an integer matrix means every row sum
    inside C is 1, and every other class with access to C has spectral
    radius 0, which means it is one vertex without a loop.  Its ray is 1 on
    C, B c on the vertices with access to C, filled in from C upwards, and 0
    elsewhere.  No other distinguished class has access to C, so the marker
    is 0 in every other ray.
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
        yield v, ray
