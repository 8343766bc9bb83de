"""Directed-graph and k-graph models and their monoid presentations.

A directed graph is stored with edges as (range, source) pairs; its
adjacency matrix counts A[v][w] = number of edges with range v and source w,
and all reachability below follows edges from range to source.  A k-graph
model is a vertex set with k pairwise commuting nonnegative adjacency
matrices; rows must be nonzero (no sources).

The vertex-count transfer operator is theta(n, f) = (A^n)^t f.  The
presentation of the associated commutative monoid has one move per vertex
and matrix, identifying the vertex basis vector with its transfer image.  A
k-graph model carries its presentation: it is derived once, when the model
is constructed, and every decider, state solver and verifier reads it.
Cylinder calculus on path space is provided for ordinary graphs: depth
normalization splits a cylinder along all one-edge extensions, and the class
map sends a union of same-depth cylinders to the sum of the source vertex
basis vectors.  The structural checks read the access relation of the sum
of a model's matrices: for k = 1 that is the graph itself, for k >= 2 its
one-coloured skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    BAD_REFERENCE,
    DIMENSION_MISMATCH,
    NEGATIVE_ENTRY,
    NONCOMMUTING_MATRICES,
    NONCOMPOSABLE_WORD,
    NON_INTEGRAL_ENTRY,
    OVERLAPPING_CYLINDERS,
    ROW_ZERO,
    InputError,
    non_integral_entry,
    require_int,
)
from .monoid import MonoidPresentation, Move, Vector, _access_masks, build_presentation, unit_vector

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Edge:
    id: str
    range: str
    source: str


@dataclass(frozen=True)
class DirectedGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise InputError(BAD_REFERENCE, f"unknown vertex {v!r}", vertex=v) from None

    def edge_by_id(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise InputError(BAD_REFERENCE, f"unknown edge {eid!r}", edge=eid)

    def edges_with_range(self, v: str) -> list[Edge]:
        return [e for e in self.edges if e.range == v]


def build_graph(vertices: Sequence[str], edges: Iterable) -> DirectedGraph:
    """Validate a directed graph: nonempty unique ids, resolvable endpoints,
    no sources."""
    verts = tuple(str(v) for v in vertices)
    if not verts or len(set(verts)) != len(verts):
        raise InputError(BAD_REFERENCE, "vertex ids must be nonempty and unique")
    built = []
    seen_ids = set()
    for e in edges:
        if isinstance(e, Edge):
            eid, rng, src = e.id, e.range, e.source
        elif isinstance(e, dict):
            try:
                eid, rng, src = e["id"], e["range"], e["source"]
            except KeyError as k:
                raise InputError(BAD_REFERENCE, f"edge missing field {k}") from None
        elif isinstance(e, (tuple, list)) and len(e) == 3:
            eid, rng, src = e
        else:
            raise InputError(BAD_REFERENCE, f"malformed edge entry {e!r}")
        eid, rng, src = str(eid), str(rng), str(src)
        if eid in seen_ids:
            raise InputError(BAD_REFERENCE, f"duplicate edge id {eid!r}", edge=eid)
        seen_ids.add(eid)
        if rng not in verts or src not in verts:
            raise InputError(
                BAD_REFERENCE, f"edge {eid!r} references unknown vertex", edge=eid
            )
        built.append(Edge(eid, rng, src))
    graph = DirectedGraph(verts, tuple(built))
    for v in verts:
        if not graph.edges_with_range(v):
            raise InputError(ROW_ZERO, f"vertex {v!r} is not the range of any edge", vertex=v)
    return graph


def graph_adjacency(graph: DirectedGraph) -> Matrix:
    n = len(graph.vertices)
    idx = {v: i for i, v in enumerate(graph.vertices)}
    rows = [[0] * n for _ in range(n)]
    for e in graph.edges:
        rows[idx[e.range]][idx[e.source]] += 1
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class KGraphModel:
    """k commuting adjacency matrices on named vertices.

    `__post_init__` derives the monoid presentation once; like
    `MonoidPresentation._unit` it is a private field outside `==`, `hash`
    and `repr`, and `presentation_from_kgraph` returns it.
    """

    k: int
    vertices: tuple[str, ...]
    matrices: tuple[Matrix, ...]
    _presentation: MonoidPresentation = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_presentation", _kgraph_presentation(self))

    @property
    def dim(self) -> int:
        return len(self.vertices)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def validate_kgraph(vertices: Sequence[str], matrices: Sequence[Sequence[Sequence[int]]]) -> KGraphModel:
    """Check shapes, nonnegativity, nonzero rows, and exact pairwise commutation."""
    verts = tuple(str(v) for v in vertices)
    if not verts or len(set(verts)) != len(verts):
        raise InputError(BAD_REFERENCE, "vertex ids must be nonempty and unique")
    n = len(verts)
    k = len(matrices)
    if k < 1:
        raise InputError(DIMENSION_MISMATCH, "need at least one adjacency matrix")
    mats: list[Matrix] = []
    for i, m in enumerate(matrices):
        if len(m) != n or any(len(row) != n for row in m):
            raise InputError(
                DIMENSION_MISMATCH, f"matrix {i} is not {n}x{n}", matrix=i
            )
        rows = []
        for vi, row in enumerate(m):
            row = tuple(row)
            for x in row:
                if type(x) is not int:  # also rejects bool
                    raise InputError(
                        NON_INTEGRAL_ENTRY,
                        f"matrix {i} row {vi} has a non-integer entry {x!r}",
                        entry=repr(x),
                        matrix=i,
                    )
            if any(x < 0 for x in row):
                raise InputError(NEGATIVE_ENTRY, f"matrix {i} row {vi} has a negative entry")
            if not any(row):
                raise InputError(
                    ROW_ZERO,
                    f"matrix {i} row for vertex {verts[vi]!r} is zero",
                    vertex=verts[vi],
                    matrix=i,
                )
            rows.append(row)
        mats.append(tuple(rows))
    for i in range(k):
        for j in range(i + 1, k):
            if _mat_mul(mats[i], mats[j]) != _mat_mul(mats[j], mats[i]):
                raise InputError(
                    NONCOMMUTING_MATRICES,
                    f"matrices {i} and {j} do not commute",
                    i=i,
                    j=j,
                )
    return KGraphModel(k=k, vertices=verts, matrices=tuple(mats))


def kgraph_from_graph(graph: DirectedGraph) -> KGraphModel:
    return validate_kgraph(graph.vertices, [graph_adjacency(graph)])


def adjacency_power(model: KGraphModel, p: Sequence[int]) -> Matrix:
    """A^p = prod_i A_i^{p_i}; the factors commute so the order is immaterial."""
    if len(p) != model.k:
        raise InputError(DIMENSION_MISMATCH, f"power vector must have length {model.k}")
    for x in p:
        if type(x) is not int:  # also rejects bool
            raise InputError(
                NON_INTEGRAL_ENTRY, f"power entry {x!r} is not an integer", entry=repr(x)
            )
        if x < 0:
            raise InputError(NEGATIVE_ENTRY, "power vector must be componentwise nonnegative")
    out = _identity(model.dim)
    for mat, e in zip(model.matrices, p):
        for _ in range(e):
            out = _mat_mul(out, mat)
    return out


def theta(model: KGraphModel, n: Sequence[int], f: Sequence[int]) -> Vector:
    """Transfer operator: theta(n, f) = (A^n)^t f, counting weighted paths in."""
    if len(f) != model.dim:
        raise InputError(DIMENSION_MISMATCH, "vector length does not match vertex count")
    for x in f:
        if type(x) is not int:  # also rejects bool
            raise non_integral_entry(x)
    power = adjacency_power(model, n)
    return tuple(
        sum(power[v][w] * f[v] for v in range(model.dim))
        for w in range(model.dim)
    )


def _kgraph_presentation(model: KGraphModel) -> MonoidPresentation:
    """One move per (vertex, matrix): the vertex class equals its transfer image."""
    moves = []
    for vi in range(model.dim):
        lhs = unit_vector(model.dim, vi)
        for mat in model.matrices:
            moves.append(Move(lhs, tuple(mat[vi])))
    return build_presentation(model.dim, moves)


def presentation_from_kgraph(model: KGraphModel) -> MonoidPresentation:
    """The model's presentation, derived when the model was constructed."""
    return model._presentation


def relabel_kgraph(model: KGraphModel, perm: Sequence[int]) -> KGraphModel:
    """Apply a vertex permutation: vertex i of the result is vertex perm[i].

    The entries of `perm` must be `int`s (a `bool` is not one).
    """
    if any(type(p) is not int for p in perm) or sorted(perm) != list(range(model.dim)):
        raise InputError(BAD_REFERENCE, "not a permutation of the vertex indices")
    verts = tuple(model.vertices[p] for p in perm)
    mats = tuple(
        tuple(tuple(mat[pi][pj] for pj in perm) for pi in perm) for mat in model.matrices
    )
    return KGraphModel(k=model.k, vertices=verts, matrices=mats)


# ---------------------------------------------------------------------------
# cylinder calculus on path space (ordinary graphs only)


@dataclass(frozen=True)
class PathWord:
    """A finite path e1..en with s(e_i) = r(e_{i+1}); n = 0 words are vertices."""

    range: str
    source: str
    edges: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)


def vertex_word(graph: DirectedGraph, vertex: str) -> PathWord:
    graph.vertex_index(vertex)
    return PathWord(vertex, vertex, ())


def path_word(graph: DirectedGraph, edge_ids: Sequence[str]) -> PathWord:
    if not edge_ids:
        raise InputError(NONCOMPOSABLE_WORD, "empty edge list; use vertex_word")
    edges = [graph.edge_by_id(str(e)) for e in edge_ids]
    for a, b in zip(edges, edges[1:]):
        if a.source != b.range:
            raise InputError(
                NONCOMPOSABLE_WORD,
                f"edges {a.id!r} and {b.id!r} do not compose",
                left=a.id,
                right=b.id,
            )
    return PathWord(edges[0].range, edges[-1].source, tuple(e.id for e in edges))


@dataclass(frozen=True)
class CylinderUnion:
    depth: int
    words: tuple[PathWord, ...]


def _extend_to_depth(graph: DirectedGraph, word: PathWord, depth: int) -> list[PathWord]:
    out = [word]
    while len(out[0]) < depth:
        nxt = []
        for w in out:
            for e in graph.edges_with_range(w.source):
                nxt.append(PathWord(w.range, e.source, w.edges + (e.id,)))
        out = nxt
    return out


def cylinder_normalize(
    graph: DirectedGraph,
    words: Sequence[PathWord],
    strict: bool = False,
    depth: int | None = None,
) -> CylinderUnion:
    """Split every cylinder to a common depth and form the union.

    The target depth defaults to the longest input word; a larger `depth`,
    an `int`, may be requested.  Duplicates after splitting mean the inputs
    overlapped (one word extended another, or a word repeated); in strict
    mode that is an error, otherwise the duplicates are silently merged.
    """
    longest = max((len(w) for w in words), default=0)
    depth = longest if depth is None else depth
    require_int("depth", depth)
    if depth < longest:
        raise InputError(
            OVERLAPPING_CYLINDERS,
            f"requested depth {depth} is below the longest input word ({longest})",
        )
    seen: dict[PathWord, None] = {}
    overlapped = False
    for w in words:
        for ext in _extend_to_depth(graph, w, depth):
            if ext in seen:
                overlapped = True
            else:
                seen[ext] = None
    if strict and overlapped:
        raise InputError(OVERLAPPING_CYLINDERS, "input cylinders overlap")
    return CylinderUnion(depth=depth, words=tuple(seen))


def class_of_cylinders(graph: DirectedGraph, union: CylinderUnion) -> Vector:
    """Monoid class of the union: the sum of source-vertex basis vectors."""
    n = len(graph.vertices)
    idx = {v: i for i, v in enumerate(graph.vertices)}
    out = [0] * n
    for w in union.words:
        out[idx[w.source]] += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# structural checks


@dataclass(frozen=True)
class StructuralReport:
    cofinal: bool
    condition_L: bool
    strongly_connected: bool
    cyclic_sccs: tuple[tuple[str, ...], ...]


def structural_checks(model: KGraphModel) -> StructuralReport:
    """Cofinality and cycle-exit checks on the sum A of the model's matrices.

    Everything is read off the access relation of A: v has access to w when
    a path runs from v to w (edges run from range to source), and the
    strongly connected classes are its symmetric part.  Cofinal: every
    vertex has access to every class containing a cycle.  Condition (L): no
    cyclic class all of whose vertices have exactly one outgoing edge, which
    would be a cycle without an exit.  The classes are listed in the order
    Tarjan's algorithm emits them from a depth-first search with roots and
    successors ascending: a class is complete when its first-visited vertex
    finishes, which is the last of its vertices to finish.
    """
    n = model.dim
    A = [[sum(col) for col in zip(*rows)] for rows in zip(*model.matrices)]
    succ = [[w for w in range(n) if A[v][w]] for v in range(n)]
    reach, cls = _access_masks(range(n), succ)
    seen = done = 0
    classes = []
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            w = next((w for w in it if not seen >> w & 1), None)
            if w is None:
                stack.pop()
                done |= 1 << v
                if not cls[v] & ~done:
                    classes.append(cls[v])
            else:
                seen |= 1 << w
                stack.append((w, iter(succ[w])))
    members = [[v for v in range(n) if C >> v & 1] for C in classes]
    cyclic = [vs for vs in members if len(vs) > 1 or A[vs[0]][vs[0]]]
    return StructuralReport(
        cofinal=all(reach[v] >> vs[0] & 1 for vs in cyclic for v in range(n)),
        condition_L=not any(all(sum(A[v]) == 1 for v in vs) for vs in cyclic),
        strongly_connected=len(classes) == 1,
        cyclic_sccs=tuple(tuple(model.vertices[v] for v in vs) for vs in cyclic),
    )
