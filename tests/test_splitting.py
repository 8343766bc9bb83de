"""Ground truth for graph presentations: invariance under a row split.

Splitting row v of a 1-graph into m >= 2 nonempty parts, one new vertex per
part, and copying column v to every part gives a graph F whose graph monoid
is isomorphic to E's by phi(v) = v^1 + ... + v^m, phi(w) = w otherwise (an
out-splitting: Bates and Pask, Ergodic Theory Dynam. Systems 24, 2004;
Abrams, Louly, Pardo and Smith, J. Algebra 333, 2011).  So every definite
verdict on (f, g) over E must be the verdict on (phi f, phi g) over F.  A
presentation built from the wrong matrix (A^t for A, say) still replays its
own certificates, but breaks this.
"""

import random

import typesemigroup as ts


def row_split(mat, v, parts):
    """The matrix of E with row v split into `parts` (rows that sum to row
    v, each nonzero) and column v copied to every part, and phi.

    Part 1 keeps index v and parts 2..m are appended, in order, so phi
    copies the v entry of a vector to the appended coordinates.
    """
    n, m = len(mat), len(parts)
    if m < 2 or not all(any(p) for p in parts) or \
            [sum(c) for c in zip(*parts)] != list(mat[v]):
        raise ValueError("parts must be m >= 2 nonzero rows summing to row v")

    def widen(row):
        return list(row) + [row[v]] * (m - 1)

    split = [widen(row) for row in mat]
    for k, part in enumerate(parts):
        row = widen(part)
        if k == 0:
            split[v] = row
        else:
            split.append(row)

    def phi(f):
        return tuple(f) + (f[v],) * (m - 1)

    return split, phi


def _random_split(rng):
    """A 1-graph on 2-4 vertices, a row with at least two edges, and a
    random split of that row's edges into 2 or 3 nonempty parts."""
    while True:
        n = rng.randint(2, 4)
        mat = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
        rows = [v for v in range(n) if sum(mat[v]) >= 2]
        if all(any(row) for row in mat) and rows:
            break
    v = rng.choice(rows)
    edges = [w for w, a in enumerate(mat[v]) for _ in range(a)]
    rng.shuffle(edges)
    m = rng.randint(2, min(3, len(edges)))
    owner = list(range(m)) + [rng.randrange(m) for _ in edges[m:]]
    parts = [[0] * n for _ in range(m)]
    for w, k in zip(edges, owner):
        parts[k][w] += 1
    return mat, v, parts


def _model(mat):
    return ts.validate_kgraph([f"v{i}" for i in range(len(mat))], [mat])


def test_row_split_builds_the_split_graph():
    # two loops at one vertex, one per part: each part sees both copies
    split, phi = row_split([[2]], 0, [[1], [1]])
    assert split == [[1, 1], [1, 1]]
    assert phi((3,)) == (3, 3)
    # u -> v, v -> u, v -> v: column v (1) is copied to the new vertex
    split, phi = row_split([[0, 1], [1, 1]], 1, [[1, 0], [0, 1]])
    assert split == [[0, 1, 1], [1, 0, 0], [0, 1, 1]]
    assert phi((1, 2)) == (1, 2, 2)


def test_definite_verdicts_are_invariant_under_row_splits():
    rng = random.Random(149)
    budget = ts.SearchBudget(2000, 8)
    budgets = ts.ClassifyBudgets(search=budget)
    agree = unknown = 0
    for _ in range(150):
        mat, v, parts = _random_split(rng)
        split, phi = row_split(mat, v, parts)
        model, split_model = _model(mat), _model(split)
        p, q = ts.presentation_from_kgraph(model), ts.presentation_from_kgraph(split_model)
        n = len(mat)
        for _ in range(3):
            f = tuple(rng.randint(0, 2) for _ in range(n))
            g = tuple(rng.randint(0, 2) for _ in range(n))
            for decide in (ts.decide_equiv, ts.decide_leq):
                a, b = decide(p, f, g, budget), decide(q, phi(f), phi(g), budget)
                if a.is_unknown or b.is_unknown:
                    unknown += 1
                    continue
                assert a.verdict == b.verdict, (mat, v, parts, f, g, decide.__name__)
                agree += 1
        assert ts.classify(model, budgets).verdict == \
            ts.classify(split_model, budgets).verdict, (mat, v, parts)
    # the split graph has more vertices, so a few pairs stay UNKNOWN there
    assert agree > 850 and unknown < 30
