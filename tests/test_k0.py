"""Ground truth for graph verdicts from the K_0 group.

Take a 1-graph E on finitely many vertices, every row nonzero
(`validate_kgraph`), that is cofinal and satisfies condition (L), which for
k = 1 the two `structural_checks` proxies decide exactly.  Its Leavitt path
algebra is then purely infinite simple (Abrams and Aranda Pino, J. Pure
Appl. Algebra 207, 2006), so the nonzero elements of its monoid of
idempotents form a group (Ara, Goodearl and Pardo, K-Theory 26, 2002), and
that monoid is the graph monoid M_E (Ara, Moreno and Pardo, Algebr.
Represent. Theory 10, 2007).  The group is Z^n / L, L the integer row span
of I - A: the moves e_v -> row v of A differ by the rows of I - A.  So for
nonzero f and g, f ~ g exactly when f - g lies in L, and f <= g always.

Lattice membership is decided by the tests' row Hermite form
(`test_monoid._hermite_rows`), never by the library's separators or its
diagonal form.  A presentation built from A^t in place of A still replays
its own certificates, but breaks this.
"""

import random

import typesemigroup as ts

from test_monoid import _hermite_rows, _in_row_lattice


def _purely_infinite_simple_graph(rng):
    """A 1-graph on 1-4 vertices that passes both structural proxies."""
    while True:
        n = rng.randint(1, 4)
        mat = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
        if not all(any(row) for row in mat):
            continue
        model = ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])
        report = ts.structural_checks(model)
        if report.cofinal and report.condition_L:
            return model, mat


def _nonzero(rng, n):
    while True:
        f = tuple(rng.randint(0, 2) for _ in range(n))
        if any(f):
            return f


def test_graph_verdicts_agree_with_k0():
    rng = random.Random(2027)
    budget = ts.SearchBudget(500, 32)
    definite = {True: 0, False: 0}
    unknown = {"equiv": 0, "leq": 0, "paradox": 0}
    for _ in range(400):
        model, mat = _purely_infinite_simple_graph(rng)
        n = model.dim
        p = ts.presentation_from_kgraph(model)
        lattice = _hermite_rows([[int(v == w) - mat[v][w] for w in range(n)]
                                 for v in range(n)], n)
        for _ in range(5):
            f, g = _nonzero(rng, n), _nonzero(rng, n)
            out = ts.decide_equiv(p, f, g, budget)
            if out.is_unknown:
                unknown["equiv"] += 1
            else:
                expected = _in_row_lattice([a - b for a, b in zip(f, g)], lattice)
                assert out.is_equiv == expected, (mat, f, g, out)
                definite[expected] += 1
            leq = ts.decide_leq(p, f, g, budget)
            assert not leq.is_not_equiv, (mat, f, g, leq)
            unknown["leq"] += leq.is_unknown
            paradox = ts.kl_paradoxical(p, f, 2, 1, budget)
            assert not paradox.is_not_equiv, (mat, f, paradox)
            unknown["paradox"] += paradox.is_unknown
    # 1022 EQUIV and 936 NOT_EQUIV verdicts agree with the lattice; 42
    # decide_equiv, 1 decide_leq and 23 paradox calls are UNKNOWN.  A search
    # that decides more may lower these bounds, never raise them
    assert definite[True] > 900 and definite[False] > 800
    assert unknown["equiv"] <= 42 and unknown["leq"] <= 1 and unknown["paradox"] <= 23, unknown
