"""A seeded sample of the library's own calls into its exact layer: the
LPs and kernel bases that `classify`, `stiemke_crosscheck`, `solve_state_at`,
the deciders and the unperforation sweep ask for on small 1-graphs and
2-graphs.  Tests wrap the exact layer's entry points and run it."""

import random

import typesemigroup as ts


def _random_model(rng):
    """A 1-graph on 1-4 vertices or, for about a third, a 2-graph whose
    second colour commutes with the first (I, the first, or the first + I)."""
    n = rng.randint(1, 4)
    while True:
        a = [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    mats = [a]
    if rng.random() < 0.35:
        mats.append(rng.choice((
            [[int(i == j) for j in range(n)] for i in range(n)],
            [row[:] for row in a],
            [[a[i][j] + int(i == j) for j in range(n)] for i in range(n)])))
    return ts.validate_kgraph([f"v{i}" for i in range(n)], mats)


def run_library_sample(seed, models=30):
    rng = random.Random(seed)
    budget = ts.SearchBudget(200, 6)
    budgets = ts.ClassifyBudgets(search=budget, unperforation_coeff=2,
                                 unperforation_max_pairs=200)
    for _ in range(models):
        model = _random_model(rng)
        n = model.dim
        p = ts.presentation_from_kgraph(model)
        ts.classify(model, budgets)
        ts.stiemke_crosscheck(model)
        for v in range(n):
            ts.solve_state_at(model, ts.unit_vector(n, v))
        for _ in range(4):
            f = tuple(rng.randint(0, 2) for _ in range(n))
            g = tuple(rng.randint(0, 2) for _ in range(n))
            ts.decide_equiv(p, f, g, budget)
            ts.decide_leq(p, f, g, budget)
        ts.almost_unperforated_up_to(p, [ts.unit_vector(n, v) for v in range(n)], 2, 4, budget)


def _generatorless_presentation(rng):
    """A presentation on 1-4 generators whose moves have non-unit left
    sides, so that cones on its supports mostly have no generators."""
    n = rng.randint(1, 4)
    moves = []
    for _ in range(rng.randint(1, 4)):
        lhs = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
        lhs[rng.randrange(n)] += 1
        if sum(lhs) == 1:
            lhs[rng.randrange(n)] += 1
        moves.append((tuple(lhs), tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))))
    return ts.build_presentation(n, moves)


def run_generatorless_sample(seed, presentations=30):
    """Order queries and sweeps on `build_presentation` presentations without
    cone generators: the traffic that still reaches the separator LP."""
    rng = random.Random(seed)
    budget = ts.SearchBudget(200, 6)
    for _ in range(presentations):
        p = _generatorless_presentation(rng)
        n = p.dim
        for _ in range(4):
            f = tuple(rng.randint(0, 2) for _ in range(n))
            g = tuple(rng.randint(0, 2) for _ in range(n))
            ts.decide_leq(p, f, g, budget)
        ts.almost_unperforated_up_to(p, [ts.unit_vector(n, v) for v in range(n)], 1, 4, budget)
