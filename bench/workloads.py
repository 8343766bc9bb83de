"""Seeded inputs, set-up through the public builders, and op streams.

Each workload has three parts:

* ``generate(rng, seconds)`` makes plain-data inputs from the seed.  It calls
  no library code, so it sits outside both set-up and op timing.
* ``build(ts, raw)`` turns those inputs into models and presentations through
  the public builders.  ``run.py`` times it, with the import, as ``setup_s``.
* ``units(ts, raw, built, rng)`` yields the op stream as units.  A unit is a short
  list of ops, each one call into a public library function, plus the check of
  their outputs.  The closed loop stops only after a unit marked as a boundary.

Input pools are sized from the run length, with headroom over the rates the
current library reaches on a 2-core x86-64 host under CPython 3.11; a run
that uses up its pool starts a second pass over it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import checks


@dataclass
class Unit:
    ops: list[tuple[str, tuple]]  # (public function name, positional args)
    check: Callable[[Any, list], list[bool]]  # -> per-op "undecided" flags
    boundary: bool = True  # the loop may stop after this unit


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str
    digest_units: int  # every run completes at least these; the digest covers them
    generate: Callable
    build: Callable
    units: Callable[..., Iterator[Unit]]


def _unit_vector(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _relabel(mats, perm):
    return [[[m[pi][pj] for pj in perm] for pi in perm] for m in mats]


def _pool(raw: list, built: list, rng) -> Iterator:
    """Walk the pool in order, then again in seeded order if the run outlasts it."""
    order = list(range(len(built)))
    while True:
        for i in order:
            yield raw[i], built[i]
        rng.shuffle(order)


# ---------------------------------------------------------------------------
# action-oracle: the criterion-1 stream


def _small_actions() -> list[tuple[list[int], list[list[int]]]]:
    """Every action on at most 4 points with at most 2 generators, one per move set.

    The three deciders' verdicts depend only on the set of moves
    {x, g.x}, so actions sharing it are one presentation.
    """
    reps: dict = {}
    for n in range(1, 5):
        perms = sorted(itertools.permutations(range(1, n + 1)))
        gen_sets = [()] + [(p,) for p in perms]
        gen_sets += list(itertools.combinations_with_replacement(perms, 2))
        for gens in gen_sets:
            moves = frozenset(
                (min(x, g[x] - 1), max(x, g[x] - 1)) for g in gens for x in range(n)
            )
            reps.setdefault((n, moves), (list(range(1, n + 1)), [list(g) for g in gens]))
    return list(reps.values())


PAIRS_PER_VISIT = 400


def _action_generate(rng, seconds):
    return _small_actions()


def _action_build(ts, raw):
    built = []
    for points, gens in raw:
        action = ts.build_action(points, gens)
        built.append((action, ts.transformation_presentation(action)))
    return built


def _action_units(ts, raw, built, rng):
    vectors = {n: list(itertools.product(range(3), repeat=n)) for n in range(1, 5)}
    pairs = {
        n: [(f, g) for i, f in enumerate(vs) for g in vs[i:]] for n, vs in vectors.items()
    }
    order = list(range(len(built)))
    while True:
        rng.shuffle(order)
        for i in order:
            action, pres = built[i]
            todo = pairs[action.degree]
            for f, g in rng.sample(todo, min(len(todo), PAIRS_PER_VISIT)):
                yield Unit(
                    [
                        ("oracle_equiv", (action, f, g)),
                        ("bruteforce_equiv", (action, f, g)),
                        ("decide_equiv", (pres, f, g)),
                    ],
                    lambda ts, outs, a=action, p=pres, f=f, g=g: checks.action_pair(
                        ts, a, p, f, g, outs
                    ),
                )


ACTION_ORACLE = Workload(
    name="action-oracle",
    why=(
        "about 3k queries per presentation, so it is cache-hot on the unit-move path "
        "and the orbit index; it bypasses simplex, linalg and BFS"
    ),
    inputs=(
        "the 153 move-set representatives of all actions on <= 4 points with <= 2 "
        f"generators; per visit a seeded sample of {PAIRS_PER_VISIT} vector pairs with "
        "entries <= 2; ops oracle_equiv, bruteforce_equiv, decide_equiv per pair"
    ),
    digest_units=3000,
    generate=_action_generate,
    build=_action_build,
    units=_action_units,
)


# ---------------------------------------------------------------------------
# graph-decide: fresh small graphs and commuting 2-graphs, cold queries

GRAPH_BUDGET_STATES = 1_000  # below the 200k default so one run covers thousands of queries
GRAPH_BUDGET_COORD = 64
GRAPH_MODELS_PER_S = 600


def _graph_matrix(rng, n):
    while True:
        a = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            return a


def _second_colour(rng, a):
    """A matrix commuting with a: the identity, a itself, or a + I."""
    n = len(a)
    choice = rng.randrange(3)
    if choice == 0:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if choice == 1:
        return [row[:] for row in a]
    return [[a[i][j] + int(i == j) for j in range(n)] for i in range(n)]


def _graph_generate(rng, seconds):
    """Sizes 2..5 and kind (1/3 of models are 2-graphs) follow a fixed cycle,
    so every seed has the same mix; the seed draws matrices and query vectors."""
    raw = []
    for i in range(int(seconds * GRAPH_MODELS_PER_S)):
        n = 2 + i % 4
        a = _graph_matrix(rng, n)
        mats = [a, _second_colour(rng, a)] if (i // 4) % 3 == 2 else [a]
        f = tuple(rng.randint(0, 2) for _ in range(n))
        g = tuple(rng.randint(0, 2) for _ in range(n))
        theta = tuple(rng.randint(0, 1) for _ in range(n))
        if not any(theta):
            theta = _unit_vector(n, rng.randrange(n))
        raw.append((mats, f, g, theta))
    return raw


def _graph_build(ts, raw):
    built = []
    for mats, _, _, _ in raw:
        model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats)
        built.append(ts.presentation_from_kgraph(model))
    return built


def _graph_units(ts, raw, built, rng):
    budget = ts.SearchBudget(max_states=GRAPH_BUDGET_STATES, max_coord=GRAPH_BUDGET_COORD)
    for (_, f, g, theta), pres in _pool(raw, built, rng):
        yield Unit(
            [
                ("decide_equiv", (pres, f, g, budget)),
                ("decide_leq", (pres, f, g, budget)),
                ("kl_paradoxical", (pres, theta, 2, 1, budget)),
            ],
            lambda ts, outs, p=pres, f=f, g=g, t=theta: checks.graph_model(
                ts, p, f, g, t, outs
            ),
        )


GRAPH_DECIDE = Workload(
    name="graph-decide",
    why=(
        "cache-cold: each presentation is queried 3 times; it exercises every separator "
        "and the budgeted BFS, whose UNKNOWNs set the tail, and bypasses the unit path"
    ),
    inputs=(
        "fresh 2-5 vertex graphs (entries 0..2) and commuting 2-graphs; per model one "
        f"decide_equiv, decide_leq and kl_paradoxical(.., 2, 1) at a budget of "
        f"{GRAPH_BUDGET_STATES} states, coordinates <= {GRAPH_BUDGET_COORD}"
    ),
    digest_units=1000,
    generate=_graph_generate,
    build=_graph_build,
    units=_graph_units,
)


# ---------------------------------------------------------------------------
# classify-ensemble: the end-user verdict path

ENSEMBLE_MAX_VERTICES = 8
ENSEMBLE_MODELS_PER_S = 60


def _ensemble_matrices(rng, n, style, k):
    """The criteria 3-4 ensemble generator: permutation, sparse 0/1 or dense
    0..3 matrices, with an optional commuting second colour."""
    while True:
        if style == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            a = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
        elif style == 1:
            a = [[1 if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        else:
            a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    return [a, _second_colour(rng, a)] if k == 2 else [a]


def _ensemble_generate(rng, seconds):
    """Size 1..8, style and rank follow a fixed cycle; the seed draws the entries."""
    raw = []
    for i in range(int(seconds * ENSEMBLE_MODELS_PER_S)):
        n = 1 + i % ENSEMBLE_MAX_VERTICES
        style = (i // ENSEMBLE_MAX_VERTICES) % 3
        k = 1 + (i // (3 * ENSEMBLE_MAX_VERTICES)) % 2
        raw.append(_ensemble_matrices(rng, n, style, k))
    return raw


def _ensemble_build(ts, raw):
    built = []
    for mats in raw:
        model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats)
        built.append((model, ts.presentation_from_kgraph(model)))
    return built


def _ensemble_units(ts, raw, built, rng):
    for _, (model, pres) in _pool(raw, built, rng):
        ops = [("classify", (model,)), ("stiemke_crosscheck", (model,))]
        ops += [("solve_state_at", (model, _unit_vector(model.dim, v))) for v in range(model.dim)]
        yield Unit(
            ops,
            lambda ts, outs, m=model, p=pres: checks.classify_model(ts, m, p, outs),
        )


CLASSIFY_ENSEMBLE = Workload(
    name="classify-ensemble",
    why=(
        "the end-user verdict path: heavy on LPs and structural checks, with only short "
        "searches"
    ),
    inputs=(
        f"the criteria 3-4 k-graph ensemble widened to 1..{ENSEMBLE_MAX_VERTICES} vertices; "
        "per model classify, stiemke_crosscheck and solve_state_at at every vertex"
    ),
    digest_units=150,
    generate=_ensemble_generate,
    build=_ensemble_build,
    units=_ensemble_units,
)


# ---------------------------------------------------------------------------
# sweep-states: unperforation sweeps and state-support enumeration

SWEEP_COEFF = 4  # classify's default bounds
SWEEP_MULT = 4
SWEEP_MAX_PAIRS = 5000
WIDE_DIM = 6  # span of 5**6 vectors is built before max_pairs applies
WIDE_MAX_PAIRS = 20
DIAG_SIZES = (8, 9, 10, 11, 12)  # solve_state_at at vertex 0, the doubled one
DIAG_ZERO_REPEATS = {11: 3}  # ...this many times per round (default once)
# ...and once at every other vertex for these sizes; those calls are fast and alike.
# A round then has 28 ops, and every quantile the metrics read falls well inside
# a group of alike calls on fixed inputs, never on the edge between two groups:
# the median inside the n = 11 calls at the other vertices, p90 inside the
# n = 11 calls at vertex 0.  Repeating those makes p90 the median of some 15
# calls of a run rather than the third of 7.
DIAG_ALL_VERTICES = (8, 11)
SWEEP_ROUNDS_PER_S = 1

SWEEP_MODELS = (
    ("triangular", [[[1, 1], [0, 1]]]),
    ("permutation", [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]]),
    ("purely-infinite", [[[0, 2], [2, 0]]]),
)


def _sweep_generate(rng, seconds):
    """Fixed round of models; the seed relabels the vertices of each sweep model,
    every round.  The diagonal models keep their 2 at vertex 0: the cost of
    solve_state_at depends on where the target sits relative to it, and a fixed
    layout keeps every round's latency mix the same.

    Diagonal entries carry the target vertices of their solve_state_at calls."""
    wide = [[[int(i == j) + int(j == (i + 1) % WIDE_DIM) for j in range(WIDE_DIM)]
             for i in range(WIDE_DIM)]]
    diagonals = [
        ("diag", [[[(2 if i == 0 else 1) * int(i == j) for j in range(n)] for i in range(n)]],
         (0,) * DIAG_ZERO_REPEATS.get(n, 1)
         + (tuple(range(1, n)) if n in DIAG_ALL_VERTICES else ()))
        for n in DIAG_SIZES
    ]
    rounds = []
    for _ in range(max(1, int(seconds * SWEEP_ROUNDS_PER_S))):
        models = []
        for _, mats in SWEEP_MODELS:
            perm = rng.sample(range(len(mats[0])), len(mats[0]))
            models.append(("sweep", _relabel(mats, perm), SWEEP_MAX_PAIRS))
        perm = rng.sample(range(WIDE_DIM), WIDE_DIM)
        models.append(("sweep", _relabel(wide, perm), WIDE_MAX_PAIRS))
        rounds.append(models + diagonals)
    return rounds


def _sweep_build(ts, raw):
    built = []
    for models in raw:
        row = []
        for kind, mats, extra in models:
            model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats)
            row.append((kind, model, ts.presentation_from_kgraph(model), extra))
        built.append(row)
    return built


def _sweep_units(ts, raw, built, rng):
    """One unit per model; the loop stops only at the end of a round, so every
    run has whole rounds and the same mix of ops."""
    for _, row in _pool(raw, built, rng):
        for i, (kind, model, pres, extra) in enumerate(row):
            if kind == "sweep":
                gens = [_unit_vector(model.dim, v) for v in range(model.dim)]
                ops = [("almost_unperforated_up_to",
                        (pres, gens, SWEEP_COEFF, SWEEP_MULT, None, extra))]
                check = (lambda ts, outs, p=pres, mp=extra:
                         [checks.sweep_outcome(ts, p, outs[0], mp)])
            else:
                ops = [("solve_state_at", (model, _unit_vector(model.dim, v))) for v in extra]
                check = (lambda ts, outs, m=model, targets=extra:
                         checks.diagonal_states(ts, m, targets, outs))
            yield Unit(ops, check, boundary=i == len(row) - 1)


SWEEP_STATES = Workload(
    name="sweep-states",
    why=(
        "thousands of decide_leq calls on one presentation (cache-hot non-unit path) and "
        "the exponential span and support enumerations no other workload reaches"
    ),
    inputs=(
        "per round: almost_unperforated_up_to at classify's bounds on a triangular, a "
        f"permutation and a purely infinite model, one {WIDE_DIM}-dimensional sweep with "
        f"max_pairs={WIDE_MAX_PAIRS}, and solve_state_at on diag(2,1,..,1) at the doubled "
        f"vertex for n in {DIAG_SIZES[0]}..{DIAG_SIZES[-1]} (repeats {DIAG_ZERO_REPEATS}) "
        f"and at every other vertex for n in {DIAG_ALL_VERTICES}"
    ),
    digest_units=len(SWEEP_MODELS) + 1 + len(DIAG_SIZES),  # one round
    generate=_sweep_generate,
    build=_sweep_build,
    units=_sweep_units,
)


WORKLOADS = {w.name: w for w in (ACTION_ORACLE, GRAPH_DECIDE, CLASSIFY_ENSEMBLE, SWEEP_STATES)}
