"""Acceptance suite.

One test per criterion; each prints a PASS line with its headline numbers
when it succeeds (run with -s to see them).  Tolerances are exact: all
arithmetic in the library is integer or rational, so every comparison below
is equality or a strict logical check, never approximate.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import typesemigroup as ts
from typesemigroup.actions import _orbit_index
from typesemigroup.cli import main as cli_main

MODELS = Path(__file__).resolve().parent.parent / "models"


def _all_small_actions():
    """Every action on at most 4 points with at most 2 generators.

    The three deciders' verdicts factor through the move set (orbits are the
    connected components of the move graph), so actions sharing a normalized
    move set form one equivalence group; one representative per group is
    exercised exhaustively and the factoring assumption itself is asserted.
    """
    actions = []
    for n in range(1, 5):
        pts = list(range(1, n + 1))
        perms = sorted(itertools.permutations(pts))
        gen_sets = [()]
        gen_sets += [(p,) for p in perms]
        gen_sets += list(itertools.combinations_with_replacement(perms, 2))
        for gens in gen_sets:
            actions.append(ts.build_action(pts, [list(g) for g in gens]))
    return actions


def _move_key(action):
    moves = set()
    for g in action.generators:
        for x in range(action.degree):
            moves.add((min(x, g[x]), max(x, g[x])))
    return (action.degree, frozenset(moves))


def _dedupe(actions):
    groups = {}
    for a in actions:
        groups.setdefault(_move_key(a), []).append(a)
    for grp in groups.values():
        base = _orbit_index(grp[0])
        assert all(_orbit_index(a) == base for a in grp[1:])
    return [grp[0] for grp in groups.values()]


def _ensemble_model(rng, max_vertices=6, max_entry=3, max_k=2):
    """Random k-graph model; mixes contractive and expansive styles."""
    n = rng.randint(1, max_vertices)
    k = rng.randint(1, max_k)
    style = rng.randrange(3)
    while True:
        if style == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            a = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
        elif style == 1:
            a = [[1 if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        else:
            a = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    mats = [a]
    if k == 2:
        choice = rng.randrange(3)
        if choice == 0:
            b = [[int(i == j) for j in range(n)] for i in range(n)]
        elif choice == 1:
            b = [row[:] for row in a]
        else:
            b = [[a[i][j] + int(i == j) for j in range(n)] for i in range(n)]
        mats.append(b)
    return ts.validate_kgraph([f"v{i}" for i in range(n)], mats)


def _criterion_ensemble():
    rng = random.Random(2026)
    return [_ensemble_model(rng) for _ in range(50)]


def test_criterion_1_oracle_equivalence():
    """Exhaustive three-way agreement on all small actions, under 60 s."""
    t0 = time.monotonic()
    reps = _dedupe(_all_small_actions())
    pairs = 0
    disagreements = 0
    for action in reps:
        n = action.degree
        pres = ts.transformation_presentation(action)
        vecs = list(itertools.product(range(3), repeat=n))
        for i, f in enumerate(vecs):
            for g in vecs[i:]:
                oracle = ts.oracle_equiv(action, f, g)
                brute = ts.bruteforce_equiv(action, f, g)
                engine = ts.decide_equiv(pres, f, g)
                if (brute.verdict == "equiv") != oracle or engine.is_equiv != oracle:
                    disagreements += 1
                    continue
                if oracle:
                    assert ts.verify_witnesses(action, f, g, brute.witnesses)
                    assert ts.replay(pres, f, engine.certificate) == g
                else:
                    assert ts.verify_separator(pres, engine.separator, f, g)
                pairs += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"PASS criterion 1: {len(reps)} presentations, {pairs} pairs, "
        f"0 disagreements, {elapsed:.1f}s"
    )


def test_criterion_2_curated_corpus():
    """Curated verdicts with replayable certificates, each under 1 s."""
    # one-vertex two-loops: properly infinite with a replayable (2,1) chain
    t0 = time.monotonic()
    two_loops = ts.validate_kgraph(["v"], [[[2]]])
    r = ts.classify(two_loops)
    assert r.verdict == ts.PURELY_INFINITE
    ((_, outcome),) = r.paradox_results
    pres = ts.presentation_from_kgraph(two_loops)
    assert ts.verify_leq_outcome(pres, (2,), (1,), outcome)
    assert time.monotonic() - t0 < 1.0

    # one-vertex one-loop: faithful state attached, hypotheses fail
    t0 = time.monotonic()
    one_loop = ts.validate_kgraph(["v"], [[[1]]])
    r = ts.classify(one_loop)
    assert r.verdict == ts.HYPOTHESES_NOT_MET
    assert not r.principality_proxy
    assert r.faithful_state == (1,)
    assert time.monotonic() - t0 < 1.0

    # double-edge swap: purely infinite
    t0 = time.monotonic()
    cross = ts.validate_kgraph(["u", "w"], [[[0, 2], [2, 0]]])
    r = ts.classify(cross)
    assert r.verdict == ts.PURELY_INFINITE
    pres = ts.presentation_from_kgraph(cross)
    for vi, (_, outcome) in enumerate(r.paradox_results):
        d = ts.unit_vector(2, vi)
        assert ts.verify_leq_outcome(pres, tuple(2 * x for x in d), d, outcome)
    assert time.monotonic() - t0 < 1.0

    # triangular: no faithful full-support state, coboundary fails
    t0 = time.monotonic()
    tri = ts.validate_kgraph(["u", "w"], [[[1, 1], [0, 1]]])
    assert ts.faithful_finite_state(tri) is None
    cob = ts.coboundary_check(tri)
    assert not cob.holds and ts.verify_coboundary_witness(tri, cob)
    assert time.monotonic() - t0 < 1.0

    # rank-2 single vertex: the generator is properly infinite, certified
    t0 = time.monotonic()
    rank2 = ts.validate_kgraph(["v"], [[[2]], [[3]]])
    pres = ts.presentation_from_kgraph(rank2)
    outcome = ts.kl_paradoxical(pres, (1,), 2, 1)
    assert outcome.is_equiv
    assert ts.verify_leq_outcome(pres, (2,), (1,), outcome)
    assert ts.classify(rank2).verdict == ts.PURELY_INFINITE
    assert time.monotonic() - t0 < 1.0
    print("PASS criterion 2: 5 curated models classified with verified certificates, <1s each")


def test_criterion_3_stiemke_duality():
    """Coboundary <=> positive invariant vector <=> faithful state, 50 models."""
    t0 = time.monotonic()
    models = _criterion_ensemble()
    assert len(models) == 50
    mismatches = 0
    for model in models:
        res = ts.stiemke_crosscheck(model)
        faithful = ts.faithful_finite_state(model)
        if not res.consistent or (faithful is not None) != res.coboundary_holds:
            mismatches += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"PASS criterion 3: 50 models, 0 mismatches, {elapsed:.1f}s")


def test_criterion_4_tarski_consistency():
    """States block paradox certificates; curated no-state classes are paradoxical."""
    models = _criterion_ensemble()
    state_vertices = 0
    refuted = 0
    for model in models:
        pres = ts.presentation_from_kgraph(model)
        for vi in range(model.dim):
            d = ts.unit_vector(model.dim, vi)
            cert = ts.solve_state_at(model, d)
            if cert is None:
                continue
            state_vertices += 1
            assert ts.verify_state_certificate(model, cert)
            for n in range(1, 5):
                outcome = ts.kl_paradoxical(pres, d, n + 1, n)
                assert not outcome.is_equiv, (model.matrices, vi, n)
                refuted += 1
    assert state_vertices > 0, "ensemble produced no state-bearing vertices"

    # curated no-state classes all carry a small certified paradox
    paradoxes = 0
    for mats in ([[[2]]], [[[0, 2], [2, 0]]], [[[2]], [[3]]]):
        model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats)
        pres = ts.presentation_from_kgraph(model)
        for vi in range(model.dim):
            d = ts.unit_vector(model.dim, vi)
            assert ts.solve_state_at(model, d) is None
            found = None
            for n in range(1, 5):
                outcome = ts.kl_paradoxical(pres, d, n + 1, n)
                if outcome.is_equiv:
                    scaled = tuple((n + 1) * x for x in d)
                    base = tuple(n * x for x in d)
                    assert ts.verify_leq_outcome(pres, scaled, base, outcome)
                    found = n
                    break
            assert found is not None
            paradoxes += 1
    print(
        f"PASS criterion 4: {state_vertices} state-bearing vertices, "
        f"{refuted} paradox refutations, {paradoxes} curated paradox certificates"
    )


def test_criterion_5_stabilization_invariance():
    """Orbit fingerprints survive product with full relations, n <= 4."""
    actions = _all_small_actions()
    checked = 0
    for action in actions:
        base = ts.orbit_fingerprint(action)
        for n in range(1, 5):
            assert ts.orbit_fingerprint(ts.stabilize(action, n)) == base
            checked += 1
    print(f"PASS criterion 5: {len(actions)} actions x 4 levels, {checked} fingerprints equal")


def test_criterion_6_relabeling_invariance():
    """Verdicts are vertex-permutation equivariant on 20 random graphs."""
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(2, 4)
        while True:
            mat = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            if all(any(row) for row in mat):
                break
        model = ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = ts.relabel_kgraph(model, perm)
        p1 = ts.presentation_from_kgraph(model)
        p2 = ts.presentation_from_kgraph(relabeled)
        f = tuple(rng.randint(0, 2) for _ in range(n))
        g = tuple(rng.randint(0, 2) for _ in range(n))
        pf = tuple(f[perm[i]] for i in range(n))
        pg = tuple(g[perm[i]] for i in range(n))
        assert ts.decide_equiv(p1, f, g).verdict == ts.decide_equiv(p2, pf, pg).verdict
        assert ts.decide_leq(p1, f, g).verdict == ts.decide_leq(p2, pf, pg).verdict
        r1 = ts.classify(model)
        r2 = ts.classify(relabeled)
        assert r1.verdict == r2.verdict
        assert r1.minimality_proxy == r2.minimality_proxy
        assert r1.principality_proxy == r2.principality_proxy
    print("PASS criterion 6: 20 random graphs, equiv/leq/classify all permutation-equivariant")


def test_criterion_7_theta_algebra():
    """Linearity and composition of the transfer operator, 100 random triples."""
    rng = random.Random(555)
    for _ in range(100):
        n = rng.randint(1, 4)
        while True:
            mat = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            if all(any(row) for row in mat):
                break
        model = ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])
        f = tuple(rng.randint(0, 3) for _ in range(n))
        g = tuple(rng.randint(0, 3) for _ in range(n))
        a = rng.randint(0, 3)
        b = rng.randint(0, 3)
        assert ts.theta(model, (a,), ts.theta(model, (b,), f)) == ts.theta(
            model, (a + b,), f
        )
        fg = tuple(x + y for x, y in zip(f, g))
        lhs = ts.theta(model, (a,), fg)
        rhs = tuple(
            x + y
            for x, y in zip(ts.theta(model, (a,), f), ts.theta(model, (a,), g))
        )
        assert lhs == rhs
    print("PASS criterion 7: 100 random triples, transfer operator exactly linear and multiplicative")


def test_criterion_8_certificate_replay():
    """Every emitted certificate verifies through an independent code path."""
    total = 0

    # engine certificates over random presentations (graph and unit moves)
    rng = random.Random(31337)
    for _ in range(150):
        dim = rng.randint(1, 3)
        if rng.random() < 0.5:
            moves = []
            for v in range(dim):
                rhs = [0] * dim
                for _ in range(rng.randint(1, 2)):
                    rhs[rng.randrange(dim)] += 1
                moves.append((ts.unit_vector(dim, v), tuple(rhs)))
        else:
            moves = [
                (ts.unit_vector(dim, rng.randrange(dim)), ts.unit_vector(dim, rng.randrange(dim)))
                for _ in range(rng.randint(0, 3))
            ]
        pres = ts.build_presentation(dim, moves)
        f = tuple(rng.randint(0, 2) for _ in range(dim))
        g = tuple(rng.randint(0, 2) for _ in range(dim))
        out = ts.decide_equiv(pres, f, g, ts.SearchBudget(5000, 32))
        if out.is_equiv:
            assert ts.replay(pres, f, out.certificate) == g
            total += 1
        elif out.is_not_equiv:
            assert ts.verify_separator(pres, out.separator, f, g)
            total += 1
        leq = ts.decide_leq(pres, f, g, ts.SearchBudget(5000, 32))
        if leq.is_equiv:
            assert ts.verify_leq_outcome(pres, f, g, leq)
            total += 1
        elif leq.is_not_equiv:
            assert ts.verify_separator(pres, leq.separator, f, g, order=True)
            total += 1

    # paradox certificates from the curated corpus
    for mats in ([[[2]]], [[[0, 2], [2, 0]]], [[[2]], [[3]]]):
        model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats)
        pres = ts.presentation_from_kgraph(model)
        for vi in range(model.dim):
            d = ts.unit_vector(model.dim, vi)
            out = ts.kl_paradoxical(pres, d, 2, 1)
            assert out.is_equiv
            assert ts.verify_leq_outcome(pres, tuple(2 * x for x in d), d, out)
            total += 1

    # state certificates across the ensemble
    for model in _criterion_ensemble()[:25]:
        for vi in range(model.dim):
            cert = ts.solve_state_at(model, ts.unit_vector(model.dim, vi))
            if cert is not None:
                assert ts.verify_state_certificate(model, cert)
                total += 1

    # coboundary witnesses
    for mats in ([[[2]]], [[[1, 1], [0, 1]]]):
        model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats)
        res = ts.coboundary_check(model)
        assert not res.holds and ts.verify_coboundary_witness(model, res)
        total += 1

    print(f"PASS criterion 8: {total} certificates verified by independent replay/substitution")


def test_criterion_9_cli_determinism(tmp_path, capsys, cli_env):
    """Byte-identical reports under fixed seeds; exit-code contract honored."""

    def run(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    # byte identity, in-process
    for argv in (
        ["classify", str(MODELS / "two_loops.json")],
        ["classify", str(MODELS / "triangular.json")],
        ["equiv", str(MODELS / "two_loops.json"), "--lhs", "1", "--rhs", "2"],
        ["oracle-compare", str(MODELS / "three_cycle.json"), "--samples", "40", "--seed", "5"],
    ):
        c1, o1 = run(argv)
        c2, o2 = run(argv)
        assert o1 == o2 and c1 == c2
        assert json.loads(json.dumps(json.loads(o1))) == json.loads(o1)

    # byte identity, subprocess
    cmd = [sys.executable, "-m", "typesemigroup.cli", "classify", str(MODELS / "cross_double.json")]
    r1 = subprocess.run(cmd, capture_output=True, env=cli_env)
    r2 = subprocess.run(cmd, capture_output=True, env=cli_env)
    assert r1.returncode == 0 and r1.stdout == r2.stdout

    # exit-code contract
    code, _ = run(["classify", str(MODELS / "two_loops.json")])
    assert code == 0
    code, _ = run(["equiv", str(MODELS / "two_loops.json"), "--lhs", "1", "--rhs", "7",
                   "--budget-states", "2"])
    assert code == 3
    malformed = [
        "not json",
        json.dumps({"kind": "mystery"}),
        json.dumps({"kind": "graph", "vertices": ["v"], "edges": []}),
        json.dumps({"kind": "action", "points": [1, 2], "generators": [[1, 1]]}),
    ]
    for i, content in enumerate(malformed):
        path = tmp_path / f"bad{i}.json"
        path.write_text(content, encoding="utf-8")
        code, out = run(["classify", str(path)])
        assert code == 2
        assert "error" in json.loads(out)
    print("PASS criterion 9: CLI byte-deterministic; exit codes 0/2/3 honored on the contract suite")
