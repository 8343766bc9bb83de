"""Model-only structure is derived once, when the model is constructed.

A presentation carries its unit-move structure and the supports of its move
sides (and keeps a memo of cone generators, filled by queries; see
`test_monoid.TestConeMemo`), a k-graph model its presentation (and keeps its
coboundary result and positive invariant vector once asked; see
`test_states.TestModelAnswers`), and an action its orbit index.  These tests pin that the derived fields stay out of
equality, hashing and repr, that every way of building a model derives the
same form, that the deciders agree with reference copies that rebuild the
form on every call, and that no query rebuilds it.
"""

import dataclasses
import itertools
import random

import pytest

import typesemigroup as ts
from typesemigroup import actions, graphs, monoid
from typesemigroup.actions import _compose, _inverse, _orbit_index
from typesemigroup.monoid import _equiv_unit, _leq_unit, _unit_structure, as_vector

from test_acceptance import _all_small_actions, _dedupe
from test_monoid import _kgraph_presentation

DERIVED = {ts.MonoidPresentation: ("_unit", "_supports", "_cones"),
           ts.KGraphModel: ("_presentation", "_coboundary"), ts.FiniteGroupAction: ("_roots",)}


@pytest.fixture(scope="module")
def representatives():
    """The criterion-1 representatives: one action per move set."""
    return _dedupe(_all_small_actions())


def _presentation_form(p):
    unit = p._unit
    if unit is None:
        return None, p._supports
    return (tuple(unit.comp), tuple(map(tuple, unit.adj))), p._supports


def _fresh_presentation_form(p):
    def masks(side):
        return tuple(sum(1 << i for i, x in enumerate(v) if x) for v in side)
    supports = masks(mv.lhs for mv in p.moves), masks(mv.rhs for mv in p.moves)
    unit = _unit_structure(p)
    if unit is None:
        return None, supports
    return (tuple(unit.comp), tuple(map(tuple, unit.adj))), supports


# reference copies that derive the model's structure on every call


def _reference_decide_equiv(pres, f, g):
    f, g = as_vector(f, pres.dim), as_vector(g, pres.dim)
    if f == g:
        return ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=ts.EquivCertificate(f, (), g))
    return _equiv_unit(pres, _unit_structure(pres), f, g)


def _reference_decide_leq(pres, f, g):
    f, g = as_vector(f, pres.dim), as_vector(g, pres.dim)
    if all(fv <= gv for fv, gv in zip(f, g)):
        return ts.DecisionOutcome(
            ts.Verdict.EQUIV, certificate=ts.EquivCertificate(g, (), g),
            slack=tuple(gv - fv for fv, gv in zip(f, g)))
    return _leq_unit(pres, _unit_structure(pres), f, g)


def _reference_oracle_equiv(action, f, g):
    roots = _orbit_index(action)
    sums = {}
    for x in range(action.degree):
        sums[roots[x]] = sums.get(roots[x], 0) + f[x] - g[x]
    return all(v == 0 for v in sums.values())


def _reference_bruteforce_equiv(action, f, g):
    n = action.degree
    roots = _orbit_index(action)
    by_orbit_f, by_orbit_g = {}, {}
    for x in range(n):
        by_orbit_f.setdefault(roots[x], []).extend([x] * f[x])
        by_orbit_g.setdefault(roots[x], []).extend([x] * g[x])
    if any(len(by_orbit_f[r]) != len(by_orbit_g[r]) for r in by_orbit_f):
        return ts.BruteforceOutcome("not_equiv")
    trans = [tuple(range(n)) if roots[x] == x else None for x in range(n)]
    frontier = [x for x in range(n) if roots[x] == x]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in action.generators:
                for h in (gen, _inverse(gen)):
                    if trans[h[x]] is None:
                        trans[h[x]] = _compose(h, trans[x])
                        nxt.append(h[x])
        frontier = nxt
    witnesses = []
    for r in sorted(by_orbit_f):
        for x, y in zip(by_orbit_f[r], by_orbit_g[r]):
            t = _compose(trans[y], _inverse(trans[x]))
            witnesses.append(ts.Bisection(arrows=((t, x),)))
    return ts.BruteforceOutcome("equiv", witnesses=tuple(witnesses))


class TestDerivedFields:
    def test_out_of_equality_hash_and_repr(self):
        models = [
            (ts.build_presentation(2, [((1, 0), (0, 1))]),
             "MonoidPresentation(dim=2, moves=(Move(lhs=(1, 0), rhs=(0, 1)),))"),
            (_kgraph_presentation([[1, 1], [0, 1]]), None),
            (ts.validate_kgraph(["u", "w"], [[[1, 1], [0, 1]]]),
             "KGraphModel(k=1, vertices=('u', 'w'), matrices=(((1, 1), (0, 1)),))"),
            (ts.build_action([1, 2], [[2, 1]]),
             "FiniteGroupAction(points=(1, 2), generators=((1, 0),))"),
        ]
        for model, text in models:
            derived = DERIVED[type(model)]
            fields = dataclasses.fields(model)
            assert [f.name for f in fields if f.name in derived] == list(derived)
            assert not [f.name for f in fields if f.compare and f.name in derived]
            assert not [f.name for f in fields if f.repr and f.name in derived]
            assert not [f.name for f in fields if f.init and f.name in derived]
            if text is not None:
                assert repr(model) == text
            # a twin whose derived fields are overwritten still compares,
            # hashes and prints as the model
            twin = dataclasses.replace(model)
            for name in derived:
                object.__setattr__(twin, name, None)
            assert twin == model and hash(twin) == hash(model) and repr(twin) == repr(model)

    def test_builders_and_direct_construction_agree(self):
        rng = random.Random(5)
        cases = [(1, []), (2, [((1, 0), (1, 0))]), (3, [((1, 0, 0), (0, 0, 1))]),
                 (2, [((1, 1), (2, 1)), ((1, 1), (1, 2))]), (2, [((1, 0), (0, 2))])]
        for _ in range(40):
            dim = rng.randint(1, 4)
            cases.append((dim, [
                (tuple(rng.choice((0, 0, 1, 2)) for _ in range(dim)),
                 tuple(rng.choice((0, 0, 1, 2)) for _ in range(dim)))
                for _ in range(rng.randint(0, 3))]))
            perm = rng.sample(range(dim), dim)
            cases.append((dim, [(ts.unit_vector(dim, i), ts.unit_vector(dim, perm[i]))
                                for i in range(dim)]))
        kinds = set()
        for dim, moves in cases:
            built = ts.build_presentation(dim, moves)
            direct = ts.MonoidPresentation(dim, tuple(ts.Move(l, r) for l, r in moves))
            assert built == direct and hash(built) == hash(direct)
            assert (_presentation_form(built) == _presentation_form(direct)
                    == _fresh_presentation_form(built))
            kinds.add(built._unit is None)
        assert kinds == {True, False}

        def fresh(model):
            n = model.dim
            return ts.build_presentation(
                n, [(ts.unit_vector(n, v), mat[v]) for v in range(n) for mat in model.matrices])

        for _ in range(40):
            n = rng.randint(1, 4)
            mats = [[[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]]
            for row in mats[0]:
                row[rng.randrange(n)] += 1
            mats.append(rng.choice((mats[0], [[int(i == j) for j in range(n)] for i in range(n)])))
            built = ts.validate_kgraph([f"v{i}" for i in range(n)], mats)
            direct = ts.KGraphModel(built.k, built.vertices, built.matrices)
            relabeled = ts.relabel_kgraph(built, rng.sample(range(n), n))
            assert built == direct and hash(built) == hash(direct)
            for model in (built, direct, relabeled):
                assert ts.presentation_from_kgraph(model) is model._presentation
                assert model._presentation == fresh(model)
                assert (_presentation_form(model._presentation)
                        == _fresh_presentation_form(fresh(model)))

        for n in range(1, 5):
            pts = list(range(1, n + 1))
            for _ in range(10):
                gens = [rng.sample(pts, n) for _ in range(rng.randint(0, 2))]
                built = ts.build_action(pts, gens)
                direct = ts.FiniteGroupAction(
                    tuple(pts), tuple(tuple(pts.index(y) for y in g) for g in gens))
                assert built == direct and hash(built) == hash(direct)
                assert built._roots == direct._roots == tuple(_orbit_index(built))
                for copies in (1, 2, 3):
                    st = ts.stabilize(built, copies)
                    twin = ts.FiniteGroupAction(st.points, st.generators)
                    assert st == twin and st._roots == twin._roots == tuple(_orbit_index(st))


class TestAgreesWithPerCallReference:
    def _check(self, action, pairs, seen):
        pres = ts.transformation_presentation(action)
        for f, g in pairs:
            oracle = ts.oracle_equiv(action, f, g)
            assert oracle == _reference_oracle_equiv(action, f, g)
            assert ts.bruteforce_equiv(action, f, g) == _reference_bruteforce_equiv(action, f, g)
            assert ts.decide_equiv(pres, f, g) == _reference_decide_equiv(pres, f, g)
            assert ts.decide_leq(pres, f, g) == _reference_decide_leq(pres, f, g)
            seen.add(oracle)

    def test_criterion_1_representatives(self, representatives):
        rng = random.Random(11)
        seen = set()
        for action in representatives:
            vecs = list(itertools.product(range(3), repeat=action.degree))
            pairs = [(rng.choice(vecs), rng.choice(vecs)) for _ in range(30)]
            self._check(action, pairs, seen)
        assert seen == {True, False}

    def test_stabilized_representatives(self, representatives):
        rng = random.Random(13)
        seen = set()
        for action in representatives:
            for copies in (2, 3):
                st = ts.stabilize(action, copies)
                pairs = [tuple(tuple(rng.randint(0, 2) for _ in range(st.degree))
                               for _ in range(2)) for _ in range(6)]
                pairs.append((ts.unit_vector(st.degree, 0), ts.unit_vector(st.degree, 1)))
                self._check(st, pairs, seen)
        assert seen == {True, False}


def test_queries_never_rebuild_the_derived_form(monkeypatch, representatives):
    rng = random.Random(17)
    models = [(a, ts.transformation_presentation(a)) for a in representatives[::8]]
    non_unit = [_kgraph_presentation(m) for m in ([[1, 1], [0, 1]], [[0, 2], [2, 0]], [[2]])]
    kgraphs = [ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats) for mats in (
        [[[1, 1], [0, 1]]], [[[0, 1], [1, 0]]], [[[2]], [[3]]], [[[1, 1], [1, 1]], [[2, 2], [2, 2]]])]
    calls = {"unit": 0, "orbit": 0, "kgraph": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(monoid, "_unit_structure", counting("unit", monoid._unit_structure))
    monkeypatch.setattr(actions, "_orbit_index", counting("orbit", actions._orbit_index))
    monkeypatch.setattr(graphs, "_kgraph_presentation",
                        counting("kgraph", graphs._kgraph_presentation))
    queries = 0
    while queries < 1000:
        action, pres = rng.choice(models)
        f, g = (tuple(rng.randint(0, 2) for _ in range(action.degree)) for _ in range(2))
        ts.oracle_equiv(action, f, g)
        ts.bruteforce_equiv(action, f, g)
        ts.orbits(action)
        ts.decide_equiv(pres, f, g)
        ts.decide_leq(pres, f, g)
        p = rng.choice(non_unit)
        f, g = (tuple(rng.randint(0, 2) for _ in range(p.dim)) for _ in range(2))
        ts.decide_equiv(p, f, g, ts.SearchBudget(200, 6))
        ts.decide_leq(p, f, g, ts.SearchBudget(200, 6))
        queries += 7
    for p in non_unit:
        ts.almost_unperforated_up_to(p, [ts.unit_vector(p.dim, i) for i in range(p.dim)], 2)
    for model in kgraphs:
        for v in range(model.dim):
            cert = ts.solve_state_at(model, ts.unit_vector(model.dim, v))
            assert cert is None or ts.verify_state_certificate(model, cert)
        ts.stiemke_crosscheck(model)
        ts.classify(model, ts.ClassifyBudgets(ts.SearchBudget(200, 6), 1, 50))
        assert ts.presentation_from_kgraph(model) is model._presentation
    assert calls == {"unit": 0, "orbit": 0, "kgraph": 0}
    # the counters are live: constructing a model derives its form once
    ts.build_presentation(2, [((1, 0), (0, 1))])
    ts.build_action([1, 2], [[2, 1]])
    assert calls == {"unit": 1, "orbit": 1, "kgraph": 0}
    ts.validate_kgraph(["v"], [[[2]]])
    assert calls == {"unit": 2, "orbit": 1, "kgraph": 1}
