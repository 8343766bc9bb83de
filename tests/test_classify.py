import importlib
import random
from fractions import Fraction

import pytest

import typesemigroup as ts
from typesemigroup import monoid
from typesemigroup.classify import DEFAULT_CLASSIFY_BUDGETS
from typesemigroup.monoid import _order_separator

from test_states import ensemble_model

# the module, which the package's `classify` function shadows as an attribute
classify_module = importlib.import_module("typesemigroup.classify")


class TestCuratedVerdicts:
    def test_two_loops_purely_infinite(self, two_loops):
        r = ts.classify(two_loops)
        assert r.verdict == ts.PURELY_INFINITE
        ((v, outcome),) = r.paradox_results
        assert v == "v" and outcome.is_equiv
        pres = ts.presentation_from_kgraph(two_loops)
        assert ts.verify_leq_outcome(pres, (2,), (1,), outcome)
        assert not r.coboundary.holds

    def test_one_loop_hypotheses_not_met_with_state_evidence(self, one_loop):
        r = ts.classify(one_loop)
        assert r.verdict == ts.HYPOTHESES_NOT_MET
        assert not r.principality_proxy  # the loop has no exit
        assert r.minimality_proxy
        assert r.faithful_state == (1,)
        assert r.coboundary.holds

    def test_cross_double_purely_infinite(self, cross_double):
        r = ts.classify(cross_double)
        assert r.verdict == ts.PURELY_INFINITE
        pres = ts.presentation_from_kgraph(cross_double)
        for vi, (v, outcome) in enumerate(r.paradox_results):
            assert outcome.is_equiv
            d = ts.unit_vector(2, vi)
            assert ts.verify_leq_outcome(
                pres, tuple(2 * x for x in d), d, outcome
            )

    def test_triangular_hypotheses_not_met(self, triangular):
        r = ts.classify(triangular)
        assert r.verdict == ts.HYPOTHESES_NOT_MET
        assert r.faithful_state is None
        assert not r.coboundary.holds
        assert ts.verify_coboundary_witness(triangular, r.coboundary)

    def test_rank_two_generator_properly_infinite(self, rank2_single_vertex):
        r = ts.classify(rank2_single_vertex)
        assert r.verdict == ts.PURELY_INFINITE
        ((_, outcome),) = r.paradox_results
        assert outcome.is_equiv
        pres = ts.presentation_from_kgraph(rank2_single_vertex)
        assert ts.verify_leq_outcome(pres, (2,), (1,), outcome)


class TestVerdictStructure:
    def test_stably_finite_requires_state(self):
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 1]]])
        r = ts.classify(m)
        if r.verdict == ts.STABLY_FINITE:
            assert r.faithful_state is not None

    def test_swap_with_exits_is_stably_finite(self):
        # two vertices swapping mass: permutation matrix fails condition (L),
        # so add parallel edges to give every cycle an exit... parallel
        # doubling makes it paradoxical instead; use the swap matrix and
        # accept HYPOTHESES_NOT_MET with finiteness evidence
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        r = ts.classify(m)
        assert r.verdict == ts.HYPOTHESES_NOT_MET
        assert r.faithful_state == (Fraction(1, 2), Fraction(1, 2))
        assert r.coboundary.holds

    def test_exclusivity_never_violated_on_corpus(
        self, two_loops, one_loop, cross_double, triangular, rank2_single_vertex
    ):
        for model in (two_loops, one_loop, cross_double, triangular, rank2_single_vertex):
            r = ts.classify(model)
            if r.faithful_state is not None:
                assert r.verdict in (ts.STABLY_FINITE, ts.HYPOTHESES_NOT_MET)
                if r.paradox_results is not None:
                    assert not all(o.is_equiv for (_, o) in r.paradox_results)

    def test_report_always_carries_coboundary_and_caveats(self, two_loops):
        r = ts.classify(two_loops)
        assert r.coboundary is not None
        assert any("prox" in c for c in r.caveats)

    def test_k2_skeleton_caveat(self, rank2_single_vertex):
        r = ts.classify(rank2_single_vertex)
        assert any("skeleton" in c for c in r.caveats)


class TestGraphDichotomy:
    def test_proxies_passed_means_purely_infinite(self):
        # a finite graph with no sources that is cofinal and satisfies (L)
        # has a simple purely infinite algebra (Kumjian, Pask and Raeburn,
        # Pacific J. Math. 184, 1998): no 1-graph passing both proxies may
        # be stably finite, nor inconclusive at the default budgets
        rng = random.Random(137)
        checked = not_connected = 0
        while checked < 120:
            n = rng.randint(1, 6)
            mat = [[rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
            if not all(any(row) for row in mat):
                continue
            m = ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])
            structural = ts.structural_checks(m)
            if not (structural.cofinal and structural.condition_L):
                continue
            assert ts.classify(m).verdict == ts.PURELY_INFINITE
            checked += 1
            not_connected += not structural.strongly_connected
        assert not_connected > 10


class TestBudgetMonotonicity:
    def test_tiny_budget_is_inconclusive_and_resolves_upward(self, two_loops):
        tiny = ts.ClassifyBudgets(search=ts.SearchBudget(max_states=4, max_coord=1))
        r_small = ts.classify(two_loops, tiny)
        assert r_small.verdict == ts.INCONCLUSIVE
        assert r_small.state_results is not None
        assert all(cert is None for (_, cert) in r_small.state_results)
        r_big = ts.classify(two_loops, DEFAULT_CLASSIFY_BUDGETS)
        assert r_big.verdict == ts.PURELY_INFINITE

    def test_inconclusive_note_says_what_the_sweep_checked(self, two_loops):
        tiny = ts.SearchBudget(max_states=4, max_coord=1)
        for extra, sweep, note in (
            ({"unperforation_coeff": 0}, (1, 0, False),
             "purely infinite modulo almost unperforation "
             "(every pair in the swept box was decided)"),
            ({}, (25, 6, False),
             "almost-unperforation sweep incomplete (pairs=25, unknown=6, truncated=False)"),
            ({"unperforation_max_pairs": 3}, (3, 0, True),
             "almost-unperforation sweep incomplete (pairs=3, unknown=0, truncated=True)"),
        ):
            r = ts.classify(two_loops, ts.ClassifyBudgets(search=tiny, **extra))
            assert r.verdict == ts.INCONCLUSIVE
            assert r.unperforation == ts.UnperforationSweep(None, *sweep)
            assert r.notes[-1] == note

    def test_definite_verdicts_stable_under_budget_increase(self):
        rng = random.Random(4)
        big = ts.ClassifyBudgets(search=ts.SearchBudget(max_states=500_000, max_coord=128))
        for _ in range(10):
            n = rng.randint(1, 3)
            while True:
                mat = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
                if all(any(row) for row in mat):
                    break
            m = ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])
            r1 = ts.classify(m)
            r2 = ts.classify(m, big)
            if r1.verdict in (ts.STABLY_FINITE, ts.PURELY_INFINITE, ts.HYPOTHESES_NOT_MET):
                assert r1.verdict == r2.verdict


class TestBudgetValidation:
    @pytest.mark.parametrize("fields, code", [
        ({"unperforation_coeff": 2.5}, "NON_INTEGRAL_ENTRY"),
        ({"unperforation_coeff": -1}, "NEGATIVE_ENTRY"),
        ({"unperforation_coeff": True}, "NON_INTEGRAL_ENTRY"),
        ({"unperforation_max_pairs": "5000"}, "NON_INTEGRAL_ENTRY"),
        ({"unperforation_max_pairs": -1}, "NEGATIVE_ENTRY"),
        ({"search": None}, "SCHEMA_VIOLATION"),
        ({"search": 200}, "SCHEMA_VIOLATION"),
        ({"search": DEFAULT_CLASSIFY_BUDGETS}, "SCHEMA_VIOLATION"),
    ])
    def test_bad_fields_rejected_at_construction(self, fields, code):
        # rejected before any model is classified, not only by the sweep
        with pytest.raises(ts.InputError) as err:
            ts.ClassifyBudgets(**fields)
        assert err.value.code == code

    def test_zero_bounds_accepted(self, two_loops):
        budgets = ts.ClassifyBudgets(ts.SearchBudget(0, 0), 0, 0)
        r = ts.classify(two_loops, budgets)
        assert r.verdict == ts.INCONCLUSIVE
        assert r.unperforation == ts.UnperforationSweep(None, 0, 0, True)

    @pytest.mark.parametrize("budgets", [5, ts.SearchBudget(), {"unperforation_coeff": 4}])
    def test_classify_rejects_what_is_not_classify_budgets(self, two_loops, budgets):
        with pytest.raises(ts.InputError) as err:
            ts.classify(two_loops, budgets)
        assert err.value.code == "SCHEMA_VIOLATION"

    def test_none_is_the_default(self, two_loops):
        assert ts.classify(two_loops, None) == ts.classify(two_loops, DEFAULT_CLASSIFY_BUDGETS)


def _sweep_models(seed, count=48):
    """Seeded ensemble models, k = 1 and 2, with the classify budget (a tiny
    search for some, so that classify reaches the unperforation sweep)."""
    rng = random.Random(seed)
    fixed = [ts.validate_kgraph(["v"], [[[2]]]), ts.validate_kgraph(["v"], [[[2]], [[3]]]),
             ts.validate_kgraph(["u", "w"], [[[0, 2], [2, 0]]])]
    for model in fixed + [ensemble_model(rng, rng.randint(1, 5), i % 3, 1 + i // 3 % 2)
                          for i in range(count)]:
        search = ts.SearchBudget(4, 1) if rng.random() < 0.3 else ts.SearchBudget(300, 6)
        yield model, ts.ClassifyBudgets(search, 1, 200)


class TestParadoxSweep:
    def test_results_equal_a_per_vertex_kl_paradoxical_loop(self):
        swept = {1: 0, 2: 0}
        verdicts = set()
        for model, budgets in _sweep_models(61):
            report = ts.classify(model, budgets)
            if report.paradox_results is None:
                continue
            pres, n = model._presentation, model.dim
            expected = tuple(
                (v, ts.kl_paradoxical(pres, ts.unit_vector(n, vi), 2, 1, budgets.search))
                for vi, v in enumerate(model.vertices))
            assert report.paradox_results == expected
            assert repr(report.paradox_results) == repr(expected)
            swept[model.k] += 1
            verdicts.update(outcome.verdict for _, outcome in expected)
        assert min(swept.values()) >= 3
        assert verdicts == {ts.Verdict.EQUIV, ts.Verdict.NOT_EQUIV, ts.Verdict.UNKNOWN}

    def test_moves_compiled_at_most_once_per_classify(self, monkeypatch):
        # the paradox sweep compiles the moves once, when the first vertex
        # reaches the search, and never when no vertex does; the
        # unperforation sweep compiles its own, once, inside monoid
        swept, shared = [], []
        real_compile = monoid._compiled_moves

        def counting(into):
            def compile_moves(p, cap, largest):
                into.append(1)
                return real_compile(p, cap, largest)
            return compile_moves

        monkeypatch.setattr(classify_module, "_compiled_moves", counting(swept))
        monkeypatch.setattr(monoid, "_compiled_moves", counting(shared))
        seen = set()
        for model, budgets in _sweep_models(67):
            pres, n = model._presentation, model.dim
            swept.clear()
            shared.clear()
            report = ts.classify(model, budgets)
            searched = report.paradox_results is not None and pres._unit is None and sum(
                _order_separator(pres, tuple(2 * x for x in e), e) is None
                for e in (ts.unit_vector(n, vi) for vi in range(n)))
            assert len(swept) == (searched > 0)
            assert len(shared) <= (report.unperforation is not None)
            seen.add((report.paradox_results is not None, min(searched, 2)))
        # no sweep; a sweep with no search; one with a search at one vertex,
        # and at several
        assert seen >= {(False, 0), (True, 0), (True, 1), (True, 2)}
