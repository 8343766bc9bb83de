import dataclasses
import inspect
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import typesemigroup as ts
from typesemigroup import cones, linalg, monoid, states
from typesemigroup.linalg import (
    integer_diagonalize,
    primitive_integer,
    rational_kernel_basis,
)
from typesemigroup.cones import _cone_generators, _cone_solution, least_admissible_support
from typesemigroup.monoid import (
    INFINITY,
    _bfs_equiv,
    _bfs_leq,
    _difference_rows,
    _equiv_unit,
    _flip,
    _order_separator,
    _separator_on_support,
    _support_separator,
    _unit_path,
    _unit_structure,
    _UnitStructure,
)

from linalg_reference import modular_kernel_generators
from lp_reference import feasible_point


def pres(dim, moves):
    return ts.build_presentation(dim, moves)


TWO_LOOPS = pres(1, [((1,), (2,))])
ONE_LOOP = pres(1, [((1,), (1,))])
FREE_1 = pres(1, [])
FREE_2 = pres(2, [])


class TestBuildPresentation:
    def test_two_loops(self):
        assert TWO_LOOPS.dim == 1
        assert TWO_LOOPS.moves == (ts.Move((1,), (2,)),)

    def test_free_monoid(self):
        assert FREE_1.moves == ()

    def test_dimension_mismatch(self):
        with pytest.raises(ts.InputError) as e:
            pres(2, [((1, 0), (0, 1, 0))])
        assert e.value.code == "DIMENSION_MISMATCH"

    def test_negative_entry_rejected(self):
        with pytest.raises(ts.InputError) as e:
            pres(1, [((-1,), (1,))])
        assert e.value.code == "NEGATIVE_ENTRY"

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2", Fraction(2), None])
    def test_non_int_dimension_rejected(self, bad):
        # a bool used to build a presentation of that dimension, and the
        # others raised a bare TypeError
        with pytest.raises(ts.InputError) as e:
            pres(bad, [])
        assert e.value.code == "NON_INTEGRAL_ENTRY"
        with pytest.raises(ts.InputError) as e:
            pres(bad, [((1, 0), (0, 1))])
        assert e.value.code == "NON_INTEGRAL_ENTRY"

    @pytest.mark.parametrize("dim", [0, -1])
    def test_nonpositive_dimension_rejected(self, dim):
        with pytest.raises(ts.InputError) as e:
            pres(dim, [])
        assert e.value.code == "DIMENSION_MISMATCH"

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", Fraction(1)])
    def test_non_integral_entry_rejected(self, bad):
        with pytest.raises(ts.InputError) as e:
            ts.decide_equiv(TWO_LOOPS, (bad,), (1,))
        assert e.value.code == "NON_INTEGRAL_ENTRY"
        with pytest.raises(ts.InputError) as e:
            pres(1, [((1,), (bad,))])
        assert e.value.code == "NON_INTEGRAL_ENTRY"

    @pytest.mark.parametrize("bad", [None, 5])
    def test_non_iterable_vector_rejected(self, bad):
        # used to raise a bare TypeError
        calls = [
            lambda: ts.decide_equiv(TWO_LOOPS, bad, (1,)),
            lambda: ts.decide_equiv(TWO_LOOPS, (1,), bad),
            lambda: ts.decide_leq(TWO_LOOPS, bad, (1,)),
            lambda: ts.decide_leq(TWO_LOOPS, (1,), bad),
            lambda: ts.kl_paradoxical(TWO_LOOPS, bad, 2, 1),
            lambda: ts.almost_unperforated_up_to(TWO_LOOPS, [(1,), bad]),
        ]
        for call in calls:
            with pytest.raises(ts.InputError) as e:
                call()
            assert e.value.code == "DIMENSION_MISMATCH"

    def test_integer_entries_accepted_from_any_sequence(self):
        assert ts.decide_equiv(TWO_LOOPS, [1], range(2, 3)).is_equiv

    def test_move_order_preserved(self):
        p = pres(1, [((1,), (2,)), ((1,), (3,))])
        assert p.moves[0].rhs == (2,) and p.moves[1].rhs == (3,)


class TestReplay:
    def test_single_forward_step(self):
        cert = ts.EquivCertificate(
            (1,), (ts.RewriteStep(0, ts.Direction.FORWARD),), (2,)
        )
        assert ts.replay(TWO_LOOPS, (1,), cert) == (2,)

    def test_empty_certificate_is_identity(self):
        cert = ts.EquivCertificate((1,), (), (1,))
        assert ts.replay(TWO_LOOPS, (1,), cert) == (1,)

    def test_step_not_applicable(self):
        cert = ts.EquivCertificate(
            (0,), (ts.RewriteStep(0, ts.Direction.FORWARD),), (1,)
        )
        with pytest.raises(ts.InputError) as e:
            ts.replay(TWO_LOOPS, (0,), cert)
        assert e.value.code == "STEP_NOT_APPLICABLE"
        assert e.value.details["index"] == 0

    def test_start_mismatch(self):
        cert = ts.EquivCertificate((1,), (), (1,))
        with pytest.raises(ts.InputError) as e:
            ts.replay(TWO_LOOPS, (2,), cert)
        assert e.value.code == "CERTIFICATE_MISMATCH"

    @pytest.mark.parametrize("steps", [
        (ts.RewriteStep(0, "forward"),), (ts.RewriteStep(0, "backward"),),
        (ts.RewriteStep(0, None),),
        (ts.RewriteStep(False, ts.Direction.BACKWARD),),
        (ts.RewriteStep(0.0, ts.Direction.BACKWARD),), ((0, ts.Direction.BACKWARD),),
        [ts.RewriteStep(0, ts.Direction.BACKWARD)], None])
    def test_malformed_steps_rejected(self, steps):
        # a direction that is not a Direction would replay as BACKWARD, a
        # bool move index as move 0 or 1; a step that is not a RewriteStep,
        # or steps that are not a tuple, raised AttributeError or TypeError
        cert = ts.EquivCertificate((2,), steps, (1,))
        with pytest.raises(ts.InputError) as e:
            ts.replay(TWO_LOOPS, (2,), cert)
        assert e.value.code == "CERTIFICATE_MISMATCH"
        assert not ts.verify_certificate(TWO_LOOPS, cert)
        genuine = ts.EquivCertificate((2,), (ts.RewriteStep(0, ts.Direction.BACKWARD),), (1,))
        assert ts.verify_certificate(TWO_LOOPS, genuine)
        outcome = ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=cert, slack=(0,))
        assert not ts.verify_leq_outcome(TWO_LOOPS, (1,), (2,), outcome)
        assert ts.verify_leq_outcome(TWO_LOOPS, (1,), (2,), dataclasses.replace(
            outcome, certificate=genuine))

    @pytest.mark.parametrize("end", [(1.0,), (True,), [1], (1, 0)])
    def test_malformed_end_rejected(self, end):
        cert = ts.EquivCertificate((2,), (ts.RewriteStep(0, ts.Direction.BACKWARD),), end)
        assert not ts.verify_certificate(TWO_LOOPS, cert)

    @pytest.mark.parametrize("cert", [None, ((2,), (), (2,)), "certificate"])
    def test_not_an_equiv_certificate(self, cert):
        # a certificate of the wrong type raised AttributeError
        assert not ts.verify_certificate(TWO_LOOPS, cert)
        with pytest.raises(ts.InputError) as e:
            ts.replay(TWO_LOOPS, (2,), cert)
        assert e.value.code == "CERTIFICATE_MISMATCH"


class TestVerifyLeqOutcomeRejectsMalformed:
    # on two_loops, (2,) <= (1,) by one forward step from (1,) to (2,)
    GENUINE = ts.DecisionOutcome(
        ts.Verdict.EQUIV,
        certificate=ts.EquivCertificate((1,), (ts.RewriteStep(0, ts.Direction.FORWARD),), (2,)),
        slack=(0,))

    def test_genuine_outcome_passes(self):
        assert ts.verify_leq_outcome(TWO_LOOPS, (2,), (1,), self.GENUINE)

    @pytest.mark.parametrize("start, end, slack", [
        ((True,), (2,), (0,)), ((1,), (2.0,), (0,)), ((1,), (2,), (0.0,)),
        ((1,), (2,), (False,)), ((1,), (2,), [0]), ((1,), (2,), (0, 0))])
    def test_vectors_must_be_int_tuples(self, start, end, slack):
        cert = ts.EquivCertificate(start, self.GENUINE.certificate.steps, end)
        outcome = ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=cert, slack=slack)
        assert not ts.verify_leq_outcome(TWO_LOOPS, (2,), (1,), outcome)

    @pytest.mark.parametrize("cert", [(1,), None, "certificate"])
    def test_certificate_must_be_an_equiv_certificate(self, cert):
        # a certificate of the wrong type raised AttributeError
        outcome = ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=cert, slack=(0,))
        assert not ts.verify_leq_outcome(TWO_LOOPS, (2,), (1,), outcome)

    @pytest.mark.parametrize("outcome", [None, GENUINE.certificate, "equiv"])
    def test_outcome_must_be_a_decision_outcome(self, outcome):
        assert not ts.verify_leq_outcome(TWO_LOOPS, (2,), (1,), outcome)


class TestDecideEquiv:
    def test_two_loops_one_step(self):
        out = ts.decide_equiv(TWO_LOOPS, (1,), (2,))
        assert out.is_equiv
        assert len(out.certificate.steps) == 1
        assert ts.replay(TWO_LOOPS, (1,), out.certificate) == (2,)

    def test_reflexive(self):
        out = ts.decide_equiv(TWO_LOOPS, (3,), (3,))
        assert out.is_equiv and out.certificate.steps == ()

    def test_free_monoid_separator(self):
        out = ts.decide_equiv(FREE_1, (1,), (2,))
        assert out.is_not_equiv
        assert out.separator.kind is ts.SeparatorKind.RATIONAL
        assert out.separator.coeffs == (1,)
        assert ts.verify_separator(FREE_1, out.separator, (1,), (2,))

    def test_symmetric_verdicts(self):
        a = ts.decide_equiv(TWO_LOOPS, (1,), (3,))
        b = ts.decide_equiv(TWO_LOOPS, (3,), (1,))
        assert a.verdict == b.verdict == ts.Verdict.EQUIV

    def test_determinism(self):
        a = ts.decide_equiv(TWO_LOOPS, (1,), (4,))
        b = ts.decide_equiv(TWO_LOOPS, (1,), (4,))
        assert a == b

    def test_extended_separator_on_clean_exhaustion(self):
        # under x <-> 2x, class(0) = {0} is finite and misses (1), and no
        # rational or modular functional separates them (the search alone
        # exhausts class(0) and stays UNKNOWN); the least admissible support
        # of (0) is empty and (1) sticks out of it, so 0 there and oo off it
        # separates
        assert ts.find_separator(TWO_LOOPS, (1,), (0,)) is None
        search = _bfs_equiv(TWO_LOOPS, (1,), (0,), ts.DEFAULT_BUDGET)
        assert search.is_unknown and search.budget.exhausted
        for f, g in (((1,), (0,)), ((0,), (1,))):
            out = ts.decide_equiv(TWO_LOOPS, f, g)
            assert out.is_not_equiv
            assert out.separator == ts.LinearSeparator(ts.SeparatorKind.EXTENDED, (INFINITY,))
            assert ts.verify_separator(TWO_LOOPS, out.separator, f, g)

    def test_modular_separator(self):
        # doubling jump: move (2) <-> (4) preserves parity; (1) vs (2)
        p = pres(1, [((2,), (4,))])
        out = ts.decide_equiv(p, (1,), (2,))
        assert out.is_not_equiv
        assert out.separator.kind is ts.SeparatorKind.MODULAR
        assert out.separator.modulus == 2
        assert ts.verify_separator(p, out.separator, (1,), (2,))


class TestFindSeparator:
    def test_free_monoid(self):
        sep = ts.find_separator(FREE_1, (1,), (2,))
        assert sep.kind is ts.SeparatorKind.RATIONAL and sep.coeffs == (1,)

    def test_two_loops_has_no_separator(self):
        assert ts.find_separator(TWO_LOOPS, (1,), (2,)) is None

    def test_identified_units(self):
        p = pres(2, [((1, 0), (0, 1))])
        assert ts.find_separator(p, (1, 0), (0, 1)) is None

    def test_mutual_exclusion_with_equiv(self):
        # wherever decide_equiv says EQUIV, no separator can exist
        rng = random.Random(5)
        for _ in range(30):
            dim = rng.randint(1, 3)
            moves = [
                (
                    tuple(rng.randint(0, 2) for _ in range(dim)),
                    tuple(rng.randint(0, 2) for _ in range(dim)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            p = pres(dim, moves)
            f = tuple(rng.randint(0, 3) for _ in range(dim))
            g = tuple(rng.randint(0, 3) for _ in range(dim))
            out = ts.decide_equiv(p, f, g, ts.SearchBudget(2000, 32))
            if out.is_equiv:
                assert ts.find_separator(p, f, g) is None
                assert ts.replay(p, f, out.certificate) == g


class TestDecideLeq:
    def test_pointwise_dominance(self):
        out = ts.decide_leq(FREE_2, (1, 0), (2, 1))
        assert out.is_equiv
        assert out.certificate.steps == ()
        assert out.slack == (1, 1)

    def test_two_loops_backward(self):
        out = ts.decide_leq(TWO_LOOPS, (2,), (1,))
        assert out.is_equiv
        assert ts.verify_leq_outcome(TWO_LOOPS, (2,), (1,), out)

    def test_free_monoid_not_leq(self):
        out = ts.decide_leq(FREE_1, (2,), (1,))
        assert out.is_not_equiv
        assert out.separator.coeffs == (1,)
        assert ts.verify_separator(FREE_1, out.separator, (2,), (1,), order=True)

    def test_extended_separator(self):
        # u absorbs w (move u -> u+w) so every finite invariant kills the w
        # coordinate; refuting 2[w] <= [w] needs a functional infinite at u
        p = pres(2, [((1, 0), (1, 1)), ((0, 1), (0, 1))])
        out = ts.decide_leq(p, (0, 2), (0, 1))
        assert out.is_not_equiv
        assert out.separator.kind is ts.SeparatorKind.EXTENDED
        assert ts.verify_separator(p, out.separator, (0, 2), (0, 1), order=True)


class TestKlParadoxical:
    def test_two_loops_properly_infinite(self):
        out = ts.kl_paradoxical(TWO_LOOPS, (1,), 2, 1)
        assert out.is_equiv
        assert ts.verify_leq_outcome(TWO_LOOPS, (2,), (1,), out)

    def test_zero_class_trivially_paradoxical(self):
        out = ts.kl_paradoxical(FREE_2, (0, 0), 5, 2)
        assert out.is_equiv

    def test_one_loop_not_paradoxical(self):
        out = ts.kl_paradoxical(ONE_LOOP, (1,), 2, 1)
        assert out.is_not_equiv
        assert out.separator.coeffs == (1,)

    def test_invalid_pair(self):
        with pytest.raises(ts.InputError) as e:
            ts.kl_paradoxical(TWO_LOOPS, (1,), 1, 1)
        assert e.value.code == "INVALID_PAIR"

    @pytest.mark.parametrize("k, l", [(2, True), (True, 0), (2.0, 1), (2, 1.0)])
    def test_non_int_pair(self, k, l):
        with pytest.raises(ts.InputError) as e:
            ts.kl_paradoxical(TWO_LOOPS, (1,), k, l)
        assert e.value.code == "INVALID_PAIR"

    def test_additivity_by_concatenation(self):
        # a properly-infinite certificate for each summand concatenates to
        # one for the sum: extra mass never blocks a move
        p = pres(2, [((1, 0), (2, 0)), ((0, 1), (0, 2))])
        t1, t2 = (1, 0), (0, 1)
        c1 = ts.kl_paradoxical(p, t1, 2, 1).certificate
        c2 = ts.kl_paradoxical(p, t2, 2, 1).certificate
        total = tuple(a + b for a, b in zip(t1, t2))
        combined = ts.EquivCertificate(
            total,
            c1.steps + c2.steps,
            tuple(a + b for a, b in zip(c1.end, c2.end)),
        )
        end = ts.replay(p, total, combined)
        assert end == combined.end
        assert all(e >= 2 * t for e, t in zip(end, total))


def random_presentation(rng, min_moves):
    dim = rng.randint(1, 3)
    moves = [
        (
            tuple(rng.randint(0, 2) for _ in range(dim)),
            tuple(rng.randint(0, 2) for _ in range(dim)),
        )
        for _ in range(rng.randint(min_moves, 3))
    ]
    return pres(dim, moves)


def _span(p, gens, coeff_bound):
    """Distinct combinations of `gens` with coefficients up to coeff_bound,
    in the sweep's order."""
    return list(dict.fromkeys(
        tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(p.dim))
        for coeffs in itertools.product(range(coeff_bound + 1), repeat=len(gens))
    ))


def _reference_sweep(p, gens, coeff_bound, mult_bound, budget, max_pairs):
    """The sweep as first written: full span, then a search over every
    multiplier pair n > m of each refuted pair."""
    span = _span(p, gens, coeff_bound)
    pairs_checked = unknown = 0
    for theta in span:
        for eta in span:
            if pairs_checked >= max_pairs:
                return (None, pairs_checked, unknown, True)
            pairs_checked += 1
            order = ts.decide_leq(p, theta, eta, budget)
            if order.is_unknown:
                unknown += 1
            if not order.is_not_equiv:
                continue
            for n in range(2, mult_bound + 1):
                for m in range(1, n):
                    scaled = ts.decide_leq(
                        p, tuple(n * x for x in theta), tuple(m * x for x in eta), budget
                    )
                    if scaled.is_equiv:
                        return ((theta, eta, n, m), pairs_checked, unknown, False)
                    unknown += scaled.is_unknown
    return (None, pairs_checked, unknown, False)


class TestAlmostUnperforated:
    def test_free_monoid_clear(self):
        sweep = ts.almost_unperforated_up_to(FREE_1, [(1,)], 4, 4)
        assert sweep == ts.UnperforationSweep(None, 25, 0, False)

    def test_two_loops_clear(self):
        sweep = ts.almost_unperforated_up_to(TWO_LOOPS, [(1,)], 4, 4)
        assert sweep == ts.UnperforationSweep(None, 25, 0, False)

    def test_free_rank_two_clear(self):
        sweep = ts.almost_unperforated_up_to(FREE_2, [(1, 0), (0, 1)], 3, 3)
        assert sweep == ts.UnperforationSweep(None, 256, 0, False)

    def test_refuted_pairs_stay_refuted_under_scaling(self):
        # the sweep makes one decide_leq per pair because a separator c that
        # refutes theta <= eta also refutes n*theta <= m*eta for n > m >= 1
        rng = random.Random(31)
        presentations = [pres(2, [((2, 0), (0, 1))])]
        presentations += [random_presentation(rng, 0) for _ in range(12)]
        budget = ts.SearchBudget(2000, 24)
        refuted = 0
        for p in presentations:
            gens = [ts.unit_vector(p.dim, i) for i in range(p.dim)]
            span = _span(p, gens, 2)
            for theta in span:
                for eta in span:
                    out = ts.decide_leq(p, theta, eta, budget)
                    if not out.is_not_equiv:
                        continue
                    refuted += 1
                    for n in range(2, 5):
                        for m in range(1, n):
                            assert ts.verify_separator(
                                p, out.separator,
                                tuple(n * x for x in theta), tuple(m * x for x in eta),
                                order=True,
                            )
            sweep = ts.almost_unperforated_up_to(p, gens, 2, 4, budget)
            assert sweep.counterexample is None
        assert refuted > 50

    def test_matches_reference_sweep(self):
        rng = random.Random(47)
        budget = ts.SearchBudget(2000, 24)
        for _ in range(10):
            p = random_presentation(rng, 1)
            gens = [ts.unit_vector(p.dim, i) for i in range(p.dim)]
            max_pairs = rng.choice((1, 7, 30, 5000))
            sweep = ts.almost_unperforated_up_to(p, gens, 2, 3, budget, max_pairs)
            expected = _reference_sweep(p, gens, 2, 3, budget, max_pairs)
            assert (sweep.counterexample, sweep.pairs_checked, sweep.unknown_pairs,
                    sweep.truncated) == expected

    def test_large_dimension_max_pairs_one(self):
        # a full span would have (10**6 + 1)**12 vectors; only two are built
        sweep = ts.almost_unperforated_up_to(
            pres(12, []), [ts.unit_vector(12, i) for i in range(12)], 10**6, 4, max_pairs=1
        )
        assert sweep.pairs_checked == 1 and sweep.truncated and sweep.unknown_pairs == 0

    @pytest.mark.parametrize("p, gens, coeff_bound, span_size", [
        (TWO_LOOPS, [(1,)], 4, 5),
        (FREE_2, [(1, 0), (0, 1)], 4, 25),
        (FREE_2, [(1, 0)], 0, 1),
    ])
    def test_truncation_at_span_boundaries(self, p, gens, coeff_bound, span_size):
        pairs = span_size ** 2
        for max_pairs in (0, 1, span_size - 1, span_size, span_size + 1,
                          pairs - 1, pairs, pairs + 1):
            sweep = ts.almost_unperforated_up_to(p, gens, coeff_bound, 4, max_pairs=max_pairs)
            assert sweep.pairs_checked == min(max_pairs, pairs)
            assert sweep.truncated is (max_pairs < pairs)


class TestUnitFastPathAgreesWithSearch:
    def test_random_unit_presentations(self):
        rng = random.Random(23)
        for _ in range(60):
            dim = rng.randint(1, 4)
            moves = []
            for _ in range(rng.randint(0, 4)):
                a, b = rng.randrange(dim), rng.randrange(dim)
                moves.append((ts.unit_vector(dim, a), ts.unit_vector(dim, b)))
            p = pres(dim, moves)
            assert _unit_structure(p) is not None
            f = tuple(rng.randint(0, 2) for _ in range(dim))
            g = tuple(rng.randint(0, 2) for _ in range(dim))
            fast = ts.decide_equiv(p, f, g)
            slow = (
                fast
                if f == g
                else _bfs_equiv(p, f, g, ts.SearchBudget(50_000, 32))
            )
            if fast.is_equiv:
                assert slow.is_equiv or f == g
                assert ts.replay(p, f, fast.certificate) == g
            else:
                assert not slow.is_equiv
                assert ts.verify_separator(p, fast.separator, f, g)
            fast_leq = ts.decide_leq(p, f, g)
            slow_leq = _bfs_leq(p, f, g, ts.SearchBudget(50_000, 32))
            if fast_leq.is_equiv:
                assert ts.verify_leq_outcome(p, f, g, fast_leq)
                assert slow_leq.is_equiv or all(a <= b for a, b in zip(f, g))
            else:
                assert not slow_leq.is_equiv
                assert ts.verify_separator(p, fast_leq.separator, f, g, order=True)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(min_value=1, max_value=3),
)
def test_emitted_equiv_certificates_always_replay(data, dim):
    nmoves = data.draw(st.integers(min_value=0, max_value=3))
    moves = []
    vec = st.tuples(*([st.integers(min_value=0, max_value=2)] * dim))
    for _ in range(nmoves):
        moves.append((data.draw(vec), data.draw(vec)))
    p = pres(dim, moves)
    f = data.draw(vec)
    g = data.draw(vec)
    out = ts.decide_equiv(p, f, g, ts.SearchBudget(3000, 24))
    if out.is_equiv:
        assert ts.replay(p, f, out.certificate) == g
    elif out.is_not_equiv:
        assert ts.verify_separator(p, out.separator, f, g)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=3))
def test_pointwise_order_always_embeds(data, dim):
    vec = st.tuples(*([st.integers(min_value=0, max_value=3)] * dim))
    nmoves = data.draw(st.integers(min_value=0, max_value=3))
    p = pres(dim, [(data.draw(vec), data.draw(vec)) for _ in range(nmoves)])
    f = data.draw(vec)
    h = data.draw(vec)
    g = tuple(a + b for a, b in zip(f, h))
    out = ts.decide_leq(p, f, g)
    assert out.is_equiv
    assert out.slack == h or ts.verify_leq_outcome(p, f, g, out)


def test_zero_faithfulness_on_expansive_presentations():
    # every move rewrites a unit into a nonzero image, so only 0 is
    # congruent to 0
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(1, 3)
        moves = []
        for v in range(dim):
            rhs = [0] * dim
            for _ in range(rng.randint(1, 2)):
                rhs[rng.randrange(dim)] += 1
            moves.append((ts.unit_vector(dim, v), tuple(rhs)))
        p = pres(dim, moves)
        f = tuple(rng.randint(0, 2) for _ in range(dim))
        if f == (0,) * dim:
            continue
        out = ts.decide_equiv(p, f, (0,) * dim, ts.SearchBudget(5000, 32))
        assert not out.is_equiv


# ---------------------------------------------------------------------------
# reference copies of the order separators and searches as first written: a
# rational LP on the full support, a separate loop over the proper supports,
# and one expansion loop per search


def _reference_rational_separator(p, f, g):
    rows = [({i: row[i] for i in range(p.dim) if row[i]}, "==", 0) for row in _difference_rows(p)]
    diff = tuple(a - b for a, b in zip(f, g))
    gap = {i: diff[i] for i in range(p.dim) if diff[i]}
    if not gap:
        return None
    x = feasible_point(p.dim, rows + [(gap, ">=", 1)])
    if x is None:
        return None
    return ts.LinearSeparator(ts.SeparatorKind.RATIONAL, primitive_integer(list(x)))


def _reference_extended_separator(p, f, g):
    d = p.dim
    supports = [(frozenset(i for i, x in enumerate(mv.lhs) if x),
                 frozenset(i for i, x in enumerate(mv.rhs) if x))
                for mv in p.moves]
    fsupp = frozenset(i for i, x in enumerate(f) if x)
    gsupp = frozenset(i for i, x in enumerate(g) if x)
    for size in range(d):
        for F in itertools.combinations(range(d), size):
            Fset = frozenset(F)
            if not gsupp <= Fset:
                continue
            if any((ls <= Fset) != (rs <= Fset) for ls, rs in supports):
                continue
            if not fsupp <= Fset:
                coeffs = tuple(0 if i in Fset else INFINITY for i in range(d))
                return ts.LinearSeparator(ts.SeparatorKind.EXTENDED, coeffs)
            col = {i: j for j, i in enumerate(F)}
            rows = []
            for mv, (ls, rs) in zip(p.moves, supports):
                if ls <= Fset and rs <= Fset:
                    coeffs = {col[i]: mv.lhs[i] - mv.rhs[i] for i in F
                              if mv.lhs[i] != mv.rhs[i]}
                    if coeffs:
                        rows.append((coeffs, "==", 0))
            gap = {col[i]: f[i] - g[i] for i in F if f[i] != g[i]}
            if not gap:
                continue
            x = feasible_point(len(F), rows + [(gap, ">=", 1)])
            if x is not None:
                values = [x[col[i]] if i in Fset else INFINITY for i in range(d)]
                return ts.LinearSeparator(ts.SeparatorKind.EXTENDED, _parent_scale_extended(values))
    return None


def _reference_order_separator(p, f, g):
    return _reference_rational_separator(p, f, g) or _reference_extended_separator(p, f, g)


def _agrees_with_reference(p, f, g, sep):
    """`_order_separator`'s answer `sep` refutes f <= g exactly when the
    reference's does, and verifies.  It is the reference's separator except
    where the reference's full support found a rational one and the least
    admissible support is proper: `sep` is then the extended one on it."""
    expected = _reference_order_separator(p, f, g)
    if expected is None or sep is None:
        return sep is expected
    return ts.verify_separator(p, sep, f, g, order=True) and (sep == expected or (
        sep.kind is ts.SeparatorKind.EXTENDED and expected.kind is ts.SeparatorKind.RATIONAL))


def _reference_compiled_moves(p):
    comp = []
    for i, mv in enumerate(p.moves):
        comp.append((i, ts.Direction.FORWARD, mv.lhs, tuple(b - a for a, b in zip(mv.lhs, mv.rhs))))
        comp.append((i, ts.Direction.BACKWARD, mv.rhs, tuple(a - b for a, b in zip(mv.lhs, mv.rhs))))
    return comp


def _reference_back_steps(visited, state):
    steps = []
    while visited[state] is not None:
        prev, idx, dn = visited[state]
        steps.append(ts.RewriteStep(idx, dn))
        state = prev
    steps.reverse()
    return steps


def _reference_bfs_equiv(p, f, g, budget):
    moves = _reference_compiled_moves(p)
    visited = ({f: None}, {g: None})
    frontier = [[f], [g]]
    cap_hit = [False, False]

    def report(exhausted):
        return ts.DecisionOutcome(ts.Verdict.UNKNOWN, budget=ts.BudgetReport(
            len(visited[0]) + len(visited[1]), cap_hit[0] or cap_hit[1], exhausted))

    while frontier[0] or frontier[1]:
        side = 0 if frontier[0] and (not frontier[1] or len(visited[0]) <= len(visited[1])) else 1
        mine, other = visited[side], visited[1 - side]
        nxt = []
        for state in frontier[side]:
            for (idx, dn, need, delta) in moves:
                if any(sv < nv for sv, nv in zip(state, need)):
                    continue
                new = tuple(sv + dv for sv, dv in zip(state, delta))
                if max(new) > budget.max_coord:
                    cap_hit[side] = True
                    continue
                if new in mine:
                    continue
                mine[new] = (state, idx, dn)
                if new in other:
                    steps_g = _reference_back_steps(visited[1], new)
                    inverted = [ts.RewriteStep(s.move_index, _flip(s.direction))
                                for s in reversed(steps_g)]
                    cert = ts.EquivCertificate(
                        f, tuple(_reference_back_steps(visited[0], new) + inverted), g)
                    return ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=cert)
                nxt.append(new)
        frontier[side] = nxt
        if not nxt and not cap_hit[side]:
            return report(True)
        if len(visited[0]) + len(visited[1]) > budget.max_states:
            return report(False)
    return report(not (cap_hit[0] or cap_hit[1]))


def _reference_bfs_leq(p, f, g, budget):
    moves = _reference_compiled_moves(p)
    visited = {g: None}
    frontier = [g]
    cap_hit = False
    while frontier:
        nxt = []
        for state in frontier:
            for (idx, dn, need, delta) in moves:
                if any(sv < nv for sv, nv in zip(state, need)):
                    continue
                new = tuple(sv + dv for sv, dv in zip(state, delta))
                if max(new) > budget.max_coord:
                    cap_hit = True
                    continue
                if new in visited:
                    continue
                visited[new] = (state, idx, dn)
                if all(nv >= fv for nv, fv in zip(new, f)):
                    return ts.DecisionOutcome(
                        ts.Verdict.EQUIV,
                        certificate=ts.EquivCertificate(g, tuple(_reference_back_steps(visited, new)), new),
                        slack=tuple(a - b for a, b in zip(new, f)),
                    )
                nxt.append(new)
        frontier = nxt
        if len(visited) > budget.max_states:
            return ts.DecisionOutcome(
                ts.Verdict.UNKNOWN, budget=ts.BudgetReport(len(visited), cap_hit, False))
    return ts.DecisionOutcome(
        ts.Verdict.UNKNOWN, budget=ts.BudgetReport(len(visited), cap_hit, not cap_hit))


def _non_unit_presentation(rng, dim, nmoves):
    while True:
        p = pres(dim, [
            (tuple(rng.choice((0, 0, 1, 2)) for _ in range(dim)),
             tuple(rng.choice((0, 0, 1, 2)) for _ in range(dim)))
            for _ in range(nmoves)
        ])
        if _unit_structure(p) is None:
            return p


class TestOnePathMatchesReference:
    def test_separators_and_searches(self):
        rng = random.Random(59)
        budget = ts.SearchBudget(300, 6)
        seen = set()
        for dim in range(1, 6):
            for _ in range(8):
                p = _non_unit_presentation(rng, dim, rng.randint(1, 4))
                for _ in range(6):
                    f = tuple(rng.randint(0, 2) for _ in range(dim))
                    g = tuple(rng.randint(0, 2) for _ in range(dim))
                    sep = _order_separator(p, f, g)
                    assert _agrees_with_reference(p, f, g, sep)
                    equiv = _bfs_equiv(p, f, g, budget)
                    assert equiv == _reference_bfs_equiv(p, f, g, budget)
                    leq = _bfs_leq(p, f, g, budget)
                    assert leq == _reference_bfs_leq(p, f, g, budget)
                    if all(a <= b for a, b in zip(f, g)):
                        continue
                    expected = (
                        ts.DecisionOutcome(ts.Verdict.NOT_EQUIV, separator=sep)
                        if sep is not None else leq
                    )
                    assert ts.decide_leq(p, f, g, budget) == expected
                    seen.add(sep.kind if sep else leq.verdict)
                    seen.add(equiv.verdict)
        # every branch of the separator and both search verdicts were reached
        assert seen >= {ts.SeparatorKind.RATIONAL, ts.SeparatorKind.EXTENDED,
                        ts.Verdict.EQUIV, ts.Verdict.UNKNOWN}

    def test_thirteen_dimensions_try_the_least_admissible_support(self, monkeypatch):
        # the least admissible support is tried at every dimension, with at
        # most one LP
        rng = random.Random(61)
        solved = []
        real_solve = cones.solve_lp

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        p = _non_unit_presentation(rng, 13, 6)
        kinds = set()
        for _ in range(30):
            f = tuple(rng.randint(0, 2) for _ in range(13))
            g = tuple(rng.randint(0, 2) for _ in range(13))
            monkeypatch.setattr(cones, "solve_lp", counting_solve)
            solved.clear()
            sep = _order_separator(p, f, g)
            monkeypatch.setattr(cones, "solve_lp", real_solve)
            assert _agrees_with_reference(p, f, g, sep)
            assert len(solved) <= 1
            kinds.add(None if sep is None else sep.kind)
        assert kinds == {ts.SeparatorKind.RATIONAL, ts.SeparatorKind.EXTENDED, None}


def _random_order_presentations(rng, dim):
    """Arbitrary, zero-sided and k-graph presentations that are not unit-move."""
    out = [_non_unit_presentation(rng, dim, rng.randint(1, 5)) for _ in range(2)]
    zero = (0,) * dim
    base = _non_unit_presentation(rng, dim, rng.randint(1, 3))
    extra = [(zero, tuple(rng.randint(0, 1) for _ in range(dim))),
             (tuple(rng.randint(0, 2) for _ in range(dim)), zero)]
    out.append(pres(dim, list(base.moves) + rng.sample(extra, rng.randint(1, 2))))
    while True:
        matrix = [[rng.choice((0, 0, 0, 1, 2)) for _ in range(dim)] for _ in range(dim)]
        for row in matrix:
            if not any(row):
                row[rng.randrange(dim)] = 1
        p = _kgraph_presentation(matrix)
        if p._unit is None:
            out.append(p)
            return out


class TestLeastAdmissibleSupport:
    def test_is_the_intersection_of_all_admissible_supports(self):
        rng = random.Random(73)
        proper = grown = 0
        for _ in range(400):
            d = rng.randint(1, 6)
            full = (1 << d) - 1
            sides = [tuple(rng.randint(0, full) if rng.random() < 0.8 else 0 for _ in range(2))
                     for _ in range(rng.randint(0, 6))]
            seed = rng.randint(0, full) if rng.random() < 0.9 else 0
            expected = full
            for F in range(full + 1):
                if F & seed == seed and all(
                        ((ls & ~F) == 0) == ((rs & ~F) == 0) for ls, rs in sides):
                    expected &= F
            got = least_admissible_support(iter(sides), seed)
            assert got == expected
            proper += got != full
            grown += got != seed
        assert proper > 50 and grown > 50

    def test_order_separator_matches_reference_up_to_nine_dimensions(self):
        # the reference tries the full support and then every admissible
        # support in (size, lex) order; the least one decides alone, and
        # `_separator_on_support` answers on it as `_order_separator` does
        rng = random.Random(79)
        kinds = set()
        for dim in range(1, 10):
            for p in _random_order_presentations(rng, dim):
                for _ in range(5):
                    f = tuple(rng.randint(0, 2) for _ in range(dim))
                    g = tuple(rng.randint(0, 2) for _ in range(dim))
                    sep = _order_separator(p, f, g)
                    assert _agrees_with_reference(p, f, g, sep)
                    F = least_admissible_support(zip(*p._supports), monoid._support(g))
                    if not monoid._support(f) & ~F:
                        assert _separator_on_support(p, F, f, g) == sep
                    kinds.add(None if sep is None else sep.kind)
        assert kinds == {ts.SeparatorKind.RATIONAL, ts.SeparatorKind.EXTENDED, None}


class TestVerifySeparatorRejectsMalformed:
    # the presentation of the triangular graph [[1, 1], [0, 1]]
    TRIANGULAR = pres(2, [((1, 0), (1, 1)), ((0, 1), (0, 1))])

    def test_genuine_separators_pass(self):
        p = self.TRIANGULAR
        assert ts.verify_separator(p, ts.LinearSeparator(ts.SeparatorKind.RATIONAL, (1, 0)),
                                   (2, 0), (1, 0), order=True)
        assert ts.verify_separator(p, ts.LinearSeparator(ts.SeparatorKind.MODULAR, (1, 0), 2),
                                   (1, 0), (2, 0))
        assert ts.verify_separator(p, ts.LinearSeparator(ts.SeparatorKind.EXTENDED, (INFINITY, 1)),
                                   (0, 2), (0, 1), order=True)

    @pytest.mark.parametrize("coeffs", [(1, 0, 5), (1,), (True, False), (1.0, 0.0), ("1", 0)])
    def test_rational_coefficients(self, coeffs):
        sep = ts.LinearSeparator(ts.SeparatorKind.RATIONAL, coeffs)
        assert not ts.verify_separator(self.TRIANGULAR, sep, (2, 0), (1, 0), order=True)

    @pytest.mark.parametrize("coeffs, modulus", [
        ((1, 0, 5), 2), ((1,), 2), ((True, False), 2), ((1.0, 0.0), 2), (("1", 0), 2),
        ((1, 0), "2"), ((1, 0), 2.0), ((1, 0), True), ((1, 0), None)])
    def test_modular_coefficients_and_modulus(self, coeffs, modulus):
        sep = ts.LinearSeparator(ts.SeparatorKind.MODULAR, coeffs, modulus)
        assert not ts.verify_separator(self.TRIANGULAR, sep, (1, 0), (2, 0))

    @pytest.mark.parametrize("coeffs", [
        (INFINITY, 1, 5), (INFINITY,), (INFINITY, True), (INFINITY, 1.0), (INFINITY, "1"),
        ("inf", 1)])
    def test_extended_coefficients(self, coeffs):
        sep = ts.LinearSeparator(ts.SeparatorKind.EXTENDED, coeffs)
        assert not ts.verify_separator(self.TRIANGULAR, sep, (0, 2), (0, 1), order=True)

    @pytest.mark.parametrize("sep", [None, ((1, 0),), "separator"])
    def test_not_a_linear_separator(self, sep):
        # a separator of the wrong type raised AttributeError
        assert not ts.verify_separator(self.TRIANGULAR, sep, (2, 0), (1, 0))
        assert not ts.verify_separator(self.TRIANGULAR, sep, (2, 0), (1, 0), order=True)

    def test_extended_separators_refute_congruence(self):
        # (oo, 0) is 0 on the admissible support {1} and oo off it
        p = self.TRIANGULAR
        for coeffs, f, g in [((INFINITY, 0), (1, 0), (0, 1)), ((INFINITY, 0), (0, 1), (1, 0)),
                             ((INFINITY, 1), (0, 1), (0, 2)), ((INFINITY, 2), (0, 3), (0, 1))]:
            sep = ts.LinearSeparator(ts.SeparatorKind.EXTENDED, coeffs)
            assert ts.verify_separator(p, sep, f, g)

    @pytest.mark.parametrize("coeffs, f, g", [
        ((INFINITY, 0), (0, 1), (0, 2)),  # both 0
        ((INFINITY, 0), (1, 0), (2, 1)),  # both oo
        ((0, INFINITY), (1, 0), (0, 1)),  # 0 against oo, but {0} is not admissible
        ((INFINITY, -1), (0, 1), (0, 2)),
        ((INFINITY, True), (0, 1), (0, 2)),
        ((INFINITY, 1.0), (0, 1), (0, 2)),
        ((INFINITY, 1, 5), (0, 1), (0, 2)),
    ])
    def test_extended_congruence_rejections(self, coeffs, f, g):
        sep = ts.LinearSeparator(ts.SeparatorKind.EXTENDED, coeffs)
        assert not ts.verify_separator(self.TRIANGULAR, sep, f, g)

    def test_extended_equal_finite_values_rejected(self):
        # no moves: every extended vector is invariant; both values are 1
        sep = ts.LinearSeparator(ts.SeparatorKind.EXTENDED, (INFINITY, 1, 1))
        assert ts.verify_separator(pres(3, []), sep, (0, 1, 0), (0, 0, 2))
        assert not ts.verify_separator(pres(3, []), sep, (0, 1, 0), (0, 0, 1))

    def test_infinity_only_in_extended_separators(self):
        p = self.TRIANGULAR
        sep = ts.LinearSeparator(ts.SeparatorKind.RATIONAL, (INFINITY, 1))
        assert not ts.verify_separator(p, sep, (0, 2), (0, 1), order=True)
        sep = ts.LinearSeparator(ts.SeparatorKind.RATIONAL, (1, 0), modulus=2)
        assert not ts.verify_separator(p, sep, (2, 0), (1, 0), order=True)


class TestInternalFailures:
    def test_missing_unit_path_raises_consistency_error(self):
        # two vertices in one component but no move between them
        unit = _UnitStructure([0, 0], [[], []])
        with pytest.raises(ts.ConsistencyError):
            _unit_path(unit, 0, 1)


class TestSweepBounds:
    def test_negative_coeff_bound_rejected(self):
        with pytest.raises(ts.InputError) as e:
            ts.almost_unperforated_up_to(TWO_LOOPS, [(1,)], -1, 4)
        assert e.value.code == "NEGATIVE_ENTRY"

    def test_zero_coeff_bound_checks_the_zero_pair(self):
        sweep = ts.almost_unperforated_up_to(TWO_LOOPS, [(1,)], 0, 4)
        assert (sweep.pairs_checked, sweep.truncated, sweep.unknown_pairs) == (1, False, 0)

    # a unit and a non-unit presentation reject alike
    @pytest.mark.parametrize("p", [pres(2, [((1, 0), (0, 1))]), TWO_LOOPS])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "3", None])
    @pytest.mark.parametrize("name", ["coeff_bound", "max_pairs", "mult_bound"])
    def test_non_integral_bound_rejected(self, p, bad, name):
        gens = [ts.unit_vector(p.dim, i) for i in range(p.dim)]
        with pytest.raises(ts.InputError) as e:
            ts.almost_unperforated_up_to(p, gens, **{name: bad})
        assert e.value.code == "NON_INTEGRAL_ENTRY"
        assert e.value.details == {name: repr(bad)}

    @pytest.mark.parametrize("p", [pres(2, [((1, 0), (0, 1))]), TWO_LOOPS])
    @pytest.mark.parametrize("name", ["coeff_bound", "max_pairs", "mult_bound"])
    def test_negative_bound_rejected(self, p, name):
        gens = [ts.unit_vector(p.dim, i) for i in range(p.dim)]
        for bad in (-1, -3):
            with pytest.raises(ts.InputError) as e:
                ts.almost_unperforated_up_to(p, gens, **{name: bad})
            assert (e.value.code, e.value.details) == ("NEGATIVE_ENTRY", {name: bad})


class TestSearchBudgetFields:
    # malformed budgets were taken: max_states=-1 gave up after 2 states,
    # max_coord=-1 or True hit the cap at the root, 2.5 was accepted and "x"
    # raised a bare TypeError inside the search
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "x", None])
    @pytest.mark.parametrize("name", ["max_states", "max_coord"])
    def test_non_integral_field_rejected(self, name, bad):
        with pytest.raises(ts.InputError) as e:
            ts.SearchBudget(**{name: bad})
        assert (e.value.code, e.value.details) == ("NON_INTEGRAL_ENTRY", {name: repr(bad)})

    @pytest.mark.parametrize("bad", [-1, -200_000])
    @pytest.mark.parametrize("name", ["max_states", "max_coord"])
    def test_negative_field_rejected(self, name, bad):
        with pytest.raises(ts.InputError) as e:
            ts.SearchBudget(**{name: bad})
        assert (e.value.code, e.value.details) == ("NEGATIVE_ENTRY", {name: bad})

    def test_zero_fields_accepted(self):
        budget = ts.SearchBudget(0, 0)
        assert (budget.max_states, budget.max_coord) == (0, 0)
        assert ts.decide_equiv(TWO_LOOPS, (2,), (1,), budget).is_unknown

    # a budget that is not a SearchBudget was coerced: 0 and False became
    # the default budget through `budget or DEFAULT_BUDGET`, "x" raised a
    # bare AttributeError inside the search, and a unit sweep never read it
    @pytest.mark.parametrize("bad", [0, False, "x", (200_000, 64)])
    @pytest.mark.parametrize("call", [
        lambda b: ts.decide_equiv(TWO_LOOPS, (1,), (3,), b),
        lambda b: ts.decide_leq(TWO_LOOPS, (3,), (1,), b),
        lambda b: ts.kl_paradoxical(TWO_LOOPS, (1,), 2, 1, b),
        lambda b: ts.almost_unperforated_up_to(pres(2, [((1, 0), (0, 1))]), [(1, 0)], budget=b),
    ], ids=["decide_equiv", "decide_leq", "kl_paradoxical", "almost_unperforated_up_to"])
    def test_budget_that_is_not_a_search_budget_rejected(self, call, bad):
        with pytest.raises(ts.InputError) as e:
            call(bad)
        assert (e.value.code, e.value.details) == ("SCHEMA_VIOLATION", {"budget": repr(bad)})
        assert call(None) == call(ts.DEFAULT_BUDGET)


def _kgraph_presentation(*mats):
    model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], list(mats))
    return ts.presentation_from_kgraph(model)


def _sweep_presentations(rng, dim):
    """A unit, a triangular, a purely infinite and a random presentation."""
    perm = rng.sample(range(dim), dim)
    unit = pres(dim, [(ts.unit_vector(dim, i), ts.unit_vector(dim, perm[i]))
                      for i in range(dim)])
    triangular = _kgraph_presentation(
        [[int(i == j) or (rng.randint(0, 1) if j > i else 0) for j in range(dim)]
         for i in range(dim)])
    purely_infinite = _kgraph_presentation(
        [[2 if dim == 1 or j == (i + 1) % dim else rng.randint(0, 1) for j in range(dim)]
         for i in range(dim)])
    return [unit, triangular, purely_infinite,
            _non_unit_presentation(rng, dim, rng.randint(1, 4))]


def _sweep_pairs(p, coeff_bound, max_pairs):
    span = _span(p, [ts.unit_vector(p.dim, i) for i in range(p.dim)], coeff_bound)
    return span, list(itertools.islice(itertools.product(span, repeat=2), max_pairs))


class TestCompiledSweep:
    def test_memoized_decider_matches_public(self):
        rng = random.Random(67)
        budget = ts.SearchBudget(300, 6)
        seen = set()
        for dim in range(1, 6):
            for p in _sweep_presentations(rng, dim):
                assert p._supports is not None
                _, pairs = _sweep_pairs(p, 3 if dim <= 2 else 1, 400)
                for theta, eta in pairs:
                    expected = ts.decide_leq(p, theta, eta, budget)
                    if all(t <= e for t, e in zip(theta, eta)):
                        assert expected.is_equiv and not expected.certificate.steps
                        continue
                    # `_separator_on_support` answers on eta's least
                    # admissible support as `_order_separator` does
                    sep = _order_separator(p, theta, eta)
                    F = least_admissible_support(zip(*p._supports), monoid._support(eta))
                    if not monoid._support(theta) & ~F:
                        assert _separator_on_support(p, F, theta, eta) == sep
                    if p._unit is None:  # decide_leq takes the unit path otherwise
                        assert sep == (expected.separator if expected.is_not_equiv else None)
                    seen.add(expected.separator.kind if expected.is_not_equiv
                             else expected.verdict)
        assert seen >= {ts.SeparatorKind.RATIONAL, ts.SeparatorKind.EXTENDED,
                        ts.Verdict.EQUIV, ts.Verdict.UNKNOWN}

    def test_memo_keeps_supports_with_equal_gaps_apart(self):
        # both queries solve an LP with gap (1,) on a one-point support, but
        # on different points; the invariants kill both coordinates on the
        # full support
        p = pres(2, [((1, 1), (2, 1)), ((1, 1), (1, 2))])
        for f, g, coeffs in (((2, 0), (1, 0), (1, INFINITY)),
                             ((0, 2), (0, 1), (INFINITY, 1))):
            F = monoid._support(g)
            assert least_admissible_support(zip(*p._supports), F) == F
            sep = _separator_on_support(p, F, f, g)
            assert sep == _order_separator(p, f, g)
            assert ts.decide_leq(p, f, g) == ts.DecisionOutcome(ts.Verdict.NOT_EQUIV, separator=sep)
            assert sep == ts.LinearSeparator(ts.SeparatorKind.EXTENDED, coeffs)
            assert _separator_on_support(p, (1 << p.dim) - 1, f, g) is None

    def test_sweep_matches_per_pair_loop(self):
        rng = random.Random(71)
        budget = ts.SearchBudget(300, 6)
        unknown_seen = False
        for dim in range(1, 6):
            for p in _sweep_presentations(rng, dim):
                coeff_bound = 3 if dim <= 2 else 1
                max_pairs = rng.choice((1, 50, 400))
                span, pairs = _sweep_pairs(p, coeff_bound, max_pairs)
                unknown = sum(ts.decide_leq(p, t, e, budget).is_unknown for t, e in pairs)
                sweep = ts.almost_unperforated_up_to(
                    p, [ts.unit_vector(dim, i) for i in range(dim)], coeff_bound, 4,
                    budget, max_pairs)
                assert sweep == ts.UnperforationSweep(
                    None, len(pairs), unknown, len(span) ** 2 > len(pairs))
                unknown_seen |= unknown > 0
        assert unknown_seen

    def test_triangular_sweep_solves_each_lp_once(self, monkeypatch):
        # the triangular 1-graph's sweep and the 2-graph (A, I)'s both refute
        # by their cones' generators and solve no LP, and so does
        # `decide_leq` on every pair: a pair some generator separates takes
        # the first such generator as its separator
        gens = [ts.unit_vector(2, i) for i in range(2)]
        solved = []
        real_solve = cones.solve_lp

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        keys = set()
        real_separator = monoid._separator_on_support

        def recording_separator(pres, F, f, g):
            gap = tuple(f[i] - g[i] for i in range(pres.dim) if F >> i & 1)
            if any(gap):
                keys.add((F, gap))
            return real_separator(pres, F, f, g)

        monkeypatch.setattr(cones, "solve_lp", counting_solve)
        triangular = _kgraph_presentation([[1, 1], [0, 1]])
        sweep = ts.almost_unperforated_up_to(triangular, gens, 4, 4)
        assert sweep.pairs_checked == 625 and sweep.unknown_pairs == 0
        assert solved == []

        p = ts.presentation_from_kgraph(ts.validate_kgraph(
            ["v0", "v1"], [[[1, 1], [0, 1]], [[1, 0], [0, 1]]]))
        _, pairs = _sweep_pairs(p, 4, 5000)
        read = []
        real_cone_solution = monoid._cone_solution

        def recording_cone_solution(pres, F, gap):
            values = real_cone_solution(pres, F, gap)
            read.append(values is not None)
            return values

        monkeypatch.setattr(monoid, "_cone_solution", recording_cone_solution)
        for q in (triangular, p):
            read.clear()
            for theta, eta in pairs:
                ts.decide_leq(q, theta, eta)
            # a generator is the separator of 156 pairs, which an LP's point
            # separated before (256 LPs when the full support came first,
            # 406 before the zero-cone rule), and no LP is solved
            assert solved == [] and sum(read) == 156
        monkeypatch.setattr(monoid, "_cone_solution", real_cone_solution)
        monkeypatch.setattr(monoid, "_separator_on_support", recording_separator)
        for theta, eta in pairs:
            if any(t > e for t, e in zip(theta, eta)):
                _order_separator(p, theta, eta)
        monkeypatch.setattr(monoid, "_separator_on_support", real_separator)
        # `_order_separator` asks eta's least admissible support F0 alone,
        # as the sweep does; on 30 distinct (F0, gap) keys some generator is
        # positive, and its values are the separator, with no LP
        least_keys = _least_support_keys(p, pairs)
        assert keys == least_keys
        left = set()
        for F, gap in least_keys:
            w = _gap_row(p, F, gap)
            values = _cone_solution(p, F, w)
            assert values == _first_positive(F, _cone_generators(p, F), w)
            if values is not None:
                left.add((F, gap))
        assert ts.almost_unperforated_up_to(p, gens, 4, 4) == sweep  # as the 1-graph's
        assert solved == [] and len(left) == 30
        assert len(left) < len(least_keys) < 156

    def test_no_state_outlives_the_sweep(self):
        # the sweep's tables, compiled moves and trees live only for the
        # call; the presentation keeps only its cone memo, one entry per
        # least admissible support the sweep reached, each the generators
        # an equal, unqueried presentation builds
        p = _kgraph_presentation([[1, 1], [0, 1]])
        twin = _kgraph_presentation([[1, 1], [0, 1]])
        gens = [ts.unit_vector(2, i) for i in range(2)]

        def fields(q):
            return {k: v for k, v in q.__dict__.items() if k != "_cones"}

        def module_state():
            return {(m.__name__, k): (v, len(v) if isinstance(v, (dict, list, set)) else None)
                    for m in (monoid, cones) for k, v in vars(m).items()}

        attrs, digest, before = fields(p), hash(p), module_state()
        first = ts.almost_unperforated_up_to(p, gens, 4, 4)
        assert fields(p) == attrs and module_state() == before
        assert hash(p) == digest == hash(twin) and p == twin and repr(p) == repr(twin)
        reached = {F for F, _ in _least_support_keys(
            p, itertools.product(_span(p, gens, 4), repeat=2))}
        memo = _cone_memo(p)
        assert len(reached) == 2 and sorted(memo) == sorted(reached)
        assert len(p._cones) == 2 * len(memo) and twin._cones == ()
        assert all(memo[F] == _cone_generators(twin, F) for F in reached)
        assert ts.almost_unperforated_up_to(p, gens, 4, 4) == first

    def test_moves_compiled_once_per_sweep(self, monkeypatch):
        # moves are compiled at most once per sweep, exactly once when it
        # searches and never for a unit presentation; one search tree is
        # grown per right-hand side eta that has a pair left after the
        # separators, no more
        rng = random.Random(73)
        budget = ts.SearchBudget(300, 6)
        compiled, roots = [], []
        real_compile, real_tree = monoid._compiled_moves, monoid._SearchTree

        def counting_compile(p, cap, largest):
            layout = real_compile(p, cap, largest)
            compiled.append(layout)
            return layout

        class CountingTree(real_tree):
            def __init__(self, root):
                roots.append(root)
                super().__init__(root)

        shared = 0
        for dim in range(1, 5):
            for p in _sweep_presentations(rng, dim):
                coeff_bound = 3 if dim <= 2 else 1
                gens = [ts.unit_vector(dim, i) for i in range(dim)]
                _, pairs = _sweep_pairs(p, coeff_bound, 5000)
                # the etas of the pairs that reach the search, one entry per pair
                searched = [] if p._unit is not None else [
                    eta for theta, eta in pairs
                    if any(t > e for t, e in zip(theta, eta))
                    and not ts.decide_leq(p, theta, eta, budget).is_not_equiv]
                compiled.clear()
                roots.clear()
                monkeypatch.setattr(monoid, "_compiled_moves", counting_compile)
                monkeypatch.setattr(monoid, "_SearchTree", CountingTree)
                ts.almost_unperforated_up_to(p, gens, coeff_bound, 4, budget)
                monkeypatch.undo()
                if p._unit is not None:
                    assert compiled == [] and roots == []
                    continue
                assert len(compiled) == 1 if searched else len(compiled) <= 1
                assert sorted(layout.unpack(root) for layout in compiled
                              for root in roots) == sorted(set(searched))
                shared += len(searched) > len(roots)
        assert shared >= 5

def _parent_bfs_leq(p, f, g, budget):
    """`_bfs_leq` with its own level loop, as it was before the sweep shared
    its searches."""
    layout = monoid._compiled_moves(p, budget.max_coord, max(f + g))
    tree = monoid._SearchTree(layout.pack(g))
    while tree.frontier:
        for new in tree.expand(layout):
            end = layout.unpack(new)
            if all(nv >= fv for nv, fv in zip(end, f)):
                return ts.DecisionOutcome(
                    ts.Verdict.EQUIV,
                    certificate=ts.EquivCertificate(
                        g, tuple(monoid._back_steps(tree.visited, layout, new)), end),
                    slack=tuple(a - b for a, b in zip(end, f)),
                )
        if len(tree.visited) > budget.max_states:
            return ts.DecisionOutcome(ts.Verdict.UNKNOWN, budget=ts.BudgetReport(
                len(tree.visited), tree.cap_hit, exhausted=False))
    return ts.DecisionOutcome(ts.Verdict.UNKNOWN, budget=ts.BudgetReport(
        len(tree.visited), tree.cap_hit, exhausted=not tree.cap_hit))


def _search_alone(layout, root, f, budget):
    """A search from the packed `root` for the packed f alone, by whole
    levels: the first new state that dominates f coordinatewise, unpacked
    to compare, or None, and whether the budget stopped the search."""
    tree = monoid._SearchTree(root)
    target = layout.unpack(f)
    while tree.frontier:
        for new in tree.expand(layout):
            if all(a >= b for a, b in zip(layout.unpack(new), target)):
                return new, False
        if len(tree.visited) > budget.max_states:
            return None, True
    return None, False


# tiny budgets put the level boundary where the searches stop
_TINY_BUDGETS = [ts.SearchBudget(states, coord)
                 for states in (0, 1, 2, 3, 5, 8, 13, 30) for coord in (1, 2, 4, 64)]


class TestSharedSearchLevels:
    def test_sweep_counts_as_the_per_pair_loop(self):
        # one tree per eta counts exactly the pairs `decide_leq` leaves
        # UNKNOWN, wherever the budget stops the search
        rng = random.Random(83)
        with_unknowns = 0
        for dim in range(1, 4):
            for p in _sweep_presentations(rng, dim)[1:]:  # the unit one searches nothing
                coeff_bound = {1: 3, 2: 2, 3: 1}[dim]
                gens = [ts.unit_vector(dim, i) for i in range(dim)]
                span, pairs = _sweep_pairs(p, coeff_bound, 5000)
                # a refutation does not depend on the budget
                refuted = [ts.decide_leq(p, t, e).is_not_equiv for t, e in pairs]
                for budget in _TINY_BUDGETS:
                    unknown = [not r and ts.decide_leq(p, t, e, budget).is_unknown
                               for r, (t, e) in zip(refuted, pairs)]
                    for max_pairs in (7, 50, 5000):
                        sweep = ts.almost_unperforated_up_to(p, gens, coeff_bound, 4,
                                                             budget, max_pairs)
                        checked = unknown[:max_pairs]
                        assert sweep == ts.UnperforationSweep(
                            None, len(checked), sum(checked), len(pairs) > len(checked))
                        with_unknowns += sweep.unknown_pairs > 0
        assert with_unknowns >= 50

    def test_bfs_leq_matches_its_own_loop(self):
        rng = random.Random(89)
        seen = set()
        for dim in range(1, 4):
            for p in _sweep_presentations(rng, dim) + [
                    _non_unit_presentation(rng, dim, rng.randint(1, 4)) for _ in range(3)]:
                for _ in range(4):
                    f = tuple(rng.randint(0, 3) for _ in range(dim))
                    g = tuple(rng.randint(0, 3) for _ in range(dim))
                    for budget in _TINY_BUDGETS:
                        out = _bfs_leq(p, f, g, budget)
                        assert repr(out) == repr(_parent_bfs_leq(p, f, g, budget))
                        seen.add(out.verdict if out.is_equiv else
                                 (out.budget.coordinate_cap_hit, out.budget.exhausted))
        # a found chain, and UNKNOWN with the frontier run out, stopped by
        # the coordinate cap and stopped by the state budget
        assert seen == {ts.Verdict.EQUIV, (False, True), (True, False), (False, False)}

    def test_dominate_maps_each_f_to_its_first_dominating_state(self):
        # duplicate and nested fs share one tree: each f maps to the first
        # new state, in `expand`'s discovery order, that dominates it,
        # exactly when a search for f alone finds one, and the fs left and
        # the budget stop are those searches' too
        rng = random.Random(101)
        shared_hits = stops = runs_out = 0
        for dim in range(1, 4):
            for p in _sweep_presentations(rng, dim)[1:] + [
                    _non_unit_presentation(rng, dim, rng.randint(1, 4)) for _ in range(2)]:
                for _ in range(3):
                    g = tuple(rng.randint(0, 3) for _ in range(dim))
                    fs = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(3)]
                    fs += [fs[0], tuple(map(min, fs[1], g)), tuple(x + 1 for x in fs[2]), fs[2]]
                    rng.shuffle(fs)
                    for budget in _TINY_BUDGETS:
                        layout = monoid._compiled_moves(p, budget.max_coord, max(g + sum(fs, ())))
                        root, packed = layout.pack(g), [layout.pack(f) for f in fs]
                        found, left, stopped = monoid._dominate(
                            monoid._SearchTree(root), layout, packed, budget)
                        alone = {f: _search_alone(layout, root, f, budget) for f in packed}
                        assert found == {f: new for f, (new, _) in alone.items() if new is not None}
                        assert left == [f for f in packed if alone[f][0] is None]
                        assert {alone[f][1] for f in left} == ({stopped} if left else set())
                        assert not stopped or left
                        shared_hits += len(set(found.values())) < len(found)
                        stops += stopped
                        runs_out += bool(left) and not stopped
        assert shared_hits >= 50 and stops >= 50 and runs_out >= 50

    def test_budget_stop_on_the_last_level_is_not_exhaustion(self):
        # no move applies to (1,), so the first level visits nothing and
        # empties the frontier; the root alone passes max_states=0, so that
        # search was stopped by the budget, not exhausted
        p = pres(1, [((2,), (3,))])
        for states, exhausted in ((0, False), (1, True)):
            budget = ts.SearchBudget(states, 64)
            out = _bfs_leq(p, (2,), (1,), budget)
            assert out == _parent_bfs_leq(p, (2,), (1,), budget)
            assert out.budget == ts.BudgetReport(1, False, exhausted)
            sweep = ts.almost_unperforated_up_to(p, [(1,)], 2, 4, budget)
            assert sweep.unknown_pairs == sum(
                ts.decide_leq(p, (t,), (e,), budget).is_unknown
                for t in range(3) for e in range(3))


def _parent_primitive_integer(vec):
    """`primitive_integer` as it was, wrapping every entry in `Fraction`."""
    mult = 1
    for f in vec:
        mult = math.lcm(mult, Fraction(f).denominator)
    ints = [int(Fraction(f) * mult) for f in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def _parent_scale_extended(values):
    """`_scale_extended` as it was, wrapping every finite value in `Fraction`."""
    finite = [v for v in values if v != INFINITY]
    if not finite or all(v == 0 for v in finite):
        return tuple(0 if v != INFINITY else INFINITY for v in values)
    scaled = _parent_primitive_integer([Fraction(v) for v in finite])
    out = []
    k = 0
    for v in values:
        if v == INFINITY:
            out.append(INFINITY)
        else:
            out.append(scaled[k])
            k += 1
    return tuple(out)


class TestScaleWithoutRewrapping:
    def test_matches_the_wrapping_version(self):
        rng = random.Random(97)
        big = 10**30 + 57
        cases = [[0], [0, 0, INFINITY], [INFINITY], [0, Fraction(0)],
                 [Fraction(-3, 4), Fraction(1, 2)], [-2, 4, 0, INFINITY], [0, -5, Fraction(5, 3)],
                 [Fraction(1, big), Fraction(3, 10**20), INFINITY, Fraction(-7, big * 11)]]
        for _ in range(2000):
            cases.append([rng.choice((
                0, Fraction(0), INFINITY, rng.randint(-6, 9),
                Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 12, 10**18 + 9, big)))))
                for _ in range(rng.randint(1, 6))])
        for values in cases:
            finite = [v for v in values if v != INFINITY]
            if finite:
                assert repr(primitive_integer(finite)) == repr(_parent_primitive_integer(finite))
        # the one extended vector the library still scales is the point of
        # the separator LP, on a support without cone generators: it comes
        # out as `_scale_extended` scaled it, INFINITY off the support
        solved = 0
        for _ in range(300):
            p = _non_unit_presentation(rng, rng.randint(1, 5), rng.randint(1, 4))
            for F, _, gap in _random_supports_and_gaps(rng, p, 3):
                if _cone_generators(p, F) is not None:
                    continue
                w = _gap_row(p, F, gap)
                point = _reference_cone_solution(p, F, [(w, ">=")])
                got, lps = _counted_cone_solution(p, F, w)
                assert lps == 1 and repr(got) == repr(
                    None if point is None else _parent_scale_extended(point))
                solved += point is not None
        assert solved > 100

    def test_other_entries_still_go_through_fraction(self):
        for vec in ([0.5, 0.25], [-1.5, 3, Fraction(1, 4)], [True, 2], [0.1, 0.2]):
            assert repr(primitive_integer(vec)) == repr(_parent_primitive_integer(vec))
        assert primitive_integer([0.5, 0.25]) == (2, 1)


def _unit_presentations(rng):
    """Permutation 1-graphs, commuting permutation 2-graphs and
    transformation presentations of small actions, all with unit moves."""
    out = []
    for n in range(1, 5):
        perm = rng.sample(range(n), n)
        a = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        out.append(_kgraph_presentation(a))
        a2 = [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        out.append(ts.presentation_from_kgraph(
            ts.validate_kgraph([f"v{i}" for i in range(n)], [a, a2])))
        gens = [[x + 1 for x in rng.sample(range(n), n)] for _ in range(rng.randint(0, 2))]
        out.append(ts.transformation_presentation(ts.build_action(list(range(1, n + 1)), gens)))
    return out


def _generator_lists(dim):
    """The unit vectors, and generator lists that are not: a repeated
    generator, sums that collide (e0, e0, 2 e0), and a zero generator."""
    e = [ts.unit_vector(dim, i) for i in range(dim)]
    zero = (0,) * dim
    return [e, [e[0], e[0], tuple(2 * x for x in e[0])], e + [e[0]],
            [zero] + e[::-1], [e[-1], (1,) * dim, zero, (2,) * dim]]


def _bounds_around(span_len):
    """max_pairs 0 and 1, at and next to the span's length, at and next to
    every perfect square below the span's pairs, and at and next to those
    pairs."""
    pairs = span_len ** 2
    bounds = {0, 1, span_len - 1, span_len, span_len + 1, pairs - 1, pairs, pairs + 1}
    bounds.update(k * k + d for k in range(1, span_len) for d in (-1, 0, 1))
    return sorted(b for b in bounds if b >= 0)


class TestSweepSpan:
    def test_matches_the_reference_span(self):
        # the span summed from precomputed multiples is `_span`'s, in its
        # order, cut after any number of distinct vectors
        collided = 0
        for dim in range(1, 4):
            p = pres(dim, [])
            for gens in _generator_lists(dim):
                for coeff_bound in range(4):
                    span = _span(p, gens, coeff_bound)
                    for limit in range(1, len(span) + 2):
                        assert monoid._sweep_span(gens, coeff_bound, limit) == span[:limit]
                    collided += len(span) < (coeff_bound + 1) ** len(gens)
        assert collided >= 30

    def test_sweep_matches_per_pair_loop(self):
        # non-unit presentations, generator lists with repeats, collisions
        # and zeros, and max_pairs around the span's length and every
        # square: the sweep counts what `decide_leq` on the first max_pairs
        # pairs of `_span` counts
        rng = random.Random(103)
        budget = ts.SearchBudget(30, 4)
        unknown_seen = 0
        for dim in range(1, 4):
            for p in _sweep_presentations(rng, dim)[1:]:
                for gens in _generator_lists(dim):
                    coeff_bound = 2 if dim <= 2 else 1
                    span = _span(p, gens, coeff_bound)
                    unknown = [ts.decide_leq(p, t, e, budget).is_unknown
                               for t, e in itertools.product(span, repeat=2)]
                    for max_pairs in _bounds_around(len(span)):
                        sweep = ts.almost_unperforated_up_to(p, gens, coeff_bound, 4,
                                                             budget, max_pairs)
                        checked = unknown[:max_pairs]
                        assert sweep == ts.UnperforationSweep(
                            None, len(checked), sum(checked), len(unknown) > len(checked))
                        unknown_seen += sweep.unknown_pairs > 0
        assert unknown_seen >= 20


class TestUnitSweepIsCounted:
    def test_sweep_matches_per_pair_loop(self, monkeypatch):
        rng = random.Random(79)
        calls = []
        real_leq_unit = monoid._leq_unit

        def counting_leq_unit(*args):
            calls.append(1)
            return real_leq_unit(*args)

        monkeypatch.setattr(monoid, "_leq_unit", counting_leq_unit)
        presentations = _unit_presentations(rng)
        assert all(p._unit is not None for p in presentations)
        for p in presentations:
            for gens in _generator_lists(p.dim):
                coeff_bound = 2 if p.dim <= 2 else 1
                span = _span(p, gens, coeff_bound)
                pairs = len(span) ** 2
                outcomes = [ts.decide_leq(p, t, e) for t, e in itertools.product(span, repeat=2)]
                assert not any(out.is_unknown for out in outcomes)
                assert calls  # the counter sees the per-pair loop
                # the span stops once its square passes max_pairs, so the
                # bounds at and next to every square are where it could
                # stop one vector early or late
                for max_pairs in _bounds_around(len(span)):
                    calls.clear()
                    sweep = ts.almost_unperforated_up_to(p, gens, coeff_bound, 4, None, max_pairs)
                    checked = outcomes[:max_pairs]
                    assert sweep == ts.UnperforationSweep(
                        None, len(checked), sum(out.is_unknown for out in checked),
                        pairs > len(checked))
                    assert calls == []


def _graph_presentation(rng, n):
    """A 1-graph or a commuting 2-graph on n vertices with entries 0..2, the
    second colour being the identity, the first itself, or the first + I."""
    while True:
        a = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    mats = [a]
    if rng.random() < 0.5:
        mats.append(rng.choice((
            [[int(i == j) for j in range(n)] for i in range(n)],
            [row[:] for row in a],
            [[a[i][j] + int(i == j) for j in range(n)] for i in range(n)])))
    return ts.presentation_from_kgraph(ts.validate_kgraph([f"v{i}" for i in range(n)], mats))


def _separator_then_search(p, f, g, budget):
    """`decide_equiv` without the support rule: `find_separator`, then the
    bidirectional search."""
    if f == g:
        return ts.DecisionOutcome(ts.Verdict.EQUIV, certificate=ts.EquivCertificate(f, (), g))
    if p._unit is not None:
        return _equiv_unit(p, p._unit, f, g)
    sep = ts.find_separator(p, f, g)
    if sep is not None:
        return ts.DecisionOutcome(ts.Verdict.NOT_EQUIV, separator=sep)
    return _bfs_equiv(p, f, g, budget)


def _random_pair(rng, n):
    return (tuple(rng.randint(0, 2) for _ in range(n)),
            tuple(rng.randint(0, 2) for _ in range(n)))


class TestSupportSeparator:
    def test_separates_only_pairs_the_search_never_joins(self):
        rng = random.Random(83)
        deep = ts.SearchBudget(50_000, 64)
        separated = passed = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            p = _graph_presentation(rng, n)
            for _ in range(3):
                f, g = _random_pair(rng, n)
                sep = _support_separator(p, f, g)
                if sep is None:
                    passed += 1
                    continue
                separated += 1
                assert sep.kind is ts.SeparatorKind.EXTENDED
                assert set(sep.coeffs) <= {0, INFINITY}
                assert ts.verify_separator(p, sep, f, g)
                assert ts.verify_separator(p, sep, g, f)
                assert not _bfs_equiv(p, f, g, deep).is_equiv
        assert separated >= 15 and passed >= 50

    def test_changes_only_unknown_outcomes(self):
        # at graph-decide's budget, every outcome the separators and search
        # reach alone is kept; an UNKNOWN may become a verified NOT_EQUIV
        rng = random.Random(89)
        budget = ts.SearchBudget(1000, 64)
        kept = settled = unknown = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            p = _graph_presentation(rng, n)
            for _ in range(3):
                f, g = _random_pair(rng, n)
                before = _separator_then_search(p, f, g, budget)
                after = ts.decide_equiv(p, f, g, budget)
                if not before.is_unknown or after.is_unknown:
                    assert after == before
                    kept += 1
                    unknown += after.is_unknown
                    continue
                settled += 1
                assert after.is_not_equiv
                assert after.separator == _support_separator(p, f, g)
                assert ts.verify_separator(p, after.separator, f, g)
        assert settled >= 10 and kept >= 400


# ---------------------------------------------------------------------------
# the BFS level expansion on tuples, as it was before moves were compiled:
# every move tested and applied on every coordinate, and the cap tested on
# all of them


class _DenseSearchTree(monoid._SearchTree):
    def expand(self, moves, cap):
        visited = self.visited
        nxt = []
        for state in self.frontier:
            for (idx, dn, need, delta) in moves:
                ok = True
                for sv, nv in zip(state, need):
                    if sv < nv:
                        ok = False
                        break
                if not ok:
                    continue
                new = tuple([sv + dv for sv, dv in zip(state, delta)])
                if max(new) > cap:
                    self.cap_hit = True
                    continue
                if new in visited:
                    continue
                visited[new] = state
                yield new
                nxt.append(new)
        self.frontier = nxt


def _kernel_presentations(rng):
    """Non-unit presentations of dimension 1-6, some with a move whose two
    sides are equal."""
    for dim in range(1, 7):
        for _ in range(6):
            p = _non_unit_presentation(rng, dim, rng.randint(1, 4))
            if rng.random() < 0.4:
                same = tuple(rng.randint(0, 2) for _ in range(dim))
                moves = list(p.moves)
                moves.insert(rng.randrange(len(moves) + 1), (same, same))
                p = pres(dim, moves)
            yield p


class TestSparseKernelMatchesDense:
    def test_levels(self):
        # roots reach above the cap of 2-4, and the packed tree's states,
        # unpacked, equal the dense tree's level by level and in order,
        # parents and cap flags included
        rng = random.Random(97)
        over = 0
        for p in _kernel_presentations(rng):
            dense_moves = _reference_compiled_moves(p)
            for _ in range(3):
                cap = rng.randint(2, 4)
                root = tuple(rng.randint(0, cap + 2) for _ in range(p.dim))
                over += max(root) > cap
                layout = monoid._compiled_moves(p, cap, max(root))
                unpack = layout.unpack
                packed, dense = monoid._SearchTree(layout.pack(root)), _DenseSearchTree(root)
                for _ in range(6):
                    assert ([unpack(s) for s in packed.expand(layout)]
                            == list(dense.expand(dense_moves, cap)))
                    assert [(unpack(s), None if t is None else unpack(t))
                            for s, t in packed.visited.items()] == list(dense.visited.items())
                    assert [unpack(s) for s in packed.frontier] == dense.frontier
                    assert packed.cap_hit is dense.cap_hit
        assert over > 30

    def test_searches(self):
        # both searches equal the dense tuple searches, certificates and
        # budget reports included
        rng = random.Random(101)
        seen = set()
        for p in _kernel_presentations(rng):
            for _ in range(4):
                budget = ts.SearchBudget(rng.choice((15, 60, 400)), rng.choice((2, 3, 5, 64)))
                top = min(budget.max_coord + 1, 6)
                f = tuple(rng.randint(0, top) for _ in range(p.dim))
                g = tuple(rng.randint(0, top) for _ in range(p.dim))
                packed = (_bfs_equiv(p, f, g, budget), _bfs_leq(p, f, g, budget))
                dense = (_reference_bfs_equiv(p, f, g, budget),
                         _reference_bfs_leq(p, f, g, budget))
                assert packed == dense
                for out in packed:
                    seen.add(out.verdict if out.budget is None else
                             (out.budget.coordinate_cap_hit, out.budget.exhausted))
        # both verdicts, and budget reports bound by the cap, by the state
        # budget and by clean exhaustion
        assert seen >= {ts.Verdict.EQUIV, (True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# the packed layout at its edges: each field must hold the cap or the largest
# packed coordinate, whichever is larger, plus the largest move entry


_LAYOUT_CAPS = (0, 1, 2, 64, 2**70)


def _layout_presentations(rng):
    """The purely infinite [[0, 2], [2, 0]], whose nonzero pairs all reach the
    search, and presentations of dimension 1-8 with move entries up to 1000,
    some with a move whose two sides are equal or whose left side is zero."""
    yield _kgraph_presentation([[0, 2], [2, 0]])
    for dim in range(1, 9):
        for _ in range(3):
            top = rng.choice((2, 30, 1000))

            def side():
                return tuple(rng.choice((0, 0, 1, rng.randint(0, top))) for _ in range(dim))

            moves = [(side(), side()) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.4:
                same = side()
                moves.insert(rng.randrange(len(moves) + 1), (same, same))
            if rng.random() < 0.4:
                moves.insert(rng.randrange(len(moves) + 1), ((0,) * dim, side()))
            yield pres(dim, moves)


def _reference_deciders(p, f, g, theta, budget):
    """`decide_equiv`, `decide_leq` and `kl_paradoxical` with the searches
    swapped for the tuple ones."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monoid, "_bfs_equiv", _reference_bfs_equiv)
        patch.setattr(monoid, "_bfs_leq",
                      lambda p, f, g, budget, layout=None: _reference_bfs_leq(p, f, g, budget))
        return (ts.decide_equiv(p, f, g, budget), ts.decide_leq(p, f, g, budget),
                ts.kl_paradoxical(p, theta, 2, 1, budget))


class TestPackedLayout:
    def test_deciders_match_the_tuple_kernel(self):
        # roots and targets reach past the cap and past every move entry, so
        # a field too narrow for them borrows or carries into its neighbour
        rng = random.Random(103)
        seen = set()
        for p in _layout_presentations(rng):
            entry = max(max(mv.lhs + mv.rhs) for mv in p.moves)
            for cap in _LAYOUT_CAPS:
                high = max(cap, entry) + 1
                for _ in range(2):
                    budget = ts.SearchBudget(rng.choice((0, 3, 40, 150)), cap)

                    def vec():
                        return tuple(rng.choice((0, 1, 2, high + rng.randrange(2 * high)))
                                     for _ in range(p.dim))

                    f, g, theta = vec(), vec(), vec()
                    packed = (ts.decide_equiv(p, f, g, budget), ts.decide_leq(p, f, g, budget),
                              ts.kl_paradoxical(p, theta, 2, 1, budget))
                    assert packed == _reference_deciders(p, f, g, theta, budget)
                    searches = (_bfs_equiv(p, f, g, budget), _bfs_leq(p, f, g, budget))
                    assert searches == (_reference_bfs_equiv(p, f, g, budget),
                                        _reference_bfs_leq(p, f, g, budget))
                    for out in packed + searches:
                        seen.add(out.verdict if out.budget is None else
                                 (out.budget.coordinate_cap_hit, out.budget.exhausted))
        assert seen >= {ts.Verdict.EQUIV, ts.Verdict.NOT_EQUIV,
                        (True, False), (False, False), (False, True)}

    def test_target_above_the_cap_is_not_aliased(self):
        # (t, 0) <= (1, 0) holds for every t, but no state within coordinate
        # 3 dominates (t, 0), so each search stays UNKNOWN; a target packed
        # into fields sized for the root and the cap alone would spill into
        # the next field and could be found
        p = _kgraph_presentation([[0, 2], [2, 0]])
        budget = ts.SearchBudget(50, 3)
        for t in range(4, 300):
            out = ts.decide_leq(p, (t, 0), (1, 0), budget)
            assert out.is_unknown
            assert out == _reference_deciders(p, (t, 0), (1, 0), (1, 0), budget)[1]


# ---------------------------------------------------------------------------
# the cone generators in front of the order-separator LP


def _reference_cone_solution(p, F, rows):
    """The invariant-cone LP as first written, without the generators."""
    support = [i for i in range(p.dim) if F >> i & 1]
    col = {i: j for j, i in enumerate(support)}
    constraints = []
    for mv in p.moves:
        if all(F >> i & 1 for i in range(p.dim) if mv.lhs[i] or mv.rhs[i]):
            coeffs = {col[i]: mv.lhs[i] - mv.rhs[i] for i in support if mv.lhs[i] != mv.rhs[i]}
            if coeffs:
                constraints.append((coeffs, "==", 0))
    for w, op in rows:
        constraints.append(({col[v]: c for v, c in w.items()}, op, 1))
    x = feasible_point(len(support), constraints)
    if x is None:
        return None
    return [x[col[i]] if i in col else INFINITY for i in range(p.dim)]


def _counted_cone_solution(p, F, gap):
    """`_cone_solution` and the number of LPs it solved: 0 where the cone
    has generators, 1 otherwise."""
    solved = []
    real = cones.solve_lp

    def counting(*args, **kwargs):
        solved.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cones, "solve_lp", counting)
        values = _cone_solution(p, F, gap)
    return values, len(solved)


def _gap_row(p, F, gap):
    support = [i for i in range(p.dim) if F >> i & 1]
    return {i: v for i, v in zip(support, gap) if v}


def _first_positive(F, gens, gap):
    """The first generator positive on the gap, INFINITY off F, or None."""
    for r in gens:
        if sum(r[v] * c for v, c in gap.items()) > 0:
            return tuple(c if F >> v & 1 else INFINITY for v, c in enumerate(r))
    return None


def _is_a_generator(gens, point):
    """The LP point `point`, scaled to primitive integers, is one of the
    generators: a vertex of the LP's polyhedron lies on an extreme ray of
    the cone, and the generators are its extreme rays."""
    scaled = _parent_scale_extended(point)
    return tuple(0 if c == INFINITY else c for c in scaled) in gens


def _reached(gens, rows):
    """Some generator is positive on every row (w, op)."""
    return all(any(sum(r[v] * c for v, c in w.items()) > 0 for r in gens) for w, _ in rows)


def _check_cone_rows(p, F, gap, rows):
    """Check one kind of normalising rows (w, op) on F, where the cone has
    generators, against the rule-free reference LP, and return whether it
    is feasible.  Every kind is read off the generators, which reach the
    rows exactly when the LP is feasible.  An order gap is answered by
    `_cone_solution` with the first generator positive on it, with no LP,
    and the reference's point, scaled, is one of the generators."""
    expected = _reference_cone_solution(p, F, rows)
    gens = _cone_generators(p, F)
    assert _reached(gens, rows) == (expected is not None)
    if gap is not None:
        got, lps = _counted_cone_solution(p, F, gap)
        assert got == _first_positive(F, gens, gap) and lps == 0
        assert (got is None) == (expected is None)
        assert expected is None or _is_a_generator(gens, expected)
    return expected is not None


def _random_supports_and_gaps(rng, p, count):
    """Admissible supports (least ones around random seeds) and nonzero gaps."""
    sides = list(zip(*p._supports))
    for _ in range(count):
        F = least_admissible_support(sides, rng.randint(1, (1 << p.dim) - 1))
        support = [i for i in range(p.dim) if F >> i & 1]
        gap = tuple(rng.randint(-2, 2) for _ in support)
        if any(gap):
            yield F, support, gap


def _random_rows(rng, p, count):
    """Admissible supports with one of the three kinds of normalising rows,
    as (F, gap, rows): an order gap c.gap >= 1, a state target c.t == 1, or
    c_v >= 1 on every vertex of the support; gap is None for the last two."""
    for F, support, gap in _random_supports_and_gaps(rng, p, count):
        target = {v: t for v, t in zip(support, map(abs, gap)) if t}
        w = _gap_row(p, F, gap)
        yield F, w, [(w, ">=")]
        yield F, None, [(target, "==")]
        yield F, None, [({v: 1}, ">=") for v in support]


def _one_matrix_presentation(rng, n):
    """e_v -> row v of a random 0..2 matrix; rows may be zero or unit."""
    return pres(n, [(ts.unit_vector(n, v),
                     tuple(rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)))
                    for v in range(n)])


class TestZeroConeRule:
    def test_one_matrix_exactly_when_the_lp_is_infeasible(self):
        # every kind of row is refuted by the generators exactly when the LP
        # is infeasible; a feasible gap is answered by a generator, no LP
        rng = random.Random(103)
        refuted = kept = 0
        for _ in range(300):
            p = _one_matrix_presentation(rng, rng.randint(1, 7))
            for F, gap, rows in _random_rows(rng, p, 4):
                feasible = _check_cone_rows(p, F, gap, rows)
                refuted += not feasible
                kept += feasible
        assert refuted > 2500 and kept > 300

    def test_two_graphs_refute_only_infeasible_lps(self):
        # the common cone's generators refute every infeasible LP on 2-graphs
        rng = random.Random(107)
        refuted = 0
        for _ in range(200):
            p = _graph_presentation(rng, rng.randint(1, 6))
            if len(p.moves) == p.dim:
                continue
            for F, gap, rows in _random_rows(rng, p, 4):
                refuted += not _check_cone_rows(p, F, gap, rows)
        assert refuted > 800

    def test_not_used_outside_its_scope(self):
        # the generators read only the moves inside F: they exist exactly
        # when every one of those moves has a unit left side e_v and every
        # vertex of F has the same number of them, 0 included.  Then the
        # first generator positive on the gap answers, with no LP;
        # otherwise the LP decides, and its point is scaled
        rng = random.Random(109)
        infeasible = free = 0
        for _ in range(150):
            n = rng.randint(2, 6)
            p = _one_matrix_presentation(rng, n)
            moves = list(p.moves)
            if rng.random() < 0.5:
                # a left side that is not a unit vector
                lhs = list(ts.unit_vector(n, rng.randrange(n)))
                lhs[rng.randrange(n)] += 1
                moves.append((tuple(lhs), tuple(rng.randint(0, 1) for _ in range(n))))
                scope = sum(1 << i for i in range(n) if moves[-1][0][i] or moves[-1][1][i])
            else:
                # a vertex of F with no move
                u = rng.randrange(n)
                del moves[u]
                scope = 1 << u
            q = pres(n, moves)
            full = (1 << n) - 1
            for F, support, gap in [(full, list(range(n)), None)] + list(
                    _random_supports_and_gaps(rng, q, 3)):
                gap = gap or tuple(rng.randint(-2, 2) for _ in support)
                if not any(gap):
                    continue
                w = _gap_row(q, F, gap)
                got, lps = _counted_cone_solution(q, F, w)
                expected = _reference_cone_solution(q, F, [(w, ">=")])
                inside = [mv for mv in q.moves
                          if not (monoid._support(mv.lhs) | monoid._support(mv.rhs)) & ~F]
                counts = {v: sum(mv.lhs == ts.unit_vector(n, v) for mv in inside)
                          for v in support}
                in_scope = all(sum(mv.lhs) == 1 for mv in inside) and len(set(counts.values())) == 1
                gens = _cone_generators(q, F)
                assert (gens is not None) == in_scope and lps == (not in_scope)
                assert (got is None) == (expected is None)
                if in_scope:
                    assert got == _first_positive(F, gens, w)
                    assert expected is None or _is_a_generator(gens, expected)
                elif expected is not None:
                    assert got == _parent_scale_extended(expected)
                if not in_scope:
                    infeasible += expected is None
                free += in_scope and not inside
        assert infeasible > 50 and free > 5

    def test_separators_unchanged_on_graphs(self):
        # every order separator is the one the rule-free reference finds
        rng = random.Random(113)
        cases = []
        for _ in range(120):
            n = rng.randint(1, 5)
            p = _graph_presentation(rng, n)
            cases += [(p, *_random_pair(rng, n)) for _ in range(3)]
        with_rule = [_order_separator(p, f, g) for p, f, g in cases]
        assert all(_agrees_with_reference(p, f, g, sep) for (p, f, g), sep in zip(cases, with_rule))
        assert {None if s is None else s.kind for s in with_rule} == {
            None, ts.SeparatorKind.RATIONAL, ts.SeparatorKind.EXTENDED}


def _mat_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _mat_sum(*mats):
    return [[sum(entries) for entries in zip(*rows)] for rows in zip(*mats)]


def _kron(a, b):
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _nonzero_rows(rng, n, entries=(0, 0, 1, 1, 2)):
    while True:
        a = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            return a


def _commuting_matrices(rng):
    """The matrices of 2-graphs (A, p(A)) for polynomials p, (A x I, I x B),
    and the 3-graph (A, A^2, I)."""
    n = rng.randint(1, 4)
    a = _nonzero_rows(rng, n, rng.choice(((0, 0, 1, 1, 2), (0, 0, 0, 1))))
    a2 = _mat_product(a, a)
    yield from ([a, a2], [a, _mat_sum(a2, a)], [a, _mat_sum(a2, _identity(n))],
                [a, a2, _identity(n)])
    m = rng.randint(1, 6 // n) if n <= 3 else 1
    b = _nonzero_rows(rng, m)
    yield [_kron(a, _identity(m)), _kron(_identity(n), b)]


def _commuting_kgraphs(rng):
    """`_commuting_matrices`' k-graphs, as presentations."""
    for mats in _commuting_matrices(rng):
        yield _kgraph_presentation(*mats)


def _unit_left_presentation(rng, n):
    """k moves e_v -> a random row per vertex v, the rows of k random
    matrices that need not commute; sometimes one vertex has one move more."""
    k = rng.randint(1, 3)
    mats = [[[rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
            for _ in range(k)]
    moves = [(ts.unit_vector(n, v), tuple(mat[v])) for v in range(n) for mat in mats]
    if rng.random() < 0.2:
        v = rng.randrange(n)
        moves.append((ts.unit_vector(n, v), tuple(rng.randint(0, 1) for _ in range(n))))
    return pres(n, moves)


def _cone_memo(p):
    """The cone generators `p` keeps, by support."""
    entries = iter(p._cones)
    return dict(zip(entries, entries))


def _least_supports(p):
    sides = list(zip(*p._supports))
    return sorted({least_admissible_support(sides, seed) for seed in range(1, 1 << p.dim)})


def _assert_exact_generators(rng, p, F, gens):
    """Each generator is a nonzero int vector >= 0 on F, invariant under
    every move inside F, and some generator is positive on a row exactly
    when the rule-free LP is feasible, for gap, target and all-vertex rows."""
    support = [i for i in range(p.dim) if F >> i & 1]
    inside = [mv for mv in p.moves
              if not (monoid._support(mv.lhs) | monoid._support(mv.rhs)) & ~F]
    assert type(gens) is tuple
    for r in gens:
        assert type(r) is tuple and len(r) == p.dim and any(r)
        assert all(type(c) is int and c >= 0 and (F >> v & 1 or not c) for v, c in enumerate(r))
        for mv in inside:
            assert sum(map(operator.mul, r, mv.lhs)) == sum(map(operator.mul, r, mv.rhs))
    gaps = [tuple(rng.randint(-2, 2) for _ in support) for _ in range(3)]
    row_sets = [[(_gap_row(p, F, gap), ">=")] for gap in gaps if any(gap)]
    target = [rng.randint(0, 2) for _ in support]
    target[rng.randrange(len(support))] = 1
    row_sets.append([({v: t for v, t in zip(support, target) if t}, "==")])
    row_sets.append([({v: 1}, ">=") for v in support])
    for rows in row_sets:
        assert _reached(gens, rows) == (_reference_cone_solution(p, F, rows) is not None)


class TestConeGenerators:
    def test_exact_on_every_least_support_of_commuting_kgraphs(self):
        # never None on a k-graph: a wrong construction would otherwise fall
        # back to the LP and leave every answer unchanged
        rng = random.Random(137)
        supports = several = 0
        for _ in range(80):
            for p in _commuting_kgraphs(rng):
                for F in _least_supports(p):
                    gens = _cone_generators(p, F)
                    assert gens is not None
                    _assert_exact_generators(rng, p, F, gens)
                    supports += 1
                    several += len(gens) > 1
        assert supports > 400 and several > 15

    def test_exact_wherever_given_on_noncommuting_unit_left_sides(self):
        rng = random.Random(139)
        given = absent = 0
        for _ in range(400):
            p = _unit_left_presentation(rng, rng.randint(1, 5))
            for F in _least_supports(p):
                gens = _cone_generators(p, F)
                if gens is None:
                    absent += 1
                else:
                    _assert_exact_generators(rng, p, F, gens)
                    given += 1
        assert given > 300 and absent > 50

    def test_a_wrong_ray_raises(self, monkeypatch):
        # a 2-cycle with a vertex feeding both of its vertices: one ray,
        # (1, 1, 2); with one entry bumped it is no longer invariant, and
        # every caller on a fresh presentation raises instead of answering,
        # keeps nothing, and raises again when asked again
        def fresh():
            model = ts.validate_kgraph(["v0", "v1", "v2"], [[[0, 1, 0], [1, 0, 0], [1, 1, 0]]])
            return model, ts.presentation_from_kgraph(model)

        model, p = fresh()
        assert _cone_generators(p, 0b111) == ((1, 1, 2),)
        real = cones._distinguished_rays

        def bumped(B, support):
            rays = list(real(B, support))
            if rays:
                marker, ray = rays[0]
                v = next(iter(ray))
                rays[0] = marker, {**ray, v: ray[v] + 1}
            return iter(rays)

        monkeypatch.setattr(cones, "_distinguished_rays", bumped)
        # generators kept before the patch were checked when they were built
        assert _cone_generators(p, 0b111) == ((1, 1, 2),)
        gens = [ts.unit_vector(3, i) for i in range(3)]
        for call in (lambda model, p: _cone_generators(p, 0b111),
                     lambda model, p: ts.solve_state_at(model, (1, 0, 0)),
                     lambda model, p: ts.decide_leq(p, (0, 0, 3), (0, 0, 1)),
                     lambda model, p: ts.almost_unperforated_up_to(p, gens, 2, 4)):
            model, p = fresh()
            for _ in range(2):
                with pytest.raises(ts.ConsistencyError):
                    call(model, p)
                assert 0b111 not in _cone_memo(p)


def _memo_presentations(rng):
    """1-graphs and commuting 2-graphs, the k-graphs of `_commuting_kgraphs`
    (a 3-graph among them), presentations with non-unit left sides, and
    unit left sides whose matrices need not commute."""
    n = rng.randint(1, 5)
    yield _graph_presentation(rng, n)
    yield from _commuting_kgraphs(rng)
    yield _non_unit_presentation(rng, n, rng.randint(1, 4))
    yield _unit_left_presentation(rng, n)


class TestConeMemo:
    def test_a_queried_presentation_answers_as_a_fresh_one(self):
        # the least supports asked in ascending and in descending order give
        # what an equal, unqueried presentation builds for each, and asked
        # again, the very tuple kept
        rng = random.Random(149)
        kinds = {"zero": 0, "none": 0, "several": 0}
        for _ in range(40):
            for p in _memo_presentations(rng):
                supports = _least_supports(p)
                for order in (supports, supports[::-1]):
                    q = ts.MonoidPresentation(p.dim, p.moves)
                    answers = [_cone_generators(q, F) for F in order]
                    for F, answer in zip(order, answers):
                        assert answer == _cone_generators(ts.MonoidPresentation(p.dim, p.moves), F)
                        assert _cone_generators(q, F) is answer
                    assert sorted(_cone_memo(q)) == supports and len(q._cones) == 2 * len(supports)
                    for gens in _cone_memo(q).values():
                        kinds["zero"] += gens == ()
                        kinds["none"] += gens is None
                        kinds["several"] += gens is not None and len(gens) > 1
        assert min(kinds.values()) >= 100, kinds

    def test_built_once_per_support_asked(self, monkeypatch):
        # classify, the Stiemke cross-check, a state at every vertex, order
        # questions and the paradox test on one model build each support's
        # generators once, whichever of them asks first
        rng = random.Random(151)
        built, asked = [], []
        real_build, real_generators = cones._build_generators, cones._cone_generators

        def counting_build(dim, support, inside):
            built.append(tuple(support))
            return real_build(dim, support, inside)

        def recording_generators(p, F):
            asked.append(tuple(i for i in range(p.dim) if F >> i & 1))
            return real_generators(p, F)

        monkeypatch.setattr(cones, "_build_generators", counting_build)
        for module in (cones, monoid, states):
            monkeypatch.setattr(module, "_cone_generators", recording_generators)
        budget = ts.SearchBudget(200, 6)
        verdicts, repeated = set(), 0
        for _ in range(12):
            n = rng.randint(1, 4)
            for mats in [[_nonzero_rows(rng, n)]] + list(_commuting_matrices(rng)):
                model = ts.validate_kgraph([f"v{i}" for i in range(len(mats[0]))], mats)
                p, dim = model._presentation, model.dim
                built.clear()
                asked.clear()
                # a tiny search leaves some paradox tests undecided, so that
                # classify reaches the per-vertex states and the sweep
                tiny = rng.random() < 0.5
                verdicts.add(ts.classify(model, ts.ClassifyBudgets(
                    ts.SearchBudget(4, 1) if tiny else budget, 1, 200)).verdict)
                ts.stiemke_crosscheck(model)
                for v in range(dim):
                    ts.solve_state_at(model, ts.unit_vector(dim, v))
                    ts.kl_paradoxical(p, ts.unit_vector(dim, v), 2, 1, budget)
                for _ in range(3):
                    ts.decide_leq(p, *_random_pair(rng, dim), budget)
                assert sorted(built) == sorted(set(asked))
                repeated += len(asked) > len(built)
        assert repeated >= 60 and verdicts == {
            ts.STABLY_FINITE, ts.PURELY_INFINITE, ts.INCONCLUSIVE, ts.HYPOTHESES_NOT_MET}


def _transient_graph_presentation(rng, n, colours=1):
    """A 1-graph on n vertices whose edges mostly run from lower to higher
    vertices, so that some vertices lie on no cycle and the least admissible
    supports of many vectors are proper; with colours=2, a 2-graph whose
    second colour is the identity, the first itself, or the first + I.  Never
    a unit presentation."""
    while True:
        a = [[rng.choice((0, 0, 1, 2)) if j > i else
              rng.choice((0, 1, 1, 2)) if j == i else
              int(rng.random() < 0.1) for j in range(n)] for i in range(n)]
        if not all(any(row) for row in a):
            continue
        mats = [a]
        if colours == 2:
            mats.append(rng.choice((
                [[int(i == j) for j in range(n)] for i in range(n)],
                [row[:] for row in a],
                [[a[i][j] + int(i == j) for j in range(n)] for i in range(n)])))
        p = ts.presentation_from_kgraph(ts.validate_kgraph([f"v{i}" for i in range(n)], mats))
        if p._unit is None:
            return p


def _searched_pairs(p, gens, coeff_bound):
    """The sweep's result and the (theta, eta) pairs it hands to the search."""
    searched = []
    real_dominate = monoid._dominate

    def recording_dominate(tree, layout, fs, budget):
        searched.extend((layout.unpack(f), layout.unpack(tree.frontier[0])) for f in fs)
        return real_dominate(tree, layout, fs, budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monoid, "_dominate", recording_dominate)
        sweep = ts.almost_unperforated_up_to(p, gens, coeff_bound, 4)
    return sweep, searched


def _least_support_keys(p, pairs):
    """The (F0, gap on F0) keys the sweep asks about the pairs: F0 is eta's
    least admissible support, and theta lies inside it."""
    sides = list(zip(*p._supports))
    keys = set()
    for theta, eta in pairs:
        if all(t <= e for t, e in zip(theta, eta)):
            continue
        F = least_admissible_support(sides, monoid._support(eta))
        if not monoid._support(theta) & ~F:
            keys.add((F, tuple(t - e for i, (t, e) in enumerate(zip(theta, eta)) if F >> i & 1)))
    return keys


def _order_step(p, theta, eta):
    """The step of `_order_separator` that refutes theta <= eta, or None."""
    sep = _order_separator(p, theta, eta)
    if sep is None:
        return None
    F = least_admissible_support(zip(*p._supports), monoid._support(eta))
    if monoid._support(theta) & ~F:
        return "sticks out"
    return "full support" if sep.kind is ts.SeparatorKind.RATIONAL else "proper support"


class TestRaySweep:
    def test_rays_refute_exactly_the_separated_pairs(self, monkeypatch):
        # the sweep searches exactly the pairs not below coordinatewise that
        # `_order_separator` leaves, and solves no LP doing so, on
        # one-matrix presentations and on 2-graphs alike
        rng = random.Random(127)
        solved = []
        real_solve = cones.solve_lp

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cones, "solve_lp", counting_solve)
        steps = {True: set(), False: set()}
        unknowns = []
        for _ in range(25):
            n = rng.randint(1, 6)
            for p, one_matrix in ((_transient_graph_presentation(rng, n), True),
                                  (_one_matrix_presentation(rng, n), True),
                                  (_transient_graph_presentation(rng, min(n, 4), 2), False)):
                if p._unit is not None:
                    continue
                k = rng.randint(2, 4)
                picked = rng.sample(range(p.dim), min(k - 1, p.dim))
                gens = [ts.unit_vector(p.dim, i) for i in picked]
                gens.append(tuple(rng.randint(0, 2) for _ in range(p.dim)))
                coeff_bound = 1 if len(gens) == 4 else rng.randint(1, 2)
                span = _span(p, gens, coeff_bound)
                pairs = list(itertools.product(span, repeat=2))
                solved.clear()
                sweep, searched = _searched_pairs(p, gens, coeff_bound)
                assert sweep.pairs_checked == len(pairs)
                assert solved == []
                expected = []
                for theta, eta in pairs:
                    if all(t <= e for t, e in zip(theta, eta)):
                        continue
                    step = _order_step(p, theta, eta)
                    steps[one_matrix].add(step)
                    if step is None:
                        expected.append((theta, eta))
                assert sorted(searched) == sorted(expected)
                if one_matrix and expected and len(unknowns) < 12:
                    # tiny budgets stop the shared trees where one search
                    # per pair would stop
                    budget = rng.choice(_TINY_BUDGETS)
                    unknowns.append(sum(ts.decide_leq(p, t, e, budget).is_unknown
                                        for t, e in pairs))
                    assert ts.almost_unperforated_up_to(p, gens, coeff_bound, 4, budget) == \
                        ts.UnperforationSweep(None, len(pairs), unknowns[-1], False)
        assert steps[True] == steps[False] == {
            "full support", "sticks out", "proper support", None}
        assert len(unknowns) == 12 and sum(map(bool, unknowns)) >= 4

    def test_rays_found_once_per_support(self, monkeypatch):
        # the generators of each support are built once per sweep, wherever
        # they are asked for
        rng = random.Random(131)
        supports, solved = [], []
        real_generators, real_solve = cones._cone_generators, cones.solve_lp

        def counting_generators(p, F):
            supports.append(tuple(i for i in range(p.dim) if F >> i & 1))
            return real_generators(p, F)

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        for module in (cones, monoid):
            monkeypatch.setattr(module, "_cone_generators", counting_generators)
        monkeypatch.setattr(cones, "solve_lp", counting_solve)
        several = 0
        for _ in range(40):
            n = rng.randint(1, 6)
            p = _transient_graph_presentation(rng, n)
            gens = [ts.unit_vector(n, i) for i in range(n)]
            coeff_bound = 1 if n > 3 else 2
            supports.clear()
            ts.almost_unperforated_up_to(p, gens, coeff_bound, 4, ts.SearchBudget(30, 4))
            # once for each distinct F0 the sweep reaches, and for no other
            # support
            reached = {F for F, _ in _least_support_keys(
                p, itertools.product(_span(p, gens, coeff_bound), repeat=2))}
            assert len(supports) == len(set(supports))
            assert sorted(supports) == sorted(
                tuple(i for i in range(n) if F >> i & 1) for F in reached)
            several += len(supports) > 2
        assert solved == [] and several >= 10


# ---------------------------------------------------------------------------
# the modulus loop of `find_separator` as first written: every kernel
# generator mod m is built and tried, for m = 2..64 ascending


def _reference_modular_separator(p, f, g):
    rows = _difference_rows(p)
    diff = tuple(a - b for a, b in zip(f, g))
    if rows:
        diag, V = integer_diagonalize(rows, p.dim)
        for m in range(2, monoid.MODULUS_BOUND + 1):
            for gen in modular_kernel_generators(diag, V, p.dim, m):
                if sum(a * b for a, b in zip(gen, diff)) % m != 0:
                    return ts.LinearSeparator(ts.SeparatorKind.MODULAR, gen, modulus=m)
    return None


def _reference_find_separator(p, f, g):
    diff = tuple(a - b for a, b in zip(f, g))
    for cand in rational_kernel_basis(_difference_rows(p), p.dim):
        if sum(a * b for a, b in zip(cand, diff)) != 0:
            return ts.LinearSeparator(ts.SeparatorKind.RATIONAL, primitive_integer(cand))
    return _reference_modular_separator(p, f, g)


def _agrees_with_reference_find(p, f, g, sep):
    """`find_separator`'s answer `sep` against the reference's: the same kind,
    the same modular separator, and a separator that verifies.  Where the
    reference's moduli up to 64 find none, `sep` is None or modular with a
    larger modulus."""
    expected = _reference_find_separator(p, f, g)
    if sep is None:
        return expected is None
    if not ts.verify_separator(p, sep, f, g):
        return False
    if expected is None:
        return sep.kind is ts.SeparatorKind.MODULAR and sep.modulus > monoid.MODULUS_BOUND
    return sep.kind is expected.kind and (sep.kind is ts.SeparatorKind.RATIONAL or sep == expected)


class TestTorsionFromDiagonalForm:
    def test_matches_the_modulus_loop(self):
        # torsion orders 2..9; moves with zero left sides give negative
        # diagonal entries; rational separators are columns of the diagonal
        # form's V now, not the echelon kernel basis
        rng = random.Random(127)
        moduli, negative = set(), 0
        for _ in range(400):
            dim = rng.randint(1, 4)
            moves = []
            for _ in range(rng.randint(1, 3)):
                lhs = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(dim))
                rhs = tuple(rng.choice((0, 0, 1, 3, 5, 9)) for _ in range(dim))
                moves.append((lhs, rhs) if rng.random() < 0.5 else (rhs, lhs))
            p = pres(dim, moves)
            rows = _difference_rows(p)
            negative += bool(rows) and any(s < 0 for s in integer_diagonalize(rows, dim)[0])
            for _ in range(3):
                f, g = (tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(2))
                sep = ts.find_separator(p, f, g)
                assert _agrees_with_reference_find(p, f, g, sep)
                if sep is not None and sep.kind is ts.SeparatorKind.MODULAR:
                    moduli.add(sep.modulus)
        assert {2, 3, 4, 5} <= moduli and negative > 20

    @pytest.mark.parametrize("order", [2, 3, 5, 63, 64, 65, 67, 71, 101, 1_000_000_007])
    def test_one_torsion_order(self, order):
        # 0 <-> order.x: x has order `order`, so a modulus up to 64 separates
        # 0 from x exactly when it divides `order`; 67, 71, 101 and
        # 1,000,000,007 are prime and past it, and the order itself
        # separates without a scan up to it
        p = pres(1, [((0,), (order,))])
        sep = ts.find_separator(p, (1,), (0,))
        modulus = min([m for m in range(2, 65) if order % m == 0] or [order])
        assert sep == ts.LinearSeparator(ts.SeparatorKind.MODULAR, (1,), modulus=modulus)
        assert ts.verify_separator(p, sep, (1,), (0,))
        if modulus <= 64:
            assert sep == _reference_find_separator(p, (1,), (0,))


# ---------------------------------------------------------------------------
# one refutation pass per decider


def _hermite_rows(rows, dim):
    """Echelon integer rows with positive pivots spanning the same lattice as
    `rows` (a row Hermite form without the reduction above the pivots), by
    Euclid's algorithm on each column in turn."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(dim):
        piv, rest = None, []
        for r in rows:
            if not r[col]:
                rest.append(r)
                continue
            if piv is None:
                piv = r
                continue
            a, b = piv, r
            while b[col]:
                q = a[col] // b[col]
                a, b = b, [x - q * y for x, y in zip(a, b)]
            piv = a
            rest.append(b)
        if piv is not None:
            basis.append(piv if piv[col] > 0 else [-x for x in piv])
        rows = [r for r in rest if any(r)]
    return basis


def _in_row_lattice(vec, basis):
    v = list(vec)
    for b in basis:
        col = next(i for i, x in enumerate(b) if x)
        q, r = divmod(v[col], b[col])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, b)]
    return not any(v)


class TestOneRefutationPass:
    def test_none_exactly_on_the_row_lattice(self):
        # find_separator answers None exactly when f - g lies in the integer
        # span of the move differences, checked by a Hermite form built here;
        # the large entries give torsion past the modulus scan
        rng = random.Random(137)
        nones = past_bound = 0
        kinds = set()
        for _ in range(500):
            dim = rng.randint(1, 4)
            moves = []
            for _ in range(rng.randint(0, 3)):
                lhs = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(dim))
                rhs = tuple(rng.choice((0, 0, 1, 3, 5, 9, 67, 101)) for _ in range(dim))
                moves.append((lhs, rhs) if rng.random() < 0.5 else (rhs, lhs))
            p = pres(dim, moves)
            basis = _hermite_rows(_difference_rows(p), dim)
            for _ in range(4):
                f, g = (tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(2))
                diff = tuple(a - b for a, b in zip(f, g))
                sep = ts.find_separator(p, f, g)
                assert (sep is None) == _in_row_lattice(diff, basis)
                if sep is None:
                    nones += 1
                    continue
                assert ts.verify_separator(p, sep, f, g)
                kinds.add(sep.kind)
                past_bound += sep.kind is ts.SeparatorKind.MODULAR and sep.modulus > 64
        assert nones > 100 and past_bound > 10
        assert kinds == {ts.SeparatorKind.RATIONAL, ts.SeparatorKind.MODULAR}

    def test_find_separator_diagonalizes_once(self, monkeypatch):
        # one `integer_diagonalize` call per query, and no rational kernel
        rng = random.Random(139)
        calls = []
        real = monoid.integer_diagonalize

        def counting(rows, dim):
            calls.append(1)
            return real(rows, dim)

        def refused(*args):
            raise AssertionError("rational_kernel_basis called")

        monkeypatch.setattr(monoid, "integer_diagonalize", counting)
        monkeypatch.setattr(linalg, "rational_kernel_basis", refused)
        for _ in range(200):
            dim = rng.randint(1, 4)
            p = _non_unit_presentation(rng, dim, rng.randint(1, 4))
            f, g = (tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(2))
            calls.clear()
            ts.find_separator(p, f, g)
            assert len(calls) == 1
        assert not hasattr(monoid, "rational_kernel_basis")

    def test_order_separator_solves_one_cone(self, monkeypatch):
        # `_order_separator(pres, f, g)` asks the cone of one support, at most
        # once, and keeps nothing between calls
        assert list(inspect.signature(_order_separator).parameters) == ["pres", "f", "g"]
        rng = random.Random(149)
        calls = []
        real = monoid._cone_solution

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(monoid, "_cone_solution", counting)
        asked = 0
        for _ in range(150):
            dim = rng.randint(1, 6)
            for p in (_non_unit_presentation(rng, dim, rng.randint(1, 4)),
                      _graph_presentation(rng, dim)):
                f, g = _random_pair(rng, dim)
                calls.clear()
                _order_separator(p, f, g)
                assert len(calls) <= 1
                if calls:
                    assert calls[0] == least_admissible_support(
                        zip(*p._supports), monoid._support(g))
                asked += len(calls)
        assert asked > 100
