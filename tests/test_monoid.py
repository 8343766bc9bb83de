import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import typesemigroup as ts
from typesemigroup import monoid
from typesemigroup.linalg import (
    integer_diagonalize,
    primitive_integer,
    rational_kernel_basis,
)
from typesemigroup.monoid import (
    INFINITY,
    _bfs_equiv,
    _bfs_leq,
    _cone_solution,
    _difference_rows,
    _equiv_unit,
    _flip,
    _order_separator,
    _scale_extended,
    _support_separator,
    _unit_path,
    _unit_structure,
    _UnitStructure,
    least_admissible_support,
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
                return ts.LinearSeparator(ts.SeparatorKind.EXTENDED, _scale_extended(values))
    return None


def _reference_order_separator(p, f, g):
    return _reference_rational_separator(p, f, g) or _reference_extended_separator(p, f, g)


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
                    sep = _order_separator(p, f, g, {})
                    assert sep == _reference_order_separator(p, f, g)
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
        # most one LP beyond the full support
        rng = random.Random(61)
        solved = []
        real_solve = monoid.solve_lp

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        p = _non_unit_presentation(rng, 13, 6)
        kinds = set()
        for _ in range(30):
            f = tuple(rng.randint(0, 2) for _ in range(13))
            g = tuple(rng.randint(0, 2) for _ in range(13))
            expected = _reference_order_separator(p, f, g)
            monkeypatch.setattr(monoid, "solve_lp", counting_solve)
            solved.clear()
            sep = _order_separator(p, f, g, {})
            monkeypatch.setattr(monoid, "solve_lp", real_solve)
            assert sep == expected
            assert len(solved) <= 2
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
        # the reference tries every admissible support in (size, lex) order;
        # the least one decides alone, with the same separator
        rng = random.Random(79)
        kinds = set()
        for dim in range(1, 10):
            for p in _random_order_presentations(rng, dim):
                memo = {}
                for _ in range(5):
                    f = tuple(rng.randint(0, 2) for _ in range(dim))
                    g = tuple(rng.randint(0, 2) for _ in range(dim))
                    expected = _reference_order_separator(p, f, g)
                    assert _order_separator(p, f, g, {}) == expected
                    assert _order_separator(p, f, g, memo) == expected
                    kinds.add(None if expected is None else expected.kind)
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


def _kgraph_presentation(matrix):
    model = ts.validate_kgraph([f"v{i}" for i in range(len(matrix))], [matrix])
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
                memo = {}
                assert p._supports is not None
                _, pairs = _sweep_pairs(p, 3 if dim <= 2 else 1, 400)
                for theta, eta in pairs:
                    expected = ts.decide_leq(p, theta, eta, budget)
                    if all(t <= e for t, e in zip(theta, eta)):
                        assert expected.is_equiv and not expected.certificate.steps
                        continue
                    # a memo shared across queries answers as a fresh one
                    sep = _order_separator(p, theta, eta, memo)
                    assert sep == _order_separator(p, theta, eta, {})
                    if p._unit is None:  # decide_leq takes the unit path otherwise
                        assert sep == (expected.separator if expected.is_not_equiv else None)
                    seen.add(expected.separator.kind if expected.is_not_equiv
                             else expected.verdict)
                if p._unit is None:
                    assert memo
        assert seen >= {ts.SeparatorKind.RATIONAL, ts.SeparatorKind.EXTENDED,
                        ts.Verdict.EQUIV, ts.Verdict.UNKNOWN}

    def test_memo_keeps_supports_with_equal_gaps_apart(self):
        # both queries solve an LP with gap (1,) on a one-point support, but
        # on different points; the invariants kill both coordinates on the
        # full support
        p = pres(2, [((1, 1), (2, 1)), ((1, 1), (1, 2))])
        memo = {}
        for f, g, coeffs in (((2, 0), (1, 0), (1, INFINITY)),
                             ((0, 2), (0, 1), (INFINITY, 1))):
            sep = _order_separator(p, f, g, memo)
            assert ts.decide_leq(p, f, g) == ts.DecisionOutcome(ts.Verdict.NOT_EQUIV, separator=sep)
            assert sep == ts.LinearSeparator(ts.SeparatorKind.EXTENDED, coeffs)
        assert len(memo) == 4  # full support and one point, per query

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
        # the triangular 1-graph's sweep refutes by its cone's rays and
        # solves no LP; on the 2-graph (A, I) the rays do not decide, and the
        # sweep solves one LP per distinct (support, gap) key the zero-cone
        # rule leaves
        gens = [ts.unit_vector(2, i) for i in range(2)]
        solved = []
        real_solve = monoid.solve_lp

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        keys = set()
        real_separator = monoid._separator_on_support

        def recording_separator(pres, F, f, g, memo):
            gap = tuple(f[i] - g[i] for i in range(pres.dim) if F >> i & 1)
            if any(gap):
                keys.add((F, gap))
            return real_separator(pres, F, f, g, memo)

        monkeypatch.setattr(monoid, "solve_lp", counting_solve)
        triangular = _kgraph_presentation([[1, 1], [0, 1]])
        sweep = ts.almost_unperforated_up_to(triangular, gens, 4, 4)
        assert sweep.pairs_checked == 625 and sweep.unknown_pairs == 0
        assert solved == []

        p = ts.presentation_from_kgraph(ts.validate_kgraph(
            ["v0", "v1"], [[[1, 1], [0, 1]], [[1, 0], [0, 1]]]))
        _, pairs = _sweep_pairs(p, 4, 5000)
        for q in (triangular, p):
            solved.clear()
            for theta, eta in pairs:
                ts.decide_leq(q, theta, eta)
            # without the memo, 256 LPs (406 before the zero-cone rule)
            assert len(solved) == 256
        memo = {}
        monkeypatch.setattr(monoid, "_separator_on_support", recording_separator)
        for theta, eta in pairs:
            if any(t > e for t, e in zip(theta, eta)):
                _order_separator(p, theta, eta, memo)
        monkeypatch.setattr(monoid, "_separator_on_support", real_separator)
        # `_order_separator` keeps one memo entry per distinct (support,
        # gap) key, full supports included
        assert len(memo) == len(keys)
        # the sweep asks only eta's least admissible support F0, and solves
        # one LP per distinct (F0, gap) key the rule leaves
        least_keys = _least_support_keys(p, pairs)
        solved.clear()
        left = set()
        for F, gap in least_keys:
            before = len(solved)
            _cone_solution(p, F, [_gap_row(p, F, gap)])
            if len(solved) > before:
                left.add((F, gap))
        solved.clear()
        assert ts.almost_unperforated_up_to(p, gens, 4, 4) == sweep  # as the 1-graph's
        assert len(solved) == len(left) == 30
        assert len(left) < len(least_keys) and len(left) < len(keys)

    def test_no_state_outlives_the_sweep(self):
        p = _kgraph_presentation([[1, 1], [0, 1]])
        twin = _kgraph_presentation([[1, 1], [0, 1]])
        gens = [ts.unit_vector(2, i) for i in range(2)]
        attrs, digest = dict(p.__dict__), hash(p)
        module_state = {k: (v, len(v) if isinstance(v, (dict, list, set)) else None)
                        for k, v in vars(monoid).items()}
        first = ts.almost_unperforated_up_to(p, gens, 4, 4)
        assert p.__dict__ == attrs and hash(p) == digest == hash(twin) and p == twin
        assert {k: (v, len(v) if isinstance(v, (dict, list, set)) else None)
                for k, v in vars(monoid).items()} == module_state
        assert ts.almost_unperforated_up_to(p, gens, 4, 4) == first

    def test_moves_compiled_once_per_sweep(self, monkeypatch):
        # moves are compiled once per sweep that searches, never for a unit
        # presentation, and one search tree is grown per right-hand side eta
        # that has a pair left after the separators, no more
        rng = random.Random(73)
        budget = ts.SearchBudget(300, 6)
        compiled, roots = [], []
        real_compile, real_tree = monoid._compiled_moves, monoid._SearchTree

        def counting_compile(p):
            compiled.append(1)
            return real_compile(p)

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
                assert len(compiled) == (1 if searched else 0)
                assert sorted(roots) == sorted(set(searched))
                shared += len(searched) > len(roots)
        assert shared >= 5

def _parent_bfs_leq(p, f, g, budget):
    """`_bfs_leq` with its own level loop, as it was before the sweep shared
    its searches."""
    moves = monoid._compiled_moves(p)
    tree = monoid._SearchTree(g)
    while tree.frontier:
        for new in tree.expand(moves, budget.max_coord):
            if all(nv >= fv for nv, fv in zip(new, f)):
                return ts.DecisionOutcome(
                    ts.Verdict.EQUIV,
                    certificate=ts.EquivCertificate(
                        g, tuple(monoid._back_steps(tree.visited, moves, new)), new),
                    slack=tuple(a - b for a, b in zip(new, f)),
                )
        if len(tree.visited) > budget.max_states:
            return ts.DecisionOutcome(ts.Verdict.UNKNOWN, budget=ts.BudgetReport(
                len(tree.visited), tree.cap_hit, exhausted=False))
    return ts.DecisionOutcome(ts.Verdict.UNKNOWN, budget=ts.BudgetReport(
        len(tree.visited), tree.cap_hit, exhausted=not tree.cap_hit))


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
            assert repr(_scale_extended(values)) == repr(_parent_scale_extended(values))
            finite = [v for v in values if v != INFINITY]
            if finite:
                assert repr(primitive_integer(finite)) == repr(_parent_primitive_integer(finite))

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
            gens = [ts.unit_vector(p.dim, i) for i in range(p.dim)]
            coeff_bound = 2 if p.dim <= 2 else 1
            span = _span(p, gens, coeff_bound)
            pairs = len(span) ** 2
            outcomes = [ts.decide_leq(p, t, e) for t, e in itertools.product(span, repeat=2)]
            assert not any(out.is_unknown for out in outcomes)
            assert calls  # the counter sees the per-pair loop
            for max_pairs in (0, 1, len(span) - 1, len(span), len(span) + 1,
                              pairs - 1, pairs, pairs + 1):
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
# the BFS level expansion as it was before moves were compiled sparse: every
# move tested and applied on every coordinate, and the cap tested on all of
# them


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
        # roots reach above the cap of 2-4, and the states are compared level
        # by level, parents and cap flags included
        rng = random.Random(97)
        over = 0
        for p in _kernel_presentations(rng):
            sparse_moves = monoid._compiled_moves(p)
            dense_moves = _reference_compiled_moves(p)
            for _ in range(3):
                cap = rng.randint(2, 4)
                root = tuple(rng.randint(0, cap + 2) for _ in range(p.dim))
                over += max(root) > cap
                sparse, dense = monoid._SearchTree(root), _DenseSearchTree(root)
                for _ in range(6):
                    assert (list(sparse.expand(sparse_moves, cap))
                            == list(dense.expand(dense_moves, cap)))
                    assert sparse.visited == dense.visited
                    assert sparse.frontier == dense.frontier
                    assert sparse.cap_hit is dense.cap_hit
        assert over > 30

    def test_searches(self, monkeypatch):
        rng = random.Random(101)
        seen = set()
        for p in _kernel_presentations(rng):
            for _ in range(4):
                budget = ts.SearchBudget(rng.choice((15, 60, 400)), rng.choice((2, 3, 5, 64)))
                top = min(budget.max_coord + 1, 6)
                f = tuple(rng.randint(0, top) for _ in range(p.dim))
                g = tuple(rng.randint(0, top) for _ in range(p.dim))
                sparse = (_bfs_equiv(p, f, g, budget), _bfs_leq(p, f, g, budget))
                monkeypatch.setattr(monoid, "_compiled_moves", _reference_compiled_moves)
                monkeypatch.setattr(monoid, "_SearchTree", _DenseSearchTree)
                dense = (_bfs_equiv(p, f, g, budget), _bfs_leq(p, f, g, budget))
                monkeypatch.undo()
                assert sparse == dense
                for out in sparse:
                    seen.add(out.verdict if out.budget is None else
                             (out.budget.coordinate_cap_hit, out.budget.exhausted))
        # both verdicts, and budget reports bound by the cap, by the state
        # budget and by clean exhaustion
        assert seen >= {ts.Verdict.EQUIV, (True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# the zero-cone rule in front of the order-separator LP


def _reference_cone_solution(p, F, rows):
    """The invariant-cone LP as first written, without the zero-cone rule."""
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


def _counted_cone_solution(p, F, rows):
    """`_cone_solution` and the number of LPs it solved: 0 when the zero-cone
    rule refutes the rows, 1 otherwise."""
    solved = []
    real = monoid.solve_lp

    def counting(*args, **kwargs):
        solved.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monoid, "solve_lp", counting)
        values = _cone_solution(p, F, rows)
    return values, len(solved)


def _gap_row(p, F, gap):
    support = [i for i in range(p.dim) if F >> i & 1]
    return {i: v for i, v in zip(support, gap) if v}, ">="


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
    """Admissible supports with one of the three kinds of normalising rows:
    an order gap c.gap >= 1, a state target c.t == 1, or c_v >= 1 on every
    vertex of the support."""
    for F, support, gap in _random_supports_and_gaps(rng, p, count):
        target = {v: t for v, t in zip(support, map(abs, gap)) if t}
        yield F, [_gap_row(p, F, gap)]
        yield F, [(target, "==")]
        yield F, [({v: 1}, ">=") for v in support]


def _one_matrix_presentation(rng, n):
    """e_v -> row v of a random 0..2 matrix; rows may be zero or unit."""
    return pres(n, [(ts.unit_vector(n, v),
                     tuple(rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)))
                    for v in range(n)])


class TestZeroConeRule:
    def test_one_matrix_exactly_when_the_lp_is_infeasible(self):
        # every kind of row is refuted without an LP exactly when the LP is
        # infeasible, and otherwise solved as the rule-free LP solves it
        rng = random.Random(103)
        refuted = kept = 0
        for _ in range(300):
            p = _one_matrix_presentation(rng, rng.randint(1, 7))
            for F, rows in _random_rows(rng, p, 4):
                got, lps = _counted_cone_solution(p, F, rows)
                expected = _reference_cone_solution(p, F, rows)
                assert got == expected and lps == (expected is not None)
                refuted += not lps
                kept += lps
        assert refuted > 2500 and kept > 300

    def test_two_graphs_refute_only_infeasible_lps(self):
        # one matrix at a time, the rule may miss an infeasible LP here
        rng = random.Random(107)
        refuted = 0
        for _ in range(200):
            p = _graph_presentation(rng, rng.randint(1, 6))
            if len(p.moves) == p.dim:
                continue
            for F, rows in _random_rows(rng, p, 4):
                got, lps = _counted_cone_solution(p, F, rows)
                assert got == _reference_cone_solution(p, F, rows) and lps <= 1
                if not lps:
                    assert got is None
                    refuted += 1
        assert refuted > 800

    def test_not_used_outside_its_scope(self):
        # the rule reads only the moves inside F, so it stays out exactly
        # when one of them has a left side that is not a unit vector, or a
        # vertex of F has no move
        rng = random.Random(109)
        infeasible = 0
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
                rows = [_gap_row(q, F, gap)]
                got, lps = _counted_cone_solution(q, F, rows)
                expected = _reference_cone_solution(q, F, rows)
                assert got == expected and lps <= 1
                if F & scope == scope:
                    assert lps == 1
                    infeasible += expected is None
        assert infeasible > 50

    def test_separators_unchanged_on_graphs(self):
        # every order separator is the one the rule-free reference finds
        rng = random.Random(113)
        cases = []
        for _ in range(120):
            n = rng.randint(1, 5)
            p = _graph_presentation(rng, n)
            cases += [(p, *_random_pair(rng, n)) for _ in range(3)]
        with_rule = [_order_separator(p, f, g, {}) for p, f, g in cases]
        assert [_reference_order_separator(p, f, g) for p, f, g in cases] == with_rule
        assert {None if s is None else s.kind for s in with_rule} == {
            None, ts.SeparatorKind.RATIONAL, ts.SeparatorKind.EXTENDED}


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

    def recording_dominate(tree, moves, fs, budget):
        searched.extend((f, tree.frontier[0]) for f in fs)
        return real_dominate(tree, moves, fs, budget)

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
    sep = _order_separator(p, theta, eta, {})
    if sep is None:
        return None
    if sep.kind is ts.SeparatorKind.RATIONAL:
        return "full support"
    F = least_admissible_support(zip(*p._supports), monoid._support(eta))
    return "sticks out" if monoid._support(theta) & ~F else "proper support"


class TestRaySweep:
    def test_rays_refute_exactly_the_separated_pairs(self, monkeypatch):
        # the sweep searches exactly the pairs not below coordinatewise that
        # `_order_separator` leaves; on one-matrix presentations it solves
        # no LP doing so, and on 2-graphs it takes the memo
        rng = random.Random(127)
        solved = []
        real_solve = monoid.solve_lp

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(monoid, "solve_lp", counting_solve)
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
                assert solved == [] or not one_matrix
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
        rng = random.Random(131)
        supports, solved = [], []
        real_rays, real_solve = monoid._distinguished_rays, monoid.solve_lp

        def counting_rays(B, support):
            supports.append(tuple(support))
            return real_rays(B, support)

        def counting_solve(*args, **kwargs):
            solved.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(monoid, "_distinguished_rays", counting_rays)
        monkeypatch.setattr(monoid, "solve_lp", counting_solve)
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


class TestTorsionFromDiagonalForm:
    def test_matches_the_modulus_loop(self):
        # torsion orders 2..9; moves with zero left sides give negative
        # diagonal entries
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
                assert sep == _reference_find_separator(p, f, g)
                if sep is not None and sep.kind is ts.SeparatorKind.MODULAR:
                    moduli.add(sep.modulus)
        assert {2, 3, 4, 5} <= moduli and negative > 20

    @pytest.mark.parametrize("order", [2, 3, 5, 63, 64, 65, 67])
    def test_one_torsion_order(self, order):
        # 0 <-> order.x: x has order `order`, so a modulus up to 64 separates
        # 0 from x exactly when it divides `order`; 67 is prime and past it
        p = pres(1, [((0,), (order,))])
        expected = _reference_find_separator(p, (1,), (0,))
        assert ts.find_separator(p, (1,), (0,)) == expected
        if expected is not None:
            assert expected.modulus == min(m for m in range(2, 65) if order % m == 0)
        else:
            assert all(order % m for m in range(2, 65))
