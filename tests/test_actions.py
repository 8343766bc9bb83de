import itertools
import random
from fractions import Fraction

import pytest

import typesemigroup as ts


def transposition():
    return ts.build_action([1, 2], [[2, 1]])


def three_cycle():
    return ts.build_action([1, 2, 3], [[2, 3, 1]])


class TestValidation:
    def test_not_a_permutation(self):
        with pytest.raises(ts.InputError) as e:
            ts.build_action([1, 2], [[1, 1]])
        assert e.value.code == "NOT_A_PERMUTATION"

    def test_bad_point_reference(self):
        with pytest.raises(ts.InputError) as e:
            ts.build_action([1, 2], [[2, 3]])
        assert e.value.code == "BAD_REFERENCE"

    @pytest.mark.parametrize("points,generators", [("ab", [["b", "a"]]), ("ab", ["ba"]),
                                                   (["a", "b"], ["ba"]), (["a", "b"], "ba")])
    def test_strings_are_not_read_as_lists(self, points, generators):
        # a string's characters would otherwise be points or images
        with pytest.raises(ts.InputError) as e:
            ts.build_action(points, generators)
        assert e.value.code == "BAD_REFERENCE"
        assert ts.build_action(["a", "b"], [["b", "a"]]).generators == ((1, 0),)

    @pytest.mark.parametrize("points,image", [([1, 2], True), ([1.0, 2], 1), ([1, 2], 1.0)])
    def test_image_of_another_type_is_not_a_point(self, points, image):
        # True == 1 == 1.0 as dict keys, but none of them is the other point
        with pytest.raises(ts.InputError) as e:
            ts.build_action(points, [[2, image]])
        assert e.value.code == "BAD_REFERENCE"

    @pytest.mark.parametrize("points,generators", [([[1], [2]], []), ([1, 2], [[[1], 2]])])
    def test_unhashable_point_or_image_rejected(self, points, generators):
        # a list as a point or an image raised a bare TypeError
        with pytest.raises(ts.InputError) as e:
            ts.build_action(points, generators)
        assert e.value.code == "BAD_REFERENCE"

    @pytest.mark.parametrize("points,generators", [(5, []), ([1, 2], 5), ([1, 2], [5]),
                                                   ({1, 2}, []), ([1, 2], [{1, 2}])])
    def test_point_and_image_lists_that_are_not_lists_rejected(self, points, generators):
        # an int raised a bare TypeError; a set would be read in hash order
        with pytest.raises(ts.InputError) as e:
            ts.build_action(points, generators)
        assert e.value.code == "BAD_REFERENCE"
        assert ts.build_action((1, 2), ([2, 1], (1, 2))).generators == ((1, 0), (0, 1))

    def test_closure_cap(self):
        a = three_cycle()
        with pytest.raises(ts.InputError) as e:
            ts.closure(a, cap=2)
        assert e.value.code == "GROUP_TOO_LARGE"


class TestOrbits:
    def test_transposition_is_minimal(self):
        o = ts.orbits(transposition())
        assert o.blocks == ((1, 2),) and o.minimal

    def test_no_generators(self):
        o = ts.orbits(ts.build_action([1, 2], []))
        assert o.blocks == ((1,), (2,)) and not o.minimal

    def test_partial_transposition(self):
        o = ts.orbits(ts.build_action([1, 2, 3], [[2, 1, 3]]))
        assert o.blocks == ((1, 2), (3,))

    def test_minimality_matches_unit_class_fusion(self):
        # single orbit iff every two unit classes are oracle-equal
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 4)
            pts = list(range(1, n + 1))
            gens = [rng.sample(pts, n) for _ in range(rng.randint(0, 2))]
            a = ts.build_action(pts, gens)
            fused = all(
                ts.oracle_equiv(a, ts.unit_vector(n, i), ts.unit_vector(n, j))
                for i in range(n)
                for j in range(n)
            )
            assert fused == ts.orbits(a).minimal


class TestOracle:
    def test_mass_shift_within_orbit(self):
        assert ts.oracle_equiv(transposition(), (2, 0), (1, 1))

    def test_distinct_singletons(self):
        a = ts.build_action([1, 2], [])
        assert not ts.oracle_equiv(a, (1, 0), (0, 1))

    def test_zero(self):
        assert ts.oracle_equiv(transposition(), (0, 0), (0, 0))

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", Fraction(1)])
    def test_non_integral_entry_rejected(self, bad):
        # oracle_equiv(transposition, (1.9, 0), (0, 1)) used to answer True
        for f, g in (((bad, 0), (0, 1)), ((0, 1), (0, bad))):
            with pytest.raises(ts.InputError) as e:
                ts.oracle_equiv(transposition(), f, g)
            assert e.value.code == "NON_INTEGRAL_ENTRY"

    def test_integer_entries_accepted_from_any_sequence(self):
        assert ts.oracle_equiv(transposition(), [2, 1], range(1, 3))

    def test_negative_entry_rejected(self):
        # oracle_equiv(transposition, (-1, 1), (0, 0)) used to answer True
        for f, g in (((-1, 1), (0, 0)), ((0, 0), (1, -1))):
            with pytest.raises(ts.InputError) as e:
                ts.oracle_equiv(transposition(), f, g)
            assert e.value.code == "NEGATIVE_ENTRY"


class TestBruteforce:
    def test_transposition_witness(self):
        a = transposition()
        out = ts.bruteforce_equiv(a, (1, 0), (0, 1))
        assert out.verdict == "equiv"
        assert out.witnesses == (ts.Bisection(arrows=(((1, 0), 0),)),)
        assert ts.verify_witnesses(a, (1, 0), (0, 1), out.witnesses, check_membership=True)

    def test_reflexive_uses_unit_arrows(self):
        a = transposition()
        out = ts.bruteforce_equiv(a, (1, 1), (1, 1))
        assert out.verdict == "equiv"
        assert ts.verify_witnesses(a, (1, 1), (1, 1), out.witnesses, check_membership=True)

    def test_trivial_group_cannot_move_mass(self):
        a = ts.build_action([1, 2], [])
        assert ts.bruteforce_equiv(a, (1, 0), (0, 1)).verdict == "not_equiv"

    def test_too_large(self):
        a = transposition()
        assert ts.bruteforce_equiv(a, (1, 0), (0, 1), cap=1).verdict == "too_large"

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", Fraction(1)])
    def test_non_integral_entry_rejected(self, bad):
        # bruteforce_equiv(transposition, (1.9, 0), (0, 1)) used to answer "equiv"
        for f, g in (((bad, 0), (0, 1)), ((0, 1), (0, bad))):
            with pytest.raises(ts.InputError) as e:
                ts.bruteforce_equiv(transposition(), f, g)
            assert e.value.code == "NON_INTEGRAL_ENTRY"
        # checked before the size cap, which would otherwise answer too_large
        with pytest.raises(ts.InputError):
            ts.bruteforce_equiv(transposition(), (bad, 0), (0, 1), cap=0)

    def test_negative_entry_rejected(self):
        # bruteforce_equiv(transposition, (-1, 1), (0, 0)) used to answer
        # "not_equiv" where the oracle answered True
        for f, g in (((-1, 1), (0, 0)), ((0, 0), (1, -1))):
            with pytest.raises(ts.InputError) as e:
                ts.bruteforce_equiv(transposition(), f, g)
            assert e.value.code == "NEGATIVE_ENTRY"
            with pytest.raises(ts.InputError):
                ts.bruteforce_equiv(transposition(), f, g, cap=0)

    @pytest.mark.parametrize("f, g", [
        ((1.9, 0), (0, 1)), ((1.0, 0), (0, 1)), ((Fraction(1), 0), (0, 1)),
        ((1, 0), (0, True)), ((True, 0), (0, 1)), ((1, 0, 0), (0, 1)), ((1, 0), (0, 1, 0)),
    ])
    def test_verifier_rejects_malformed_vectors(self, f, g):
        # the witnesses of (1, 0) ~ (0, 1) used to pass for (1.9, 0) and (0, True)
        a = transposition()
        witnesses = ts.bruteforce_equiv(a, (1, 0), (0, 1)).witnesses
        assert ts.verify_witnesses(a, (1, 0), (0, 1), witnesses)
        assert not ts.verify_witnesses(a, f, g, witnesses)

    @pytest.mark.parametrize("x", [-1, 2, True])
    def test_verifier_rejects_arrows_off_the_points(self, x):
        # (swap, -1) used to count as the arrow (swap, 1)
        swap = (1, 0)
        out = (ts.Bisection(arrows=((swap, x),)),)
        assert not ts.verify_witnesses(transposition(), (0, 1), (1, 0), out)
        assert not ts.verify_witnesses(transposition(), (1, 0), (0, 1), out)

    @pytest.mark.parametrize("t", [[1, 0], (1.0, 0.0), (True, False), (1, 0, 2), (1, 1)])
    def test_verifier_rejects_malformed_group_elements(self, t):
        # [1, 0] and (1.0, 0.0) used to raise TypeError, (True, False) passed
        out = (ts.Bisection(arrows=((t, 0),)),)
        for membership in (False, True):
            assert not ts.verify_witnesses(transposition(), (1, 0), (0, 1), out, membership)

    @pytest.mark.parametrize("arrows", [
        ((1, 0, 0),), ((1, 0),), (((1, 0),),), ((),), ([(1, 0), 0],), (1, 0),
    ])
    def test_verifier_rejects_arrows_that_are_not_pairs(self, arrows):
        # ((1, 0, 0),) and (((1, 0),),) used to raise ValueError, (1, 0) TypeError
        out = (ts.Bisection(arrows=arrows),)
        for membership in (False, True):
            assert not ts.verify_witnesses(transposition(), (1, 0), (0, 1), out, membership)

    @pytest.mark.parametrize("witness", [None, ((1, 0), 0), ts.Bisection(arrows=None),
                                         ts.Bisection(arrows=[((1, 0), 0)])])
    def test_verifier_rejects_witnesses_that_are_not_bisections(self, witness):
        # a None witness used to raise AttributeError
        for membership in (False, True):
            assert not ts.verify_witnesses(transposition(), (1, 0), (0, 1), (witness,), membership)

    def test_witnesses_on_all_small_instances(self):
        a = three_cycle()
        for f in itertools.product(range(3), repeat=3):
            for g in itertools.product(range(3), repeat=3):
                out = ts.bruteforce_equiv(a, f, g)
                if out.verdict == "equiv":
                    assert ts.verify_witnesses(a, f, g, out.witnesses, check_membership=True)
                else:
                    assert not ts.oracle_equiv(a, f, g)


class TestTransformationPresentation:
    def test_transposition_single_move(self):
        p = ts.transformation_presentation(transposition())
        assert p.moves == (ts.Move((1, 0), (0, 1)),)

    def test_identity_generator_gives_identity_moves(self):
        a = ts.build_action([1, 2], [[1, 2]])
        p = ts.transformation_presentation(a)
        assert p.moves == (ts.Move((1, 0), (1, 0)), ts.Move((0, 1), (0, 1)))

    def test_three_cycle_moves(self):
        p = ts.transformation_presentation(three_cycle())
        assert set(p.moves) == {
            ts.Move((1, 0, 0), (0, 1, 0)),
            ts.Move((0, 1, 0), (0, 0, 1)),
            ts.Move((0, 0, 1), (1, 0, 0)),
        }

    def test_engine_matches_oracle(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 4)
            pts = list(range(1, n + 1))
            gens = [rng.sample(pts, n) for _ in range(rng.randint(0, 2))]
            a = ts.build_action(pts, gens)
            p = ts.transformation_presentation(a)
            f = tuple(rng.randint(0, 3) for _ in range(n))
            g = tuple(rng.randint(0, 3) for _ in range(n))
            out = ts.decide_equiv(p, f, g)
            assert out.is_equiv == ts.oracle_equiv(a, f, g)

    def test_three_way_agreement_larger_degrees(self):
        # randomized sweep at the sizes the exhaustive acceptance run skips
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 6)
            pts = list(range(1, n + 1))
            gens = [rng.sample(pts, n) for _ in range(rng.randint(0, 3))]
            a = ts.build_action(pts, gens)
            p = ts.transformation_presentation(a)
            f = tuple(rng.randint(0, 3) for _ in range(n))
            g = tuple(rng.randint(0, 3) for _ in range(n))
            oracle = ts.oracle_equiv(a, f, g)
            brute = ts.bruteforce_equiv(a, f, g)
            engine = ts.decide_equiv(p, f, g)
            assert (brute.verdict == "equiv") == oracle
            assert engine.is_equiv == oracle
            if oracle:
                assert ts.verify_witnesses(a, f, g, brute.witnesses, check_membership=True)
                assert ts.replay(p, f, engine.certificate) == g


class TestStabilize:
    def test_transposition_times_two(self):
        st = ts.stabilize(transposition(), 2)
        o = ts.orbits(st)
        assert len(o.blocks) == 1 and len(o.blocks[0]) == 4

    def test_point_times_three(self):
        st = ts.stabilize(ts.build_action([1], []), 3)
        o = ts.orbits(st)
        assert o.blocks == (((1, 1), (1, 2), (1, 3)),)

    def test_n_equal_one_preserves_structure(self):
        a = three_cycle()
        st = ts.stabilize(a, 1)
        assert ts.orbit_fingerprint(st) == ts.orbit_fingerprint(a)

    def test_fingerprint_invariance_small_sweep(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            pts = list(range(1, n + 1))
            gens = [rng.sample(pts, n) for _ in range(rng.randint(0, 2))]
            a = ts.build_action(pts, gens)
            for copies in range(1, 5):
                assert ts.orbit_fingerprint(ts.stabilize(a, copies)) == ts.orbit_fingerprint(a)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
    def test_non_integral_copies_rejected(self, bad):
        # 2.5 raised a bare TypeError and True was read as 1
        with pytest.raises(ts.InputError) as e:
            ts.stabilize(transposition(), bad)
        assert (e.value.code, e.value.details) == ("NON_INTEGRAL_ENTRY", {"n": repr(bad)})

    @pytest.mark.parametrize("bad", [0, -1])
    def test_fewer_than_one_copy_rejected(self, bad):
        with pytest.raises(ts.InputError) as e:
            ts.stabilize(transposition(), bad)
        assert e.value.code == "DIMENSION_MISMATCH"

