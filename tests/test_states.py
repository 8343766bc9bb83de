import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

import typesemigroup as ts
import typesemigroup.states as states_module
from typesemigroup.monoid import INFINITY
from typesemigroup.simplex import OPTIMAL, LinearProgram
from typesemigroup.states import _invariance_lp, _out_closure


def random_model(rng, max_vertices=6, max_entry=3, max_k=2):
    n = rng.randint(1, max_vertices)
    k = rng.randint(1, max_k)
    while True:
        a = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    mats = [a]
    if k == 2:
        # a second color commuting with the first: identity, a itself, or I + a
        choice = rng.randrange(3)
        if choice == 0:
            b = [[int(i == j) for j in range(n)] for i in range(n)]
        elif choice == 1:
            b = [row[:] for row in a]
        else:
            b = [[a[i][j] + int(i == j) for j in range(n)] for i in range(n)]
        mats.append(b)
    return ts.validate_kgraph([f"v{i}" for i in range(n)], mats)


def sparse_model(rng, max_vertices=6):
    n = rng.randint(1, max_vertices)
    a = [[rng.choice((0, 1, 1, 2)) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
    for row in a:
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, 2)
    mats = [a]
    if rng.random() < 0.3:
        mats.append([[a[i][j] + int(i == j) for j in range(n)] for i in range(n)])
    return ts.validate_kgraph([f"v{i}" for i in range(n)], mats)


def _is_out_closed(model, F):
    return all(
        w in F
        for v in F
        for mat in model.matrices
        for w in range(model.dim)
        if mat[v][w] > 0
    )


def _complement_escapes(model, F):
    return all(
        any(mat[v][w] > 0 and w not in F for w in range(model.dim))
        for v in range(model.dim)
        if v not in F
        for mat in model.matrices
    )


def _reference_solve_state_at(model, target):
    """The exhaustive enumerator as first written: every superset of the
    out-closure of the target's support, sorted by size then lex, each
    admissible one tried with an LP until one is feasible."""
    seed = frozenset(v for v, x in enumerate(target) if x)
    base = _out_closure(model, seed)
    rest = sorted(set(range(model.dim)) - base)
    options = [
        frozenset(base | set(extra))
        for size in range(len(rest) + 1)
        for extra in combinations(rest, size)
    ]
    options.sort(key=lambda F: (len(F), tuple(sorted(F))))
    for F in options:
        if not (_is_out_closed(model, F) and _complement_escapes(model, F)):
            continue
        lp, names = _invariance_lp(model, F)
        lp.constrain({names[v]: target[v] for v in sorted(F) if target[v]}, "==", 1)
        sol = lp.solve()
        if sol.status == OPTIMAL:
            values = tuple(
                sol.values[names[v]] if v in F else INFINITY for v in range(model.dim)
            )
            return ts.StateCertificate(values=values, target=tuple(target), support=tuple(sorted(F)))
    return None


def count_lp_solves(monkeypatch):
    calls = []
    real = LinearProgram.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(LinearProgram, "solve", counted)
    return calls


def diag_model(n):
    mat = [[(2 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])


def feeder_model(n, loop):
    """v0 carries `loop` loops, v1 an edge into v0 only, and every other
    vertex a loop and an edge into v0."""
    mat = [[0] * n for _ in range(n)]
    mat[0][0] = loop
    for i in range(1, n):
        mat[i][0] = 1
        mat[i][i] = int(i > 1)
    return ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])


class TestSolveStateAt:
    def test_identity_loop(self, one_loop):
        cert = ts.solve_state_at(one_loop, (1,))
        assert cert.values == (Fraction(1),)
        assert ts.verify_state_certificate(one_loop, cert)

    def test_two_loops_has_no_state(self, two_loops):
        assert ts.solve_state_at(two_loops, (1,)) is None

    def test_triangular_state_kills_second_vertex(self, triangular):
        cert = ts.solve_state_at(triangular, (1, 0))
        assert cert.values == (Fraction(1), Fraction(0))
        assert ts.verify_state_certificate(triangular, cert)

    def test_triangular_infinite_value(self, triangular):
        # the class of the second vertex supports a state that is infinite
        # on the first vertex
        cert = ts.solve_state_at(triangular, (0, 1))
        assert cert.values == (INFINITY, Fraction(1))
        assert cert.support == (1,)
        assert ts.verify_state_certificate(triangular, cert)

    def test_zero_target_rejected(self, one_loop):
        with pytest.raises(ts.InputError) as e:
            ts.solve_state_at(one_loop, (0,))
        assert e.value.code == "ZERO_TARGET"

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, Fraction(1)])
    def test_non_integral_target_rejected(self, one_loop, bad):
        with pytest.raises(ts.InputError) as e:
            ts.solve_state_at(one_loop, (bad,))
        assert e.value.code == "NON_INTEGRAL_ENTRY"

    def test_negative_target_rejected(self):
        identity = ts.validate_kgraph(["u", "w"], [[[1, 0], [0, 1]]])
        with pytest.raises(ts.InputError) as e:
            ts.solve_state_at(identity, (-1, 1))
        assert e.value.code == "NEGATIVE_ENTRY"

    def test_target_length_checked(self, one_loop):
        with pytest.raises(ts.InputError) as e:
            ts.solve_state_at(one_loop, (1, 0))
        assert e.value.code == "DIMENSION_MISMATCH"

    def test_support_must_respect_escape(self):
        # second vertex feeds only into the first: a state normalized at the
        # first vertex cannot be infinite at the second
        m = ts.validate_kgraph(["u", "w"], [[[1, 0], [1, 0]]])
        cert = ts.solve_state_at(m, (1, 0))
        assert cert is not None
        assert cert.support == (0, 1)
        assert cert.values == (Fraction(1), Fraction(1))
        assert ts.verify_state_certificate(m, cert)

    @pytest.mark.parametrize("model, vertex, support", [
        # 2c = c with c = 1 has no solution on {v0}, hence none on any of the
        # 2**15 larger supports
        (diag_model(16), 0, None),
        (diag_model(16), 3, (3,)),
        # v1 feeds only into v0, so every admissible support contains both
        (feeder_model(16, 2), 0, None),
        (feeder_model(16, 1), 0, (0, 1)),
    ])
    def test_one_lp_on_sixteen_vertices(self, monkeypatch, model, vertex, support):
        calls = count_lp_solves(monkeypatch)
        cert = ts.solve_state_at(model, ts.unit_vector(16, vertex))
        assert len(calls) == 1
        if support is None:
            assert cert is None
        else:
            assert cert.support == support and ts.verify_state_certificate(model, cert)

    def test_matches_reference_enumerator(self, monkeypatch):
        # dense models mostly settle on the out-closure of the target; sparse
        # ones also reach supports beyond it.  Every call solves one LP.
        rng = random.Random(2024)
        models = [random_model(rng, max_vertices=6) for _ in range(40)]
        models += [sparse_model(rng) for _ in range(60)]
        checked = none = beyond_closure = 0
        for model in models:
            targets = [ts.unit_vector(model.dim, v) for v in range(model.dim)]
            targets.append(tuple(rng.randint(0, 2) for _ in range(model.dim)))
            for target in targets:
                if not any(target):
                    continue
                expected = _reference_solve_state_at(model, target)
                with monkeypatch.context() as patch:
                    calls = count_lp_solves(patch)
                    got = ts.solve_state_at(model, target)
                assert got == expected and len(calls) == 1
                checked += 1
                if got is None:
                    none += 1
                    continue
                assert ts.verify_state_certificate(model, got)
                seed = frozenset(v for v, x in enumerate(target) if x)
                beyond_closure += len(got.support) > len(_out_closure(model, seed))
        assert checked > 400 and 0 < none < checked and beyond_closure > 10


class TestFaithfulFiniteState:
    def test_identity_loop(self, one_loop):
        assert ts.faithful_finite_state(one_loop) == (Fraction(1),)

    def test_swap_splits_mass(self):
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        assert ts.faithful_finite_state(m) == (Fraction(1, 2), Fraction(1, 2))

    def test_triangular_forced_zero(self, triangular):
        assert ts.faithful_finite_state(triangular) is None

    def test_two_loops_none(self, two_loops):
        assert ts.faithful_finite_state(two_loops) is None

    def test_bad_average_raises_consistency_error(self, monkeypatch):
        # the check must survive python -O, so it cannot be an assert
        real = LinearProgram.solve

        def doubled(self, *args, **kwargs):
            sol = real(self, *args, **kwargs)
            return dataclasses.replace(sol, values={k: 2 * v for k, v in sol.values.items()})

        monkeypatch.setattr(LinearProgram, "solve", doubled)
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        with pytest.raises(ts.ConsistencyError):
            ts.faithful_finite_state(m)


class TestCoboundary:
    def test_identity_loop_holds(self, one_loop):
        assert ts.coboundary_check(one_loop).holds

    def test_two_loops_fails_with_witness(self, two_loops):
        res = ts.coboundary_check(two_loops)
        assert not res.holds
        assert res.witness_y == (1,)
        assert res.witness_z == ((-1,),)
        assert ts.verify_coboundary_witness(two_loops, res)

    def test_rejected_witness_raises_consistency_error(self, monkeypatch, two_loops):
        monkeypatch.setattr(states_module, "verify_coboundary_witness", lambda model, res: False)
        with pytest.raises(ts.ConsistencyError):
            ts.coboundary_check(two_loops)

    def test_swap_holds(self):
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        assert ts.coboundary_check(m).holds

    def test_triangular_fails(self, triangular):
        res = ts.coboundary_check(triangular)
        assert not res.holds
        assert ts.verify_coboundary_witness(triangular, res)

    def test_witness_scaling_soundness(self, two_loops, triangular):
        for model in (two_loops, triangular):
            res = ts.coboundary_check(model)
            scaled = ts.CoboundaryResult(
                holds=False,
                witness_y=tuple(7 * y for y in res.witness_y),
                witness_z=tuple(tuple(7 * z for z in zi) for zi in res.witness_z),
            )
            assert ts.verify_coboundary_witness(model, scaled)


class TestStiemke:
    def test_examples(self, one_loop, two_loops, triangular):
        for model, holds in ((one_loop, True), (two_loops, False), (triangular, False)):
            res = ts.stiemke_crosscheck(model)
            assert res.consistent
            assert res.coboundary_holds == holds
            assert (res.positive_vector is not None) == holds

    def test_random_models_consistent(self):
        rng = random.Random(77)
        for _ in range(25):
            model = random_model(rng, max_vertices=4)
            res = ts.stiemke_crosscheck(model)
            assert res.consistent
            faithful = ts.faithful_finite_state(model)
            assert (faithful is not None) == res.coboundary_holds


class TestDifferenceLattice:
    def test_generators_are_move_differences(self, two_loops):
        lat = ts.difference_lattice(two_loops)
        assert lat.generators == ((-1,),)
