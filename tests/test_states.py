import dataclasses
import json
import operator
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import typesemigroup as ts
import typesemigroup.cones as cones_module
import typesemigroup.states as states_module
from typesemigroup.cones import least_admissible_support
from typesemigroup.monoid import INFINITY
from typesemigroup.cli import _as_kgraph, _build_model
from typesemigroup.simplex import OPTIMAL

from library_traffic import _random_model as traffic_model
from lp_reference import feasible_point, lp_matrix, reference_solve_lp

MODELS = Path(__file__).resolve().parent.parent / "models"


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


def ensemble_model(rng, n, style, k):
    """The classify ensemble's generator: a permutation (style 0), sparse
    0/1 (1) or dense 0..3 (2) matrix, with a commuting second colour."""
    while True:
        if style == 0:
            perm = rng.sample(range(n), n)
            a = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
        elif style == 1:
            a = [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(n)]
        else:
            a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    mats = [a]
    if k == 2:
        second = rng.choice(([[int(i == j) for j in range(n)] for i in range(n)],
                             [row[:] for row in a],
                             [[a[i][j] + int(i == j) for j in range(n)] for i in range(n)]))
        mats.append(second)
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


# The invariance LPs as first written, from the matrices: one row
# sum_w A_i[v][w] c_w - c_v == 0 per matrix, then per vertex of F.  The
# library solves no LP for states and positive vectors: it reads them off
# the invariant cone generators of the presentation's supports
# (`cones._cone_generators`).  These copies are the reference the
# differential tests compare it with: the library finds an answer exactly
# when the LP is feasible, on the same support.


def _invariance_lp(model, F):
    """The column of each vertex of F, ascending, and the invariance rows."""
    col = {v: j for j, v in enumerate(sorted(F))}
    rows = []
    for mat in model.matrices:
        for v in col:
            coeffs = {}
            for w in col:
                a = mat[v][w]
                if a:
                    coeffs[col[w]] = coeffs.get(col[w], 0) + a
            coeffs[col[v]] = coeffs.get(col[v], 0) - 1
            coeffs = {k: c for k, c in coeffs.items() if c}
            if coeffs:
                rows.append((coeffs, "==", 0))
    return col, rows


def _matrix_solve_state_at(model, target):
    n = model.dim
    sides = [(1 << v, sum(1 << w for w, a in enumerate(row) if a))
             for mat in model.matrices for v, row in enumerate(mat)]
    mask = least_admissible_support(sides, sum(1 << v for v, x in enumerate(target) if x))
    F = [v for v in range(n) if mask >> v & 1]
    col, rows = _invariance_lp(model, F)
    x = feasible_point(len(F), rows + [({col[v]: target[v] for v in F if target[v]}, "==", 1)])
    if x is None:
        return None
    values = tuple(x[col[v]] if v in col else INFINITY for v in range(n))
    return ts.StateCertificate(values=values, target=tuple(target), support=tuple(F))


def _matrix_faithful_finite_state(model):
    n = model.dim
    _, rows = _invariance_lp(model, range(n))
    A, b = lp_matrix(n, rows + [(dict.fromkeys(range(n), 1), "==", 1)])
    maximizers = []
    for v in range(n):
        sol = reference_solve_lp(A, b, [int(w == v) for w in range(n)], maximize=True)
        if sol.status != OPTIMAL or sol.objective == 0:
            return None
        maximizers.append(sol.x)
    return tuple(sum(sol[w] for sol in maximizers) / n for w in range(n))


def _matrix_positive_invariant_vector(model):
    n = model.dim
    _, rows = _invariance_lp(model, range(n))
    return feasible_point(n, rows + [({v: 1}, ">=", 1) for v in range(n)])


def _out_closure(model, seed):
    closed = set(seed)
    queue = list(seed)
    while queue:
        v = queue.pop()
        for mat in model.matrices:
            for w in range(model.dim):
                if mat[v][w] > 0 and w not in closed:
                    closed.add(w)
                    queue.append(w)
    return frozenset(closed)


def _trapped(model, F):
    """Vertices outside F that, for some matrix, have no out-neighbour outside F."""
    return frozenset(
        v
        for v in range(model.dim)
        if v not in F
        and any(not any(mat[v][w] > 0 and w not in F for w in range(model.dim)) for mat in model.matrices)
    )


def _reference_least_support(model, seed):
    """The frozenset fixpoint as first written: out-closure, then every
    vertex that cannot escape it, until none is left."""
    F = _out_closure(model, seed)
    while True:
        trapped = _trapped(model, F)
        if not trapped:
            return F
        F = _out_closure(model, F | trapped)


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
        col, rows = _invariance_lp(model, F)
        x = feasible_point(len(F), rows + [({col[v]: target[v] for v in col if target[v]}, "==", 1)])
        if x is not None:
            values = tuple(x[col[v]] if v in F else INFINITY for v in range(model.dim))
            return ts.StateCertificate(values=values, target=tuple(target), support=tuple(sorted(F)))
    return None


def count_lp_solves(monkeypatch):
    """Count the LPs the library solves (`cones.solve_lp`, the separators',
    and `states.solve_lp`, the coboundary check's); the reference copies
    here call the solver through `lp_reference`."""
    calls = []
    for module in (cones_module, states_module):
        def counted(*args, real=module.solve_lp, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "solve_lp", counted)
    return calls


def traffic_models(seed, count=40):
    """The 1-graphs and 2-graphs of `library_traffic`'s sample."""
    rng = random.Random(seed)
    return [traffic_model(rng) for _ in range(count)]


def assert_no_lp_for_states(monkeypatch, model):
    """States at every vertex, the positive vector and the faithful state
    solve no LP."""
    with monkeypatch.context() as patch:
        calls = count_lp_solves(patch)
        for v in range(model.dim):
            ts.solve_state_at(model, ts.unit_vector(model.dim, v))
        ts.positive_invariant_vector(model)
        ts.faithful_finite_state(model)
    assert calls == []


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

    @pytest.mark.parametrize("bad", [None, 5])
    def test_non_iterable_target_rejected(self, one_loop, bad):
        # used to raise a bare TypeError
        with pytest.raises(ts.InputError) as e:
            ts.solve_state_at(one_loop, bad)
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
        # no LP: the cone generators on the least admissible support decide,
        # and give the state when there is one
        calls = count_lp_solves(monkeypatch)
        cert = ts.solve_state_at(model, ts.unit_vector(16, vertex))
        assert calls == []
        if support is None:
            assert cert is None
        else:
            assert cert.support == support and ts.verify_state_certificate(model, cert)

    def test_matches_reference_enumerator(self, monkeypatch):
        # dense models mostly settle on the out-closure of the target; sparse
        # ones also reach supports beyond it.  No call solves an LP: the cone
        # generators give a state exactly when the enumerator finds one, on
        # the support it finds first, for every k, and each state verifies.
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
                assert (got is None) == (expected is None) and calls == []
                checked += 1
                if got is None:
                    none += 1
                    continue
                assert got.support == expected.support and got.target == expected.target
                assert ts.verify_state_certificate(model, got)
                seed = frozenset(v for v, x in enumerate(target) if x)
                beyond_closure += len(got.support) > len(_out_closure(model, seed))
        assert checked > 400 and 0 < none < checked and beyond_closure > 10

    def test_every_generator_of_the_least_support_reaches_the_target(self):
        # the zero set of an invariant r >= 0 in the least admissible
        # support F is admissible, so every generator on F is positive at
        # the target: the state is the first generator, scaled
        rng = random.Random(2025)
        several = 0
        for model in [random_model(rng) for _ in range(100)] + [sparse_model(rng) for _ in range(200)]:
            p = model._presentation
            for _ in range(4):
                target = tuple(rng.randint(0, 1) for _ in range(model.dim))
                if not any(target):
                    continue
                F = least_admissible_support(zip(*p._supports), sum(1 << v for v, t in enumerate(target) if t))
                gens = cones_module._cone_generators(p, F)
                assert all(sum(map(operator.mul, r, target)) > 0 for r in gens)
                several += len(gens) > 1
                got = ts.solve_state_at(model, target)
                assert (got is None) == (gens == ())
                if gens:
                    mass = sum(map(operator.mul, gens[0], target))
                    assert got.values == tuple(Fraction(x, mass) if F >> v & 1 else INFINITY
                                               for v, x in enumerate(gens[0]))
        assert several > 10

    def test_least_support_matches_frozenset_fixpoint(self):
        rng = random.Random(83)
        models = [random_model(rng) for _ in range(40)] + [sparse_model(rng) for _ in range(80)]
        checked = beyond_closure = 0
        for model in models:
            n = model.dim
            sides = [(1 << v, sum(1 << w for w in range(n) if mat[v][w]))
                     for mat in model.matrices for v in range(n)]
            seeds = [frozenset([v]) for v in range(n)]
            seeds += [frozenset(v for v in range(n) if rng.random() < 0.4) for _ in range(3)]
            for seed in seeds:
                if not seed:
                    continue
                mask = least_admissible_support(sides, sum(1 << v for v in seed))
                expected = _reference_least_support(model, seed)
                assert frozenset(v for v in range(n) if mask >> v & 1) == expected
                checked += 1
                beyond_closure += expected != _out_closure(model, seed)
        assert checked > 500 and beyond_closure > 20


def assert_faithful_state(model, got, expected):
    """`got` exists exactly when the maximise-and-average `expected` does, and
    is then the positive invariant vector scaled to mass one."""
    assert (got is None) == (expected is None)
    if got is not None:
        pos = ts.positive_invariant_vector(model)
        assert got == tuple(x / sum(pos) for x in pos)
        assert all(x > 0 for x in got) and sum(got) == 1
        assert ts.verify_state_certificate(
            model, ts.StateCertificate(got, (1,) * model.dim, tuple(range(model.dim))))


def assert_positive_invariant(model, vec):
    """Strictly positive, and A_i vec = vec for every matrix."""
    n = model.dim
    assert len(vec) == n and all(type(x) is Fraction and x > 0 for x in vec)
    for mat in model.matrices:
        assert [sum(mat[v][w] * vec[w] for w in range(n)) for v in range(n)] == list(vec)


class TestMatchesMatrixInvarianceLP:
    """States, invariant vectors and faithful states read off the cone
    generators of the model's presentation exist exactly when the LPs built
    from the matrices (the copies above) are feasible, states on the same
    support, and each verifies."""

    @staticmethod
    def _file_models():
        models = []
        for path in sorted(MODELS.glob("*.json")):
            kind, model = _build_model(json.loads(path.read_text(encoding="utf-8")))
            if kind != "action":
                models.append(_as_kgraph(kind, model))
        return models

    def test_ensembles_and_model_files(self):
        rng = random.Random(97)
        models = [ensemble_model(rng, n, style, k)
                  for _ in range(4) for n in range(1, 9) for style in range(3) for k in (1, 2)]
        models += self._file_models()
        calls = found = faithful = positive = 0
        for model in models:
            n = model.dim
            targets = [ts.unit_vector(n, v) for v in range(n)]
            targets.append(tuple(rng.randint(0, 2) for _ in range(n)))
            for target in filter(any, targets):
                got = ts.solve_state_at(model, target)
                expected = _matrix_solve_state_at(model, target)
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got.support == expected.support
                    assert ts.verify_state_certificate(model, got)
                calls += 1
                found += got is not None
            got = ts.faithful_finite_state(model)
            assert_faithful_state(model, got, _matrix_faithful_finite_state(model))
            faithful += got is not None
            got = ts.positive_invariant_vector(model)
            assert (got is None) == (_matrix_positive_invariant_vector(model) is None)
            if got is not None:
                assert_positive_invariant(model, got)
            positive += got is not None
        assert calls > 1000 and 0 < found < calls
        assert 0 < faithful < len(models) and 0 < positive < len(models)

    def test_pinned_divergence(self):
        # the cone has two extreme rays, (0, 0, 1, 0, 2) and (0, 0, 0, 1, 2):
        # the library scales the first, Phase I on the matrix copy ends at
        # the second; both states verify
        a = [[0, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 1, 1, 0, 0], [2, 1, 0, 1, 0], [2, 0, 2, 2, 0]]
        b = [[sum(a[i][t] * a[t][j] for t in range(5)) for j in range(5)] for i in range(5)]
        model = ts.validate_kgraph([f"v{i}" for i in range(5)], [a, b])
        target = (0, 1, 0, 1, 1)
        got = ts.solve_state_at(model, target)
        expected = _matrix_solve_state_at(model, target)
        assert got.values == (0, 0, Fraction(1, 2), 0, 1)
        assert expected.values == (0, 0, 0, Fraction(1, 3), Fraction(2, 3))
        assert got.support == expected.support == (0, 1, 2, 3, 4)
        assert ts.verify_state_certificate(model, got)
        assert ts.verify_state_certificate(model, expected)


class TestStateCertificateRejectsMalformed:
    def test_genuine_certificate_passes(self, one_loop):
        cert = ts.StateCertificate(values=(Fraction(1),), target=(1,), support=(0,))
        assert ts.verify_state_certificate(one_loop, cert)
        assert ts.verify_state_certificate(one_loop, dataclasses.replace(cert, values=(1,)))

    @pytest.mark.parametrize("values", [("1",), (1.0,), (True,), (INFINITY,), (Fraction(1), 0)])
    def test_values(self, one_loop, values):
        cert = ts.StateCertificate(values=values, target=(1,), support=(0,))
        assert not ts.verify_state_certificate(one_loop, cert)

    @pytest.mark.parametrize("support", [(0, 7), (7,), (0, 0), (0.0,), (True,), ()])
    def test_support(self, one_loop, support):
        cert = ts.StateCertificate(values=(Fraction(1),), target=(1,), support=support)
        assert not ts.verify_state_certificate(one_loop, cert)

    @pytest.mark.parametrize("target", [(1, 0), (), (1.0,), (True,), ("1",), (-1,)])
    def test_target(self, one_loop, target):
        cert = ts.StateCertificate(values=(Fraction(1),), target=target, support=(0,))
        assert not ts.verify_state_certificate(one_loop, cert)

    @pytest.mark.parametrize("matrix, values, target, support", [
        ([[2]], (Fraction(1),), (1,), (0,)),  # 2c = c fails
        ([[1, 1], [0, 1]], (Fraction(1), Fraction(1)), (1, 0), (0, 1)),  # c_u = c_u + c_w fails
        ([[1, 0], [1, 0]], (Fraction(1), INFINITY), (1, 0), (0,)),  # w = u: oo against 1
    ])
    def test_invariance_in_extended_arithmetic(self, matrix, values, target, support):
        model = ts.validate_kgraph([f"v{i}" for i in range(len(matrix))], [matrix])
        cert = ts.StateCertificate(values=values, target=target, support=support)
        assert not ts.verify_state_certificate(model, cert)

    @pytest.mark.parametrize("cert", [None, ((Fraction(1),), (1,), (0,)), "state"])
    def test_not_a_state_certificate(self, one_loop, cert):
        # a certificate of the wrong type raised AttributeError
        assert not ts.verify_state_certificate(one_loop, cert)

    def test_infinity_only_off_the_support(self, triangular):
        cert = ts.solve_state_at(triangular, (0, 1))
        assert cert.values == (INFINITY, 1) and ts.verify_state_certificate(triangular, cert)
        assert not ts.verify_state_certificate(
            triangular, dataclasses.replace(cert, values=(float("nan"), Fraction(1))))
        assert not ts.verify_state_certificate(
            triangular, dataclasses.replace(cert, support=(0, 1)))


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
        # the check must survive python -O, so it cannot be an assert; the
        # swap model's generator (1, 1) becomes (2, 1), which no move fixes
        real = states_module._cone_generators

        def skewed(pres, F):
            return tuple((r[0] + 1,) + r[1:] for r in real(pres, F))

        monkeypatch.setattr(states_module, "_cone_generators", skewed)
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        # nothing is kept, so asking again reads, and raises, again
        for query in (ts.faithful_finite_state, ts.positive_invariant_vector, ts.stiemke_crosscheck):
            for _ in range(2):
                with pytest.raises(ts.ConsistencyError):
                    query(m)
        monkeypatch.undo()
        assert ts.faithful_finite_state(m) == (Fraction(1, 2), Fraction(1, 2))

    def test_a_kept_vector_is_checked_on_every_call(self):
        # the vector is summed from the generators the presentation keeps;
        # a kept generator that is not invariant is still caught
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        assert ts.positive_invariant_vector(m) == (1, 1)
        p = m._presentation
        assert p._cones == (0b11, ((1, 1),))
        object.__setattr__(p, "_cones", (0b11, ((2, 1),)))
        for query in (ts.positive_invariant_vector, ts.faithful_finite_state):
            with pytest.raises(ts.ConsistencyError):
                query(m)

    def test_solves_at_most_one_lp_and_exists_iff_per_vertex_rebuild(self, monkeypatch):
        # the n maximisations became no LP at all: the cone generators give
        # a faithful state exactly when the maximise-and-average copy does.
        # On the library's own traffic, states, positive vectors and
        # faithful states solve no LP either
        rng = random.Random(89)
        found = 0
        for model in [random_model(rng, max_vertices=5) for _ in range(40)]:
            expected = _matrix_faithful_finite_state(model)
            with monkeypatch.context() as patch:
                calls = count_lp_solves(patch)
                got = ts.faithful_finite_state(model)
            assert calls == []
            assert_faithful_state(model, got, expected)
            found += got is not None
        assert 0 < found < 40
        for model in traffic_models(89):
            assert_no_lp_for_states(monkeypatch, model)

    def test_missing_generators_raise(self, monkeypatch):
        # a k-graph support always has generators; if one ever had none,
        # states and positive vectors raise and never fall back to an LP
        monkeypatch.setattr(states_module, "_cone_generators", lambda p, F: None)
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        calls = count_lp_solves(monkeypatch)
        for query in (lambda m: ts.solve_state_at(m, (1, 0)), ts.positive_invariant_vector,
                      ts.faithful_finite_state):
            with pytest.raises(ts.ConsistencyError):
                query(m)
        assert calls == []


class TestCoboundary:
    def test_identity_loop_holds(self, one_loop):
        assert ts.coboundary_check(one_loop).holds

    def test_two_loops_fails_with_witness(self, two_loops):
        res = ts.coboundary_check(two_loops)
        assert not res.holds
        assert res.witness_y == (1,)
        assert res.witness_z == ((-1,),)
        assert ts.verify_coboundary_witness(two_loops, res)

    def test_rejected_witness_raises_consistency_error(self, monkeypatch):
        # built here, not the shared fixture: a model asked before answers
        # from what it keeps, and the patched check would never run
        model = ts.validate_kgraph(["v"], [[[2]]])
        monkeypatch.setattr(states_module, "verify_coboundary_witness", lambda model, res: False)
        with pytest.raises(ts.ConsistencyError):
            ts.coboundary_check(model)
        # a call that raises keeps nothing, so the next one solves, and
        # raises, again
        assert model._coboundary is None
        for query in (ts.coboundary_check, ts.stiemke_crosscheck, ts.classify):
            with pytest.raises(ts.ConsistencyError):
                query(model)
            assert model._coboundary is None
        monkeypatch.undo()
        res = ts.coboundary_check(model)
        assert not res.holds and ts.verify_coboundary_witness(model, res)

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


    @pytest.mark.parametrize("y, z", [
        ((1.0,), ((-1,),)), ((1,), ((-1.0,),)), ((True,), ((-1,),)), ((1,), ()),
        ((1,), ((-1,), (0,))), ((1,), ((),)), ((1, 0), ((-1,),)), (None, ((-1,),)),
        ((1,), None), (("1",), ((-1,),))])
    def test_malformed_witness_rejected(self, two_loops, y, z):
        assert not ts.verify_coboundary_witness(two_loops, ts.CoboundaryResult(False, y, z))


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


def _twin(model):
    """An equal model that has been asked nothing."""
    return ts.KGraphModel(model.k, model.vertices, model.matrices)


MODEL_QUERIES = {
    "classify": ts.classify,
    "stiemke_crosscheck": ts.stiemke_crosscheck,
    "faithful_finite_state": ts.faithful_finite_state,
    "coboundary_check": ts.coboundary_check,
    "positive_invariant_vector": ts.positive_invariant_vector,
}


def _memo_models(seed, count=30):
    rng = random.Random(seed)
    models = [ensemble_model(rng, rng.randint(1, 5), i % 3, 1 + i // 3 % 2) for i in range(count)]
    return models + [sparse_model(rng) for _ in range(count // 3)]


class TestModelAnswers:
    """The coboundary result is kept on the model by the first query that
    asks; the answers, the positive vector read afresh from the kept cone
    generators included, are those of a model asked nothing."""

    def test_any_order_answers_as_a_fresh_twin(self):
        rng = random.Random(97)
        holds = set()
        for model in _memo_models(97):
            expected = {name: query(_twin(model)) for name, query in MODEL_QUERIES.items()}
            # the second round answers from what the first kept
            for _ in range(2):
                for name in rng.sample(sorted(MODEL_QUERIES), len(MODEL_QUERIES)):
                    got = MODEL_QUERIES[name](model)
                    assert got == expected[name] and repr(got) == repr(expected[name])
            twin = _twin(model)
            assert model == twin and hash(model) == hash(twin) and repr(model) == repr(twin)
            assert model._coboundary is ts.coboundary_check(model) is ts.coboundary_check(model)
            holds.add(ts.coboundary_check(model).holds)
        assert holds == {True, False}

    def test_one_coboundary_lp_and_one_cone_solve_per_model(self, monkeypatch):
        # classify and then stiemke_crosscheck, the classify ensemble's unit,
        # solve the coboundary LP once and build the full support's cone
        # generators, off which the positive vector is read, once
        coboundary_lps, full_cones = [], []
        real_solve, real_build = states_module.solve_lp, cones_module._build_generators

        def counted_solve(*args, **kwargs):
            coboundary_lps.append(1)
            return real_solve(*args, **kwargs)

        def counted_build(dim, support, inside):
            if len(support) == dim:
                full_cones.append(1)
            return real_build(dim, support, inside)

        monkeypatch.setattr(states_module, "solve_lp", counted_solve)
        monkeypatch.setattr(cones_module, "_build_generators", counted_build)
        for model in _memo_models(101):
            coboundary_lps.clear()
            full_cones.clear()
            ts.classify(model)
            ts.stiemke_crosscheck(model)
            assert len(coboundary_lps) == len(full_cones) == 1
            # the model-only queries now solve no LP and build nothing;
            # classify still asks its per-vertex questions on every call
            with monkeypatch.context() as patch:
                lps = count_lp_solves(patch)
                for name, query in MODEL_QUERIES.items():
                    if name != "classify":
                        query(model)
            assert len(coboundary_lps) == len(full_cones) == 1 and lps == []
        # nor do states, positive vectors and faithful states on the
        # library's own traffic
        for model in traffic_models(101):
            assert_no_lp_for_states(monkeypatch, model)

    def test_per_call_queries_keep_nothing(self):
        # states at a target and the structural checks are asked per call,
        # and a model built from an asked one starts empty
        for model in _memo_models(103, 9):
            ts.structural_checks(model)
            for v in range(model.dim):
                ts.solve_state_at(model, ts.unit_vector(model.dim, v))
            assert model._coboundary is None
            ts.stiemke_crosscheck(model)
            assert model._coboundary is not None
            assert ts.relabel_kgraph(model, list(range(model.dim))[::-1])._coboundary is None
            assert dataclasses.replace(model)._coboundary is None


@pytest.mark.parametrize("bad", [5, None, [[1]], "v", {"k": 1, "vertices": ["v"], "matrices": [[[2]]]},
                                 ts.build_presentation(1, [((1,), (2,))])],
                         ids=["int", "None", "matrix", "str", "dict", "presentation"])
@pytest.mark.parametrize("query", [
    ts.classify, ts.structural_checks, ts.faithful_finite_state, ts.coboundary_check,
    ts.positive_invariant_vector, ts.stiemke_crosscheck,
    lambda model: ts.solve_state_at(model, (1,)), ts.presentation_from_kgraph,
    lambda model: ts.relabel_kgraph(model, [0]), lambda model: ts.adjacency_power(model, (1,)),
    lambda model: ts.theta(model, (1,), (1,)),
    lambda model: ts.verify_state_certificate(model, ts.StateCertificate((1,), (1,), (0,))),
    lambda model: ts.verify_coboundary_witness(model, ts.CoboundaryResult(False, (1,), ((-1,),)))],
    ids=["classify", "structural_checks", "faithful_finite_state", "coboundary_check",
         "positive_invariant_vector", "stiemke_crosscheck", "solve_state_at",
         "presentation_from_kgraph", "relabel_kgraph", "adjacency_power", "theta",
         "verify_state_certificate", "verify_coboundary_witness"])
def test_what_is_not_a_model_is_rejected(query, bad):
    # a schema error, never an AttributeError from deep inside, and never a
    # verifier's False
    with pytest.raises(ts.InputError) as info:
        query(bad)
    assert info.value.code == "SCHEMA_VIOLATION"
