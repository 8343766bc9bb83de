import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import typesemigroup as ts

from graph_reference import reference_structural_checks


def two_loops_graph():
    return ts.build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")])


def one_loop_graph():
    return ts.build_graph(["v"], [("a", "v", "v")])


def random_kgraph(rng, max_vertices=4, max_entry=2):
    n = rng.randint(1, max_vertices)
    while True:
        mat = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in mat):
            return ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])


class TestValidation:
    def test_one_vertex_commuting_pair(self):
        m = ts.validate_kgraph(["v"], [[[2]], [[3]]])
        assert m.k == 2

    def test_noncommuting_rejected(self):
        with pytest.raises(ts.InputError) as e:
            ts.validate_kgraph(["u", "w"], [[[0, 1], [0, 1]], [[1, 0], [1, 0]]])
        assert e.value.code == "NONCOMMUTING_MATRICES"
        assert (e.value.details["i"], e.value.details["j"]) == (0, 1)

    def test_zero_row_rejected(self):
        with pytest.raises(ts.InputError) as e:
            ts.validate_kgraph(["u", "w"], [[[0, 0], [1, 1]]])
        assert e.value.code == "ROW_ZERO"
        assert e.value.details["vertex"] == "u"

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", Fraction(1)])
    def test_non_integral_entry_rejected(self, bad):
        with pytest.raises(ts.InputError) as e:
            ts.validate_kgraph(["u", "w"], [[[1, 0], [0, bad]]])
        assert e.value.code == "NON_INTEGRAL_ENTRY"
        assert e.value.details["matrix"] == 0

    def test_negative_entry_rejected(self):
        with pytest.raises(ts.InputError) as e:
            ts.validate_kgraph(["v"], [[[-1]]])
        assert e.value.code == "NEGATIVE_ENTRY"

    def test_graph_bad_reference(self):
        with pytest.raises(ts.InputError) as e:
            ts.build_graph(["v"], [("a", "v", "x")])
        assert e.value.code == "BAD_REFERENCE"

    def test_graph_no_sources(self):
        with pytest.raises(ts.InputError) as e:
            ts.build_graph(["u", "w"], [("a", "u", "w")])
        assert e.value.code == "ROW_ZERO"

    @pytest.mark.parametrize("vertices", [[], ["v", "v"]])
    def test_graph_vertices_nonempty_and_unique(self, vertices):
        # an empty vertex list built an empty graph, which validate_kgraph
        # rejects with the same code
        with pytest.raises(ts.InputError) as e:
            ts.build_graph(vertices, [])
        assert e.value.code == "BAD_REFERENCE"
        with pytest.raises(ts.InputError) as e:
            ts.validate_kgraph(vertices, [[[1] * len(vertices)] * len(vertices)])
        assert e.value.code == "BAD_REFERENCE"

    @pytest.mark.parametrize("vertices", ["ab", {"a": 1, "b": 2}, [1, 2], [1, "1"], ["a", None],
                                          ["a", b"b"], ("a", 2)])
    def test_vertex_ids_are_a_list_of_strings(self, vertices):
        # a string is not read as its characters, a dict as its keys, nor an
        # id as its str(): [1, "1"] is an id that is not a string, not a
        # duplicate
        for build in (lambda: ts.build_graph(vertices, []),
                      lambda: ts.validate_kgraph(vertices, [[[1, 1], [1, 1]]])):
            with pytest.raises(ts.InputError) as e:
                build()
            assert e.value.code == "BAD_REFERENCE"
            assert "unique" not in str(e.value)

    @pytest.mark.parametrize("edge", [(1, "v", "v"), ("e", 0, "v"), ("e", "v", 0),
                                      {"id": 1, "range": "v", "source": "v"},
                                      {"id": "e", "range": "v", "source": ["v"]},
                                      ts.Edge("e", "v", 0), ("e", "v", None)])
    def test_edge_ids_and_endpoints_are_strings(self, edge):
        # with vertex "0" too, so that str(0) would have named a vertex
        for vertices in (["v"], ["v", "0"]):
            with pytest.raises(ts.InputError) as e:
                ts.build_graph(vertices, [edge, ("f", "0", "0")])
            assert e.value.code == "BAD_REFERENCE"

    def test_string_ids_still_build(self):
        g = ts.build_graph(("0", "v"), [("e", "v", "0"), ("f", "0", "v")])
        assert g.vertices == ("0", "v") and [e.id for e in g.edges] == ["e", "f"]
        assert ts.validate_kgraph(("0", "v"), [[[0, 1], [1, 0]]]).vertices == ("0", "v")


class TestAdjacencyPower:
    def test_cube(self):
        m = ts.validate_kgraph(["v"], [[[2]]])
        assert ts.adjacency_power(m, (3,)) == ((8,),)

    def test_zero_power_is_identity(self):
        m = ts.validate_kgraph(["u", "w"], [[[1, 1], [0, 1]]])
        assert ts.adjacency_power(m, (0,)) == ((1, 0), (0, 1))

    def test_mixed_colors(self):
        m = ts.validate_kgraph(["v"], [[[2]], [[3]]])
        assert ts.adjacency_power(m, (1, 1)) == ((6,),)

    def test_order_independent(self):
        rng = random.Random(2)
        a = [[rng.randint(0, 2) or 1 for _ in range(3)] for _ in range(3)]
        m = ts.validate_kgraph(["a", "b", "c"], [a, a])  # A commutes with itself
        p1 = ts.adjacency_power(m, (2, 1))
        p2 = ts.adjacency_power(m, (1, 2))
        assert p1 == p2

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", Fraction(1)])
    def test_non_integral_power_rejected(self, bad):
        m = ts.validate_kgraph(["v"], [[[2]]])
        with pytest.raises(ts.InputError) as e:
            ts.adjacency_power(m, (bad,))
        assert e.value.code == "NON_INTEGRAL_ENTRY"

    def test_negative_power_rejected(self):
        m = ts.validate_kgraph(["v"], [[[2]]])
        with pytest.raises(ts.InputError) as e:
            ts.adjacency_power(m, (-1,))
        assert e.value.code == "NEGATIVE_ENTRY"

    @pytest.mark.parametrize("bad", [5, (1, 1), ()])
    def test_power_that_is_not_k_entries_rejected(self, bad):
        # an int raised a bare TypeError
        m = ts.validate_kgraph(["v"], [[[2]]])
        with pytest.raises(ts.InputError) as e:
            ts.adjacency_power(m, bad)
        assert e.value.code == "DIMENSION_MISMATCH"


class TestTheta:
    def test_identity_loop(self):
        m = ts.validate_kgraph(["v"], [[[1]]])
        assert ts.theta(m, (1,), (3,)) == (3,)

    def test_two_loops(self):
        m = ts.validate_kgraph(["v"], [[[2]]])
        assert ts.theta(m, (1,), (1,)) == (2,)

    def test_transpose_convention(self):
        m = ts.validate_kgraph(["u", "w"], [[[0, 1], [1, 0]]])
        assert ts.theta(m, (1,), (1, 0)) == (0, 1)

    def test_dimension_mismatch(self):
        m = ts.validate_kgraph(["v"], [[[1]]])
        with pytest.raises(ts.InputError):
            ts.theta(m, (1,), (1, 2))

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", Fraction(1)])
    def test_non_integral_entry_rejected(self, bad):
        # theta(two_loops, (1,), (1.5,)) used to return (2,)
        m = ts.validate_kgraph(["u", "w"], [[[0, 2], [2, 0]]])
        for args in (((1,), (bad, 0)), ((1,), (0, bad)), ((bad,), (1, 0))):
            with pytest.raises(ts.InputError) as e:
                ts.theta(m, *args)
            assert e.value.code == "NON_INTEGRAL_ENTRY"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_theta_functorial_and_linear(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    mat = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).filter(lambda m: all(any(r) for r in m))
    )
    model = ts.validate_kgraph([f"v{i}" for i in range(n)], [mat])
    vec = st.tuples(*([st.integers(min_value=0, max_value=3)] * n))
    f = data.draw(vec)
    g = data.draw(vec)
    a = data.draw(st.integers(min_value=0, max_value=3))
    b = data.draw(st.integers(min_value=0, max_value=3))
    fg = tuple(x + y for x, y in zip(f, g))
    assert ts.theta(model, (a,), ts.theta(model, (b,), f)) == ts.theta(model, (a + b,), f)
    lhs = ts.theta(model, (a,), fg)
    rhs = tuple(
        x + y for x, y in zip(ts.theta(model, (a,), f), ts.theta(model, (a,), g))
    )
    assert lhs == rhs


class TestPresentation:
    def test_two_loops(self):
        m = ts.validate_kgraph(["v"], [[[2]]])
        p = ts.presentation_from_kgraph(m)
        assert p.dim == 1 and p.moves == (ts.Move((1,), (2,)),)

    def test_one_loop_identity_move(self):
        m = ts.validate_kgraph(["v"], [[[1]]])
        p = ts.presentation_from_kgraph(m)
        assert p.moves == (ts.Move((1,), (1,)),)

    def test_rank_two(self):
        m = ts.validate_kgraph(["v"], [[[2]], [[3]]])
        p = ts.presentation_from_kgraph(m)
        assert p.moves == (ts.Move((1,), (2,)), ts.Move((1,), (3,)))

    def test_soundness_on_transfer_identities(self):
        # x = (A^q)^t z and y = (A^p)^t z satisfy (A^p)^t x = (A^q)^t y, and
        # the move chain rewriting x into y must be found by the engine.
        # With z = e_v and b = 0, y is the class of a depth-a refinement of
        # the cylinder at v, so every vertex class is congruent to it.
        rng = random.Random(31)
        cases = []
        for _ in range(25):
            model = random_kgraph(rng, max_vertices=4, max_entry=2)
            z = tuple(rng.randint(0, 1) for _ in range(model.dim))
            if any(z):
                cases.append((model, z, rng.randint(0, 2), rng.randint(0, 2)))
        for _ in range(15):
            model = random_kgraph(rng, max_vertices=3, max_entry=2)
            for v in range(model.dim):
                for a in (1, 2):
                    cases.append((model, ts.unit_vector(model.dim, v), a, 0))
        for model, z, a, b in cases:
            p = ts.presentation_from_kgraph(model)
            x = ts.theta(model, (b,), z)
            y = ts.theta(model, (a,), z)
            out = ts.decide_equiv(p, x, y, ts.SearchBudget(100_000, 128))
            assert out.is_equiv, (model.matrices, z, a, b)
            assert ts.replay(p, x, out.certificate) == y


class TestStructural:
    def test_two_loops(self):
        r = ts.structural_checks(ts.kgraph_from_graph(two_loops_graph()))
        assert r.cofinal and r.condition_L and r.strongly_connected

    def test_one_loop_no_exit(self):
        r = ts.structural_checks(ts.kgraph_from_graph(one_loop_graph()))
        assert r.cofinal and not r.condition_L

    def test_disconnected_components(self):
        g = ts.build_graph(
            ["u", "w"],
            [
                ("a", "u", "u"),
                ("b", "u", "u"),
                ("c", "w", "w"),
                ("d", "w", "w"),
            ],
        )
        r = ts.structural_checks(ts.kgraph_from_graph(g))
        assert not r.cofinal
        assert not r.strongly_connected
        assert len(r.cyclic_sccs) == 2

    def test_cycle_with_exit_down_a_tail(self):
        # loop at u has an exit edge into w, which cycles with an exit back
        g = ts.build_graph(
            ["u", "w"],
            [
                ("a", "u", "u"),
                ("b", "u", "w"),
                ("c", "w", "u"),
                ("d", "w", "w"),
            ],
        )
        r = ts.structural_checks(ts.kgraph_from_graph(g))
        assert r.cofinal and r.condition_L and r.strongly_connected


def _structure_model(rng):
    """A random 1-8-vertex model with multi-edges; a third are 2-graphs whose
    second matrix, A.A or A + 1, commutes with the first."""
    n = rng.randint(1, 8)
    density = rng.choice((0.12, 0.25, 0.5))
    mat = []
    for _ in range(n):
        row = [rng.choice((1, 1, 1, 2)) if rng.random() < density else 0 for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = 1
        mat.append(row)
    mats = [mat]
    if rng.random() < 1 / 3:
        if rng.random() < 0.5:
            mats.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*mat)] for row in mat])
        else:
            mats.append([[a + (v == w) for w, a in enumerate(row)] for v, row in enumerate(mat)])
    return ts.validate_kgraph([f"v{i}" for i in range(n)], mats)


class TestStructuralMatchesTarjan:
    def test_every_field_and_the_class_order(self):
        rng = random.Random(131)
        seen = {"cofinal": set(), "condition_L": set(), "strongly_connected": set()}
        k2 = reordered = 0
        for _ in range(10_000):
            model = _structure_model(rng)
            summed = [[sum(col) for col in zip(*rows)] for rows in zip(*model.matrices)]
            report = ts.structural_checks(model)
            assert report == reference_structural_checks(model.vertices, summed)
            for name, values in seen.items():
                values.add(getattr(report, name))
            k2 += model.k == 2
            reordered += list(report.cyclic_sccs) != sorted(
                report.cyclic_sccs, key=lambda c: model.vertices.index(c[0]))
        assert all(values == {False, True} for values in seen.values())
        assert k2 > 2000 and reordered > 100


class TestSingleVertexClosedForm:
    # For one vertex with m >= 2 loops the rewrite step is x <-> x + (m-1)
    # (forward needs x >= 1, backward x >= m), so positives are congruent
    # exactly when they agree mod m-1, and 0 is alone in its class.
    def test_engine_matches_arithmetic_characterization(self):
        for m in (2, 3, 4, 5):
            model = ts.validate_kgraph(["v"], [[[m]]])
            pres = ts.presentation_from_kgraph(model)
            for a in range(0, 9):
                for b in range(a, 9):
                    expected = (a == b) or (
                        a >= 1 and b >= 1 and (a - b) % (m - 1) == 0
                    )
                    out = ts.decide_equiv(pres, (a,), (b,))
                    assert out.is_equiv == expected, (m, a, b, out.verdict)
                    assert not out.is_unknown, (m, a, b)
                    if out.is_equiv:
                        assert ts.replay(pres, (a,), out.certificate) == (b,)
                    else:
                        assert ts.verify_separator(pres, out.separator, (a,), (b,))

    def test_order_matches_arithmetic_characterization(self):
        # [a] <= [b] iff some b' = b + k(m-1) >= a exists in [b], i.e. b = 0
        # forces a = 0, and any b >= 1 dominates every a
        for m in (2, 3):
            model = ts.validate_kgraph(["v"], [[[m]]])
            pres = ts.presentation_from_kgraph(model)
            for a in range(0, 7):
                for b in range(0, 7):
                    expected = a == 0 if b == 0 else True
                    out = ts.decide_leq(pres, (a,), (b,))
                    assert out.is_equiv == expected, (m, a, b, out.verdict)


class TestRelabeling:
    @pytest.mark.parametrize("perm", [[False], [True], [0.0], [Fraction(0)], ["0"]])
    def test_non_int_permutation_rejected(self, perm):
        # [False] used to be read as the permutation [0]
        model = ts.kgraph_from_graph(one_loop_graph())
        with pytest.raises(ts.InputError) as e:
            ts.relabel_kgraph(model, perm)
        assert e.value.code == "BAD_REFERENCE"

    def test_two_vertex_permutation_with_bools_rejected(self):
        model = ts.validate_kgraph(["u", "v"], [[[1, 1], [0, 1]]])
        assert ts.relabel_kgraph(model, [1, 0]).vertices == ("v", "u")
        with pytest.raises(ts.InputError) as e:
            ts.relabel_kgraph(model, [True, False])
        assert e.value.code == "BAD_REFERENCE"

    def test_decisions_are_permutation_equivariant(self):
        rng = random.Random(41)
        for _ in range(20):
            model = random_kgraph(rng, max_vertices=4, max_entry=2)
            n = model.dim
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = ts.relabel_kgraph(model, perm)
            p1 = ts.presentation_from_kgraph(model)
            p2 = ts.presentation_from_kgraph(relabeled)
            f = tuple(rng.randint(0, 2) for _ in range(n))
            g = tuple(rng.randint(0, 2) for _ in range(n))
            pf = tuple(f[perm[i]] for i in range(n))
            pg = tuple(g[perm[i]] for i in range(n))
            a = ts.decide_equiv(p1, f, g)
            b = ts.decide_equiv(p2, pf, pg)
            assert a.verdict == b.verdict
            al = ts.decide_leq(p1, f, g)
            bl = ts.decide_leq(p2, pf, pg)
            assert al.verdict == bl.verdict
