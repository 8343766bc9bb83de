"""Rules on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "typesemigroup"


def test_no_assert_statements():
    # `python -O` strips assert statements, so an internal check written as
    # one silently disappears; internal failures raise ConsistencyError
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_true_division_or_floats_in_exact_arithmetic():
    # the simplex and the elimination run in Python ints, where a stray `/`
    # or float literal silently turns exact values into floats
    found = []
    for name in ("simplex.py", "linalg.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "op", None), ast.Div) or (
                    isinstance(node, ast.Constant) and type(node.value) is float):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_one_builder_of_invariance_lps():
    # order separators, states and invariant vectors all solve the invariant
    # cone on a support with `monoid._cone_solution`; the coboundary check
    # solves the dual problem on the matrices.  No other code outside the
    # solver calls `solve_lp`.
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = f"{where.split(':')[0]}:{getattr(node, 'name', '<lambda>')}"
        if isinstance(node, ast.Call) and "solve_lp" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.rglob("*.py")):
        if path.name == "simplex.py":
            continue
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), f"{path.name}:")
    assert sorted(found) == ["monoid.py:_cone_solution", "states.py:coboundary_check"]
