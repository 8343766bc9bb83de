"""Rules on the library source itself."""

import ast
import dataclasses
import inspect
from pathlib import Path

import typesemigroup
from typesemigroup import KGraphModel, MonoidPresentation

SRC = Path(__file__).resolve().parent.parent / "src" / "typesemigroup"
BENCH = SRC.parent.parent / "bench"


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
    # the simplex, the elimination, the cone generators and the states read
    # off them run in Python ints and Fractions, where a stray `/` or float
    # literal silently turns exact values into floats
    found = []
    for name in ("simplex.py", "linalg.py", "cones.py", "states.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "op", None), ast.Div) or (
                    isinstance(node, ast.Constant) and type(node.value) is float):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_one_builder_of_invariance_lps():
    # order separators solve the invariant cone on a support with
    # `cones._cone_solution`, and only in its branch for a support without
    # cone generators, `if gens is None:`; elsewhere they are read off the
    # generators.  The coboundary check solves the dual problem on the
    # matrices.  No other code outside the solver calls `solve_lp`.
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = f"{where.split(':')[0]}:{getattr(node, 'name', '<lambda>')}"
        if isinstance(node, ast.If) and ast.unparse(node.test) == "gens is None":
            for child in node.body:
                visit(child, f"{where} if gens is None")
            for child in node.orelse:
                visit(child, where)
            return
        if isinstance(node, ast.Call) and "solve_lp" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.rglob("*.py")):
        if path.name == "simplex.py":
            continue
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), f"{path.name}:")
    assert sorted(found) == ["cones.py:_cone_solution if gens is None",
                             "states.py:coboundary_check"]
    tree = ast.parse((SRC / "cones.py").read_text(encoding="utf-8"))
    solution = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_cone_solution")
    # `gens` is bound once, to the generators, before that branch
    assert [ast.unparse(node) for node in ast.walk(solution)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id == "gens"] == ["gens"]
    assert ast.unparse(solution.body[1]).startswith("gens = _cone_generators(pres, F)")


CONE_LAYER = {"least_admissible_support", "_access_masks", "_distinguished_rays",
              "_cone_solution", "_cone_generators", "_build_generators"}


def test_one_home_of_the_cone_layer():
    # the cone layer is defined in `cones` alone, and nothing, library or
    # test, imports it through `monoid`.  The presentation's cone memo,
    # `_cones`, is read and written in `cones` alone: the presentation only
    # declares it and sets its initial value.  Like every private field of
    # the presentation it is derived, and out of `==`, `hash` and `repr`.
    defined, through_monoid, memo = [], [], []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where[-1] != ":" else where + node.name
        if (isinstance(node, ast.Attribute) and node.attr == "_cones") or (
                isinstance(node, ast.Name) and node.id == "_cones") or (
                isinstance(node, ast.Constant) and node.value == "_cones"):
            memo.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.parent.parent.joinpath("tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if path.parent == SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in CONE_LAYER:
                defined.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "monoid":
                through_monoid += [f"{path.name}:{a.name}" for a in node.names
                                   if a.name in CONE_LAYER]
        if path.parent == SRC and path.name != "cones.py":
            visit(tree, f"{path.name}:")
    assert sorted(defined) == sorted(f"cones.py:{name}" for name in CONE_LAYER)
    assert through_monoid == []
    assert sorted(memo) == ["monoid.py:MonoidPresentation",
                            "monoid.py:MonoidPresentation.__post_init__"]
    private = [f for f in dataclasses.fields(MonoidPresentation) if f.name.startswith("_")]
    assert [f.name for f in private] == ["_unit", "_supports", "_cones"]
    assert [f.name for f in private if f.init or f.compare or f.repr] == []


def test_one_home_of_the_model_answers():
    # the model's kept answer, the coboundary result `_coboundary`, is read
    # and written in `states` alone: the model only declares the field and
    # sets its initial value.  Like every private field of the model it is
    # derived, and out of `==`, `hash` and `repr`.
    memo = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where[-1] != ":" else where + node.name
        if (isinstance(node, ast.Attribute) and node.attr == "_coboundary") or (
                isinstance(node, ast.Name) and node.id == "_coboundary") or (
                isinstance(node, ast.Constant) and node.value == "_coboundary"):
            memo.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.rglob("*.py")):
        if path.name != "states.py":
            visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), f"{path.name}:")
    assert sorted(memo) == ["graphs.py:KGraphModel", "graphs.py:KGraphModel.__post_init__"]
    private = [f for f in dataclasses.fields(KGraphModel) if f.name.startswith("_")]
    assert [f.name for f in private] == ["_presentation", "_coboundary"]
    assert [f.name for f in private if f.init or f.compare or f.repr] == []


# public names that nothing in the library or the benchmark calls, kept for
# the acceptance criterion that tests each of them
KEPT_FOR_CRITERIA = {
    "theta": "test_acceptance::test_criterion_7_theta_algebra",
    "relabel_kgraph": "test_acceptance::test_criterion_6_relabeling_invariance",
}

# what `bench/` and the library call the package and its modules by
LIBRARY_HANDLES = {"ts", "typesemigroup"} | {path.stem for path in SRC.glob("*.py")}


def _names_read(node, local=frozenset()):
    """Every name `node` reads, through `ts.` or a library module, or as a
    string (for `getattr`); a function's own parameters and assignments are
    local, so a variable named `theta` is not a reference to `theta`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        local = local | {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         args.vararg, args.kwarg) if a} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and node.id not in local:
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in LIBRARY_HANDLES:
        yield node.attr
    elif isinstance(node, ast.Constant) and type(node.value) is str:
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _names_read(child, local)


def test_every_public_name_has_a_caller():
    # a public function or class is live when the benchmark, a module's own
    # top-level code (the CLI's `main` included) or a live library
    # definition reads it; what only its own definition or a dead one reads
    # is dead, so a dead helper goes with its only caller.  The package
    # exports names, not its submodules.
    reads: dict = {}  # library top-level definition, or None for the roots -> names read
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            owner = node.name if path.parent == SRC and isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else None
            reads.setdefault(owner, set()).update(_names_read(node))
    live, todo = set(), [None, *KEPT_FOR_CRITERIA]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += reads.get(name, ())
    exported = {name: getattr(typesemigroup, name) for name in typesemigroup.__all__}
    public = {name for name, value in exported.items()
              if inspect.isfunction(value) or inspect.isclass(value)}
    assert sorted(public - live) == []
    assert [name for name, value in exported.items() if inspect.ismodule(value)] == []
