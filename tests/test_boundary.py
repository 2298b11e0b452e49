"""The package's layering, checked on its source with `ast`.

`fields.py` is the only module that reads the polynomial format: every other
module goes through `PolyScalar` operations (`embed`, `restrict`,
`homogeneous_parts`, `float_terms`, `evaluate_exact`).  The numeric layer has
one tensor compiler (`compile_tensors`), one float evaluator (`PackedPolys`,
the only caller of `float_terms`) and one flow function (`flow_points`); the
adapters, the interpreted float evaluators and the second flow function they
replaced stay gone.  The exact product loop differentiates in place, so the
partial-term helper `_derivative` stays gone.  The Manin
layer decides its subspace axioms with one exact elimination: the Fraction-matrix
module `_rat` and its span helpers stay gone, as do the batch-only realization
entry points, and no module tests span membership as `_rank(basis + [v])`:
each membership goes through the one reduced echelon of `fields._span_test`.  Every verifier reduces its residuals with `_numeric.worst`: a
running `worst = max(worst, r)` or `if r > worst` drops a NaN residual, so no
such reduction may come back.  Numeric ranks use the one relative rule of
`_numeric` (singular values against the largest); `numpy.linalg.matrix_rank`
with an absolute threshold makes a verdict depend on units, so no module
calls it.  Nor does any module call `numpy.linalg.det`: a determinant is a
product of n singular values, so a threshold on it makes a transversality
verdict depend on the dimension (0.005 I passes in dimension 2 and fails
below 1e-12 in dimension 6); every numeric gauge goes through
`_numeric.gauge_inverse`, which bounds the entries of the inverse instead.  `flow_points` has one field protocol, field(state, row) -> write, so it
branches on no type; and the Gauss-Legendre rule is tabulated once, in
`realization`, so no flow (or import) solves its eigenproblem.  The exact
calculus has one Lie-derivative pass, `fields._lie_terms`, behind
`lie_derivative`, `vector_bracket`, the Courant bracket's form part and the
cotangent bracket: no function composes `exterior_derivative` with
`interior_product`, so Cartan's formula lives only in the tests.  The Manin
layer sums one exponential-type series, the Taylor polynomial in `_expm`: no
other function of `maningroup.py` has a `for` loop that divides by its loop
variable, the shape of a hand-summed series such as a dexp loop cut after a
fixed number of terms.  No module raises `AssertionError`: a lost
invariant is a `DomainEscapeError`, which the CLI reports as a failed check.
`_numeric.CriterionResult` is the one criterion record: no other module
writes a "status" key, and every CLI handler returns its criteria as records.
The Manin axioms are decided over Q with no tolerance: the metrized-algebra
and triple checks, the homogeneous-space criteria (Ad_K-invariance included)
and the CLI's borrowed-chart check read no `np` name and no `_numeric()`
view, and the float paths they replaced (`GROUP_TOL`, `GroupChart.validate`,
`HomogeneousSpaceData`) stay gone, as does the unused `realization_sample`.
The pointwise gauge and pullback (`dirac.gauge_poisson`,
`dirac.pullback_dirac_at_point`) decide transversality over Q with one
rational null space: they call none of the float helpers that once decided it
(`gauge_inverse`, `pullback_fiber`, the SVD rank helpers), the CLI imports no
float self-check (`span_residual`, `gauge_fiber`), and the float frame
evaluator `LagrangianFrame.value_at` and the single-matrix slicing `_selected`
stay gone.  Every top-level definition and public method is reached by name
from the CLI, `__init__`'s exports or module-level code (the entry points only
the benchmark reads are named in `BENCH_ONLY`), and no module but `__init__`,
nor any file under `tests/`, imports a name it never uses.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diraclab"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent
REPLACED = {"flow_points_td", "CompiledVectorField", "compile_bivector", "skew_columns",
            "rref", "nullspace", "in_span", "span_equal", "span_intersection",
            "realization_form_batch", "source_target_batch", "_chart_bivector_jet",
            "evaluate", "compiled_matrix", "gauss_legendre_01", "gauge_matrix_at",
            "_coefs_at", "GROUP_TOL", "HomogeneousSpaceData", "RealizationSample",
            "realization_sample", "validate", "value_at", "_selected", "_derivative"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert {"fields.py", "_numeric.py", "poisson.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "fields.py"],
                         ids=lambda m: m.name)
def test_only_fields_reads_terms(path):
    reads = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert not reads, f"{path.name} reads .terms at lines {reads}"


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "_numeric.py"],
                         ids=lambda m: m.name)
def test_only_numeric_turns_polynomials_into_floats(path):
    calls = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "float_terms"]
    assert not calls, f"{path.name} calls float_terms at lines {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_replaced_names_stay_gone(path):
    defined = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.alias):
            defined.add(node.asname or node.name)
    assert not defined & REPLACED, f"{path.name} defines {sorted(defined & REPLACED)}"


def test_rat_module_stays_gone():
    assert not (PACKAGE / "_rat.py").exists()


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_module_imports_rat(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "_rat" for name in names), \
            f"{path.name} imports _rat at line {node.lineno}"


def _is_worst_name(node) -> bool:
    """A name `worst...` or an item `worst...[i]` of one."""
    node = node.value if isinstance(node, ast.Subscript) else node
    return isinstance(node, ast.Name) and node.id.startswith("worst")


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_hand_written_worst_case_reduction(path):
    tree = _tree(path)
    if path.name == "_numeric.py":  # the one reducer itself
        tree.body = [n for n in tree.body if getattr(n, "name", None) != "worst"]
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max"
             and any(map(_is_worst_name, node.args))
             or isinstance(node, ast.Compare)
             and any(map(_is_worst_name, [node.left, *node.comparators]))]
    assert not found, f"{path.name} reduces residuals by hand at lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_module_calls_matrix_rank(path):
    calls = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matrix_rank"]
    assert not calls, f"{path.name} calls matrix_rank at lines {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_module_calls_det(path):
    calls = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "det"
             and "linalg" in (getattr(node.func.value, "attr", None),
                              getattr(node.func.value, "id", None))]
    assert not calls, f"{path.name} calls linalg.det at lines {calls}"


def test_flow_points_has_one_field_protocol():
    flow = next(node for node in _tree(PACKAGE / "_numeric.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "flow_points")
    calls = [node.lineno for node in ast.walk(flow)
             if isinstance(node, ast.Name) and node.id == "isinstance"]
    assert not calls, f"flow_points branches on a type at lines {calls}"
    # a writer reads its time from the flow state, like x
    writes = [node for node in ast.walk(flow) if isinstance(node, ast.Call)
              and getattr(node.func, "id", "").startswith("write")]
    assert writes and not any(call.args or call.keywords for call in writes)


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_module_forms_gauss_legendre_nodes(path):
    calls = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
             and "leggauss" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not calls, f"{path.name} forms Gauss-Legendre nodes at lines {calls}"


CARTAN = {"exterior_derivative", "interior_product"}


def _callee(node) -> str | None:
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_function_composes_d_and_interior_product(path):
    functions = [node for node in ast.walk(_tree(path))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for fn in functions:
        outer = [node for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and _callee(node) in CARTAN]
        nested = [node.lineno for node in outer for arg in ast.walk(node)
                  if arg is not node and isinstance(arg, ast.Call) and _callee(arg) in CARTAN]
        assert not nested, f"{path.name}:{fn.name} nests d and i_X at lines {nested}"
        assert {_callee(node) for node in outer} != CARTAN, \
            f"{path.name}:{fn.name} calls both d and i_X: Cartan's formula belongs to the tests"


def _divisor(node):
    """The right operand of a `/` or a `/=`, else None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return node.right if isinstance(node, ast.BinOp) else node.value
    return None


def _series_loops(tree) -> list:
    """(function, line) of each `for` loop whose body divides by its loop variable."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.For):
                continue
            names = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
            if any(isinstance(d := _divisor(node), ast.Name) and d.id in names
                   for stmt in loop.body for node in ast.walk(stmt)):
                found.append((fn.name, loop.lineno))
    return found


def test_series_guard_sees_a_dexp_loop():
    loop = "def f(R, W, total):\n    for k in range(2, 60):\n        R = R @ W / k\n"
    assert _series_loops(ast.parse(loop)) == [("f", 2)]


def test_manin_layer_sums_one_series():
    found = {name for name, _ in _series_loops(_tree(PACKAGE / "maningroup.py"))}
    assert found == {"_expm"}, f"maningroup.py sums a series outside _expm: {sorted(found)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_module_raises_assertion_error(path):
    # a report names every failure; an AssertionError would end in a traceback
    raises = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Raise)
              and node.exc is not None and "AssertionError" in {
                  getattr(n, "id", None) for n in ast.walk(node.exc)}]
    assert not raises, f"{path.name} raises AssertionError at lines {raises}"


def _status_writers(tree) -> list:
    """Lines that write a "status" key: a dict display, an item store or dict(status=...)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys = [ast.Constant(k.arg) for k in node.keywords]
        else:
            continue
        if any(isinstance(k, ast.Constant) and k.value == "status" for k in keys):
            found.append(node.lineno)
    return sorted(found)


def test_status_guard_sees_a_hand_built_criterion():
    src = 'c = {"name": n, "status": "pass"}\nc["status"] = "fail"\nd = dict(status=1)\n'
    assert _status_writers(ast.parse(src)) == [1, 2, 3]
    assert _status_writers(_tree(PACKAGE / "_numeric.py"))  # the record's own as_dict


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "_numeric.py"],
                         ids=lambda m: m.name)
def test_only_the_criterion_record_writes_a_status(path):
    tree = _tree(path)
    # a JSON schema names the key but writes no criterion
    tree.body = [n for n in tree.body if not isinstance(n, ast.Assign)
                 or not any(getattr(t, "id", "").endswith("_SCHEMA") for t in n.targets)]
    found = _status_writers(tree)
    assert not found, f"{path.name} writes a criterion status by hand at lines {found}"


def test_cli_handlers_return_criterion_records(tmp_path, monkeypatch, capsys):
    from conftest import FUZZ_COMMANDS, fuzz_argv
    from diraclab import cli
    from diraclab._numeric import CriterionResult

    seen = []
    for name, handler in cli._HANDLERS.items():
        def recorded(args, _handler=handler):
            criteria, result = _handler(args)
            seen.extend(criteria)
            return criteria, result
        monkeypatch.setitem(cli._HANDLERS, name, recorded)
    for command in FUZZ_COMMANDS:
        cli.run(fuzz_argv(tmp_path, command))
    capsys.readouterr()
    assert {type(c) for c in seen} == {CriterionResult}
    assert {c.tolerance == "exact" for c in seen} == {True, False}


EXACT_DECISIONS = {"maningroup.py": ["check_metrized", "check_manin_triple", "_bracket_escape",
                                    "_nonzero_pairing", "_lagrangian_failure",
                                    "homogeneous_space_check"],
                   "cli.py": ["_check_borrowed_chart"]}


def _float_reads(fn) -> list:
    """Lines of a function that name `np` or read a `_numeric` view."""
    return sorted(node.lineno for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and node.id == "np"
                  or isinstance(node, ast.Attribute) and node.attr == "_numeric")


def test_float_guard_sees_a_float_comparison():
    src = "def f(t, u):\n    return np.abs(t._numeric()['ad_g'] - u).max() < 1e-12\n"
    assert _float_reads(ast.parse(src).body[0]) == [2, 2]


@pytest.mark.parametrize("module, name", [(m, f) for m, fs in EXACT_DECISIONS.items()
                                          for f in fs])
def test_manin_axioms_are_decided_without_floats(module, name):
    fn = next(node for node in ast.walk(_tree(PACKAGE / module))
              if isinstance(node, ast.FunctionDef) and node.name == name)
    found = _float_reads(fn)
    assert not found, f"{module}:{name} reads floats at lines {found}"


FLOAT_DECIDERS = {"gauge_inverse", "pullback_fiber", "nullspace_basis", "orthonormal_basis",
                  "span_residual"}


@pytest.mark.parametrize("name", ["gauge_poisson", "pullback_dirac_at_point"])
def test_pointwise_verdicts_call_no_float_decider(name):
    fn = next(node for node in ast.walk(_tree(PACKAGE / "dirac.py"))
              if isinstance(node, ast.FunctionDef) and node.name == name)
    found = sorted({_callee(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}
                   & FLOAT_DECIDERS)
    assert not found, f"dirac.py:{name} calls {found}"


def test_cli_imports_no_float_self_check():
    imported = {a.name for node in ast.walk(_tree(PACKAGE / "cli.py"))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & {"span_residual", "gauge_fiber"}


def _rank_of_appended(tree) -> list:
    """Lines that call `_rank(<vectors> + [...])`: a span membership decided by
    comparing two ranks."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) == "_rank"
            and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
                    and isinstance(arg.right, ast.List) for arg in node.args)]


def test_membership_guard_sees_a_rank_comparison():
    src = ("def f(basis, v, r):\n"
           "    if _rank(basis + [v]) != r:\n"
           "        return fields._rank(basis + [bracket(v, v)]) == r\n")
    assert _rank_of_appended(ast.parse(src)) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_span_membership_goes_through_one_echelon(path):
    found = _rank_of_appended(_tree(path))
    assert not found, f"{path.name} tests span membership by two ranks at lines {found}"


# Entry points that only the benchmark reads (perfbench/workloads.py).  The benchmark
# lives outside the package and is edited only by its own changes, so the guard takes
# these names as roots; `_stencil`, `one_form_bracket`, `bracket_num` and
# `_PointJet.dressing` are reached through them.
BENCH_ONLY = frozenset({"bracket_relations_residual", "closedness_residual",
                        "e_map_residuals", "rational_to_json"})
BENCH_WORKLOADS = PACKAGE.parent.parent / "perfbench" / "workloads.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(nodes) -> set:
    """Every name and attribute that the nodes mention."""
    return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreached(sources: dict, roots=frozenset()) -> list:
    """"module:name" of each top-level definition and public method of `sources`
    (file name -> module source) that no root reaches by name.

    The roots are `__init__`'s imported names, every name that module-level code
    outside a definition mentions (the CLI's handler table and its `main()` call),
    and `roots`.  A reached definition reaches every name it mentions, decorators,
    defaults and annotations included.  A reached class reaches its dunder methods,
    which Python calls implicitly, and, if it derives from a class outside the package,
    all its methods, which that class may call (`argparse.ArgumentParser.error`).
    Names are matched without their module, so the guard errs toward passing.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    reached, edges, required = set(roots), {}, []  # required: ("module:qualname", name)
    for module, tree in trees.items():
        for node in tree.body:
            if module == "__init__.py" and isinstance(node, ast.ImportFrom):
                reached |= {a.asname or a.name for a in node.names}
                continue
            if not isinstance(node, DEFINITIONS):
                reached |= _mentions([node])
                continue
            required.append((f"{module}:{node.name}", node.name))
            body = [node]
            if isinstance(node, ast.ClassDef):
                external = bool(_mentions(node.bases) - classes)
                methods = [m for m in node.body if isinstance(m, DEFINITIONS)
                           and not external and not m.name.endswith("__")]
                body = [*node.bases, *node.decorator_list,
                        *(m for m in node.body if m not in methods)]
                for m in methods:
                    edges.setdefault(m.name, set()).update(_mentions([m]))
                    if not m.name.startswith("_"):
                        required.append((f"{module}:{node.name}.{m.name}", m.name))
            edges.setdefault(node.name, set()).update(_mentions(body))
    todo = list(reached)
    while todo:
        for name in edges.get(todo.pop(), set()) - reached:
            reached.add(name)
            todo.append(name)
    return [where for where, name in required if name not in reached]


def test_reachability_guard_sees_an_orphan():
    sources = {"__init__.py": "from .m import Box, used\n",
               "m.py": ("import argparse\n"
                        "def used():\n    return _helper()\n"
                        "def _helper():\n    return Box().size\n"
                        "def orphan():\n    return used()\n"
                        "class Box:\n"
                        "    def __init__(self):\n        self.size = 0\n"
                        "    def unused(self):\n        return _only_from_unused()\n"
                        "def _only_from_unused():\n    return 1\n"
                        "class Parser(argparse.ArgumentParser):\n"
                        "    def error(self, message):\n        raise SystemExit(2)\n")}
    assert unreached(sources) == ["m.py:orphan", "m.py:Box.unused", "m.py:_only_from_unused",
                                  "m.py:Parser"]
    sources["m.py"] += "PARSER = Parser()\n"
    assert unreached(sources, {"orphan", "unused"}) == []


def test_every_definition_is_reached():
    found = unreached({m.name: m.read_text() for m in MODULES}, BENCH_ONLY)
    assert not found, f"reached from neither the CLI, the exports nor the benchmark: {found}"


@pytest.mark.parametrize("name", sorted(BENCH_ONLY))
def test_bench_only_names_are_read_by_the_benchmark_alone(name):
    assert re.search(rf"\.{name}\b", BENCH_WORKLOADS.read_text())
    sources = {m.name: m.read_text() for m in MODULES}
    assert any(where.endswith(f":{name}") for where in unreached(sources, BENCH_ONLY - {name}))


def unused_imports(tree) -> list:
    """(line, name) of each name a module imports and never mentions."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_guard_sees_an_unused_name():
    src = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
           "from .errors import DegreeError, ShapeError\nraise ShapeError(os.sep)\n")
    assert unused_imports(ast.parse(src)) == [(3, "np"), (4, "DegreeError")]


def test_unused_import_guard_sees_an_unused_test_import():
    src = ("import pytest\nfrom diraclab.fields import Chart, PolyScalar\n"
           "from conftest import random_point, random_poly\n\n"
           "@pytest.mark.parametrize('dim', [1, 2])\n"
           "def test_chart(dim):\n    assert Chart(dim).dim == dim\n")
    assert unused_imports(ast.parse(src)) == [(2, "PolyScalar"), (3, "random_point"),
                                               (3, "random_poly")]


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "__init__.py"]
                         + sorted(TESTS.glob("*.py")),
                         ids=lambda m: m.name if m.parent == PACKAGE else f"tests/{m.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    found = unused_imports(_tree(path))
    assert not found, f"{path.name} imports unused names: {found}"
