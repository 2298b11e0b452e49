"""The package's layering, checked on its source with `ast`.

`fields.py` is the only module that reads the polynomial format: every other
module goes through `PolyScalar` operations (`embed`, `restrict`,
`homogeneous_parts`, `float_terms`, `evaluate_exact`).  It computes no float
and imports neither numpy nor `_numeric`, so its float evaluators
(`evaluate_at`, `PolyMap.jacobian_at`, `pushforward_vector_at_point`) stay
gone.  The numeric layer has one tensor compiler (`compile_tensors`), one
float evaluator (`PackedPolys`, the only caller of `float_terms`) and one flow
function (`flow_points`); the adapters, the interpreted float evaluators and
the second flow function they replaced stay gone.  There is one spray:
`SprayField` takes its bivector alone, with no p-quadratic term.  The exact product loop differentiates in place, so the
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
`_numeric.gauge_inverse`, which bounds the entries of the inverse instead;
the Moser flow (`_moser_field`, `moser_verify`) calls no `numpy.linalg`
function at all, so it has no raw-inverse path around that bound.  `flow_points` has one field protocol, field(state, row) -> write, so it
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
Every kind-and-degree check of a tensor argument is one call of
`fields.expect`: no other `if` compares a `.degree` and raises.
`_numeric.CriterionResult` is the one criterion record: no other module
writes a "status" key, and every CLI handler returns its criteria as records.
The Manin axioms are decided over Q with no tolerance: the metrized-algebra
and triple checks, the homogeneous-space criteria (Ad_K-invariance included)
and the CLI's borrowed-chart check name neither `np` nor `float` and read no
chart's float record `floats`, and the float paths they replaced (`GROUP_TOL`,
`GroupChart.validate`, `HomogeneousSpaceData`) stay gone, as does the unused
`realization_sample`.  Nor do the class bodies of the exact types
`MetrizedLieAlgebra` and `ManinTriple`: their float views (`bracket_tensor`,
`bracket_num`, `ad_num`, `metric_num`) stay gone, and the one float record is
the chart's.
The pointwise gauge and pullback (`dirac.gauge_poisson`,
`dirac.pullback_dirac_at_point`) decide transversality over Q with one
rational null space: they call none of the float helpers that once decided it
(`gauge_inverse`, `pullback_fiber`, the SVD rank helpers), the CLI imports no
float self-check (`span_residual`, `gauge_fiber`), and the float frame
evaluator `LagrangianFrame.value_at` and the single-matrix slicing `_selected`
stay gone.  Every top-level definition and public method is reached from the
CLI and other module-level code, from a name that the benchmark
(`perfbench/workloads.py`) or the acceptance criteria (`tests/test_acceptance.py`)
use, or from one of the `TEST_ORACLES`.  A name reaches a top-level
definition, an attribute `x.name` a method, or a top-level definition through a
package-module alias such as `real_mod`, so a method cannot keep a same-named
function alive.  No module, nor any file under `tests/`, imports a name it
never uses.  The package root `__init__` is its docstring alone: each name has
one import path, its module, and importing `fields`, `errors` or `jsonio` loads
neither numpy nor `_numeric`.
"""

import ast
import inspect
import os
import subprocess
import sys
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
            "realization_sample", "validate", "value_at", "_selected", "_derivative",
            "evaluate_at", "jacobian_at", "pushforward_vector_at_point",
            "bracket_tensor", "bracket_num", "ad_num", "metric_num", "pullback_form",
            "hamiltonian_vf"}


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


def _imported_modules(tree) -> set:
    """The last dotted part of every module a tree imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {node.module.split(".")[-1]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
    return found


def test_fields_imports_no_float_layer():
    found = _imported_modules(_tree(PACKAGE / "fields.py")) & {"numpy", "_numeric"}
    assert not found, f"fields.py imports {sorted(found)}"


def test_float_layer_guard_sees_an_import():
    src = "def f():\n    from ._numeric import PackedPolys\n    import numpy.linalg\n"
    assert _imported_modules(ast.parse(src)) == {"_numeric", "numpy"}


def test_exact_modules_import_without_numpy():
    code = ("import sys, diraclab.fields, diraclab.errors, diraclab.jsonio\n"
            "print(sorted({'numpy', 'diraclab._numeric'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def _after_docstring(tree) -> list:
    """(line, statement type) of each statement of a module but its docstring."""
    body = tree.body[1:] if ast.get_docstring(tree, clean=False) is not None else tree.body
    return [(node.lineno, type(node).__name__) for node in body]


def test_root_guard_sees_an_export():
    src = '"""The package."""\n\nfrom .fields import Chart\n__version__ = "0.1.0"\n'
    assert _after_docstring(ast.parse(src)) == [(3, "ImportFrom"), (4, "Assign")]


def test_the_package_root_is_its_docstring_alone():
    tree = _tree(PACKAGE / "__init__.py")
    assert ast.get_docstring(tree) and _after_docstring(tree) == []


def test_spray_takes_its_bivector_alone():
    from diraclab.realization import SprayField

    assert list(inspect.signature(SprayField).parameters) == ["pi"]


# (module, callable, parameter or field) options that only tests set, removed
REMOVED_OPTIONS = [("poisson", "lie_poisson", "chart"),
                   ("realization", "RealizationConfig", "escape_norm"),
                   ("dirac", "MapCheckReport", "worst_point"),
                   ("poisson", "EulerReport", "jacobians")]


@pytest.mark.parametrize("module, name, option", REMOVED_OPTIONS,
                         ids=[f"{n}.{o}" for _, n, o in REMOVED_OPTIONS])
def test_removed_options_stay_gone(module, name, option):
    import importlib

    fn = getattr(importlib.import_module(f"diraclab.{module}"), name)
    assert option not in inspect.signature(fn).parameters


def test_invariant_fields_take_beta_by_keyword_alone():
    from diraclab.realization import invariant_vector_fields

    beta = inspect.signature(invariant_vector_fields).parameters["beta"]
    assert (beta.kind, beta.default) == (beta.KEYWORD_ONLY, beta.empty)


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


def _linalg_calls(tree, name: str) -> list:
    """Lines of the function `name` in a module tree that call a `numpy.linalg`
    function, as `np.linalg.f`, `linalg.f` or a name imported from numpy.linalg."""
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                for a in node.names}
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return sorted(node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
                  and ("linalg" in (getattr(getattr(node.func, "value", None), "attr", None),
                                    getattr(getattr(node.func, "value", None), "id", None))
                       or getattr(node.func, "id", None) in imported))


def test_linalg_guard_sees_an_inverse():
    src = ("from numpy.linalg import solve as sv\n"
           "def _moser_field(A, b):\n    Ai = np.linalg.inv(A)\n"
           "    return sv(A, b) @ linalg.det(Ai) @ gauge_inverse(A, b, '')\n")
    assert _linalg_calls(ast.parse(src), "_moser_field") == [3, 4, 4]


@pytest.mark.parametrize("name", ["moser_verify", "_moser_field"])
def test_moser_inverts_through_gauge_inverse_alone(name):
    found = _linalg_calls(_tree(PACKAGE / "poisson.py"), name)
    assert not found, f"poisson.py:{name} calls numpy.linalg at lines {found}"


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


def _degree_checks(tree) -> list:
    """Lines of each `if` that compares a `.degree` and raises in its body, outside
    the one kind-and-degree check `expect`."""
    inside = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              and fn.name == "expect" for n in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.If) and id(node) not in inside
                  and any(isinstance(c, ast.Compare) and any(
                      isinstance(a, ast.Attribute) and a.attr == "degree" for a in ast.walk(c))
                      for c in ast.walk(node.test))
                  and any(isinstance(r, ast.Raise) for stmt in node.body for r in ast.walk(stmt)))


def test_tensor_check_guard_sees_a_hand_written_check():
    src = ("def f(X, a):\n    if X.degree != 1:\n        raise DegreeError('f')\n"
           "    if not isinstance(a, PolyKForm) or a.degree != 1:\n        raise ShapeError('a')\n"
           "    if X.degree == 2:\n        return X\n"
           "def expect(T, cls, degree, who):\n    if T.degree != degree:\n"
           "        raise DegreeError(who)\n")
    assert _degree_checks(ast.parse(src)) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_one_tensor_check(path):
    # every kind-and-degree check of a tensor argument is a call of fields.expect
    found = _degree_checks(_tree(path))
    assert not found, f"{path.name} checks a tensor degree by hand at lines {found}"


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
    for name, row in cli.COMMANDS.items():
        def recorded(args, _handler=row.handler):
            criteria, result = _handler(args)
            seen.extend(criteria)
            return criteria, result
        monkeypatch.setitem(cli.COMMANDS, name, row._replace(handler=recorded))
    for command in FUZZ_COMMANDS:
        cli.run(fuzz_argv(tmp_path, command))
    capsys.readouterr()
    assert {type(c) for c in seen} == {CriterionResult}
    assert {c.tolerance == "exact" for c in seen} == {True, False}


EXACT_DECISIONS = {"maningroup.py": ["check_metrized", "check_manin_triple", "_bracket_escape",
                                    "_nonzero_pairing", "_lagrangian_failure",
                                    "homogeneous_space_check",
                                    "MetrizedLieAlgebra", "ManinTriple"],
                   "cli.py": ["_check_borrowed_chart"]}


def _float_reads(fn) -> list:
    """Lines of a function or class that name `np` or `float` or read a chart's
    float record `floats`."""
    return sorted(node.lineno for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and node.id in ("np", "float")
                  or isinstance(node, ast.Attribute) and node.attr == "floats")


def test_float_guard_sees_a_float_comparison():
    src = ("class Triple:\n    def f(t, u):\n"
           "        return np.abs(t.chart.floats['ad_g'] - u).max() < 1e-12\n"
           "    def metric(t):\n        return [[float(v) for v in row] for row in t.B]\n")
    assert _float_reads(ast.parse(src).body[0]) == [3, 3, 5]


# the exact decisions, and the exact types whose class bodies hold no float
@pytest.mark.parametrize("module, name", [(m, f) for m, fs in EXACT_DECISIONS.items()
                                          for f in fs])
def test_manin_axioms_are_decided_without_floats(module, name):
    fn = next(node for node in ast.walk(_tree(PACKAGE / module))
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the files whose every name is a root: the benchmark and the acceptance criteria,
# which live outside the package, so a name they use stays defined
BENCH_WORKLOADS = PACKAGE.parent.parent / "perfbench" / "workloads.py"
ACCEPTANCE = TESTS / "test_acceptance.py"
# The references the tests compare against, which no other root reaches: the
# contraction of Cartan's formula and the derivation checks, Gr(omega) as a frame,
# and the wedge product of forms and multivectors.
TEST_ORACLES = frozenset({"interior_product", "graph_of_form", "wedge"})


def _aliases(tree) -> set:
    """The names that `from . import module [as name]` binds: package-module aliases."""
    return {a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for a in node.names}


def _mentions(nodes, aliases=frozenset()) -> set:
    """The definitions that the nodes mention: a name `f` mentions the top-level `f`,
    an attribute `x.f` the methods `f`, and the top-level `f` only when `x` is one of
    the package-module `aliases`."""
    found = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found.add(("def", n.id))
            elif isinstance(n, ast.Attribute):
                found.add(("method", n.attr))
                if isinstance(n.value, ast.Name) and n.value.id in aliases:
                    found.add(("def", n.attr))
    return found


def _used_names(path: Path) -> set:
    """Every name that a file mentions, as `_mentions` reads it."""
    return {name for _, name in _mentions([_tree(path)])}


def unreached(sources: dict, roots=frozenset()) -> list:
    """"module:name" of each top-level definition and public method of `sources`
    (file name -> module source) that no root reaches.

    The roots are every definition that module-level code outside a definition
    mentions (the CLI's handler table and its `main()` call) and the names in
    `roots`; an import mentions nothing.
    A reached definition reaches every definition it
    mentions, decorators, defaults and annotations included.  A name reaches a
    top-level definition; an attribute `x.name` reaches methods, and a module's
    top-level definition only through a package-module alias (`real_mod.flow`), so
    a method does not keep a top-level function of the same name alive.  A reached
    class reaches its dunder methods, which Python calls implicitly, and, if it
    derives from a class outside the package, all its methods, which that class may
    call (`argparse.ArgumentParser.error`).
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {("def", node.name) for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    reached = {(kind, name) for name in roots for kind in ("def", "method")}
    edges, required = {}, []  # required: ("module:qualname", (kind, name))
    for module, tree in trees.items():
        aliases = _aliases(tree)
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                reached |= _mentions([node], aliases)
                continue
            required.append((f"{module}:{node.name}", ("def", node.name)))
            body = [node]
            if isinstance(node, ast.ClassDef):
                external = bool(_mentions(node.bases) - classes)
                methods = [m for m in node.body if isinstance(m, DEFINITIONS)
                           and not external and not m.name.endswith("__")]
                body = [*node.bases, *node.decorator_list,
                        *(m for m in node.body if m not in methods)]
                for m in methods:
                    edges.setdefault(("method", m.name), set()).update(_mentions([m], aliases))
                    if not m.name.startswith("_"):
                        required.append((f"{module}:{node.name}.{m.name}", ("method", m.name)))
            edges.setdefault(("def", node.name), set()).update(_mentions(body, aliases))
    todo = list(reached)
    while todo:
        for key in edges.get(todo.pop(), set()) - reached:
            reached.add(key)
            todo.append(key)
    return [where for where, key in required if key not in reached]


def test_reachability_guard_sees_an_orphan():
    sources = {"m.py": ("import argparse\n"
                        "def used():\n    return _helper()\n"
                        "def _helper():\n    return Box().size\n"
                        "def orphan():\n    return used()\n"
                        "class Box:\n"
                        "    def __init__(self):\n        self.size = 0\n"
                        "    def unused(self):\n        return _only_from_unused()\n"
                        "def _only_from_unused():\n    return 1\n"
                        "class Parser(argparse.ArgumentParser):\n"
                        "    def error(self, message):\n        raise SystemExit(2)\n")}
    assert unreached(sources, {"used", "Box"}) == ["m.py:orphan", "m.py:Box.unused",
                                                   "m.py:_only_from_unused", "m.py:Parser"]
    sources["m.py"] += "PARSER = Parser()\n"
    assert unreached(sources, {"used", "Box", "orphan", "unused"}) == []
    # a method call reaches no top-level function of the same name; an alias does
    sources["m.py"] += ("def flow():\n    return 0\n"
                        "class Config:\n    def flow(self):\n        return 1\n"
                        "def via_alias():\n    return 2\n"
                        "def run(cfg: Config):\n    return cfg.flow()\n")
    sources["cli.py"] = "from . import m as m_mod\nm_mod.run(m_mod.via_alias())\n"
    assert unreached(sources, {"used", "Box", "orphan", "unused"}) == ["m.py:flow"]


def test_an_export_keeps_nothing_alive(tmp_path):
    # exported, tested, but used by neither the benchmark nor the acceptance criteria
    sources = {"__init__.py": "from .m import benched, accepted, tested\n",
               "m.py": ("def benched():\n    return 1\n"
                        "def accepted():\n    return 2\n"
                        "def tested():\n    return 3\n")}
    files = {"workloads.py": "from diraclab import m as mod\nmod.benched()\n",
             "test_acceptance.py": "from diraclab.m import accepted\nassert accepted()\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    roots = set().union(*(_used_names(tmp_path / name) for name in files))
    assert unreached(sources, roots) == ["m.py:tested"]
    assert unreached(sources) == ["m.py:benched", "m.py:accepted", "m.py:tested"]


LIBRARY_ROOTS = _used_names(BENCH_WORKLOADS) | _used_names(ACCEPTANCE)


def test_every_definition_is_reached():
    found = unreached({m.name: m.read_text() for m in MODULES}, LIBRARY_ROOTS | TEST_ORACLES)
    assert not found, ("reached from neither the CLI, the benchmark, the acceptance "
                       f"criteria nor a test oracle: {found}")


def test_the_oracles_are_what_only_the_tests_reach():
    found = unreached({m.name: m.read_text() for m in MODULES}, LIBRARY_ROOTS)
    assert {where.split(":")[1].split(".")[-1] for where in found} == TEST_ORACLES


@pytest.mark.parametrize("name", sorted(TEST_ORACLES))
def test_each_oracle_is_used_by_a_test(name):
    assert any(name in _used_names(path) for path in TESTS.glob("test_*.py")
               if path.name not in ("test_boundary.py", ACCEPTANCE.name))


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


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda m: m.name if m.parent == PACKAGE else f"tests/{m.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    found = unused_imports(_tree(path))
    assert not found, f"{path.name} imports unused names: {found}"
