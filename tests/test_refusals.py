"""Every refusal of the library's own argument checks, one row each, and the
CLI's refusal of a flow on a 0-dimensional chart, which no library call makes.

A check that no test reaches can be deleted with every test still green, so
each row calls one function with the one wrong argument it refuses and pins
the error type and a fragment of the message.  The rows are grouped by module,
in source order; most are arguments on the wrong chart, which the CLI never
builds because it reads every tensor of a command on one chart.
"""

import numpy as np
import pytest

from diraclab import cli, dirac, fields, poisson, realization
from diraclab._numeric import FlowConfig, compile_tensors
from diraclab.errors import ChartMismatchError, DegreeError, ShapeError
from diraclab.fields import Chart, PolyKForm, PolyKVector, PolyMap, PolyScalar

PLANE, SPACE = Chart(2), Chart(3)
x, y = PLANE.coordinates()
u = SPACE.coordinate(0)
X2, X3 = PolyKVector(PLANE, 1, {(0,): y}), PolyKVector(SPACE, 1, {(0,): u})
A2, A3 = PolyKForm(PLANE, 1, {(1,): x}), PolyKForm(SPACE, 1, {(0,): u})
PI2 = poisson.standard_symplectic_poisson(1)  # dx ^ dy on the plane
PI3 = poisson.lie_poisson(poisson.so3_constants(), 3)
PI0 = poisson.from_components(Chart(0), {})  # the zero bivector on a point
S2, S3 = dirac.GeneralizedSection(X2, A2), dirac.GeneralizedSection(X3, A3)


def on_space(pi_components, base_dim):
    return lambda: poisson.linear_poisson_to_algebroid(
        poisson.from_components(SPACE, pi_components), base_dim)


# (call, error type, message fragment)
REFUSALS = {
    "Chart-negative-dim": (lambda: Chart(-1), ShapeError, "chart dimension must be >= 0"),
    "Chart-name-count": (lambda: Chart(2, ("x",)), ShapeError, "chart of dim 2 got 1 names"),
    "Chart-repeated-name": (lambda: Chart(2, ("x", "x")), ShapeError,
                            "coordinate names must be unique"),
    "Chart.coordinate": (lambda: PLANE.coordinate(2), ShapeError,
                         "coordinate index 2 out of range for dim 2"),
    "PolyScalar.__pow__": (lambda: x ** -1, ValueError, "negative power of a polynomial"),
    "PolyScalar.homogeneous_parts": (lambda: x.homogeneous_parts(3), ShapeError,
                                     "first coordinate 3 out of range for dim 2"),
    "PolyScalar.partial": (lambda: x.partial(2), ShapeError,
                           "partial index 2 out of range for dim 2"),
    "PolyScalar.compose-length": (lambda: x.compose([x]), ShapeError,
                                  "substitution list length != chart dim"),
    "PolyScalar.compose-dim-0": (lambda: PolyScalar.constant(Chart(0), 1).compose([]),
                                 ShapeError, "cannot infer source chart"),
    "tensor-degree-past-dim": (lambda: PolyKForm(PLANE, 3, {(0, 1, 2): x}), DegreeError,
                               "degree 3 tensor on dim 2 must be zero"),
    "tensor-index-range": (lambda: PolyKVector(PLANE, 1, {(2,): x}), ShapeError,
                           "index (2,) out of range for dim 2"),
    "tensor-component-chart": (lambda: PolyKVector(PLANE, 1, {(0,): u}), ChartMismatchError,
                               "component polynomial on wrong chart"),
    "tensor-wedge-kinds": (lambda: X2.wedge(A2), TypeError,
                           "cannot combine PolyKVector with PolyKForm"),
    "tensor-add-charts": (lambda: X2 + PolyKVector(SPACE, 1, {}), ChartMismatchError, "vs"),
    "interior_product": (lambda: fields.interior_product(X2, A3), ChartMismatchError,
                         "interior product across charts"),
    "apply_vector": (lambda: fields.apply_vector(X2, u), ChartMismatchError,
                     "apply_vector across charts"),
    "lie_derivative-type": (lambda: fields.lie_derivative(X2, 1), TypeError,
                            "cannot take Lie derivative of int"),
    "lie_derivative-chart": (lambda: fields.lie_derivative(X2, A3), ChartMismatchError,
                             "lie_derivative across charts"),
    "PolyMap-count": (lambda: PolyMap(PLANE, SPACE, [x, y]), ShapeError,
                      "component count must equal target dimension"),
    "PolyMap-chart": (lambda: PolyMap(PLANE, PLANE, [x, u]), ChartMismatchError,
                      "map components must live on the source chart"),
    "PolyMap.compose_scalar": (lambda: PolyMap(PLANE, PLANE, [y, x]).compose_scalar(u),
                               ChartMismatchError, "scalar not on the target chart"),
    "sharp_apply": (lambda: poisson.sharp_apply(PI2, A3), ChartMismatchError,
                    "form on the wrong chart"),
    "bracket": (lambda: poisson.bracket(PI2, x, u), ChartMismatchError,
                "bracket arguments must share the bivector's chart"),
    "LieAlgebroidData-rank": (lambda: poisson.LieAlgebroidData(PLANE, 0, ()), ShapeError,
                              "rank must be >= 1"),
    "LieAlgebroidData-anchors": (lambda: poisson.LieAlgebroidData(PLANE, 2, (X2,)),
                                 ShapeError, "need one anchor field per frame section"),
    "LieAlgebroidData-chart": (lambda: poisson.LieAlgebroidData(PLANE, 1, (X3,)),
                               ChartMismatchError, "anchor not on the base chart"),
    "linear_poisson_to_algebroid-no-fiber": (
        lambda: poisson.linear_poisson_to_algebroid(PI2, 2), ShapeError,
        "splitting leaves no fiber directions"),
    "linear_poisson_to_algebroid-base-base": (
        on_space({(0, 1): PolyScalar.constant(SPACE, 1)}, 2), DegreeError,
        "base-base component must vanish"),
    "linear_poisson_to_algebroid-fiber-fiber": (
        on_space({(1, 2): PolyScalar.constant(SPACE, 1)}, 1), DegreeError,
        "fiber-fiber component must be fiber-linear"),
    "TimePolyForm-empty": (lambda: poisson.TimePolyForm({}), ShapeError,
                           "need at least one coefficient form"),
    "TimePolyForm-negative-power": (lambda: poisson.TimePolyForm({-1: A2}), ShapeError,
                                    "time powers must be >= 0"),
    "moser_verify": (lambda: poisson.moser_verify(PI2, poisson.TimePolyForm({0: A3}), [0.1],
                                                  [(0.0, 0.0)], FlowConfig()),
                     ChartMismatchError, "a_t on the wrong chart"),
    "GeneralizedSection": (lambda: dirac.GeneralizedSection(X2, A3), ChartMismatchError,
                           "vector and form parts on different charts"),
    "pairing": (lambda: dirac.pairing(S2, S3), ChartMismatchError, "pairing across charts"),
    "courant_bracket": (lambda: dirac.courant_bracket(S2, S3), ChartMismatchError,
                        "bracket across charts"),
    "LagrangianFrame-count": (lambda: dirac.LagrangianFrame(PLANE, [S2]), ShapeError,
                              "need dim-many spanning sections"),
    "LagrangianFrame-chart": (lambda: dirac.LagrangianFrame(PLANE, [S2, S3]),
                              ChartMismatchError, "section on the wrong chart"),
    "check_poisson_map-charts": (
        lambda: dirac.check_poisson_map(PolyMap(SPACE, SPACE, SPACE.coordinates()), PI2, PI3),
        ChartMismatchError, "map charts do not match the bivectors"),
    "pullback_dirac_at_point-charts": (
        lambda: dirac.pullback_dirac_at_point(PolyMap(PLANE, PLANE, [x, y]),
                                              dirac.graph_of_poisson(PI0), (0.1, 0.2)),
        ShapeError, "point/chart dimension mismatch"),
    "check_poisson_map-callable": (lambda: dirac.check_poisson_map(lambda p: p, PI3, PI3),
                                   ShapeError, "callable maps need sample points"),
    "invariant_vector_fields": (
        lambda: realization.invariant_vector_fields(realization.default_spray(PI2), A3,
                                                    [0.0] * 4, beta=A2),
        ChartMismatchError, "1-form must live on the base chart"),
    # the CLI's reader of the flows' charts: realize and moser read --poisson through it
    "cli-flow-chart-of-dim-0": (lambda: cli._of_positive_dim(PI0.pi, "--poisson"),
                                cli.InputError,
                                "--poisson must live on a chart of dimension at least 1"),
    "PackedPolys-points": (lambda: compile_tensors([X2])(np.zeros(3)), ShapeError,
                           "points of shape (3,) on a chart of dim 2"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as e:
        call()
    assert e.type is error and fragment in str(e.value)
