"""The one residual reducer and the one pass rule, and every verifier fed a NaN.

A NaN residual must never be dropped by a running max: each verifier reports
a non-finite worst residual and does not pass, or its flow stops with
DomainEscapeError, which the CLI reports as a failed check.  The exact
verifiers (`homogeneous_space_check`, the Manin axioms) read rationals and
keep no float residual to feed.
"""

import math

import numpy as np
import pytest

from diraclab import maningroup as manin_mod
from diraclab import realization as real_mod
from diraclab._numeric import CriterionResult, FlowConfig, worst
from diraclab.dirac import check_poisson_map
from diraclab.errors import DomainEscapeError, ShapeError
from diraclab.fields import Chart, PolyKForm, PolyKVector
from diraclab.poisson import (TimePolyForm, euler_linearize, from_components, moser_verify,
                              standard_symplectic_poisson)

NAN = float("nan")


def test_worst_reads_non_finite_as_inf_with_its_point():
    assert worst([1e-16, NAN, 3.0], ["a", "b", "c"]) == (math.inf, "b")
    assert worst([2.0, -math.inf], ["a", "b"]) == (math.inf, "b")


def test_worst_first_index_wins_ties():
    assert worst([0.0, 2.0, 2.0], ["a", "b", "c"]) == (2.0, "b")
    assert worst(np.zeros((2, 3))) == (0.0, None)


def test_worst_of_an_empty_batch_raises():
    with pytest.raises(ShapeError):
        worst([])


@pytest.mark.parametrize("residual, passed, shown", [
    (1e-7, True, 1e-7), (1e-5, False, 1e-5), (NAN, False, None), (math.inf, False, None),
    (None, False, None),
])
def test_criterion_pass_rule(residual, passed, shown):
    c = CriterionResult("c", residual, (0.5, 0.25), 1e-6)
    assert c.passed is passed
    d = c.as_dict()
    assert d["status"] == ("pass" if passed else "fail") and d["max_residual"] == shown
    assert d["worst_point"] == [0.5, 0.25]
    assert "witness" not in d


@pytest.mark.parametrize("residual, passed, shown", [
    (0, True, "exact-zero"), (3, False, None), (None, False, None), (NAN, False, None),
])
def test_exact_criterion_pass_rule(residual, passed, shown):
    # an exact criterion passes iff its residual (a count of nonzero terms) is 0
    c = CriterionResult("c", residual, None, "exact", {"1+2+3": []})
    assert c.passed is passed
    assert c.as_dict() == {"name": "c", "status": "pass" if passed else "fail",
                           "max_residual": shown, "worst_point": None, "tolerance": "exact",
                           "witness": {"1+2+3": []}}


def _xdxdy():
    chart = Chart(2, ("x", "y"))
    return from_components(chart, {(0, 1): chart.coordinate(0)})


def _raw(value, tol=1e-6):
    """A bare residual under the one pass rule."""
    return value, CriterionResult("raw", value, None, tol).passed


def _poisson_map(pt):
    pi = _xdxdy()
    rep = check_poisson_map(lambda x: x, pi, pi, samples=[[0.3, 0.2], pt[:2]],
                            jacobian=lambda x: np.eye(2))
    return _raw(rep.max_residual)


def _e_map(pt):
    triple, chart = manin_mod.iwasawa_su2()
    res = manin_mod.e_map_residuals(triple, chart, [[0.1, 0.2, 0.3], pt],
                                    np.ones(6), np.arange(6.0))
    return _raw(min(res.values()))  # each relation must report the NaN point


def _multiplicativity(pt):
    triple, chart = manin_mod.iwasawa_su2()
    q = np.array([0.2, -0.1, 0.3])
    rep = manin_mod.verify_multiplicativity(triple, chart, [(q, q), (np.array(pt), q)])
    return _raw(rep["max_residual"])


def _jacobi(pt):
    triple, chart = manin_mod.iwasawa_su2()
    return _raw(manin_mod.jacobiator_fd_residual(triple, chart, [[0.1, 0.2, 0.3], pt]))


def _invariant_field_report(pt):
    rep = real_mod.InvariantFieldReport(None, None, {"omega_LL": 1e-16, "omega_LR": 1e-12 * pt[0]})
    return _raw(rep.max_residual)


def _moser(pt):
    pi = standard_symplectic_poisson(1)
    x = pi.chart.coordinate(0)
    a_t = TimePolyForm({0: PolyKForm(pi.chart, 1, {(1,): -x})})
    rep = moser_verify(pi, a_t, [0.5], [[0.1, 0.2], pt[:2]], FlowConfig(step=1e-2))
    return _raw(rep.max_residual)


def _euler(pt):
    chart = Chart(2)
    x, y = chart.coordinates()
    X = PolyKVector(chart, 1, {(0,): x + x * x, (1,): y})
    return _raw(euler_linearize(X, [[0.1, 0.2], pt[:2]], FlowConfig(step=1e-2)).max_residual)


def _dual_pair(pt):
    spray = real_mod.default_spray(_xdxdy())
    rep = real_mod.verify_dual_pair(spray, [[1.0, 0.0, 0.1, 0.1], [*pt, 0.1]],
                                    real_mod.RealizationConfig(step=1e-2))
    return worst([c.max_residual for c in rep.criteria])[0], rep.passed


def _closedness(pt):
    spray = real_mod.default_spray(_xdxdy())
    return _raw(real_mod.closedness_residual(spray, [*pt, 0.1],
                                             real_mod.RealizationConfig(step=1e-2)))


VERIFIERS = {
    "check_poisson_map": _poisson_map,
    "e_map": _e_map,
    "multiplicativity": _multiplicativity,
    "jacobi_fd": _jacobi,
    "invariant_field_report": _invariant_field_report,
    "moser": _moser,
    "euler": _euler,
    "dual_pair": _dual_pair,
    "closedness": _closedness,
}


@pytest.mark.parametrize("name", VERIFIERS)
def test_verifier_passes_finite_input(name):
    value, passed = VERIFIERS[name]([0.2, -0.1, 0.1])
    assert math.isfinite(value) and passed


@pytest.mark.parametrize("name", VERIFIERS)
def test_nan_input_is_reported_and_fails(name):
    try:
        value, passed = VERIFIERS[name]([NAN, 0.2, 0.1])
    except DomainEscapeError:  # a flow stops on a non-finite state: a failed check
        return
    assert not math.isfinite(value) and not passed
