"""Wrong inputs that each residual must reject.

A residual that always reads 0 passes every test on true inputs, so each
residual here is also fed an input that violates its identity, and must
exceed the tolerance it is certified against.  The spray wrappers change
the compiled field of the so(3)* spray, leaving its Poisson structure alone:

- a wrong field with its exact Jacobian (a_0 += 0.01 p_0^2) breaks the
  invariant-field and bracket relations but not closedness, which every
  flow Jacobian satisfies;
- a Jacobian scaled by 1 + 1e-3 is no longer the derivative of the flow,
  which closedness sees.

The `dirac gauge` report is fed the sign-flipped gauge (I - Pi W)^{-1} Pi,
which does not solve (I + Pi W) P = Pi.  `dirac check-integrability` is
fed defects far below any float tolerance, a 1e-10 Jacobiator and a 1e-12
d omega, which it must fail, and tangent frames whose sections differ in
scale by up to 1e12, which it must pass.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from diraclab import realization as real_mod
from diraclab._numeric import FlowConfig
from diraclab.fields import (Chart, PolyKForm, PolyKVector, PolyScalar, coordinate_form,
                             coordinate_vector)
from diraclab.poisson import euler_linearize, lie_poisson, so3_constants

from conftest import dense_exact, frame_file, stage_field

POINT = np.array([0.3, -0.2, 0.5, 0.4, 0.1, -0.3])
CONFIG = real_mod.RealizationConfig(step=1e-2)
TOL = 1e-6  # the tier-1 bound of every realization residual below


class WrappedSpray:
    """A spray whose compiled field is edited by edit(state, a, Da) -> (a, Da)."""

    def __init__(self, spray, edit):
        self.pi, self.base_dim = spray.pi, spray.base_dim
        at_state = spray.compiled().at_state
        self.bind = stage_field(lambda state, tau: edit(state, *at_state(state)))

    def compiled(self):
        return self


def wrong_field(state, a, Da):
    n = Da.shape[-1] // 2
    p0 = state[..., n]
    a, Da = a.copy(), Da.copy()
    a[..., 0] += 0.01 * p0**2
    Da[..., 0, n] += 0.02 * p0
    return a, Da


def wrong_jacobian(state, a, Da):
    return a, Da * (1.0 + 1e-3)


SPRAYS = {"true": None, "wrong-field": wrong_field, "wrong-jacobian": wrong_jacobian}


def spray(name):
    s = real_mod.default_spray(lie_poisson(so3_constants(), 3))
    return s if SPRAYS[name] is None else WrappedSpray(s, SPRAYS[name])


def forms(s):
    chart = s.pi.chart
    return coordinate_form(chart, 0), coordinate_form(chart, 2)


@pytest.mark.parametrize("name, fails", [("true", False), ("wrong-field", True)])
def test_mixed_bracket_relation(name, fails):
    s = spray(name)
    res = real_mod.bracket_relations_residual(s, *forms(s), POINT, CONFIG)
    assert (res["LR"] > TOL) is fails, res


@pytest.mark.parametrize("name, fails", [("true", False), ("wrong-field", True)])
def test_omega_LL_relation(name, fails):
    s = spray(name)
    alpha, beta = forms(s)
    res = real_mod.invariant_vector_fields(s, alpha, POINT, CONFIG, beta=beta).residuals
    assert (res["omega_LL"] > TOL) is fails, res


@pytest.mark.parametrize("name, fails", [("true", False), ("wrong-field", False),
                                         ("wrong-jacobian", True)])
def test_closedness(name, fails):
    assert (real_mod.closedness_residual(spray(name), POINT, CONFIG) > TOL) is fails


@pytest.mark.parametrize("step, fails", [(1e-2, False), (1.0, True)])
def test_euler_linearize_coarse_step(step, fails):
    chart = Chart(2)
    x, y = chart.coordinates()
    X = PolyKVector(chart, 1, {(0,): x + x * y, (1,): y + x * x})
    pts = np.random.default_rng(0).uniform(-0.3, 0.3, size=(10, 2))
    r = euler_linearize(X, pts, FlowConfig(step=step)).max_residual
    assert (r > 1e-5) is fails, r


def _run_cli(capsys, argv):
    from diraclab.cli import run

    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name, fails", [("true", False), ("sign-flipped", True)])
def test_dirac_gauge_solves_the_gauge_equation(monkeypatch, capsys, tmp_path, name, fails):
    # the reported P must solve (I + Pi W) P = Pi, with Pi and W evaluated
    # here; (I - Pi W)^{-1} Pi is a skew matrix of the right rank that does not
    from diraclab import dirac, jsonio

    pi = lie_poisson(so3_constants(), 3)
    m = pi.chart
    one = PolyScalar.constant(m, 1)
    omega = PolyKForm(m, 2, {(0, 1): one * Fraction(1, 3), (1, 2): one * Fraction(-1, 2)})
    if name == "sign-flipped":
        gauge_poisson = dirac.gauge_poisson
        monkeypatch.setattr(dirac, "gauge_poisson", lambda pi, g, pt: gauge_poisson(
            pi, dirac.GaugeTransform(-g.omega), pt))
    files = {}
    for key, tensor in (("pi", pi.pi), ("omega", omega)):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(jsonio.tensor_to_json(tensor)))
    point = [0.3, -0.2, 0.5]
    code, rep = _run_cli(capsys, ["dirac", "gauge", "--poisson", str(files["pi"]),
                                  "--omega", str(files["omega"]), "--point", "0.3,-0.2,0.5"])
    assert code == 0 and rep["criteria"][0]["status"] == "pass"
    P = np.array(rep["result"]["gauged_bivector_matrix"])
    Pi, W = dense_exact(pi.pi, point), dense_exact(omega, point)
    r = np.abs((np.eye(3) + Pi @ W) @ P - Pi).max() / np.abs(Pi).max()
    assert bool(r > 1e-9) is fails, r


def test_dirac_integrability_of_a_nearly_poisson_graph(capsys, tmp_path):
    # so(3)* with pi^{12} = x3 + 1e-10 x1^2: its Jacobiator is 2e-10 x1 x2, which
    # five sampled points once read as 1.3e-10, below the old 1e-9 tolerance
    from diraclab import jsonio

    chart = Chart(3)
    x1, x2, x3 = chart.coordinates()
    pi = PolyKVector(chart, 2, {(0, 1): x3 + x1 * x1 * Fraction(1, 10**10), (1, 2): x1,
                                (0, 2): -x2})
    p = tmp_path / "pi.json"
    p.write_text(json.dumps(jsonio.tensor_to_json(pi)))
    assert _run_cli(capsys, ["poisson", "check", "--file", str(p)])[0] == 1
    code, rep = _run_cli(capsys, ["dirac", "check-integrability", "--poisson", str(p)])
    assert (code, rep["criteria"][0]["status"]) == (1, "fail"), rep


def test_dirac_integrability_of_a_non_closed_form_graph(capsys, tmp_path):
    # Gr(omega) is Dirac iff d omega = 0; d(1e-12 x1 dx2 ^ dx3) = 1e-12 dx1 ^ dx2 ^ dx3
    from diraclab.dirac import graph_of_form

    chart = Chart(3)
    omega = PolyKForm(chart, 2, {(1, 2): chart.coordinate(0) * Fraction(1, 10**12)})
    frame = frame_file(tmp_path / "frame.json",
                       [(s.X, s.alpha) for s in graph_of_form(omega).sections])
    code, rep = _run_cli(capsys, ["dirac", "check-integrability", "--frame", frame])
    assert (code, rep["criteria"][0]["status"]) == (1, "fail"), rep


@pytest.mark.parametrize("scales", [(1, Fraction(1, 10**11)), (10**6, Fraction(1, 10**6))],
                         ids=str)
def test_dirac_integrability_of_an_unevenly_scaled_tangent_frame(capsys, tmp_path, scales):
    # (a d/dx1, b d/dx2) spans TM for any nonzero a and b: Lagrangian and Dirac
    chart = Chart(2)
    zero = PolyKForm(chart, 1, {})
    frame = frame_file(tmp_path / "frame.json",
                       [(coordinate_vector(chart, i) * c, zero) for i, c in enumerate(scales)])
    code, rep = _run_cli(capsys, ["dirac", "check-integrability", "--frame", frame])
    assert (code, rep["criteria"][0]["status"]) == (0, "pass"), rep
