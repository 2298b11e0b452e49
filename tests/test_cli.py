import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import diraclab
from diraclab import cli, jsonio
from diraclab.cli import REPORT_SCHEMA, run
from diraclab.errors import ShapeError
from diraclab.fields import Chart, PolyKForm, PolyKVector, PolyScalar
from diraclab.dirac import graph_of_poisson, integrability_tensor
from diraclab.poisson import (PoissonBivector, from_components, jacobiator, lie_poisson,
                              so3_constants, standard_symplectic_poisson)
from diraclab.maningroup import builtin_triples, drinfeld_bivector_chart, iwasawa_su2

from conftest import (FUZZ_COMMANDS, chart_bivector_oracle, frame_file, fuzz_argv,
                      fuzz_inputs, random_poly, random_vector)


@pytest.fixture
def workdir(tmp_path):
    chart2 = Chart(2, ("x", "y"))
    x = chart2.coordinate(0)
    files = {}

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        files[name] = str(p)

    dump("constant.json", jsonio.tensor_to_json(standard_symplectic_poisson(1).pi))
    chart3 = Chart(3, ("x", "y", "z"))
    x3, y3, z3 = chart3.coordinates()
    nonpoisson = PolyKVector(chart3, 2, {(0, 1): z3, (1, 2): x3, (2, 0): x3})
    dump("nonpoisson3d.json", jsonio.tensor_to_json(nonpoisson))
    dump("xdxdy.json", jsonio.tensor_to_json(from_components(chart2, {(0, 1): x}).pi))
    dump("f.json", jsonio.poly_to_json(standard_symplectic_poisson(1).chart.coordinate(0)))
    dump("g.json", jsonio.poly_to_json(standard_symplectic_poisson(1).chart.coordinate(1)))
    dump(
        "a_form.json",
        {"powers": {"0": jsonio.tensor_to_json(PolyKForm(chart2, 1, {(1,): -x}))}},
    )
    euler_plus = PolyKVector(
        chart2, 1, {(0,): chart2.coordinate(0) + x * x, (1,): chart2.coordinate(1)}
    )
    dump("euler_field.json", jsonio.tensor_to_json(euler_plus))
    dump("broken.json", {"chart": 2, "degree": 2})  # fine JSON, valid tensor (empty)
    (tmp_path / "bad.json").write_text("{not json")
    files["bad.json"] = str(tmp_path / "bad.json")
    files["dir"] = str(tmp_path)
    return files


def strict_loads(text):
    """json.loads that rejects NaN and Infinity, which strict JSON does not have."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def run_and_parse(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    report = strict_loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


class TestPoissonCommands:
    def test_check_pass(self, workdir, capsys):
        code, rep = run_and_parse(capsys, ["poisson", "check", "--file", workdir["constant.json"]])
        assert code == 0
        assert rep["criteria"][0]["max_residual"] == "exact-zero"

    def test_check_fail_with_witness(self, workdir, capsys):
        code, rep = run_and_parse(capsys, ["poisson", "check", "--file", workdir["nonpoisson3d.json"]])
        assert code == 1
        assert "1+2+3" in rep["result"]["jacobiator_components"]
        # a failed exact check has no finite residual: null, not Infinity
        assert rep["criteria"][0]["status"] == "fail"
        assert rep["criteria"][0]["max_residual"] is None

    def test_bracket(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys,
            ["poisson", "bracket", "--file", workdir["constant.json"],
             "--f", workdir["f.json"], "--g", workdir["g.json"]],
        )
        assert code == 0
        assert rep["result"]["bracket"] == [{"exp": [0, 0], "num": 1, "den": 1}]

    def test_leaf(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys, ["poisson", "leaf", "--file", workdir["xdxdy.json"], "--point", "0,0"]
        )
        assert code == 0 and rep["result"]["rank"] == 0

    def test_leaf_rank_is_exact(self, tmp_path, capsys):
        # d1^d2 + 1e-11 d3^d4 is symplectic; an SVD threshold read rank 2
        chart = Chart(4)
        pi = from_components(chart, {(0, 1): PolyScalar.constant(chart, 1),
                                     (2, 3): PolyScalar.constant(chart, Fraction(1, 10**11))})
        p = tmp_path / "pi.json"
        p.write_text(json.dumps(jsonio.tensor_to_json(pi.pi)))
        code, rep = run_and_parse(capsys, ["poisson", "leaf", "--file", str(p),
                                           "--point", "0,0,0,0"])
        assert code == 0 and rep["result"]["rank"] == 4
        assert np.abs(rep["result"]["leaf_symplectic_matrix"]).max() == pytest.approx(1e11)

    def test_malformed_json_exit_2(self, workdir, capsys):
        code, rep = run_and_parse(capsys, ["poisson", "check", "--file", workdir["bad.json"]])
        assert code == 2
        assert "line 1" in rep["error"]


class TestDiracCommands:
    def test_pullback_marks_its_basis(self, workdir, capsys, tmp_path):
        # u -> (u, 2v, uv/3 + 1) into so(3)*: a fiber of dimension 2, whose
        # orthonormal basis is one choice among many
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"source": 2, "target": 3, "components": [
            [{"exp": [1, 0], "num": 1, "den": 1}],
            [{"exp": [0, 1], "num": 2, "den": 1}],
            [{"exp": [1, 1], "num": 1, "den": 3}, {"exp": [0, 0], "num": 1, "den": 1}]]}))
        pi = tmp_path / "so3.json"
        pi.write_text(json.dumps(jsonio.tensor_to_json(lie_poisson(so3_constants(), 3).pi)))
        code, rep = run_and_parse(capsys, ["dirac", "pullback", "--map", str(phi),
                                           "--poisson", str(pi), "--point", "0.5,0.2"])
        assert code == 0
        assert rep["result"]["basis_dependent"] is True
        assert np.array(rep["result"]["fiber_basis"]).shape == (4, 2)

    def test_integrability_of_poisson_graph(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys, ["dirac", "check-integrability", "--poisson", workdir["xdxdy.json"]]
        )
        assert code == 0

    def test_integrability_failure(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys,
            ["dirac", "check-integrability", "--poisson", workdir["nonpoisson3d.json"]],
        )
        assert code == 1

    def test_gauge(self, workdir, capsys, tmp_path):
        chart = Chart(2, ("x", "y"))
        om = PolyKForm(chart, 2, {(0, 1): PolyScalar.constant(chart, 1) * __import__("fractions").Fraction(1, 2)})
        p = tmp_path / "omega.json"
        p.write_text(json.dumps(jsonio.tensor_to_json(om)))
        pi = tmp_path / "pi.json"
        pi.write_text(json.dumps(jsonio.tensor_to_json(
            from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)}).pi)))
        code, rep = run_and_parse(
            capsys, ["dirac", "gauge", "--poisson", str(pi), "--omega", str(p), "--point", "0,0"]
        )
        assert code == 0
        # (I + Pi W)^{-1} Pi = 2 Pi over Q, rounded once
        assert rep["result"]["gauged_bivector_matrix"] == [[0.0, 2.0], [-2.0, 0.0]]
        (crit,) = rep["criteria"]
        assert crit == {"name": "gauge-transversality", "status": "pass",
                        "max_residual": "exact-zero", "worst_point": None, "tolerance": "exact"}

    def test_gauge_transversality_failure_is_strict_json(self, capsys, tmp_path):
        # omega = dx^dy makes I + Pi W = 0 for Pi = d_x ^ d_y
        chart = Chart(2, ("x", "y"))
        one = PolyScalar.constant(chart, 1)
        om, pi = tmp_path / "omega.json", tmp_path / "pi.json"
        om.write_text(json.dumps(jsonio.tensor_to_json(PolyKForm(chart, 2, {(0, 1): one}))))
        pi.write_text(json.dumps(jsonio.tensor_to_json(from_components(chart, {(0, 1): one}).pi)))
        code, rep = run_and_parse(
            capsys, ["dirac", "gauge", "--poisson", str(pi), "--omega", str(om), "--point", "0,0"]
        )
        assert code == 1
        assert rep["schema_version"] == 2
        (crit,) = rep["criteria"]
        assert crit["name"] == "gauge-transversality"
        assert crit["status"] == "fail" and crit["max_residual"] is None


def _poly_json(expr, xs) -> list:
    """A sympy polynomial in xs as the JSON term list."""
    sp = pytest.importorskip("sympy")
    return [{"exp": list(e), "num": int(c.p), "den": int(c.q)}
            for e, c in sp.Poly(expr, *xs).terms() if c != 0]


def _skew_json(M, xs, kind) -> dict:
    """The upper entries of an antisymmetric sympy matrix as a degree-2 tensor."""
    n = len(xs)
    return {"chart": n, "degree": 2, "kind": kind, "components": [
        {"idx": [i + 1, j + 1], "poly": _poly_json(M[i, j], xs)}
        for i in range(n) for j in range(i + 1, n) if M[i, j] != 0]}


def _run_quiet(argv):
    """cli.run in-process: (exit code, strict, schema-valid report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    report = strict_loads(out.getvalue())
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def _write(directory, name, data) -> str:
    path = directory / name
    path.write_text(json.dumps(data))
    return str(path)


class TestExactPointwiseVerdicts:
    """`dirac gauge` and `dirac pullback` decide transversality over Q at the
    point read as rationals, each as one exact criterion."""

    @pytest.mark.parametrize("s", [10**9, 2 * 10**10, 10**11], ids=str)
    def test_gauge_along_a_sheared_column(self, tmp_path, s):
        # Pi = d1^d2 on R^3 and omega = s dx2^dx3: det(I + Pi W) = 1 and the gauged
        # bivector is Pi for every s; floats once lost it to rounding (s = 1e9)
        # and to the entry bound of the inverse (s = 2e10, 1e11)
        chart = Chart(3)
        one = PolyScalar.constant(chart, 1)
        pi = _write(tmp_path, "pi.json", jsonio.tensor_to_json(
            from_components(chart, {(0, 1): one}).pi))
        om = _write(tmp_path, "om.json", jsonio.tensor_to_json(
            PolyKForm(chart, 2, {(1, 2): one * s})))
        code, rep = _run_quiet(["dirac", "gauge", "--poisson", pi, "--omega", om,
                                "--point", "0,0,0"])
        assert code == 0, rep
        assert rep["criteria"][0]["name"] == "gauge-transversality"
        assert rep["result"]["gauged_bivector_matrix"] == [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]

    @pytest.mark.parametrize("e", [11, 9])
    def test_pullback_along_a_tiny_scale(self, tmp_path, e):
        # (u, v) -> (u, 10^-e v) into (R^2, pi = 0) is a diffeomorphism, so the
        # pullback of T*R^2 is T*R^2; floats once dropped the 1e-11 direction
        pi = _write(tmp_path, "pi.json", {"chart": 2, "degree": 2, "components": []})
        phi = _write(tmp_path, "phi.json", {"source": 2, "target": 2, "components": [
            [{"exp": [1, 0], "num": 1, "den": 1}], [{"exp": [0, 1], "num": 1, "den": 10**e}]]})
        code, rep = _run_quiet(["dirac", "pullback", "--map", phi, "--poisson", pi,
                                "--point", "0.5,0.5"])
        assert code == 0, rep
        assert rep["criteria"][0]["name"] == "pullback-transversality"
        B = np.array(rep["result"]["fiber_basis"])
        assert B.shape == (4, 2) and not B[:2].any()
        assert np.abs(B[2:] @ B[2:].T - np.eye(2)).max() < 1e-15

    def test_gauge_where_i_plus_pi_w_vanishes_fails_at_the_point(self, tmp_path):
        # omega = dx^dy makes I + Pi W = 0 for Pi = d_x ^ d_y
        chart = Chart(2)
        one = PolyScalar.constant(chart, 1)
        pi = _write(tmp_path, "pi.json", jsonio.tensor_to_json(
            from_components(chart, {(0, 1): one}).pi))
        om = _write(tmp_path, "om.json", jsonio.tensor_to_json(PolyKForm(chart, 2, {(0, 1): one})))
        code, rep = _run_quiet(["dirac", "gauge", "--poisson", pi, "--omega", om,
                                "--point", "0.5,0.25"])
        assert code == 1 and "error" not in rep and "result" not in rep
        assert rep["criteria"] == [{"name": "gauge-transversality", "status": "fail",
                                    "max_residual": None, "worst_point": [0.5, 0.25],
                                    "tolerance": "exact"}]

    def test_non_transverse_pullback_is_a_failed_criterion(self, workdir, tmp_path):
        # u -> (u, u^2) meets x d/dx ^ d/dy at the origin, where it vanishes:
        # ran d phi + anchor = the x axis
        phi = _write(tmp_path, "phi.json", {"source": 1, "target": 2, "components": [
            [{"exp": [1], "num": 1, "den": 1}], [{"exp": [2], "num": 1, "den": 1}]]})
        code, rep = _run_quiet(["dirac", "pullback", "--map", phi, "--poisson",
                                workdir["xdxdy.json"], "--point", "0"])
        assert code == 1 and "error" not in rep and "result" not in rep
        assert rep["criteria"] == [{"name": "pullback-transversality", "status": "fail",
                                    "max_residual": None, "worst_point": [0.0],
                                    "tolerance": "exact"}]

    def test_gauge_at_the_dimension_cap(self, tmp_path):
        # the standard symplectic Pi of R^64 and a random constant omega in
        # {-3..3}/7 at a random point: one 64 x 128 elimination
        rng = random.Random(64)
        pi = standard_symplectic_poisson(32)
        chart = pi.chart
        W = np.zeros((64, 64))
        comps = {}
        for i in range(64):
            for j in range(i + 1, 64):
                if v := rng.randint(-3, 3):
                    comps[i, j] = PolyScalar.constant(chart, Fraction(v, 7))
                    W[i, j], W[j, i] = v / 7, -v / 7
        pi_file = _write(tmp_path, "pi.json", jsonio.tensor_to_json(pi.pi))
        om = _write(tmp_path, "om.json", jsonio.tensor_to_json(PolyKForm(chart, 2, comps)))
        point = ",".join(str(rng.uniform(-1, 1)) for _ in range(64))
        code, rep = _run_quiet(["dirac", "gauge", "--poisson", pi_file, "--omega", om,
                                f"--point={point}"])
        assert code == 0, rep["criteria"]
        P, Pi = np.array(rep["result"]["gauged_bivector_matrix"]), pi.matrix_at(np.zeros(64))
        A = np.eye(64) + Pi @ W
        assert np.abs(A @ P - Pi).max() <= 1e-9 * np.abs(A).max() * np.abs(P).max()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 3), linear=st.booleans(), singular=st.booleans(),
       seed=st.integers(0, 2**32))
def test_dirac_gauge_verdict_is_the_determinant(tmp_path_factory, n, linear, singular, seed):
    """Exit 0 iff det(I + Pi W) != 0 at the point (sympy), and then the
    reported P solves (I + Pi W) P = Pi; omega = d alpha is closed."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    xs = sp.symbols(f"x1:{n + 1}")
    rat = lambda: sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
    point = [sp.Rational(rng.randint(-8, 8), 4) for _ in range(n)]
    Pi, alpha = sp.zeros(n, n), [0] * n
    for i, j in itertools.combinations(range(n), 2):
        Pi[i, j] = rat() + (sum(rat() * x for x in xs) if linear else 0)
        Pi[j, i] = -Pi[i, j]
    for i in range(n):
        alpha[i] = sum(rat() * xs[a] * xs[b] for a, b in
                       itertools.combinations_with_replacement(range(n), 2)) + rat() * xs[i - 1]
    if singular:
        # Pi = c d1^d2 and omega_12(point) = 1/c: (I + Pi W) is singular there
        c = sp.Rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        Pi = sp.zeros(n, n)
        Pi[0, 1], Pi[1, 0] = c, -c
        alpha[0] = 0
        alpha[1] = xs[0] / c + rat() * (xs[0] - point[0]) ** 2
    W = sp.Matrix(n, n, lambda i, j: sp.expand(sp.diff(alpha[j], xs[i])
                                               - sp.diff(alpha[i], xs[j])))
    at = dict(zip(xs, point))
    A = sp.eye(n) + Pi.subs(at) * W.subs(at)
    d = tmp_path_factory.mktemp("gauge")
    argv = ["dirac", "gauge", "--poisson", _write(d, "pi.json", _skew_json(Pi, xs, "vector")),
            "--omega", _write(d, "om.json", _skew_json(W, xs, "form")),
            "--point=" + ",".join(str(float(v)) for v in point)]
    code, rep = _run_quiet(argv)
    assert code == (0 if A.det() != 0 else 1), (A, rep)
    assert singular <= (code == 1)
    (crit,) = rep["criteria"]
    assert crit["name"] == "gauge-transversality" and crit["tolerance"] == "exact"
    if code == 1:
        assert crit["worst_point"] == [float(v) for v in point] and "result" not in rep
        return
    P = np.array(rep["result"]["gauged_bivector_matrix"])
    Af, Pf = np.array(A, dtype=float), np.array(Pi.subs(at), dtype=float)
    scale = np.abs(Af).max() * np.abs(P).max() + np.abs(Pf).max()
    assert np.abs(Af @ P - Pf).max() <= 1e-9 * scale


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(1, 3), m=st.integers(2, 3), pi_kind=st.sampled_from(["zero", "constant",
                                                                         "linear"]),
       seed=st.integers(0, 2**32))
def test_dirac_pullback_verdict_is_the_rank(tmp_path_factory, k, m, pi_kind, seed):
    """Exit 0 iff rank [d phi | Pi^T] = m at the point (sympy), and then the
    fiber basis spans the sympy fiber {(w, d phi^T c) : d phi w = Pi^T c}.
    Every coefficient is a small rational and every point within 2 of the
    origin, so the check holds to 1e-9."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    us, ys = sp.symbols(f"u1:{k + 1}"), sp.symbols(f"y1:{m + 1}")
    rat = lambda: sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
    monomials = [1, *us, *(a * b for a, b in itertools.combinations_with_replacement(us, 2))]
    phi = [sum(rat() * mono for mono in rng.sample(monomials, 3)) for _ in range(m)]
    Pi = sp.zeros(m, m)
    if pi_kind != "zero":
        for i, j in itertools.combinations(range(m), 2):
            Pi[i, j] = rat() + (sum(rat() * y for y in ys) if pi_kind == "linear" else 0)
            Pi[j, i] = -Pi[i, j]
    point = [sp.Rational(rng.randint(-8, 8), 4) for _ in range(k)]
    at = dict(zip(us, point))
    J = sp.Matrix(m, k, lambda i, a: sp.diff(phi[i], us[a])).subs(at)
    V = Pi.subs(dict(zip(ys, [sp.sympify(f).subs(at) for f in phi]))).T
    transverse = J.row_join(V).rank() == m
    d = tmp_path_factory.mktemp("pullback")
    phi_json = {"source": k, "target": m,
                "components": [_poly_json(sp.sympify(f), us) for f in phi]}
    argv = ["dirac", "pullback", "--map", _write(d, "phi.json", phi_json),
            "--poisson", _write(d, "pi.json", _skew_json(Pi, ys, "vector")),
            "--point=" + ",".join(str(float(v)) for v in point)]
    code, rep = _run_quiet(argv)
    assert code == (0 if transverse else 1), rep
    (crit,) = rep["criteria"]
    assert crit["name"] == "pullback-transversality" and crit["tolerance"] == "exact"
    if not transverse:
        return
    fiber = [sp.Matrix.vstack(s[:k, :], J.T * s[k:, :]) for s in J.row_join(-V).nullspace()]
    Q = np.linalg.qr(np.array(sp.Matrix.hstack(*fiber), dtype=float))[0]
    B = np.array(rep["result"]["fiber_basis"])
    assert B.shape == (2 * k, k)
    assert np.linalg.norm(B @ B.T - Q @ Q.T, 2) <= 1e-9


@pytest.mark.parametrize("name, code", [("so3", 0), ("nonpoisson3d", 1)])
def test_closed_stdout_keeps_the_exit_code(workdir, tmp_path, name, code):
    # the reader closes its end of the pipe before the CLI writes its report
    path = (_write(tmp_path, "so3.json", jsonio.tensor_to_json(lie_poisson(so3_constants(), 3).pi))
            if name == "so3" else workdir["nonpoisson3d.json"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(diraclab.__file__)))
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "diraclab.cli", "poisson", "check",
                              "--file", path], stdout=write, stderr=subprocess.PIPE,
                             env=env, text=True, timeout=60)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (code, "")


class TestNumericCommands:
    def test_realize(self, workdir, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, rep = run_and_parse(
            capsys,
            ["realize", "--poisson", workdir["xdxdy.json"], "--samples", "5",
             "--radius", "0.2", "--step", "5e-3", "--report", str(out)],
        )
        assert code == 0
        assert len(rep["criteria"]) == 3
        saved = strict_loads(out.read_text())
        assert saved["criteria"] == rep["criteria"]

    def test_moser_rejects_wrong_degree_family(self, workdir, capsys, tmp_path):
        chart = Chart(2, ("x", "y"))
        bad = tmp_path / "bad_family.json"
        two_form = PolyKForm(chart, 2, {(0, 1): PolyScalar.constant(chart, 1)})
        bad.write_text(json.dumps({"powers": {"0": jsonio.tensor_to_json(two_form)}}))
        code, rep = run_and_parse(
            capsys,
            ["moser", "--poisson", workdir["constant.json"], "--a-form", str(bad),
             "--time", "0.5", "--grid-count", "4", "--step", "2e-3"],
        )
        assert code == 2 and "1-form" in rep["error"]

    def test_moser_matching_charts(self, workdir, capsys, tmp_path):
        chart = Chart(2, ("x", "y"))
        pi = tmp_path / "pi2.json"
        pi.write_text(json.dumps(jsonio.tensor_to_json(
            from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)}).pi)))
        code, rep = run_and_parse(
            capsys,
            ["moser", "--poisson", str(pi), "--a-form", workdir["a_form.json"],
             "--time", "0.5", "--grid-count", "4", "--step", "2e-3"],
        )
        assert code == 0
        assert rep["criteria"][0]["max_residual"] < 1e-6

    def test_linearize(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys,
            ["linearize", "--field", workdir["euler_field.json"], "--radius", "0.3",
             "--samples", "5", "--step", "2e-3"],
        )
        assert code == 0
        assert rep["criteria"][0]["max_residual"] < 1e-5

    @pytest.mark.parametrize("n", [24, 64])
    def test_linearize_in_high_dimension(self, tmp_path, capsys, n):
        # drawing from the cube and keeping what falls in the ball takes 2^n/V_n
        # draws per point: 8.7e9 at n = 24, about 9 hours at 3.7 us a draw
        chart = Chart(n)
        x = chart.coordinates()
        X = PolyKVector(chart, 1, {(j,): x[j] + x[(j + 1) % n] * x[j] * Fraction(1, 2)
                                   for j in range(n)})
        field = tmp_path / "euler.json"
        field.write_text(json.dumps(jsonio.tensor_to_json(X)))
        code, rep = run_and_parse(capsys, ["linearize", "--field", str(field), "--samples", "2",
                                           "--step", "0.1"])
        (crit,) = rep["criteria"]
        assert code == 0 and rep["result"] == {"samples": 2}, rep
        assert len(crit["worst_point"]) == n and math.hypot(*crit["worst_point"]) <= 0.3

    def test_linearize_on_a_point_chart_is_an_input_error(self, tmp_path, capsys):
        field = tmp_path / "point.json"
        field.write_text(json.dumps(jsonio.tensor_to_json(PolyKVector(Chart(0), 1, {}))))
        code, rep = run_and_parse(capsys, ["linearize", "--field", str(field)])
        assert code == 2 and "dimension at least 1" in rep["error"]


class TestManinCommands:
    def test_check_builtin(self, capsys):
        for name in ("semidirect-so3", "iwasawa-su2", "standard-sl2", "borel-sl2",
                     "double-semidirect-so3"):
            code, rep = run_and_parse(capsys, ["manin", "check", "--builtin", name])
            assert code == 0, name

    def test_bivector(self, capsys):
        code, rep = run_and_parse(
            capsys,
            ["manin", "bivector", "--builtin", "iwasawa-su2", "--point", "0.4,0.1,-0.6"],
        )
        assert code == 0
        P = rep["result"]["bivector_h_basis"]
        assert abs(P[0][1] + P[1][0]) < 1e-12
        # the Jacobiator of the chart bivector at the point, judged at --tol
        (crit,) = rep["criteria"]
        assert crit["name"] == "bivector-jacobi" and crit["tolerance"] == 1e-5
        assert crit["max_residual"] < 1e-14

    def test_bivector_far_from_the_identity(self):
        # the CLI refuses this point (each coordinate is capped at pi), but the
        # library's chart bivector must hold to rounding there too
        triple, chart = iwasawa_su2()
        ref = chart_bivector_oracle(chart, [30.0, 9.0, -6.0])
        got = drinfeld_bivector_chart(triple, chart, np.array([30.0, 9.0, -6.0]))
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("point", ["6.283185307179586,0,0",
                                       ",".join(["3.6275987284684357"] * 3)],
                             ids=["axis", "diagonal"])
    def test_bivector_at_a_singular_frame_is_an_input_error(self, capsys, point):
        # |x| = 2 pi: d exp is singular, and the Jacobiator used to read 41 and
        # 1.3e29; such a point has a coordinate past pi, outside the chart domain
        # (the library's own refusal is pinned in test_maningroup)
        code, rep = run_and_parse(capsys, ["manin", "bivector", "--builtin", "iwasawa-su2",
                                           "--point", point])
        assert code == 2 and rep["criteria"] == [] and "result" not in rep
        assert "outside the chart domain" in rep["error"]

    def test_dressing(self, capsys):
        code, rep = run_and_parse(
            capsys,
            ["manin", "dressing", "--builtin", "semidirect-so3",
             "--point", "0.3,0.2,-0.1", "--zeta", "1,0,0,0,0,0"],
        )
        assert code == 0
        assert rep["result"]["left_trivialized_value"] == pytest.approx([1.0, 0.0, 0.0])

    def test_multiplicativity(self, capsys):
        code, rep = run_and_parse(
            capsys,
            ["manin", "multiplicativity", "--builtin", "iwasawa-su2", "--pairs", "3"],
        )
        assert code == 0

    @pytest.mark.parametrize("name", ["standard-sl2", "borel-sl2", "dual-iwasawa-su2"])
    def test_homspace_needs_no_chart(self, capsys, tmp_path, name):
        # l = h, k = 0 on a built-in without a group chart; a chart command
        # on the same built-in is still refused
        triple, chart = builtin_triples()[name]
        assert chart is None
        p = tmp_path / "hs.json"
        p.write_text(json.dumps({"l_basis": [[[x.numerator, x.denominator] for x in v]
                                             for v in triple.h_basis]}))
        code, rep = run_and_parse(capsys, ["manin", "homspace", "--builtin", name,
                                           "--data", str(p)])
        assert code == 0, rep
        assert rep["criteria"][0]["name"] == "homogeneous-space-criteria"
        code, rep = run_and_parse(capsys, ["manin", "multiplicativity", "--builtin", name])
        assert code == 2 and "group chart" in rep["error"]

    def test_unknown_builtin(self, capsys):
        code, rep = run_and_parse(capsys, ["manin", "check", "--builtin", "nope"])
        assert code == 2


class TestDeterminism:
    def test_reports_byte_identical_modulo_walltime(self, workdir, capsys):
        argv = ["realize", "--poisson", workdir["xdxdy.json"], "--samples", "4",
                "--radius", "0.2", "--step", "5e-3", "--seed", "7"]
        code1 = run(argv)
        out1 = capsys.readouterr().out
        code2 = run(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_seed_echoed(self, workdir, capsys):
        argv = ["realize", "--poisson", workdir["xdxdy.json"], "--samples", "2", "--step", "1e-2"]
        code, rep = run_and_parse(capsys, ["--seed", "5", *argv])
        assert code == 0 and rep["seed"] == 5
        code, rep = run_and_parse(capsys, argv)
        assert code == 0 and rep["seed"] == 0


class TestTripleJson:
    @staticmethod
    def triple_json(builtin="semidirect-so3", scale=1):
        # a built-in triple, its structure constants times scale, in the user
        # file format (1-based indices), borrowing the built-in's chart
        triple, _ = builtin_triples()[builtin]
        C = [
            {"a": a + 1, "b": b + 1, "c": c + 1,
             "value": [(scale * v).numerator, (scale * v).denominator]}
            for (a, b, c), v in triple.algebra.C.items()
        ]
        B = [[[x.numerator, x.denominator] for x in row] for row in triple.algebra.B]
        g = [[[x.numerator, x.denominator] for x in v] for v in triple.g_basis]
        h = [[[x.numerator, x.denominator] for x in v] for v in triple.h_basis]
        return {"dim": 6, "C": C, "B": B, "g_basis": g, "h_basis": h, "builtin_ad": builtin}

    def test_user_triple_check(self, capsys, tmp_path):
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(self.triple_json()))
        code, rep = run_and_parse(capsys, ["manin", "check", "--triple", str(p)])
        assert code == 0

    def test_user_triple_bivector_with_builtin_ad(self, capsys, tmp_path):
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(self.triple_json()))
        code, rep = run_and_parse(
            capsys,
            ["manin", "bivector", "--triple", str(p), "--point", "0.2,0.4,-0.1"],
        )
        assert code == 0
        assert max(abs(v) for row in rep["result"]["bivector_h_basis"] for v in row) < 1e-12

    @pytest.mark.parametrize("argv", [
        ["bivector", "--point", "0.3,0.2,0.1"],
        ["multiplicativity"],
        ["dressing", "--point", "0.3,0.2,0.1", "--zeta", "1,0,0,0,0,0"],
    ], ids=lambda a: a[0])
    def test_chart_commands_decide_a_user_triple_first(self, capsys, tmp_path, argv):
        # h_0 + h_1 and h_1 + g_0 in place of h_0 and h_1: h is no longer a
        # Lagrangian subalgebra, and the chart of the built-in does not apply
        data = self.triple_json()
        g, h = data["g_basis"], data["h_basis"]
        add = lambda u, v: [[a[0] * b[1] + b[0] * a[1], a[1] * b[1]] for a, b in zip(u, v)]
        h[0], h[1] = add(h[0], h[1]), add(h[1], g[0])
        # h = g: [G | H] is singular, so a chart that formed its floats before the
        # axioms were decided would end in an input error, not a failed check
        same = self.triple_json()
        same["h_basis"] = same["g_basis"]
        for data, kind in ((data, "isotropy"), (same, "transversality")):
            p = tmp_path / "triple.json"
            p.write_text(json.dumps(data))
            code, rep = run_and_parse(capsys, ["manin", argv[0], "--triple", str(p), *argv[1:]])
            assert code == 1
            assert [c["name"] for c in rep["criteria"]] == ["manin-triple-axioms"]
            assert rep["criteria"][0]["status"] == "fail"
            assert rep["criteria"][0]["witness"]["kind"] == kind

    @pytest.mark.parametrize("scale, want", [(1, 0), (2, 2), (1 + Fraction(1, 10**13), 2)],
                             ids=["same-g", "doubled", "off-by-1e-13"])
    def test_a_borrowed_chart_must_represent_g(self, capsys, tmp_path, scale, want):
        # scaling every structure constant keeps a Manin triple, but the
        # iwasawa-su2 chart multiplies in another group: doubled, multiplicativity
        # used to fail at 0.2; scaled by 1 + 1e-13, a float comparison of ad_g
        # at 1e-12 let the chart through
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(self.triple_json("iwasawa-su2", scale)))
        code, _ = run_and_parse(capsys, ["manin", "check", "--triple", str(p)])
        assert code == 0
        code, rep = run_and_parse(capsys, ["manin", "multiplicativity", "--triple", str(p),
                                           "--pairs", "5"])
        assert code == want
        if want:
            assert rep["error"] == "builtin_ad 'iwasawa-su2': the chart's g is not this triple's g"
        else:
            assert rep["criteria"][0]["max_residual"] < 1e-12

    def test_a_borrowed_chart_reads_a_rescaled_d_basis(self, capsys, tmp_path):
        # iwasawa-su2 in the basis (u1, u2, u3, v1/2, v2/2, v3/2): [v_i/2, v_j/2]
        # = -eps u / 4 puts the denominator 4 into the constants while g keeps the
        # built-in's, so the chart is this triple's g, and the two halves of each
        # paired bracket must meet over one denominator
        triple, _ = builtin_triples()["iwasawa-su2"]
        s = [1, 1, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]
        pair = lambda v: [[Fraction(x).numerator, Fraction(x).denominator] for x in v]
        C = [{"a": a + 1, "b": b + 1, "c": c + 1, "value": pair([v * s[a] * s[b] / s[c]])[0]}
             for (a, b, c), v in triple.algebra.C.items()]
        assert max(c["value"][1] for c in C) == 4
        p = tmp_path / "triple.json"
        p.write_text(json.dumps({
            "dim": 6, "builtin_ad": "iwasawa-su2", "C": C,
            "B": [pair([x * si * sj for x, sj in zip(row, s)])
                  for row, si in zip(triple.algebra.B, s)],
            "g_basis": [pair([x / si for x, si in zip(v, s)]) for v in triple.g_basis],
            "h_basis": [pair([x / si for x, si in zip(v, s)]) for v in triple.h_basis]}))
        code, rep = run_and_parse(capsys, ["manin", "multiplicativity", "--triple", str(p),
                                           "--pairs", "2"])
        assert code == 0, rep.get("error")

    def test_a_borrowed_chart_refuses_a_rescaled_g_basis(self, capsys, tmp_path):
        # g spanned by u_i / 3: the same subalgebra, but [u_i/3, u_j/3] = eps (u_k/3) / 3,
        # so g has other structure constants in this basis; each paired vector
        # (u_i/3 | u_i) must take one integer scale for both halves
        data = self.triple_json("iwasawa-su2")
        data["g_basis"] = [[[n, 3 * d] for n, d in v] for v in data["g_basis"]]
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(data))
        code, rep = run_and_parse(capsys, ["manin", "multiplicativity", "--triple", str(p),
                                           "--pairs", "2"])
        assert code == 2
        assert rep["error"] == "builtin_ad 'iwasawa-su2': the chart's g is not this triple's g"

    def test_missing_chart_rejected(self, capsys, tmp_path):
        data = self.triple_json()
        data["builtin_ad"] = None
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(data))
        code, rep = run_and_parse(
            capsys, ["manin", "bivector", "--triple", str(p), "--point", "0,0,0"]
        )
        assert code == 2

    @pytest.mark.parametrize("argv, builtin_ad, builds", [
        (["multiplicativity", "--pairs", "2"], "iwasawa-su2", 1),
        (["check"], "iwasawa-su2", 1),
        (["check"], None, 0),
        (["homspace", "--data", "HS"], None, 0),
    ], ids=["borrowed", "borrowed-check", "chartless-check", "chartless-homspace"])
    def test_a_run_builds_the_catalog_at_most_once(self, capsys, tmp_path, monkeypatch, argv,
                                                   builtin_ad, builds):
        # a borrowed chart is looked up and its g checked from one catalog
        calls = []
        monkeypatch.setattr(cli.manin_mod, "builtin_triples",
                            lambda f=builtin_triples: calls.append(f) or f())
        data = self.triple_json("iwasawa-su2")
        data["builtin_ad"] = builtin_ad
        (tmp_path / "HS").write_text(json.dumps(fuzz_inputs()["HS"]))
        (tmp_path / "triple.json").write_text(json.dumps(data))
        argv = [str(tmp_path / a) if a == "HS" else a for a in argv]
        code, rep = run_and_parse(capsys, ["manin", *argv, "--triple",
                                           str(tmp_path / "triple.json")])
        assert code == 0, rep.get("error")
        assert len(calls) == builds


def test_parser_commands_are_the_table_rows():
    # walk the parser's subcommand tree: each leaf is one row, with the row's options
    def leaves(parser, prefix=()):
        sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not sub:
            yield " ".join(prefix), [a.option_strings[-1] for a in parser._actions]
        for name, child in (sub[0].choices.items() if sub else ()):
            yield from leaves(child, (*prefix, name))

    tree = dict(leaves(cli.build_parser()))
    assert list(tree) == list(cli.COMMANDS) == list(FUZZ_COMMANDS)
    for command, row in cli.COMMANDS.items():
        assert tree[command] == ["--help", "--seed", "--tol", *row.options]


def test_consecutive_runs_share_no_option_values(workdir, capsys):
    # one parser serves every run in a process
    argv = ["manin", "multiplicativity", "--builtin", "iwasawa-su2", "--pairs", "2"]
    assert cli.build_parser() is cli.build_parser()
    _, rep = run_and_parse(capsys, ["--seed", "7", "--tol", "0.5", *argv])
    assert (rep["seed"], rep["criteria"][0]["tolerance"]) == (7, 0.5)
    args = cli.build_parser().parse_args(argv)
    assert (args.seed, args.tol) == (None, None)
    _, rep = run_and_parse(capsys, argv)
    assert (rep["seed"], rep["criteria"][0]["tolerance"]) == (0, 1e-5)


# (argv, option) per comma-list option: a value that starts with a minus sign
# given after a space, as "--point -0.5,0.25"
SPACED_NEGATIVE = {
    "poisson leaf": (["poisson", "leaf", "--file", "{xdxdy}", "--point", "-0.5,0.25"], "--point"),
    "dirac gauge": (["dirac", "gauge", "--poisson", "{xdxdy}", "--omega", "{omega}",
                     "--point", "-0.5,0.25"], "--point"),
    "dirac pullback": (["dirac", "pullback", "--map", "{identity}", "--poisson", "{xdxdy}",
                        "--point", "-0.5,0.25"], "--point"),
    "manin bivector": (["manin", "bivector", "--builtin", "semidirect-so3",
                        "--point", "-0.5,0.2,0.1"], "--point"),
    "manin dressing --point": (["manin", "dressing", "--builtin", "semidirect-so3", "--point",
                                "-0.5,0.2,0.1", "--zeta", "1,0,0,0,0,0"], "--point"),
    "manin dressing --zeta": (["manin", "dressing", "--builtin", "semidirect-so3", "--point",
                               "0.5,0.2,0.1", "--zeta", "-1e-3,0,0,0,0,2"], "--zeta"),
}


@pytest.mark.parametrize("case", sorted(SPACED_NEGATIVE))
def test_a_spaced_negative_comma_list_is_a_value(workdir, capsys, tmp_path, case):
    # argparse once read "-0.5,0.2,0.1" as an unknown option and exited 2 with
    # "expected one argument"; the spaced form must report as the "=" form does
    chart = Chart(2)
    omega = PolyKForm(chart, 2, {(0, 1): PolyScalar.constant(chart, Fraction(1, 2))})
    files = {"xdxdy": workdir["xdxdy.json"],
             "omega": _write(tmp_path, "omega.json", jsonio.tensor_to_json(omega)),
             "identity": _write(tmp_path, "identity.json", {
                 "source": 2, "target": 2,
                 "components": [[{"exp": [1, 0], "num": 1, "den": 1}],
                                [{"exp": [0, 1], "num": 1, "den": 1}]]})}
    argv, option = SPACED_NEGATIVE[case]
    spaced = [a.format(**files) for a in argv]
    at = spaced.index(option)
    joined = spaced[:at] + [f"{option}={spaced[at + 1]}"] + spaced[at + 2:]
    reports = []
    for form in (spaced, joined):
        code, rep = run_and_parse(capsys, form)
        assert code == 0, rep.get("error")
        reports.append({k: v for k, v in rep.items() if k not in ("command", "wall_time_s")})
    assert reports[0] == reports[1]


# the commands whose criteria, if any, are exact: --tol has nothing to set
NO_NUMERIC_CRITERION = ["poisson check", "poisson jacobiator", "poisson bracket", "poisson leaf",
                        "dirac check-integrability", "dirac gauge", "dirac pullback",
                        "dirac poisson-map", "manin check", "manin dressing", "manin homspace"]


class TestTolOverride:
    def test_global_tol_flips_status(self, workdir, capsys):
        # an absurdly tight tolerance turns the numeric pass into a fail
        argv = ["realize", "--poisson", workdir["xdxdy.json"], "--samples", "4",
                "--radius", "0.2", "--step", "5e-3", "--tol", "1e-30"]
        code, rep = run_and_parse(capsys, argv)
        assert code == 1

    def test_tol_defaults_name_the_numeric_commands(self):
        tol = {command: row.tol for command, row in cli.COMMANDS.items() if row.tol is not None}
        assert set(tol) == set(FUZZ_COMMANDS) - set(NO_NUMERIC_CRITERION)
        assert tol == {"realize": 1e-6, "moser": 1e-6, "linearize": 1e-5, "manin bivector": 1e-5,
                       "manin multiplicativity": 1e-5}

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("command", NO_NUMERIC_CRITERION)
    def test_tol_without_a_numeric_criterion_is_an_input_error(self, capsys, tmp_path,
                                                               command, before):
        argv = fuzz_argv(tmp_path, command)
        argv = ["--tol", "0.5", *argv] if before else [*argv, "--tol", "0.5"]
        code, rep = run_and_parse(capsys, argv)
        assert code == 2 and rep["criteria"] == []
        assert rep["error"] == f"--tol: {command} has no numeric criterion"
        code, _ = run_and_parse(capsys, fuzz_argv(tmp_path, command))
        assert code == 0


# the commands that draw nothing at random: --seed has nothing to set
NOT_SEEDED = ["poisson check", "poisson jacobiator", "poisson bracket", "poisson leaf",
              "dirac gauge", "dirac pullback", "dirac poisson-map", "manin check",
              "manin bivector", "manin dressing", "manin homspace"]


class TestSeedOverride:
    def test_seed_defaults_name_the_seeded_commands(self):
        seed = {command: row.seed for command, row in cli.COMMANDS.items()
                if row.seed is not None}
        assert seed == dict.fromkeys(set(FUZZ_COMMANDS) - set(NOT_SEEDED), 0)

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("command", NOT_SEEDED)
    def test_seed_where_nothing_is_drawn_is_an_input_error(self, capsys, tmp_path,
                                                           command, before):
        argv = fuzz_argv(tmp_path, command)
        argv = ["--seed", "5", *argv] if before else [*argv, "--seed", "5"]
        code, rep = run_and_parse(capsys, argv)
        assert code == 2 and rep["criteria"] == []
        assert rep["error"] == f"--seed: {command} draws nothing at random"
        code, rep = run_and_parse(capsys, fuzz_argv(tmp_path, command))
        assert code == 0 and rep["seed"] == 0


class TestFrameFile:
    def test_integrability_from_frame_file(self, capsys, tmp_path):
        # frame spanning Gr(x d/dx ^ d/dy), serialized section by section
        from diraclab.dirac import graph_of_poisson
        from diraclab.poisson import from_components

        chart = Chart(2, ("x", "y"))
        pi = from_components(chart, {(0, 1): chart.coordinate(0)})
        p = frame_file(tmp_path / "frame.json",
                       [(s.X, s.alpha) for s in graph_of_poisson(pi).sections])
        code, rep = run_and_parse(capsys, ["dirac", "check-integrability", "--frame", p])
        assert code == 0

    @pytest.mark.parametrize("scale", [(1, 10**11), (1, 1), (10**11, 1)], ids=str)
    def test_tangent_frame_passes_at_every_scale(self, capsys, tmp_path, scale):
        # sections (num/den) d/dx_i span TM at any nonzero scale
        from fractions import Fraction

        from diraclab.fields import coordinate_vector

        chart = Chart(2)
        zero = jsonio.tensor_to_json(PolyKForm(chart, 1, {}))
        data = {"chart": 2, "sections": [
            {"X": jsonio.tensor_to_json(coordinate_vector(chart, i) * Fraction(*scale)),
             "alpha": zero} for i in range(2)]}
        p = tmp_path / "frame.json"
        p.write_text(json.dumps(data))
        code, rep = run_and_parse(capsys, ["dirac", "check-integrability", "--frame", str(p)])
        assert code == 0, rep


class TestExactIntegrability:
    """`dirac check-integrability` decides the Courant tensor as polynomials:
    it evaluates no float table, and it takes no point."""

    @pytest.mark.parametrize("source", ["--poisson", "--frame"])
    def test_no_float_evaluation(self, workdir, capsys, monkeypatch, tmp_path, source):
        from diraclab import _numeric, dirac

        calls = []
        for name in ("__init__", "__call__", "at_state"):
            def counted(*args, _orig=getattr(_numeric.PackedPolys, name), _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(_numeric.PackedPolys, name, counted)
        path = workdir["nonpoisson3d.json"]
        if source == "--frame":
            pi = cli._load_bivector(path)
            path = frame_file(tmp_path / "frame.json",
                              [(s.X, s.alpha) for s in dirac.graph_of_poisson(pi).sections])
        code, rep = run_and_parse(capsys, ["dirac", "check-integrability", source, path])
        assert code == 1 and calls == []
        (crit,) = rep["criteria"]
        assert (crit["tolerance"], crit["max_residual"]) == ("exact", None)

    def test_witness_is_the_jacobiator(self, workdir, capsys):
        path = workdir["nonpoisson3d.json"]
        _, poisson = run_and_parse(capsys, ["poisson", "check", "--file", path])
        _, dirac = run_and_parse(capsys, ["dirac", "check-integrability", "--poisson", path])
        witness = dirac["criteria"][0]["witness"]
        assert witness == poisson["result"]["jacobiator_components"]
        assert list(witness) == ["1+2+3"]

    def test_point_option_is_gone(self, workdir, capsys):
        code, rep = run_and_parse(capsys, ["dirac", "check-integrability", "--poisson",
                                           workdir["xdxdy.json"], "--point", "1,2,3"])
        assert code == 2 and "--point" in rep["error"]


def _poisson_draw(rng, n, kind):
    chart = Chart(n)
    x = chart.coordinates()
    if kind == "vector":  # generically not Poisson
        return random_vector(rng, chart, degree=2, max_degree=2)
    if kind == "lie-poisson":  # Poisson iff the random constants satisfy Jacobi
        c = {(*sorted(rng.sample(range(n), 2)), rng.randrange(n)): rng.randint(-2, 2)
             for _ in range(rng.randint(1, 3))}
        return lie_poisson(c, n).pi
    if kind == "so3-casimir":  # so(3)* times a polynomial in its Casimirs: Poisson
        g = PolyScalar.constant(chart, rng.randint(1, 3))
        for c in (x[0] * x[0] + x[1] * x[1] + x[2] * x[2], *x[3:]):
            g = g + c * rng.randint(-2, 2)
        return PolyKVector(chart, 2, {(0, 1): x[2] * g, (1, 2): x[0] * g, (0, 2): -x[1] * g})
    # rank two, f d_i ^ d_j: Poisson for any f
    i, j = sorted(rng.sample(range(n), 2))
    return PolyKVector(chart, 2, {(i, j): random_poly(rng, chart, max_degree=2)})


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(3, 5),
       kind=st.sampled_from(["vector", "lie-poisson", "so3-casimir", "rank-two"]),
       seed=st.integers(0, 2**32))
def test_poisson_check_and_dirac_integrability_agree(tmp_path_factory, n, kind, seed):
    # Gr(pi) is Dirac iff [pi, pi] = 0 (Courant 1990): one verdict, one tensor
    pi = PoissonBivector(_poisson_draw(random.Random(seed), n, kind))
    J = jacobiator(pi).components
    path = tmp_path_factory.mktemp("agree") / "pi.json"
    path.write_text(json.dumps(jsonio.tensor_to_json(pi.pi)))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [run(["poisson", "check", "--file", str(path)]),
                 run(["dirac", "check-integrability", "--poisson", str(path)])]
    assert codes[0] == codes[1] == (1 if J else 0)
    pt = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    assert integrability_tensor(graph_of_poisson(pi), pt) == J


class TestImportCost:
    def test_manin_runs_load_no_scipy(self):
        # the numeric layer is numpy-only: importing the package, a full
        # `manin multiplicativity` run and the e-map residuals load no scipy
        src = os.path.dirname(os.path.dirname(diraclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import contextlib, io, sys\n"
            "import numpy as np\n"
            "from diraclab import cli, maningroup as m\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['manin', 'multiplicativity', '--builtin', 'iwasawa-su2',"
            " '--pairs', '2']) == 0\n"
            "t, c = m.iwasawa_su2()\n"
            "m.e_map_residuals(t, c, [np.full(3, 0.2)], np.ones(6), np.arange(6.0))\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestMalformedInput:
    """Malformed but well-formed-JSON input exits 2 with a report, no traceback."""

    TERM = {"exp": [1, 0], "num": 1, "den": 1}

    def tensor(self, **override):
        data = {"chart": 2, "degree": 2, "kind": "vector",
                "components": [{"idx": [1, 2], "poly": [dict(self.TERM)]}]}
        data.update(override)
        return data

    def check_exit_2(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        report = strict_loads(captured.out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert code == 2
        assert report["error"]
        assert "Traceback" not in captured.err
        return report

    @pytest.mark.parametrize("group", ["poisson", "dirac", "manin"])
    def test_unknown_subcommand(self, capsys, group):
        # argparse refuses it, so no handler needs an unknown-subcommand branch
        rep = self.check_exit_2(capsys, [group, "foo"])
        assert "foo" in rep["error"]

    def bivector_file(self, tmp_path, data):
        p = tmp_path / "pi.json"
        p.write_text(json.dumps(data))
        return ["poisson", "check", "--file", str(p)]

    def test_zero_denominator(self, capsys, tmp_path):
        data = self.tensor()
        data["components"][0]["poly"][0]["den"] = 0
        rep = self.check_exit_2(capsys, self.bivector_file(tmp_path, data))
        assert "ZeroDivisionError" in rep["error"]

    def test_missing_chart(self, capsys, tmp_path):
        data = self.tensor()
        del data["chart"]
        rep = self.check_exit_2(capsys, self.bivector_file(tmp_path, data))
        assert "KeyError" in rep["error"]

    def test_non_integer_exponent(self, capsys, tmp_path):
        data = self.tensor()
        data["components"][0]["poly"][0]["exp"] = ["one", 0]
        rep = self.check_exit_2(capsys, self.bivector_file(tmp_path, data))
        assert "ValueError" in rep["error"]

    def test_wrong_container_type(self, capsys, tmp_path):
        data = self.tensor(components=[{"idx": [1, 2], "poly": [3]}])
        rep = self.check_exit_2(capsys, self.bivector_file(tmp_path, data))
        assert "TypeError" in rep["error"]

    def test_unknown_kind(self, workdir, capsys, tmp_path):
        # a 2-form with a misspelt kind used to be read as a form silently
        p = tmp_path / "omega.json"
        p.write_text(json.dumps(self.tensor(kind="2-form")))
        rep = self.check_exit_2(capsys, ["dirac", "gauge", "--poisson", workdir["xdxdy.json"],
                                         "--omega", str(p), "--point", "0.1,0.2"])
        assert "kind" in rep["error"]

    @pytest.mark.parametrize("n", [jsonio.MAX_DIM + 1, 10**400], ids=["cap+1", "10**400"])
    @pytest.mark.parametrize("decode", [
        lambda n: jsonio.tensor_from_json({"chart": n, "degree": 1, "components": []}),
        lambda n: jsonio.map_from_json({"source": n, "target": 1, "components": []}),
        lambda n: jsonio.map_from_json({"source": 1, "target": n, "components": [[]]}),
        lambda n: cli._frame_from_json({"chart": n, "sections": []}),
        lambda n: cli._triple_from_json({"dim": n, "C": [], "B": [], "g_basis": [],
                                         "h_basis": []}),
    ], ids=["chart", "source", "target", "frame-chart", "triple-dim"])
    def test_dimension_above_the_cap(self, decode, n):
        # 10**400 coordinates used to be allocated as chart names and guard bits
        with pytest.raises(ShapeError, match="dimension cap"):
            decode(n)

    def test_dimension_at_the_cap(self):
        T = jsonio.tensor_from_json({"chart": jsonio.MAX_DIM, "degree": 1, "components": []})
        assert T.chart.dim == jsonio.MAX_DIM

    @pytest.mark.parametrize("key", ["chart", "source", "dim"])
    def test_huge_dimension_exits_2(self, capsys, tmp_path, key):
        p = tmp_path / "in.json"
        if key == "chart":
            p.write_text(json.dumps(self.tensor(chart=10**400)))
            argv = ["poisson", "check", "--file", str(p)]
        elif key == "source":
            p.write_text(json.dumps({"source": 10**400, "target": 2, "components": []}))
            argv = ["dirac", "poisson-map", "--map", str(p), "--pi-source", str(p),
                    "--pi-target", str(p)]
        else:
            p.write_text(json.dumps({"dim": 10**400, "C": [], "B": [], "g_basis": [],
                                     "h_basis": []}))
            argv = ["manin", "check", "--triple", str(p)]
        rep = self.check_exit_2(capsys, argv)
        assert "dimension cap" in rep["error"]

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        p = tmp_path / "pi.json"
        p.write_text('{"chart": 1' + "0" * 5000 + "}")
        rep = self.check_exit_2(capsys, ["poisson", "check", "--file", str(p)])
        assert "digits" in rep["error"]

    @pytest.mark.parametrize("where", ["coefficient", "time power"])
    def test_number_past_the_float_range_in_a_flow(self, workdir, capsys, tmp_path, where):
        # the exact layer takes 10**400; the compiled evaluator cannot
        form = self.tensor(degree=1, kind="form",
                           components=[{"idx": [2], "poly": [dict(self.TERM)]}])
        if where == "coefficient":
            form["components"][0]["poly"][0]["num"] = 10**400
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"powers": {"0" if where == "coefficient" else str(10**400):
                                            form}}))
        self.check_exit_2(capsys, ["moser", "--poisson", workdir["xdxdy.json"], "--a-form",
                                   str(p), "--grid-count", "2", "--step", "1e-2"])

    @staticmethod
    def float_range_files(tmp_path):
        """so3: the so(3)* bivector; phi: u -> (1e300 u, 2v, uv/3), whose
        differential overflows at u = 1e10."""
        files = {"phi": tmp_path / "phi.json", "so3": tmp_path / "so3.json"}
        files["phi"].write_text(json.dumps({"source": 2, "target": 3, "components": [
            [{"exp": [1, 0], "num": 10**300, "den": 1}],
            [{"exp": [0, 1], "num": 2, "den": 1}],
            [{"exp": [1, 1], "num": 1, "den": 3}]]}))
        files["so3"].write_text(json.dumps(jsonio.tensor_to_json(
            lie_poisson(so3_constants(), 3).pi)))
        # iwasawa-su2 with h spanned by 10^300 times its basis: the same triple,
        # whose float views overflow
        triple, _ = iwasawa_su2()
        pair = lambda v: [[x.numerator, x.denominator] for x in v]
        files["huge_h"] = tmp_path / "huge_h.json"
        files["huge_h"].write_text(json.dumps({
            "dim": 6, "C": [{"a": a + 1, "b": b + 1, "c": c + 1, "value": pair([v])[0]}
                            for (a, b, c), v in triple.algebra.C.items()],
            "B": [pair(row) for row in triple.algebra.B],
            "g_basis": [pair(v) for v in triple.g_basis],
            "h_basis": [pair([10**300 * x for x in v]) for v in triple.h_basis],
            "builtin_ad": "iwasawa-su2"}))
        return {k: str(v) for k, v in files.items()}

    def test_an_exact_fiber_past_the_float_range(self, capsys, tmp_path):
        # the exact fiber has an entry past the float range, which rounding it to
        # floats refuses (its SVD once ended in an uncaught LinAlgError)
        files = self.float_range_files(tmp_path)
        with warnings.catch_warnings():  # numpy's overflow warnings stay inside run
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["dirac", "pullback", "--map", files["phi"], "--poisson", files["so3"],
                        "--point", "1e10,0.2"])
        captured = capsys.readouterr()
        report = strict_loads(captured.out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert code == 2 and "float range" in report["error"]
        assert captured.err == ""

    @staticmethod
    def input_error_files(tmp_path) -> dict:
        """The files of `INPUT_ERRORS`, by name: tensors on R^3, a 2-form on R^2 and
        the semidirect-so3 triple with one entry broken."""
        chart, plane = Chart(3), Chart(2)
        x, y, z = chart.coordinates()

        def triple(edit):
            data = TestTripleJson.triple_json()
            edit(data)
            return data

        files = {
            "form": jsonio.tensor_to_json(PolyKForm(chart, 1, {(0,): x})),
            "so3": jsonio.tensor_to_json(lie_poisson(so3_constants(), 3).pi),
            # the bivector Pi^ij = eps_ijk v_k of v = (-y, x, 1): v . curl v = 2
            "helical": jsonio.tensor_to_json(PolyKVector(chart, 2, {
                (0, 1): PolyScalar.constant(chart, 1), (0, 2): -x, (1, 2): -y})),
            # at x = 1e200 the leaf's matrix is finite and its SVD does not converge
            "squares": jsonio.tensor_to_json(PolyKVector(chart, 2, {
                (0, 1): z * z, (1, 2): x * x, (0, 2): -y * y})),
            "a_form": {"powers": {"0": jsonio.tensor_to_json(PolyKForm(chart, 1, {(0,): x}))}},
            "omega2": jsonio.tensor_to_json(PolyKForm(plane, 2, {(0, 1): plane.coordinate(0)})),
            "unknown_ad": triple(lambda t: t.update(builtin_ad="nope")),
            "chartless_ad": triple(lambda t: t.update(builtin_ad="standard-sl2")),
            "short_metric": triple(lambda t: t["B"][0].pop()),
            "short_basis": triple(lambda t: t["g_basis"][0].pop()),
            "bool_value": triple(lambda t: t["C"][0].update(value=True)),
            "string_value": triple(lambda t: t["C"][0].update(value="1/2")),
        }
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        return {name: str(tmp_path / f"{name}.json") for name in files}

    # name -> (argv, error): each input is refused with exit 2 and a report
    INPUT_ERRORS = {
        "poisson-check-on-a-form": (["poisson", "check", "--file", "{form}"],
                                    "expected a degree-2 multivector"),
        "unknown-builtin-ad": (["manin", "check", "--triple", "{unknown_ad}"],
                               "unknown builtin_ad 'nope'"),
        "chartless-builtin-ad": (["manin", "bivector", "--triple", "{chartless_ad}",
                                  "--point", "0.1,0.2,0.3"],
                                 "builtin 'standard-sl2' carries no chart"),
        "manin-check-without-a-triple": (["manin", "check"], "need --builtin or --triple"),
        "short-metric-row": (["manin", "check", "--triple", "{short_metric}"],
                             "metric must be dim x dim"),
        "short-basis-vector": (["manin", "check", "--triple", "{short_basis}"],
                               "basis vector has wrong length"),
        "boolean-constant": (["manin", "check", "--triple", "{bool_value}"],
                             "boolean is not a rational"),
        "string-constant": (["manin", "check", "--triple", "{string_value}"],
                            "cannot parse rational from '1/2'"),
        "omega-on-another-chart": (["dirac", "gauge", "--poisson", "{so3}", "--omega",
                                    "{omega2}", "--point", "0.1,0.2,0.3"],
                                   "tensor declares chart dim 2, expected 3"),
        "moser-on-a-non-poisson-pi0": (["moser", "--poisson", "{helical}", "--a-form",
                                        "{a_form}", "--grid-count", "2", "--step", "1e-2"],
                                       "pi0 must be Poisson"),
        "svd-past-the-float-range": (["poisson", "leaf", "--file", "{squares}",
                                      "--point=1e200,0.3,0.2"],
                                     "SVD did not converge: a matrix past the float range"),
    }

    @pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
    def test_input_error(self, capsys, tmp_path, case):
        argv, error = self.INPUT_ERRORS[case]
        files = self.input_error_files(tmp_path)
        rep = self.check_exit_2(capsys, [a.format(**files) for a in argv])
        assert error in rep["error"]

    # name -> (argv, exit code, error): each overflows or turns NaN inside numpy
    FLOAT_RANGE = {
        "realize": (["realize", "--poisson", "{so3}", "--samples", "4", "--radius", "1e200",
                     "--step", "0.05"], 1, "trajectory diverged"),
        "linearize": (["linearize", "--field", "{euler}", "--radius", "1e200", "--step", "0.05"],
                      1, "trajectory diverged"),
        "manin-bivector": (["manin", "bivector", "--triple", "{huge_h}", "--point",
                            "0.1,0.2,0.3"], 1, "non-finite number"),
        "manin-dressing": (["manin", "dressing", "--builtin", "iwasawa-su2", "--point",
                            "0.1,0.2,0.3", "--zeta", ",".join(["1e308"] * 6)], 1,
                           "non-finite number"),
        "dirac-pullback": (["dirac", "pullback", "--map", "{phi}", "--poisson", "{so3}",
                            "--point", "1e10,0.2"], 2, "float range"),
    }

    @pytest.mark.parametrize("case", sorted(FLOAT_RANGE))
    def test_float_range_reports_leave_stderr_empty(self, workdir, tmp_path, case):
        argv, code, error = self.FLOAT_RANGE[case]
        files = dict(self.float_range_files(tmp_path), euler=workdir["euler_field.json"])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(diraclab.__file__)))
        out = subprocess.run([sys.executable, "-m", "diraclab.cli",
                              *[a.format(**files) for a in argv]],
                             env=env, capture_output=True, text=True, timeout=60)
        report = strict_loads(out.stdout)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert (out.returncode, out.stderr) == (code, "")
        assert error in report["error"]
        assert all(c["status"] == "fail" for c in report["criteria"])

    @pytest.mark.parametrize("command, point", [
        ("bivector", "1e5,1e5,1e5"), ("bivector", "1e4,0,0"), ("dressing", "1e4,0,0"),
        ("bivector", "-3.2,0,0"), ("dressing", "0,0,3.1416")])
    def test_chart_point_outside_the_domain_is_an_input_error(self, command, point):
        # a built-in chart has domain |x| < pi, and each coordinate is capped at
        # pi as for --scale; far out, rounding once broke the induced bivector's
        # skewness, and the report read exit 1 "lost skewness"
        zeta = ["--zeta", "1,0,0,0,0,0"] if command == "dressing" else []
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(diraclab.__file__)))
        out = subprocess.run([sys.executable, "-m", "diraclab.cli", "manin", command,
                              "--builtin", "iwasawa-su2", "--point", point, *zeta],
                             env=env, capture_output=True, text=True, timeout=60)
        report = strict_loads(out.stdout)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert (out.returncode, out.stderr) == (2, "")
        assert "outside the chart domain" in report["error"] and point in report["error"]

    @pytest.mark.parametrize("command", ["bivector", "dressing"])
    def test_chart_point_at_the_domain_cap_is_accepted(self, capsys, command):
        zeta = ["--zeta", "1,0,0,0,0,0"] if command == "dressing" else []
        point = ",".join([repr(math.pi), repr(-math.pi), "0"])
        code, rep = run_and_parse(capsys, ["manin", command, "--builtin", "iwasawa-su2",
                                           "--point", point, *zeta])
        assert code == 0 and "result" in rep

    def test_zero_denominator_through_the_entry_point(self, tmp_path):
        data = self.tensor()
        data["components"][0]["poly"][0]["den"] = 0
        argv = self.bivector_file(tmp_path, data)
        src = os.path.dirname(os.path.dirname(diraclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "diraclab.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "error" in json.loads(out.stdout)

    def triple_file(self, tmp_path, C, dim=2):
        eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
        data = {"dim": dim, "C": C, "B": eye, "g_basis": [eye[0]], "h_basis": [eye[1]]}
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(data))
        return ["manin", "check", "--triple", str(p)]

    def test_triple_inconsistent_orientation_pair(self, capsys, tmp_path):
        C = [{"a": 1, "b": 2, "c": 1, "value": 1}, {"a": 2, "b": 1, "c": 1, "value": 1}]
        rep = self.check_exit_2(capsys, self.triple_file(tmp_path, C))
        assert "antisymmetric" in rep["error"]

    def test_triple_repeated_entry(self, capsys, tmp_path):
        C = [{"a": 1, "b": 2, "c": 1, "value": 1}, {"a": 1, "b": 2, "c": 1, "value": 2}]
        rep = self.check_exit_2(capsys, self.triple_file(tmp_path, C))
        assert "listed twice" in rep["error"]

    def test_triple_missing_dim(self, capsys, tmp_path):
        argv = self.triple_file(tmp_path, [])
        data = json.loads(open(argv[-1]).read())
        del data["dim"]
        open(argv[-1], "w").write(json.dumps(data))
        rep = self.check_exit_2(capsys, argv)
        assert "KeyError" in rep["error"]

    def test_triple_consistent_orientation_pair_accepted(self, capsys, tmp_path):
        # [e1, e2] = e2 listed in both orientations is valid input: the 2-dim
        # nonabelian algebra, which has no invariant nondegenerate metric
        C = [{"a": 1, "b": 2, "c": 2, "value": 1}, {"a": 2, "b": 1, "c": 2, "value": -1}]
        code, rep = run_and_parse(capsys, self.triple_file(tmp_path, C))
        assert code == 1
        assert rep["criteria"][0]["witness"]["kind"] == "ad-invariance"

    def test_file_is_a_directory(self, capsys, tmp_path):
        rep = self.check_exit_2(capsys, ["poisson", "check", "--file", str(tmp_path)])
        assert "cannot read" in rep["error"]

    def test_frame_without_sections(self, capsys, tmp_path):
        p = tmp_path / "frame.json"
        p.write_text(json.dumps({"chart": 2}))
        rep = self.check_exit_2(capsys, ["dirac", "check-integrability", "--frame", str(p)])
        assert "KeyError" in rep["error"]

    def test_oneform_family_powers_not_an_object(self, capsys, tmp_path):
        pi = tmp_path / "pi.json"
        pi.write_text(json.dumps(self.tensor()))
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"powers": [1, 2]}))
        rep = self.check_exit_2(capsys, ["moser", "--poisson", str(pi), "--a-form", str(a)])
        assert "powers" in rep["error"]

    def test_homspace_l_basis_not_a_matrix(self, capsys, tmp_path):
        p = tmp_path / "hs.json"
        p.write_text(json.dumps({"l_basis": 5}))
        rep = self.check_exit_2(
            capsys, ["manin", "homspace", "--builtin", "semidirect-so3", "--data", str(p)])
        assert "TypeError" in rep["error"]

    @pytest.mark.parametrize("data", [
        {"l_basis": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
         "k_basis": [[1, 0]]},
        {"l_basis": [[0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 0]]},
        {"l_basis": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]},
        {"l_basis": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
         "k_generators": [[1, 0]]},
    ], ids=["short-k", "long-l", "short-l", "short-generator"])
    def test_homspace_vector_of_wrong_length(self, capsys, tmp_path, data):
        p = tmp_path / "hs.json"
        p.write_text(json.dumps(data))
        rep = self.check_exit_2(
            capsys, ["manin", "homspace", "--builtin", "semidirect-so3", "--data", str(p)])
        assert "length" in rep["error"]

    @pytest.mark.parametrize("argv", [
        ["manin", "bivector", "--builtin", "iwasawa-su2", "--point", "1,2"],
        ["manin", "dressing", "--builtin", "iwasawa-su2", "--point", "0.1,0.2,0.3",
         "--zeta", "1"],
        ["manin", "dressing", "--builtin", "iwasawa-su2", "--point", "0.1",
         "--zeta", "1,0,0,0,0,0"],
    ])
    def test_manin_point_of_wrong_length(self, capsys, argv):
        rep = self.check_exit_2(capsys, argv)
        assert "coordinates, expected" in rep["error"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["manin", "bivector", "--builtin", "iwasawa-su2", "--point", "V,0,0"],
        ["manin", "dressing", "--builtin", "iwasawa-su2", "--point", "V,0,0",
         "--zeta", "1,0,0,0,0,0"],
        ["manin", "dressing", "--builtin", "iwasawa-su2", "--point", "0.1,0.2,0.3",
         "--zeta", "1,0,0,V,0,0"],
    ])
    def test_non_finite_point_or_zeta(self, capsys, argv, value):
        # inf used to exit 0 with a NaN result
        rep = self.check_exit_2(capsys, [a.replace("V", value) for a in argv])
        assert "non-finite coordinate" in rep["error"]

    def test_non_finite_result_is_an_error_not_nan(self, capsys):
        # a finite but huge zeta overflows Ad_g zeta; its warnings stay inside run
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["manin", "dressing", "--builtin", "iwasawa-su2", "--point", "0.1,0.2,0.3",
                        "--zeta", ",".join(["1e308"] * 6)])
        report = strict_loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert code == 1
        assert "non-finite" in report["error"] and "result" not in report

    def test_error_report_is_written(self, workdir, capsys, tmp_path):
        out = tmp_path / "report.json"
        rep = self.check_exit_2(
            capsys, ["realize", "--poisson", workdir["bad.json"], "--report", str(out)])
        saved = strict_loads(out.read_text())
        jsonschema.validate(saved, REPORT_SCHEMA)
        assert saved["error"] == rep["error"]

    def test_unwritable_report_path(self, workdir, capsys, tmp_path):
        code = run(["realize", "--poisson", workdir["xdxdy.json"], "--samples", "1",
                    "--report", str(tmp_path / "missing-dir" / "report.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write report" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("name, argv", [
        ("realize", ["realize", "--poisson", "PI", "--samples", "0"]),
        ("linearize", ["linearize", "--field", "FIELD", "--samples", "0"]),
        ("moser", ["moser", "--poisson", "PI", "--a-form", "AFORM", "--grid-count", "0"]),
        ("multiplicativity", ["manin", "multiplicativity", "--builtin", "iwasawa-su2",
                              "--pairs", "0"]),
    ])
    def test_empty_sample_counts(self, workdir, capsys, name, argv):
        # zero pairs used to pass vacuously with residual 0
        files = {"PI": workdir["xdxdy.json"], "FIELD": workdir["euler_field.json"],
                 "AFORM": workdir["a_form.json"]}
        rep = self.check_exit_2(capsys, [files.get(a, a) for a in argv])
        assert "must be at least 1" in rep["error"], name

    @pytest.mark.parametrize("argv", [
        *[["manin", "multiplicativity", "--builtin", "iwasawa-su2", "--scale", v]
          for v in ("nan", "inf", "1e300")],
        *[[*cmd, "--step", v] for v in ("nan", "0", "-1") for cmd in (
            ["realize", "--poisson", "PI"], ["moser", "--poisson", "PI", "--a-form", "AFORM"],
            ["linearize", "--field", "FIELD"])],
        ["moser", "--poisson", "PI", "--a-form", "AFORM", "--time", "nan"],
        ["realize", "--poisson", "PI", "--tol", "nan"],
        ["realize", "--poisson", "PI", "--tol", "-1"],
        ["dirac", "check-integrability", "--poisson", "PI", "--tol", "-1"],
        *[["linearize", "--field", "FIELD", "--radius", v] for v in ("nan", "inf")],
        ["moser", "--poisson", "PI", "--a-form", "AFORM", "--grid-radius", "nan"],
        ["realize", "--poisson", "PI", "--seed", "-1"],
        ["realize", "--poisson", "PI", "--samples", "nan"],
    ], ids=lambda argv: " ".join(argv))
    def test_option_outside_its_domain(self, workdir, capsys, argv):
        # each used to pass falsely, exit 1 or end in a traceback
        files = {"PI": workdir["xdxdy.json"], "FIELD": workdir["euler_field.json"],
                 "AFORM": workdir["a_form.json"]}
        rep = self.check_exit_2(capsys, [files.get(a, a) for a in argv])
        assert argv[-2] in rep["error"]


# -- fuzz: every subcommand, mutated option values and JSON inputs --------------

FUZZ_OPTIONS = {
    "realize": ["--samples", "--radius", "--step"],
    "moser": ["--time", "--grid-radius", "--grid-count", "--step"],
    "linearize": ["--radius", "--samples", "--step"],
    "manin multiplicativity": ["--pairs", "--scale"],
}
# no tiny positive value: a step of 1e-300 is rejected by the floor, and
# without it would build a flow of about 1e300 steps
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300"]
# 10**400 as a chart dimension is refused at decode time, as an exponent by
# the exponent cap
FUZZ_JUNK = ["x", None, 1.5, True, [], {}, math.nan, math.inf, 10**400]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz"), fuzz_inputs()


def _json_paths(node, path=()):
    """Every (container path, key) of the JSON tree, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from _json_paths(child, path + (key,))


def _mutate(data, pick: int, how: str, junk):
    data = json.loads(json.dumps(data))
    paths = list(_json_paths(data))
    path, key = paths[pick % len(paths)]
    parent = data
    for k in path:
        parent = parent[k]
    if how == "delete":
        del parent[key]
    elif how == "lengthen" and isinstance(parent[key], list):
        parent[key].append(parent[key][-1] if parent[key] else 0)
    elif how == "shorten" and isinstance(parent[key], list) and parent[key]:
        parent[key].pop()
    else:
        parent[key] = junk
    return data


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
# the options that used to hang, raise or pass falsely, always tried
@example(command="moser", target=2, value="1e300", pick=0, how="junk", junk=None,
         mutate_json=False)
@example(command="moser", target=3, value="1e300", pick=0, how="junk", junk=None,
         mutate_json=False)
@example(command="linearize", target=2, value="1e300", pick=0, how="junk", junk=None,
         mutate_json=False)
@example(command="manin multiplicativity", target=3, value="nan", pick=0, how="junk",
         junk=None, mutate_json=False)
@example(command="manin homspace", target=0, value="0", pick=34, how="junk", junk=10**400,
         mutate_json=True)
@example(command="manin homspace", target=0, value="0", pick=34, how="junk", junk=10**300,
         mutate_json=True)
@given(command=st.sampled_from(sorted(FUZZ_COMMANDS)), target=st.integers(0, 8),
       value=st.sampled_from(FUZZ_VALUES), pick=st.integers(0, 10**6),
       how=st.sampled_from(["junk", "delete", "lengthen", "shorten"]),
       junk=st.sampled_from(FUZZ_JUNK), mutate_json=st.booleans())
def test_cli_fuzz(fuzz_files, command, target, value, pick, how, junk, mutate_json):
    """Exit 0, 1 or 2, a strict-JSON report, no traceback, and no pass on a
    non-finite option value or coordinate."""
    d, data = fuzz_files
    argv = list(FUZZ_COMMANDS[command])
    files = [a for a in argv if a in data]
    non_finite = False
    if mutate_json and files:
        name = files[target % len(files)]
        data = {**data, name: _mutate(data[name], pick, how, junk)}
        non_finite = how == "junk" and isinstance(junk, float) and not math.isfinite(junk)
    else:
        options = ["--seed", "--tol", *FUZZ_OPTIONS.get(command, [])]
        points = [i + 1 for i, a in enumerate(argv) if a in ("--point", "--zeta")]
        k = target % (len(options) + len(points))
        if k < len(options):
            argv.append(f"{options[k]}={value}")
        else:
            coords = argv[points[k - len(options)]].split(",")
            coords[pick % len(coords)] = value
            argv[points[k - len(options)]] = ",".join(coords)
        non_finite = value in ("nan", "inf", "-inf")
    for name in files:
        (d / f"{name}.json").write_text(json.dumps(data[name]))
    argv = [str(d / f"{a}.json") if a in data else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    report = strict_loads(out.getvalue())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    assert code == 0 or report.get("error") or any(
        c["status"] == "fail" for c in report["criteria"])
    if non_finite:
        assert code != 0 and all(c["status"] == "fail" for c in report["criteria"])
