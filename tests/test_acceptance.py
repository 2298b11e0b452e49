"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS/FAIL line on the real stdout (visible regardless of
pytest capture), so a plain `pytest tests/test_acceptance.py` run yields one
line per criterion.
"""

import random
import sys
import time
from fractions import Fraction

import numpy as np

from diraclab._numeric import FlowConfig, worst
from diraclab.fields import (
    Chart,
    PolyKForm,
    PolyKVector,
    PolyMap,
    PolyScalar,
    apply_vector,
    coordinate_form,
    differential,
)
from diraclab.poisson import (
    LieAlgebroidData,
    PoissonBivector,
    TimePolyForm,
    algebroid_to_linear_poisson,
    bracket,
    euler_linearize,
    from_components,
    is_poisson,
    jacobiator,
    lie_poisson,
    linear_poisson_to_algebroid,
    moser_verify,
    so3_constants,
    standard_symplectic_poisson,
)
from diraclab.dirac import (
    GaugeTransform,
    GeneralizedSection,
    check_poisson_map,
    courant_bracket,
    gauge_poisson,
    graph_of_poisson,
    pairing,
)
from diraclab import realization as real_mod
from diraclab import maningroup as manin_mod

from conftest import omega_can, random_form, random_poly, random_vector


RESULT_LINES = []


def report(num, passed, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    RESULT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def xdxdy():
    chart = Chart(2, ("x", "y"))
    return from_components(chart, {(0, 1): chart.coordinate(0)})


def nonpoisson_r3():
    chart = Chart(3, ("x", "y", "z"))
    x, y, z = chart.coordinates()
    return from_components(chart, {(0, 1): z, (1, 2): x, (2, 0): x})


def test_criterion_1_exact_courant_axioms():
    """Eqs (i),(ii),(iii) and the Leibniz rule hold exactly on >=100 random
    polynomial sections per identity (degrees <= 3, dims 2-4), in < 30 s."""
    started = time.perf_counter()
    rng = random.Random(101)
    counts = {"i": 0, "ii": 0, "iii": 0, "leibniz": 0}

    def sec(chart):
        return GeneralizedSection(
            random_vector(rng, chart, max_degree=3, terms=2),
            random_form(rng, chart, 1, max_degree=3, terms=2),
        )

    while min(counts.values()) < 100:
        chart = Chart(rng.randint(2, 4))
        s1, s2, s3 = sec(chart), sec(chart), sec(chart)
        f = random_poly(rng, chart, 2)
        lhs = apply_vector(s1.X, pairing(s2, s3))
        rhs = pairing(courant_bracket(s1, s2), s3) + pairing(s2, courant_bracket(s1, s3))
        assert lhs == rhs
        counts["i"] += 1
        lhs = courant_bracket(s1, courant_bracket(s2, s3))
        rhs = courant_bracket(courant_bracket(s1, s2), s3) + courant_bracket(
            s2, courant_bracket(s1, s3)
        )
        assert lhs.X == rhs.X and lhs.alpha == rhs.alpha
        counts["ii"] += 1
        sym = courant_bracket(s2, s3) + courant_bracket(s3, s2)
        assert sym.X.is_zero() and sym.alpha == differential(pairing(s2, s3))
        counts["iii"] += 1
        lhs = courant_bracket(s1, f * s2)
        rhs = f * courant_bracket(s1, s2) + apply_vector(s1.X, f) * s2
        assert lhs.X == rhs.X and lhs.alpha == rhs.alpha
        counts["leibniz"] += 1

    elapsed = time.perf_counter() - started
    report(1, elapsed < 30.0, f"{counts['i']} sections/identity in {elapsed:.1f}s")


def test_criterion_2_jacobiator_correctness():
    """Exact vanishing for the canonical cases; the designated 3-d bivector
    has component (1,2,3) = -z, first validated by the nested-bracket oracle."""
    ok = True
    for n in (1, 2, 3):
        ok = ok and jacobiator(standard_symplectic_poisson(n)).is_zero()
    rng = random.Random(202)
    chart2 = Chart(2)
    for _ in range(10):
        ok = ok and jacobiator(PoissonBivector(random_vector(rng, chart2, degree=2))).is_zero()
    ok = ok and jacobiator(lie_poisson(so3_constants(), 3)).is_zero()

    pi = nonpoisson_r3()
    x, y, z = pi.chart.coordinates()
    oracle = (
        bracket(pi, x, bracket(pi, y, z))
        + bracket(pi, y, bracket(pi, z, x))
        + bracket(pi, z, bracket(pi, x, y))
    )
    ok = ok and oracle == -z
    ok = ok and jacobiator(pi).components == {(0, 1, 2): -z}
    report(2, ok)


def test_criterion_3_graph_equivalence():
    """The frame tensor of Gr(pi) equals the jacobiator at 50 rational points,
    exactly, for 10 random bivectors."""
    rng = random.Random(303)
    ok = True
    for _ in range(10):
        chart = Chart(3)
        pi = PoissonBivector(random_vector(rng, chart, degree=2, max_degree=2))
        E = graph_of_poisson(pi)
        brackets = {
            (b, c): courant_bracket(E.sections[b], E.sections[c])
            for b in range(3)
            for c in range(b + 1, 3)
        }
        J = jacobiator(pi)
        for _ in range(50):
            pt = tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(3))
            for (b, c), br in brackets.items():
                for a in range(3):
                    lhs = pairing(E.sections[a], br).evaluate_exact(pt)
                    rhs = J.component((a, b, c)).evaluate_exact(pt)
                    ok = ok and lhs == rhs
    report(3, ok)


def test_criterion_4_algebroid_round_trip():
    """Exact round trip on 10 random data sets; Poisson output iff the input
    satisfies Jacobi, with one deliberately broken case failing."""
    rng = random.Random(404)
    ok = True
    for _ in range(10):
        base = Chart(rng.randint(1, 2))
        rank = rng.randint(1, 3)
        anchors = tuple(random_vector(rng, base, max_degree=2) for _ in range(rank))
        constants = {}
        for i in range(rank):
            for j in range(i + 1, rank):
                for k in range(rank):
                    if rng.random() < 0.6:
                        constants[(i, j, k)] = random_poly(rng, base, 1)
        A = LieAlgebroidData(base, rank, anchors, constants)
        pi = algebroid_to_linear_poisson(A)
        B = linear_poisson_to_algebroid(pi, base.dim)
        ok = ok and B.anchors == A.anchors and B.constants == A.constants

    # valid instances are Poisson
    point = Chart(0, ())
    zero = PolyKVector(point, 1, {})
    good = LieAlgebroidData(
        point, 3, (zero,) * 3,
        {k: PolyScalar.constant(point, v) for k, v in so3_constants().items()},
    )
    ok = ok and is_poisson(algebroid_to_linear_poisson(good))
    from diraclab.fields import coordinate_vector

    line = Chart(1, ("s",))
    tangent = LieAlgebroidData(line, 1, (coordinate_vector(line, 0),), {})
    ok = ok and is_poisson(algebroid_to_linear_poisson(tangent))

    broken_c = so3_constants()
    broken_c[(0, 1, 0)] = Fraction(1)
    broken = LieAlgebroidData(
        point, 3, (zero,) * 3,
        {k: PolyScalar.constant(point, v) for k, v in broken_c.items()},
    )
    ok = ok and not is_poisson(algebroid_to_linear_poisson(broken))
    report(4, ok)


def test_criterion_5_gauge_and_moser():
    """Constant gauge matches the (1-c)^{-1} law to 1e-12; the Moser flow for
    a_t = -x dy carries pi_t back to pi_0 below 1e-6 with h = 1e-3, in < 10 s."""
    started = time.perf_counter()
    chart = Chart(2, ("x", "y"))
    pi0 = from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)})
    P = pi0.matrix_at((0.0, 0.0))
    gauge_ok = True
    for c in (0.5, -0.75, 0.9, 0.3):
        g = GaugeTransform(PolyKForm(chart, 2, {(0, 1): PolyScalar.constant(chart, Fraction(c))}))
        got = gauge_poisson(pi0, g, (0.0, 0.0))
        gauge_ok = gauge_ok and np.abs(got - P / (1.0 - c)).max() < 1e-12

    x = chart.coordinate(0)
    a_t = TimePolyForm({0: PolyKForm(chart, 1, {(1,): -x})})
    vals = [-0.4, 0.0, 0.4]
    grid = [(a, b) for a in vals for b in vals]
    rep = moser_verify(pi0, a_t, [0.5, -0.5, 0.25], grid, FlowConfig(step=1e-3))
    elapsed = time.perf_counter() - started
    report(
        5,
        gauge_ok and rep.max_residual < 1e-6 and elapsed < 10.0,
        f"moser residual {rep.max_residual:.2e} in {elapsed:.1f}s",
    )


def closed_form_maps():
    """The known realization maps of (R^2, x dx^dy) out of standard T*R^2."""
    chart_M = Chart(2, ("x", "y"))
    pi_M = from_components(chart_M, {(0, 1): chart_M.coordinate(0)})
    pi_P = standard_symplectic_poisson(2)
    q1, q2, p1, p2 = pi_P.chart.coordinates()
    t_map = PolyMap(pi_P.chart, chart_M, [q1, q2 + p1 * q1])

    def s_map(pt):
        q1v, q2v, p1v, p2v = pt
        return np.array([q1v * np.exp(p2v), q2v])

    def s_jac(pt):
        q1v, q2v, p1v, p2v = pt
        return np.array([
            [np.exp(p2v), 0.0, 0.0, q1v * np.exp(p2v)],
            [0.0, 1.0, 0.0, 0.0],
        ])

    return pi_M, pi_P, t_map, s_map, s_jac


def test_criterion_6_realization_certification():
    """Dual-pair certification below 1e-6 at 20 seeded samples plus the
    closed-form realization maps (exact / 1e-10), in < 60 s."""
    started = time.perf_counter()
    spray = real_mod.default_spray(xdxdy())
    pts = real_mod.sample_points(2, 20, 0.2, seed=0)
    rep = real_mod.verify_dual_pair(
        spray, pts, real_mod.RealizationConfig(step=1e-3), tolerance=1e-6
    )

    pi_M, pi_P, t_map, s_map, s_jac = closed_form_maps()
    t_rep = check_poisson_map(t_map, pi_P, pi_M)
    rng = random.Random(606)
    samples = [[rng.uniform(-0.5, 0.5) for _ in range(4)] for _ in range(20)]
    s_rep = check_poisson_map(s_map, pi_P, pi_M, anti=True, samples=samples, jacobian=s_jac)
    elapsed = time.perf_counter() - started
    detail = (
        f"dual-pair {max(c.max_residual for c in rep.criteria):.2e}, "
        f"s-map {s_rep.max_residual:.2e}, {elapsed:.1f}s"
    )
    report(
        6,
        rep.passed and t_rep.exact is True and s_rep.max_residual < 1e-10
        and elapsed < 60.0,
        detail,
    )


def test_criterion_7_zero_section_structure():
    """On the zero section: omega restricts to omega_can on base vectors
    (1e-10), the section is isotropic, and s o i = t o i = id exactly."""
    spray = real_mod.default_spray(xdxdy())
    config = real_mod.RealizationConfig(step=1e-3)
    Wc = omega_can(2)
    ok = True
    for q in [(-0.8, 0.5), (0.3, 0.9), (1.2, -0.4)]:
        pt = np.array([q[0], q[1], 0.0, 0.0])
        W = real_mod.realization_form(spray, pt, config)
        ok = ok and np.abs(W[:2, :] - Wc[:2, :]).max() < 1e-10
        ok = ok and np.abs(W[:2, :2]).max() < 1e-10
        s, t, _, _ = real_mod.source_target(spray, pt, config)
        ok = ok and np.abs(s - pt[:2]).max() == 0.0 and np.abs(t - pt[:2]).max() == 0.0
    report(7, ok)


def test_criterion_8_invariant_field_relations():
    """Five pairing relations below 1e-6 and three bracket relations below
    1e-4 (finite differences) at 10 samples of the x dx^dy realization."""
    spray = real_mod.default_spray(xdxdy())
    chart = spray.pi.chart
    config = real_mod.RealizationConfig(step=1e-3)
    alpha = coordinate_form(chart, 0)
    beta = PolyKForm(chart, 1, {(1,): chart.coordinate(0)})  # x dy
    pts = real_mod.sample_points(2, 10, 0.15, seed=8, base_offset=(1.0, 0.0))
    pairing, brackets = [], []
    for pt in pts:
        rep = real_mod.invariant_vector_fields(spray, alpha, pt, config, beta=beta)
        pairing.append(rep.max_residual)
        brackets += real_mod.bracket_relations_residual(spray, alpha, beta, pt, config).values()
    worst_pairing, worst_bracket = worst(pairing)[0], worst(brackets)[0]
    report(
        8,
        worst_pairing < 1e-6 and worst_bracket < 1e-4,
        f"pairing {worst_pairing:.2e}, bracket {worst_bracket:.2e}",
    )


def test_criterion_9_manin_suite():
    """Built-ins pass exactly; semidirect bivector vanishes identically and
    every charted bivector vanishes at the unit (1e-12); the su(2) Iwasawa
    structure passes skewness/Jacobi/multiplicativity, with the Jacobiator
    built from the exact partials of the chart bivector; the correspondence
    residuals meet their tolerances.  Runtime < 60 s."""
    started = time.perf_counter()
    ok = True
    catalog = manin_mod.builtin_triples()
    for name, (triple, chart) in catalog.items():
        good, witness = manin_mod.check_manin_triple(triple)
        ok = ok and good

    semi, semi_chart = catalog["semidirect-so3"]
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = 0.8 * rng.uniform(-1, 1, 3)
        ok = ok and np.abs(manin_mod.drinfeld_bivector(semi, semi_chart, x)).max() < 1e-12
    for name, (triple, chart) in catalog.items():
        if chart is None:
            continue
        ok = ok and np.abs(
            manin_mod.drinfeld_bivector(triple, chart, np.zeros(chart.dim))
        ).max() < 1e-12

    iwa, iwa_chart = catalog["iwasawa-su2"]
    sample = [0.6 * rng.uniform(-1, 1, 3) for _ in range(4)]
    for x in sample:
        P = manin_mod.drinfeld_bivector(iwa, iwa_chart, x)
        ok = ok and np.abs(P + P.T).max() < 1e-12
    ok = ok and manin_mod.jacobiator_fd_residual(iwa, iwa_chart, sample) < 1e-10
    pairs = [(0.5 * rng.uniform(-1, 1, 3), 0.5 * rng.uniform(-1, 1, 3)) for _ in range(10)]
    mult = manin_mod.verify_multiplicativity(iwa, iwa_chart, pairs)
    ok = ok and mult["max_residual"] < 1e-10

    # correspondence residuals: closed-form-zero case and the su(2) samples
    z1 = np.array([0, 0, 0, 0.7, -0.2, 0.4])
    z2 = np.array([0, 0, 0, -0.3, 0.5, 0.1])
    semi_res = manin_mod.e_map_residuals(semi, semi_chart, sample[:3], z1, z2)
    ok = ok and worst(list(semi_res.values()))[0] < 1e-12
    w1, w2 = rng.standard_normal(6), rng.standard_normal(6)
    pts10 = [0.7 * rng.uniform(-1, 1, 3) for _ in range(10)]
    iwa_res = manin_mod.e_map_residuals(iwa, iwa_chart, pts10, w1, w2)
    ok = ok and iwa_res["metric"] < 1e-9 and iwa_res["bracket"] < 1e-10
    ok = ok and iwa_res["coframe_derivative"] < 1e-10

    elapsed = time.perf_counter() - started
    report(
        9,
        ok and elapsed < 60.0,
        f"mult {mult['max_residual']:.2e}, e-map bracket {iwa_res['bracket']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_euler_linearization():
    """Conjugation residual of the quadratic perturbation below 1e-5 on the
    0.3-ball."""
    chart = Chart(2, ("x", "y"))
    x, y = chart.coordinates()
    X = PolyKVector(chart, 1, {(0,): x + x * x, (1,): y})
    rng = random.Random(1010)
    pts = []
    while len(pts) < 12:
        p = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        if p[0] ** 2 + p[1] ** 2 <= 0.09:
            pts.append(p)
    rep = euler_linearize(X, pts, FlowConfig(step=1e-3))
    report(10, rep.max_residual < 1e-5, f"residual {rep.max_residual:.2e}")
