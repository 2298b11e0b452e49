import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diraclab.errors import PreconditionError, TransversalityError
from diraclab.fields import (
    Chart,
    PolyKForm,
    PolyKVector,
    PolyMap,
    PolyScalar,
    coordinate_form,
    coordinate_vector,
    differential,
    sort_index,
    exterior_derivative,
    interior_product,
)
from diraclab.poisson import (
    PoissonBivector,
    bracket,
    from_components,
    jacobiator,
    lie_poisson,
    sharp_apply,
    so3_constants,
    standard_symplectic_poisson,
)
from diraclab import dirac as dirac_mod
from diraclab._numeric import span_residual
from diraclab.dirac import (
    GaugeTransform,
    GeneralizedSection,
    LagrangianFrame,
    check_poisson_map,
    courant_bracket,
    gauge_poisson,
    graph_of_form,
    graph_of_poisson,
    integrability_tensor,
    one_form_bracket,
    pairing,
    pullback_dirac_at_point,
)

from conftest import exact_at, random_form, random_poly, random_vector


R2 = Chart(2, ("x", "y"))
R3 = Chart(3, ("x", "y", "z"))


def rand_section(rng, chart, max_degree=3):
    return GeneralizedSection(
        random_vector(rng, chart, max_degree=max_degree),
        random_form(rng, chart, 1, max_degree=max_degree),
    )


def vec(chart, i):
    return GeneralizedSection(coordinate_vector(chart, i), PolyKForm(chart, 1, {}))


def form(chart, i):
    return GeneralizedSection(PolyKVector(chart, 1, {}), coordinate_form(chart, i))


def nonpoisson_r3():
    x, y, z = R3.coordinates()
    return from_components(R3, {(0, 1): z, (1, 2): x, (2, 0): x})


class TestPairing:
    def test_dual_pairs(self):
        assert pairing(vec(R2, 0), form(R2, 0)) == PolyScalar.constant(R2, 1)
        assert pairing(vec(R2, 0), form(R2, 1)).is_zero()

    def test_mixed_example(self):
        x = R2.coordinate(0)
        s1 = GeneralizedSection(
            coordinate_vector(R2, 0), PolyKForm(R2, 1, {(1,): x})
        )
        s2 = GeneralizedSection(coordinate_vector(R2, 1), coordinate_form(R2, 0))
        assert pairing(s1, s2) == x + 1

    def test_symmetric(self, rng):
        for _ in range(5):
            s1, s2 = rand_section(rng, R3), rand_section(rng, R3)
            assert pairing(s1, s2) == pairing(s2, s1)


class TestCourantBracket:
    def test_coordinate_fields_commute(self):
        out = courant_bracket(vec(R2, 0), vec(R2, 1))
        assert out.X.is_zero() and out.alpha.is_zero()

    def test_cartan_example(self):
        y = R2.coordinate(1)
        s = GeneralizedSection(PolyKVector(R2, 1, {}), PolyKForm(R2, 1, {(0,): y}))
        out = courant_bracket(vec(R2, 1), s)
        assert out.X.is_zero()
        assert out.alpha == coordinate_form(R2, 0)

    def test_self_bracket_half_exact(self):
        # s = d/dx + x dx: [[s,s]] = dx = (1/2) d<s,s>
        x = R2.coordinate(0)
        s = GeneralizedSection(coordinate_vector(R2, 0), PolyKForm(R2, 1, {(0,): x}))
        out = courant_bracket(s, s)
        assert out.X.is_zero()
        assert out.alpha == coordinate_form(R2, 0)
        assert pairing(s, s) == 2 * x

    def test_metric_invariance_eq_i(self, rng):
        from diraclab.fields import apply_vector

        for _ in range(20):
            s1, s2, s3 = (rand_section(rng, R3, 2) for _ in range(3))
            lhs = apply_vector(s1.X, pairing(s2, s3))
            rhs = pairing(courant_bracket(s1, s2), s3) + pairing(
                s2, courant_bracket(s1, s3)
            )
            assert lhs == rhs

    def test_jacobi_eq_ii(self, rng):
        for _ in range(10):
            s1, s2, s3 = (rand_section(rng, R3, 2) for _ in range(3))
            lhs = courant_bracket(s1, courant_bracket(s2, s3))
            rhs = courant_bracket(courant_bracket(s1, s2), s3) + courant_bracket(
                s2, courant_bracket(s1, s3)
            )
            assert lhs == rhs

    def test_symmetrization_eq_iii(self, rng):
        for _ in range(20):
            s, t = rand_section(rng, R3), rand_section(rng, R3)
            lhs = courant_bracket(s, t) + courant_bracket(t, s)
            d = differential(pairing(s, t))
            assert lhs.X.is_zero() and lhs.alpha == d

    def test_leibniz(self, rng):
        from diraclab.fields import apply_vector

        for _ in range(10):
            s, t = rand_section(rng, R3, 2), rand_section(rng, R3, 2)
            f = random_poly(rng, R3, 2)
            lhs = courant_bracket(s, f * t)
            rhs = f * courant_bracket(s, t) + apply_vector(s.X, f) * t
            assert lhs == rhs


class TestGraphs:
    def test_zero_bivector_gives_cotangent(self):
        pi = from_components(R2, {})
        E = graph_of_poisson(pi)
        for i, s in enumerate(E.sections):
            assert s.X.is_zero() and s.alpha == coordinate_form(R2, i)

    def test_zero_form_gives_tangent(self):
        E = graph_of_form(PolyKForm(R2, 2, {}))
        for i, s in enumerate(E.sections):
            assert s.alpha.is_zero() and s.X == coordinate_vector(R2, i)

    def test_constant_bivector_frame(self):
        pi = from_components(R2, {(0, 1): PolyScalar.constant(R2, 1)})
        E = graph_of_poisson(pi)
        assert E.sections[0].X == coordinate_vector(R2, 1)
        assert E.sections[1].X == -coordinate_vector(R2, 0)

    def test_frames_are_lagrangian(self, rng):
        pi = nonpoisson_r3()
        E = graph_of_poisson(pi)
        S = E.sections
        assert all(pairing(a, b).is_zero() for i, a in enumerate(S) for b in S[i:])
        assert E.check_lagrangian((0.3, -0.7, 1.1))


class TestIntegrabilityTensor:
    def test_poisson_graph_vanishes(self):
        pi = lie_poisson(so3_constants(), 3)
        assert integrability_tensor(graph_of_poisson(pi), (0.4, -0.2, 0.9)) == {}

    def test_tangent_bundle_vanishes(self):
        E = graph_of_form(PolyKForm(R3, 2, {}))
        assert integrability_tensor(E, (0.0, 0.0, 0.0)) == {}

    def test_matches_jacobiator(self):
        pi = nonpoisson_r3()
        T = integrability_tensor(graph_of_poisson(pi), (0.3, 0.5, -1.2))
        assert T == jacobiator(pi).components
        assert exact_at(T[(0, 1, 2)], (0.3, 0.5, -1.2)) == pytest.approx(1.2)

    @pytest.mark.parametrize("frame", ["so3", "nonpoisson", "form"])
    def test_components_with_one_set_of_brackets(self, monkeypatch, frame):
        E = {"so3": lambda: graph_of_poisson(lie_poisson(so3_constants(), 3)),
             "nonpoisson": lambda: graph_of_poisson(nonpoisson_r3()),
             "form": lambda: graph_of_form(random_form(random.Random(4), R3, 2))}[frame]()
        reference = integrability_reference(E).components
        brackets = []

        def counted(s1, s2):
            brackets.append(1)
            return courant_bracket(s1, s2)

        monkeypatch.setattr(dirac_mod, "courant_bracket", counted)
        assert integrability_tensor(E, (0.3, -0.2, 0.5)) == reference
        assert len(brackets) == 1  # (n-1)(n-2)/2: one per pair b < c with some a < b

    def test_total_antisymmetry(self):
        # on a Lagrangian frame every <s_a, [[s_b, s_c]]> is its sorted
        # component times the permutation sign, and 0 on a repeated index
        E = graph_of_poisson(nonpoisson_r3())
        T, s = integrability_tensor(E, (0.7, 0.1, 0.2)), E.sections
        assert T
        for a, b, c in itertools.product(range(3), repeat=3):
            idx, sign = sort_index((a, b, c))
            expected = T[idx] * sign if idx in T else 0
            assert pairing(s[a], courant_bracket(s[b], s[c])) == expected

    def test_graph_tensor_equals_jacobiator_randomized(self, rng):
        for _ in range(5):
            pib = PoissonBivector(random_vector(rng, R3, degree=2, max_degree=2))
            E = graph_of_poisson(pib)
            pt = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(3))
            Tsym = {
                (a, b, c): pairing(
                    E.sections[a], courant_bracket(E.sections[b], E.sections[c])
                ).evaluate_exact(pt)
                for a in range(3)
                for b in range(3)
                for c in range(b + 1, 3)
            }
            J = jacobiator(pib)
            for (a, b, c), v in Tsym.items():
                assert v == J.component((a, b, c)).evaluate_exact(pt)


class TestOneFormBracket:
    def test_exact_forms(self, rng):
        pi = lie_poisson(so3_constants(), 3)
        for _ in range(10):
            f = random_poly(rng, pi.chart, 2)
            g = random_poly(rng, pi.chart, 2)
            lhs = one_form_bracket(pi, differential(f), differential(g))
            assert lhs == differential(bracket(pi, f, g))

    def test_matches_the_cartan_composition(self, rng):
        # L_{pi#a} b - i_{pi#b} da with L_X = d i_X + i_X d, on forms that are not
        # closed and on bivectors that need not satisfy Jacobi
        x, y, z = R3.coordinates()
        fixed = PoissonBivector(PolyKVector(R3, 2, {(0, 1): z * z, (0, 2): x, (1, 2): x * y}))
        assert not jacobiator(fixed).is_zero()
        contractions = 0
        for k in range(12):
            pi = fixed if k % 2 else PoissonBivector(random_vector(rng, R3, 2, max_degree=2))
            a, b = random_form(rng, R3, 1), random_form(rng, R3, 1)
            Xa, Xb = sharp_apply(pi, a), sharp_apply(pi, b)
            i_Xb_da = interior_product(Xb, exterior_derivative(a))
            L_Xa_b = exterior_derivative(interior_product(Xa, b)) + interior_product(
                Xa, exterior_derivative(b))
            assert one_form_bracket(pi, a, b) == L_Xa_b - i_Xb_da
            contractions += not i_Xb_da.is_zero()
        assert contractions >= 6


class TestGauge:
    def test_closedness_enforced(self):
        z = R3.coordinate(2)
        with pytest.raises(PreconditionError):
            GaugeTransform(PolyKForm(R3, 2, {(0, 1): z}))

    def test_zero_gauge_identity(self):
        pi = standard_symplectic_poisson(1)
        g = GaugeTransform(PolyKForm(pi.chart, 2, {}))
        P = gauge_poisson(pi, g, (0.0, 0.0))
        assert np.abs(P - pi.matrix_at((0.0, 0.0))).max() == 0.0

    def test_constant_scaling_law(self):
        pi = from_components(R2, {(0, 1): PolyScalar.constant(R2, 1)})
        for c in (Fraction(1, 4), Fraction(-2), Fraction(9, 10)):
            g = GaugeTransform(PolyKForm(R2, 2, {(0, 1): PolyScalar.constant(R2, c)}))
            P = gauge_poisson(pi, g, (0.5, -0.3))
            expected = 1.0 / (1.0 - float(c))
            assert P[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_critical_value_raises(self):
        pi = from_components(R2, {(0, 1): PolyScalar.constant(R2, 1)})
        g = GaugeTransform(PolyKForm(R2, 2, {(0, 1): PolyScalar.constant(R2, 1)}))
        with pytest.raises(TransversalityError):
            gauge_poisson(pi, g, (0.0, 0.0))

    def test_near_critical_value_in_dimension_6(self):
        # omega = 0.995 sum dq_i ^ dp_i gives I + Pi W = 0.005 I: condition
        # number 1, although det = 1.6e-14; the gauge, exact over Q and
        # rounded once, returns 200 Pi exactly
        pi = standard_symplectic_poisson(3)
        c = Fraction(199, 200)
        g = GaugeTransform(PolyKForm(pi.chart, 2, {(i, 3 + i): PolyScalar.constant(pi.chart, c)
                                                   for i in range(3)}))
        pt = (0.1, -0.2, 0.3, 0.4, -0.5, 0.6)
        P = gauge_poisson(pi, g, pt)
        assert np.array_equal(P, 200 * pi.matrix_at(pt))

    def test_rank_preserved(self):
        pi = lie_poisson(so3_constants(), 3)
        g = GaugeTransform(
            PolyKForm(pi.chart, 2, {(0, 1): PolyScalar.constant(pi.chart, Fraction(1, 3))})
        )
        pt = (0.2, -0.4, 1.0)
        P0 = pi.matrix_at(pt)
        P1 = gauge_poisson(pi, g, pt)
        assert np.linalg.matrix_rank(P0, tol=1e-10) == np.linalg.matrix_rank(P1, tol=1e-10)
        # ranges agree, not just ranks
        joint = np.column_stack([P0, P1])
        assert np.linalg.matrix_rank(joint, tol=1e-10) == np.linalg.matrix_rank(P0, tol=1e-10)

    def test_section_gauge_bracket_preservation_iff_closed(self, rng):
        closed = PolyKForm(R3, 2, {(0, 1): PolyScalar.constant(R3, 1)})
        z = R3.coordinate(2)
        not_closed = PolyKForm(R3, 2, {(0, 1): z})
        witnesses = [vec(R3, 0), vec(R3, 1), vec(R3, 2), form(R3, 0)]

        def defect(omega):
            def gauge(s):  # R_omega: X + alpha -> X + alpha + i_X omega
                return GeneralizedSection(s.X, s.alpha + interior_product(s.X, omega))

            worst = []
            for s in witnesses:
                for t in witnesses:
                    lhs = courant_bracket(gauge(s), gauge(t))
                    rhs = gauge(courant_bracket(s, t))
                    worst.append((lhs - rhs).X.is_zero() and (lhs - rhs).alpha.is_zero())
            return all(worst)

        assert defect(closed)
        assert not defect(not_closed)


class TestPullback:
    def test_identity_map(self):
        pi = nonpoisson_r3()
        E = graph_of_poisson(pi)
        pt = (0.3, 0.4, 0.5)
        B = pullback_dirac_at_point(PolyMap(R3, R3, R3.coordinates()), E, pt)
        V = np.array(E.exact_at([Fraction(x) for x in pt]), dtype=float).T
        assert span_residual(B[None], V[None])[0] < 1e-10

    def test_axis_inclusion_gives_tangent(self):
        # x-axis in (R^2, d/dx ^ d/dy): the pullback is TN, not a bivector graph
        line = Chart(1, ("u",))
        u = line.coordinate(0)
        phi = PolyMap(line, R2, [u, PolyScalar.zero(line)])
        pi = from_components(R2, {(0, 1): PolyScalar.constant(R2, 1)})
        B = pullback_dirac_at_point(phi, graph_of_poisson(pi), (0.7,))
        # spans {(w, 0)}
        assert B.shape == (2, 1)
        assert abs(B[1, 0]) < 1e-12 and abs(B[0, 0]) == pytest.approx(1.0)

    def test_cosymplectic_axis_gives_zero_bivector_graph(self):
        line = Chart(1, ("u",))
        u = line.coordinate(0)
        phi = PolyMap(line, R3, [PolyScalar.zero(line), PolyScalar.zero(line), u])
        pi = lie_poisson(so3_constants(), 3)
        B = pullback_dirac_at_point(phi, graph_of_poisson(pi), (1.0,))
        # pullback is T*N = graph of the zero bivector, transverse to TN
        assert abs(B[0, 0]) < 1e-12 and abs(B[1, 0]) == pytest.approx(1.0)

    def test_pairing_preserved_through_relation(self, rng):
        src = Chart(2)
        phi = PolyMap(src, R3, [random_poly(rng, src, 2) for _ in range(3)])
        pib = PoissonBivector(random_vector(rng, R3, degree=2, max_degree=1))
        E = graph_of_poisson(pib)
        pt = (0.3, -0.2)
        B = pullback_dirac_at_point(phi, E, pt)
        w, nu = B[:2], B[2:]  # the split pairing of fiber columns (w; nu)
        assert np.abs(w.T @ nu + nu.T @ w).max() < 1e-10

    def test_transversality_failure(self):
        # target direction never reached by anchor nor map differential
        line = Chart(1, ("u",))
        u = line.coordinate(0)
        phi = PolyMap(line, R2, [u, PolyScalar.zero(line)])
        pi = from_components(R2, {})  # zero Poisson: anchor image is 0
        with pytest.raises(TransversalityError):
            pullback_dirac_at_point(phi, graph_of_poisson(pi), (0.0,))


class TestPoissonMap:
    def target_pi(self):
        chart = Chart(2, ("x", "y"))
        x = chart.coordinate(0)
        return from_components(chart, {(0, 1): x}), chart

    def test_closed_form_realization_target_map(self):
        pi_M, chart_M = self.target_pi()
        pi_P = standard_symplectic_poisson(2)
        q1, q2, p1, p2 = pi_P.chart.coordinates()
        phi = PolyMap(pi_P.chart, chart_M, [q1, q2 + p1 * q1])
        rep = check_poisson_map(phi, pi_P, pi_M)
        assert rep.exact is True

    def test_identity_map(self):
        pi = lie_poisson(so3_constants(), 3)
        rep = check_poisson_map(PolyMap(pi.chart, pi.chart, pi.chart.coordinates()), pi, pi)
        assert rep.exact is True

    def test_closed_form_source_map_numeric_anti(self):
        # s(q,p) = (q1 e^{p2}, q2) is anti-Poisson onto (R^2, x d/dx ^ d/dy)
        pi_M, chart_M = self.target_pi()
        pi_P = standard_symplectic_poisson(2)

        def smap(pt):
            q1, q2, p1, p2 = pt
            return np.array([q1 * np.exp(p2), q2])

        def sjac(pt):
            q1, q2, p1, p2 = pt
            return np.array([
                [np.exp(p2), 0.0, 0.0, q1 * np.exp(p2)],
                [0.0, 1.0, 0.0, 0.0],
            ])

        rng = random.Random(3)
        samples = [[rng.uniform(-0.5, 0.5) for _ in range(4)] for _ in range(12)]
        rep = check_poisson_map(smap, pi_P, pi_M, anti=True, samples=samples, jacobian=sjac)
        assert rep.max_residual < 1e-10

    def test_wrong_map_detected(self):
        pi_M, chart_M = self.target_pi()
        pi_P = standard_symplectic_poisson(2)
        q1, q2, p1, p2 = pi_P.chart.coordinates()
        phi = PolyMap(pi_P.chart, chart_M, [q1, q2])
        rep = check_poisson_map(phi, pi_P, pi_M)
        assert rep.exact is False


def pushed_reference(phi, pi_source, pi_target, anti) -> bool:
    """d phi . Pi_source . d phi^T = (+/-) Pi_target o phi, every entry summed as
    sum_ab J[i][a] S[a][b] J[j][b] from the symbolic Jacobian, in plain products and sums."""
    J, S = phi.jacobian(), pi_source.component_matrix()
    k, m = phi.source.dim, phi.target.dim
    zero = PolyScalar.zero(phi.source)
    return all(sum((J[i][a] * S[a][b] * J[j][b] for a in range(k) for b in range(k)), zero)
               == (-1 if anti else 1) * phi.compose_scalar(pi_target.pi.component((i, j)))
               for i in range(m) for j in range(m))


RATIONALS = st.fractions(-3, 3, max_denominator=4)
NONZERO = RATIONALS.filter(bool)


def univariate(chart, k, coefficients) -> PolyScalar:
    """sum_d coefficients[d] x_k^d on the chart."""
    x = chart.coordinate(k)
    return sum((c * x ** d for d, c in enumerate(coefficients)), PolyScalar.zero(chart))


class TestPoissonMapAsBrackets:
    """The exact verdict, {phi^i, phi^j} = (+/-) Pi_target^ij o phi, agrees with
    d phi . Pi_source . d phi^T formed entry by entry, for both signs."""

    SOURCES = [standard_symplectic_poisson(2), lie_poisson(so3_constants(), 3),
               from_components(Chart(2), {(0, 1): Chart(2).coordinate(0)})]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(which=st.integers(0, 2), k=st.integers(0, 1), m=st.integers(1, 3), data=st.data())
    def test_a_map_through_one_coordinate_into_zero(self, which, k, m, data):
        # {f(x_k), g(x_k)} = f' g' {x_k, x_k} = 0
        pi = self.SOURCES[which]
        comps = [univariate(pi.chart, k, data.draw(st.lists(RATIONALS, max_size=4)))
                 for _ in range(m)]
        phi, zero = PolyMap(pi.chart, Chart(m), comps), from_components(Chart(m), {})
        for anti in (False, True):
            assert check_poisson_map(phi, pi, zero, anti=anti).exact is True
            assert pushed_reference(phi, pi, zero, anti)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(c=NONZERO, lam=NONZERO, r=st.one_of(st.sampled_from([1, -1]), NONZERO),
           g=st.lists(RATIONALS, max_size=4))
    def test_the_realization_target_family(self, c, lam, r, g):
        # phi = (c q1, lam (q2 + p1 q1) + g(q1)) onto lam' x d_x^d_y, lam' = r lam:
        # {phi^1, phi^2} = c lam q1, so phi is Poisson iff r = 1 and anti-Poisson iff r = -1
        source, M = standard_symplectic_poisson(2), Chart(2)
        q1, q2, p1, _ = source.chart.coordinates()
        phi = PolyMap(source.chart, M, [c * q1, lam * (q2 + p1 * q1)
                                        + univariate(source.chart, 0, g)])
        target = from_components(M, {(0, 1): r * lam * M.coordinate(0)})
        for anti in (False, True):
            verdict = check_poisson_map(phi, source, target, anti=anti).exact
            assert verdict is pushed_reference(phi, source, target, anti)
            assert verdict is (r == (-1 if anti else 1))


def integrability_reference(E):
    """<s_a, [[s_b, s_c]]> for a < b < c as an exact 3-vector: the components
    of a totally antisymmetric tensor."""
    s = E.sections
    return PolyKVector(E.chart, 3, {
        (a, b, c): pairing(s[a], courant_bracket(s[b], s[c]))
        for a in range(3) for b in range(a + 1, 3) for c in range(b + 1, 3)})


class TestFrameValidation:
    def test_non_lagrangian_frame_rejected(self):
        # sections (d/dx, d/dx + dx) have a nonzero pairing: not isotropic
        sections = [
            GeneralizedSection(coordinate_vector(R2, 0), PolyKForm(R2, 1, {})),
            GeneralizedSection(coordinate_vector(R2, 0), coordinate_form(R2, 0)),
        ]
        E = LagrangianFrame(R2, sections=sections)
        with pytest.raises(PreconditionError):
            integrability_tensor(E, (0.0, 0.0))

    def test_rank_deficient_frame_rejected(self):
        sections = [
            GeneralizedSection(coordinate_vector(R2, 0), PolyKForm(R2, 1, {})),
            GeneralizedSection(coordinate_vector(R2, 0), PolyKForm(R2, 1, {})),
        ]
        E = LagrangianFrame(R2, sections=sections)
        assert not E.check_lagrangian((0.3, 0.4))


class TestScaleFreeRank:
    """Numeric fiber ranks count singular values against the largest, and a
    frame's Lagrangian check is exact (zero Gram polynomials, rank at a
    rational point), so a verdict does not depend on the units of the frame
    or of the bivector."""

    SCALES = (Fraction(1, 10**11), Fraction(1, 10**6), 1, 10**11)

    @pytest.mark.parametrize("c", SCALES, ids=str)
    def test_tangent_frame_is_lagrangian(self, c):
        E = LagrangianFrame(R2, sections=[
            GeneralizedSection(coordinate_vector(R2, i) * c, PolyKForm(R2, 1, {}))
            for i in range(2)])
        assert E.check_lagrangian((0.3, 0.4))
        assert integrability_tensor(E, (0.3, 0.4)) == {}

    @pytest.mark.parametrize("c", SCALES, ids=str)
    def test_non_isotropic_frame_is_not(self, c):
        # <(c d/dx, 0), (c d/dy, c dx)> = c^2
        E = LagrangianFrame(R2, sections=[
            GeneralizedSection(coordinate_vector(R2, 0) * c, PolyKForm(R2, 1, {})),
            GeneralizedSection(coordinate_vector(R2, 1) * c, coordinate_form(R2, 0) * c)])
        assert not E.check_lagrangian((0.3, 0.4))

    @pytest.mark.parametrize("c", SCALES, ids=str)
    def test_pullback_transversality(self, c):
        # Gr(c pi_so3) along u -> (0, 0, u) at u = 1: the anchor spans the
        # (x, y) plane and d phi the z axis, so the pullback is transverse for
        # every c != 0, and its fiber is spanned by (0, du)
        pi = PoissonBivector(lie_poisson(so3_constants(), 3).pi * c)
        u = Chart(1, ("u",)).coordinate(0)
        line = PolyMap(u.chart, pi.chart, [0 * u, 0 * u, u])
        B = pullback_dirac_at_point(line, graph_of_poisson(pi), (1.0,))
        assert span_residual(B, np.array([[0.0], [1.0]])) <= 1e-12
        # along the identity the pullback is Gr(c pi) itself: three directions,
        # the Casimir's (0, dC) among them
        B = pullback_dirac_at_point(PolyMap(pi.chart, pi.chart, pi.chart.coordinates()),
                                    graph_of_poisson(pi), (0.3, -0.2, 0.5))
        assert B.shape == (6, 3)

