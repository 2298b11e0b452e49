import random
from fractions import Fraction

import numpy as np
import pytest

from diraclab._numeric import FlowConfig
from diraclab.errors import DegreeError, PreconditionError, ShapeError
from diraclab.fields import (
    Chart,
    PolyKForm,
    PolyKVector,
    PolyScalar,
    coordinate_vector,
    differential,
    vector_bracket,
)
from diraclab.poisson import (
    LieAlgebroidData,
    PoissonBivector,
    TimePolyForm,
    algebroid_to_linear_poisson,
    bracket,
    euler_linearize,
    from_components,
    gauge_family,
    is_poisson,
    jacobi_violation,
    jacobiator,
    leaf_data_at_point,
    lie_poisson,
    linear_poisson_to_algebroid,
    moser_verify,
    normalize_structure_constants,
    sharp_apply,
    so3_constants,
    standard_symplectic_poisson,
)
from diraclab import poisson
from diraclab.poisson import _moser_field

from conftest import dense_exact, field_at_points, random_poly, random_vector


def jac_oracle(pi, f, g, h):
    """Independent route: Jac(f,g,h) by nested brackets."""
    return (
        bracket(pi, f, bracket(pi, g, h))
        + bracket(pi, g, bracket(pi, h, f))
        + bracket(pi, h, bracket(pi, f, g))
    )


def nonpoisson_r3():
    """pi = z dx^dy + x dy^dz + x dz^dx on R^3."""
    chart = Chart(3, ("x", "y", "z"))
    x, y, z = chart.coordinates()
    return from_components(chart, {(0, 1): z, (1, 2): x, (2, 0): x})


class TestBracket:
    def test_phase_space(self):
        pi = standard_symplectic_poisson(1)
        q, p = pi.chart.coordinates()
        assert bracket(pi, q, p) == PolyScalar.constant(pi.chart, 1)

    def test_antisymmetry_diag(self, rng):
        pi = nonpoisson_r3()
        for _ in range(5):
            f = random_poly(rng, pi.chart)
            assert bracket(pi, f, f).is_zero()

    def test_so3_lie_poisson(self):
        pi = lie_poisson(so3_constants(), 3)
        m1, m2, m3 = pi.chart.coordinates()
        assert bracket(pi, m1, m2) == m3
        assert bracket(pi, m2, m3) == m1

    def test_leibniz(self, rng):
        pi = nonpoisson_r3()
        for _ in range(10):
            f, g, h = (random_poly(rng, pi.chart, 2) for _ in range(3))
            assert bracket(pi, f, g * h) == bracket(pi, f, g) * h + g * bracket(pi, f, h)


class TestJacobiator:
    def test_constant_is_poisson(self):
        for n in (1, 2, 3):
            assert jacobiator(standard_symplectic_poisson(n)).is_zero()

    def test_dim2_always_poisson(self, rng):
        chart = Chart(2)
        for _ in range(10):
            pi = PoissonBivector(random_vector(rng, chart, degree=2))
            assert is_poisson(pi)

    def test_r3_example_component(self):
        pi = nonpoisson_r3()
        z = pi.chart.coordinate(2)
        J = jacobiator(pi)
        assert J.components == {(0, 1, 2): -z}
        assert not is_poisson(pi)

    def test_matches_nested_bracket_oracle(self, rng):
        pi = nonpoisson_r3()
        x, y, z = pi.chart.coordinates()
        assert jac_oracle(pi, x, y, z) == -z
        for _ in range(5):
            chart = Chart(3)
            pib = PoissonBivector(random_vector(rng, chart, degree=2, max_degree=2))
            J = jacobiator(pib)
            coords = chart.coordinates()
            for (i, j, k) in [(0, 1, 2)]:
                assert J.component((i, j, k)) == jac_oracle(
                    pib, coords[i], coords[j], coords[k]
                )

    def test_oracle_antisymmetry(self, rng):
        pi = nonpoisson_r3()
        f, g, h = (random_poly(rng, pi.chart, 2) for _ in range(3))
        assert jac_oracle(pi, f, g, h) == -jac_oracle(pi, g, f, h)
        assert jac_oracle(pi, f, g, h) == jac_oracle(pi, g, h, f)


class TestHamiltonian:
    """X_f = pi^#(df), the Hamiltonian vector field of f."""

    def test_standard(self):
        pi = standard_symplectic_poisson(1)
        q, p = pi.chart.coordinates()
        # oracle: bracket with coordinates
        Xq = sharp_apply(pi, differential(q))
        assert Xq == coordinate_vector(pi.chart, 1)
        assert bracket(pi, q, q) == PolyScalar.zero(pi.chart)
        assert bracket(pi, q, p) == PolyScalar.constant(pi.chart, 1)

    def test_constant_hamiltonian(self):
        pi = standard_symplectic_poisson(2)
        f = PolyScalar.constant(pi.chart, 7)
        assert sharp_apply(pi, differential(f)).is_zero()

    def test_bracket_homomorphism(self, rng):
        pi = lie_poisson(so3_constants(), 3)
        for _ in range(8):
            f = random_poly(rng, pi.chart, 2)
            g = random_poly(rng, pi.chart, 2)
            Xf, Xg = (sharp_apply(pi, differential(h)) for h in (f, g))
            assert vector_bracket(Xf, Xg) == sharp_apply(pi, differential(bracket(pi, f, g)))

    def test_xf_applies_as_bracket(self, rng):
        pi = standard_symplectic_poisson(2)
        from diraclab.fields import apply_vector

        f = random_poly(rng, pi.chart, 2)
        g = random_poly(rng, pi.chart, 2)
        assert apply_vector(sharp_apply(pi, differential(f)), g) == bracket(pi, f, g)


class TestLiePoisson:
    def test_so3_formula(self):
        pi = lie_poisson(so3_constants(), 3)
        m1, m2, m3 = pi.chart.coordinates()
        assert pi.pi.components == {(0, 1): m3, (1, 2): m1, (0, 2): -m2}
        assert is_poisson(pi)

    def test_abelian(self):
        assert lie_poisson({}, 3).pi.is_zero()

    def test_two_dim_algebra(self):
        pi = lie_poisson({(0, 1, 0): Fraction(1)}, 2)
        x = pi.chart.coordinate(0)
        assert pi.pi.components == {(0, 1): x}

    def test_poisson_iff_jacobi(self):
        broken = so3_constants()
        broken[(0, 1, 0)] = Fraction(1)  # [e1,e2] = e3 + e1 breaks Jacobi
        assert jacobi_violation(normalize_structure_constants(broken, 3)) is not None
        assert not is_poisson(lie_poisson(broken, 3))
        assert jacobi_violation(normalize_structure_constants(so3_constants(), 3)) is None

    def test_rejects_symmetric(self):
        with pytest.raises(ShapeError):
            lie_poisson({(0, 0, 1): Fraction(1)}, 2)


class TestAlgebroidDictionary:
    def tangent_algebroid_1d(self):
        base = Chart(1, ("x",))
        return LieAlgebroidData(base, 1, (coordinate_vector(base, 0),), {})

    def test_tangent_bundle_case(self):
        pi = algebroid_to_linear_poisson(self.tangent_algebroid_1d())
        # pi = d/dy ^ d/dx = -(d/dx ^ d/dy)
        assert pi.pi.components == {(0, 1): PolyScalar.constant(pi.chart, -1)}
        assert is_poisson(pi)

    def test_zero_anchor_reduces_to_lie_poisson(self):
        from diraclab import jsonio

        base = Chart(0, ())
        zero = PolyKVector(base, 1, {})
        A = LieAlgebroidData(
            base, 3, (zero,) * 3,
            {k: PolyScalar.constant(base, v) for k, v in so3_constants().items()},
        )
        pi = algebroid_to_linear_poisson(A)
        # the same components on the fiber chart (y1, y2, y3) as on (mu1, mu2, mu3)
        ref = lie_poisson(so3_constants(), 3)
        assert jsonio.tensor_to_json(pi.pi) == jsonio.tensor_to_json(ref.pi)

    def test_round_trip_random(self, rng):
        base = Chart(2)
        for _ in range(10):
            rank = rng.randint(1, 3)
            anchors = tuple(random_vector(rng, base, max_degree=2) for _ in range(rank))
            constants = {}
            for i in range(rank):
                for j in range(i + 1, rank):
                    for k in range(rank):
                        if rng.random() < 0.5:
                            constants[(i, j, k)] = random_poly(rng, base, 1)
            A = LieAlgebroidData(base, rank, anchors, constants)
            pi = algebroid_to_linear_poisson(A)
            B = linear_poisson_to_algebroid(pi, base.dim)
            assert B.anchors == A.anchors
            assert B.constants == A.constants

    def test_broken_constants_fail_jacobi(self):
        base = Chart(0, ())
        zero = PolyKVector(base, 1, {})
        broken = so3_constants()
        broken[(0, 1, 0)] = Fraction(1)
        A = LieAlgebroidData(
            base, 3, (zero,) * 3,
            {k: PolyScalar.constant(base, v) for k, v in broken.items()},
        )
        assert not is_poisson(algebroid_to_linear_poisson(A))

    def test_split_extraction_example(self):
        # pi = x d/dx ^ d/dy with split 1|1: rank-1 data, anchor -x d/dx
        chart = Chart(2, ("x", "y"))
        x = chart.coordinate(0)
        pi = from_components(chart, {(0, 1): x})
        A = linear_poisson_to_algebroid(pi, 1)
        assert A.rank == 1 and A.constants == {}
        assert A.anchors[0].components == {(0,): -A.base.coordinate(0)}

    def test_so3_split_0_3(self):
        pi = lie_poisson(so3_constants(), 3)
        A = linear_poisson_to_algebroid(pi, 0)
        got = {k: v.terms[()] for k, v in A.constants.items()}
        assert got == normalize_structure_constants(so3_constants(), 3)

    def test_nonlinear_rejected_with_components(self):
        chart = Chart(2, ("x", "y"))
        y = chart.coordinate(1)
        pi = from_components(chart, {(0, 1): y * y})
        with pytest.raises(DegreeError) as e:
            linear_poisson_to_algebroid(pi, 1)
        assert "(1, 2" in str(e.value)

    def test_fiber_homogeneity(self):
        A = self.tangent_algebroid_1d()
        pi = algebroid_to_linear_poisson(A)
        m = A.base.dim
        for (i, j), p in pi.pi.components.items():
            want = (1 if i >= m else 0) + (1 if j >= m else 0) - 1
            degs = {sum(e[m:]) for e in p.terms}
            assert degs == {want}


class TestLeafData:
    def test_symplectic_full_rank(self):
        pi = standard_symplectic_poisson(2)
        leaf = leaf_data_at_point(pi, (0.3, -1.0, 2.0, 0.7))
        assert leaf.rank == 4
        P = pi.matrix_at(leaf.point)
        piS = leaf.basis.T @ P @ leaf.basis
        assert np.abs(leaf.omega @ (-piS) - np.eye(4)).max() < 1e-10

    def test_so3_origin_rank_zero(self):
        pi = lie_poisson(so3_constants(), 3)
        assert leaf_data_at_point(pi, (0.0, 0.0, 0.0)).rank == 0

    def test_so3_sphere_leaf(self):
        pi = lie_poisson(so3_constants(), 3)
        leaf = leaf_data_at_point(pi, (0.0, 0.0, 1.0))
        assert leaf.rank == 2
        # leaf tangent lies in span(d/dmu1, d/dmu2)
        assert np.abs(leaf.basis[2, :]).max() < 1e-12
        piS = leaf.basis.T @ pi.matrix_at((0.0, 0.0, 1.0)) @ leaf.basis
        assert np.abs(leaf.omega @ (-piS) - np.eye(2)).max() < 1e-10

    def test_so3_generic_point_rank_two(self):
        pi = lie_poisson(so3_constants(), 3)
        leaf = leaf_data_at_point(pi, (0.3, -0.2, 0.5))
        assert leaf.rank == 2 and leaf.omega.shape == (2, 2)

    def test_rank_is_exact_at_a_tiny_block(self):
        # d1^d2 + 1e-11 d3^d4 is symplectic: a relative SVD threshold of 1e-10
        # used to report rank 2 and drop the small block
        chart = Chart(4)
        pi = from_components(chart, {(0, 1): PolyScalar.constant(chart, 1),
                                     (2, 3): PolyScalar.constant(chart, Fraction(1, 10**11))})
        leaf = leaf_data_at_point(pi, (0.0, 0.0, 0.0, 0.0))
        assert leaf.rank == 4
        assert sorted(np.abs(leaf.omega).max(axis=1)) == pytest.approx([1, 1, 1e11, 1e11])

    def test_rank_past_the_float_range_is_an_overflow(self):
        # x^2 at 1e-200 is a nonzero rational but 0.0 as a float: rank 2, no float form
        chart = Chart(2)
        pi = from_components(chart, {(0, 1): chart.coordinate(0) ** 2})
        with pytest.raises(OverflowError, match="leaf form"):
            leaf_data_at_point(pi, (1e-200, 0.0))


class TestGaugePointwise:
    """The constant gauge of d_x ^ d_y, through the one numeric gauge path."""

    @staticmethod
    def gauge(c):
        from diraclab.dirac import GaugeTransform

        chart = Chart(2, ("x", "y"))
        pi = from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)})
        omega = PolyKForm(chart, 2, {(0, 1): PolyScalar.constant(chart, Fraction(c))})
        return pi, GaugeTransform(omega)

    def test_constant_closed_form(self):
        from diraclab.dirac import gauge_poisson

        for c in (0.25, -1.0, 0.9):
            pi, g = self.gauge(c)
            P = pi.matrix_at((0.0, 0.0))
            got = gauge_poisson(pi, g, (0.0, 0.0))
            assert np.abs(got - P / (1 - c)).max() < 1e-12

    def test_degenerate_raises(self):
        from diraclab.dirac import gauge_poisson
        from diraclab.errors import TransversalityError

        pi, g = self.gauge(1)
        with pytest.raises(TransversalityError) as e:
            gauge_poisson(pi, g, (0.0, 0.0))
        assert e.value.point == (0.0, 0.0)


class TestMoser:
    def chart(self):
        return Chart(2, ("x", "y"))

    def pi0(self):
        chart = self.chart()
        return from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)})

    def grid(self):
        vals = [-0.4, 0.0, 0.5]
        return [(a, b) for a in vals for b in vals]

    def test_zero_family_identity(self):
        chart = self.chart()
        a = TimePolyForm({0: PolyKForm(chart, 1, {})})
        rep = moser_verify(self.pi0(), a, [0.5], self.grid())
        assert rep.max_residual < 1e-14

    def test_constant_gauge_example(self):
        # a_t = -x dy, so omega_t = t dx^dy and pi_t = (1-t)^{-1} pi_0
        chart = self.chart()
        x = chart.coordinate(0)
        a = TimePolyForm({0: PolyKForm(chart, 1, {(1,): -x})})
        rep = moser_verify(self.pi0(), a, [0.5, -0.5, 0.25], self.grid(),
                           FlowConfig(step=1e-3))
        assert rep.max_residual < 1e-6

    def test_exact_hamiltonian_case(self):
        # a_t = df: the gauge family is trivial and the flow is Hamiltonian
        chart = self.chart()
        x, y = chart.coordinates()
        f = x * x * y
        a = TimePolyForm({0: differential(f)})
        rep = moser_verify(self.pi0(), a, [0.5], self.grid(), FlowConfig(step=1e-3))
        assert rep.max_residual < 1e-8


class TestEulerLinearize:
    def euler_plus(self, extra):
        chart = Chart(2, ("x", "y"))
        x, y = chart.coordinates()
        comps = {(0,): x, (1,): y}
        for idx, p in extra.items():
            comps[idx] = comps.get(idx, PolyScalar.zero(chart)) + p
        return PolyKVector(chart, 1, comps)

    def ball_samples(self, r=0.3, k=12):
        rng = random.Random(7)
        out = []
        while len(out) < k:
            p = (rng.uniform(-r, r), rng.uniform(-r, r))
            if p[0] ** 2 + p[1] ** 2 <= r * r:
                out.append(p)
        return out

    def test_pure_euler_identity(self):
        X = self.euler_plus({})
        rep = euler_linearize(X, self.ball_samples())
        assert rep.max_residual == 0.0
        assert np.abs(rep.images - rep.points).max() == 0.0

    def test_quadratic_perturbation(self):
        chart = Chart(2, ("x", "y"))
        x, y = chart.coordinates()
        X = self.euler_plus({(0,): x * x})
        rep = euler_linearize(X, self.ball_samples(), FlowConfig(step=1e-3))
        assert rep.max_residual < 1e-5

    def test_mixed_perturbation(self):
        chart = Chart(2, ("x", "y"))
        x, y = chart.coordinates()
        X = self.euler_plus({(0,): x * y, (1,): x * x})
        rep = euler_linearize(X, self.ball_samples(), FlowConfig(step=1e-3))
        assert rep.max_residual < 1e-5

    def test_flow_conjugation_oracle(self):
        # independent route: phi_1(Phi^X_t(x)) = e^{-t} phi_1(x)
        chart = Chart(2, ("x", "y"))
        x, y = chart.coordinates()
        X = self.euler_plus({(0,): x * x})
        pts = np.array(self.ball_samples(k=6))
        rep = euler_linearize(X, pts, FlowConfig(step=1e-3))
        from diraclab._numeric import FlowConfig as FC, compile_tensors, flow_points

        cf = compile_tensors([X], partials=True)
        t = 0.37
        moved, _ = flow_points(cf.bind, pts, t, FC(step=1e-3))
        rep2 = euler_linearize(X, moved, FlowConfig(step=1e-3))
        assert np.abs(rep2.images - np.exp(-t) * rep.images).max() < 1e-6

    def test_non_euler_rejected(self):
        chart = Chart(2, ("x", "y"))
        x, y = chart.coordinates()
        X = PolyKVector(chart, 1, {(0,): 2 * x, (1,): y})
        with pytest.raises(PreconditionError):
            euler_linearize(X, [(0.1, 0.1)])


class TestMoserTransversality:
    def test_degenerate_gauge_named_point(self):
        from diraclab.errors import TransversalityError

        chart = Chart(2, ("x", "y"))
        pi0 = from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)})
        x = chart.coordinate(0)
        a = TimePolyForm({0: PolyKForm(chart, 1, {(1,): -x})})
        # at t = 1 the family pi_t = (1-t)^{-1} pi_0 degenerates
        with pytest.raises(TransversalityError):
            moser_verify(pi0, a, [1.0], [(0.2, 0.3)], FlowConfig(step=1e-2))


class TestMoserAnalyticField:
    """The Moser field X_t = ((I + Pi W_t)^{-1} Pi)^T a_t and its exact Jacobian
    against a pointwise evaluation and a Richardson central difference."""

    @staticmethod
    def family(name):
        if name == "r2":
            chart = Chart(2, ("x", "y"))
            pi0 = from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)})
            return pi0, TimePolyForm({0: PolyKForm(chart, 1, {(1,): -chart.coordinate(0)})})
        if name == "xdxdy":
            chart = Chart(2, ("x", "y"))
            x = chart.coordinate(0)
            pi0 = from_components(chart, {(0, 1): x})
            one = PolyScalar.constant(chart, 1)
            return pi0, TimePolyForm({0: PolyKForm(chart, 1, {(1,): -one}),
                                      1: PolyKForm(chart, 1, {(1,): -x})})
        if name == "dim4":  # the oscillator algebra [e1,e2]=e3, [e4,e1]=e2, [e4,e2]=-e1
            pi0 = lie_poisson({(0, 1, 2): 1, (3, 0, 1): 1, (3, 1, 0): -1}, 4)
            m = pi0.chart.coordinates()
            q = Fraction(1, 8)
            return pi0, TimePolyForm({
                0: PolyKForm(pi0.chart, 1, {(0,): q * m[1] * m[3], (2,): q * m[0],
                                            (3,): -q * m[2]}),
                1: PolyKForm(pi0.chart, 1, {(1,): q * m[0] * m[0], (3,): q * m[1]}),
            })
        if name == "dim6":  # so(3)* + so(3)*
            c = so3_constants()
            pi0 = lie_poisson({**c, **{(i + 3, j + 3, k + 3): v for (i, j, k), v in c.items()}}, 6)
            m = pi0.chart.coordinates()
            q = Fraction(1, 8)
            return pi0, TimePolyForm({
                0: PolyKForm(pi0.chart, 1, {(0,): q * m[4], (2,): q * m[3] * m[1],
                                            (5,): -q * m[0]}),
                1: PolyKForm(pi0.chart, 1, {(1,): q * m[2] * m[5], (4,): q * m[0]}),
            })
        pi0 = lie_poisson(so3_constants(), 3)
        m1, m2, m3 = pi0.chart.coordinates()
        q = Fraction(1, 4)
        return pi0, TimePolyForm({
            0: PolyKForm(pi0.chart, 1, {(0,): q * m2 * m3, (1,): -q * m1, (2,): q * m1 * m2}),
            1: PolyKForm(pi0.chart, 1, {(0,): q * m3, (1,): q * m1 * m1, (2,): -q * m2}),
        })

    @staticmethod
    def point_field(pi0, a_t):
        """X_t and DX_t at points: the flow field's writer on [x | I | t | 1]."""
        return field_at_points(_moser_field(pi0, a_t)[1])

    @staticmethod
    def bound_writer(monkeypatch, pi0, a_t, pts, t, J):
        """The writer of the flow field bound to the state [x | J | t | 1], its
        row, and the field's table, caught as `_moser_field` compiles it."""
        tables, compile_tensors = [], poisson.compile_tensors
        with monkeypatch.context() as m:
            m.setattr(poisson, "compile_tensors",
                      lambda *a, **k: tables.append(compile_tensors(*a, **k)) or tables[0])
            field = _moser_field(pi0, a_t)[1]
        B, n = pts.shape
        state = np.concatenate([pts, J.reshape(B, n * n), np.full((B, 1), t), np.ones((B, 1))],
                               axis=1)
        row = np.zeros_like(state)
        return field(state, row), row, tables[0]

    @pytest.mark.parametrize("name", ["so3", "dim6"])
    def test_writer_matches_reference_bit_for_bit(self, monkeypatch, name):
        # the reference splits the table's values at points and forms u = A^{-T} a,
        # X = Pi^T u and DX = d Pi^T u + Pi^T A^{-T} (d a - d A^T u) as temporaries
        pi0, a_t = self.family(name)
        n = pi0.chart.dim
        rng = np.random.default_rng(5)
        pts, J = rng.uniform(-0.5, 0.5, size=(7, n)), rng.uniform(-1, 1, size=(7, n, n))
        for t in (0.4, -0.3):
            write, row, packed = self.bound_writer(monkeypatch, pi0, a_t, pts, t, J)
            write()
            vals, parts = packed(pts, t)
            P, A = vals[:, n:].reshape(-1, n, 2, n).transpose(2, 0, 1, 3)
            PT, AiT = P.swapaxes(1, 2), np.linalg.inv(A).swapaxes(1, 2)
            u = AiT @ vals[:, :n, None]
            dPu, dATu = (u.swapaxes(1, 2) @ parts[:, n:].reshape(len(pts), n, -1)).reshape(
                -1, 2, n, n).transpose(1, 0, 2, 3)
            DX = dPu + PT @ AiT @ (parts[:, :n] - dATu)
            want = np.concatenate([(PT @ u)[..., 0], (DX @ J).reshape(-1, n * n)], axis=1)
            assert row[:, :n + n * n].tobytes() == want.tobytes()

    def test_nan_state_gives_nan_rows(self):
        pi0, a_t = self.family("so3")
        field = self.point_field(pi0, a_t)
        pts = np.random.default_rng(2).uniform(-0.5, 0.5, size=(4, 3))
        good = field(pts, 0.4)
        pts[2] = np.nan
        X, DX = field(pts, 0.4)
        assert np.isnan(X[2]).all() and np.isnan(DX[2]).all()
        rest = [0, 1, 3]
        assert X[rest].tobytes() == good[0][rest].tobytes()
        assert DX[rest].tobytes() == good[1][rest].tobytes()

    def test_degenerate_state_names_time_and_point(self, monkeypatch):
        from diraclab.errors import TransversalityError

        pi0, a_t = self.family("r2")  # pi_t = (1-t)^{-1} pi_0 degenerates at t = 1
        pts = np.array([(-0.1, 0.0), (0.2, 0.3)])
        write, _, _ = self.bound_writer(monkeypatch, pi0, a_t, pts, 1.0, np.stack([np.eye(2)] * 2))
        with pytest.raises(TransversalityError, match=r"gauge family degenerate at t=1\.0") as e:
            write()
        assert tuple(e.value.point) == (-0.1, 0.0)

    @staticmethod
    def pointwise_field(pi0, a_t, t, x):
        omega_t = a_t.exterior_derivative().time_integral()
        P = pi0.matrix_at(x)
        W = sum(t**d * dense_exact(w, x) for d, w in omega_t.coeffs.items())
        a = sum(t**d * dense_exact(al, x) for d, al in a_t.coeffs.items())
        return np.linalg.solve(np.eye(len(x)) + P @ W, P).T @ a

    @pytest.mark.parametrize("name", ["r2", "xdxdy", "so3", "dim4", "dim6"])
    def test_field_and_jacobian(self, name):
        pi0, a_t = self.family(name)
        assert is_poisson(pi0)
        n = pi0.chart.dim
        field = self.point_field(pi0, a_t)
        pts = np.random.default_rng(n).uniform(-0.5, 0.5, size=(5, n))
        h = 1e-3

        def central(t, step):
            cols = []
            for k in range(n):
                e = np.zeros(n)
                e[k] = step
                cols.append((field(pts + e, t)[0] - field(pts - e, t)[0]) / (2 * step))
            return np.stack(cols, axis=-1)

        for t in (0.4, -0.3):
            X, DX = field(pts, t)
            assert X.shape == (5, n) and DX.shape == (5, n, n)
            ref = np.array([self.pointwise_field(pi0, a_t, t, x) for x in pts])
            assert np.abs(X - ref).max() < 1e-13
            richardson = (4 * central(t, h / 2) - central(t, h)) / 3
            assert np.abs(DX - richardson).max() < 1e-7

    @pytest.mark.parametrize("name", ["r2", "so3", "dim6"])
    def test_one_det_one_inverse_no_solve_per_call(self, monkeypatch, name):
        pi0, a_t = self.family(name)
        field = self.point_field(pi0, a_t)
        pts = np.random.default_rng(1).uniform(-0.5, 0.5, size=(9, pi0.chart.dim))
        calls = dict.fromkeys(["det", "inv", "solve"], 0)
        for fn in calls:
            def counting(*args, _fn=fn, _original=getattr(np.linalg, fn)):
                calls[_fn] += 1
                return _original(*args)
            monkeypatch.setattr(np.linalg, fn, counting)
        for t in (0.2, 0.2, -0.3):
            field(pts, t)
        assert calls == {"det": 0, "inv": 3, "solve": 0}
        # four stages a step, one inverse per time for pi_T, none for Pi at x_end
        moser_verify(pi0, a_t, [0.0, 0.2, -0.3], pts, FlowConfig(step=0.1))
        assert calls == {"det": 0, "inv": 3 + 4 * (2 + 3) + 3, "solve": 0}

    def test_gauge_matrix_of_the_zero_family_is_the_identity(self):
        pi0, a_t = self.family("so3")
        zero = TimePolyForm({0: PolyKForm(pi0.chart, 1, {})})
        for omega in ({}, zero.exterior_derivative().time_integral().coeffs):
            A = gauge_family(pi0, omega)
            assert list(A) == [0]
            assert all(A[0][i][j] == int(i == j) for i in range(3) for j in range(3))
        field = self.point_field(pi0, zero)
        X, DX = field(np.full((2, 3), 0.3), 0.5)
        assert not X.any() and not DX.any()

    def test_near_degenerate_family_in_dimension_6(self):
        # a_t = -sum q_i dp_i gives pi_t = (1 - t)^{-1} pi_0 on the standard R^6:
        # at T = 0.995, A = 0.005 I is well conditioned although det A = 1.6e-14
        pi0 = standard_symplectic_poisson(3)
        q = pi0.chart.coordinates()
        a_t = TimePolyForm({0: PolyKForm(pi0.chart, 1, {(3 + i,): -q[i] for i in range(3)})})
        grid = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4, 6))
        rep = moser_verify(pi0, a_t, [0.995], grid, FlowConfig(step=1e-2))
        assert rep.max_residual <= 1e-12

    def test_degenerate_family_names_time_and_point(self):
        from diraclab.errors import TransversalityError

        pi0, a_t = self.family("r2")  # pi_t = (1-t)^{-1} pi_0 degenerates at t = 1
        with pytest.raises(TransversalityError, match=r"gauge family degenerate at t=1\.0") as e:
            moser_verify(pi0, a_t, [1.0], [(0.2, 0.3), (-0.1, 0.0)], FlowConfig(step=1e-2))
        assert tuple(e.value.point) == (0.2, 0.3)


class TestStructureConstantJSON:
    def test_entries_accept_every_rational_form(self):
        from diraclab import jsonio

        entries = [
            {"a": 1, "b": 2, "c": 3, "value": 1},
            {"a": 2, "b": 3, "c": 1, "value": [1, 1]},
            {"a": 3, "b": 1, "c": 2, "value": {"num": 1, "den": 1}},
        ]
        pi = lie_poisson(jsonio.constants_from_entries(entries), 3)
        assert pi.pi == lie_poisson(so3_constants(), 3).pi

    @pytest.mark.parametrize("entries", [
        [{"a": 1, "b": 2, "c": 3, "value": 1}, {"a": 1, "b": 2, "c": 3, "value": 1}],
        [{"a": 1, "b": 2, "c": 3, "value": 1}, {"a": 2, "b": 1, "c": 3, "value": 1}],
        [{"a": 1, "b": 2, "value": 1}],
        [{"a": 1, "b": 2, "c": 3, "value": [1, 0]}],
    ])
    def test_malformed_entries_rejected(self, entries):
        # the decoder refuses a repeat; lie_poisson refuses (1,2,3) and (2,1,3) alike
        from diraclab import jsonio

        with pytest.raises(ShapeError):
            lie_poisson(jsonio.constants_from_entries(entries), 3)


class TestTimeDependentFlowConvention:
    """Pin the time-dependent flow convention at the observable level.

    For pi0 = x dx^dy and a_t = -(1 + t x) dy the gauge fields at different
    times do not commute, and the pushforward-invariance identity holds only
    for the flow defined through its action on functions (the inverse of the
    forward solution map).  Integrating dz/dt = -a_t(z) with frozen time
    instead leaves a residual around 3e-3 on this data, so a conventions
    regression shows up many orders of magnitude above the tolerance.
    """

    def test_noncommuting_family_residual(self):
        chart = Chart(2, ("x", "y"))
        x = chart.coordinate(0)
        pi0 = from_components(chart, {(0, 1): x})
        one = PolyScalar.constant(chart, 1)
        a = TimePolyForm({
            0: PolyKForm(chart, 1, {(1,): -one}),
            1: PolyKForm(chart, 1, {(1,): -x}),
        })
        grid = [(0.5, 0.3), (-0.4, 0.7), (0.25, -0.5)]
        rep = moser_verify(pi0, a, [0.5], grid, FlowConfig(step=1e-3))
        assert rep.max_residual < 1e-8
