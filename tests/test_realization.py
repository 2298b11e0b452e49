import numpy as np
import pytest

from diraclab.fields import Chart, PolyKForm, PolyScalar, coordinate_form, differential
from diraclab.poisson import (
    from_components,
    lie_poisson,
    so3_constants,
    standard_symplectic_poisson,
)
from diraclab.realization import (
    RealizationConfig,
    SprayField,
    bracket_relations_residual,
    canonical_symplectic_matrix,
    closedness_residual,
    default_spray,
    flow,
    invariant_vector_fields,
    realization_form,
    realization_form_batch,
    realization_sample,
    sample_points,
    source_target,
    verify_dual_pair,
)


def xdxdy():
    chart = Chart(2, ("x", "y"))
    x = chart.coordinate(0)
    return from_components(chart, {(0, 1): x})


FAST = RealizationConfig(step=2e-3)


class TestSprayConstruction:
    def test_zero_poisson(self):
        spray = default_spray(from_components(Chart(2), {}))
        assert spray.field.is_zero()

    def test_xdxdy_formula(self):
        spray = default_spray(xdxdy())
        # X = q1 p1 d/dq2 - q1 p2 d/dq1
        chart = spray.chart
        q1p1 = PolyScalar(chart, {(1, 0, 1, 0): 1})
        q1p2 = PolyScalar(chart, {(1, 0, 0, 1): 1})
        assert spray.field.components == {(1,): q1p1, (0,): -q1p2}

    def test_invariants(self):
        for pi in (xdxdy(), standard_symplectic_poisson(2), lie_poisson(so3_constants(), 3)):
            spray = default_spray(pi)
            assert spray.check_homogeneity()
            assert spray.check_projection()

    def test_gamma_term(self):
        pi = xdxdy()
        one = PolyScalar.constant(pi.chart, 1)
        spray = SprayField(pi, {(0, 1, 0): one})
        chart = spray.chart
        # 1/2 G^{ij}_k p_i p_j with G symmetric: G^{01}=G^{10}=1 gives p1 p2
        assert spray.field.components[(2,)] == PolyScalar(chart, {(0, 0, 1, 1): 1})
        assert spray.check_homogeneity() and spray.check_projection()


class TestFlow:
    def test_zero_section_fixed(self):
        spray = default_spray(xdxdy())
        pt = np.array([0.7, -0.3, 0.0, 0.0])
        end, J = flow(spray, pt, 1.0, FAST)
        assert np.abs(end - pt).max() < 1e-12
        # tangent-to-base block acts as the identity
        assert np.abs(J[:, :2] - np.eye(4)[:, :2]).max() < 1e-9

    def test_time_zero_identity(self):
        spray = default_spray(xdxdy())
        pt = np.array([0.5, 0.2, 0.1, -0.1])
        end, J = flow(spray, pt, 0.0, FAST)
        assert np.abs(end - pt).max() == 0.0
        assert np.abs(J - np.eye(4)).max() == 0.0

    def test_zero_spray_identity(self):
        spray = default_spray(from_components(Chart(2), {}))
        pt = np.array([0.5, 0.2, 0.3, -0.4])
        end, J = flow(spray, pt, 0.8, FAST)
        assert np.abs(end - pt).max() == 0.0

    def test_semigroup(self):
        spray = default_spray(xdxdy())
        pt = np.array([0.9, 0.4, 0.15, 0.1])
        a, _ = flow(spray, pt, 0.3, FAST)
        b, _ = flow(spray, a, 0.45, FAST)
        c, _ = flow(spray, pt, 0.75, FAST)
        assert np.abs(b - c).max() < 1e-9

    def test_linear_case_closed_form(self):
        # constant pi on a 2-dim base: the spray is linear and solvable by hand.
        # X = -mu2 d/dx1 + mu1 d/dx2, so trajectories follow
        # dx1 = mu2, dx2 = -mu1 with constant momenta.
        pi = standard_symplectic_poisson(1)
        spray = default_spray(pi)
        x0 = np.array([0.3, -0.2, 0.5, 0.4])
        t = 0.7
        end, J = flow(spray, x0, t, RealizationConfig(step=1e-3))
        expect = np.array([x0[0] + t * x0[3], x0[1] - t * x0[2], x0[2], x0[3]])
        assert np.abs(end - expect).max() < 1e-12
        Jexp = np.array(
            [[1, 0, 0, t], [0, 1, -t, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.abs(J - Jexp).max() < 1e-10


class TestRealizationForm:
    def test_zero_spray_gives_canonical(self):
        spray = default_spray(from_components(Chart(2), {}))
        W = realization_form(spray, np.array([0.3, 0.1, 0.2, -0.5]), FAST)
        assert np.abs(W - canonical_symplectic_matrix(2)).max() < 1e-12

    def test_zero_section_restriction(self):
        spray = default_spray(xdxdy())
        W = realization_form(spray, np.array([0.8, -0.2, 0.0, 0.0]), FAST)
        Wc = canonical_symplectic_matrix(2)
        # omega(v, .) = omega_can(v, .) for v tangent to the base
        assert np.abs(W[:2, :] - Wc[:2, :]).max() < 1e-10
        # in particular the base is isotropic
        assert np.abs(W[:2, :2]).max() < 1e-10

    def test_skew_and_invertible(self):
        spray = default_spray(xdxdy())
        pts = sample_points(2, 6, 0.2, seed=1)
        W = realization_form_batch(spray, pts, FAST)
        assert np.abs(W + np.transpose(W, (0, 2, 1))).max() < 1e-12
        for Wb in W:
            assert abs(np.linalg.det(Wb)) > 1e-3

    def test_backward_pullback_sign_regression(self):
        # Freeze the pullback-along-the-backward-flow convention.  For the
        # constant bivector on a 2-dim base, Phi_{-s}(x, mu) =
        # (x1 - s mu2, x2 + s mu1, mu), and the quadrature gives exactly
        #   omega = omega_can + dmu1 ^ dmu2.
        # Pulling back along the *forward* flow instead would flip the sign
        # of the mu-mu block, so this pins the load-bearing sign choice.
        pi = standard_symplectic_poisson(1)
        spray = default_spray(pi)
        W = realization_form(spray, np.array([0.4, 0.9, 0.6, -0.3]),
                             RealizationConfig(step=1e-3))
        expect = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 1.0],
            [0.0, -1.0, -1.0, 0.0],
        ])
        assert np.abs(W - expect).max() < 1e-12

    def test_closedness_fd(self):
        spray = default_spray(xdxdy())
        res = closedness_residual(spray, np.array([1.0, 0.0, 0.1, 0.1]), FAST)
        assert res < 1e-6


class TestSourceTarget:
    def test_zero_section(self):
        spray = default_spray(xdxdy())
        s, t, ds, dt = source_target(spray, np.array([0.6, -0.1, 0.0, 0.0]), FAST)
        assert np.abs(s - np.array([0.6, -0.1])).max() == 0.0
        assert np.abs(t - np.array([0.6, -0.1])).max() < 1e-12

    def test_zero_poisson_both_projections(self):
        spray = default_spray(from_components(Chart(2), {}))
        pt = np.array([0.3, 0.4, 0.2, -0.2])
        s, t, ds, dt = source_target(spray, pt, FAST)
        assert np.abs(s - t).max() == 0.0
        assert np.abs(ds - dt).max() == 0.0

    def test_constant_pi_linear_flow(self):
        pi = standard_symplectic_poisson(1)
        spray = default_spray(pi)
        pt = np.array([0.3, 0.5, 0.2, -0.4])
        s, t, ds, dt = source_target(spray, pt, RealizationConfig(step=1e-3))
        # Phi_{-1}(x, mu) = (x1 - mu2, x2 + mu1, mu)
        assert np.abs(t - np.array([0.3 + 0.4, 0.5 + 0.2])).max() < 1e-12
        assert np.abs(dt - np.array([[1, 0, 0, -1], [0, 1, 1, 0]], dtype=float)).max() < 1e-10
        assert np.abs(s - pt[:2]).max() == 0.0

    def test_sample_invariants(self):
        spray = default_spray(xdxdy())
        sm = realization_sample(spray, np.array([0.9, 0.1, 0.05, -0.1]), FAST)
        assert sm.omega_invertible
        assert np.abs(sm.pi_P @ sm.omega + np.eye(4)).max() < 1e-10


class TestDualPair:
    def test_zero_poisson_all_exact(self):
        spray = default_spray(from_components(Chart(2), {}))
        pts = sample_points(2, 5, 0.3, seed=2)
        rep = verify_dual_pair(spray, pts, FAST, tolerance=1e-12)
        assert rep.passed

    def test_xdxdy_twenty_samples(self):
        spray = default_spray(xdxdy())
        pts = sample_points(2, 20, 0.2, seed=0)
        rep = verify_dual_pair(spray, pts, RealizationConfig(step=1e-3), tolerance=1e-6)
        assert rep.passed, rep.as_dict()

    def test_constant_pi(self):
        spray = default_spray(standard_symplectic_poisson(1))
        pts = sample_points(2, 8, 0.3, seed=4)
        rep = verify_dual_pair(spray, pts, RealizationConfig(step=1e-3), tolerance=1e-8)
        assert rep.passed, rep.as_dict()


class TestInvariantFields:
    def test_zero_poisson_formula(self):
        spray = default_spray(from_components(Chart(2), {}))
        chart = spray.pi.chart
        alpha = coordinate_form(chart, 0)
        pt = np.array([0.2, 0.1, 0.05, -0.3])
        rep = invariant_vector_fields(spray, alpha, pt, FAST,
                                      beta=coordinate_form(chart, 1))
        assert rep.max_residual < 1e-12
        # alpha^L = W_can(tau^* alpha): covector (1,0,0,0) maps to -d/dp1
        assert np.abs(rep.alpha_L - np.array([0.0, 0.0, -1.0, 0.0])).max() < 1e-12
        assert np.abs(rep.alpha_L - rep.alpha_R).max() < 1e-12

    def test_zero_form(self):
        spray = default_spray(xdxdy())
        alpha = PolyKForm(spray.pi.chart, 1, {})
        rep = invariant_vector_fields(spray, alpha, np.array([0.9, 0.2, 0.1, 0.0]), FAST)
        assert np.abs(rep.alpha_L).max() == 0.0 and np.abs(rep.alpha_R).max() == 0.0

    def test_xdxdy_five_relations(self):
        spray = default_spray(xdxdy())
        chart = spray.pi.chart
        alpha = coordinate_form(chart, 0)
        beta = coordinate_form(chart, 1)
        pt = np.array([1.1, -0.4, 0.08, 0.12])
        rep = invariant_vector_fields(spray, alpha, pt, RealizationConfig(step=1e-3), beta=beta)
        assert rep.max_residual < 1e-6, rep.residuals

    def test_bracket_relations(self):
        spray = default_spray(xdxdy())
        chart = spray.pi.chart
        x, y = chart.coordinates()
        alpha = coordinate_form(chart, 0)
        beta = PolyKForm(chart, 1, {(1,): x})
        pt = np.array([1.0, 0.3, 0.1, -0.05])
        res = bracket_relations_residual(spray, alpha, beta, pt, RealizationConfig(step=2e-3))
        assert max(res.values()) < 1e-4, res


class TestDomainEscape:
    def test_escape_raises_with_point(self):
        from diraclab.errors import DomainEscapeError

        chart = Chart(2, ("x", "y"))
        x = chart.coordinate(0)
        # quadratic growth: the spray flow of pi = x^2 dx^dy blows up in x
        pi = from_components(chart, {(0, 1): x * x})
        spray = default_spray(pi)
        bad = np.array([3.0, 0.0, 2.0, 2.0])
        with pytest.raises(DomainEscapeError) as e:
            flow(spray, bad, 8.0, RealizationConfig(step=1e-2, escape_norm=50.0))
        assert e.value.point is not None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_shared_check(self):
        from diraclab._numeric import _check_escape
        from diraclab.errors import DomainEscapeError

        y = np.zeros((3, 2 + 4))
        y[:, 2:] = 1e308  # finite Jacobian entries whose sum overflows
        _check_escape(y, 2, 10.0)
        y[1, 3] = np.nan
        with pytest.raises(DomainEscapeError, match="diverged") as e:
            _check_escape(y, 2, 10.0)
        assert e.value.point is None
        y = np.zeros((3, 6))
        y[2, :2] = (8.0, 9.0)
        y[1, :2] = (11.0, 0.0)
        with pytest.raises(DomainEscapeError, match="admissible region") as e:
            _check_escape(y, 2, 10.0)
        assert tuple(e.value.point) == (8.0, 9.0)

    def test_time_dependent_flow_diverges(self):
        from diraclab._numeric import FlowConfig, flow_points_td
        from diraclab.errors import DomainEscapeError

        def value(t, x):
            return np.full_like(x, np.nan)

        def jac(t, x):
            return np.zeros(x.shape + (x.shape[-1],))

        with pytest.raises(DomainEscapeError, match="diverged"):
            flow_points_td(value, jac, np.zeros((2, 2)), 0.1, FlowConfig(step=0.05))


class TestCriteriaTrackTogether:
    def test_dual_pair_criteria_share_error_order(self):
        # the three dual-pair criteria are equivalent conditions: at any
        # integrator accuracy their residuals stay within a common band
        spray = default_spray(xdxdy())
        pts = sample_points(2, 6, 0.2, seed=0)
        for step in (0.5, 0.05):
            rep = verify_dual_pair(spray, pts, RealizationConfig(step=step),
                                   tolerance=np.inf)
            vals = [c.max_residual for c in rep.criteria]
            assert max(vals) < 1e3 * max(min(vals), 1e-16), (step, vals)


class TestSo3Realization:
    def test_dual_pair_on_lie_poisson(self):
        # 3-dim base, quadratic spray data: exercises every n = 3 code path
        spray = default_spray(lie_poisson(so3_constants(), 3))
        pts = sample_points(3, 8, 0.15, seed=5)
        rep = verify_dual_pair(spray, pts, RealizationConfig(step=1e-3), tolerance=1e-6)
        assert rep.passed, rep.as_dict()

    def test_invariant_fields_on_lie_poisson(self):
        from diraclab.fields import coordinate_form

        spray = default_spray(lie_poisson(so3_constants(), 3))
        chart = spray.pi.chart
        pt = np.array([0.5, -0.2, 0.8, 0.05, 0.1, -0.05])
        rep = invariant_vector_fields(
            spray, coordinate_form(chart, 0), pt,
            RealizationConfig(step=1e-3), beta=coordinate_form(chart, 2),
        )
        assert rep.max_residual < 1e-6, rep.residuals


def _realization_cases():
    so3 = default_spray(lie_poisson(so3_constants(), 3))
    return [
        (default_spray(xdxdy()), sample_points(2, 6, 0.2, seed=3)),
        (so3, sample_points(3, 5, 0.15, seed=6, base_offset=(0.5, 0.5, 0.5))),
    ]


class TestSinglePass:
    """One backward flow (Gauss nodes, then t = -1) reproduces the two
    separate integrations of the public entry points."""

    @pytest.mark.parametrize("case", [0, 1], ids=["xdxdy", "so3"])
    def test_matches_separate_flows(self, case):
        from diraclab.realization import _realization_batch, source_target_batch

        spray, pts = _realization_cases()[case]
        config = RealizationConfig(step=1e-3)
        W, s, t, ds, dt = _realization_batch(spray, pts, config)
        assert np.array_equal(W, realization_form_batch(spray, pts, config))
        for got, want in zip((s, t, ds, dt), source_target_batch(spray, pts, config)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-10


class TestFusedEvaluator:
    """value_and_jacobian agrees with value()/jacobian() and with the exact
    polynomial components and partials."""

    @staticmethod
    def sprays():
        pi = xdxdy()
        gamma = {(0, 1, 0): pi.chart.coordinate(1), (1, 1, 1): PolyScalar.constant(pi.chart, 2)}
        return [
            default_spray(lie_poisson(so3_constants(), 3)),
            SprayField(pi, gamma),
            default_spray(from_components(Chart(2), {})),
        ]

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["so3", "gamma", "zero"])
    def test_value_and_jacobian(self, which):
        spray = self.sprays()[which]
        f = spray.compiled()
        m = spray.chart.dim
        pts = np.random.default_rng(which).uniform(-1.0, 1.0, size=(7, m))
        v, A = f.value_and_jacobian(pts)
        assert v.shape == (7, m) and A.shape == (7, m, m)
        assert np.abs(v - f.value(pts)).max() < 1e-13
        assert np.abs(A - f.jacobian(pts)).max() < 1e-13
        zero = PolyScalar.zero(spray.chart)
        for b, x in enumerate(pts):
            for i in range(m):
                comp = spray.field.components.get((i,), zero)
                assert abs(v[b, i] - float(comp.evaluate(x))) < 1e-13
                for j in range(m):
                    assert abs(A[b, i, j] - float(comp.partial(j).evaluate(x))) < 1e-13


class TestOneFlowPerCall:
    """Each realization verifier integrates its sample batch exactly once."""

    @pytest.fixture
    def flows(self, monkeypatch):
        import diraclab.realization as real_mod

        calls = []
        original = real_mod.flow_points

        def counting(*args, **kwargs):
            calls.append(kwargs.get("record_times"))
            return original(*args, **kwargs)

        monkeypatch.setattr(real_mod, "flow_points", counting)
        return calls

    def test_verify_dual_pair(self, flows):
        spray = default_spray(xdxdy())
        verify_dual_pair(spray, sample_points(2, 4, 0.2, seed=0), FAST)
        assert len(flows) == 1
        assert flows[0][-1] == -1.0

    def test_invariant_vector_fields(self, flows):
        spray = default_spray(xdxdy())
        chart = spray.pi.chart
        invariant_vector_fields(spray, coordinate_form(chart, 0),
                                np.array([1.0, 0.2, 0.1, -0.05]), FAST,
                                beta=coordinate_form(chart, 1))
        assert len(flows) == 1

    def test_bracket_relations_residual(self, flows):
        spray = default_spray(xdxdy())
        chart = spray.pi.chart
        beta = PolyKForm(chart, 1, {(1,): chart.coordinate(0)})
        bracket_relations_residual(spray, coordinate_form(chart, 0), beta,
                                   np.array([1.0, 0.3, 0.1, -0.05]), FAST)
        assert len(flows) == 1
