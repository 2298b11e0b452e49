import numpy as np
import pytest

from diraclab import realization as real_mod
from diraclab._numeric import FlowConfig, flow_points
from diraclab.fields import Chart, PolyKForm, PolyScalar, coordinate_form
from diraclab.poisson import (
    from_components,
    lie_poisson,
    so3_constants,
    standard_symplectic_poisson,
)
from diraclab.realization import (
    RealizationConfig,
    bracket_relations_residual,
    closedness_residual,
    default_spray,
    invariant_vector_fields,
    realization_form,
    sample_points,
    source_target,
    verify_dual_pair,
)

from conftest import exact_at, omega_can, spray_flow, stage_field


def xdxdy():
    chart = Chart(2, ("x", "y"))
    x = chart.coordinate(0)
    return from_components(chart, {(0, 1): x})


FAST = RealizationConfig(step=2e-3)


def is_homogeneous(spray) -> bool:
    """q-components of fiber degree exactly 1, p-components exactly 2."""
    n = spray.base_dim
    return all(set(p.homogeneous_parts(n)) == {1 if j < n else 2}
               for (j,), p in spray.field.components.items())


def projects_to_sharp(spray) -> bool:
    """(T tau) X = pi^#(p) as an exact polynomial identity."""
    n = spray.base_dim
    M = spray.pi.component_matrix()
    chart = spray.chart
    momenta = chart.coordinates()[n:]
    zero = PolyScalar.zero(chart)
    return all(spray.field.components.get((j,), zero)
               == sum((M[i][j].embed(chart) * momenta[i] for i in range(n)), zero)
               for j in range(n))


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
            assert is_homogeneous(spray)
            assert projects_to_sharp(spray)


class TestFlow:
    def test_zero_section_fixed(self):
        spray = default_spray(xdxdy())
        pt = np.array([[0.7, -0.3, 0.0, 0.0]])
        end, J = spray_flow(spray, pt, 1.0, FAST)
        assert np.abs(end - pt).max() < 1e-12
        # tangent-to-base block acts as the identity
        assert np.abs(J[0, :, :2] - np.eye(4)[:, :2]).max() < 1e-9

    def test_time_zero_identity(self):
        spray = default_spray(xdxdy())
        pt = np.array([[0.5, 0.2, 0.1, -0.1]])
        end, J = spray_flow(spray, pt, 0.0, FAST)
        assert np.abs(end - pt).max() == 0.0
        assert np.abs(J - np.eye(4)).max() == 0.0

    def test_zero_spray_identity(self):
        spray = default_spray(from_components(Chart(2), {}))
        pt = np.array([[0.5, 0.2, 0.3, -0.4]])
        end, J = spray_flow(spray, pt, 0.8, FAST)
        assert np.abs(end - pt).max() == 0.0

    def test_semigroup(self):
        spray = default_spray(xdxdy())
        pt = np.array([[0.9, 0.4, 0.15, 0.1]])
        a, _ = spray_flow(spray, pt, 0.3, FAST)
        b, _ = spray_flow(spray, a, 0.45, FAST)
        c, _ = spray_flow(spray, pt, 0.75, FAST)
        assert np.abs(b - c).max() < 1e-9

    def test_linear_case_closed_form(self):
        # constant pi on a 2-dim base: the spray is linear and solvable by hand.
        # X = -mu2 d/dx1 + mu1 d/dx2, so trajectories follow
        # dx1 = mu2, dx2 = -mu1 with constant momenta.
        pi = standard_symplectic_poisson(1)
        spray = default_spray(pi)
        x0 = np.array([0.3, -0.2, 0.5, 0.4])
        t = 0.7
        (end,), (J,) = spray_flow(spray, x0[None], t, RealizationConfig(step=1e-3))
        expect = np.array([x0[0] + t * x0[3], x0[1] - t * x0[2], x0[2], x0[3]])
        assert np.abs(end - expect).max() < 1e-12
        Jexp = np.array(
            [[1, 0, 0, t], [0, 1, -t, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.abs(J - Jexp).max() < 1e-10


class TestRealizationForm:
    def test_tabulated_rule_is_leggauss_on_the_unit_interval(self):
        x, w = np.polynomial.legendre.leggauss(real_mod.QUAD_ORDER)
        assert np.array(real_mod.QUAD_NODES).tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert np.array(real_mod.QUAD_WEIGHTS).tobytes() == (0.5 * w).tobytes()
        assert np.all(np.diff(real_mod.QUAD_NODES) > 0)

    def test_zero_spray_gives_canonical(self):
        spray = default_spray(from_components(Chart(2), {}))
        W = realization_form(spray, np.array([0.3, 0.1, 0.2, -0.5]), FAST)
        assert np.abs(W - omega_can(2)).max() < 1e-12

    def test_zero_section_restriction(self):
        spray = default_spray(xdxdy())
        W = realization_form(spray, np.array([0.8, -0.2, 0.0, 0.0]), FAST)
        Wc = omega_can(2)
        # omega(v, .) = omega_can(v, .) for v tangent to the base
        assert np.abs(W[:2, :] - Wc[:2, :]).max() < 1e-10
        # in particular the base is isotropic
        assert np.abs(W[:2, :2]).max() < 1e-10

    def test_skew_and_invertible(self):
        spray = default_spray(xdxdy())
        pts = sample_points(2, 6, 0.2, seed=1)
        W = realization_form(spray, pts, FAST)
        # W = S - S^T is skew exactly, since fl(a - b) = -fl(b - a)
        assert np.array_equal(W, -np.transpose(W, (0, 2, 1)))
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

    def test_closedness_on_a_line_flows_nothing(self, monkeypatch):
        # every 3-form on the 2-dimensional T*R vanishes, so no stencil is flowed
        calls = []
        monkeypatch.setattr(real_mod, "flow_points",
                            lambda *a, **k: calls.append(1) or flow_points(*a, **k))
        spray = default_spray(from_components(Chart(1), {}))
        assert closedness_residual(spray, np.array([0.3, 0.2]), FAST) == 0.0
        assert calls == []


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
        W = realization_form(spray, np.array([0.9, 0.1, 0.05, -0.1]), FAST)
        assert np.array_equal(W, -W.T)  # S - S^T is skew exactly
        assert np.linalg.cond(W) < 1e12


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
        assert rep.passed, rep

    def test_constant_pi(self):
        spray = default_spray(standard_symplectic_poisson(1))
        pts = sample_points(2, 8, 0.3, seed=4)
        rep = verify_dual_pair(spray, pts, RealizationConfig(step=1e-3), tolerance=1e-8)
        assert rep.passed, rep


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
        rep = invariant_vector_fields(spray, alpha, np.array([0.9, 0.2, 0.1, 0.0]), FAST,
                                      beta=alpha)
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

    def test_bracket_relations_with_a_non_closed_first_form(self):
        # [b, a] with db != 0: the i_{pi#a} db term of the cotangent bracket is live
        spray = default_spray(lie_poisson(so3_constants(), 3))
        chart = spray.pi.chart
        alpha = coordinate_form(chart, 0)
        beta = PolyKForm(chart, 1, {(2,): chart.coordinate(1)})
        pt = np.array([1.0, 0.5, 0.5, 0.1, -0.1, 0.05])
        res = bracket_relations_residual(spray, beta, alpha, pt, RealizationConfig(step=1e-3))
        assert max(res.values()) < 1e-6, res


class TestDomainEscape:
    def test_escape_raises_with_point(self):
        from diraclab.errors import DomainEscapeError

        chart = Chart(2, ("x", "y"))
        x = chart.coordinate(0)
        # quadratic growth: the spray flow of pi = x^2 dx^dy blows up in x
        pi = from_components(chart, {(0, 1): x * x})
        spray = default_spray(pi)
        bad = np.array([[3.0, 0.0, 2.0, 2.0]])
        with pytest.raises(DomainEscapeError) as e:
            flow_points(spray.compiled().bind, bad, 8.0, FlowConfig(step=1e-2, escape_norm=50.0))
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
        from diraclab.errors import DomainEscapeError

        def field(state, t):
            x = state[:, :2]
            return np.full_like(x, np.nan), np.zeros(x.shape + (2,))

        with pytest.raises(DomainEscapeError, match="diverged"):
            flow_points(stage_field(field), np.zeros((2, 2)), 0.1, FlowConfig(step=0.05))


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
        assert rep.passed, rep

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
    """One backward flow (Gauss nodes, then t = -1) gives t and dt as a
    direct flow to t = -1 does, and a point the same data as its batch row."""

    @pytest.mark.parametrize("case", [0, 1], ids=["xdxdy", "so3"])
    def test_matches_separate_flows(self, case):
        spray, pts = _realization_cases()[case]
        config = RealizationConfig(step=1e-3)
        n = spray.base_dim
        s, t, ds, dt = source_target(spray, pts, config)
        x1, J1 = spray_flow(spray, pts, -1.0, config)
        assert t.shape == (len(pts), n) and dt.shape == (len(pts), n, 2 * n)
        assert np.abs(t - x1[:, :n]).max() < 1e-10
        assert np.abs(dt - J1[:, :n, :]).max() < 1e-10
        assert np.array_equal(s, pts[:, :n])

    @pytest.mark.parametrize("case", [0, 1], ids=["xdxdy", "so3"])
    def test_point_matches_its_batch_row(self, case):
        spray, pts = _realization_cases()[case]
        config = RealizationConfig(step=1e-3)
        batch = (realization_form(spray, pts, config),) + source_target(spray, pts, config)
        for b, pt in enumerate(pts):
            single = (realization_form(spray, pt, config),) + source_target(spray, pt, config)
            for got, want in zip(single, batch):
                assert got.shape == want.shape[1:]
                assert np.abs(got - want[b]).max() < 1e-13


class TestFusedEvaluator:
    """The compiled spray's values and Jacobians agree with the exact
    polynomial components and partials."""

    @staticmethod
    def sprays():
        return [
            default_spray(lie_poisson(so3_constants(), 3)),
            default_spray(xdxdy()),
            default_spray(from_components(Chart(2), {})),
        ]

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["so3", "xdxdy", "zero"])
    def test_value_and_jacobian(self, which):
        spray = self.sprays()[which]
        f = spray.compiled()
        n, m = spray.base_dim, spray.chart.dim
        pts = np.random.default_rng(which).uniform(-1.0, 1.0, size=(7, m))
        v, A = f(pts)
        # the table holds the q-components alone: the p-components vanish
        assert v.shape == (7, n) and A.shape == (7, n, m)
        assert all(i < n for i, in spray.field.components)
        zero = PolyScalar.zero(spray.chart)
        for b, x in enumerate(pts):
            for i in range(n):
                comp = spray.field.components.get((i,), zero)
                assert abs(v[b, i] - exact_at(comp, x)) < 1e-13
                for j in range(m):
                    assert abs(A[b, i, j] - exact_at(comp.partial(j), x)) < 1e-13


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


def _builtin_sprays():
    return {"xdxdy": (default_spray(xdxdy()), 2),
            "so3": (default_spray(lie_poisson(so3_constants(), 3)), 3)}


class TestBatchedCertification:
    """verify_dual_pair certifies a batch in stacked SVD calls."""

    @pytest.mark.parametrize("name", ["xdxdy", "so3"])
    def test_matches_one_point_calls(self, name):
        spray, n = _builtin_sprays()[name]
        pts = sample_points(n, 12, 0.3, seed=11)
        batched = verify_dual_pair(spray, pts, FAST)
        singles = [verify_dual_pair(spray, p[None, :], FAST) for p in pts]
        for c, crit in enumerate(batched.criteria):
            per_point = np.array([rep.criteria[c].max_residual for rep in singles])
            assert abs(crit.max_residual - per_point.max()) <= 1e-12
            assert crit.worst_point == tuple(pts[int(per_point.argmax())])

    def test_svd_calls_do_not_grow_with_the_batch(self, monkeypatch):
        spray, n = _builtin_sprays()["so3"]
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        counts = []
        for batch in (1, 32):
            calls.clear()
            verify_dual_pair(spray, sample_points(n, batch, 0.2, seed=3),
                             RealizationConfig(step=0.05))
            counts.append(len(calls))
        # the kernels, the pullback fibers, their bases and the projector distances
        assert counts[0] == counts[1] == 4

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("name", ["xdxdy", "so3"])
    def test_criteria_equal_the_per_side_calls(self, name, batch):
        """Each t-side/s-side helper pair is one call on the stack [t, s]; the
        criteria equal those of one call per side, formed here, to the last bit."""
        from diraclab._numeric import (gauge_fiber, nullspace_basis, orthonormal_basis,
                                       pullback_fiber, worst)

        spray, n = _builtin_sprays()[name]
        pts = sample_points(n, batch, 0.2, seed=batch)
        config = RealizationConfig(step=1e-2)
        W, s_val, t_val, ds, dt = real_mod._realization_batch(spray, pts, config)
        piP, T = -np.linalg.inv(W), lambda A: np.swapaxes(A, -1, -2)
        Pt, Ps = spray.pi.matrix_at(t_val), spray.pi.matrix_at(s_val)
        r1 = np.maximum(np.abs(dt @ piP @ T(dt) - Pt).max(axis=(1, 2)),
                        np.abs(ds @ piP @ T(ds) + Ps).max(axis=(1, 2)))
        r2 = np.abs(T(nullspace_basis(dt)) @ W @ nullspace_basis(ds)).max(axis=(1, 2))
        Qa = orthonormal_basis(gauge_fiber(pullback_fiber(dt, T(Pt)), W))
        Qb = orthonormal_basis(pullback_fiber(ds, T(Ps)))
        r3 = np.linalg.svd(Qa @ T(Qa) - Qb @ T(Qb), compute_uv=False)[:, 0]
        got = verify_dual_pair(spray, pts, config).criteria
        for crit, r in zip(got, (r1, r2, r3), strict=True):
            value, point = worst(r, pts)
            assert crit.max_residual == value and crit.worst_point == tuple(point)
