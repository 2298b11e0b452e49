"""Symplectic realization of a Poisson chart from a spray on T*M.

Given a bivector pi on R^n, a spray is a vector field on the 2n-chart
(q, p) of the form

    X = sum_ij Pi^{ij}(q) p_i d/dq_j + 1/2 sum_ijk G^{ij}_k(q) p_i p_j d/dp_k

with G symmetric in (i, j).  With Phi_t the flow of X (trajectories solve
dx/dt = -a(x), as everywhere in this package), the 2-form

    omega = int_0^1 (Phi_s)_* omega_can ds,     omega_can = sum dq_i ^ dp_i

is symplectic near the zero section, and

    s = tau  (bundle projection),     t = tau o Phi_{-1}

make (P, omega, s, t) a dual pair over (M, pi): t is Poisson, s is
anti-Poisson, and the s- and t-fibers are omega-orthogonal.

(Phi_s)_* omega_can is evaluated as the pullback (Phi_{-s})^* omega_can along
the backward flow; this sign is load-bearing and pinned by a regression test.

All of this lives on one backward trajectory per point: the verifiers make a
single batched pass of the flow that records the Gauss nodes -s of the
quadrature and then t = -1, so omega, s, t and their differentials come from
one integration per sample batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._numeric import (
    CompiledScalar,
    CompiledVectorField,
    FlowConfig,
    flow_points,
    gauss_legendre_01,
    nullspace_basis,
    span_residual,
)
from .errors import ChartMismatchError, PreconditionError, ShapeError
from .fields import PolyKForm, PolyKVector, PolyScalar, cotangent_chart
from .poisson import PoissonBivector


@dataclass(frozen=True)
class RealizationConfig:
    """Integrator step, quadrature order for the s-integral, and p-ball radius."""

    step: float = 1e-3
    quad_order: int = 8
    radius: float = 1.0
    escape_norm: float = 1e3

    def __post_init__(self):
        if self.step <= 0:
            raise ShapeError("step must be positive")
        if self.quad_order < 1:
            raise ShapeError("quadrature order must be >= 1")

    def flow(self) -> FlowConfig:
        return FlowConfig(step=self.step, escape_norm=self.escape_norm)


class SprayField:
    """Spray data: base bivector, symmetric p-quadratic coefficients, field."""

    __slots__ = ("pi", "gamma", "chart", "field", "_compiled")

    def __init__(self, pi: PoissonBivector, gamma: dict | None = None):
        n = pi.chart.dim
        chart = cotangent_chart(n)
        gamma = dict(gamma or {})
        # symmetrize keys (i, j), store i <= j
        sym: dict = {}
        for (i, j, k), g in gamma.items():
            if not isinstance(g, PolyScalar):
                g = PolyScalar.constant(pi.chart, g)
            if g.chart != pi.chart:
                raise ChartMismatchError("gamma coefficients live on the base chart")
            key = (min(i, j), max(i, j), k)
            cur = sym.get(key)
            sym[key] = g if cur is None else cur + g

        def lift(p: PolyScalar, extra_exp) -> PolyScalar:
            terms = {}
            for exp, c in p.terms.items():
                terms[tuple(exp) + (0,) * n] = c
            out = PolyScalar(chart, terms)
            if extra_exp is not None:
                out = out * PolyScalar.monomial(chart, extra_exp)
            return out

        M = pi.component_matrix()
        comps: dict = {}
        for j in range(n):
            s = PolyScalar.zero(chart)
            for i in range(n):
                if M[i][j].is_zero():
                    continue
                p_i = (0,) * n + tuple(1 if t == i else 0 for t in range(n))
                s = s + lift(M[i][j], p_i)
            if not s.is_zero():
                comps[(j,)] = s
        for (i, j, k), g in sym.items():
            if g.is_zero():
                continue
            pp = [0] * n
            pp[i] += 1
            pp[j] += 1
            weight = Fraction(1) if i != j else Fraction(1, 2)
            term = lift(g, (0,) * n + tuple(pp)) * weight
            key = (n + k,)
            cur = comps.get(key)
            comps[key] = term if cur is None else cur + term
        X = PolyKVector(chart, 1, comps)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "gamma", sym)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "field", X)
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, *a):
        raise AttributeError("SprayField is immutable")

    @property
    def base_dim(self) -> int:
        return self.pi.chart.dim

    def compiled(self) -> CompiledVectorField:
        if self._compiled is None:
            object.__setattr__(self, "_compiled", CompiledVectorField(self.field))
        return self._compiled

    def check_homogeneity(self) -> bool:
        """q-components of fiber degree exactly 1, p-components exactly 2."""
        n = self.base_dim
        fiber = tuple(range(n, 2 * n))
        for (j,), p in self.field.components.items():
            want = 1 if j < n else 2
            degs = {sum(e[n:]) for e in p.terms}
            if degs - {want}:
                return False
        return True

    def check_projection(self) -> bool:
        """(T tau) X = pi^#(p) as an exact polynomial identity."""
        n = self.base_dim
        M = self.pi.component_matrix()
        chart = self.chart
        for j in range(n):
            got = self.field.components.get((j,), PolyScalar.zero(chart))
            want = PolyScalar.zero(chart)
            for i in range(n):
                if M[i][j].is_zero():
                    continue
                terms = {}
                for exp, c in M[i][j].terms.items():
                    pe = tuple(1 if t == i else 0 for t in range(n))
                    terms[tuple(exp) + pe] = c
                want = want + PolyScalar(chart, terms)
            if got != want:
                return False
        return True


def default_spray(pi: PoissonBivector) -> SprayField:
    """The spray with vanishing p-quadratic part: X = sum Pi^{ij}(q) p_i d/dq_j."""
    return SprayField(pi, {})


def canonical_symplectic_matrix(n: int) -> np.ndarray:
    """Component matrix of omega_can = sum dq_i ^ dp_i on (q, p)."""
    W = np.zeros((2 * n, 2 * n))
    for i in range(n):
        W[i, n + i] = 1.0
        W[n + i, i] = -1.0
    return W


def flow(spray: SprayField, point, t: float, config: RealizationConfig = RealizationConfig()):
    """Endpoint and Jacobian of the spray flow Phi_t from a point of T*M."""
    x, J = flow_points(spray.compiled(), np.asarray(point, dtype=float), t, config.flow())
    return x, J


def _backward_pass(spray: SprayField, points: np.ndarray, config: RealizationConfig,
                   through_one: bool = False):
    """W(p) = int_0^1 J_{-s}^T W_can J_{-s} ds from one batched backward flow.

    The flow records D Phi_{-s} at the Gauss nodes s in (0,1), summed in node
    order, and, when `through_one` is set, then continues to t = -1.  Returns
    W and the last snapshot (x, J).
    """
    n = spray.base_dim
    nodes, weights = gauss_legendre_01(config.quad_order)
    order = np.argsort(nodes)
    times = [-float(nodes[i]) for i in order] + ([-1.0] if through_one else [])
    snaps = flow_points(spray.compiled(), points, -1.0, config.flow(), record_times=times)
    rank = np.argsort(order)
    Wc = canonical_symplectic_matrix(n)
    W = np.zeros((len(points), 2 * n, 2 * n))
    for i, w in enumerate(weights):
        J_s = snaps[rank[i]][1]
        W += w * np.einsum("bji,jk,bkl->bil", J_s, Wc, J_s)
    return 0.5 * (W - np.transpose(W, (0, 2, 1))), snaps[-1]


def _source_target(points, x1, J1, n: int):
    """(s, t, ds, dt) from the points and their time -1 flow (x1, J1)."""
    ds = np.zeros((len(points), n, 2 * n))
    ds[:, :, :n] = np.eye(n)
    return points[:, :n], x1[:, :n], ds, J1[:, :n, :]


def _realization_batch(spray: SprayField, points, config: RealizationConfig):
    """(W, s, t, ds, dt) at a batch of points from one backward flow.

    The flow records the Gauss nodes and then t = -1: the node snapshots give
    the quadrature of omega, the last one gives t and dt.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    W, (x1, J1) = _backward_pass(spray, points, config, through_one=True)
    return (W,) + _source_target(points, x1, J1, spray.base_dim)


def realization_form_batch(
    spray: SprayField, points, config: RealizationConfig = RealizationConfig()
) -> np.ndarray:
    """The 2-form matrices W(p) = int_0^1 J_{-s}^T W_can J_{-s} ds by quadrature."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _backward_pass(spray, points, config)[0]


def realization_form(spray, point, config: RealizationConfig = RealizationConfig()) -> np.ndarray:
    return realization_form_batch(spray, np.asarray(point, dtype=float)[None, :], config)[0]


def source_target_batch(spray, points, config: RealizationConfig = RealizationConfig()):
    """(s, t, ds, dt) at each point: s = tau, t = tau after the time -1 flow."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x1, J1 = flow_points(spray.compiled(), points, -1.0, config.flow())
    return _source_target(points, x1, J1, spray.base_dim)


def source_target(spray, point, config: RealizationConfig = RealizationConfig()):
    s, t, ds, dt = source_target_batch(spray, np.asarray(point, dtype=float)[None, :], config)
    return s[0], t[0], ds[0], dt[0]


@dataclass(frozen=True)
class RealizationSample:
    """Realization data at one point of T*M."""

    point: tuple
    omega: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ds: np.ndarray
    dt: np.ndarray
    omega_invertible: bool
    condition: float

    @property
    def pi_P(self) -> np.ndarray:
        """Component matrix of the symplectic bivector: -omega^{-1}."""
        return -np.linalg.inv(self.omega)


def realization_sample(spray, point, config: RealizationConfig = RealizationConfig()) -> RealizationSample:
    point = np.asarray(point, dtype=float)
    W, s, t, ds, dt = (a[0] for a in _realization_batch(spray, point[None, :], config))
    sv = np.linalg.svd(W, compute_uv=False)
    invertible = bool(sv[-1] > 1e-12 * sv[0])
    cond = float(sv[0] / sv[-1]) if invertible else float("inf")
    if np.abs(W + W.T).max() > 1e-12 * max(1.0, np.abs(W).max()):
        raise AssertionError("realization form lost skewness")
    return RealizationSample(tuple(point), W, s, t, ds, dt, invertible, cond)


def sample_points(n: int, count: int, radius: float, seed: int = 0,
                  base_box: float = 1.0, base_offset=None) -> np.ndarray:
    """Seeded (q, p) samples with |p| <= radius; deterministic for the CLI."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-base_box, base_box, size=(count, n))
    if base_offset is not None:
        q = q + np.asarray(base_offset, dtype=float)
    p = rng.uniform(-1.0, 1.0, size=(count, n))
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    scale = rng.uniform(0.1, 1.0, size=(count, 1)) * radius
    p = p / np.maximum(norms, 1e-12) * scale
    return np.column_stack([q, p])


@dataclass(frozen=True)
class CriterionResult:
    name: str
    max_residual: float
    worst_point: tuple | None
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def as_dict(self):
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "max_residual": self.max_residual,
            "worst_point": None if self.worst_point is None else list(self.worst_point),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class DualPairReport:
    criteria: tuple
    samples: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def as_dict(self):
        return {
            "criteria": [c.as_dict() for c in self.criteria],
            "samples": self.samples,
            "status": "pass" if self.passed else "fail",
        }


def _graph_fiber(P_mat: np.ndarray) -> np.ndarray:
    """Columns spanning {(Pi^T mu, mu)} in R^{2m}."""
    m = P_mat.shape[0]
    return np.vstack([P_mat.T, np.eye(m)])


def _pullback_fiber(J: np.ndarray, graph: np.ndarray) -> np.ndarray:
    """{(w, J^T mu): J w = v, (v, mu) in graph} for a submersion differential J."""
    m, twon = J.shape
    V, F = graph[:m], graph[m:]
    A = np.column_stack([J, -V])
    K = nullspace_basis(A)
    w = K[:twon, :]
    mu = F @ K[twon:, :]
    return np.vstack([w, J.T @ mu])


def verify_dual_pair(
    spray: SprayField,
    points,
    config: RealizationConfig = RealizationConfig(),
    tolerance: float = 1e-6,
) -> DualPairReport:
    """Certify the dual-pair conditions at the sample points.

    Three criteria, each reported with its own max residual:
      (1) t Poisson and s anti-Poisson (pushforward residuals of pi_P);
      (2) ker(dt) and ker(ds) omega-orthogonal;
      (3) the gauge of the t-pullback of Gr(pi) by omega equals the
          s-pullback of Gr(pi) (span distance of the two Lagrangian fibers).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    pi_fn = spray.pi.compiled_matrix()
    W, s_val, t_val, ds, dt = _realization_batch(spray, points, config)
    piP = -np.linalg.inv(W)
    Pt, Ps = pi_fn(t_val), pi_fn(s_val)
    r1t = np.abs(dt @ piP @ dt.transpose(0, 2, 1) - Pt).max(axis=(1, 2))
    r1s = np.abs(ds @ piP @ ds.transpose(0, 2, 1) + Ps).max(axis=(1, 2))
    n2 = W.shape[1]
    rows = []
    for b in range(len(points)):
        kt = nullspace_basis(dt[b])
        ks = nullspace_basis(ds[b])
        r2 = np.abs(kt.T @ W[b] @ ks).max() if kt.size and ks.size else 0.0
        tgt = _pullback_fiber(dt[b], _graph_fiber(Pt[b]))
        sgt = _pullback_fiber(ds[b], _graph_fiber(Ps[b]))
        gauged = tgt.copy()
        gauged[n2:] += W[b].T @ tgt[:n2]
        rows.append((max(r1t[b], r1s[b]), r2, span_residual(gauged, sgt)))
    res = np.array(rows)

    def crit(name, col):
        b = int(res[:, col].argmax())
        return CriterionResult(name, float(res[b, col]), tuple(points[b]), tolerance)

    return DualPairReport(
        (
            crit("poisson_anti_poisson_relatedness", 0),
            crit("fiber_omega_orthogonality", 1),
            crit("gauge_pullback_span_equality", 2),
        ),
        len(points),
    )


# -- left/right invariant fields -----------------------------------------------


def _covector_field(spray, alpha: PolyKForm):
    """Compiled evaluator of a base 1-form: base points (B, n) -> (B, n)."""
    if alpha.degree != 1:
        raise PreconditionError("invariant fields are built from 1-forms")
    if alpha.chart != spray.pi.chart:
        raise ChartMismatchError("1-form must live on the base chart")
    zero = PolyScalar.zero(alpha.chart)
    comps = [CompiledScalar(alpha.components.get((i,), zero)) for i in range(spray.base_dim)]
    return lambda base_pts: np.stack([c(base_pts) for c in comps], axis=-1)


def _lr_fields(alpha_at, W, s_val, t_val, ds, dt):
    """alpha^L = -W^{-1} s^*alpha and alpha^R = -W^{-1} t^*alpha on a batch."""
    sa = np.einsum("bij,bi->bj", ds, alpha_at(s_val))
    ta = np.einsum("bij,bi->bj", dt, alpha_at(t_val))
    aL = -np.linalg.solve(W, sa[..., None])[..., 0]
    aR = -np.linalg.solve(W, ta[..., None])[..., 0]
    return aL, aR


def lr_field_values(spray, alpha: PolyKForm, points, config: RealizationConfig = RealizationConfig()):
    """Values of alpha^L = -pi_P^#(s^* alpha) and alpha^R = -pi_P^#(t^* alpha).

    pi_P^#(mu) = W^{-1} mu with our conventions, so alpha^L = -W^{-1} s^*alpha.
    """
    alpha_at = _covector_field(spray, alpha)
    W, s_val, t_val, ds, dt = batch = _realization_batch(spray, points, config)
    aL, aR = _lr_fields(alpha_at, *batch)
    return aL, aR, W, (s_val, t_val, ds, dt)


@dataclass(frozen=True)
class InvariantFieldReport:
    alpha_L: np.ndarray
    alpha_R: np.ndarray
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def as_dict(self):
        return {k: float(v) for k, v in self.residuals.items()}


def invariant_vector_fields(
    spray,
    alpha: PolyKForm,
    point,
    config: RealizationConfig = RealizationConfig(),
    beta: PolyKForm | None = None,
) -> InvariantFieldReport:
    """alpha^L, alpha^R at a point plus the five defining relation residuals.

    Relations: alpha^L is s-related to pi^#(alpha), alpha^R is t-related to
    -pi^#(alpha); omega(alpha^L, beta^L) = -s^* pi(alpha, beta);
    omega(alpha^R, beta^R) = t^* pi(alpha, beta); omega(alpha^L, beta^R) = 0.
    """
    if beta is None:
        beta = alpha
    alpha_at, beta_at = _covector_field(spray, alpha), _covector_field(spray, beta)
    pi_fn = spray.pi.compiled_matrix()
    batch = _realization_batch(spray, np.asarray(point, dtype=float)[None, :], config)
    aL, aR = (v[0] for v in _lr_fields(alpha_at, *batch))
    bL, bR = (v[0] for v in _lr_fields(beta_at, *batch))
    W, s_val, t_val, ds, dt = (a[0] for a in batch)
    Ps, Pt = pi_fn(s_val), pi_fn(t_val)
    a_s, a_t = alpha_at(s_val), alpha_at(t_val)
    b_s, b_t = beta_at(s_val), beta_at(t_val)
    res = {
        "left_s_related": float(np.abs(ds @ aL - Ps.T @ a_s).max()),
        "right_t_related": float(np.abs(dt @ aR + Pt.T @ a_t).max()),
        "omega_LL": float(abs(aL @ W @ bL + a_s @ Ps @ b_s)),
        "omega_RR": float(abs(aR @ W @ bR - a_t @ Pt @ b_t)),
        "omega_LR": float(abs(aL @ W @ bR)),
    }
    return InvariantFieldReport(aL, aR, res)


def bracket_relations_residual(
    spray,
    alpha: PolyKForm,
    beta: PolyKForm,
    point,
    config: RealizationConfig = RealizationConfig(),
    fd_step: float = 1e-5,
) -> dict:
    """FD residuals of [a^L,b^L] = [a,b]^L, [a^R,b^R] = -[a,b]^R, [a^L,b^R] = 0."""
    from .dirac import one_form_bracket

    alpha_at, beta_at = _covector_field(spray, alpha), _covector_field(spray, beta)
    ab_at = _covector_field(spray, one_form_bracket(spray.pi, alpha, beta))
    pt = np.asarray(point, dtype=float)
    n2 = 2 * spray.base_dim
    stencil = [pt]
    for i in range(n2):
        e = np.zeros(n2)
        e[i] = fd_step
        stencil.append(pt + e)
        stencil.append(pt - e)
    batch = _realization_batch(spray, np.array(stencil), config)
    aL, aR = _lr_fields(alpha_at, *batch)
    bL, bR = _lr_fields(beta_at, *batch)
    # [alpha, beta]^{L,R} at pt = stencil[0] reuses row 0 of the same flow
    abL, abR = _lr_fields(ab_at, *(a[:1] for a in batch))

    def jac(vals):
        J = np.empty((n2, n2))
        for i in range(n2):
            J[:, i] = (vals[1 + 2 * i] - vals[2 + 2 * i]) / (2 * fd_step)
        return J

    def lie(u_vals, v_vals):
        return jac(v_vals) @ u_vals[0] - jac(u_vals) @ v_vals[0]

    return {
        "LL": float(np.abs(lie(aL, bL) - abL[0]).max()),
        "RR": float(np.abs(lie(aR, bR) + abR[0]).max()),
        "LR": float(np.abs(lie(aL, bR)).max()),
    }


def closedness_residual(spray, point, config: RealizationConfig = RealizationConfig(),
                        fd_step: float = 1e-3) -> float:
    """Max FD residual of d omega = 0 at a point (stencil over neighbors)."""
    pt = np.asarray(point, dtype=float)
    n2 = 2 * spray.base_dim
    stencil = []
    for i in range(n2):
        e = np.zeros(n2)
        e[i] = fd_step
        stencil.append(pt + e)
        stencil.append(pt - e)
    W = realization_form_batch(spray, np.array(stencil), config)
    dW = np.empty((n2, n2, n2))
    for i in range(n2):
        dW[i] = (W[2 * i] - W[2 * i + 1]) / (2 * fd_step)
    worst = 0.0
    for i in range(n2):
        for j in range(i + 1, n2):
            for k in range(j + 1, n2):
                v = dW[i][j, k] + dW[j][k, i] + dW[k][i, j]
                worst = max(worst, abs(v))
    return worst
