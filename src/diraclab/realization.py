"""Symplectic realization of a Poisson chart from a spray on T*M.

Given a bivector pi on R^n, the spray is the vector field on the 2n-chart
(q, p)

    X = sum_ij Pi^{ij}(q) p_i d/dq_j,

so p is constant along its flow.  With Phi_t the flow of X (trajectories solve
dx/dt = -a(x), as everywhere in this package), the 2-form

    omega = int_0^1 (Phi_s)_* omega_can ds,     omega_can = sum dq_i ^ dp_i

is symplectic near the zero section, and

    s = tau  (bundle projection),     t = tau o Phi_{-1}

make (P, omega, s, t) a dual pair over (M, pi): t is Poisson, s is
anti-Poisson, and the s- and t-fibers are omega-orthogonal.

(Phi_s)_* omega_can is evaluated as the pullback (Phi_{-s})^* omega_can along
the backward flow; this sign is load-bearing and pinned by a regression test.

All of this lives on one backward trajectory per point: every entry point
makes a single batched pass of the flow that records the Gauss nodes -s of the
quadrature and then t = -1, so omega, s, t and their differentials come from
one integration per sample batch.  `realization_form` and `source_target`
take a point (2n,) or a batch (B, 2n).  The certification
is batched as well: verify_dual_pair stacks the kernels, pullback fibers and
projector distances of all points into a fixed number of SVD calls, whatever
the batch size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._numeric import (
    CriterionResult,
    FlowConfig,
    PackedPolys,
    compile_tensors,
    flow_points,
    gauge_fiber,
    nullspace_basis,
    pullback_fiber,
    span_residual,
    worst,
)
from .dirac import one_form_bracket
from .errors import ChartMismatchError, PreconditionError
from .fields import PolyKForm, PolyKVector, cotangent_chart, sum_of_products
from .poisson import PoissonBivector


QUAD_ORDER = 8  # Gauss-Legendre nodes of the s-integral of omega
# The rule on [0, 1], tabulated as numpy's leggauss(QUAD_ORDER) gives it mapped
# there, so no call solves its eigenproblem (or imports numpy.polynomial):
# the nodes s, increasing, and their weights.  A realization flow records
# D Phi_{-s} at each node, then at -1.
QUAD_NODES = (0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
              0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
              0.8983332387068134, 0.9801449282487681)
QUAD_WEIGHTS = (0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
                0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
                0.11119051722668721, 0.05061426814518853)
_RECORD_TIMES = tuple(-s for s in QUAD_NODES) + (-1.0,)


SPRAY_ESCAPE_NORM = 1e3  # a spray flow raises DomainEscapeError once some |(q, p)| exceeds it


@dataclass(frozen=True)
class RealizationConfig:
    """Integrator step and p-ball radius of the spray flow."""

    step: float = 1e-3
    radius: float = 1.0

    def __post_init__(self):
        self.flow()  # FlowConfig validates the step

    def flow(self) -> FlowConfig:
        return FlowConfig(step=self.step, escape_norm=SPRAY_ESCAPE_NORM)


class SprayField:
    """The spray of a bivector: its base bivector, chart (q, p) and field."""

    __slots__ = ("pi", "chart", "field", "_compiled")

    def __init__(self, pi: PoissonBivector):
        n = pi.chart.dim
        chart = cotangent_chart(n)
        M, momenta = pi.component_matrix(), chart.coordinates()[n:]
        comps = {(j,): sum_of_products(chart, [(1, M[i][j].embed(chart), momenta[i], None)
                                               for i in range(n) if M[i][j]])
                 for j in range(n)}
        X = PolyKVector(chart, 1, comps)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "field", X)
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, *a):
        raise AttributeError("SprayField is immutable")

    @property
    def base_dim(self) -> int:
        return self.pi.chart.dim

    def compiled(self) -> PackedPolys:
        """The field's components and their partials: x -> (a, Da)."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled", compile_tensors([self.field], partials=True))
        return self._compiled


def default_spray(pi: PoissonBivector) -> SprayField:
    """The spray X = sum Pi^{ij}(q) p_i d/dq_j of pi."""
    return SprayField(pi)


def _realization_batch(spray: SprayField, points, config: RealizationConfig):
    """(W, s, t, ds, dt) at a point (2n,) or a batch (B, 2n) from one backward flow.

    The flow records D Phi_{-s} at the Gauss nodes s in (0,1), in increasing order,
    and then continues to t = -1: the node snapshots give the quadrature
    W(p) = int_0^1 J_{-s}^T W_can J_{-s} ds, the last one gives t and dt.
    """
    single = np.ndim(points) == 1
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = spray.base_dim
    snaps = flow_points(spray.compiled().bind, points, -1.0, config.flow(),
                        record_times=_RECORD_TIMES)
    # J^T W_can J = J_q^T J_p - J_p^T J_q at every node, summed with weights
    Js = np.stack([J for _, J in snaps[:-1]])
    S = np.tensordot(QUAD_WEIGHTS, np.swapaxes(Js[..., :n, :], -1, -2) @ Js[..., n:, :], 1)
    x1, J1 = snaps[-1]
    ds = np.zeros((len(points), n, 2 * n))
    ds[:, :, :n] = np.eye(n)
    out = (S - np.swapaxes(S, 1, 2), points[:, :n], x1[:, :n], ds, J1[:, :n, :])
    return tuple(a[0] for a in out) if single else out


def realization_form(spray, point, config: RealizationConfig = RealizationConfig()) -> np.ndarray:
    """The 2-form matrix W(p) = int_0^1 J_{-s}^T W_can J_{-s} ds by quadrature."""
    return _realization_batch(spray, point, config)[0]


def source_target(spray, point, config: RealizationConfig = RealizationConfig()):
    """(s, t, ds, dt): s = tau, t = tau after the time -1 flow."""
    return _realization_batch(spray, point, config)[1:]


def sample_points(n: int, count: int, radius: float, seed: int = 0,
                  base_offset=None) -> np.ndarray:
    """Seeded (q, p) samples with q in base_offset + [-1, 1]^n and |p| <= radius;
    deterministic for the CLI."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, size=(count, n))
    if base_offset is not None:
        q = q + np.asarray(base_offset, dtype=float)
    p = rng.uniform(-1.0, 1.0, size=(count, n))
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    scale = rng.uniform(0.1, 1.0, size=(count, 1)) * radius
    p = p / np.maximum(norms, 1e-12) * scale
    return np.column_stack([q, p])


@dataclass(frozen=True)
class DualPairReport:
    criteria: tuple
    samples: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)


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
    W, s_val, t_val, ds, dt = _realization_batch(spray, points, config)
    piP = -np.linalg.inv(W)
    Pt, Ps = spray.pi.matrix_at(t_val), spray.pi.matrix_at(s_val)
    r1t = np.abs(dt @ piP @ dt.transpose(0, 2, 1) - Pt).max(axis=(1, 2))
    r1s = np.abs(ds @ piP @ ds.transpose(0, 2, 1) + Ps).max(axis=(1, 2))
    kt, ks = nullspace_basis(dt), nullspace_basis(ds)
    r2 = np.abs(np.swapaxes(kt, 1, 2) @ W @ ks).max(axis=(1, 2))
    # the fibers of Gr(pi) are {(Pi^T mu, mu)}
    gauged = gauge_fiber(pullback_fiber(dt, np.swapaxes(Pt, 1, 2)), W)
    sgt = pullback_fiber(ds, np.swapaxes(Ps, 1, 2))
    res = np.column_stack([np.maximum(r1t, r1s), r2, span_residual(gauged, sgt)])

    def crit(name, col):
        r, pt = worst(res[:, col], points)
        return CriterionResult(name, r, tuple(pt), tolerance)

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
    return compile_tensors([alpha])


def _lr_fields(alpha_at, W, s_val, t_val, ds, dt):
    """alpha^L = -W^{-1} s^*alpha and alpha^R = -W^{-1} t^*alpha on a batch."""
    sa = np.einsum("bij,bi->bj", ds, alpha_at(s_val))
    ta = np.einsum("bij,bi->bj", dt, alpha_at(t_val))
    aL = -np.linalg.solve(W, sa[..., None])[..., 0]
    aR = -np.linalg.solve(W, ta[..., None])[..., 0]
    return aL, aR


@dataclass(frozen=True)
class InvariantFieldReport:
    alpha_L: np.ndarray
    alpha_R: np.ndarray
    residuals: dict

    @property
    def max_residual(self) -> float:
        return worst(list(self.residuals.values()))[0]


def invariant_vector_fields(
    spray,
    alpha: PolyKForm,
    point,
    config: RealizationConfig = RealizationConfig(),
    *,
    beta: PolyKForm,
) -> InvariantFieldReport:
    """alpha^L, alpha^R at a point plus the five defining relation residuals.

    Relations: alpha^L is s-related to pi^#(alpha), alpha^R is t-related to
    -pi^#(alpha); omega(alpha^L, beta^L) = -s^* pi(alpha, beta);
    omega(alpha^R, beta^R) = t^* pi(alpha, beta); omega(alpha^L, beta^R) = 0.
    """
    alpha_at, beta_at = _covector_field(spray, alpha), _covector_field(spray, beta)
    batch = _realization_batch(spray, np.asarray(point, dtype=float)[None, :], config)
    aL, aR = (v[0] for v in _lr_fields(alpha_at, *batch))
    bL, bR = (v[0] for v in _lr_fields(beta_at, *batch))
    W, s_val, t_val, ds, dt = (a[0] for a in batch)
    Ps, Pt = spray.pi.matrix_at(s_val), spray.pi.matrix_at(t_val)
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


def _stencil(pt: np.ndarray, h: float) -> np.ndarray:
    """The central-difference points pt + h e_i, pt - h e_i for each i, in turn."""
    E = h * np.eye(len(pt))
    return np.stack([pt + E, pt - E], axis=1).reshape(-1, len(pt))


def bracket_relations_residual(
    spray,
    alpha: PolyKForm,
    beta: PolyKForm,
    point,
    config: RealizationConfig = RealizationConfig(),
) -> dict:
    """FD residuals of [a^L,b^L] = [a,b]^L, [a^R,b^R] = -[a,b]^R, [a^L,b^R] = 0,
    with central differences of step 1e-5."""
    alpha_at, beta_at = _covector_field(spray, alpha), _covector_field(spray, beta)
    ab_at = _covector_field(spray, one_form_bracket(spray.pi, alpha, beta))
    pt = np.asarray(point, dtype=float)
    h = 1e-5
    batch = _realization_batch(spray, np.vstack([pt, _stencil(pt, h)]), config)
    aL, aR = _lr_fields(alpha_at, *batch)
    bL, bR = _lr_fields(beta_at, *batch)
    # [alpha, beta]^{L,R} at pt = stencil[0] reuses row 0 of the same flow
    abL, abR = _lr_fields(ab_at, *(a[:1] for a in batch))

    def jac(vals):  # column i is the central difference along e_i, row-major
        return np.ascontiguousarray(((vals[1::2] - vals[2::2]) / (2 * h)).T)

    def lie(u_vals, v_vals):
        return jac(v_vals) @ u_vals[0] - jac(u_vals) @ v_vals[0]

    return {
        "LL": float(np.abs(lie(aL, bL) - abL[0]).max()),
        "RR": float(np.abs(lie(aR, bR) + abR[0]).max()),
        "LR": float(np.abs(lie(aL, bR)).max()),
    }


def closedness_residual(spray, point, config: RealizationConfig = RealizationConfig()) -> float:
    """Max FD residual of d omega = 0 at a point (central differences of step 1e-3)."""
    pt = np.asarray(point, dtype=float)
    n2 = 2 * spray.base_dim
    h = 1e-3
    W = realization_form(spray, _stencil(pt, h), config)
    dW = (W[0::2] - W[1::2]) / (2 * h)
    if n2 < 3:  # a 3-form in dimension 2 vanishes
        return 0.0
    # the cyclic sums dW[i][j, k] + dW[j][k, i] + dW[k][i, j] over i < j < k
    i, j, k = np.array(list(itertools.combinations(range(n2), 3))).T
    return worst(np.abs(dW[i, j, k] + dW[j, k, i] + dW[k, i, j]))[0]
