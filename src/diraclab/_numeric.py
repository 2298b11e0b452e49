"""Numeric kernels: compiled polynomial evaluation, RK4 flows, quadrature.

Flow convention: a vector field with coefficient functions a(x) generates the
flow Phi_t whose trajectories solve dx/dt = -a(x).  For a time-dependent
field the flow is defined through its action on functions,
d/dt (Phi_t)_* = (Phi_t)_* L_{X_t}; concretely Phi_T is the inverse of the
forward solution map of dx/dt = +a(t, x), which is computed here by
integrating dz/ds = -a(T-s, z) from s=0 to s=T.  For time-independent fields
this reduces to dx/dt = -a(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainEscapeError


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step RK4 configuration."""

    step: float = 1e-3
    escape_norm: float = 1e6

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")


class _MonomialTable:
    """Values of a fixed list of monomials at a batch of points.

    Each monomial is stored as its list of variable factors (x^2 y as x, x,
    y), padded with the constant 1, so evaluation gathers from
    [1, x_1, ..., x_n] and multiplies, one factor position at a time, instead
    of taking a floating-point pow per exponent.
    """

    __slots__ = ("dim", "columns")

    def __init__(self, exps, dim: int):
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, dim)
        self.dim = dim
        width = max(1, int(exps.sum(axis=1).max(initial=0)))
        factors = np.zeros((len(exps), width), dtype=np.intp)
        for row, e in enumerate(exps):
            idx = np.repeat(np.arange(1, dim + 1), e)
            factors[row, : len(idx)] = idx
        # column k holds the k-th factor of every monomial
        self.columns = tuple(factors[:, k].copy() for k in range(width))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """(..., n) -> (..., T)."""
        ext = np.empty(pts.shape[:-1] + (self.dim + 1,))
        ext[..., 0] = 1.0
        ext[..., 1:] = pts
        out = ext.take(self.columns[0], axis=-1)
        for col in self.columns[1:]:
            out *= ext.take(col, axis=-1)
        return out


class CompiledScalar:
    """Vectorized evaluator of one polynomial: points (..., n) -> values (...)."""

    __slots__ = ("dim", "monomials", "coefs")

    def __init__(self, poly):
        self.dim = poly.chart.dim
        items = poly.sorted_terms()
        self.monomials = _MonomialTable([e for e, _ in items], self.dim)
        self.coefs = np.array([float(c) for _, c in items])

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.monomials(np.asarray(pts, dtype=float)) @ self.coefs


class CompiledVectorField:
    """Compiled degree-1 field on R^n: values and coefficient Jacobian.

    One monomial table holds the terms of the n components and of their n*n
    partials; one matmul with the coefficient matrix gives the values
    (columns :n) and the row-major Jacobian (columns n:) together.
    """

    __slots__ = ("dim", "monomials", "coefs")

    def __init__(self, field):
        chart = field.chart
        n = self.dim = chart.dim
        from .fields import PolyScalar

        comps = [field.components.get((i,), PolyScalar.zero(chart)) for i in range(n)]
        polys = comps + [comps[i].partial(j) for i in range(n) for j in range(n)]
        rows: dict = {}
        for p in polys:
            for e in p.terms:
                rows.setdefault(e, len(rows))
        self.monomials = _MonomialTable(list(rows), n)
        self.coefs = np.zeros((len(rows), len(polys)))
        for col, p in enumerate(polys):
            for e, c in p.terms.items():
                self.coefs[rows[e], col] = float(c)

    def value_and_jacobian(self, pts: np.ndarray):
        """Values (..., n) and Jacobians (..., n, n) from one table evaluation."""
        pts = np.asarray(pts, dtype=float)
        n = self.dim
        out = self.monomials(pts) @ self.coefs
        return out[..., :n], out[..., n:].reshape(pts.shape[:-1] + (n, n))

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.value_and_jacobian(pts)[0]

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        return self.value_and_jacobian(pts)[1]


def compile_bivector(pi_field):
    """Compiled full antisymmetric component matrix of a bivector field."""
    chart = pi_field.chart
    n = chart.dim
    entries = [(idx, CompiledScalar(p)) for idx, p in pi_field.components.items()]

    def matrices(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1] + (n, n))
        for (i, j), c in entries:
            v = c(pts)
            out[..., i, j] = v
            out[..., j, i] = -v
        return out

    return matrices


def gauss_legendre_01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _rk4_step(f, y, t, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_schedule(duration: float, h: float):
    """Signed steps of magnitude <= h covering exactly `duration`."""
    if duration == 0.0:
        return []
    sign = 1.0 if duration > 0 else -1.0
    total = abs(duration)
    nfull = int(np.floor(total / h + 1e-12))
    rem = total - nfull * h
    steps = [sign * h] * nfull
    if rem > 1e-15:
        steps.append(sign * rem)
    return steps


class _FlowState:
    """Batched (x, J) state for a flow with variational equations."""

    def __init__(self, x0, with_jacobian):
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        self.B, self.n = x0.shape
        self.with_jac = with_jacobian
        if with_jacobian:
            J0 = np.broadcast_to(np.eye(self.n), (self.B, self.n, self.n)).copy()
            self.y = np.concatenate([x0, J0.reshape(self.B, -1)], axis=1)
        else:
            self.y = x0.copy()

    def unpack(self):
        x = self.y[:, : self.n]
        if not self.with_jac:
            return x, None
        J = self.y[:, self.n :].reshape(self.B, self.n, self.n)
        return x, J


def _make_rhs(value_fn, jac_fn, n, with_jacobian, sign):
    def rhs(t, y):
        x = y[:, :n]
        vx = sign * value_fn(t, x)
        if not with_jacobian:
            return vx
        J = y[:, n:].reshape(y.shape[0], n, n)
        A = sign * jac_fn(t, x)
        dJ = np.einsum("bij,bjk->bik", A, J)
        return np.concatenate([vx, dJ.reshape(y.shape[0], -1)], axis=1)

    return rhs


def _check_escape(y: np.ndarray, n: int, escape_norm: float) -> None:
    """Raise DomainEscapeError if the state is not finite or x left the ball."""
    # one reduction: a non-finite entry makes the sum non-finite
    if not np.isfinite(y.sum()) and not np.all(np.isfinite(y)):
        raise DomainEscapeError("trajectory diverged", None)
    x = y[:, :n]
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if norms.max() > escape_norm:
        b = int(norms.argmax())
        raise DomainEscapeError("trajectory left the admissible region", x[b])


def flow_points(field: CompiledVectorField, x0, t: float, config: FlowConfig,
                with_jacobian: bool = True, record_times=None):
    """Flow map Phi_t of a time-independent field (trajectories dx = -a dx).

    x0 may be a single point or a batch (B, n).  Returns (x, J) at time t, or,
    if record_times is given (monotone ascending in |t| direction), the list of
    (x, J) snapshots at those times.
    """
    n = field.dim
    state = _FlowState(x0, with_jacobian)
    single = np.ndim(x0) == 1

    def rhs(_t, y):
        x = y[:, :n]
        if not with_jacobian:
            return -field.value(x)
        # dx = -a(x), dJ = -Da(x) J, written into one state-shaped buffer
        v, A = field.value_and_jacobian(x)
        dy = np.empty_like(y)
        dy[:, :n] = v
        np.matmul(A, y[:, n:].reshape(-1, n, n), out=dy[:, n:].reshape(-1, n, n))
        return np.negative(dy, out=dy)

    def snap():
        x, J = state.unpack()
        if single:
            return (x[0].copy(), None if J is None else J[0].copy())
        return (x.copy(), None if J is None else J.copy())

    out = []
    cur = 0.0
    for target in ([t] if record_times is None else record_times):
        for h in _step_schedule(target - cur, config.step):
            state.y = _rk4_step(rhs, state.y, 0.0, h)
            _check_escape(state.y, n, config.escape_norm)
        cur = target
        out.append(snap())
    return out[0] if record_times is None else out


def flow_points_td(value_fn, jac_fn, x0, T: float, config: FlowConfig,
                   with_jacobian: bool = True):
    """Flow map Phi_T of a time-dependent field given by value_fn(t, x).

    Integrates dz/ds = -a(T-s, z) from s=0 to s=T, which realizes the inverse
    of the forward solution map of dx/dt = +a(t,x); see the module docstring.
    """
    n = np.shape(x0)[-1]
    state = _FlowState(x0, with_jacobian)
    rhs = _make_rhs(lambda s, x: value_fn(T - s, x), lambda s, x: jac_fn(T - s, x),
                    n, with_jacobian, -1.0)
    single = np.ndim(x0) == 1
    s = 0.0
    for h in _step_schedule(T, config.step):
        state.y = _rk4_step(rhs, state.y, s, h)
        s += h
        _check_escape(state.y, n, config.escape_norm)
    x, J = state.unpack()
    if single:
        return x[0], None if J is None else J[0]
    return x, J


def orthonormal_basis(columns: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span, via SVD with relative threshold."""
    A = np.atleast_2d(np.asarray(columns, dtype=float))
    if A.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    U, S, _ = np.linalg.svd(A, full_matrices=False)
    if S.size == 0 or S[0] == 0.0:
        return np.zeros((A.shape[0], 0))
    r = int(np.sum(S > tol * S[0]))
    return U[:, :r]


def span_residual(cols_a: np.ndarray, cols_b: np.ndarray) -> float:
    """Operator-norm distance of the orthogonal projectors of two spans."""
    Qa = orthonormal_basis(cols_a)
    Qb = orthonormal_basis(cols_b)
    na = np.zeros((cols_a.shape[0],) * 2)
    Pa = Qa @ Qa.T if Qa.size else na
    Pb = Qb @ Qb.T if Qb.size else na
    return float(np.linalg.norm(Pa - Pb, 2))


def nullspace_basis(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, S, Vt = np.linalg.svd(A)
    if S.size and S[0] > 0:
        r = int(np.sum(S > tol * S[0]))
    else:
        r = 0
    return Vt[r:].T
