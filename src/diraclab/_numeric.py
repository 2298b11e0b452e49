"""Numeric kernels: compiled polynomial evaluation, RK4 flows, quadrature.

Flow convention: a vector field with coefficient functions a(x) generates the
flow Phi_t whose trajectories solve dx/dt = -a(x).  For a time-dependent
field the flow is defined through its action on functions,
d/dt (Phi_t)_* = (Phi_t)_* L_{X_t}; concretely Phi_T is the inverse of the
forward solution map of dx/dt = +a(t, x), which is computed here by
integrating dz/ds = -a(T-s, z) from s=0 to s=T.  For time-independent fields
this reduces to dx/dt = -a(x).

Both flows share one RK4 integrator whose right-hand side is a single
callable returning the field and its Jacobian, (a, Da), from one evaluation;
with the variational equations dJ = -Da J it writes -a and -Da J into one
state-shaped buffer.  Polynomial fields, time-polynomial families and
tensor entries are evaluated by PackedPolys: one monomial table and one
matmul per call, values and partials together.
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


class PackedPolys:
    """Packed evaluator of polynomial columns that may depend on time.

    Column c is sum_d t^d p_{c,d}(x), given as a mapping {d: PolyScalar}.
    One monomial table holds every term of the p_{c,d} and, with
    partials=True, of their partials; the coefficient matrices C_d share its
    rows.  A call at (x, t) forms C(t) = sum_d t^d C_d, evaluates the table
    once and does one matmul: values (..., w) and, with partials=True,
    partials (..., w, n) with [c, k] = d_k column c.
    """

    __slots__ = ("dim", "width", "partials", "monomials", "powers", "coefs")

    def __init__(self, columns, dim: int, partials: bool = False):
        w = self.width = len(columns)
        self.dim, self.partials = dim, partials
        polys = []  # (time power, output column, polynomial)
        for c, col in enumerate(columns):
            for d, p in col.items():
                polys.append((d, c, p))
                if partials:
                    polys += [(d, w + c * dim + k, p.partial(k)) for k in range(dim)]
        rows: dict = {}
        for _, _, p in polys:
            for e in p.terms:
                rows.setdefault(e, len(rows))
        powers = sorted({d for d, _, _ in polys}) or [0]
        self.monomials = _MonomialTable(list(rows), dim)
        self.powers = np.array(powers, dtype=float) if powers != [0] else None
        coefs = np.zeros((len(powers), len(rows), w * (1 + dim) if partials else w))
        for d, col, p in polys:
            for e, v in p.terms.items():
                coefs[powers.index(d), rows[e], col] = float(v)
        self.coefs = coefs[0] if self.powers is None else coefs

    def __call__(self, pts, t: float = 0.0):
        pts = np.asarray(pts, dtype=float)
        if self.powers is None:
            C = self.coefs
        else:
            P = len(self.powers)
            C = (t**self.powers @ self.coefs.reshape(P, -1)).reshape(self.coefs.shape[1:])
        out = self.monomials(pts) @ C
        if not self.partials:
            return out
        w = self.width
        return out[..., :w], out[..., w:].reshape(pts.shape[:-1] + (w, self.dim))


def skew_columns(entries, n: int) -> list:
    """Row-major columns of the antisymmetric n x n matrix whose (i, j) entry
    (i < j) is the column entries[(i, j)]; absent entries are zero."""
    cols = [{} for _ in range(n * n)]
    for (i, j), col in entries.items():
        cols[i * n + j] = col
        cols[j * n + i] = {d: -p for d, p in col.items()}
    return cols


class CompiledVectorField(PackedPolys):
    """Compiled degree-1 field on R^n: its n components with their partials.

    value_and_jacobian is one table evaluation and one matmul; the Jacobian
    is row-major, [i, k] = d_k a_i.
    """

    __slots__ = ()

    def __init__(self, field):
        n = field.chart.dim
        comps = field.components
        super().__init__([{0: comps[(i,)]} if (i,) in comps else {} for i in range(n)],
                         n, partials=True)

    # values (..., n) and Jacobians (..., n, n) from one table evaluation
    value_and_jacobian = PackedPolys.__call__

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self(pts)[0]

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        return self(pts)[1]


def compile_bivector(pi_field):
    """Compiled full antisymmetric component matrix of a bivector field."""
    n = pi_field.chart.dim
    packed = PackedPolys(skew_columns({idx: {0: p} for idx, p in pi_field.components.items()},
                                      n), n)

    def matrices(pts: np.ndarray) -> np.ndarray:
        out = packed(pts)
        return out.reshape(out.shape[:-1] + (n, n))

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


def _integrate(field_fn, x0, targets, config: FlowConfig, with_jacobian: bool):
    """RK4 for dx/ds = -a(s, x) and, with the Jacobian, dJ/ds = -Da(s, x) J.

    field_fn(s, x) returns (a, Da) on the batch.  Returns one (x, J) snapshot
    per target time; targets run monotonically away from s = 0.
    """
    single = np.ndim(x0) == 1
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    B, n = x0.shape
    # state rows (x, J) with J row-major, J(0) = I
    y = np.hstack([x0, np.tile(np.eye(n).ravel(), (B, 1))]) if with_jacobian else x0.copy()

    def rhs(s, y):
        v, A = field_fn(s, y[:, :n])
        if not with_jacobian:
            return -v
        # value and A J written into one state-shaped buffer
        dy = np.empty_like(y)
        dy[:, :n] = v
        np.matmul(A, y[:, n:].reshape(-1, n, n), out=dy[:, n:].reshape(-1, n, n))
        return np.negative(dy, out=dy)

    out = []
    s = 0.0
    for target in targets:
        for h in _step_schedule(target - s, config.step):
            y = _rk4_step(rhs, y, s, h)
            s += h
            _check_escape(y, n, config.escape_norm)
        s = target
        x, J = y[:, :n].copy(), y[:, n:].reshape(B, n, n).copy() if with_jacobian else None
        out.append((x[0], None if J is None else J[0]) if single else (x, J))
    return out


def flow_points(field: CompiledVectorField, x0, t: float, config: FlowConfig,
                with_jacobian: bool = True, record_times=None):
    """Flow map Phi_t of a time-independent field (trajectories dx = -a dx).

    x0 may be a single point or a batch (B, n).  Returns (x, J) at time t, or,
    if record_times is given (monotone ascending in |t| direction), the list of
    (x, J) snapshots at those times.
    """
    snaps = _integrate(lambda _s, x: field(x), x0,
                       [t] if record_times is None else record_times, config, with_jacobian)
    return snaps[0] if record_times is None else snaps


def flow_points_td(field_fn, x0, T: float, config: FlowConfig, with_jacobian: bool = True):
    """Flow map Phi_T of a time-dependent field; field_fn(t, x) -> (a, Da).

    Integrates dz/ds = -a(T-s, z) from s=0 to s=T, which realizes the inverse
    of the forward solution map of dx/dt = +a(t,x); see the module docstring.
    """
    return _integrate(lambda s, x: field_fn(T - s, x), x0, [T], config, with_jacobian)[0]


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
