"""Numeric kernels: compiled polynomial evaluation, RK4 flows, quadrature.

One compiler: `compile_tensors` lays out degree-1 and degree-2 tensors and
time-polynomial families of them as the flat columns of one `PackedPolys`,
which evaluates every column, and with partials=True every partial, from one
monomial table and one matmul per call.  `PackedPolys` takes the
coefficients from `PolyScalar.float_terms`; it never reads exponents itself.

One flow function: `flow_points(field, x0, t, config)` with
field(x, tau) -> (a, Da), the `PackedPolys` call order.  A vector field with
coefficient functions a(x) generates the flow Phi_t whose trajectories solve
dx/dt = -a(x).  For a time-dependent field the flow is defined through its
action on functions, d/dt (Phi_t)_* = (Phi_t)_* L_{X_t}; concretely Phi_t is
the inverse of the forward solution map of dx/dtau = +a(tau, x), computed by
integrating dz/ds = -a(z, t - s) from s = 0 to s = t.  A field that does not
depend on time ignores tau, and this is dx/dt = -a(x).  The RK4 state carries
the variational equations dJ/ds = -Da J: each right-hand side is one field
call that writes -a and -Da J into one state-shaped buffer.
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
        powers = sorted({d for d, _, _ in polys}) or [0]
        rows: dict = {}
        entries = [(powers.index(d), rows.setdefault(e, len(rows)), col, v)
                   for d, col, p in polys for e, v in p.float_terms()]
        self.monomials = _MonomialTable(list(rows), dim)
        self.powers = np.array(powers, dtype=float) if powers != [0] else None
        coefs = np.zeros((len(powers), len(rows), w * (1 + dim) if partials else w))
        for d, r, col, v in entries:
            coefs[d, r, col] = v
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


def compile_tensors(tensors, partials: bool = False) -> PackedPolys:
    """One PackedPolys over the flat columns of each item, in order.

    An item is a degree-1 or degree-2 tensor on R^n, or a time family
    sum_d t^d T_d given by `coeffs` {d: T_d} (such as TimePolyForm).  Degree 1
    gives n columns; degree 2 gives the n * n row-major entries of the full
    antisymmetric matrix.  All items share one chart dimension.
    """
    n = tensors[0].chart.dim
    columns = []
    for item in tensors:
        cols = [{} for _ in range(n ** item.degree)]
        for d, T in (item.coeffs if hasattr(item, "coeffs") else {0: item}).items():
            for idx, p in T.components.items():
                if T.degree == 1:
                    cols[idx[0]][d] = p
                else:
                    i, j = idx
                    cols[i * n + j][d] = p
                    cols[j * n + i][d] = -p
        columns += cols
    return PackedPolys(columns, n, partials)


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


def flow_points(field, x0, t: float, config: FlowConfig, record_times=None):
    """Flow map Phi_t of the field with field(x, tau) -> (a, Da).

    RK4 for dx/ds = -a(x, t - s) and dJ/ds = -Da(x, t - s) J from s = 0, J = I
    (see the module docstring).  x0 may be a single point or a batch (B, n).
    Returns (x, J) at time t, or, if record_times is given (running
    monotonically away from 0), the list of (x, J) snapshots at those times.
    """
    single = np.ndim(x0) == 1
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    B, n = x0.shape
    # state rows (x, J) with J row-major, J(0) = I
    y = np.hstack([x0, np.tile(np.eye(n).ravel(), (B, 1))])

    def rhs(s, y):
        v, A = field(y[:, :n], t - s)
        # value and A J written into one state-shaped buffer
        dy = np.empty_like(y)
        dy[:, :n] = v
        np.matmul(A, y[:, n:].reshape(-1, n, n), out=dy[:, n:].reshape(-1, n, n))
        return np.negative(dy, out=dy)

    snaps = []
    s = 0.0
    for target in [t] if record_times is None else record_times:
        for h in _step_schedule(target - s, config.step):
            y = _rk4_step(rhs, y, s, h)
            s += h
            _check_escape(y, n, config.escape_norm)
        s = target
        x, J = y[:, :n].copy(), y[:, n:].reshape(B, n, n).copy()
        snaps.append((x[0], J[0]) if single else (x, J))
    return snaps[0] if record_times is None else snaps


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
