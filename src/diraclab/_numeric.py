"""Numeric kernels: compiled polynomial evaluation, RK4 flows, linear algebra.

`PackedPolys` is the one place where an exact polynomial becomes a float, the
one reader of `PolyScalar.float_terms`: every float evaluation of the exact
layer (an exact value rounded once aside) is one call into a table compiled
once per object or call, which evaluates every column, and with partials=True
every partial in a variable the column contains, from one monomial table and
one matmul; a partial's terms come from `float_terms(k)`, with no
`PolyScalar.partial`.  `compile_tensors` lays out tensors as its columns.
Time is a table variable like x: a column sum_d t^d p_d(x) has one row per
term t^d x^e.  The table gathers from any array whose first n columns are x and
whose last two columns are t and 1: `__call__` checks its points and builds
[x | t | 1], `at_state` reads a flow state as it is, and `bind` serves a flow.

One flow function, `flow_points(field, x0, t, config)`, with one field
protocol: a binder field(state, row) -> write, whose write() fills row with
[a | Da J] at the bound state.  `PackedPolys.bind` (one gather by flat
indices, one np.dot into its own [a | Da], then a and Da J into rows [:w] of the
slots, w its width) and the Moser binder (that gather and dot, one
`gauge_inverse`, matmuls into bound buffers) take their views from
`_stage_slots`.  A vector field with coefficient functions a(x) generates the
flow Phi_t whose trajectories solve dx/dt = -a(x).  For a time-dependent field the flow is defined through its
action on functions, d/dt (Phi_t)_* = (Phi_t)_* L_{X_t}; concretely Phi_t is
the inverse of the forward solution map of dx/dtau = +a(tau, x), computed by
integrating dz/ds = -a(z, t - s) from s = 0 to s = t.  A field that does not
depend on time ignores tau, and this is dx/dt = -a(x).  The RK4 state, with
the variational equations dJ/ds = -Da J, is one contiguous array of rows
[x | J | tau | 1], tau = t - s.  A call allocates once the state, one stage
input and the stage derivatives K, with rows [a | Da J | 1 | 0], and binds
each stage once: stage k writes a and Da J, unnegated, into K[k].  So every
stage input y - c K carries tau - c, and every update tau - h (to within
rounding: tau is reset to t - s at each recorded time), while the last
column stays exactly 1.0; the field reads x, J and tau from the stage buffer
itself, and all stage arithmetic runs on whole contiguous arrays.  The sign
of dz/ds is folded into the stage offsets and weights (formed once per
distinct step), and the update is one (4,) @ (4, B (n + n^2 + 2))
contraction added into the state in place.  The escape check then takes one
dot d of the state with itself, which bounds every row's |x|^2: a finite d
within escape_norm^2 passes, and only otherwise do the finiteness and
row-norm checks run.

`worst` is the one residual reducer: every verifier hands it its residuals,
so a non-finite residual reads as +inf, a fail with its point, and is never
dropped by a running max.  `CriterionResult` is the one criterion record,
exact or numeric, from verifier to report: the one pass rule and the one
writer of a criterion's report fields.

The linear-algebra helpers take stacks of matrices.  A rank mask (singular
values above tol times the largest) selects directions, so matrices of
different rank share one LAPACK call: every column is kept and the
unselected ones are zeroed.  An SVD that does not converge (on a non-finite
matrix) raises OverflowError.

The flows' gauge families and the Manin chart frame (not the pointwise gauge,
decided over Q) form their inverses in `gauge_inverse`, which bounds its
entries: A = I + Pi W is dimensionless, so s I passes in every dimension,
where a bound on det A would depend on n.  The entries' sum of squares
decides first; a per-matrix mask names the refused point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscapeError, ShapeError, TransversalityError

MAX_FLOW_STEPS = 10**7  # a longer step schedule is refused instead of built
RANK_TOL = 1e-10  # a singular value counts toward a rank above RANK_TOL times the largest


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step RK4 configuration; the step must be finite and positive."""

    step: float = 1e-3
    escape_norm: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ShapeError(f"step must be finite and positive, got {self.step}")


def worst(residuals, points=None):
    """(value, point) of the largest residual, reading a non-finite one as +inf.

    The first index wins ties; `point` is points[index], or None without
    points.  An empty batch raises ShapeError.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size == 0:
        raise ShapeError("no residuals to reduce")
    r = np.where(np.isfinite(r), r, np.inf)
    b = int(r.argmax())
    return float(r[b]), None if points is None else points[b]


@dataclass(frozen=True)
class CriterionResult:
    """One criterion of a report, exact or numeric.

    A numeric criterion passes iff its residual is finite and within
    tolerance; a missing or non-finite residual serializes as null.  An exact
    criterion has tolerance "exact" and passes iff its residual is 0 (for
    example the number of nonzero components of an identity), which
    serializes as "exact-zero".  A witness, if any, is serialized as given.
    """

    name: str
    max_residual: float | None
    worst_point: tuple | None
    tolerance: float | str
    witness: object = None

    @property
    def passed(self) -> bool:
        r = self.max_residual
        if self.tolerance == "exact":
            return r == 0
        return r is not None and math.isfinite(r) and r <= self.tolerance

    def as_dict(self):
        r = self.max_residual
        if self.tolerance == "exact":
            shown = "exact-zero" if self.passed else None
        else:
            shown = float(r) if r is not None and math.isfinite(r) else None
        out = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "max_residual": shown,
            "worst_point": (None if self.worst_point is None
                            else [float(x) for x in self.worst_point]),
            "tolerance": self.tolerance,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class _MonomialTable:
    """Values of a fixed list of monomials in x and t at a batch of points.

    Each monomial is stored as its list of factors (x^2 y t as x, x, y, t),
    padded with index -1, so evaluation gathers from any array whose first n
    columns are x and whose last two columns are t and 1, and multiplies, one
    factor position at a time, instead of taking a floating-point pow per
    exponent.
    """

    __slots__ = ("columns",)

    def __init__(self, exps, dim: int):
        """exps: one (x-exponents..., time power) tuple per monomial."""
        exps = np.asarray(exps, dtype=np.int64).reshape(len(exps), dim + 1)
        width = max(1, int(exps.sum(axis=1).max(initial=0)))
        factors = np.full((len(exps), width), -1, dtype=np.intp)
        variables = np.append(np.arange(dim), -2)  # t is read from column -2
        for row, e in enumerate(exps):
            idx = np.repeat(variables, e)
            factors[row, : len(idx)] = idx
        # column k holds the k-th factor of every monomial
        self.columns = tuple(factors[:, k].copy() for k in range(width))

    def __call__(self, ext: np.ndarray) -> np.ndarray:
        """(..., m) -> (..., T) for ext[..., :n] = x, ext[..., -2] = t, ext[..., -1] = 1."""
        return _product(lambda col: ext.take(col, axis=-1), self.columns)

    def bind(self, state: np.ndarray):
        """() -> self(state) for a C-contiguous (B, m) state, by flat indices formed here."""
        flat, m = state.reshape(-1, copy=False), state.shape[1]
        idx = tuple(np.arange(0, flat.size, m)[:, None] + col % m for col in self.columns)
        return functools.partial(_product, flat.take, idx)


def _product(take, columns) -> np.ndarray:
    """The product of take(col) over the columns, taken left to right."""
    out = take(columns[0])
    for col in columns[1:]:
        out *= take(col)
    return out


class PackedPolys:
    """Packed evaluator of polynomial columns that may depend on time.

    Column c is sum_d t^d p_{c,d}(x), given as a mapping {d: PolyScalar}.
    One monomial table in (x, t) holds every term t^d x^e of the p_{c,d} and,
    with partials=True, of their partials, and one coefficient matrix shares
    its rows.  A call evaluates the table once and does one matmul: values
    (..., w) and, with partials=True, partials (..., w, n) with
    [c, k] = d_k column c.
    """

    __slots__ = ("dim", "width", "partials", "monomials", "coefs")

    def __init__(self, columns, dim: int, partials: bool = False):
        w = self.width = len(columns)
        self.dim, self.partials = dim, partials
        terms = []  # (time power, output column, float terms)
        for c, col in enumerate(columns):
            for d, p in col.items():
                terms.append((d, c, p.float_terms()))
                if partials:
                    terms += [(d, w + c * dim + k, p.float_terms(k)) for k in p.variables()]
        rows: dict = {}  # (x-exponents..., time power) -> row
        entries = [(rows.setdefault(e + (d,), len(rows)), col, v)
                   for d, col, ts in terms for e, v in ts]
        self.monomials = _MonomialTable(list(rows), dim)
        self.coefs = np.zeros((len(rows), w * (1 + dim) if partials else w))
        for r, col, v in entries:
            self.coefs[r, col] = v

    def __call__(self, pts, t: float = 0.0):
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != (self.dim,):
            raise ShapeError(f"points of shape {pts.shape} on a chart of dim {self.dim}")
        ext = np.empty(pts.shape[:-1] + (self.dim + 2,))
        ext[..., :-2], ext[..., -2], ext[..., -1] = pts, t, 1.0
        return self.at_state(ext)

    def at_state(self, state: np.ndarray):
        """Values at x = state[..., :dim] and t = state[..., -2] of an array
        whose last column is 1, such as a flow state [x | J | t | 1]; its
        shape is not checked."""
        out = self.monomials(state) @ self.coefs
        if not self.partials:
            return out
        w = self.width
        return out[..., :w], out[..., w:].reshape(state.shape[:-1] + (w, self.dim))

    def bind(self, state: np.ndarray, row: np.ndarray):
        """The `flow_points` field of a table of w <= dim columns with partials: write()
        fills rows [:w] of row's a and Da J slots at the bound state, and no other entry."""
        n, w, B = self.dim, self.width, len(state)
        if not self.partials or w > n:
            raise ShapeError(f"a flow field needs partials and at most {n} columns, not {w}")
        ka, kJ, J = _stage_slots(state, row, n, w)
        out = np.empty((B, w + w * n))  # [a | Da], Da row-major
        a, Da = out[:, :w], out[:, w:].reshape(B, w, n)
        table, coefs = self.monomials.bind(state), self.coefs

        def write():
            np.dot(table(), coefs, out=out)
            ka[...] = a
            np.matmul(Da, J, out=kJ)

        return write


def compile_tensors(tensors, partials: bool = False) -> PackedPolys:
    """One PackedPolys over the flat columns of each item, in order.

    An item is a degree-1 or degree-2 tensor on R^n, a time family
    sum_d t^d T_d given by `coeffs` {d: T_d} (such as TimePolyForm), or a list
    of columns {d: PolyScalar} taken as they are.  Degree 1 gives n columns;
    degree 2 gives the n * n row-major entries of the full antisymmetric
    matrix.  The first item fixes the chart dimension.
    """
    n = tensors[0].chart.dim
    columns = []
    for item in tensors:
        if isinstance(item, list):
            columns += item
            continue
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


RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])


def _step_schedule(duration: float, h: float):
    """Signed steps of magnitude <= h covering exactly `duration`."""
    if duration == 0.0:
        return []
    sign = 1.0 if duration > 0 else -1.0
    total = abs(duration)
    if not total / h <= MAX_FLOW_STEPS:
        raise ShapeError(f"a flow over {duration:g} at step {h:g} needs more than "
                         f"{MAX_FLOW_STEPS} steps")
    nfull = int(np.floor(total / h + 1e-12))
    rem = total - nfull * h
    steps = [sign * h] * nfull
    if rem > 1e-15:
        steps.append(sign * rem)
    return steps


def _check_escape(y: np.ndarray, n: int, escape_norm: float) -> None:
    """Raise DomainEscapeError if the state is not finite or x left the ball."""
    # each row's |x|^2 is at most the state's sum of squares d; a non-finite entry,
    # an overflow or a negative escape_norm fails this test, and the full check decides
    d = np.vdot(y, y)
    if d <= escape_norm * abs(escape_norm) and d < math.inf:
        return
    # one reduction: a non-finite entry makes the sum non-finite
    if not math.isfinite(y.sum()) and not np.all(np.isfinite(y)):
        raise DomainEscapeError("trajectory diverged", None)
    x = y[:, :n]
    sq = np.einsum("ij,ij->i", x, x)
    # sqrt is monotone, so the largest norm is the root of the largest square
    if math.sqrt(sq.max()) > escape_norm:
        raise DomainEscapeError("trajectory left the admissible region", x[int(sq.argmax())])


def _stage_slots(state: np.ndarray, row: np.ndarray, n: int, w: int):
    """A stage writer's views: rows [:w] of row's a and Da J slots, and the state's J."""
    m, B = n + n * n, len(state)
    return row[:, :w], row[:, n:m].reshape(B, n, n)[:, :w], state[:, n:m].reshape(B, n, n)


def flow_points(field, x0, t: float, config: FlowConfig, record_times=None):
    """Flow map Phi_t of the field with binder field(state, row) -> write.

    RK4 for dx/ds = -a(x, t - s) and dJ/ds = -Da(x, t - s) J from s = 0, J = I
    (see the module docstring); write() fills row[:, :n + n^2] with
    [a | Da J] at the bound state [x | J | tau | 1].  x0 is a batch (B, n).
    Returns (x, J) at time t, or, if record_times is given (running
    monotonically away from 0), the list of (x, J) snapshots at those times.
    """
    x0 = np.asarray(x0, dtype=float)
    B, n = x0.shape
    m = n + n * n
    # state rows [x | J | tau | 1] with J row-major, J(0) = I and tau = t - s;
    # the stage input; the stage derivatives [a | Da J | 1 | 0]; and the (x, J) views
    y = np.empty((B, m + 2))
    y[:, :n], y[:, n:m], y[:, m], y[:, m + 1] = x0, np.eye(n).ravel(), t, 1.0
    ys = np.empty_like(y)
    K = np.zeros((4,) + y.shape)
    K[:, :, m] = 1.0
    x, J = y[:, :n], y[:, n:m].reshape(B, n, n)
    flat_update, flat_K = ys.reshape(-1), K.reshape(4, -1)
    # stage 0 reads y; stages 1-3 read ys = y - c K_prev at offset c = f h
    write0 = field(y, K[0])
    stages = tuple(zip([field(ys, row) for row in K[1:]], K[:3], (0.5, 0.5, 1.0)))
    weights = {}  # the update weights of each distinct step
    snaps = []
    s = 0.0
    for target in [t] if record_times is None else record_times:
        for h in _step_schedule(target - s, config.step):
            w = weights.get(h)
            if w is None:
                w = weights[h] = RK4_WEIGHTS * (-h / 6.0)
            write0()
            for write, Kprev, f in stages:
                np.multiply(Kprev, -f * h, out=ys)  # dz/ds = -K, and tau - c
                ys += y
                write()
            np.dot(w, flat_K, out=flat_update)
            y += ys
            _check_escape(y, n, config.escape_norm)
        s = target
        y[:, m] = t - s  # the updates carry tau to within rounding
        snaps.append((x.copy(), J.copy()))
    return snaps[0] if record_times is None else snaps


def _svd(A: np.ndarray, **kwargs):
    """np.linalg.svd; LAPACK does not converge on a matrix past the float range."""
    try:
        return np.linalg.svd(A, **kwargs)
    except np.linalg.LinAlgError:
        raise OverflowError("SVD did not converge: a matrix past the float range") from None


def orthonormal_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal bases of a stack's column spans, via SVD with relative threshold RANK_TOL."""
    U, S, _ = _svd(columns, full_matrices=False)
    # S is sorted, so S_0 = 0 keeps nothing
    return U * (S > RANK_TOL * S[..., :1])[..., None, :]


def span_residual(cols_a: np.ndarray, cols_b: np.ndarray) -> np.ndarray:
    """Operator-norm distances of the orthogonal projectors of two stacks of spans."""
    if cols_a.shape == cols_b.shape:  # one call: LAPACK still factors one matrix at a time
        Qa, Qb = orthonormal_basis(np.stack([cols_a, cols_b]))
    else:
        Qa, Qb = orthonormal_basis(cols_a), orthonormal_basis(cols_b)
    D = Qa @ np.swapaxes(Qa, -1, -2) - Qb @ np.swapaxes(Qb, -1, -2)
    return _svd(D, compute_uv=False)[..., 0]


def nullspace_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal bases of a stack's kernels, via full SVD with relative threshold RANK_TOL."""
    _, S, Vt = _svd(A)
    # the rows of Vt past the rank; S_0 = 0 means rank 0
    keep = np.ones(Vt.shape[:-1], dtype=bool)
    keep[..., : S.shape[-1]] = ~(S > RANK_TOL * S[..., :1])
    return np.swapaxes(Vt, -1, -2) * keep[..., None, :]


def block_scale(A: np.ndarray) -> np.ndarray:
    """The power of two nearest the largest |entry| of each matrix, shaped to
    divide it (1 for a zero matrix): dividing by it is exact, and a matrix of
    entries near 1 is left as it is."""
    m = np.abs(A).max(axis=(-2, -1), keepdims=True, initial=0.0)
    return np.exp2(np.round(np.log2(np.where(m > 0, m, 1.0))))


def pullback_fiber(J: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Columns spanning {(w, J^T c) : J w = vectors c} for a differential J.

    This is the pullback along J of the fiber {(Pi^T mu, mu)} of a graph
    Gr(pi), with vectors = Pi^T, per matrix of a stack.  The null space is
    that of [J/j, -vectors/a] for the `block_scale`s j and a, so its rank
    does not depend on their ratio, and c = (j/a) c' for its c'.
    """
    j, a = block_scale(J), block_scale(vectors)
    K = nullspace_basis(np.concatenate([J / j, -vectors / a], axis=-1))
    k = J.shape[-1]
    nu = np.swapaxes(J, -1, -2) @ K[..., k:, :] * (j / a)
    return np.concatenate([K[..., :k, :], nu], axis=-2)


def gauge_inverse(A: np.ndarray, points, message: str, *args) -> np.ndarray:
    """A^{-1} of one matrix A or a stack (a gauge matrix I + Pi W, a chart
    coframe P0 Xi), refused by
    TransversalityError(message.format(*args), point) at the first point where
    A is exactly singular or A^{-1} has an entry above 1 / RANK_TOL.  A
    non-finite A gives no verdict: its inverse's NaN entries reach the residual."""
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # exactly singular: the first failing matrix raises
        if A.ndim == 2:
            raise TransversalityError(message.format(*args), points) from None
        return np.stack([gauge_inverse(a, x, message, *args) for a, x in zip(A, points)])
    # a sum of squares bounds every entry; a NaN, inf or overflowed sum fails, and the mask decides
    if not np.vdot(inv, inv) <= RANK_TOL ** -2 and (big := np.abs(inv) > 1 / RANK_TOL).any():
        raise TransversalityError(message.format(*args), points if A.ndim == 2
                                  else points[int(big.any(axis=(1, 2)).argmax())])
    return inv


def gauge_fiber(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The gauge (v; mu) -> (v; mu + W^T v) = (v; mu + i_v omega) of the fiber
    columns V (2n x k, or a stack) by the 2-form matrix W (n x n, or a stack)."""
    n = W.shape[-1]
    v = V[..., :n, :]
    return np.concatenate([v, V[..., n:, :] + np.swapaxes(W, -1, -2) @ v], axis=-2)
