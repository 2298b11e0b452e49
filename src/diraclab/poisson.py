"""Poisson structures as bivector fields.

Sign conventions (used consistently package-wide):

* pi(df, dg) = {f, g}, so the component matrix Pi with Pi[i][j] = pi(dx_i, dx_j)
  gives {f, g} = sum_ij Pi^{ij} d_i f d_j g;
* the sharp map is pi^#(mu) = pi(mu, .), i.e. Pi^T mu in components;
* a vector field with coefficients a(x) generates the flow of dx/dt = -a(x).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from ._numeric import (CriterionResult, FlowConfig, _stage_slots, _svd, compile_tensors,
                       flow_points, gauge_inverse, worst)
from .errors import (
    ChartMismatchError,
    DegreeError,
    PreconditionError,
    ShapeError,
)
from .fields import (
    Chart,
    PolyKForm,
    PolyKVector,
    PolyScalar,
    _rank,
    accumulate,
    cotangent_chart,
    expect,
    exterior_derivative,
    sort_index,
    sum_of_products,
)


class PoissonBivector:
    """A bivector field; its `jacobiator`, which `is_poisson` reads, is exact and cached."""

    __slots__ = ("pi", "_jacobiator", "_compiled")

    def __init__(self, pi: PolyKVector):
        expect(pi, PolyKVector, 2, "PoissonBivector")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_jacobiator", None)
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, *a):
        raise AttributeError("PoissonBivector is immutable")

    @property
    def chart(self) -> Chart:
        return self.pi.chart

    def component_matrix(self):
        """Full antisymmetric matrix of PolyScalars Pi^{ij}."""
        return _full_matrix(self.pi)

    def matrix_at(self, points) -> np.ndarray:
        """The full antisymmetric matrix Pi at a point (n,) or a batch (..., n):
        (..., n, n), from one table compiled on first use."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled", compile_tensors([self.pi]))
        out = self._compiled(points)
        return out.reshape(out.shape[:-1] + (self.chart.dim,) * 2)

    def __eq__(self, other):
        return isinstance(other, PoissonBivector) and self.pi == other.pi

    def __repr__(self):
        return f"PoissonBivector({self.pi!r})"


def _full_matrix(T) -> list:
    """Full antisymmetric n x n matrix of PolyScalars of a degree-2 tensor."""
    c, zero, n = T.components, PolyScalar.zero(T.chart), T.chart.dim
    return [[c[i, j] if (i, j) in c else -c[j, i] if (j, i) in c else zero for j in range(n)]
            for i in range(n)]


def from_components(chart: Chart, comps: Mapping) -> PoissonBivector:
    return PoissonBivector(PolyKVector(chart, 2, dict(comps)))


def standard_symplectic_poisson(n: int) -> PoissonBivector:
    """sum_i d/dq_i ^ d/dp_i on the chart (q1..qn, p1..pn)."""
    chart = cotangent_chart(n)
    comps = {(i, n + i): PolyScalar.constant(chart, 1) for i in range(n)}
    return from_components(chart, comps)


def sharp_apply(pi: PoissonBivector, alpha: PolyKForm) -> PolyKVector:
    """pi^#(alpha) for a 1-form: components (Pi^T alpha)_j = sum_i Pi^{ij} alpha_i."""
    expect(alpha, PolyKForm, 1, "sharp_apply")
    if alpha.chart != pi.chart:
        raise ChartMismatchError("form on the wrong chart")
    chart = pi.chart
    M = pi.component_matrix()
    return PolyKVector(chart, 1, {(j,): sum_of_products(chart, [
        (1, M[i][j], a, None) for (i,), a in alpha.components.items()]) for j in range(chart.dim)})


def bracket(pi: PoissonBivector, f: PolyScalar, g: PolyScalar) -> PolyScalar:
    """{f, g} = sum_{i<j} Pi^{ij} (d_i f d_j g - d_j f d_i g)."""
    if f.chart != pi.chart or g.chart != pi.chart:
        raise ChartMismatchError("bracket arguments must share the bivector's chart")
    return sum_of_products(pi.chart, [(s, p * f.partial(a), g, b)
                                      for (i, j), p in pi.pi.components.items()
                                      for s, a, b in ((1, i, j), (-1, j, i))])


def jacobiator(pi: PoissonBivector) -> PolyKVector:
    """The 3-vector field whose (i,j,k) component is Jac(x_i, x_j, x_k).

    Computed from the components directly:
    Jac^{ijk} = sum_m ( Pi^{im} d_m Pi^{jk} + Pi^{jm} d_m Pi^{ki}
                        + Pi^{km} d_m Pi^{ij} ).
    """
    if pi._jacobiator is not None:
        return pi._jacobiator
    chart = pi.chart
    n = chart.dim
    M = pi.component_matrix()
    comps = {(i, j, k): sum_of_products(chart, [
        (1, M[a][m], M[b][c], m)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)) for m in range(n)])
        for i, j, k in itertools.combinations(range(n), 3)}
    out = PolyKVector(chart, 3, comps)
    object.__setattr__(pi, "_jacobiator", out)
    return out


def is_poisson(pi: PoissonBivector) -> bool:
    return jacobiator(pi).is_zero()


# -- Lie-Poisson / structure constants ---------------------------------------


def normalize_structure_constants(c: Mapping, n: int) -> dict:
    """Canonical antisymmetric structure constants: keys (i, j, k) with i < j.

    Each entry states one constant c_{ij}^k; values are Fractions (anything
    `Fraction` accepts) or PolyScalars, kept as given, and zeros are dropped.
    Raises ShapeError on an index outside range(n), a nonzero c_{ii}^k, or
    both (i, j, k) and (j, i, k) listed with values that are not negatives of
    each other; a consistent pair states c_{ij}^k once.
    """
    vals = {key: v if isinstance(v, PolyScalar) else Fraction(v) for key, v in c.items()}
    out: dict = {}
    for (i, j, k), v in vals.items():
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ShapeError(f"structure constant index {(i, j, k)} out of range")
        if i == j:
            if v:
                raise ShapeError(f"c[{i},{i}]^{k} must vanish by antisymmetry")
        elif (j, i, k) in vals:
            if vals[(j, i, k)] != -v:
                raise ShapeError(f"constants not antisymmetric at {(i, j, k)}")
            if i < j and v:
                out[(i, j, k)] = v
        elif v:
            out[(i, j, k) if i < j else (j, i, k)] = v if i < j else -v
    return out


def jacobi_violation(cc: Mapping):
    """Lexicographically first (i, j, k, l), i < j < k, at which the Jacobi sum
    sum_m c_{ij}^m c_{mk}^l + c_{jk}^m c_{mi}^l + c_{ki}^m c_{mj}^l of
    canonical constants is nonzero, or None.

    Only pairs of nonzero constants are visited: each product
    c_{ab}^m c_{mx}^l (a < b, x not in {a, b}) lands on the sorted triple of
    (a, b, x) with that permutation's sign.
    """
    rows: dict = {}  # m -> [(x, l, c_{mx}^l)]
    for (p, q, l), w in cc.items():
        rows.setdefault(p, []).append((q, l, w))
        rows.setdefault(q, []).append((p, l, -w))
    sums: dict = {}
    for (a, b, m), v in cc.items():
        for x, l, w in rows.get(m, ()):
            if x != a and x != b:
                sidx, sign = sort_index((a, b, x))
                accumulate(sums, sidx + (l,), sign * v * w)
    return min(sums, default=None)


def lie_poisson(c: Mapping, n: int) -> PoissonBivector:
    """The fiberwise-linear bivector sum_{i<j,k} c_{ij}^k mu_k d_i ^ d_j on the
    chart (mu1, ..., mun).

    Its Jacobi identity holds exactly iff the constants do.
    """
    cc = normalize_structure_constants(c, n)
    chart = Chart(n, tuple(f"mu{i+1}" for i in range(n)))
    comps: dict = {}
    for (i, j, k), v in cc.items():
        accumulate(comps, (i, j), chart.coordinate(k) * v)
    return from_components(chart, comps)


def so3_constants() -> dict:
    """[e1,e2]=e3 and cyclic."""
    return {(0, 1, 2): Fraction(1), (1, 2, 0): Fraction(1), (2, 0, 1): Fraction(1)}


# -- the Lie algebroid dictionary ---------------------------------------------


@dataclass(frozen=True)
class LieAlgebroidData:
    """Anchored bracket data in a trivialization over a chart.

    anchors[i] is the image of the i-th frame section (a vector field on the
    base); constants[(i,j,k)] (i<j) are the bracket coefficients, functions on
    the base.
    """

    base: Chart
    rank: int
    anchors: tuple
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rank < 1:
            raise ShapeError("rank must be >= 1")
        if len(self.anchors) != self.rank:
            raise ShapeError("need one anchor field per frame section")
        for a in self.anchors:
            expect(a, PolyKVector, 1, "LieAlgebroidData anchor")
            if a.chart != self.base:
                raise ChartMismatchError("anchor not on the base chart")
        constants = {
            key: p if isinstance(p, PolyScalar) else PolyScalar.constant(self.base, p)
            for key, p in self.constants.items()
        }
        object.__setattr__(
            self, "constants", normalize_structure_constants(constants, self.rank)
        )


def total_chart(base: Chart, rank: int) -> Chart:
    names = base.names + tuple(f"y{i+1}" for i in range(rank))
    return Chart(base.dim + rank, names)


def algebroid_to_linear_poisson(A: LieAlgebroidData) -> PoissonBivector:
    """The dual-bundle bivector of anchored bracket data.

    On the chart (x, y) = base x fiber:
        pi = sum_{i<j,k} c_{ij}^k(x) y_k  d/dy_i ^ d/dy_j
             + sum_i d/dy_i ^ a_i ,
    which is fiberwise linear by construction.
    """
    m, n = A.base.dim, A.rank
    chart = total_chart(A.base, n)
    comps: dict = {}
    for (i, j, k), c in A.constants.items():
        accumulate(comps, (m + i, m + j), c.embed(chart) * chart.coordinate(m + k))
    for i, a in enumerate(A.anchors):
        for (j,), aj in a.components.items():
            # d/dy_i ^ a_i^j d/dx_j = -a_i^j d/dx_j ^ d/dy_i
            accumulate(comps, (j, m + i), -aj.embed(chart))
    return from_components(chart, comps)


def linear_poisson_to_algebroid(pi: PoissonBivector, base_dim: int) -> LieAlgebroidData:
    """Extract anchored bracket data from a fiberwise-linear bivector.

    The declared splitting is (x_1..x_m | y_1..y_n).  Components must have the
    fiber degrees a linear structure forces: base-base zero, base-fiber of
    fiber-degree 0, fiber-fiber of fiber-degree exactly 1.  Violations raise
    with the offending components listed.
    """
    m = base_dim
    n = pi.chart.dim - m
    if n < 1:
        raise ShapeError("splitting leaves no fiber directions")
    base = Chart(m, pi.chart.names[:m])
    offending = []
    anchors_comp: dict = {}
    constants: dict = {}
    for (i, j), p in pi.pi.components.items():  # i < j
        fiber_degrees = set(p.homogeneous_parts(m))
        if j < m:
            offending.append((i + 1, j + 1, "base-base component must vanish"))
        elif i < m:
            if fiber_degrees != {0}:
                offending.append((i + 1, j + 1, "base-fiber component must be fiber-constant"))
                continue
            # component (x_i, y_a) = -a_a^i
            anchors_comp.setdefault(j - m, {})[(i,)] = -p.restrict(base)
        else:
            if fiber_degrees != {1}:
                offending.append((i + 1, j + 1, "fiber-fiber component must be fiber-linear"))
                continue
            # a fiber-linear p is sum_k c_k(x) y_k, and d p / d y_k = c_k(x)
            for k in range(n):
                if c := p.partial(m + k):
                    constants[(i - m, j - m, k)] = c.restrict(base)
    if offending:
        raise DegreeError(f"bivector is not fiberwise linear for split {m}|{n}: {offending}")
    anchors = tuple(
        PolyKVector(base, 1, anchors_comp.get(a, {})) for a in range(n)
    )
    return LieAlgebroidData(base, n, anchors, constants)


# -- pointwise leaf data -------------------------------------------------------


@dataclass(frozen=True)
class LeafData:
    """Rank, tangent basis and induced symplectic matrix at one point.

    The rank 2k is exact, that of Pi at the point read as rationals.  The
    basis is an (n x 2k) orthonormal matrix, the first 2k left singular
    vectors of Pi, spanning ran(pi^#); it is an arbitrary SVD choice, so any
    basis-dependent output must be read as such.
    omega is minus the inverse of the restricted bivector: omega (-pi_S) = I.
    """

    point: tuple
    rank: int
    basis: np.ndarray
    omega: np.ndarray


def leaf_data_at_point(pi: PoissonBivector, point) -> LeafData:
    P = pi.matrix_at(point)
    exact = [Fraction(float(v)) for v in point]
    r = _rank([[p.evaluate_exact(exact) for p in row] for row in pi.component_matrix()])
    B = _svd(P)[0][:, :r]
    try:
        omega = -np.linalg.inv(B.T @ P @ B)
    except np.linalg.LinAlgError:  # Pi is nonzero at the point but underflows to 0.0
        raise OverflowError("the leaf form is past the float range") from None
    omega = 0.5 * (omega - omega.T)
    return LeafData(tuple(float(x) for x in point), r, B, omega)


# -- Moser verification ---------------------------------------------------------


class TimePolyForm:
    """A family sum_d t^d alpha_d polynomial in a time parameter, of k-forms
    or (for the Euler flow) of vector fields: `kind` is the class of every
    coefficient, zero ones included, as `fields.expect` reads it."""

    __slots__ = ("chart", "kind", "degree", "coeffs")

    def __init__(self, coeffs: Mapping[int, PolyKForm]):
        items = {int(d): a for d, a in coeffs.items()}
        if not items:
            raise ShapeError("need at least one coefficient form to fix chart/degree")
        shapes = {(a.chart, a.kind, a.degree) for a in items.values()}
        if len(shapes) != 1:
            raise ShapeError("coefficients must share chart, kind and degree")
        if min(items) < 0:
            raise ShapeError("time powers must be >= 0")
        for name, value in zip(("chart", "kind", "degree"), shapes.pop()):
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "coeffs", {d: a for d, a in items.items() if not a.is_zero()}
        )

    def __setattr__(self, *a):
        raise AttributeError("TimePolyForm is immutable")

    def exterior_derivative(self) -> "TimePolyForm":
        out = {d: exterior_derivative(a) for d, a in self.coeffs.items()}
        out.setdefault(0, PolyKForm(self.chart, self.degree + 1, {}))
        return TimePolyForm(out)

    def time_integral(self) -> "TimePolyForm":
        """- integral_0^t of the family in s (note the sign)."""
        out = {d + 1: a * Fraction(-1, d + 1) for d, a in self.coeffs.items()}
        out.setdefault(0, PolyKForm(self.chart, self.degree, {}))
        return TimePolyForm(out)


def gauge_family(pi: PoissonBivector, omega: Mapping[int, PolyKForm]) -> dict:
    """{d: A_d}, n x n PolyScalar matrices of the exact gauge matrix
    sum_d t^d A_d = I + Pi W_t of omega_t = sum_d t^d omega_d.  A_0 is always
    present: it carries I, so a zero family still has A = I."""
    chart, n, P = pi.chart, pi.chart.dim, pi.component_matrix()
    one = [(1, PolyScalar.constant(chart, 1), PolyScalar.constant(chart, 1), None)]
    W = {d: _full_matrix(omega.get(d, PolyKForm(chart, 2, {}))) for d in sorted({0, *omega})}
    return {d: [[sum_of_products(chart, [(1, P[i][k], Wd[k][j], None) for k in range(n)
                                         if P[i][k] and Wd[k][j]] + one * (d == 0 and i == j))
                 for j in range(n)] for i in range(n)] for d, Wd in W.items()}


def moser_verify(
    pi0: PoissonBivector,
    a_t: TimePolyForm,
    times: Sequence[float],
    grid: Sequence[Sequence[float]],
    config: FlowConfig = FlowConfig(),
    tolerance: float = 1e-6,
) -> CriterionResult:
    """Certify the gauge-flow invariance (Phi_T)_* pi_T = pi0 on a grid.

    The closed family omega_t = -int_0^t d a_s ds deforms pi0 by gauge
    transformations; the flow of X_t = pi_t^#(a_t) must carry pi_T back to
    pi0.  Returns the criterion "pushforward-invariance": the max pushforward
    residual over grid x times, at its grid point, against `tolerance`.

    With A = I + Pi W_t (W_t the matrix of omega_t) and u = A^{-T} a_t, the
    field is X = Pi^T u, with the exact Jacobian
    d_k X = d_k Pi^T u + Pi^T A^{-T}(d_k a - d_k A^T u).  A_t is formed exactly
    (`gauge_family`) and compiled with Pi and a_t, so one table evaluation
    gives every partial, and a flow stage does one `gauge_inverse` and matmuls.
    """
    if not is_poisson(pi0):
        raise PreconditionError("pi0 must be Poisson")
    expect(a_t, PolyKForm, 1, "moser_verify a_t")
    if a_t.chart != pi0.chart:
        raise ChartMismatchError("a_t on the wrong chart")
    gauge, field = _moser_field(pi0, a_t)
    grid_arr = np.array([list(map(float, g)) for g in grid])
    res = []
    for T in map(float, times):
        x_end, J = flow_points(field, grid_arr, T, config)
        P, A = gauge(grid_arr, T)
        piT = gauge_inverse(A, grid_arr, _DEGENERATE, T) @ P
        pushed = np.einsum("bij,bjk,blk->bil", J, piT, J)
        target = gauge(x_end, 0.0)[0]  # Pi, which is pi0, at x_end
        res.append(np.abs(pushed - target).reshape(len(grid_arr), -1).max(axis=1))
    r, x = worst(res, [x for _ in times for x in grid_arr])
    return CriterionResult("pushforward-invariance", r, tuple(x), tolerance)


_DEGENERATE = "gauge family degenerate at t={}"


def _moser_field(pi0: PoissonBivector, a_t: TimePolyForm):
    """The gauge family and the flow field of X_t = pi_t^#(a_t).

    gauge(pts, t) -> (Pi, A_t) from one packed table evaluation.
    field(state, row), the `flow_points` binder, binds once everything its
    writer reads: the table's gather, one table buffer [a | Pi, A | d a |
    d (Pi, A)] and u, M and DX.  write() evaluates the table at the state, inverts A once
    (`gauge_inverse`), and with u = A^{-T} a and M = Pi^T A^{-T} writes
    X = Pi^T u into the row's a slot and DX J into its J slot.
    """
    n, P = pi0.chart.dim, pi0.component_matrix()
    A_t = gauge_family(pi0, a_t.exterior_derivative().time_integral().coeffs)
    # a_t, then row by row Pi^{i.} and A_{i.}: the partials of Pi and A read
    # [i, (0 | 1, j, k)], so one matmul contracts both with u
    packed = compile_tensors([a_t, [col for i in range(n) for col in (
        [{0: p} if p else {} for p in P[i]]
        + [{d: A[i][j] for d, A in A_t.items() if A[i][j]} for j in range(n)])]],
        partials=True)
    w = n + 2 * n * n

    def gauge(pts, t):
        return packed(pts, t)[0][:, n:].reshape(-1, n, 2, n).transpose(2, 0, 1, 3)

    def field(state, row):
        ka, kJ, J = _stage_slots(state, row, n, n)
        B, x, tau = len(state), state[:, :n], state[:, -2]
        out = np.empty((B, w * (1 + n)))
        a, (P, A) = out[:, :n, None], out[:, n:w].reshape(B, n, 2, n).transpose(2, 0, 1, 3)
        da, dPA = out[:, w:w + n * n].reshape(B, n, n), out[:, w + n * n:].reshape(B, n, -1)
        u, M, DX, uPA = (np.empty(s) for s in ((B, n, 1), (B, n, n), (B, n, n), (B, 1, 2 * n * n)))
        PT, X, uT = P.swapaxes(1, 2), ka[..., None], u.swapaxes(1, 2)
        # [b, j, k] = (d_k Pi^T u)_j and (d_k A^T u)_j
        dPu, dATu = uPA.reshape(B, 2, n, n).transpose(1, 0, 2, 3)
        table, coefs = packed.monomials.bind(state), packed.coefs

        def write():
            np.dot(table(), coefs, out=out)
            AiT = gauge_inverse(A, x, _DEGENERATE, tau[0]).swapaxes(1, 2)
            np.matmul(AiT, a, out=u)
            np.matmul(PT, u, out=X)
            np.matmul(uT, dPA, out=uPA)
            np.matmul(PT, AiT, out=M)
            np.subtract(da, dATu, out=dATu)  # DX = d Pi^T u + M (d a - d A^T u)
            np.matmul(M, dATu, out=DX)
            np.add(DX, dPu, out=DX)
            np.matmul(DX, J, out=kJ)

        return write

    return gauge, field


# -- Euler-like linearization ----------------------------------------------------


@dataclass(frozen=True)
class EulerReport:
    max_residual: float
    worst_point: tuple
    samples: int
    points: np.ndarray
    images: np.ndarray


def euler_linearize(
    X: PolyKVector,
    sample_points: Sequence[Sequence[float]],
    config: FlowConfig = FlowConfig(),
) -> EulerReport:
    """Normalize a vector field with Euler-type linear part to the Euler field.

    Requires X(0) = 0 with linear part exactly E = sum_i x_i d/dx_i (checked
    symbolically).  The time-1 flow of Z_t, where Z is the nonlinear part and
    Z_t(x) = Z(tx)/t^2 componentwise, conjugates X to E; the report carries
    the sampled map phi_1 and the residual |Dphi_1 X - E o phi_1| over the
    samples.
    """
    expect(X, PolyKVector, 1, "euler_linearize")
    chart = X.chart
    n = chart.dim
    # split X = linear part + Z; demand linear part == Euler field, Z >= quadratic.
    # Z_t(x) = Z(tx)/t^2: the part of degree d picks up the factor t^(d-2)
    by_power: dict = {}
    for j in range(n):
        parts = X.components.get((j,), PolyScalar.zero(chart)).homogeneous_parts()
        if 0 in parts or parts.get(1) != chart.coordinate(j):
            raise PreconditionError(
                f"component {j+1}: linear part is not the Euler field"
            )
        for d, q in parts.items():
            if d >= 2:
                by_power.setdefault(d - 2, {})[(j,)] = q
    family = {d: PolyKVector(chart, 1, comps) for d, comps in by_power.items()}
    Z_t = compile_tensors([TimePolyForm(family or {0: PolyKVector(chart, 1, {})})],
                          partials=True)

    pts = np.array([list(map(float, p)) for p in sample_points])
    images, J = flow_points(Z_t.bind, pts, 1.0, config)
    Xvals = pts + Z_t(pts, 1.0)[0]  # X = E + Z and Z_1 = Z
    pushed = np.einsum("bij,bj->bi", J, Xvals)
    r, x = worst(np.abs(pushed - images).max(axis=1), pts)
    return EulerReport(r, tuple(x), len(pts), pts, images)
