"""Manin triples and the bivectors, dressing actions and homogeneous-space
criteria they induce on group charts.

Algebraic checks (Jacobi, ad-invariance of the metric, Lagrangian subalgebra
conditions, l cap g = k) run in exact rational arithmetic.  Group-level data
(Ad on chart points, frames of left-invariant forms, multiplicativity of the
induced bivector) is numeric: chart points are exponential coordinates in a
basis of g, Ad_{exp Z} = expm(ad_Z), and the left-trivialized coordinate
frame comes from the dexp series (1 - e^{-ad_Z})/ad_Z, summed to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import _rat
from .errors import ShapeError
from .fields import accumulate
from .poisson import jacobi_violation, normalize_structure_constants, so3_constants


def _linalg():
    """scipy.linalg, imported on first use: the import costs about 0.3 s, and
    only the numeric group-chart code needs expm and logm."""
    import scipy.linalg

    return scipy.linalg


class MetrizedLieAlgebra:
    """Structure constants plus an invariant metric, all exact rationals."""

    __slots__ = ("dim", "C", "B", "_tensor", "_Bnum")

    def __init__(self, dim: int, C: dict, B):
        self.dim = dim
        self.C = normalize_structure_constants(C, dim)
        self.B = _rat.mat(B)
        if len(self.B) != dim or any(len(r) != dim for r in self.B):
            raise ShapeError("metric must be dim x dim")
        self._tensor = None
        self._Bnum = None

    def bracket(self, x, y):
        """Exact bracket of coefficient vectors."""
        out = [Fraction(0)] * self.dim
        for (a, b, k), v in self.C.items():
            out[k] += v * (x[a] * y[b] - x[b] * y[a])
        return out

    def pair(self, x, y) -> Fraction:
        return sum(
            x[i] * self.B[i][j] * y[j] for i in range(self.dim) for j in range(self.dim)
        )

    def ad(self, x):
        """Exact matrix of ad_x."""
        cols = []
        for j in range(self.dim):
            e = [Fraction(0)] * self.dim
            e[j] = Fraction(1)
            cols.append(self.bracket(x, e))
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    # numeric views ---------------------------------------------------------

    def bracket_tensor(self) -> np.ndarray:
        if self._tensor is None:
            T = np.zeros((self.dim, self.dim, self.dim))
            for (a, b, k), v in self.C.items():
                T[a, b, k] = float(v)
                T[b, a, k] = -float(v)
            self._tensor = T
        return self._tensor

    def bracket_num(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("abk,a,b->k", self.bracket_tensor(), x, y)

    def ad_num(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("abk,a->kb", self.bracket_tensor(), x)

    def metric_num(self) -> np.ndarray:
        if self._Bnum is None:
            self._Bnum = np.array([[float(v) for v in row] for row in self.B])
        return self._Bnum


def check_metrized(algebra: MetrizedLieAlgebra):
    """Exact Jacobi identity and ad-invariance; returns (ok, witness).

    Both checks visit only nonzero data and report the lexicographically
    first violated index tuple.
    """
    d = algebra.dim
    B = algebra.B
    jac = jacobi_violation(algebra.C)
    if jac is not None:
        return False, {"kind": "jacobi", "indices": jac}
    # symmetry and nondegeneracy of B
    for i in range(d):
        for j in range(d):
            if B[i][j] != B[j][i]:
                return False, {"kind": "metric-symmetry", "indices": (i, j)}
    if _rat.rank(B) < d:
        return False, {"kind": "metric-degenerate"}
    # S(a, b, c) = B([e_a, e_b], e_c) + B(e_b, [e_a, e_c])
    #            = sum_m c_{ab}^m B[m][c] + c_{ac}^m B[b][m] must vanish
    metric_rows = [[(r, w) for r, w in enumerate(row) if w] for row in B]
    sums: dict = {}
    for (p, q, m), v in algebra.C.items():
        for r, w in metric_rows[m]:  # w = B[m][r] = B[r][m]: B is symmetric here
            accumulate(sums, (p, q, r), v * w)
            accumulate(sums, (q, p, r), -v * w)
            accumulate(sums, (p, r, q), v * w)
            accumulate(sums, (q, r, p), -v * w)
    if sums:
        return False, {"kind": "ad-invariance", "indices": min(sums)}
    return True, None


class ManinTriple:
    """A metrized algebra with two transverse Lagrangian subalgebra bases.

    Basis vectors are stored as columns over the d-basis, exact rationals.
    """

    __slots__ = ("algebra", "g_basis", "h_basis", "_num")

    def __init__(self, algebra: MetrizedLieAlgebra, g_basis, h_basis):
        self.algebra = algebra
        self.g_basis = [[Fraction(x) for x in v] for v in g_basis]
        self.h_basis = [[Fraction(x) for x in v] for v in h_basis]
        d = algebra.dim
        for v in self.g_basis + self.h_basis:
            if len(v) != d:
                raise ShapeError("basis vector has wrong length")
        self._num = None

    @property
    def half_dim(self) -> int:
        return len(self.g_basis)

    # numeric caches ----------------------------------------------------------

    def _numeric(self):
        if self._num is None:
            G = np.array([[float(x) for x in v] for v in self.g_basis]).T
            H = np.array([[float(x) for x in v] for v in self.h_basis]).T
            full = np.column_stack([G, H])
            inv = np.linalg.inv(full)
            n = self.half_dim
            pr_g = G @ inv[:n, :]
            pr_h = H @ inv[n:, :]
            Bn = self.algebra.metric_num()
            self._num = {
                "G": G, "H": H, "pr_g": pr_g, "pr_h": pr_h,
                "g_coords": inv[:n, :], "h_coords": inv[n:, :],
                "B": Bn, "P0": H.T @ Bn @ G,
            }
        return self._num


def _is_subalgebra(algebra: MetrizedLieAlgebra, basis) -> tuple:
    cols = [list(v) for v in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = algebra.bracket(basis[i], basis[j])
            if not _rat.in_span(cols, br):
                return False, (i, j)
    return True, None


def _is_isotropic(algebra: MetrizedLieAlgebra, basis) -> tuple:
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            if algebra.pair(basis[i], basis[j]) != 0:
                return False, (i, j)
    return True, None


def check_manin_triple(triple: ManinTriple):
    """All triple axioms, exactly; returns (ok, witness)."""
    ok, witness = check_metrized(triple.algebra)
    if not ok:
        return False, witness
    d = triple.algebra.dim
    n = triple.half_dim
    if d != 2 * n or len(triple.h_basis) != n:
        return False, {"kind": "dimension", "detail": f"dim d = {d}, half bases {n}/{len(triple.h_basis)}"}
    for name, basis in (("g", triple.g_basis), ("h", triple.h_basis)):
        if _rat.rank(_rat.transpose(basis)) != n:
            return False, {"kind": "basis-rank", "subspace": name}
        ok, pair = _is_isotropic(triple.algebra, basis)
        if not ok:
            return False, {"kind": "isotropy", "subspace": name, "indices": pair}
        ok, pair = _is_subalgebra(triple.algebra, basis)
        if not ok:
            return False, {"kind": "subalgebra", "subspace": name, "indices": pair}
    joint = triple.g_basis + triple.h_basis
    if _rat.rank(_rat.transpose(joint)) != d:
        return False, {"kind": "transversality"}
    return True, None


def dual_triple(triple: ManinTriple) -> ManinTriple:
    return ManinTriple(triple.algebra, triple.h_basis, triple.g_basis)


# -- group charts -----------------------------------------------------------------


@dataclass(frozen=True)
class GroupChart:
    """Exponential coordinates on G together with a faithful matrix picture.

    `param` maps chart coordinates to a group matrix, `log_map` inverts it
    near the identity; both are only used to multiply group elements.  The
    adjoint action on d and the left-invariant coordinate frame are computed
    from the structure constants.
    """

    name: str
    triple: ManinTriple
    param: Callable[[np.ndarray], np.ndarray]
    log_map: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return self.triple.half_dim

    def _ad_d_generator(self, x: np.ndarray) -> np.ndarray:
        num = self.triple._numeric()
        Z = num["G"] @ np.asarray(x, dtype=float)
        return self.triple.algebra.ad_num(Z)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Ad_{g(x)} on d."""
        return _linalg().expm(self._ad_d_generator(x))

    def ad_inv(self, x: np.ndarray) -> np.ndarray:
        return _linalg().expm(-self._ad_d_generator(x))

    def frame(self, x: np.ndarray, terms: int = 20) -> np.ndarray:
        """Left-trivialized coordinate frame Xi(x).

        Column i holds theta^L(d/dx_i) in the g-basis; Xi solves
        g^{-1} dg = ((1 - e^{-ad_Z}) / ad_Z) dZ via the dexp series.
        """
        num = self.triple._numeric()
        Z = num["G"] @ np.asarray(x, dtype=float)
        ad_g = num["g_coords"] @ self.triple.algebra.ad_num(Z) @ num["G"]
        out = np.zeros_like(ad_g)
        term = np.eye(self.dim)
        for k in range(terms):
            out += term / math.factorial(k + 1)
            term = term @ (-ad_g)
        return out

    def compose(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.log_map(self.param(x) @ self.param(y))

    def validate(self, points, zeta_pairs=None, tol: float = 1e-9) -> dict:
        """Ad at the identity, metric preservation and bracket preservation."""
        alg = self.triple.algebra
        B = alg.metric_num()
        rng = np.random.default_rng(0)
        if zeta_pairs is None:
            zeta_pairs = [
                (rng.standard_normal(alg.dim), rng.standard_normal(alg.dim))
                for _ in range(3)
            ]
        res = {"identity": float(np.abs(self.ad(np.zeros(self.dim)) - np.eye(alg.dim)).max())}
        worst_metric = worst_bracket = 0.0
        for x in points:
            A = self.ad(np.asarray(x, dtype=float))
            worst_metric = max(worst_metric, float(np.abs(A.T @ B @ A - B).max()))
            for z1, z2 in zeta_pairs:
                lhs = A @ alg.bracket_num(z1, z2)
                rhs = alg.bracket_num(A @ z1, A @ z2)
                worst_bracket = max(worst_bracket, float(np.abs(lhs - rhs).max()))
        res["metric"] = worst_metric
        res["bracket"] = worst_bracket
        res["passed"] = max(res.values()) < tol
        return res


# -- the induced bivector ------------------------------------------------------------


def drinfeld_bivector(triple: ManinTriple, chart: GroupChart, x) -> np.ndarray:
    """Bivector of the triple at the chart point, in the h-basis coframe.

    Entry (a, b) is < pr_g(Ad_g h_a), pr_h(Ad_g h_b) >; skewness is asserted
    to 1e-12 at every evaluation, and the matrix vanishes at the identity.
    """
    num = triple._numeric()
    A = chart.ad(np.asarray(x, dtype=float))
    U = A @ num["H"]
    P = (num["pr_g"] @ U).T @ num["B"] @ (num["pr_h"] @ U)
    if np.abs(P + P.T).max() > 1e-12 * max(1.0, np.abs(P).max()):
        raise AssertionError("induced bivector lost skewness")
    return 0.5 * (P - P.T)


def drinfeld_bivector_chart(triple: ManinTriple, chart: GroupChart, x) -> np.ndarray:
    """The same bivector in chart-coordinate components.

    With A(x) the matrix of the left-invariant coframe over the coordinate
    coframe, the components are A^{-1} P A^{-T}.
    """
    num = triple._numeric()
    P = drinfeld_bivector(triple, chart, x)
    Amat = num["P0"] @ chart.frame(np.asarray(x, dtype=float))
    Ainv = np.linalg.inv(Amat)
    out = Ainv @ P @ Ainv.T
    return 0.5 * (out - out.T)


def dressing_action(triple: ManinTriple, chart: GroupChart, x, zeta) -> np.ndarray:
    """Left-trivialized dressing field: Ad_{g^{-1}} pr_g(Ad_g zeta), in the g-basis."""
    num = triple._numeric()
    zeta = np.asarray(zeta, dtype=float)
    x = np.asarray(x, dtype=float)
    val = chart.ad_inv(x) @ (num["pr_g"] @ (chart.ad(x) @ zeta))
    return num["g_coords"] @ val


def dressing_chart_field(triple: ManinTriple, chart: GroupChart, zeta):
    """The dressing vector field in chart coordinates, as a callable."""

    def field(x):
        x = np.asarray(x, dtype=float)
        w = dressing_action(triple, chart, x, zeta)
        return np.linalg.solve(chart.frame(x), w)

    return field


def e_map_residuals(
    triple: ManinTriple,
    chart: GroupChart,
    points,
    zeta1,
    zeta2,
    fd_step: float = 1e-5,
) -> dict:
    """Residuals of the correspondence d -> sections of TG + T*G.

    Checks, at each chart point: (1) the split pairing of the images equals
    the metric pairing of the inputs; (2) the finite-difference Lie bracket
    of the dressing fields matches the dressing field of the bracket;
    (3) the Lie derivative of the left-invariant coframe along the dressing
    field equals Ad_{g^{-1}} pr_g([Ad_g theta^L, Ad_g zeta]).
    """
    alg = triple.algebra
    num = triple._numeric()
    z1 = np.asarray(zeta1, dtype=float)
    z2 = np.asarray(zeta2, dtype=float)
    f1 = dressing_chart_field(triple, chart, z1)
    f2 = dressing_chart_field(triple, chart, z2)
    z12 = alg.bracket_num(z1, z2)
    f12 = dressing_chart_field(triple, chart, z12)
    n = chart.dim
    res = {"metric": 0.0, "bracket": 0.0, "coframe_derivative": 0.0}

    def theta_cols(x):
        return num["G"] @ chart.frame(x)  # d-coords of theta^L(d/dx_i)

    for pt in points:
        pt = np.asarray(pt, dtype=float)
        Xi = chart.frame(pt)
        th = theta_cols(pt)
        v1, v2 = f1(pt), f2(pt)
        mu1 = th.T @ num["B"] @ z1
        mu2 = th.T @ num["B"] @ z2
        got = mu1 @ v2 + mu2 @ v1
        res["metric"] = max(res["metric"], abs(got - float(z1 @ num["B"] @ z2)))

        def jac(f):
            J = np.empty((n, n))
            for i in range(n):
                e = np.zeros(n)
                e[i] = fd_step
                J[:, i] = (f(pt + e) - f(pt - e)) / (2 * fd_step)
            return J

        lie = jac(f2) @ v1 - jac(f1) @ v2
        res["bracket"] = max(res["bracket"], float(np.abs(lie - f12(pt)).max()))

        A = chart.ad(pt)
        Ainv = chart.ad_inv(pt)
        Dv1 = jac(f1)
        dtheta = [
            (theta_cols(pt + fd_step * _unit(n, m)) - theta_cols(pt - fd_step * _unit(n, m)))
            / (2 * fd_step)
            for m in range(n)
        ]
        for i in range(n):
            # (L_X theta)(d/dx_i) = X(theta(d/dx_i)) + sum_j dX^j/dx_i theta(d/dx_j)
            lhs = sum(v1[m] * dtheta[m][:, i] for m in range(n)) + th @ Dv1[:, i]
            rhs = Ainv @ (num["pr_g"] @ alg.bracket_num(A @ th[:, i], A @ z1))
            res["coframe_derivative"] = max(
                res["coframe_derivative"], float(np.abs(lhs - rhs).max())
            )
    return res


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def verify_multiplicativity(
    triple: ManinTriple,
    chart: GroupChart,
    pairs,
    fd_step: float = 1e-5,
) -> dict:
    """Pushforward of the product bivector along Mult versus the bivector.

    For each chart pair (x1, x2): compute z with g(z) = g(x1) g(x2), the
    finite-difference differential D of the composition, and the residual
    | D diag(Pi(x1), Pi(x2)) D^T - Pi(z) |.
    """
    n = chart.dim
    worst = 0.0
    worst_pair = None
    results = []
    for x1, x2 in pairs:
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        z = chart.compose(x1, x2)
        D = np.empty((n, 2 * n))
        for i in range(n):
            e = _unit(n, i) * fd_step
            D[:, i] = (chart.compose(x1 + e, x2) - chart.compose(x1 - e, x2)) / (2 * fd_step)
            D[:, n + i] = (chart.compose(x1, x2 + e) - chart.compose(x1, x2 - e)) / (2 * fd_step)
        P1 = drinfeld_bivector_chart(triple, chart, x1)
        P2 = drinfeld_bivector_chart(triple, chart, x2)
        Pz = drinfeld_bivector_chart(triple, chart, z)
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = P1
        block[n:, n:] = P2
        r = float(np.abs(D @ block @ D.T - Pz).max())
        results.append(r)
        if r > worst:
            worst, worst_pair = r, (tuple(x1), tuple(x2))
    return {"max_residual": worst, "worst_pair": worst_pair, "residuals": results}


def jacobiator_fd_residual(triple: ManinTriple, chart: GroupChart, points,
                           fd_step: float = 1e-5) -> float:
    """Max FD Jacobiator residual of the chart bivector at the points."""
    n = chart.dim
    worst = 0.0
    for pt in points:
        pt = np.asarray(pt, dtype=float)
        P = drinfeld_bivector_chart(triple, chart, pt)
        dP = np.empty((n, n, n))
        for m in range(n):
            e = _unit(n, m) * fd_step
            dP[m] = (
                drinfeld_bivector_chart(triple, chart, pt + e)
                - drinfeld_bivector_chart(triple, chart, pt - e)
            ) / (2 * fd_step)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = sum(
                        P[i, m] * dP[m][j, k]
                        + P[j, m] * dP[m][k, i]
                        + P[k, m] * dP[m][i, j]
                        for m in range(n)
                    )
                    worst = max(worst, abs(s))
    return worst


# -- homogeneous spaces ----------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousSpaceData:
    triple: ManinTriple
    k_basis: list
    l_basis: list


def homogeneous_space_check(data: HomogeneousSpaceData, k_generators=None,
                            ad_tol: float = 1e-9):
    """Conditions for induced structures on G/K; returns (ok, report).

    Exact checks: k is a subalgebra of g; l is Lagrangian; l is a subalgebra;
    l cap g = k.  Numeric check: invariance of l under expm(ad) of the
    supplied k-generators (sufficient for connected K only; disconnected K
    needs generators of every component, which is flagged in the report).
    """
    triple = data.triple
    alg = triple.algebra
    k_basis = [[Fraction(x) for x in v] for v in data.k_basis]
    l_basis = [[Fraction(x) for x in v] for v in data.l_basis]
    report = {"connectedness_caveat": "invariance checked on exp of supplied generators only"}

    for v in k_basis:
        if not _rat.in_span([list(w) for w in triple.g_basis], list(v)):
            return False, {**report, "failure": "k not contained in g"}
    ok, pair = _is_subalgebra(alg, k_basis) if k_basis else (True, None)
    if not ok:
        return False, {**report, "failure": f"k not a subalgebra at {pair}"}

    n = triple.half_dim
    if len(l_basis) != n or _rat.rank(_rat.transpose(l_basis)) != n:
        return False, {**report, "failure": "l has wrong dimension"}
    ok, pair = _is_isotropic(alg, l_basis)
    if not ok:
        return False, {**report, "failure": f"l not isotropic at {pair}"}
    ok, pair = _is_subalgebra(alg, l_basis)
    if not ok:
        return False, {**report, "failure": f"l not a subalgebra at {pair}"}

    inter = _rat.span_intersection(
        [list(v) for v in l_basis], [list(v) for v in triple.g_basis]
    )
    if not _rat.span_equal(inter, [list(v) for v in k_basis]):
        return False, {**report, "failure": "l cap g != k"}

    worst = 0.0
    if k_generators:
        L = np.array([[float(x) for x in v] for v in l_basis]).T
        Q, _ = np.linalg.qr(L)
        proj = Q @ Q.T
        for gen in k_generators:
            gen = np.asarray(gen, dtype=float)
            A = _linalg().expm(alg.ad_num(gen))
            img = A @ L
            worst = max(worst, float(np.abs(img - proj @ img).max()))
        if worst > ad_tol:
            return False, {**report, "failure": "l not Ad_K-invariant", "residual": worst}
    report["ad_invariance_residual"] = worst
    return True, report


# -- built-in triples --------------------------------------------------------------


def semidirect_triple(constants: dict, n: int) -> ManinTriple:
    """(g semidirect g*, g, g*) with the coadjoint action and pairing metric."""
    C = normalize_structure_constants(constants, n)
    d = 2 * n
    Cd = dict(C)
    # [e_a, f^b] = -sum_c C_{ac}^b f^c, for both orientations of each constant
    for (a, c, b), v in C.items():
        Cd[(a, n + b, n + c)] = -v
        Cd[(c, n + b, n + a)] = v
    B = _rat.zeros(d, d)
    for i in range(n):
        B[i][n + i] = Fraction(1)
        B[n + i][i] = Fraction(1)
    alg = MetrizedLieAlgebra(d, Cd, B)
    g_basis = [[Fraction(1) if i == j else Fraction(0) for i in range(d)] for j in range(n)]
    h_basis = [[Fraction(1) if i == n + j else Fraction(0) for i in range(d)] for j in range(n)]
    return ManinTriple(alg, g_basis, h_basis)


def _so3_chart(triple: ManinTriple) -> GroupChart:
    L = np.zeros((3, 3, 3))
    for (a, b, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        L[a][k, b] = 1.0
        L[b][k, a] = -1.0

    def param(x):
        return _linalg().expm(np.einsum("i,ijk->jk", np.asarray(x, float), L))

    def log_map(R):
        X = _linalg().logm(R)
        X = np.real(X)
        return np.array([X[2, 1], X[0, 2], X[1, 0]])

    return GroupChart("so3-rotation", triple, param, log_map)


def so3_semidirect() -> tuple:
    triple = semidirect_triple(so3_constants(), 3)
    return triple, _so3_chart(triple)


def _su2_matrices():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return [(-0.5j) * s for s in (s1, s2, s3)], (s1, s2, s3)


def iwasawa_su2() -> tuple:
    """sl(2, C) as a real metrized algebra with k = su(2) and h = a + n.

    Basis (u1, u2, u3, v1, v2, v3) with v_j = i u_j; brackets
    [u_i, u_j] = eps u, [u_i, v_j] = eps v, [v_i, v_j] = -eps u;
    metric <u_i, v_j> = delta_ij (imaginary part of the complex trace form).
    h is spanned by v3 (the split Cartan direction) and v1 - u2, u1 + v2
    (the real and imaginary upper-triangular nilpotents).
    """
    C: dict = {}
    eps = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for (a, b, k) in eps:
        C[(a, b, k)] = Fraction(1)                 # [u,u] = u
        C[(a, 3 + b, 3 + k)] = Fraction(1)         # [u,v] = v
        C[(3 + a, b, 3 + k)] = Fraction(1)         # [v,u] = v
        C[(3 + a, 3 + b, k)] = Fraction(-1)        # [v,v] = -u
    B = _rat.zeros(6, 6)
    for i in range(3):
        B[i][3 + i] = Fraction(1)
        B[3 + i][i] = Fraction(1)
    alg = MetrizedLieAlgebra(6, C, B)
    g_basis = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
    h_basis = [
        [0, 0, 0, 0, 0, 1],       # v3
        [0, -1, 0, 1, 0, 0],      # v1 - u2
        [1, 0, 0, 0, 1, 0],       # u1 + v2
    ]
    triple = ManinTriple(alg, g_basis, h_basis)
    u, sigma = _su2_matrices()

    def param(x):
        return _linalg().expm(sum(float(c) * m for c, m in zip(x, u)))

    def log_map(k):
        X = _linalg().logm(k)
        return np.array([np.real(1j * np.trace(X @ s)) for s in sigma])

    chart = GroupChart("su2", triple, param, log_map)
    return triple, chart


def sl2_standard() -> ManinTriple:
    """(sl2 + sl2bar, diagonal, u) over the rationals, trace-form metric."""
    # basis (H, E, F) per copy: [H,E]=2E, [H,F]=-2F, [E,F]=H
    C1 = {(0, 1, 1): Fraction(2), (0, 2, 2): Fraction(-2), (1, 2, 0): Fraction(1)}
    Cd: dict = {}
    for (a, b, k), v in C1.items():
        Cd[(a, b, k)] = v
        Cd[(3 + a, 3 + b, 3 + k)] = v
    B = _rat.zeros(6, 6)
    for (i, j, v) in [(0, 0, 2), (1, 2, 1), (2, 1, 1)]:
        B[i][j] = Fraction(v)
        B[3 + i][3 + j] = Fraction(-v)
    alg = MetrizedLieAlgebra(6, Cd, B)
    g_basis = [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ]
    h_basis = [
        [0, 1, 0, 0, 0, 0],       # (E, 0)
        [0, 0, 0, 0, 0, 1],       # (0, F)
        [1, 0, 0, -1, 0, 0],      # (H, -H)
    ]
    return ManinTriple(alg, g_basis, h_basis)


def sl2_borel() -> ManinTriple:
    """(sl2 + cartan-bar, b+, b-) with the opposite-Borel embeddings."""
    C = {(0, 1, 1): Fraction(2), (0, 2, 2): Fraction(-2), (1, 2, 0): Fraction(1)}
    B = _rat.zeros(4, 4)
    B[0][0] = Fraction(2)
    B[1][2] = B[2][1] = Fraction(1)
    B[3][3] = Fraction(-2)
    alg = MetrizedLieAlgebra(4, C, B)
    g_basis = [
        [1, 0, 0, 1],             # H + T
        [0, 1, 0, 0],             # E
    ]
    h_basis = [
        [1, 0, 0, -1],            # H - T
        [0, 0, 1, 0],             # F
    ]
    return ManinTriple(alg, g_basis, h_basis)


def double_triple(triple: ManinTriple) -> ManinTriple:
    """(d + dbar, diagonal, g + h) built from any Manin triple."""
    d = triple.algebra.dim
    Cd: dict = {}
    for (a, b, k), v in triple.algebra.C.items():
        Cd[(a, b, k)] = v
        Cd[(d + a, d + b, d + k)] = v
    B = _rat.zeros(2 * d, 2 * d)
    for i in range(d):
        for j in range(d):
            B[i][j] = triple.algebra.B[i][j]
            B[d + i][d + j] = -triple.algebra.B[i][j]
    alg = MetrizedLieAlgebra(2 * d, Cd, B)
    diag = [[Fraction(1) if (i == j or i == d + j) else Fraction(0) for i in range(2 * d)]
            for j in range(d)]
    gh = [list(v) + [Fraction(0)] * d for v in triple.g_basis] + [
        [Fraction(0)] * d + list(v) for v in triple.h_basis
    ]
    return ManinTriple(alg, diag, gh)


def builtin_triples() -> dict:
    """Catalog of built-in triples; values are (triple, chart-or-None)."""
    semi, semi_chart = so3_semidirect()
    iwa, iwa_chart = iwasawa_su2()
    return {
        "semidirect-so3": (semi, semi_chart),
        "iwasawa-su2": (iwa, iwa_chart),
        "standard-sl2": (sl2_standard(), None),
        "borel-sl2": (sl2_borel(), None),
        "double-semidirect-so3": (double_triple(semi), None),
        "dual-iwasawa-su2": (dual_triple(iwa), None),
    }
