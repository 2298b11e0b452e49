"""Manin triples and the bivectors, dressing actions and homogeneous-space
criteria they induce on group charts.

Algebraic checks (Jacobi, ad-invariance of the metric, the Lagrangian
subalgebras g, h and l, l cap g = k, Ad_K-invariance of l) run in exact
rational arithmetic with no tolerance: dimensions are `fields._rank`s, and a
membership (a bracket in a subalgebra; Ad_K-invariance, as a rational X has
Ad_{exp X} l = l iff [X, l] lies in l) is one `fields._span_test`, in ints.
Jacobi, ad-invariance and isotropy also sum ints: the numerators of the
constants and of the metric, each over one positive denominator.
The exact types hold no float: group-level data is numpy-only, and its one
input is a chart's float record `GroupChart.floats`, formed on first use.
Chart points are exponential coordinates in a basis of g.  One matrix
exponential, `_expm`, serves every group quantity.  One `_PointJet` per point
forms, from that record, Ad = expm(ad_Z), the left-trivialized frame Xi and
its partials from one block exponential of (1 - e^{-ad_Z})/ad_Z and its
derivative, the exact d_m Ad = Ad ad(theta_m), and K = Ad|_g; g is a
subalgebra, so Ad^{-1}|_g = K^{-1}, a solve.  Every chart certificate reads
these jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from ._numeric import CriterionResult, gauge_inverse, worst
from .errors import DomainEscapeError, ShapeError
from .fields import _integer_row, _rank, _span_test, accumulate
from .poisson import jacobi_violation, normalize_structure_constants, so3_constants


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential: the degree-12 Taylor polynomial of A / 2^s, squared s times.

    s brings the 1-norm below 1/4, where the truncation error is below
    (1/4)^13 / 13! < 3e-18; the largest input here is the 2n(n+1) = 24 square
    Van Loan block of `GroupChart.frame_jet` at n = 3.
    """
    s = max(0, math.frexp(float(np.abs(A).sum(axis=0).max()))[1] + 2)
    X = A * math.ldexp(1.0, -s)
    eye = np.eye(len(A))
    out = eye
    for k in range(12, 0, -1):
        out = eye + X @ out / k
    for _ in range(s):
        out = out @ out
    return out


class MetrizedLieAlgebra:
    """Exact structure constants and metric, both also as int numerators: the
    constants over one `den`, the metric rows over the lcm of its denominators."""

    __slots__ = ("dim", "C", "B", "den", "_Cnum", "_metric_rows")

    def __init__(self, dim: int, C: dict, B):
        self.dim = dim
        self.C = normalize_structure_constants(C, dim)
        self.den = den = math.lcm(*(v.denominator for v in self.C.values()))
        self._Cnum = {abk: v.numerator * (den // v.denominator) for abk, v in self.C.items()}
        self.B = [[Fraction(x) for x in row] for row in B]
        if len(self.B) != dim or any(len(r) != dim for r in self.B):
            raise ShapeError("metric must be dim x dim")
        # row i lists the nonzero entries (j, m B[i][j]), m the lcm of the denominators of B
        m = math.lcm(*(w.denominator for row in self.B for w in row))
        self._metric_rows = [[(j, w.numerator * (m // w.denominator)) for j, w in enumerate(row)
                              if w] for row in self.B]

    def scaled_bracket(self, x, y) -> list:
        """den [x, y]: ints on int coefficient vectors, spanning what [x, y] spans."""
        out = [0] * self.dim
        for (a, b, k), v in self._Cnum.items():
            out[k] += v * (x[a] * y[b] - x[b] * y[a])
        return out

    def scaled_pair(self, x, y) -> int:
        """m B(x, y), m > 0 as in `_metric_rows`: an int on int coefficient vectors,
        zero exactly when B(x, y) is."""
        return sum(x[i] * w * y[j] for i, row in enumerate(self._metric_rows) if x[i]
                   for j, w in row)


def check_metrized(algebra: MetrizedLieAlgebra):
    """Exact Jacobi identity and ad-invariance; returns (ok, witness).

    Both checks visit only nonzero data, sum the int numerators `_Cnum` and
    `_metric_rows` (positive multiples of C and B, so no sum moves to or from
    zero) and report the lexicographically first violated index tuple.
    """
    d = algebra.dim
    B = algebra.B
    jac = jacobi_violation(algebra._Cnum)
    if jac is not None:
        return False, {"kind": "jacobi", "indices": jac}
    # symmetry and nondegeneracy of B
    for i in range(d):
        for j in range(d):
            if B[i][j] != B[j][i]:
                return False, {"kind": "metric-symmetry", "indices": (i, j)}
    if _rank(B) < d:
        return False, {"kind": "metric-degenerate"}
    # S(a, b, c) = B([e_a, e_b], e_c) + B(e_b, [e_a, e_c])
    #            = sum_m c_{ab}^m B[m][c] + c_{ac}^m B[b][m] must vanish
    sums: dict = {}
    for (p, q, m), v in algebra._Cnum.items():
        for r, w in algebra._metric_rows[m]:  # w ~ B[m][r] = B[r][m]: B is symmetric here
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

    __slots__ = ("algebra", "g_basis", "h_basis")

    def __init__(self, algebra: MetrizedLieAlgebra, g_basis, h_basis):
        self.algebra = algebra
        self.g_basis = [[Fraction(x) for x in v] for v in g_basis]
        self.h_basis = [[Fraction(x) for x in v] for v in h_basis]
        d = algebra.dim
        for v in self.g_basis + self.h_basis:
            if len(v) != d:
                raise ShapeError("basis vector has wrong length")

    @property
    def half_dim(self) -> int:
        return len(self.g_basis)


def _bracket_escape(algebra: MetrizedLieAlgebra, basis, acting=None) -> tuple | None:
    """The first (i, j) with [acting_i, basis_j] outside the span of basis, None if
    there is none; acting defaults to basis itself over i < j, so None means a
    subalgebra.  Scaling the vectors to ints moves no bracket across a span."""
    basis = [_integer_row(v) for v in basis]
    inside = _span_test(basis)
    for i, x in enumerate(basis if acting is None else map(_integer_row, acting)):
        for j in range(i + 1 if acting is None else 0, len(basis)):
            if not inside(algebra.scaled_bracket(x, basis[j])):
                return i, j
    return None


def _nonzero_pairing(algebra: MetrizedLieAlgebra, basis) -> tuple | None:
    """The first (i, j) with a nonzero pairing; None for an isotropic span.  Scaling
    the vectors to ints makes no pairing zero or nonzero."""
    basis = [_integer_row(v) for v in basis]
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            if algebra.scaled_pair(basis[i], basis[j]):
                return i, j
    return None


def _lagrangian_failure(algebra: MetrizedLieAlgebra, basis, n: int) -> tuple | None:
    """The first failed axiom of a Lagrangian subalgebra of the 2n-dimensional
    d: ("basis-rank", None), ("isotropy", (i, j)) or ("subalgebra", (i, j))."""
    if len(basis) != n or _rank(basis) != n:
        return "basis-rank", None
    if pair := _nonzero_pairing(algebra, basis):
        return "isotropy", pair
    if pair := _bracket_escape(algebra, basis):
        return "subalgebra", pair
    return None


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
        if failure := _lagrangian_failure(triple.algebra, basis, n):
            kind, pair = failure
            witness = {"kind": kind, "subspace": name}
            return False, witness | {"indices": pair} if pair else witness
    if _rank(triple.g_basis + triple.h_basis) != d:
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
    from the structure constants, through `floats`.
    """

    name: str
    triple: ManinTriple
    param: Callable[[np.ndarray], np.ndarray]
    log_map: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return self.triple.half_dim

    @cached_property
    def floats(self) -> dict:
        """The triple's floats, formed on first use, so a user triple's axioms are
        decided before [G | H] (singular if h = g) is inverted: the bracket tensor
        T, G, H, pr_g, pr_h, the g-coordinates, B, P0 = H^T B G, ad_d[m] = ad(g_m)
        on d and ad_g[m], its restriction to g in the g-basis."""
        alg, n = self.triple.algebra, self.dim
        T = np.zeros((alg.dim,) * 3)
        for (a, b, k), v in alg.C.items():
            T[a, b, k] = float(v)
            T[b, a, k] = -float(v)
        G = np.array([[float(x) for x in v] for v in self.triple.g_basis]).T
        H = np.array([[float(x) for x in v] for v in self.triple.h_basis]).T
        try:
            inv = np.linalg.inv(np.column_stack([G, H]))
        except np.linalg.LinAlgError:  # g + h = d over Q, but not once G and H are rounded
            raise OverflowError(f"chart {self.name!r}: [G | H] is singular in floats, "
                                "an input past the float range") from None
        Bn = np.array([[float(v) for v in row] for row in alg.B])
        ad_d = np.array([np.einsum("abk,a->kb", T, G[:, m]) for m in range(n)])
        return {"T": T, "G": G, "H": H, "pr_g": G @ inv[:n, :], "pr_h": H @ inv[n:, :],
                "g_coords": inv[:n, :], "B": Bn, "P0": H.T @ Bn @ G, "ad_d": ad_d,
                "ad_g": inv[:n, :] @ ad_d @ G}

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Ad_{g(x)} on d."""
        return _expm(np.tensordot(np.asarray(x, dtype=float), self.floats["ad_d"], 1))

    def frame_jet(self, x: np.ndarray) -> tuple:
        """Left-trivialized coordinate frame Xi(x) and its partials dXi[m] = d Xi / dx_m.

        Column i of Xi holds theta^L(d/dx_i) in the g-basis; Xi solves
        g^{-1} dg = ((1 - e^{-ad_Z}) / ad_Z) dZ, so Xi = phi(M) with
        phi(W) = sum_k W^k / (k+1)! and M = -ad_g(x).  ad_g is linear in x, so
        d_m M^{k+1} = d_m M^k M - M^k E_m with the constant E_m = ad_g(e_m), and
        [Xi | d_1 Xi | ... | d_n Xi] is the first row block of phi(W) for the
        block-triangular W = [[M, -E_1 ... -E_n], [0, M], ...].  phi(W) is the
        upper-right block of exp([[W, I], [0, 0]]) (Van Loan, IEEE TAC 1978).
        """
        n = self.dim
        E = self.floats["ad_g"]
        M = -np.tensordot(np.asarray(x, dtype=float), E, 1)
        w = n * (n + 1)
        A = np.zeros((2 * w, 2 * w))
        A[:w, :w] = np.kron(np.eye(n + 1), M)
        A[:n, n:w] = -E.transpose(1, 0, 2).reshape(n, n * n)
        A[:w, w:] = np.eye(w)
        R = _expm(A)[:n, w:]
        return R[:, :n], R[:, n:].reshape(n, n, n).transpose(1, 0, 2)

    def compose(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.log_map(self.param(x) @ self.param(y))


# -- the induced bivector ------------------------------------------------------------


def _skew(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M - np.swapaxes(M, -1, -2))


def _h_bivector(num: dict, U: np.ndarray, x) -> np.ndarray:
    """Entry (a, b) = < pr_g U_a, pr_h U_b > for U = Ad_g H at the chart point
    x, skewness asserted."""
    P = (num["pr_g"] @ U).T @ num["B"] @ (num["pr_h"] @ U)
    if np.abs(P + P.T).max() > 1e-12 * max(1.0, np.abs(P).max()):
        raise DomainEscapeError("induced bivector lost skewness", x)
    return _skew(P)


def _chart_numeric(triple: ManinTriple, chart: GroupChart) -> dict:
    """`chart.floats`; a `triple` other than `chart.triple` is refused, not mixed in."""
    if triple is not chart.triple:
        raise ShapeError(f"the chart {chart.name!r} belongs to another triple; pass chart.triple")
    return chart.floats


def drinfeld_bivector(triple: ManinTriple, chart: GroupChart, x) -> np.ndarray:
    """Bivector of the triple at the chart point, in the h-basis coframe.

    Entry (a, b) is < pr_g(Ad_g h_a), pr_h(Ad_g h_b) >; skewness is asserted
    to 1e-12 at every evaluation, and the matrix vanishes at the identity.
    """
    num = _chart_numeric(triple, chart)
    return _h_bivector(num, chart.ad(x) @ num["H"], x)


class _PointJet:
    """Xi, Ad and K = Ad|_g (g-basis) at one chart point, with exact dXi[m], dAd[m].

    d_m Ad_{g(x)} = Ad ad(theta_m) for the frame columns theta_m = G Xi e_m,
    since g^{-1} d_m g = theta_m, and ad(theta_m) = sum_c Xi[c, m] ad(g_c).
    Ad G = G K, since g is a subalgebra, so Ad^{-1} on g is a solve against K.
    """

    def __init__(self, chart: GroupChart, x):
        self.x = x
        self.num = num = chart.floats
        self.Xi, self.dXi = chart.frame_jet(x)
        self.Ad = chart.ad(x)
        self.dAd = self.Ad @ np.tensordot(self.Xi.T, num["ad_d"], 1)
        self.K = num["g_coords"] @ self.Ad @ num["G"]

    def dressing(self, zeta: np.ndarray) -> tuple:
        """Chart components v of the dressing field of zeta and J[:, m] = d v / dx_m.

        Ad_g^{-1} pr_g Ad_g zeta has g-coordinates K^{-1} y with y the
        g-coordinates of Ad_g zeta; in chart components v = (K Xi)^{-1} y and
        d_m v = (K Xi)^{-1} (d_m y - d_m(K Xi) v).
        """
        gc, G = self.num["g_coords"], self.num["G"]
        KXi = self.K @ self.Xi
        dKXi = gc @ self.dAd @ G @ self.Xi + self.K @ self.dXi
        v = np.linalg.solve(KXi, gc @ (self.Ad @ zeta))
        return v, np.linalg.solve(KXi, (gc @ self.dAd @ zeta).T - (dKXi @ v).T)

    def bivector(self, partials: bool = False):
        """Pi = A^{-1} P A^{-T}, the bivector in chart-coordinate components, with
        A = P0 Xi the matrix of the left-invariant coframe over the coordinate
        coframe; with partials=True, (Pi, dPi) with dPi[m] = d Pi / dx_m."""
        num = self.num
        U = self.Ad @ num["H"]
        P = _h_bivector(num, U, self.x)
        Ainv = gauge_inverse(num["P0"] @ self.Xi, self.x, "chart frame singular: d exp degenerate")
        Pi = _skew(Ainv @ P @ Ainv.T)
        if not partials:
            return Pi
        dU = self.dAd @ num["H"]
        dP = _skew(np.swapaxes(num["pr_g"] @ dU, 1, 2) @ num["B"] @ (num["pr_h"] @ U))
        dP = dP + _skew((num["pr_g"] @ U).T @ num["B"] @ (num["pr_h"] @ dU))
        dAinv = -Ainv @ num["P0"] @ self.dXi @ Ainv
        dPc = dAinv @ P @ Ainv.T + Ainv @ dP @ Ainv.T + Ainv @ P @ np.swapaxes(dAinv, 1, 2)
        return Pi, _skew(dPc)


def drinfeld_bivector_chart(triple: ManinTriple, chart: GroupChart, x) -> np.ndarray:
    """The same bivector in chart-coordinate components, A^{-1} P A^{-T}."""
    _chart_numeric(triple, chart)
    return _PointJet(chart, x).bivector()


def dressing_action(triple: ManinTriple, chart: GroupChart, x, zeta) -> np.ndarray:
    """Left-trivialized dressing field: Ad_{g^{-1}} pr_g(Ad_g zeta), in the g-basis.

    With y the g-coordinates of Ad_g zeta, this is K^{-1} y for K = Ad|_g, as
    in `_PointJet.dressing`.
    """
    num = _chart_numeric(triple, chart)
    gc, Ad = num["g_coords"], chart.ad(x)
    return np.linalg.solve(gc @ Ad @ num["G"], gc @ (Ad @ np.asarray(zeta, dtype=float)))


def e_map_residuals(triple: ManinTriple, chart: GroupChart, points, zeta1, zeta2) -> dict:
    """Residuals of the correspondence d -> sections of TG + T*G.

    Checks, at each chart point: (1) the split pairing of the images equals
    the metric pairing of the inputs; (2) the Lie bracket of the dressing
    fields matches the dressing field of the bracket; (3) the Lie derivative
    of the left-invariant coframe along the dressing field equals
    Ad_{g^{-1}} pr_g([Ad_g theta^L, Ad_g zeta]).  The Jacobians of the
    dressing fields and the partials of theta^L are exact.  A chart-frame
    error cancels from (1) (theta^L = G Xi meets v = (K Xi)^{-1} y); (2),
    (3) and the Jacobiator (`jacobiator_fd_residual`) certify the frame.
    """
    num = _chart_numeric(triple, chart)
    G, B, gc, T = num["G"], num["B"], num["g_coords"], num["T"]
    z1, z2 = np.asarray(zeta1, dtype=float), np.asarray(zeta2, dtype=float)
    z12 = np.einsum("abk,a,b->k", T, z1, z2)
    res = {"metric": [], "bracket": [], "coframe_derivative": []}
    for pt in points:
        jet = _PointJet(chart, pt)
        th = G @ jet.Xi  # d-coords of theta^L(d/dx_i)
        (v1, J1), (v2, J2) = jet.dressing(z1), jet.dressing(z2)
        res["metric"].append(abs((th.T @ B @ z1) @ v2 + (th.T @ B @ z2) @ v1
                                 - float(z1 @ B @ z2)))
        res["bracket"].append(np.abs(J2 @ v1 - J1 @ v2 - jet.dressing(z12)[0]).max())
        # (L_X theta)(d/dx_i) = X(theta(d/dx_i)) + sum_j dX^j/dx_i theta(d/dx_j)
        lhs = G @ np.tensordot(v1, jet.dXi, 1) + th @ J1
        # column i of [Ad theta_i, Ad zeta] = -ad(Ad zeta) Ad theta_i
        ad_z = np.einsum("abk,a->kb", T, jet.Ad @ z1)  # ad(Ad zeta) on d
        rhs = G @ np.linalg.solve(jet.K, gc @ (-ad_z @ (jet.Ad @ th)))
        res["coframe_derivative"].append(np.abs(lhs - rhs).max())
    return {k: worst(v)[0] for k, v in res.items()}


def _product_differential(j1: _PointJet, j2: _PointJet, jz: _PointJet) -> np.ndarray:
    """D = dz / d(x1, x2) for g(z) = g(x1) g(x2), exactly, from the three jets.

    g(z)^{-1} dg(z) = Ad_{g(x2)}^{-1} g(x1)^{-1} dg(x1) + g(x2)^{-1} dg(x2), so
    D = Xi(z)^{-1} [K(x2)^{-1} Xi(x1), Xi(x2)].
    """
    return np.linalg.solve(jz.Xi, np.hstack([np.linalg.solve(j2.K, j1.Xi), j2.Xi]))


def verify_multiplicativity(triple: ManinTriple, chart: GroupChart, pairs) -> dict:
    """Pushforward of the product bivector along Mult versus the bivector.

    For each chart pair (x1, x2): compute z with g(z) = g(x1) g(x2), the jets
    at x1, x2 and z, the differential D of the composition from them, and the
    residual | D diag(Pi(x1), Pi(x2)) D^T - Pi(z) |.  A chart-frame error
    cancels from it (Xi(x1), Xi(x2) against the A = P0 Xi in each Pi; Xi(z)
    conjugates both sides): the e-map bracket and coframe derivative
    (`e_map_residuals`) and the Jacobiator certify the frame.
    """
    _chart_numeric(triple, chart)
    n = chart.dim
    pairs = [(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)) for x1, x2 in pairs]
    results = []
    for x1, x2 in pairs:
        j1, j2, jz = (_PointJet(chart, y) for y in (x1, x2, chart.compose(x1, x2)))
        D = _product_differential(j1, j2, jz)
        # D diag(Pi(x1), Pi(x2)) D^T, block by block
        push = sum(Dk @ jk.bivector() @ Dk.T for Dk, jk in ((D[:, :n], j1), (D[:, n:], j2)))
        results.append(float(np.abs(push - jz.bivector()).max()))
    r, (x1, x2) = worst(results, pairs)
    return {"max_residual": r, "worst_pair": (tuple(x1), tuple(x2))}


def jacobiator_fd_residual(triple: ManinTriple, chart: GroupChart, points) -> float:
    """Max Jacobiator residual of the chart bivector at the points.

    The partials of the bivector are exact (`_PointJet.bivector`); the name
    is kept from the finite-difference version it replaces.
    """
    _chart_numeric(triple, chart)
    res = []
    for pt in points:
        P, dP = _PointJet(chart, pt).bivector(partials=True)
        T = np.einsum("im,mjk->ijk", P, dP)
        res.append(np.abs(T + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)).max())
    return worst(res)[0]


# -- homogeneous spaces ----------------------------------------------------------


def homogeneous_space_check(triple: ManinTriple, k_basis, l_basis,
                            k_generators=()) -> CriterionResult:
    """Conditions for induced structures on G/K (Drinfeld 1993), as the exact
    criterion "homogeneous-space-criteria"; its witness is the report, which
    names the first failed condition.

    k is a subalgebra of g; l is a Lagrangian subalgebra; l cap g = k, which
    for k in g and dim l = n holds iff k lies in l and dim(l cap g) =
    n + rank(g) - rank(l + g) equals rank(k); each rational generator X lies
    in g; and l is Ad-invariant under exp X, which holds iff [X, l] lies in l:
    the eigenvalues of ad X are algebraic, so exp is injective on them and
    ad X is a polynomial in exp(ad X).  X in k always passes (k in l, [l, l]
    in l), so a connected K needs no generators.
    """
    alg = triple.algebra
    k_basis, l_basis, gens = ([[Fraction(x) for x in v] for v in vs]
                              for vs in (k_basis, l_basis, k_generators))
    report = {"connectedness_caveat":
              "Ad-invariance decided on exp of the supplied generators; a connected K needs none"}

    def failed(reason):
        witness = {**report, "failure": reason}
        return CriterionResult("homogeneous-space-criteria", None, None, "exact", witness)

    if any(len(v) != alg.dim for v in k_basis + l_basis + gens):
        raise ShapeError("k, l and generator vectors must have length dim d")
    in_g = _span_test(triple.g_basis)
    if not all(map(in_g, k_basis)):
        return failed("k not contained in g")
    for i, X in enumerate(gens):
        if not in_g(X):
            return failed(f"generator {i} not in g")
    if k_basis and (pair := _bracket_escape(alg, k_basis)):
        return failed(f"k not a subalgebra at {pair}")

    n = triple.half_dim
    if failure := _lagrangian_failure(alg, l_basis, n):
        kind, pair = failure
        return failed({"basis-rank": "l has wrong dimension",
                       "isotropy": f"l not isotropic at {pair}",
                       "subalgebra": f"l not a subalgebra at {pair}"}[kind])

    if (_rank(l_basis + k_basis) != n
            or n + _rank(triple.g_basis) - _rank(l_basis + triple.g_basis) != _rank(k_basis)):
        return failed("l cap g != k")
    if pair := _bracket_escape(alg, l_basis, gens):
        return failed("l not Ad_K-invariant: [generator {}, l vector {}] leaves l".format(*pair))
    return CriterionResult("homogeneous-space-criteria", 0, None, "exact", report)


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
    B = [[0] * d for _ in range(d)]
    for i in range(n):
        B[i][n + i] = B[n + i][i] = 1
    alg = MetrizedLieAlgebra(d, Cd, B)
    g_basis = [[Fraction(1) if i == j else Fraction(0) for i in range(d)] for j in range(n)]
    h_basis = [[Fraction(1) if i == n + j else Fraction(0) for i in range(d)] for j in range(n)]
    return ManinTriple(alg, g_basis, h_basis)


def _so3_chart(triple: ManinTriple) -> GroupChart:
    def param(x):
        # so(3) in its adjoint picture, generated by this chart's ad_g, also when borrowed
        return _expm(np.tensordot(np.asarray(x, dtype=float), chart.floats["ad_g"], 1))

    def log_map(R):
        # principal log: R - R^T = 2 sin(angle) [axis]_x, tr R = 1 + 2 cos(angle)
        v = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        angle = math.atan2(np.linalg.norm(v), 0.5 * (np.trace(R) - 1.0))
        return v / np.sinc(angle / math.pi)

    chart = GroupChart("so3-rotation", triple, param, log_map)
    return chart


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
    B = [[0] * 6 for _ in range(6)]
    for i in range(3):
        B[i][3 + i] = B[3 + i][i] = 1
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
        return _expm(sum(float(c) * m for c, m in zip(x, u)))

    def log_map(k):
        # principal log: k = cos(a) 1 - i sin(a) (axis . sigma) with a = |x| / 2
        v = np.array([-0.5 * np.imag(np.trace(k @ s)) for s in sigma])
        half = math.atan2(np.linalg.norm(v), 0.5 * np.real(np.trace(k)))
        return 2.0 * v / np.sinc(half / math.pi)

    chart = GroupChart("su2", triple, param, log_map)
    return triple, chart


def _double(C: dict, B, h_basis) -> ManinTriple:
    """(d + dbar, diagonal, h): the algebra d of constants C and metric B taken twice,
    with metric B + (-B), g its diagonal and h the given basis of d + dbar."""
    d = len(B)
    Cd: dict = {}
    for (a, b, k), v in C.items():
        Cd[(a, b, k)] = Cd[(d + a, d + b, d + k)] = v
    Bd = [list(row) + [0] * d for row in B] + [[0] * d + [-x for x in row] for row in B]
    diag = [[int(i == j or i == d + j) for i in range(2 * d)] for j in range(d)]
    return ManinTriple(MetrizedLieAlgebra(2 * d, Cd, Bd), diag, h_basis)


def sl2_standard() -> ManinTriple:
    """(sl2 + sl2bar, diagonal, u) over the rationals, trace-form metric."""
    # basis (H, E, F) per copy: [H,E]=2E, [H,F]=-2F, [E,F]=H
    C1 = {(0, 1, 1): Fraction(2), (0, 2, 2): Fraction(-2), (1, 2, 0): Fraction(1)}
    B1 = [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
    return _double(C1, B1, [
        [0, 1, 0, 0, 0, 0],       # (E, 0)
        [0, 0, 0, 0, 0, 1],       # (0, F)
        [1, 0, 0, -1, 0, 0],      # (H, -H)
    ])


def sl2_borel() -> ManinTriple:
    """(sl2 + cartan-bar, b+, b-) with the opposite-Borel embeddings."""
    C = {(0, 1, 1): Fraction(2), (0, 2, 2): Fraction(-2), (1, 2, 0): Fraction(1)}
    B = [[0] * 4 for _ in range(4)]
    B[0][0] = 2
    B[1][2] = B[2][1] = 1
    B[3][3] = -2
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
    return _double(triple.algebra.C, triple.algebra.B,
                   [v + [0] * d for v in triple.g_basis] + [[0] * d + v for v in triple.h_basis])


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
