"""The generalized tangent bundle TM + T*M: pairing, Courant bracket,
Lagrangian frames, integrability, gauge transformations and pullbacks.

A frame's Lagrangian condition and its integrability are decided exactly:
the Gram matrix and the Courant tensor <s_a, [[s_b, s_c]]> either are zero
polynomials or are not, and the rank is taken at one rational point.

Fiber vectors are written (v, mu) and stacked as 2n-vectors with the tangent
part first.  The split-signature pairing is
    <v1 + mu1, v2 + mu2> = <mu1, v2> + <mu2, v1>,
and a gauge transformation by a closed 2-form omega acts as
    (v, mu) -> (v, mu + i_v omega).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._numeric import (CriterionResult, PackedPolys, gauge_fiber, gauge_inverse,
                       orthonormal_basis, pullback_fiber, worst)
from .errors import (
    ChartMismatchError,
    DegreeError,
    DomainEscapeError,
    PreconditionError,
    ShapeError,
    TransversalityError,
)
from .fields import (
    Chart,
    PolyKForm,
    PolyKVector,
    PolyMap,
    PolyScalar,
    _lie_terms,
    _rank,
    _sum_buckets,
    coordinate_form,
    coordinate_vector,
    evaluate_at,
    exterior_derivative,
    interior_product,
    sum_of_products,
    vector_bracket,
)
from .poisson import PoissonBivector, gauge_family, sharp_apply


class GeneralizedSection:
    """A section X + alpha of TM + T*M with polynomial components."""

    __slots__ = ("X", "alpha")

    def __init__(self, X: PolyKVector, alpha: PolyKForm):
        if X.degree != 1 or alpha.degree != 1:
            raise DegreeError("generalized sections pair a vector field with a 1-form")
        if X.chart != alpha.chart:
            raise ChartMismatchError("vector and form parts on different charts")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, *a):
        raise AttributeError("GeneralizedSection is immutable")

    @property
    def chart(self) -> Chart:
        return self.X.chart

    @staticmethod
    def from_vector(X: PolyKVector) -> "GeneralizedSection":
        return GeneralizedSection(X, PolyKForm(X.chart, 1, {}))

    @staticmethod
    def from_form(alpha: PolyKForm) -> "GeneralizedSection":
        return GeneralizedSection(PolyKVector(alpha.chart, 1, {}), alpha)

    def __add__(self, other):
        return GeneralizedSection(self.X + other.X, self.alpha + other.alpha)

    def __sub__(self, other):
        return GeneralizedSection(self.X - other.X, self.alpha - other.alpha)

    def __mul__(self, f):
        return GeneralizedSection(self.X * f, self.alpha * f)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, GeneralizedSection)
            and self.X == other.X
            and self.alpha == other.alpha
        )

    def __repr__(self):
        return f"GeneralizedSection(X={self.X!r}, alpha={self.alpha!r})"


def pairing(s1: GeneralizedSection, s2: GeneralizedSection) -> PolyScalar:
    """<X1 + a1, X2 + a2> = a1(X2) + a2(X1)."""
    if s1.chart != s2.chart:
        raise ChartMismatchError("pairing across charts")
    return sum_of_products(s1.chart, [
        (1, a, t.X.components[i], None) for s, t in ((s1, s2), (s2, s1))
        for i, a in s.alpha.components.items() if i in t.X.components])


def courant_bracket(s1: GeneralizedSection, s2: GeneralizedSection) -> GeneralizedSection:
    """[[s1, s2]] = [X1, X2] + L_{X1} a2 - i_{X2} d a1 (non-skew convention); the form
    part is one bucket pass: `_lie_terms` of L_{X1} a2, -X2^j d_j a1_i + X2^j d_i a1_j."""
    if s1.chart != s2.chart:
        raise ChartMismatchError("bracket across charts")
    chart, a1 = s1.chart, s1.alpha.components
    buckets: dict = {}
    _lie_terms(buckets, s1.X, s2.alpha)
    for (j,), x2j in s2.X.components.items():
        for (i,), a1i in a1.items():
            buckets.setdefault((i,), []).append((-1, x2j, a1i, j))
        if (j,) in a1:
            for i in a1[(j,)].variables():
                buckets.setdefault((i,), []).append((1, x2j, a1[(j,)], i))
    return GeneralizedSection(vector_bracket(s1.X, s2.X),
                              PolyKForm._trusted(chart, 1, _sum_buckets(chart, buckets)))


def one_form_bracket(pi: PoissonBivector, a: PolyKForm, b: PolyKForm) -> PolyKForm:
    """The cotangent-algebroid bracket [a, b] = L_{pi#a} b - i_{pi#b} da, the form part
    of the Courant bracket of the sections pi#a + a and pi#b + b of Gr(pi); for a
    Poisson bivector it satisfies [df, dg] = d{f, g}."""
    return courant_bracket(GeneralizedSection(sharp_apply(pi, a), a),
                           GeneralizedSection(sharp_apply(pi, b), b)).alpha


def gauge_section(omega: PolyKForm, s: GeneralizedSection) -> GeneralizedSection:
    """R_omega on sections: X + alpha -> X + alpha + i_X omega.

    Preserves the pairing for any omega; preserves the Courant bracket iff
    omega is closed (no closedness check here; see GaugeTransform).
    """
    if omega.degree != 2:
        raise DegreeError("gauge transformations use 2-forms")
    return GeneralizedSection(s.X, s.alpha + interior_product(s.X, omega))


@dataclass(frozen=True)
class GaugeTransform:
    """A gauge transformation by an exactly closed 2-form."""

    omega: PolyKForm

    def __post_init__(self):
        if self.omega.degree != 2:
            raise DegreeError("gauge transformations use 2-forms")
        if not exterior_derivative(self.omega).is_zero():
            raise PreconditionError("gauge 2-form must be closed (d omega = 0 exactly)")

    def matrix_at(self, point) -> np.ndarray:
        return evaluate_at(self.omega, point)


class LagrangianFrame:
    """n spanning sections of a Lagrangian subbundle of TM + T*M."""

    __slots__ = ("chart", "sections", "_compiled")

    def __init__(self, chart, sections):
        sections = tuple(sections)
        if len(sections) != chart.dim:
            raise ShapeError("need dim-many spanning sections")
        if any(s.chart != chart for s in sections):
            raise ChartMismatchError("section on the wrong chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, *a):
        raise AttributeError("LagrangianFrame is immutable")

    def value_at(self, points) -> np.ndarray:
        """The 2n x n matrix of fiber values, column a = (v, mu) of section a,
        at a point (n,) or a batch (..., n), from one table compiled on first
        use."""
        n = self.chart.dim
        if self._compiled is None:
            rows = [[s.X.components.get((i,)) for s in self.sections] for i in range(n)]
            rows += [[s.alpha.components.get((i,)) for s in self.sections] for i in range(n)]
            object.__setattr__(self, "_compiled", PackedPolys(
                [{} if p is None else {0: p} for row in rows for p in row], n))
        out = self._compiled(points)
        return out.reshape(out.shape[:-1] + (2 * n, n))

    def gram_polynomials(self):
        return [[pairing(a, b) for b in self.sections] for a in self.sections]

    def check_lagrangian(self, point):
        """Exact Lagrangian check: every entry of `gram_polynomials` is the
        zero polynomial, and the n sections have rank n at the point, taken
        as the exact rational value of each float coordinate."""
        if not all(p.is_zero() for row in self.gram_polynomials() for p in row):
            return False
        pt = [Fraction(float(x)) for x in point]
        n = self.chart.dim
        columns = [[p.evaluate_exact(pt) if (p := part.components.get((i,))) else 0
                    for part in (s.X, s.alpha) for i in range(n)] for s in self.sections]
        return _rank(columns) == n


def pairing_gram(V: np.ndarray) -> np.ndarray:
    """Split-pairing Gram matrix of stacked fiber columns (v; mu)."""
    n = V.shape[0] // 2
    return V[:n].T @ V[n:] + V[n:].T @ V[:n]


def graph_of_poisson(pi: PoissonBivector) -> LagrangianFrame:
    """Frame (pi^#(dx_i) + dx_i); spans Gr(pi), transverse to TM."""
    chart = pi.chart
    sections = []
    for i in range(chart.dim):
        dxi = coordinate_form(chart, i)
        sections.append(GeneralizedSection(sharp_apply(pi, dxi), dxi))
    return LagrangianFrame(chart, sections=sections)


def graph_of_form(omega: PolyKForm) -> LagrangianFrame:
    """Frame (d/dx_i + i_{d/dx_i} omega); spans Gr(omega)."""
    if omega.degree != 2:
        raise DegreeError("graph_of_form needs a 2-form")
    chart = omega.chart
    sections = []
    for i in range(chart.dim):
        ei = coordinate_vector(chart, i)
        sections.append(GeneralizedSection(ei, interior_product(ei, omega)))
    return LagrangianFrame(chart, sections=sections)


def integrability_tensor(E: LagrangianFrame, point) -> dict:
    """The nonzero exact components {(a, b, c): <s_a, [[s_b, s_c]]>} over
    a < b < c.

    On a Lagrangian frame the tensor is totally antisymmetric, so these
    components decide it: the frame spans a Dirac structure wherever it is
    Lagrangian iff the dict is empty.  For Gr(pi) they are the components of
    `jacobiator(pi)`.  The point is where `check_lagrangian` takes the rank;
    one bracket is formed per pair b < c that some a < b pairs with.
    """
    if not E.check_lagrangian(point):
        raise PreconditionError("frame is not Lagrangian at the given point")
    s, out = E.sections, {}
    for b in range(1, len(s)):
        for c in range(b + 1, len(s)):
            br = courant_bracket(s[b], s[c])
            for a in range(b):
                p = pairing(s[a], br)
                if p:
                    out[(a, b, c)] = p
    return out


def gauge_transform_fiber(E: LagrangianFrame, gauge: GaugeTransform, point) -> np.ndarray:
    """Apply R_omega to the fiber of a frame at a point (pairing-preserving);
    returns the 2n x n fiber matrix."""
    V0 = E.value_at(point)
    V = gauge_fiber(V0, gauge.matrix_at(point))
    if np.abs(pairing_gram(V) - pairing_gram(V0)).max() > 1e-12 * max(1.0, np.abs(V).max() ** 2):
        raise DomainEscapeError("gauge transform failed to preserve the pairing", point)
    return V


def gauge_poisson(pi: PoissonBivector, gauge: GaugeTransform, point) -> np.ndarray:
    """Pointwise component matrix of the gauged bivector, (I + Pi W)^{-1} Pi
    skew-symmetrized; raises TransversalityError where the sheared graph meets
    TM (`gauge_inverse`).  The range of the sharp map is preserved."""
    P = pi.matrix_at(point)
    A = np.eye(len(P)) + P @ gauge.matrix_at(point)
    out = gauge_inverse(A, point, "gauge transform not transverse to the tangent bundle") @ P
    return 0.5 * (out - out.T)


def gauge_poisson_symbolic(pi: PoissonBivector, gauge: GaugeTransform) -> PoissonBivector:
    """Symbolic gauge transform, available when det(I + Pi W) is a nonzero
    constant, so that the inverse stays polynomial.  One Faddeev-LeVerrier loop
    over A = I + Pi W gives both: from M_0 = 0 and c = 1, M_k = A M_{k-1} + c I
    and c = -tr(A M_k) / k; after n steps c = (-1)^n det A and A^{-1} = -M_n / c.
    """
    chart, n = pi.chart, pi.chart.dim
    P = pi.component_matrix()
    A = gauge_family(pi, {0: gauge.omega})[0]  # I + P W
    one = PolyScalar.constant(chart, 1)
    M, c = [[0] * n] * n, one  # M_0 = 0
    for k in range(1, n + 1):
        M = [[sum_of_products(chart, [(1, A[i][l], M[l][j], None) for l in range(n)
                                      if A[i][l] and M[l][j]] + [(1, c, one, None)] * (i == j))
              for j in range(n)] for i in range(n)]
        c = sum_of_products(chart, [(1, A[i][l], M[l][i], None) for i in range(n)
                                    for l in range(n) if A[i][l] and M[l][i]]) * Fraction(-1, k)
    if c.is_zero() or c.total_degree() > 0:
        raise TransversalityError("det(I + Pi W) is not a nonzero constant; "
                                  "symbolic gauge unavailable")
    scale = -1 / c.evaluate_exact([0] * n)  # c is constant
    comps = {(i, j): sum_of_products(chart, [(1, M[i][k], P[k][j], None) for k in range(n)])
             * scale for i in range(n) for j in range(i + 1, n)}
    return PoissonBivector(PolyKVector(chart, 2, comps))


def pullback_dirac_at_point(phi: PolyMap, E: LagrangianFrame, point) -> np.ndarray:
    """Fiber of the pulled-back Dirac structure at a source point.

    Elements (w, nu) with d phi(w) = v and nu = d phi^T mu for some
    (v, mu) in the fiber of E at phi(point).  Requires the anchor image of E
    plus ran(d phi) to fill the target tangent space, decided by the scale-free
    rank of `pullback_fiber`.  Returns an orthonormal 2k x k basis.
    """
    m = phi.target.dim
    target_pt, J = phi.compiled()(point)
    V = E.value_at(target_pt)
    fiber = pullback_fiber(J, V[:m], V[m:])
    # the fiber has k + m - rank [J | vectors] columns: k iff the spans fill R^m
    if fiber.shape[1] > phi.source.dim:
        raise TransversalityError(
            "anchor of the frame plus the map differential do not span the target",
            point,
        )
    # then its k columns are independent: none is dropped for being small
    return orthonormal_basis(fiber, tol=0.0)


def cosymplectic_check(pi: PoissonBivector, vanishing: Sequence[int], points) -> CriterionResult:
    """Check TM = TN + pi^#(ann TN) at each point of a coordinate subspace,
    as the exact criterion "cosymplectic".

    The submanifold is cut out by the listed vanishing coordinates (0-based).
    sharp(dx_i) = Pi^T e_i is the i-th row of Pi and TN spans the tangent
    coordinates, so the condition holds iff the block Pvv is nonsingular: its
    exact rank is taken at each point, read as the exact rational value of
    each float coordinate.  On success the witness carries, per point, the
    fiber basis of pi^#(ann TN); on failure the worst point is the first
    point where the condition fails.
    """
    n = pi.chart.dim
    vanishing = sorted(set(int(i) for i in vanishing))
    if any(not 0 <= i < n for i in vanishing):
        raise ShapeError("vanishing coordinate out of range")
    M = pi.component_matrix()
    for pt in points:
        x = [Fraction(float(v)) for v in pt]
        if _rank([[M[i][j].evaluate_exact(x) for j in vanishing]
                  for i in vanishing]) < len(vanishing):
            return CriterionResult("cosymplectic", None, tuple(pt), "exact")
    fibers = [P[vanishing, :].T for P in pi.matrix_at(np.reshape(points, (len(points), n)))]
    return CriterionResult("cosymplectic", 0, None, "exact",
                           {"fibers": fibers, "points": [tuple(map(float, p)) for p in points]})


@dataclass(frozen=True)
class MapCheckReport:
    exact: bool | None
    max_residual: float | None
    worst_point: tuple | None


def check_poisson_map(
    phi,
    pi_source: PoissonBivector,
    pi_target: PoissonBivector,
    anti: bool = False,
    samples: Sequence[Sequence[float]] | None = None,
    jacobian: Callable | None = None,
) -> MapCheckReport:
    """Certify d phi . Pi_source . d phi^T = (+/-) Pi_target o phi.

    A PolyMap is checked as an exact polynomial identity.  A callable map
    (with `jacobian` supplied, for non-polynomial maps) is checked at the
    sample points and reported as a max residual.
    """
    sign = -1 if anti else 1
    if isinstance(phi, PolyMap):
        if phi.source != pi_source.chart or phi.target != pi_target.chart:
            raise ChartMismatchError("map charts do not match the bivectors")
        J = phi.jacobian()
        n, ncols = phi.target.dim, phi.source.dim
        S = pi_source.component_matrix()

        def pushed(i, j):  # (J S J^T)_ij
            return sum_of_products(phi.source, [(1, J[i][a] * S[a][b], J[j][b], None)
                                                for a in range(ncols) for b in range(ncols)
                                                if S[a][b]])
        ok = all(pushed(i, j) == sign * phi.compose_scalar(pi_target.pi.component((i, j)))
                 for i in range(n) for j in range(i + 1, n))
        return MapCheckReport(exact=ok, max_residual=None, worst_point=None)

    if samples is None or jacobian is None:
        raise ShapeError("callable maps need sample points and a jacobian callback")
    samples = [np.asarray(pt, dtype=float) for pt in samples]
    J = np.array([np.asarray(jacobian(pt), dtype=float) for pt in samples])
    pushed = J @ pi_source.matrix_at(np.array(samples)) @ np.swapaxes(J, 1, 2)
    target = pi_target.matrix_at(np.array([np.asarray(phi(pt), dtype=float) for pt in samples]))
    r, pt = worst(np.abs(pushed - sign * target).reshape(len(samples), -1).max(axis=1), samples)
    return MapCheckReport(exact=None, max_residual=r, worst_point=tuple(map(float, pt)))
