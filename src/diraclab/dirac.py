"""The generalized tangent bundle TM + T*M: pairing, Courant bracket,
Lagrangian frames, integrability, gauge transformations and pullbacks.

A frame's Lagrangian condition and its integrability are decided exactly:
the Gram matrix and the Courant tensor <s_a, [[s_b, s_c]]> either are zero
polynomials or are not, and the rank is taken at one rational point.  So
are the pointwise gauge and pullback: at a point read as rationals, one null
space over Q each (`fields._kernel`) decides transversality and gives the result.

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

from ._numeric import _svd, worst
from .errors import (
    ChartMismatchError,
    DegreeError,
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
    _kernel,
    _lie_terms,
    _rank,
    _sum_buckets,
    coordinate_form,
    coordinate_vector,
    exterior_derivative,
    interior_product,
    sum_of_products,
    vector_bracket,
)
from .poisson import PoissonBivector, _full_matrix, bracket, sharp_apply


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


@dataclass(frozen=True)
class GaugeTransform:
    """A gauge transformation by an exactly closed 2-form."""

    omega: PolyKForm

    def __post_init__(self):
        if self.omega.degree != 2:
            raise DegreeError("gauge transformations use 2-forms")
        if not exterior_derivative(self.omega).is_zero():
            raise PreconditionError("gauge 2-form must be closed (d omega = 0 exactly)")


class LagrangianFrame:
    """n spanning sections of a Lagrangian subbundle of TM + T*M."""

    __slots__ = ("chart", "sections")

    def __init__(self, chart, sections):
        sections = tuple(sections)
        if len(sections) != chart.dim:
            raise ShapeError("need dim-many spanning sections")
        if any(s.chart != chart for s in sections):
            raise ChartMismatchError("section on the wrong chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "sections", sections)

    def __setattr__(self, *a):
        raise AttributeError("LagrangianFrame is immutable")

    def exact_at(self, x) -> list:
        """The fiber at a rational point: column a is (v; mu) of section a."""
        n = self.chart.dim
        return [[p.evaluate_exact(x) if (p := part.components.get((i,))) else 0
                 for part in (s.X, s.alpha) for i in range(n)] for s in self.sections]

    def check_lagrangian(self, point):
        """Exact Lagrangian check: the pairing <s_a, s_b> is the zero polynomial for
        each a <= b (it is symmetric), and the n sections have rank n at the point,
        taken as the exact rational value of each float coordinate."""
        S = self.sections
        if not all(pairing(a, b).is_zero() for i, a in enumerate(S) for b in S[i:]):
            return False
        return _rank(self.exact_at([Fraction(float(v)) for v in point])) == self.chart.dim


def _floats(rows) -> np.ndarray:
    """A rational matrix as floats, refused past the float range."""
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        raise OverflowError("an exact value past the float range") from None


def graph_of_poisson(pi: PoissonBivector) -> LagrangianFrame:
    """Frame (pi^#(dx_i) + dx_i); spans Gr(pi), transverse to TM."""
    chart = pi.chart
    sections = []
    for i in range(chart.dim):
        dxi = coordinate_form(chart, i)
        sections.append(GeneralizedSection(sharp_apply(pi, dxi), dxi))
    return LagrangianFrame(chart, sections=sections)


def graph_of_form(omega: PolyKForm) -> LagrangianFrame:
    """Frame (d/dx_i + i_{d/dx_i} omega); spans Gr(omega).  A test oracle: no
    command calls it."""
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


def gauge_poisson(pi: PoissonBivector, gauge: GaugeTransform, point) -> np.ndarray:
    """Pointwise component matrix of the gauged bivector (I + Pi W)^{-1} Pi,
    decided over Q at the point read as rationals: the null space of
    [I + Pi W | -Pi] has free columns z_j iff rank(I + Pi W) = n, and then
    column j solves for z = e_j.  Elsewhere the sheared graph meets TM:
    TransversalityError.  The range of the sharp map is preserved."""
    x = [Fraction(float(v)) for v in point]
    P, W = ([[p.evaluate_exact(x) for p in row] for row in _full_matrix(T)]
            for T in (pi.pi, gauge.omega))
    n = len(P)
    K = _kernel([[int(i == j) + sum(a * b for a, b in zip(P[i], col) if a and b)
                  for j, col in enumerate(zip(*W))] + [-p for p in P[i]] for i in range(n)], 2 * n)
    if min(K, default=n) < n:
        raise TransversalityError("gauge transform not transverse to the tangent bundle", point)
    return _floats([K[n + j][:n] for j in range(n)]).T


def pullback_dirac_at_point(phi: PolyMap, E: LagrangianFrame, point) -> np.ndarray:
    """Fiber of the pulled-back Dirac structure at a source point read as rationals.

    Elements (w, nu) with d phi(w) = v and nu = d phi^T mu for (v, mu) in the
    fiber of E at phi(point): each (w; c) of the null space over Q of
    [d phi | -vectors] gives (w; d phi^T forms c).  There are k, independent,
    iff the anchor image of E plus ran(d phi) fill the target tangent space,
    else TransversalityError.  Returns an orthonormal 2k x k basis (one SVD).
    """
    k, m = phi.source.dim, phi.target.dim
    x = [Fraction(float(v)) for v in point]
    J = [[p.evaluate_exact(x) for p in row] for row in phi.jacobian()]
    V = E.exact_at(phi.evaluate_exact(x))  # columns (v; mu)
    K = _kernel([J[i] + [-col[i] for col in V] for i in range(m)], k + m)
    if len(K) > k:  # k + m - rank [d phi | vectors] solutions
        raise TransversalityError(
            "anchor of the frame plus the map differential do not span the target", point)
    fiber = []
    for s in K.values():
        mu = [sum(c * col[m + i] for c, col in zip(s[k:], V) if c) for i in range(m)]
        fiber.append(s[:k] + [sum(J[i][b] * mu[i] for i in range(m)) for b in range(k)])
    return _svd(_floats(fiber).reshape(len(fiber), 2 * k).T, full_matrices=False)[0]


@dataclass(frozen=True)
class MapCheckReport:
    exact: bool | None
    max_residual: float | None


def check_poisson_map(
    phi,
    pi_source: PoissonBivector,
    pi_target: PoissonBivector,
    anti: bool = False,
    samples: Sequence[Sequence[float]] | None = None,
    jacobian: Callable | None = None,
) -> MapCheckReport:
    """Certify d phi . Pi_source . d phi^T = (+/-) Pi_target o phi.

    A PolyMap is checked as an exact polynomial identity, entry by entry
    (d phi . Pi_source . d phi^T)^{ij} = {phi^i, phi^j}_source.  A callable map
    (with `jacobian` supplied, for non-polynomial maps) is checked at the
    sample points and reported as a max residual.
    """
    sign = -1 if anti else 1
    if isinstance(phi, PolyMap):
        if phi.source != pi_source.chart or phi.target != pi_target.chart:
            raise ChartMismatchError("map charts do not match the bivectors")
        f = phi.components
        ok = all(bracket(pi_source, f[i], f[j])
                 == sign * phi.compose_scalar(pi_target.pi.component((i, j)))
                 for i in range(len(f)) for j in range(i + 1, len(f)))
        return MapCheckReport(exact=ok, max_residual=None)

    if samples is None or jacobian is None:
        raise ShapeError("callable maps need sample points and a jacobian callback")
    samples = [np.asarray(pt, dtype=float) for pt in samples]
    J = np.array([np.asarray(jacobian(pt), dtype=float) for pt in samples])
    pushed = J @ pi_source.matrix_at(np.array(samples)) @ np.swapaxes(J, 1, 2)
    target = pi_target.matrix_at(np.array([np.asarray(phi(pt), dtype=float) for pt in samples]))
    r = worst(np.abs(pushed - sign * target).reshape(len(samples), -1).max(axis=1))[0]
    return MapCheckReport(exact=None, max_residual=r)
