"""The exact layer against sympy: jacobiator, Courant bracket and Lie derivative
recomputed from their textbook coordinate formulas, and
the homogeneous-space criteria with l cap g built explicitly from a nullspace.
The numeric layer against a closed form: the spray flow of a linear bivector,
whose q-part is one matrix exponential and whose p-Jacobian is its Frechet
derivative (scipy), and the realization form W(p), the integral of
J_{-s}^T W_can J_{-s} over s in [0, 1], by a 32-node Gauss-Legendre rule of
that closed form."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from diraclab.dirac import GeneralizedSection, courant_bracket
from diraclab.fields import Chart, lie_derivative
from diraclab.maningroup import builtin_triples, homogeneous_space_check
from diraclab.poisson import PoissonBivector, jacobiator, lie_poisson, so3_constants
from diraclab.realization import (RealizationConfig, default_spray, realization_form,
                                  sample_points, source_target, verify_dual_pair)

from conftest import omega_can, random_form, random_vector, spray_flow

sp = pytest.importorskip("sympy")

SEEDS = range(6)


def sym(p, xs):
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*[x**e for x, e in zip(xs, exp)])
                    for exp, c in p.terms.items()])


def same(p, expr, xs):
    return sp.expand(sym(p, xs) - expr) == 0


def comp(T, idx, xs):
    """Component of a tensor at an arbitrary index order, as sympy."""
    return sym(T.component(idx), xs)


@pytest.mark.parametrize("seed", SEEDS)
def test_jacobiator_is_the_cyclic_sum_of_brackets(seed):
    rng = random.Random(seed)
    chart = Chart(3 + seed % 2)
    n = chart.dim
    xs = sp.symbols(f"x0:{n}")
    pi = PoissonBivector(random_vector(rng, chart, degree=2, max_degree=2))
    P = [[comp(pi.pi, (i, j), xs) for j in range(n)] for i in range(n)]

    def br(f, g):
        return sum(P[i][j] * sp.diff(f, xs[i]) * sp.diff(g, xs[j])
                   for i in range(n) for j in range(n))

    J = jacobiator(pi)
    for i, j, k in itertools.combinations(range(n), 3):
        x = xs
        want = br(x[i], br(x[j], x[k])) + br(x[j], br(x[k], x[i])) + br(x[k], br(x[i], x[j]))
        assert same(J.component((i, j, k)), want, xs)


@pytest.mark.parametrize("seed", SEEDS)
def test_courant_bracket_in_coordinates(seed):
    rng = random.Random(100 + seed)
    chart = Chart(2 + seed % 2)
    n = chart.dim
    xs = sp.symbols(f"x0:{n}")
    s1, s2 = (GeneralizedSection(random_vector(rng, chart, max_degree=2),
                                 random_form(rng, chart, 1, max_degree=2)) for _ in range(2))
    X1, X2 = ([comp(s.X, (i,), xs) for i in range(n)] for s in (s1, s2))
    a1, a2 = ([comp(s.alpha, (i,), xs) for i in range(n)] for s in (s1, s2))
    out = courant_bracket(s1, s2)
    for j in range(n):
        # [X1, X2]^j
        vec = sum(X1[i] * sp.diff(X2[j], xs[i]) - X2[i] * sp.diff(X1[j], xs[i]) for i in range(n))
        # (L_{X1} a2)_j - (i_{X2} d a1)_j
        form = sum(X1[i] * sp.diff(a2[j], xs[i]) + a2[i] * sp.diff(X1[i], xs[j])
                   - X2[i] * (sp.diff(a1[j], xs[i]) - sp.diff(a1[i], xs[j]))
                   for i in range(n))
        assert same(out.X.component((j,)), vec, xs)
        assert same(out.alpha.component((j,)), form, xs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["form", "multivector"])
def test_lie_derivative_in_coordinates(kind, seed):
    # (L_X a)_I = X^j d_j a_I + sum_p a_{I[p->j]} d_{i_p} X^j for a form,
    # (L_X T)^I = X^j d_j T^I - sum_p T^{I[p->j]} d_j X^{i_p} for a multivector
    rng = random.Random(300 + seed)
    chart = Chart(3 + seed % 2)
    n = chart.dim
    xs = sp.symbols(f"x0:{n}")
    X = random_vector(rng, chart, max_degree=2)
    Xs = [comp(X, (j,), xs) for j in range(n)]
    for degree in range(4):
        T = (random_form if kind == "form" else random_vector)(rng, chart, degree, max_degree=2)
        got = lie_derivative(X, T)
        for I in itertools.combinations(range(n), degree):
            want = sum(Xs[j] * sp.diff(comp(T, I, xs), xs[j]) for j in range(n))
            for p, i in enumerate(I):
                for j in range(n):
                    moved = comp(T, I[:p] + (j,) + I[p + 1:], xs)
                    want += (moved * sp.diff(Xs[j], xs[i]) if kind == "form"
                             else -moved * sp.diff(Xs[i], xs[j]))
            assert same(got.component(I), want, xs)


# -- homogeneous spaces: l cap g from a nullspace ---------------------------------


def q(x):
    return sp.Rational(x.numerator, x.denominator)


def rows(vectors, d):
    return sp.Matrix(len(vectors), d, [q(x) for v in vectors for x in v])


def reference_homspace_failure(triple, k_basis, l_basis):
    """The exact verdict of homogeneous_space_check, recomputed in sympy: the
    bracket from the structure constants, spans by rank, and l cap g as the
    image under L of the l-part of the nullspace of [L | -G]."""
    alg, n, d = triple.algebra, triple.half_dim, triple.algebra.dim
    G, K, L, B = (rows(v, d) for v in (triple.g_basis, k_basis, l_basis, alg.B))

    def bracket(x, y):
        out = [0] * d
        for (a, b, c), v in alg.C.items():
            out[c] += q(v) * (x[a] * y[b] - x[b] * y[a])
        return sp.Matrix([out])

    def open_pair(M):
        return next(((i, j) for i, j in itertools.combinations(range(M.rows), 2)
                     if sp.Matrix.vstack(M, bracket(M.row(i), M.row(j))).rank() != M.rank()),
                    None)

    if sp.Matrix.vstack(G, K).rank() != G.rank():
        return "k not contained in g"
    pair = open_pair(K)
    if pair:
        return f"k not a subalgebra at {pair}"
    if L.rows != n or L.rank() != n:
        return "l has wrong dimension"
    pair = next(((i, j) for i in range(n) for j in range(i, n)
                 if (L.row(i) * B * L.row(j).T)[0] != 0), None)
    if pair:
        return f"l not isotropic at {pair}"
    pair = open_pair(L)
    if pair:
        return f"l not a subalgebra at {pair}"
    inter = [(L.T * v[:n, :]).T for v in sp.Matrix.hstack(L.T, -G.T).nullspace()]
    I = sp.Matrix.vstack(sp.zeros(0, d), *inter)
    if not I.rank() == K.rank() == sp.Matrix.vstack(I, K).rank():
        return "l cap g != k"
    return None


def _combinations(rng, vectors, count):
    """count random integer combinations of the vectors, rescaled by rationals."""
    out = []
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in vectors]
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        out.append([scale * sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0))
                    for i in range(len(vectors[0]))])
    return out


def _random_homspace(rng, triple):
    """l recombined from g or h, picked from the basis vectors of both, or one
    vector short; k a subset of g, as large as the part of l picked from g when
    l was picked, now and then with a vector of h added."""
    g, h, n = triple.g_basis, triple.h_basis, triple.half_dim
    r = rng.random()
    if r < 0.3:
        l = _combinations(rng, rng.choice([g, h]), n)
    else:
        l = rng.sample(g + h, n if r < 0.85 else n - 1)
    sub = rng.sample(g, rng.randint(0, n) if r < 0.3 else sum(v in g for v in l))
    k = _combinations(rng, sub, len(sub)) if rng.random() < 0.5 else sub
    if rng.random() < 0.15:
        k = k + _combinations(rng, h, 1)
    return k, l


def test_homogeneous_space_check_matches_explicit_intersection():
    kinds = set()
    for seed, (name, (triple, _)) in enumerate(builtin_triples().items()):
        rng = random.Random(300 + seed)
        for _ in range(25):
            k, l = _random_homspace(rng, triple)
            rep = homogeneous_space_check(triple, k, l)
            want = reference_homspace_failure(triple, k, l)
            assert (rep.passed, rep.witness.get("failure")) == (want is None, want), (name, k, l)
            kinds.add(want and want.split(" at ")[0])
    assert kinds == {None, "k not contained in g", "k not a subalgebra", "l has wrong dimension",
                     "l not isotropic", "l not a subalgebra", "l cap g != k"}


# -- the spray flow of a linear bivector in closed form -----------------------------


def linear_spray_flow(c, n, point, s=1.0):
    """Phi_{-s}(q, p) = (expm(s M(p)) q, p) and its Jacobian, for Pi^{ij}(q) =
    sum_k c_ij^k q_k and the spray with no p-quadratic part: p is constant and
    dq/ds = M(p) q with M(p)_{jk} = sum_i c_ij^k p_i, over both orders of each
    constant.  Column m of the p-Jacobian is L(s M(p), s M(e_m)) q, with L the
    Frechet derivative of expm.  No library flow is called."""
    linalg = pytest.importorskip("scipy.linalg")
    q, p = point[:n], point[n:]

    def M(p):
        A = np.zeros((n, n))
        for (i, j, k), v in c.items():
            A[j, k] += float(v) * p[i]
            A[i, k] -= float(v) * p[j]
        return A

    J = np.eye(2 * n)
    J[:n, :n] = linalg.expm(s * M(p))
    for m in range(n):
        J[:n, n + m] = linalg.expm_frechet(s * M(p), s * M(np.eye(n)[m]))[1] @ q
    return np.concatenate([J[:n, :n] @ q, p]), J


def _linear_cases():
    """so(3)* and random constants in dimensions 3 and 4, which need not
    satisfy Jacobi: the flow does not read it."""
    yield "so3", so3_constants(), 3
    rng = random.Random(7)
    for n in (3, 4):
        yield f"random{n}", {(i, j, k): Fraction(rng.randint(-2, 2), 2)
                             for i, j in itertools.combinations(range(n), 2)
                             for k in range(n)}, n


def _oracle_errors(c, n, step):
    """Largest deviation of flow(Phi_{-1}) and of source_target's t, dt from
    the closed form, over ten seeded points with |p| <= 0.2."""
    spray, config = default_spray(lie_poisson(c, n)), RealizationConfig(step=step)
    pts = sample_points(n, 10, 0.2, seed=3)
    want, J = (np.array(a) for a in zip(*(linear_spray_flow(c, n, pt) for pt in pts)))
    x1, J1 = spray_flow(spray, pts, -1.0, config)
    _, t, _, dt = source_target(spray, pts, config)
    return max(np.abs(x1 - want).max(), np.abs(J1 - J).max(),
               np.abs(t - want[:, :n]).max(), np.abs(dt - J[:, :n]).max())


@pytest.mark.parametrize("name, c, n", list(_linear_cases()), ids=["so3", "random3", "random4"])
def test_linear_spray_flow_matches_the_closed_form(name, c, n):
    assert _oracle_errors(c, n, 1e-3) < 1e-13


def closed_form_realization_form(c, n, point, nodes=32):
    """W(p) = int_0^1 J_{-s}^T W_can J_{-s} ds, W_can = [[0, I], [-I, 0]], by a
    Gauss-Legendre rule (numpy's nodes on [-1, 1], moved to [0, 1]) of the
    closed-form Jacobians; no library flow or quadrature is called."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    Wcan = omega_can(n)
    out = np.zeros((2 * n, 2 * n))
    for s, weight in zip((x + 1) / 2, w / 2):
        J = linear_spray_flow(c, n, point, s)[1]
        out += weight * J.T @ Wcan @ J
    return out


def _realization_form_error(c, n, step):
    """Largest deviation of realization_form from the closed form over ten
    seeded points with |p| <= 0.2."""
    spray = default_spray(lie_poisson(c, n))
    pts = sample_points(n, 10, 0.2, seed=3)
    got = realization_form(spray, pts, RealizationConfig(step=step))
    want = np.array([closed_form_realization_form(c, n, pt) for pt in pts])
    return np.abs(got - want).max()


@pytest.mark.parametrize("name, c, n", list(_linear_cases()), ids=["so3", "random3", "random4"])
def test_realization_form_matches_the_closed_form(name, c, n):
    assert _realization_form_error(c, n, 1e-3) < 1e-12


def test_coarse_step_error_is_visible_to_the_oracle_only():
    # at step 0.5 RK4 is off by about 1e-7, and the dual-pair criteria still pass
    c = so3_constants()
    assert _oracle_errors(c, 3, 0.5) > 1e-12
    spray = default_spray(lie_poisson(c, 3))
    assert verify_dual_pair(spray, sample_points(3, 10, 0.2, seed=3),
                            RealizationConfig(step=0.5)).passed
