"""The exact layer against sympy: jacobiator, Courant bracket and pullback of
forms recomputed from their textbook coordinate formulas."""

import itertools
import random

import pytest

from diraclab.dirac import GeneralizedSection, courant_bracket
from diraclab.fields import Chart, PolyKVector, PolyMap, pullback_form
from diraclab.poisson import PoissonBivector, jacobiator

from conftest import random_form, random_poly, random_vector

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
def test_pullback_form_is_a_sum_of_jacobian_minors(seed):
    rng = random.Random(200 + seed)
    src, tgt = Chart(2 + seed % 2), Chart(3)
    degree = 1 + seed % 2
    us = sp.symbols(f"u0:{src.dim}")
    ys = sp.symbols(f"y0:{tgt.dim}")
    phi = PolyMap(src, tgt, [random_poly(rng, src, 2) for _ in range(tgt.dim)])
    alpha = random_form(rng, tgt, degree, max_degree=2)
    images = [sym(p, us) for p in phi.components]
    D = sp.Matrix([[sp.diff(f, u) for u in us] for f in images])
    got = pullback_form(phi, alpha)
    for I in itertools.combinations(range(src.dim), degree):
        want = sum(comp(alpha, J, ys).subs(dict(zip(ys, images)), simultaneous=True)
                   * D.extract(list(J), list(I)).det()
                   for J in itertools.combinations(range(tgt.dim), degree))
        assert same(got.component(I), want, us)
