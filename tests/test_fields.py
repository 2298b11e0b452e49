import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diraclab.errors import ChartMismatchError, DegreeError, ShapeError
from diraclab.dirac import GeneralizedSection, courant_bracket
from diraclab.fields import (
    MAX_EXPONENT,
    Chart,
    PolyKForm,
    PolyKVector,
    PolyScalar,
    accumulate,
    coordinate_form,
    coordinate_vector,
    exterior_derivative,
    interior_product,
    lie_derivative,
    _collect_signed,
    _echelon,
    _span_test,
    _sum_buckets,
    sort_index,
    sum_of_products,
    vector_bracket,
)
from diraclab import jsonio

from conftest import exact_at, fraction_rank, random_form, random_poly, random_vector


R2 = Chart(2, ("x", "y"))
R3 = Chart(3, ("x", "y", "z"))


def s(chart, spec):
    """tiny helper: dict {exp: coef} -> PolyScalar"""
    return PolyScalar(chart, spec)


class TestAccumulate:
    def test_sum_and_pop_on_zero(self):
        acc = {}
        accumulate(acc, (1, 0), Fraction(1, 2))
        accumulate(acc, (1, 0), Fraction(1, 2))
        assert acc == {(1, 0): 1}
        accumulate(acc, (1, 0), Fraction(-1))
        accumulate(acc, (0, 1), Fraction(0))
        assert acc == {}

    def test_signed_index(self):
        x, y, _ = R3.coordinates()
        T = PolyKVector(R3, 3, {(2, 0, 1): x,    # even permutation of (0, 1, 2)
                                (1, 0, 2): y,    # odd
                                (0, 0, 1): x})   # repeated index: no contribution
        assert T.components == {(0, 1, 2): x - y}
        T = PolyKVector(R3, 3, {(2, 0, 1): x, (1, 0, 2): y, (0, 2, 1): x - y})
        assert T.components == {}


class TestPolyScalar:
    def test_ring_ops(self):
        x, y = R2.coordinates()
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + 1) ** 2 == x * x + 2 * x + 1
        assert (p - p).is_zero()

    def test_canonical_no_zero_terms(self):
        p = s(R2, {(1, 0): 1, (0, 1): -2})
        q = s(R2, {(0, 1): 2})
        assert (0, 1) not in (p + q).terms
        # normalizing twice is the same as normalizing once
        r = PolyScalar(R2, (p + q).terms)
        assert r == p + q

    def test_terms_is_a_copy(self):
        # a view kept on the polynomial would let a caller's edit change its value
        p = s(R2, {(1, 0): 1, (0, 1): Fraction(-2, 3)})
        p.terms.clear()
        p.terms[(2, 0)] = Fraction(5)
        assert p.terms == {(1, 0): 1, (0, 1): Fraction(-2, 3)}
        assert p.sorted_terms() == [((1, 0), 1), ((0, 1), Fraction(-2, 3))]

    def test_outside_input_is_validated(self):
        with pytest.raises(ShapeError):
            PolyScalar(R2, {(1,): 1})
        with pytest.raises(ShapeError):
            PolyScalar(R2, {(-1, 0): 1})
        with pytest.raises(TypeError):
            PolyScalar(R2, {(1, 0): 0.5})

    def test_operations_return_canonical_terms(self, rng):
        # results skip re-validation, so they must already be canonical
        for _ in range(20):
            p, q = random_poly(rng, R2), random_poly(rng, R2)
            for r in (p + q, p - q, p * q, -p, p * Fraction(-2, 3), p.partial(0), p * 0):
                assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
                assert all(len(e) == 2 and min(e) >= 0 for e in r.terms)
                assert PolyScalar(R2, r.terms).terms == r.terms

    def test_partial_and_eval(self):
        x, y = R2.coordinates()
        p = x * x * y + 3 * y
        assert p.partial(0) == 2 * x * y
        assert p.partial(1) == x * x + 3
        assert p.evaluate_exact((Fraction(2), Fraction(1, 2))) == Fraction(7, 2)
        assert exact_at(p, (2.0, 0.5)) == 3.5

    def test_variables_are_the_coordinates_with_a_nonzero_partial(self):
        x, y, z = R3.coordinates()
        assert PolyScalar.zero(R3).variables() == []
        assert PolyScalar.constant(R3, 5).variables() == []
        assert (x * z**3 + 2 * z).variables() == [0, 2]
        assert (y**7 - x * y).variables() == [0, 1]
        rng = random.Random(4)
        for _ in range(20):
            p = random_poly(rng, R3, max_degree=4, terms=3)
            assert p.variables() == [k for k in range(3) if p.partial(k)]

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            R2.coordinate(0) + R3.coordinate(0)

    def test_compose(self):
        x, y = R2.coordinates()
        u = Chart(1, ("u",)).coordinate(0)
        p = x * y + y
        assert p.compose([u, u * u]) == u * u * u + u * u


class TestAlternatingStructure:
    def test_antisymmetric_normalization(self):
        one = PolyScalar.constant(R2, 1)
        a = PolyKForm(R2, 2, {(1, 0): one})
        b = PolyKForm(R2, 2, {(0, 1): -one})
        assert a == b
        assert a.component((0, 1)) == -one

    def test_repeated_index_drops(self):
        one = PolyScalar.constant(R2, 1)
        assert PolyKForm(R2, 2, {(1, 1): one}).is_zero()

    def test_wedge_basics(self):
        dx, dy = coordinate_form(R2, 0), coordinate_form(R2, 1)
        assert dx.wedge(dx).is_zero()
        assert dx.wedge(dy) == -dy.wedge(dx)
        assert dx.wedge(dy).components[(0, 1)] == PolyScalar.constant(R2, 1)


class TestExteriorDerivative:
    def test_product_rule_example(self):
        # d(x dy) = dx ^ dy
        x = R2.coordinate(0)
        a = PolyKForm(R2, 1, {(1,): x})
        assert exterior_derivative(a) == PolyKForm(
            R2, 2, {(0, 1): PolyScalar.constant(R2, 1)}
        )

    def test_d_of_constant_form(self):
        assert exterior_derivative(coordinate_form(R2, 0)).is_zero()

    def test_sign_from_normalization(self):
        # d(y dx) = dy ^ dx = -dx ^ dy; oracle: expand and sort indices
        y = R2.coordinate(1)
        a = PolyKForm(R2, 1, {(0,): y})
        d = exterior_derivative(a)
        assert d.components[(0, 1)] == PolyScalar.constant(R2, -1)

    def test_top_degree(self):
        x = R2.coordinate(0)
        top = PolyKForm(R2, 2, {(0, 1): x})
        assert exterior_derivative(top).is_zero()
        assert exterior_derivative(top).degree == 3


class TestInteriorProduct:
    def test_first_slot(self):
        dxdy = coordinate_form(R2, 0).wedge(coordinate_form(R2, 1))
        assert interior_product(coordinate_vector(R2, 0), dxdy) == coordinate_form(R2, 1)
        assert interior_product(coordinate_vector(R2, 1), dxdy) == -coordinate_form(R2, 0)

    def test_scalar_result(self):
        x = R2.coordinate(0)
        X = PolyKVector(R2, 1, {(0,): x})
        a = PolyKForm(R2, 1, {(0,): x})
        out = interior_product(X, a)
        assert out.components[()] == x * x

    def test_degree_zero_error(self):
        f = PolyKForm(R2, 0, {(): R2.coordinate(0)})
        with pytest.raises(DegreeError):
            interior_product(coordinate_vector(R2, 0), f)


class TestLieDerivative:
    def test_cartan_example(self):
        # L_{d/dy}(y dx) = dx
        y = R2.coordinate(1)
        a = PolyKForm(R2, 1, {(0,): y})
        assert lie_derivative(coordinate_vector(R2, 1), a) == coordinate_form(R2, 0)

    def test_on_self_vanishes(self, rng):
        for _ in range(10):
            X = random_vector(rng, R3)
            assert lie_derivative(X, X).is_zero()

    def test_on_bivector(self):
        # L_{d/dx}(x d/dx ^ d/dy) = d/dx ^ d/dy
        x = R2.coordinate(0)
        T = PolyKVector(R2, 2, {(0, 1): x})
        out = lie_derivative(coordinate_vector(R2, 0), T)
        assert out == PolyKVector(R2, 2, {(0, 1): PolyScalar.constant(R2, 1)})


# -- randomized identities (hypothesis drives chart/seed choice) --------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(2, 4), degree=st.integers(0, 3), seed=st.integers(0, 10**6))
def test_dd_zero(dim, degree, seed):
    rng = random.Random(seed)
    chart = Chart(dim)
    a = random_form(rng, chart, min(degree, dim))
    assert exterior_derivative(exterior_derivative(a)).is_zero()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(2, 4), degree=st.integers(0, 3), seed=st.integers(0, 10**6))
def test_cartan_formula(dim, degree, seed):
    # the library's L_X is the coordinate pass; Cartan's d i_X + i_X d is the oracle
    rng = random.Random(seed)
    chart = Chart(dim)
    X = random_vector(rng, chart)
    a = random_form(rng, chart, min(degree, dim))
    d_i_X = exterior_derivative(interior_product(X, a)) if a.degree else PolyKForm(chart, 0, {})
    assert lie_derivative(X, a) == d_i_X + interior_product(X, exterior_derivative(a))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(2, 4), degree=st.integers(0, 2), seed=st.integers(0, 10**6))
def test_lie_derivative_is_a_derivation_of_the_wedge(dim, degree, seed):
    # L_X(Y ^ Z) = [X, Y] ^ Z + Y ^ L_X Z on multivectors
    rng = random.Random(seed)
    chart = Chart(dim)
    X, Y = random_vector(rng, chart), random_vector(rng, chart)
    Z = random_vector(rng, chart, min(degree, dim - 1))
    assert lie_derivative(X, Y.wedge(Z)) == (
        vector_bracket(X, Y).wedge(Z) + Y.wedge(lie_derivative(X, Z)))


def test_lie_derivative_commutes_with_d(rng):
    for _ in range(10):
        X = random_vector(rng, R3)
        a = random_form(rng, R3, 1)
        assert lie_derivative(X, exterior_derivative(a)) == exterior_derivative(
            lie_derivative(X, a)
        )


def test_json_round_trip(rng):
    for degree, cls in [(1, PolyKVector), (2, PolyKVector), (2, PolyKForm)]:
        T = (random_vector if cls is PolyKVector else random_form)(rng, R3, degree)
        data = jsonio.tensor_to_json(T)
        back = jsonio.tensor_from_json(data, R3)
        assert type(back) is cls and back.components == T.components


# -- the packed integer kernel against a plain {tuple: Fraction} reference ---------


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(a, k, dim):
    out = {(0,) * dim: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_partial(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def ref_compose(a, subs, src_dim):
    out = {}
    for e, c in a.items():
        term = {(0,) * src_dim: c}
        for s, k in zip(subs, e):
            term = ref_mul(term, ref_pow(s, k, src_dim))
        out = ref_add(out, term)
    return out


def rationals():
    return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def ref_polys(dim, max_exp=3, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_exp)] * dim)
    return st.dictionaries(exps, rationals(), max_size=max_terms).map(
        lambda d: {e: c for e, c in d.items() if c})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(0, 5))
def test_kernel_matches_fraction_reference(data, dim):
    chart = Chart(dim)
    a, b = data.draw(ref_polys(dim)), data.draw(ref_polys(dim))
    p, q = PolyScalar(chart, a), PolyScalar(chart, b)
    assert p.terms == a and PolyScalar(chart, p.terms) == p
    assert (p + q).terms == ref_add(a, b)
    assert (p - q).terms == ref_add(a, {e: -c for e, c in b.items()})
    assert (p * q).terms == ref_mul(a, b)
    c = data.draw(rationals())
    assert (p * c).terms == (c * p).terms == {e: v * c for e, v in a.items() if v * c}
    k = data.draw(st.integers(0, 3))
    assert (p**k).terms == ref_pow(a, k, dim)
    for i in range(dim):
        assert p.partial(i).terms == ref_partial(a, i)
    d = data.draw(st.integers(0, dim - 1)) if dim else None  # p * q - q * dp/dx_d
    fused = sum_of_products(chart, [(1, p, q, None), (-1, q, p, d)])
    dp = a if d is None else ref_partial(a, d)
    assert fused.terms == ref_add(ref_mul(a, b), {e: -v for e, v in ref_mul(b, dp).items()})
    if dim:
        src = Chart(data.draw(st.integers(0, 3)))
        small = data.draw(ref_polys(dim, max_exp=2, max_terms=3))
        subs = [data.draw(ref_polys(src.dim, max_exp=1, max_terms=3)) for _ in range(dim)]
        got = PolyScalar(chart, small).compose([PolyScalar(src, s) for s in subs])
        assert got.chart == src and got.terms == ref_compose(small, subs, src.dim)
    # equal polynomials are equal structurally, however they were built
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 4), count=st.integers(1, 5))
def test_sum_of_products_matches_fraction_reference(data, dim, count):
    # several products per call, each with a sign, its own denominators and a
    # derivative slot or none: the in-loop derivative folds e and the scale into b
    chart = Chart(dim)
    want: dict = {}
    products = []
    for _ in range(count):
        a, b = data.draw(ref_polys(dim)), data.draw(ref_polys(dim))
        sign = data.draw(st.sampled_from([1, -1]))
        d = data.draw(st.one_of(st.none(), st.integers(0, dim - 1)))
        products.append((sign, PolyScalar(chart, a), PolyScalar(chart, b), d))
        term = ref_mul(a, b if d is None else ref_partial(b, d))
        want = ref_add(want, {e: sign * v for e, v in term.items()})
    assert sum_of_products(chart, products).terms == want


def rational_bases(dim):
    """Rational bases with zero rows, repeated rows and dependent rows (random
    combinations of earlier rows), in a drawn order."""
    vector = st.lists(rationals(), min_size=dim, max_size=dim)

    @st.composite
    def build(draw):
        rows = draw(st.lists(vector, max_size=4))
        for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combination"]),
                                  max_size=4)):
            if kind == "zero" or not rows:
                rows.append([Fraction(0)] * dim)
            elif kind == "repeat":
                rows.append(list(draw(st.sampled_from(rows))))
            else:
                coefs = draw(st.lists(rationals(), min_size=len(rows), max_size=len(rows)))
                rows.append([sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(dim)])
        return draw(st.permutations(rows))

    return build()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 6))
def test_span_test_matches_fraction_rank(data, dim):
    basis = data.draw(rational_bases(dim))
    if basis and data.draw(st.booleans()):  # a vector inside the span
        coefs = data.draw(st.lists(rationals(), min_size=len(basis), max_size=len(basis)))
        v = [sum(c * r[j] for c, r in zip(coefs, basis)) for j in range(dim)]
    else:
        v = data.draw(st.lists(rationals(), min_size=dim, max_size=dim))
    want = fraction_rank(basis + [v]) == fraction_rank(basis)
    assert _span_test(basis)(v) is want
    # the test reads one shared pivot off the reduced echelon
    R, pivots = _echelon(basis, reduced=True)
    assert len({row[c] for row, c in zip(R, pivots)}) <= 1
    # a positive integer scale of the basis and of v moves nothing into or out of the span
    scaled = [[x * 7 for x in row] for row in basis]
    assert _span_test(scaled)([x * 3 for x in v]) is want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(0, 5))
def test_chart_moves_match_fraction_reference(data, dim):
    """embed, restrict, homogeneous_parts and float_terms against plain
    {exponent tuple: Fraction} dicts."""
    chart = Chart(dim)
    a = data.draw(ref_polys(dim))
    p = PolyScalar(chart, a)
    extra = data.draw(st.integers(0, 3))
    big = Chart(dim + extra)
    up = p.embed(big)
    assert up.chart == big and up.terms == {e + (0,) * extra: c for e, c in a.items()}
    assert up.restrict(chart) == p and hash(up.restrict(chart)) == hash(p)
    first = data.draw(st.integers(0, dim))
    parts = p.homogeneous_parts(first)
    want: dict = {}
    for e, c in a.items():
        want.setdefault(sum(e[first:]), {})[e] = c
    assert {d: q.terms for d, q in parts.items()} == want
    assert sum(parts.values(), PolyScalar.zero(chart)) == p
    assert all(q.chart == chart for q in parts.values())
    assert sorted(p.float_terms()) == sorted((e, float(c)) for e, c in a.items())
    # restrict drops coordinates only where they do not occur
    keep = data.draw(st.integers(0, dim))
    small = Chart(keep)
    if any(any(e[keep:]) for e in a):
        with pytest.raises(DegreeError):
            p.restrict(small)
    else:
        assert p.restrict(small).terms == {e[:keep]: c for e, c in a.items()}
    if dim:
        with pytest.raises(ShapeError):
            p.embed(Chart(dim - 1))
    with pytest.raises(ShapeError):
        p.restrict(big if extra else Chart(dim + 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 5))
def test_exponent_guard_raises_instead_of_carrying(data, dim):
    chart = Chart(dim)
    i = data.draw(st.integers(0, dim - 1))
    e1 = data.draw(st.integers(0, MAX_EXPONENT))
    e2 = data.draw(st.integers(0, MAX_EXPONENT))
    other = tuple(int(j != i) for j in range(dim))  # every neighbouring field holds 1

    def mono(e):
        return PolyScalar(chart, {tuple(e if j == i else other[j] for j in range(dim)): 1})

    if e1 + e2 > MAX_EXPONENT:
        with pytest.raises(DegreeError):
            mono(e1) * mono(e2)
    else:
        want = tuple(e1 + e2 if j == i else 2 * other[j] for j in range(dim))
        assert (mono(e1) * mono(e2)).terms == {want: 1}
    with pytest.raises(DegreeError):
        PolyScalar(chart, {tuple(MAX_EXPONENT + 1 if j == i else 0 for j in range(dim)): 1})
    with pytest.raises(DegreeError):
        chart.coordinate(i) ** (MAX_EXPONENT + 1)
    assert (chart.coordinate(i) ** MAX_EXPONENT).terms == {
        tuple(MAX_EXPONENT if j == i else 0 for j in range(dim)): 1}


# -- the kernel's fast paths against their general forms ----------------------------


def polys_over(dim, den):
    """{exponent tuple: Fraction} dicts over the denominator den: int numerators
    over den, with one term 1/den, so the polynomial's `_den` is exactly den."""
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    nums = st.dictionaries(exps, st.integers(-30, 30).filter(bool), max_size=5)
    return st.tuples(exps, nums).map(
        lambda t: {**{e: Fraction(c, den) for e, c in t[1].items()}, t[0]: Fraction(1, den)})


def lcm_add(p, q):
    """`PolyScalar.__add__`'s general form: both numerator dicts over the lcm."""
    den = math.lcm(p._den, q._den)
    num = {k: v * (den // p._den) for k, v in p._num.items()}
    for k, v in q._num.items():
        num[k] = num.get(k, 0) + v * (den // q._den)
    return PolyScalar._canonical(p.chart, {k: v for k, v in num.items() if v}, den)


def collect_by_sort(buckets, idx, sign, a, b, d=None):
    """`_collect_signed`'s general form: every index goes through `sort_index`."""
    sidx, s = sort_index(idx)
    if sidx is not None:
        buckets.setdefault(sidx, []).append((sign * s, a, b, d))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(0, 5), den=st.sampled_from([1, 2, 6, 35]))
def test_fast_paths_match_their_references(data, dim, den):
    """`terms` (the chart's unpacker, Fraction(v) over den 1), `float_terms` with and
    without a partial slot, `__add__` over equal denominators and the one-index
    filing of `_collect_signed`, each against its reference; dimension 0 unpacks
    with an empty Struct."""
    chart = Chart(dim)
    a, b = data.draw(polys_over(dim, den)), data.draw(polys_over(dim, den))
    p, q = PolyScalar(chart, a), PolyScalar(chart, b)
    assert p._den == q._den == den
    assert p.terms == a and all(type(c) is Fraction for c in p.terms.values())
    # term order is the constructor's, so the float lists compare as lists
    assert p.float_terms() == [(e, float(c)) for e, c in a.items()]
    for k in range(dim):
        want = [(e, float(c)) for e, c in ref_partial(a, k).items()]
        assert p.float_terms(k) == p.partial(k).float_terms() == want
    total = p + q
    assert total == lcm_add(p, q) and list(total._num) == list(lcm_add(p, q)._num)
    assert total.terms == ref_add(a, b)
    r = p * Fraction(1, 7)  # another denominator: the lcm path
    assert p + r == lcm_add(p, r) and (p + r).terms == ref_add(a, r.terms)
    # filing: indices of length 0 to 3 with repeats, under both signs and slots
    fast, slow = {}, {}
    for _ in range(data.draw(st.integers(0, 8))):
        idx = tuple(data.draw(st.lists(st.integers(0, max(dim - 1, 0)),
                                       max_size=3 if dim else 0)))
        term = (data.draw(st.sampled_from([1, -1])), p, q,
                data.draw(st.sampled_from([None, *range(dim)])))
        _collect_signed(fast, idx, *term)
        collect_by_sort(slow, idx, *term)
    assert fast == slow and all(type(i) is tuple for i in fast)
    assert _sum_buckets(chart, fast) == _sum_buckets(chart, slow)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_built_tensors_equal_their_validated_copies(dim, seed):
    rng = random.Random(seed)
    chart = Chart(dim)

    def section():
        return GeneralizedSection(random_vector(rng, chart), random_form(rng, chart, 1))

    bracket = courant_bracket(section(), section())
    X = random_vector(rng, chart)
    built = [bracket.X, bracket.alpha,
             lie_derivative(X, random_form(rng, chart, min(2, dim))),
             lie_derivative(X, random_vector(rng, chart, min(2, dim)))]
    for T in built:
        again = type(T)(chart, T.degree, T.components)
        assert T == again and T.components == again.components
        assert all(p and p.chart == chart for p in T.components.values())
        assert all(list(idx) == sorted(set(idx)) for idx in T.components)
