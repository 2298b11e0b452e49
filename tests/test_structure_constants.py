"""One canonical form of structure constants and the sparse Jacobi /
ad-invariance check, against brute-force dense references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diraclab.errors import ShapeError
from diraclab.fields import Chart, PolyKVector, PolyScalar
from diraclab.maningroup import MetrizedLieAlgebra, builtin_triples, check_metrized
from diraclab.poisson import (
    LieAlgebroidData,
    jacobi_violation,
    lie_poisson,
    normalize_structure_constants,
    so3_constants,
)

from conftest import fraction_rank

# -- dense references: every index tuple, in lexicographic order --------------


def _signed(C, a, b, k):
    if a == b:
        return Fraction(0)
    if a < b:
        return C.get((a, b, k), Fraction(0))
    return -C.get((b, a, k), Fraction(0))


def dense_jacobi(C, d):
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                for l in range(d):
                    s = sum(
                        _signed(C, i, j, m) * _signed(C, m, k, l)
                        + _signed(C, j, k, m) * _signed(C, m, i, l)
                        + _signed(C, k, i, m) * _signed(C, m, j, l)
                        for m in range(d)
                    )
                    if s != 0:
                        return (i, j, k, l)
    return None


def dense_check_metrized(C, B, d):
    jac = dense_jacobi(C, d)
    if jac is not None:
        return False, {"kind": "jacobi", "indices": jac}
    for i in range(d):
        for j in range(d):
            if B[i][j] != B[j][i]:
                return False, {"kind": "metric-symmetry", "indices": (i, j)}
    if fraction_rank(B) < d:
        return False, {"kind": "metric-degenerate"}
    for a in range(d):
        for b in range(d):
            for c in range(d):
                s = sum(
                    _signed(C, a, b, m) * B[m][c] + _signed(C, a, c, m) * B[b][m]
                    for m in range(d)
                )
                if s != 0:
                    return False, {"kind": "ad-invariance", "indices": (a, b, c)}
    return True, None


# -- random constant sets, valid Lie algebras and broken ones ------------------

SO3 = so3_constants()
SL2 = {(0, 1, 1): Fraction(2), (0, 2, 2): Fraction(-2), (1, 2, 0): Fraction(1)}
HEISENBERG = {(0, 1, 2): Fraction(1)}


@st.composite
def metrized_inputs(draw):
    base = draw(st.sampled_from([{}, SO3, SL2, HEISENBERG]))
    d = draw(st.integers(max(1, 3 if base else 1), 6))
    scale = Fraction(draw(st.integers(1, 3)))
    C = {key: v * scale for key, v in base.items()}
    # extra constants: none keeps a Lie algebra, most others break Jacobi
    for i, j, k, v in draw(st.lists(
            st.tuples(*[st.integers(0, d - 1)] * 3, st.integers(-2, 2)), max_size=6)):
        if i != j and (j, i, k) not in C:
            C[(i, j, k)] = Fraction(v)
    B = [[Fraction(0)] * d for _ in range(d)]
    if draw(st.booleans()):  # the pairing identity: invariant for so(3) and sl(2)
        for i in range(d):
            B[i][i] = Fraction(1 if base is not SL2 or i else 2)
        if base is SL2:
            B[1][1] = B[2][2] = Fraction(0)
            B[1][2] = B[2][1] = Fraction(1)
    else:
        for i in range(d):
            for j in range(d):
                if draw(st.booleans()):
                    B[i][j] = Fraction(draw(st.integers(-2, 2)))
        if draw(st.booleans()):  # usually symmetric, so later checks are reached
            B = [[B[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
    return d, C, B


@settings(max_examples=150, deadline=None, derandomize=True)
@given(metrized_inputs())
def test_sparse_check_matches_dense_reference(args):
    d, C, B = args
    alg = MetrizedLieAlgebra(d, C, B)
    assert jacobi_violation(normalize_structure_constants(C, d)) == dense_jacobi(alg.C, d)
    assert check_metrized(alg) == dense_check_metrized(alg.C, alg.B, d)


def test_sparse_check_matches_dense_reference_on_builtins():
    for name, (triple, _) in builtin_triples().items():
        alg = triple.algebra
        assert check_metrized(alg) == dense_check_metrized(alg.C, alg.B, alg.dim), name
        broken = dict(alg.C)
        broken[(0, 1, 0)] = broken.get((0, 1, 0), Fraction(0)) + 1
        bad = MetrizedLieAlgebra(alg.dim, broken, alg.B)
        assert check_metrized(bad) == dense_check_metrized(bad.C, bad.B, alg.dim), name


# -- one canonical form for every consumer -------------------------------------


def _three_ways(C, n):
    """The canonical constants as lie_poisson, MetrizedLieAlgebra and
    LieAlgebroidData store them."""
    # component (i, j) of lie_poisson is sum_k c_{ij}^k mu_k: its term at e_k is c_{ij}^k
    from_pi = {(i, j, exp.index(1)): c for (i, j), p in lie_poisson(C, n).pi.components.items()
               for exp, c in p.terms.items()}
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    from_alg = MetrizedLieAlgebra(n, C, eye).C
    point = Chart(0, ())
    A = LieAlgebroidData(point, n, (PolyKVector(point, 1, {}),) * n, C)
    from_algebroid = {key: p.terms[()] for key, p in A.constants.items()}
    return from_pi, from_alg, from_algebroid


@pytest.mark.parametrize("C, want", [
    (so3_constants(), {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1}),
    # a consistent pair states c_{01}^2 once
    ({(0, 1, 2): 1, (1, 0, 2): -1, (2, 1, 0): Fraction(-1, 2)}, {(0, 1, 2): 1, (1, 2, 0): Fraction(1, 2)}),
    ({(0, 1, 2): 0, (1, 0, 2): 0, (1, 1, 0): 0}, {}),
])
def test_consumers_share_one_canonical_form(C, want):
    for got in _three_ways(C, 3):
        assert got == want


@pytest.mark.parametrize("C", [
    {(0, 1, 2): 1, (1, 0, 2): 1},  # both orientations, not negated
    {(0, 1, 2): 1, (1, 0, 2): 0},
    {(1, 1, 0): 1},                 # nonzero diagonal
    {(0, 3, 1): 1},                 # index out of range
    {(0, 3, 1): 0},
])
def test_consumers_reject_the_same_input(C):
    with pytest.raises(ShapeError):
        lie_poisson(C, 3)
    with pytest.raises(ShapeError):
        MetrizedLieAlgebra(3, C, [[Fraction(int(i == j)) for j in range(3)] for i in range(3)])
    point = Chart(0, ())
    with pytest.raises(ShapeError):
        LieAlgebroidData(point, 3, (PolyKVector(point, 1, {}),) * 3, C)


def test_polynomial_constants_are_canonicalized_alike():
    base = Chart(1, ("x",))
    x = base.coordinate(0)
    got = normalize_structure_constants({(1, 0, 0): x, (0, 2, 1): 2 * x, (2, 0, 1): -2 * x}, 3)
    assert got == {(0, 1, 0): -x, (0, 2, 1): 2 * x}
    with pytest.raises(ShapeError):
        normalize_structure_constants({(1, 0, 0): x, (0, 1, 0): x}, 3)
    with pytest.raises(ShapeError):
        normalize_structure_constants({(1, 1, 0): PolyScalar.constant(base, 1)}, 3)
