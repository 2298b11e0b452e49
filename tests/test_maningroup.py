import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diraclab import maningroup
from diraclab.errors import DomainEscapeError, ShapeError, TransversalityError
from diraclab.maningroup import (
    GroupChart,
    _expm,
    _PointJet,
    _product_differential,
    _rank,
    ManinTriple,
    MetrizedLieAlgebra,
    builtin_triples,
    check_manin_triple,
    check_metrized,
    double_triple,
    dressing_action,
    drinfeld_bivector,
    drinfeld_bivector_chart,
    dual_triple,
    e_map_residuals,
    homogeneous_space_check,
    iwasawa_su2,
    jacobiator_fd_residual,
    sl2_borel,
    sl2_standard,
    so3_semidirect,
    verify_multiplicativity,
)
from diraclab.poisson import so3_constants

from conftest import fraction_rank, frame_oracle


def so3_metrized():
    B = [[Fraction(1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    return MetrizedLieAlgebra(3, so3_constants(), B)


def sample_chart_points(seed=0, count=5, scale=0.8, dim=3):
    rng = np.random.default_rng(seed)
    return [scale * rng.uniform(-1, 1, size=dim) for _ in range(count)]


def abelian_dual_chart():
    """The dual of the semidirect so(3) triple on g* under addition."""
    triple, _ = so3_semidirect()
    dual = dual_triple(triple)

    def param(x):
        M = np.eye(4)
        M[:3, 3] = x
        return M

    return dual, GroupChart("abelian-dual", dual, param, lambda M: M[:3, 3].copy())


def jet_charts():
    catalog = builtin_triples()
    return {"iwasawa-su2": catalog["iwasawa-su2"], "semidirect-so3": catalog["semidirect-so3"],
            "abelian-dual": abelian_dual_chart()}


def richardson(f, x, m, h=1e-3):
    """d f / dx_m by central differences at h and h/2, Richardson-extrapolated."""
    def central(step):
        e = np.zeros(len(x))
        e[m] = step
        return (f(x + e) - f(x - e)) / (2 * step)

    return (4 * central(h / 2) - central(h)) / 3


class TestMetrized:
    def test_so3_killing(self):
        ok, witness = check_metrized(so3_metrized())
        assert ok, witness

    def test_abelian_any_metric(self):
        B = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        ok, _ = check_metrized(MetrizedLieAlgebra(2, {}, B))
        assert ok

    def test_broken_constant_witnessed(self):
        C = so3_constants()
        C[(0, 1, 0)] = Fraction(1)  # breaks Jacobi
        ok, witness = check_metrized(
            MetrizedLieAlgebra(3, C, so3_metrized().B)
        )
        assert not ok and witness["kind"] == "jacobi"

    def test_non_invariant_metric(self):
        B = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(1)]]
        ok, witness = check_metrized(MetrizedLieAlgebra(3, so3_constants(), B))
        assert not ok and witness["kind"] == "ad-invariance"


class TestManinTriples:
    def test_semidirect_so3(self):
        triple, _ = so3_semidirect()
        ok, witness = check_manin_triple(triple)
        assert ok, witness

    def test_all_builtins_pass_exactly(self):
        for name, (triple, _) in builtin_triples().items():
            ok, witness = check_manin_triple(triple)
            assert ok, (name, witness)

    # sha256 prefixes of repr((dim, C items in order, B, g_basis, h_basis)), recorded
    # when `sl2_standard` and `double_triple` each built d + dbar by hand
    BUILTIN_DIGESTS = {
        "borel-sl2": "7072ed1945f52398",
        "double-semidirect-so3": "2c9f9bbdf9a9d8f2",
        "dual-iwasawa-su2": "620c5deb278abeed",
        "iwasawa-su2": "0d2b1682e793931e",
        "semidirect-so3": "8237cf65ee172d6c",
        "standard-sl2": "940bb0cc4ef8dc14",
    }

    def test_builtins_keep_their_constants_metrics_and_bases(self):
        # the doubles share one construction, which must rebuild them entry for entry
        got = {}
        for name, (triple, _) in builtin_triples().items():
            alg = triple.algebra
            text = repr((alg.dim, list(alg.C.items()), alg.B, triple.g_basis, triple.h_basis))
            got[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert got == self.BUILTIN_DIGESTS

    def test_dual_triple_passes(self):
        triple, _ = so3_semidirect()
        ok, _ = check_manin_triple(dual_triple(triple))
        assert ok

    def test_non_lagrangian_h_rejected(self):
        triple = sl2_standard()
        bad = ManinTriple(
            triple.algebra,
            triple.g_basis,
            [
                [0, 1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],   # (F, 0): pairs with (E, 0)
                [1, 0, 0, -1, 0, 0],
            ],
        )
        ok, witness = check_manin_triple(bad)
        assert not ok and witness["kind"] in ("isotropy", "subalgebra")

    def test_double_of_double(self):
        base = sl2_borel()
        ok, witness = check_manin_triple(double_triple(base))
        assert ok, witness

    # (ok, witness) as recorded before the membership tests moved to one
    # echelon per basis: every built-in, and both broken kinds of the benchmark
    # (h replaced by g; h missing its last vector)
    BROKEN = {"h=g": lambda t: ManinTriple(t.algebra, t.g_basis, t.g_basis),
              "h short": lambda t: ManinTriple(t.algebra, t.g_basis, t.h_basis[:-1])}
    DIMENSIONS = {"borel-sl2": (4, 2), "double-semidirect-so3": (12, 6)}

    @pytest.mark.parametrize("name", sorted(builtin_triples()))
    def test_verdicts_and_witnesses_are_pinned(self, name):
        triple = builtin_triples()[name][0]
        d, n = self.DIMENSIONS.get(name, (6, 3))
        assert check_manin_triple(triple) == (True, None)
        assert check_manin_triple(self.BROKEN["h=g"](triple)) == (
            False, {"kind": "transversality"})
        assert check_manin_triple(self.BROKEN["h short"](triple)) == (
            False, {"kind": "dimension", "detail": f"dim d = {d}, half bases {n}/{n - 1}"})

    # n of the 2n basis vectors of g and h, by index into g_basis + h_basis,
    # that span an isotropic subspace that is not a subalgebra; the pair is (0, 1)
    NOT_SUBALGEBRAS = {"dual-iwasawa-su2": [(0, 3, 4), (1, 4, 5), (2, 3, 5)],
                       "iwasawa-su2": [(0, 1, 3), (0, 2, 5), (1, 2, 4)],
                       "semidirect-so3": [(0, 1, 5), (0, 2, 4), (1, 2, 3)],
                       "standard-sl2": [(1, 2, 5)]}

    @pytest.mark.parametrize("scale", [Fraction(1, 3), Fraction(-1, 3), Fraction(-5, 2)])
    def test_isotropy_fails_on_a_pairing_of_either_sign(self, scale):
        # h_0 + s g_0 pairs with itself to 2 s B(g_0, h_0) = 2 s under the split metric
        triple = builtin_triples()["semidirect-so3"][0]
        h = [[x + scale * y for x, y in zip(triple.h_basis[0], triple.g_basis[0])],
             *triple.h_basis[1:]]
        assert triple.algebra.B[0][3] == 1 and triple.h_basis[0][3] == 1
        assert check_manin_triple(ManinTriple(triple.algebra, triple.g_basis, h)) == (
            False, {"kind": "isotropy", "subspace": "h", "indices": (0, 0)})

    @pytest.mark.parametrize("name", sorted(NOT_SUBALGEBRAS))
    def test_subalgebra_witnesses_are_pinned(self, name):
        triple = builtin_triples()[name][0]
        vectors = triple.g_basis + triple.h_basis
        for chosen in self.NOT_SUBALGEBRAS[name]:
            basis = [vectors[k] for k in chosen]
            for subspace, bad in (("h", ManinTriple(triple.algebra, triple.g_basis, basis)),
                                  ("g", ManinTriple(triple.algebra, basis, triple.h_basis))):
                assert check_manin_triple(bad) == (
                    False, {"kind": "subalgebra", "subspace": subspace, "indices": (0, 1)})


def ad_residuals(chart, points) -> list:
    """Ad(0) = I, then at each point Ad^T B Ad = B and Ad [z1, z2] = [Ad z1, Ad z2]
    on three seeded pairs of d-vectors."""
    d, B, T = chart.triple.algebra.dim, chart.floats["B"], chart.floats["T"]
    bracket = lambda z1, z2: np.einsum("abk,a,b->k", T, z1, z2)
    zeta_pairs = np.random.default_rng(0).standard_normal((3, 2, d))
    res = [np.abs(chart.ad(np.zeros(chart.dim)) - np.eye(d)).max()]
    for x in points:
        A = chart.ad(x)
        res.append(np.abs(A.T @ B @ A - B).max())
        res += [np.abs(A @ bracket(z1, z2) - bracket(A @ z1, A @ z2)).max()
                for z1, z2 in zeta_pairs]
    return res


class TestCharts:
    def test_so3_chart_valid(self):
        triple, chart = so3_semidirect()
        assert max(ad_residuals(chart, sample_chart_points())) < 1e-9

    def test_su2_chart_valid(self):
        triple, chart = iwasawa_su2()
        assert max(ad_residuals(chart, sample_chart_points(seed=1))) < 1e-9

    @pytest.mark.parametrize("x", [[2 * np.pi, 0, 0], [2 * np.pi / 3**0.5] * 3])
    def test_singular_frame_is_refused(self, x):
        # |x| = 2 pi: d exp is singular and (P0 Xi)^{-1} has entries near 1e16
        triple, chart = iwasawa_su2()
        with pytest.raises(TransversalityError, match="chart frame singular") as err:
            drinfeld_bivector_chart(triple, chart, x)
        assert list(err.value.point) == x

    def test_compose_consistent_with_ad(self):
        triple, chart = iwasawa_su2()
        x = np.array([0.3, -0.2, 0.4])
        y = np.array([0.1, 0.5, -0.3])
        z = chart.compose(x, y)
        assert np.abs(chart.ad(z) - chart.ad(x) @ chart.ad(y)).max() < 1e-9

    def test_frame_at_identity(self):
        triple, chart = so3_semidirect()
        assert np.abs(chart.frame_jet(np.zeros(3))[0] - np.eye(3)).max() < 1e-14


class TestDrinfeldBivector:
    def test_semidirect_zero_everywhere(self):
        triple, chart = so3_semidirect()
        for x in sample_chart_points(seed=3):
            P = drinfeld_bivector(triple, chart, x)
            assert np.abs(P).max() < 1e-12

    def test_vanishes_at_identity(self):
        for name, (triple, chart) in builtin_triples().items():
            if chart is None:
                continue
            P = drinfeld_bivector(triple, chart, np.zeros(chart.dim))
            assert np.abs(P).max() < 1e-12, name

    def test_su2_skew_and_nonzero(self):
        triple, chart = iwasawa_su2()
        x = np.array([0.4, 0.1, -0.6])
        P = drinfeld_bivector(triple, chart, x)
        assert np.abs(P + P.T).max() < 1e-12
        assert np.abs(P).max() > 1e-3

    def test_su2_fd_jacobi(self):
        triple, chart = iwasawa_su2()
        res = jacobiator_fd_residual(triple, chart, sample_chart_points(seed=5, count=4, scale=0.6))
        assert res < 1e-10, res

    def test_dual_bivector_vanishes_at_unit(self):
        triple, chart = iwasawa_su2()
        dual = dual_triple(triple)
        # dual group chart: exponential coordinates on H = AN via the dual triple
        dual_chart = GroupChart("an", dual, chart.param, chart.log_map)
        P = drinfeld_bivector(dual, dual_chart, np.zeros(3))
        assert np.abs(P).max() < 1e-12

    @pytest.mark.parametrize("verifier", ["bivector", "jacobiator", "multiplicativity"])
    def test_lost_skewness_names_its_point(self, verifier):
        # far out on the chart rounding breaks skewness; the error names the point
        triple, chart = iwasawa_su2()
        far, near = np.full(3, 1e5), np.array([0.1, 0.2, 0.3])
        call = {"bivector": lambda: drinfeld_bivector(triple, chart, far),
                "jacobiator": lambda: jacobiator_fd_residual(triple, chart, [near, far]),
                "multiplicativity": lambda: verify_multiplicativity(triple, chart, [(near, far)])}
        with pytest.raises(DomainEscapeError, match="lost skewness") as e:
            call[verifier]()
        assert e.value.point == (1e5, 1e5, 1e5)


class TestDressing:
    def test_g_vectors_fixed(self):
        triple, chart = so3_semidirect()
        zeta = np.array([0.3, -0.5, 0.2, 0.0, 0.0, 0.0])
        for x in sample_chart_points(seed=7, count=3):
            out = dressing_action(triple, chart, x, zeta)
            assert np.abs(out - zeta[:3]).max() < 1e-10

    def test_semidirect_dual_vectors_killed(self):
        triple, chart = so3_semidirect()
        zeta = np.array([0.0, 0.0, 0.0, 0.4, -0.1, 0.9])
        for x in sample_chart_points(seed=8, count=3):
            out = dressing_action(triple, chart, x, zeta)
            assert np.abs(out).max() < 1e-12

    def test_identity_projects(self):
        triple, chart = iwasawa_su2()
        zeta = np.array([0.2, 0.1, -0.3, 0.5, 0.4, -0.2])
        out = dressing_action(triple, chart, np.zeros(3), zeta)
        num = chart.floats
        expect = num["g_coords"] @ (num["pr_g"] @ zeta)
        assert np.abs(out - expect).max() < 1e-12

    def test_linearity(self):
        triple, chart = iwasawa_su2()
        x = np.array([0.3, 0.4, -0.1])
        z1 = np.array([0.2, 0.0, -0.3, 0.1, 0.5, 0.0])
        z2 = np.array([-0.1, 0.7, 0.2, 0.0, -0.4, 0.3])
        lhs = dressing_action(triple, chart, x, 2.0 * z1 - 0.5 * z2)
        rhs = 2.0 * dressing_action(triple, chart, x, z1) - 0.5 * dressing_action(
            triple, chart, x, z2
        )
        assert np.abs(lhs - rhs).max() < 1e-12


class TestEMap:
    def test_semidirect_dual_side_exact(self):
        # for zeta in g* the dressing fields vanish identically and every
        # residual has a closed-form value of zero
        triple, chart = so3_semidirect()
        z1 = np.array([0, 0, 0, 0.7, -0.2, 0.4])
        z2 = np.array([0, 0, 0, -0.3, 0.5, 0.1])
        res = e_map_residuals(triple, chart, sample_chart_points(seed=9, count=3), z1, z2)
        assert max(res.values()) < 1e-12, res

    def test_equal_arguments_bracket_trivial(self):
        triple, chart = iwasawa_su2()
        z = np.array([0.3, 0.1, 0.0, 0.2, -0.1, 0.4])
        res = e_map_residuals(triple, chart, [np.array([0.2, -0.3, 0.5])], z, z)
        assert res["bracket"] < 1e-9

    def test_su2_random_samples(self):
        triple, chart = iwasawa_su2()
        rng = np.random.default_rng(11)
        pts = sample_chart_points(seed=12, count=10, scale=0.7)
        z1, z2 = rng.standard_normal(6), rng.standard_normal(6)
        res = e_map_residuals(triple, chart, pts, z1, z2)
        assert res["metric"] < 1e-9, res
        assert res["bracket"] < 1e-10, res
        assert res["coframe_derivative"] < 1e-10, res


class TestMultiplicativity:
    def test_zero_bivector_triple(self):
        triple, chart = so3_semidirect()
        pairs = [(np.array([0.3, 0.1, -0.2]), np.array([-0.4, 0.2, 0.5]))]
        rep = verify_multiplicativity(triple, chart, pairs)
        assert rep["max_residual"] < 1e-10

    def test_unit_law(self):
        triple, chart = iwasawa_su2()
        pairs = [(np.array([0.4, -0.3, 0.2]), np.zeros(3))]
        rep = verify_multiplicativity(triple, chart, pairs)
        assert rep["max_residual"] < 1e-8

    def test_su2_random_pairs(self):
        triple, chart = iwasawa_su2()
        rng = np.random.default_rng(13)
        pairs = [
            (0.5 * rng.uniform(-1, 1, 3), 0.5 * rng.uniform(-1, 1, 3))
            for _ in range(10)
        ]
        rep = verify_multiplicativity(triple, chart, pairs)
        assert rep["max_residual"] < 1e-10, rep


class TestHomogeneousSpace:
    def test_l_equals_h_full_group(self):
        triple, _ = so3_semidirect()
        rep = homogeneous_space_check(triple, [], triple.h_basis)
        assert rep.passed, rep

    def test_l_equals_g_point(self):
        triple, _ = so3_semidirect()
        rep = homogeneous_space_check(triple, triple.g_basis, triple.g_basis,
                                      k_generators=[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
        assert rep.passed, rep

    # k = torus direction u3; l = k + (k-orthogonal part of h)
    TORUS_K = [[0, 0, 1, 0, 0, 0]]
    TORUS_L = [
        [0, 0, 1, 0, 0, 0],    # u3
        [0, -1, 0, 1, 0, 0],   # v1 - u2
        [1, 0, 0, 0, 1, 0],    # u1 + v2
    ]

    @pytest.mark.parametrize("generator", [[0, 0, 1, 0, 0, 0], [0, 0, Fraction(-1, 3), 0, 0, 0]],
                             ids=["u3", "-u3/3"])
    def test_su2_torus_sphere(self, generator):
        triple, _ = iwasawa_su2()
        rep = homogeneous_space_check(triple, self.TORUS_K, self.TORUS_L, [generator])
        assert rep.passed, rep
        # exact verdict, exact witness: no float is left in it
        assert rep.max_residual == 0 and list(rep.witness) == ["connectedness_caveat"]

    def test_generator_leaving_l_is_named(self):
        # [u1, u3] = -u2 is not in l: u1 does not normalize l, so Ad_{exp u1} moves l
        triple, _ = iwasawa_su2()
        rep = homogeneous_space_check(triple, self.TORUS_K, self.TORUS_L,
                                      [[0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]])
        assert not rep.passed
        assert rep.witness["failure"] == "l not Ad_K-invariant: [generator 1, l vector 0] leaves l"

    def test_generator_outside_g_is_named(self):
        # v3 lies in h, so exp v3 is no element of G, let alone of K; [v3, l]
        # stays in l, and the Ad-invariance test alone passed it
        triple, _ = iwasawa_su2()
        rep = homogeneous_space_check(triple, self.TORUS_K, self.TORUS_L,
                                      [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]])
        assert not rep.passed and rep.max_residual is None
        assert rep.witness["failure"] == "generator 1 not in g"

    def test_generator_off_by_a_tiny_rational_fails(self):
        # a float test at 1e-9 passed u3 + 1e-12 u1; the exact test does not
        triple, _ = iwasawa_su2()
        rep = homogeneous_space_check(triple, self.TORUS_K, self.TORUS_L,
                                      [[Fraction(1, 10**12), 0, 1, 0, 0, 0]])
        assert not rep.passed and "Ad_K-invariant" in rep.witness["failure"]

    def test_generators_in_k_always_pass(self):
        # k in l and [l, l] in l: each X in k normalizes l, for every built-in
        for name, (triple, _) in builtin_triples().items():
            rep = homogeneous_space_check(triple, triple.g_basis, triple.g_basis,
                                          k_generators=triple.g_basis)
            assert rep.passed, (name, rep)

    def test_wrong_intersection_detected(self):
        triple, _ = iwasawa_su2()
        rep = homogeneous_space_check(triple, [[0, 0, 1, 0, 0, 0]], triple.h_basis)
        assert not rep.passed and "cap" in rep.witness["failure"]

    def test_non_invariant_l_detected(self):
        # l = u3, v3, v1 - u2 is isotropic and a subalgebra candidate check:
        # [u3, v1 - u2] = v2 + u1 is not in l, so the subalgebra check fires
        triple, _ = iwasawa_su2()
        l_basis = [
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, -1, 0, 1, 0, 0],
        ]
        rep = homogeneous_space_check(triple, [[0, 0, 1, 0, 0, 0]], l_basis)
        assert not rep.passed


@st.composite
def rational_matrices(draw):
    """Up to 7 x 12 rational matrices with mixed denominators: free ones and
    products of rank at most k, some rows and columns then set to zero."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 12))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6]))

    def block(r, c):
        flat = draw(st.lists(entry, min_size=r * c, max_size=r * c))
        return [flat[i * c:(i + 1) * c] for i in range(r)]

    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        X, Y = block(rows, k), block(k, cols)
        M = [[sum((X[i][m] * Y[m][j] for m in range(k)), Fraction(0)) for j in range(cols)]
             for i in range(rows)]
    else:
        M = block(rows, cols)
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=3))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(M)]


class TestRank:
    """The fraction-free rank behind every exact subspace axiom, against a
    Gauss-Jordan reference over Fraction."""

    def test_rank_of_dependent_rows(self):
        assert _rank([[Fraction(x) for x in row] for row in [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]) == 2

    def test_degenerate_shapes(self):
        assert _rank([]) == 0
        assert _rank([[], []]) == 0
        assert _rank([[Fraction(0)] * 5] * 3) == 0
        assert _rank([[Fraction(0), Fraction(0), Fraction(3, 7)]]) == 1

    def test_mixed_denominators(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)],
                [Fraction(1, 6), Fraction(-5, 9)]]
        assert _rank(rows[:2]) == 1 and _rank(rows) == 2

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(rational_matrices())
    def test_matches_gauss_jordan(self, M):
        r = fraction_rank(M)
        assert _rank(M) == r
        assert _rank([list(col) for col in zip(*M)]) == r


class TestDualSemidirectIsLiePoisson:
    """Independent cross-check of the whole group-chart chain.

    For the dual of the semidirect triple the group is g* under addition,
    and the induced bivector in exponential (= linear) coordinates must be
    the Lie-Poisson tensor of g on the nose.  This ties the structure-
    constant Ad, the coframe, and the projections to a closed form computed
    by an entirely different code path.
    """

    def test_chart_bivector_matches_lie_poisson(self):
        from diraclab.poisson import lie_poisson

        dual, chart = abelian_dual_chart()
        pi = lie_poisson(so3_constants(), 3)
        rng = np.random.default_rng(21)
        for _ in range(6):
            pt = rng.uniform(-1.2, 1.2, 3)
            P = drinfeld_bivector_chart(dual, chart, pt)
            assert np.abs(P - pi.matrix_at(pt)).max() < 1e-10

    def test_dual_multiplicativity_is_additive(self):
        # the abelian group law makes multiplicativity the cocycle identity
        # pi(x + y) = pi(x) + pi(y), which Lie-Poisson linearity satisfies
        dual, chart = abelian_dual_chart()
        pairs = [(np.array([0.3, 0.1, -0.2]), np.array([0.4, -0.5, 0.2]))]
        rep = verify_multiplicativity(dual, chart, pairs)
        assert rep["max_residual"] < 1e-8, rep


class TestIwasawaLinearization:
    def test_unit_linearization_is_dual_algebra(self):
        # the linear part of the chart bivector at the unit is the dual
        # bracket paired against the coordinate basis:
        #   d Pi^{ij}/dx_k (0) = < [hdual_i, hdual_j], g_k >
        # where hdual is the basis of h dual to the g-basis.  For su(2) this
        # is the solvable a+n structure; the x3-slice vanishes and the
        # others are unit shears.
        triple, chart = iwasawa_su2()
        num = chart.floats
        G, H, B, P0 = num["G"], num["H"], num["B"], num["P0"]
        Hdual = H @ np.linalg.inv(P0).T
        h = 1e-5
        seen_nonzero = False
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            Dk = (
                drinfeld_bivector_chart(triple, chart, e)
                - drinfeld_bivector_chart(triple, chart, -e)
            ) / (2 * h)
            Ek = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    br = np.einsum("abk,a,b->k", num["T"], Hdual[:, i], Hdual[:, j])
                    Ek[i, j] = br @ B @ G[:, k]
            assert np.abs(Dk - Ek).max() < 1e-9
            seen_nonzero = seen_nonzero or np.abs(Ek).max() > 0.5
        assert seen_nonzero


@pytest.mark.parametrize("name", ["iwasawa-su2", "semidirect-so3", "abelian-dual"])
class TestExactJets:
    """Every exact derivative of the group-chart layer against a Richardson
    central difference of the value it differentiates."""

    TOL = 1e-8

    def points(self):
        return sample_chart_points(seed=31, count=3, scale=0.7)

    def test_frame_partials(self, name):
        _, chart = jet_charts()[name]
        for x in self.points():
            Xi, dXi = chart.frame_jet(x)
            for m in range(chart.dim):
                fd = richardson(lambda y: chart.frame_jet(y)[0], x, m)
                assert np.abs(dXi[m] - fd).max() < self.TOL

    def test_chart_bivector_partials(self, name):
        triple, chart = jet_charts()[name]
        for x in self.points():
            P, dP = _PointJet(chart, x).bivector(partials=True)
            assert np.array_equal(P, drinfeld_bivector_chart(triple, chart, x))
            for m in range(chart.dim):
                fd = richardson(lambda y: drinfeld_bivector_chart(triple, chart, y), x, m)
                assert np.abs(dP[m] - fd).max() < self.TOL

    def test_dressing_jacobians(self, name):
        triple, chart = jet_charts()[name]
        zeta = np.random.default_rng(32).standard_normal(triple.algebra.dim)

        def field(y):
            return np.linalg.solve(chart.frame_jet(y)[0], dressing_action(triple, chart, y, zeta))

        for x in self.points():
            v, J = _PointJet(chart, x).dressing(zeta)
            assert np.abs(v - field(x)).max() < 1e-12
            for m in range(chart.dim):
                assert np.abs(J[:, m] - richardson(field, x, m)).max() < self.TOL

    def test_product_differential(self, name):
        _, chart = jet_charts()[name]
        n = chart.dim
        pts = self.points()
        for x1, x2 in zip(pts, pts[1:]):
            jets = [_PointJet(chart, y) for y in (x1, x2, chart.compose(x1, x2))]
            D = _product_differential(*jets)
            for m in range(n):
                fd1 = richardson(lambda y: chart.compose(y, x2), x1, m)
                fd2 = richardson(lambda y: chart.compose(x1, y), x2, m)
                assert np.abs(D[:, m] - fd1).max() < self.TOL
                assert np.abs(D[:, n + m] - fd2).max() < self.TOL


@pytest.mark.parametrize("name", ["iwasawa-su2", "semidirect-so3"])
@pytest.mark.parametrize("radius", [20.0, 30.0])
def test_frame_jet_far_from_the_identity(name, radius):
    """The frame and its partials hold to rounding at any |x|: a series cut
    after a fixed number of terms is off by 6e-6 at |x| = 20 and by 1e5 at 30."""
    _, chart = builtin_triples()[name]
    rng = np.random.default_rng(43)
    for d in rng.standard_normal((4, 3)):
        x = radius * d / np.linalg.norm(d)
        for got, ref in zip(chart.frame_jet(x), frame_oracle(chart, x)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (x, got, ref)


@pytest.mark.parametrize("wrong", [False, True])
def test_frame_negative_control(wrong, monkeypatch):
    """A frame wrong by 1e-6, with consistent partials (Xi + eps x_0 I and
    d_0 Xi + eps I), fails every residual that reads the frame against 1e-10."""
    frame_jet, eps = GroupChart.frame_jet, 1e-6

    def perturbed(chart, x):
        Xi, dXi = frame_jet(chart, x)
        eye = np.eye(chart.dim)
        dXi = dXi.copy()
        dXi[0] += eps * eye
        return Xi + eps * float(x[0]) * eye, dXi

    if wrong:
        monkeypatch.setattr(GroupChart, "frame_jet", perturbed)
    triple, chart = iwasawa_su2()
    pts = sample_chart_points(seed=41, count=3, scale=0.7)
    z1, z2 = np.random.default_rng(42).standard_normal((2, 6))
    res = e_map_residuals(triple, chart, pts, z1, z2)
    res["jacobiator"] = jacobiator_fd_residual(triple, chart, pts)
    del res["metric"]  # Xi cancels from the pairing, as from multiplicativity
    assert all((r > 1e-10) is wrong for r in res.values()), res


class TestChartTriple:
    """Group data are read from `chart.triple`, so every chart certificate
    refuses any other triple, even an equal copy, instead of mixing two."""

    CALLS = {
        "drinfeld_bivector": lambda t, c, x, z: drinfeld_bivector(t, c, x),
        "drinfeld_bivector_chart": lambda t, c, x, z: drinfeld_bivector_chart(t, c, x),
        "dressing_action": lambda t, c, x, z: dressing_action(t, c, x, z),
        "e_map_residuals": lambda t, c, x, z: e_map_residuals(t, c, [x], z, -z),
        "verify_multiplicativity": lambda t, c, x, z: verify_multiplicativity(t, c, [(x, -x)]),
        "jacobiator_fd_residual": lambda t, c, x, z: jacobiator_fd_residual(t, c, [x]),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_other_triple_refused(self, name):
        triple, chart = iwasawa_su2()
        x, zeta = np.array([0.3, -0.2, 0.4]), np.arange(6.0)
        call = self.CALLS[name]
        call(chart.triple, chart, x, zeta)
        for other in (dual_triple(triple), iwasawa_su2()[0]):
            with pytest.raises(ShapeError):
                call(other, chart, x, zeta)


class TestWorkCounts:
    """One jet per chart point: a multiplicativity pair forms one frame jet per
    chart point (3) and two exponentials per jet, Ad and the frame's block,
    plus the two inside `compose` (8); an e-map point forms one jet, so 1 and
    2; a dressing call forms Ad alone."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        expm, frame_jet = maningroup._expm, GroupChart.frame_jet

        def counted_expm(A):
            calls["expm"] += 1
            return expm(A)

        def counted_frame_jet(chart, x):
            calls["frame_jet"] += 1
            return frame_jet(chart, x)

        monkeypatch.setattr(maningroup, "_expm", counted_expm)
        monkeypatch.setattr(GroupChart, "frame_jet", counted_frame_jet)
        return calls

    @pytest.mark.parametrize("name", ["iwasawa-su2", "semidirect-so3"])
    def test_multiplicativity_pair(self, name, calls):
        triple, chart = builtin_triples()[name]
        pts = sample_chart_points(seed=35, count=8, scale=0.5)
        pairs = list(zip(pts[::2], pts[1::2]))
        rep = verify_multiplicativity(triple, chart, pairs)
        assert rep["max_residual"] < 1e-10
        assert calls == {"frame_jet": 3 * len(pairs), "expm": 8 * len(pairs)}

    @pytest.mark.parametrize("name", ["iwasawa-su2", "semidirect-so3"])
    def test_e_map_point(self, name, calls):
        triple, chart = builtin_triples()[name]
        pts = sample_chart_points(seed=36, count=3, scale=0.7)
        z1, z2 = np.random.default_rng(37).standard_normal((2, 6))
        res = e_map_residuals(triple, chart, pts, z1, z2)
        assert max(res.values()) < 1e-10
        assert calls == {"frame_jet": len(pts), "expm": 2 * len(pts)}

    @pytest.mark.parametrize("name", ["iwasawa-su2", "semidirect-so3"])
    def test_dressing_call(self, name, calls):
        triple, chart = builtin_triples()[name]
        zeta = np.random.default_rng(38).standard_normal(6)
        for x in sample_chart_points(seed=39, count=3):
            dressing_action(triple, chart, x, zeta)
        assert calls == {"expm": 3}


class TestNumpyExpLog:
    def test_expm_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(33)
        for size, dtype in [(2, complex), (3, float), (6, float), (12, float), (24, float)]:
            for scale in (0.0, 1e-3, 0.5, 4.0):
                A = rng.standard_normal((size, size)).astype(dtype)
                if dtype is complex:
                    A = A + 1j * rng.standard_normal((size, size))
                A *= scale / np.abs(A).sum(axis=0).max()  # 1-norm = scale
                ref = linalg.expm(A)
                assert np.abs(_expm(A) - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    def rotation_points(self):
        # rotation angles 0 .. 3.0 about random axes, both charts' principal domain
        rng = np.random.default_rng(34)
        axes = rng.standard_normal((8, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        return [a * angle for a, angle in zip(axes, np.linspace(0.0, 3.0, 8))]

    def test_logs_match_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        _, so3 = so3_semidirect()
        _, su2 = iwasawa_su2()
        sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                 np.array([[1, 0], [0, -1]])]
        for x in self.rotation_points():
            X = np.real(linalg.logm(so3.param(x)))
            assert np.abs(so3.log_map(so3.param(x)) - [X[2, 1], X[0, 2], X[1, 0]]).max() < 1e-12
            K = linalg.logm(su2.param(x))
            ref = [np.real(1j * np.trace(K @ s)) for s in sigma]
            assert np.abs(su2.log_map(su2.param(x)) - ref).max() < 1e-12

    def test_log_inverts_param(self):
        for _, chart in (so3_semidirect(), iwasawa_su2()):
            for x in self.rotation_points():
                assert np.abs(chart.log_map(chart.param(x)) - x).max() < 1e-12, (chart.name, x)
