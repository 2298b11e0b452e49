import random
from fractions import Fraction

import numpy as np
import pytest

from diraclab import _numeric
from diraclab._numeric import FlowConfig, PackedPolys, compile_tensors
from diraclab.fields import Chart, PolyKForm, PolyKVector, PolyScalar
from diraclab.poisson import (
    TimePolyForm,
    euler_linearize,
    from_components,
    lie_poisson,
    moser_verify,
    so3_constants,
)

from conftest import random_form, random_poly, random_vector

TIMES = (0.0, 0.3, -0.7)


def time_columns(rng, chart, width, powers=(0, 1, 2)):
    """Random columns {power: poly}, some of them empty."""
    cols = []
    for _ in range(width):
        ds = rng.sample(powers, k=rng.randint(0, len(powers)))
        cols.append({d: random_poly(rng, chart, max_degree=3, terms=3) for d in ds})
    return cols


def exact_column(col, t, x, k=None):
    """sum_d t^d p_d(x), or its partial in x_k, evaluated exactly term by term."""
    return sum(t**d * (p if k is None else p.partial(k)).evaluate(x) for d, p in col.items())


class TestPackedPolys:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_values_and_partials_match_exact(self, dim):
        rng = random.Random(dim)
        chart = Chart(dim)
        cols = time_columns(rng, chart, 5)
        packed = PackedPolys(cols, dim, partials=True)
        values_only = PackedPolys(cols, dim)
        pts = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(4, dim))
        for t in TIMES:
            v, D = packed(pts, t)
            assert v.shape == (4, 5) and D.shape == (4, 5, dim)
            assert np.abs(values_only(pts, t) - v).max() < 1e-13
            for b, x in enumerate(pts):
                for c, col in enumerate(cols):
                    assert abs(v[b, c] - exact_column(col, t, x)) < 1e-13
                    for k in range(dim):
                        assert abs(D[b, c, k] - exact_column(col, t, x, k)) < 1e-13

    def test_single_point_and_batch_agree(self):
        rng = random.Random(5)
        chart = Chart(3)
        packed = PackedPolys(time_columns(rng, chart, 4), 3, partials=True)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 3))
        v, D = packed(pts, 0.3)
        for b, x in enumerate(pts):
            vb, Db = packed(x, 0.3)
            assert vb.shape == (4,) and Db.shape == (4, 3)
            assert np.abs(vb - v[b]).max() < 1e-15 and np.abs(Db - D[b]).max() < 1e-15

    @pytest.mark.parametrize("cols", [[], [{}, {}, {}]], ids=["no-columns", "empty-columns"])
    def test_empty_entries_give_zeros(self, cols):
        pts = np.ones((5, 2))
        for t in TIMES:
            assert np.array_equal(PackedPolys(cols, 2)(pts, t), np.zeros((5, len(cols))))
            v, D = PackedPolys(cols, 2, partials=True)(pts, t)
            assert np.array_equal(v, np.zeros((5, len(cols))))
            assert np.array_equal(D, np.zeros((5, len(cols), 2)))


class TestCompileTensors:
    @staticmethod
    def dense(T, x):
        """Full component array of a 1-form or bivector by PolyScalar.evaluate."""
        n = T.chart.dim
        out = np.zeros((n,) * T.degree)
        for idx, p in T.components.items():
            out[idx] = p.evaluate(x)
            if T.degree == 2:
                out[idx[::-1]] = -out[idx]
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compile_tensors_match_exact_components(self, seed):
        # a 1-form, a bivector and a two-power 1-form family, laid out in order
        rng = random.Random(seed)
        chart = Chart(4)
        alpha = random_form(rng, chart, 1)
        pi = random_vector(rng, chart, degree=2)
        family = TimePolyForm({0: random_form(rng, chart, 1), 2: random_form(rng, chart, 1)})
        packed = compile_tensors([alpha, pi, family])
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(6, 4))
        for t in TIMES:
            got = packed(pts, t)
            assert got.shape == (6, 4 + 16 + 4)
            bivectors = got[:, 4:20].reshape(6, 4, 4)
            assert np.array_equal(bivectors, -np.swapaxes(bivectors, 1, 2))
            for b, x in enumerate(pts):
                a_t = sum(t**d * self.dense(f, x) for d, f in family.coeffs.items())
                ref = np.concatenate([self.dense(alpha, x), self.dense(pi, x).ravel(), a_t])
                assert np.abs(got[b] - ref).max() < 1e-13
        # the bivector alone is what compiled_matrix reshapes
        matrices = from_components(chart, pi.components).compiled_matrix()(pts)
        assert np.array_equal(matrices, compile_tensors([pi])(pts).reshape(6, 4, 4))
        assert np.array_equal(matrices, bivectors)


class CountingTable:
    """Counts monomial-table evaluations through _MonomialTable.__call__."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = _numeric._MonomialTable.__call__

        def counted(table, pts):
            self.calls += 1
            return original(table, pts)

        monkeypatch.setattr(_numeric._MonomialTable, "__call__", counted)


def rk4_steps(T, step):
    return len(_numeric._step_schedule(T, step))


class TestOneTablePerRhs:
    """Each RHS evaluation of a time-dependent flow evaluates one table."""

    def test_euler(self, monkeypatch):
        chart = Chart(2, ("x", "y"))
        x, y = chart.coordinates()
        X = PolyKVector(chart, 1, {(0,): x + x * x + x * y * y, (1,): y + x * y})
        counter = CountingTable(monkeypatch)
        euler_linearize(X, [(0.1, 0.2), (-0.2, 0.1)], FlowConfig(step=0.05))
        assert counter.calls == 4 * rk4_steps(1.0, 0.05)

    @pytest.mark.parametrize("family", ["r2", "so3"])
    def test_moser(self, monkeypatch, family):
        if family == "r2":
            chart = Chart(2, ("x", "y"))
            pi0 = from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)})
            a = TimePolyForm({0: PolyKForm(chart, 1, {(1,): -chart.coordinate(0)})})
            grid = [(0.1, 0.2), (-0.3, 0.0)]
        else:
            pi0 = lie_poisson(so3_constants(), 3)
            m1, m2, m3 = pi0.chart.coordinates()
            q = Fraction(1, 8)
            a = TimePolyForm({0: PolyKForm(pi0.chart, 1, {(0,): q * m2, (2,): q * m1}),
                              1: PolyKForm(pi0.chart, 1, {(1,): q * m3 * m3})})
            grid = [(0.1, 0.2, 0.3), (-0.3, 0.0, 0.2)]
        times = [0.3, -0.25]
        counter = CountingTable(monkeypatch)
        moser_verify(pi0, a, times, grid, FlowConfig(step=0.05))
        assert counter.calls <= sum(4 * rk4_steps(T, 0.05) + 2 for T in times)
