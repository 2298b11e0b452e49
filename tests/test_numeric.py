import math
import random
from fractions import Fraction

import numpy as np
import pytest

from diraclab import _numeric
from diraclab._numeric import FlowConfig, PackedPolys, compile_tensors
from diraclab.errors import DomainEscapeError, ShapeError, TransversalityError
from diraclab.fields import Chart, PolyKForm, PolyKVector, PolyScalar
from diraclab.poisson import (
    TimePolyForm,
    euler_linearize,
    from_components,
    lie_poisson,
    moser_verify,
    so3_constants,
)
from diraclab.realization import RealizationConfig

from conftest import (dense_exact, exact_at, field_at_points, random_form, random_poly,
                      random_vector, spray_flow)

TIMES = (0.0, 0.3, -0.7)


def time_columns(rng, chart, width, powers=(0, 1, 2)):
    """Random columns {power: poly}, some of them empty."""
    cols = []
    for _ in range(width):
        ds = rng.sample(powers, k=rng.randint(0, len(powers)))
        cols.append({d: random_poly(rng, chart, max_degree=3, terms=3) for d in ds})
    return cols


def exact_column(col, t, x, k=None):
    """sum_d t^d p_d(x), or its partial in x_k, each term evaluated exactly."""
    return sum(t**d * exact_at(p if k is None else p.partial(k), x) for d, p in col.items())


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


def assert_same_table(a: PackedPolys, b: PackedPolys) -> None:
    """The two tables have the same monomial rows and byte-identical coefficients."""
    assert len(a.monomials.columns) == len(b.monomials.columns)
    for x, y in zip(a.monomials.columns, b.monomials.columns):
        assert np.array_equal(x, y)
    assert a.coefs.ndim == 2 and a.coefs.shape == b.coefs.shape
    assert a.coefs.tobytes() == b.coefs.tobytes()


class TestCompiledPartials:
    """Only the partials in variables a polynomial contains are compiled, read
    from its numerators with no `PolyScalar.partial` call; the table is the
    one that forming each partial gives, and the one compiling every partial gives."""

    @pytest.mark.parametrize("case", ["random", "moser"])
    def test_rows_and_coefficients_equal_compiling_every_partial(self, monkeypatch, case):
        from diraclab.fields import PolyScalar as Poly

        if case == "random":
            cols, dim = time_columns(random.Random(11), Chart(4), 6), 4
        else:  # the columns that compile_tensors lays out for the so(3)* Moser field
            from diraclab.poisson import _moser_field

            made = []
            with monkeypatch.context() as m:
                m.setattr(_numeric, "PackedPolys", lambda columns, dim, partials:
                          made.append((columns, dim)))
                _moser_field(*so3_moser_family())
            (cols, dim), = made
        calls, partial, float_terms = [], Poly.partial, Poly.float_terms
        monkeypatch.setattr(Poly, "partial", lambda p, k: calls.append(k) or partial(p, k))
        sparse = PackedPolys(cols, dim, partials=True)
        assert calls == []
        # the reference: each partial formed by PolyScalar.partial, then listed
        monkeypatch.setattr(Poly, "float_terms", lambda p, k=None:
                            float_terms(p if k is None else p.partial(k)))
        via_partial = PackedPolys(cols, dim, partials=True)
        assert len(calls) == sum(len(p.variables()) for col in cols for p in col.values())
        assert len(calls) < dim * sum(len(col) for col in cols)
        assert_same_table(sparse, via_partial)
        # every variable, as if each could occur
        monkeypatch.setattr(Poly, "variables", lambda p: list(range(p.chart.dim)))
        assert_same_table(sparse, PackedPolys(cols, dim, partials=True))


class TestCompileTensors:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compile_tensors_match_exact_components(self, seed):
        # a 1-form, a bivector and a two-power 1-form family, laid out in order
        rng = random.Random(seed)
        chart = Chart(4)
        alpha = random_form(rng, chart, 1)
        pi = random_vector(rng, chart, degree=2)
        family = TimePolyForm({0: random_form(rng, chart, 1), 2: random_form(rng, chart, 1)})
        packed = compile_tensors([alpha, pi, family])
        assert packed.coefs.ndim == 2  # one row per term t^d x^e
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(6, 4))
        for t in TIMES:
            got = packed(pts, t)
            assert got.shape == (6, 4 + 16 + 4)
            bivectors = got[:, 4:20].reshape(6, 4, 4)
            assert np.array_equal(bivectors, -np.swapaxes(bivectors, 1, 2))
            for b, x in enumerate(pts):
                a_t = sum(t**d * dense_exact(f, x) for d, f in family.coeffs.items())
                ref = np.concatenate([dense_exact(alpha, x), dense_exact(pi, x).ravel(), a_t])
                assert np.abs(got[b] - ref).max() < 1e-13
        # the bivector alone is what matrix_at reshapes
        matrices = from_components(chart, pi.components).matrix_at(pts)
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
        # one table per RK4 stage, and one for the values X = E + Z_1
        assert counter.calls == 4 * rk4_steps(1.0, 0.05) + 1

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


def textbook_flow(rhs, x0, t, step, record_times):
    """Allocating RK4 on the (x, J) state: y + h/6 (k1 + 2 k2 + 2 k3 + k4),
    with dz/ds = -a(z, t - s), dJ/ds = -Da J, on the integrator's schedule."""
    B, n = x0.shape

    def f(s, y):
        a, Da = rhs(y[0], t - s)
        return -a, -(Da @ y[1])

    def shifted(y, c, k):
        return tuple(u + c * v for u, v in zip(y, k))

    y, s, snaps = (x0.copy(), np.tile(np.eye(n), (B, 1, 1))), 0.0, []
    for target in record_times:
        for h in _numeric._step_schedule(target - s, step):
            k1 = f(s, y)
            k2 = f(s + 0.5 * h, shifted(y, 0.5 * h, k1))
            k3 = f(s + 0.5 * h, shifted(y, 0.5 * h, k2))
            k4 = f(s + h, shifted(y, h, k3))
            y = tuple(u + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                      for u, a, b, c, d in zip(y, k1, k2, k3, k4))
            s += h
        s = target
        snaps.append(y)
    return snaps


def reference_flow(rhs, x0, t, step, record_times):
    """RK4 through rhs(x, tau) -> (a, Da) at points, with the arithmetic of
    flow_points: rows [x | J | tau | 1] and stage rows [a | Da J | 1 | 0],
    stage inputs y - c K, which carry tau - c, and the update w . K for
    w = RK4_WEIGHTS * (-h / 6), contracted over the same (4, B (n + n^2 + 2))
    layout (BLAS may round the last entries of a contraction differently for
    another length); tau is reset to t - s at each recorded time."""
    B, n = x0.shape
    m = n + n * n
    y = np.hstack([x0, np.tile(np.eye(n).ravel(), (B, 1)), np.full((B, 1), t), np.ones((B, 1))])
    s, snaps = 0.0, []
    for target in record_times:
        for h in _numeric._step_schedule(target - s, step):
            K = np.zeros((4, B, m + 2))
            K[:, :, m] = 1.0
            yin = y
            for k in range(4):
                if k:
                    c = h if k == 3 else 0.5 * h
                    yin = K[k - 1] * -c + y
                a, Da = rhs(yin[:, :n], yin[0, m])
                K[k, :, :n] = a
                K[k, :, n:m] = (Da @ yin[:, n:m].reshape(B, n, n)).reshape(B, m - n)
            w = _numeric.RK4_WEIGHTS * (-h / 6.0)
            y = y + np.dot(w, K.reshape(4, -1)).reshape(B, m + 2)
        s = target
        y[:, m] = t - s
        snaps.append((y[:, :n], y[:, n:m].reshape(B, n, n)))
    return snaps


def so3_moser_family():
    pi0 = lie_poisson(so3_constants(), 3)
    m1, m2, m3 = pi0.chart.coordinates()
    q = Fraction(1, 8)
    return pi0, TimePolyForm({0: PolyKForm(pi0.chart, 1, {(0,): q * m2, (2,): q * m1}),
                              1: PolyKForm(pi0.chart, 1, {(1,): q * m3 * m3})})


def flow_fields():
    """name -> (field, rhs): the flow_points field on the flow state, and the
    same field at points through the public PackedPolys.__call__ (the Moser
    field's writer on the state [x | I | t | 1])."""
    from diraclab.poisson import _moser_field
    from diraclab.realization import default_spray

    chart = Chart(2, ("x", "y"))
    x, y = chart.coordinates()
    sprays = {"so3-spray": lie_poisson(so3_constants(), 3),
              "xdxdy-spray": from_components(chart, {(0, 1): x})}
    out = {}
    for name, pi in sprays.items():
        packed = default_spray(pi).compiled()
        out[name] = (packed.bind, packed)
    Z_t = compile_tensors([TimePolyForm({
        0: PolyKVector(chart, 1, {(0,): x * x, (1,): x * y}),
        1: PolyKVector(chart, 1, {(0,): x * y * y})})], partials=True)
    out["euler"] = (Z_t.bind, Z_t)
    field = _moser_field(*so3_moser_family())[1]
    out["moser"] = (field, field_at_points(field))
    return out


def flow_cases():
    """(field, rhs, x0, t, record_times) for a spray, an Euler Z_t and a Moser field."""
    from diraclab.realization import sample_points

    fields = flow_fields()
    pts = sample_points(3, 5, 0.5, seed=2)
    pts[1, 3:] = 0.0  # a zero-section point
    grid = np.array([(0.1, 0.2, 0.3), (-0.3, 0.0, 0.2), (0.25, -0.1, 0.05)])
    return {
        "spray": (*fields["so3-spray"], pts, -1.0, [-0.1, -0.45, -1.0]),
        "euler": (*fields["euler"], np.array([(0.1, 0.2), (-0.2, 0.1), (0.3, -0.25)]), 1.0,
                  None),
        "moser": (*fields["moser"], grid, -0.6, None),
    }


class TestFlowKernel:
    """The preallocated RK4 kernel against the textbook formula."""

    @pytest.mark.parametrize("case", ["spray", "euler", "moser"])
    def test_matches_textbook_rk4(self, case):
        field, rhs, x0, t, record = flow_cases()[case]
        config = FlowConfig(step=0.03)
        got = _numeric.flow_points(field, x0, t, config, record_times=record)
        got = [got] if record is None else got
        want = textbook_flow(rhs, x0, t, config.step, [t] if record is None else record)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    def test_zero_section_exactly_fixed(self):
        field, _, x0, t, record = flow_cases()["spray"]
        for x, _ in _numeric.flow_points(field, x0, t, FlowConfig(step=0.01), record):
            assert np.abs(x[1] - x0[1]).max() == 0.0


class TestStageBinding:
    """flow_points binds its field once per stage and call: stage 0 to the
    state, stages 1-3 to the one stage input, each to its own row of K; then
    it calls the writers once per stage and step."""

    @pytest.mark.parametrize("t, record", [(0.0, None), (0.02, None), (-1.0, None),
                                           (-1.0, [-0.1, -0.45, -1.0])])
    def test_four_binds_per_flow(self, t, record):
        field, _, x0, _, _ = flow_cases()["spray"]
        binds, writes = [], []

        def counting(state, row):
            binds.append((state, row))
            write = field(state, row)
            return lambda: writes.append(state[0, -2]) or write()

        _numeric.flow_points(counting, x0, t, FlowConfig(step=0.03), record_times=record)
        segments = [t] if record is None else record
        counts = [rk4_steps(b - a, 0.03) for a, b in zip([0.0] + segments, segments)]
        steps = sum(counts)
        assert len(binds) == 4 and len(writes) == 4 * steps
        # tau = t - s is exact as each segment starts, at s = 0 and each recorded time
        firsts = np.cumsum([0] + counts[:-1]) if steps else []
        for start, first in zip([0.0] + segments, firsts):
            assert writes[4 * first] == t - start
        (y, _), *inputs = binds
        assert all(state is inputs[0][0] and state is not y for state, _ in inputs)
        rows = [row for _, row in binds]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(rows) for b in rows[i + 1:])

    @pytest.mark.parametrize("case", ["values-only", "one-column", "bivector"])
    def test_a_table_that_is_not_a_vector_field_is_refused_at_bind_time(self, case):
        chart = Chart(2)
        x, y = chart.coordinates()
        packed = {
            "values-only": lambda: compile_tensors([PolyKVector(chart, 1, {(0,): x * y})]),
            "one-column": lambda: PackedPolys([{0: x * y}], 2, partials=True),
            "bivector": lambda: compile_tensors([from_components(chart, {(0, 1): x}).pi],
                                                partials=True),
        }[case]()
        with pytest.raises(ShapeError, match="flow field"):
            packed.bind(np.ones((1, 7)), np.zeros((1, 7)))
        # refused before any step: a flow over t = 0 takes none
        with pytest.raises(ShapeError, match="flow field"):
            _numeric.flow_points(packed.bind, np.zeros((1, 2)), 0.0, FlowConfig())


# name -> (start points drawn uniformly from [-r, r]^n, t, record times)
REFERENCE_FLOWS = {
    "xdxdy-spray": (4, 0.5, -1.0, [-0.1, -0.45, -1.0]),
    "so3-spray": (6, 0.5, -1.0, [-0.1, -0.45, -1.0]),
    "euler": (2, 0.3, 1.0, [0.35, 1.0]),
    "moser": (3, 0.3, -0.6, [-0.25, -0.6]),
}


class TestFlowStateLayout:
    """flow_points reads its fields from the [x | J | tau | 1] state, bitwise as
    a reference RK4 that evaluates them at points."""

    @pytest.mark.parametrize("record", [False, True], ids=["end", "segments"])
    @pytest.mark.parametrize("batch", [1, 5, 64])
    @pytest.mark.parametrize("name", list(REFERENCE_FLOWS))
    def test_bitwise_equal_to_the_point_reference(self, name, batch, record):
        field, rhs = flow_fields()[name]
        dim, r, t, times = REFERENCE_FLOWS[name]
        x0 = np.random.default_rng(batch).uniform(-r, r, size=(batch, dim))
        config = FlowConfig(step=0.04)
        got = _numeric.flow_points(field, x0, t, config, record_times=times if record else None)
        got = got if record else [got]
        want = reference_flow(rhs, x0, t, config.step, times if record else [t])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("record", [None, [0.75, 1.5, 3.0]], ids=["end", "segments"])
    def test_a_constant_field_flows_exactly(self, record):
        # a = d/dx: dx/ds = -1, and at h = 0.75 each RK4 update is exactly -h
        chart = Chart(2)
        field = compile_tensors([PolyKVector(chart, 1, {(0,): PolyScalar.constant(chart, 1)})],
                                partials=True)
        x0 = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 0.0]])
        got = _numeric.flow_points(field.bind, x0, 3.0, FlowConfig(step=0.75),
                                   record_times=record)
        for T, (x, J) in zip(record or [3.0], [got] if record is None else got):
            # each snapshot is its own (B, n) and (B, n, n), without the state's 1
            assert x.shape == (3, 2) and J.shape == (3, 2, 2)
            assert x.base is None and J.flags.owndata
            assert np.array_equal(x, x0 - [T, 0.0])
            assert np.array_equal(J, np.tile(np.eye(2), (3, 1, 1)))

    def test_state_and_point_evaluations_agree_bitwise(self):
        rng = random.Random(3)
        packed = PackedPolys(time_columns(rng, Chart(3), 4), 3, partials=True)
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 3))
        # a flow state [x | J | t | 1] for n = 3
        state = np.hstack([pts, np.random.default_rng(4).standard_normal((6, 9)),
                           np.zeros((6, 1)), np.ones((6, 1))])
        for t in TIMES:
            state[:, -2] = t
            for a, b in zip(packed.at_state(state), packed(pts, t)):
                assert a.tobytes() == b.tobytes()


def ragged_stack(rng):
    """4 x 5 matrices of rank 0 (all zero), 1 and 4 (full)."""
    u, v = rng.standard_normal(4), rng.standard_normal(5)
    return np.stack([np.zeros((4, 5)), np.outer(u, v), rng.standard_normal((4, 5))])


def reference_rank(S, tol=1e-10):
    return int(np.sum(S > tol * S[0])) if S.size and S[0] > 0 else 0


def reference_orthonormal(A):
    U, S, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, :reference_rank(S)]


def reference_nullspace(A):
    _, S, Vt = np.linalg.svd(A)
    return Vt[reference_rank(S):].T


def reference_span_residual(A, B):
    Qa, Qb = reference_orthonormal(A), reference_orthonormal(B)
    return float(np.linalg.norm(Qa @ Qa.T - Qb @ Qb.T, 2))


class TestStackedHelpers:
    """Masked stacked helpers against per-matrix SVD references."""

    @pytest.mark.parametrize("helper, reference", [
        (_numeric.orthonormal_basis, reference_orthonormal),
        (_numeric.nullspace_basis, reference_nullspace)])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_bases(self, helper, reference, transpose):
        stack = ragged_stack(np.random.default_rng(4))
        if transpose:
            stack = np.swapaxes(stack, 1, 2).copy()
        got = helper(stack)
        for b, A in enumerate(stack):
            want = reference(A)
            assert np.array_equal(helper(A[None])[0], got[b])  # a stack of one
            kept = np.any(got[b] != 0.0, axis=0)   # the unselected columns are zero
            assert np.array_equal(got[b][:, kept], want)
            assert not got[b][:, ~kept].any()
        assert [reference(A).shape[1] for A in stack] == [int(np.any(g != 0.0, axis=0).sum())
                                                          for g in got]

    def test_ranks_are_ragged(self):
        stack = ragged_stack(np.random.default_rng(4))
        assert [reference_orthonormal(A).shape[1] for A in stack] == [0, 1, 4]

    def test_zero_columns(self):
        empty = np.zeros((3, 4, 0))
        assert _numeric.orthonormal_basis(empty).shape == (3, 4, 0)
        assert _numeric.orthonormal_basis(empty[:1]).shape == (1, 4, 0)
        assert _numeric.nullspace_basis(np.zeros((3, 0, 4))).shape == (3, 4, 4)
        other = ragged_stack(np.random.default_rng(5))[:, :, :2]
        got = _numeric.span_residual(empty, other)
        for b in range(3):
            assert got[b] == reference_span_residual(empty[b], other[b])
            assert _numeric.span_residual(empty[b:b + 1], other[b:b + 1])[0] == got[b]

    def test_span_residual(self):
        rng = np.random.default_rng(6)
        a, b = ragged_stack(rng), ragged_stack(rng)
        b[2] = a[2] @ rng.standard_normal((5, 5))  # the same span
        got = _numeric.span_residual(a, b)
        assert got.shape == (3,)
        for i in range(3):
            want = reference_span_residual(a[i], b[i])
            assert _numeric.span_residual(a[i:i + 1], b[i:i + 1])[0] == want
            assert abs(got[i] - want) <= 1e-12
        assert got[0] == 0.0 and got[2] < 1e-12

    def test_pullback_fiber(self):
        rng = np.random.default_rng(7)
        J = rng.standard_normal((4, 3, 5))
        J[1, 2] = J[1, 0] + J[1, 1]  # not a submersion
        vectors = rng.standard_normal((4, 3, 3))
        vectors[2] = 0.0
        got = _numeric.pullback_fiber(J, vectors)
        for b in range(4):
            one = _numeric.pullback_fiber(J[b:b + 1], vectors[b:b + 1])[0]
            kept = np.any(got[b] != 0.0, axis=0)
            assert np.array_equal(np.any(one != 0.0, axis=0), kept)
            one = one[:, kept]
            assert np.abs(got[b][:, kept] - one).max() <= 1e-14
            w, nu = one[:5], one[5:]
            # the null space is taken of the blocks over their scales j and a
            j, a = _numeric.block_scale(J[b]), _numeric.block_scale(vectors[b])
            c = j / a * reference_nullspace(np.column_stack([J[b] / j, -vectors[b] / a]))[5:]
            assert np.abs(J[b] @ w - vectors[b] @ c).max() < 1e-12
            assert np.abs(nu - J[b].T @ c).max() < 1e-12


def reference_check_escape(y, n, escape_norm):
    """The escape check as it was before its one-dot test: every state runs
    the finiteness sum, the row norms and their largest."""
    if not math.isfinite(y.sum()) and not np.all(np.isfinite(y)):
        raise DomainEscapeError("trajectory diverged", None)
    x = y[:, :n]
    sq = np.einsum("ij,ij->i", x, x)
    if math.sqrt(sq.max()) > escape_norm:
        raise DomainEscapeError("trajectory left the admissible region", x[int(sq.argmax())])


def escape_verdict(check, y, n, escape_norm):
    """None, or the (type, message, point) that check raises."""
    try:
        check(y, n, escape_norm)
    except DomainEscapeError as e:
        return type(e), str(e), e.point
    return None


def escape_state(n=3, B=4, x_scale=0.5):
    """A flow state [x | J | tau | 1] with J near I."""
    rng = np.random.default_rng(7)
    J = np.eye(n).ravel() + 0.1 * rng.standard_normal((B, n * n))
    return np.hstack([x_scale * rng.standard_normal((B, n)), J, np.full((B, 1), 0.5),
                      np.ones((B, 1))])


# name -> {(row, column): value} written into escape_state(); x is columns 0-2
ESCAPE_EDITS = {
    "in bounds": {},
    "NaN only in J": {(1, 5): math.nan},
    "inf in x": {(2, 0): math.inf},
    "-inf in J": {(0, 4): -math.inf},
    "squares overflow in x": {(3, 1): 1e200, (0, 2): -1e200},
    "squares overflow in J": {(3, 7): 1e200},
    "the sum overflows": {(1, 3): 1.5e308, (1, 4): 1.5e308},
}


class TestEscapeCheck:
    """The one-dot escape test gives every verdict, message and point of the
    full check, and the full check runs only when the dot does not decide."""

    @pytest.mark.parametrize("escape_norm", [1e6, 2.0, 0.5, math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("state", list(ESCAPE_EDITS))
    def test_same_verdict_as_the_full_check(self, state, escape_norm):
        y = escape_state()
        for cell, value in ESCAPE_EDITS[state].items():
            y[cell] = value
        with np.errstate(over="ignore", invalid="ignore"):
            got = escape_verdict(_numeric._check_escape, y, 3, escape_norm)
            assert got == escape_verdict(reference_check_escape, y, 3, escape_norm)

    @pytest.mark.parametrize("escape_norm", [1e6, 50.0, 1.0, 1e150])
    @pytest.mark.parametrize("side", [-2, -1, 0, 1, 2])
    def test_one_row_at_the_ball_boundary(self, escape_norm, side):
        # row 2 has |x| = escape_norm moved by `side` ulps; the other rows are small
        r = escape_norm
        for _ in range(abs(side)):
            r = np.nextafter(r, math.inf if side > 0 else 0.0)
        y = escape_state(x_scale=1e-3)
        y[2, :3] = (0.0, r, 0.0)
        want = escape_verdict(reference_check_escape, y, 3, escape_norm)
        assert (want is None) == (side <= 0)
        assert escape_verdict(_numeric._check_escape, y, 3, escape_norm) == want

    def test_the_full_check_never_runs_on_an_in_bounds_flow(self, monkeypatch):
        from diraclab.realization import default_spray

        # the row norms of the full check are the only einsum in a spray flow
        full = []
        real_einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: full.append(1) or real_einsum(*a, **k))
        spray = default_spray(lie_poisson(so3_constants(), 3))
        x0 = np.random.default_rng(1).uniform(-0.5, 0.5, size=(64, 6))
        x, _ = spray_flow(spray, x0, 1.0, RealizationConfig(step=0.01))
        assert np.isfinite(x).all() and full == []
        with pytest.raises(DomainEscapeError, match="left the admissible region"):
            _numeric.flow_points(spray.compiled().bind, x0, 1.0,
                                 FlowConfig(step=0.01, escape_norm=0.5))
        assert full == [1]


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
def test_a_step_that_is_not_finite_and_positive_is_rejected(step):
    # moser --step 0 and linearize --step -1 used to raise a bare ValueError,
    # and a NaN step passed `step <= 0` and failed in the step schedule
    with pytest.raises(ShapeError):
        FlowConfig(step=step)
    with pytest.raises(ShapeError):
        RealizationConfig(step=step)


@pytest.mark.parametrize("t", [1e300, float("nan")])
def test_a_flow_over_the_step_cap_is_refused(t):
    field = compile_tensors([PolyKVector(Chart(1), 1, {})], partials=True)
    with pytest.raises(ShapeError, match="steps"):
        _numeric.flow_points(field.bind, np.zeros((1, 1)), t, FlowConfig())


class TestGaugeInverse:
    """(I + Pi W)^{-1} and its transversality verdict: an entry bound on the
    inverse, so a multiple of I passes in every dimension."""

    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("s", [1e-8, 5e-3, 1.0, 1e3])
    def test_multiples_of_the_identity_pass(self, n, s):
        inv = _numeric.gauge_inverse(s * np.eye(n), (0.0,) * n, "m")
        assert np.abs(inv * s - np.eye(n)).max() < 1e-15
        stack = _numeric.gauge_inverse(np.stack([s * np.eye(n)] * 3), np.zeros((3, n)), "m")
        assert np.array_equal(stack, np.stack([inv] * 3))

    @pytest.mark.parametrize("A", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                                   1e-11 * np.eye(2)], ids=["zero", "rank-1", "tiny"])
    def test_first_refused_point_is_named(self, A):
        pts = np.arange(8.0).reshape(4, 2)
        with pytest.raises(TransversalityError, match="not transverse") as e:
            _numeric.gauge_inverse(np.stack([np.eye(2), A, np.eye(2), A]), pts, "not transverse")
        assert e.value.point == (2.0, 3.0)
        with pytest.raises(TransversalityError) as e:
            _numeric.gauge_inverse(A, (0.5, 0.25), "m")
        assert e.value.point == (0.5, 0.25)

    def test_a_non_finite_matrix_gives_no_verdict(self):
        A = np.stack([np.eye(2), np.full((2, 2), np.nan)])
        inv = _numeric.gauge_inverse(A, np.zeros((2, 2)), "m")
        assert np.array_equal(inv[0], np.eye(2)) and np.isnan(inv[1]).all()

    def test_a_non_finite_matrix_beside_a_refused_one(self):
        # the NaN entries fail the one-bound test, and the mask names the tiny A
        A = np.stack([np.full((2, 2), np.nan), 1e-11 * np.eye(2)])
        with pytest.raises(TransversalityError) as e:
            _numeric.gauge_inverse(A, np.arange(4.0).reshape(2, 2), "m")
        assert e.value.point == (2.0, 3.0)

    @pytest.mark.parametrize("A, formats", [(np.eye(2), 0), (np.zeros((2, 2)), 1),
                                            (1e-11 * np.eye(2), 1)],
                             ids=["passed", "singular", "tiny"])
    def test_the_message_is_formatted_only_to_refuse(self, A, formats):
        class Message(str):
            formats = 0

            def format(self, *args):
                Message.formats += 1
                return super().format(*args)

        msg = Message("gauge family degenerate at t={}")
        try:
            _numeric.gauge_inverse(np.stack([A, A]), np.zeros((2, 2)), msg, 0.25)
        except TransversalityError as e:
            assert str(e) == "gauge family degenerate at t=0.25"
        assert Message.formats == formats

    def test_gauge_fiber_shears_the_form_part(self):
        rng = np.random.default_rng(0)
        V, W = rng.normal(size=(3, 6, 2)), rng.normal(size=(3, 3, 3))
        out = _numeric.gauge_fiber(V, W)
        for b in range(3):
            assert np.array_equal(_numeric.gauge_fiber(V[b], W[b]), out[b])
            assert np.array_equal(out[b, :3], V[b, :3])
            assert np.abs(out[b, 3:] - V[b, 3:] - W[b].T @ V[b, :3]).max() < 1e-15
