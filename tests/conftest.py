import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from diraclab._numeric import flow_points
from diraclab.fields import Chart, PolyKForm, PolyKVector, PolyScalar, sort_index


def random_poly(rng: random.Random, chart: Chart, max_degree=3, terms=3) -> PolyScalar:
    out = {}
    for _ in range(rng.randint(1, terms)):
        deg = rng.randint(0, max_degree)
        exp = [0] * chart.dim
        for _ in range(deg):
            if chart.dim:
                exp[rng.randrange(chart.dim)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out[tuple(exp)] = out.get(tuple(exp), Fraction(0)) + c
    return PolyScalar(chart, out)


def random_form(rng, chart, degree, max_degree=3, terms=2) -> PolyKForm:
    comps = {}
    import itertools

    indices = list(itertools.combinations(range(chart.dim), degree))
    if not indices:
        return PolyKForm(chart, degree, {})
    for idx in rng.sample(indices, k=min(len(indices), rng.randint(1, len(indices)))):
        comps[idx] = random_poly(rng, chart, max_degree, terms)
    return PolyKForm(chart, degree, comps)


def random_vector(rng, chart, degree=1, max_degree=3, terms=2) -> PolyKVector:
    comps = {}
    import itertools

    indices = list(itertools.combinations(range(chart.dim), degree))
    if not indices:
        return PolyKVector(chart, degree, {})
    for idx in rng.sample(indices, k=min(len(indices), rng.randint(1, len(indices)))):
        comps[idx] = random_poly(rng, chart, max_degree, terms)
    return PolyKVector(chart, degree, comps)


def fraction_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination over Fraction: a reference independent
    of the library's fraction-free elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][c] for x in a[rank]]
        for i in range(len(a)):
            f = a[i][c]
            if i != rank and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def exact_at(p: PolyScalar, x) -> float:
    """p at a float point, evaluated exactly and rounded once."""
    return float(p.evaluate_exact([Fraction(float(v)) for v in x]))


def dense_exact(T, x) -> np.ndarray:
    """The full antisymmetric component array of a tensor at a float point,
    each entry evaluated exactly and rounded once."""
    out = np.zeros((T.chart.dim,) * T.degree)
    for idx, p in T.components.items():
        v = exact_at(p, x)
        for perm in itertools.permutations(range(T.degree)):
            out[tuple(idx[a] for a in perm)] = sort_index(perm)[1] * v
    return out


def omega_can(n: int) -> np.ndarray:
    """W_can = [[0, I], [-I, 0]], the components of sum dq_i ^ dp_i on (q, p)."""
    return np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


def spray_flow(spray, x, t, config):
    """Endpoints and Jacobians of the spray flow Phi_t from a batch of points
    of T*M, under a `RealizationConfig`'s flow."""
    return flow_points(spray.compiled().bind, np.asarray(x, dtype=float), t, config.flow())


def stage_field(f):
    """A `flow_points` field from f(state, tau) -> (a, Da) of widths w <= n:
    the writer bound to (state, row) reads tau from state[:, -2] and fills rows
    [:w] of row's [a | Da J] at the state [x | J | tau | 1], J its (B, n, n) part,
    as `PackedPolys.bind` does."""

    def bind(state, row):
        def write():
            a, Da = f(state, state[:, -2])
            B, w, n = Da.shape
            J = state[:, n:n + n * n].reshape(B, n, n)
            row[:, :w] = a
            row[:, n:n + n * n].reshape(B, n, n)[:, :w] = Da @ J

        return write

    return bind


def field_at_points(field):
    """(pts, t) -> (a, Da) of a `flow_points` field: its writer bound to the
    state [x | I | t | 1], whose row [a | Da I] holds Da itself."""

    def at(pts, t):
        B, n = pts.shape
        m = n + n * n
        state = np.empty((B, m + 2))
        state[:, :n], state[:, n:m], state[:, m], state[:, m + 1] = pts, np.eye(n).ravel(), t, 1.0
        row = np.empty_like(state)
        field(state, row)()
        return row[:, :n], row[:, n:m].reshape(B, n, n)

    return at


def random_point(rng, dim, numerators=9, denominator=4):
    return tuple(Fraction(rng.randint(-numerators, numerators), denominator) for _ in range(dim))


@pytest.fixture
def rng():
    return random.Random(20240811)


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "RESULT_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def frame_oracle(chart, x):
    """scipy reference for `GroupChart.frame_jet`: Xi = phi(M), M = -ad_g(x),
    phi(W) = sum_k W^k / (k+1)!, is the upper-right block of
    exp([[M, I], [0, 0]]) (Van Loan); d_m Xi is the same block of the Frechet
    derivative of exp there in the direction [[-E_m, 0], [0, 0]]."""
    linalg = pytest.importorskip("scipy.linalg")
    n = chart.dim
    E = chart.floats["ad_g"]
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = -np.tensordot(np.asarray(x, dtype=float), E, 1)
    A[:n, n:] = np.eye(n)
    dXi = []
    for Em in E:
        dA = np.zeros_like(A)
        dA[:n, :n] = -Em
        dXi.append(linalg.expm_frechet(A, dA, compute_expm=False)[:n, n:])
    return linalg.expm(A)[:n, n:], np.array(dXi)


def chart_bivector_oracle(chart, x):
    """scipy reference for the chart bivector A^{-1} P A^{-T}: Ad = exp(ad_x) on
    d, P[a, b] = < pr_g Ad h_a, pr_h Ad h_b >, A = P0 Xi with the oracle frame."""
    linalg = pytest.importorskip("scipy.linalg")
    num = chart.floats
    U = linalg.expm(np.tensordot(np.asarray(x, dtype=float), num["ad_d"], 1)) @ num["H"]
    P = (num["pr_g"] @ U).T @ num["B"] @ (num["pr_h"] @ U)
    Ainv = np.linalg.inv(num["P0"] @ frame_oracle(chart, x)[0])
    return Ainv @ P @ Ainv.T


def frame_file(path, sections) -> str:
    """Write sections (X, alpha) as a `dirac check-integrability --frame` file."""
    from diraclab import jsonio

    path.write_text(json.dumps({"chart": sections[0][0].chart.dim, "sections": [
        {"X": jsonio.tensor_to_json(X), "alpha": jsonio.tensor_to_json(a)} for X, a in sections]}))
    return str(path)


# Every CLI subcommand on small valid inputs; an upper-case word names a file
# of `fuzz_inputs`.
FUZZ_COMMANDS = {
    "poisson check": ["poisson", "check", "--file", "PI"],
    "poisson jacobiator": ["poisson", "jacobiator", "--file", "PI"],
    "poisson bracket": ["poisson", "bracket", "--file", "PI", "--f", "F", "--g", "F"],
    "poisson leaf": ["poisson", "leaf", "--file", "PI", "--point", "0.5,0.25"],
    "dirac check-integrability": ["dirac", "check-integrability", "--poisson", "PI"],
    "dirac gauge": ["dirac", "gauge", "--poisson", "PI", "--omega", "OMEGA",
                    "--point", "0.5,0.25"],
    "dirac pullback": ["dirac", "pullback", "--map", "PHI", "--poisson", "PI", "--point", "0.5"],
    "dirac poisson-map": ["dirac", "poisson-map", "--map", "ID", "--pi-source", "PI",
                          "--pi-target", "PI"],
    "realize": ["realize", "--poisson", "PI", "--samples", "2", "--step", "1e-2"],
    "moser": ["moser", "--poisson", "PI", "--a-form", "AFORM", "--grid-count", "2",
              "--step", "1e-2"],
    "linearize": ["linearize", "--field", "FIELD", "--samples", "2", "--step", "1e-2"],
    "manin check": ["manin", "check", "--builtin", "iwasawa-su2"],
    "manin bivector": ["manin", "bivector", "--builtin", "iwasawa-su2", "--point", "0.1,0.2,0.3"],
    "manin dressing": ["manin", "dressing", "--builtin", "iwasawa-su2", "--point", "0.1,0.2,0.3",
                       "--zeta", "1,0,0,0,0,0"],
    "manin multiplicativity": ["manin", "multiplicativity", "--builtin", "iwasawa-su2",
                               "--pairs", "2"],
    "manin homspace": ["manin", "homspace", "--builtin", "iwasawa-su2", "--data", "HS"],
}


def fuzz_inputs() -> dict:
    """The JSON data of the files that `FUZZ_COMMANDS` names."""
    from diraclab import jsonio
    from diraclab.poisson import from_components

    chart = Chart(2, ("x", "y"))
    x = chart.coordinate(0)
    one = PolyScalar.constant(chart, 1)
    return {
        "PI": jsonio.tensor_to_json(from_components(chart, {(0, 1): x}).pi),
        "F": jsonio.poly_to_json(x),
        "OMEGA": jsonio.tensor_to_json(PolyKForm(chart, 2, {(0, 1): one})),
        "PHI": {"source": 1, "target": 2, "components": [[{"exp": [1], "num": 1, "den": 1}],
                                                         [{"exp": [2], "num": 1, "den": 1}]]},
        "ID": {"source": 2, "target": 2, "components": [[{"exp": [1, 0], "num": 1, "den": 1}],
                                                        [{"exp": [0, 1], "num": 1, "den": 1}]]},
        "AFORM": {"powers": {"0": jsonio.tensor_to_json(PolyKForm(chart, 1, {(1,): -x}))}},
        "FIELD": jsonio.tensor_to_json(PolyKVector(chart, 1, {(0,): x + x * x,
                                                              (1,): chart.coordinate(1)})),
        "HS": {"k_basis": [[0, 0, 1, 0, 0, 0]],
               "l_basis": [[0, 0, 1, 0, 0, 0], [0, -1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0]],
               "k_generators": [[0, 0, 1, 0, 0, 0]]},
    }


def fuzz_argv(directory, command) -> list:
    """The argv of `FUZZ_COMMANDS[command]`, its files written to directory."""
    data = fuzz_inputs()
    argv = []
    for a in FUZZ_COMMANDS[command]:
        if a in data:
            (directory / f"{a}.json").write_text(json.dumps(data[a]))
            a = str(directory / f"{a}.json")
        argv.append(a)
    return argv
