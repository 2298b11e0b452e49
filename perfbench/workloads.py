"""Seeded task lists for the three benchmark workloads.

A task is one certificate request.  `make_tasks(workload, seed, workdir)`
builds every input of one pass from the seed alone and returns the task list;
calling it again returns fresh, identical objects, so no pass profits from
results cached on the objects of an earlier pass.

Each task has a `run` callable (the timed library or CLI call) and a `check`
callable (untimed) that returns (ok, digest, detail).  Numeric tasks compare
residuals with the tolerance the library's own tests pin for that verifier.
Exact tasks compare the decided outcome (holds / fails with a witness) with the
outcome fixed by construction, and return a digest of their canonical JSON
output, which the harness compares with `expected_digests.json`.

Every flow uses the RK4 step STEP = 1e-2 instead of the library default 1e-3,
so that a pass of more than 100 tasks fits in a few seconds; the residuals stay
several orders of magnitude below every tolerance at this step.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from diraclab import cli, jsonio
from diraclab import maningroup as manin
from diraclab import realization as real
from diraclab.dirac import GeneralizedSection, check_poisson_map, courant_bracket, pairing
from diraclab.fields import (
    Chart,
    PolyKForm,
    PolyKVector,
    PolyMap,
    PolyScalar,
    apply_vector,
    coordinate_form,
    differential,
)
from diraclab.poisson import (
    LieAlgebroidData,
    PoissonBivector,
    TimePolyForm,
    algebroid_to_linear_poisson,
    euler_linearize,
    from_components,
    is_poisson,
    jacobiator,
    lie_poisson,
    linear_poisson_to_algebroid,
    moser_verify,
    so3_constants,
    standard_symplectic_poisson,
)

STEP = 1e-2
# The flow configuration type, reached through the public RealizationConfig
# so that the benchmark does not import the private _numeric module.
FlowConfig = type(real.RealizationConfig().flow())

# Tolerances pinned by the library's tests and acceptance gate.
TOL_DUAL_PAIR = 1e-6      # dual-pair criteria and the five pairing relations
TOL_BRACKET_FD = 1e-4     # finite-difference bracket relations
TOL_CLOSED = 1e-6         # d omega = 0
TOL_MOSER = 1e-6
TOL_EULER = 1e-5
TOL_MULT = 1e-5           # multiplicativity and the FD Jacobiator of the chart bivector
TOL_EMAP_METRIC = 1e-9
TOL_EMAP_FD = 1e-4        # FD bracket and coframe-derivative residuals
TOL_SKEW = 1e-12


class Task:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


# -- shared helpers -------------------------------------------------------------


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _frac_json(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def poly_json(p: PolyScalar) -> list:
    return sorted([list(e), _frac_json(c)] for e, c in p.terms.items())


def tensor_json(T) -> list:
    return sorted([list(idx), poly_json(p)] for idx, p in T.components.items())


def _numeric_check(residuals: dict, tolerances: dict):
    """ok iff every residual is finite and within its tolerance."""
    bad = {k: v for k, v in residuals.items()
           if not (np.isfinite(v) and v <= tolerances[k])}
    return (not bad, None, f"residuals over tolerance: {bad}" if bad else "")


def _exact_check(expected: bool):
    def check(result):
        outcome, output = result
        ok = outcome == expected
        detail = "" if ok else f"outcome {outcome}, expected {expected}"
        return ok, digest([outcome, output]), detail
    return check


def run_cli(argv):
    """diraclab.cli.run in-process; returns (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, json.loads(buf.getvalue())


def _cli_numeric_check(tol: float):
    def check(result):
        code, report = result
        res = {c["name"]: c["max_residual"] for c in report["criteria"]}
        ok = code == 0 and bool(res) and all(
            isinstance(v, (int, float)) and v <= tol for v in res.values()
        )
        return ok, None, "" if ok else f"exit {code}, residuals {res}"
    return check


def _cli_exact_check(expected_code: int):
    """Exit code plus a digest of the decision: criteria names/status and result."""
    def check(result):
        code, report = result
        decision = {
            "exit": code,
            "criteria": [[c["name"], c["status"]] for c in report["criteria"]],
            "result": report.get("result"),
        }
        ok = code == expected_code
        return ok, digest(decision), "" if ok else f"exit {code}, expected {expected_code}"
    return check


def _write_json(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _load_bivector(path: str) -> PoissonBivector:
    with open(path) as fh:
        return PoissonBivector(jsonio.tensor_from_json(json.load(fh)))


def _nonzero_rat(rng: random.Random) -> Fraction:
    while True:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            return c


def rand_poly(rng, chart, degrees, variables=None) -> PolyScalar:
    """Nonzero random polynomial: one monomial of each total degree in
    `degrees`, in the given variables (default: all of the chart).

    Term counts and degrees are fixed by the caller, so the work a task does
    hardly depends on the seed; only exponents and coefficients do.
    """
    variables = list(range(chart.dim)) if variables is None else list(variables)
    while True:
        out = {}
        for d in degrees:
            exp = [0] * chart.dim
            for _ in range(d):
                exp[rng.choice(variables)] += 1
            out[tuple(exp)] = out.get(tuple(exp), Fraction(0)) + _nonzero_rat(rng)
        p = PolyScalar(chart, out)
        if not p.is_zero():
            return p


def _rand_tensor(cls, rng, chart, degrees):
    """Degree-1 vector field or form with every component present."""
    return cls(chart, 1, {(i,): rand_poly(rng, chart, degrees) for i in range(chart.dim)})


def _ball_points(rng: np.random.Generator, dim: int, count: int, radius: float) -> np.ndarray:
    pts = []
    while len(pts) < count:
        p = rng.uniform(-radius, radius, size=dim)
        if np.linalg.norm(p) <= radius:
            pts.append(p)
    return np.array(pts)


# -- realize --------------------------------------------------------------------

# Batch sizes of the dual-pair tasks, per spray: fixed, so every seed loads the
# same mix; only the points change with the seed.
DUAL_PAIR_SIZES = (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 6, 6, 8, 8, 8, 12, 12, 16, 16,
                   24, 32, 40, 48, 64)
CLI_REALIZE_SAMPLES = (1, 2, 2, 4, 4, 8, 8, 16)
RADIUS = 0.2


def _xdxdy() -> PoissonBivector:
    chart = Chart(2, ("x", "y"))
    return from_components(chart, {(0, 1): chart.coordinate(0)})


def _so3() -> PoissonBivector:
    return lie_poisson(so3_constants(), 3)


def _spray_points(rng: np.random.Generator, n: int, count: int, radius: float,
                  centre=None) -> np.ndarray:
    """(q, p) with q in the unit box (shifted by centre) and 0.1 r <= |p| <= r."""
    q = rng.uniform(-1.0, 1.0, size=(count, n))
    if centre is not None:
        q = q * 0.15 + np.asarray(centre, dtype=float)
    p = rng.normal(size=(count, n))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    p *= rng.uniform(0.1, 1.0, size=(count, 1)) * radius
    return np.column_stack([q, p])


def _dual_pair_task(spray, pts, config):
    def run():
        return real.verify_dual_pair(spray, pts, config, tolerance=TOL_DUAL_PAIR)

    def check(rep):
        return _numeric_check({c.name: c.max_residual for c in rep.criteria},
                              {c.name: TOL_DUAL_PAIR for c in rep.criteria})
    return Task("dual_pair", run, check)


def _invariant_fields_task(spray, alpha, beta, pt, config):
    """The inner loop of acceptance criterion 8 at one point."""
    def run():
        rep = real.invariant_vector_fields(spray, alpha, pt, config, beta=beta)
        return rep.max_residual, real.bracket_relations_residual(spray, alpha, beta, pt, config)

    def check(result):
        pairing_res, brackets = result
        res = {"pairing": pairing_res, **brackets}
        return _numeric_check(res, {k: TOL_DUAL_PAIR if k == "pairing" else TOL_BRACKET_FD
                                    for k in res})
    return Task("invariant_fields", run, check)


def _closedness_task(spray, pt, config):
    def run():
        return real.closedness_residual(spray, pt, config)

    def check(r):
        return _numeric_check({"closedness": r}, {"closedness": TOL_CLOSED})
    return Task("closedness", run, check)


def _realize_tasks(seed: int, workdir: str):
    rng = random.Random(f"realize:{seed}")
    nrng = np.random.default_rng([seed, 1])
    config = real.RealizationConfig(step=STEP, radius=RADIUS)
    files = {
        "xdxdy": _write_json(workdir, "xdxdy.json", jsonio.tensor_to_json(_xdxdy().pi)),
        "so3": _write_json(workdir, "so3.json", jsonio.tensor_to_json(_so3().pi)),
    }
    sprays = {}
    for name, path in files.items():
        sprays[name] = real.default_spray(_load_bivector(path))
        sprays[name].compiled()

    tasks = []
    for name, spray in sprays.items():
        n = spray.base_dim
        for size in DUAL_PAIR_SIZES:
            tasks.append(_dual_pair_task(spray, _spray_points(nrng, n, size, RADIUS), config))
        for pt in _spray_points(nrng, n, 9, RADIUS):
            tasks.append(_closedness_task(spray, pt, config))

    # criterion-8 inner loop: x dx^dy near (1, 0) as in the acceptance gate,
    # so(3)* near (1, 0.5, 0.5) away from the singular origin
    xy = sprays["xdxdy"]
    c2 = xy.pi.chart
    xy_forms = (coordinate_form(c2, 0), PolyKForm(c2, 1, {(1,): c2.coordinate(0)}))
    so = sprays["so3"]
    c3 = so.pi.chart
    so_forms = (coordinate_form(c3, 0), PolyKForm(c3, 1, {(2,): c3.coordinate(1)}))
    for spray, (alpha, beta), centre in ((xy, xy_forms, (1.0, 0.0)),
                                         (so, so_forms, (1.0, 0.5, 0.5))):
        for pt in _spray_points(nrng, spray.base_dim, 5, 0.15, centre=centre):
            tasks.append(_invariant_fields_task(spray, alpha, beta, pt, config))

    for name in files:
        for samples in CLI_REALIZE_SAMPLES:
            argv = ["realize", "--poisson", files[name], "--samples", str(samples),
                    "--radius", str(RADIUS), "--step", str(STEP),
                    "--seed", str(rng.randrange(1 << 30))]
            tasks.append(Task("cli_realize", lambda a=argv: run_cli(a),
                              _cli_numeric_check(TOL_DUAL_PAIR)))
    rng.shuffle(tasks)
    return tasks


# -- exact ----------------------------------------------------------------------

COURANT_SECTIONS = 50     # triples of sections; four identity tasks each
JACOBI_TASKS = 20
ALGEBROID_TASKS = 8
POISSON_MAP_TASKS = 8
CLI_POISSON_TASKS = 6


def _courant_tasks(rng: random.Random, index: int):
    """Courant axioms (i)-(iii) and the Leibniz rule on one random triple of
    sections, one task per identity; each must hold exactly."""
    chart = Chart(2 + index % 4)                # dimensions 2-5
    degree = 3 + (index // 4) % 2               # past the acceptance gate's <= 3

    def section():
        return GeneralizedSection(_rand_tensor(PolyKVector, rng, chart, (degree,)),
                                  _rand_tensor(PolyKForm, rng, chart, (degree - 1, 0)))

    s1, s2, s3 = section(), section(), section()
    f = rand_poly(rng, chart, (2, 1))

    def axiom_i():
        p23 = pairing(s2, s3)
        rhs = pairing(courant_bracket(s1, s2), s3) + pairing(s2, courant_bracket(s1, s3))
        return apply_vector(s1.X, p23) == rhs, poly_json(rhs)

    def axiom_ii():
        lhs = courant_bracket(s1, courant_bracket(s2, s3))
        rhs = courant_bracket(courant_bracket(s1, s2), s3) + courant_bracket(
            s2, courant_bracket(s1, s3))
        return lhs == rhs, [tensor_json(lhs.X), tensor_json(lhs.alpha)]

    def axiom_iii():
        sym = courant_bracket(s2, s3) + courant_bracket(s3, s2)
        return sym.X.is_zero() and sym.alpha == differential(pairing(s2, s3)), \
            tensor_json(sym.alpha)

    def leibniz():
        lhs = courant_bracket(s1, f * s2)
        rhs = f * courant_bracket(s1, s2) + apply_vector(s1.X, f) * s2
        return lhs == rhs, [tensor_json(lhs.X), tensor_json(lhs.alpha)]

    return [Task("courant", run, _exact_check(True))
            for run in (axiom_i, axiom_ii, axiom_iii, leibniz)]


def _bivector_from_vector(coords, V) -> dict:
    """pi^{ab} = eps^{abc} V_c on the coordinates (a, b, c) of the chart."""
    a, b, c = coords
    return {(a, b): V[2], (b, c): V[0], (a, c): -V[1]}


def _shear(rng: random.Random, n: int, count: int):
    """A unimodular integer matrix (product of shears) and its inverse."""
    A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Ainv = [row[:] for row in A]
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # A <- (I + c E_ij) A ;  Ainv <- Ainv (I - c E_ij)
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        for row in Ainv:
            row[j] -= c * row[i]
    return A, Ainv


def _jacobi_bivector(rng: random.Random, poisson: bool, n: int) -> PoissonBivector:
    """A bivector that is Poisson, or is not, by construction.

    The first block lives on three coordinates, pi^{ab} = eps^{abc} V_c.
    Poisson: V = k grad h (V . curl V = 0).  Not Poisson:
    V = (p(u0), beta u0, u2 q(u2)), for which V . curl V = beta u2 q(u2) != 0.
    For n = 5 a second block f(x_a, x_b) d_a ^ d_b on the two other
    coordinates depends only on them, so it leaves the Jacobiator of the first
    block unchanged.  Finally a linear change of coordinates y = A x
    (a product of integer shears) mixes all coordinates; being Poisson is
    invariant under it.
    """
    chart = Chart(n)
    coords = list(range(n))
    rng.shuffle(coords)
    block, rest = tuple(sorted(coords[:3])), coords[3:]
    if poisson:
        k = rand_poly(rng, chart, (2, 0), block)
        h = rand_poly(rng, chart, (4, 3, 2), block)
        V = [k * h.partial(i) for i in block]
    else:
        u0, u1, u2 = block
        q = rand_poly(rng, chart, (2, 0), [u2])
        V = [rand_poly(rng, chart, (3, 1), [u0]),
             chart.coordinate(u0) * _nonzero_rat(rng),
             chart.coordinate(u2) * q]
    comps = _bivector_from_vector(block, V)
    if len(rest) == 2:
        a, b = sorted(rest)
        comps[(a, b)] = rand_poly(rng, chart, (2, 1), [a, b])

    A, Ainv = _shear(rng, n, 3)
    y = chart.coordinates()
    x_of_y = [sum((y[l] * Ainv[m][l] for l in range(n) if Ainv[m][l]), PolyScalar.zero(chart))
              for m in range(n)]
    pulled = {ab: p.compose(x_of_y) for ab, p in comps.items() if not p.is_zero()}
    mixed = {}
    for i in range(n):
        for j in range(i + 1, n):
            s = PolyScalar.zero(chart)
            for (a, b), p in pulled.items():
                w = A[i][a] * A[j][b] - A[i][b] * A[j][a]
                if w:
                    s = s + p * w
            if not s.is_zero():
                mixed[(i, j)] = s
    return PoissonBivector(PolyKVector(chart, 2, mixed))


def _jacobi_task(rng: random.Random, poisson: bool, n: int):
    pi = _jacobi_bivector(rng, poisson, n)

    def run():
        return is_poisson(pi), tensor_json(jacobiator(pi))
    return Task("jacobi", run, _exact_check(poisson))


def _algebroid_task(rng: random.Random, index: int):
    """Round trip of random anchored-bracket data, or Jacobi of a Lie algebra.

    Indices 0-4: algebroid -> linear Poisson -> algebroid, equal by design.
    5-7: so(3) constants scaled by c != 0 (Poisson), 7 with a broken constant.
    """
    if index < 5:
        base = Chart(1 + index % 2)
        rank = 2 + index % 2
        anchors = tuple(_rand_tensor(PolyKVector, rng, base, (2, 1)) for _ in range(rank))
        constants = {(i, j, k): rand_poly(rng, base, (1, 0))
                     for i in range(rank) for j in range(i + 1, rank) for k in range(rank)}
        A = LieAlgebroidData(base, rank, anchors, constants)

        def run():
            pi = algebroid_to_linear_poisson(A)
            B = linear_poisson_to_algebroid(pi, base.dim)
            return B.anchors == A.anchors and B.constants == A.constants, tensor_json(pi.pi)
        return Task("algebroid", run, _exact_check(True))

    point = Chart(0, ())
    zero = PolyKVector(point, 1, {})
    c = _nonzero_rat(rng)
    consts = {k: v * c for k, v in so3_constants().items()}
    broken = index == 7
    if broken:
        consts[(0, 1, 0)] = consts.get((0, 1, 0), Fraction(0)) + _nonzero_rat(rng)
    A = LieAlgebroidData(point, 3, (zero,) * 3,
                         {k: PolyScalar.constant(point, v) for k, v in consts.items()})

    def run():
        pi = algebroid_to_linear_poisson(A)
        return is_poisson(pi), tensor_json(jacobiator(pi))
    return Task("algebroid", run, _exact_check(not broken))


def _poisson_map_task(rng: random.Random, good: bool):
    """phi = (c q1, lam (q2 + p1 q1) + g(q1)) from T*R^2 onto lam' x d_x^d_y.

    {phi1, phi2} = c lam q1 and lam' x o phi = lam' c q1, so phi is Poisson
    exactly when lam' = lam.
    """
    source = standard_symplectic_poisson(2)
    P = source.chart
    q1, q2, p1, _ = P.coordinates()
    c, lam = _nonzero_rat(rng), _nonzero_rat(rng)
    g = rand_poly(rng, P, (5, 3, 2), [0])
    phi2 = (q2 + p1 * q1) * lam + g
    lam_t = lam if good else lam + _nonzero_rat(rng)
    M = Chart(2, ("x", "y"))
    target = from_components(M, {(0, 1): M.coordinate(0) * lam_t})
    phi = PolyMap(P, M, [q1 * c, phi2])

    def run():
        rep = check_poisson_map(phi, source, target)
        return rep.exact, [poly_json(p) for p in phi.components]
    return Task("poisson_map", run, _exact_check(good))


def _broken_triple(rng: random.Random):
    """A 6-dim built-in triple made invalid: h replaced by g, or h missing a
    vector (the 12-dim double is left out so the tail does not vary by seed)."""
    catalog = manin.builtin_triples()
    triple = catalog[rng.choice(sorted(n for n in catalog if n != "double-semidirect-so3"))][0]
    if rng.random() < 0.5:
        return manin.ManinTriple(triple.algebra, triple.g_basis, triple.g_basis)
    return manin.ManinTriple(triple.algebra, triple.g_basis, triple.h_basis[:-1])


def _manin_task(triple, expected: bool):
    def run():
        return manin.check_manin_triple(triple)
    return Task("manin", run, _exact_check(expected))


def _triple_to_json(triple) -> dict:
    alg = triple.algebra
    rat = jsonio.rational_to_json
    return {
        "dim": alg.dim,
        "C": [{"a": a + 1, "b": b + 1, "c": c + 1, "value": rat(v)}
              for (a, b, c), v in sorted(alg.C.items())],
        "B": [[rat(x) for x in row] for row in alg.B],
        "g_basis": [[rat(x) for x in row] for row in triple.g_basis],
        "h_basis": [[rat(x) for x in row] for row in triple.h_basis],
    }


def _exact_tasks(seed: int, workdir: str):
    rng = random.Random(f"exact:{seed}")
    tasks = [t for i in range(COURANT_SECTIONS) for t in _courant_tasks(rng, i)]
    tasks += [_jacobi_task(rng, i % 2 == 0, 3 + i % 3) for i in range(JACOBI_TASKS)]
    tasks += [_algebroid_task(rng, i) for i in range(ALGEBROID_TASKS)]
    tasks += [_poisson_map_task(rng, i % 4 != 3) for i in range(POISSON_MAP_TASKS)]
    for _, (triple, _chart) in sorted(manin.builtin_triples().items()):
        tasks.append(_manin_task(triple, True))
    tasks.append(_manin_task(_broken_triple(rng), False))

    for i in range(CLI_POISSON_TASKS):
        poisson = i % 2 == 0
        pi = _jacobi_bivector(rng, poisson, 3 + i % 3)
        path = _write_json(workdir, f"pi{i}.json", jsonio.tensor_to_json(pi.pi))
        tasks.append(Task("cli_poisson", lambda a=["poisson", "check", "--file", path]: run_cli(a),
                          _cli_exact_check(0 if poisson else 1)))
    tasks.append(Task("cli_manin",
                      lambda: run_cli(["manin", "check", "--builtin", "double-semidirect-so3"]),
                      _cli_exact_check(0)))
    path = _write_json(workdir, "broken_triple.json", _triple_to_json(_broken_triple(rng)))
    tasks.append(Task("cli_manin", lambda: run_cli(["manin", "check", "--triple", path]),
                      _cli_exact_check(1)))
    rng.shuffle(tasks)
    return tasks


# -- gauge-group ----------------------------------------------------------------


def _time_family(rng: random.Random, chart: Chart, degrees) -> TimePolyForm:
    """a_t = alpha_0 + t alpha_1 with small coefficients, so the gauge family
    stays transversal on the grid for |t| <= 1/2.

    The dx_j component of each alpha is a polynomial in x_{j+1} alone, so no
    two components contribute the same monomial to d alpha: the term counts of
    a_t and of the Moser 2-forms, and with them the work of a Moser task, are
    the same for every seed.
    """
    n = chart.dim
    return TimePolyForm({d: PolyKForm(chart, 1, {
        (j,): rand_poly(rng, chart, degrees, [(j + 1) % n]) * Fraction(1, 8)
        for j in range(n)}) for d in (0, 1)})


def _moser_task(pi0, a_t, times, grid):
    config = FlowConfig(step=STEP)

    def run():
        return moser_verify(pi0, a_t, times, grid, config)

    def check(rep):
        return _numeric_check({"moser": rep.max_residual}, {"moser": TOL_MOSER})
    return Task("moser", run, check)


def _euler_field(rng: random.Random, n: int) -> PolyKVector:
    """Euler field plus a quadratic/cubic perturbation with small coefficients."""
    chart = Chart(n)
    return PolyKVector(chart, 1, {(j,): chart.coordinate(j) + rand_poly(rng, chart, (3, 2)) *
                                  Fraction(1, 2) for j in range(n)})


def _euler_task(X, pts):
    config = FlowConfig(step=STEP)

    def run():
        return euler_linearize(X, pts, config)

    def check(rep):
        return _numeric_check({"euler": rep.max_residual}, {"euler": TOL_EULER})
    return Task("euler", run, check)


def _chart_points(nrng, count, scale):
    return [scale * nrng.uniform(-1, 1, 3) for _ in range(count)]


def _multiplicativity_task(triple, chart, pairs):
    def run():
        return manin.verify_multiplicativity(triple, chart, pairs)

    def check(rep):
        return _numeric_check({"mult": rep["max_residual"]}, {"mult": TOL_MULT})
    return Task("multiplicativity", run, check)


def _emap_task(triple, chart, pts, z1, z2):
    def run():
        return manin.e_map_residuals(triple, chart, pts, z1, z2)

    def check(res):
        return _numeric_check(res, {"metric": TOL_EMAP_METRIC, "bracket": TOL_EMAP_FD,
                                    "coframe_derivative": TOL_EMAP_FD})
    return Task("e_map", run, check)


def _jacobi_fd_task(triple, chart, pts):
    def run():
        return manin.jacobiator_fd_residual(triple, chart, pts)

    def check(r):
        return _numeric_check({"jacobi_fd": r}, {"jacobi_fd": TOL_MULT})
    return Task("jacobi_fd", run, check)


def _bivector_dressing_task(triple, chart, x, z1, z2):
    """Chart bivector (skew) and dressing action (linear in zeta) at a point."""
    def run():
        P = manin.drinfeld_bivector_chart(triple, chart, x)
        d1 = manin.dressing_action(triple, chart, x, z1)
        d2 = manin.dressing_action(triple, chart, x, z2)
        d12 = manin.dressing_action(triple, chart, x, z1 + z2)
        return float(np.abs(P + P.T).max()), float(np.abs(d12 - d1 - d2).max())

    def check(res):
        skew, linear = res
        return _numeric_check({"skew": skew, "linear": linear},
                              {"skew": TOL_SKEW, "linear": 1e-10})
    return Task("bivector_dressing", run, check)


# The gauge-group mix is built in three latency bands that stay apart by a
# factor of about two, so that the p50 and p90 ranks each fall well inside one
# band of identically sized tasks instead of on a boundary between kinds:
#   cheap (38 tasks): chart bivector + dressing, FD Jacobiator and e-map on 1-4
#       points, multiplicativity of one pair on iwasawa-su2;
#   p50 band (24): euler_linearize of an R^2 field on 8 points, 4 via the CLI;
#   middle (22): multiplicativity of two pairs on semidirect-so3 (4 via the
#       CLI), euler_linearize in R^3 on 16 points, Moser on R^2;
#   p90 band (16): Moser on so(3)*, 4 via the CLI.
EULER_POINTS = 8
EULER3_POINTS = 16
MOSER_R2_TIME = 0.3
MOSER_SO3_TIME = 0.4
MOSER_R2_GRIDS = (4, 9, 16)
MOSER_SO3_GRID = 9        # one size keeps the p90 band narrow; the CLI uses 9 too


def _gauge_group_tasks(seed: int, workdir: str):
    rng = random.Random(f"gauge-group:{seed}")
    nrng = np.random.default_rng([seed, 3])
    tasks = []

    r2 = Chart(2, ("x", "y"))
    sympl = from_components(r2, {(0, 1): PolyScalar.constant(r2, 1)})
    so3 = _so3()
    files = {
        "r2": _write_json(workdir, "r2.json", jsonio.tensor_to_json(sympl.pi)),
        "so3": _write_json(workdir, "so3.json", jsonio.tensor_to_json(so3.pi)),
    }
    bases = {name: _load_bivector(path) for name, path in files.items()}
    for name, count, t, grids in (("r2", 8, MOSER_R2_TIME, MOSER_R2_GRIDS),
                                  ("so3", 12, MOSER_SO3_TIME, (MOSER_SO3_GRID,))):
        pi0 = bases[name]
        n = pi0.chart.dim
        for i in range(count):
            a_t = _time_family(rng, pi0.chart, (3, 2) if n == 2 else (1,))
            grid = _ball_points(nrng, n, grids[i % len(grids)], 0.5)
            tasks.append(_moser_task(pi0, a_t, [(t, -t)[i % 2]], grid))

    for _ in range(20):
        X = _euler_field(rng, 2)
        tasks.append(_euler_task(X, _ball_points(nrng, 2, EULER_POINTS, 0.3)))
    for _ in range(4):
        X = _euler_field(rng, 3)
        tasks.append(_euler_task(X, _ball_points(nrng, 3, EULER3_POINTS, 0.3)))

    catalog = manin.builtin_triples()
    for name, mult_count, mult_pairs in (("iwasawa-su2", 8, 1), ("semidirect-so3", 6, 2)):
        triple, chart = catalog[name]
        for i in range(mult_count):
            pairs = [(0.5 * nrng.uniform(-1, 1, 3), 0.5 * nrng.uniform(-1, 1, 3))
                     for _ in range(mult_pairs)]
            tasks.append(_multiplicativity_task(triple, chart, pairs))
        for i in range(5):
            z1, z2 = nrng.standard_normal(6), nrng.standard_normal(6)
            tasks.append(_emap_task(triple, chart, _chart_points(nrng, 1 + i % 2, 0.7), z1, z2))
        for i in range(5):
            tasks.append(_jacobi_fd_task(triple, chart, _chart_points(nrng, 1 + i % 4, 0.6)))
        for _ in range(5):
            z1, z2 = nrng.standard_normal(6), nrng.standard_normal(6)
            tasks.append(_bivector_dressing_task(triple, chart, _chart_points(nrng, 1, 0.7)[0],
                                                 z1, z2))

    a_t = _time_family(rng, bases["so3"].chart, (1,))
    a_path = _write_json(workdir, "a_so3.json", {"powers": {
        str(d): jsonio.tensor_to_json(a) for d, a in a_t.coeffs.items()}})
    for i in range(4):
        argv = ["moser", "--poisson", files["so3"], "--a-form", a_path,
                "--time", str((MOSER_SO3_TIME, -MOSER_SO3_TIME)[i % 2]),
                "--grid-count", str(MOSER_SO3_GRID),
                "--step", str(STEP), "--seed", str(rng.randrange(1 << 30))]
        tasks.append(Task("cli_moser", lambda a=argv: run_cli(a),
                          _cli_numeric_check(TOL_MOSER)))
    for i in range(4):
        X = _euler_field(rng, 2)
        path = _write_json(workdir, f"euler{i}.json", jsonio.tensor_to_json(X))
        argv = ["linearize", "--field", path, "--samples", str(EULER_POINTS),
                "--step", str(STEP), "--seed", str(rng.randrange(1 << 30))]
        tasks.append(Task("cli_linearize", lambda a=argv: run_cli(a),
                          _cli_numeric_check(TOL_EULER)))
    for _ in range(4):
        argv = ["manin", "multiplicativity", "--builtin", "semidirect-so3", "--pairs", "2",
                "--seed", str(rng.randrange(1 << 30))]
        tasks.append(Task("cli_multiplicativity", lambda a=argv: run_cli(a),
                          _cli_numeric_check(TOL_MULT)))
    rng.shuffle(tasks)
    return tasks


def warm_up(workload: str) -> None:
    """Once-per-process initialisation that users pay on their first call.

    scipy's matrix logarithm loads its kernels on the first call (about 1 s on
    the reference box); gauge-group pays it here, in set-up, so that no pass
    carries it and every pass does the same work.
    """
    if workload == "gauge-group":
        triple, chart = manin.builtin_triples()["iwasawa-su2"]
        manin.verify_multiplicativity(triple, chart, [(np.full(3, 0.1), np.full(3, -0.1))])


_MAKERS = {"realize": _realize_tasks, "exact": _exact_tasks, "gauge-group": _gauge_group_tasks}


def make_tasks(workload: str, seed: int, workdir: str, smoke: bool = False):
    """The task list of one pass; `smoke` keeps one task of each kind."""
    tasks = _MAKERS[workload](seed, workdir)
    if smoke:
        seen, keep = set(), []
        for t in tasks:
            if t.kind not in seen:
                seen.add(t.kind)
                keep.append(t)
        tasks = keep
    return tasks


def kind_counts(tasks) -> dict:
    return dict(sorted(Counter(t.kind for t in tasks).items()))
