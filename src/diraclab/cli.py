"""Batch CLI: parse JSON specs, run checks, emit machine-readable reports.

Every invocation prints one JSON report to stdout and exits with
0 (all criteria passed), 1 (a check failed) or 2 (input error).  All
randomness is seeded (--seed, default 0) and echoed in the report, so
identical inputs and seed reproduce the report byte for byte (the
wall_time_s field is the one excluded, timing is not reproducible).
Every numeric option is checked against its domain in `OPTION_DOMAINS`
before a command runs, and a usage error is an input error with a report.
Each command is one row of `COMMANDS`: its handler, its options, its --tol
and --seed defaults (either is an input error on a command that reads neither)
and the pair of alternative inputs it needs exactly one of.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import jsonio
from ._numeric import CriterionResult, FlowConfig
from .errors import DiraclabError, PointError, TransversalityError
from .fields import Chart, PolyKForm, _integer_row, _span_test, expect
from .poisson import (
    PoissonBivector,
    TimePolyForm,
    euler_linearize,
    jacobiator,
    leaf_data_at_point,
    moser_verify,
    bracket as poisson_bracket,
)
from . import dirac as dirac_mod
from . import maningroup as manin_mod
from . import realization as real_mod

SCHEMA_VERSION = 2

STEP_FLOOR = 1e-6   # with MAX_FLOW_STEPS = 1e7 this admits flows up to time 10
COUNT_CAP = 10_000  # samples, pairs and grid points of one run
# The built-in group charts have domain |x| < pi; --scale and --point bound each coordinate.
SCALE_CAP = math.pi

# The domain of each numeric option: a test and the phrase that states it.
# Chained comparisons are false for NaN, and an infinite bound is exclusive.
OPTION_DOMAINS = {
    "seed": (lambda v: 0 <= v, "at least 0"),
    "tol": (lambda v: 0 <= v < math.inf, "finite and at least 0"),
    "step": (lambda v: STEP_FLOOR <= v < math.inf, f"finite and at least {STEP_FLOOR:g}"),
    "radius": (lambda v: 0 < v < math.inf, "finite and positive"),
    "grid_radius": (lambda v: 0 < v < math.inf, "finite and positive"),
    "time": (lambda v: -math.inf < v < math.inf, "finite"),
    "scale": (lambda v: -SCALE_CAP <= v <= SCALE_CAP, "finite and at most pi in magnitude"),
    **{name: (lambda v: 1 <= v <= COUNT_CAP, f"at least 1 and at most {COUNT_CAP}")
       for name in ("samples", "pairs", "grid_count")},
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "seed", "criteria", "wall_time_s"],
    "properties": {
        "schema_version": {"type": "integer"},
        "command": {"type": "array", "items": {"type": "string"}},
        "seed": {"type": "integer"},
        "criteria": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "max_residual", "tolerance"],
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "max_residual": {
                        "anyOf": [{"type": "number"}, {"const": "exact-zero"}, {"type": "null"}]
                    },
                    "worst_point": {
                        "anyOf": [{"type": "array"}, {"type": "null"}]
                    },
                    "tolerance": {
                        "anyOf": [{"type": "number"}, {"const": "exact"}]
                    },
                },
            },
        },
        "result": {"type": "object"},
        "wall_time_s": {"type": "number"},
    },
}


class InputError(DiraclabError):
    """A malformed command line or input file: the report's error, exit 2."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as InputError, with a report, and reads -0.5,0.2 as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d.*$")

    def error(self, message):
        raise InputError(message)


def _check_options(args) -> None:
    """Check each option's domain, then fill in --tol and --seed from the
    command's row, or refuse each where nothing reads it, and refuse both or
    neither of the row's alternative inputs."""
    for name, (inside, phrase) in OPTION_DOMAINS.items():
        value = getattr(args, name, None)
        if value is not None and not inside(value):
            raise InputError(f"--{name.replace('_', '-')} must be {phrase}, got {value}")
    command, row = args.command, COMMANDS[args.command]
    for name, default, unread in (("tol", row.tol, "has no numeric criterion"),
                                  ("seed", row.seed, "draws nothing at random")):
        if default is None:
            if getattr(args, name) is not None:
                raise InputError(f"--{name}: {command} {unread}")
        elif getattr(args, name) is None:
            setattr(args, name, default)
    if row.one_of:
        given = [flag for flag in row.one_of if getattr(args, flag[2:].replace("-", "_"))]
        if len(given) != 1:
            raise InputError(" and ".join(given) + " exclude each other" if given
                             else "need " + " or ".join(row.one_of))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}")
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise InputError(f"malformed JSON in {path}: {e}")


def _parse_point(text: str, dim: int | None = None):
    try:
        point = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"cannot parse point {text!r}")
    if dim is not None and len(point) != dim:
        raise InputError(f"point {text!r} has {len(point)} coordinates, expected {dim}")
    if not np.isfinite(point).all():
        raise InputError(f"point {text!r} has a non-finite coordinate")
    return point


def _load_bivector(path: str) -> PoissonBivector:
    return PoissonBivector(jsonio.tensor_from_json(_load_json(path)))


def _of_positive_dim(T, option: str):
    """T, refused on a 0-dimensional chart, where a flow has no point to move."""
    if T.chart.dim == 0:
        raise InputError(f"{option} must live on a chart of dimension at least 1")
    return T


@jsonio.decoder
def _load_oneform_family(path: str) -> TimePolyForm:
    data = _load_json(path)
    powers = data.get("powers") if isinstance(data, dict) else None
    if not isinstance(powers, dict):
        raise InputError(f"{path}: expected {{'powers': {{degree: tensor}}}}")
    coeffs = {}
    for d, tens in powers.items():
        T = jsonio.tensor_from_json(tens)
        # checked per power, so that the message names the file and the power
        expect(T, PolyKForm, 1, f"{path}: powers[{d}]")
        coeffs[int(d)] = T
    return TimePolyForm(coeffs)


def _components_json(components):
    """Nonzero exact components keyed "a+b+c" by their 1-based index."""
    return {"+".join(str(i + 1) for i in idx): jsonio.poly_to_json(p)
            for idx, p in components.items()}


# -- subcommand handlers -----------------------------------------------------


def _poisson_check(args):
    J = jacobiator(_load_bivector(args.file)).components
    crit = CriterionResult("jacobi-identity", len(J), None, "exact")
    return [crit], {"jacobiator_components": _components_json(J)} if J else {}


def _poisson_jacobiator(args):
    J = jacobiator(_load_bivector(args.file))
    return [], {"jacobiator": jsonio.tensor_to_json(J), "is_zero": J.is_zero()}


def _poisson_bracket(args):
    pi = _load_bivector(args.file)
    f = jsonio.poly_from_json(pi.chart, _load_json(args.f))
    g = jsonio.poly_from_json(pi.chart, _load_json(args.g))
    return [], {"bracket": jsonio.poly_to_json(poisson_bracket(pi, f, g))}


def _poisson_leaf(args):
    leaf = leaf_data_at_point(_load_bivector(args.file), _parse_point(args.point))
    return [], {"rank": leaf.rank, "basis": leaf.basis.tolist(),
                "leaf_symplectic_matrix": leaf.omega.tolist(), "basis_dependent": True}


@jsonio.decoder
def _frame_from_json(data) -> dirac_mod.LagrangianFrame:
    chart = Chart(jsonio.dimension(data, "chart"))
    sections = []
    for rec in data["sections"]:
        X = jsonio.tensor_from_json(rec["X"], chart)
        alpha = jsonio.tensor_from_json(rec["alpha"], chart)
        sections.append(dirac_mod.GeneralizedSection(X, alpha))
    return dirac_mod.LagrangianFrame(chart, sections=sections)


def _dirac_check_integrability(args):
    if args.poisson:
        E = dirac_mod.graph_of_poisson(_load_bivector(args.poisson))
    else:
        E = _frame_from_json(_load_json(args.frame))
    # the seeded point where the frame's rank is taken
    pt = np.random.default_rng(args.seed).uniform(-1.0, 1.0, size=E.chart.dim)
    T = dirac_mod.integrability_tensor(E, pt)
    return [CriterionResult("courant-integrability", len(T), None, "exact",
                            _components_json(T) or None)], {}


def _transversality(name, fn):
    """A handler whose one exact criterion is that fn(args), which returns the
    result, meets no TransversalityError at the point."""
    def handler(args):
        try:
            result = fn(args)
        except TransversalityError as e:
            return [CriterionResult(name, None, e.point, "exact")], {}
        return [CriterionResult(name, 0, None, "exact")], result
    return handler


def _dirac_gauge(args):
    pi = _load_bivector(args.poisson)
    omega = jsonio.tensor_from_json(_load_json(args.omega), pi.chart)
    P = dirac_mod.gauge_poisson(pi, dirac_mod.GaugeTransform(omega), _parse_point(args.point))
    return {"gauged_bivector_matrix": P.tolist()}


def _dirac_pullback(args):
    phi = jsonio.map_from_json(_load_json(args.map))
    E = dirac_mod.graph_of_poisson(_load_bivector(args.poisson))
    B = dirac_mod.pullback_dirac_at_point(phi, E, _parse_point(args.point))
    return {"fiber_basis": B.tolist(), "basis_dependent": True}


def _dirac_poisson_map(args):
    phi = jsonio.map_from_json(_load_json(args.map))
    pi_src = _load_bivector(args.pi_source)
    pi_tgt = PoissonBivector(jsonio.tensor_from_json(_load_json(args.pi_target), phi.target))
    rep = dirac_mod.check_poisson_map(phi, pi_src, pi_tgt, anti=args.anti)
    return [CriterionResult("poisson-map-identity", 0 if rep.exact else None, None, "exact")], {}


def _realize(args):
    pi = _of_positive_dim(_load_bivector(args.poisson), "--poisson")
    config = real_mod.RealizationConfig(step=args.step)
    spray = real_mod.default_spray(pi)
    pts = real_mod.sample_points(pi.chart.dim, args.samples, args.radius, seed=args.seed)
    rep = real_mod.verify_dual_pair(spray, pts, config, tolerance=args.tol)
    return list(rep.criteria), {"samples": rep.samples}


def _moser(args):
    pi = _of_positive_dim(_load_bivector(args.poisson), "--poisson")
    a_t = _load_oneform_family(args.a_form)
    rng = np.random.default_rng(args.seed)
    grid = [rng.uniform(-args.grid_radius, args.grid_radius, size=pi.chart.dim)
            for _ in range(args.grid_count)]
    crit = moser_verify(pi, a_t, [args.time], grid, FlowConfig(step=args.step), args.tol)
    return [crit], {"samples": len(grid), "time": args.time}


def _linearize(args):
    X = _of_positive_dim(jsonio.tensor_from_json(_load_json(args.field)), "--field")
    n = X.chart.dim
    # uniform in the ball with one draw per point: a uniform direction z/|z| at
    # radius U^(1/n); rejection from the cube takes 2^n/V_n draws, 6e38 at n = 64.
    # z is normalized before the radius scales it, so a huge radius cannot overflow |z|
    rng = np.random.default_rng(args.seed)
    z = rng.standard_normal((args.samples, n))
    u = rng.uniform(size=(args.samples, 1))
    pts = args.radius * u ** (1 / n) * (z / np.linalg.norm(z, axis=1, keepdims=True))
    rep = euler_linearize(X, pts, FlowConfig(step=args.step))
    return ([CriterionResult("conjugation-residual", rep.max_residual, rep.worst_point, args.tol)],
            {"samples": rep.samples})


def _rational_matrix_from_json(rows):
    return [[jsonio.rational_from_json(v) for v in row] for row in rows]


@jsonio.decoder
def _triple_from_json(data) -> tuple:
    """(triple, chart, ref): a user triple, the chart it borrows with `builtin_ad`
    and the built-in triple whose chart that is, or (triple, None, None)."""
    dim = jsonio.dimension(data, "dim")
    C = jsonio.constants_from_entries(data["C"])
    B = _rational_matrix_from_json(data["B"])
    alg = manin_mod.MetrizedLieAlgebra(dim, C, B)
    g_basis = _rational_matrix_from_json(data["g_basis"])
    h_basis = _rational_matrix_from_json(data["h_basis"])
    triple = manin_mod.ManinTriple(alg, g_basis, h_basis)
    builtin_ad = data.get("builtin_ad")
    if not builtin_ad:
        return triple, None, None
    catalog = manin_mod.builtin_triples()
    if builtin_ad not in catalog:
        raise InputError(f"unknown builtin_ad {builtin_ad!r}")
    ref, chart = catalog[builtin_ad]
    if chart is None:
        raise InputError(f"builtin {builtin_ad!r} carries no chart")
    return triple, manin_mod.GroupChart(builtin_ad, triple, chart.param, chart.log_map), ref


@jsonio.decoder
def _homspace_from_json(data) -> tuple:
    """(k_basis, l_basis, k_generators), exact rationals."""
    if not isinstance(data, dict):
        raise InputError("homspace data must be an object with l_basis, k_basis, k_generators")
    return (_rational_matrix_from_json(data.get("k_basis", [])),
            _rational_matrix_from_json(data["l_basis"]),
            _rational_matrix_from_json(data.get("k_generators", [])))


def _triple_axioms(triple) -> CriterionResult:
    ok, witness = manin_mod.check_manin_triple(triple)
    return CriterionResult("manin-triple-axioms", 0 if ok else None, None, "exact", witness)


def _check_borrowed_chart(triple, chart, ref) -> None:
    """Refuse a `builtin_ad` chart unless g has the same structure constants in
    the triple's g-basis as in its built-in triple ref's: the chart's param and
    log_map multiply in ref's group.  Exactly, in ints, each paired bracket
    ([g_i, g_j] | [g_i, g_j]') lies in the span of the paired basis (g_c | g_c')."""
    alg, ref_alg, n, d = triple.algebra, ref.algebra, triple.half_dim, triple.algebra.dim
    paired = [_integer_row(u + v) for u, v in zip(triple.g_basis, ref.g_basis)]  # one scale
    inside = _span_test(paired)
    if ref.half_dim != n or not all(  # each bracket half takes the other half's den
            inside([ref_alg.den * c for c in alg.scaled_bracket(x[:d], y[:d])]
                   + [alg.den * c for c in ref_alg.scaled_bracket(x[d:], y[d:])])
            for i, x in enumerate(paired) for y in paired[i + 1:]):
        raise InputError(f"builtin_ad {chart.name!r}: the chart's g is not this triple's g")


def _manin_triple(args) -> tuple:
    """(triple, chart, ref) of --builtin or --triple, as `_triple_from_json` reads
    a user triple.  One run builds `builtin_triples()` at most once."""
    if args.builtin:
        catalog = manin_mod.builtin_triples()
        if args.builtin not in catalog:
            raise InputError(f"unknown builtin {args.builtin!r}; have {sorted(catalog)}")
        return (*catalog[args.builtin], None)
    return _triple_from_json(_load_json(args.triple))


def _on_a_chart(fn, chart_needed=True):
    """The handler that runs fn(args, triple, chart) after these decisions, in order:
    the triple is known, it has a chart (where chart_needed), a user's triple passes
    its axioms (their failed criterion is the report otherwise), and its borrowed
    chart's g is its own g."""
    def handler(args):
        triple, chart, ref = _manin_triple(args)
        if chart is None and chart_needed:
            raise InputError("this subcommand needs a triple with a group chart")
        if not args.builtin:  # a user triple is decided before its chart is used
            if not (crit := _triple_axioms(triple)).passed:
                return [crit], {}
            if ref is not None:
                _check_borrowed_chart(triple, chart, ref)
        return fn(args, triple, chart)
    return handler


def _chart_point(text, chart):
    pt = np.array(_parse_point(text, chart.dim))
    if np.abs(pt).max() > SCALE_CAP:
        raise InputError(f"point {text!r} lies outside the chart domain |x_i| <= pi")
    return pt


def _manin_check(args):  # the axioms alone: no chart is needed, used or checked
    return [_triple_axioms(_manin_triple(args)[0])], {}


def _manin_bivector(args, triple, chart):
    pt = _chart_point(args.point, chart)
    P = manin_mod.drinfeld_bivector(triple, chart, pt)
    Pc = manin_mod.drinfeld_bivector_chart(triple, chart, pt)
    r = manin_mod.jacobiator_fd_residual(triple, chart, [pt])
    return ([CriterionResult("bivector-jacobi", r, pt, args.tol)],
            {"bivector_h_basis": P.tolist(), "bivector_chart": Pc.tolist()})


def _manin_dressing(args, triple, chart):
    pt = _chart_point(args.point, chart)
    zeta = np.array(_parse_point(args.zeta, triple.algebra.dim))
    out = manin_mod.dressing_action(triple, chart, pt, zeta)
    return [], {"left_trivialized_value": out.tolist()}


def _manin_multiplicativity(args, triple, chart):
    rng = np.random.default_rng(args.seed)
    draw = lambda: args.scale * rng.uniform(-1, 1, chart.dim)
    pairs = [(draw(), draw()) for _ in range(args.pairs)]
    rep = manin_mod.verify_multiplicativity(triple, chart, pairs)
    crit = CriterionResult("multiplicativity", rep["max_residual"], rep["worst_pair"][0],
                           args.tol)
    return [crit], {"pairs": args.pairs}


def _manin_homspace(args, triple, chart):
    k_basis, l_basis, gens = _homspace_from_json(_load_json(args.data))
    return [manin_mod.homogeneous_space_check(triple, k_basis, l_basis, gens)], {}


class Command(NamedTuple):
    """A handler, its options ({flag: argparse keywords}, in parser order), its
    --tol and --seed defaults (None where it reads neither, so either is an input
    error) and its alternative inputs: two flags, parsed first, of which a run
    gives exactly one."""

    handler: Callable
    options: dict
    tol: float | None = None
    seed: int | None = None
    one_of: tuple = ()


_REQUIRED = {"required": True}
_STEP = {"type": float, "default": 1e-3}
_TRIPLE = ("--builtin", "--triple")

# One row per command, in parser order; "group name" is a subcommand of group.
COMMANDS = {
    "poisson check": Command(_poisson_check, {"--file": _REQUIRED}),
    "poisson jacobiator": Command(_poisson_jacobiator, {"--file": _REQUIRED}),
    "poisson bracket": Command(_poisson_bracket, {"--file": _REQUIRED, "--f": _REQUIRED,
                                                  "--g": _REQUIRED}),
    "poisson leaf": Command(_poisson_leaf, {"--file": _REQUIRED, "--point": _REQUIRED}),
    "dirac check-integrability": Command(_dirac_check_integrability, {}, seed=0,
                                         one_of=("--poisson", "--frame")),
    "dirac gauge": Command(_transversality("gauge-transversality", _dirac_gauge),
                           {"--poisson": _REQUIRED, "--omega": _REQUIRED, "--point": _REQUIRED}),
    "dirac pullback": Command(_transversality("pullback-transversality", _dirac_pullback),
                             {"--map": _REQUIRED, "--poisson": _REQUIRED, "--point": _REQUIRED}),
    "dirac poisson-map": Command(_dirac_poisson_map, {
        "--map": _REQUIRED, "--pi-source": _REQUIRED, "--pi-target": _REQUIRED,
        "--anti": {"action": "store_true"}}),
    "realize": Command(_realize, {
        "--poisson": _REQUIRED, "--samples": {"type": int, "default": 20},
        "--radius": {"type": float, "default": 0.2}, "--step": _STEP, "--report": {}},
        tol=1e-6, seed=0),
    "moser": Command(_moser, {
        "--poisson": _REQUIRED, "--a-form": _REQUIRED, "--time": {"type": float, "default": 0.5},
        "--grid-radius": {"type": float, "default": 0.5},
        "--grid-count": {"type": int, "default": 9}, "--step": _STEP}, tol=1e-6, seed=0),
    "linearize": Command(_linearize, {
        "--field": _REQUIRED, "--radius": {"type": float, "default": 0.3},
        "--samples": {"type": int, "default": 10}, "--step": _STEP}, tol=1e-5, seed=0),
    "manin check": Command(_manin_check, {}, one_of=_TRIPLE),
    "manin bivector": Command(_on_a_chart(_manin_bivector), {"--point": _REQUIRED},
                              tol=1e-5, one_of=_TRIPLE),
    "manin dressing": Command(_on_a_chart(_manin_dressing),
                              {"--point": _REQUIRED, "--zeta": _REQUIRED}, one_of=_TRIPLE),
    "manin multiplicativity": Command(_on_a_chart(_manin_multiplicativity), {
        "--pairs": {"type": int, "default": 10},
        "--scale": {"type": float, "default": 0.5}}, tol=1e-5, seed=0, one_of=_TRIPLE),
    "manin homspace": Command(_on_a_chart(_manin_homspace, chart_needed=False),
                              {"--data": _REQUIRED}, one_of=_TRIPLE),
}


@functools.cache  # parse_args returns a fresh namespace, so one parser serves every run
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="diraclab",
                 description="Exact and numeric certification of Poisson/Dirac constructions")
    ap.add_argument("--seed", type=int, default=None, help="seed for all sampled points")
    ap.add_argument("--tol", type=float, default=None, help="override the command tolerance")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    groups = {"": ap.add_subparsers(dest="cmd", required=True)}
    for command, row in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group not in groups:  # its subcommand is args.<group>_cmd
            groups[group] = groups[""].add_parser(group).add_subparsers(
                dest=f"{group}_cmd", required=True)
        q = groups[group].add_parser(name, parents=[common])
        q.set_defaults(command=command)
        for flag in row.one_of:
            q.add_argument(flag)
        for flag, keywords in row.options.items():
            q.add_argument(flag, **keywords)
    return ap


def run(argv) -> int:
    # an overflow or NaN is reported in the JSON, so numpy's warnings stay off stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        started = time.perf_counter()
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": list(argv),
            "seed": 0,
            "criteria": [],
        }
        args = None
        try:
            args = build_parser().parse_args(argv)
            if args.seed is not None:
                report["seed"] = args.seed
            _check_options(args)
            criteria, result = COMMANDS[args.command].handler(args)
            report["criteria"] = [c.as_dict() for c in criteria]
            if result:
                report["result"] = result
            code = 0 if all(c.passed for c in criteria) else 1
        except PointError as e:
            report["error"] = str(e)
            if e.point is not None:
                report["error_point"] = list(e.point)
            code = 1
        except (DiraclabError, OverflowError) as e:  # OverflowError: an input past the float range
            report["error"] = str(e)
            code = 2
        except SystemExit:  # --help printed the usage; every usage error is an InputError
            return 0
        report["wall_time_s"] = round(time.perf_counter() - started, 6)
        try:
            text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:  # strict JSON cannot carry a non-finite number
            report = {k: v for k, v in report.items() if k not in ("result", "error_point")}
            report["criteria"] = [{k: v for k, v in c.items() if k != "witness"}
                                  for c in report["criteria"]]
            report.setdefault("error", "the result contains a non-finite number")
            code = max(code, 1)
            text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
        try:
            print(text)
        except BrokenPipeError:  # the reader closed stdout early; the exit code still tells
            pass
        if getattr(args, "report", None):
            try:
                with open(args.report, "w") as fh:
                    fh.write(text + "\n")
            except OSError as e:
                print(f"cannot write report {args.report}: {e.strerror or e}", file=sys.stderr)
                return 2
        return code


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # so the flush at interpreter exit writes nowhere, not to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
