"""Every CLI subcommand on pass, fail and error inputs, against a golden file.

Each case runs `cli.run` in-process and compares its exit code and report,
without `wall_time_s`, with `cli_golden.json`.  The input files live in a
temporary directory, whose path reads as "DIR" in the compared reports.  The
reports of exact commands are compared byte for byte, as canonical JSON.  A
numeric command's residuals are rounding-level, so its report is compared on
its keys, its error and error point, and its criteria's names, statuses,
keys and tolerances.

To record the golden file again (only when a report is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diraclab import cli, jsonio
from diraclab.fields import Chart, PolyKForm, PolyKVector, PolyScalar, coordinate_vector
from diraclab.maningroup import builtin_triples
from diraclab.poisson import from_components, lie_poisson, so3_constants

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# commands whose reports carry no float: compared byte for byte
EXACT = {"poisson check", "poisson jacobiator", "poisson bracket",
         "dirac check-integrability", "dirac poisson-map", "manin check"}


def _triple_json(name: str, scale=1):
    """The built-in triple `name` in the user format, its structure constants
    times scale, borrowing the built-in's chart."""
    triple, _ = builtin_triples()[name]
    pair = lambda v: [[x.numerator, x.denominator] for x in v]
    C = [{"a": a + 1, "b": b + 1, "c": c + 1, "value": pair([scale * v])[0]}
         for (a, b, c), v in triple.algebra.C.items()]
    return {"dim": 6, "C": C, "B": [pair(row) for row in triple.algebra.B],
            "g_basis": [pair(v) for v in triple.g_basis],
            "h_basis": [pair(v) for v in triple.h_basis], "builtin_ad": name}


def _broken_triple_json():
    """The so(3) semidirect triple in the user format with h_0, h_1 replaced by
    h_0 + h_1 and h_1 + g_0, so h is no longer a Lagrangian subalgebra."""
    data = _triple_json("semidirect-so3")
    g, h = data["g_basis"], data["h_basis"]
    add = lambda u, v: [[a[0] * b[1] + b[0] * a[1], a[1] * b[1]] for a, b in zip(u, v)]
    h[0], h[1] = add(h[0], h[1]), add(h[1], g[0])
    return data


def _inputs():
    chart = Chart(2, ("x", "y"))
    x, y = chart.coordinates()
    one = PolyScalar.constant(chart, 1)
    chart3 = Chart(3, ("x", "y", "z"))
    x3, y3, z3 = chart3.coordinates()
    zero_form = jsonio.tensor_to_json(PolyKForm(chart, 1, {}))
    hs_l = [[0, 0, 1, 0, 0, 0], [0, -1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0]]
    return {
        "PI": jsonio.tensor_to_json(from_components(chart, {(0, 1): x}).pi),
        "CONST": jsonio.tensor_to_json(from_components(chart, {(0, 1): one}).pi),
        "SO3": jsonio.tensor_to_json(lie_poisson(so3_constants(), 3).pi),
        "NONPOISSON": jsonio.tensor_to_json(
            PolyKVector(chart3, 2, {(0, 1): z3, (1, 2): x3, (2, 0): x3})),
        "F": jsonio.poly_to_json(x),
        "G": jsonio.poly_to_json(y),
        "OMEGA": jsonio.tensor_to_json(PolyKForm(chart, 2, {(0, 1): one})),
        "OMEGA_HALF": jsonio.tensor_to_json(PolyKForm(chart, 2, {(0, 1): one * Fraction(1, 2)})),
        "PHI": {"source": 1, "target": 2, "components": [[{"exp": [1], "num": 1, "den": 1}],
                                                         [{"exp": [2], "num": 1, "den": 1}]]},
        "ID": {"source": 2, "target": 2, "components": [[{"exp": [1, 0], "num": 1, "den": 1}],
                                                        [{"exp": [0, 1], "num": 1, "den": 1}]]},
        "FRAME": {"chart": 2, "sections": [
            {"X": jsonio.tensor_to_json(coordinate_vector(chart, i)), "alpha": zero_form}
            for i in range(2)]},
        "AFORM": {"powers": {"0": jsonio.tensor_to_json(PolyKForm(chart, 1, {(1,): -x}))}},
        "AFORM2": {"powers": {"0": jsonio.tensor_to_json(PolyKForm(chart, 2, {(0, 1): one}))}},
        # the zero bivector and an a-form family on the 0-dimensional chart
        "PI0": jsonio.tensor_to_json(from_components(Chart(0), {}).pi),
        "AFORM0": {"powers": {"0": jsonio.tensor_to_json(PolyKForm(Chart(0), 1, {}))}},
        "FIELD": jsonio.tensor_to_json(PolyKVector(chart, 1, {(0,): x + x * x, (1,): y})),
        "HS": {"k_basis": [[0, 0, 1, 0, 0, 0]], "l_basis": hs_l,
               "k_generators": [[0, 0, 1, 0, 0, 0]]},
        "HS_BAD": {"k_basis": [], "l_basis": hs_l[:2]},
        "HS_LIST": [1, 2],
        "TRIPLE_BAD": _broken_triple_json(),
        # a Manin triple, but the iwasawa-su2 chart multiplies in another group
        "TRIPLE_DOUBLED": _triple_json("iwasawa-su2", scale=2),
        "BAD": "{not json",
    }


CASES = {
    "poisson check/pass": ["poisson", "check", "--file", "{PI}"],
    "poisson check/fail": ["poisson", "check", "--file", "{NONPOISSON}"],
    "poisson check/error": ["poisson", "check", "--file", "{BAD}"],
    "poisson check/tol-before": ["--tol", "0.5", "poisson", "check", "--file", "{PI}"],
    "poisson check/tol-after": ["poisson", "check", "--file", "{PI}", "--tol", "0.5"],
    "poisson check/seed": ["--seed", "5", "poisson", "check", "--file", "{PI}"],
    "poisson jacobiator/pass": ["poisson", "jacobiator", "--file", "{SO3}"],
    "poisson jacobiator/nonzero": ["poisson", "jacobiator", "--file", "{NONPOISSON}"],
    "poisson jacobiator/error": ["poisson", "jacobiator", "--file", "{DIR}/missing.json"],
    "poisson jacobiator/tol": ["poisson", "jacobiator", "--file", "{SO3}", "--tol", "1e-3"],
    "poisson bracket/pass": ["poisson", "bracket", "--file", "{CONST}", "--f", "{F}",
                             "--g", "{G}"],
    "poisson bracket/error": ["poisson", "bracket", "--file", "{CONST}", "--f", "{BAD}",
                              "--g", "{G}"],
    "poisson bracket/tol": ["--tol", "0", "poisson", "bracket", "--file", "{CONST}",
                            "--f", "{F}", "--g", "{G}"],
    "poisson leaf/pass": ["poisson", "leaf", "--file", "{PI}", "--point", "0.5,0.25"],
    "poisson leaf/error": ["poisson", "leaf", "--file", "{PI}", "--point", "a,b"],
    "poisson leaf/tol": ["poisson", "leaf", "--file", "{PI}", "--point", "0.5,0.25",
                         "--tol", "1e-3"],
    "dirac check-integrability/pass": ["dirac", "check-integrability", "--poisson", "{SO3}"],
    "dirac check-integrability/fail": ["dirac", "check-integrability", "--poisson",
                                       "{NONPOISSON}"],
    "dirac check-integrability/frame": ["dirac", "check-integrability", "--frame", "{FRAME}"],
    "dirac check-integrability/error": ["dirac", "check-integrability"],
    "dirac check-integrability/tol-before": ["--tol", "0.5", "dirac", "check-integrability",
                                             "--poisson", "{SO3}"],
    "dirac check-integrability/tol-after": ["dirac", "check-integrability", "--poisson",
                                            "{SO3}", "--tol", "0.5"],
    "dirac gauge/pass": ["dirac", "gauge", "--poisson", "{CONST}", "--omega", "{OMEGA_HALF}",
                         "--point", "0,0"],
    "dirac gauge/fail": ["dirac", "gauge", "--poisson", "{CONST}", "--omega", "{OMEGA}",
                         "--point", "0,0"],
    "dirac gauge/error": ["dirac", "gauge", "--poisson", "{CONST}", "--omega", "{OMEGA}",
                          "--point", "0,nan"],
    "dirac pullback/pass": ["dirac", "pullback", "--map", "{PHI}", "--poisson", "{PI}",
                            "--point", "0.5"],
    "dirac gauge/tol": ["dirac", "gauge", "--poisson", "{CONST}", "--omega", "{OMEGA_HALF}",
                        "--point", "0,0", "--tol", "1e-3"],
    # u -> (u, u^2) meets x d/dx ^ d/dy where it vanishes, along the x axis
    "dirac pullback/fail": ["dirac", "pullback", "--map", "{PHI}", "--poisson", "{PI}",
                            "--point", "0"],
    "dirac pullback/error": ["dirac", "pullback", "--map", "{PHI}", "--poisson", "{SO3}",
                             "--point", "0.5"],
    "dirac pullback/zero-chart": ["dirac", "pullback", "--map", "{PHI}", "--poisson", "{PI0}",
                                  "--point", "0.5"],
    "dirac poisson-map/pass": ["dirac", "poisson-map", "--map", "{ID}", "--pi-source", "{PI}",
                               "--pi-target", "{PI}"],
    "dirac poisson-map/fail": ["dirac", "poisson-map", "--map", "{ID}", "--pi-source", "{PI}",
                               "--pi-target", "{PI}", "--anti"],
    "dirac poisson-map/error": ["dirac", "poisson-map", "--map", "{BAD}", "--pi-source",
                                "{PI}", "--pi-target", "{PI}"],
    "dirac poisson-map/tol": ["dirac", "poisson-map", "--map", "{ID}", "--pi-source", "{PI}",
                              "--pi-target", "{PI}", "--tol", "1"],
    "realize/pass": ["realize", "--poisson", "{PI}", "--samples", "2", "--step", "1e-2"],
    "realize/fail": ["realize", "--poisson", "{PI}", "--samples", "2", "--step", "1e-2",
                     "--tol", "1e-30"],
    "realize/error": ["realize", "--poisson", "{PI}", "--samples", "0"],
    "realize/zero-chart": ["realize", "--poisson", "{PI0}"],
    "moser/pass": ["moser", "--poisson", "{CONST}", "--a-form", "{AFORM}", "--grid-count", "2",
                   "--step", "1e-2"],
    "moser/fail": ["--tol", "1e-30", "moser", "--poisson", "{CONST}", "--a-form", "{AFORM}",
                   "--grid-count", "2", "--step", "1e-2"],
    "moser/error": ["moser", "--poisson", "{CONST}", "--a-form", "{AFORM2}"],
    "moser/zero-chart": ["moser", "--poisson", "{PI0}", "--a-form", "{AFORM0}"],
    "linearize/pass": ["linearize", "--field", "{FIELD}", "--samples", "2", "--step", "1e-2"],
    "linearize/fail": ["linearize", "--field", "{FIELD}", "--samples", "2", "--step", "1e-2",
                       "--tol", "1e-30"],
    "linearize/error": ["linearize", "--field", "{PI}"],
    "manin check/pass": ["manin", "check", "--builtin", "iwasawa-su2"],
    "manin check/fail": ["manin", "check", "--triple", "{TRIPLE_BAD}"],
    "manin check/error": ["manin", "check", "--builtin", "nope"],
    "manin check/tol": ["manin", "check", "--builtin", "iwasawa-su2", "--tol", "1e-3"],
    "manin bivector/pass": ["manin", "bivector", "--builtin", "iwasawa-su2",
                            "--point", "0.1,0.2,0.3"],
    "manin bivector/fail": ["manin", "bivector", "--triple", "{TRIPLE_BAD}",
                            "--point", "0.1,0.2,0.3"],
    "manin bivector/outside-domain": ["manin", "bivector", "--builtin", "iwasawa-su2",
                                      "--point", "1e5,1e5,1e5"],
    "manin bivector/negative-point": ["manin", "bivector", "--builtin", "semidirect-so3",
                                      "--point", "-0.5,0.2,0.1"],
    "manin bivector/error": ["manin", "bivector", "--builtin", "iwasawa-su2",
                             "--point", "0.1,0.2"],
    "manin dressing/pass": ["manin", "dressing", "--builtin", "semidirect-so3",
                            "--point", "0.3,0.2,-0.1", "--zeta", "1,0,0,0,0,0"],
    "manin dressing/fail": ["manin", "dressing", "--triple", "{TRIPLE_BAD}",
                            "--point", "0.3,0.2,-0.1", "--zeta", "1,0,0,0,0,0"],
    "manin dressing/error": ["manin", "dressing", "--builtin", "semidirect-so3",
                             "--point", "0.3,0.2,-0.1", "--zeta", "1,0,0"],
    "manin dressing/tol": ["--tol", "1e-3", "manin", "dressing", "--builtin", "semidirect-so3",
                           "--point", "0.3,0.2,-0.1", "--zeta", "1,0,0,0,0,0"],
    "manin multiplicativity/pass": ["manin", "multiplicativity", "--builtin", "iwasawa-su2",
                                    "--pairs", "2"],
    "manin multiplicativity/fail": ["manin", "multiplicativity", "--builtin", "iwasawa-su2",
                                    "--pairs", "2", "--tol", "0"],
    "manin multiplicativity/error": ["manin", "multiplicativity", "--builtin", "standard-sl2"],
    "manin multiplicativity/foreign-chart": ["manin", "multiplicativity", "--triple",
                                             "{TRIPLE_DOUBLED}", "--pairs", "5"],
    "manin homspace/pass": ["manin", "homspace", "--builtin", "iwasawa-su2", "--data", "{HS}"],
    "manin homspace/fail": ["manin", "homspace", "--builtin", "iwasawa-su2",
                            "--data", "{HS_BAD}"],
    "manin homspace/error": ["manin", "homspace", "--builtin", "iwasawa-su2",
                             "--data", "{HS_LIST}"],
    "manin homspace/tol": ["manin", "homspace", "--builtin", "iwasawa-su2", "--data", "{HS}",
                           "--tol", "1e-3"],
}


def _write_inputs(d: Path) -> dict:
    paths = {"DIR": str(d)}
    for name, data in _inputs().items():
        p = d / f"{name}.json"
        p.write_text(data if isinstance(data, str) else json.dumps(data))
        paths[name] = str(p)
    return paths


def _summary(report: dict) -> dict:
    """What of a numeric report is compared: everything but rounding-level values."""
    return {
        "keys": sorted(report),
        "command": report["command"],
        "error": report.get("error"),
        "error_point": report.get("error_point"),
        "criteria": [{"name": c["name"], "status": c["status"], "tolerance": c["tolerance"],
                      "keys": sorted(c)} for c in report["criteria"]],
        "result_keys": sorted(report.get("result", {})),
    }


def run_case(case: str, paths: dict) -> dict:
    """{"exit", "report"} of one case, the report without wall_time_s and with
    the input directory read as DIR; a numeric report is summarized."""
    argv = [a.format(**paths) for a in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    report = json.loads(out.getvalue().replace(paths["DIR"], "DIR"))
    del report["wall_time_s"]
    if case.split("/")[0] not in EXACT:
        report = _summary(report)
    return {"exit": code, "report": report}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case_and_subcommand(golden):
    assert sorted(golden) == sorted(CASES)
    assert {case.split("/")[0] for case in CASES} == {
        "poisson check", "poisson jacobiator", "poisson bracket", "poisson leaf",
        "dirac check-integrability", "dirac gauge", "dirac pullback", "dirac poisson-map",
        "realize", "moser", "linearize", "manin check", "manin bivector", "manin dressing",
        "manin multiplicativity", "manin homspace"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_the_golden_file(case, paths, golden):
    got = run_case(case, paths)
    want = golden[case]
    assert got["exit"] == want["exit"]
    assert json.dumps(got["report"], sort_keys=True) == json.dumps(want["report"], sort_keys=True)


def record(path: Path = GOLDEN) -> None:
    """Run every case in a fresh directory and write the golden file."""
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        paths = _write_inputs(Path(d))
        golden = {case: run_case(case, paths) for case in sorted(CASES)}
    path.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
