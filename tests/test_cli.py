import json

import jsonschema
import pytest

from diraclab import jsonio
from diraclab.cli import REPORT_SCHEMA, run
from diraclab.fields import Chart, PolyKForm, PolyKVector, PolyScalar
from diraclab.poisson import from_components, standard_symplectic_poisson


@pytest.fixture
def workdir(tmp_path):
    chart2 = Chart(2, ("x", "y"))
    x = chart2.coordinate(0)
    files = {}

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        files[name] = str(p)

    dump("constant.json", jsonio.tensor_to_json(standard_symplectic_poisson(1).pi))
    chart3 = Chart(3, ("x", "y", "z"))
    x3, y3, z3 = chart3.coordinates()
    nonpoisson = PolyKVector(chart3, 2, {(0, 1): z3, (1, 2): x3, (2, 0): x3})
    dump("nonpoisson3d.json", jsonio.tensor_to_json(nonpoisson))
    dump("xdxdy.json", jsonio.tensor_to_json(from_components(chart2, {(0, 1): x}).pi))
    dump("f.json", jsonio.poly_to_json(standard_symplectic_poisson(1).chart.coordinate(0)))
    dump("g.json", jsonio.poly_to_json(standard_symplectic_poisson(1).chart.coordinate(1)))
    dump(
        "a_form.json",
        {"powers": {"0": jsonio.tensor_to_json(PolyKForm(chart2, 1, {(1,): -x}))}},
    )
    euler_plus = PolyKVector(
        chart2, 1, {(0,): chart2.coordinate(0) + x * x, (1,): chart2.coordinate(1)}
    )
    dump("euler_field.json", jsonio.tensor_to_json(euler_plus))
    dump("broken.json", {"chart": 2, "degree": 2})  # fine JSON, valid tensor (empty)
    (tmp_path / "bad.json").write_text("{not json")
    files["bad.json"] = str(tmp_path / "bad.json")
    files["dir"] = str(tmp_path)
    return files


def run_and_parse(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


class TestPoissonCommands:
    def test_check_pass(self, workdir, capsys):
        code, rep = run_and_parse(capsys, ["poisson", "check", "--file", workdir["constant.json"]])
        assert code == 0
        assert rep["criteria"][0]["max_residual"] == "exact-zero"

    def test_check_fail_with_witness(self, workdir, capsys):
        code, rep = run_and_parse(capsys, ["poisson", "check", "--file", workdir["nonpoisson3d.json"]])
        assert code == 1
        assert "1+2+3" in rep["result"]["jacobiator_components"]

    def test_bracket(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys,
            ["poisson", "bracket", "--file", workdir["constant.json"],
             "--f", workdir["f.json"], "--g", workdir["g.json"]],
        )
        assert code == 0
        assert rep["result"]["bracket"] == [{"exp": [0, 0], "num": 1, "den": 1}]

    def test_leaf(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys, ["poisson", "leaf", "--file", workdir["xdxdy.json"], "--point", "0,0"]
        )
        assert code == 0 and rep["result"]["rank"] == 0

    def test_malformed_json_exit_2(self, workdir, capsys):
        code, rep = run_and_parse(capsys, ["poisson", "check", "--file", workdir["bad.json"]])
        assert code == 2
        assert "line 1" in rep["error"]


class TestDiracCommands:
    def test_integrability_of_poisson_graph(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys, ["dirac", "check-integrability", "--poisson", workdir["xdxdy.json"]]
        )
        assert code == 0

    def test_integrability_failure(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys,
            ["dirac", "check-integrability", "--poisson", workdir["nonpoisson3d.json"],
             "--point", "0.3,0.5,1.0"],
        )
        assert code == 1

    def test_gauge(self, workdir, capsys, tmp_path):
        chart = Chart(2, ("x", "y"))
        om = PolyKForm(chart, 2, {(0, 1): PolyScalar.constant(chart, 1) * __import__("fractions").Fraction(1, 2)})
        p = tmp_path / "omega.json"
        p.write_text(json.dumps(jsonio.tensor_to_json(om)))
        pi = tmp_path / "pi.json"
        pi.write_text(json.dumps(jsonio.tensor_to_json(
            from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)}).pi)))
        code, rep = run_and_parse(
            capsys, ["dirac", "gauge", "--poisson", str(pi), "--omega", str(p), "--point", "0,0"]
        )
        assert code == 0
        assert rep["result"]["gauged_bivector_matrix"][0][1] == pytest.approx(2.0)


class TestNumericCommands:
    def test_realize(self, workdir, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, rep = run_and_parse(
            capsys,
            ["realize", "--poisson", workdir["xdxdy.json"], "--samples", "5",
             "--radius", "0.2", "--step", "5e-3", "--report", str(out)],
        )
        assert code == 0
        assert len(rep["criteria"]) == 3
        saved = json.loads(out.read_text())
        assert saved["criteria"] == rep["criteria"]

    def test_moser_rejects_wrong_degree_family(self, workdir, capsys, tmp_path):
        chart = Chart(2, ("x", "y"))
        bad = tmp_path / "bad_family.json"
        two_form = PolyKForm(chart, 2, {(0, 1): PolyScalar.constant(chart, 1)})
        bad.write_text(json.dumps({"powers": {"0": jsonio.tensor_to_json(two_form)}}))
        code, rep = run_and_parse(
            capsys,
            ["moser", "--poisson", workdir["constant.json"], "--a-form", str(bad),
             "--time", "0.5", "--grid-count", "4", "--step", "2e-3"],
        )
        assert code == 2 and "1-form" in rep["error"]

    def test_moser_matching_charts(self, workdir, capsys, tmp_path):
        chart = Chart(2, ("x", "y"))
        pi = tmp_path / "pi2.json"
        pi.write_text(json.dumps(jsonio.tensor_to_json(
            from_components(chart, {(0, 1): PolyScalar.constant(chart, 1)}).pi)))
        code, rep = run_and_parse(
            capsys,
            ["moser", "--poisson", str(pi), "--a-form", workdir["a_form.json"],
             "--time", "0.5", "--grid-count", "4", "--step", "2e-3"],
        )
        assert code == 0
        assert rep["criteria"][0]["max_residual"] < 1e-6

    def test_linearize(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys,
            ["linearize", "--field", workdir["euler_field.json"], "--radius", "0.3",
             "--samples", "5", "--step", "2e-3"],
        )
        assert code == 0
        assert rep["criteria"][0]["max_residual"] < 1e-5


class TestManinCommands:
    def test_check_builtin(self, capsys):
        for name in ("semidirect-so3", "iwasawa-su2", "standard-sl2", "borel-sl2",
                     "double-semidirect-so3"):
            code, rep = run_and_parse(capsys, ["manin", "check", "--builtin", name])
            assert code == 0, name

    def test_bivector(self, capsys):
        code, rep = run_and_parse(
            capsys,
            ["manin", "bivector", "--builtin", "iwasawa-su2", "--point", "0.4,0.1,-0.6"],
        )
        assert code == 0
        P = rep["result"]["bivector_h_basis"]
        assert abs(P[0][1] + P[1][0]) < 1e-12

    def test_dressing(self, capsys):
        code, rep = run_and_parse(
            capsys,
            ["manin", "dressing", "--builtin", "semidirect-so3",
             "--point", "0.3,0.2,-0.1", "--zeta", "1,0,0,0,0,0"],
        )
        assert code == 0
        assert rep["result"]["left_trivialized_value"] == pytest.approx([1.0, 0.0, 0.0])

    def test_multiplicativity(self, capsys):
        code, rep = run_and_parse(
            capsys,
            ["manin", "multiplicativity", "--builtin", "iwasawa-su2", "--pairs", "3"],
        )
        assert code == 0

    def test_unknown_builtin(self, capsys):
        code, rep = run_and_parse(capsys, ["manin", "check", "--builtin", "nope"])
        assert code == 2


class TestDeterminism:
    def test_reports_byte_identical_modulo_walltime(self, workdir, capsys):
        argv = ["realize", "--poisson", workdir["xdxdy.json"], "--samples", "4",
                "--radius", "0.2", "--step", "5e-3", "--seed", "7"]
        code1 = run(argv)
        out1 = capsys.readouterr().out
        code2 = run(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_seed_echoed(self, workdir, capsys):
        code, rep = run_and_parse(
            capsys, ["--seed", "5", "poisson", "check", "--file", workdir["constant.json"]]
        )
        assert rep["seed"] == 5


class TestTripleJson:
    def triple_json(self):
        # so(3) semidirect triple in the user file format (1-based indices)
        from diraclab.maningroup import so3_semidirect

        triple, _ = so3_semidirect()
        C = [
            {"a": a + 1, "b": b + 1, "c": c + 1,
             "value": [v.numerator, v.denominator]}
            for (a, b, c), v in triple.algebra.C.items()
        ]
        B = [[[x.numerator, x.denominator] for x in row] for row in triple.algebra.B]
        g = [[[x.numerator, x.denominator] for x in v] for v in triple.g_basis]
        h = [[[x.numerator, x.denominator] for x in v] for v in triple.h_basis]
        return {"dim": 6, "C": C, "B": B, "g_basis": g, "h_basis": h,
                "builtin_ad": "semidirect-so3"}

    def test_user_triple_check(self, capsys, tmp_path):
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(self.triple_json()))
        code, rep = run_and_parse(capsys, ["manin", "check", "--triple", str(p)])
        assert code == 0

    def test_user_triple_bivector_with_builtin_ad(self, capsys, tmp_path):
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(self.triple_json()))
        code, rep = run_and_parse(
            capsys,
            ["manin", "bivector", "--triple", str(p), "--point", "0.2,0.4,-0.1"],
        )
        assert code == 0
        assert max(abs(v) for row in rep["result"]["bivector_h_basis"] for v in row) < 1e-12

    def test_missing_chart_rejected(self, capsys, tmp_path):
        data = self.triple_json()
        data["builtin_ad"] = None
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(data))
        code, rep = run_and_parse(
            capsys, ["manin", "bivector", "--triple", str(p), "--point", "0,0,0"]
        )
        assert code == 2


class TestTolOverride:
    def test_global_tol_flips_status(self, workdir, capsys):
        # an absurdly tight tolerance turns the numeric pass into a fail
        argv = ["realize", "--poisson", workdir["xdxdy.json"], "--samples", "4",
                "--radius", "0.2", "--step", "5e-3", "--tol", "1e-30"]
        code, rep = run_and_parse(capsys, argv)
        assert code == 1


class TestFrameFile:
    def test_integrability_from_frame_file(self, capsys, tmp_path):
        # frame spanning Gr(x d/dx ^ d/dy), serialized section by section
        from diraclab.dirac import graph_of_poisson
        from diraclab.poisson import from_components

        chart = Chart(2, ("x", "y"))
        pi = from_components(chart, {(0, 1): chart.coordinate(0)})
        E = graph_of_poisson(pi)
        data = {
            "chart": 2,
            "sections": [
                {"X": jsonio.tensor_to_json(s.X), "alpha": jsonio.tensor_to_json(s.alpha)}
                for s in E.sections
            ],
        }
        p = tmp_path / "frame.json"
        p.write_text(json.dumps(data))
        code, rep = run_and_parse(
            capsys,
            ["dirac", "check-integrability", "--frame", str(p), "--point", "0.4,0.7"],
        )
        assert code == 0
