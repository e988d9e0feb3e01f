import json
import math
from fractions import Fraction

import pytest

from lojex import cli
from lojex.cli import AnalysisOptions, analyze_germ, main
from lojex.errors import InputError
from lojex.fan import cone_det, normal_fan, simplicialize, unimodularize
from lojex.nondegeneracy import check_model
from lojex.parser import parse_text
from lojex.polyhedron import build_polyhedron
from lojex.taylor import RemainderDescriptor, TaylorModel, support

from .oracles import validate_fan


def test_one_variable_germ_full_pipeline():
    out = analyze_germ(parse_text("x1^2"), AnalysisOptions())
    rep = out.report
    assert out.exit_code == 0
    assert rep.theta.value == Fraction(1, 2)
    assert rep.alpha.value == 2
    assert rep.dist.value == 2
    assert (rep.fan_L, rep.fan_N) == (2, 2)


def test_unit_remainder_enters_polyhedron_but_blocks_face_certainty():
    m = parse_text("x1^2*x2^2\n@remainder exp=(3,1) unit")
    assert support(m) == frozenset({(2, 2), (3, 1)})
    out = analyze_germ(m, AnalysisOptions())
    assert out.report.kn.satisfied
    # every face touching the remainder exponent is underdetermined
    statuses = {k: v.status for k, v in out.report.face_verdicts.items()}
    assert statuses[((3, 1),)] == "inconclusive"
    assert statuses[((2, 2), (3, 1))] == "inconclusive"
    assert statuses[((2, 2),)] == "nondegenerate-exact"
    assert out.report.nondegeneracy_overall == "inconclusive"
    assert out.exit_code == 2


def test_unit_remainder_on_existing_term_is_underdetermined():
    m = TaylorModel.from_dict(
        2, {(2, 2): 1}, [RemainderDescriptor((2, 2), frozenset(), True)]
    )
    poly = build_polyhedron(support(m))
    verdicts, ok = check_model(m, poly)
    assert not ok
    assert all(v.status == "inconclusive" for v in verdicts.values())


def test_flat_remainder_only_germ_is_rejected():
    m = TaylorModel.from_dict(
        2, {}, [RemainderDescriptor((2, 0), frozenset({1}), False)]
    )
    with pytest.raises(InputError):
        analyze_germ(m, AnalysisOptions())


def test_germ_of_unit_remainders_only_audits_indeterminate(tmp_path, capsys):
    # f = 0 on every sample, so L1's right-hand side |f|^theta is 0 at every
    # level: the audit is indeterminate, with every sample excluded, where it
    # used to end the run with an input error (exit 3) and no report
    text = "@remainder exp=(2,0) unit\n@remainder exp=(0,2) unit"
    out = tmp_path / "report.json"
    assert main(["analyze", text, "--force", "--json", str(out)]) == 2
    assert main(["verify", text, "--theta", "1/2"]) == 0
    assert "audit L1 at exponent 0.5: indeterminate" in capsys.readouterr().out
    l1 = json.loads(out.read_text())["audits"][0]
    assert l1["inequality"] == "L1" and l1["verdict"] == "indeterminate" and l1["forced"]
    assert "zero right-hand side" in l1["note"]
    assert math.isnan(l1["min_ratio"]) and math.isnan(l1["max_ratio"])
    assert l1["kendall_tau"] is None and l1["empirical_slope"] is None
    # 256 random rows, 4 axis probes and the two diagonals of the two hat vertices
    assert {row["excluded"] for row in l1["envelope"]} == {264}
    assert all(math.isnan(row["min_ratio"]) for row in l1["envelope"])


def test_flat_remainder_does_not_perturb_faces():
    plain = parse_text("x1^2*x2^2")
    flat = parse_text("x1^2*x2^2\n@remainder exp=(2,0) flat=(x2)")
    out_plain = analyze_germ(plain, AnalysisOptions())
    out_flat = analyze_germ(flat, AnalysisOptions())
    assert out_flat.report.face_verdicts.keys() == out_plain.report.face_verdicts.keys()
    assert out_flat.report.nondegeneracy_overall == "nondegenerate"


def test_4d_unimodularization():
    m = parse_text(
        "x1^2*x2^2 + x2^2*x3^2 + x3^2*x4^2 + x1^2*x4^2 + x1^2*x3^2 + x2^2*x4^2"
    )
    poly = build_polyhedron(support(m))
    fan = unimodularize(simplicialize(normal_fan(poly)))
    assert all(
        len(c.rays) == 4 and abs(cone_det(fan.generators(c))) == 1
        for c in fan.maximal_cones()
    )
    validate_fan(fan)


def test_cli_verify_reports_failing_exponent(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "x^2 + y^2", "--theta", "0.4", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["audits"][0]["verdict"] == "fail"


def test_cli_empty_input_is_input_error():
    assert main(["analyze", "   "]) == 3


def test_deep_exponent_is_capped():
    from lojex.errors import CapExceededError

    with pytest.raises(CapExceededError):
        parse_text(f"x^{10**7}")


def test_fan_cap_checked_before_fan_work(monkeypatch, capsys):
    # above the unimodularization cap no fan is built: the normal fan and
    # its triangulation would only be thrown away
    def no_fan_work(*args, **kwargs):
        raise AssertionError("fan built above the unimodularization cap")

    monkeypatch.setattr(cli, "normal_fan", no_fan_work)
    monkeypatch.setattr(cli, "simplicialize", no_fan_work)
    m = parse_text("x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x1*x2*x3")
    out = analyze_germ(m, AnalysisOptions(), with_audits=False)
    assert "fan-unavailable: unimodularization is capped at dimension 4, got 5" in out.report.flags
    assert "fan" not in out.document
    assert (out.report.fan_L, out.report.fan_N) == (None, None)

    assert main(["fan", "x1^2 + x2^2 + x3^2 + x4^2 + x5^2"]) == 4
    assert capsys.readouterr().err == "error: unimodularization is capped at dimension 4, got 5\n"
