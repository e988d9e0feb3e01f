import json
import subprocess
import sys
from fractions import Fraction

import pytest

from lojex.cli import main
from lojex.errors import InputError, ParseError
from lojex.parser import model_to_text, parse_germ, parse_json, parse_text

from .conftest import subprocess_env


def test_parse_examples():
    m = parse_text("x1^2*x2^2")
    assert m.n == 2 and len(m.terms) == 1 and m.terms[0].exp == (2, 2)

    m = parse_text("x1^4 + x1*x2 + x2^4 + x1^4*x3^6")
    assert m.n == 3 and len(m.terms) == 4

    m = parse_text("x1^2*x2^2\n@remainder exp=(2,0) flat=(x2)")
    assert len(m.remainders) == 1
    r = m.remainders[0]
    assert r.exp == (2, 0) and r.flat_vars == frozenset({1}) and not r.is_unit


def test_parse_aliases_and_coefficients():
    m = parse_text("2*x^3 - 1/2*x*y^2 + y^4")
    assert m.n == 2
    coeffs = {t.exp: t.coeff for t in m.terms}
    assert coeffs[(3, 0)] == 2
    assert coeffs[(1, 2)] == Fraction(-1, 2)
    assert coeffs[(0, 4)] == 1


def test_parse_collects_like_terms():
    m = parse_text("x^2 + x^2 + y^2 - y^2")
    coeffs = {t.exp: t.coeff for t in m.terms}
    assert coeffs == {(2, 0): 2}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_text("x^2 + $")
    assert exc.value.line == 1 and exc.value.column == 7
    with pytest.raises(ParseError):
        parse_text("x^-2")
    with pytest.raises(ParseError):
        parse_text("x^2 +")
    with pytest.raises(ParseError):
        parse_text("@remainder exp=(1,0)")  # neither unit nor flat
    with pytest.raises(InputError):
        parse_text("")


def test_parse_json_roundtrip():
    doc = {
        "n": 2,
        "terms": [
            {"coeff": {"num": 1, "den": 1}, "exp": [2, 2]},
            {"coeff": "-3/2", "exp": [4, 0]},
        ],
        "remainders": [{"exp": [2, 0], "flat": [2]}],
    }
    m = parse_json(doc)
    assert {t.exp: t.coeff for t in m.terms} == {
        (2, 2): 1, (4, 0): Fraction(-3, 2)
    }
    assert m.remainders[0].flat_vars == frozenset({1})
    # dispatch on a JSON string too
    m2 = parse_germ(json.dumps(doc))
    assert m2 == m


def test_text_serialization_roundtrip():
    cases = [
        "x^2 + y^2",
        "2*x^3 - 1/2*x*y^2 + y^4",
        "x1^4 + x1*x2 + x2^4 + x1^4*x3^6",
        "x1^2*x2^2\n@remainder exp=(2,0) flat=(x2)",
        "x1^2*x2^2\n@remainder exp=(3,1) unit",
    ]
    for text in cases:
        model = parse_text(text)
        assert parse_text(model_to_text(model)) == model


def test_cli_analyze_circle(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "analyze", "x^2 + y^2", "--declare", "nonnegative", "--json", str(out)
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    exps = doc["exponents"]
    assert exps["theta"]["value"] == {"num": 1, "den": 2}
    assert exps["alpha"]["value"] == {"num": 2, "den": 1}
    assert exps["dist"]["value"] == {"num": 2, "den": 1}
    assert exps["fan_L"] == 2 and exps["fan_N"] == 2
    assert all(a["verdict"] == "pass" for a in doc["audits"])
    # schema: exact rationals as num/den objects, floats only inside audits
    assert set(exps["theta"]["value"]) == {"num", "den"}


def test_cli_exit_codes(tmp_path):
    assert main(["analyze", "x^2 - 2*x*y + y^2"]) == 2
    germ_file = tmp_path / "f1.germ"
    germ_file.write_text("x1^2*x2^2\n@remainder exp=(1,0) flat=(x2)\n")
    assert main(["analyze", str(germ_file)]) == 2
    assert main(["analyze", "x^2 + $"]) == 3
    assert main(["analyze", "x^2 + y^2", "--max-dim", "1"]) == 4
    assert main(["nonsense-command"]) == 3


def test_cli_kn_flat_family(tmp_path):
    for k, expected in ((1, 2), (2, 0), (3, 0)):
        germ_file = tmp_path / f"f{k}.germ"
        germ_file.write_text(f"x1^2*x2^2\n@remainder exp=({k},0) flat=(x2)\n")
        assert main(["exponents", str(germ_file)]) == expected


def test_cli_fan_dump(tmp_path):
    out = tmp_path / "fan.json"
    code = main(["fan", "x^3 + y^2", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert sorted(tuple(r) for r in doc["unimodular"]["rays"]) == [
        (0, 1), (1, 0), (1, 1), (1, 2), (2, 3)
    ]
    assert doc["exponents"]["L"] == 6 and doc["exponents"]["N"] == 9
    for cone in doc["unimodular"]["maximal_cones"]:
        assert abs(cone["det"]) == 1


def test_cli_nondegen(tmp_path):
    assert main(["nondegen", "x^3 + y^2"]) == 0
    assert main(["nondegen", "x^2 - 2*x*y + y^2"]) == 2


def test_cli_verify(tmp_path):
    out = tmp_path / "verify.json"
    code = main([
        "verify", "x^2 + y^2", "--theta", "1/2", "--alpha", "2", "--dist", "2",
        "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [a["verdict"] for a in doc["audits"]] == ["pass", "pass", "pass"]
    assert main(["verify", "x^2 + y^2"]) == 3  # needs an exponent


def test_cli_csv_envelopes(tmp_path):
    csv_path, json_path = tmp_path / "env.csv", tmp_path / "env.json"
    code = main([
        "analyze", "x^2 + y^2", "--declare", "nonnegative", "--csv", str(csv_path),
        "--json", str(json_path),
    ])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "inequality,exponent,radius,min_ratio,max_ratio,excluded"
    assert len(lines) > 16
    # only L0 leaves samples out: its monomial (one coordinate) vanishes on the
    # two probes along the other axis, each in the pool twice (axis and hat
    # vertex probes), at every level
    excluded = {line.split(",")[0]: int(line.split(",")[-1]) for line in lines[1:]}
    assert excluded == {"L1": 0, "L0": 4, "L2": 0, "euler-comparison": 0, "f-vs-g": 0}
    doc = json.loads(json_path.read_text())
    assert {a["inequality"]: {e["excluded"] for e in a["envelope"]} for a in doc["audits"]} == {
        k: {v} for k, v in excluded.items()
    }


def test_cli_force_runs_audits_on_failed_gates(tmp_path):
    out = tmp_path / "forced.json"
    code = main(["analyze", "x^2 - 2*x*y + y^2", "--force", "--json", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    eul = [a for a in doc["audits"] if a["inequality"] == "euler-comparison"]
    assert eul and eul[0]["forced"] and eul[0]["verdict"] == "fail"


def test_cli_declared_nonnegative_violation(tmp_path):
    out = tmp_path / "viol.json"
    code = main([
        "analyze", "x^3 + y^2", "--declare", "nonnegative", "--json", str(out)
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    flags = doc["exponents"]["flags"]
    assert any("declared-nonnegative-violated" in f for f in flags)
    assert doc["exponents"]["alpha"]["value"] is None


def test_cli_convex_shape_warning(tmp_path):
    out = tmp_path / "convex.json"
    code = main([
        "analyze", "x^2*y^2", "--declare", "convex", "--json", str(out)
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert any(
        "declared-convex-shape-violation" in f for f in doc["exponents"]["flags"]
    )


def test_cli_exit_codes_across_catalog(tmp_path):
    from .conftest import CATALOG

    expected = {name: 0 for name in CATALOG}
    expected["square_diff"] = 2  # degenerate face
    for name, text in CATALOG.items():
        assert main(["exponents", text]) == expected[name], name


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lojex.cli", "exponents", "x^2 + y^2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "theta = 1/2" in proc.stdout


def test_package_main():
    proc = subprocess.run(
        [sys.executable, "-m", "lojex", "exponents", "x^2 + y^2"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "theta = 1/2" in proc.stdout
