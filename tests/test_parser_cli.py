import io
import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import lojex.cli
import lojex.report
from lojex.cli import AnalysisOptions, main
from lojex.errors import InputError, ParseError
from lojex.parser import model_to_text, parse_germ, parse_json, parse_text

from .conftest import run_lojex, run_python, subprocess_env


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


def test_parse_long_line_in_time():
    # padding every exponent collected so far again for each new term made
    # this line take 16-19 s on a 2-core VM; padding each term once, 0.7 s
    rng = random.Random(10_000)
    exps = rng.sample(list(itertools.product(range(1, 23), repeat=3)), 9997)
    text = " + ".join(f"{rng.randint(1, 9)}*x^{a}*y^{b}*z^{c}" for a, b, c in exps)
    start = time.perf_counter()
    m = parse_text(text)
    assert time.perf_counter() - start < 5
    assert m.n == 3 and len(m.terms) == 9997


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
    # malformed JSON germs and flag values are input errors, not tracebacks;
    # a float or bool exponent is not truncated to an integer
    for text in (
        '{"terms":[{"coeff":1,"exp":[2.5,2]},{"coeff":1,"exp":[0,2]}]}',
        '{"terms":[{"coeff":1,"exp":[true,2]},{"coeff":1,"exp":[0,2]}]}',
        '{"terms":[{"coeff":1}]}',
        '{"terms":5}',
        '{"terms":[{"coeff":{"num":1,"den":0},"exp":[2,2]}]}',
        '{"terms":[{"coeff":"abc","exp":[2,2]}]}',
        '{"n":"2","terms":[{"coeff":1,"exp":[2,2]}]}',
        '{"terms":[{"coeff":1,"exp":[2,2]}],"remainders":[{"exp":[2,0],"flat":[true]}]}',
        # a present "n" is a JSON integer >= 1, not a falsy value to infer over
        '{"n":0,"terms":[{"coeff":1,"exp":[2,2]}]}',
        '{"n":false,"terms":[{"coeff":1,"exp":[2,2]}]}',
        '{"n":null,"terms":[{"coeff":1,"exp":[2,2]}]}',
        # "unit" is a JSON boolean, and a unit is not also flat
        '{"terms":[{"coeff":1,"exp":[2,2]}],"remainders":[{"exp":[2,0],"unit":1}]}',
        '{"terms":[{"coeff":1,"exp":[2,2]}],"remainders":[{"exp":[2,0],"unit":"yes"}]}',
        '{"terms":[{"coeff":1,"exp":[2,2]}],"remainders":[{"exp":[2,0],"unit":true,"flat":[1]}]}',
    ):
        assert main(["analyze", text]) == 3, text
    for flags in (["--theta", "abc"], ["--dist", "1/0"], ["--theta", "1/2", "--samples", "-1"],
                  ["--theta", "1/2", "--seed", "-1"], ["--theta", "1/2", "--radius", "inf"]):
        assert main(["verify", "x^2 + y^2", *flags]) == 3, flags
    # every command rejects a bad flag value, also one it does not read or uses
    # only to sample the sign of a declared-nonnegative germ: radius 0 sampled
    # only the origin and certified x^4 - y^4, fan exited 0 on --tol nan and
    # --starts 0, and --max-dim -1 exited 4
    for flags in (["--radius", "nan"], ["--radius", "-1"], ["--radius", "0"], ["--tol", "-1"],
                  ["--tol", "nan"], ["--starts", "0"], ["--max-dim", "-1"]):
        for command in ("analyze", "exponents", "fan", "nondegen", "verify"):
            theta = ["--theta", "1/2"] if command == "verify" else []
            argv = [command, "x^4 - y^4", "--declare", "nonnegative", *flags, *theta]
            assert main(argv) == 3, argv
    # a NaN tolerance used to certify the planted degenerate face
    assert main(["nondegen", "x^2*y^2 - 2*x*y*z^2 + z^4 + x^6 + y^6 + z^6", "--tol", "nan"]) == 3
    for command in ("analyze", "fan", "nondegen"):
        assert main([command, "x^2 + y^2", "--max-dim", "1"]) == 4, command
    assert main(["nonsense-command"]) == 3
    # unreadable input paths are input errors too, not tracebacks
    not_utf8 = tmp_path / "bytes.germ"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (tmp_path, not_utf8):
        assert main(["exponents", str(path)]) == 3, path
    # an unknown flag, and --theta outside verify
    assert main(["analyze", "x^2 + y^2", "--bogus"]) == 3
    assert main(["analyze", "x^2 + y^2", "--theta", "1/2"]) == 3


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


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _plain(value):
    """`value` as json.loads gives it back: tuples as lists, and NaN, which
    equals nothing, as a marker."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return "NaN marker"
    return value


def _check_report(text: str, doc) -> None:
    """`text` is `doc` written as one line of compact JSON and a newline."""
    assert text == _compact(doc) + "\n"
    assert "\n" not in text[:-1]
    assert _plain(json.loads(text)) == _plain(doc)


def test_fan_command_is_the_analyze_fan_section(tmp_path):
    from .conftest import CATALOG

    fan_out, analyze_out = tmp_path / "fan.json", tmp_path / "analyze.json"
    for text in (*CATALOG.values(), "x^4 + y^5 + z^7"):
        main(["analyze", text, "--json", str(analyze_out)])
        assert main(["fan", text, "--json", str(fan_out)]) == 0, text
        analyzed = json.loads(analyze_out.read_text())
        expected = {"polyhedron": analyzed["polyhedron"], **analyzed["fan"]}
        _check_report(fan_out.read_text(), expected)


# a germ with no polynomial part: f = 0 on every sample, so its audits
# write NaN ratios
REMAINDERS_ONLY = "@remainder exp=(2,0) unit\n@remainder exp=(0,2) unit"


def test_report_is_one_compact_line_of_the_built_document(tmp_path, capsys, monkeypatch):
    # the file holds the compact encoding of the document the command
    # built and a newline, on one line, and parses back to that document,
    # on every command, with and without --force
    from .conftest import CATALOG
    from .test_nondegeneracy import NUMERIC_PINS

    built = []
    write_json = lojex.report.write_json

    def recording(doc, fh):
        built.append(doc)
        write_json(doc, fh)

    monkeypatch.setattr(lojex.report, "write_json", recording)
    out = tmp_path / "report.json"
    germs = sorted(set(CATALOG.values()) | set(NUMERIC_PINS)) + [REMAINDERS_ONLY]
    for text in germs:
        for argv in (["analyze"], ["analyze", "--force"], ["exponents"], ["fan"], ["nondegen"],
                     ["verify", "--theta", "1/2", "--alpha", "2", "--dist", "2"]):
            built.clear()
            main([argv[0], text, *argv[1:], "--json", str(out)])
            capsys.readouterr()
            if argv[0] == "fan" and not built:
                continue  # above the fan's dimension cap: no report
            doc, = built
            _check_report(out.read_text(encoding="utf-8"), doc)
    # on stdout the report is the last line, after the summary
    built.clear()
    main(["analyze", REMAINDERS_ONLY, "--force", "--json", "-"])
    doc, = built
    printed = capsys.readouterr().out
    assert printed.count("\n") > 1
    _check_report(printed.splitlines(keepends=True)[-1], doc)
    assert "NaN" in printed.splitlines()[-1]


@pytest.mark.parametrize("c_encoder", [True, False])
def test_report_writer_matches_json_dumps(monkeypatch, c_encoder):
    if not c_encoder:
        # the pure-Python encoder, as on an interpreter built without _json
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    docs = [
        {}, [], (), 0, "x", None, True, -1.5, math.nan,
        [math.inf, -math.inf, -0.0, 5e-324, 1e300],
        {"a": [], "b": {}, "c": [[], {}, [[]], [{}]], "d": ({"e": ()},)},
        {"\u00e9\u2603": "\u00fc \x00\t\"\\\n", "big": 10**300 + 1, "neg": -(2**64)},
        {"leaf": [True, False, None, 1, -2, 0.1, "s", 2**70]},
        [[1, 2], [3, [4, {"k": (5, 6)}]], {"x": {"y": {"z": [None]}}}],
        (1, (2, 3), "t", {"u": (True, [])}),
        [list(range(3000)), [[k, -k] for k in range(3000)]],
    ]
    for doc in docs:
        out = io.StringIO()
        lojex.report.write_json(doc, out)
        _check_report(out.getvalue(), doc)


def test_exact_commands_never_import_numpy(tmp_path):
    # a fresh interpreter, so that imports made by other tests cannot hide
    # one; numpy is for the audits, the multistart and the declared-sign
    # sampler.  No catalog germ reaches the last two, nor does any germ of
    # NUMERIC_PINS, whose planted face is degenerate: its witness is placed
    # exactly.  The texts go in through argv, since importing the test
    # module that holds them loads numpy
    from .conftest import CATALOG
    from .test_nondegeneracy import NUMERIC_PINS

    report = tmp_path / "analyze.json"
    texts = [*CATALOG.values(), *NUMERIC_PINS]
    assert "x^2*y^2 - 2*x*y*z^2 + z^4 + x^6 + y^6 + z^6" in texts
    exact = [[cmd, text] for text in texts for cmd in ("exponents", "fan", "nondegen")]
    code = (
        "import contextlib, io, json, sys\n"
        "import lojex\n"
        "print('numpy' in sys.modules)\n"
        "from lojex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in json.loads(sys.argv[1]):\n"
        "        main(argv)\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['analyze', 'x^2 + y^4', '--json', sys.argv[2]])\n"
        "print('numpy' in sys.modules)\n"
        "print(lojex.audit_L1 is sys.modules['lojex.audit'].audit_L1)\n"
    )
    proc = run_python("-c", code, json.dumps(exact), str(report))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "True"]
    # the audits written after the lazy import are those of a warm process
    again = tmp_path / "again.json"
    main(["analyze", "x^2 + y^4", "--json", str(again)])
    assert json.loads(report.read_text())["audits"]
    assert report.read_bytes() == again.read_bytes()


def test_import_and_exponents_load_neither_dataclasses_nor_inspect():
    # a fresh interpreter; only the modules lojex adds count, so a site hook
    # that loads either module before it cannot fail the test.  Records come
    # from lojex.record, whose classes compile one __init__ each
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import lojex\n"
        "from lojex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['exponents', 'x^3*y + y^3*z + z^3*x']) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_reuses_one_parser(monkeypatch):
    def no_new_parser():
        raise AssertionError("main built a new argument parser")

    monkeypatch.setattr(lojex.cli, "_build_argparser", no_new_parser)
    assert main(["exponents", "x^2 + y^2"]) == 0


def test_declare_does_not_leak_between_calls(tmp_path):
    declared, plain = tmp_path / "declared.json", tmp_path / "plain.json"
    main(["analyze", "x^3 + y^2", "--declare", "nonnegative", "--json", str(declared)])
    main(["analyze", "x^3 + y^2", "--json", str(plain)])
    declared_flags = json.loads(declared.read_text())["exponents"]["flags"]
    plain_flags = json.loads(plain.read_text())["exponents"]["flags"]
    assert any("declared-nonnegative-violated" in f for f in declared_flags)
    assert not any(f.startswith("declared-") for f in plain_flags)
    assert lojex.cli._PARSER.parse_args(["analyze", "x"]).declare == []


def test_parsed_defaults_are_the_analysis_defaults():
    for command in ("analyze", "exponents", "fan", "nondegen", "verify"):
        args = lojex.cli._PARSER.parse_args([command, "x^2 + y^2"])
        assert lojex.cli._opts_from_args(args) == AnalysisOptions(), command


# the names a span tracer wraps to time each layer; the pipeline has to look
# each of them up on its module at call time, or the layer's time reads 0
TRACED_CLI_NAMES = (
    "analyze_germ", "build_polyhedron", "check_model", "hat_polyhedron", "check_kn",
    "normal_fan", "simplicialize", "unimodularize", "fan_exponents", "transversals",
    "dist_exponent", "_emit",
)
TRACED_REPORT_NAMES = (
    "model_json", "polyhedron_json", "fan_json", "fan_exponents_json",
    "exponent_report_json", "audit_json", "_verdict_json",
)


def test_pipeline_calls_traced_names_through_their_modules(monkeypatch, tmp_path):
    calls: dict[str, list] = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    for module, names in ((lojex.cli, TRACED_CLI_NAMES), (lojex.report, TRACED_REPORT_NAMES)):
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    out = str(tmp_path / "report.json")
    for argv in (["analyze", "x^2 + y^4"], ["fan", "x^3 + y^2"],
                 ["nondegen", "x^2 - 2*x*y + y^2"], ["verify", "x^2 + y^2", "--theta", "1/2"]):
        main([*argv, "--json", out])
    assert sorted(calls) == sorted(TRACED_CLI_NAMES + TRACED_REPORT_NAMES)
    # the tracer's wrappers read these arguments positionally
    for args, kwargs in calls["_emit"]:
        assert len(args) == 3 and not kwargs and args[1].json_path == out
    for args, kwargs in calls["unimodularize"]:
        assert len(args) == 1 and set(kwargs) <= {"trace"}


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


def test_verify_builds_no_fan():
    # verify builds no fan: this germ's unimodularization did not finish in 20 s
    start = time.perf_counter()
    proc = run_lojex("verify", "x^60 + y^70 + z^80 + x^7*y^11*z^13", "--theta", "1/2")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10, elapsed


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
    # a run with no audit writes the header alone over the table above
    for argv, want in ((["exponents", "x^2 + y^2"], 0), (["analyze", "x^2 - 2*x*y + y^2"], 2)):
        main(["analyze", "x^2 + y^2", "--csv", str(csv_path)])
        assert len(csv_path.read_text().splitlines()) > 1
        assert main([*argv, "--csv", str(csv_path)]) == want
        assert csv_path.read_text() == lines[0] + "\n", argv


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
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "theta = 1/2" in proc.stdout


def test_package_main():
    proc = run_lojex("exponents", "x^2 + y^2")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "theta = 1/2" in proc.stdout
