"""The exact fields of the `exponents`, `fan` and `nondegen` reports, pinned
by one digest.

Each command runs in-process on the test catalog and on the germs whose
face verdicts `test_nondegeneracy.NUMERIC_PINS` pins.  The exit code and the
JSON report are kept with every float left out: witnesses, residuals, and
the detail of a face whose residual is finite, since the multistart writes
its residual into that string.  What remains is exact: the polyhedron, the
faces with their statuses and exact-route details, theta/alpha/dist with
their reasons and fallbacks, L, N and the fans.  A change to any of them
must update the digest here and say which fields moved.

`AUDIT_DIGEST` pins the audits of `analyze` on the same germs, with and
without `--force`, through the same filter: each audit keeps its
inequality, verdict, forced flag, note and per-level `excluded` counts
(and any field that is null, such as the Kendall tau of a flat envelope).
Audit floats may move by a few ulp when the summation order changes;
these fields may not.
"""

import contextlib
import hashlib
import io
import json

from lojex.cli import main

from .conftest import CATALOG
from .test_nondegeneracy import NUMERIC_PINS

REPORT_DIGEST = "d24fe8536e52c5765d58f3b48a3243394f56d464eb44a392d5ec9b487c110984"
AUDIT_DIGEST = "a37097e96754e340d64f5b8695d019f9f4e0300e4988325e8124948500f35622"


def _exact(node):
    """The report without its floats; a face keeps its detail only when the
    verdict carries no residual."""
    if isinstance(node, dict):
        out = {k: _exact(v) for k, v in node.items() if not isinstance(v, float)}
        if "status" in node and node.get("residual") is not None:
            out.pop("detail", None)
        return out
    if isinstance(node, list):
        return [_exact(v) for v in node if not isinstance(v, float)]
    return node


def _report(argv: list[str], path) -> tuple[int, dict | None]:
    path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--json", str(path)])
    return code, json.loads(path.read_text()) if path.exists() else None


def _run(command: str, germ: str, path) -> list:
    code, doc = _report([command, germ], path)
    return [command, germ, code, _exact(doc)]


def _digest(docs: list) -> str:
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_report_digest(tmp_path):
    germs = sorted(set(CATALOG.values()) | set(NUMERIC_PINS))
    path = tmp_path / "report.json"
    docs = [_run(cmd, g, path) for g in germs for cmd in ("exponents", "fan", "nondegen")]
    assert _digest(docs) == REPORT_DIGEST


def test_audit_verdict_digest(tmp_path):
    germs = sorted(set(CATALOG.values()) | set(NUMERIC_PINS))
    path = tmp_path / "report.json"
    docs = []
    for g in germs:
        for flags in ([], ["--force"]):
            code, doc = _report(["analyze", g, *flags], path)
            docs.append([g, flags, code, _exact(doc["audits"]) if doc else None])
    assert _digest(docs) == AUDIT_DIGEST
