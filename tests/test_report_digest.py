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
"""

import contextlib
import hashlib
import io
import json

from lojex.cli import main

from .conftest import CATALOG
from .test_nondegeneracy import NUMERIC_PINS

REPORT_DIGEST = "eb4c14fa8b4b8969708ac82dce3f56cbb8783fe36a13cf39845eda675cefcfb0"


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


def _run(command: str, germ: str, path) -> list:
    path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, germ, "--json", str(path)])
    doc = json.loads(path.read_text()) if path.exists() else None
    return [command, germ, code, _exact(doc)]


def test_exact_report_digest(tmp_path):
    germs = sorted(set(CATALOG.values()) | set(NUMERIC_PINS))
    path = tmp_path / "report.json"
    docs = [_run(cmd, g, path) for g in germs for cmd in ("exponents", "fan", "nondegen")]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGEST
