"""The operations of the workloads: one germ through one lojex command.

Every operation is `lojex.cli.main` called in-process with the command's
arguments, standard output captured, writing its `--json` report to a
file, as `lojex <command> <germ> --json <file>` does.  `summarize` keeps,
outside the timed region, the part of the report the checks read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import resource
from fractions import Fraction

import lojex.cli

from corpus import LOJEX_SEED, STARTS, Case


def cli_argv(case: Case, json_path: str) -> list[str]:
    return [case.command, case.germ, "--json", json_path, "--seed", str(LOJEX_SEED),
            "--starts", str(STARTS), *case.args]


def run_case(case: Case, json_path: str) -> int:
    """The exit code of the case's command; the report is at json_path."""
    with contextlib.redirect_stdout(io.StringIO()):
        return lojex.cli.main(cli_argv(case, json_path))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# what the checks read from a report

def _frac(value) -> Fraction | None:
    if value is None:
        return None
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    return Fraction(value)


def summarize(doc: dict, exit_code: int) -> dict:
    """The values the checks need, small enough to keep for every case."""
    out: dict = {"exit_code": exit_code}
    poly = doc.get("polyhedron")
    if poly is not None:
        out["n"] = poly["n"]
        out["vertices"] = [tuple(v) for v in poly["vertices"]]
        out["facets"] = [(tuple(f["normal"]), f["offset"]) for f in poly["facets"]]
    exps = doc.get("exponents")
    if exps is not None and "theta" in exps:
        out["theta"] = _frac(exps["theta"]["value"])
        out["alpha"] = _frac(exps["alpha"]["value"])
        out["dist"] = _frac(exps["dist"]["value"])
        out["hypotheses"] = dict(exps["hypotheses"])
        out["flags"] = list(exps["flags"])
        faces = exps["nondegeneracy"]["faces"]
    else:
        faces = doc.get("faces", [])
    out["faces"] = [
        (tuple(tuple(p) for p in f["lattice_points"]), f["status"],
         None if f["witness"] is None else tuple(f["witness"]))
        for f in faces
    ]
    fan = doc.get("unimodular") or (doc.get("fan") or {}).get("unimodular")
    out["has_fan"] = "fan" in doc or "unimodular" in doc
    if fan is not None:
        out["fan_rays"] = [tuple(r) for r in fan["rays"]]
        out["fan_cones"] = [tuple(c["rays"]) for c in fan["maximal_cones"]]
    if "overall_nondegenerate" in doc:
        out["overall_nondegenerate"] = doc["overall_nondegenerate"]
    out["audits"] = [(a["inequality"], a["verdict"]) for a in doc.get("audits", [])]
    return out

