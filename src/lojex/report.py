"""JSON report assembly.

Schema conventions: exact rationals are emitted as {"num": int, "den": int};
plain integers stay integers; floats appear only inside audit sections.
Variable index sets (J, I_f, transversal members, flat variables, rankings)
are emitted 1-based to match the x1..xn input syntax.

A report is written as one line of compact JSON (no indent, no spaces
after separators) and a newline, by one call of the C encoder.  NaN and
Infinity are written as the json module writes them.  `python -m json.tool`
pretty-prints a report.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from .audit import AuditResult
    from .exponents import ExponentReport
    from .fan import Fan, FanExponents
    from .nondegeneracy import DegeneracyVerdict
    from .polyhedron import NewtonPolyhedron
    from .taylor import TaylorModel


def frac_json(x: Fraction | int | None) -> Any:
    if x is None:
        return None
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def _vars_1based(indices) -> list[int]:
    return [i + 1 for i in sorted(indices)]


def model_json(model: TaylorModel) -> dict:
    return {
        "n": model.n,
        "terms": [
            {"coeff": frac_json(t.coeff), "exp": list(t.exp)}
            for t in sorted(model.terms, key=lambda t: t.exp)
        ],
        "remainders": [
            {
                "exp": list(r.exp),
                **({"unit": True} if r.is_unit else {"flat": _vars_1based(r.flat_vars)}),
            }
            for r in model.remainders
        ],
    }


def polyhedron_json(poly: NewtonPolyhedron) -> dict:
    return {
        "n": poly.n,
        "vertices": [list(v) for v in sorted(poly.vertices)],
        "facets": [
            {"normal": list(f.normal), "offset": f.offset} for f in poly.facets
        ],
    }


def fan_json(fan: Fan, ray_values: Sequence[int]) -> dict:
    """The fan's rays and maximal cones, each cone with the support values
    of its rays, read from `ray_values` (one per ray of the fan)."""
    cones = []
    for cone, det in zip(fan.maximal_cones(), fan.dets):
        entry: dict[str, Any] = {"rays": list(cone.rays)}
        if det is not None:
            entry["det"] = det
        entry["l_values"] = [ray_values[i] for i in cone.rays]
        if cone.attached_face is not None:
            entry["attached_vertices"] = [list(v) for v in sorted(cone.attached_face)]
        cones.append(entry)
    return {
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": cones,
        "cone_count": len(fan.cones),
    }


def fan_exponents_json(fx: FanExponents) -> dict:
    return {
        "per_cone": [
            {
                "cone": c.cone_index,
                "l_values": list(c.l_values),
                "l_sigma": c.l_sigma,
                "n_sigma": c.n_sigma,
            }
            for c in fx.per_cone
        ],
        "L": fx.L,
        "N": fx.N,
    }


def _verdict_json(key, verdict: DegeneracyVerdict) -> dict:
    return {
        "lattice_points": [list(p) for p in key],
        "status": verdict.status,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "residual": None if verdict.residual == float("inf") else verdict.residual,
        "detail": verdict.detail,
    }


def exponent_report_json(rep: ExponentReport) -> dict:
    conv = rep.convenience
    fam = rep.transversal
    out: dict[str, Any] = {
        "kn": {
            "satisfied": rep.kn.satisfied,
            "remainders": [
                {
                    "exp": list(c.exp),
                    "kind": "unit" if c.is_unit else "flat",
                    "flat": _vars_1based(c.flat_vars),
                    "ok": c.ok,
                    "reason": c.reason,
                }
                for c in rep.kn.remainders
            ],
        },
        "nondegeneracy": {
            "overall": rep.nondegeneracy_overall,
            "faces": [
                _verdict_json(key, v) for key, v in sorted(rep.face_verdicts.items())
            ],
        },
        "convenience": {
            "convenient": conv.convenient,
            "partially_convenient": conv.partially_convenient,
            "J": _vars_1based(conv.J),
            "nu": {str(i + 1): v for i, v in conv.nu},
            "nu_max": conv.nu_max,
        },
        "transversals": {
            "I_f": _vars_1based(fam.I_f),
            "hat_supports": [_vars_1based(s) for s in fam.supports],
            "lambda_exact": [_vars_1based(j) for j in fam.lambda_exact],
            "lambda_hitting": [_vars_1based(j) for j in fam.lambda_hitting],
            "agree": fam.agree,
        },
        "theta": {
            "value": frac_json(rep.theta.value),
            "reason": rep.theta.reason,
            "fallback": frac_json(rep.theta.fallback),
        },
        "alpha": {
            "value": frac_json(rep.alpha.value),
            "reason": rep.alpha.reason,
            "fallback": rep.alpha.fallback,
            "per_hat_vertex": [
                {"hat_vertex": list(v), "d": frac_json(d)}
                for v, d in rep.alpha.per_hat_vertex
            ],
            "witness_hat_vertex": list(rep.alpha.witness) if rep.alpha.witness else None,
        },
        "dist": {
            "value": frac_json(rep.dist.value),
            "reason": rep.dist.reason,
            "fallback": rep.dist.fallback,
            "transversal_family_extended": rep.dist.extended,
            "per_ranking": [
                {
                    "order": _vars_1based_list(r.order),
                    "i_rho": r.i_rho + 1,
                    "vertices": [list(v) for v in r.vertices],
                    "exponent": r.exponent,
                }
                for r in rep.dist.per_ranking
            ],
        },
        "combined": (
            None
            if rep.combined is None
            else {
                "theta": frac_json(rep.combined.theta),
                "alpha": frac_json(rep.combined.alpha),
                "dist": frac_json(rep.combined.dist),
            }
        ),
        "fan_L": rep.fan_L,
        "fan_N": rep.fan_N,
        "convex_vertex_shape": rep.convex_vertex_shape,
        "hypotheses": {
            "kn": rep.hypotheses.kn,
            "nondegenerate": rep.hypotheses.nondegenerate,
            "nonnegative": rep.hypotheses.nonnegative,
        },
        "flags": list(rep.flags),
    }
    return out


def _vars_1based_list(indices) -> list[int]:
    """Order-preserving 1-based conversion (for rankings)."""
    return [i + 1 for i in indices]


def audit_json(result: AuditResult) -> dict:
    from .audit import envelope_rows

    return {
        "inequality": result.inequality,
        "exponent": result.exponent,
        "verdict": result.verdict,
        "forced": result.forced,
        "min_ratio": result.min_ratio,
        "max_ratio": result.max_ratio,
        "empirical_slope": result.empirical_slope,
        "kendall_tau": None if result.kendall_tau != result.kendall_tau else result.kendall_tau,
        "kendall_tau_upper": (
            None if result.kendall_tau_upper != result.kendall_tau_upper
            else result.kendall_tau_upper
        ),
        "envelope": [
            {"radius": r, "min_ratio": mn, "max_ratio": mx, "excluded": k}
            for (r, mn, mx), k in zip(envelope_rows(result), result.excluded)
        ],
        "note": result.note,
    }


def audits_csv(results: list[AuditResult]) -> str:
    from .audit import envelope_rows

    lines = ["inequality,exponent,radius,min_ratio,max_ratio,excluded"]
    for res in results:
        exp = "" if res.exponent is None else repr(res.exponent)
        for (r, mn, mx), k in zip(envelope_rows(res), res.excluded):
            lines.append(f"{res.inequality},{exp},{r!r},{mn!r},{mx!r},{k}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# writing

# encode takes the C encoder in one shot; json.dump streams through
# iterencode, which runs in pure Python up to CPython 3.12.  No report holds
# a cycle, so the cycle check is off
_ENCODER = json.JSONEncoder(check_circular=False, separators=(",", ":"))


def write_json(doc: Any, fh) -> None:
    """Write `doc` to `fh` as one line of compact JSON and a newline."""
    fh.write(_ENCODER.encode(doc) + "\n")
