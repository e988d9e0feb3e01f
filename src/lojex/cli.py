"""Command-line interface and pipeline orchestration.

Commands:
  analyze   full pipeline: polyhedron -> fan -> KN -> non-degeneracy ->
            exponents -> numeric audits, plus a JSON report
  exponents same pipeline without the audits
  fan       dump the normal fan and its unimodular refinement
  nondegen  per-face non-degeneracy verdicts only
  verify    audits only, with user-supplied exponents

Exit codes: 0 success; 2 a hypothesis gate failed (KN or non-degeneracy;
the report is still written); 3 input error; 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import report as report_mod
from .errors import CapExceededError, InputError, LojexError
from .exponents import (
    ExponentReport,
    Hypotheses,
    alpha_exponent,
    check_kn,
    combined_case,
    convenience,
    convex_shape,
    dist_exponent,
    theta,
    transversals,
)
from .fan import (
    FanExponents,
    check_unimodularize_dim,
    fan_exponents,
    normal_fan,
    simplicialize,
    unimodularize,
)
from .nondegeneracy import DEFAULT_STARTS, DEFAULT_TOL, check_model
from .parser import model_to_text, parse_germ
from .polyhedron import build_polyhedron, hat_polyhedron
from .record import record
from .taylor import TaylorModel, support

if TYPE_CHECKING:
    from .audit import Sample

# numpy is loaded by the audits and the declared-sign sampler alone: they
# import lojex.audit when they run, and look its functions up on the module
# at call time, so that a wrapper set on lojex.audit is the one called


@record
class AnalysisOptions:
    declare_nonnegative: bool = False
    declare_convex: bool = False
    seed: int = 0
    tol: float = DEFAULT_TOL
    starts: int = DEFAULT_STARTS
    samples: int = 256
    radius: float = 0.1
    force: bool = False
    max_dim: int | None = None


@record
class AnalysisOutcome:
    document: dict
    exit_code: int
    report: ExponentReport | None
    audits: list


def _provably_nonnegative(model: TaylorModel) -> bool:
    """Positive combinations of even monomials are non-negative outright.

    Remainder factors have unknown sign, so their presence blocks the
    certificate.
    """
    if model.remainders:
        return False
    return all(
        t.coeff > 0 and all(e % 2 == 0 for e in t.exp) for t in model.terms
    )


def _fan_section(poly) -> tuple[dict, FanExponents]:
    """The report's fan section (both fans and their exponents) and the exponents."""
    # the cap is checked before the normal fan and the triangulation, which
    # would otherwise be built and then dropped
    check_unimodularize_dim(poly.n)
    sigma0 = normal_fan(poly)
    sigma = unimodularize(simplicialize(sigma0))
    fanexp = fan_exponents(sigma, poly)
    # the refinement's ray table begins with the normal fan's
    section = {
        "normal": report_mod.fan_json(sigma0, fanexp.ray_values),
        "unimodular": report_mod.fan_json(sigma, fanexp.ray_values),
    }
    section["exponents"] = report_mod.fan_exponents_json(fanexp)
    return section, fanexp


def _check_max_dim(model: TaylorModel, opts: AnalysisOptions) -> None:
    """Raise CapExceededError when the germ has more variables than --max-dim."""
    if opts.max_dim is not None and model.n > opts.max_dim:
        raise CapExceededError(f"dimension {model.n} exceeds --max-dim {opts.max_dim}")


def analyze_germ(
    model: TaylorModel, opts: AnalysisOptions, with_audits: bool = True
) -> AnalysisOutcome:
    _check_max_dim(model, opts)
    flags: list[str] = []
    supp = support(model)
    poly = build_polyhedron(supp)
    hat = hat_polyhedron(poly)

    kn = check_kn(model, poly)
    verdicts, nondeg_ok = check_model(
        model, poly, tol=opts.tol, starts=opts.starts, seed=opts.seed
    )
    if nondeg_ok:
        overall = "nondegenerate"
    elif any(v.status == "degenerate" for v in verdicts.values()):
        overall = "degenerate"
    else:
        overall = "inconclusive"

    fan_doc, fan_L, fan_N = None, None, None
    try:
        fan_doc, fanexp = _fan_section(poly)
        fan_L, fan_N = fanexp.L, fanexp.N
    except CapExceededError as exc:
        flags.append(f"fan-unavailable: {exc}")

    nonnegative = opts.declare_nonnegative or opts.declare_convex
    if nonnegative:
        from . import audit as audit_mod

        witness = audit_mod._sampled_negative(model, opts.seed, opts.radius)
        if witness is not None:
            nonnegative = False
            flags.append(
                "declared-nonnegative-violated: sampled f < 0 at "
                + "(" + ", ".join(f"{x:.4g}" for x in witness) + ")"
            )
    elif _provably_nonnegative(model):
        nonnegative = True
        flags.append("nonnegative-auto-certified: positive combination of even monomials")
    shape_ok = convex_shape(poly)
    if opts.declare_convex and not shape_ok:
        flags.append(
            "declared-convex-shape-violation: a convex germ must have only "
            "even axis vertices"
        )

    conv = convenience(poly)
    fam = transversals(hat)
    hyp = Hypotheses(kn.satisfied, nondeg_ok, nonnegative)
    theta_res = theta(conv, hyp, fan_N)
    alpha_res = alpha_exponent(poly, hat, hyp, fan_L)
    dist_res = dist_exponent(poly, fam, hyp, fan_N)
    if dist_res.extended:
        flags.append("transversal-family-extended")
    combined = combined_case(conv, fam, theta_res, alpha_res, dist_res, hyp)

    report = ExponentReport(
        kn=kn,
        nondegeneracy_overall=overall,
        face_verdicts=verdicts,
        convenience=conv,
        transversal=fam,
        theta=theta_res,
        alpha=alpha_res,
        dist=dist_res,
        combined=combined,
        fan_L=fan_L,
        fan_N=fan_N,
        convex_vertex_shape=shape_ok,
        hypotheses=hyp,
        flags=tuple(flags),
    )

    gates_ok = kn.satisfied and nondeg_ok
    audits = []
    if with_audits and (gates_ok or opts.force):
        audits = _run_audits(model, poly, report, opts, gates_ok)

    doc = {
        "input": report_mod.model_json(model),
        "polyhedron": report_mod.polyhedron_json(poly),
        "hat_polyhedron": report_mod.polyhedron_json(hat),
        "exponents": report_mod.exponent_report_json(report),
        "audits": [report_mod.audit_json(a) for a in audits],
    }
    if fan_doc is not None:
        doc["fan"] = fan_doc
    exit_code = 0 if gates_ok else 2
    return AnalysisOutcome(doc, exit_code, report, audits)


def _sample(
    model: TaylorModel, hat_vertices, opts: AnalysisOptions, points=()
) -> Sample:
    """The audits' shared sample, probed on the diagonals through the hat
    vertices and then through `points`."""
    from . import audit as audit_mod

    plan = audit_mod.SamplePlan(
        radii=audit_mod._default_radii(opts.radius, opts.radius * 1e-3, 16),
        directions_per_radius=opts.samples,
        seed=opts.seed,
    )
    probes = [p for v in [*hat_vertices, *points] for p in audit_mod.diagonal_probe(v)]
    return audit_mod.Sample(model, plan, probes)


def _run_audits(
    model: TaylorModel,
    poly,
    report: ExponentReport,
    opts: AnalysisOptions,
    gates_ok: bool,
) -> list:
    from . import audit as audit_mod

    forced = not gates_ok
    # degenerate-face witnesses are the directions where the comparison
    # lemmas break down: probe them explicitly under --force
    sample = _sample(model, [v for v, _ in report.alpha.per_hat_vertex], opts, [
        v.witness for v in report.face_verdicts.values()
        if v.status == "degenerate" and v.witness is not None
    ])
    audits = []

    theta_exp = report.theta.value if report.theta.value is not None else report.theta.fallback
    if theta_exp is not None:
        audits.append(audit_mod.audit_L1(sample, theta_exp, forced=forced))

    # under --force, an exponent that a gate blocks is audited at its formula
    alpha, dist = report.alpha, report.dist
    alpha_exp = alpha.formula if opts.force else alpha.value
    if alpha_exp is not None and alpha.witness is not None:
        audits.append(
            audit_mod.audit_L0(
                sample, alpha.witness, alpha_exp, forced=forced or alpha.value is None
            )
        )

    dist_exp = dist.formula if opts.force else dist.value
    if dist_exp is not None:
        audits.append(
            audit_mod.audit_L2(
                sample, dist_exp, report.transversal, forced=forced or dist.value is None
            )
        )

    audits.append(audit_mod.audit_euler_comparison(sample, poly, forced=forced))
    if report.hypotheses.nonnegative or opts.force:
        audits.append(
            audit_mod.audit_f_vs_g(
                sample, poly, forced=forced or not report.hypotheses.nonnegative
            )
        )
    return audits


# ---------------------------------------------------------------------------
# commands

def _fmt_frac(x) -> str:
    if x is None:
        return "n/a"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _summarize(outcome: AnalysisOutcome, out) -> None:
    rep = outcome.report
    assert rep is not None
    doc = outcome.document
    print(f"vertices: {doc['polyhedron']['vertices']}", file=out)
    print(f"KN condition: {'satisfied' if rep.kn.satisfied else 'FAILED'}", file=out)
    print(f"non-degeneracy: {rep.nondegeneracy_overall}", file=out)
    conv = doc["exponents"]["convenience"]
    print(
        "convenient: {} | partially convenient: {} (J = {}, nu = {})".format(
            conv["convenient"], conv["partially_convenient"], conv["J"], conv["nu_max"]
        ),
        file=out,
    )
    for name, res, fallback in (
        ("theta", rep.theta, f"1-1/N = {_fmt_frac(rep.theta.fallback)}"),
        ("alpha", rep.alpha, f"L = {rep.alpha.fallback}"),
        ("dist exponent", rep.dist, f"N = {rep.dist.fallback}"),
    ):
        note = "" if res.value is not None else f" ({res.reason}; fallback {fallback})"
        print(f"{name} = {_fmt_frac(res.value)}{note}", file=out)
    print(f"fan bounds: L = {rep.fan_L}, N = {rep.fan_N}", file=out)
    for a in outcome.audits:
        print(
            f"audit {a.inequality}: {a.verdict}"
            + (f" (exponent {a.exponent:g})" if a.exponent is not None else "")
            + (" [forced]" if a.forced else ""),
            file=out,
        )
    for flag in rep.flags:
        print(f"flag: {flag}", file=out)


def _read_input(value: str) -> str:
    try:
        if value == "-":
            return sys.stdin.read()
        if os.path.exists(value):
            with open(value, "r", encoding="utf-8") as fh:
                return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {value!r}: {exc}") from None
    return value


def _exponent(text: str) -> Fraction:
    """p/q or a decimal that a float can hold."""
    try:
        float(value := Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid exponent {text!r}") from None
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2; we reserve that
        raise InputError(message)

    def _parse_optional(self, arg_string):
        # lojex has no short option but -h, so "-x^2*y^2" is a germ, read as
        # argparse reads "-1": a positional, or the value of an option
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def _build_argparser() -> argparse.ArgumentParser:
    p = _Parser(prog="lojex", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    defaults = AnalysisOptions()

    def common(sp):
        sp.add_argument("input", help="germ text, JSON, a file path, or '-' for stdin")
        sp.add_argument("--json", dest="json_path", help="write the JSON report here")
        sp.add_argument("--csv", dest="csv_path", help="write audit envelope tables here")
        sp.add_argument("--seed", type=int, default=defaults.seed)
        sp.add_argument("--samples", type=int, default=defaults.samples, help="directions per radius level")
        sp.add_argument("--radius", type=float, default=defaults.radius, help="outer sampling radius")
        sp.add_argument("--tol", type=float, default=defaults.tol, help="non-degeneracy residual tolerance")
        sp.add_argument(
            "--starts", type=int, default=defaults.starts,
            help="Levenberg-Marquardt starts per sign orthant on numeric faces",
        )
        sp.add_argument("--max-dim", type=int, default=defaults.max_dim)
        sp.add_argument("--force", action="store_true", help="run audits despite failed gates (marked)")
        sp.add_argument(
            "--declare", action="append", choices=["nonnegative", "convex"], default=[],
            help="user hypotheses; convex implies nonnegative and triggers the vertex-shape check",
        )

    for name in ("analyze", "exponents", "fan", "nondegen", "verify"):
        sp = sub.add_parser(name)
        common(sp)
    verify = sub.choices["verify"]
    verify.add_argument("--theta", type=_exponent, help="gradient exponent to audit (p/q or decimal)")
    verify.add_argument("--alpha", type=_exponent, help="domination exponent to audit")
    verify.add_argument("--dist", type=_exponent, help="distance exponent to audit")
    return p


# built once per process; the append action copies the --declare default first
_PARSER = _build_argparser()


def _opts_from_args(args) -> AnalysisOptions:
    if args.seed < 0 or args.samples < 0:
        raise InputError("--seed and --samples must be >= 0")
    if args.starts < 1 or (args.max_dim is not None and args.max_dim < 1):
        raise InputError("--starts and --max-dim must be >= 1")
    for flag, value in (("--radius", args.radius), ("--tol", args.tol)):
        if not 0 < value < math.inf:
            raise InputError(f"{flag} must be positive and finite, got {value}")
    return AnalysisOptions(
        declare_nonnegative="nonnegative" in args.declare,
        declare_convex="convex" in args.declare,
        seed=args.seed,
        tol=args.tol,
        starts=args.starts,
        samples=args.samples,
        radius=args.radius,
        force=args.force,
        max_dim=args.max_dim,
    )


def _emit(doc: dict, args, audits) -> None:
    if args.json_path:
        target = sys.stdout if args.json_path == "-" else open(args.json_path, "w", encoding="utf-8")
        try:
            # one line of compact JSON, so on stdout the report is the last line
            report_mod.write_json(doc, target)
        finally:
            if target is not sys.stdout:
                target.close()
    if args.csv_path:
        # a run without audits writes the header alone, over any older table
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(report_mod.audits_csv(audits))


def run(args) -> int:
    model = parse_germ(_read_input(args.input))
    opts = _opts_from_args(args)

    if args.command in ("analyze", "exponents"):
        outcome = analyze_germ(model, opts, with_audits=args.command == "analyze")
        print(f"germ: {model_to_text(model).splitlines()[0]}  (n = {model.n})")
        _summarize(outcome, sys.stdout)
        _emit(outcome.document, args, outcome.audits)
        return outcome.exit_code

    if args.command == "fan":
        _check_max_dim(model, opts)
        # the fan cap needs only n, not the polyhedron
        check_unimodularize_dim(model.n)
        poly = build_polyhedron(support(model))
        section, fanexp = _fan_section(poly)
        for label, key in (("normal fan", "normal"), ("refinement", "unimodular")):
            fan = section[key]
            print(f"{label}: {len(fan['maximal_cones'])} maximal cones, {len(fan['rays'])} rays")
        print(f"L = {fanexp.L}, N = {fanexp.N}")
        _emit({"polyhedron": report_mod.polyhedron_json(poly), **section}, args, [])
        return 0

    if args.command == "nondegen":
        _check_max_dim(model, opts)
        poly = build_polyhedron(support(model))
        verdicts, ok = check_model(model, poly, tol=opts.tol, starts=opts.starts, seed=opts.seed)
        doc = {
            "polyhedron": report_mod.polyhedron_json(poly),
            "faces": [report_mod._verdict_json(k, v) for k, v in verdicts.items()],
            "overall_nondegenerate": ok,
        }
        for key, v in verdicts.items():
            print(f"face {list(key)}: {v.status}")
        print(f"overall: {'nondegenerate' if ok else 'NOT certified nondegenerate'}")
        _emit(doc, args, [])
        return 0 if ok else 2

    if args.command == "verify":
        # the audits read the hat vertices, the alpha witness (which no gate
        # changes) and the transversal family: no fan and no face verdicts
        from . import audit as audit_mod

        _check_max_dim(model, opts)
        poly = build_polyhedron(support(model))
        hat = hat_polyhedron(poly)
        witness = alpha_exponent(poly, hat, Hypotheses(False, False, False)).witness
        sample = _sample(model, sorted(hat.vertices), opts)
        audits = []
        if args.theta is not None:
            audits.append(audit_mod.audit_L1(sample, args.theta))
        if args.alpha is not None and witness is not None:
            audits.append(audit_mod.audit_L0(sample, witness, args.alpha))
        if args.dist is not None:
            audits.append(audit_mod.audit_L2(sample, args.dist, transversals(hat)))
        if not audits:
            raise InputError("verify needs at least one of --theta/--alpha/--dist")
        for a in audits:
            print(f"audit {a.inequality} at exponent {a.exponent:g}: {a.verdict}")
        doc = {"audits": [report_mod.audit_json(a) for a in audits]}
        _emit(doc, args, audits)
        return 0

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        try:
            return run(_PARSER.parse_args(argv))
        finally:
            sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader of stdout is gone: exit as SIGPIPE would, with stdout on
        # devnull so that the flush at exit raises no second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InputError, LojexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
