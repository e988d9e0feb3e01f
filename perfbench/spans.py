"""Spans around the calls into each lojex module, recorded from here.

`Tracer.install` replaces lojex's public functions, in the namespaces
they are called from, by wrappers that record a span (name, start, end,
parent, germ id) and read counts off the returned values; `uninstall`
puts the originals back.  Nothing in lojex changes.  A call nested in a
span of the same name is not recorded again, so a layer's time is never
counted twice.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import lojex
import lojex.audit
import lojex.cli
import lojex.nondegeneracy
import lojex.report
from lojex.errors import CapExceededError

TIME_METRICS = (
    "polyhedron.build", "polyhedron.hat", "polyhedron.faces",
    "nondegeneracy.exact", "nondegeneracy.numeric",
    "fan.normal", "fan.simplicialize", "fan.unimodularize", "fan.exponents",
    "exponents.kn", "exponents.transversals", "exponents.dist",
    "audit.L0", "audit.L1", "audit.L2", "audit.euler", "audit.f_vs_g",
    "report.build", "report.json",
)
COUNT_METRICS = (
    "polyhedron.vertices", "polyhedron.facets", "polyhedron.compact_faces",
    "nondegeneracy.exact_faces", "nondegeneracy.numeric_faces",
    "nondegeneracy.multistart_runs",
    "fan.stellar_steps", "fan.unimodular_cones",
    "exponents.rankings",
    "audit.probe_rows",
    "report.bytes",
)

REPORT_BUILDERS = (
    "model_json", "polyhedron_json", "fan_json", "fan_exponents_json",
    "exponent_report_json", "audit_json", "_verdict_json",
)


def numeric_route(verdict) -> bool:
    """Did check_face reach the multistart?  Read from the verdict it returned."""
    return (
        verdict.status == "nondegenerate-numeric"
        or verdict.detail.startswith("multistart")
        or "torus witness" in verdict.detail
    )


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.germ: str | None = None
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(span, args, kwargs, result) reads counts."""
        tracer = self

        def traced(*args, **kwargs):
            if any(s["name"] == name for s in tracer._stack):
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "id": len(tracer.spans),
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                "germ": tracer.germ,
            }
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                tracer._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None, fn=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, fn or original, after))

    # -- counts read off returned values -------------------------------------

    def _polyhedron(self, span, args, kwargs, poly):
        self.counts["polyhedron.vertices"] += len(poly.vertices)
        self.counts["polyhedron.facets"] += len(poly.facets)

    def _faces(self, span, args, kwargs, faces):
        self.counts["polyhedron.compact_faces"] += len(faces)

    def _face(self, span, args, kwargs, verdict):
        if numeric_route(verdict):
            span["name"] = "nondegeneracy.numeric"
            self.counts["nondegeneracy.numeric_faces"] += 1
            starts = kwargs.get("starts", lojex.nondegeneracy.DEFAULT_STARTS)
            # computed as 2^k * starts, the loop bound of the multistart
            self.counts["nondegeneracy.multistart_runs"] += 2 ** len(args[0].active_vars()) * starts
        else:
            span["name"] = "nondegeneracy.exact"
            self.counts["nondegeneracy.exact_faces"] += 1

    def _rankings(self, span, args, kwargs, dist):
        self.counts["exponents.rankings"] += len(dist.per_ranking)

    def _pool(self, span, args, kwargs, dirs):
        self.counts["audit.probe_rows"] += dirs.shape[0]

    def _report_file(self, span, args, kwargs, result):
        # _emit(doc, args, audits) has written the report to args.json_path
        self.counts["report.bytes"] += os.path.getsize(args[1].json_path)

    def _counted_unimodularize(self, original):
        def unimodularize(fan, trace=None):
            steps = [] if trace is None else trace
            result = original(fan, trace=steps)
            self.counts["fan.stellar_steps"] += len(steps)
            self.counts["fan.unimodular_cones"] += len(result.maximal)
            return result

        return unimodularize

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        cli, nd, audit, report = lojex.cli, lojex.nondegeneracy, lojex.audit, lojex.report
        self._patch(cli, "analyze_germ", "pipeline.analyze_germ")
        self._patch(cli, "build_polyhedron", "polyhedron.build", self._polyhedron)
        self._patch(cli, "check_model", "nondegeneracy.model")
        self._patch(cli, "hat_polyhedron", "polyhedron.hat")
        self._patch(cli, "check_kn", "exponents.kn")
        self._patch(cli, "normal_fan", "fan.normal")
        self._patch(cli, "simplicialize", "fan.simplicialize")
        self._patch(cli, "unimodularize", "fan.unimodularize",
                    fn=self._counted_unimodularize(cli.unimodularize))
        self._patch(cli, "fan_exponents", "fan.exponents")
        self._patch(cli, "transversals", "exponents.transversals")
        self._patch(cli, "dist_exponent", "exponents.dist", self._rankings)
        self._patch(cli, "_emit", "report.json", self._report_file)
        self._patch(nd, "compact_faces", "polyhedron.faces", self._faces)
        # the name is replaced by the route once the verdict is known
        self._patch(nd, "check_face", "nondegeneracy.face", self._face)
        for attr, name in (("audit_L0", "audit.L0"), ("audit_L1", "audit.L1"),
                           ("audit_L2", "audit.L2"), ("audit_euler_comparison", "audit.euler"),
                           ("audit_f_vs_g", "audit.f_vs_g")):
            self._patch(audit, attr, name)
        self._patch(audit, "direction_pool", "audit.pool", self._pool)
        for attr in REPORT_BUILDERS:
            self._patch(report, attr, "report.build")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-pass metrics --------------------------------------------------------

    def pass_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since first_span, with the counts."""
        spans = self.spans[first_span:]
        ms = {name: 0.0 for name in TIME_METRICS}
        discarded_germs = {
            s["germ"] for s in spans
            if s["name"] == "fan.unimodularize" and s.get("error") == CapExceededError.__name__
        }
        discarded = 0.0
        for s in spans:
            dt = (s["end"] - s["start"]) / 1e6
            if s["name"] in ms:
                ms[s["name"]] += dt
            if s["germ"] in discarded_germs and s["name"] in ("fan.normal", "fan.simplicialize"):
                discarded += dt
        out = {f"{name}_ms": value for name, value in ms.items()}
        out["fan.discarded_ms"] = discarded
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0)
        return out

    def reset_counts(self) -> None:
        self.counts.clear()

    def self_times(self) -> list[dict]:
        """Spans with their self time: duration less the part children cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end"] - s["start"]
        return [
            {**s, "self_ns": s["end"] - s["start"] - child_ns[s["id"]]} for s in self.spans
        ]

