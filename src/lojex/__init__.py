"""Lojasiewicz exponents of smooth germs from Newton-polyhedron data.

Exact lattice geometry (Newton polyhedron, normal fan, unimodular
refinement), hypothesis gates (monomial-ideal condition, Kouchnirenko
non-degeneracy, convenience), the combinatorial exponent formulas, and
floating-point audits of the resulting inequalities near the origin.
"""

from .cli import AnalysisOptions, analyze_germ
from .errors import CapExceededError, InputError, LojexError, ParseError
from .exponents import (
    ConvenienceReport,
    ExponentReport,
    Hypotheses,
    TransversalFamily,
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
    Cone,
    Fan,
    FanExponents,
    fan_exponents,
    normal_fan,
    simplicialize,
    unimodularize,
)
from .nondegeneracy import (
    DegeneracyVerdict,
    FacePolynomial,
    check_face,
    check_model,
)
from .parser import model_to_text, parse_germ, parse_json, parse_text
from .polyhedron import (
    Facet,
    FaceData,
    NewtonPolyhedron,
    build_polyhedron,
    compact_faces,
    contains,
    diagonal_exponent,
    hat_polyhedron,
    support_value,
)
from .taylor import (
    RemainderDescriptor,
    TaylorModel,
    Term,
    support,
)

__version__ = "0.1.0"

# the audits need numpy, which the exact commands never load: their names
# resolve from lojex.audit on first use (PEP 562)
_AUDIT_NAMES = frozenset({
    "AuditResult", "Sample", "SamplePlan", "audit_L0", "audit_L1", "audit_L2",
    "audit_euler_comparison", "audit_f_vs_g", "diagonal_probe",
})


def __getattr__(name: str):
    if name in _AUDIT_NAMES:
        from . import audit

        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
