"""Hypothesis gates and the combinatorial exponent formulas.

Everything here is exact lattice combinatorics on the Newton polyhedron:

  * the monomial-ideal condition for declared remainders (per-remainder
    facet test, with flat variables allowing unlimited exponent padding);
  * convenience / partial convenience and the largest axis vertex nu;
  * the gradient-inequality exponent theta = 1 - 1/nu;
  * the diagonal entry parameters d(alpha*) of the hat vertices and their
    maximum d, the domination exponent;
  * the transversal families describing the zero set as a union of
    coordinate subspaces, and the distance inequality exponent: the
    maximum over rankings of the per-ranking exponents, attained by the
    ranking that puts one hat support on top, so computed per hat support.

Whenever a gate fails the corresponding value is reported n/a with the
reason `Hypotheses.blocker` gives, and the generic toric-resolution bound
(L, 1 - 1/N, or N) is attached as a fallback.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping

from .linalg import dot
from .polyhedron import NewtonPolyhedron, contains, diagonal_exponent
from .record import record, replace
from .taylor import Exponent, TaylorModel


@record
class Hypotheses:
    kn: bool
    nondegenerate: bool
    nonnegative: bool

    def blocker(self, needs_nonnegative: bool = True) -> str | None:
        """The reason of the first failed gate, or None when every gate holds."""
        if needs_nonnegative and not self.nonnegative:
            return "germ not declared non-negative"
        if not self.kn:
            return "monomial-ideal condition fails"
        if not self.nondegenerate:
            return "non-degeneracy not established"
        return None


def _gated(result):
    """The result with its value set to its formula, unless a gate blocks it."""
    return result if result.reason else replace(result, value=result.formula)


# ---------------------------------------------------------------------------
# the monomial-ideal condition

@record
class RemainderCheck:
    exp: Exponent
    is_unit: bool
    flat_vars: tuple[int, ...]
    ok: bool
    reason: str


@record
class KNReport:
    satisfied: bool
    remainders: tuple[RemainderCheck, ...]


def check_kn(model: TaylorModel, poly: NewtonPolyhedron) -> KNReport:
    """Can the model be generated by monomials with exponents in the polyhedron?

    Pure polynomials qualify outright.  A unit remainder contributes its own
    exponent (in the polyhedron by construction).  A flat remainder may be
    padded arbitrarily in its flat variables, so it passes iff every facet
    whose normal vanishes on all flat variables is already satisfied by its
    exponent.
    """
    checks = []
    for r in model.remainders:
        if r.is_unit:
            ok = contains(poly, r.exp)
            reason = "unit factor: exponent lies in the polyhedron" if ok else (
                "unit factor exponent escapes the polyhedron"
            )
            checks.append(RemainderCheck(r.exp, True, (), ok, reason))
            continue
        flat = tuple(sorted(r.flat_vars))
        bad = None
        for f in poly.facets:
            if all(f.normal[i] == 0 for i in flat) and dot(f.normal, r.exp) < f.offset:
                bad = f
                break
        if bad is None:
            checks.append(
                RemainderCheck(
                    r.exp, False, flat, True,
                    "flat padding reaches the polyhedron on every facet avoiding "
                    "the flat variables",
                )
            )
        else:
            checks.append(
                RemainderCheck(
                    r.exp, False, flat, False,
                    f"facet <{bad.normal}, x> >= {bad.offset} has zero normal on the "
                    f"flat variables but value {dot(bad.normal, r.exp)} at the exponent",
                )
            )
    return KNReport(all(c.ok for c in checks), tuple(checks))


# ---------------------------------------------------------------------------
# convenience

@record
class ConvenienceReport:
    convenient: bool
    partially_convenient: bool
    J: tuple[int, ...]  # 0-based axis indices carrying an axis vertex
    nu: tuple[tuple[int, int], ...]  # (axis, exponent) pairs
    nu_max: int | None


def convenience(poly: NewtonPolyhedron) -> ConvenienceReport:
    n = poly.n
    nu: dict[int, int] = {}
    for v in poly.vertices:
        nz = [i for i, e in enumerate(v) if e]
        if len(nz) == 1:
            nu[nz[0]] = v[nz[0]]
    J = tuple(sorted(nu))
    inside_J = all(
        all(e == 0 for i, e in enumerate(v) if i not in nu) for v in poly.vertices
    )
    partially = bool(nu) and inside_J
    return ConvenienceReport(
        convenient=len(nu) == n,
        partially_convenient=partially,
        J=J,
        nu=tuple(sorted(nu.items())),
        nu_max=max(nu.values()) if partially else None,
    )


# ---------------------------------------------------------------------------
# theta

@record
class ThetaResult:
    value: Fraction | None
    reason: str | None
    fallback: Fraction | None  # 1 - 1/N for the computed fan, when available


def theta(
    conv: ConvenienceReport, hyp: Hypotheses, fan_n: int | None = None
) -> ThetaResult:
    fallback = Fraction(1) - Fraction(1, fan_n) if fan_n else None
    if not conv.partially_convenient:
        return ThetaResult(None, "germ is not partially convenient", fallback)
    if reason := hyp.blocker(needs_nonnegative=False):
        return ThetaResult(None, reason, fallback)
    assert conv.nu_max is not None
    return ThetaResult(Fraction(1) - Fraction(1, conv.nu_max), None, fallback)


# ---------------------------------------------------------------------------
# alpha

@record
class AlphaResult:
    value: Fraction | None
    reason: str | None
    fallback: int | None  # L for the computed fan
    per_hat_vertex: tuple[tuple[Exponent, Fraction], ...]
    witness: Exponent | None  # hat vertex attaining the maximum

    @property
    def formula(self) -> Fraction | None:
        """The largest entry parameter d, whether or not the gates hold."""
        return max((d for _, d in self.per_hat_vertex), default=None)


def alpha_exponent(
    poly: NewtonPolyhedron,
    hat_poly: NewtonPolyhedron,
    hyp: Hypotheses,
    fan_l: int | None = None,
) -> AlphaResult:
    per = []
    for v in sorted(hat_poly.vertices):
        d = diagonal_exponent(poly, v)
        if d == math.inf:
            raise RuntimeError(
                f"diagonal ray of hat vertex {v} never enters the polyhedron; "
                "this contradicts the hat construction"
            )
        per.append((v, Fraction(d)))
    witness = max(per, key=lambda p: p[1])[0] if per else None
    return _gated(AlphaResult(None, hyp.blocker(), fan_l, tuple(per), witness))


# ---------------------------------------------------------------------------
# transversal families

@record
class TransversalFamily:
    I_f: tuple[int, ...]
    supports: tuple[frozenset[int], ...]  # hat-vertex variable supports
    lambda_exact: tuple[frozenset[int], ...]
    lambda_hitting: tuple[frozenset[int], ...]  # minimal hitting sets
    agree: bool  # do both families describe the same union of subspaces


def transversals(hat_poly: NewtonPolyhedron) -> TransversalFamily:
    """The zero set as exact transversals of the hat supports (sets that
    meet each support once) and as minimal hitting sets.

    T_J = {x : x_i = 0 for i in J}, and T_J' lies in T_J iff J lies in J'.
    The two families describe the same union of the T_J exactly when they
    are equal: an exact transversal J meets each support once, so dropping
    j in J misses the support S with J & S = {j}, and every exact
    transversal is a minimal hitting set; two minimal hitting sets nest only
    when they are equal.
    """
    supports = tuple(
        sorted(frozenset(i for i, e in enumerate(v) if e) for v in hat_poly.vertices)
    )
    i_f = tuple(sorted(set().union(*supports))) if supports else ()
    exact = []
    hitting_all = []
    for r in range(1, len(i_f) + 1):
        for combo in itertools.combinations(i_f, r):
            j = frozenset(combo)
            inters = [len(j & s) for s in supports]
            if all(c == 1 for c in inters):
                exact.append(j)
            if all(c >= 1 for c in inters):
                hitting_all.append(j)
    minimal = [
        j for j in hitting_all if not any(o < j for o in hitting_all)
    ]
    exact_t = tuple(sorted(exact, key=sorted))
    minimal_t = tuple(sorted(minimal, key=sorted))
    agree = exact_t == minimal_t  # both sorted alike
    return TransversalFamily(i_f, supports, exact_t, minimal_t, agree)


# ---------------------------------------------------------------------------
# the distance exponent

@record
class RankingData:
    order: tuple[int, ...]  # variables listed from smallest to largest magnitude
    i_rho: int
    vertices: tuple[Exponent, ...]
    exponent: int


@record
class DistResult:
    value: int | None
    reason: str | None
    fallback: int | None  # N for the computed fan
    per_ranking: tuple[RankingData, ...]
    extended: bool  # exact-transversal family is empty or wrong; hitting sets used

    @property
    def formula(self) -> int | None:
        """The largest per-hat-support exponent, whether or not the gates hold."""
        return max((r.exponent for r in self.per_ranking), default=None)


def dist_exponent(
    poly: NewtonPolyhedron,
    family: TransversalFamily,
    hyp: Hypotheses,
    fan_n: int | None = None,
) -> DistResult:
    """The distance exponent: max over rankings rho of min{|v| : v in V(rho)}.

    V(rho) holds the vertices supported in the ranking's upper set U(rho),
    the indices ranked at least as high as the one realizing the distance.
    U(rho) meets every minimal hitting set, so it contains a hat support S,
    V(rho) contains the vertices supported in S, and its least |v| is at
    most theirs.  Ranking S on top gives U(rho) = S, because hat supports
    form an antichain.  So the value is the maximum over hat supports S of
    min{|v| : supp v in S}, and `per_ranking` holds the top-S ranking for
    each S.
    """
    per: list[RankingData] = []
    for top in family.supports:
        verts = tuple(
            sorted(v for v in poly.vertices if all(i in top for i, e in enumerate(v) if e))
        )
        if not verts:
            raise RuntimeError(
                f"no vertex is supported in the hat support {sorted(top)}; "
                "this contradicts the hat construction"
            )
        order = tuple(i for i in family.I_f if i not in top) + tuple(sorted(top))
        per.append(RankingData(order, min(top), verts, min(sum(v) for v in verts)))
    return _gated(DistResult(None, hyp.blocker(), fan_n, tuple(per), not family.agree))


# ---------------------------------------------------------------------------
# combined special case and the convex vertex shape

@record
class CombinedResult:
    theta: Fraction
    alpha: Fraction
    dist: Fraction


def combined_case(
    conv: ConvenienceReport,
    family: TransversalFamily,
    theta_res: ThetaResult,
    alpha_res: AlphaResult,
    dist_res: DistResult,
    hyp: Hypotheses,
) -> CombinedResult | None:
    """The simplified triple (1 - 1/nu, nu, nu) when every gate holds.

    Also asserts agreement with the general-path values; a mismatch would be
    an implementation bug, not a property of the germ.
    """
    if not conv.partially_convenient or hyp.blocker():
        return None
    nu = conv.nu_max
    assert nu is not None
    # partial convenience forces the hat vertices to be exactly the J axes
    assert set(family.I_f) == set(conv.J)
    expected = CombinedResult(
        Fraction(1) - Fraction(1, nu), Fraction(nu), Fraction(nu)
    )
    got = (theta_res.value, alpha_res.value, dist_res.value)
    if got != (expected.theta, expected.alpha, expected.dist):
        raise RuntimeError(
            f"combined-case mismatch: general path gives {got}, special case "
            f"gives ({expected.theta}, {expected.alpha}, {expected.dist})"
        )
    return expected


def convex_shape(poly: NewtonPolyhedron) -> bool:
    """Necessary vertex shape for convex germs: every vertex is an even axis point."""
    for v in poly.vertices:
        nz = [i for i, e in enumerate(v) if e]
        if len(nz) != 1 or v[nz[0]] % 2 != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# aggregate report

@record
class ExponentReport:
    kn: KNReport
    nondegeneracy_overall: str  # nondegenerate | degenerate | inconclusive
    face_verdicts: Mapping
    convenience: ConvenienceReport
    transversal: TransversalFamily
    theta: ThetaResult
    alpha: AlphaResult
    dist: DistResult
    combined: CombinedResult | None
    fan_L: int | None
    fan_N: int | None
    convex_vertex_shape: bool
    hypotheses: Hypotheses
    flags: tuple[str, ...]
