"""Checks of lojex's outputs, computed apart from lojex.

Nothing here imports lojex.  Germs are read by the small parser below,
vertices and hulls are decided by linear programs (scipy's HiGHS),
determinants and cone coordinates by exact integer and Fraction
arithmetic, and torus critical points by a sympy Groebner basis.  Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import prod

TORUS_FLOOR = 1e-3  # a witness coordinate closer to 0 than this is off the torus
WITNESS_RESIDUAL = 1e-6  # witness_residual, evaluated exactly

_TERM_RE = re.compile(r"\s*([+-]?)\s*([^+-]+)")
_ALIASES = {"x": 1, "y": 2, "z": 3}


def parse_terms(text: str) -> tuple[int, dict[tuple[int, ...], Fraction]]:
    """(n, {exponent: coefficient}) of a germ written as a sum of monomials."""
    raw: list[tuple[Fraction, dict[int, int]]] = []
    for sign, body in _TERM_RE.findall(text.strip()):
        coeff = Fraction(-1 if sign == "-" else 1)
        powers: dict[int, int] = {}
        for factor in body.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, exp = factor.partition("^")
            var = _ALIASES[name] if name in _ALIASES else int(name[1:])
            powers[var] = powers.get(var, 0) + (int(exp) if exp else 1)
        raw.append((coeff, powers))
    n = max(v for _, p in raw for v in p)
    terms: dict[tuple[int, ...], Fraction] = {}
    for coeff, powers in raw:
        exp = tuple(powers.get(i + 1, 0) for i in range(n))
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return n, {e: c for e, c in terms.items() if c}


# ---------------------------------------------------------------------------
# linear programs

def _feasible(**lp) -> bool:
    from scipy.optimize import linprog

    res = linprog(method="highs", **lp)
    if res.status not in (0, 2):
        raise RuntimeError(f"LP neither feasible nor infeasible: {res.message}")
    return res.status == 0


def lp_is_vertex(point, support) -> bool:
    """Is point a vertex of conv(support) + R^n_+?

    It is iff some a > 0 puts <a, point> strictly below <a, y> for every
    other support point y; scaled, a >= 1 and <a, y - point> >= 1.
    """
    n = len(point)
    others = [y for y in support if tuple(y) != tuple(point)]
    if not others:
        return True
    return _feasible(
        c=[0] * n,
        A_ub=[[point[j] - y[j] for j in range(n)] for y in others],
        b_ub=[-1] * len(others),
        bounds=[(1, None)] * n,
    )


def lp_in_upper_hull(point, points) -> bool:
    """Is point in conv(points) + R^n_+?"""
    m = len(points)
    n = len(point)
    return _feasible(
        c=[0] * m,
        A_ub=[[p[j] for p in points] for j in range(n)],
        b_ub=list(point),
        A_eq=[[1] * m],
        b_eq=[1],
        bounds=[(0, None)] * m,
    )


# ---------------------------------------------------------------------------
# exact linear algebra

def int_det(rows) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_columns(columns, rhs) -> list[Fraction] | None:
    """Coordinates c with sum c_i columns_i = rhs, or None if singular."""
    n = len(rhs)
    a = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] / a[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# the checks

def check_polyhedron(support, vertices, facets) -> list[str]:
    """Vertices certified and dropped points refuted by LP; facets valid."""
    problems = []
    support = [tuple(p) for p in support]
    vertex_set = {tuple(v) for v in vertices}
    for v in vertex_set - set(support):
        problems.append(f"vertex {v} is not a support point")
    for p in support:
        is_vertex = lp_is_vertex(p, support)
        if p in vertex_set and not is_vertex:
            problems.append(f"reported vertex {p} is not a vertex (LP infeasible)")
        if p not in vertex_set and is_vertex:
            problems.append(f"dropped support point {p} is a vertex (LP feasible)")
    for normal, offset in facets:
        if any(a < 0 for a in normal) or not any(normal):
            problems.append(f"facet normal {normal} is not nonnegative and nonzero")
        for p in support:
            if sum(a * x for a, x in zip(normal, p)) < offset:
                problems.append(f"support point {p} violates facet {normal} >= {offset}")
    return problems


def pure_powers(terms, n) -> dict[int, int] | None:
    """{axis: nu} when the germ is sum_i c_i x_i^nu_i over all n axes."""
    nu = {}
    for exp in terms:
        axes = [i for i, e in enumerate(exp) if e]
        if len(axes) != 1 or axes[0] in nu:
            return None
        nu[axes[0]] = exp[axes[0]]
    return nu if len(nu) == n else None


def partial_convenience(terms, n) -> tuple[bool, int | None]:
    """(partially convenient, nu_max), read from the pure-power terms.

    J is the set of axes carrying a pure power; the germ is partially
    convenient iff J is nonempty and every support point lies in the hull
    of the support points supported in J, so that every vertex is.
    """
    nu: dict[int, int] = {}
    for exp in terms:
        axes = [i for i, e in enumerate(exp) if e]
        if len(axes) == 1:
            i = axes[0]
            nu[i] = min(nu.get(i, exp[i]), exp[i])
    if not nu:
        return False, None
    inside = [e for e in terms if all(i in nu for i, x in enumerate(e) if x)]
    for e in terms:
        if e not in inside and not lp_in_upper_hull(e, inside):
            return False, None
    return True, max(nu.values())


def positive_even(terms) -> bool:
    return all(c > 0 and all(e % 2 == 0 for e in exp) for exp, c in terms.items())


def check_exponents(terms, n, s) -> list[str]:
    """theta, alpha and the distance exponent against the closed forms."""
    problems = []
    hyp = s["hypotheses"]
    gates = hyp["kn"] and hyp["nondegenerate"]
    if positive_even(terms) and not (gates and hyp["nonnegative"]):
        # every face polynomial is then sign-definite even, so it has no
        # torus zero and, by the weighted Euler identity, no critical point
        problems.append(f"positive even germ reported with failed gates {hyp}")
    nu = pure_powers(terms, n)
    if nu is not None:
        top = max(nu.values())
        want_theta = 1 - Fraction(1, top)
        nonneg = all(e % 2 == 0 for e in nu.values()) and all(c > 0 for c in terms.values())
        want_alpha = want_dist = Fraction(top) if nonneg else None
        for key, want in (("theta", want_theta), ("alpha", want_alpha), ("dist", want_dist)):
            if s[key] != want:
                problems.append(f"pure powers {sorted(nu.values())}: {key} = {s[key]}, want {want}")
    pc, nu_max = partial_convenience(terms, n)
    if pc and gates:
        want = 1 - Fraction(1, nu_max)
        if s["theta"] != want:
            problems.append(f"partially convenient, nu_max = {nu_max}: theta = {s['theta']}, want {want}")
    elif s["theta"] is not None:
        why = "gates fail" if pc else "germ is not partially convenient"
        problems.append(f"theta = {s['theta']} reported although the {why}")
    return problems


def check_fan(n, rays, cones) -> list[str]:
    """Unimodular maximal cones that cover the axis rays and the diagonal."""
    problems = []
    gens = [[rays[i] for i in cone] for cone in cones]
    for cone, g in zip(cones, gens):
        if len(g) != n:
            problems.append(f"cone {cone} has {len(g)} rays in dimension {n}")
        elif abs(int_det(g)) != 1:
            problems.append(f"cone {cone} has |det| = {abs(int_det(g))}")
    probes = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(1,) * n]
    for p in probes:
        covered = False
        for g in gens:
            if len(g) == n:
                coords = solve_columns(g, p)
                if coords is not None and all(c >= 0 for c in coords):
                    covered = True
                    break
        if not covered:
            problems.append(f"no maximal cone contains the ray {p}")
    return problems


def face_polynomial(terms, points):
    return {tuple(p): terms[tuple(p)] for p in points if tuple(p) in terms}


def witness_residual(fpoly, w) -> Fraction:
    """max over the active variables i of |w_i d_i f(w)| / sum_e |c_e e_i w^e|.

    Each term c_e e_i w^e of w_i d_i f(w) is a monomial of the face, and a
    face polynomial is quasi-homogeneous: the torus action that scales it
    by t^d scales every such term by t^d too.  So the ratio does not
    change when a witness is moved along that action towards the origin,
    where the gradient itself shrinks to 0.  It is 0 exactly at a
    critical point.
    """
    worst = Fraction(0)
    for i in range(len(w)):
        terms = [c * e[i] * prod(w[j] ** e[j] for j in range(len(w)))
                 for e, c in fpoly.items() if e[i]]
        if terms:
            worst = max(worst, abs(sum(terms)) / sum(abs(t) for t in terms))
    return worst


def check_degenerate_faces(terms, faces) -> tuple[list[str], list[str]]:
    """(problems, failures) of the faces labelled degenerate.

    A face whose polynomial has no critical point on the complex torus
    (decided exactly, by a Groebner basis) is a failure: its witness can
    only be a point near a coordinate plane, where a term that keeps it
    from being critical is too small to show.  On any other degenerate
    face the witness must be a torus point where the gradient vanishes;
    it is a float vector, and its residual is evaluated at its exact
    binary value in Fraction arithmetic, so no rounding hides it.
    """
    problems, failures = [], []
    for points, status, witness in faces:
        if status != "degenerate":
            continue
        fpoly = face_polynomial(terms, points)
        if torus_critical_points_empty(fpoly):
            failures.append(f"face {points} is labelled degenerate but has no torus critical point")
            continue
        if witness is None:
            problems.append(f"degenerate face {points} has no witness")
            continue
        w = [Fraction(x) for x in witness]
        if any(abs(x) < TORUS_FLOOR for x in w):
            problems.append(f"witness {witness} of face {points} is off the torus")
            continue
        residual = witness_residual(fpoly, w)
        if residual > WITNESS_RESIDUAL:
            problems.append(
                f"witness {witness} of face {points}: relative residual {float(residual):.3g}"
            )
    return problems, failures


def torus_critical_points_empty(fpoly) -> bool:
    """No critical point of fpoly on the complex torus, by a Groebner basis.

    The ideal of the partials in the active variables, saturated by their
    product through 1 - t * x_1 ... x_k, is the unit ideal exactly then.
    """
    import sympy

    n = len(next(iter(fpoly)))
    xs = sympy.symbols(f"x1:{n + 1}")
    t = sympy.Symbol("t")
    active = [i for i in range(n) if any(e[i] for e in fpoly)]
    f = sum(
        sympy.Rational(c.numerator, c.denominator) * prod(xs[i] ** e[i] for i in range(n))
        for e, c in fpoly.items()
    )
    gens = [xs[i] for i in active]
    eqs = [sympy.diff(f, x) for x in gens] + [1 - t * prod(gens)]
    basis = sympy.groebner(eqs, *gens, t, order="grevlex")
    return list(basis.exprs) == [1]


def check_numeric_faces(terms, faces) -> list[str]:
    return [
        f"face {points} is labelled nondegenerate-numeric but has a torus critical point"
        for points, status, _ in faces
        if status == "nondegenerate-numeric"
        and not torus_critical_points_empty(face_polynomial(terms, points))
    ]


def check_nondegeneracy(terms, s, known_degenerate: bool) -> tuple[list[str], list[str]]:
    problems, failures = check_degenerate_faces(terms, s["faces"])
    problems += check_numeric_faces(terms, s["faces"])
    ok = all(st in ("nondegenerate-exact", "nondegenerate-numeric") for _, st, _ in s["faces"])
    reported = s.get("overall_nondegenerate", s.get("hypotheses", {}).get("nondegenerate"))
    if reported != ok:
        problems.append(f"overall non-degeneracy {reported} disagrees with the face verdicts")
    if known_degenerate and ok:
        problems.append("germ with a planted degenerate face reported non-degenerate")
    return problems, failures


def audits_failed(s) -> list[str]:
    """Audits that did not pass although both gates hold."""
    hyp = s.get("hypotheses")
    if hyp is not None and not (hyp["kn"] and hyp["nondegenerate"]):
        return []
    return [f"audit {name}: {verdict}" for name, verdict in s["audits"] if verdict != "pass"]


def check_output(command: str, germ: str, s: dict, known_degenerate: bool) -> tuple[list[str], list[str]]:
    """(problems, failures) of one operation's summarized output.

    A problem is a wrong output.  A failure is one of two faults of lojex
    that repeat on the same input every time: an audit that did not pass
    on a germ whose gates hold, or a face labelled degenerate that has no
    torus critical point.  The operation then failed, as it would for a user.
    """
    n, terms = parse_terms(germ)
    problems: list[str] = []
    if command == "verify":
        if s["exit_code"] != 0 or len(s["audits"]) != 3:
            problems.append(f"verify: exit code {s['exit_code']}, {len(s['audits'])} audits, want 0 and 3")
        return problems, audits_failed(s)
    if s.get("n") != n:
        return [f"report has n = {s.get('n')}, the germ has n = {n}"], []
    problems += check_polyhedron(terms, s["vertices"], s["facets"])
    if command in ("analyze", "exponents", "fan"):
        if n <= 4:
            if not s["has_fan"]:
                problems.append(f"no unimodular fan reported in dimension {n}")
            else:
                problems += check_fan(n, s["fan_rays"], s["fan_cones"])
        elif s["has_fan"] or not any(f.startswith("fan-unavailable") for f in s["flags"]):
            problems.append(f"dimension {n} > 4 must report the fan as unavailable")
    if command == "fan":
        if s["exit_code"] != 0:
            problems.append(f"fan: exit code {s['exit_code']}, want 0")
        return problems, []
    face_problems, failures = check_nondegeneracy(terms, s, known_degenerate)
    problems += face_problems
    if command == "nondegen":
        ok = s["overall_nondegenerate"]
    else:
        problems += check_exponents(terms, n, s)
        ok = s["hypotheses"]["kn"] and s["hypotheses"]["nondegenerate"]
    want_exit = 0 if ok and not known_degenerate else 2
    if s["exit_code"] != want_exit:
        problems.append(f"{command}: exit code {s['exit_code']}, want {want_exit}")
    if command == "analyze":
        failures += audits_failed(s)
    return problems, failures
