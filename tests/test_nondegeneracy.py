import itertools
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lojex import nondegeneracy
from lojex.cli import main
from lojex.errors import InputError
from lojex.linalg import dot, eliminate
from lojex.nondegeneracy import (
    DEFAULT_TOL,
    PENCIL_MAX_DEGREE,
    RELATIVE_TOL,
    TORUS_FLOOR,
    FacePolynomial,
    _CompiledFace,
    _check_two_variable,
    _exponent_kernel,
    _gf2_solve,
    _kernel_pins_a_term,
    _normalized_float_poly,
    _pencil_degree,
    _relative_residual,
    _sign_definite_even,
    check_face,
    check_model,
)
from lojex.parser import parse_text
from lojex.polyhedron import build_polyhedron, compact_faces
from lojex.taylor import RemainderDescriptor, TaylorModel, poly_diff, poly_eval_float, support

from .conftest import germ, random_support, subprocess_env
from .oracles import face_of_normal, face_polynomial, torus_point_lstsq


def _face_poly(text, normal):
    model = parse_text(text)
    supp = support(model)
    poly = build_polyhedron(supp)
    face = face_of_normal(poly, supp, normal)
    return model, face_polynomial(model, face)


def _face_of(n, coeffs, face):
    """`face_polynomial` of the polynomial with these coefficients, which need
    not vanish to order 2 at the origin as a TaylorModel must."""
    terms = tuple((e, Fraction(c)) for e, c in sorted(coeffs.items()) if e in face.lattice_points)
    return FacePolynomial(face, n, terms)


def test_face_polynomial_examples():
    model, fp = _face_poly("x1^4 + x1*x2 + x2^4 + x1^4*x3^6", (1, 1, 10))
    assert dict(fp.terms) == {(1, 1, 0): Fraction(1)}
    model, fp = _face_poly("x^3 + y^2", (2, 3))
    assert dict(fp.terms) == {(3, 0): Fraction(1), (0, 2): Fraction(1)}
    model, fp = _face_poly("x^2 - 2*x*y + y^2", (1, 1))
    assert dict(fp.terms) == {
        (2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)
    }


def test_face_polynomial_rejects_noncompact():
    model = parse_text("x^2 + y^2")
    supp = support(model)
    poly = build_polyhedron(supp)
    face = face_of_normal(poly, supp, (1, 0))
    with pytest.raises(InputError):
        face_polynomial(model, face)


def test_check_face_examples():
    # x1*x2 on its edge: no torus critical point, decided exactly
    _, fp = _face_poly("x1^4 + x1*x2 + x2^4", (1, 1))
    v = check_face(fp)
    assert v.status == "nondegenerate-exact"

    # (x-y)^2: critical on the diagonal
    _, fp = _face_poly("x^2 - 2*x*y + y^2", (1, 1))
    v = check_face(fp)
    assert v.status == "degenerate"
    assert v.witness is not None and v.residual <= 1e-10
    x, y = v.witness
    assert math.isclose(x, y, rel_tol=1e-6)

    # vertex monomials
    _, fp = _face_poly("x^2*y^2", (1, 1))
    assert check_face(fp).status == "nondegenerate-exact"


def test_check_face_validation():
    _, fp = _face_poly("x^2*y^2", (1, 1))
    with pytest.raises(InputError):
        check_face(fp, tol=0.0)
    with pytest.raises(InputError):
        check_face(fp, starts=0)


def test_check_model_examples():
    cases = {
        "cusp": True,
        "square_diff": False,
        "inert_axis": True,
    }
    for name, expect in cases.items():
        model = germ(name)
        poly = build_polyhedron(support(model))
        verdicts, ok = check_model(model, poly)
        assert ok is expect, (name, verdicts)


def test_check_model_exactness_on_two_variable_faces():
    model = germ("inert_axis")
    poly = build_polyhedron(support(model))
    verdicts, ok = check_model(model, poly)
    assert ok
    assert all(v.status == "nondegenerate-exact" for v in verdicts.values())


def test_sign_definite_even_faces_are_exact():
    # positive-even face polynomials are nonzero on the torus, so the
    # weighted Euler identity rules out critical points outright
    for text in ("x^2 + y^2 + z^2", "x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2"):
        model = parse_text(text)
        poly = build_polyhedron(support(model))
        verdicts, ok = check_model(model, poly)
        assert ok, text
        assert all(v.status == "nondegenerate-exact" for v in verdicts.values())


def _seeded_germs_with_remainders(rng, count):
    """Germs with n = 2..4: the axis points d e_i and points of degree d,
    which give large faces, a few random points, all doubled half the time
    (even exponents), mixed signs, sometimes a planted degenerate edge
    (x1^a - x2^a)^2, unit remainders on some points and a flat remainder."""
    for _ in range(count):
        n, d = rng.randint(2, 4), rng.randint(3, 6)
        pts = {tuple(d * (j == i) for j in range(n)) for i in range(n)}
        for _ in range(rng.randint(1, 5)):
            cut = sorted(rng.randint(0, d) for _ in range(n - 1))
            pts.add(tuple(b - a for a, b in zip([0, *cut], [*cut, d])))
        pts |= {p for p in random_support(rng, n, 3, 8) if sum(p) >= 2}
        scale = rng.choice((1, 2))
        pts = sorted(tuple(scale * x for x in p) for p in pts)
        coeffs, rems = {}, []
        for p in pts:
            if rng.random() < 0.1:
                rems.append(RemainderDescriptor(p, is_unit=True))
            else:
                coeffs[p] = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.25:
            a = rng.randint(1, 3)
            for i, c in enumerate((1, -2, 1)):
                coeffs[(2 * a - i * a, i * a) + (0,) * (n - 2)] = c
        if rng.random() < 0.3:
            rems.append(RemainderDescriptor(pts[-1], frozenset({0})))
        yield TaylorModel.from_dict(n, coeffs, rems)


def test_check_model_validation():
    # the options are checked before any face: x^2 + y^2 has only
    # sign-definite faces, which never reach check_face, and the other germ
    # has a circuit face, which reaches the pencil route
    for text in ("x^2 + y^2", "x^4 + y^4 + z^4 + x^2*y*z"):
        model = parse_text(text)
        poly = build_polyhedron(support(model))
        for tol in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InputError, match="tolerance must be positive and finite"):
                check_model(model, poly, tol=tol)
        with pytest.raises(InputError, match="starts must be >= 1"):
            check_model(model, poly, starts=0)


def _positive_or_negative_even(fp):
    """Are the face's terms all of one sign with every exponent even?"""
    return bool(fp.terms) and all(all(e % 2 == 0 for e in exp) for exp, _ in fp.terms) and (
        len({c > 0 for _, c in fp.terms}) == 1
    )


# one face of each germ is sign-definite even and a neighbouring face is not;
# the last puts a unit remainder on an otherwise positive-even edge
ROUTE_GERMS = [
    parse_text("x^6 + x^2*y^2 - y^5"),
    parse_text("-x^4 - x^2*y^2 - y^6 + x*y^3*z + z^4"),
    parse_text("x^4 + y^4 + z^4 - x^2*y^2 + x*y*z^2"),
    TaylorModel.from_dict(2, {(4, 0): 1, (0, 4): 1}, [RemainderDescriptor((2, 2), is_unit=True)]),
]


def test_check_model_matches_face_by_face_oracle(monkeypatch):
    # check_model prepares the germ once for all its faces; each verdict
    # must be the one check_face gives on the face polynomial restricted
    # face by face.  The germs reach every route: sign-definite, kernel,
    # two-variable, pencil, multistart, degenerate and unit-remainder faces.
    # check_face sees exactly the faces that are not sign-definite even or
    # that hold a unit remainder, each with the seed of its index
    called = []

    def counted(fp, **kwargs):
        called.append((fp.face.lattice_points, kwargs["seed"]))
        return check_face(fp, **kwargs)

    monkeypatch.setattr(nondegeneracy, "check_face", counted)
    statuses = set()
    models = [*_seeded_germs_with_remainders(random.Random(17), 80), *ROUTE_GERMS]
    for m, model in enumerate(models):
        poly = build_polyhedron(support(model))
        called.clear()
        verdicts, ok = check_model(model, poly, starts=4, seed=5)
        faces = compact_faces(poly)
        keys = [face.lattice_points for face in faces]
        assert list(verdicts) == keys, model
        # each key ascends, and so do the keys, so reports list them as they come
        assert all(list(key) == sorted(key) for key in keys), model
        assert keys == sorted(keys), model
        polys = [face_polynomial(model, face) for face in faces]
        want = {
            key: check_face(fp, starts=4, seed=5 + k)
            for k, (key, fp) in enumerate(zip(keys, polys))
        }
        assert list(verdicts.items()) == list(want.items()), model
        reached = [
            (key, 5 + k) for k, (key, fp) in enumerate(zip(keys, polys))
            if fp.underdetermined or not _positive_or_negative_even(fp)
        ]
        assert called == reached, model
        if m >= len(models) - len(ROUTE_GERMS):
            assert 0 < len(reached) < len(keys), model
        assert ok == all(v.status.startswith("nondegenerate") for v in want.values())
        statuses.update(v.status for v in verdicts.values())
        # verdicts are frozen, so every sign-definite face shares one
        assert len({
            id(v) for v in verdicts.values() if v.detail.startswith("sign-definite")
        }) <= 1
    assert statuses == {
        "nondegenerate-exact", "nondegenerate-numeric", "degenerate", "inconclusive"
    }
    # the last germ's edge holds the unit remainder
    assert verdicts[((0, 4), (2, 2), (4, 0))].status == "inconclusive"


def test_exponent_kernel_rule():
    # faces of x^4+y^4+z^4+xyz all have a single-monomial partial (e.g.
    # d/dz of x^4+y^4+xyz is xy), a row of the exponent matrix with one
    # nonzero entry.  On x*y^5*z - x^2*y*z^4 + z^8 (and with y^8 or x^8) the
    # exponents are affinely independent, so the kernel is 0 although no
    # partial is a monomial; the multistart alone calls two of these faces
    # degenerate and one inconclusive.
    for text in ("x^4 + y^4 + z^4 + x*y*z", "x*y^5*z - x^2*y*z^4 + x^8 + y^8 + z^8"):
        model = parse_text(text)
        verdicts, ok = check_model(model, build_polyhedron(support(model)))
        assert ok, text
        assert all(v.status == "nondegenerate-exact" for v in verdicts.values()), text
        assert main(["exponents", text]) == 0, text


def test_numeric_route_on_three_variable_face():
    # six points in three variables, so dim ker A = 3: no exact route applies
    # and the multistart decides.  A sympy Groebner basis shows no critical
    # point on the complex torus.
    model = parse_text("x^4 + y^4 + z^4 + x^2*y*z + x*y^2*z + x*y*z^2")
    poly = build_polyhedron(support(model))
    supp = support(model)
    face = face_of_normal(poly, supp, (1, 1, 1))
    fp = face_polynomial(model, face)
    assert len(fp.terms) == 6 and len(_exponent_kernel(fp)) == 3
    v = check_face(fp, starts=8, seed=1)
    assert v.status == "nondegenerate-numeric"
    assert v.residual == pytest.approx(9.365231707587823, rel=1e-6)

    # a genuinely degenerate 3-variable face: (x - y + z)^2
    deg = parse_text(
        "x^2 + y^2 + z^2 - 2*x*y + 2*x*z - 2*y*z"
    )
    polyd = build_polyhedron(support(deg))
    faced = face_of_normal(polyd, support(deg), (1, 1, 1))
    fpd = face_polynomial(deg, faced)
    vd = check_face(fpd, starts=8, seed=1)
    assert vd.status == "degenerate"
    assert vd.residual <= 1e-10
    x, y, z = vd.witness
    assert abs(x - y + z) < 1e-5
    assert _relative_residual(fpd, vd.witness) <= RELATIVE_TOL

    # dim ker A = 4, so the multistart decides too.  Its best torus point
    # (1, 0.023, -0.012) has ||grad||^2 ~ 1e-14 only because it lies near the
    # line y = z = 0: its torus-invariant relative residual is 0.98, so it
    # is no critical point and the face is not called degenerate
    _, fpn = _face_poly(
        "3*z^5*x^3 + 2*z^7*x - 2*y*z^5*x^2 + 2*y^2*z^5*x - y^6*x^2 - y^6*z*x + y^6*z^2", (1, 1, 1)
    )
    assert len(_exponent_kernel(fpn)) == 4
    vn = check_face(fpn)
    assert vn.status == "inconclusive" and vn.residual <= DEFAULT_TOL, vn
    assert _relative_residual(fpn, vn.witness) > 0.9
    assert "relative residual" in vn.detail

    # the Hesse cubic at the degenerate parameter: critical on the diagonal
    # (a circuit, so the pencil route decides it exactly)
    hesse = parse_text("x^3 + y^3 + z^3 - 3*x*y*z")
    polyh = build_polyhedron(support(hesse))
    faceh = face_of_normal(polyh, support(hesse), (1, 1, 1))
    vh = check_face(face_polynomial(hesse, faceh), starts=8, seed=1)
    assert vh.status == "degenerate"


def test_euler_identity_on_faces():
    rng = np.random.default_rng(4)
    for name in ("circle", "cusp", "quartic_mix", "inert_axis"):
        model = germ(name)
        supp = support(model)
        poly = build_polyhedron(supp)
        for face in compact_faces(poly):
            fp = face_polynomial(model, face)
            fpoly = fp.poly()
            if not fpoly:
                continue
            a = face.defining_normal
            level = dot(a, next(iter(face.lattice_points)))
            pts = rng.uniform(-1, 1, size=(100, model.n))
            for p in pts:
                lhs = math.fsum(
                    a[i] * p[i] * poly_eval_float(poly_diff(fpoly, i), p)
                    for i in range(model.n)
                )
                rhs = level * poly_eval_float(fpoly, p)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_scaling_invariance_of_critical_residual():
    # grad f_gamma(t^a . x) = 0 iff grad f_gamma(x) = 0: check the residual
    # transforms by the expected monomial factors at t in {0.5, 2}
    model = parse_text("x^2 - 2*x*y + y^2")
    supp = support(model)
    poly = build_polyhedron(supp)
    face = face_of_normal(poly, supp, (1, 1))
    fp = face_polynomial(model, face)
    fpoly = fp.poly()
    a = face.defining_normal
    rng = np.random.default_rng(9)
    for p in rng.uniform(0.2, 1.0, size=(20, 2)):
        for t in (0.5, 2.0):
            scaled = tuple(t ** a[i] * p[i] for i in range(2))
            g1 = [poly_eval_float(poly_diff(fpoly, i), p) for i in range(2)]
            g2 = [poly_eval_float(poly_diff(fpoly, i), scaled) for i in range(2)]
            zero1 = all(abs(v) < 1e-12 for v in g1)
            zero2 = all(abs(v) < 1e-12 for v in g2)
            assert zero1 == zero2


def test_degenerate_witness_reproducible():
    model = germ("square_diff")
    poly = build_polyhedron(support(model))
    verdicts, ok = check_model(model, poly)
    assert not ok
    deg = [v for v in verdicts.values() if v.status == "degenerate"]
    assert deg
    w = deg[0].witness
    supp = support(model)
    face = face_of_normal(poly, supp, (1, 1))
    fp = face_polynomial(model, face)
    fpoly = fp.poly()
    residual = math.fsum(
        poly_eval_float(poly_diff(fpoly, i), w) ** 2 for i in range(2)
    )
    assert residual <= 1e-10


@pytest.fixture(scope="module")
def signed_faces():
    """Compact face polynomials of 120 seeded germs: n = 3 and 4, up to 8
    support points with entries <= 5, coefficients +-1..3."""
    rng = random.Random(11)
    faces = []
    for k in range(120):
        n = 3 + k % 2
        supp = random_support(rng, n, max_points=8, max_entry=5)
        coeffs = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in sorted(supp)}
        poly = build_polyhedron(supp)
        faces += [_face_of(n, coeffs, face) for face in compact_faces(poly)]
    return faces


def _monomial_face_or_partial(fp) -> bool:
    return len(fp.terms) == 1 or any(len(poly_diff(fp.poly(), i)) == 1 for i in range(fp.n))


def _elementary_status(fp) -> str | None:
    """The status of the elementary exact arguments, or None if none applies:
    a single term or a single-monomial partial, a sign-definite even face, or
    two active variables."""
    if _monomial_face_or_partial(fp) or _sign_definite_even(fp):
        return "nondegenerate-exact"
    active = fp.active_vars()
    if len(active) == 2:
        return _check_two_variable(fp, *active).status
    return None


def _torus_critical_basis(sympy, fp) -> list:
    """Reduced Groebner basis of the partials and 1 - t * (product of the
    active variables): [1] iff no critical point on the complex torus."""
    xs = sympy.symbols(f"x1:{fp.n + 1}")
    f = sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, exp)))
        for exp, c in fp.terms
    )
    active = [xs[i] for i in fp.active_vars()]
    t = sympy.Symbol("t")
    eqs = [sympy.diff(f, x) for x in active] + [1 - t * sympy.Mul(*active)]
    return list(sympy.groebner(eqs, *active, t, order="grevlex"))


def test_kernel_rule_covers_monomial_faces_and_partials(signed_faces):
    # the seeded faces almost all have ker A = 0; the pinned germs add
    # single-monomial partials on faces with a nonzero kernel
    faces = list(signed_faces)
    for text in NUMERIC_PINS:
        model = parse_text(text)
        supp = support(model)
        poly = build_polyhedron(supp)
        faces += [face_polynomial(model, face) for face in compact_faces(poly)]
    covered = [fp for fp in faces if _monomial_face_or_partial(fp)]
    assert len(covered) > 500
    assert all(_kernel_pins_a_term(_exponent_kernel(fp)) for fp in covered)


def test_exact_routes_agree_on_signed_corpus(signed_faces):
    decided = 0
    for fp in signed_faces:
        status = _elementary_status(fp)
        if status is not None:
            assert check_face(fp).status == status, fp.terms
            decided += 1
    assert decided > 500


def test_kernel_rule_faces_have_no_complex_torus_critical_point(signed_faces):
    sympy = pytest.importorskip("sympy")
    # every third face that only the kernel rule decides exactly, which keeps
    # the Groebner bases to about 2 s
    moved = [
        fp for fp in signed_faces
        if _kernel_pins_a_term(_exponent_kernel(fp)) and _elementary_status(fp) is None
    ]
    assert len(moved) > 100
    for fp in moved[::3]:
        assert _torus_critical_basis(sympy, fp) == [1], fp.terms
    # the oracle finds the critical points of (x - y)^2 and (x*y - z^2)^2
    for text, normal in (("x^2 - 2*x*y + y^2", (1, 1)),
                         ("x^2*y^2 - 2*x*y*z^2 + z^4 + x^6 + y^6 + z^6", (1, 1, 1))):
        _, fp = _face_poly(text, normal)
        assert not _kernel_pins_a_term(_exponent_kernel(fp))
        assert _torus_critical_basis(sympy, fp) != [1], text


# Face verdicts of germs with faces of three or more active variables, at
# seed 0 and the default starts.  Every face not listed is
# nondegenerate-exact, and the counts of their exact routes are pinned too.
# A listed face has its status, the start of its detail, its residual:
# ||grad||^2 of the face polynomial, for the multistart scaled to largest
# coefficient 1, and its witness.  A pencil witness is placed by exact
# arithmetic and one rounding per coordinate, so its bits are the same on
# every platform.
KERNEL = "exponent kernel: a term's entry is 0 on every kernel vector"
EULER = "sign-definite even face: no torus zero by the Euler identity"
MULTISTART = "multistart minimum of ||grad||^2 on the slice: "
PENCIL_SIGNS = "kernel pencil: no kernel vector without a zero entry has a solvable sign system"
PENCIL_ROOT = (
    "kernel pencil: the product identities have no common root where the sign system is solvable"
)
PENCIL_POINT = "kernel pencil: torus critical point from the kernel vector "
NUMERIC_PINS = {
    # its three-variable face is a circuit, b = (2, 1, 1, -4)
    "x^4 + y^4 + z^4 + x^2*y*z": (
        {EULER: 6, PENCIL_ROOT: 1},
        {},
    ),
    # its three-variable face x^3*y + y^3*z + z^3*x has affinely independent
    # exponents, so the exponent kernel decides it
    "x^3*y + y^3*z + z^3*x + x^6 + y^6 + z^6": (
        {KERNEL: 16, EULER: 3},
        {},
    ),
    # six points in four variables: dim ker A = 2, a pencil of kernel vectors
    "x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4 - x1^2*x2^2": (
        {EULER: 11, KERNEL: 2, PENCIL_ROOT: 1,
         "univariate reduction: partials share no nonzero real root": 1},
        {},
    ),
    # planted degenerate face (x*y - z^2)^2, a circuit with b = (1, -2, 1);
    # the two faces that add y^6 or x^6 are the two decided by the exponent
    # kernel
    "x^2*y^2 - 2*x*y*z^2 + z^4 + x^6 + y^6 + z^6": (
        {EULER: 8, KERNEL: 2},
        {((0, 0, 4), (1, 1, 2), (2, 2, 0)):
            ("degenerate", PENCIL_POINT + "(1, -2, 1)", 0.0, (1.0, 1.0, 1.0))},
    ),
    # the two four-point faces are circuits; the seven-point face has
    # dim ker A = 2
    "x1^4 + x2^4 + x3^4 + x4^4 + x5^4 + x1^2*x2*x3 - x3^2*x4*x5": (
        {EULER: 24, KERNEL: 4, PENCIL_ROOT: 3},
        {},
    ),
}


def _verdicts(text, seed=0):
    model = parse_text(text)
    return check_model(model, build_polyhedron(support(model)), seed=seed)[0]


@pytest.mark.parametrize("text", sorted(NUMERIC_PINS))
def test_numeric_route_verdicts_pinned(text):
    exact_routes, pinned = NUMERIC_PINS[text]
    verdicts = _verdicts(text)
    assert set(pinned) <= set(verdicts)
    exact = [v for key, v in verdicts.items() if key not in pinned]
    assert all(v.status == "nondegenerate-exact" for v in exact)
    assert Counter(v.detail for v in exact) == Counter(exact_routes)
    for key, (status, detail, residual, witness) in pinned.items():
        v = verdicts[key]
        assert v.status == status, key
        assert v.detail.startswith(detail), v.detail
        assert math.isclose(v.residual, residual, rel_tol=1e-6), (key, v.residual)
        assert v.witness == witness, (key, v.witness)
        if status == "degenerate":
            assert v.residual <= DEFAULT_TOL
            assert min(abs(x) for x in v.witness) >= TORUS_FLOOR


def test_planted_germ_spurious_faces_not_degenerate():
    # (x*y - z^2)^2 + y^6: d/dx forces x*y = z^2, and then d/dy = 6 y^5 != 0
    verdicts = _verdicts("x^2*y^2 - 2*x*y*z^2 + z^4 + x^6 + y^6 + z^6")
    for key in (((0, 0, 4), (0, 6, 0), (1, 1, 2), (2, 2, 0)),
                ((0, 0, 4), (1, 1, 2), (2, 2, 0), (6, 0, 0))):
        assert verdicts[key].status != "degenerate", key


# two circuit faces the multistart mislabelled, each with the reason the
# pencil route gives
FOUND_CIRCUITS = {
    # face {(0,2,4), (3,3,1), (5,1,3), (5,3,0)}: called degenerate at a
    # near-axis point
    "-2*x1^5*x2^3 - 2*x1^5*x2*x3^3 - 3*x1^3*x2^3*x3 - x2^2*x3^4": PENCIL_ROOT,
    # face {(1,1,2), (2,0,3), (4,1,0), (5,0,1)}: called inconclusive on a
    # coordinate plane
    "3*x1^5*x3 + 3*x1^4*x2 - 2*x1^3*x2*x3^3 - 3*x1^2*x2^2*x3^2 + x1^2*x3^3"
    " - x1*x2^2*x3^5 - x1*x2*x3^2": PENCIL_SIGNS,
}


@pytest.mark.parametrize("text", list(FOUND_CIRCUITS))
def test_circuit_faces_certified_nondegenerate(text):
    # a sympy Groebner basis of the face's partials and 1 - t*x1*x2*x3 is [1]
    model = parse_text(text)
    verdicts, ok = check_model(model, build_polyhedron(support(model)))
    assert ok
    assert [v.detail for v in verdicts.values()].count(FOUND_CIRCUITS[text]) == 1
    assert main(["nondegen", text]) == 0


def _is_circuit(fp) -> bool:
    """At least three active variables and an exponent kernel of one vector
    with no zero entry: a face the pencil route decides with constant lines."""
    kernel = _exponent_kernel(fp)
    return len(fp.active_vars()) >= 3 and len(kernel) == 1 and all(kernel[0])


def _planted_circuits(sympy, count):
    """Seeded circuit faces in n = 3 and 4 whose coefficients satisfy the
    product identity: c_alpha = sign_alpha * b_alpha / |x0^alpha| for a
    torus point x0 with |x0_j| in {1, 2}.  The even-numbered faces take the
    signs of t * b_alpha / x0^alpha with t = +-1, so x0 is critical; the
    odd-numbered ones a sign pattern that no choice of signs of x and t
    reaches, found by enumeration.  Yields (face polynomial, sign-blocked)
    pairs."""
    rng = random.Random(23)
    planted = 0
    while planted < count:
        n = rng.choice((3, 4))
        w = [rng.randint(1, 3) for _ in range(n)]
        d = rng.randint(4, 9)
        points = [p for p in itertools.product(range(d + 1), repeat=n) if dot(w, p) == d]
        m = rng.randint(3, n + 1)
        if len(points) < m:
            continue
        pts = sorted(rng.sample(points, m))
        null = sympy.Matrix(pts).T.nullspace()
        if len(null) != 1 or sum(1 for i in range(n) if any(p[i] for p in pts)) < 3:
            continue
        scale = sympy.ilcm(*(entry.q for entry in null[0]))
        b = [int(entry * scale) for entry in null[0]]
        if not all(b):
            continue
        blocked = planted % 2 == 1
        if blocked:
            free = [s for s in itertools.product((0, 1), repeat=m) if s not in _sign_patterns(pts)]
            if not free:
                continue
            flips = rng.choice(free)
        x0 = [Fraction(rng.choice((1, 2)) * rng.choice((1, -1))) for _ in range(n)]
        t = rng.choice((1, -1))
        coeffs = {}
        for k, p in enumerate(pts):
            value = math.prod(x**e for x, e in zip(x0, p))
            coeffs[p] = (-1) ** flips[k] * b[k] / abs(value) if blocked else t * b[k] / value
        planted += 1
        yield _face_of(n, coeffs, face_of_normal(build_polyhedron(set(pts)), pts, w)), blocked


def _sign_patterns(pts):
    """Every sign pattern of (x^alpha / t)_alpha over all choices of signs
    of the coordinates and of t, as parities."""
    n = len(pts[0])
    return {
        tuple((dot(p, eps) + tau) % 2 for p in pts)
        for eps in itertools.product((0, 1), repeat=n)
        for tau in (0, 1)
    }


def test_circuit_route_against_oracles(signed_faces):
    sympy = pytest.importorskip("sympy")
    # blocked is None on the seeded and pinned faces, and on a planted face
    # whether its signs were chosen out of reach
    faces = [(fp, None) for fp in signed_faces if _is_circuit(fp)]
    for text in NUMERIC_PINS:
        model = parse_text(text)
        supp = support(model)
        for face in compact_faces(build_polyhedron(supp)):
            fp = face_polynomial(model, face)
            if _is_circuit(fp):
                faces.append((fp, None))
    faces += list(_planted_circuits(sympy, 16))
    # -(x*y - z^2)^2: b_alpha / c_alpha has one sign on every term and
    # x^(0,0,4) > 0, so the signs are reached only with t < 0
    faces.append((_face_poly("-x^2*y^2 + 2*x*y*z^2 - z^4", (1, 1, 1))[1], False))
    seen = Counter()
    for fp, blocked in faces:
        assert _is_circuit(fp), fp.terms
        v = check_face(fp)
        pts = [exp for exp, _ in fp.terms]
        seen[v.status] += 1
        if v.detail == PENCIL_ROOT:
            seen["product"] += 1
            assert v.status == "nondegenerate-exact"
            assert blocked is None, fp.terms  # planted faces satisfy the identity
            assert _torus_critical_basis(sympy, fp) == [1], fp.terms
        elif v.detail == PENCIL_SIGNS:
            seen["signs"] += 1
            assert v.status == "nondegenerate-exact"
            assert blocked is not False, fp.terms
            # the parities [b_alpha / c_alpha < 0] that the signs must reach
            b = sympy.Matrix(pts).T.nullspace()[0]
            want = tuple(int(bool(bj < 0) != (c < 0)) for bj, (_, c) in zip(b, fp.terms))
            assert want not in _sign_patterns(pts), fp.terms
        else:
            assert v.status == "degenerate" and v.detail.startswith(PENCIL_POINT), v
            assert blocked is not True, fp.terms
            assert min(abs(x) for x in v.witness) >= TORUS_FLOOR, v.witness
            assert max(abs(v.witness[i]) for i in fp.active_vars()) == pytest.approx(1.0)
            assert _relative_residual(fp, v.witness) <= 1e-6, v.witness
    assert seen["product"] >= 4 and seen["signs"] >= 8 and seen["degenerate"] >= 8


def _pencil_faces(count, planted):
    """Seeded faces of n + 2 points on w.alpha = d in n = 3 and 4 variables,
    every variable active, with dim ker A = 2, no term pinned by the kernel
    and kernel entries of at most 12 in absolute value (a face with entries
    up to 14 took sympy's Groebner basis over 8 s).  Unplanted faces take
    coefficients +-1..3.  A planted face takes c_alpha = u_alpha / x0^alpha
    for a torus point x0 with |x0_j| in {1/2, 1, 3/2, 2, 3} and the kernel
    vector u = b1 + s0 b2 at a rational s0 where it has no zero entry, so x0
    is critical."""
    rng = random.Random(31 if planted else 37)
    made = 0
    while made < count:
        n = rng.choice((3, 4))
        w = [rng.randint(1, 3) for _ in range(n)]
        d = rng.randint(4, 8)
        points = [p for p in itertools.product(range(d + 1), repeat=n) if dot(w, p) == d]
        if len(points) < n + 2:
            continue
        pts = sorted(rng.sample(points, n + 2))
        coeffs = {p: rng.choice((-3, -2, -1, 1, 2, 3)) for p in pts}
        face = face_of_normal(build_polyhedron(set(pts)), pts, w)
        fp = _face_of(n, coeffs, face)
        kernel = _exponent_kernel(fp)
        if len(fp.active_vars()) < n or len(kernel) != 2 or _kernel_pins_a_term(kernel):
            continue
        if max(abs(e) for b in kernel for e in b) > 12:
            continue
        if planted:
            s0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            u = [x + s0 * y for x, y in zip(*kernel)]
            if not all(u):
                continue
            x0 = [Fraction(rng.choice((1, 2, 3, 4, 6)), 2) * rng.choice((1, -1)) for _ in range(n)]
            coeffs = {p: ui / math.prod(x**e for x, e in zip(x0, p)) for p, ui in zip(pts, u)}
            fp = _face_of(n, coeffs, face)
        made += 1
        yield fp


def test_pencil_route_against_oracles():
    sympy = pytest.importorskip("sympy")
    seen = Counter()
    for planted in (False, True):
        for fp in _pencil_faces(16, planted):
            v = check_face(fp)
            seen[planted, v.status] += 1
            if v.status == "nondegenerate-exact":
                assert v.detail in (PENCIL_SIGNS, PENCIL_ROOT)
                assert not planted, fp.terms
                # a complex torus critical point alone would be no error; these
                # seeded faces have none
                assert _torus_critical_basis(sympy, fp) == [1], fp.terms
                continue
            assert v.status == "degenerate" and v.detail.startswith(PENCIL_POINT), v
            assert _torus_critical_basis(sympy, fp) != [1], fp.terms
            assert min(abs(x) for x in v.witness) >= TORUS_FLOOR, v.witness
            assert max(abs(v.witness[i]) for i in fp.active_vars()) == pytest.approx(1.0)
            assert _relative_residual(fp, v.witness) <= 1e-6, v.witness
    assert seen[True, "degenerate"] == 16
    assert seen[False, "nondegenerate-exact"] >= 12


def _square_binomial_germs(count):
    """Seeded germs (m1 - lam*m2)^2 * m3^e + x1^N + ... + xn^N in n = 3..5
    variables, expanded: monomials m1 != m2 and m3 with exponents 0..2, e in
    {0, 1, 2}, lam = +-p/q with p, q in 1..3, and N one to three above the
    square's degree.  The square's three terms lie on a line, b = (1, -2, 1),
    so a face of just them has rank A = 2 and a torus critical point where
    m1 = lam*m2; with three or more active variables it is rank-deficient."""
    rng = random.Random(41)
    made = 0
    while made < count:
        n = rng.randint(3, 5)
        m1, m2, m3 = ([rng.randint(0, 2) for _ in range(n)] for _ in range(3))
        lam = Fraction(rng.randint(1, 3), rng.randint(1, 3)) * rng.choice((1, -1))
        e = rng.randint(0, 2)
        coeffs = {}
        for c, p, q in ((1, m1, m1), (-2 * lam, m1, m2), (lam * lam, m2, m2)):
            exp = tuple(a + b + e * d for a, b, d in zip(p, q, m3))
            coeffs[exp] = coeffs.get(exp, 0) + c
        if m1 == m2 or min(map(sum, coeffs)) < 2:
            continue
        big = max(map(sum, coeffs)) + rng.randint(1, 3)
        for i in range(n):
            exp = tuple(big * (j == i) for j in range(n))
            coeffs[exp] = coeffs.get(exp, 0) + 1
        made += 1
        yield " ".join(
            f"{'-' if c < 0 else '+'} {abs(c)}*"
            + "*".join(f"x{i + 1}^{k}" for i, k in enumerate(exp) if k)
            for exp, c in sorted(coeffs.items()) if c
        )


def _least_norm_witness(sympy, mpmath, fp, ratios):
    """|x_j| over the active j at the exact least-norm least-squares
    solution of A^T y = log|r| (the float logs taken exactly), shifted
    along the face weight to max y_j = 0, evaluated to 120 bits."""
    active = fp.active_vars()
    logs = [Fraction(math.log(abs(r.numerator)) - math.log(r.denominator)) for r in ratios]
    a_t = sympy.Matrix([[exp[j] for j in active] for exp, _ in fp.terms])
    y = a_t.pinv() * sympy.Matrix([sympy.Rational(b.numerator, b.denominator) for b in logs])
    w = [fp.face.defining_normal[j] for j in active]
    shift = min(-yc / wc for yc, wc in zip(y, w))
    with mpmath.workprec(120):
        return [mpmath.exp(mpmath.mpf(yc + wc * shift)) for yc, wc in zip(y, w)]


def test_torus_point_against_least_squares_oracle(monkeypatch):
    # every placement of a degenerate witness on seeded square-binomial germs
    # and planted pencil faces: a torus witness at max |x_j| = 1, within 4 ulp
    # of the exact least-norm witness, and within 4 ulp of numpy's lstsq
    # except where lstsq's own rounding is the larger error
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    placed = []
    torus_point = nondegeneracy._torus_point

    def recording(fp, ratios, signs, detail):
        v = torus_point(fp, ratios, signs, detail)
        placed.append((fp, ratios, signs, v.witness))
        return v

    monkeypatch.setattr(nondegeneracy, "_torus_point", recording)
    for text in _square_binomial_germs(150):
        _verdicts(text)
    germ_faces = len(placed)
    for fp in _pencil_faces(16, planted=True):
        check_face(fp)
    deficient = 0
    for fp, ratios, signs, witness in placed:
        active = fp.active_vars()
        deficient += len(eliminate([[exp[j] for j in active] for exp, _ in fp.terms])[1]) < len(active)
        assert min(abs(x) for x in witness) >= TORUS_FLOOR, witness
        assert max(abs(witness[j]) for j in active) == 1.0, witness
        assert _relative_residual(fp, witness) <= RELATIVE_TOL, witness
        oracle = torus_point_lstsq(fp, ratios, signs)
        exact = _least_norm_witness(sympy, mpmath, fp, ratios)
        for j, x in zip(active, exact):
            ours = abs(abs(mpmath.mpf(witness[j])) - x)
            ulp = 4 * math.ulp(witness[j])
            assert ours <= ulp, (fp.terms, witness, j)
            if abs(witness[j] - oracle[j]) > ulp:
                # lstsq's rounding, not the exact solve's: the oracle is farther out
                assert abs(abs(mpmath.mpf(oracle[j])) - x) > ours, (fp.terms, oracle, j)
    # 47 rank-deficient germ faces and 16 full-rank pencil faces; with one
    # LAPACK build, lstsq was 5-46 ulp off on 13 of their 249 coordinates
    assert deficient == germ_faces >= 40 and len(placed) == germ_faces + 16


def test_pencil_route_on_the_multistart_faces_it_replaced():
    # the three faces with dim ker A = 2 that went to the multistart, which
    # called them nondegenerate-numeric; sympy Groebner bases show no complex
    # torus critical point on any of them
    for text, normal in (
        ("x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4 - x1^2*x2^2", (1, 1, 1, 1)),
        ("x1^4 + x2^4 + x3^4 + x4^4 + x5^4 + x1^2*x2*x3 - x3^2*x4*x5", (1, 1, 1, 1, 1)),
        ("x^4 + y^4 + z^4 + x^2*y*z + x*y^2*z", (1, 1, 1)),
    ):
        _, fp = _face_poly(text, normal)
        assert len(_exponent_kernel(fp)) == 2 and len(fp.active_vars()) >= 3
        v = check_face(fp)
        assert (v.status, v.detail) == ("nondegenerate-exact", PENCIL_ROOT), text
    # the kernel of this face is spanned by b1 = (1, 3, -8, 4, 0) and b2 =
    # (1, 2, -4, 0, 1); c = b1 + b2 makes (1, 1, 1) critical
    _, fp = _face_poly("2*z^4 + 5*y^4 - 12*x*y^2*z + 4*x^2*y*z + x^4", (1, 1, 1))
    assert _exponent_kernel(fp) == [(1, 3, -8, 4, 0), (1, 2, -4, 0, 1)]
    v = check_face(fp)
    assert v.status == "degenerate" and v.detail.startswith(PENCIL_POINT), v
    assert v.witness == pytest.approx((1.0, 1.0, 1.0))
    assert v.residual <= DEFAULT_TOL


def test_high_degree_pencil_faces_stay_on_the_multistart():
    # the identities of this face have degree 145 in s; their exact gcd
    # took 13 s, the multistart takes a fraction of a second
    _, fp = _face_poly("x^60 + y^60 + z^60 + x^7*y^11*z^42 - x^29*y^13*z^18", (1, 1, 1))
    kernel = _exponent_kernel(fp)
    assert len(kernel) == 2 and _pencil_degree(*kernel) == 145 > PENCIL_MAX_DEGREE
    start = time.perf_counter()
    v = check_face(fp)
    assert time.perf_counter() - start < 5
    assert v.status == "nondegenerate-numeric" and v.detail.startswith(MULTISTART), v


def test_large_kernel_entries_decided_in_time():
    # a circuit whose kernel entries reach 30000: raising each line to
    # |b_alpha| one factor at a time took 4.7 s on a 2-core machine, squaring
    # takes about 0.05 s.  The facet is checked alone, because the germ's
    # two-variable edges have degree 30000.
    _, fp = _face_poly("x^30000 + y^30000 + z^30000 - 5*x^9131*y^10773*z^10096", (1, 1, 1))
    assert _exponent_kernel(fp) == [(10096, 10773, -30000, 9131)]
    start = time.perf_counter()
    v = check_face(fp)
    assert time.perf_counter() - start < 2
    assert (v.status, v.detail) == ("nondegenerate-exact", PENCIL_ROOT), v


def test_gf2_solve_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        width = rng.randint(1, 5)
        eqs = [(rng.getrandbits(width), rng.getrandbits(1)) for _ in range(rng.randint(1, 6))]
        got = _gf2_solve(eqs)
        solutions = [
            x for x in range(2**width)
            if all(bin(x & mask).count("1") % 2 == bit for mask, bit in eqs)
        ]
        if got is None:
            assert not solutions, eqs
        else:
            assert got in solutions, eqs


def test_numeric_route_needs_no_scipy_optimize():
    # a fresh interpreter, so that imports made by other tests cannot hide one
    code = (
        "import sys\n"
        "from lojex import build_polyhedron, check_model, parse_text, support\n"
        "m = parse_text('x^4 + y^4 + z^4 + x^2*y*z + x*y^2*z + x*y*z^2')\n"
        "verdicts, _ = check_model(m, build_polyhedron(support(m)), starts=4)\n"
        "assert any(v.status == 'nondegenerate-numeric' for v in verdicts.values())\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_compiled_face_matches_pointwise_derivatives():
    # the batched gradient and Hessian against poly_eval_float, point by point
    _, fp = _face_poly("x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4 - x1^2*x2^2", (1, 1, 1, 1))
    poly = _normalized_float_poly(fp)
    active = fp.active_vars()
    assert active == (0, 1, 2, 3)  # so the points need no padding
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(50, 4))
    g, hess = _CompiledFace.build(poly, active).evaluate(pts)
    for p, gp, hp in zip(pts, g, hess):
        for a, i in enumerate(active):
            d = poly_diff(poly, i)
            assert math.isclose(gp[a], poly_eval_float(d, p), rel_tol=1e-12, abs_tol=1e-14)
            for b, j in enumerate(active):
                ref = poly_eval_float(poly_diff(d, j), p)
                assert math.isclose(hp[a, b], ref, rel_tol=1e-12, abs_tol=1e-14)
