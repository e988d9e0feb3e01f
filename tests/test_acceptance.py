"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Numeric tightness directions follow the inequality structure: the gradient
inequality holds for every exponent at or above its infimum and fails below
it, and the domination/distance inequalities likewise fail below their
infima.  Tightness is therefore probed at exponent - 0.25 for the
domination/distance audits and at theta - 0.1 for the gradient audit.
"""

import random
import time
from fractions import Fraction


from lojex.audit import (
    Sample,
    SamplePlan,
    _default_radii,
    audit_L0,
    audit_L1,
    audit_L2,
    audit_euler_comparison,
    audit_f_vs_g,
    diagonal_probe,
)
from lojex.exponents import (
    Hypotheses,
    alpha_exponent,
    check_kn,
    convenience,
    dist_exponent,
    theta,
    transversals,
)
from lojex.fan import cone_det, fan_exponents, normal_fan, simplicialize, unimodularize
from lojex.linalg import dot
from lojex.nondegeneracy import check_model
from lojex.parser import parse_text
from lojex.polyhedron import build_polyhedron, hat_polyhedron
from lojex.taylor import support

from .conftest import (
    example_flat_germ,
    germ,
    random_hat_supports,
    random_positive_even_germ,
    random_support,
)
from .oracles import (
    affine_rank,
    euler_field_value,
    family_zero_patterns,
    fulldim_cone_contains,
    g_gamma_eval,
    is_vertex_lp,
    monomial_zero_patterns,
    simplicial_cone_contains,
)

ALL = Hypotheses(True, True, True)


def _report(number: int, started: float, budget: float, detail: str = ""):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"CRITERION {number}: PASS ({elapsed:.2f}s{', ' + detail if detail else ''})")


def test_criterion_1_flat_family_kn():
    started = time.monotonic()
    for k, expected in ((1, False), (2, True), (3, True)):
        model = example_flat_germ(k)
        poly = build_polyhedron(support(model))
        assert check_kn(model, poly).satisfied is expected, k
    _report(1, started, 1.0, "monomial-ideal condition iff k >= 2")


def test_criterion_2_partially_convenient_germ():
    started = time.monotonic()
    model = germ("inert_axis")
    poly = build_polyhedron(support(model))
    conv = convenience(poly)
    assert conv.partially_convenient and not conv.convenient
    assert conv.J == (0, 1)  # reported 1-based as {1, 2}
    assert conv.nu_max == 4
    verdicts, nondeg = check_model(model, poly)
    assert nondeg
    res = theta(conv, Hypotheses(True, nondeg, False))
    assert res.value == Fraction(3, 4)
    _report(2, started, 5.0, "J = {1,2}, nu = 4, theta = 3/4")


def test_criterion_3_polyhedron_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(2026)
    for trial in range(200):
        n = rng.choice([2, 3, 4, 5])
        supp = random_support(rng, n, max_points=20, max_entry=10)
        poly = build_polyhedron(supp)
        expected = {p for p in supp if is_vertex_lp(p, supp)}
        assert poly.vertices == expected, (trial, sorted(supp))
        for f in poly.facets:
            verts_on = [v for v in poly.vertices if dot(f.normal, v) == f.offset]
            assert verts_on
            pts = [list(v) for v in verts_on]
            base = pts[0]
            for i in range(n):
                if f.normal[i] == 0:
                    pts.append([b + (1 if j == i else 0) for j, b in enumerate(base)])
            assert affine_rank(pts) == n - 1, (trial, f)
    _report(3, started, 120.0, "200 random supports, LP vertex oracle")


def _covering_ok(fan, rng, n):
    for _ in range(20):
        ray = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n))
        if not any(
            simplicial_cone_contains(fan.generators(c), ray)
            for c in fan.maximal_cones()
        ):
            return False
    return True


def test_criterion_4_fan_invariants():
    started = time.monotonic()
    # pinned cusp values
    poly = build_polyhedron({(3, 0), (0, 2)})
    fan = unimodularize(simplicialize(normal_fan(poly)))
    assert set(fan.rays) == {(1, 0), (1, 1), (2, 3), (1, 2), (0, 1)}
    fx = fan_exponents(fan, poly)
    assert (fx.L, fx.N) == (6, 9)

    rng = random.Random(404)
    catalog_polys = [
        build_polyhedron(support(germ(name)))
        for name in (
            "circle", "quartic_mix", "monomial", "cusp", "axis_mix",
            "square_diff", "inert_axis", "triple_cross", "uneven_axes",
        )
    ]
    random_polys = []
    for _ in range(50):
        n = rng.choice([2, 3])
        random_polys.append(build_polyhedron(random_support(rng, n, 8, 6)))
    for poly in catalog_polys + random_polys:
        fan0 = normal_fan(poly)
        fan = unimodularize(simplicialize(fan0))
        n = poly.n
        for cone in fan.maximal_cones():
            gens = fan.generators(cone)
            assert len(gens) == n and abs(cone_det(gens)) == 1
            interior = tuple(sum(g[i] for g in gens) for i in range(n))
            parents = [
                c0 for c0 in fan0.maximal_cones()
                if fulldim_cone_contains(fan0.generators(c0), interior)
            ]
            assert parents
            for g in gens:
                assert fulldim_cone_contains(fan0.generators(parents[0]), g)
        assert _covering_ok(fan, rng, n)
    _report(4, started, 60.0, "catalog + 50 random polyhedra, all dets 1")


def _general_path(model):
    poly = build_polyhedron(support(model))
    hat = hat_polyhedron(poly)
    fam = transversals(hat)
    conv = convenience(poly)
    return (
        theta(conv, ALL).value,
        alpha_exponent(poly, hat, ALL).value,
        dist_exponent(poly, fam, ALL).value,
        conv,
        poly,
    )


def test_criterion_5_combined_case_consistency():
    started = time.monotonic()
    gated = [germ("circle"), germ("quartic_mix"), parse_text("x1^4 + x2^4 + x1^2*x2^2")]
    rng = random.Random(777)
    produced = 0
    while produced < 20:
        model = random_positive_even_germ(rng)
        if not convenience(build_polyhedron(support(model))).partially_convenient:
            continue
        gated.append(model)
        produced += 1
    for model in gated:
        th, al, di, conv, _ = _general_path(model)
        assert conv.partially_convenient
        nu = conv.nu_max
        assert th == Fraction(1) - Fraction(1, nu)
        assert al == nu
        assert di == nu
    _report(5, started, 60.0, "23 gated germs match (1-1/nu, nu, nu)")


def test_criterion_6_fan_bound_consistency():
    started = time.monotonic()
    gated = [germ("circle"), germ("quartic_mix"), parse_text("x1^4 + x2^4 + x1^2*x2^2")]
    rng = random.Random(777)
    produced = 0
    while produced < 20:
        model = random_positive_even_germ(rng)
        if not convenience(build_polyhedron(support(model))).partially_convenient:
            continue
        gated.append(model)
        produced += 1
    for model in gated:
        th, al, di, conv, poly = _general_path(model)
        fx = fan_exponents(unimodularize(simplicialize(normal_fan(poly))), poly)
        assert al <= fx.L, (al, fx.L)
        assert di <= fx.N, (di, fx.N)
        assert th <= Fraction(1) - Fraction(1, fx.N)
    _report(6, started, 120.0, "d <= L, dist <= N, theta <= 1 - 1/N")


TIGHTNESS = {
    # germ: (L1 exponent, L0 (g, alpha), L2 exponent)
    "monomial": (Fraction(3, 4), ((1, 1), Fraction(2)), Fraction(4)),
    "axis_mix": (Fraction(5, 6), ((1, 0), Fraction(4)), Fraction(4)),
    "circle": (Fraction(1, 2), ((1, 0), Fraction(2)), Fraction(2)),
}


def test_criterion_7_numeric_tightness():
    started = time.monotonic()
    plan = SamplePlan(radii=_default_radii(1e-1, 1e-5, 16), seed=0)
    for name, (th, (g_exp, al), ld) in TIGHTNESS.items():
        t0 = time.monotonic()
        model = germ(name)
        fam = transversals(hat_polyhedron(build_polyhedron(support(model))))

        sample = Sample(model, plan, diagonal_probe(g_exp))
        r = audit_L1(sample, th)
        assert r.verdict == "pass", (name, "L1", r.kendall_tau)
        r = audit_L1(sample, th - Fraction(1, 10))
        assert r.verdict == "fail" and r.kendall_tau < -0.8, (name, "L1 tight")

        r = audit_L0(sample, g_exp, al)
        assert r.verdict == "pass", (name, "L0")
        r = audit_L0(sample, g_exp, al - Fraction(1, 4))
        assert r.verdict == "fail" and r.kendall_tau < -0.8, (name, "L0 tight")

        r = audit_L2(sample, ld, fam)
        assert r.verdict == "pass", (name, "L2")
        r = audit_L2(sample, ld - Fraction(1, 4), fam)
        assert r.verdict == "fail" and r.kendall_tau < -0.8, (name, "L2 tight")
        assert time.monotonic() - t0 < 30.0, name
    _report(7, started, 90.0, "pass at predicted, fail below, tau < -0.8")


def test_criterion_8_lemma_audits():
    started = time.monotonic()
    plan = SamplePlan(seed=0)
    from .conftest import GATED_NONNEG

    for name in GATED_NONNEG:
        model = germ(name)
        poly = build_polyhedron(support(model))
        sample = Sample(model, plan)
        assert audit_euler_comparison(sample, poly).verdict == "pass", name
        assert audit_f_vs_g(sample, poly).verdict == "pass", name

    model = germ("square_diff")
    poly = build_polyhedron(support(model))
    forced = audit_euler_comparison(Sample(model, plan, [(1.0, 1.0)]), poly, forced=True)
    assert forced.verdict == "fail"
    diag_ratios = []
    for r in plan.radii:
        point = (r, r)
        diag_ratios.append(
            euler_field_value(model, point) / g_gamma_eval(poly, point)
        )
    assert all(b <= a + 1e-15 for a, b in zip(diag_ratios, diag_ratios[1:]))
    assert diag_ratios[-1] < 1e-12
    _report(8, started, 60.0, "comparison lemmas pass; forced diagonal decays")


def test_criterion_9_zero_set_cross_check():
    started = time.monotonic()
    rng = random.Random(909)
    for _ in range(100):
        n = rng.randint(2, 5)
        supports = random_hat_supports(rng, n)
        vecs = {tuple(1 if i in s else 0 for i in range(n)) for s in supports}
        fam = transversals(build_polyhedron(vecs))
        assert monomial_zero_patterns(fam.supports, n) == family_zero_patterns(
            fam.lambda_hitting, n
        )
    triple = transversals(
        build_polyhedron({(1, 1, 0), (0, 1, 1), (1, 0, 1)})
    )
    assert triple.lambda_exact == () and not triple.agree
    model = germ("triple_cross")
    poly = build_polyhedron(support(model))
    res = dist_exponent(poly, transversals(hat_polyhedron(poly)), ALL)
    assert res.extended
    _report(9, started, 60.0, "100 random hat families, disagreement flag raised")
