import json
import random
from fractions import Fraction

from lojex.cli import AnalysisOptions, analyze_germ
from lojex.exponents import (
    CombinedResult,
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
from lojex.fan import fan_exponents, normal_fan, simplicialize, unimodularize
from lojex.parser import parse_germ, parse_text
from lojex.polyhedron import build_polyhedron, hat_polyhedron
from lojex.taylor import RemainderDescriptor, TaylorModel, support

from .conftest import (
    example_flat_germ,
    random_hat_supports,
    random_positive_even_germ,
    random_support,
)
from .oracles import (
    dist_by_rankings,
    family_zero_patterns,
    monomial_zero_patterns,
    ranking_data,
    union_covers,
)

ALL = Hypotheses(True, True, True)


def _setup(text_or_model):
    model = (
        parse_text(text_or_model) if isinstance(text_or_model, str) else text_or_model
    )
    poly = build_polyhedron(support(model))
    hat = hat_polyhedron(poly)
    return model, poly, hat, transversals(hat)


def test_check_kn_flat_examples():
    for k, expect in ((1, False), (2, True), (3, True)):
        model = example_flat_germ(k)
        poly = build_polyhedron(support(model))
        rep = check_kn(model, poly)
        assert rep.satisfied is expect
        assert len(rep.remainders) == 1
    model, poly, _, _ = _setup("x^2 + y^2")
    assert check_kn(model, poly).satisfied


def test_check_kn_unit_remainder():
    model = TaylorModel.from_dict(
        2, {(2, 2): 1}, [RemainderDescriptor((3, 1), frozenset(), True)]
    )
    poly = build_polyhedron(support(model))
    rep = check_kn(model, poly)
    assert rep.satisfied and rep.remainders[0].ok


def test_kn_monotone_in_flat_exponent():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 4)
        supp = {tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(5)}
        supp = {p for p in supp if sum(p) >= 2}
        if not supp:
            continue
        flat = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
        beta = tuple(rng.randint(0, 6) for _ in range(n))
        bigger = tuple(b + rng.randint(0, 3) for b in beta)
        def verdict(b):
            model = TaylorModel.from_dict(
                n, {p: 1 for p in supp}, [RemainderDescriptor(b, flat, False)]
            )
            return check_kn(model, build_polyhedron(support(model))).satisfied
        if verdict(beta):
            assert verdict(bigger)


def test_convenience_examples():
    conv = convenience(build_polyhedron({(4, 0, 0), (1, 1, 0), (0, 4, 0)}))
    assert conv.partially_convenient and not conv.convenient
    assert conv.J == (0, 1) and conv.nu_max == 4

    conv = convenience(build_polyhedron({(2, 0), (0, 2)}))
    assert conv.convenient and conv.nu_max == 2

    conv = convenience(build_polyhedron({(2, 2)}))
    assert not conv.partially_convenient and conv.J == ()


def test_convenience_permutation_invariance():
    rng = random.Random(8)
    for _ in range(30):
        model = random_positive_even_germ(rng)
        poly = build_polyhedron(support(model))
        conv = convenience(poly)
        perm = list(range(model.n))
        rng.shuffle(perm)
        permuted = {
            tuple(p[perm[i]] for i in range(model.n)): 1 for p in support(model)
        }
        conv2 = convenience(build_polyhedron(set(permuted)))
        assert conv2.nu_max == conv.nu_max
        assert sorted(perm.index(j) for j in conv.J) == sorted(conv2.J)


def test_theta_examples():
    _, poly, _, _ = _setup("x1^4 + x1*x2 + x2^4 + x1^4*x3^6")
    res = theta(convenience(poly), Hypotheses(True, True, False))
    assert res.value == Fraction(3, 4)

    _, poly, _, _ = _setup("x^2 + y^2")
    assert theta(convenience(poly), ALL).value == Fraction(1, 2)

    _, poly, _, _ = _setup("x^2*y^2")
    res = theta(convenience(poly), ALL, fan_n=4)
    assert res.value is None and res.fallback == Fraction(3, 4)


def test_alpha_examples():
    for text, expected in (("x^2*y^2", 2), ("x^4 + x^2*y^2", 4), ("x^2 + y^2", 2)):
        _, poly, hat, _ = _setup(text)
        res = alpha_exponent(poly, hat, ALL)
        assert res.value == expected, text
    _, poly, hat, _ = _setup("x^2*y^2")
    gated = alpha_exponent(poly, hat, Hypotheses(True, True, False), fan_l=2)
    assert gated.value is None and gated.fallback == 2
    assert gated.per_hat_vertex  # the combinatorial quantity is still reported


def test_transversals_examples():
    _, _, hat, fam = _setup("x^2*y^2")
    assert set(fam.lambda_exact) == {frozenset({0}), frozenset({1})}
    assert set(fam.lambda_hitting) == set(fam.lambda_exact)
    assert fam.agree

    _, _, hat, fam = _setup("x^4 + x^2*y^2")
    assert fam.lambda_exact == (frozenset({0}),)
    assert fam.agree

    _, _, hat, fam = _setup("x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2")
    assert fam.lambda_exact == ()
    assert set(fam.lambda_hitting) == {
        frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})
    }
    assert not fam.agree


def test_transversals_exact_nonempty_but_wrong():
    # supports {1,2,4},{2,3,4},{1,3,4}: {4} is an exact transversal but the
    # zero set also contains the subspace x1 = x2 = 0
    model = parse_text(
        "x1^2*x2^2*x4^2 + x2^2*x3^2*x4^2 + x1^2*x3^2*x4^2"
    )
    _, _, _, fam = _setup(model)
    assert frozenset({3}) in fam.lambda_exact
    assert not fam.agree
    assert frozenset({0, 1}) in fam.lambda_hitting


def test_zero_set_brute_force_cross_check():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(2, 5)
        supports = random_hat_supports(rng, n)
        vecs = {tuple(1 if i in s else 0 for i in range(n)) for s in supports}
        fam = transversals(build_polyhedron(vecs))
        assert monomial_zero_patterns(fam.supports, n) == family_zero_patterns(
            fam.lambda_hitting, n
        )


def test_agree_is_the_comparison_of_the_unions():
    # `agree` compares the two families; the reference compares the unions
    # of their subspaces both ways, on hat polyhedra of random 0/1 supports
    # and of random germ supports
    rng = random.Random(33)
    disagree = 0
    for k in range(600):
        n = rng.randint(2, 6)
        if k % 4:
            vecs = {tuple(1 if i in s else 0 for i in range(n)) for s in random_hat_supports(rng, n)}
            hat = build_polyhedron(vecs)
        else:
            hat = hat_polyhedron(build_polyhedron(random_support(rng, n, max_points=8, max_entry=4)))
        fam = transversals(hat)
        exact, hitting = fam.lambda_exact, fam.lambda_hitting
        assert fam.agree == (union_covers(exact, hitting) and union_covers(hitting, exact)), fam
        disagree += not fam.agree
    assert disagree >= 50


def test_dist_examples():
    _, poly, _, fam = _setup("x^2*y^2")
    res = dist_exponent(poly, fam, ALL)
    assert res.value == 4
    assert all(r.exponent == 4 for r in res.per_ranking)

    _, poly, _, fam = _setup("x^4 + x^2*y^2")
    res = dist_exponent(poly, fam, ALL)
    assert res.value == 4
    assert len(res.per_ranking) == 1
    assert res.per_ranking[0].vertices == ((4, 0),)

    _, poly, _, fam = _setup("x^2 + y^2")
    res = dist_exponent(poly, fam, ALL)
    assert res.value == 2
    assert set(fam.lambda_exact) == {frozenset({0, 1})}


def test_dist_extended_flag_on_triple():
    _, poly, _, fam = _setup("x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2")
    res = dist_exponent(poly, fam, ALL)
    assert res.extended
    assert res.value == 4


def test_dist_matches_ranking_walk():
    # the per-hat-support value against the maximum over all s! rankings
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 6)
        poly = build_polyhedron(random_support(rng, n, max_points=8, max_entry=6))
        fam = transversals(hat_polyhedron(poly))
        res = dist_exponent(poly, fam, ALL)
        assert res.value == dist_by_rankings(poly, fam)
        assert len(res.per_ranking) == len(fam.supports)
        for r in res.per_ranking:
            assert sorted(r.order) == list(fam.I_f)
            assert ranking_data(poly, fam, r.order) == (r.i_rho, r.vertices, r.exponent)


def test_dist_sum_of_eight_squares():
    text = " + ".join(f"x{i}^2" for i in range(1, 9)) + " + x1^2*x2^2"
    outcome = analyze_germ(parse_germ(text), AnalysisOptions(), with_audits=False)
    assert outcome.report.dist.value == 2
    assert len(outcome.report.dist.per_ranking) == 8  # one per hat support, not 8!
    # the report as `--json` writes it: 17.5 MB with one entry per ranking;
    # now ~245 KB, most of it the 255 compact faces of the non-degeneracy check
    assert len(json.dumps(outcome.document, indent=2)) < 300_000


def test_combined_case_consistency():
    for text in ("x^2 + y^2", "x^4 + y^4 + x^2*y^2"):
        _, poly, hat, fam = _setup(text)
        conv = convenience(poly)
        th = theta(conv, ALL)
        al = alpha_exponent(poly, hat, ALL)
        di = dist_exponent(poly, fam, ALL)
        comb = combined_case(conv, fam, th, al, di, ALL)
        assert comb is not None
        nu = conv.nu_max
        assert (comb.theta, comb.alpha, comb.dist) == (
            Fraction(1) - Fraction(1, nu), nu, nu
        )
    # the gate fails without partial convenience
    _, poly, hat, fam = _setup("x^2*y^2")
    conv = convenience(poly)
    comb = combined_case(
        conv, fam, theta(conv, ALL), alpha_exponent(poly, hat, ALL),
        dist_exponent(poly, fam, ALL), ALL,
    )
    assert comb is None


def test_combined_case_on_random_gated_germs():
    rng = random.Random(21)
    produced = 0
    while produced < 20:
        model = random_positive_even_germ(rng)
        _, poly, hat, fam = _setup(model)
        conv = convenience(poly)
        if not conv.partially_convenient:
            continue
        produced += 1
        th = theta(conv, ALL)
        al = alpha_exponent(poly, hat, ALL)
        di = dist_exponent(poly, fam, ALL)
        comb = combined_case(conv, fam, th, al, di, ALL)
        assert comb is not None
        nu = conv.nu_max
        assert th.value == Fraction(1) - Fraction(1, nu)
        assert al.value == nu
        assert di.value == nu


# the n/a reasons of the gates, in the order they are decided
NOT_PC = "germ is not partially convenient"
NOT_NN = "germ not declared non-negative"
NOT_KN = "monomial-ideal condition fails"
NOT_ND = "non-degeneracy not established"

# (kn, nondegenerate, nonnegative) -> (reason for theta on a partially
# convenient germ, reason for alpha and the distance exponent)
GATE_TABLE = {
    (True, True, True): (None, None),
    (True, True, False): (None, NOT_NN),
    (True, False, True): (NOT_ND, NOT_ND),
    (True, False, False): (NOT_ND, NOT_NN),
    (False, True, True): (NOT_KN, NOT_KN),
    (False, True, False): (NOT_KN, NOT_NN),
    (False, False, True): (NOT_KN, NOT_KN),
    (False, False, False): (NOT_KN, NOT_NN),
}


def test_gate_table_pins_values_reasons_and_fallbacks():
    # both germs have theta = 3/4 (when partially convenient), alpha = dist = 4
    # and the fan bounds L = 4, N = 6
    for text, pc in (("x^2 + y^4", True), ("x^4 + x^2*y^2", False)):
        _, poly, hat, fam = _setup(text)
        fx = fan_exponents(unimodularize(simplicialize(normal_fan(poly))), poly)
        conv = convenience(poly)
        assert conv.partially_convenient is pc and (fx.L, fx.N) == (4, 6)
        for (kn, nd, nn), (theta_reason, reason) in GATE_TABLE.items():
            hyp = Hypotheses(kn, nd, nn)
            if not pc:
                theta_reason = NOT_PC
            th = theta(conv, hyp, fx.N)
            al = alpha_exponent(poly, hat, hyp, fx.L)
            di = dist_exponent(poly, fam, hyp, fx.N)
            case = (text, hyp)
            assert (th.value, th.reason, th.fallback) == (
                None if theta_reason else Fraction(3, 4), theta_reason, Fraction(5, 6)
            ), case
            assert (al.value, al.reason, al.fallback) == (
                None if reason else 4, reason, 4
            ), case
            assert (di.value, di.reason, di.fallback) == (
                None if reason else 4, reason, 6
            ), case
            expected = (
                CombinedResult(Fraction(3, 4), Fraction(4), Fraction(4))
                if pc and reason is None
                else None
            )
            assert combined_case(conv, fam, th, al, di, hyp) == expected, case


def test_formula_is_the_ungated_value():
    _, poly, hat, fam = _setup("x^4 + x^2*y^2")
    for kn, nd, nn in GATE_TABLE:
        hyp = Hypotheses(kn, nd, nn)
        al = alpha_exponent(poly, hat, hyp)
        di = dist_exponent(poly, fam, hyp)
        assert (al.formula, di.formula) == (4, 4)
        assert al.value in (None, al.formula) and di.value in (None, di.formula)
    assert ALL.blocker() is None
    assert Hypotheses(False, True, False).blocker() == NOT_NN
    assert Hypotheses(False, True, False).blocker(needs_nonnegative=False) == NOT_KN


def test_convex_shape_examples():
    assert convex_shape(build_polyhedron({(2, 0), (0, 4)}))
    assert not convex_shape(build_polyhedron({(2, 2)}))
    assert not convex_shape(build_polyhedron({(3, 0), (0, 2)}))
