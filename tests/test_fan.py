import json
import random
import time
from fractions import Fraction

import pytest

import lojex.cli
from lojex import report
from lojex.cli import main
from lojex.errors import CapExceededError, InputError
from lojex.fan import (
    UNIMODULARIZE_MAX_CHAIN_RAYS,
    Cone,
    Fan,
    _parallelepiped_point,
    cone_det,
    fan_exponents,
    hirzebruch_jung_chain,
    hirzebruch_jung_length,
    normal_fan,
    simplicialize,
    unimodularize,
)
from lojex.linalg import dot, solve_scaled
from lojex.parser import parse_text
from lojex.polyhedron import build_polyhedron, support_value
from lojex.taylor import support

from .conftest import CATALOG, germ, random_support, run_lojex, run_python
from .oracles import (
    cone_facet_sets,
    coords_in_basis,
    fulldim_cone_contains,
    parallelepiped_point_box_walk,
    simplicial_cone_contains,
    unimodularize_every_cone,
    validate_fan,
)
from .test_geometry_digest import _corpus


def _refined(poly):
    return unimodularize(simplicialize(normal_fan(poly)))


def test_normal_fan_circle():
    poly = build_polyhedron({(2, 0), (0, 2)})
    fan = normal_fan(poly)
    cones = {
        frozenset(fan.rays[i] for i in c.rays): c.attached_face
        for c in fan.maximal_cones()
    }
    assert set(cones) == {
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    }
    # the cone containing (1,0) in its span of facet normals is attached to
    # the vertex on the y-axis (the facets through (0,2) are x>=0 and x+y>=2)
    assert cones[frozenset({(1, 0), (1, 1)})] == frozenset({(0, 2)})
    assert cones[frozenset({(0, 1), (1, 1)})] == frozenset({(2, 0)})


def test_normal_fan_monomial_and_cusp():
    fan = normal_fan(build_polyhedron({(2, 2)}))
    assert len(fan.maximal) == 1
    gens = {fan.rays[i] for i in fan.maximal_cones()[0].rays}
    assert gens == {(1, 0), (0, 1)}

    fan = normal_fan(build_polyhedron({(3, 0), (0, 2)}))
    cones = {
        frozenset(fan.rays[i] for i in c.rays) for c in fan.maximal_cones()
    }
    assert cones == {frozenset({(1, 0), (2, 3)}), frozenset({(2, 3), (0, 1)})}


def test_simplicialize_2d_identity():
    fan = normal_fan(build_polyhedron({(2, 0), (0, 2)}))
    refined = simplicialize(fan)
    assert {c.rays for c in refined.maximal_cones()} == {
        c.rays for c in fan.maximal_cones()
    }


def test_simplicialize_square_pyramid():
    # a fan's cones list every face of each cone: here the four rays, the
    # four 2D faces and the pyramid itself
    rays = ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
    faces = [(0,), (0, 1), (0, 1, 2, 3), (0, 2), (1,), (1, 3), (2,), (2, 3), (3,)]
    fan = Fan(3, rays, tuple(Cone(f) for f in faces), (2,), (None,))
    tris = [c.rays for c in simplicialize(fan).maximal_cones()]
    got = {frozenset(rays[i] for i in t) for t in tris}
    assert got == {
        frozenset({(0, 1, 0), (1, 0, 1), (0, 1, 1)}),
        frozenset({(0, 1, 0), (1, 0, 0), (1, 0, 1)}),
    }
    for t in tris:
        assert abs(cone_det([rays[i] for i in t])) == 1


def test_simplicialize_3d_normal_fan_covers():
    poly = build_polyhedron({(2, 0, 0), (0, 2, 0), (0, 0, 2)})
    fan = simplicialize(normal_fan(poly))
    for c in fan.maximal_cones():
        assert len(c.rays) == 3


def test_hirzebruch_jung_examples():
    assert hirzebruch_jung_chain((1, 0), (2, 3)) == [(1, 0), (1, 1), (2, 3)]
    assert hirzebruch_jung_chain((2, 3), (0, 1)) == [(2, 3), (1, 2), (0, 1)]
    assert hirzebruch_jung_chain((1, 0), (1, 1)) == [(1, 0), (1, 1)]


def test_hj_chain_dets_random():
    rng = random.Random(3)
    from math import gcd

    for _ in range(200):
        u = (rng.randint(0, 9), rng.randint(0, 9))
        v = (rng.randint(0, 9), rng.randint(0, 9))
        if gcd(*u) != 1 or gcd(*v) != 1:
            continue
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        chain = hirzebruch_jung_chain(u, v)
        for a, b in zip(chain, chain[1:]):
            assert abs(a[0] * b[1] - a[1] * b[0]) == 1
        # every inserted ray lies in the original cone
        for w in chain:
            assert simplicial_cone_contains([u, v], w) or simplicial_cone_contains(
                [v, u], w
            )


def test_hj_length_is_the_chains_inserted_rays():
    rng = random.Random(17)
    from math import gcd

    for hi in (9, 300, 10**6):
        for _ in range(300):
            u = v = (0, 0)
            while gcd(*u) != 1 or gcd(*v) != 1 or u[0] * v[1] == u[1] * v[0]:
                u = (rng.randint(0, hi), rng.randint(0, hi))
                v = (rng.randint(0, hi), rng.randint(0, hi))
            assert hirzebruch_jung_length(u, v) == len(hirzebruch_jung_chain(u, v)) - 2, (u, v)
    # a long chain: every (1, k) for k = 1..9999 lies between (1, 0) and (1, 10000)
    assert hirzebruch_jung_length((1, 0), (1, 10000)) == 9999


def test_simplicial_cone_contains_rational_point():
    # truncating -1/2 to 0 would put the point on the cone's boundary
    assert not simplicial_cone_contains([(1, 0), (0, 1)], (Fraction(-1, 2), 1))
    assert simplicial_cone_contains([(1, 0), (0, 1)], (Fraction(1, 2), 1))
    assert not simplicial_cone_contains([(2, 1), (1, 2)], (Fraction(1, 3), Fraction(3, 2)))


def test_parallelepiped_point_matches_box_walk():
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        n = rng.choice([2, 3, 4])
        top = {2: 12, 3: 4, 4: 2}[n]
        gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(n)]
        if abs(cone_det(gens)) < 2:
            continue
        assert _parallelepiped_point(gens)[0] == parallelepiped_point_box_walk(gens), gens
        checked += 1


@pytest.mark.parametrize("text, rays, maximal, cones, trace", [
    ("x^4 + y^6 + z^9", 13, 21, 67,
     [(9, 1), (6, 1), (5, 1), (4, 1), (3, 3), (3, 2), (2, 4), (2, 2), (2, 1)]),
    ("x^4 + y^5 + z^7", 15, 25, 79,
     [(35, 1), (20, 1), (5, 4), (5, 2), (5, 1), (4, 1), (3, 2), (3, 1), (2, 4),
      (2, 2), (2, 1)]),
])
def test_unimodular_refinement_pinned(text, rays, maximal, cones, trace):
    got: list = []
    fan = unimodularize(simplicialize(normal_fan(build_polyhedron(support(parse_text(text))))),
                        trace=got)
    assert (len(fan.rays), len(fan.maximal), len(fan.cones)) == (rays, maximal, cones)
    assert got == trace


def test_large_brieskorn_fan_finishes():
    # the bounding-box walk never finished this one
    proc = run_lojex("fan", "x^7 + y^11 + z^13")
    assert proc.returncode == 0, proc.stderr
    assert "L = 1001, N = 1924" in proc.stdout
    fan = unimodularize(simplicialize(normal_fan(build_polyhedron(
        support(parse_text("x^7 + y^11 + z^13"))))))
    assert all(abs(cone_det(fan.generators(c))) == 1 for c in fan.maximal_cones())
    validate_fan(fan)


def test_unimodularize_matches_every_cone_oracle():
    # splitting only the cones around the new ray gives the fan and the trace
    # that solving for it in every cone gives
    rng = random.Random(7)
    for k in range(30):
        sigma = simplicialize(normal_fan(build_polyhedron(random_support(rng, 3 + k % 2, 6, 6))))
        got: list = []
        want: list = []
        assert unimodularize(sigma, trace=got) == unimodularize_every_cone(sigma, trace=want)
        assert got == want


def _catalog_and_digest_polyhedra():
    supports = [support(germ(name)) for name in CATALOG] + _corpus()
    return [build_polyhedron(s) for s in supports]


def test_fans_carry_their_cone_determinants():
    # each builder's det is the determinant of the cone's generators in their
    # listed order: the normal fan's and the triangles' from an elimination,
    # the refinement's carried through every stellar step with its sign
    for poly in _catalog_and_digest_polyhedra():
        fans = [normal_fan(poly)]
        fans.append(simplicialize(fans[0]))
        if poly.n <= 4:
            fans.append(unimodularize(fans[1]))
        for fan in fans:
            assert len(fan.dets) == len(fan.maximal)
            for cone, det in zip(fan.maximal_cones(), fan.dets):
                gens = fan.generators(cone)
                assert det == (cone_det(gens) if len(gens) == fan.n else None), gens


def test_fan_readers_compute_no_determinant(monkeypatch):
    import lojex.fan

    def refused(vectors):
        raise AssertionError("a fan reader recomputed a cone determinant")

    for poly in _catalog_and_digest_polyhedra():
        if poly.n > 4:
            continue
        want, _ = lojex.cli._fan_section(poly)
        sigma0 = normal_fan(poly)
        sigma = unimodularize(simplicialize(sigma0))
        with monkeypatch.context() as patch:
            patch.setattr(lojex.fan, "cone_det", refused)
            fx = fan_exponents(sigma, poly)
            got = {
                "normal": report.fan_json(sigma0, [support_value(poly, r) for r in sigma0.rays]),
                "unimodular": report.fan_json(sigma, fx.ray_values),
                "exponents": report.fan_exponents_json(fx),
            }
        assert got == want


def test_fan_section_takes_each_support_value_once(monkeypatch):
    # fan_exponents computes the refinement's support values and fan_json
    # reads them; only the rays of the refinement are counted
    import lojex.fan

    calls = []

    def counted(poly, a):
        calls.append(a)
        return support_value(poly, a)

    monkeypatch.setattr(lojex.fan, "support_value", counted)
    monkeypatch.setattr(report, "support_value", counted, raising=False)
    for poly in _catalog_and_digest_polyhedra():
        if poly.n > 4:
            continue
        calls.clear()
        lojex.cli._fan_section(poly)
        assert sorted(calls) == sorted(_refined(poly).rays)


def test_unimodularize_solves_once_per_stellar_step(monkeypatch):
    import lojex.fan

    calls = []

    def counted(*args):
        calls.append(args)
        return solve_scaled(*args)

    monkeypatch.setattr(lojex.fan, "solve_scaled", counted)
    for text in ("x^4 + y^5 + z^7", "x1^3 + x2^4 + x3^5 + x4^2 + x1*x2*x3*x4"):
        sigma = simplicialize(normal_fan(build_polyhedron(support(parse_text(text)))))
        calls.clear()
        trace: list = []
        unimodularize(sigma, trace=trace)
        assert trace and len(calls) == len(trace), text


def test_seeded_n4_support_refines_in_time():
    # solving for the new ray in every cone at each of its 1637 stellar steps
    # took about 5 minutes on a 2-core VM
    proc = run_lojex(
        "fan",
        "x1^2*x3^5*x4^5 + x1^2*x2^2*x3^5*x4^6 + x1^2*x2^3*x3^2*x4^6 + x1^2*x2^6*x3^4*x4^5"
        " + x1^3*x3^2*x4^5 + x1^3*x2^2*x3^4 + x1^3*x2^5*x4^5 + x1^6*x3^2*x4^6",
    )
    assert proc.returncode == 0, proc.stderr
    # simplicializing adds no ray and each stellar step adds one, so the
    # refinement's 1654 rays are the 17 facet normals and 1637 steps
    assert proc.stdout.splitlines() == [
        "normal fan: 6 maximal cones, 17 rays",
        "refinement: 7133 maximal cones, 1654 rays",
        "L = 348, N = 1032",
    ]


def test_fan_over_the_det_budget_exits_before_refining(tmp_path):
    # sum |det| = 17 983 679 over the simplicial cones: the stellar loop ran
    # for over 40 s with its memory growing by about 30 MB/s
    text = "x^60 + y^70 + z^80 + x^7*y^11*z^13"
    start = time.perf_counter()
    proc = run_lojex("fan", text)
    assert proc.returncode == 4, proc.stderr
    assert "sum |det| = 17983679" in proc.stderr
    # exponents still reports theta, with the fan-unavailable flag
    proc = run_lojex("exponents", text, "--json", str(tmp_path / "e.json"))
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 20
    doc = json.loads((tmp_path / "e.json").read_text())
    assert "fan" not in doc
    exps = doc["exponents"]
    assert [f.split(":")[0] for f in exps["flags"]] == ["fan-unavailable"]
    assert exps["theta"]["value"] == {"num": 79, "den": 80}


def test_2d_fan_over_the_chain_budget_exits_before_refining(tmp_path):
    # the chains would insert 999 999 rays: fan ran for 39 s at 1.7 GB and
    # wrote a 488 MB report, analyze for 25 s
    text = "x^1000000 + y^999999"
    start = time.perf_counter()
    proc = run_lojex("fan", text)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 4, proc.stderr
    assert "insert 999999 rays" in proc.stderr
    proc = run_lojex("analyze", text, "--json", str(tmp_path / "a.json"))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "a.json").read_text())
    assert "fan" not in doc
    flags = [f.split(":")[0] for f in doc["exponents"]["flags"]]
    assert "fan-unavailable" in flags
    # a fan whose chains insert exactly the budget is still built
    budget = UNIMODULARIZE_MAX_CHAIN_RAYS
    proc = run_lojex("fan", f"x^{budget + 1} + y^{budget}")
    assert proc.returncode == 0, proc.stderr


def test_large_supports_build_polyhedron_in_time(tmp_path, monkeypatch, capsys):
    # the double description took over 400 s on the seeded n = 8 germ, and
    # a quadratic dominance pre-pass 100 s on the 9870 terms of degree 139
    rng = random.Random(5)
    points = sorted({tuple(rng.randint(0, 6) for _ in range(8)) for _ in range(60)})
    text = " + ".join("*".join(f"x{i + 1}^{e}" for i, e in enumerate(p) if e) for p in points)
    proc = run_python("-c", (
        "import sys\n"
        "from lojex.parser import parse_germ\n"
        "from lojex.polyhedron import build_polyhedron\n"
        "from lojex.taylor import support\n"
        "print(len(build_polyhedron(support(parse_germ(sys.argv[1]))).vertices))\n"
    ), text)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
    # `fan` checks the unimodularization cap, which needs only n, first
    def no_polyhedron(_):
        raise AssertionError("fan built the polyhedron before checking the cap")

    monkeypatch.setattr(lojex.cli, "build_polyhedron", no_polyhedron)
    assert main(["fan", text]) == 4
    assert "unimodularization is capped" in capsys.readouterr().err
    # the germ's text is over the 128 KB limit of one command-line argument
    path = tmp_path / "antichain.txt"
    path.write_text(" + ".join(
        f"x^{a}*y^{b}*z^{139 - a - b}" for a in range(140) for b in range(140 - a)
    ))
    proc = run_lojex("fan", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "L = 139, N = 139" in proc.stdout


def test_unimodularize_cusp_rays_and_exponents():
    poly = build_polyhedron({(3, 0), (0, 2)})
    fan = _refined(poly)
    assert set(fan.rays) == {(1, 0), (1, 1), (2, 3), (1, 2), (0, 1)}
    fx = fan_exponents(fan, poly)
    assert (fx.L, fx.N) == (6, 9)
    per = {
        tuple(sorted(fan.generators(fan.maximal_cones()[c.cone_index]))): (
            c.l_sigma, c.n_sigma
        )
        for c in fx.per_cone
    }
    assert per[((1, 0), (1, 1))] == (2, 2)
    assert per[((1, 1), (2, 3))] == (6, 8)
    assert per[((1, 2), (2, 3))] == (6, 9)
    assert per[((0, 1), (1, 2))] == (3, 3)


def test_fan_exponents_catalog():
    cases = {
        "circle": (2, 2),
        "monomial": (2, 4),
        "quartic_mix": (4, 4),
        "axis_mix": (4, 6),
    }
    for name, expected in cases.items():
        poly = build_polyhedron(support(germ(name)))
        fx = fan_exponents(_refined(poly), poly)
        assert (fx.L, fx.N) == expected, name


def test_unimodularize_random_2d_3d():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.choice([2, 2, 3])
        supp = random_support(rng, n, max_points=8, max_entry=6)
        poly = build_polyhedron(supp)
        fan0 = normal_fan(poly)
        fan = unimodularize(simplicialize(fan0))
        for cone in fan.maximal_cones():
            gens = fan.generators(cone)
            assert len(gens) == n
            assert abs(cone_det(gens)) == 1
        # refinement: every refined maximal cone lies inside the original
        # cone containing its interior point
        for cone in fan.maximal_cones():
            gens = fan.generators(cone)
            interior = tuple(sum(g[i] for g in gens) for i in range(n))
            parents = [
                c0
                for c0 in fan0.maximal_cones()
                if fulldim_cone_contains(fan0.generators(c0), interior)
            ]
            assert parents
            parent_gens = fan0.generators(parents[0])
            for g in gens:
                assert fulldim_cone_contains(parent_gens, g)
        # covering: random rational rays in the open positive orthant
        for _ in range(20):
            ray = tuple(Fraction(rng.randint(1, 50), rng.randint(1, 9)) for _ in range(n))
            hits = [
                c
                for c in fan.maximal_cones()
                if simplicial_cone_contains(fan.generators(c), ray)
            ]
            assert hits


def test_fan_condition_catalog():
    for name in ("circle", "cusp", "monomial", "quartic_mix", "inert_axis",
                 "quartic_xyz"):
        poly = build_polyhedron(support(germ(name)))
        fan0 = normal_fan(poly)
        validate_fan(fan0)
        validate_fan(simplicialize(fan0))
        if poly.n <= 4:
            validate_fan(_refined(poly))


def test_fan_missing_cones_fails_validation():
    # the refinement less the maximal cones holding the diagonal still meets
    # the fan condition pairwise, but no longer covers the orthant
    fan = _refined(build_polyhedron(support(germ("quartic_xyz"))))
    diagonal = (1,) * fan.n
    kept = [
        (i, det) for i, det in zip(fan.maximal, fan.dets)
        if not simplicial_cone_contains(fan.generators(fan.cones[i]), diagonal)
    ]
    assert (len(kept), len(fan.maximal)) == (6, 9)
    with pytest.raises(AssertionError, match="is a facet of 0 other maximal cones"):
        validate_fan(Fan(fan.n, fan.rays, fan.cones, *zip(*kept)))


def test_determinant_monotonicity_witness():
    # each stellar step strictly decreases (max |det|, count attaining it)
    rng = random.Random(29)
    traced_any = False
    for _ in range(10):
        supp = random_support(rng, 3, max_points=6, max_entry=5)
        poly = build_polyhedron(supp)
        trace: list = []
        fan = unimodularize(simplicialize(normal_fan(poly)), trace=trace)
        assert all(
            abs(cone_det(fan.generators(c))) == 1 for c in fan.maximal_cones()
        )
        for a, b in zip(trace, trace[1:]):
            assert b < a, trace
        traced_any = traced_any or bool(trace)
    assert traced_any, "no random fan needed subdivision; weak test data"


def test_covering_thousand_rays_interior_unique():
    rng = random.Random(61)
    for name in ("circle", "cusp", "monomial", "quartic_mix"):
        poly = build_polyhedron(support(germ(name)))
        fan = _refined(poly)
        n = poly.n
        for _ in range(1000 // 4):
            ray = tuple(
                Fraction(rng.randint(1, 99), rng.randint(1, 13)) for _ in range(n)
            )
            holders = []
            interiors = []
            for c in fan.maximal_cones():
                gens = fan.generators(c)
                coeffs = coords_in_basis(gens, ray)
                if coeffs is not None and all(x >= 0 for x in coeffs):
                    holders.append(c)
                    if all(x > 0 for x in coeffs):
                        interiors.append(c)
            assert holders, (name, ray)
            # interior of at most one cone unless the ray sits on a shared face
            assert len(interiors) <= 1, (name, ray)
            if len(holders) > 1:
                assert not interiors or len(holders) == 1


def test_chart_exponent_dominance():
    # every ray of a cone attached to a vertex has support value attained at
    # that vertex; other vertices give at least the support value
    for name in ("circle", "cusp", "quartic_mix", "inert_axis"):
        poly = build_polyhedron(support(germ(name)))
        fan = normal_fan(poly)
        refined = unimodularize(simplicialize(fan)) if poly.n <= 4 else simplicialize(fan)
        for cone in refined.maximal_cones():
            assert cone.attached_face is not None
            (vertex,) = cone.attached_face
            for g in refined.generators(cone):
                l_val = support_value(poly, g)
                assert dot(g, vertex) == l_val
                for w in poly.vertices:
                    assert dot(g, w) >= l_val


def test_unimodularize_requires_simplicial_and_caps_dim():
    poly = build_polyhedron({(2, 0, 0, 0, 2), (0, 2, 0, 2, 0), (1, 1, 1, 1, 1)})
    fan = simplicialize(normal_fan(poly))
    with pytest.raises(CapExceededError):
        unimodularize(fan)


def test_fan_exponents_input_checks():
    poly = build_polyhedron(support(germ("quartic_xyz")))
    with pytest.raises(InputError, match="simplicial fan"):
        fan_exponents(normal_fan(poly), poly)  # its first cone has four rays

    cusp = build_polyhedron({(3, 0), (0, 2)})
    fan = simplicialize(normal_fan(cusp))  # still has determinant 2 and 3 cones
    with pytest.raises(InputError, match="unimodular fan"):
        fan_exponents(fan, cusp)

    # the refinement less every maximal cone holding the diagonal
    fan = _refined(poly)
    diagonal = (1,) * fan.n
    kept = [
        (i, det) for i, det in zip(fan.maximal, fan.dets)
        if not simplicial_cone_contains(fan.generators(fan.cones[i]), diagonal)
    ]
    assert len(kept) < len(fan.maximal)
    with pytest.raises(InputError, match="does not cover"):
        fan_exponents(Fan(fan.n, fan.rays, fan.cones, *zip(*kept)), poly)


def _listed_facets(fan, cone):
    """The maximal proper sub-cones of a fan cone among the cones the fan lists."""
    subs = [set(c.rays) for c in fan.cones if set(c.rays) < set(cone.rays)]
    return {frozenset(s) for s in subs if not any(s < t for t in subs)}


def test_listed_sub_cones_are_the_dd_facets():
    rng = random.Random(29)
    shape = {2: (10, 8), 3: (10, 6), 4: (8, 4), 5: (7, 3)}
    for n, (points, entry) in shape.items():
        for _ in range(8):
            fan = normal_fan(build_polyhedron(random_support(rng, n, points, entry)))
            for cone in fan.cones:
                dd = {frozenset(cone.rays[i] for i in f) for f in cone_facet_sets(fan.generators(cone))}
                assert _listed_facets(fan, cone) == dd, (fan.rays, cone.rays)


def test_fan_refinement_runs_no_double_description(monkeypatch):
    import lojex.fan
    import lojex.polyhedron

    polys = [build_polyhedron(random_support(random.Random(s), 4, 8, 4)) for s in range(6)]

    def forbidden(generators):
        raise AssertionError("double description after build_polyhedron")

    monkeypatch.setattr(lojex.polyhedron, "dd_dual_rays", forbidden)
    monkeypatch.setattr(lojex.fan, "dd_dual_rays", forbidden, raising=False)
    pulled = 0
    for poly in polys:
        fan = normal_fan(poly)
        pulled += sum(len(c.rays) > poly.n for c in fan.maximal_cones())
        simplicialize(fan)
    assert pulled  # some maximal cone needed the pulling triangulation
