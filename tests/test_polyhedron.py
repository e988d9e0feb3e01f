import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import lojex.polyhedron
from lojex.errors import InputError
from lojex.fan import normal_fan
from lojex.linalg import dot
from lojex.polyhedron import (
    build_polyhedron,
    compact_faces,
    contains,
    diagonal_exponent,
    hat_polyhedron,
    support_value,
)

from .conftest import random_support, run_lojex
from .oracles import (
    affine_rank,
    compact_faces_from_lattice,
    dd_dual_rays_eliminated,
    entry_parameter_bisect,
    face_lattice,
    face_of_normal,
    g_gamma_eval,
    is_vertex_lp,
    is_vertex_rank,
    staircase_vertices_2d,
)


def test_build_examples():
    p = build_polyhedron({(2, 0), (0, 2)})
    assert p.vertices == frozenset({(2, 0), (0, 2)})
    assert {(f.normal, f.offset) for f in p.facets} == {
        ((1, 0), 0), ((0, 1), 0), ((1, 1), 2)
    }
    p2 = build_polyhedron({(4, 0), (2, 2), (0, 4)})
    assert p2.vertices == frozenset({(4, 0), (0, 4)})
    p3 = build_polyhedron({(4, 0, 0), (1, 1, 0), (0, 4, 0), (4, 0, 6)})
    assert p3.vertices == frozenset({(4, 0, 0), (1, 1, 0), (0, 4, 0)})


def test_single_point_gives_shifted_orthant():
    p = build_polyhedron({(2, 2)})
    assert p.vertices == frozenset({(2, 2)})
    assert {(f.normal, f.offset) for f in p.facets} == {((1, 0), 2), ((0, 1), 2)}


def test_build_errors():
    with pytest.raises(InputError):
        build_polyhedron(set())
    with pytest.raises(InputError):
        build_polyhedron({(2, -1)})


def test_support_value_examples():
    assert support_value(build_polyhedron({(2, 0), (0, 2)}), (1, 1)) == 2
    assert support_value(build_polyhedron({(2, 2)}), (1, 0)) == 2
    assert support_value(build_polyhedron({(4, 0), (1, 1), (0, 4)}), (1, 1)) == 2
    with pytest.raises(InputError):
        support_value(build_polyhedron({(2, 2)}), (-1, 0))


def test_face_of_normal_examples():
    supp = {(2, 0), (0, 2)}
    poly = build_polyhedron(supp)
    f = face_of_normal(poly, supp, (1, 1))
    assert f.lattice_points == frozenset(supp) and affine_rank(f.lattice_points) == 1
    f = face_of_normal(poly, supp, (1, 2))
    assert f.lattice_points == frozenset({(2, 0)}) and affine_rank(f.lattice_points) == 0
    supp2 = {(4, 0), (1, 1), (0, 4)}
    f = face_of_normal(build_polyhedron(supp2), supp2, (1, 1))
    assert f.lattice_points == frozenset({(1, 1)}) and affine_rank(f.lattice_points) == 0


def test_compact_faces_examples():
    supp = {(2, 0), (0, 2)}
    faces = compact_faces(build_polyhedron(supp))
    assert {frozenset(f.lattice_points) for f in faces} == {
        frozenset({(2, 0)}), frozenset({(0, 2)}), frozenset({(2, 0), (0, 2)})
    }
    faces = compact_faces(build_polyhedron({(2, 2)}))
    assert len(faces) == 1 and faces[0].lattice_points == frozenset({(2, 2)})
    supp3 = {(3, 0), (0, 2)}
    faces = compact_faces(build_polyhedron(supp3))
    assert {frozenset(f.lattice_points) for f in faces} == {
        frozenset({(3, 0)}), frozenset({(0, 2)}), frozenset({(3, 0), (0, 2)})
    }
    for f in faces:
        assert all(a > 0 for a in f.defining_normal)


def test_compact_faces_match_the_face_lattice():
    # faces grown from the vertices against the filtered face lattice, on
    # seeded supports with n = 2..6; for n <= 4, where the fan is built, the
    # normal fan's cones against the whole lattice: a cone's rays are the
    # facets through its face, and the maximal cones are the vertices'
    rng = random.Random(41)
    for k in range(100):
        n = 2 + k % 5
        supp = random_support(rng, n, max_points=6 + 2 * n, max_entry=7)
        poly = build_polyhedron(supp)
        assert compact_faces(poly) == compact_faces_from_lattice(poly, supp), supp
        if n > 4:
            continue
        lattice = face_lattice(poly)
        fan = normal_fan(poly)
        assert fan.rays == tuple(f.normal for f in poly.facets)
        assert len(fan.cones) == len(lattice), supp
        assert {c.rays: c.attached_face for c in fan.cones} == {
            tight: verts for verts, _, tight in lattice
        }, supp
        assert {fan.cones[i].rays for i in fan.maximal} == {
            tight for verts, rays, tight in lattice if len(verts) == 1 and not rays
        }, supp


def test_nondegen_on_large_support_in_time():
    # 3353 compact faces among 1683 facets; closing the whole face lattice
    # made `nondegen` take about 25 s
    rng = random.Random(5)
    points = sorted({tuple(rng.randint(0, 6) for _ in range(8)) for _ in range(60)})
    text = " + ".join("*".join(f"x{i + 1}^{e}" for i, e in enumerate(p) if e) for p in points)
    start = time.perf_counter()
    proc = run_lojex("nondegen", text)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10, elapsed


def test_g_gamma_eval_examples():
    assert g_gamma_eval(build_polyhedron({(2, 0), (0, 2)}), (1.0, 2.0)) == 5.0
    assert math.isclose(
        g_gamma_eval(build_polyhedron({(2, 2)}), (0.1, 0.1)), 1e-4
    )
    p = build_polyhedron({(4, 0, 0), (1, 1, 0), (0, 4, 0)})
    assert g_gamma_eval(p, (1.0, 1.0, 1.0)) == 3.0


def test_hat_polyhedron_examples():
    assert hat_polyhedron(build_polyhedron({(2, 2)})).vertices == frozenset({(1, 1)})
    assert hat_polyhedron(build_polyhedron({(4, 0), (2, 2)})).vertices == frozenset(
        {(1, 0)}
    )
    p = hat_polyhedron(build_polyhedron({(2, 2, 0), (0, 2, 2), (2, 0, 2)}))
    assert p.vertices == frozenset({(1, 1, 0), (0, 1, 1), (1, 0, 1)})


def test_diagonal_exponent_examples():
    assert diagonal_exponent(build_polyhedron({(2, 2)}), (1, 1)) == 2
    assert diagonal_exponent(build_polyhedron({(4, 0), (2, 2)}), (1, 0)) == 4
    assert diagonal_exponent(build_polyhedron({(2, 0), (0, 2)}), (1, 0)) == 2
    with pytest.raises(InputError):
        diagonal_exponent(build_polyhedron({(2, 2)}), (2, 1))


def test_contains_examples():
    p = build_polyhedron({(2, 2)})
    assert contains(p, (2, 2))
    assert not contains(p, (3, 1))
    assert contains(build_polyhedron({(2, 0), (0, 2)}), (1, 1))


def test_membership_needs_nonnegative_point():
    with pytest.raises(InputError):
        contains(build_polyhedron({(2, 2)}), (-1, 3))


def _seeded_n8_support():
    # 17 vertices and 821 facets; the double description took 147 s on it
    # before active sets were bitmasks and the points went in by degree
    rng = random.Random(4)
    return {tuple(rng.randint(0, 6) for _ in range(8)) for _ in range(25)}


def test_vertices_match_lp_oracle_random():
    rng = random.Random(11)
    supports = []
    for _ in range(60):
        n = rng.randint(2, 5)
        supp = set()
        for _ in range(rng.randint(1, 30)):
            p = tuple(rng.randint(0, 12) for _ in range(n))
            if any(p):
                supp.add(p)
        if supp:
            supports.append(supp)
    for supp in supports + [_seeded_n8_support()]:
        poly = build_polyhedron(supp)
        expected = {p for p in supp if is_vertex_lp(p, supp)}
        assert poly.vertices == expected


def _seeded_incidence_supports():
    """Seeded supports with n = 2..8, each also with its dominated points
    v + e_i, with its points doubled and the midpoints of their pairs (some
    inside a face, some inside the polyhedron), and as a 0/1 hat support."""
    rng = random.Random(29)
    for k in range(42):
        n = 2 + k % 7
        supp = random_support(rng, n, max_points=3 + n, max_entry=6)
        yield supp
        yield supp | {
            tuple(x + (i == j) for j, x in enumerate(v))
            for v in build_polyhedron(supp).vertices for i in range(n)
        }
        doubled = {tuple(2 * x for x in p) for p in supp}
        yield doubled | {
            tuple(a + b for a, b in zip(p, q)) for p in supp for q in supp if p < q
        }
        yield {tuple(int(x > 0) for x in p) for p in supp}


def test_vertex_meet_matches_rank_certificate():
    # the active sets of the facets through a point meet in its own bit
    # alone iff n independent facets pass through it
    for supp in _seeded_incidence_supports():
        poly = build_polyhedron(supp)
        assert poly.vertices == {p for p in supp if is_vertex_rank(poly, p)}, supp


def test_stored_facet_masks_are_the_incidences():
    for supp in _seeded_incidence_supports():
        poly = build_polyhedron(supp)
        assert [p for p, _ in poly.point_masks] == sorted(supp)
        for p, mask in poly.point_masks:
            assert mask == sum(
                1 << k for k, f in enumerate(poly.facets) if dot(f.normal, p) == f.offset
            ), (supp, p)
        assert poly.axis_masks == tuple(
            sum(1 << k for k, f in enumerate(poly.facets) if f.normal[i] == 0)
            for i in range(poly.n)
        ), supp


def test_written_start_gives_the_eliminated_starts_rays(monkeypatch):
    # build_polyhedron writes down the dual basis of the axes and its first
    # point; started from the first independent generators and an inverse,
    # the same run keeps every state and returns the same (ray, active) pairs
    runs = []
    dd = lojex.polyhedron.dd_dual_rays

    def recording(generators, start):
        pairs = dd(generators, start)
        runs.append((generators, pairs))
        return pairs

    monkeypatch.setattr(lojex.polyhedron, "dd_dual_rays", recording)
    supports = list(_seeded_incidence_supports())
    assert len(supports) == 168
    for supp in supports:
        runs.clear()
        build_polyhedron(supp)
        (generators, pairs), = runs
        assert pairs == dd_dual_rays_eliminated(generators), supp


def test_build_polyhedron_runs_no_elimination(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("build_polyhedron eliminated")

    for name, module in list(sys.modules.items()):
        if name == "lojex" or name.startswith("lojex."):
            for attr in ("eliminate", "solve_scaled"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    for supp in list(_seeded_incidence_supports())[:21]:
        build_polyhedron(supp)


def test_vertices_match_staircase_2d():
    rng = random.Random(5)
    for _ in range(80):
        supp = set()
        for _ in range(rng.randint(1, 15)):
            p = (rng.randint(0, 10), rng.randint(0, 10))
            if any(p):
                supp.add(p)
        if not supp:
            continue
        poly = build_polyhedron(supp)
        assert poly.vertices == frozenset(staircase_vertices_2d(supp))


def test_monotonicity_adding_interior_point():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 4)
        supp = {tuple(rng.randint(0, 8) for _ in range(n)) for _ in range(6)}
        supp = {p for p in supp if any(p)}
        if not supp:
            continue
        poly = build_polyhedron(supp)
        # any vertex plus a nonnegative shift stays inside
        v = sorted(poly.vertices)[0]
        inside = tuple(v[i] + (1 if i == 0 else 0) for i in range(n))
        poly2 = build_polyhedron(supp | {inside})
        assert poly2.vertices == poly.vertices
        assert {(f.normal, f.offset) for f in poly2.facets} == {
            (f.normal, f.offset) for f in poly.facets
        }


def test_support_value_is_min_over_generators():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 4)
        supp = {tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(8)}
        supp = {p for p in supp if any(p)}
        if not supp:
            continue
        poly = build_polyhedron(supp)
        for _ in range(5):
            a = tuple(rng.randint(0, 5) for _ in range(n))
            if not any(a):
                continue
            assert support_value(poly, a) == min(dot(a, p) for p in supp)


def test_diagonal_exponent_matches_bisection():
    cases = [
        (build_polyhedron({(2, 2)}), (1, 1)),
        (build_polyhedron({(4, 0), (2, 2)}), (1, 0)),
        (build_polyhedron({(2, 0), (0, 2)}), (0, 1)),
        (build_polyhedron({(4, 0, 0), (1, 1, 0), (0, 4, 0)}), (1, 1, 0)),
        (build_polyhedron({(2, 2, 0), (0, 2, 2), (2, 0, 2)}), (1, 1, 1)),
    ]
    for poly, alpha_star in cases:
        d = diagonal_exponent(poly, alpha_star)
        lo, hi = entry_parameter_bisect(poly, alpha_star)
        assert lo <= d <= hi
        assert contains(poly, [d * x for x in alpha_star])
        eps = Fraction(1, 10**9)
        if d > 0:
            assert not contains(poly, [(d - eps) * x for x in alpha_star])


def test_facets_are_supporting_with_enough_incidence():
    rng = random.Random(47)
    supports = []
    for _ in range(25):
        n = rng.randint(2, 4)
        supp = {tuple(rng.randint(0, 8) for _ in range(n)) for _ in range(10)}
        supp = {p for p in supp if any(p)}
        if supp:
            supports.append(supp)
    for supp in supports + [_seeded_n8_support()]:
        poly = build_polyhedron(supp)
        n = poly.n
        for f in poly.facets:
            verts_on = [v for v in poly.vertices if dot(f.normal, v) == f.offset]
            assert verts_on, "facet must touch a vertex"
            rays_on = [
                tuple(1 if j == i else 0 for j in range(n))
                for i in range(n)
                if f.normal[i] == 0
            ]
            pts = [list(v) for v in verts_on]
            base = pts[0]
            pts += [[b + r[i] for i, b in enumerate(base)] for r in rays_on]
            assert affine_rank(pts) == n - 1


def test_g_dominance_inside_points_decay():
    # lattice points of the polyhedron are dominated by the vertex-monomial
    # sum near 0; strictly inside points decay relative to it
    supp = {(4, 0), (0, 4)}
    poly = build_polyhedron(supp)
    rng = np.random.default_rng(2)
    inside = (3, 3)  # not on any compact face
    on_face = (2, 2)  # on the edge between the vertices
    ratios_inside = []
    ratios_face = []
    for radius in (1e-1, 1e-2, 1e-3, 1e-4):
        pts = rng.uniform(-1, 1, size=(2500, 2))
        pts = radius * pts / np.max(np.abs(pts), axis=1)[:, None]
        for label, exp, sink in (
            ("in", inside, ratios_inside), ("face", on_face, ratios_face)
        ):
            vals = np.abs(np.prod(pts ** np.array(exp), axis=1))
            g = np.array([g_gamma_eval(poly, tuple(p)) for p in pts])
            sink.append(float(np.max(vals / g)))
    assert all(r <= 1.0 + 1e-9 for r in ratios_face)
    assert all(b < a for a, b in zip(ratios_inside, ratios_inside[1:]))
    assert ratios_inside[-1] < 1e-3
