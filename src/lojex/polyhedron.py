"""Exact Newton polyhedra over the lattice.

The Newton polyhedron of a support set A in Z^n_+ is

    conv( union over alpha in A of (alpha + R^n_+) ),

an unbounded polyhedron whose recession cone is the nonnegative orthant.
Both representations are computed exactly:

  V-rep: the vertex set (always a subset of the input support), and
  H-rep: facets (a, l) with a a primitive nonnegative integer normal and
         l = min <a, .> over the polyhedron, so membership on the orthant
         is exactly "all facet inequalities hold".

The H-rep comes from a double-description run on the homogenization
cone( {(p,1)} + {(e_i,0)} ) in dimension n+1; all pivots are Fractions.
Vertices are then certified against the H-rep: a support point is a vertex
iff n linearly independent facets are active there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapExceededError, InputError
from .linalg import affine_rank, dot, mat_rank, rational_primitive
from .taylor import MAX_DIM, Exponent, check_exponent

MAX_SUPPORT = 10_000


@dataclass(frozen=True)
class Facet:
    """Supporting half-space <normal, x> >= offset with primitive integer normal."""

    normal: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class NewtonPolyhedron:
    n: int
    vertices: frozenset[Exponent]
    facets: tuple[Facet, ...]


@dataclass(frozen=True)
class FaceData:
    """A face of the polyhedron, carried as its defining normal and lattice support.

    The face is compact exactly when the defining normal is strictly positive.
    `dim` is the affine dimension of the lattice points on the face.
    """

    defining_normal: tuple[int, ...]
    lattice_points: frozenset[Exponent]
    dim: int

    @property
    def compact(self) -> bool:
        return all(a > 0 for a in self.defining_normal)


# ---------------------------------------------------------------------------
# double description

def _dominance_filter(points: list[Exponent]) -> list[Exponent]:
    """Drop points that lie in another point's translated orthant."""
    out = []
    for p in points:
        if not any(
            q != p and all(qc <= pc for qc, pc in zip(q, p)) for q in points
        ):
            out.append(p)
    # identical points were deduped by the caller; keep deterministic order
    return sorted(set(out))


def dd_dual_rays(generators: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of the dual cone {z : <z, g> >= 0 for all g}.

    Requires the generators to span the ambient space (so the dual is
    pointed), which holds for all callers here.  Returns primitive integer
    vectors in a deterministic order.
    """
    d = len(generators[0])
    # greedy full-rank starting basis
    basis_idx: list[int] = []
    rows: list[tuple[int, ...]] = []
    for i, g in enumerate(generators):
        if mat_rank(rows + [g]) > len(rows):
            basis_idx.append(i)
            rows.append(g)
            if len(rows) == d:
                break
    if len(rows) < d:
        raise InputError("generator set does not span the ambient space")

    from .linalg import mat_inverse

    inv = mat_inverse(rows)
    assert inv is not None
    # ray j satisfies <ray_j, basis_i> = delta_ij, so the initial dual cone is simplicial
    rays: list[tuple[int, ...]] = [
        rational_primitive([inv[r][j] for r in range(d)]) for j in range(d)
    ]
    active: list[frozenset[int]] = [
        frozenset(basis_idx[i] for i in range(d) if i != j) for j in range(d)
    ]

    for k, g in enumerate(generators):
        if k in basis_idx:
            continue
        vals = [dot(r, g) for r in rays]
        if all(v >= 0 for v in vals):
            active = [
                a | {k} if v == 0 else a for a, v in zip(active, vals)
            ]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_active: list[frozenset[int]] = []
        for p, m in itertools.product(plus, minus):
            common = active[p] & active[m]
            # combinatorial adjacency: no third ray's active set contains the common set
            adjacent = not any(
                i != p and i != m and common <= active[i] for i in range(len(rays))
            )
            if not adjacent:
                continue
            combo = tuple(
                vals[p] * rays[m][t] - vals[m] * rays[p][t] for t in range(d)
            )
            new_rays.append(rational_primitive([Fraction(x) for x in combo]))
            new_active.append(common | {k})
        rays = [rays[i] for i in plus] + [rays[i] for i in zero] + new_rays
        active = (
            [active[i] for i in plus]
            + [active[i] | {k} for i in zero]
            + new_active
        )

    order = sorted(range(len(rays)), key=lambda i: rays[i])
    return [rays[o] for o in order]


# ---------------------------------------------------------------------------
# construction and basic queries

def build_polyhedron(points: Iterable[Sequence[int]]) -> NewtonPolyhedron:
    """Vertices and facets of conv(union of (alpha + R^n_+)) over the support."""
    pts = [check_exponent(p) for p in points]
    if not pts:
        raise InputError("support is empty: the Newton polyhedron is undefined")
    n = len(pts[0])
    for p in pts:
        check_exponent(p, n)
    if n > MAX_DIM:
        raise CapExceededError(f"dimension {n} exceeds cap {MAX_DIM}")
    if len(pts) > MAX_SUPPORT:
        raise CapExceededError(f"support size {len(pts)} exceeds cap {MAX_SUPPORT}")

    minimal = _dominance_filter(pts)
    gens = [p + (1,) for p in minimal]
    gens += [tuple(1 if j == i else 0 for j in range(n)) + (0,) for i in range(n)]
    facets: list[Facet] = []
    for ray in dd_dual_rays(gens):
        a, c = ray[:n], ray[n]
        if all(x == 0 for x in a):
            continue  # the homogenizing inequality x_{n+1} >= 0
        facets.append(Facet(a, -c))
    facets.sort(key=lambda f: (f.normal, f.offset))

    vertices = []
    for p in minimal:
        act = [f.normal for f in facets if dot(f.normal, p) == f.offset]
        if mat_rank(act) == n:
            vertices.append(p)
    return NewtonPolyhedron(n, frozenset(vertices), tuple(facets))


def support_value(poly: NewtonPolyhedron, a: Sequence[int]) -> int:
    """l(a) = min of <a, x> over the polyhedron, attained at a vertex since a >= 0."""
    if len(a) != poly.n:
        raise InputError(f"normal has length {len(a)}, expected {poly.n}")
    if any(x < 0 for x in a):
        raise InputError(f"support value needs a nonnegative covector, got {tuple(a)}")
    if all(x == 0 for x in a):
        raise InputError("support value of the zero covector is not a face datum")
    return min(dot(a, v) for v in poly.vertices)


def contains(poly: NewtonPolyhedron, point: Sequence) -> bool:
    """Exact membership for a nonnegative rational point."""
    if len(point) != poly.n:
        raise InputError(f"point has length {len(point)}, expected {poly.n}")
    pt = [Fraction(x) for x in point]
    if any(x < 0 for x in pt):
        raise InputError("membership is only defined on the nonnegative orthant")
    return all(dot(f.normal, pt) >= f.offset for f in poly.facets)


def face_of_normal(
    poly: NewtonPolyhedron, support: Iterable[Exponent], a: Sequence[int]
) -> FaceData:
    """Lattice support points attaining l(a), with their affine dimension."""
    level = support_value(poly, a)
    pts = frozenset(p for p in support if dot(a, p) == level)
    return FaceData(tuple(int(x) for x in a), pts, affine_rank(list(pts)))


# ---------------------------------------------------------------------------
# face enumeration

def _enumerate_proper_faces(
    poly: NewtonPolyhedron,
) -> list[tuple[frozenset[Exponent], frozenset[int]]]:
    """All nonempty proper faces as (vertex set, recession coordinate set) pairs.

    Faces are intersections of facets; the closure under pairwise
    intersection with facets reaches every one.  A face of this pointed
    polyhedron is nonempty iff it contains a vertex.
    """
    incidences = []
    for f in poly.facets:
        verts = frozenset(v for v in poly.vertices if dot(f.normal, v) == f.offset)
        rays = frozenset(i for i in range(poly.n) if f.normal[i] == 0)
        incidences.append((verts, rays))
    seen: set[tuple[frozenset, frozenset]] = set()
    queue = [fc for fc in incidences if fc[0]]
    result = []
    while queue:
        face = queue.pop()
        if face in seen:
            continue
        seen.add(face)
        result.append(face)
        for fverts, frays in incidences:
            verts = face[0] & fverts
            if verts:
                nxt = (verts, face[1] & frays)
                if nxt not in seen:
                    queue.append(nxt)
    return sorted(result, key=lambda fc: (sorted(fc[0]), sorted(fc[1])))


def active_facets(poly: NewtonPolyhedron, verts: frozenset[Exponent],
                  rays: frozenset[int]) -> list[Facet]:
    out = []
    for f in poly.facets:
        if all(dot(f.normal, v) == f.offset for v in verts) and all(
            f.normal[i] == 0 for i in rays
        ):
            out.append(f)
    return out


def compact_faces(
    poly: NewtonPolyhedron, support: Iterable[Exponent]
) -> list[FaceData]:
    """Every face with a strictly positive defining normal, once each.

    Includes all vertices; deduplicated by lattice-point set.  The defining
    normal returned is the sum of the normals of the facets through the
    face, which is strictly positive exactly for compact faces.
    """
    support = list(support)
    out: dict[frozenset[Exponent], FaceData] = {}
    for verts, rays in _enumerate_proper_faces(poly):
        if rays:
            continue  # recession directions: the face is unbounded
        act = active_facets(poly, verts, rays)
        normal = tuple(sum(f.normal[i] for f in act) for i in range(poly.n))
        assert all(x > 0 for x in normal)
        level = dot(normal, next(iter(verts)))
        pts = frozenset(p for p in support if dot(normal, p) == level)
        if pts not in out:
            out[pts] = FaceData(normal, pts, affine_rank(list(pts)))
    return sorted(out.values(), key=lambda fd: sorted(fd.lattice_points))


# ---------------------------------------------------------------------------
# the vertex-monomial proxy and the hat construction

def g_gamma_eval(poly: NewtonPolyhedron, point: Sequence[float]) -> float:
    """Sum over vertices of |x^alpha| at a float point."""
    return math.fsum(
        abs(math.prod(point[i] ** a for i, a in enumerate(v) if a))
        for v in poly.vertices
    )


def hat_vector(alpha: Exponent) -> Exponent:
    return tuple(1 if a > 0 else 0 for a in alpha)


def hat_polyhedron(poly: NewtonPolyhedron) -> NewtonPolyhedron:
    """Newton polyhedron of the 0/1 truncations of the vertices."""
    return build_polyhedron({hat_vector(v) for v in poly.vertices})


def diagonal_exponent(poly: NewtonPolyhedron, alpha_star: Sequence[int]) -> Fraction | float:
    """Parameter at which the ray t * alpha_star enters the polyhedron.

    Equals max over facets (a, l) with <a, alpha_star> > 0 of l / <a, alpha_star>;
    returns math.inf when some facet has <a, alpha_star> = 0 with l > 0 (the ray
    never enters).
    """
    a_star = check_exponent(alpha_star, poly.n)
    if any(x not in (0, 1) for x in a_star):
        raise InputError(f"diagonal exponent needs a 0/1 vector, got {a_star}")
    if all(x == 0 for x in a_star):
        raise InputError("diagonal exponent of the zero vector is undefined")
    best = Fraction(0)
    for f in poly.facets:
        s = dot(f.normal, a_star)
        if s == 0:
            if f.offset > 0:
                return math.inf
        else:
            best = max(best, Fraction(f.offset, s))
    return best
