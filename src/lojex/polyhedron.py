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
cone( {(e_i,0)} + {(p,1)} ) in dimension n+1, in integer arithmetic
(Fukuda & Prodon, Double Description Method Revisited, 1996).  The axis
directions go in first, then the distinct support points by degree and
then lexicographically.  The axes and the first point p0 are a unimodular
basis, whose dual basis is written down (e_j - p0_j e_{n+1} and e_{n+1}), so
the run starts without an elimination.  There is no dominance pre-pass: a
point that another point dominates comes after it, already lies in the
cone, and only marks active sets.  Each ray's active set is a bitmask over the
generators; a pair of rays is adjacent iff their common set has at least
n - 1 generators and no third ray's set contains it.

Every incidence question is answered from these active sets, which list
the generators on each facet exactly.  Their transpose is the facet mask
of each generator, the bitmask of the facets through a support point or
along a coordinate direction; the polyhedron keeps it (`point_masks`,
`axis_masks`).  A support point p is a vertex iff the active sets of the
facets through p meet in p's own bit alone.  The facets through p cut out
F, the least face containing p.  If p is a vertex, F = {p}: no other
point lies in F, and no coordinate direction e_i, or p + t e_i would.
Otherwise F has dimension at least 1, so it has an edge, as the
polyhedron is pointed.  A bounded edge brings a vertex other than p, which
is a support point; an unbounded one runs along a coordinate direction,
since the recession cone of F is a face of the orthant.  That generator
lies on every facet through p, so its bit survives the meet.  A point on
no facet is interior, and is no vertex.

Faces are read from the masks too: each vertex, coordinate direction and
face carries the mask of the facets through it.  One walk grows the faces
from the vertices: the join of a face with a vertex or a coordinate
direction has the facets through both (`_join_walk`).  The compact faces
join vertices only and drop a join once some coordinate direction lies in
all of its facets (`compact_faces`); the normal fan joins coordinate
directions too, and reads every nonempty proper face (`fan.normal_fan`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceededError, InputError
from .linalg import dot, primitive
from .record import record
from .taylor import MAX_DIM, Exponent, check_exponent

MAX_SUPPORT = 10_000


@record
class Facet:
    """Supporting half-space <normal, x> >= offset with primitive integer normal."""

    normal: tuple[int, ...]
    offset: int


@record(uncompared=("point_masks", "axis_masks"))
class NewtonPolyhedron:
    """Vertices and facets, with the facet mask of each generator: bit k is
    set when facet k passes through the support point (`point_masks`, one
    (point, mask) pair per support point, in sorted order) or lies along
    the coordinate direction e_i (`axis_masks`, entry i).  The masks are
    read off the double description and take no part in equality."""

    n: int
    vertices: frozenset[Exponent]
    facets: tuple[Facet, ...]
    point_masks: tuple[tuple[Exponent, int], ...]
    axis_masks: tuple[int, ...]


@record
class FaceData:
    """A face of the polyhedron, carried as its defining normal and lattice support.

    The face is compact exactly when the defining normal is strictly positive.
    """

    defining_normal: tuple[int, ...]
    lattice_points: frozenset[Exponent]


# ---------------------------------------------------------------------------
# double description

def dd_dual_rays(
    generators: Sequence[tuple[int, ...]], start: Sequence[tuple[int, tuple[int, ...]]]
) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the dual cone {z : <z, g> >= 0 for all g}, each with
    its active set.

    `start` is a basis of the ambient space among the generators with its
    dual basis: pairs (k, ray) with ray primitive, positive on generators[k]
    and zero on the basis's other generators.  Those rays span the dual of
    the basis's cone, and the other generators go in after them, in order.
    Returns (ray, active) pairs sorted by ray, the rays primitive integer
    vectors.  The active set is the bitmask of the generators the ray
    vanishes on: bit k for generators[k].  It is kept exact as the
    generators go in, since a new ray, a positive combination of two rays,
    vanishes on a generator iff both of them do.
    """
    d = len(generators[0])
    basis = {k for k, _ in start}
    rays = [ray for _, ray in start]
    full = sum(1 << k for k in basis)
    active = [full & ~(1 << k) for k, _ in start]

    for k, g in enumerate(generators):
        if k in basis:
            continue
        vals = [dot(r, g) for r in rays]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_active = [
            a | (1 << k if v == 0 else 0) for a, v in zip(active, vals) if v >= 0
        ]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        for p, m in itertools.product(plus, minus):
            common = active[p] & active[m]
            # combinatorial adjacency: the common set holds at least d - 2
            # generators and no third ray's active set contains it
            if common.bit_count() < d - 2 or any(
                i != p and i != m and a & common == common for i, a in enumerate(active)
            ):
                continue
            new_rays.append(
                primitive(vals[p] * y - vals[m] * x for x, y in zip(rays[p], rays[m]))
            )
            new_active.append(common | 1 << k)
        rays, active = new_rays, new_active
    return sorted(zip(rays, active))


# ---------------------------------------------------------------------------
# construction and basic queries

def build_polyhedron(points: Iterable[Sequence[int]]) -> NewtonPolyhedron:
    """Vertices and facets of conv(union of (alpha + R^n_+)) over the support.

    One double description gives the facets and the active set of each,
    the generators on it.  Transposed, these are the facet masks the
    polyhedron keeps.  A support point p is certified a vertex when the
    active sets of the facets through p meet in p's bit alone: no other
    point and no coordinate direction lies on all of them.  When p is no
    vertex, the face those facets cut out has an edge, which brings a
    second vertex or, unbounded, an axis direction into the meet (see the
    module docstring).
    """
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

    # the axes first, then the points by degree: a dominated point comes after
    # the point dominating it, lies in the cone already, and adds no ray
    pts = sorted(set(pts), key=lambda p: (sum(p), p))
    gens = [tuple(int(j == i) for j in range(n)) + (0,) for i in range(n)]
    gens += [p + (1,) for p in pts]
    # the rays come sorted and no two facets share a normal, so the facets
    # come sorted by (normal, offset); a zero normal is the inequality x_{n+1} >= 0
    facets, actives = [], []
    # the dual basis of the axes and (p0, 1): e_j - p0_j e_{n+1}, and e_{n+1}
    p0 = pts[0]
    start = [(j, gens[j][:n] + (-p0[j],)) for j in range(n)] + [(n, (0,) * n + (1,))]
    for ray, active in dd_dual_rays(gens, start):
        if any(ray[:n]):
            facets.append(Facet(ray[:n], -ray[n]))
            actives.append(active)
    masks = [0] * len(gens)
    for k, active in enumerate(actives):
        for g in _bits(active):
            masks[g] |= 1 << k

    vertices = []
    for g, p in enumerate(pts, start=n):
        own, meet = 1 << g, -1
        for k in _bits(masks[g]):
            meet &= actives[k]
            if meet == own:
                vertices.append(p)
                break
    return NewtonPolyhedron(
        n, frozenset(vertices), tuple(facets), tuple(sorted(zip(pts, masks[n:]))),
        tuple(masks[:n]),
    )


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


# ---------------------------------------------------------------------------
# face enumeration

def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a mask, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _join_walk(
    vertex_masks: list[int], atoms: list[int], dropped: Callable[[int], bool]
) -> list[int]:
    """Facet sets of the faces grown from the vertices by joins with atoms.

    The join of a face with facet set fs and an atom, the facet mask of a
    vertex or of a coordinate direction, has facet set fs & atom.  A face
    that `dropped` rejects is neither kept nor grown, so every join of it
    must be rejected too.
    """
    seen = set(vertex_masks)
    faces = list(vertex_masks)  # grows while it is walked
    for fs in faces:
        for m in atoms:
            join = fs & m
            if join not in seen:
                seen.add(join)
                if not dropped(join):
                    faces.append(join)
    return faces


def compact_faces(poly: NewtonPolyhedron) -> list[FaceData]:
    """Every face with a strictly positive defining normal, once each.

    Includes all vertices.  The faces are grown by joins with vertices
    (`_join_walk`), dropping every join that some coordinate direction's
    mask covers: it is unbounded, and so are its joins.  A face's lattice
    points are the support points whose mask covers its facet set fs, and
    its defining normal is the sum of the normals of the facets in fs,
    strictly positive exactly for compact faces.  The faces come sorted by
    their sorted lattice points, and are built only once sorted.

    The sum over fs is the normal of fs's lowest facet plus the sum over
    the rest of fs, and each such rest is summed once for all the faces
    that share it.
    """
    inc = [m for p, m in poly.point_masks if p in poly.vertices]
    rays = poly.axis_masks

    def unbounded(fs: int) -> bool:
        for r in rays:
            if r & fs == fs:
                return True
        return False

    # the points come in sorted order, so they are the face's sort key; no
    # two faces share their points, so the masks are never compared
    found = sorted(
        (tuple(p for p, m in poly.point_masks if m & fs == fs), fs)
        for fs in _join_walk(inc, inc, unbounded)
    )
    # the empty set's sum ends every chain of rests below
    sums = {0: (0,) * poly.n}
    sums.update((1 << k, f.normal) for k, f in enumerate(poly.facets))

    def normal_sum(fs: int) -> tuple[int, ...]:
        rests = []
        while (normal := sums.get(fs)) is None:
            rests.append(fs)
            fs &= fs - 1
        for fs in reversed(rests):
            normal = sums[fs] = tuple(map(add, sums[fs & -fs], normal))
        return normal

    out = []
    for points, fs in found:
        normal = normal_sum(fs)
        assert all(x > 0 for x in normal)
        out.append(FaceData(normal, frozenset(points)))
    return out


# ---------------------------------------------------------------------------
# the hat construction

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
