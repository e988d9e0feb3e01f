"""Independent oracles for the test suite.

These deliberately avoid the code paths they check: the vertex test is an
exact phase-1 simplex on the strict-separation system, the 2D hull oracle
is a staircase walk, the zero-set oracle enumerates coordinate-zero
patterns, the entry-parameter oracle bisects on membership, the distance
oracle walks all s! rankings of the zero-set variables, cone facets and
cone membership come from a fresh double-description run on the cone's
generators, started from a basis and an inverse found by elimination
(lojex reads cone facets off the fan's cones instead, and starts the
polyhedron's run from a dual basis it writes down),
simplicial-cone membership solves for a point's Fraction coordinates in
the cone's generators, the fan validator checks the fan condition
pairwise with exact cone algebra, the face-lattice oracle closes the
facet masks under AND instead of growing faces from the vertices, and
both the compact faces and the normal fan's cones are checked against it,
the pulling-triangulation oracle tests the rank of every cone it visits
and eliminates every triangle's determinant (lojex counts a cone's rays
against its dimension and keeps the normal fan's determinants),
the parallelepiped oracle walks the bounding box of the cone with a
Fraction inverse, the stellar-step oracle solves for the new ray in
every maximal cone instead of splitting only the cones around its face,
the envelope-slope oracle bins with `np.digitize`, takes each bin's
minimum with its own boolean mask and the suffix minimum in a Python loop,
and fits the exact least-squares slope in Fractions.  Kendall's tau is
also counted from a numpy sign matrix, and a polynomial is also taken
through the general signed log-sum-exp for every term count, with boolean
masks of the zero and negative coordinates reduced by matrix products
where lojex ANDs per-row bitmasks.  The whole ratio-audit tail is also kept
as it was when Kendall pairs were counted in a Python loop and the bin
edges came from `np.linspace`.  The pointwise
references at the end evaluate f, its gradient, the Euler field, g_Gamma
and the distance to the zero set one point at a time in plain floats,
where the audits take logs over whole batches of directions; the face of
a normal is read off the support values point by point.  A degenerate
face's torus witness is placed by numpy's floating-point least-squares
solve, where lojex solves the Gram system of the exponent rows exactly.
The exponent kernel's primitive basis is built for every free column, and
a term counts as pinned when its entry is 0 on every basis vector, where
lojex reads that test off the echelon rows and builds a basis only for the
pencil route.  The rank vertex certificate asks for n independent facet
normals through a point, where lojex meets the active sets of the double
description, and the face polynomial is restricted face by face from the
model's terms, where `check_model` prepares the germ once for all its faces.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from lojex.audit import (
    DECAY_FACTOR,
    FLAT_RELATIVE_RANGE,
    MIN_TREND_LEVELS,
    SLOPE_BINS,
    SLOPE_LOWER_FRACTION,
    SLOPE_RADIUS_CAP,
    TAU_FAIL,
    ZERO_FLOOR,
    AuditResult,
    SamplePlan,
)
from lojex.errors import InputError
from lojex.fan import (
    Fan,
    RayVec,
    _assemble_simplicial,
    _parallelepiped_point,
    cone_det,
)
from lojex.linalg import dot, eliminate, primitive, solve_scaled
from lojex.nondegeneracy import FacePolynomial
from lojex.polyhedron import (
    FaceData,
    NewtonPolyhedron,
    contains,
    dd_dual_rays,
    support_value,
)
from lojex.taylor import Exponent, TaylorModel, poly_diff, poly_eval_float


# ---------------------------------------------------------------------------
# exact phase-1 simplex (Bland's rule, integer pivoting)

def _phase1_feasible(M: list[list[int]], d: list[int]) -> bool:
    """Is {u >= 0 : M u >= d} nonempty?  Exact dense simplex on integers.

    The tableau is held as `det` times the true one, `det` the determinant
    of the current basis (1 at the start, then the last pivot), so each pivot
    divides exactly (Edmonds' integer pivoting, Bareiss' elimination in
    simplex form) and no fraction is ever formed.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    art_rows = [i for i in range(m) if d[i] > 0]
    if not art_rows:
        return True  # u = 0 works
    # columns: u (n), slack (m), artificial (per positive-rhs row), rhs
    ncols = n + m + len(art_rows)
    rows: list[list[int]] = []
    basis: list[int] = []
    for i in range(m):
        row = [0] * (ncols + 1)
        if d[i] > 0:
            art = n + m + art_rows.index(i)
            row[:n], row[n + i], row[art], row[-1] = M[i], -1, 1, d[i]
            basis.append(art)
        else:
            row[:n], row[n + i], row[-1] = [-x for x in M[i]], 1, -d[i]
            basis.append(n + i)
        rows.append(row)
    # last row: the objective, minimize the sum of artificials, priced out;
    # its artificial columns are never read, as artificials never enter
    rows.append([sum(col) for col in zip(*(rows[i] for i in art_rows))])
    det = 1
    while True:
        z = rows[m]
        entering = next((j for j in range(n + m) if z[j] > 0), None)
        if entering is None:
            return z[-1] == 0
        # Bland: least ratio rhs / entry, ties to the least basic column
        pivot_row = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0 and (
                pivot_row is None
                or (rows[i][-1] * rows[pivot_row][entering], basis[i])
                < (rows[pivot_row][-1] * a, basis[pivot_row])
            ):
                pivot_row = i
        if pivot_row is None:
            return True  # unbounded improvement of a feasibility objective
        prow = rows[pivot_row]
        pv = prow[entering]
        for i, row in enumerate(rows):
            if i != pivot_row:
                f = row[entering]
                rows[i] = [(pv * x - f * y) // det for x, y in zip(row, prow)]
        basis[pivot_row] = entering
        det = pv


def is_vertex_rank(poly: NewtonPolyhedron, point: Exponent) -> bool:
    """Rank vertex certificate: n linearly independent facets pass through
    the point."""
    tight = [f.normal for f in poly.facets if dot(f.normal, point) == f.offset]
    return len(tight) >= poly.n and mat_rank(tight) == poly.n


def is_vertex_lp(point: tuple[int, ...], support: set[tuple[int, ...]]) -> bool:
    """Strict-separation vertex certificate: exists a > 0 with <a, point>
    strictly below <a, y> for every other support point (scaled to >= 1 gaps
    and a >= 1 entrywise, substituting a = 1 + u)."""
    others = [y for y in support if y != point]
    n = len(point)
    if not others:
        return True
    M = [[y[j] - point[j] for j in range(n)] for y in others]
    d = [1 - sum(row) for row in M]
    return _phase1_feasible(M, d)


# ---------------------------------------------------------------------------
# the whole face lattice as the AND-closure of the facet masks

def face_lattice(
    poly: NewtonPolyhedron,
) -> list[tuple[frozenset[Exponent], frozenset[int], tuple[int, ...]]]:
    """All nonempty proper faces as (vertex set, recession coordinate set,
    indices of the facets through the face) triples.

    Each facet is one bitmask over the vertices and the coordinate
    directions it contains.  Every face is the intersection of the facets
    through it, so closing the masks under AND reaches each face once, and
    the facets through a face are those whose mask covers the face's.  A
    face of this pointed polyhedron is nonempty iff it contains a vertex.
    """
    verts = sorted(poly.vertices)
    masks = [
        sum(1 << k for k, v in enumerate(verts) if dot(f.normal, v) == f.offset)
        | sum(1 << (len(verts) + i) for i, a in enumerate(f.normal) if a == 0)
        for f in poly.facets
    ]
    on_vertex = (1 << len(verts)) - 1
    seen: set[int] = set()
    queue = [m for m in masks if m & on_vertex]
    while queue:
        face = queue.pop()
        if face in seen:
            continue
        seen.add(face)
        for m in masks:
            nxt = face & m
            if nxt & on_vertex and nxt not in seen:
                queue.append(nxt)
    result = [
        (
            frozenset(v for k, v in enumerate(verts) if face >> k & 1),
            frozenset(i for i in range(poly.n) if face >> (len(verts) + i) & 1),
            tuple(k for k, m in enumerate(masks) if m & face == face),
        )
        for face in seen
    ]
    return sorted(result, key=lambda fc: (sorted(fc[0]), sorted(fc[1])))


def compact_faces_from_lattice(poly: NewtonPolyhedron, support) -> list[FaceData]:
    """The faces of the whole face lattice with no recession direction, each
    with the sum of the normals of the facets through it and the support
    points that normal attains its least value on."""
    out = []
    for verts, rays, tight in face_lattice(poly):
        if rays:
            continue
        normal = tuple(sum(poly.facets[k].normal[i] for k in tight) for i in range(poly.n))
        level = dot(normal, next(iter(verts)))
        out.append(FaceData(normal, tuple(sorted(p for p in support if dot(normal, p) == level))))
    return sorted(out, key=lambda fd: fd.lattice_points)


# ---------------------------------------------------------------------------
# 2D staircase hull

def staircase_vertices_2d(points: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Vertices of conv(points) + R^2_+ via the Pareto staircase walk."""
    pareto = [
        p
        for p in points
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in points)
    ]
    pareto.sort()
    out: list[tuple[int, int]] = []
    for p in pareto:
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            # the region above the chain is convex iff consecutive slopes
            # increase, i.e. each turn is strictly counterclockwise
            cross = (b[0] - a[0]) * (p[1] - b[1]) - (b[1] - a[1]) * (p[0] - b[0])
            if cross <= 0:
                out.pop()
            else:
                break
        out.append(p)
    return set(out)


# ---------------------------------------------------------------------------
# zero-set pattern enumeration

def monomial_zero_patterns(supports, n: int) -> set[frozenset[int]]:
    """Coordinate-zero patterns whose points kill every monomial."""
    out = set()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            z = frozenset(combo)
            if all(s & z for s in supports):
                out.add(z)
    return out


def family_zero_patterns(family, n: int) -> set[frozenset[int]]:
    """Coordinate-zero patterns covered by the union of subspaces T_J."""
    out = set()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            z = frozenset(combo)
            if any(j <= z for j in family):
                out.add(z)
    return out


# ---------------------------------------------------------------------------
# the distance exponent by walking every ranking

def ranking_i_rho(family, rank) -> int:
    """The index realizing the distance to the union of subspaces on this region.

    Per member J the distance to T_J is |x_i| for the highest-ranked i in J;
    across the family the distance is the minimum, i.e. the lowest-ranked of
    those per-member maxima.
    """
    tops = [max(j, key=lambda i: rank[i]) for j in family]
    return min(tops, key=lambda i: rank[i])


def ranking_data(poly: NewtonPolyhedron, family, order) -> tuple[int, tuple, int]:
    """(i_rho, V(rho), least |v| on V(rho)) of one ranking, smallest first.

    V(rho) holds the vertices supported in the upper set: the zero-set
    variables ranked at least as high as i_rho.
    """
    rank = {v: k for k, v in enumerate(order)}
    i_rho = ranking_i_rho(family.lambda_hitting, rank)
    verts = tuple(sorted(
        v for v in poly.vertices
        if all(i in rank and rank[i] >= rank[i_rho] for i, e in enumerate(v) if e)
    ))
    return i_rho, verts, min(sum(v) for v in verts)


def dist_by_rankings(poly: NewtonPolyhedron, family) -> int:
    """The distance exponent as the maximum over all s! rankings."""
    return max(
        ranking_data(poly, family, order)[2]
        for order in itertools.permutations(family.I_f)
    )


# ---------------------------------------------------------------------------
# entry parameter by bisection on membership

def entry_parameter_bisect(
    poly: NewtonPolyhedron, direction: tuple[int, ...], iters: int = 60
) -> tuple[Fraction, Fraction]:
    """Bracket [lo, hi] around min{t >= 0 : t*direction in poly}."""
    hi = Fraction(1)
    while not contains(poly, [hi * x for x in direction]):
        hi *= 2
        if hi > 2**40:
            raise AssertionError("ray never enters the polyhedron")
    lo = Fraction(0)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if contains(poly, [mid * x for x in direction]):
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# membership in a simplicial cone by solving for the coordinates

def coords_in_basis(basis: list[RayVec], v: Sequence) -> list[Fraction] | None:
    """Coefficients c with sum c_i basis_i = v, or None if v is outside the span
    or the basis is linearly dependent.  v may be rational."""
    frac = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in frac))
    scaled = [x.numerator * (den // x.denominator) for x in frac]
    sol = solve_scaled(list(zip(*basis)), [scaled])
    if sol is None:
        return None
    p, (coeffs,) = sol
    return [Fraction(c, p * den) for c in coeffs]


def simplicial_cone_contains(vectors: Sequence[RayVec], v: Sequence) -> bool:
    coeffs = coords_in_basis(list(vectors), v)
    return coeffs is not None and all(c >= 0 for c in coeffs)


# ---------------------------------------------------------------------------
# cone facets and membership by a fresh double-description run

def dd_dual_rays_eliminated(generators: Sequence[RayVec]) -> list[tuple[RayVec, int]]:
    """`dd_dual_rays` started from the first independent generators, in
    order, with their dual basis read off an inverse: for any generating set
    that spans the ambient space (the dual is then pointed)."""
    d = len(generators[0])
    _, basis_idx = eliminate(list(zip(*generators)))
    if len(basis_idx) < d:
        raise InputError("generator set does not span the ambient space")
    # ray j satisfies <ray_j, basis_i> = delta_ij: column j of the basis
    # matrix's inverse, times det
    unit = [[int(i == j) for i in range(d)] for j in range(d)]
    det, cols = solve_scaled([generators[i] for i in basis_idx], unit)
    start = [
        (k, primitive(x if det > 0 else -x for x in col)) for k, col in zip(basis_idx, cols)
    ]
    return dd_dual_rays(generators, start)


def cone_facet_sets(vectors: Sequence[RayVec]) -> list[frozenset[int]]:
    """Facets of cone(vectors) as sets of generator indices.

    The cone is assumed pointed (all our cones sit inside the dual orthant).
    Lower-dimensional cones are handled by passing to span coordinates.
    """
    vectors = list(vectors)
    # with the generators as columns, the pivot columns are the first
    # independent generators and each reduced column holds p times the
    # coordinates of its generator in them: an integer projection to the span
    work, pivots = eliminate(list(zip(*vectors)))
    rank = len(pivots)
    if rank <= 1:
        return []
    if len(vectors) == rank:
        return [frozenset(s) for s in itertools.combinations(range(len(vectors)), rank - 1)]
    sign = 1 if work[rank - 1][pivots[-1]] > 0 else -1
    projected = [tuple(sign * row[k] for row in work[:rank]) for k in range(len(vectors))]
    facets = []
    for z, _ in dd_dual_rays_eliminated(projected):
        tight = frozenset(i for i, p in enumerate(projected) if dot(p, z) == 0)
        facets.append(tight)
    return facets


def fulldim_cone_contains(vectors: Sequence[RayVec], v: Sequence) -> bool:
    """Exact membership for a full-dimensional pointed cone."""
    return all(dot(z, v) >= 0 for z, _ in dd_dual_rays_eliminated(list(vectors)))


# ---------------------------------------------------------------------------
# fan validation: the fan condition checked pairwise with exact cone algebra

def validate_fan(fan: Fan) -> None:
    """Check the fan condition pairwise on maximal cones, and that the
    maximal cones cover the orthant.

    For each pair, the exact intersection cone must be spanned by the common
    rays, and the common ray set must be a face of both cones.  For the
    covering, each facet of a maximal cone either lies in a coordinate
    hyperplane, on the orthant's boundary, or is a facet of exactly one
    other maximal cone.
    """
    maxc = fan.maximal_cones()
    facets = [
        {frozenset(c.rays[k] for k in f) for f in cone_facet_sets(fan.generators(c))}
        for c in maxc
    ]
    for i, cone_facets in enumerate(facets):
        for facet in cone_facets:
            if any(all(fan.rays[r][x] == 0 for r in facet) for x in range(fan.n)):
                continue
            others = sum(facet in facets[j] for j in range(len(maxc)) if j != i)
            if others != 1:
                raise AssertionError(
                    f"facet {sorted(facet)} of cone {maxc[i].rays} is a facet of "
                    f"{others} other maximal cones, not 1"
                )
    duals = [[z for z, _ in dd_dual_rays_eliminated(fan.generators(c))] for c in maxc]
    for i, j in itertools.combinations(range(len(maxc)), 2):
        common = sorted(set(maxc[i].rays) & set(maxc[j].rays))
        inter_rays = dd_dual_rays_eliminated(duals[i] + duals[j])
        common_vecs = [fan.rays[r] for r in common]
        for r, _ in inter_rays:
            if not (
                common_vecs
                and simplicial_cone_contains_or_member(common_vecs, r)
            ):
                raise AssertionError(
                    f"cones {maxc[i].rays} and {maxc[j].rays} intersect outside "
                    f"their common rays (witness ray {r})"
                )
        for cone_idx in (i, j):
            faces = cone_all_face_sets(fan.generators(maxc[cone_idx]))
            local = frozenset(
                k for k, r in enumerate(maxc[cone_idx].rays) if r in common
            )
            if common and local not in faces:
                raise AssertionError(
                    f"common rays {common} are not a face of cone {maxc[cone_idx].rays}"
                )


def simplicial_cone_contains_or_member(vectors: list[RayVec], v: Sequence) -> bool:
    """Membership that tolerates a linearly dependent generating set."""
    basis: list[RayVec] = []
    for vec in vectors:
        if mat_rank(basis + [vec]) > len(basis):
            basis.append(vec)
    coeffs = coords_in_basis(basis, v) if basis else None
    if coeffs is None:
        return False
    if len(basis) == len(vectors):
        return all(c >= 0 for c in coeffs)
    return fulldim_cone_contains_lower(vectors, v)


def fulldim_cone_contains_lower(vectors: list[RayVec], v: Sequence) -> bool:
    """Exact membership for a pointed cone of any dimension via span coordinates."""
    basis: list[RayVec] = []
    for vec in vectors:
        if mat_rank(basis + [vec]) > len(basis):
            basis.append(vec)
    vc = coords_in_basis(basis, v)
    if vc is None:
        return False
    projected = []
    for vec in vectors:
        c = coords_in_basis(basis, vec)
        assert c is not None
        # a positive multiple generates the same ray, and DD takes integers
        den = math.lcm(*(x.denominator for x in c))
        projected.append(tuple(int(x * den) for x in c))
    return all(dot(z, vc) >= 0 for z, _ in dd_dual_rays_eliminated(projected))


def cone_all_face_sets(vectors: Sequence[RayVec]) -> set[frozenset[int]]:
    """All nonempty faces of cone(vectors) as generator-index sets (incl. itself)."""
    full = frozenset(range(len(vectors)))
    result = {full}
    queue = [frozenset(f) for f in cone_facet_sets(vectors)]
    while queue:
        face = queue.pop()
        if face in result or not face:
            continue
        result.add(face)
        sub = [vectors[i] for i in sorted(face)]
        local = sorted(face)
        for f2 in cone_facet_sets(sub):
            queue.append(frozenset(local[i] for i in f2))
    return result


# ---------------------------------------------------------------------------
# parallelepiped point by walking the bounding box

def _fraction_inverse(matrix: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix by Fraction Gauss-Jordan."""
    n = len(matrix)
    work = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [a / pv for a in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def parallelepiped_point_box_walk(vectors: list[RayVec]) -> RayVec:
    """The lattice point of {sum t_i g_i : 0 <= t_i < 1} other than 0 with the
    least coefficient sum, ties broken lexicographically, found by testing
    every point of the bounding box of the (nonnegative) generators."""
    n = len(vectors)
    inv = _fraction_inverse([[vectors[i][j] for i in range(n)] for j in range(n)])
    sums = [sum(v[j] for v in vectors) for j in range(n)]
    best: tuple[Fraction, RayVec] | None = None
    for cand in itertools.product(*(range(max(s, 1)) for s in sums)):
        if not any(cand):
            continue
        coeffs = [sum(inv[i][j] * cand[j] for j in range(n)) for i in range(n)]
        if any(c < 0 or c >= 1 for c in coeffs):
            continue
        key = (sum(coeffs), cand)
        if best is None or key < best:
            best = key
    assert best is not None, "parallelepiped of a non-unimodular cone has a lattice point"
    return best[1]


# ---------------------------------------------------------------------------
# pulling triangulation by rank

def simplicialize_by_rank(fan: Fan) -> Fan:
    """`simplicialize` that tests whether each cone the recursion visits is
    simplicial by the rank of its generators, and eliminates the determinant
    of every triangle, the simplicial normal cones included."""

    def pull(idx: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(idx) == mat_rank([fan.rays[i] for i in idx]):
            return [idx]
        apex = min(idx, key=lambda i: fan.rays[i])
        inside = set(idx)
        faces = [face for face in (set(c.rays) for c in fan.cones) if face < inside]
        out = []
        for face in faces:
            if apex in face or any(face < other for other in faces):
                continue
            out += [tuple(sorted(tri + (apex,))) for tri in pull(tuple(sorted(face)))]
        return out

    return _assemble_simplicial(fan.n, fan.rays, [
        (tri, cone.attached_face, cone_det([fan.rays[i] for i in tri]))
        for cone in fan.maximal_cones() for tri in pull(cone.rays)
    ])


# ---------------------------------------------------------------------------
# unimodular refinement solving for the new ray in every cone

def unimodularize_every_cone(fan: Fan, trace: list | None = None) -> Fan:
    """`unimodularize` for simplicial fans of dimension >= 3, finding the cones
    that hold each new ray by solving for its coordinates in every maximal
    cone at every stellar step."""
    n = fan.n
    assert n >= 3 and all(len(c.rays) == n for c in fan.maximal_cones())
    rays: list[RayVec] = list(fan.rays)
    ray_index = {r: i for i, r in enumerate(rays)}

    def intern(vec: RayVec) -> int:
        if vec not in ray_index:
            ray_index[vec] = len(rays)
            rays.append(vec)
        return ray_index[vec]

    cones = [
        (c.rays, c.attached_face, abs(cone_det([rays[i] for i in c.rays])))
        for c in fan.maximal_cones()
    ]
    while True:
        bad = [c for c in cones if c[2] != 1]
        if not bad:
            break
        if trace is not None:
            worst_det = max(c[2] for c in bad)
            trace.append((worst_det, sum(1 for c in bad if c[2] == worst_det)))
        worst_idx = max(bad, key=lambda c: (c[2], [rays[i] for i in c[0]]))[0]
        w = _parallelepiped_point([rays[i] for i in worst_idx])[0]
        w_idx = intern(w)
        updated = []
        for idx, attached, det in cones:
            p, (t,) = solve_scaled(list(zip(*(rays[i] for i in idx))), [w])
            if p < 0:
                t = [-x for x in t]
            if any(x < 0 for x in t):
                updated.append((idx, attached, det))
                continue
            assert all(x < det for x in t)
            for j, x in enumerate(t):
                if x > 0:
                    repl = tuple(sorted(set(idx) - {idx[j]} | {w_idx}))
                    updated.append((repl, attached, x))
        cones = updated
    return _assemble_simplicial(
        n, rays, [(idx, attached, cone_det([rays[i] for i in idx])) for idx, attached, _ in cones]
    )


# ---------------------------------------------------------------------------
# envelope slope, one bin at a time

def lower_envelope_points_per_bin(
    predictor: np.ndarray, response: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The (bin centres, envelope) that `audit.lower_envelope_slope` fits,
    with `np.digitize`, one mask per bin and a Python suffix loop."""
    mask = np.isfinite(predictor) & np.isfinite(response)
    x, y = predictor[mask], response[mask]
    if x.size < 2 or x.max() == x.min():
        return None
    edges = np.linspace(x.min(), x.max(), SLOPE_BINS + 1)
    centers, mins = [], []
    which = np.clip(np.digitize(x, edges) - 1, 0, SLOPE_BINS - 1)
    for b in range(SLOPE_BINS):
        sel = which == b
        if sel.any():
            centers.append(0.5 * (edges[b] + edges[b + 1]))
            mins.append(y[sel].min())
    if len(centers) < 2:
        return None
    for i in range(len(mins) - 2, -1, -1):
        mins[i] = min(mins[i], mins[i + 1])
    cutoff = x.min() + SLOPE_LOWER_FRACTION * (x.max() - x.min())
    lower = [(c, m) for c, m in zip(centers, mins) if c <= cutoff]
    if len(lower) >= 2:
        centers, mins = zip(*lower)
    return np.array(centers), np.array(mins)


def least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> Fraction:
    """The exact least-squares slope of the points, in Fractions."""
    xs, ys = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum(
        (x - x_bar) ** 2 for x in xs
    )


# ---------------------------------------------------------------------------
# audit arithmetic in its general form

def kendall_tau_sign_matrix(series: list[float]) -> float:
    """`audit._tau` with the pair signs from one numpy sign matrix."""
    vals = [m for m in series if math.isfinite(m)]
    if len(vals) < 2:
        return math.nan
    if max(vals) - min(vals) <= FLAT_RELATIVE_RANGE * max(abs(v) for v in vals):
        return math.nan
    v = np.array(vals)
    signs = np.sign(v[None, :] - v[:, None])[np.triu_indices(len(v), 1)]
    tot, ties = signs.size, int(np.count_nonzero(signs == 0))
    if ties == tot:
        return math.nan
    return min(1.0, max(-1.0, int(signs.sum()) / math.sqrt(tot) / math.sqrt(tot - ties)))


def log_poly_logsumexp(
    poly: dict, dirs: np.ndarray, log_r: np.ndarray, absolute: bool = False
) -> np.ndarray:
    """`audit._log_poly` on the pool rows `dirs` (on |d| if `absolute`),
    through the signed log-sum-exp for every term count, with boolean masks
    of the zero and negative coordinates taken from the rows and reduced by
    matrix products."""
    exps = np.array(list(poly))
    coeffs = np.array([float(c) for c in poly.values()])
    zero = dirs == 0
    with np.errstate(divide="ignore"):
        log_d = np.where(zero, 0.0, np.log(np.abs(dirs)))
        base = exps @ log_d.T + np.log(np.abs(coeffs))[:, None]
    base[(exps > 0) @ zero.T] = -np.inf
    terms = base[:, None, :] + (exps.sum(axis=1)[:, None] * log_r)[:, :, None]
    sign = np.sign(coeffs)[:, None]
    if not absolute:
        sign = sign * (1.0 - 2.0 * ((exps % 2) @ (dirs < 0).T % 2))
    top = np.max(terms, axis=0)
    top[np.isneginf(top)] = 0.0
    total = np.sum(np.exp(terms - top) * sign[:, None, :], axis=0)
    with np.errstate(divide="ignore"):
        return top + np.log(np.abs(total))



# ---------------------------------------------------------------------------
# the audit tail with Python pair loops and linspace edges

# `audit._ratio_audit` and the trend and envelope code under it, copied
# verbatim from the version that counted Kendall pairs in a Python loop, took
# every level's exclusions from masks, built the bin edges with np.linspace and
# tested the predictor's finiteness again; only `_ratio_audit` and
# `lower_envelope_slope` are renamed.  The audits must give the same
# AuditResult, bit for bit.

def _tau(series: list[float]) -> float:
    pairs = [(i, m) for i, m in enumerate(series) if math.isfinite(m)]
    if len(pairs) < 2:
        return math.nan
    idx, vals = zip(*pairs)
    # an envelope flat up to rounding has no trend; its ranks are float noise
    if max(vals) - min(vals) <= FLAT_RELATIVE_RANGE * max(abs(v) for v in vals):
        return math.nan
    # Kendall tau-b against the level index, which has no ties (Knight 1966):
    # S over sqrt(pairs) * sqrt(pairs untied in the values), clipped as scipy does
    up = ties = 0
    for k, a in enumerate(vals):
        for b in vals[k + 1:]:
            up += b > a
            ties += b == a
    tot = len(vals) * (len(vals) - 1) // 2
    if ties == tot:
        return math.nan
    s = 2 * up + ties - tot  # concordant minus discordant pairs
    return min(1.0, max(-1.0, s / math.sqrt(tot) / math.sqrt(tot - ties)))


def _one_sided_verdict(minima: list[float]) -> tuple[str, float]:
    """Trend call on the lower envelope.

    Failure needs agreement of a rank test (Kendall tau on the level minima)
    and a magnitude test (the envelope actually drops), so float noise on an
    exactly constant envelope cannot flip the call.  An exact zero is an
    outright violation.
    """
    valid = [m for m in minima if math.isfinite(m)]
    tau = _tau(minima)
    if len(valid) < MIN_TREND_LEVELS:
        return "indeterminate", tau
    if any(m <= ZERO_FLOOR for m in valid):
        return "fail", tau
    drop = valid[-1] / valid[0]
    if not math.isnan(tau) and tau <= TAU_FAIL and drop < DECAY_FACTOR:
        return "fail", tau
    return "pass", tau


def _two_sided_verdict(minima: list[float], maxima: list[float]) -> tuple[str, float, float]:
    verdict, tau_lo = _one_sided_verdict(minima)
    tau_hi = _tau(maxima)
    valid = [m for m in maxima if math.isfinite(m)]
    if (
        verdict == "pass"
        and len(valid) >= MIN_TREND_LEVELS
        and not math.isnan(tau_hi)
        and tau_hi >= -TAU_FAIL
        and valid[-1] / valid[0] > 1.0 / DECAY_FACTOR
    ):
        verdict = "fail"
    return verdict, tau_lo, tau_hi


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin of each sample between the `SLOPE_BINS + 1` increasing `edges`,
    numbered as `np.digitize` numbers it, the last bin closed.

    The bin is first read off the scaled offset (x - lo)·SLOPE_BINS/(hi - lo).
    That estimate and the `linspace` edges differ by rounding only, far less
    than a bin while the span is well above the rounding of the edges, so
    one step each way against the edges gives the exact index.  Spans near
    that rounding, or beyond the float range, are searched instead.
    """
    lo, hi = edges[0], edges[-1]
    span = hi - lo
    if not 2.0**-40 * max(-lo, hi, 2.0**-960) < span < math.inf:
        return np.clip(edges.searchsorted(x, side="right") - 1, 0, SLOPE_BINS - 1)
    which = np.minimum(((x - lo) * (SLOPE_BINS / span)).astype(np.intp), SLOPE_BINS - 1)
    which -= x < edges[which]
    which += (x >= edges[which + 1]) & (which < SLOPE_BINS - 1)
    return which


def _envelope_points(
    predictor: np.ndarray, response: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """(bin centres, envelope) of a log-log cloud: per-bin minima, replaced by
    their suffix minima, on the lower part of the predictor range; None when
    fewer than two bins are filled."""
    mask = np.isfinite(predictor) & np.isfinite(response)
    x, y = (predictor, response) if mask.all() else (predictor[mask], response[mask])
    if x.size < 2:
        return None
    lo, hi = x.min(), x.max()
    if hi == lo:
        return None
    edges = np.linspace(lo, hi, SLOPE_BINS + 1)
    mins = np.full(SLOPE_BINS, np.inf)
    np.minimum.at(mins, _bin_index(x, edges), y)
    filled = mins < np.inf  # the samples are finite
    if np.count_nonzero(filled) < 2:
        return None
    centers = (0.5 * (edges[:-1] + edges[1:]))[filled]
    # the envelope is nondecreasing in the predictor near the origin, so a
    # bin is bounded by every sample to its right; the suffix minimum removes
    # spikes in sparsely sampled bins
    mins = np.minimum.accumulate(mins[filled][::-1])[::-1]
    cutoff = lo + SLOPE_LOWER_FRACTION * (hi - lo)
    lower = centers <= cutoff
    if np.count_nonzero(lower) >= 2:
        centers, mins = centers[lower], mins[lower]
    return centers, mins


def _lower_envelope_slope(predictor: np.ndarray, response: np.ndarray) -> float | None:
    """Least-squares slope through per-bin minima of a log-log cloud.

    Only the lower part of the predictor range enters the fit: the
    inequalities constrain the envelope asymptotically, and for germs with
    unequal axis degrees the large-|f| bins belong to a different regime.
    The slope of at most `SLOPE_BINS` points is the closed form
    sum((x - mean x)(y - mean y)) / sum((x - mean x)^2).
    """
    points = _envelope_points(predictor, response)
    if points is None:
        return None
    centers, mins = points
    dx = centers - centers.mean()
    return float(dx @ (mins - mins.mean()) / (dx @ dx))


def ratio_audit_reference(
    name: str,
    exponent: float | None,
    plan: SamplePlan,
    log_lhs: np.ndarray,
    log_rhs: np.ndarray,
    scale: float,
    two_sided: bool,
    forced: bool,
) -> AuditResult:
    """Audit LHS >= c·RHS^scale (and LHS <= C·RHS^scale if two-sided).

    Takes log|LHS| and log|RHS| as (levels, rows) arrays.  Rows where RHS = 0
    are left out of their level and counted in `excluded`; when that leaves
    every level empty (RHS = |f| = 0 on a germ of remainders only) the
    audit is indeterminate, with nan ratios and a note.
    """
    kept = np.isfinite(log_rhs)
    # a ratio past the float range is reported as inf, without a warning
    with np.errstate(over="ignore"):
        if kept.all():
            log_ratio = log_lhs - scale * log_rhs
            lo, hi = np.exp(log_ratio.min(axis=1)), np.exp(log_ratio.max(axis=1))
        else:
            log_ratio = log_lhs - scale * np.where(kept, log_rhs, 0.0)
            lo = np.exp(np.where(kept, log_ratio, np.inf).min(axis=1))
            hi = np.exp(np.where(kept, log_ratio, -np.inf).max(axis=1))
    excluded = np.count_nonzero(~kept, axis=1)
    empty = excluded == kept.shape[1]
    minima = np.where(empty, np.nan, lo).tolist()
    maxima = np.where(empty, np.nan, hi).tolist()
    if two_sided:
        verdict, tau, tau_upper = _two_sided_verdict(minima, maxima)
    else:
        (verdict, tau), tau_upper = _one_sided_verdict(minima), math.nan
    # the radii strictly decrease, so the levels inside the cap are a suffix
    near = slice(sum(r > SLOPE_RADIUS_CAP for r in plan.radii), None)
    slope = _lower_envelope_slope(log_rhs[near].ravel(), log_lhs[near].ravel())
    if empty.all():
        min_ratio = max_ratio = math.nan
        note = f"every {name} sample has a zero right-hand side: no ratio to audit"
    else:
        min_ratio, max_ratio, note = float(lo[~empty].min()), float(hi[~empty].max()), ""
    return AuditResult(
        name, exponent, verdict, min_ratio=min_ratio, max_ratio=max_ratio,
        empirical_slope=slope, kendall_tau=tau, kendall_tau_upper=tau_upper,
        radii=plan.radii, level_minima=tuple(minima), level_maxima=tuple(maxima),
        forced=forced, note=note, excluded=tuple(int(k) for k in excluded),
    )


# ---------------------------------------------------------------------------
# torus witness placement in floats

def torus_point_lstsq(
    fp: FacePolynomial, ratios: Sequence[Fraction], signs: int
) -> tuple[float, ...]:
    """The witness of `nondegeneracy._torus_point` from `numpy.linalg.lstsq`:
    y = log|x| the least-norm solution of A^T y = log|r|, moved along the
    face weight w to max |x_j| = 1, all in floats."""
    active = fp.active_vars()
    a_t = np.array([[exp[j] for j in active] for exp, _ in fp.terms], dtype=float)
    log_r = np.array([math.log(abs(r.numerator)) - math.log(r.denominator) for r in ratios])
    y = np.linalg.lstsq(a_t, log_r, rcond=None)[0]
    w = np.array([fp.face.defining_normal[j] for j in active], dtype=float)
    y += w * np.min(-y / w)
    witness = [1.0] * fp.n
    for a, j in enumerate(active):
        witness[j] = (-1.0 if signs >> a & 1 else 1.0) * math.exp(y[a])
    return tuple(witness)


# ---------------------------------------------------------------------------
# pointwise references in plain floats

def _check_point(model: TaylorModel, point: Sequence) -> None:
    if len(point) != model.n:
        raise InputError(f"point has length {len(point)}, expected {model.n}")


def evaluate(model: TaylorModel, point: Sequence[float]) -> float:
    """Float value of the polynomial part (remainders are lattice metadata only)."""
    _check_point(model, point)
    return poly_eval_float(model.poly(), point)


def gradient(model: TaylorModel, point: Sequence[float]) -> tuple[float, ...]:
    """Gradient of the polynomial part: exact term-wise differentiation, then evaluation."""
    _check_point(model, point)
    p = model.poly()
    return tuple(poly_eval_float(poly_diff(p, i), point) for i in range(model.n))


def euler_field_value(model: TaylorModel, point: Sequence[float]) -> float:
    """Sum over i of |x_i * df/dx_i| at the point."""
    grad = gradient(model, point)
    return math.fsum(abs(point[i] * grad[i]) for i in range(model.n))


def g_gamma_eval(poly: NewtonPolyhedron, point: Sequence[float]) -> float:
    """Sum over vertices of |x^alpha| at a float point."""
    return math.fsum(
        abs(math.prod(point[i] ** a for i, a in enumerate(v) if a))
        for v in poly.vertices
    )


def dist_to_zero_set(point: Sequence[float], family) -> float:
    """Max-norm distance to the union of coordinate subspaces of the family."""
    if not family.lambda_hitting:
        return max(abs(x) for x in point)
    return min(max(abs(point[i]) for i in j) for j in family.lambda_hitting)


def face_of_normal(
    poly: NewtonPolyhedron, support: Iterable[Exponent], a: Sequence[int]
) -> FaceData:
    """Lattice support points attaining l(a), in ascending order."""
    level = support_value(poly, a)
    pts = tuple(sorted(p for p in support if dot(a, p) == level))
    return FaceData(tuple(int(x) for x in a), pts)


def face_polynomial(model: TaylorModel, face: FaceData) -> FacePolynomial:
    """Restriction of the polynomial part to the exponents on a compact face."""
    if not all(a > 0 for a in face.defining_normal):
        raise InputError(
            "face polynomial of a non-compact face is not determined by the "
            "polynomial part"
        )
    terms = tuple(
        (t.exp, t.coeff)
        for t in sorted(model.terms, key=lambda t: t.exp)
        if t.exp in face.lattice_points
    )
    unknown = any(
        r.is_unit and r.exp in face.lattice_points for r in model.remainders
    )
    return FacePolynomial(face, model.n, terms, underdetermined=unknown)


def exponent_kernel_basis(fp: FacePolynomial) -> list[tuple[int, ...]]:
    """A primitive integer basis of ker A, one vector per free column.

    A is the n x m matrix whose columns are the face's exponents.  Its one
    elimination leaves every pivot row with the same pivot p, so the free
    column f gives the kernel vector with p at f and minus the pivot rows'
    entries of column f at their pivot columns, signed so its entry at f is
    positive.
    """
    rows, pivots = eliminate([[exp[i] for exp, _ in fp.terms] for i in range(fp.n)])
    p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in range(len(fp.terms)):
        if f in pivots:
            continue
        v = [0] * len(fp.terms)
        v[f] = p
        for row, col in zip(rows, pivots):
            v[col] = -row[f]
        basis.append(primitive(x if p > 0 else -x for x in v))
    return basis


def kernel_pins_a_term(basis: list[tuple[int, ...]]) -> bool:
    """Is some term's entry 0 on every vector of the basis (ker A = 0 pins all)?"""
    return not basis or not all(any(entries) for entries in zip(*basis))


def mat_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix: the pivot count of its elimination."""
    return len(eliminate(rows)[1])


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of the given points (-1 for the empty set)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return mat_rank([[a - b for a, b in zip(p, base)] for p in pts[1:]])
