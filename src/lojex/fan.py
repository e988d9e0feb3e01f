"""Normal fans and their unimodular simplicial refinements.

The normal fan of a Newton polyhedron decomposes the dual nonnegative
orthant by which face each covector minimizes on; maximal cones correspond
to vertices and are generated by the normals of the facets through the
vertex.  The cones and their rays are read from the faces that the
polyhedron's join walk grows from the vertices (`polyhedron._join_walk`),
each carried as the mask of the facets through it; no cone is handed to
double description again.
Refinement happens in two deterministic stages:

  simplicialize: keeps each simplicial maximal cone and splits the others
      by a pulling triangulation (apex = lexicographically smallest ray of
      each cone, recursively), introducing no new rays; a cone's facets are
      its maximal proper sub-cones among the fan's cones;
  unimodularize: 2D cones via the Hirzebruch-Jung chain, 3D/4D cones via
      stellar subdivision at the minimal-coefficient-sum primitive lattice
      point of the fundamental parallelepiped, found among the |det|
      classes of Z^n modulo the cone's lattice.  That search is a stellar
      step's one elimination, and only the cones around the new ray are split.
      It grows with |det|, so a fan whose sum of |det| is over a budget is
      refused before the first step, as is a 2D fan whose chains would
      insert more rays than their budget.

Rays live in a deduplicated table, which each refinement extends; cones
reference ray indices.  Each builder records the signed determinant of every
maximal cone it makes (`Fan.dets`): the normal fan's by an elimination, kept
for a simplicial cone and eliminated only for a new triangle, then carried
through each stellar step; no reader computes one.  All arithmetic is exact
and runs on integers: determinants, span coordinates and inverses come from
the one elimination in `linalg`, scaled by the pivot rather than divided.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import CapExceededError, InputError
from .linalg import eliminate, solve_scaled
from .polyhedron import NewtonPolyhedron, _bits, _join_walk, support_value
from .record import record
from .taylor import Exponent

UNIMODULARIZE_MAX_DIM = 4
# the stellar loop closes all |det| residue classes of a cone in one set, so
# its time and memory grow with the determinants.  Sum |det| over the
# simplicial cones is known before the first step.  On seeded n = 3-4
# supports, every fan under this sum refined in at most 10 s and 40 MB; over
# it, one with 1.4e6 ran past 60 s
UNIMODULARIZE_MAX_DET_SUM = 200_000
# for n = 2 each Hirzebruch-Jung step inserts one ray, and the refined fan,
# its report and its memory grow with the rays; their count is known before
# any chain runs (hirzebruch_jung_length).  On seeded n = 2 supports and
# two-term germs, `fan` cost about 30 us and 2 KB of peak RSS per inserted
# ray (16 117 rays: 0.5 s, 47 MB; 336 064: 11.7 s, 661 MB); no n = 2 fan of
# the tests or the benchmark inserts more than 5
UNIMODULARIZE_MAX_CHAIN_RAYS = 20_000

RayVec = tuple[int, ...]


@record
class Cone:
    rays: tuple[int, ...]  # sorted indices into the owning fan's ray table
    attached_face: frozenset[Exponent] | None = None


@record
class Fan:
    """A fan in the dual nonnegative orthant.  `dets` is the signed determinant
    of each maximal cone's generators in their listed order, in `maximal`
    order (None for more than n rays), set by the function that builds it."""

    n: int
    rays: tuple[RayVec, ...]
    cones: tuple[Cone, ...]
    maximal: tuple[int, ...]  # indices into `cones` of the full-dimensional ones
    dets: tuple[int | None, ...]

    def generators(self, cone: Cone) -> list[RayVec]:
        return [self.rays[i] for i in cone.rays]

    def maximal_cones(self) -> list[Cone]:
        return [self.cones[i] for i in self.maximal]


@record
class ConeExponents:
    cone_index: int  # index into fan.maximal order
    l_values: tuple[int, ...]
    l_sigma: int
    n_sigma: int


@record
class FanExponents:
    per_cone: tuple[ConeExponents, ...]
    L: int
    N: int
    ray_values: tuple[int, ...]  # the support value of each ray of the fan


# ---------------------------------------------------------------------------
# cone helpers (exact)

def cone_det(vectors: Sequence[RayVec]) -> int:
    work, pivots = eliminate(vectors)
    return work[-1][-1] if len(pivots) == len(work) else 0


# ---------------------------------------------------------------------------
# normal fan

def normal_fan(poly: NewtonPolyhedron) -> Fan:
    """The decomposition of the dual nonnegative orthant by minimizing face.

    Cones are the normal cones of the nonempty proper faces, grown by joins
    with vertices and coordinate directions (`polyhedron._join_walk`); the
    empty facet set is the whole polyhedron and is dropped.  The cone of a
    face is generated by the normals of the facets through it, and the
    maximal cones are the vertices'.  attached_face holds the vertex set of
    the polyhedron face each cone maps to.  The facets are sorted by their
    normals, which are distinct, so facet k is ray k and a face's facet set
    is its cone's rays.
    """
    n = poly.n
    ray_table = tuple(f.normal for f in poly.facets)
    vertex_masks = [(v, m) for v, m in poly.point_masks if v in poly.vertices]
    inc = [m for _, m in vertex_masks]
    faces = sorted(
        (tuple(_bits(fs)), fs)
        for fs in _join_walk(inc, inc + list(poly.axis_masks), lambda fs: not fs)
    )
    cones = tuple(
        Cone(rays, frozenset(v for v, m in vertex_masks if m & fs == fs))
        for rays, fs in faces
    )
    at_vertex = set(inc)
    maximal = tuple(k for k, (_, fs) in enumerate(faces) if fs in at_vertex)
    dets = []
    for k in maximal:
        work, pivots = eliminate([ray_table[i] for i in cones[k].rays])
        assert len(pivots) == n, "a vertex's normal cone is full-dimensional"
        dets.append(work[-1][-1] if len(work) == n else None)
    return Fan(n, ray_table, cones, maximal, tuple(dets))


# ---------------------------------------------------------------------------
# simplicialization (pulling triangulation)

def _pull_triangulate(fan: Fan, idx: tuple[int, ...], dim: int) -> list[tuple[int, ...]]:
    """Pulling triangulation of the fan cone of dimension dim with rays idx.

    The cones are pointed, so a cone is simplicial when it has dim rays.
    Its facets, of dimension dim - 1, are its maximal proper sub-cones, and
    the fan lists every one of them, so they are read off `fan.cones`.  Only
    non-simplicial normal cones come here, and only their triangles' dets
    are eliminated; a simplicial one keeps the det `normal_fan` recorded.
    """
    if len(idx) == dim:
        return [idx]
    apex = min(idx, key=lambda i: fan.rays[i])
    inside = set(idx)
    faces = [face for face in (set(c.rays) for c in fan.cones) if face < inside]
    out = []
    for face in faces:
        if apex in face or any(face < other for other in faces):
            continue
        for tri in _pull_triangulate(fan, tuple(sorted(face)), dim - 1):
            out.append(tuple(sorted(tri + (apex,))))
    return out


def _assemble_simplicial(
    n: int,
    rays: Sequence[RayVec],
    max_cones: list[tuple[tuple[int, ...], frozenset[Exponent] | None, int]],
) -> Fan:
    """Build a fan from simplicial maximal cones, each its sorted ray indices,
    attached face and signed determinant; faces are all ray subsets.  Each
    ray must generate some maximal cone."""
    max_cones = sorted(max_cones, key=lambda c: c[0])
    cone_set: dict[tuple[int, ...], frozenset[Exponent] | None] = {}
    for idx, attached, _ in max_cones:
        cone_set[idx] = attached
        for r in range(1, len(idx)):
            for sub in itertools.combinations(idx, r):
                cone_set.setdefault(sub, None)
    keys = sorted(cone_set)
    pos = {k: i for i, k in enumerate(keys)}
    return Fan(
        n,
        tuple(rays),
        tuple(Cone(k, cone_set[k]) for k in keys),
        tuple(pos[c[0]] for c in max_cones),
        tuple(c[2] for c in max_cones),
    )


def simplicialize(fan: Fan) -> Fan:
    """Refine every maximal cone to simplicial cones without adding rays; a
    simplicial one keeps its det, and only new triangles are eliminated."""
    new_max = []
    for cone, det in zip(fan.maximal_cones(), fan.dets):
        if det is not None:
            new_max.append((cone.rays, cone.attached_face, det))
            continue
        for tri in _pull_triangulate(fan, cone.rays, fan.n):
            new_max.append((tri, cone.attached_face, cone_det([fan.rays[i] for i in tri])))
    return _assemble_simplicial(fan.n, fan.rays, new_max)


# ---------------------------------------------------------------------------
# unimodularization

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _det2(u: RayVec, v: RayVec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def hirzebruch_jung_chain(u: RayVec, v: RayVec) -> list[RayVec]:
    """Rays of the minimal unimodular subdivision of the 2D cone(u, v).

    Repeatedly inserts the unique primitive w with det(cur, w) = 1 lying on
    the bounded part of the lattice hull between cur and v; consecutive
    chain members span determinant-one cones.
    """
    if _det2(u, v) < 0:
        u, v = v, u
    chain = [u]
    cur = u
    while True:
        d = _det2(cur, v)
        if d == 0:
            raise InputError("degenerate 2D cone: generators are parallel")
        if d == 1:
            chain.append(v)
            return chain
        g, s, t = _xgcd(cur[0], cur[1])
        assert g == 1, "cone generators must be primitive"
        w = (-t, s)  # det(cur, w) = cur0*s + cur1*t ... = 1
        assert _det2(cur, w) == 1
        alpha_num = _det2(w, v)  # alpha = alpha_num / d must land in (0, 1)
        k = -(alpha_num // d)
        w = (w[0] + k * cur[0], w[1] + k * cur[1])
        assert w[0] >= 0 and w[1] >= 0 and _det2(cur, w) == 1
        chain.append(w)
        cur = w


def hirzebruch_jung_length(u: RayVec, v: RayVec) -> int:
    """How many rays hirzebruch_jung_chain(u, v) inserts between u and v, in
    O(log |det|) steps.

    In a lattice basis (u, w) with det(u, w) = 1, v has coordinates
    (det(v, w), d) with d = |det(u, v)|: the cone is of type (d, q) with
    q = det(w, v) mod d.  The chain inserts as many rays as the
    Hirzebruch-Jung continued fraction of d/q has terms (Fulton,
    Introduction to Toric Varieties, 2.6): with the regular continued
    fraction d/q = [a_1; a_2, ..., a_s], that is ceil(s/2) + sum(a_2i - 1).
    """
    d = _det2(u, v)
    if d < 0:
        u, v, d = v, u, -d
    _, s, t = _xgcd(u[0], u[1])
    a, b = d, _det2((-t, s), v) % d
    terms = inserted = 0
    while b:
        quotient, (a, b) = a // b, (b, a % b)
        terms += 1
        if terms % 2 == 0:
            inserted += quotient - 1
    return (terms + 1) // 2 + inserted


def _parallelepiped_point(vectors: list[RayVec]) -> tuple[RayVec, tuple[int, ...]]:
    """Primitive lattice point of {sum t_i g_i : 0 <= t_i < 1} with minimal
    coefficient sum, ties broken lexicographically, and its coefficients times
    |det|.

    The lattice points of this half-open parallelepiped are one per class of
    Z^n / B Z^n, B with the g_i as columns.  With D = |det B| the class of z
    is held as its coefficients times D, the residues D B^-1 z mod D; the
    classes of the unit vectors generate the group, so closing them under
    addition lists every class.
    """
    n = len(vectors)
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    det, cols = solve_scaled(list(zip(*vectors)), unit)
    d = abs(det)
    assert d > 1, "parallelepiped of a non-unimodular cone has a lattice point"
    steps = [tuple((x if det > 0 else -x) % d for x in col) for col in cols]
    classes = {(0,) * n}
    frontier = list(classes)
    while frontier:
        fresh = {
            tuple((a + b) % d for a, b in zip(u, step)) for u in frontier for step in steps
        } - classes
        classes |= fresh
        frontier = list(fresh)

    def point(u: tuple[int, ...]) -> RayVec:
        return tuple(sum(c * g[j] for c, g in zip(u, vectors)) // d for j in range(n))

    return min((sum(u), point(u), u) for u in classes if any(u))[1:]


def check_unimodularize_dim(n: int) -> None:
    """Raise CapExceededError when unimodularize would refuse dimension n."""
    if n > UNIMODULARIZE_MAX_DIM:
        raise CapExceededError(
            f"unimodularization is capped at dimension {UNIMODULARIZE_MAX_DIM}, got {n}"
        )


def unimodularize(fan: Fan, trace: list | None = None) -> Fan:
    """Refine a simplicial fan until every maximal cone has determinant +-1.

    Raises CapExceededError before any ray is inserted when the work is over
    a budget: for n = 2, when the Hirzebruch-Jung chains would insert more
    than UNIMODULARIZE_MAX_CHAIN_RAYS rays; for n >= 3, when the sum of
    |det| over the maximal cones exceeds UNIMODULARIZE_MAX_DET_SUM.  When a
    `trace` list is supplied, each stellar step appends the pair (max |det|
    among non-unimodular cones, how many cones attain it); the sequence
    decreases strictly in lexicographic order, which is the termination
    witness.
    """
    n = fan.n
    for cone in fan.maximal_cones():
        if len(cone.rays) != n:
            raise InputError("unimodularize requires a simplicial fan")
    check_unimodularize_dim(n)
    rays: list[RayVec] = list(fan.rays)
    ray_index = {r: i for i, r in enumerate(rays)}

    def intern(vec: RayVec) -> int:
        if vec not in ray_index:
            ray_index[vec] = len(rays)
            rays.append(vec)
        return ray_index[vec]

    cones = [
        (c.rays, c.attached_face, det) for c, det in zip(fan.maximal_cones(), fan.dets)
    ]

    if n == 2:
        new_rays = sum(hirzebruch_jung_length(rays[i], rays[j]) for (i, j), _, _ in cones)
        if new_rays > UNIMODULARIZE_MAX_CHAIN_RAYS:
            raise CapExceededError(
                f"unimodularization would insert {new_rays} rays by the Hirzebruch-Jung "
                f"chains, over the budget {UNIMODULARIZE_MAX_CHAIN_RAYS}"
            )
        out = []
        for idx, attached, _ in cones:
            chain = hirzebruch_jung_chain(rays[idx[0]], rays[idx[1]])
            for a, b in zip(chain, chain[1:]):
                i, j = sorted((intern(a), intern(b)))
                out.append(((i, j), attached, _det2(rays[i], rays[j])))
        return _assemble_simplicial(n, rays, out)

    det_sum = sum(abs(c[2]) for c in cones)
    if det_sum > UNIMODULARIZE_MAX_DET_SUM:
        raise CapExceededError(
            f"unimodularization needs sum |det| = {det_sum} over the simplicial "
            f"cones, over the budget {UNIMODULARIZE_MAX_DET_SUM}"
        )
    # each cone carries its signed det.  The new ray w is t / d in the worst
    # cone's generators and lies inside its face F = {g_j : t_j > 0}, a cone
    # of the fan, so w is no ray yet; the cones holding w are those with F
    # among their rays, and g_j -> w scales their det by t_j / d.  w takes the
    # last index, so moving it from g_j's place p to the end of the sorted
    # rays is n - 1 - p transpositions
    while (d := max((abs(c[2]) for c in cones), default=1)) != 1:
        worst = [c for c in cones if abs(c[2]) == d]
        if trace is not None:
            trace.append((d, len(worst)))
        worst_idx = max(worst, key=lambda c: [rays[i] for i in c[0]])[0]
        w, t = _parallelepiped_point([rays[i] for i in worst_idx])
        assert w not in ray_index, "the new ray is already a ray of the fan"
        w_idx = intern(w)
        face = {r: x for r, x in zip(worst_idx, t) if x}
        some_ray = next(iter(face))
        updated = []
        for cone in cones:
            idx = cone[0]
            # one ray of F tested first turns most cones away without a set
            if some_ray not in idx or not face.keys() <= set(idx):
                updated.append(cone)
                continue
            _, attached, det = cone
            for p, r in enumerate(idx):
                if r in face:
                    assert det * face[r] % d == 0
                    repl = idx[:p] + idx[p + 1:] + (w_idx,)
                    updated.append((repl, attached, (-1) ** (n - 1 - p) * det * face[r] // d))
        cones = updated
    return _assemble_simplicial(n, rays, cones)


# ---------------------------------------------------------------------------
# exponents

def fan_exponents(fan: Fan, poly: NewtonPolyhedron) -> FanExponents:
    """Per-cone ray support values and the aggregated bounds L and N, with
    the support value of every ray, which the fan's report reads.  That the
    fan covers the orthant is the refinement's construction, not checked."""
    n = fan.n
    ray_values = tuple(support_value(poly, r) for r in fan.rays)
    per = []
    for pos, (cone, det) in enumerate(zip(fan.maximal_cones(), fan.dets)):
        if len(cone.rays) != n:
            raise InputError("fan_exponents requires a simplicial fan")
        if abs(det) != 1:
            raise InputError("fan_exponents requires a unimodular fan")
        l_values = tuple(ray_values[i] for i in cone.rays)
        per.append(ConeExponents(pos, l_values, max(l_values), sum(l_values)))
    if not per:
        raise InputError("fan has no maximal cones")
    return FanExponents(
        tuple(per),
        L=max(c.l_sigma for c in per),
        N=max(c.n_sigma for c in per),
        ray_values=ray_values,
    )

