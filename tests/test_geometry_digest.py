"""The exact geometry pinned by one digest.

The polyhedron, its compact faces, the normal fan, the simplicial fan and,
for n <= 3, the unimodular fan of 60 seeded supports are written as
canonical JSON and hashed.  A change to how any of them is computed must
leave every bit of them as it was; the digest was recorded before the face
lattice took over the facet incidences.
"""

import hashlib
import json
import random

from lojex.fan import Fan, normal_fan, simplicialize, unimodularize
from lojex.polyhedron import build_polyhedron, compact_faces

from .conftest import random_support
from .oracles import affine_rank

GEOMETRY_DIGEST = "2c5139f5282d16aeb990b0a1c3350080a67a8bae8a344267cb962ce10fec354c"


def _fan_doc(fan: Fan) -> dict:
    return {
        "n": fan.n,
        "rays": fan.rays,
        "cones": [
            [c.rays, None if c.attached_face is None else sorted(c.attached_face)]
            for c in fan.cones
        ],
        "maximal": fan.maximal,
    }


def _geometry_doc(supp) -> dict:
    poly = build_polyhedron(supp)
    sigma = simplicialize(normal_fan(poly))
    doc = {
        "vertices": sorted(poly.vertices),
        "facets": [[f.normal, f.offset] for f in poly.facets],
        "compact_faces": [
            [fd.defining_normal, sorted(fd.lattice_points), affine_rank(fd.lattice_points)]
            for fd in compact_faces(poly)
        ],
        "normal_fan": _fan_doc(normal_fan(poly)),
        "simplicial_fan": _fan_doc(sigma),
    }
    if poly.n <= 3:
        doc["unimodular_fan"] = _fan_doc(unimodularize(sigma))
    return doc


def _corpus() -> list[set[tuple[int, ...]]]:
    rng = random.Random(2311)
    shape = {2: (10, 9), 3: (12, 7), 4: (10, 5), 5: (8, 3)}
    out = []
    for n in (2, 3, 4, 5):
        points, entry = shape[n]
        out += [random_support(rng, n, max_points=points, max_entry=entry) for _ in range(15)]
    return out


def test_exact_geometry_digest():
    docs = [_geometry_doc(supp) for supp in _corpus()]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GEOMETRY_DIGEST
