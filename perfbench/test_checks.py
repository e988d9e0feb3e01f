"""Each check in checks.py rejects a wrong answer, so none can pass vacuously.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench/test_checks.py)

Each test feeds a check one right answer, which must pass, and wrong ones
made by hand, which must each be rejected.  No lojex code runs here.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

UNEVEN = "x^2 + y^4"  # vertices (2,0), (0,4); theta 3/4, alpha = dist = 4
UNEVEN_FACETS = [((1, 0), 0), ((0, 1), 0), ((2, 1), 4)]


def summary(**over):
    s = {
        "exit_code": 0, "n": 2,
        "vertices": [(0, 4), (2, 0)], "facets": UNEVEN_FACETS,
        "theta": Fraction(3, 4), "alpha": Fraction(4), "dist": Fraction(4),
        "hypotheses": {"kn": True, "nondegenerate": True, "nonnegative": True},
        "flags": [], "faces": [], "has_fan": True,
        "fan_rays": [(0, 1), (1, 0), (1, 1), (2, 1)],
        "fan_cones": [(0, 2), (2, 3), (1, 3)],
        "audits": [("L1", "pass"), ("L0", "pass")],
    }
    s.update(over)
    return s


def test_right_answer_passes():
    problems, failures = checks.check_output("analyze", UNEVEN, summary(), False)
    assert problems == [] and failures == []


def test_perturbed_exponents_rejected():
    for key, wrong in (("theta", Fraction(3, 4) + Fraction(1, 100)), ("alpha", Fraction(2)),
                       ("dist", None)):
        problems, _ = checks.check_output("exponents", UNEVEN, summary(**{key: wrong}), False)
        assert any(key in p for p in problems), (key, problems)


def test_partially_convenient_theta_rejected():
    # x^4 + x*y + y^4 + x^4*z^6: J = {x, y}, nu_max = 4, theta = 3/4
    n, terms = checks.parse_terms("x1^4 + x1*x2 + x2^4 + x1^4*x3^6")
    good = summary(n=3, theta=Fraction(3, 4), alpha=None, dist=None)
    assert checks.check_exponents(terms, n, good) == []
    assert checks.check_exponents(terms, n, {**good, "theta": Fraction(1, 2)})
    # x^2*y^2 has no axis vertex: any theta is wrong
    n, terms = checks.parse_terms("x^2*y^2")
    assert checks.check_exponents(terms, n, {**good, "theta": Fraction(1, 2)})


def test_non_vertex_and_missing_vertex_rejected():
    support = [(2, 0), (0, 4), (2, 2)]  # (2, 2) is dominated by (2, 0)
    assert checks.check_polyhedron(support, [(2, 0), (0, 4)], UNEVEN_FACETS) == []
    assert checks.check_polyhedron(support, [(2, 0), (0, 4), (2, 2)], UNEVEN_FACETS)
    assert checks.check_polyhedron(support, [(2, 0)], UNEVEN_FACETS)
    assert checks.check_polyhedron(support, [(2, 0), (0, 4), (1, 1)], UNEVEN_FACETS)


def test_violated_facet_rejected():
    support = [(2, 0), (0, 4)]
    assert checks.check_polyhedron(support, support, UNEVEN_FACETS + [((1, 1), 3)])
    assert checks.check_polyhedron(support, support, [((1, -1), -4)])


def test_bad_fan_rejected():
    rays = [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert checks.check_fan(2, rays, [(0, 2), (2, 3), (1, 3)]) == []
    assert checks.check_fan(2, rays, [(0, 2), (1, 2)]) == []
    # det((0, 1), (2, 1)) = -2
    assert any("det" in p for p in checks.check_fan(2, rays, [(0, 3), (1, 3)]))
    # cone((1, 0), (2, 1)) alone misses the diagonal, cone((0, 1), (1, 1)) an axis
    assert any("(1, 1)" in p for p in checks.check_fan(2, rays, [(1, 3)]))
    assert any("(1, 0)" in p for p in checks.check_fan(2, rays, [(0, 2)]))


def test_fake_witness_rejected():
    n, terms = checks.parse_terms("x^2 - 2*x*y + y^2")
    face = ((0, 2), (1, 1), (2, 0))
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", (1.0, 1.0))]) == ([], [])
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", (1.0, 2.0))])[0]
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", (0.0, 0.0))])[0]
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", None)])[0]


def test_fake_witness_near_origin_rejected():
    # (x*y - z^2)^2 is critical where x*y = z^2; at (0.02, 0.03, 0.02) it is
    # not (x*y = 6e-4, z^2 = 4e-4), though ||grad||^2 there is about 5e-10
    n, terms = checks.parse_terms("x^2*y^2 - 2*x*y*z^2 + z^4")
    face = tuple(sorted(terms))
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", (1.0, 1.0, 1.0))]) == ([], [])
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", (0.5, 0.5, 0.5))]) == ([], [])
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", (0.02, 0.03, 0.02))])[0]


def test_false_degenerate_face_counted():
    # (x*y - z^2)^2 + y^6: d/dx forces x*y = z^2, then d/dy = 6*y^5, so no
    # torus critical point; at this point 6*y^5 is 3e-9 and hides below a
    # residual tolerance
    n, terms = checks.parse_terms("x^2*y^2 - 2*x*y*z^2 + z^4 + y^6")
    face = tuple(sorted(terms))
    witness = (1.0, 0.014056559960218097, 0.11856038030626365)
    assert checks.check_degenerate_faces(terms, [(face, "degenerate", witness)]) == (
        [], [f"face {face} is labelled degenerate but has no torus critical point"])


def test_degenerate_face_labelled_numeric_rejected():
    # (x*y - z^2)^2 vanishes with its gradient on x*y = z^2
    n, terms = checks.parse_terms("x^2*y^2 - 2*x*y*z^2 + z^4")
    face = tuple(sorted(terms))
    assert checks.check_numeric_faces(terms, [(face, "nondegenerate-numeric", None)])
    n, terms = checks.parse_terms("x^4 + y^4 + z^4 + x^2*y*z")
    face = tuple(sorted(terms))
    assert checks.check_numeric_faces(terms, [(face, "nondegenerate-numeric", None)]) == []


def test_planted_degenerate_reported_nondegenerate_rejected():
    germ = "x^2*y^2 - 2*x*y*z^2 + z^4"
    n, terms = checks.parse_terms(germ)
    s = {"faces": [], "overall_nondegenerate": True}
    assert checks.check_nondegeneracy(terms, s, known_degenerate=True)[0]
    s = {"faces": [(tuple(sorted(terms)), "inconclusive", None)], "overall_nondegenerate": True}
    assert checks.check_nondegeneracy(terms, s, known_degenerate=False)[0]


def test_failed_audit_counted():
    _, failures = checks.check_output(
        "analyze", UNEVEN, summary(audits=[("L1", "fail"), ("L0", "pass")]), False
    )
    assert failures == ["audit L1: fail"]


def test_wrong_exit_code_rejected():
    problems, _ = checks.check_output("analyze", UNEVEN, summary(exit_code=2), False)
    assert any("exit code" in p for p in problems)
    problems, _ = checks.check_output("verify", UNEVEN, {"exit_code": 0, "audits": []}, False)
    assert problems


def test_missing_fan_rejected():
    problems, _ = checks.check_output("analyze", UNEVEN, summary(has_fan=False), False)
    assert any("fan" in p for p in problems)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks of the checks passed")
