"""Shared germ catalog and random generators."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lojex
from lojex.parser import parse_text
from lojex.polyhedron import build_polyhedron
from lojex.taylor import RemainderDescriptor, TaylorModel

CATALOG = {
    "circle": "x^2 + y^2",
    "quartic_mix": "x^4 + y^4 + x^2*y^2",
    "monomial": "x^2*y^2",
    "cusp": "x^3 + y^2",
    "axis_mix": "x^4 + x^2*y^2",
    "square_diff": "x^2 - 2*x*y + y^2",
    "inert_axis": "x1^4 + x1*x2 + x2^4 + x1^4*x3^6",
    "quartic_xyz": "x^4 + y^4 + z^4 + x*y*z",
    "triple_cross": "x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2",
    "uneven_axes": "x^2 + y^4",
}

# germs where the monomial-ideal and non-degeneracy gates both hold and the
# germ is non-negative (used by the comparison-lemma audits)
GATED_NONNEG = ["circle", "quartic_mix", "monomial", "axis_mix", "uneven_axes",
                "triple_cross"]


def germ(name: str) -> TaylorModel:
    return parse_text(CATALOG[name])


def subprocess_env() -> dict[str, str]:
    """The environment for a child Python that imports this same lojex."""
    src = os.path.dirname(os.path.dirname(lojex.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a child process that imports this lojex; a run that
    takes over 60 s fails the test, so a hang regression cannot hang the suite."""
    try:
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"python {' '.join(args)[:200]} did not finish within 60 s")


def run_lojex(*args: str) -> subprocess.CompletedProcess:
    """`python -m lojex *args` under the 60 s guard of `run_python`."""
    return run_python("-m", "lojex", *args)


@pytest.fixture
def catalog():
    return {name: parse_text(text) for name, text in CATALOG.items()}


def example_flat_germ(k: int) -> TaylorModel:
    """The flat-remainder family: x1^2 x2^2 plus x1^k times a factor flat in x2."""
    return TaylorModel.from_dict(
        2, {(2, 2): 1}, [RemainderDescriptor((k, 0), frozenset({1}), False)]
    )


def random_support(rng: random.Random, n: int, max_points: int = 20,
                   max_entry: int = 10) -> set[tuple[int, ...]]:
    count = rng.randint(1, max_points)
    pts = set()
    for _ in range(count):
        p = tuple(rng.randint(0, max_entry) for _ in range(n))
        if any(p):
            pts.add(p)
    if not pts:
        pts.add(tuple(2 if i == 0 else 0 for i in range(n)))
    return pts


def random_positive_even_germ(rng: random.Random) -> TaylorModel:
    """Positive coefficients on all-even exponents supported in a random axis
    set J, plus the axis vertices: automatically non-negative, non-degenerate
    (the weighted Euler identity keeps every face polynomial positive on the
    torus) and partially convenient."""
    n = rng.randint(2, 4)
    j_size = rng.randint(1, n)
    j_set = sorted(rng.sample(range(n), j_size))
    coeffs: dict[tuple[int, ...], Fraction] = {}
    nu = {}
    for i in j_set:
        nu_i = rng.choice([2, 4, 6])
        nu[i] = nu_i
        exp = tuple(nu_i if k == i else 0 for k in range(n))
        coeffs[exp] = Fraction(rng.randint(1, 5))
    for _ in range(rng.randint(0, 4)):
        exp = tuple(
            rng.choice([0, 2, 4]) if k in j_set else 0 for k in range(n)
        )
        support_vars = [k for k in j_set if exp[k]]
        if len(support_vars) < 2:
            continue  # keep the axis vertices exactly the nu_i e_i
        coeffs.setdefault(exp, Fraction(rng.randint(1, 5)))
    return TaylorModel.from_dict(n, coeffs)


def random_hat_supports(rng: random.Random, n: int) -> list[frozenset[int]]:
    """Variable supports of the vertices of a random hat polyhedron."""
    count = rng.randint(1, 5)
    vecs = set()
    for _ in range(count):
        v = tuple(rng.randint(0, 1) for _ in range(n))
        if any(v):
            vecs.add(v)
    if not vecs:
        vecs.add(tuple(1 if i == 0 else 0 for i in range(n)))
    hat = build_polyhedron(vecs)
    return [frozenset(i for i, e in enumerate(v) if e) for v in hat.vertices]
