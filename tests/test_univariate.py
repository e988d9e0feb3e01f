import random
from fractions import Fraction

import numpy as np

import pytest

from lojex.univariate import (
    _sturm_count,
    isolate_root_between,
    square_free,
    strip_root_at_zero,
    ueval,
    ugcd,
    umul,
    utrim,
)


def _poly(*coeffs):
    return utrim([Fraction(c) for c in coeffs])


def count_real_roots(p, lo=None, hi=None):
    """Distinct real roots in (lo, hi): the Sturm count root isolation reads."""
    return _sturm_count(p, lo, hi)[0]


def test_count_real_roots_known():
    assert count_real_roots(_poly(-1, 0, 1)) == 2       # x^2 - 1
    assert count_real_roots(_poly(1, 0, 1)) == 0        # x^2 + 1
    assert count_real_roots(_poly(0, 1)) == 1           # x
    assert count_real_roots(_poly(-2, 0, 0, 1)) == 1    # x^3 - 2
    assert count_real_roots(_poly(1, -2, 1)) == 1       # (x-1)^2: distinct roots
    assert count_real_roots(_poly(6, -5, 1)) == 2       # (x-2)(x-3)


def test_count_matches_numpy_roots_random():
    rng = random.Random(13)
    for _ in range(200):
        deg = rng.randint(1, 7)
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = _poly(*coeffs)
        roots = np.roots([float(c) for c in reversed(p)])
        # count distinct real roots numerically, clustering conjugate noise
        real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)
        distinct = 0
        prev = None
        for r in real:
            if prev is None or abs(r - prev) > 1e-6:
                distinct += 1
            prev = r
        # only trust the numeric comparison when roots are well separated
        pairwise = [abs(a - b) for a in real for b in real if a < b]
        mindist = min(pairwise, default=1.0)
        imag_near = [abs(r.imag) for r in roots if 1e-9 <= abs(r.imag) < 1e-5]
        if mindist > 1e-5 and not imag_near:
            assert count_real_roots(p) == distinct, (p, roots)


def test_gcd_and_strip():
    # gcd of (x^2-1)(x+2) and (x^2-1)(x-3) is x^2-1 up to scale
    a = _poly(-2, -1, 2, 1)
    b = _poly(3, -1, -3, 1)
    g = ugcd(a, b)
    assert len(g) == 3 and g[-1] == 1
    assert ueval(g, Fraction(1)) == 0 and ueval(g, Fraction(-1)) == 0
    assert strip_root_at_zero(_poly(0, 0, 2, 1)) == _poly(2, 1)


def test_isolate_real_root():
    p = _poly(-2, 0, 1)  # x^2 - 2
    r = isolate_root_between(p)
    assert r is not None
    assert abs(abs(float(r)) - 2**0.5) < 1e-9
    assert abs(r * r - 2) < Fraction(1, 2**60)
    assert isolate_root_between(p, Fraction(0)) > 0
    assert isolate_root_between(p, None, Fraction(-1)) < 0
    assert isolate_root_between(p, Fraction(-1), Fraction(1)) is None
    assert isolate_root_between(_poly(1, 0, 1)) is None
    assert isolate_root_between(_poly(5)) is None


def _from_roots(roots, extra=(1,)):
    p = _poly(*extra)
    for r in roots:
        p = umul(p, _poly(-r, 1))
    return p


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(17)
    for _ in range(150):
        common = _poly(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))))
        a = umul(common, _poly(*(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))))
        b = umul(common, _poly(*(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))))
        want = sympy.Poly(sympy.gcd(
            sympy.Poly(list(reversed(a)) or [0], x), sympy.Poly(list(reversed(b)) or [0], x)
        ), x, domain="QQ")
        got = ugcd(a, b)
        if want.is_zero:
            assert got == []
        else:
            assert got == [Fraction(int(c.p), int(c.q)) for c in reversed(want.monic().all_coeffs())]
    assert ugcd([], []) == []
    assert ugcd([], _poly(2, 4)) == _poly(Fraction(1, 2), 1)


def test_square_free():
    p = _from_roots([1, 1, 1, -2, -2])  # (x - 1)^3 (x + 2)^2
    assert square_free(p) == umul(_poly(-1, 1), _poly(2, 1))


def test_roots_between_match_the_planted_roots():
    # roots on a grid of rationals, some repeated, times x^2 + 1; the ends
    # of the interval come from the same grid, so they are often roots
    # themselves, and an end may be infinite
    grid = [Fraction(k, 3) for k in range(-9, 10)]
    rng = random.Random(19)
    for _ in range(300):
        roots = [rng.choice(grid) for _ in range(rng.randint(0, 4))]
        p = _from_roots(roots + roots[:rng.randint(0, 2)], extra=rng.choice(((3,), (1, 0, 1))))
        lo, hi = sorted(rng.sample(grid, 2))
        lo = None if rng.random() < 0.2 else lo
        hi = None if rng.random() < 0.2 else hi
        inside = [r for r in roots if (lo is None or lo < r) and (hi is None or r < hi)]
        assert count_real_roots(p, lo, hi) == len(set(inside)), (p, lo, hi)
        got = isolate_root_between(p, lo, hi)
        if not inside:
            assert got is None, (p, lo, hi)
            continue
        assert got is not None, (p, lo, hi)
        assert (lo is None or lo < got) and (hi is None or got < hi)
        assert min(abs(got - r) for r in inside) <= Fraction(1, 2**64) * max(1, *map(abs, inside))
