"""Exact univariate polynomials over the rationals: gcd, Sturm counts, roots.

Polynomials are dense coefficient lists, low degree first, with Fraction
entries; the zero polynomial is [].  Only what the torus-criticality
reduction needs is implemented.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

UPoly = list[Fraction]


def utrim(p: Sequence[Fraction]) -> UPoly:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def udeg(p: UPoly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def uderiv(p: UPoly) -> UPoly:
    return utrim([i * c for i, c in enumerate(p)][1:])


def ueval(p: UPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def udivmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and utrim(a):
        a = utrim(a)
        if len(a) < len(b):
            break
        coeff = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coeff
        for i, c in enumerate(b):
            a[shift + i] -= coeff * c
        a.pop()
    return utrim(q), utrim(a)


def umul(a: UPoly, b: UPoly) -> UPoly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def upow(p: UPoly, e: int) -> UPoly:
    """p^e by repeated squaring, for e >= 0."""
    out = [Fraction(1)]
    while True:
        if e & 1:
            out = umul(out, p)
        e >>= 1
        if not e:
            return out
        p = umul(p, p)


def _primitive(p: Sequence) -> list[int]:
    """The integer multiple of a nonzero p with coprime coefficients and a
    positive leading coefficient."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [x // g for x in ints]


def ugcd(a: UPoly, b: UPoly) -> UPoly:
    """The monic gcd ([] when both are 0).

    A primitive remainder sequence over the integers: each pseudo-remainder
    lc(y)^k x mod y is cut to its primitive part, which keeps the
    coefficients small where Euclid over the rationals lets them grow.
    """
    a, b = utrim(a), utrim(b)
    x = _primitive(a) if a else []
    y = _primitive(b) if b else []
    if len(x) < len(y):
        x, y = y, x
    while y:
        lead = y[-1]
        while len(x) >= len(y):
            top, shift = x[-1], len(x) - len(y)
            x = [v * lead for v in x]
            for i, c in enumerate(y):
                x[shift + i] -= top * c
            while x and x[-1] == 0:
                x.pop()
        x, y = y, _primitive(x) if x else []
    return [Fraction(v, x[-1]) for v in x]


def strip_root_at_zero(p: UPoly) -> UPoly:
    """Remove all factors of x (so a surviving root is nonzero)."""
    p = utrim(p)
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    return p[k:]


def sturm_chain(p: UPoly) -> list[UPoly]:
    chain = [utrim(p), uderiv(p)]
    while chain[-1]:
        _, r = udivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_changes(values: list[int]) -> int:
    vals = [v for v in values if v != 0]
    return sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)


def _variations(chain: list[UPoly], x: Fraction | None, side: int = 1) -> int:
    """Sign changes of a Sturm chain at x, or at side * infinity when x is None."""
    if x is None:
        return _sign_changes([(1 if c[-1] > 0 else -1) * side ** (len(c) - 1) for c in chain])
    return _sign_changes([(v > 0) - (v < 0) for v in (ueval(c, x) for c in chain)])


def square_free(p: UPoly) -> UPoly:
    """p divided by gcd(p, p'): the same distinct roots, each simple."""
    p = utrim(p)
    if udeg(p) < 1:
        return p
    return udivmod(p, ugcd(p, uderiv(p)))[0]


def _sturm_count(
    p: UPoly, lo: Fraction | None, hi: Fraction | None
) -> tuple[int, UPoly, list[UPoly]]:
    """The number of distinct real roots of p in (lo, hi), None an infinite
    end, with the square-free part q of p and its Sturm chain ([] for a
    constant q).  Sturm's count V(lo) - V(hi) counts the roots in (lo, hi],
    so a root at hi is taken off."""
    q = square_free(p)
    if udeg(q) < 1:
        return 0, q, []
    chain = sturm_chain(q)
    count = _variations(chain, lo, -1) - _variations(chain, hi)
    return count - (hi is not None and ueval(q, hi) == 0), q, chain


def isolate_root_between(
    p: UPoly, lo: Fraction | None = None, hi: Fraction | None = None
) -> Fraction | None:
    """A rational within 2^-64 * max(1, |root|) of some root of p in the
    open interval (lo, hi), or None if there is none (`_sturm_count`).

    Bisection on the Sturm chain of the square-free part; an infinite end
    starts at the Cauchy bound, inside which every root lies strictly.
    """
    count, q, chain = _sturm_count(p, lo, hi)
    if count == 0:
        return None
    bound = cauchy_root_bound(q)
    a = -bound if lo is None else lo
    b = bound if hi is None else hi
    va = _variations(chain, a)
    # invariant: the open interval (a, b) holds a root
    while b - a > max(1, abs(a), abs(b)) / 2**64:
        mid = (a + b) / 2
        if ueval(q, mid) == 0:
            return mid
        vm = _variations(chain, mid)
        if va > vm:
            b = mid
        else:
            a, va = mid, vm
    return (a + b) / 2


def cauchy_root_bound(p: UPoly) -> Fraction:
    p = utrim(p)
    lead = abs(p[-1])
    return Fraction(1) + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))
