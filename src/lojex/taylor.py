"""Exact Taylor models: the germ being analyzed.

A germ is represented by the polynomial part of its Taylor series plus a
list of declared remainder factors.  The polynomial part is a set of terms
with nonzero rational coefficients and pairwise-distinct lattice exponents:

    x1^2*x2^2 - 1/3*x1^5   ->   {(2, 2): Fraction(1), (5, 0): Fraction(-1, 3)}

A remainder descriptor stands for a summand x^beta * phi(x) with phi smooth,
where phi is declared either a unit (phi(0) != 0) or flat in a stated set of
variables (vanishing to infinite order as those variables -> 0, like
exp(-1/x2^2)).  Remainders with phi(0) = 0 that are not flat are rejected:
their lattice contribution is underdetermined by the input.  Unit remainders
contribute their exponent to the Taylor support; flat remainders contribute
nothing (their full Taylor series vanishes).

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CapExceededError, InputError
from .record import record

Exponent = tuple[int, ...]
PolyDict = dict[Exponent, Fraction]

MAX_DIM = 8
MAX_EXPONENT = 10**6  # machine-int exponents with an explicit overflow guard


def check_exponent(exp: Sequence[int], n: int | None = None) -> Exponent:
    """Validate a lattice exponent vector and return it as a tuple."""
    t = tuple(exp)
    if n is not None and len(t) != n:
        raise InputError(f"exponent {t} has length {len(t)}, expected {n}")
    if not t:
        raise InputError("exponent vector must have dimension >= 1")
    for x in t:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"exponent entries must be integers, got {x!r}")
        if x < 0:
            raise InputError(f"exponent entries must be nonnegative, got {t}")
        if x > MAX_EXPONENT:
            raise CapExceededError(f"exponent entry {x} exceeds cap {MAX_EXPONENT}")
    return t


@record
class Term:
    coeff: Fraction
    exp: Exponent

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "exp", check_exponent(self.exp))
        if self.coeff == 0:
            raise InputError(f"term with exponent {self.exp} has zero coefficient")


@record
class RemainderDescriptor:
    """x^exp times a smooth factor, declared unit or flat in `flat_vars` (0-based)."""

    exp: Exponent
    flat_vars: frozenset[int] = frozenset()
    is_unit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "exp", check_exponent(self.exp))
        object.__setattr__(self, "flat_vars", frozenset(self.flat_vars))
        n = len(self.exp)
        if any(i < 0 or i >= n for i in self.flat_vars):
            raise InputError(f"flat variable index out of range for dimension {n}")
        if self.is_unit and self.flat_vars:
            raise InputError("a unit remainder cannot also be flat")
        if not self.is_unit and not self.flat_vars:
            raise InputError(
                "remainder factor must be declared unit or flat in at least one "
                "variable; a factor vanishing at 0 but not flat leaves the Newton "
                "polyhedron underdetermined"
            )


@record
class TaylorModel:
    """Polynomial Taylor part plus declared remainders, in dimension n."""

    n: int
    terms: tuple[Term, ...]
    remainders: tuple[RemainderDescriptor, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InputError("dimension must be >= 1")
        if self.n > MAX_DIM:
            raise CapExceededError(f"dimension {self.n} exceeds cap {MAX_DIM}")
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "remainders", tuple(self.remainders))
        seen: set[Exponent] = set()
        for t in self.terms:
            check_exponent(t.exp, self.n)
            if t.exp in seen:
                raise InputError(f"duplicate exponent {t.exp} in terms")
            seen.add(t.exp)
            if sum(t.exp) <= 1:
                raise InputError(
                    f"term x^{t.exp} violates f(0)=0, grad f(0)=0; the analysis "
                    "applies to origin-critical germs only"
                )
        for r in self.remainders:
            check_exponent(r.exp, self.n)

    @classmethod
    def from_dict(
        cls,
        n: int,
        coeffs: Mapping[Sequence[int], Fraction | int | str],
        remainders: Iterable[RemainderDescriptor] = (),
    ) -> "TaylorModel":
        terms = tuple(
            Term(Fraction(c), tuple(e))
            for e, c in sorted(coeffs.items())
            if Fraction(c) != 0
        )
        return cls(n, terms, tuple(remainders))

    def poly(self) -> PolyDict:
        return {t.exp: t.coeff for t in self.terms}


# ---------------------------------------------------------------------------
# dict-based polynomial helpers (shared with face polynomials downstream)

def poly_diff(poly: PolyDict, i: int) -> PolyDict:
    """Exact partial derivative of a polynomial dict with respect to variable i.

    Lowering exponent i by one is injective, so no two terms merge, and a
    nonzero coefficient times a positive exponent stays nonzero."""
    return {
        exp[:i] + (exp[i] - 1,) + exp[i + 1 :]: c * exp[i] for exp, c in poly.items() if exp[i]
    }


def poly_eval_float(poly: PolyDict, point: Sequence[float]) -> float:
    # math.fsum is a compensated summation: term order cannot perturb the result
    return math.fsum(
        float(c) * math.prod(point[i] ** e for i, e in enumerate(exp) if e)
        for exp, c in poly.items()
    )


# ---------------------------------------------------------------------------
# model operations

def support(model: TaylorModel) -> frozenset[Exponent]:
    """Taylor-support generators: term exponents plus unit-remainder exponents."""
    pts = {t.exp for t in model.terms}
    pts.update(r.exp for r in model.remainders if r.is_unit)
    return frozenset(pts)
