"""Small exact linear algebra over the integers, used by the lattice geometry.

Matrices are lists of row tuples/lists of Python ints.  One fraction-free
Gauss-Jordan elimination (Bareiss 1968) serves every caller: rank,
determinant, solutions and inverses are all read off its result, so no
rational number is ever formed.  Entries go through `operator.index`, so a
`Fraction` or float is rejected rather than truncated.  Inputs are copied;
nothing is mutated from the caller's view.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Iterable, Sequence


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b, strict=True))


def primitive(vec: Iterable[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero vector stays zero)."""
    v = tuple(index(x) for x in vec)
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return v
    return tuple(x // g for x in v)


def eliminate(
    rows: Iterable[Sequence[int]], width: int | None = None
) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination; returns (reduced rows, pivot columns).

    Pivots are taken left to right among the first `width` columns (all of
    them by default), each in the first row at or below the current rank
    with a nonzero entry.  A row swap also negates the row moved down, so
    the determinant of every leading block is kept and the last pivot p is
    det A for a nonsingular square A.  Every pivot row ends with p in its
    pivot column and 0 in the other pivot columns; a nonsingular left block
    A of [A | B] ends as [p*I | p*A^-1*B].  Each division is exact (Bareiss),
    so all entries stay integers: minors of the input.
    """
    work = [[index(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols if width is None else width):
        rank = len(pivots)
        if rank == len(work):
            break
        pr = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pr is None:
            continue
        if pr != rank:
            work[rank], work[pr] = work[pr], [-x for x in work[rank]]
        prow = work[rank]
        pv = prow[col]
        for r, row in enumerate(work):
            if r != rank:
                f = row[col]
                work[r] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
        pivots.append(col)
        prev = pv
    return work, pivots


def solve_scaled(
    matrix: Sequence[Sequence[int]], rhs_cols: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]] | None:
    """Solve matrix @ x = b for each column b of `rhs_cols` without fractions.

    Returns (p, X) with p a nonzero integer and X[j] the integer vector p*x_j,
    where x_j solves matrix @ x_j = rhs_cols[j].  For a square matrix, p is
    its determinant.  None when the columns of `matrix` are linearly
    dependent (the solution would not be unique) or some right-hand side is
    outside their span.
    """
    k = len(matrix[0])
    aug = [list(row) + [b[i] for b in rhs_cols] for i, row in enumerate(matrix)]
    work, pivots = eliminate(aug, width=k)
    if len(pivots) < k or any(any(row[k:]) for row in work[k:]):
        return None
    p = work[k - 1][k - 1]
    return p, [[work[i][k + j] for i in range(k)] for j in range(len(rhs_cols))]
