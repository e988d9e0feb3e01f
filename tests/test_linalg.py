import random
from fractions import Fraction

import pytest
import sympy

from lojex.fan import cone_det
from lojex.linalg import eliminate, solve_scaled

from .oracles import mat_rank


def _random_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Entries in [-5, 5]; two times in five a product of rank at most min(m, n)."""
    if rng.random() < 0.4:
        r = rng.randint(0, min(m, n))
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
                for i in range(m)]
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]


def test_eliminate_matches_sympy_rref():
    rng = random.Random(5)
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_matrix(rng, m, n)
        work, pivots = eliminate(rows)
        rref, sympy_pivots = sympy.Matrix(rows).rref()
        assert pivots == list(sympy_pivots), rows
        assert mat_rank(rows) == len(pivots) == sympy.Matrix(rows).rank()
        if not pivots:
            assert not any(any(row) for row in work)
            continue
        p = work[len(pivots) - 1][pivots[-1]]
        # every entry is the reduced row echelon form times the last pivot
        assert sympy.Matrix(work) == p * rref, rows


def test_cone_det_matches_sympy():
    rng = random.Random(6)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = _random_matrix(rng, n, n)
        det = cone_det(rows)
        assert isinstance(det, int)
        assert det == sympy.Matrix(rows).det(), rows
        singular += det == 0
    assert singular > 20, "too few singular matrices; weak test data"


def test_solve_scaled_matches_sympy():
    rng = random.Random(7)
    seen = {"solved": 0, "dependent": 0, "inconsistent": 0}
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        rows = _random_matrix(rng, m, n)
        a = sympy.Matrix(rows)
        if rng.random() < 0.5:  # right-hand sides in the column span
            xs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            rhs = [list(a * sympy.Matrix(x)) for x in xs]
        else:
            rhs = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        consistent = all(a.row_join(sympy.Matrix(b)).rank() == a.rank() for b in rhs)
        result = solve_scaled(rows, rhs)
        if a.rank() < n:
            assert result is None, rows
            seen["dependent"] += 1
        elif not consistent:
            assert result is None, (rows, rhs)
            seen["inconsistent"] += 1
        else:
            assert result is not None, (rows, rhs)
            p, cols = result
            assert p != 0 and len(cols) == len(rhs)
            for x, b in zip(cols, rhs):
                assert a * sympy.Matrix(x) == p * sympy.Matrix(b), (rows, b)
            if m == n:
                assert p == a.det()
            seen["solved"] += 1
    assert min(seen.values()) > 20, seen


def test_fraction_entries_are_rejected():
    with pytest.raises(TypeError):
        eliminate([[1, 0], [0, Fraction(1, 2)]])
    with pytest.raises(TypeError):
        mat_rank([[Fraction(2)]])
    with pytest.raises(TypeError):
        solve_scaled([[1, 0], [0, 1]], [[Fraction(1, 2), 1]])
