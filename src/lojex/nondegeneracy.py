"""Kouchnirenko non-degeneracy: does some compact face polynomial have a
critical point on the real torus (R \\ 0)^n?

Verdicts come in four flavors.  Exact decisions come in four routes,
tried in this order.  Faces that are sign-definite with even exponents are
nonzero on the torus, so the weighted Euler identity forces a nonzero
partial.  The exponent-kernel route: x_i d_i f_gamma = sum alpha_i c_alpha
x^alpha, so a torus critical point gives a kernel vector (c_alpha
x^alpha)_alpha of the exponent matrix A with no zero entry; when some term's
entry is 0 on the whole kernel (vertex faces, affinely independent
supports, a single-monomial partial) there is none, even over C.  The test
reads the echelon rows of one elimination of A (`_exponent_kernel`); a
kernel basis is built only when dim ker A <= 2, for the pencil route.  Faces
supported on two variables reduce to a univariate gcd plus Sturm root
counting after normalizing the second variable to +-1, legitimate because
the critical set of a quasi-homogeneous polynomial is invariant under the
positive weighted scaling.  The pencil route takes the faces with three or
more active variables whose kernel is spanned by one or two vectors: up to
scale the kernel vectors are u(s) = b1 + s b2 (the Horn-Kapranov
parametrisation, Kapranov 1991; Gelfand, Kapranov and Zelevinsky 1994,
ch. 9), constant in s when the kernel is one line and the support is a
circuit.  On each interval of the s-line where the signs of u are
constant, a torus critical point exists iff a GF(2) system for the signs
is solvable and the product identities prod |u_alpha / c_alpha|^{b_alpha}
= 1, one per basis vector b, have a common root inside it, found by a gcd
and Sturm root isolation; one is then written down from the least-norm
solution of A^T log|x| = log|u / c|, computed exactly from the float logs
and rounded once.  The route reuses the one elimination of the kernel
route.  The order is: sign-definite even -> exponent kernel
-> two variables -> pencil (dim ker A = 1, or dim ker A = 2 with
identities of degree at most PENCIL_MAX_DEGREE) -> multistart.  That last
route minimizes ||grad f_gamma||^2 over the slice max|x_i| = 1 of every
sign orthant and labels the face 'nondegenerate-numeric': not a
certificate.

A face is sign-definite even exactly when its terms share one nonzero sign
class (`_sign_class`: the coefficient's sign for a term with all exponents
even, 0 otherwise).  `check_model` gives each term of the germ its class
once, and class 0 to each unit remainder's exponent, so it decides those
faces without building their face polynomials; only the other faces reach
`check_face`.

The multistart compiles the face polynomial once into a monomial basis for
its gradient and Hessian and runs projected Levenberg-Marquardt on every
start of every orthant together, in numpy blocks.  A point counts as a
torus witness when its residual is at most the tolerance, every
coordinate is at least TORUS_FLOOR in absolute value, and its
torus-invariant relative residual (`_relative_residual`) is at most
RELATIVE_TOL.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InputError
from .linalg import dot, eliminate, primitive, solve_scaled
from .polyhedron import FaceData, NewtonPolyhedron, compact_faces
from .record import record
from .taylor import (
    Exponent,
    PolyDict,
    TaylorModel,
    poly_diff,
    poly_eval_float,
)
from .univariate import (
    UPoly,
    isolate_root_between,
    strip_root_at_zero,
    ueval,
    ugcd,
    umul,
    upow,
    utrim,
)

# numpy is imported by the multistart alone, so a model whose faces the exact
# routes decide never loads it
if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_STARTS = 64
TORUS_FLOOR = 1e-3  # numeric minimizers closer than this to a coordinate plane
                    # are not accepted as torus witnesses
PENCIL_MAX_DEGREE = 32  # faces whose pencil identities have a larger degree in s
                        # stay on the multistart: the exact gcd of degree 36-48
                        # identities took up to 2 s, of degree 60-160 over 5 s
RELATIVE_TOL = 1e-6  # a multistart minimizer whose torus-invariant relative
                     # residual is larger is no torus witness


@record
class FacePolynomial:
    face: FaceData
    n: int
    terms: tuple[tuple[Exponent, Fraction], ...]
    # a unit remainder exponent on the face contributes an unknown
    # coefficient, so the face polynomial is not pinned by the input
    underdetermined: bool = False

    def poly(self) -> PolyDict:
        return dict(self.terms)

    def active_vars(self) -> tuple[int, ...]:
        used = set()
        for exp, _ in self.terms:
            used.update(i for i, e in enumerate(exp) if e)
        return tuple(sorted(used))


@record
class DegeneracyVerdict:
    status: str  # nondegenerate-exact | nondegenerate-numeric | degenerate | inconclusive
    witness: tuple[float, ...] | None
    residual: float
    detail: str = ""


# ---------------------------------------------------------------------------
# exact routes

def _sign_class(exp: Exponent, coeff: Fraction) -> int:
    """+1 or -1, the coefficient's sign, for a term whose exponents are all
    even; 0 for any other term."""
    # an exponent is even iff the gcd of its entries is, and a Fraction's
    # sign is its numerator's
    if math.gcd(*exp) % 2:
        return 0
    return 1 if coeff.numerator > 0 else -1


def _one_definite_class(classes: set[int]) -> bool:
    """Do the terms' sign classes agree on one nonzero class?"""
    return len(classes) == 1 and 0 not in classes


def _sign_definite_even(fp: FacePolynomial) -> bool:
    """All coefficients of one sign and all exponents even."""
    return _one_definite_class({_sign_class(exp, c) for exp, c in fp.terms})


def _exponent_kernel(fp: FacePolynomial) -> tuple[bool, list[tuple[int, ...]]]:
    """(pinned, basis): is some term's entry 0 on all of ker A, and a
    primitive integer basis of ker A when no term is pinned and at most two
    columns are free (the pencil route's faces), else [].

    A is the n x m matrix whose columns are the face's exponents.
    x_i d_i f_gamma = sum_alpha alpha_i c_alpha x^alpha, so at a critical
    point on the complex torus u = (c_alpha x^alpha)_alpha is a kernel
    vector of A with no zero entry, which a pinned term rules out.  A's one
    elimination leaves every pivot row with the same pivot p, so free column
    f spans the kernel vector with p at f and -row[f] at each pivot row's
    column, signed so its entry at f is positive.  Hence a free column is
    never pinned, a pivot column is pinned iff its row is 0 on every free
    column, and with no free column (ker A = 0) every term is.
    """
    rows, pivots = eliminate([[exp[i] for exp, _ in fp.terms] for i in range(fp.n)])
    free = sorted(set(range(len(fp.terms))).difference(pivots))
    pinned = not free or not all(any(row[f] for f in free) for row in rows[: len(pivots)])
    if pinned or len(free) > 2:
        return pinned, []
    p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in free:
        v = [0] * len(fp.terms)
        v[f] = p
        for row, col in zip(rows, pivots):
            v[col] = -row[f]
        basis.append(primitive(x if p > 0 else -x for x in v))
    return False, basis


def _univariate_in(poly: PolyDict, var: int, values: dict[int, int]) -> UPoly:
    """Substitute +-1 for every variable except `var`; coefficients collected."""
    coeffs: dict[int, Fraction] = {}
    for exp, c in poly.items():
        sign = 1
        for i, e in enumerate(exp):
            if i != var and e:
                sign *= values[i] ** e
        coeffs[exp[var]] = coeffs.get(exp[var], Fraction(0)) + c * sign
    out = [Fraction(0)] * (max(coeffs, default=0) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return utrim(out)


def _check_two_variable(fp: FacePolynomial, vi: int, vj: int) -> DegeneracyVerdict:
    """Exact decision for a face polynomial using only variables vi, vj.

    Normalize |x_vj| = 1 by the quasi-homogeneous scaling; a torus critical
    point exists iff for some sign choice the two partials share a nonzero
    real root, decided by Sturm counting on their gcd.
    """
    poly = fp.poly()
    pi = poly_diff(poly, vi)
    pj = poly_diff(poly, vj)
    for sign in (1, -1):
        values = {vj: sign}
        gi = _univariate_in(pi, vi, values)
        gj = _univariate_in(pj, vi, values)
        if not gi and not gj:
            continue  # both partials vanish identically on this slice
        if not gi or not gj:
            g = strip_root_at_zero(gi or gj)
        else:
            g = strip_root_at_zero(ugcd(gi, gj))
        root = isolate_root_between(g)
        if root is not None:
            witness = [1.0] * fp.n
            witness[vi] = float(root)
            witness[vj] = float(sign)
            res = _residual(poly, fp.n, witness)
            return DegeneracyVerdict(
                "degenerate", tuple(witness), res,
                detail=f"common root of both partials at x{vi + 1} ~ {float(root):.6g}, "
                f"x{vj + 1} = {sign}",
            )
    return DegeneracyVerdict(
        "nondegenerate-exact", None, math.inf,
        detail="univariate reduction: partials share no nonzero real root",
    )


def _gf2_solve(equations: list[tuple[int, int]]) -> int | None:
    """A solution bitmask of a GF(2) system, or None if it has none.

    Each equation is (mask, bit): the XOR of the unknowns in the mask is
    bit.  Gauss-Jordan on bitmasks: every kept row owns its highest unknown
    and no other row contains it; free unknowns are set to 0.
    """
    pivots: list[tuple[int, int, int]] = []  # (unknown, mask, bit)
    for mask, bit in equations:
        for col, pmask, pbit in pivots:
            if mask >> col & 1:
                mask, bit = mask ^ pmask, bit ^ pbit
        if not mask:
            if bit:
                return None
            continue
        col = mask.bit_length() - 1
        pivots = [
            (c, m ^ mask, b ^ bit) if m >> col & 1 else (c, m, b) for c, m, b in pivots
        ]
        pivots.append((col, mask, bit))
    return sum(bit << col for col, _, bit in pivots)


def _sign_system(fp: FacePolynomial, negative: list[bool]) -> int | None:
    """Signs of a torus point with x^alpha = t r_alpha, given which r_alpha
    are negative: with x_j = (-1)^{e_j} |x_j| and t = (-1)^s |t|, the GF(2)
    system sum_j alpha_j e_j + s = [r_alpha < 0].  Unknown a < k is the sign
    of the a-th active variable, unknown k that of t; None if unsolvable."""
    active = fp.active_vars()
    return _gf2_solve([
        (sum((exp[j] & 1) << a for a, j in enumerate(active)) | 1 << len(active), int(neg))
        for (exp, _), neg in zip(fp.terms, negative)
    ])


def _torus_point(fp: FacePolynomial, ratios: list[Fraction], signs: int, detail: str) -> DegeneracyVerdict:
    """The degenerate verdict at the torus point x^alpha = t r_alpha: |t| = 1,
    y = log|x| the least-norm solution of A^T y = log|r|, moved along the face
    weight w to max |x_j| = 1, with the signs of `_sign_system`.

    The float logs satisfy the identities only up to rounding, so y is the
    least-norm least-squares solution (Penrose 1955): y = R^T z with
    (M^T M) z = M^T log|r| and M = A^T R^T, where R holds the rows of A^T
    at the pivot columns of A's elimination, a basis of its row space.  The
    logs are taken as the exact Fractions their floats are and the integer
    Gram system M^T M is solved by the fraction-free elimination of
    `linalg` (Bareiss), so y and its shift are exact and each coordinate is
    rounded once: the witness does not depend on a LAPACK build.
    """
    active = fp.active_vars()
    a_t = [[exp[j] for j in active] for exp, _ in fp.terms]
    log_r = [Fraction(math.log(abs(r.numerator)) - math.log(r.denominator)) for r in ratios]
    scale = math.lcm(*(b.denominator for b in log_r))
    b = [int(x * scale) for x in log_r]
    rows = [a_t[i] for i in eliminate(list(zip(*a_t)))[1]]
    m_t = [[dot(r, row) for row in a_t] for r in rows]
    p, (z,) = solve_scaled([[dot(u, v) for v in m_t] for u in m_t], [[dot(u, b) for u in m_t]])
    y = [Fraction(dot(col, z), p * scale) for col in zip(*rows)]
    w = [fp.face.defining_normal[j] for j in active]
    shift = min(-yc / wc for yc, wc in zip(y, w))
    witness = [1.0] * fp.n
    for a, j in enumerate(active):
        witness[j] = (-1.0 if signs >> a & 1 else 1.0) * math.exp(float(y[a] + w[a] * shift))
    return DegeneracyVerdict("degenerate", tuple(witness), _residual(fp.poly(), fp.n, witness), detail)


def _check_pencil(fp: FacePolynomial, kernel: list[tuple[int, ...]]) -> DegeneracyVerdict:
    """Exact decision for a face whose exponent kernel is spanned by b1, or
    by b1 and b2.

    A torus point is critical iff c_alpha x^alpha = t u_alpha for some real
    t != 0 and some kernel vector u with no zero entry.  With r = u / c,
    A^T log|x| = log|t| + log|r| is solvable iff <b, log|r|> = 0 for each
    basis vector b (the row space of A holds the all-ones vector, since the
    face's points lie on w.alpha = d > 0): the identity prod
    |r_alpha|^{b_alpha} = 1.  In sign it is the GF(2) system of
    `_sign_system`; the two parts are independent.

    Up to scale the kernel vectors are u(s) = b1 + s b2 and b2, which is 0
    at the free column of b1 (`_exponent_kernel`) and so never a torus
    vector: the Horn-Kapranov parametrisation (Kapranov 1991; Gelfand,
    Kapranov and Zelevinsky 1994, ch. 9).  With one basis vector the
    support is a circuit and the lines u_alpha are constants.  The roots of
    the u_alpha(s) cut the s-line into open intervals of constant signs
    sigma.  On each, |u_alpha| = sigma_alpha u_alpha turns the identity for
    b into the polynomial C_- L(s) - eps C_+ R(s), where L and R are the
    products of u_alpha^{|b_alpha|} over b_alpha > 0 and b_alpha < 0, C_+
    and C_- those of |c_alpha|^{|b_alpha|}, and eps the product of
    sigma_alpha over the odd b_alpha.  An interval holds a critical point
    iff its signs are solvable and the gcd of its identities has a root
    strictly inside it (every point does, if every identity vanishes).
    """
    lines = [utrim([Fraction(x) for x in column]) for column in zip(*kernel)]
    sides = []  # per basis vector: C_- L and C_+ R
    for b in kernel:
        pair = [[Fraction(1)], [Fraction(1)]]
        for line, (_, c), e in zip(lines, fp.terms, b):
            pair[e < 0] = umul(pair[e < 0], upow(line, abs(e)))
            pair[e > 0] = [v * abs(c) ** abs(e) for v in pair[e > 0]]
        sides.append(pair)
    gcds: dict[tuple[bool, ...], UPoly] = {}
    cuts = sorted({-line[0] / line[1] for line in lines if len(line) == 2})
    ends = [None, *cuts, None]
    solvable = False
    for lo, hi in zip(ends, ends[1:]):
        inner = (
            Fraction(0) if not cuts
            else hi - 1 if lo is None else lo + 1 if hi is None else (lo + hi) / 2
        )
        negative = [ueval(line, inner) < 0 for line in lines]
        signs = _sign_system(fp, [n != (c < 0) for n, (_, c) in zip(negative, fp.terms)])
        if signs is None:
            continue
        solvable = True
        # eps = -1 for b iff an odd number of its odd entries sit on negative u_alpha
        key = tuple(sum(n for n, e in zip(negative, b) if e % 2) % 2 == 1 for b in kernel)
        if key not in gcds:
            gcds[key] = functools.reduce(ugcd, (
                utrim([x + y if flip else x - y for x, y in itertools.zip_longest(
                    left, right, fillvalue=Fraction(0))])
                for (left, right), flip in zip(sides, key)
            ), [])
        s = isolate_root_between(gcds[key], lo, hi) if gcds[key] else inner
        if s is not None:
            at = f", s ~ {float(s):.6g}" if len(kernel) == 2 else ""
            return _torus_point(
                fp, [ueval(line, s) / c for line, (_, c) in zip(lines, fp.terms)], signs,
                f"kernel pencil: torus critical point from the kernel vector "
                f"{' + s*'.join(map(str, kernel))}{at}",
            )
    return DegeneracyVerdict(
        "nondegenerate-exact", None, math.inf,
        detail="kernel pencil: " + (
            "the product identities have no common root where the sign system is solvable"
            if solvable else "no kernel vector without a zero entry has a solvable sign system"
        ),
    )


def _pencil_degree(b1: tuple[int, ...], b2: tuple[int, ...]) -> int:
    """The largest degree in s of L(s) and R(s) in `_check_pencil`'s identities."""
    return max(
        sum(abs(e) for e, y in zip(b, b2) if y and (e > 0) == positive)
        for b in (b1, b2) for positive in (True, False)
    )


def _residual(poly: PolyDict, n: int, point) -> float:
    return math.fsum(
        poly_eval_float(poly_diff(poly, i), point) ** 2 for i in range(n)
    )


def _relative_residual(fp: FacePolynomial, point) -> Fraction:
    """max over the active i of |x_i d_i f(x)| / sum_alpha |c_alpha alpha_i
    x^alpha| at the float point, in Fraction arithmetic; invariant under the
    face's torus action and 0 exactly at a critical point."""
    x = [Fraction(v) for v in point]
    worst = Fraction(0)
    for i in fp.active_vars():
        terms = [c * e[i] * math.prod(xj**ej for xj, ej in zip(x, e)) for e, c in fp.terms if e[i]]
        worst = max(worst, abs(sum(terms)) / sum(abs(t) for t in terms))
    return worst


# ---------------------------------------------------------------------------
# numeric route

_BLOCK_ROWS = 2048   # starts solved together; bounds the working arrays
_MAX_ITER = 200
_LAMBDA_START, _LAMBDA_MIN, _LAMBDA_MAX = 1e-3, 1e-12, 1e12
_STALL_RTOL = 1e-12  # an accepted step gaining less than this share of the value stalls
_POLISH_ROWS = 8     # best rows whose value is recomputed by _residual
_SETTLED = 1e-3      # a row whose value is this share of tol has settled its verdict


def _normalized_float_poly(fp: FacePolynomial) -> PolyDict:
    scale = max(abs(c) for _, c in fp.terms)
    return {exp: c / scale for exp, c in fp.terms}


@record
class _CompiledFace:
    """Gradient and Hessian of a face polynomial over its k active
    variables, on one monomial basis: [g | H] = monomials(x) @ coeffs."""

    exps: np.ndarray    # (m, k) distinct exponents of every first and second partial
    coeffs: np.ndarray  # (m, k + k*k)

    @classmethod
    def build(cls, poly: PolyDict, active: tuple[int, ...]) -> "_CompiledFace":
        import numpy as np

        partials = [poly_diff(poly, i) for i in active]
        columns = partials + [poly_diff(p, j) for p in partials for j in active]
        basis = sorted({tuple(e[i] for i in active) for col in columns for e in col})
        row = {e: r for r, e in enumerate(basis)}
        coeffs = np.zeros((len(basis), len(columns)))
        for c, col in enumerate(columns):
            for e, value in col.items():
                coeffs[row[tuple(e[i] for i in active)], c] = float(value)
        return cls(np.array(basis, dtype=np.int64).reshape(len(basis), len(active)), coeffs)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g (B, k) and H (B, k, k) at the rows of x (B, k)."""
        import numpy as np

        b, k = x.shape
        mono = np.ones((b, len(self.exps)))
        for j in range(k):
            col = self.exps[:, j]
            top = int(col.max(initial=0))
            if top:
                mono *= (x[:, j : j + 1] ** np.arange(top + 1))[:, col]
        out = mono @ self.coeffs
        return out[:, :k], out[:, k:].reshape(b, k, k)


def _levenberg_marquardt(
    face: _CompiledFace, signs: np.ndarray, pinned: np.ndarray, z: np.ndarray, f_stop: float
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||grad f(signs * z)||^2 over z in [0, 1]^k for every row at once.

    Projected Levenberg-Marquardt: coordinates that are pinned (the slice
    pivot) or held at a bound by the gradient stay fixed, the others take
    the damped Gauss-Newton step, clipped to the box.  Each row has its own
    damping, kept in [_LAMBDA_MIN, _LAMBDA_MAX] so the system stays
    positive definite.  A row stops once its value is at most f_stop, an
    accepted step gains next to nothing, or no damping gives a descent.
    Returns the final rows and their values.
    """
    import numpy as np

    z = z.copy()
    k = z.shape[1]
    diag = np.arange(k)
    g, hess = face.evaluate(signs * z)
    f = np.einsum("ba,ba->b", g, g)
    lam = np.full(len(z), _LAMBDA_START)
    live = np.flatnonzero(f > f_stop)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        s, zl, gl, laml = signs[live], z[live], g[live], lam[live]
        jac = hess[live] * s[:, None, :]  # d g_a / d z_p
        grad = np.einsum("bap,ba->bp", jac, gl)
        fixed = pinned[live] | ((zl <= 0.0) & (grad > 0.0)) | ((zl >= 1.0) & (grad < 0.0))
        free = ~fixed
        a = np.einsum("bap,baq->bpq", jac, jac)
        a[:, diag, diag] += laml[:, None] * (1.0 + a[:, diag, diag])
        a *= free[:, :, None] & free[:, None, :]
        a[:, diag, diag] += fixed
        step = np.linalg.solve(a, np.where(fixed, 0.0, -grad)[..., None])[..., 0]
        trial = np.clip(zl + step, 0.0, 1.0)
        gt, ht = face.evaluate(s * trial)
        ft = np.einsum("ba,ba->b", gt, gt)
        fl = f[live]
        better = ft < fl
        up = live[better]
        z[up], g[up], hess[up], f[up] = trial[better], gt[better], ht[better], ft[better]
        lam[live] = np.where(
            better, np.maximum(laml / 10.0, _LAMBDA_MIN), np.minimum(laml * 10.0, _LAMBDA_MAX)
        )
        done = np.where(
            better,
            (ft <= f_stop) | (fl - ft <= _STALL_RTOL * fl),
            (laml >= _LAMBDA_MAX) | np.all(trial == zl, axis=1),
        )
        live = live[~done]
    return z, f


def _multistart(fp: FacePolynomial, tol: float, starts: int, seed: int) -> DegeneracyVerdict:
    import numpy as np

    active = fp.active_vars()
    k = len(active)
    poly = _normalized_float_poly(fp)
    face = _CompiledFace.build(poly, active)

    # row r starts in sign orthant r // starts with pivot (r % starts) % k
    # held at 1 and the other coordinates drawn from [0.05, 1]
    rows = 2**k * starts
    rng = np.random.default_rng(seed)
    drawn = rng.uniform(0.05, 1.0, size=(rows, k - 1))
    signs = np.repeat(np.array(list(itertools.product((1.0, -1.0), repeat=k))), starts, axis=0)
    pivot = (np.arange(rows) % starts) % k
    pinned = np.arange(k) == pivot[:, None]
    z0 = np.ones((rows, k))
    z0[~pinned] = drawn.ravel()

    z = np.empty_like(z0)
    f = np.empty(rows)
    for lo in range(0, rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, rows)
        z[lo:hi], f[lo:hi] = _levenberg_marquardt(
            face, signs[lo:hi], pinned[lo:hi], z0[lo:hi], tol * _SETTLED
        )

    x = np.ones((rows, fp.n))
    x[:, list(active)] = signs * z
    torus = np.flatnonzero(np.min(np.abs(x), axis=1) >= TORUS_FLOOR)

    def best(candidates: np.ndarray) -> tuple[float, tuple[float, ...] | None]:
        """The least _residual among the candidates with the least batch values."""
        top = candidates[np.argsort(f[candidates], kind="stable")[:_POLISH_ROWS]]
        points = [tuple(float(v) for v in x[r]) for r in top]
        vals = [_residual(poly, fp.n, p) for p in points]
        if not vals:
            return math.inf, None
        i = int(np.argmin(vals))
        return vals[i], points[i]

    best_val, best_x = best(np.arange(rows))
    best_torus_val, best_torus_x = best(torus)
    if best_torus_x is not None and best_torus_val <= tol:
        relative = _relative_residual(fp, best_torus_x)
        if relative <= RELATIVE_TOL:
            return DegeneracyVerdict(
                "degenerate", best_torus_x, best_torus_val,
                detail=f"multistart minimizer with residual {best_torus_val:.3g}",
            )
        return DegeneracyVerdict(
            "inconclusive", best_torus_x, best_torus_val,
            detail=f"residual {best_torus_val:.3g} below tolerance, but the torus-invariant "
            f"relative residual is {float(relative):.3g}; not a torus witness",
        )
    if best_val <= tol:
        return DegeneracyVerdict(
            "inconclusive", best_x, best_val,
            detail="residual below tolerance only near a coordinate hyperplane; "
            "not a torus witness",
        )
    return DegeneracyVerdict(
        "nondegenerate-numeric", None, best_val,
        detail=f"multistart minimum of ||grad||^2 on the slice: {best_val:.3g}",
    )


# ---------------------------------------------------------------------------
# public entry points

# f_gamma is nonzero on the torus, so the weighted Euler identity
# sum a_i x_i d_i f_gamma = l * f_gamma forces a nonzero partial; verdicts
# are frozen, so every sign-definite face shares this one
_SIGN_DEFINITE = DegeneracyVerdict(
    "nondegenerate-exact", None, math.inf,
    detail="sign-definite even face: no torus zero by the Euler identity",
)


def _check_options(tol: float, starts: int) -> None:
    """Reject a tolerance that is not positive and finite, or no starts."""
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    if starts < 1:
        raise InputError(f"starts must be >= 1, got {starts}")


def check_face(
    fp: FacePolynomial,
    tol: float = DEFAULT_TOL,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> DegeneracyVerdict:
    _check_options(tol, starts)
    if fp.underdetermined:
        return DegeneracyVerdict(
            "inconclusive", None, math.inf,
            detail="a unit remainder contributes an unknown coefficient on this face",
        )
    if not fp.terms:
        return DegeneracyVerdict(
            "inconclusive", None, math.inf,
            detail="face carries no polynomial terms (unit-remainder support only)",
        )
    if _sign_definite_even(fp):
        return _SIGN_DEFINITE
    pinned, kernel = _exponent_kernel(fp)
    if pinned:
        return DegeneracyVerdict(
            "nondegenerate-exact", None, math.inf,
            detail="exponent kernel: a term's entry is 0 on every kernel vector",
        )
    active = fp.active_vars()
    if len(active) == 2:
        return _check_two_variable(fp, active[0], active[1])
    if len(kernel) == 1 or len(kernel) == 2 and _pencil_degree(*kernel) <= PENCIL_MAX_DEGREE:
        return _check_pencil(fp, kernel)
    return _multistart(fp, tol, starts, seed)


def check_model(
    model: TaylorModel,
    poly: NewtonPolyhedron,
    tol: float = DEFAULT_TOL,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> tuple[dict[tuple[Exponent, ...], DegeneracyVerdict], bool]:
    """Verdict for every compact face, plus the overall flag.

    Overall non-degenerate iff no face is degenerate and none inconclusive.
    Keys are the faces' sorted lattice points, in the ascending order of
    `compact_faces`.  The face polynomial of each compact face keeps the
    terms on it in exponent order, which is the order of its key, and is
    underdetermined when a unit remainder's exponent lies on it.

    Each term's sign class (`_sign_class`) is computed once per germ, and a
    unit remainder's exponent gets class 0.  A face whose terms all share
    one nonzero class is sign-definite even and gets `_SIGN_DEFINITE`
    without a face polynomial; every other face goes through `check_face`,
    with seed + k for the k-th compact face.
    """
    _check_options(tol, starts)
    faces = compact_faces(poly)
    coeffs = {t.exp: t.coeff for t in model.terms}
    units = {r.exp for r in model.remainders if r.is_unit}
    classes = {exp: _sign_class(exp, c) for exp, c in coeffs.items()}
    classes.update(dict.fromkeys(units, 0))
    verdicts: dict[tuple[Exponent, ...], DegeneracyVerdict] = {}
    for k, face in enumerate(faces):
        key = face.lattice_points
        shared = set(map(classes.get, key))
        shared.discard(None)  # a lattice point that is neither term nor unit
        if _one_definite_class(shared):
            verdicts[key] = _SIGN_DEFINITE
            continue
        fp = FacePolynomial(
            face, model.n, tuple((p, coeffs[p]) for p in key if p in coeffs),
            underdetermined=not units.isdisjoint(key),
        )
        verdicts[key] = check_face(fp, tol=tol, starts=starts, seed=seed + k)
    ok = all(
        v.status in ("nondegenerate-exact", "nondegenerate-numeric")
        for v in verdicts.values()
    )
    return verdicts, ok
