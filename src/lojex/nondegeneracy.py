"""Kouchnirenko non-degeneracy: does some compact face polynomial have a
critical point on the real torus (R \\ 0)^n?

Verdicts come in four flavors.  Exact decisions come in three routes,
tried in this order.  Faces that are sign-definite with even exponents are
nonzero on the torus, so the weighted Euler identity forces a nonzero
partial.  The exponent-kernel route: x_i d_i f_gamma = sum alpha_i c_alpha
x^alpha, so a torus critical point gives a kernel vector (c_alpha
x^alpha)_alpha of the exponent matrix with no zero entry; when some term's
entry is 0 on the whole kernel (vertex faces, affinely independent
supports, a single-monomial partial) there is none, even over C.  Faces
supported on two variables reduce to a univariate gcd plus Sturm root
counting after normalizing the second variable to +-1, legitimate because
the critical set of a quasi-homogeneous polynomial is invariant under the
positive weighted scaling.  Everything else is decided numerically by
multistart minimization of ||grad f_gamma||^2 over the slice max|x_i| = 1
of every sign orthant, and labeled 'nondegenerate-numeric': not a
certificate.

The multistart compiles the face polynomial once into a monomial basis for
its gradient and Hessian and runs projected Levenberg-Marquardt on every
start of every orthant together, in numpy blocks.  A point counts as a
torus witness when its residual is at most the tolerance and every
coordinate is at least TORUS_FLOOR in absolute value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .linalg import eliminate
from .polyhedron import FaceData, NewtonPolyhedron, compact_faces
from .taylor import (
    Exponent,
    PolyDict,
    TaylorModel,
    poly_diff,
    poly_eval_float,
    support,
)
from .univariate import UPoly, count_real_roots, isolate_real_root, strip_root_at_zero, ugcd, utrim

DEFAULT_TOL = 1e-10
DEFAULT_STARTS = 64
TORUS_FLOOR = 1e-3  # numeric minimizers closer than this to a coordinate plane
                    # are not accepted as torus witnesses


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DegeneracyVerdict:
    status: str  # nondegenerate-exact | nondegenerate-numeric | degenerate | inconclusive
    witness: tuple[float, ...] | None
    residual: float
    detail: str = ""


def face_polynomial(model: TaylorModel, face: FaceData) -> FacePolynomial:
    """Restriction of the polynomial part to the exponents on a compact face."""
    if not face.compact:
        raise InputError(
            "face polynomial of a non-compact face is not determined by the "
            "polynomial part"
        )
    terms = tuple(
        (t.exp, t.coeff)
        for t in sorted(model.terms, key=lambda t: t.exp)
        if t.exp in face.lattice_points
    )
    unknown = any(
        r.is_unit and r.exp in face.lattice_points for r in model.remainders
    )
    return FacePolynomial(face, model.n, terms, underdetermined=unknown)


# ---------------------------------------------------------------------------
# exact routes

def _sign_definite_even(fp: FacePolynomial) -> bool:
    """All exponents even and all coefficients of one sign."""
    if not all(all(e % 2 == 0 for e in exp) for exp, _ in fp.terms):
        return False
    signs = {c > 0 for _, c in fp.terms}
    return len(signs) == 1


def _kernel_pins_a_term(fp: FacePolynomial) -> bool:
    """Is some term's entry 0 on every kernel vector of the exponent matrix?

    x_i d_i f_gamma = sum_alpha alpha_i c_alpha x^alpha, so at a critical
    point on the complex torus u = (c_alpha x^alpha)_alpha is a kernel vector
    of the n x m matrix A whose columns are the exponents, with no zero
    entry.  In the reduced form of A, a pivot row that is 0 on every free
    column pins its term's entry of u to 0; with ker A = 0 every row does.
    """
    rows, pivots = eliminate([[exp[i] for exp, _ in fp.terms] for i in range(fp.n)])
    free = [j for j in range(len(fp.terms)) if j not in pivots]
    return any(not any(row[j] for j in free) for row in rows[: len(pivots)])


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
        if len(g) == 0:
            continue
        if len(g) > 1 and count_real_roots(g) > 0:
            root = isolate_real_root(g)
            assert root is not None
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


def _residual(poly: PolyDict, n: int, point) -> float:
    return math.fsum(
        poly_eval_float(poly_diff(poly, i), point) ** 2 for i in range(n)
    )


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


@dataclass(frozen=True)
class _CompiledFace:
    """Gradient and Hessian of a face polynomial over its k active
    variables, on one monomial basis: [g | H] = monomials(x) @ coeffs."""

    exps: np.ndarray    # (m, k) distinct exponents of every first and second partial
    coeffs: np.ndarray  # (m, k + k*k)

    @classmethod
    def build(cls, poly: PolyDict, active: tuple[int, ...]) -> "_CompiledFace":
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
        return DegeneracyVerdict(
            "degenerate", best_torus_x, best_torus_val,
            detail=f"multistart minimizer with residual {best_torus_val:.3g}",
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

def check_face(
    fp: FacePolynomial,
    tol: float = DEFAULT_TOL,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> DegeneracyVerdict:
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    if starts < 1:
        raise InputError(f"starts must be >= 1, got {starts}")
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
        # f_gamma is nonzero on the torus, so the weighted Euler identity
        # sum a_i x_i d_i f_gamma = l * f_gamma forces a nonzero partial
        return DegeneracyVerdict(
            "nondegenerate-exact", None, math.inf,
            detail="sign-definite even face: no torus zero by the Euler identity",
        )
    if _kernel_pins_a_term(fp):
        return DegeneracyVerdict(
            "nondegenerate-exact", None, math.inf,
            detail="exponent kernel: a term's entry is 0 on every kernel vector",
        )
    active = fp.active_vars()
    if len(active) == 2:
        return _check_two_variable(fp, active[0], active[1])
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
    Keys are the sorted lattice-point tuples of the faces.
    """
    faces = compact_faces(poly, support(model))
    verdicts: dict[tuple[Exponent, ...], DegeneracyVerdict] = {}
    for k, face in enumerate(faces):
        fp = face_polynomial(model, face)
        verdicts[tuple(sorted(face.lattice_points))] = check_face(
            fp, tol=tol, starts=starts, seed=seed + k
        )
    ok = all(
        v.status in ("nondegenerate-exact", "nondegenerate-numeric")
        for v in verdicts.values()
    )
    return verdicts, ok
