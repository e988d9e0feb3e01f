"""Floating-point audits of the inequalities near the origin.

Sampling happens on a fixed pool of max-norm unit directions (random pool
plus deterministic probes: coordinate axes, hat-vertex diagonals, and the
per-ranking tight sections for the distance audit), rescaled through a
geometric grid of radius levels.  Reusing one pool across levels makes the
per-level envelope minima directly comparable, so the pass/fail call is a
trend test, not an absolute-constant test: the inequalities only claim
"there exist c, eps", so the audit checks that the per-level minima of the
ratio LHS/RHS do not decay as the radius shrinks (Kendall tau on the level
minima).  The comparison audits additionally require the maxima not to
grow.  An exactly-zero envelope minimum is an outright violation.

Verdicts are heuristic evidence, not certificates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .exponents import TransversalFamily, ranking_i_rho
from .polyhedron import NewtonPolyhedron, g_gamma_eval_many
from .taylor import (
    Exponent,
    TaylorModel,
    poly_eval_many,
    poly_gradient_many,
)

TAU_FAIL = -0.8
DECAY_FACTOR = 0.8  # envelope must drop materially, not just drift in rank
ZERO_FLOOR = 1e-250
SLOPE_RADIUS_CAP = 1e-2
MIN_TREND_LEVELS = 4


def _default_radii(outer: float = 1e-1, inner: float = 1e-4, levels: int = 16) -> tuple[float, ...]:
    ratio = (inner / outer) ** (1.0 / (levels - 1))
    return tuple(outer * ratio**k for k in range(levels))


@dataclass(frozen=True)
class SamplePlan:
    radii: tuple[float, ...] = field(default_factory=_default_radii)
    directions_per_radius: int = 256
    seed: int = 0

    def __post_init__(self):
        r = tuple(float(x) for x in self.radii)
        if not r or any(x <= 0 for x in r) or any(a <= b for a, b in zip(r, r[1:])):
            raise InputError("radii must be strictly decreasing and positive")
        object.__setattr__(self, "radii", r)


@dataclass(frozen=True)
class AuditResult:
    inequality: str  # L0 | L1 | L2 | euler-comparison | f-vs-g
    exponent: float | None
    verdict: str  # pass | fail | indeterminate
    min_ratio: float
    max_ratio: float
    empirical_slope: float | None
    kendall_tau: float
    kendall_tau_upper: float
    radii: tuple[float, ...]
    level_minima: tuple[float, ...]
    level_maxima: tuple[float, ...]
    forced: bool = False
    note: str = ""


# ---------------------------------------------------------------------------
# direction pools

def _normalize_rows(dirs: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(dirs), axis=1)
    keep = scale > 1e-9
    return dirs[keep] / scale[keep, None]


def axis_probes(n: int) -> list[tuple[float, ...]]:
    out = []
    for i in range(n):
        for s in (1.0, -1.0):
            v = [0.0] * n
            v[i] = s
            out.append(tuple(v))
    return out


def diagonal_probe(vec: Sequence[int]) -> list[tuple[float, ...]]:
    base = [float(x) for x in vec]
    m = max(abs(x) for x in base)
    base = [x / m for x in base]
    return [tuple(base), tuple(-x for x in base)]


def ranking_probes(family: TransversalFamily, n: int) -> list[tuple[float, ...]]:
    """Tight section per ranking: the curve realizing the distance exponent.

    Variables of the zero-set index set with rank at least the realizing
    rank move together; everything else is pinned to the zero subspace.
    """
    probes = []
    for order in itertools.permutations(family.I_f):
        rank = {v: k for k, v in enumerate(order)}
        i_rho = ranking_i_rho(family.lambda_hitting, rank)
        floor = rank[i_rho]
        v = [0.0] * n
        for i in family.I_f:
            if rank[i] >= floor:
                v[i] = 1.0
        probes.append(tuple(v))
        probes.append(tuple(-x for x in v))
    return probes


def direction_pool(
    plan: SamplePlan, n: int, extra: Iterable[Sequence[float]] = ()
) -> np.ndarray:
    rng = np.random.default_rng(plan.seed)
    dirs = _normalize_rows(rng.uniform(-1.0, 1.0, size=(plan.directions_per_radius, n)))
    probe_rows = [list(p) for p in axis_probes(n)] + [list(p) for p in extra]
    if probe_rows:
        dirs = np.vstack([dirs, _normalize_rows(np.array(probe_rows, dtype=float))])
    return dirs


# ---------------------------------------------------------------------------
# envelope machinery

def _level_envelopes(
    ratios_per_level: list[np.ndarray],
) -> tuple[list[float], list[float]]:
    minima, maxima = [], []
    for arr in ratios_per_level:
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            minima.append(math.nan)
            maxima.append(math.nan)
        else:
            minima.append(float(arr.min()))
            maxima.append(float(arr.max()))
    return minima, maxima


def _tau(series: list[float]) -> float:
    pairs = [(i, m) for i, m in enumerate(series) if math.isfinite(m)]
    if len(pairs) < 2:
        return math.nan
    idx, vals = zip(*pairs)
    if len(set(vals)) == 1:
        return math.nan
    # imported here: scipy.stats (and the scipy.optimize it pulls in) costs
    # most of `import lojex`, and only the audits need it
    from scipy.stats import kendalltau

    return float(kendalltau(idx, vals).statistic)


def _one_sided_verdict(minima: list[float]) -> tuple[str, float]:
    """Trend call on the lower envelope.

    Failure needs agreement of a rank test (Kendall tau on the level minima)
    and a magnitude test (the envelope actually drops), so float noise on an
    exactly constant envelope cannot flip the call.  An exact zero is an
    outright violation.
    """
    valid = [m for m in minima if math.isfinite(m)]
    tau = _tau(minima)
    if len(valid) < MIN_TREND_LEVELS:
        return "indeterminate", tau
    if any(m <= ZERO_FLOOR for m in valid):
        return "fail", tau
    drop = valid[-1] / valid[0]
    if not math.isnan(tau) and tau <= TAU_FAIL and drop < DECAY_FACTOR:
        return "fail", tau
    return "pass", tau


def _two_sided_verdict(minima: list[float], maxima: list[float]) -> tuple[str, float, float]:
    verdict, tau_lo = _one_sided_verdict(minima)
    tau_hi = _tau(maxima)
    valid = [m for m in maxima if math.isfinite(m)]
    if (
        verdict == "pass"
        and len(valid) >= MIN_TREND_LEVELS
        and not math.isnan(tau_hi)
        and tau_hi >= -TAU_FAIL
        and valid[-1] / valid[0] > 1.0 / DECAY_FACTOR
    ):
        verdict = "fail"
    return verdict, tau_lo, tau_hi


def lower_envelope_slope(
    predictor: np.ndarray, response: np.ndarray, bins: int = 32,
    lower_fraction: float = 0.5,
) -> float | None:
    """Least-squares slope through per-bin minima of a log-log cloud.

    Only the lower part of the predictor range enters the fit: the
    inequalities constrain the envelope asymptotically, and for germs with
    unequal axis degrees the large-|f| bins belong to a different regime.
    """
    mask = np.isfinite(predictor) & np.isfinite(response)
    x, y = predictor[mask], response[mask]
    if x.size < 2 or x.max() == x.min():
        return None
    edges = np.linspace(x.min(), x.max(), bins + 1)
    centers, mins = [], []
    which = np.clip(np.digitize(x, edges) - 1, 0, bins - 1)
    for b in range(bins):
        sel = which == b
        if sel.any():
            centers.append(0.5 * (edges[b] + edges[b + 1]))
            mins.append(y[sel].min())
    if len(centers) < 2:
        return None
    # the envelope is nondecreasing in the predictor near the origin, so a
    # bin is bounded by every sample to its right; the suffix minimum removes
    # spikes in sparsely sampled bins
    for i in range(len(mins) - 2, -1, -1):
        mins[i] = min(mins[i], mins[i + 1])
    cutoff = x.min() + lower_fraction * (x.max() - x.min())
    lower = [(c, m) for c, m in zip(centers, mins) if c <= cutoff]
    if len(lower) >= 2:
        centers, mins = zip(*lower)
    coeffs = np.polyfit(np.array(centers), np.array(mins), 1)
    return float(coeffs[0])


# ---------------------------------------------------------------------------
# the audits

def _sample_levels(plan: SamplePlan, dirs: np.ndarray):
    for r in plan.radii:
        yield r, r * dirs


def dist_to_zero_set(point: Sequence[float], family: TransversalFamily) -> float:
    """Max-norm distance to the union of coordinate subspaces of the family."""
    if not family.lambda_hitting:
        return max(abs(x) for x in point)
    return min(max(abs(point[i]) for i in j) for j in family.lambda_hitting)


def _dist_many(pts: np.ndarray, family: TransversalFamily) -> np.ndarray:
    if not family.lambda_hitting:
        return np.max(np.abs(pts), axis=1)
    per = [np.max(np.abs(pts[:, sorted(j)]), axis=1) for j in family.lambda_hitting]
    return np.min(per, axis=0)


def audit_L1(
    model: TaylorModel,
    theta: Fraction | float,
    plan: SamplePlan,
    extra_probes: Iterable[Sequence[float]] = (),
    forced: bool = False,
) -> AuditResult:
    """Gradient inequality: ||grad f|| against |f|^theta."""
    th = float(theta)
    if not 0.0 < th < 1.0:
        raise InputError(f"gradient exponent must be in (0, 1), got {th}")
    poly = model.poly()
    dirs = direction_pool(plan, model.n, extra_probes)
    level_ratios = []
    slope_pred, slope_resp = [], []
    for r, pts in _sample_levels(plan, dirs):
        fv = np.abs(poly_eval_many(poly, pts))
        gv = np.linalg.norm(poly_gradient_many(poly, pts, model.n), axis=1)
        mask = fv > 0
        level_ratios.append(gv[mask] / fv[mask] ** th)
        if r <= SLOPE_RADIUS_CAP:
            ok = mask & (gv > 0)
            slope_pred.append(np.log(fv[ok]))
            slope_resp.append(np.log(gv[ok]))
    minima, maxima = _level_envelopes(level_ratios)
    if all(not math.isfinite(m) for m in minima):
        raise InputError("every sample hit f = 0: degenerate sampling plan")
    verdict, tau = _one_sided_verdict(minima)
    slope = lower_envelope_slope(np.concatenate(slope_pred), np.concatenate(slope_resp))
    return AuditResult(
        "L1", th, verdict,
        min_ratio=float(np.nanmin([m for m in minima if math.isfinite(m)])),
        max_ratio=float(np.nanmax([m for m in maxima if math.isfinite(m)])),
        empirical_slope=slope, kendall_tau=tau, kendall_tau_upper=math.nan,
        radii=plan.radii, level_minima=tuple(minima), level_maxima=tuple(maxima),
        forced=forced,
    )


def audit_L0(
    model: TaylorModel,
    g_exp: Exponent,
    alpha: Fraction | float,
    plan: SamplePlan,
    extra_probes: Iterable[Sequence[float]] = (),
    forced: bool = False,
) -> AuditResult:
    """Domination inequality: |f| against |x^{g_exp}|^alpha.

    The diagonal probe of the chosen hat vertex is mandatory: it carries
    the tightness witness.
    """
    al = float(alpha)
    poly = model.poly()
    g_poly = {tuple(g_exp): Fraction(1)}
    probes = list(extra_probes) + diagonal_probe(g_exp)
    dirs = direction_pool(plan, model.n, probes)
    level_ratios = []
    slope_pred, slope_resp = [], []
    for r, pts in _sample_levels(plan, dirs):
        fv = np.abs(poly_eval_many(poly, pts))
        gv = np.abs(poly_eval_many(g_poly, pts))
        mask = gv > 0
        level_ratios.append(fv[mask] / gv[mask] ** al)
        if r <= SLOPE_RADIUS_CAP:
            ok = mask & (fv > 0)
            slope_pred.append(np.log(gv[ok]))
            slope_resp.append(np.log(fv[ok]))
    minima, maxima = _level_envelopes(level_ratios)
    verdict, tau = _one_sided_verdict(minima)
    slope = lower_envelope_slope(np.concatenate(slope_pred), np.concatenate(slope_resp))
    return AuditResult(
        "L0", al, verdict,
        min_ratio=float(np.nanmin([m for m in minima if math.isfinite(m)])),
        max_ratio=float(np.nanmax([m for m in maxima if math.isfinite(m)])),
        empirical_slope=slope, kendall_tau=tau, kendall_tau_upper=math.nan,
        radii=plan.radii, level_minima=tuple(minima), level_maxima=tuple(maxima),
        forced=forced,
    )


def audit_L2(
    model: TaylorModel,
    loj_dist: Fraction | float,
    family: TransversalFamily,
    plan: SamplePlan,
    forced: bool = False,
) -> AuditResult:
    """Distance inequality: f against dist(x, zero set)^L.

    Samples every ranking region through its tight section probe.
    """
    ld = float(loj_dist)
    poly = model.poly()
    probes = ranking_probes(family, model.n)
    dirs = direction_pool(plan, model.n, probes)
    level_ratios = []
    slope_pred, slope_resp = [], []
    for r, pts in _sample_levels(plan, dirs):
        fv = np.abs(poly_eval_many(poly, pts))
        dv = _dist_many(pts, family)
        mask = dv > 0
        level_ratios.append(fv[mask] / dv[mask] ** ld)
        if r <= SLOPE_RADIUS_CAP:
            ok = mask & (fv > 0)
            slope_pred.append(np.log(dv[ok]))
            slope_resp.append(np.log(fv[ok]))
    minima, maxima = _level_envelopes(level_ratios)
    verdict, tau = _one_sided_verdict(minima)
    slope = lower_envelope_slope(np.concatenate(slope_pred), np.concatenate(slope_resp))
    return AuditResult(
        "L2", ld, verdict,
        min_ratio=float(np.nanmin([m for m in minima if math.isfinite(m)])),
        max_ratio=float(np.nanmax([m for m in maxima if math.isfinite(m)])),
        empirical_slope=slope, kendall_tau=tau, kendall_tau_upper=math.nan,
        radii=plan.radii, level_minima=tuple(minima), level_maxima=tuple(maxima),
        forced=forced,
    )


def _comparison_audit(
    name: str,
    numerator_per_level,
    poly_hull: NewtonPolyhedron,
    plan: SamplePlan,
    dirs: np.ndarray,
    forced: bool,
) -> AuditResult:
    level_ratios = []
    slope_pred, slope_resp = [], []
    for r, pts in _sample_levels(plan, dirs):
        num = numerator_per_level(pts)
        gv = g_gamma_eval_many(poly_hull, pts)
        mask = gv > 0
        level_ratios.append(num[mask] / gv[mask])
        if r <= SLOPE_RADIUS_CAP:
            ok = mask & (num > 0)
            slope_pred.append(np.log(gv[ok]))
            slope_resp.append(np.log(num[ok]))
    minima, maxima = _level_envelopes(level_ratios)
    verdict, tau_lo, tau_hi = _two_sided_verdict(minima, maxima)
    slope = lower_envelope_slope(np.concatenate(slope_pred), np.concatenate(slope_resp))
    return AuditResult(
        name, None, verdict,
        min_ratio=float(np.nanmin([m for m in minima if math.isfinite(m)])),
        max_ratio=float(np.nanmax([m for m in maxima if math.isfinite(m)])),
        empirical_slope=slope, kendall_tau=tau_lo, kendall_tau_upper=tau_hi,
        radii=plan.radii, level_minima=tuple(minima), level_maxima=tuple(maxima),
        forced=forced,
    )


def audit_euler_comparison(
    model: TaylorModel,
    poly_hull: NewtonPolyhedron,
    plan: SamplePlan,
    extra_probes: Iterable[Sequence[float]] = (),
    forced: bool = False,
) -> AuditResult:
    """Two-sided comparison of sum_i |x_i df/dx_i| with the vertex-monomial sum."""
    poly = model.poly()
    dirs = direction_pool(plan, model.n, extra_probes)

    def numerator(pts: np.ndarray) -> np.ndarray:
        grads = poly_gradient_many(poly, pts, model.n)
        return np.sum(np.abs(pts * grads), axis=1)

    return _comparison_audit("euler-comparison", numerator, poly_hull, plan, dirs, forced)


def audit_f_vs_g(
    model: TaylorModel,
    poly_hull: NewtonPolyhedron,
    plan: SamplePlan,
    extra_probes: Iterable[Sequence[float]] = (),
    forced: bool = False,
) -> AuditResult:
    """Two-sided comparison of |f| with the vertex-monomial sum."""
    poly = model.poly()
    dirs = direction_pool(plan, model.n, extra_probes)

    def numerator(pts: np.ndarray) -> np.ndarray:
        return np.abs(poly_eval_many(poly, pts))

    return _comparison_audit("f-vs-g", numerator, poly_hull, plan, dirs, forced)


def envelope_rows(result: AuditResult) -> list[tuple[float, float, float]]:
    """(radius, min ratio, max ratio) rows for CSV export."""
    return [
        (r, mn, mx)
        for r, mn, mx in zip(result.radii, result.level_minima, result.level_maxima)
    ]
