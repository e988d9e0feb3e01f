"""Floating-point audits of the inequalities near the origin.

Sampling happens on a fixed pool of max-norm unit directions (random pool
plus deterministic probes: coordinate axes and caller-chosen diagonals),
rescaled through a geometric grid of radius levels.  The random rows are
the first values of numpy's `default_rng(seed)` stream (SeedSequence into
PCG64, drawn by `Generator.uniform`), computed here by an exact port, so the
audits never load `numpy.random` and their sample does not follow stream
changes between numpy versions; each (seed, rows, n) is drawn once per
process.  A `Sample` is that pool through every radius of a `SamplePlan`,
with log|f|, the gradient log|df/dx_i| and the vertex sum log g_Gamma
computed at most once, when an audit first reads them: L1 reads the
gradient, and the Euler audit takes log|x_i df/dx_i| from it as
log|df/dx_i| + log r + log|d_i|.  The audits of one run read the same
sample.  The distance audit L2 reads its random and axis rows, with log|d|
and log|f| on them, and appends the tight section of every ranking (one per
distinct upper set, found among the subsets of the zero-set variables):
the only rows it evaluates itself.  Each row's zero and negative
coordinates are bitmasks (n <= 8), so a term's zero and sign masks are a
byte AND per row.  Reusing one pool across levels
makes the per-level envelope minima directly comparable, so the pass/fail
call is a trend test, not an absolute-constant test: the inequalities only
claim "there exist c, eps", so the audit checks that the per-level minima of
the ratio LHS/RHS do not decay as the radius shrinks (Kendall tau on the
level minima; nan on an envelope that is flat up to rounding).  The
comparison audits additionally require the maxima not to grow.  An
exactly-zero envelope minimum is an outright violation.  The reported
slope is the least-squares slope of the binned lower envelope of the
log-log cloud, in closed form; each sample's bin is found by arithmetic.

Every audit is one engine, `_ratio_audit`, fed log|LHS| and log|RHS| at
every (radius level, direction).  Values are computed in log space: a
monomial c·x^e at x = r·d is log|c| + e·log|d| + |e|·log r, and the terms of
a sum are combined with a signed log-sum-exp, so high-degree germs (x^90 at
r = 1e-4) neither underflow nor raise floating-point warnings.  The terms of
a polynomial are laid out term-major, as a (terms, levels, rows) array, and
the log-sum-exp reduces over that leading axis; a polynomial has few terms
and a pool has hundreds of rows, so each step of the reduction is one whole
(levels, rows) slice.  A polynomial of one term is that term, with no
reduction.  Samples where RHS = 0 are left out of their level and counted
(`excluded`).

Verdicts are heuristic evidence, not certificates.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .exponents import TransversalFamily
from .polyhedron import NewtonPolyhedron
from .record import record
from .taylor import MAX_DIM, Exponent, TaylorModel, poly_diff

TAU_FAIL = -0.8
DECAY_FACTOR = 0.8  # envelope must drop materially, not just drift in rank
ZERO_FLOOR = 1e-250
SLOPE_RADIUS_CAP = 1e-2
SLOPE_BINS = 32
SLOPE_LOWER_FRACTION = 0.5  # share of the predictor range the slope is fitted on
MIN_TREND_LEVELS = 4
FLAT_RELATIVE_RANGE = 1e-12


def _default_radii(outer: float = 1e-1, inner: float = 1e-4, levels: int = 16) -> tuple[float, ...]:
    ratio = (inner / outer) ** (1.0 / (levels - 1))
    return tuple(outer * ratio**k for k in range(levels))


@record
class SamplePlan:
    radii: tuple[float, ...] = _default_radii()
    directions_per_radius: int = 256
    seed: int = 0

    def __post_init__(self):
        r = tuple(float(x) for x in self.radii)
        if not r or not all(0 < x < math.inf for x in r) or any(a <= b for a, b in zip(r, r[1:])):
            raise InputError("radii must be strictly decreasing, positive and finite")
        object.__setattr__(self, "radii", r)
        for name in ("seed", "directions_per_radius"):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise InputError(f"{name} must be an integer, got {value!r}") from None
            if value < 0:
                raise InputError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)


@record
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
    excluded: tuple[int, ...] = ()  # per level: samples left out because RHS = 0


# ---------------------------------------------------------------------------
# direction pools

# numpy's SeedSequence (pool size 4) and PCG64 (O'Neill, PCG, HMC-CS-2014-0905:
# XSL-RR 128/64 on a 128-bit LCG), as `np.random.default_rng(seed)` runs them
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) for SeedSequence(seed), seed >= 0."""
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v = (v ^ h) * (h := h * 0x931E8875 & _M32) & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): eight 32-bit words, paired low word first
    h, state = 0x8B51F9DD, []
    for v in pool * 2:
        v = (v ^ h) * (h := h * 0x58F38DED & _M32) & _M32
        state.append(v ^ v >> 16)
    s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    # pcg_setseq_128_srandom_r: the state starts at 0, steps, adds the seed, steps
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128, inc


def _pcg64_doubles(seed: int, count: int) -> np.ndarray:
    """The first `count` values of `default_rng(seed).random()`: each is the
    next 64-bit output shifted right by 11, times 2^-53."""
    state, inc = _pcg64_seed(seed)
    out = [0] * count
    for k in range(count):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        out[k] = ((x >> rot | x << (64 - rot)) & _M64) >> 11
    return np.array(out, dtype=float) * 2.0**-53


@lru_cache(maxsize=8)
def _random_directions(seed: int, count: int, n: int) -> np.ndarray:
    """`count` rows of `default_rng(seed).uniform(-1, 1, (count, n))`, scaled
    to max-norm 1, read-only."""
    rows = _normalize_rows((-1.0 + 2.0 * _pcg64_doubles(seed, count * n)).reshape(count, n))
    rows.setflags(write=False)
    return rows


def _normalize_rows(dirs: np.ndarray) -> np.ndarray:
    scale = np.abs(dirs).max(axis=1)
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

    Variables of the ranking's upper set U (rank at least the realizing
    rank) move together; everything else is pinned to the zero subspace.
    The upper sets are exactly the U in I_f that meet every minimal hitting
    set and meet one of them in a single index (that index ranked lowest in
    U realizes the distance), so each section is listed once, from subsets.
    """
    probes = []
    for size in range(1, len(family.I_f) + 1):
        for upper in itertools.combinations(family.I_f, size):
            if min((len(j.intersection(upper)) for j in family.lambda_hitting), default=0) == 1:
                v = tuple(1.0 if i in upper else 0.0 for i in range(n))
                probes += [v, tuple(-x for x in v)]
    return probes


def direction_pool(
    plan: SamplePlan, n: int, extra: Iterable[Sequence[float]] = ()
) -> np.ndarray:
    """The plan's random max-norm unit rows, then the axis probes and `extra`."""
    probes = np.array([*axis_probes(n), *extra], dtype=float)
    return np.vstack([
        _random_directions(plan.seed, plan.directions_per_radius, n), _normalize_rows(probes)
    ])


def _sampled_negative(model: TaylorModel, seed: int, radius: float) -> tuple[float, ...] | None:
    """Look for a sign witness against a declared-nonnegative germ."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    pts = rng.uniform(-radius, radius, size=(10_000, model.n))
    # numpy's pairwise summation over the terms; a germ of remainders only is 0
    pieces = [float(t.coeff) * np.prod(pts ** np.asarray(t.exp), axis=1) for t in model.terms]
    vals = np.sum(pieces, axis=0) if pieces else np.zeros(len(pts))
    worst = int(np.argmin(vals))
    if vals[worst] < -1e-12:
        return tuple(float(x) for x in pts[worst])
    return None


# ---------------------------------------------------------------------------
# envelope machinery

@lru_cache(maxsize=32)
def _pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i < j, of `count` values, as two arrays."""
    return np.triu_indices(count, 1)


def _tau(series: list[float]) -> float:
    vals = [m for m in series if math.isfinite(m)]
    if len(vals) < 2:
        return math.nan
    # an envelope flat up to rounding has no trend; its ranks are float noise
    top, bottom = max(vals), min(vals)
    if top - bottom <= FLAT_RELATIVE_RANGE * max(top, -bottom):
        return math.nan
    # Kendall tau-b against the level index, which has no ties (Knight 1966):
    # S over sqrt(pairs) * sqrt(pairs untied in the values), clipped as scipy does
    first, second = _pairs(len(vals))
    v = np.array(vals)
    a, b = v[first], v[second]
    up, ties = int(np.count_nonzero(b > a)), int(np.count_nonzero(b == a))
    tot = len(first)
    if ties == tot:
        return math.nan
    s = 2 * up + ties - tot  # concordant minus discordant pairs
    return min(1.0, max(-1.0, s / math.sqrt(tot) / math.sqrt(tot - ties)))


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
    if min(valid) <= ZERO_FLOOR:
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


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin of each sample between the `SLOPE_BINS + 1` increasing `edges`,
    numbered as `np.digitize` numbers it, the last bin closed.

    The bin is first read off the scaled offset (x - lo)·SLOPE_BINS/(hi - lo).
    That estimate and the `linspace` edges differ by rounding only, far less
    than a bin while the span is well above the rounding of the edges, so
    one step each way against the edges gives the exact index.  Spans near
    that rounding, or beyond the float range, are searched instead.
    """
    lo, hi = edges[0], edges[-1]
    span = hi - lo
    if not 2.0**-40 * max(-lo, hi, 2.0**-960) < span < math.inf:
        return np.clip(edges.searchsorted(x, side="right") - 1, 0, SLOPE_BINS - 1)
    which = np.minimum(((x - lo) * (SLOPE_BINS / span)).astype(np.intp), SLOPE_BINS - 1)
    which -= x < edges[which]
    which += (x >= edges[which + 1]) & (which < SLOPE_BINS - 1)
    return which


_EDGE_STEPS = np.arange(SLOPE_BINS + 1, dtype=float)
_EDGE_STEPS.setflags(write=False)


def _bin_edges(lo: float, hi: float) -> np.ndarray:
    """`np.linspace(lo, hi, SLOPE_BINS + 1)`, bit for bit: k·step + lo with
    the last edge set to hi, or (k/SLOPE_BINS)·span + lo where the step of a
    subnormal span rounds to 0."""
    span = hi - lo
    step = span / SLOPE_BINS
    edges = (_EDGE_STEPS * step if step else _EDGE_STEPS / SLOPE_BINS * span) + lo
    edges[-1] = hi
    return edges


def _envelope_points(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(bin centres, envelope) of the finite samples of a log-log cloud:
    per-bin minima, replaced by their suffix minima, on the lower part of the
    predictor range; None when fewer than two bins are filled."""
    if x.size < 2:
        return None
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return None
    edges = _bin_edges(lo, hi)
    mins = np.full(SLOPE_BINS, np.inf)
    np.minimum.at(mins, _bin_index(x, edges), y)
    filled = mins < np.inf  # the samples are finite
    if np.count_nonzero(filled) < 2:
        return None
    centers = (0.5 * (edges[:-1] + edges[1:]))[filled]
    # the envelope is nondecreasing in the predictor near the origin, so a
    # bin is bounded by every sample to its right; the suffix minimum removes
    # spikes in sparsely sampled bins
    mins = np.minimum.accumulate(mins[filled][::-1])[::-1]
    cutoff = lo + SLOPE_LOWER_FRACTION * (hi - lo)
    lower = centers <= cutoff
    if np.count_nonzero(lower) >= 2:
        centers, mins = centers[lower], mins[lower]
    return centers, mins


def lower_envelope_slope(
    predictor: np.ndarray, response: np.ndarray, finite: np.ndarray
) -> float | None:
    """Least-squares slope through per-bin minima of a log-log cloud, on the
    samples where `finite` holds: those whose predictor and response are both
    finite.

    Only the lower part of the predictor range enters the fit: the
    inequalities constrain the envelope asymptotically, and for germs with
    unequal axis degrees the large-|f| bins belong to a different regime.
    The slope of at most `SLOPE_BINS` points is the closed form
    sum((x - mean x)(y - mean y)) / sum((x - mean x)^2).
    """
    if finite.all():
        points = _envelope_points(predictor, response)
    else:
        points = _envelope_points(predictor[finite], response[finite])
    if points is None:
        return None
    centers, mins = points
    # a mean is the sum over the count, as ndarray.mean takes it
    dx = centers - centers.sum() / centers.size
    return float(dx @ (mins - mins.sum() / mins.size) / (dx @ dx))


# ---------------------------------------------------------------------------
# log-space sampling: every sampled value is carried as log|value| in a
# (levels, rows) array, one row per pool direction

def _log_abs(a: np.ndarray) -> np.ndarray:
    """log|a| elementwise, -inf at zeros (without a divide-by-zero warning)."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(a))


def _logsumexp(a: np.ndarray, sign: np.ndarray | None = None) -> np.ndarray:
    """log|sum(sign * exp(a))| over the leading axis; -inf where the sum is zero.

    Overwrites `a`, which every caller builds for this call alone.
    """
    top = a.max(axis=0)
    top[top == -np.inf] = 0.0  # every term is zero: exp(a - top) stays 0
    a -= top
    np.exp(a, out=a)
    if sign is not None:
        a *= sign
    return top + _log_abs(a.sum(axis=0))


# (-1)^(number of set bits) of every byte: the sign a term takes from the
# negative coordinates its odd exponents meet (a table, as np.bitwise_count
# needs numpy 2 and lojex runs on numpy 1.23)
_PARITY_SIGN = np.array([1.0 - 2.0 * (bin(k).count("1") & 1) for k in range(256)])
_PARITY_SIGN.setflags(write=False)
_BIT_VALUES = np.array([1 << i for i in range(MAX_DIM)], dtype=np.uint8)
_BIT_VALUES.setflags(write=False)


def _row_bits(mask: np.ndarray) -> np.ndarray:
    """Each row of a boolean (rows, n) mask as one byte, bit i for column i
    (n <= MAX_DIM = 8)."""
    return mask @ _BIT_VALUES[: mask.shape[1]]


class _PoolTable(NamedTuple):
    """What the monomials of every polynomial read off a pool's rows."""

    log_d: np.ndarray  # log|d|, 0 where d = 0
    zero: np.ndarray  # the coordinates where d = 0, one bitmask a row
    negative: np.ndarray | None  # the coordinates where d < 0; None for the pool of |d|


def _pool_table(dirs: np.ndarray, log_dirs: np.ndarray) -> _PoolTable:
    """The table of the rows `dirs`, whose log|d| is `log_dirs`."""
    zero = log_dirs == -np.inf
    return _PoolTable(np.where(zero, 0.0, log_dirs), _row_bits(zero), _row_bits(dirs < 0))


def _log_poly(
    poly: dict[Exponent, Fraction | int], table: _PoolTable, log_r: np.ndarray
) -> np.ndarray:
    """log|p(r·d)| at every radius r and pool direction d, as (levels, rows).

    A term c·x^e is log|c| + e·log|d| + |e|·log r, so no power underflows.  Its
    sign is that of c times the parity of e on the negative coordinates: the
    set bits of the row's negative mask and the term's odd-exponent mask.  A
    zero coordinate with a positive exponent makes the term -inf (never
    0·(-inf)): the row's zero mask meets the term's positive-exponent mask.
    The terms are laid out as (terms, levels, rows), so the log-sum-exp
    reduces over the short leading axis in whole contiguous slices.
    """
    if not poly:
        return np.full((len(log_r), len(table.log_d)), -np.inf)
    exps = np.array(list(poly))  # (terms, n), integers
    floats = [float(c) for c in poly.values()]
    coeffs = np.array(floats)
    base = exps @ table.log_d.T + _log_abs(coeffs)[:, None]  # (terms, rows)
    base[(_row_bits(exps > 0)[:, None] & table.zero) != 0] = -np.inf
    terms = base[:, None, :] + (exps.sum(axis=1)[:, None] * log_r)[:, :, None]
    if len(terms) == 1:
        return terms[0]  # the log-sum-exp of one term, bit for bit
    odd = None if table.negative is None else _row_bits(exps % 2 == 1)[:, None]
    if min(floats) > 0 and (odd is None or not odd.any()):
        return _logsumexp(terms)  # every term is positive at every row
    sign = np.sign(coeffs)[:, None]
    if odd is not None:
        sign = sign * _PARITY_SIGN[odd & table.negative]
    return _logsumexp(terms, sign[:, None, :])


@lru_cache(maxsize=8)
def _near_levels(radii: tuple[float, ...]) -> slice:
    """The levels inside the slope's radius cap: a suffix, as the radii
    strictly decrease."""
    return slice(sum(r > SLOPE_RADIUS_CAP for r in radii), None)


def _ratio_audit(
    name: str,
    exponent: float | None,
    plan: SamplePlan,
    log_lhs: np.ndarray,
    log_rhs: np.ndarray,
    scale: float,
    two_sided: bool,
    forced: bool,
) -> AuditResult:
    """Audit LHS >= c·RHS^scale (and LHS <= C·RHS^scale if two-sided).

    Takes log|LHS| and log|RHS| as (levels, rows) arrays.  Rows where RHS = 0
    are left out of their level and counted in `excluded`; when that leaves
    every level empty (RHS = |f| = 0 on a germ of remainders only) the
    audit is indeterminate, with nan ratios and a note.
    """
    kept = np.isfinite(log_rhs)
    levels, rows = kept.shape
    # row 0 the log of each level's minimum ratio, row 1 of its maximum
    bounds = np.empty((2, levels))
    # a ratio past the float range is reported as inf, without a warning
    with np.errstate(over="ignore"):
        if kept.all():
            log_ratio = log_lhs - scale * log_rhs
            log_ratio.min(axis=1, out=bounds[0])
            log_ratio.max(axis=1, out=bounds[1])
            excluded = (0,) * levels
        else:
            log_ratio = log_lhs - scale * np.where(kept, log_rhs, 0.0)
            log_ratio.min(axis=1, initial=np.inf, where=kept, out=bounds[0])
            log_ratio.max(axis=1, initial=-np.inf, where=kept, out=bounds[1])
            excluded = tuple(np.count_nonzero(~kept, axis=1).tolist())
        minima, maxima = np.exp(bounds, out=bounds).tolist()
    # a level whose every row is left out has no ratio; every other level has
    # a finite log|RHS| and a log|LHS| that is never nan, so no nan ratio
    empty = [k for k, count in enumerate(excluded) if count == rows]
    for k in empty:
        minima[k] = maxima[k] = math.nan
    if two_sided:
        verdict, tau, tau_upper = _two_sided_verdict(minima, maxima)
    else:
        (verdict, tau), tau_upper = _one_sided_verdict(minima), math.nan
    near = _near_levels(plan.radii)
    response = log_lhs[near].ravel()
    finite = np.isfinite(response)
    if any(excluded):
        finite &= kept[near].ravel()  # log|RHS|, the predictor, is finite where kept
    slope = lower_envelope_slope(log_rhs[near].ravel(), response, finite)
    if len(empty) == levels:
        min_ratio = max_ratio = math.nan
        note = f"every {name} sample has a zero right-hand side: no ratio to audit"
    else:
        lows, highs = minima, maxima
        if empty:
            lows, highs = ([m for m in v if not math.isnan(m)] for v in (minima, maxima))
        min_ratio, max_ratio, note = min(lows), max(highs), ""
    return AuditResult(
        name, exponent, verdict, min_ratio=min_ratio, max_ratio=max_ratio,
        empirical_slope=slope, kendall_tau=tau, kendall_tau_upper=tau_upper,
        radii=plan.radii, level_minima=tuple(minima), level_maxima=tuple(maxima),
        forced=forced, note=note, excluded=excluded,
    )


# ---------------------------------------------------------------------------
# the audits

class Sample:
    """The pool of directions through every radius of a plan, with log|f| on it.

    The pool is the plan's random rows, the axis probes and `probes`; `log_f`
    is log|f(r·d)| as (levels, rows), and `log_g` the vertex sum g_Gamma on
    the same rows.  The audits of one run read one sample, so its pool is
    drawn, log|f| evaluated and log g_Gamma evaluated per vertex set at most
    once, each when an audit first reads it.  L2 reads log|d| and log|f| of
    the random and axis rows from here, and evaluates its ranking rows
    itself.
    """

    def __init__(
        self, model: TaylorModel, plan: SamplePlan, probes: Iterable[Sequence[float]] = ()
    ):
        self.model = model
        self.plan = plan
        self.probes = list(probes)
        self.log_r = np.log(plan.radii)
        self._log_g: dict[frozenset[Exponent], np.ndarray] = {}

    @cached_property
    def dirs(self) -> np.ndarray:
        return direction_pool(self.plan, self.model.n, self.probes)

    @cached_property
    def log_dirs(self) -> np.ndarray:
        """log|d| of every pool coordinate, -inf where d = 0."""
        return _log_abs(self.dirs)

    @cached_property
    def table(self) -> _PoolTable:
        return _pool_table(self.dirs, self.log_dirs)

    @cached_property
    def log_f(self) -> np.ndarray:
        return self.log_poly(self.model.poly())

    @cached_property
    def log_grad(self) -> np.ndarray:
        """log|df/dx_i(r·d)| for every variable i, as (n, levels, rows)."""
        poly = self.model.poly()
        return np.stack([self.log_poly(poly_diff(poly, i)) for i in range(self.model.n)])

    def log_poly(self, poly: dict[Exponent, Fraction | int]) -> np.ndarray:
        return _log_poly(poly, self.table, self.log_r)

    def log_g(self, vertices: frozenset[Exponent]) -> np.ndarray:
        """log g_Gamma(r·d) for g_Gamma = sum over the vertices of |x^v|: the
        vertex polynomial at |d|."""
        if vertices not in self._log_g:
            self._log_g[vertices] = _log_poly(
                dict.fromkeys(vertices, 1), self.table._replace(negative=None), self.log_r
            )
        return self._log_g[vertices]


def audit_L1(sample: Sample, theta: Fraction | float, forced: bool = False) -> AuditResult:
    """Gradient inequality: ||grad f|| against |f|^theta."""
    th = float(theta)
    if not 0.0 < th < 1.0:
        raise InputError(f"gradient exponent must be in (0, 1), got {th}")
    log_norm = 0.5 * _logsumexp(2.0 * sample.log_grad)
    return _ratio_audit("L1", th, sample.plan, log_norm, sample.log_f, th, False, forced)


def audit_L0(
    sample: Sample, g_exp: Exponent, alpha: Fraction | float, forced: bool = False
) -> AuditResult:
    """Domination inequality: |f| against |x^{g_exp}|^alpha.

    The sample must hold the diagonal probe of the hat vertex g_exp: it
    carries the tightness witness.
    """
    al = float(alpha)
    rows = diagonal_probe(g_exp)
    held = (sample.dirs == np.array(rows)[:, None, :]).all(axis=2).any(axis=1)
    for row, found in zip(rows, held):
        if not found:
            raise InputError(f"the L0 sample lacks the diagonal probe {row} of its hat vertex")
    log_g = sample.log_poly({tuple(g_exp): 1})
    return _ratio_audit("L0", al, sample.plan, sample.log_f, log_g, al, False, forced)


def audit_L2(
    sample: Sample, loj_dist: Fraction | float, family: TransversalFamily, forced: bool = False
) -> AuditResult:
    """Distance inequality: f against dist(x, zero set)^L.

    Samples every ranking region through its tight section probe.  The rows
    are the random and axis rows of `sample`, whose log|d| and log|f| it
    has, then the ranking probes, the only rows evaluated here.
    """
    ld = float(loj_dist)
    n = sample.model.n
    lead = len(_random_directions(sample.plan.seed, sample.plan.directions_per_radius, n)) + 2 * n
    probes = _normalize_rows(np.array(ranking_probes(family, n), dtype=float).reshape(-1, n))
    log_probes = _log_abs(probes)
    log_dirs = np.vstack([sample.log_dirs[:lead], log_probes])
    log_f = np.hstack([
        sample.log_f[:, :lead],
        _log_poly(sample.model.poly(), _pool_table(probes, log_probes), sample.log_r),
    ])
    members = family.lambda_hitting or (range(n),)
    log_dist = np.min([log_dirs[:, sorted(j)].max(axis=1) for j in members], axis=0)
    return _ratio_audit(
        "L2", ld, sample.plan, log_f, log_dist + sample.log_r[:, None], ld, False, forced
    )


def audit_euler_comparison(
    sample: Sample, poly_hull: NewtonPolyhedron, forced: bool = False
) -> AuditResult:
    """Two-sided comparison of sum_i |x_i df/dx_i| with the vertex-monomial sum."""
    # log|x_i df/dx_i| at x = r·d, from the sample's gradient: -inf where d_i = 0
    log_parts = sample.log_grad + sample.log_r[:, None] + sample.log_dirs.T[:, None, :]
    return _ratio_audit(
        "euler-comparison", None, sample.plan, _logsumexp(log_parts),
        sample.log_g(poly_hull.vertices), 1.0, True, forced,
    )


def audit_f_vs_g(sample: Sample, poly_hull: NewtonPolyhedron, forced: bool = False) -> AuditResult:
    """Two-sided comparison of |f| with the vertex-monomial sum."""
    return _ratio_audit(
        "f-vs-g", None, sample.plan, sample.log_f, sample.log_g(poly_hull.vertices), 1.0, True,
        forced,
    )


def envelope_rows(result: AuditResult) -> list[tuple[float, float, float]]:
    """(radius, min ratio, max ratio) rows for CSV export."""
    return [
        (r, mn, mx)
        for r, mn, mx in zip(result.radii, result.level_minima, result.level_maxima)
    ]
