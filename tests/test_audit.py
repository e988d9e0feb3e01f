import itertools
import json
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lojex import audit
from lojex.audit import (
    Sample,
    SamplePlan,
    _default_radii,
    audit_L0,
    audit_L1,
    audit_L2,
    audit_euler_comparison,
    audit_f_vs_g,
    diagonal_probe,
    envelope_rows,
    lower_envelope_slope,
    ranking_probes,
)
from lojex.cli import AnalysisOptions, _run_audits, analyze_germ, main
from lojex.errors import InputError
from lojex.exponents import transversals
from lojex.parser import parse_germ, parse_text
from lojex.polyhedron import build_polyhedron, hat_polyhedron
from lojex.taylor import poly_diff, support

from .conftest import CATALOG, GATED_NONNEG, germ, run_python, subprocess_env
from .oracles import (
    dist_to_zero_set, euler_field_value, evaluate, g_gamma_eval, gradient,
    kendall_tau_sign_matrix, least_squares_slope, log_poly_logsumexp,
    lower_envelope_points_per_bin, ranking_i_rho,
)

PLAN = SamplePlan(seed=5)
DEEP_PLAN = SamplePlan(radii=_default_radii(1e-1, 1e-5, 16), seed=5)


def _family(text):
    return transversals(hat_polyhedron(build_polyhedron(support(parse_text(text)))))


def test_plan_validation():
    with pytest.raises(InputError):
        SamplePlan(radii=(1e-4, 1e-1))
    with pytest.raises(InputError):
        SamplePlan(radii=())


def test_plan_rejects_bad_seeds_and_counts():
    # in a child process under a 60 s guard: a seed that the stream port
    # failed to reject could loop for ever instead of failing
    code = (
        "from lojex.audit import SamplePlan\n"
        "from lojex.errors import InputError\n"
        "for kw in ({'seed': -1}, {'seed': 1.5}, {'directions_per_radius': -1}):\n"
        "    try:\n"
        "        SamplePlan(**kw)\n"
        "        print('accepted', kw)\n"
        "    except InputError as exc:\n"
        "        print('InputError', exc)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["InputError"] * 3
    assert SamplePlan(seed=np.int64(3)).seed == 3


# single- and multi-word seeds: SeedSequence mixes words past its pool of 4
STREAM_SEEDS = [*range(64), 2**32 + 5, 2**70 + 3, 0xC0FFEE << 176 | 0xDEADBEEF]


def test_random_directions_are_default_rng_stream():
    assert STREAM_SEEDS[-1].bit_length() == 200
    for seed in STREAM_SEEDS:
        for n in range(1, 9):
            for k in (0, 1, 50, 256):
                want = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(k, n))
                got = (-1.0 + 2.0 * audit._pcg64_doubles(seed, k * n)).reshape(k, n)
                assert np.array_equal(got, want), (seed, n, k)
                rows = audit._random_directions(seed, k, n)
                assert np.array_equal(rows, audit._normalize_rows(want)), (seed, n, k)


def test_random_directions_are_drawn_once_and_read_only():
    rows = audit._random_directions(9, 16, 3)
    assert audit._random_directions(9, 16, 3) is rows
    with pytest.raises(ValueError):
        rows[0, 0] = 0.5
    pool = audit.direction_pool(SamplePlan(directions_per_radius=16, seed=9), 3)
    pool[0, 0] = 0.5  # a pool is the caller's own copy
    assert rows[0, 0] != 0.5


def test_dist_to_zero_set_examples():
    fam = _family("x^2*y^2")
    assert dist_to_zero_set((0.5, 0.01), fam) == 0.01
    fam = _family("x^4 + x^2*y^2")
    assert dist_to_zero_set((0.3, 0.9), fam) == pytest.approx(0.3)
    fam = _family("x^2 + y^2")
    assert dist_to_zero_set((0.3, 0.4), fam) == pytest.approx(0.4)


def test_dist_matches_grid_bruteforce():
    # brute-force minimization of the max-norm distance over fine grids of
    # the zero-set subspaces; agreement within the grid step
    rng = np.random.default_rng(3)
    step = 0.005
    axis = np.arange(-0.15, 0.15 + step / 2, step)
    for text in ("x^2*y^2", "x^4 + x^2*y^2", "x^2 + y^2",
                 "x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2"):
        fam = _family(text)
        n = max(fam.I_f) + 1
        for p in rng.uniform(-0.1, 0.1, size=(12, n)):
            got = dist_to_zero_set(tuple(p), fam)
            brute = math.inf
            for j in fam.lambda_hitting:
                free = [i for i in range(n) if i not in j]
                # grid over the free coordinates of T_J, zeros on J
                if free:
                    grids = np.meshgrid(*([axis] * len(free)), indexing="ij")
                    pts = np.zeros((grids[0].size, n))
                    for k, i in enumerate(free):
                        pts[:, i] = grids[k].ravel()
                else:
                    pts = np.zeros((1, n))
                dists = np.max(np.abs(pts - p), axis=1)
                brute = min(brute, float(dists.min()))
            assert abs(got - brute) <= step, (text, p, got, brute)


def test_audit_L1_pass_fail_direction():
    circle = Sample(parse_text("x^2 + y^2"), PLAN)
    assert audit_L1(circle, Fraction(1, 2)).verdict == "pass"
    assert audit_L1(circle, Fraction(3, 5)).verdict == "pass"
    assert audit_L1(circle, Fraction(2, 5)).verdict == "fail"
    quartic = Sample(parse_text("x^4 + y^4"), PLAN)
    assert audit_L1(quartic, Fraction(3, 5)).verdict == "fail"
    assert audit_L1(quartic, Fraction(3, 4)).verdict == "pass"


def test_audit_L1_slope_partially_convenient_catalog():
    cases = {
        "x^2 + y^2": Fraction(1, 2),
        "x^4 + y^4 + x^2*y^2": Fraction(3, 4),
        "x^2 + y^4": Fraction(3, 4),
        "x^3 + y^2": Fraction(2, 3),
    }
    for text, th in cases.items():
        r = audit_L1(Sample(parse_text(text), PLAN), th)
        assert r.empirical_slope == pytest.approx(float(th), abs=0.05), text


def test_audit_L1_pass_at_cusp_theta():
    # constant envelope with float jitter must not be read as decay
    r = audit_L1(Sample(parse_text("x^3 + y^2"), PLAN), Fraction(2, 3))
    assert r.verdict == "pass"


def test_audit_L0_examples():
    s = Sample(parse_text("x^2*y^2"), PLAN, diagonal_probe((1, 1)))
    r = audit_L0(s, (1, 1), Fraction(2))
    assert r.verdict == "pass"
    assert r.min_ratio == pytest.approx(1.0, rel=1e-6)
    # the diagonal of (1, 0) is an axis probe, which every sample holds
    s = Sample(parse_text("x^4 + x^2*y^2"), PLAN)
    assert audit_L0(s, (1, 0), Fraction(4)).verdict == "pass"
    assert audit_L0(s, (1, 0), Fraction(7, 2)).verdict == "fail"
    s = Sample(parse_text("x^2 + y^2"), PLAN)
    assert audit_L0(s, (1, 0), Fraction(2)).verdict == "pass"


def test_audit_L0_needs_the_diagonal_of_its_hat_vertex():
    # without the (1, 1) row the envelope never reaches its tight direction
    m = parse_text("x^2*y^2")
    with pytest.raises(InputError, match="diagonal probe"):
        audit_L0(Sample(m, PLAN), (1, 1), Fraction(2))
    with pytest.raises(InputError, match="diagonal probe"):
        audit_L0(Sample(m, PLAN, [(1.0, 1.0)]), (1, 1), Fraction(2))
    assert audit_L0(Sample(m, PLAN, [(-1.0, -1.0), (1.0, 1.0)]), (1, 1), 2).verdict == "pass"


def test_audit_L2_examples():
    s = Sample(parse_text("x^2*y^2"), PLAN)
    fam = _family("x^2*y^2")
    assert audit_L2(s, Fraction(4), fam).verdict == "pass"
    assert audit_L2(s, Fraction(7, 2), fam).verdict == "fail"
    r = audit_L2(Sample(parse_text("x^2 + y^2"), PLAN), Fraction(2), _family("x^2 + y^2"))
    assert r.verdict == "pass"
    assert 1.0 - 1e-9 <= r.min_ratio and r.max_ratio <= 2.0 + 1e-9
    s = Sample(parse_text("x^4 + x^2*y^2"), PLAN)
    fam = _family("x^4 + x^2*y^2")
    assert audit_L2(s, Fraction(4), fam).verdict == "pass"
    assert audit_L2(s, Fraction(7, 2), fam).verdict == "fail"


def test_audit_euler_comparison_catalog():
    for name in GATED_NONNEG:
        model = germ(name)
        poly = build_polyhedron(support(model))
        r = audit_euler_comparison(Sample(model, PLAN), poly)
        assert r.verdict == "pass", (name, r.level_minima)
    circle = germ("circle")
    poly = build_polyhedron(support(circle))
    r = audit_euler_comparison(Sample(circle, PLAN), poly)
    assert r.min_ratio == pytest.approx(2.0) and r.max_ratio == pytest.approx(2.0)


def test_audit_euler_degenerate_diagonal():
    model = germ("square_diff")
    poly = build_polyhedron(support(model))
    r = audit_euler_comparison(Sample(model, PLAN, [(1.0, 1.0)]), poly, forced=True)
    assert r.verdict == "fail"
    assert min(r.level_minima) == 0.0


def test_audit_f_vs_g_catalog():
    for name in GATED_NONNEG:
        model = germ(name)
        poly = build_polyhedron(support(model))
        r = audit_f_vs_g(Sample(model, PLAN), poly)
        assert r.verdict == "pass", name
    quartic = germ("quartic_mix")
    poly = build_polyhedron(support(quartic))
    r = audit_f_vs_g(Sample(quartic, PLAN), poly)
    assert 1.0 - 1e-9 <= r.min_ratio and r.max_ratio <= 1.5 + 1e-9


def test_audits_deterministic():
    m = parse_text("x^4 + x^2*y^2")
    r1 = audit_L0(Sample(m, SamplePlan(seed=42)), (1, 0), Fraction(4))
    r2 = audit_L0(Sample(m, SamplePlan(seed=42)), (1, 0), Fraction(4))
    assert r1 == r2
    r3 = audit_L0(Sample(m, SamplePlan(seed=43)), (1, 0), Fraction(4))
    assert r3.verdict == r1.verdict


def test_envelope_rows_shape():
    m = parse_text("x^2 + y^2")
    r = audit_L1(Sample(m, PLAN), Fraction(1, 2))
    rows = envelope_rows(r)
    assert len(rows) == len(PLAN.radii)
    assert all(len(row) == 3 for row in rows)


@pytest.mark.parametrize("text, theta", [
    ("x^90 + y^90", Fraction(89, 90)),
    ("x^40*y^40 + x^100 + y^100", Fraction(99, 100)),
])
def test_high_degree_germs_pass_every_audit(text, theta):
    # in plain floats (1e-4)^90 underflows to 0.0, and |f| would read 0
    outcome = analyze_germ(parse_germ(text), AnalysisOptions())
    assert [a.inequality for a in outcome.audits] == [
        "L1", "L0", "L2", "euler-comparison", "f-vs-g"
    ]
    assert outcome.audits[0].exponent == float(theta)
    for a in outcome.audits:
        assert a.verdict == "pass", (a.inequality, a.level_minima)
        assert all(math.isfinite(m) and m > 0 for m in a.level_minima), a.inequality


@pytest.mark.parametrize("text", ["x^90 + y^90", "x^40*y^40 + x^100 + y^100"])
def test_ratio_past_the_float_range_is_inf_without_a_warning(text):
    # with 1024 samples L0's largest ratio exp(log_ratio) overflows; the
    # report reads inf and no audit raises or changes its verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = analyze_germ(parse_germ(text), AnalysisOptions(samples=1024))
    l0 = next(a for a in outcome.audits if a.inequality == "L0")
    assert l0.max_ratio == math.inf
    assert [a.verdict for a in outcome.audits] == ["pass"] * 5


def _pointwise_sides(result, model, report, hull):
    """(LHS, RHS) of an audit at one point, from the pointwise functions."""
    def f(p):
        return abs(evaluate(model, p))

    if result.inequality == "L1":
        return lambda p: (math.hypot(*gradient(model, p)), f(p))
    if result.inequality == "L0":
        g = report.alpha.witness
        return lambda p: (f(p), abs(math.prod(x**e for x, e in zip(p, g))))
    if result.inequality == "L2":
        return lambda p: (f(p), dist_to_zero_set(p, report.transversal))
    if result.inequality == "euler-comparison":
        return lambda p: (euler_field_value(model, p), g_gamma_eval(hull, p))
    return lambda p: (f(p), g_gamma_eval(hull, p))


def _recorded_pools(monkeypatch) -> list:
    """Every pool that direction_pool returns from now on, in order."""
    pools = []
    original = audit.direction_pool

    def recording_pool(*args, **kwargs):
        pools.append(original(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(audit, "direction_pool", recording_pool)
    return pools


# the gated germs run all five audits; the others have odd exponents and mixed
# signs, which the sign parity of the log-space terms must get right
@pytest.mark.parametrize("name", GATED_NONNEG + ["cusp", "inert_axis", "quartic_xyz"])
def test_log_space_envelopes_match_pointwise_loop(name, monkeypatch):
    pools = _recorded_pools(monkeypatch)
    model = germ(name)
    outcome = analyze_germ(model, AnalysisOptions(samples=64))
    hull = build_polyhedron(support(model))
    assert len(outcome.audits) == (5 if name in GATED_NONNEG else 2)
    # the audits read the run's sample, drawn first; L2 draws its own pool
    shared, *own = pools
    assert len(own) == sum(a.inequality == "L2" for a in outcome.audits)
    for result in outcome.audits:
        dirs = own[0] if result.inequality == "L2" else shared
        sides = _pointwise_sides(result, model, outcome.report, hull)
        scale = 1.0 if result.exponent is None else result.exponent
        for k, r in enumerate(result.radii):
            values = [sides(tuple(r * dirs[i])) for i in range(len(dirs))]
            ratios = [lhs / rhs**scale for lhs, rhs in values if rhs > 0]
            assert result.excluded[k] == len(values) - len(ratios)
            for got, want in ((result.level_minima[k], min(ratios)),
                              (result.level_maxima[k], max(ratios))):
                assert abs(got - want) <= 1e-12 * abs(want), (result.inequality, r)


def test_audits_of_a_run_share_one_sample(monkeypatch):
    pools = _recorded_pools(monkeypatch)
    log_f_rows, log_g_calls = [], 0
    evaluated, in_euler = [], []
    original = audit._log_poly
    model = germ("quartic_mix")
    vertex_sum = dict.fromkeys(build_polyhedron(support(model)).vertices, 1)

    def recording_log_poly(poly, table, log_r):
        nonlocal log_g_calls
        if poly == model.poly():
            log_f_rows.append(table.log_d)
        log_g_calls += poly == vertex_sum
        evaluated.append(poly)
        return original(poly, table, log_r)

    original_euler = audit.audit_euler_comparison

    def recording_euler(*args, **kwargs):
        start = len(evaluated)
        result = original_euler(*args, **kwargs)
        in_euler.extend(evaluated[start:])
        return result

    monkeypatch.setattr(audit, "_log_poly", recording_log_poly)
    monkeypatch.setattr(audit, "audit_euler_comparison", recording_euler)
    outcome = analyze_germ(model, AnalysisOptions(samples=64))
    assert len(outcome.audits) == 5
    # the shared pool of L1, L0, euler-comparison and f-vs-g, then L2's, which
    # begins with the same random and axis rows
    assert len(pools) == 2
    shared, own = pools
    lead = len(audit._random_directions(0, 64, 2)) + 4
    assert np.array_equal(shared[:lead], own[:lead])
    # each row of log|f| is evaluated once: the run's pool, then L2's ranking rows
    assert [len(rows) for rows in log_f_rows] == [len(shared), len(own) - lead]
    # euler-comparison and f-vs-g read one log g_Gamma
    assert log_g_calls == 1
    # each partial is evaluated once, for L1 and the Euler audit alike; the
    # Euler audit evaluates no polynomial but the log g_Gamma it shares
    for i in range(model.n):
        assert sum(poly == poly_diff(model.poly(), i) for poly in evaluated) == 1, i
    assert in_euler == [vertex_sum]


def test_verify_draws_only_the_pools_its_audits_read(monkeypatch, capsys):
    # L2 draws a pool of its own; the shared one is drawn only for L1 or L0,
    # and L2 alone evaluates log|f| on its own pool, no diagonal row
    pools = _recorded_pools(monkeypatch)
    rows = []
    original = audit._log_poly
    monkeypatch.setattr(
        audit, "_log_poly", lambda poly, table, log_r: rows.append(len(table.log_d))
        or original(poly, table, log_r)
    )
    for flags, count in ((["--dist", "2"], 1), (["--theta", "1/2", "--dist", "2"], 2)):
        pools.clear()
        rows.clear()
        assert main(["verify", "x^2 + y^2", "--samples", "64", *flags]) == 0
        assert len(pools) == count, flags
        if count == 1:
            assert rows == [len(pools[0])]
    capsys.readouterr()


def _slope_clouds():
    """Seeded log-log clouds: dense, with empty bins, and degenerate."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        size = int(rng.integers(2, 600))
        x = rng.uniform(-40.0, 0.0, size)
        y = 0.7 * x + rng.exponential(3.0, size)
        if rng.random() < 0.5:
            # cut gaps into the predictor range, so whole bins stay empty
            for lo in rng.uniform(-40.0, 0.0, int(rng.integers(1, 6))):
                x[(x > lo) & (x < lo + rng.uniform(1.0, 12.0))] = np.nan
        for arr in (x, y):
            for value in (np.inf, -np.inf, np.nan):
                arr[rng.integers(0, size, int(rng.integers(0, 4)))] = value
        yield x, y
    yield np.array([-3.0, -1.0]), np.array([2.0, 5.0])  # one sample per end bin
    yield np.array([-2.0, -2.0, -2.0, np.nan]), np.array([1.0, 0.5, 3.0, 1.0])  # one value
    yield np.array([-2.0, np.inf, -np.inf]), np.array([1.0, 2.0, 3.0])  # one finite sample
    yield np.full(5, np.nan), np.zeros(5)
    # every sample at the two ends of the range, the bins between empty
    yield np.r_[np.zeros(50), np.ones(50)], np.random.default_rng(3).normal(size=100)
    # every sample on a bin edge, in shuffled order, with and without
    # non-finite samples among them
    edges = np.linspace(-8.0, 0.0, audit.SLOPE_BINS + 1)
    for _ in range(20):
        x = rng.permutation(np.repeat(edges, 3))
        y = 0.5 * x + rng.normal(size=x.size)
        yield x, y
        y[rng.integers(0, x.size, 4)] = (np.nan, np.inf, -np.inf, np.nan)
        yield x, y


def _audit_clouds(monkeypatch) -> list:
    """The (predictor, response) clouds the audits fit slopes to on the
    catalog and the high-degree germs, whose slopes are large."""
    clouds = []
    original = audit.lower_envelope_slope

    def recording(predictor, response):
        clouds.append((predictor, response))
        return original(predictor, response)

    monkeypatch.setattr(audit, "lower_envelope_slope", recording)
    for text in [*CATALOG.values(), "x^90 + y^90", "x^40*y^40 + x^100 + y^100"]:
        analyze_germ(parse_germ(text), AnalysisOptions(samples=64, force=True))
    monkeypatch.undo()
    return clouds


def test_lower_envelope_slope_matches_per_bin_loop(monkeypatch):
    for x, y in [*_slope_clouds(), *_audit_clouds(monkeypatch)]:
        got, want = audit._envelope_points(x, y), lower_envelope_points_per_bin(x, y)
        slope = lower_envelope_slope(x, y)
        assert (got is None) == (want is None) == (slope is None), (x, y)
        if got is None:
            continue
        # the points the fit reads are the per-bin loop's, bit for bit
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), (a, b)
        # the slope is the exact least-squares slope of those points, up to
        # rounding (np.polyfit misses it by up to 2e-14 on these clouds)
        exact = least_squares_slope(*want)
        assert abs(Fraction(slope) - exact) <= 1e-14 * max(1, abs(exact)), (slope, float(exact))


def test_bin_index_is_the_searched_index():
    rng = np.random.default_rng(17)
    edges = np.linspace(-8.0, 0.0, audit.SLOPE_BINS + 1)
    clouds = [
        rng.permutation(np.repeat(edges, 3)),  # every sample on a bin edge
        np.r_[-8.0, 0.0, rng.uniform(-8.0, 0.0, 50)],  # x at lo and at hi
        np.array([-3.0, -1.0, -1.0, -3.0]),  # two distinct values
        np.array([1.0, np.nextafter(1.0, 2.0)]),  # two adjacent floats
        np.array([0.0, 5e-324]),  # a subnormal span
        rng.uniform(-5e4, 5e4, 500),  # a 1e5 range
        np.r_[-5e4, 5e4, np.linspace(-5e4, 5e4, audit.SLOPE_BINS + 1)],
    ]
    for _ in range(50):
        # every edge of an inexact step and its neighbouring floats, where
        # the scaled offset lands a bin too high or too low
        lo = rng.uniform(-50.0, 0.0) * 10.0 ** rng.uniform(-3, 3)
        at = np.linspace(lo, lo + abs(lo) * 10.0 ** rng.uniform(-8, 1), audit.SLOPE_BINS + 1)
        near = np.r_[at, np.nextafter(at, np.inf), np.nextafter(at, -np.inf)]
        clouds.append(np.clip(near, at[0], at[-1]))
    for _ in range(200):
        x = rng.uniform(-40.0, 0.0, int(rng.integers(5, 600))) * 10.0 ** rng.uniform(-4, 4)
        x[rng.integers(0, x.size, 3)] = (np.nan, np.inf, -np.inf)
        clouds.append(x[np.isfinite(x)])  # non-finite samples masked out
    for x in clouds:
        edges = np.linspace(x.min(), x.max(), audit.SLOPE_BINS + 1)
        want = np.clip(edges.searchsorted(x, side="right") - 1, 0, audit.SLOPE_BINS - 1)
        assert np.array_equal(audit._bin_index(x, edges), want), x


def _tables():
    """Pool tables with random rows, axis rows and zero coordinates."""
    for n in (1, 2, 3):
        dirs = np.vstack([audit._random_directions(3, 40, n), audit.axis_probes(n)])
        dirs[::7, 0] = 0.0
        log_d = audit._log_abs(dirs)
        zero = np.isneginf(log_d)
        table = audit._PoolTable(np.where(zero, 0.0, log_d), zero, dirs < 0)
        yield n, table
        yield n, table._replace(negative=None)


def test_one_term_log_poly_is_the_log_sum_exp_route():
    log_r = np.log(_default_radii())
    deep = np.log(_default_radii(1e-1, 1e-4, 16))
    monomials = {
        (e, c) for text in CATALOG.values() for e, c in parse_text(text).poly().items()
    }
    for n, table in _tables():
        cases = [({e: c}, log_r) for e, c in monomials if len(e) == n]
        cases += [({(90,) + (0,) * (n - 1): 1}, deep), ({(1,) * n: Fraction(-3, 7)}, log_r)]
        cases += [({(0,) * n: 2}, log_r), ({(2,) * n: -1}, log_r)]
        for poly, radii in cases:
            got = audit._log_poly(poly, table, radii)
            assert got.tobytes() == log_poly_logsumexp(poly, table, radii).tobytes(), poly
        # and the general route is the oracle's on several terms
        many = {e: c for e, c in monomials if len(e) == n}
        if len(many) > 1:
            got = audit._log_poly(many, table, log_r)
            assert got.tobytes() == log_poly_logsumexp(many, table, log_r).tobytes()


def test_tau_counts_pairs_as_the_sign_matrix_does():
    rng = random.Random(29)
    compared = 0
    for _ in range(1000):
        levels = rng.choice([0.5, 1.0, 2.0, 3.0, 0.1 * rng.random()])
        series = [rng.choice([rng.random(), round(rng.random() * 3) * levels, math.nan,
                              math.inf, 1e-300 * rng.random()])
                  for _ in range(rng.randint(0, 16))]
        got, want = audit._tau(series), kendall_tau_sign_matrix(series)
        assert got == want or (math.isnan(got) and math.isnan(want)), series
        compared += not math.isnan(want)
    assert compared > 500


def test_ratio_audit_without_exclusions_is_the_masked_path():
    # one more column with RHS = 0 takes the masked path; it leaves that
    # column out of every level and changes nothing else
    rng = np.random.default_rng(31)
    for k in range(40):
        levels, rows = len(PLAN.radii), int(rng.integers(1, 60))
        log_lhs = rng.normal(-5.0, 4.0, (levels, rows))
        log_rhs = rng.normal(-5.0, 4.0, (levels, rows)) + np.log(PLAN.radii)[:, None]
        if k % 4 == 0:
            log_lhs[:, rng.integers(0, rows)] = -np.inf  # an LHS of zero
        pad = np.full((levels, 1), -np.inf)
        for scale, two_sided in ((0.5, False), (1.0, True)):
            plain = audit._ratio_audit("L1", scale, PLAN, log_lhs, log_rhs, scale, two_sided, False)
            masked = audit._ratio_audit(
                "L1", scale, PLAN, np.hstack([log_lhs, pad + 1.0]), np.hstack([log_rhs, pad]),
                scale, two_sided, False,
            )
            assert masked.excluded == (1,) * levels and plain.excluded == (0,) * levels
            for field in ("verdict", "level_minima", "level_maxima", "min_ratio", "max_ratio",
                          "empirical_slope", "kendall_tau", "kendall_tau_upper", "note"):
                # repr round-trips every float, so equal reprs are equal bits
                assert repr(getattr(plain, field)) == repr(getattr(masked, field)), field


@pytest.mark.xfail(strict=True, reason=(
    "the degenerate-face witness probes (1, 1) and (-1, -1) put f = 0 exactly, "
    "where log|f| reads rounding noise and |grad f| cancels to 0"
))
def test_forced_L1_holds_off_the_zero_line_of_a_square():
    # f = (x - y)^2 has |grad f| = 2*sqrt(2)*|f|^(1/2) wherever f != 0, so
    # the gradient inequality holds at theta = 1/2; today the forced audit
    # reads min_ratio 0.0 on the witness probes and fails
    outcome = analyze_germ(parse_germ("x^2 - 2*x*y + y^2"), AnalysisOptions(force=True))
    l1 = next(a for a in outcome.audits if a.inequality == "L1")
    assert l1.exponent == 0.5
    assert l1.verdict == "pass", l1.min_ratio


# the high-degree germs have terms that underflow in plain floats; the
# degenerate and mixed-sign germs reach the -inf and zero-sum paths
@pytest.mark.parametrize("text", [
    *CATALOG.values(), "x^90 + y^90", "x^40*y^40 + x^100 + y^100",
])
def test_audits_raise_no_floating_point_error(text):
    model = parse_germ(text)
    opts = AnalysisOptions(force=True)
    outcome = analyze_germ(model, opts, with_audits=False)
    hull = build_polyhedron(support(model))
    with np.errstate(all="raise", under="ignore"):
        audits = _run_audits(model, hull, outcome.report, opts, gates_ok=False)
    assert {a.inequality for a in audits} >= {"euler-comparison", "f-vs-g"}


def test_ranking_probes_distinct_and_complete():
    for text in ("x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2",
                 "x1^2*x2^2*x3^2 + x3^4*x4^2 + x1^6 + x2^4*x4^4",
                 " + ".join(f"x{i}^2" for i in range(1, 9)) + " + x1^2*x2^2"):
        fam = _family(text)
        n = parse_text(text).n
        probes = ranking_probes(fam, n)
        assert len(probes) == len(set(probes)), text
        # every ranking's tight section, from the permutation enumeration
        sections = set()
        for order in itertools.permutations(fam.I_f):
            rank = {v: k for k, v in enumerate(order)}
            floor = rank[ranking_i_rho(fam.lambda_hitting, rank)]
            v = tuple(1.0 if i in rank and rank[i] >= floor else 0.0 for i in range(n))
            sections.update((v, tuple(-x for x in v)))
        assert set(probes) == sections, text
    assert len(probes) == 16  # from 2 * 8! = 80 640 rows for the sum of squares


def test_tau_is_nan_on_envelopes_flat_up_to_rounding():
    noisy = [1.0, 1 + 1e-15, 1 - 1e-15, 1.0, 1 + 2e-16, 1 - 4e-16, math.nan, 1 + 1e-15]
    assert math.isnan(audit._tau(noisy))
    assert math.isnan(audit._tau([0.0, 0.0, 0.0]))
    assert math.isnan(audit._tau([1e-300 * (1 + 1e-14 * k) for k in range(8)]))
    assert audit._tau([1.0, 0.9, 0.8, 0.7]) == pytest.approx(-1.0)
    # a trend of relative size just above the cut still counts
    assert audit._tau([1 + 1e-11 * k for k in range(8)]) == pytest.approx(1.0)


def test_two_sided_verdict_reads_the_upper_envelope():
    flat = [1.0] * 6
    # maxima rising with tau 1 by more than 1 / DECAY_FACTOR = 1.25 fail
    verdict, tau_lo, tau_hi = audit._two_sided_verdict(flat, [1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
    assert (verdict, tau_hi) == ("fail", pytest.approx(1.0)) and math.isnan(tau_lo)
    # the same trend rising by less than that factor passes
    verdict, _, tau_hi = audit._two_sided_verdict(flat, [1.0, 1.04, 1.08, 1.12, 1.16, 1.2])
    assert (verdict, tau_hi) == ("pass", pytest.approx(1.0))
    # a falling lower envelope keeps its own fail under flat maxima
    verdict, tau_lo, tau_hi = audit._two_sided_verdict([1.0, 0.8, 0.6, 0.4, 0.2, 0.1], flat)
    assert (verdict, tau_lo) == ("fail", pytest.approx(-1.0)) and math.isnan(tau_hi)


@pytest.mark.xfail(strict=True, reason=(
    "_one_sided_verdict reads level minima that fall towards a positive limit "
    "(Kendall tau -1, last/first below 0.8) as decay"
))
def test_comparison_audits_pass_on_positive_even_germ():
    # every term is positive and even, so f/g is bounded below by the least
    # coefficient; today min_ratio is 4.0029 (Euler) and 1.0006 (f-vs-g)
    outcome = analyze_germ(parse_germ("3*x1^4 + x1^2*x2^2 + 5*x2^6"), AnalysisOptions())
    verdicts = {a.inequality: a.verdict for a in outcome.audits}
    assert verdicts["euler-comparison"] == "pass"
    assert verdicts["f-vs-g"] == "pass"


def test_tau_matches_scipy_kendalltau():
    from scipy.stats import kendalltau

    def scipy_tau(series):
        idx, vals = zip(*((i, m) for i, m in enumerate(series) if math.isfinite(m)))
        return float(kendalltau(idx, vals).statistic)

    # every envelope the audits draw on the catalog, and envelopes with ties,
    # infinities and nans, which real envelopes rarely have
    series = []
    for name in CATALOG:
        for result in analyze_germ(germ(name), AnalysisOptions(samples=64)).audits:
            series += [result.level_minima, result.level_maxima]
    rng = random.Random(3)
    for _ in range(2000):
        series.append([rng.choice([rng.random(), float(rng.randint(0, 3)), math.nan, math.inf])
                       for _ in range(rng.randint(2, 16))])
    compared = 0
    for s in series:
        tau = audit._tau(s)
        if not math.isnan(tau):
            assert tau == scipy_tau(s), s  # the same float, not just close
            compared += 1
    assert compared > 1500


def test_audits_never_import_numpy_random():
    # a fresh interpreter, so that imports made by other tests cannot hide
    # one: the audit directions are computed by lojex, and numpy.random is
    # for the multistart and the declared-sign sampler alone.  No catalog
    # germ reaches the multistart
    argvs = [["analyze", text] for text in CATALOG.values()] + [
        ["verify", "x^2 + y^2", "--theta", "1/2", "--alpha", "2", "--dist", "2"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from lojex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes))\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['analyze', 'x^2 + y^4', '--declare', 'nonnegative'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = run_python("-c", code, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    codes, *flags = proc.stdout.splitlines()
    # exit code 2 is a failed gate (the degenerate catalog germs), not an error
    assert set(json.loads(codes)) <= {0, 2}
    assert flags == ["True False", "True"]


def test_analyze_needs_no_scipy(tmp_path):
    # a fresh interpreter, so that imports made by other tests cannot hide one
    out = tmp_path / "report.json"
    code = (
        "import sys\n"
        "from lojex.cli import main\n"
        f"main(['analyze', '3*x1^4 + x1^2*x2^2 + 5*x2^6', '--json', {str(out)!r}])\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
    audits = json.loads(out.read_text())["audits"]
    assert any(a["kendall_tau"] is not None for a in audits)
