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
    lower_envelope_points_per_bin, ranking_i_rho, ratio_audit_reference,
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


def _ranking_rows(family, n: int) -> np.ndarray:
    """L2's rows after the run's lead rows: the normalized ranking probes."""
    rows = np.array(ranking_probes(family, n), dtype=float).reshape(-1, n)
    return rows / np.abs(rows).max(axis=1, keepdims=True)


def _lead(plan: SamplePlan, n: int) -> int:
    """The count of the random and axis rows that begin every pool of `plan`."""
    return len(audit._random_directions(plan.seed, plan.directions_per_radius, n)) + 2 * n


# the gated germs run all five audits; the others have odd exponents and mixed
# signs, which the sign parity of the log-space terms must get right
@pytest.mark.parametrize("name", GATED_NONNEG + ["cusp", "inert_axis", "quartic_xyz"])
def test_log_space_envelopes_match_pointwise_loop(name, monkeypatch):
    pools = _recorded_pools(monkeypatch)
    model = germ(name)
    outcome = analyze_germ(model, AnalysisOptions(samples=64))
    hull = build_polyhedron(support(model))
    assert len(outcome.audits) == (5 if name in GATED_NONNEG else 2)
    # the audits read the run's sample, its one pool; L2 reads the pool's
    # random and axis rows, then the normalized ranking probes
    [shared] = pools
    lead = _lead(SamplePlan(directions_per_radius=64), model.n)
    l2_rows = np.vstack([shared[:lead], _ranking_rows(outcome.report.transversal, model.n)])
    for result in outcome.audits:
        dirs = l2_rows if result.inequality == "L2" else shared
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
    # one pool per run: L1, L0, L2, euler-comparison and f-vs-g all read it
    [shared] = pools
    ranking = _ranking_rows(outcome.report.transversal, model.n)
    # each row of log|f| is evaluated once: the run's pool, then L2's ranking rows
    assert [len(rows) for rows in log_f_rows] == [len(shared), len(ranking)]
    # euler-comparison and f-vs-g read one log g_Gamma
    assert log_g_calls == 1
    # each partial is evaluated once, for L1 and the Euler audit alike; the
    # Euler audit evaluates no polynomial but the log g_Gamma it shares
    for i in range(model.n):
        assert sum(poly == poly_diff(model.poly(), i) for poly in evaluated) == 1, i
    assert in_euler == [vertex_sum]


def test_L2_evaluates_only_its_ranking_rows(monkeypatch):
    # L2 evaluates log|d| and log|f| on its ranking rows alone; on the lead
    # rows it reads the run's arrays, whichever audit read them first, and
    # its sides are those of a pool of the lead rows and its ranking rows
    model = germ("quartic_mix")
    n, poly, family = model.n, model.poly(), _family(CATALOG["quartic_mix"])
    plan = SamplePlan(seed=9, directions_per_radius=64)
    lead, ranking, log_r = _lead(plan, n), _ranking_rows(family, n), np.log(plan.radii)
    pool = audit.direction_pool(plan, n, ranking_probes(family, n))
    log_pool = audit._log_abs(pool)
    want_f = audit._log_poly(poly, audit._pool_table(pool, log_pool), log_r)
    members = [sorted(j) for j in family.lambda_hitting]
    want_dist = np.min([log_pool[:, j].max(axis=1) for j in members], axis=0) + log_r[:, None]
    tables, evaluated, sides = [], [], []
    originals = audit._pool_table, audit._log_poly, audit._ratio_audit
    monkeypatch.setattr(
        audit, "_pool_table", lambda d, log_d: tables.append((d, log_d)) or originals[0](d, log_d)
    )
    monkeypatch.setattr(
        audit, "_log_poly", lambda p, t, r: evaluated.append(len(t.log_d)) or originals[1](p, t, r)
    )
    monkeypatch.setattr(
        audit, "_ratio_audit", lambda *args: sides.append(args[3:5]) or originals[2](*args)
    )
    for read_first in (False, True):
        sample = Sample(model, plan, diagonal_probe((1, 3)))
        if read_first:
            audit_L1(sample, 0.75)  # an audit before L2 reads log|f|
        tables.clear(), evaluated.clear(), sides.clear()
        audit_L2(sample, 4, family)
        # the run's table is built when L2 is the first to read it
        rows = [(sample.dirs, sample.log_dirs)] * (not read_first)
        rows.append((ranking, audit._log_abs(ranking)))
        assert [(d.tobytes(), log_d.tobytes()) for d, log_d in tables] == [
            (d.tobytes(), log_d.tobytes()) for d, log_d in rows
        ]
        assert evaluated == [len(sample.dirs)] * (not read_first) + [len(ranking)]
        [(log_f, log_dist)] = sides
        assert log_f[:, :lead].tobytes() == sample.log_f[:, :lead].tobytes()
        assert log_f.tobytes() == want_f.tobytes()
        assert log_dist.tobytes() == want_dist.tobytes()


def test_verify_draws_only_the_pools_its_audits_read(monkeypatch, capsys):
    # every verify run draws one pool, the run's; L2 alone evaluates log|f|
    # on it, its hat-diagonal rows included, and then on its ranking rows
    pools = _recorded_pools(monkeypatch)
    rows = []
    original = audit._log_poly
    monkeypatch.setattr(
        audit, "_log_poly", lambda poly, table, log_r: rows.append(len(table.log_d))
        or original(poly, table, log_r)
    )
    ranking = _ranking_rows(_family("x^2 + y^2"), 2)
    for flags in (["--dist", "2"], ["--theta", "1/2", "--dist", "2"]):
        pools.clear()
        rows.clear()
        assert main(["verify", "x^2 + y^2", "--samples", "64", *flags]) == 0
        assert len(pools) == 1, flags
        if flags[0] == "--dist":
            assert rows == [len(pools[0]), len(ranking)]
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

    def recording(predictor, response, finite):
        # the audit reads the predictor's finiteness off its kept rows
        assert np.array_equal(finite, np.isfinite(predictor) & np.isfinite(response))
        clouds.append((predictor, response))
        return original(predictor, response, finite)

    monkeypatch.setattr(audit, "lower_envelope_slope", recording)
    for text in [*CATALOG.values(), "x^90 + y^90", "x^40*y^40 + x^100 + y^100"]:
        analyze_germ(parse_germ(text), AnalysisOptions(samples=64, force=True))
    monkeypatch.undo()
    return clouds


def test_lower_envelope_slope_matches_per_bin_loop(monkeypatch):
    audit_clouds = _audit_clouds(monkeypatch)
    assert len(audit_clouds) >= 40
    for x, y in [*_slope_clouds(), *audit_clouds]:
        finite = np.isfinite(x) & np.isfinite(y)
        got = audit._envelope_points(x[finite], y[finite])
        want = lower_envelope_points_per_bin(x, y)
        slope = lower_envelope_slope(x, y, finite)
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
    """(n, rows, table of the rows, whether the table is that of |d|), with
    random rows, axis rows and zero coordinates."""
    for n in (1, 2, 3):
        dirs = np.vstack([audit._random_directions(3, 40, n), audit.axis_probes(n)])
        dirs[::7, 0] = 0.0
        table = audit._pool_table(dirs, audit._log_abs(dirs))
        yield n, dirs, table, False
        yield n, dirs, table._replace(negative=None), True


def test_one_term_log_poly_is_the_log_sum_exp_route():
    log_r = np.log(_default_radii())
    deep = np.log(_default_radii(1e-1, 1e-4, 16))
    monomials = {
        (e, c) for text in CATALOG.values() for e, c in parse_text(text).poly().items()
    }
    for n, dirs, table, absolute in _tables():
        cases = [({e: c}, log_r) for e, c in monomials if len(e) == n]
        cases += [({(90,) + (0,) * (n - 1): 1}, deep), ({(1,) * n: Fraction(-3, 7)}, log_r)]
        cases += [({(0,) * n: 2}, log_r), ({(2,) * n: -1}, log_r)]
        for poly, radii in cases:
            got = audit._log_poly(poly, table, radii)
            want = log_poly_logsumexp(poly, dirs, radii, absolute)
            assert got.tobytes() == want.tobytes(), poly
        # and the general route is the oracle's on several terms
        many = {e: c for e, c in monomials if len(e) == n}
        if len(many) > 1:
            got = audit._log_poly(many, table, log_r)
            assert got.tobytes() == log_poly_logsumexp(many, dirs, log_r, absolute).tobytes()


def test_bitmask_masks_match_the_boolean_products():
    # the zero and sign masks come from one byte a row and a term; the oracle
    # takes boolean masks of the rows and reduces them by matrix products.
    # Every coordinate position is zero on some rows and negative on others,
    # and the polynomials mix odd and even exponents and coefficient signs
    rng = np.random.default_rng(23)
    log_r = np.log(_default_radii())
    compared = {True: 0, False: 0}
    for n in range(1, 9):
        dirs = rng.uniform(-1.0, 1.0, (120, n))
        dirs[rng.random(dirs.shape) < 0.2] = 0.0
        for i in range(n):
            dirs[i, :] = -0.5
            dirs[i, i] = 0.0
            dirs[n + i, :] = 0.0
            dirs[n + i, i] = -1.0
        dirs = np.vstack([dirs, audit.axis_probes(n)])
        table = audit._pool_table(dirs, audit._log_abs(dirs))
        assert all(((table.zero >> i) & 1).any() and ((table.negative >> i) & 1).any()
                   for i in range(n))
        for k in range(30):
            terms = int(rng.integers(2, 8))
            exps = {tuple(int(e) for e in rng.integers(0, 6, n)) for _ in range(terms)}
            if k % 3 == 0:  # every exponent even: no term takes a sign from d
                exps = {tuple(2 * (e // 2) for e in exp) for exp in exps}
            signed = k % 2 == 1
            poly = {e: Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
                    * (-1 if signed and rng.random() < 0.5 else 1) for e in exps}
            for absolute in (False, True):
                t = table._replace(negative=None) if absolute else table
                got = audit._log_poly(poly, t, log_r)
                want = log_poly_logsumexp(poly, dirs, log_r, absolute)
                assert got.tobytes() == want.tobytes(), (n, poly, absolute)
                compared[len(poly) > 1] += 1
    assert compared[True] > 400


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


def _same_result(got, want) -> bool:
    """Every field equal bit for bit, nan equal to nan: repr round-trips every
    float and names a numpy scalar type, so equal reprs are equal values."""
    return all(repr(getattr(got, f)) == repr(getattr(want, f)) for f in got._record_fields)


def _seeded_ratio_inputs():
    """(name, exponent, plan, log|LHS|, log|RHS|, scale, two_sided, forced)
    with every kind of left-out sample and extreme ratio, one kind per draw."""
    rng = np.random.default_rng(37)
    for k in range(200):
        levels, rows = int(rng.integers(1, 20)), int(rng.integers(1, 90))
        outer = float(rng.uniform(1e-2, 0.5))
        plan = SamplePlan(radii=tuple(np.geomspace(outer, outer * 10.0 ** -rng.uniform(1, 5),
                                                   levels).tolist()), seed=k)
        log_r = np.log(plan.radii)[:, None]
        log_lhs = rng.normal(-5.0, 4.0, (levels, rows)) + log_r
        log_rhs = rng.normal(-5.0, 4.0, (levels, rows)) + 2.0 * log_r
        kind = k % 8
        if kind == 1:  # some columns have RHS = 0 at every level
            log_rhs[:, rng.integers(0, rows, int(rng.integers(1, 4)))] = -np.inf
        elif kind == 2:  # one level and scattered samples are left out
            log_rhs[int(rng.integers(0, levels))] = -np.inf
            log_rhs[rng.random((levels, rows)) < 0.05] = -np.inf
        elif kind == 3:  # every sample is left out
            log_rhs[:] = -np.inf
        elif kind == 4:  # LHS = 0 on scattered samples, a column and a level
            log_lhs[rng.random((levels, rows)) < 0.1] = -np.inf
            log_lhs[:, int(rng.integers(0, rows))] = -np.inf
            log_lhs[int(rng.integers(0, levels))] = -np.inf
        elif kind == 5:  # ratios past the float range, both ways
            log_lhs[rng.random((levels, rows)) < 0.3] += 900.0
            log_lhs[rng.random((levels, rows)) < 0.3] -= 900.0
        elif kind == 6:  # an envelope flat up to rounding
            log_lhs = log_rhs + 0.25 + rng.normal(0.0, 1e-14, (levels, rows))
        elif kind == 7:  # a ratio that decays with the radius
            log_lhs = log_rhs + 3.0 * log_r + rng.exponential(1.0, (levels, rows))
        scale = (1.0, 0.5, 0.75, 0.9)[k % 4]
        yield "L1", scale, plan, log_lhs, log_rhs, scale, k % 3 == 0, k % 5 == 0


def test_ratio_audit_is_the_loop_tail_bit_for_bit(monkeypatch):
    # the array Kendall tau, the lean level bounds, the arange bin edges and
    # the predictor's finiteness read off the kept rows give the AuditResult
    # of the tail that counted pairs in Python and masked every level
    results = []
    for args in _seeded_ratio_inputs():
        results.append(audit._ratio_audit(*args))
        assert _same_result(results[-1], ratio_audit_reference(*args)), results[-1]
    # the draws reach an empty audit, ratios past the float range and failures
    assert sum(math.isnan(r.min_ratio) for r in results) >= 25
    assert sum(math.inf in r.level_maxima for r in results) >= 10
    assert sum(r.verdict == "fail" for r in results) >= 10
    # and every audit of the catalog and the high-degree germs
    calls = []
    original = audit._ratio_audit

    def recording(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(audit, "_ratio_audit", recording)
    for text in [*CATALOG.values(), "x^90 + y^90", "x^40*y^40 + x^100 + y^100"]:
        for force in (False, True):
            analyze_germ(parse_germ(text), AnalysisOptions(force=force))
    monkeypatch.undo()
    assert len(calls) >= 80
    for args, got in calls:
        assert _same_result(got, ratio_audit_reference(*args)), (args[0], got)


def test_bin_edges_are_linspace():
    rng = np.random.default_rng(43)
    spans = [(0.0, 5e-324), (0.0, 1e-310), (-1e-320, 1e-320), (1.0, np.nextafter(1.0, 2.0)),
             (-1e308, 1e308), (-3.0, 0.0)]
    for _ in range(20_000):
        lo = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12, 12)
        spans.append((lo, lo + 10.0 ** rng.uniform(-14, 14)))
    for lo, hi in spans:
        if hi > lo:
            # a span past the float range makes inf and nan edges either way
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.linspace(lo, hi, audit.SLOPE_BINS + 1)
                got = audit._bin_edges(lo, hi)
            assert got.tobytes() == want.tobytes(), (lo, hi)


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
