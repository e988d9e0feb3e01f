"""Benchmark of lojex: germ throughput end to end, time per module.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; lojex is imported from the src/ directory next to this
one.  One run measures one workload in this process, with no extra
threads, and prints one JSON line last: whether every output passed the
checks in checks.py, the operations attempted and failed, and the metrics.
With --trace 0 these are the end-to-end metrics; with --trace 1 the
per-layer metrics of spans.py, from a run that alternates untraced and
traced passes.  Details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
IMPORT_PROBES = 3
CLI_PASSES = 3
PROBE_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(*args: str) -> float:
    """Seconds a fresh interpreter reports for import (and warm-up)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True, text=True, env=child_env(), timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """The operations of one workload run, their times and their checks."""

    def __init__(self, workload: str, seed: int, traced: bool):
        import corpus
        import ops

        self.ops = ops
        self.workload = workload
        self.cases = corpus.round_cases(workload, seed)
        self.cli_cases = corpus.cli_round(seed)
        self.warmup_case = corpus.WARMUP[workload]
        self.known_degenerate = corpus.KNOWN_DEGENERATE
        self.tag = f"{workload}-seed{seed}-trace{int(traced)}"
        self.json_path = str(OUT / f"{self.tag}.report.json")
        self.tracer = None
        self.times: dict[str, list[float]] = defaultdict(list)
        self.digests: dict[str, str] = {}
        self.summaries: dict[str, dict] = {}
        self.completed: dict[str, int] = defaultdict(int)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.details: dict = {}

    def call(self, case):
        """(seconds, exit code or exception) of one operation."""
        if os.path.exists(self.json_path):
            os.remove(self.json_path)
        if self.tracer is not None:
            self.tracer.germ = case.id
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = self.ops.run_case(case, self.json_path)
        except Exception as exc:  # the run goes on; the operation counts as failed
            out = exc
        return time.perf_counter() - t0, out

    def record(self, case, out, counted: bool = True) -> None:
        """Keep the first round's report for the checks; later rounds must repeat it.

        Uncounted operations (the CLI probes of a traced run) are checked
        but not attempted, so that the failed share is that of the workload.
        """
        if isinstance(out, Exception):
            if counted:
                self.attempted += 1
                self.failed += 1
                self.failures.append(f"{case.id}: {type(out).__name__}: {out}")
            else:
                self.problems.append(f"{case.id}: {type(out).__name__}: {out}")
            return
        if counted:
            self.attempted += 1
            self.completed[case.id] += 1
        if not os.path.exists(self.json_path):
            self.problems.append(f"{case.id}: exit code {out} and no report")
            return
        with open(self.json_path, encoding="utf-8") as fh:
            text = fh.read()
        digest = self.ops.digest(text)
        if case.id not in self.digests:
            self.digests[case.id] = digest
            self.summaries[case.id] = self.ops.summarize(json.loads(text), out)
        elif digest != self.digests[case.id]:
            self.problems.append(f"{case.id}: report differs from the first round's")

    def check(self) -> None:
        """Run the checks on the kept outputs; count the failed operations."""
        import checks

        for case in self.cases + self.cli_cases:
            if case.id not in self.summaries:
                continue
            problems, failures = checks.check_output(
                case.command, case.germ, self.summaries[case.id],
                case.germ in self.known_degenerate,
            )
            self.problems += [f"{case.id}: {p}" for p in problems]
            if failures and case in self.cli_cases:
                self.problems += [f"{case.id}: {f}" for f in failures]
            elif failures:
                self.failed += self.completed[case.id]
                self.failures += [f"{case.id}: {f}" for f in failures]

    def warm_up(self) -> None:
        """One untimed call, which pays the lazy imports."""
        self.ops.run_case(self.warmup_case, self.json_path)

    def one_pass(self) -> float:
        """All cases once; returns the summed operation time."""
        total = 0.0
        for case in self.cases:
            dt, out = self.call(case)
            total += dt
            self.times[case.id].append(dt)
            self.record(case, out)
        return total

    def cli_pass(self) -> float:
        """The CLI commands once, lojex.cli.main in-process; the summed time."""
        total = 0.0
        for case in self.cli_cases:
            dt, out = self.call(case)
            total += dt
            self.record(case, out, counted=False)
        return total

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics from whole untraced rounds.

    The rounds run until their own time reaches `seconds`.  The set-up
    probes run between rounds, spread over the same window, so that they
    see the same phases of the machine's speed, but their time is not
    taken from the rounds.
    """
    run.warm_up()
    setup: list[float] = []
    elapsed = 0.0
    rounds = 0
    while rounds == 0 or elapsed < seconds:
        due = 1 + int((SETUP_PROBES - 1) * elapsed / seconds)
        while len(setup) < min(due, SETUP_PROBES):
            setup.append(probe("setup", run.workload))
        t0 = time.perf_counter()
        run.one_pass()
        elapsed += time.perf_counter() - t0
        rounds += 1
    while len(setup) < SETUP_PROBES:
        setup.append(probe("setup", run.workload))
    peak_rss = run.ops.self_peak_rss_mb()
    run.check()
    medians = {cid: statistics.median(ts) for cid, ts in run.times.items()}
    succeeded = (run.attempted - run.failed) / rounds
    run.details = {"rounds": rounds, "rounds_s": elapsed, "setup_samples_s": setup, "median_s": medians,
                   "samples_s": run.times}
    return {
        "germs_per_s": (succeeded / sum(medians.values()), "1/s"),
        "latency_p50_ms": (statistics.median(medians.values()) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def measure_layers(run: Run, seconds: float) -> dict:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    import spans

    imports = [probe("import") for _ in range(IMPORT_PROBES)]
    run.warm_up()
    tracer = spans.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run.one_pass())
        tracer.reset_counts()
        first_span = len(tracer.spans)
        tracer.install()
        run.tracer = tracer
        try:
            traced.append(run.one_pass())
        finally:
            run.tracer = None
            tracer.uninstall()
        layers.append(tracer.pass_metrics(first_span))
    cli = [run.cli_pass() for _ in range(CLI_PASSES)]
    run.check()
    metrics: dict[str, tuple[float, str]] = {}
    for name in layers[0]:
        unit = "ms" if name.endswith("_ms") else ("B" if name == "report.bytes" else "count")
        metrics[name] = (statistics.median(p[name] for p in layers), unit)
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    metrics["cli.main_ms"] = (statistics.median(cli) * 1e3, "ms")
    base = statistics.median(plain)
    metrics["trace.overhead_pct"] = ((statistics.median(traced) - base) / base * 100.0, "%")
    run.details = {"passes": len(traced), "plain_pass_s": plain, "traced_pass_s": traced,
                   "import_samples_s": imports, "cli_pass_s": cli, "spans": tracer.self_times()}
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lojex" / "__init__.py").is_file():
        print(f"error: the lojex sources are not at {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {corpus.WORKLOADS}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # compile once here, so no interpreter below pays for it
    compileall.compile_dir(str(SRC / "lojex"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    run = Run(args.workload, args.seed, bool(args.trace))
    metrics = measure_layers(run, args.seconds) if args.trace else measure(run, args.seconds)
    if os.path.exists(run.json_path):
        os.remove(run.json_path)
    result = run.result(metrics)
    with open(OUT / f"{run.tag}.result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": run.problems, "failures": run.failures,
                   "details": run.details}, fh)
    for line in (run.problems + run.failures)[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
