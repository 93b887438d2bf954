"""``python -m bench``: run the workloads, print the metrics, check the outputs.

::

    python -m bench run                         # every workload, end-to-end metrics
    python -m bench run --workload serve_hot    # one workload (repeatable flag)
    python -m bench run --trace                 # per-layer metrics + bench/results/trace_*.json
    python -m bench run --quick                 # smoke: tiny world, short phases
    python -m bench repeat --sets 2             # repeatability gate against BENCHMARK.json bounds

The benchmark driver appends ``--workload W --seed N --seconds S --trace
0|1`` to ``python3 -m bench run`` and reads the last line of standard
output: one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero unless every correctness check
passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.config import (
    DEFAULT_SEED,
    FULL,
    QUICK,
    QUICK_SECONDS,
    RESULTS_DIR,
    ROOT,
    WORKLOADS,
    Scale,
    Spec,
    load_spec,
    require_repro,
)
from bench.result import Outcome

#: One workload run must end well inside the driver's 180 s limit.
RUN_TIMEOUT_S = 170
#: `repeat` compares sets by the median of this many runs per workload,
#: as the driver compares commits: one run's tail latency can be thrown
#: several-fold by a single stall, a median of three cannot.
RUNS_PER_SET = 3


def run_workload(
    name: str, scale: Scale, seed: int, seconds: float, traced: bool
) -> Outcome:
    """Run one workload in a fresh session; children and temp files are
    gone when this returns, however it returns."""
    from bench import build_batch, live_mixed, serving
    from bench.procs import Session
    from bench.tracing import Tracer

    tracer = Tracer() if traced else None
    with Session() as session:
        if name == "build_batch":
            outcome = build_batch.run(session, scale, seconds, tracer)
        elif name == "live_mixed":
            outcome = live_mixed.run(session, scale, seed, seconds, tracer)
        else:
            outcome = serving.run(session, scale, seed, seconds, tracer, name == "serve_hot")
    outcome.put("failed_share", outcome.failed / max(1, outcome.attempted))
    outcome.check(
        outcome.failed == 0,
        f"{outcome.failed} of {outcome.attempted} operations failed or were refused",
    )
    if tracer is not None:
        tracer.dump(
            RESULTS_DIR / f"trace_{name}.json",
            {"workload": name, "seed": seed, "seconds": seconds},
        )
    return outcome


def validate(spec: Spec, outcome: Outcome, traced: bool) -> None:
    """Every measured metric must be declared in ``BENCHMARK.json`` and
    an untraced run must have measured every end-to-end one."""
    for name in outcome.metrics:
        if spec.metric(name) is None:
            outcome.problems.append(f"metric {name} is not in BENCHMARK.json")
    if not traced:
        for name in spec.end_to_end:
            if name not in outcome.metrics:
                outcome.problems.append(f"end-to-end metric {name} was not measured")


def contract_line(spec: Spec, outcome: Outcome, traced: bool) -> str:
    """The driver's result object: every end-to-end metric untraced,
    every per-layer metric traced.  A layer a workload never calls
    reports 0 — it did no work there."""
    declared = spec.per_layer if traced else spec.end_to_end
    metrics = {}
    for name, metric in declared.items():
        measured = outcome.metrics.get(name)
        metrics[name] = {
            "value": 0.0 if measured is None else measured.value,
            "unit": metric.unit,
        }
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": max(1, outcome.attempted),
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )


def print_table(spec: Spec, name: str, outcome: Outcome, traced: bool) -> None:
    """Every measured metric by name, with unit, sample count and bound."""
    print(f"\n== {name} ({'traced' if traced else 'untraced'}): {spec.workloads[name]}")
    for metric_name, metric in outcome.metrics.items():
        declared = spec.metric(metric_name)
        if declared is None or (traced and metric_name in spec.end_to_end):
            continue  # end-to-end numbers come from untraced runs only
        samples = "" if metric.samples is None else f"n={metric.samples}"
        bound = "" if declared.bound is None else f"bound {declared.bound:.0%} {declared.better}"
        print(f"  {metric_name:<46}{metric.value:>14.4f} {declared.unit:<7}{samples:<10}{bound}")
    for problem in outcome.problems:
        print(f"  INCORRECT: {problem}")


def _on_timeout(signum: int, frame: object) -> None:
    raise TimeoutError(f"workload exceeded {RUN_TIMEOUT_S}s")


def _on_terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: one or more workloads, tables plus the contract line."""
    spec = load_spec()
    scale = QUICK if args.quick else FULL
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec.run_seconds)
    traced = bool(args.trace)
    names = args.workload or list(WORKLOADS)
    results = {}
    lines = []
    for name in names:
        signal.alarm(RUN_TIMEOUT_S)
        try:
            outcome = run_workload(name, scale, args.seed, seconds, traced)
        finally:
            signal.alarm(0)
        validate(spec, outcome, traced)
        print_table(spec, name, outcome, traced)
        lines.append(contract_line(spec, outcome, traced))
        results[name] = {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "metrics": {
                metric_name: {
                    "value": metric.value,
                    "unit": spec.metric(metric_name).unit,
                    "samples": metric.samples,
                }
                for metric_name, metric in outcome.metrics.items()
                if spec.metric(metric_name) is not None
            },
        }
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "quick": args.quick,
             "traced": traced, "workloads": results}, indent=2) + "\n")
    print()
    for line in lines:
        print(line)
    return 0 if all(result["correct"] for result in results.values()) else 1


def _driver_runs(workload: str, seconds: int) -> tuple[dict[str, list[float]], int]:
    """``RUNS_PER_SET`` untraced runs at the default seed, exactly as the
    driver makes them.  Returns each end-to-end metric's values and how
    many runs failed (non-zero exit, timeout)."""
    series: dict[str, list[float]] = {}
    failures = 0
    for _ in range(RUNS_PER_SET):
        started = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "bench", "run", "--workload", workload,
                 "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S + 10,
            )
        except subprocess.TimeoutExpired as exc:
            print(f"{workload}: FAILED: {exc}", flush=True)
            failures += 1
            continue
        if done.returncode != 0:
            print(f"{workload}: FAILED, exit {done.returncode}\n"
                  f"{done.stdout}\n{done.stderr}", flush=True)
            failures += 1
            continue
        print(f"{workload}: {time.perf_counter() - started:.1f}s", flush=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for metric_name, metric in result["metrics"].items():
            series.setdefault(metric_name, []).append(metric["value"])
    return series, failures


def cmd_repeat(args: argparse.Namespace) -> int:
    """``repeat``: sets of runs back-to-back; fail when the sets' medians
    disagree by more than a metric's bound."""
    spec = load_spec()
    values: dict[tuple[str, str], list[float]] = {}
    failures = 0
    for index in range(args.sets):
        print(f"-- set {index + 1}", flush=True)
        for name in WORKLOADS:
            series, failed = _driver_runs(name, spec.run_seconds)
            failures += failed
            for metric_name, runs in series.items():
                values.setdefault((name, metric_name), []).append(statistics.median(runs))
    print(f"\n{'workload':<15}{'metric':<26}{'min':>12}{'max':>12}{'differ':>9}{'bound':>8}")
    for (name, metric_name), series in values.items():
        differ = (max(series) - min(series)) / min(series)
        bound = spec.end_to_end[metric_name].bound
        verdict = "" if differ <= bound else "  FAIL"
        failures += differ > bound
        print(f"{name:<15}{metric_name:<26}{min(series):>12.4f}{max(series):>12.4f}"
              f"{differ:>9.1%}{bound:>8.0%}{verdict}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and dispatch."""
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="traced run: per-layer metrics instead of end-to-end")
    run.add_argument("--quick", action="store_true",
                     help="smoke run on a tiny world; numbers not comparable")
    run.add_argument("--out", type=Path, default=None, help="also write results as JSON")
    run.set_defaults(handler=cmd_run)

    repeat = commands.add_parser("repeat", help="repeatability gate")
    repeat.add_argument("--sets", type=int, default=2)
    repeat.set_defaults(handler=cmd_repeat)

    args = parser.parse_args(argv)
    require_repro()
    signal.signal(signal.SIGALRM, _on_timeout)
    signal.signal(signal.SIGTERM, _on_terminate)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
