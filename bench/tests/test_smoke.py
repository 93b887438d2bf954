"""Smoke test: every workload at ``--quick`` scale, every named metric.

Outside tier-1 ``testpaths`` on purpose: ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.__main__ import contract_line, run_workload, validate
from bench.config import QUICK, QUICK_SECONDS, ROOT, WORK_ROOT, WORKLOADS, load_spec, require_repro

require_repro()
SPEC = load_spec()


def servers_of_this_checkout() -> list[int]:
    """Live ``repro serve`` children of this checkout's harness: their
    working directory is (or was) a scratch dir under ``bench/.work``.
    A zombie has neither a working directory nor a command line."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cwd = os.readlink(entry / "cwd")
                argv = (entry / "cmdline").read_bytes().split(b"\0")
            except OSError:
                continue
            if cwd.startswith(str(WORK_ROOT)) and b"serve" in argv:
                found.append(int(entry.name))
    return found


@pytest.fixture(scope="module")
def traced_outcomes():
    """One traced quick run per workload (a traced run measures the
    end-to-end metrics too; only the report leaves them out)."""
    return {
        name: run_workload(name, QUICK, seed=7, seconds=QUICK_SECONDS, traced=True)
        for name in WORKLOADS
    }


def test_workloads_match_the_specification():
    assert tuple(SPEC.workloads) == WORKLOADS
    assert "setup_s" in SPEC.end_to_end
    assert all(0 < metric.bound <= 0.25 for metric in SPEC.end_to_end.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_are_correct_and_every_end_to_end_metric_is_measured(traced_outcomes, name):
    outcome = traced_outcomes[name]
    validate(SPEC, outcome, traced=False)
    assert outcome.problems == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    for metric_name in SPEC.end_to_end:
        value = outcome.metrics[metric_name].value
        assert math.isfinite(value) and value > 0, metric_name


def test_every_per_layer_metric_is_measured_by_some_workload(traced_outcomes):
    measured = set().union(*(outcome.metrics for outcome in traced_outcomes.values()))
    assert set(SPEC.per_layer) <= measured, sorted(set(SPEC.per_layer) - measured)
    for outcome in traced_outcomes.values():
        for metric_name, metric in outcome.metrics.items():
            assert SPEC.metric(metric_name).unit, metric_name
            assert math.isfinite(metric.value), metric_name


def test_predicted_contrasts_hold(traced_outcomes):
    hot = traced_outcomes["serve_hot"].metrics
    uniform = traced_outcomes["serve_uniform"].metrics
    assert hot["inventory.block_cache.hit_ratio"].value >= 0.95
    assert uniform["inventory.block_cache.hit_ratio"].value < hot[
        "inventory.block_cache.hit_ratio"
    ].value
    assert uniform["inventory.block_cache.evictions"].value > 0
    live = traced_outcomes["live_mixed"].metrics
    assert live["inventory.live.flushes"].value >= 2
    assert live["server.metrics.requests"].value > 0


def test_contract_lines_carry_exactly_the_declared_metrics(traced_outcomes):
    outcome = traced_outcomes["build_batch"]
    for traced, declared in ((False, SPEC.end_to_end), (True, SPEC.per_layer)):
        result = json.loads(contract_line(SPEC, outcome, traced))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(declared)
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_driver_invocation_prints_the_result_last_and_leaves_nothing_behind():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--workload", "serve_hot",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(SPEC.end_to_end)
    assert not WORK_ROOT.exists()
    assert servers_of_this_checkout() == []


def test_a_harness_killed_outright_takes_its_server_with_it():
    harness = subprocess.Popen(
        [sys.executable, "-m", "bench", "run", "--quick", "--workload", "serve_hot",
         "--seconds", "30"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not servers_of_this_checkout():
            assert harness.poll() is None, "the run ended before it started a server"
            assert time.monotonic() < deadline, "no server came up"
            time.sleep(0.05)
        harness.kill()  # SIGKILL: no cleanup code runs
        harness.wait(timeout=10)
        deadline = time.monotonic() + 10
        while servers_of_this_checkout() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert servers_of_this_checkout() == []
    finally:
        harness.kill()
        harness.wait(timeout=10)
        shutil.rmtree(WORK_ROOT, ignore_errors=True)  # what the killed run could not remove
