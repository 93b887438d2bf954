"""Sizes, rates and the metric specification shared by every workload.

``BENCHMARK.json`` is the single source of metric names, units and
bounds; this module only reads it.  Everything a workload is sized by
lives in :class:`Scale`, so the README can state each size next to the
program setting it is meant to exceed or fit (table blocks vs
``--cache-blocks``, records vs ``--flush-records``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
WORK_ROOT = Path(__file__).resolve().parent / ".work"

WORKLOADS = ("build_batch", "serve_hot", "serve_uniform", "live_mixed")
DEFAULT_SEED = 2022
#: The one world every run generates (see bench/world.py for why it is fixed).
WORLD_SEED = 2022


@dataclass(frozen=True)
class Scale:
    """Everything that sizes a run except its length (``--seconds``)."""

    # The shared world W: WorldConfig(seed, n_vessels, days, report_interval_s).
    vessels: int
    days: float
    interval_s: float
    resolution: int = 6
    # build_batch: `repro build` repeats until --seconds elapsed, at least this often.
    min_builds: int = 3
    # serve_hot: working set (hot_cells) fits the block cache (hot_cache_blocks).
    hot_cells: int = 64
    hot_cache_blocks: int = 256
    # serve_uniform: every cell of the table against a cache far smaller than it.
    uniform_cache_blocks: int = 32
    multi_get_keys: int = 16
    connections: int = 2
    warmup_s: float = 1.0
    # serve_hot open-loop phases: (req/s, seconds); the last one is reported.
    paced_phases: tuple[tuple[float, float], ...] = ((300.0, 2.0), (600.0, 5.0))
    # live_mixed: records ingested = ingest_nominal_rate × --seconds, in
    # ingest_batch-record frames; flush policy fixed and stated.
    ingest_nominal_rate: int = 1000
    ingest_batch: int = 64
    flush_records: int = 1200
    tier_fanout: int = 4
    reader_rate: float = 100.0
    # Correctness sample and probe sizes.
    check_keys: int = 200
    probe_ops: int = 400
    reopen_repeats: int = 30


#: The scale every recorded number uses.
FULL = Scale(vessels=12, days=10.0, interval_s=600.0)
#: Smoke scale (`--quick`, bench/tests): shorter phases on a tiny world.
#: Numbers are not comparable with FULL.
QUICK = Scale(
    vessels=10,
    days=6.0,
    interval_s=900.0,
    min_builds=2,
    warmup_s=0.2,
    paced_phases=((100.0, 0.5), (200.0, 1.0)),
    flush_records=256,
    check_keys=40,
    probe_ops=60,
    reopen_repeats=6,
)
QUICK_SECONDS = 2


@dataclass(frozen=True)
class MetricSpec:
    """One metric as ``BENCHMARK.json`` declares it."""

    name: str
    unit: str
    better: str
    bound: float | None = None


@dataclass(frozen=True)
class Spec:
    """The parsed ``BENCHMARK.json``."""

    run_seconds: int
    workloads: dict[str, str]
    end_to_end: dict[str, MetricSpec]
    per_layer: dict[str, MetricSpec]

    def metric(self, name: str) -> MetricSpec | None:
        """The declaration of ``name``, end-to-end or per-layer."""
        return self.end_to_end.get(name) or self.per_layer.get(name)


def load_spec() -> Spec:
    """Read ``BENCHMARK.json`` (names, units, bounds, run length)."""
    raw = json.loads(SPEC_PATH.read_text())
    return Spec(
        run_seconds=int(raw["run_seconds"]),
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end={
            m["name"]: MetricSpec(m["name"], m["unit"], m["better"], m["bound"])
            for m in raw["end_to_end"]
        },
        per_layer={
            m["name"]: MetricSpec(m["name"], m["unit"], m["better"])
            for m in raw["per_layer"]
        },
    )


def require_repro() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero.

    The harness has no copy of the program: in a directory that holds
    only the benchmark it must fail, not report numbers.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
