"""What one workload run hands back to the reporter."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from bench.stats import Metric

if TYPE_CHECKING:
    from bench.loadgen import Lane


@dataclass
class Outcome:
    """Metrics by name plus the verdict of the run's correctness checks.

    ``problems`` lists every failed check in words; a run is correct
    only when it is empty.  ``attempted``/``failed`` count the measured
    operations (requests, batches, builds).
    """

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int | None = None) -> None:
        """Record one metric."""
        self.metrics[name] = Metric(float(value), samples)

    def tally(self, lane: "Lane") -> int:
        """Count a finished lane's requests as measured operations, close
        it, and return how many it sent."""
        self.attempted += lane.sent
        self.failed += lane.samples.failed
        lane.close()
        return lane.sent

    def check(self, ok: bool, problem: str) -> None:
        """Record ``problem`` unless ``ok``."""
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        """Whether every check passed."""
        return not self.problems
