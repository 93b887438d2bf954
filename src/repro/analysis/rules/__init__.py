"""The invariant rules (REP001–REP006, REP008, REP009) and the :class:`Rule` interface."""

from repro.analysis.rules.async_blocking import AsyncBlockingRule
from repro.analysis.rules.base import Rule
from repro.analysis.rules.corruption import SwallowedCorruptionRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.durability import DurableWriteRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.registry_sync import RegistrySyncRule

__all__ = [
    "Rule",
    "DurableWriteRule",
    "LockDisciplineRule",
    "RegistrySyncRule",
    "DeterminismRule",
    "SwallowedCorruptionRule",
    "AsyncBlockingRule",
]
