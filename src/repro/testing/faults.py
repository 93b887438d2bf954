"""Deterministic fault injection for the storage layer.

Crash-safety claims are worthless untested, and testing them with real
power cuts does not fit in CI.  This harness replays the failure modes a
long-running AIS archive actually meets — torn writes, full disks, read
errors, bit rot, crashes between operations — *deterministically*: a
:class:`FaultPlan` names exact operation indices ("the 3rd write",
"the 1st rename"), so every red run replays byte-for-byte.

It works by patching the storage layer's filesystem seam
(:mod:`repro.inventory.fsio`): every ``open``/``write``/``read``/
``rename``/``fsync`` the SSTable writer and reader perform is counted,
and when a counter hits a planned fault index the fault fires:

- ``torn``   (write)  — a prefix of the buffer reaches the file, then
  the process "dies" (:class:`SimulatedCrash`); the cut point derives
  from the plan's seed;
- ``short``  (write)  — a prefix of the buffer reaches the file but the
  call *reports full success* and the process lives on (the
  short-append a flaky disk or interposing layer produces): whatever
  checks durability later must catch the hole.  Combined with a later
  ``crash`` it is the WAL matrix's short-append-then-die scenario;
- ``enospc`` (write)  — ``OSError(ENOSPC)``, the classic full disk;
- ``crash``  (write/rename/fsync/unlink) — :class:`SimulatedCrash`
  *before* the operation takes effect.  Crash-before-rename is the
  canonical atomicity probe; crash-before-unlink is the WAL's
  crash-between-flush-publish-and-segment-retire window — the flushed
  table is durably committed but its WAL segments were never deleted,
  and reopening must not replay (double-count) them;
- ``dropped``(fsync)  — the fsync silently does nothing (a lying disk
  or an eat-my-data layer).  The process lives on believing the data
  durable; a later ``crash`` models fsync-dropped-then-crash.  Because
  the harness cannot un-write the OS page cache, campaigns use this to
  assert recovery stays *consistent* when durability is betrayed (no
  corruption, no partial records), not to assert the lost-ack itself;
- ``eio``    (read)   — ``OSError(EIO)``, dying media;
- ``bitflip``(read)   — one bit of the returned data flips silently
  (position derives from the seed): the misread checksums must catch.

After a crash fires, the harness freezes the filesystem: subsequent
writes, renames and unlinks become no-ops (a dead process cleans
nothing up), which is exactly the on-disk state a recovery path must
cope with.

Typical campaign::

    counts = record_ops(build)          # how many ops does a build do?
    for index in range(counts["write"]):
        plan = FaultPlan.single("write", index, "torn", seed=7)
        with FaultInjector(plan) as injector:
            try:
                build()
            except (SimulatedCrash, OSError):
                pass
        assert_table_absent_or_valid()  # never a partial at a final path
"""

from __future__ import annotations

import errno
import os
import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.inventory import fsio

#: Operation kinds the harness counts.
OPS = ("write", "read", "rename", "fsync", "unlink")

#: Which fault kinds are meaningful for which operation.
VALID_KINDS = {
    "write": frozenset({"torn", "short", "enospc", "crash"}),
    "read": frozenset({"eio", "bitflip"}),
    "rename": frozenset({"crash"}),
    "fsync": frozenset({"crash", "dropped"}),
    "unlink": frozenset({"crash"}),
}


class SimulatedCrash(RuntimeError):
    """The process 'died' at an injected fault point.  Code under test
    must treat this like a real crash: whatever was not yet durable is
    gone, and recovery starts from the on-disk state alone."""


@dataclass(frozen=True)
class Fault:
    """One planned fault: the ``index``-th ``op`` fails with ``kind``."""

    op: str
    index: int
    kind: str

    def __post_init__(self) -> None:
        if self.op not in VALID_KINDS:
            raise ValueError(f"unknown operation {self.op!r}")
        if self.kind not in VALID_KINDS[self.op]:
            raise ValueError(
                f"fault kind {self.kind!r} does not apply to {self.op!r} "
                f"(valid: {sorted(VALID_KINDS[self.op])})"
            )
        if self.index < 0:
            raise ValueError(f"fault index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults.  The seed drives every nondeterministic
    detail (torn-write cut points, flipped bit positions), so one plan
    is one exact failure scenario."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    @classmethod
    def single(cls, op: str, index: int, kind: str, seed: int = 0) -> "FaultPlan":
        """The one-fault plan the matrix tests sweep."""
        return cls(faults=(Fault(op, index, kind),), seed=seed)

    def rng_for(self, fault: Fault) -> random.Random:
        """A generator whose stream depends only on (plan seed, fault)."""
        return random.Random(f"{self.seed}:{fault.op}:{fault.index}:{fault.kind}")


class FaultInjector:
    """Context manager that installs a :class:`FaultPlan` on the
    filesystem seam.  Exposes ``counts`` (ops seen so far), ``triggered``
    (faults that actually fired) and ``crashed``."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self.counts: dict[str, int] = dict.fromkeys(OPS, 0)
        self.triggered: list[Fault] = []
        self.crashed = False
        self._pending = {(f.op, f.index): f for f in self.plan.faults}

    # -- lifecycle -----------------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        fsio.hooks.open = self._open
        fsio.hooks.replace = self._replace
        fsio.hooks.fsync = self._fsync
        fsio.hooks.unlink = self._unlink
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        fsio.hooks.reset()

    # -- fault dispatch ------------------------------------------------------------

    def _next(self, op: str) -> Fault | None:
        index = self.counts[op]
        self.counts[op] = index + 1
        fault = self._pending.pop((op, index), None)
        if fault is not None:
            self.triggered.append(fault)
        return fault

    def _crash(self, fault: Fault) -> None:
        self.crashed = True
        raise SimulatedCrash(
            f"injected crash at {fault.op} #{fault.index} ({fault.kind})"
        )

    # -- patched seam --------------------------------------------------------------

    def _open(self, path, mode):
        if self.crashed:
            raise SimulatedCrash("filesystem frozen after injected crash")
        return _FaultFile(fsio._real_open(path, mode), self)

    def _replace(self, src, dst):
        if self.crashed:
            return  # a dead process renames nothing
        fault = self._next("rename")
        if fault is not None and fault.kind == "crash":
            self._crash(fault)  # strictly *before* the rename lands
        os.replace(src, dst)

    def _fsync(self, fd):
        if self.crashed:
            return
        fault = self._next("fsync")
        if fault is not None:
            if fault.kind == "crash":
                self._crash(fault)
            if fault.kind == "dropped":
                return  # the disk lied: nothing reached stable storage
        os.fsync(fd)

    def _unlink(self, path):
        if self.crashed:
            return  # a dead process cleans nothing up
        fault = self._next("unlink")
        if fault is not None and fault.kind == "crash":
            self._crash(fault)  # strictly *before* the entry disappears
        os.unlink(path)


class _FaultFile:
    """A file object that routes ``write``/``read`` through the injector
    and passes everything else straight through."""

    def __init__(self, inner, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def write(self, data) -> int:
        injector = self._injector
        if injector.crashed:
            return len(data)  # swallowed: the process is 'dead'
        fault = injector._next("write")
        if fault is None:
            return self._inner.write(data)
        if fault.kind == "enospc":
            raise OSError(errno.ENOSPC, "no space left on device (injected)")
        if fault.kind == "short":
            # A prefix lands, but the caller is told everything did; the
            # process lives on.  Durability checks must catch the hole.
            if data:
                cut = injector.plan.rng_for(fault).randrange(len(data))
                self._inner.write(data[:cut])
                self._inner.flush()
            return len(data)
        if fault.kind == "torn":
            if data:
                cut = injector.plan.rng_for(fault).randrange(len(data))
                self._inner.write(data[:cut])
                self._inner.flush()
            injector._crash(fault)
        injector._crash(fault)  # kind == "crash": nothing reaches the file
        raise AssertionError("unreachable")

    def read(self, size=-1):
        injector = self._injector
        if injector.crashed:
            raise SimulatedCrash("filesystem frozen after injected crash")
        fault = injector._next("read")
        if fault is not None and fault.kind == "eio":
            raise OSError(errno.EIO, "input/output error (injected)")
        data = self._inner.read(size)
        if fault is not None and fault.kind == "bitflip" and data:
            rng = injector.plan.rng_for(fault)
            position = rng.randrange(len(data))
            bit = 1 << rng.randrange(8)
            flipped = bytearray(data)
            flipped[position] ^= bit
            data = bytes(flipped)
        return data

    # -- passthrough ---------------------------------------------------------------

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __enter__(self):
        self._inner.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        return self._inner.__exit__(exc_type, exc, tb)

    def __iter__(self):
        return iter(self._inner)


def record_ops(action: Callable[[], object]) -> dict[str, int]:
    """Run ``action`` under a fault-free injector and return how many of
    each operation it performed — the index space a matrix sweeps."""
    with FaultInjector(FaultPlan()) as injector:
        action()
    return dict(injector.counts)
