"""A run-time witness for the live inventory's lock order.

:class:`~repro.inventory.live.LiveInventory` has two locks and one
order: ``_write_lock`` is never taken by a thread that holds
``_mem_lock``.  :func:`lock_order_witness` wraps one instance's two
locks in proxies that track, per thread, which of them it holds.  An
acquisition against the order raises :class:`LockOrderViolation` in the
thread that made it, and leaving the ``with`` block fails if any thread
made one.  So a violation on the maintenance worker or a reader thread
still fails the test that runs the witness.
"""

from __future__ import annotations

import threading
import traceback
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

OUTER, INNER = "_write_lock", "_mem_lock"


class LockOrderViolation(AssertionError):
    """``_write_lock`` was requested by a thread holding ``_mem_lock``."""


class _Witness:
    def __init__(self) -> None:
        self._local = threading.local()
        self.violations: list[str] = []
        #: Lock names acquired at least once (proves the check ran).
        self.acquired: set[str] = set()

    def held(self) -> Counter[str]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = Counter()
        return held

    def before_acquire(self, name: str) -> None:
        if name == OUTER and self.held()[INNER]:
            where = "".join(traceback.format_stack(limit=8)[:-1])
            message = (
                f"thread {threading.current_thread().name!r} took {OUTER} "
                f"while holding {INNER}:\n{where}"
            )
            self.violations.append(message)
            raise LockOrderViolation(message)


class _WitnessedLock:
    """Forwards to the real lock; reports each acquire to the witness."""

    def __init__(self, lock: Any, name: str, witness: _Witness) -> None:
        self._lock = lock
        self._name = name
        self._witness = witness

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._witness.before_acquire(self._name)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._witness.held()[self._name] += 1
            self._witness.acquired.add(self._name)
        return acquired

    def release(self) -> None:
        self._witness.held()[self._name] -= 1
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


@contextmanager
def lock_order_witness(inventory: Any) -> Iterator[_Witness]:
    """Watch ``inventory``'s lock order for the rest of its life.

    Enter before the inventory is used from more than one thread (the
    locks are swapped in place, not restored).  On exit, fails if any
    thread broke the order, or if the block never took both locks.
    """
    witness = _Witness()
    inventory._write_lock = _WitnessedLock(inventory._write_lock, OUTER, witness)
    inventory._mem_lock = _WitnessedLock(inventory._mem_lock, INNER, witness)
    try:
        yield witness
    finally:
        if witness.violations:
            raise LockOrderViolation("\n".join(witness.violations))
    assert witness.acquired == {OUTER, INNER}, witness.acquired
