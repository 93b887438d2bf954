"""Background maintenance: flush/compaction jobs off the ingest path.

PR 8's write path ran flush and compaction *inline* under the write
lock, so every Nth ``ingest()`` call paid a full table write or a
merge-everything compaction.  :class:`MaintenanceScheduler` moves that
work onto one daemon worker thread: the ingest path only seals the
active memtable and *submits* a job; the worker writes tables, commits
manifests and merges tiers while new appends keep flowing.

Contracts the test suite enforces:

**Single owner.**  Jobs are the only code that writes tables or
rewrites the manifest after construction, so the state they change
(the live inventory's table list, table counter and WAL floor) needs no
lock of its own: the scheduler runs one job at a time.  In
``background`` mode the one worker thread does that; in ``inline``
mode jobs run synchronously inside ``submit`` (what the deterministic
fault matrix uses) under a lock the scheduler holds for the job's whole
run, so concurrent submitters take turns.  Both modes execute the same
job functions, so the crash-anywhere property covers both.

**Fail-stop.**  A job that raises freezes the scheduler: the queue is
dropped, the worker exits, and the recorded error is re-raised — the
original exception instance, so typed errors stay typed — from the next
``ingest()`` / ``flush()`` / ``wait_idle()``.  A crash in a background
job therefore lands exactly like a crash on the old inline path:
surfaced to the writer, recovered by reopening the directory (the WAL
still holds everything an unflushed memtable did).  ``close()`` never
raises the stored error; shutdown is cleanup, not a report channel.

**Bounded stall.**  :class:`IngestBackpressure` is the typed write-stall
signal the valve in :class:`~repro.inventory.live.LiveInventory` raises
when sealed memtables or compaction debt exceed their hard limits for
longer than the bounded wait — the client gets an explicit
``ingest_backpressure`` error instead of unbounded latency.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.engine.metrics import CounterSet
from repro.obs import registry
from repro.obs import trace as obs

SPAN_JOB = registry.register_span(
    "maintenance.job",
    "one maintenance job (memtable flushes with their tier cascade, or a "
    "major compaction), end to end",
)

COUNTER_JOBS = registry.register_counter(
    "maintenance.jobs",
    "maintenance jobs executed to completion (flush and major jobs)",
)
COUNTER_JOB_ERRORS = registry.register_counter(
    "maintenance.errors",
    "maintenance jobs that raised; the scheduler fail-stops and the error "
    "resurfaces on the next ingest/flush call",
)
COUNTER_BACKPRESSURE_WAITS = registry.register_counter(
    "ingest.backpressure_waits",
    "ingest calls that blocked on the write-stall valve (sealed memtables "
    "or compaction debt over the hard limit)",
)
COUNTER_BACKPRESSURE_TIMEOUTS = registry.register_counter(
    "ingest.backpressure_timeouts",
    "ingest calls that exhausted the bounded backpressure wait and failed "
    "with a typed ingest_backpressure error",
)

#: Sealed-but-unflushed memtables that arm the backpressure valve.
DEFAULT_MAX_FROZEN_MEMTABLES = 4
#: Compaction debt (bytes the policy wants rewritten) that arms the valve.
DEFAULT_MAX_DEBT_BYTES = 64 * 1024 * 1024
#: How long an ingest call may block on the valve before failing typed.
DEFAULT_BACKPRESSURE_WAIT_S = 5.0

#: Job kinds a :class:`MaintenanceScheduler` accepts: ``flush`` writes
#: the sealed memtables and runs the tier cascade after each table;
#: ``major`` is the manual full merge.
JOB_FLUSH = "flush"
JOB_MAJOR = "major"


class IngestBackpressure(RuntimeError):
    """Typed write stall: maintenance cannot keep up with ingestion.

    Raised by the ingest path after the bounded valve wait expires.  The
    server maps it to the ``ingest_backpressure`` wire error; clients
    should back off and retry (the batch was *not* accepted).
    """

    def __init__(
        self,
        message: str,
        *,
        frozen_memtables: int,
        debt_bytes: int,
        waited_s: float,
    ) -> None:
        super().__init__(message)
        self.frozen_memtables = frozen_memtables
        self.debt_bytes = debt_bytes
        self.waited_s = waited_s


@dataclass(frozen=True)
class MaintenanceConfig:
    """Scheduler mode plus the write-stall valve's hard limits."""

    background: bool = True
    max_frozen_memtables: int = DEFAULT_MAX_FROZEN_MEMTABLES
    max_debt_bytes: int = DEFAULT_MAX_DEBT_BYTES
    backpressure_wait_s: float = DEFAULT_BACKPRESSURE_WAIT_S

    def __post_init__(self) -> None:
        if self.max_frozen_memtables < 1:
            raise ValueError("max_frozen_memtables must be >= 1")
        if self.max_debt_bytes < 1:
            raise ValueError("max_debt_bytes must be >= 1")
        if self.backpressure_wait_s < 0:
            raise ValueError("backpressure_wait_s must be >= 0")


class MaintenanceScheduler:
    """Runs named maintenance jobs on one daemon worker (see module doc).

    ``jobs`` maps a job kind to its zero-argument body.  In background
    mode kinds are deduplicated while queued (a second ``submit`` of a
    kind already waiting is a no-op — the queued run will observe the
    newer state anyway); a kind currently *running* can be re-queued,
    so work submitted after the running job last looked is never
    missed.  In inline mode ``submit`` executes the job before
    returning, one submitter at a time, and errors propagate directly
    to the submitter.
    """

    def __init__(
        self,
        jobs: dict[str, Callable[[], None]],
        *,
        background: bool = True,
        counters: CounterSet | None = None,
        name: str = "repro-maintenance",
    ) -> None:
        self._jobs = dict(jobs)
        self.background = background
        self.counters = counters if counters is not None else CounterSet()
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()
        self._pending: set[str] = set()
        self._running: str | None = None
        self._error: BaseException | None = None
        self._closed = False
        #: Held for the whole of an inline job: submitters take turns.
        self._inline_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        if background:
            self._thread = threading.Thread(
                target=self._worker, name=name, daemon=True
            )
            self._thread.start()

    # -- state ---------------------------------------------------------------------

    @property
    def error(self) -> BaseException | None:
        """The exception that fail-stopped the scheduler, if any."""
        with self._cond:
            return self._error

    def check(self) -> None:
        """Re-raise the stored error (the original instance) if a job
        failed — the ingest path calls this so background crashes are
        never silent."""
        with self._cond:
            error = self._error
        if error is not None:
            raise error

    def queue_depth(self) -> int:
        """Jobs waiting plus the one running — the ``stats`` gauge."""
        with self._cond:
            return len(self._queue) + (1 if self._running is not None else 0)

    # -- submission ----------------------------------------------------------------

    def submit(self, kind: str) -> None:
        """Enqueue ``kind`` (background) or run it now (inline).

        Silently drops the job when the scheduler is closed or already
        fail-stopped — the WAL still holds everything an unflushed
        memtable does, so a dropped job never loses data.
        """
        if kind not in self._jobs:
            raise ValueError(f"unknown maintenance job kind: {kind!r}")
        if self.background:
            with self._cond:
                if self._closed or self._error is not None:
                    return
                if kind not in self._pending:
                    self._pending.add(kind)
                    self._queue.append(kind)
                    self._cond.notify_all()
            return
        # Inline mode: the submitting thread is the worker, one at a
        # time.  The closed/failed check comes after the wait, so a
        # submitter queued behind a job that failed is dropped.  Errors
        # propagate to the caller *and* fail-stop the scheduler, so both
        # modes converge on the same post-crash state.
        with self._inline_lock:
            with self._cond:
                if self._closed or self._error is not None:
                    return
            try:
                self._execute(kind)
            except BaseException as exc:
                self._fail(exc)
                raise

    def wait_idle(self, timeout: float | None = None) -> None:
        """Block until no job is queued or running; re-raise a stored
        job error.  Raises :class:`TimeoutError` when ``timeout``
        (seconds) elapses first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._error is None and (self._queue or self._running):
                remaining: float | None = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"maintenance still busy after {timeout}s "
                            f"(queue depth {len(self._queue)})"
                        )
                self._cond.wait(remaining)
            error = self._error
        if error is not None:
            raise error

    def close(self, *, drain: bool = True) -> None:
        """Stop the worker.  ``drain=True`` finishes queued jobs first;
        ``drain=False`` cancels them (safe: the WAL covers anything an
        unflushed job would have persisted).  In inline mode, waits out
        a job another submitter is running.  Never raises a stored job
        error — shutdown is cleanup."""
        with self._cond:
            if self._closed:
                thread = self._thread
            else:
                self._closed = True
                if not drain:
                    self._queue.clear()
                    self._pending.clear()
                thread = self._thread
                self._cond.notify_all()
        if thread is None:
            with self._inline_lock:
                pass
        elif thread is not threading.current_thread():
            thread.join()

    # -- execution -----------------------------------------------------------------

    def _execute(self, kind: str) -> None:
        with obs.span(SPAN_JOB) as sp:
            sp.set("kind", kind)
            self._jobs[kind]()
        self.counters.increment(COUNTER_JOBS)

    def _fail(self, exc: BaseException) -> None:
        """Fail-stop: record ``exc`` and drop every queued job."""
        with self._cond:
            self._error = exc
            self._running = None
            self._queue.clear()
            self._pending.clear()
            self._cond.notify_all()
        self.counters.increment(COUNTER_JOB_ERRORS)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                kind = self._queue.popleft()
                self._pending.discard(kind)
                self._running = kind
            try:
                self._execute(kind)
            except BaseException as exc:  # fail-stop; resurfaced via check()
                self._fail(exc)
                return
            with self._cond:
                self._running = None
                self._cond.notify_all()
