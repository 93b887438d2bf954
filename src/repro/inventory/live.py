"""The live inventory: WAL + memtable LSM write path over SSTables.

This is the serve-while-ingesting backend the ROADMAP's north star
needs: a :class:`LiveInventory` absorbs a continuous AIS feed while
answering the same :class:`~repro.inventory.backend.QueryableInventory`
queries as the batch backends, with three contracts the test suite
enforces under deterministic fault injection:

**Durability.**  Every record is appended to the write-ahead log
(:mod:`repro.inventory.wal`) *before* it is applied to the memtable;
a record is acked only once its WAL entry is covered by an fsync.
Reopening after a crash replays the WAL into a fresh memtable — every
acked record is served again, and no record is ever *partially*
visible (a WAL entry is atomic by CRC; its fan-out to grouping sets
happens entirely at apply time).

**Atomic flush.**  Sealing rotates the WAL at a segment boundary and
freezes the active memtable into the read view; the *flush job* then
writes each frozen memtable, oldest first, to its own SSTable through
the existing atomic ``fsio`` publish and — the commit point — atomically
rewrites the ``MANIFEST.json`` that names the live table set and the WAL
floor.  Only after the manifest lands are the sealed segments retired.
A crash anywhere in that sequence (now usually on the maintenance
thread) recovers exactly: before the manifest, the orphan table is
deleted on open and the WAL replays everything; after the manifest, the
flushed segments are ignored (and deleted) on open.  Nothing is ever
double-counted and nothing is lost.

**Snapshot isolation.**  Readers resolve queries against an immutable
``(table set, frozen memtables)`` view plus the active memtable; the
view is swapped by a single reference assignment, so a query stream
running across a flush only ever sees *either* the frozen memtable
*or* the table that replaced it — and because flushing is a byte-exact
codec roundtrip and summaries merge by the sketch monoid laws, the
answers are byte-identical either way.

Flush and compaction run **off the ingest path** on the maintenance
scheduler (:mod:`repro.inventory.maintenance`): ``ingest()`` only
appends to the WAL, applies to the memtable, and — at the
``flush_records`` watermark — seals the active memtable and submits a
flush job.  Compaction is size-tiered
(:class:`~repro.inventory.compaction.CompactionPolicy`): after each
flushed table the same job merges contiguous same-tier runs until the
policy is satisfied, never the whole table set.  When maintenance falls
behind (too many sealed memtables, or tier debt over the limit) the
backpressure valve blocks ingest for a bounded wait and then fails
typed with :class:`~repro.inventory.maintenance.IngestBackpressure`.

Locking is two locks with one fixed order, ``_write_lock`` →
``_mem_lock`` (each may be taken alone; ``_write_lock`` is never taken
while ``_mem_lock`` is held):

- ``_write_lock`` serialises the WAL (appends, fsyncs, rotate, retire)
  and the seal step;
- ``_mem_lock`` is the short mutex readers share with memtable
  application and view swaps, so reads never block on disk I/O.

The state only maintenance jobs change after construction
(``_tables``, ``_next_table``, ``_wal_floor``) has an owner instead of a
lock: the maintenance scheduler, which runs one job at a time in both
modes.  ``_tables`` is only ever rebound, never mutated in place, so the
ingest valve, ``ingest_stats`` and ``table_paths`` read it by reference
while a job runs.  The test suite checks the lock order at run time
with a witness that wraps both locks (``tests/lock_witness.py``).
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Any

from repro.engine.metrics import CounterSet
from repro.inventory import fsio, sstable, wal
from repro.inventory.backend import InventoryQueryMixin, SSTableInventory
from repro.inventory.compaction import (
    DEFAULT_TIER_BASE_BYTES,
    DEFAULT_TIER_FANOUT,
    SPAN_TIER_COMPACT,
    CompactionPolicy,
    merge_tables,
)
from repro.inventory.keys import GroupKey
from repro.inventory.maintenance import (
    COUNTER_BACKPRESSURE_TIMEOUTS,
    COUNTER_BACKPRESSURE_WAITS,
    COUNTER_JOBS,
    JOB_FLUSH,
    JOB_MAJOR,
    IngestBackpressure,
    MaintenanceConfig,
    MaintenanceScheduler,
)
from repro.inventory.memtable import IngestRecord, Memtable
from repro.inventory.sstable import CorruptionError
from repro.inventory.summary import CellSummary, SummaryConfig
from repro.obs import registry
from repro.obs import trace as obs

SPAN_FLUSH = registry.register_span(
    "ingest.flush",
    "writing sealed memtables to an SSTable and publishing the manifest",
)
SPAN_COMPACT = registry.register_span(
    "ingest.compact",
    "major compaction: merging the whole live table set into one generation",
)

COUNTER_INGEST_RECORDS = registry.register_counter(
    "ingest.records",
    "records accepted by the live write path (WAL-appended and applied)",
)
COUNTER_FLUSHES = registry.register_counter(
    "ingest.flushes",
    "memtable flushes durably published to the live table set",
)
COUNTER_COMPACTIONS = registry.register_counter(
    "ingest.compactions",
    "compactions of the live table set (tier merges and major compactions)",
)

#: The manifest file naming the live table set and the WAL floor.  Its
#: atomic rewrite is the flush/compaction commit point.
MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_VERSION = 1
_TABLE_FMT = "tab-{n:08d}.sst"
_TABLE_GLOB = "tab-*.sst"

#: Default memtable size (records) that seals it and schedules a flush.
DEFAULT_FLUSH_RECORDS = 50_000


@dataclass(frozen=True)
class IngestAck:
    """What one :meth:`LiveInventory.ingest` call guarantees.

    ``durable`` is true when every accepted record's WAL entry was
    covered by an fsync before returning (always the case with
    ``sync_every=1``); with a batched fsync policy it reports whether
    this batch happened to end on a sync point.

    ``flushed`` is true when this call *sealed* the active memtable and
    scheduled its flush — the table write itself happens on the
    maintenance thread (or before ``submit`` returns in inline mode),
    so a true here no longer means the records are in an SSTable yet.
    Durability never depends on it: the WAL already holds everything.
    """

    accepted: int
    durable: bool
    flushed: bool

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form for the ``ingest`` response."""
        return {
            "accepted": self.accepted,
            "durable": self.durable,
            "flushed": self.flushed,
        }


@dataclass(frozen=True)
class _View:
    """The immutable read snapshot: swapped by one reference assignment."""

    tables: tuple[SSTableInventory, ...]
    frozen: tuple[Memtable, ...]


@dataclass(frozen=True)
class _Sealed:
    """A frozen memtable plus the WAL boundary that seals it: the flush
    job may raise the WAL floor to ``boundary`` once ``memtable`` is in
    a committed table."""

    memtable: Memtable
    boundary: int


def _copy_summary(summary: CellSummary) -> CellSummary:
    """A deep, byte-exact copy via the storage codec — through the same
    bytes a flush writes, which is what makes pre- and post-flush
    answers byte-identical."""
    return CellSummary.decode(summary.encode())


class LiveInventory(InventoryQueryMixin):
    """A queryable inventory that accepts live records (see module doc).

    Open on a directory; recovery happens in the constructor (orphan
    cleanup, retired-segment cleanup, WAL replay under the
    ``wal.replay`` span).  ``resolution`` is required the first time a
    directory is opened and remembered in the manifest afterwards.

    ``background_maintenance=False`` runs every flush/compaction job
    synchronously inside the call that submits it — the deterministic
    mode the fault matrix sweeps; the default runs them on one daemon
    worker so ingest never writes tables.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        resolution: int | None = None,
        config: SummaryConfig | None = None,
        sync_every: int = 1,
        sync_interval_s: float | None = None,
        segment_bytes: int = wal.DEFAULT_SEGMENT_BYTES,
        flush_records: int = DEFAULT_FLUSH_RECORDS,
        tier_fanout: int = DEFAULT_TIER_FANOUT,
        tier_base_bytes: int = DEFAULT_TIER_BASE_BYTES,
        background_maintenance: bool = True,
        max_frozen_memtables: int | None = None,
        max_debt_bytes: int | None = None,
        backpressure_wait_s: float | None = None,
        cache_blocks: int = 64,
        counters: CounterSet | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.flush_records = flush_records
        self.cache_blocks = cache_blocks
        self.counters = counters if counters is not None else CounterSet()
        self.policy = CompactionPolicy(fanout=tier_fanout, base_bytes=tier_base_bytes)
        maint_kwargs: dict[str, Any] = {"background": background_maintenance}
        if max_frozen_memtables is not None:
            maint_kwargs["max_frozen_memtables"] = max_frozen_memtables
        if max_debt_bytes is not None:
            maint_kwargs["max_debt_bytes"] = max_debt_bytes
        if backpressure_wait_s is not None:
            maint_kwargs["backpressure_wait_s"] = backpressure_wait_s
        self.maintenance = MaintenanceConfig(**maint_kwargs)
        # Outermost first (module doc): never _write_lock under _mem_lock.
        self._write_lock = threading.RLock()
        self._mem_lock = threading.Lock()
        #: Ingest threads wait here when the valve is armed; every
        #: completed maintenance job notifies it.
        self._valve = threading.Condition()
        self._closing = False
        self._closed = False
        self._sealed: list[_Sealed] = []
        #: Backend → reference count: one ref for membership in the
        #: published view, one per in-flight pinned read.  A backend is
        #: closed only when its count drops to zero, so compaction can
        #: retire a generation without yanking it from under a reader
        #: that pinned the previous view (snapshot isolation covers the
        #: file handles, not just the object graph).
        self._refs: dict[SSTableInventory, int] = {}

        manifest = _read_manifest(self.directory)
        if manifest is None:
            if resolution is None:
                raise ValueError(
                    f"{self.directory}: no manifest — opening a new live "
                    "inventory requires an explicit resolution"
                )
            self.resolution = resolution
            self.config = config if config is not None else SummaryConfig()
            self._tables: list[str] = []
            self._wal_floor = 0
            self._next_table = 1
            self._write_manifest()
        else:
            self.resolution = int(manifest["resolution"])
            self.config = SummaryConfig.from_dict(manifest["summary"])
            self._tables = [str(name) for name in manifest["tables"]]
            self._wal_floor = int(manifest["wal_floor"])
            self._next_table = int(manifest["next_table"])
            if resolution is not None and resolution != self.resolution:
                raise ValueError(
                    f"{self.directory}: manifest resolution {self.resolution} "
                    f"!= requested {resolution}"
                )
        self._sweep_orphans()
        # Anything after the first table opens can still refuse the
        # directory (a corrupt later table, hard WAL damage during
        # replay): close what was opened before re-raising, or the
        # half-constructed instance leaks its file handles.
        backends: list[SSTableInventory] = []
        try:
            for name in self._tables:
                backends.append(
                    SSTableInventory(
                        self.directory / name,
                        resolution=self.resolution,
                        cache_blocks=self.cache_blocks,
                        counters=self.counters,
                    )
                )
            self._active = Memtable(self.resolution, self.config)
            self._view = _View(tables=tuple(backends), frozen=())
            for backend in backends:
                self._refs[backend] = 1
            with obs.span(wal.SPAN_REPLAY) as sp:
                recovery = wal.replay(
                    self.directory, min_seq=self._wal_floor, counters=self.counters
                )
                for payload in recovery.entries:
                    try:
                        record = IngestRecord.from_payload(payload)
                    except ValueError as exc:
                        raise CorruptionError(
                            f"WAL entry does not decode to an ingest record: {exc}",
                            path=self.directory,
                        ) from exc
                    self._active.apply(record)
                sp.set("entries", len(recovery.entries))
                sp.set("truncated_tails", recovery.truncated_tails)
            self._wal = wal.WalWriter(
                self.directory,
                start_seq=max(recovery.last_seq, self._wal_floor) + 1,
                sync_every=sync_every,
                sync_interval_s=sync_interval_s,
                segment_bytes=segment_bytes,
                counters=self.counters,
            )
        except BaseException:
            for backend in backends:
                backend.close()
            raise
        # Started last: nothing above submits, and a constructor that
        # raised must not leave a worker thread behind.
        self._scheduler = MaintenanceScheduler(
            {JOB_FLUSH: self._job_flush, JOB_MAJOR: self._job_major},
            background=background_maintenance,
            counters=self.counters,
        )

    # -- manifest ------------------------------------------------------------------

    def _write_manifest(
        self,
        tables: list[str] | None = None,
        wal_floor: int | None = None,
        next_table: int | None = None,
    ) -> None:
        """Atomically rewrite the manifest with the given (or current)
        values.  Callers commit prospective values here *first* and only
        then update in-memory state, so a failed commit leaves both the
        disk and the object exactly as they were."""
        manifest = {
            "version": _MANIFEST_VERSION,
            "resolution": self.resolution,
            "summary": self.config.to_dict(),
            "tables": list(self._tables if tables is None else tables),
            "wal_floor": self._wal_floor if wal_floor is None else wal_floor,
            "next_table": self._next_table if next_table is None else next_table,
        }
        fsio.atomic_write_bytes(
            self.directory / MANIFEST_NAME,
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
        )

    def _sweep_orphans(self) -> None:
        """Delete tables a crashed flush staged or published without
        committing (their records are still in the WAL), stale staging
        files, and WAL segments at or below the manifest floor."""
        live = set(self._tables)
        for path in sorted(self.directory.glob(_TABLE_GLOB)):
            if path.name not in live:
                fsio.unlink(path)
        for path in sorted(self.directory.glob(f"*{fsio.TMP_SUFFIX}")):
            fsio.unlink(path)
        for seq, path in wal.list_segments(self.directory):
            if seq <= self._wal_floor:
                fsio.unlink(path)

    # -- ingestion -----------------------------------------------------------------

    def ingest(self, records: Iterable[IngestRecord]) -> IngestAck:
        """Append ``records`` to the WAL, apply them to the memtable
        and, at the ``flush_records`` watermark, seal the memtable and
        schedule its flush.  Returns the ack only after every record is
        applied; ``durable`` reports the fsync watermark.

        Never writes a table itself.  When maintenance is behind the
        hard limits, blocks for at most ``backpressure_wait_s`` and then
        raises :class:`~repro.inventory.maintenance.IngestBackpressure`
        (the batch is not accepted).  A maintenance job that crashed
        re-raises its error here — background failures are never silent.
        """
        batch = list(records)
        self._check_maintenance()
        self._wait_for_capacity()
        sealed = False
        with self._write_lock:
            self._check_open()
            for record in batch:
                self._wal.append(record.to_payload())
            durable = self._wal.durable_entries >= self._wal.appended_entries
            with self._mem_lock:
                for record in batch:
                    self._active.apply(record)
            if batch:
                self.counters.increment(COUNTER_INGEST_RECORDS, len(batch))
            if self.flush_records and self._active.records_applied >= self.flush_records:
                self._seal_active_locked()
                sealed = True
        if sealed:
            # Outside _write_lock: in inline mode the job runs here, after
            # waiting its turn behind another submitter's job — which
            # takes _write_lock itself to retire WAL segments.
            self._scheduler.submit(JOB_FLUSH)
        return IngestAck(accepted=len(batch), durable=durable, flushed=sealed)

    def ingest_records(self, records: list[object]) -> dict[str, Any]:
        """The server-facing hook: parse wire records, ingest, ack.

        ``ValueError`` (bad record shape) names the offending index so
        the service layer can surface a precise ``bad_request``.
        """
        parsed = []
        for index, raw in enumerate(records):
            try:
                parsed.append(IngestRecord.from_wire(raw))
            except ValueError as exc:
                raise ValueError(f"records[{index}]: {exc}") from exc
        return self.ingest(parsed).to_wire()

    def sync(self) -> None:
        """Force every accepted record durable (an explicit fsync)."""
        self._check_maintenance()
        with self._write_lock:
            self._check_open()
            self._wal.sync()

    def _seal_active_locked(self) -> None:
        """Rotate the WAL and freeze the active memtable into the read
        view (``_write_lock`` held by the caller).  The rotate boundary
        rides with the memtable so the flush job knows how far the WAL
        floor may rise once the table commits."""
        boundary = self._wal.rotate()
        with self._mem_lock:
            self._sealed.append(_Sealed(memtable=self._active, boundary=boundary))
            self._view = _View(
                tables=self._view.tables,
                frozen=self._view.frozen + (self._active,),
            )
            self._active = Memtable(self.resolution, self.config)

    # -- backpressure --------------------------------------------------------------

    def _over_capacity(self) -> tuple[bool, int, int]:
        """Whether the valve is armed, plus the inputs that armed it."""
        with self._mem_lock:
            frozen = len(self._sealed)
        debt = self.policy.debt_bytes(self._table_sizes()) if self.policy.fanout else 0
        over = (
            frozen >= self.maintenance.max_frozen_memtables
            or debt >= self.maintenance.max_debt_bytes
        )
        return over, frozen, debt

    def _wait_for_capacity(self) -> None:
        """Block (bounded) while maintenance is behind its hard limits.

        Inline mode never waits: jobs complete inside the call that
        submits them, so the limits cannot be exceeded between calls.
        """
        if not self.maintenance.background:
            return
        over, frozen, debt = self._over_capacity()
        if not over:
            return
        self.counters.increment(COUNTER_BACKPRESSURE_WAITS)
        deadline = time.monotonic() + self.maintenance.backpressure_wait_s
        with self._valve:
            while True:
                self._check_maintenance()
                over, frozen, debt = self._over_capacity()
                if not over:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._valve.wait(remaining)
        self.counters.increment(COUNTER_BACKPRESSURE_TIMEOUTS)
        raise IngestBackpressure(
            f"ingest stalled: {frozen} sealed memtables, {debt} compaction-debt "
            f"bytes after {self.maintenance.backpressure_wait_s}s — maintenance "
            "is not keeping up; back off and retry",
            frozen_memtables=frozen,
            debt_bytes=debt,
            waited_s=self.maintenance.backpressure_wait_s,
        )

    def _notify_valve(self) -> None:
        with self._valve:
            self._valve.notify_all()

    # -- flush / compaction (public, synchronous) ----------------------------------

    def flush(self) -> Path | None:
        """Seal the active memtable and flush everything sealed, waiting
        for the job to finish.  Returns the newest committed table — the
        tier cascade may already have merged the flushed one away —
        or ``None`` when there was nothing to flush."""
        self._check_maintenance()
        with self._write_lock:
            self._check_open()
            if self._active.records_applied:
                self._seal_active_locked()
        with self._mem_lock:
            pending = bool(self._sealed)
        if not pending:
            return None
        self._scheduler.submit(JOB_FLUSH)
        self._scheduler.wait_idle()
        paths = self.table_paths
        return paths[-1] if paths else None

    def compact(self) -> None:
        """Major compaction: merge the whole live table set into one
        generation, waiting for the job to finish.  Routine maintenance
        uses tier merges instead; this is the manual full merge."""
        self._check_maintenance()
        with self._write_lock:
            self._check_open()
        self._scheduler.submit(JOB_MAJOR)
        self._scheduler.wait_idle()

    def wait_maintenance(self, timeout: float | None = None) -> None:
        """Block until every queued maintenance job has run; re-raise
        the error of a job that crashed.  The deterministic hook tests
        and the serve CLI's drain path use."""
        self._scheduler.wait_idle(timeout)

    def _check_maintenance(self) -> None:
        """Re-raise a background job's error (the original instance, so
        a typed corruption or injected crash stays typed)."""
        self._scheduler.check()

    # -- maintenance jobs (one at a time: the only table writers) ------------------

    def _job_flush(self) -> None:
        """Flush the sealed memtables oldest first, one table each, and
        after every table run the tier cascade to fixpoint.  However many
        memtables sealed while the worker was busy, the table sequence —
        and with it every merge's bracketing — is the inline one."""
        while self._flush_oldest():
            self._notify_valve()
            while self._compact_tier():
                self._notify_valve()

    def _job_major(self) -> None:
        self._compact_major()
        self._notify_valve()

    def _table_sizes(self) -> list[int]:
        """On-disk sizes of the committed tables, oldest first.

        Lock-free, so the valve and ``stats`` never wait out a job:
        ``_tables`` is only ever rebound, never mutated in place, so one
        read of it is a consistent list.  A table unlinked by a racing
        merge counts as zero — the next evaluation sees the new list."""
        names = self._tables
        sizes: list[int] = []
        for name in names:
            try:
                sizes.append((self.directory / name).stat().st_size)
            except OSError:
                sizes.append(0)
        return sizes

    def _retire_wal(self, boundary: int) -> None:
        """Retire sealed WAL segments (brief ``_write_lock``: the writer
        object is otherwise owned by the ingest path)."""
        with self._write_lock:
            if not self._closed:
                self._wal.retire_through(boundary)

    def _flush_oldest(self) -> bool:
        """Write the oldest sealed memtable to a new table and commit it.
        Returns whether a table was published."""
        with self._mem_lock:
            if not self._sealed:
                return False
            sealed = self._sealed[0]
        with obs.span(SPAN_FLUSH) as sp:
            # 1. Write the memtable to a new table (atomic: staged at
            #    .tmp, renamed on close).
            name = _TABLE_FMT.format(n=self._next_table)
            path = self.directory / name
            _write_memtable(path, sealed.memtable)
            # 2. The commit point: the manifest now names the table and
            #    raises the WAL floor past its sealed segments.  In-memory
            #    state follows only once the commit landed, so a failed
            #    commit leaves disk and object untouched.
            tables = self._tables + [name]
            self._write_manifest(
                tables=tables,
                wal_floor=sealed.boundary,
                next_table=self._next_table + 1,
            )
            self._tables = tables
            self._next_table += 1
            self._wal_floor = sealed.boundary
            # 3. Only now is it safe to retire the sealed segments.
            self._retire_wal(sealed.boundary)
            # 4. Swap the read view: the memtable leaves in the same
            #    assignment its table arrives.
            backend = SSTableInventory(
                path,
                resolution=self.resolution,
                cache_blocks=self.cache_blocks,
                counters=self.counters,
            )
            with self._mem_lock:
                old = self._view
                del self._sealed[0]
                view = _View(
                    tables=old.tables + (backend,),
                    frozen=tuple(item.memtable for item in self._sealed),
                )
                self._retain_locked(view)
                self._view = view
            self._release(old)
            self.counters.increment(COUNTER_FLUSHES)
            sp.set("records", sealed.memtable.records_applied)
            sp.set("table", name)
        return True

    def _compact_tier(self) -> bool:
        """Merge one contiguous same-tier run chosen by the policy — one
        step of the flush job's cascade.  Returns whether a merge ran."""
        names = self._tables
        task = self.policy.choose(self._table_sizes())
        if task is None:
            return False
        with obs.span(SPAN_TIER_COMPACT) as sp:
            run = names[task.start : task.stop]
            inputs = [self.directory / name for name in run]
            out_name = _TABLE_FMT.format(n=self._next_table)
            output = self.directory / out_name
            merge_tables(inputs, output)
            # Splice the output into the run's position: reads fold
            # oldest-source-first, and collapsing *adjacent* sources is
            # the only reorder associativity licences.
            tables = names[: task.start] + [out_name] + names[task.stop :]
            self._write_manifest(tables=tables, next_table=self._next_table + 1)
            self._tables = tables
            self._next_table += 1
            backend = SSTableInventory(
                output,
                resolution=self.resolution,
                cache_blocks=self.cache_blocks,
                counters=self.counters,
            )
            with self._mem_lock:
                old = self._view
                view = _View(
                    tables=old.tables[: task.start] + (backend,) + old.tables[task.stop :],
                    frozen=old.frozen,
                )
                self._retain_locked(view)
                self._view = view
            self._release(old)
            # Unlinking is safe even with readers pinned to the old
            # generation: their open handles keep the bytes alive until
            # the pin count drains and ``_release`` closes.
            for stale_name in run:
                fsio.unlink(self.directory / stale_name)
            self.counters.increment(COUNTER_COMPACTIONS)
            sp.set("tier", task.tier)
            sp.set("inputs", len(inputs))
            sp.set("bytes", task.input_bytes)
        return True

    def _compact_major(self) -> None:
        """Merge the whole table set into one generation — the manual
        major-compaction job body."""
        old_names = self._tables
        if len(old_names) < 2:
            return
        with obs.span(SPAN_COMPACT) as sp:
            inputs = [self.directory / name for name in old_names]
            name = _TABLE_FMT.format(n=self._next_table)
            output = self.directory / name
            merge_tables(inputs, output)
            self._write_manifest(tables=[name], next_table=self._next_table + 1)
            self._tables = [name]
            self._next_table += 1
            backend = SSTableInventory(
                output,
                resolution=self.resolution,
                cache_blocks=self.cache_blocks,
                counters=self.counters,
            )
            with self._mem_lock:
                old = self._view
                view = _View(tables=(backend,), frozen=old.frozen)
                self._retain_locked(view)
                self._view = view
            self._release(old)
            for stale_name in old_names:
                fsio.unlink(self.directory / stale_name)
            self.counters.increment(COUNTER_COMPACTIONS)
            sp.set("inputs", len(inputs))

    # -- view lifecycle ------------------------------------------------------------

    def _retain_locked(self, view: _View) -> None:
        """Take one reference on each of ``view``'s backends
        (``_mem_lock`` held by the caller)."""
        for backend in view.tables:
            # repro: allow[REP002] every caller holds _mem_lock (the _locked suffix contract)
            self._refs[backend] = self._refs.get(backend, 0) + 1

    def _release(self, view: _View) -> None:
        """Drop one reference per backend; close those that hit zero.

        Closing happens outside the lock — it touches file handles, and
        no other thread can reach a zero-count backend anyway.
        """
        stale: list[SSTableInventory] = []
        with self._mem_lock:
            for backend in view.tables:
                count = self._refs[backend] - 1
                if count:
                    self._refs[backend] = count
                else:
                    del self._refs[backend]
                    stale.append(backend)
        for backend in stale:
            backend.close()

    # -- queries (snapshot-isolated) -----------------------------------------------
    #
    # Every reader captures, under ONE ``_mem_lock`` acquisition, the
    # published view *and* an encoded snapshot of what it needs from the
    # active memtable, pinning the view's backends.  A flush freezing the
    # memtable swaps both together under the same lock, so a reader can
    # never see a record twice or not at all mid-flush; the pin keeps a
    # compacted-away generation's file handles open until the read ends.

    def get(self, key: GroupKey) -> CellSummary | None:
        """Point lookup merged across tables, frozen memtables and the
        active memtable — oldest source first, matching compaction's
        merge order so answers never depend on flush timing."""
        with self._mem_lock:
            view = self._view
            self._retain_locked(view)
            summary = self._active.get(key)
            live_payload = None if summary is None else summary.encode()
        try:
            acc: CellSummary | None = None
            for table in view.tables:
                summary = table.get(key)
                if summary is not None:
                    acc = summary if acc is None else acc.merge(summary)
            for memtable in view.frozen:
                summary = memtable.get(key)
                if summary is not None:
                    copy = _copy_summary(summary)
                    acc = copy if acc is None else acc.merge(copy)
            if live_payload is not None:
                live = CellSummary.decode(live_payload)
                acc = live if acc is None else acc.merge(live)
            return acc
        finally:
            self._release(view)

    def cells(self) -> set[int]:
        """Every cell with traffic in any source."""
        with self._mem_lock:
            view = self._view
            self._retain_locked(view)
            out = set(self._active.cells())
        try:
            for table in view.tables:
                out |= table.cells()
            for memtable in view.frozen:
                out |= memtable.cells()
            return out
        finally:
            self._release(view)

    def items(self) -> Iterator[tuple[GroupKey, CellSummary]]:
        """All groups merged across sources, in table key order.

        Materialises the merged map (live reads are point lookups; this
        exists for export and equivalence tests).
        """
        merged: dict[GroupKey, CellSummary] = {}

        def fold(key: GroupKey, summary: CellSummary) -> None:
            existing = merged.get(key)
            if existing is None:
                merged[key] = summary
            else:
                existing.merge(summary)

        with self._mem_lock:
            view = self._view
            self._retain_locked(view)
            active = [
                (key, summary.encode())
                for key, summary in self._active.items()
            ]
        try:
            for table in view.tables:
                for key, summary in table.items():
                    fold(key, summary)
            for memtable in view.frozen:
                for key, summary in memtable.items():
                    fold(key, _copy_summary(summary))
        finally:
            self._release(view)
        for key, payload in active:
            fold(key, CellSummary.decode(payload))
        for key in sorted(merged, key=sstable._key_bytes):
            yield key, merged[key]

    def route_cells(
        self, origin: str, destination: str, vessel_type: str
    ) -> dict[int, CellSummary]:
        """Route lookup merged across sources (oldest first)."""
        merged: dict[int, CellSummary] = {}

        def fold(cell: int, summary: CellSummary) -> None:
            existing = merged.get(cell)
            if existing is None:
                merged[cell] = summary
            else:
                existing.merge(summary)

        with self._mem_lock:
            view = self._view
            self._retain_locked(view)
            active = [
                (cell, summary.encode())
                for cell, summary in self._active.route_groups(
                    origin, destination, vessel_type
                ).items()
            ]
        try:
            for table in view.tables:
                for cell, summary in table.route_cells(
                    origin, destination, vessel_type
                ).items():
                    fold(cell, summary)
            for memtable in view.frozen:
                for cell, summary in memtable.route_groups(
                    origin, destination, vessel_type
                ).items():
                    fold(cell, _copy_summary(summary))
        finally:
            self._release(view)
        for cell, payload in active:
            fold(cell, CellSummary.decode(payload))
        return merged

    # -- introspection -------------------------------------------------------------

    def ingest_stats(self) -> dict[str, Any]:
        """Live write-path state for the server ``stats`` request.

        ``maintenance_queue`` (jobs waiting or running) and
        ``tier_shape`` / ``compaction_debt_bytes`` are the operator's
        compaction-backlog gauges — see docs/OPERATIONS.md.
        """
        view = self._view
        with self._mem_lock:
            memtable_records = self._active.records_applied
            memtable_groups = len(self._active)
        sizes = self._table_sizes()
        error = self._scheduler.error
        return {
            "tables": len(view.tables),
            "frozen_memtables": len(view.frozen),
            "memtable_records": memtable_records,
            "memtable_groups": memtable_groups,
            "wal_segment": self._wal.current_seq,
            "wal_floor": self._wal_floor,
            "records_ingested": self.counters.value(COUNTER_INGEST_RECORDS),
            "flushes": self.counters.value(COUNTER_FLUSHES),
            "compactions": self.counters.value(COUNTER_COMPACTIONS),
            "replayed": self.counters.value(wal.COUNTER_REPLAYED),
            "truncated_tails": self.counters.value(wal.COUNTER_TRUNCATED_TAIL),
            "maintenance": "background" if self.maintenance.background else "inline",
            "maintenance_queue": self._scheduler.queue_depth(),
            "maintenance_jobs": self.counters.value(COUNTER_JOBS),
            "maintenance_error": None if error is None else str(error),
            "tier_shape": self.policy.tier_shape(sizes),
            "compaction_debt_bytes": self.policy.debt_bytes(sizes),
            "backpressure_waits": self.counters.value(COUNTER_BACKPRESSURE_WAITS),
            "backpressure_timeouts": self.counters.value(
                COUNTER_BACKPRESSURE_TIMEOUTS
            ),
        }

    @property
    def table_paths(self) -> tuple[Path, ...]:
        """The committed table files, oldest first (lock-free, like
        :meth:`_table_sizes`)."""
        return tuple(self.directory / name for name in self._tables)

    # -- lifecycle -----------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("live inventory is closed")

    def close(self) -> None:
        """Quiesce maintenance, fsync the WAL tail and release every
        handle.  Queued jobs are drained first (a job mid-flight owns
        table files and the manifest); a job error stays recorded but is
        not raised — the WAL already holds everything the memtables do,
        so close never loses data either way."""
        with self._write_lock:
            if self._closing:
                return
            self._closing = True
        # Outside _write_lock: a draining job takes _write_lock briefly
        # to retire WAL segments, and must not deadlock against us.
        self._scheduler.close(drain=True)
        with self._write_lock:
            self._closed = True
            self._wal.close()
            # Drop the published view's membership references; a reader
            # still pinned finishes cleanly and the last unpin closes.
            self._release(self._view)

    def __enter__(self) -> "LiveInventory":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def manifest_tables(directory: str | Path) -> list[Path]:
    """The table paths a live directory's manifest currently commits.

    Reads ``MANIFEST.json`` without opening the inventory (so no
    recovery side effects) — ``repro fsck --wal`` uses this to verify
    each committed table's checksums offline.  An absent manifest means
    an unstarted directory (no tables); an unreadable or wrong-version
    one raises :class:`~repro.inventory.sstable.CorruptionError`.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest is None:
        return []
    return [directory / str(name) for name in manifest.get("tables", [])]


def _read_manifest(directory: Path) -> dict[str, Any] | None:
    """A live directory's parsed manifest, ``None`` when it has none;
    an unreadable or wrong-version one raises
    :class:`~repro.inventory.sstable.CorruptionError`."""
    path = directory / MANIFEST_NAME
    if not path.exists():
        return None
    handle = fsio.open_file(path, "rb")
    try:
        raw = handle.read()
    finally:
        handle.close()
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise CorruptionError(f"unreadable manifest: {exc}", path=path) from exc
    if not isinstance(manifest, dict) or manifest.get("version") != _MANIFEST_VERSION:
        raise CorruptionError("unsupported manifest version", path=path)
    return manifest


def _write_memtable(path: Path, memtable: Memtable) -> None:
    """Write one frozen memtable to a table, atomically, encoding each
    summary exactly once, straight into the writer."""
    with sstable.SSTableWriter(path) as writer:
        for key, summary in sorted(
            memtable.items(), key=lambda item: sstable._key_bytes(item[0])
        ):
            writer.add(key, summary)
