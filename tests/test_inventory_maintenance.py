"""Background maintenance: the scheduler, the size-tiered policy, and
the backpressure valve.

The contracts under test (see docs/STORAGE.md):

- **Policy correctness** — :class:`CompactionPolicy` only ever selects a
  *contiguous, same-tier run* in table-age order (the associativity
  requirement: reads fold oldest-source-first, so only adjacent
  collapses preserve answers), preferring the smallest tier.
- **Fail-stop, never silent** — a crashed maintenance job resurfaces
  its *original* exception instance on the next write-path call, in
  both background and inline modes, and ``close()`` stays clean.
- **Bounded stall** — when maintenance falls behind its hard limits,
  ingest blocks for the configured wait and then fails with the typed
  :class:`IngestBackpressure`, leaving the rejected batch un-logged.
- **Snapshot isolation under load** — readers racing a background
  flush/compaction stream see batch-atomic, monotonically growing
  answers, and the final state is byte-identical to an inline run.
- **Ingest never waits out a job** — while a flush or tier merge is
  wedged mid-write, ``ingest()``, ``ingest_stats()`` and the server's
  ``stats`` still answer; memtables that pile up meanwhile end as the
  inline run's tables, and a crash replays no more than the valve
  allows.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time

import pytest

from repro.hexgrid import latlng_to_cell
from repro.inventory import GroupKey, sstable
from repro.inventory.codec import encode
from repro.inventory.compaction import CompactionPolicy, CompactionTask
from repro.inventory.live import LiveInventory
from repro.inventory.maintenance import (
    JOB_FLUSH,
    IngestBackpressure,
    MaintenanceConfig,
    MaintenanceScheduler,
)
from repro.inventory.memtable import IngestRecord
from repro.server import InventoryClient, InventoryService, ServerThread
from tests.lock_witness import lock_order_witness

RESOLUTION = 6
LAT, LON = 1.25, 103.8  # every test record lands in this one cell
KEY = GroupKey(cell=latlng_to_cell(LAT, LON, RESOLUTION))


def _record(i: int) -> IngestRecord:
    return IngestRecord(
        mmsi=563_000_000 + (i % 7),
        ts=1_700_000_000.0 + i * 10.0,
        lat=LAT,
        lon=LON,
        sog=8.0 + (i % 5),
        cog=float((i * 31) % 360),
    )


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not reached in time")
        time.sleep(0.005)


class _Boom(Exception):
    """A typed injected crash, so identity assertions are unambiguous."""


@pytest.fixture()
def hold_table_write(monkeypatch):
    """``hold(nth)`` wedges the ``nth`` table the maintenance worker
    writes — a flush or a tier merge — at its commit (the writer's
    close, every byte staged) until the returned ``release`` is set;
    ``started`` fires when the worker gets there.  Teardown releases."""
    releases: list[threading.Event] = []
    real_close = sstable.SSTableWriter.close

    def hold(nth: int = 1) -> tuple[threading.Event, threading.Event]:
        started, release = threading.Event(), threading.Event()
        releases.append(release)
        written = [0]

        def close(writer):
            if threading.current_thread().name == "repro-maintenance":
                written[0] += 1
                if written[0] == nth:
                    started.set()
                    release.wait(10.0)
            real_close(writer)

        monkeypatch.setattr(sstable.SSTableWriter, "close", close)
        return started, release

    yield hold
    for release in releases:
        release.set()


def _returns_within(seconds: float, call):
    """Run ``call`` on a helper thread; fail unless it returns within
    ``seconds`` (the thread is left to finish once maintenance resumes)."""
    result: list = []

    def run():
        try:
            result.append(("ok", call()))
        except BaseException as exc:  # surfaced below
            result.append(("error", exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{call} still blocked after {seconds}s"
    status, value = result[0]
    if status == "error":
        raise value
    return value


# -- the size-tiered policy ---------------------------------------------------------


class TestCompactionPolicy:
    def test_tiers_are_geometric(self):
        policy = CompactionPolicy(fanout=4, base_bytes=100)
        assert policy.tier_of(0) == 0
        assert policy.tier_of(100) == 0
        assert policy.tier_of(101) == 1
        assert policy.tier_of(400) == 1
        assert policy.tier_of(401) == 2
        assert policy.tier_of(100 * 4**3) == 3

    def test_fanout_validation(self):
        CompactionPolicy(fanout=0)  # disabled is legal
        CompactionPolicy(fanout=2)
        with pytest.raises(ValueError):
            CompactionPolicy(fanout=1)
        with pytest.raises(ValueError):
            CompactionPolicy(base_bytes=0)

    def test_disabled_policy_chooses_nothing(self):
        policy = CompactionPolicy(fanout=0, base_bytes=100)
        sizes = [10] * 50
        assert policy.choose(sizes) is None
        assert policy.debt_bytes(sizes) == 0

    def test_chooses_contiguous_same_tier_run(self):
        policy = CompactionPolicy(fanout=2, base_bytes=100)
        # [tier1, tier0, tier0] — only the trailing tier-0 pair is a run.
        task = policy.choose([300, 10, 20])
        assert task == CompactionTask(start=1, stop=3, tier=0, input_bytes=30)

    def test_interrupted_run_is_not_merged(self):
        policy = CompactionPolicy(fanout=3, base_bytes=100)
        # Three tier-0 tables exist but a tier-1 table splits them 2+1:
        # merging across it would reorder the oldest-first fold.
        assert policy.choose([10, 20, 300, 30]) is None

    def test_smallest_tier_wins_oldest_breaks_ties(self):
        policy = CompactionPolicy(fanout=2, base_bytes=100)
        # An eligible tier-1 run ahead of an eligible tier-0 run: the
        # cheap tier-0 merge is chosen even though it is younger.
        task = policy.choose([150, 180, 10, 20])
        assert (task.tier, task.start, task.stop) == (0, 2, 4)
        # Two tier-0 runs (split by tier 1): the older one wins.
        task = policy.choose([10, 20, 300, 30, 40])
        assert (task.tier, task.start, task.stop) == (0, 0, 2)

    def test_debt_sums_every_eligible_run(self):
        policy = CompactionPolicy(fanout=2, base_bytes=100)
        # tier0 run [10, 20] + tier1 run [150, 180]; the lone 10 after
        # the tier-1 run is not an eligible run.
        assert policy.debt_bytes([10, 20, 150, 180, 10]) == 360

    def test_tier_shape_buckets_counts_and_bytes(self):
        policy = CompactionPolicy(fanout=4, base_bytes=100)
        shape = policy.tier_shape([10, 20, 300, 300])
        assert shape == [
            {"tier": 0, "tables": 2, "bytes": 30},
            {"tier": 1, "tables": 2, "bytes": 600},
        ]


# -- the scheduler ------------------------------------------------------------------


class TestMaintenanceScheduler:
    def test_background_runs_submitted_jobs(self):
        ran = []
        scheduler = MaintenanceScheduler({"j": lambda: ran.append("j")})
        try:
            scheduler.submit("j")
            scheduler.wait_idle(timeout=5.0)
        finally:
            scheduler.close()
        assert ran == ["j"]

    def test_unknown_kind_is_rejected(self):
        scheduler = MaintenanceScheduler({"j": lambda: None}, background=False)
        with pytest.raises(ValueError, match="unknown maintenance job"):
            scheduler.submit("nope")
        scheduler.close()

    def test_pending_submissions_dedupe_but_running_requeues(self):
        started = threading.Event()
        release = threading.Event()
        count = [0]

        def job():
            count[0] += 1
            started.set()
            release.wait(5.0)

        scheduler = MaintenanceScheduler({"j": job})
        try:
            scheduler.submit("j")
            assert started.wait(5.0)
            # The kind is RUNNING, so one re-queue is accepted (that is
            # how cascading tier merges chain) — but only one: further
            # submits dedupe against the pending entry.
            scheduler.submit("j")
            scheduler.submit("j")
            scheduler.submit("j")
            assert scheduler.queue_depth() == 2  # 1 running + 1 pending
            release.set()
            scheduler.wait_idle(timeout=5.0)
        finally:
            scheduler.close()
        assert count[0] == 2

    def test_wait_idle_times_out(self):
        release = threading.Event()
        scheduler = MaintenanceScheduler({"j": lambda: release.wait(5.0)})
        try:
            scheduler.submit("j")
            with pytest.raises(TimeoutError):
                scheduler.wait_idle(timeout=0.05)
        finally:
            release.set()
            scheduler.close()

    def test_inline_error_propagates_and_fail_stops(self):
        boom = _Boom("inline")

        def job():
            raise boom

        scheduler = MaintenanceScheduler({"j": job}, background=False)
        with pytest.raises(_Boom) as excinfo:
            scheduler.submit("j")
        assert excinfo.value is boom
        assert scheduler.error is boom
        # Fail-stopped: later submits are dropped, not executed.
        scheduler.submit("j")
        with pytest.raises(_Boom):
            scheduler.wait_idle()
        scheduler.close()  # shutdown is cleanup, never a report channel

    def test_inline_submitters_take_turns(self):
        """Two threads submitting inline at once never run the job over
        itself: the second waits out the first.  Jobs own the live table
        set without a lock because of this."""
        guard = threading.Lock()
        running, overlaps = [0], []
        first_inside, second_inside = threading.Event(), threading.Event()

        def job():
            with guard:
                running[0] += 1
                overlaps.append(running[0] > 1)
                entry = len(overlaps)
            if entry == 1:
                first_inside.set()
                # Stay inside until the other submitter gets in too, or
                # long enough for it to have tried.
                second_inside.wait(0.3)
            else:
                second_inside.set()
            with guard:
                running[0] -= 1

        scheduler = MaintenanceScheduler({"j": job}, background=False)
        threads = [threading.Thread(target=scheduler.submit, args=("j",)) for _ in range(2)]
        threads[0].start()
        assert first_inside.wait(5.0)
        threads[1].start()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        scheduler.close()
        assert overlaps == [False, False]

    def test_inline_close_waits_out_a_running_job(self):
        inside, release = threading.Event(), threading.Event()
        finished: list[int] = []

        def job():
            inside.set()
            release.wait(5.0)
            finished.append(1)

        scheduler = MaintenanceScheduler({"j": job}, background=False)
        submitter = threading.Thread(target=scheduler.submit, args=("j",))
        submitter.start()
        assert inside.wait(5.0)
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        closer.join(0.1)
        assert closer.is_alive(), "close returned while a job was running"
        release.set()
        for thread in (submitter, closer):
            thread.join(5.0)
            assert not thread.is_alive()
        assert finished == [1]
        scheduler.submit("j")  # closed: dropped, not run
        assert finished == [1]

    def test_inline_submitter_behind_a_failed_job_is_dropped(self):
        boom = _Boom("inline")
        release = threading.Event()
        runs: list[int] = []

        def job():
            runs.append(1)
            release.wait(5.0)
            raise boom

        scheduler = MaintenanceScheduler({"j": job}, background=False)
        raised: list[BaseException] = []

        def submit():
            try:
                scheduler.submit("j")
            except _Boom as exc:
                raised.append(exc)

        first = threading.Thread(target=submit)
        first.start()
        _wait_until(lambda: runs)
        second = threading.Thread(target=submit)
        second.start()
        release.set()
        for thread in (first, second):
            thread.join(5.0)
            assert not thread.is_alive()
        # The job ran once; only its submitter saw the error, and the
        # second submitter's turn came after the fail-stop.
        assert runs == [1] and raised == [boom]
        assert scheduler.error is boom
        scheduler.close()

    def test_background_error_is_stored_and_reraised(self):
        boom = _Boom("background")

        def job():
            raise boom

        scheduler = MaintenanceScheduler({"j": job})
        try:
            scheduler.submit("j")
            _wait_until(lambda: scheduler.error is not None)
            assert scheduler.error is boom
            with pytest.raises(_Boom) as excinfo:
                scheduler.check()
            assert excinfo.value is boom
        finally:
            scheduler.close()


def test_maintenance_config_validation():
    with pytest.raises(ValueError):
        MaintenanceConfig(max_frozen_memtables=0)
    with pytest.raises(ValueError):
        MaintenanceConfig(max_debt_bytes=0)
    with pytest.raises(ValueError):
        MaintenanceConfig(backpressure_wait_s=-1.0)


# -- the live write path under background maintenance -------------------------------


class TestLiveBackgroundMaintenance:
    def test_watermark_flush_happens_off_the_ingest_path(self, tmp_path):
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION,
            flush_records=10, tier_fanout=0,
        ) as inventory:
            ack = inventory.ingest([_record(i) for i in range(10)])
            # The ingest call only sealed and scheduled; the table write
            # happens on the maintenance thread.
            assert ack.flushed is True
            inventory.wait_maintenance(timeout=10.0)
            stats = inventory.ingest_stats()
            assert stats["maintenance"] == "background"
            assert stats["tables"] == 1 and stats["flushes"] == 1
            assert stats["memtable_records"] == 0
            assert stats["frozen_memtables"] == 0
            assert inventory.get(KEY).records == 10

    def test_backpressure_is_typed_and_batch_is_not_logged(self, tmp_path):
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION,
            flush_records=1, tier_fanout=0,
            max_frozen_memtables=1, backpressure_wait_s=0.05,
        ) as inventory:
            started = threading.Event()
            release = threading.Event()

            def stuck_flush():
                started.set()
                release.wait(10.0)

            inventory._scheduler._jobs[JOB_FLUSH] = stuck_flush
            inventory.ingest([_record(0)])  # seals; flush job wedges
            assert started.wait(5.0)
            with pytest.raises(IngestBackpressure) as excinfo:
                inventory.ingest([_record(1)])
            error = excinfo.value
            assert error.frozen_memtables >= 1
            assert error.waited_s == pytest.approx(0.05)
            stats = inventory.ingest_stats()
            assert stats["backpressure_waits"] >= 1
            assert stats["backpressure_timeouts"] >= 1
            # Un-wedge, restore the real job, and drain: the valve
            # clears and ingest flows again.
            release.set()
            inventory._scheduler._jobs[JOB_FLUSH] = inventory._job_flush
            inventory.wait_maintenance(timeout=10.0)
            assert inventory.flush() is not None
            inventory.ingest([_record(2)])
            inventory.wait_maintenance(timeout=10.0)
        # The refused batch was never WAL-appended: reopening serves
        # exactly the two accepted records.
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, flush_records=0
        ) as reopened:
            assert reopened.get(KEY).records == 2

    def test_background_job_crash_resurfaces_original_instance(self, tmp_path):
        boom = _Boom("injected maintenance crash")
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION,
            flush_records=1, tier_fanout=0,
        ) as inventory:
            def crash():
                raise boom

            inventory._scheduler._jobs[JOB_FLUSH] = crash
            inventory.ingest([_record(0)])  # schedules the crashing job
            _wait_until(lambda: inventory._scheduler.error is not None)
            with pytest.raises(_Boom) as excinfo:
                inventory.ingest([_record(1)])
            assert excinfo.value is boom  # typed errors stay typed
            assert (
                inventory.ingest_stats()["maintenance_error"]
                == "injected maintenance crash"
            )
            # close() (via the context manager) must stay clean.
        # Recovery is the same as for an inline crash: the WAL still
        # holds everything the unflushed memtable did.
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, flush_records=0
        ) as reopened:
            assert reopened.get(KEY).records == 1

    def test_concurrent_ingest_and_query_stress(self, tmp_path):
        """Readers racing the writer and the maintenance thread see
        batch-atomic, monotonically growing answers, and the final
        state is byte-identical to an inline-mode run of the same
        batches.  The lock-order witness watches every lock site of the
        live inventory throughout, close included."""
        total_batches, batch_size = 30, 20
        # 880 B keeps fresh flushes and their first merges in tier 0 and
        # moves the grown one-key table to tier 1: the run cascades
        # between the two tiers and ends with two tables.
        kwargs = dict(
            resolution=RESOLUTION, flush_records=40,
            tier_fanout=2, tier_base_bytes=880,
        )
        failures: list[BaseException] = []
        done = threading.Event()
        inventory = LiveInventory(tmp_path / "live", **kwargs)
        with lock_order_witness(inventory), inventory:
            def writer():
                try:
                    n = 0
                    for _ in range(total_batches):
                        inventory.ingest(
                            [_record(n + i) for i in range(batch_size)]
                        )
                        inventory.sync()
                        n += batch_size
                except BaseException as exc:  # surfaced by the assert below
                    failures.append(exc)
                finally:
                    done.set()

            def reader():
                last = 0
                try:
                    while not done.is_set():
                        summary = inventory.get(KEY)
                        if summary is None:
                            continue
                        records = summary.records
                        assert records >= last, "snapshot went backwards"
                        assert records % batch_size == 0, "partial batch seen"
                        last = records
                        assert inventory.cells() == {KEY.cell}
                        assert inventory.route_cells("A", "B", "cargo") == {}
                except BaseException as exc:
                    failures.append(exc)

            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader) for _ in range(2)]
            # Frequent thread switches, so the lock-free valve's reads of
            # the table list interleave with the worker's rebinds.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                    assert not thread.is_alive(), "stress thread hung"
            finally:
                sys.setswitchinterval(interval)
            assert not failures, failures
            inventory.wait_maintenance(timeout=30.0)
            assert inventory.get(KEY).records == total_batches * batch_size
            stats = inventory.ingest_stats()
            assert stats["flushes"] >= 1
            live_items = {
                key: summary.to_dict() for key, summary in inventory.items()
            }
            assert inventory.flush() is None  # the watermark sealed it all
            inventory.ingest([_record(total_batches * batch_size)])
            assert inventory.flush() == inventory.table_paths[-1]
            assert len(inventory.table_paths) >= 2
            inventory.compact()
            assert len(inventory.table_paths) == 1
            assert inventory.get(KEY).records == total_batches * batch_size + 1
        with LiveInventory(
            tmp_path / "ref", background_maintenance=False, **kwargs
        ) as reference:
            n = 0
            for _ in range(total_batches):
                reference.ingest([_record(n + i) for i in range(batch_size)])
                n += batch_size
            reference_items = {
                key: summary.to_dict() for key, summary in reference.items()
            }
        assert live_items == reference_items


# -- ingest never waits out a running job --------------------------------------------


def _batches(count: int, size: int) -> list[list[IngestRecord]]:
    return [[_record(n * size + i) for i in range(size)] for n in range(count)]


class TestIngestDoesNotWaitOutMaintenance:
    # Table writes 1 and 2 are the two flushes; with fanout 2, write 3
    # is the tier merge of both.
    @pytest.mark.parametrize(
        "nth, tier_fanout", [(1, 0), (3, 2)], ids=["flush", "tier-merge"]
    )
    def test_ingest_and_stats_answer_while_a_table_write_is_held(
        self, tmp_path, hold_table_write, nth, tier_fanout
    ):
        started, release = hold_table_write(nth)
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION,
            flush_records=10, tier_fanout=tier_fanout,
        ) as inventory:
            try:
                for batch in _batches(2, 10):
                    inventory.ingest(batch)
                assert started.wait(5.0), "the held table write never started"
                ack = _returns_within(1.0, lambda: inventory.ingest([_record(20)]))
                assert ack.accepted == 1
                stats = _returns_within(1.0, inventory.ingest_stats)
                assert stats["maintenance_queue"] >= 1
            finally:
                release.set()
            inventory.wait_maintenance(timeout=10.0)
            assert inventory.get(KEY).records == 21

    def test_server_stats_answer_while_a_compaction_is_held(
        self, tmp_path, hold_table_write
    ):
        started, release = hold_table_write(3)  # the tier merge
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, flush_records=10, tier_fanout=2
        ) as backend:
            try:
                with ServerThread(InventoryService(backend)) as handle:
                    with InventoryClient(*handle.address) as client:
                        for batch in _batches(2, 10):
                            client.ingest([record.to_wire() for record in batch])
                        assert started.wait(5.0), "the tier merge never started"
                        stats = _returns_within(1.0, client.stats)
                        assert stats["inventory"]["ingest"]["records_ingested"] == 20
            finally:
                release.set()
            backend.wait_maintenance(timeout=10.0)
            assert backend.ingest_stats()["compactions"] == 1

    def test_table_layout_does_not_depend_on_timing(self, tmp_path, hold_table_write):
        """Memtables that pile up behind a slow job are flushed one table
        each, with the cascade after each: the final tables are the
        inline run's, byte for byte."""
        # 880 B keeps fresh flushes and their first merges in tier 0 and
        # moves the grown one-key table to tier 1: the run cascades
        # between the two tiers.
        kwargs = dict(
            resolution=RESOLUTION, flush_records=40,
            tier_fanout=2, tier_base_bytes=880,
        )
        batches = _batches(30, 20)
        started, release = hold_table_write(1)
        peak_sealed = 0
        with LiveInventory(tmp_path / "live", **kwargs) as inventory:
            try:
                for batch in batches:
                    inventory.ingest(batch)
                    sealed = inventory.ingest_stats()["frozen_memtables"]
                    peak_sealed = max(peak_sealed, sealed)
                    if sealed >= 3:
                        release.set()
            finally:
                release.set()
            inventory.wait_maintenance(timeout=30.0)
            tables = [(p.name, p.read_bytes()) for p in inventory.table_paths]
            items = [(k, encode(s.to_dict())) for k, s in inventory.items()]
        assert started.is_set() and peak_sealed >= 3
        with LiveInventory(
            tmp_path / "ref", background_maintenance=False, **kwargs
        ) as reference:
            for batch in batches:
                reference.ingest(batch)
            assert tables == [(p.name, p.read_bytes()) for p in reference.table_paths]
            assert items == [(k, encode(s.to_dict())) for k, s in reference.items()]

    def test_recovery_replay_is_bounded_by_the_valve(self, tmp_path, hold_table_write):
        """With maintenance held, sealed memtables wait in the WAL until
        the valve closes: a crash then replays at most
        (max_frozen_memtables + 1) * flush_records + one batch."""
        flush_records, batch_size, max_frozen = 50, 20, 3
        started, release = hold_table_write(1)
        acked = 0
        inventory = LiveInventory(
            tmp_path / "live", resolution=RESOLUTION,
            flush_records=flush_records, tier_fanout=0,
            max_frozen_memtables=max_frozen, backpressure_wait_s=0.05,
        )
        try:
            with pytest.raises(IngestBackpressure):
                for batch in _batches(100, batch_size):
                    inventory.ingest(batch)
                    acked += len(batch)
            assert started.is_set()
            # The crash: the directory exactly as a kill would leave it.
            shutil.copytree(tmp_path / "live", tmp_path / "crashed")
        finally:
            release.set()
            inventory.close()
        with LiveInventory(tmp_path / "crashed", flush_records=0) as recovered:
            replayed = recovered.ingest_stats()["replayed"]
            assert recovered.get(KEY).records == acked
        assert flush_records < replayed <= (max_frozen + 1) * flush_records + batch_size
