"""The live write path's fault matrix: kill ingestion at every
filesystem operation and require the recovery contract.

Invariants, per cell of the matrix:

- **Acked-prefix durability** — every record whose ingest ack reported
  ``durable`` is served after reopening (asserted for every fault kind
  whose ack is honest; ``short`` writes and ``dropped`` fsyncs *lie* to
  the writer, so for those the assertion is consistency, not the ack).
- **Prefix visibility** — what survives is always a prefix of the
  appended record sequence: no record is half-visible, none is invented,
  none is double-counted (the crash-between-flush-publish-and-retire
  window must not replay retired-but-undeleted segments).
- **Never silent** — recovery either reproduces a valid prefix or
  raises a typed :class:`SSTableError`; ``verify_wal`` triages the same
  directory the same way.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.inventory import SSTableError, verify_table
from repro.inventory.keys import GroupingSet
from repro.inventory.live import LiveInventory, manifest_tables
from repro.inventory.memtable import IngestRecord, Memtable
from repro.inventory.wal import list_segments, verify_wal
from repro.testing import Fault, FaultInjector, FaultPlan, SimulatedCrash, record_ops
from tests.lock_witness import lock_order_witness

RESOLUTION = 6
#: Fault kinds whose ack can be trusted (the disk did what it said).
HONEST = frozenset({"torn", "enospc", "crash"})


def _record(i):
    on_trip = i % 3 != 2
    return IngestRecord(
        mmsi=200_000_000 + (i % 5),
        ts=1_700_000_000.0 + i * 60.0,
        lat=1.0 + (i % 7) * 0.5,
        lon=103.0 + (i % 4) * 0.5,
        sog=8.0 + (i % 6),
        cog=float((i * 53) % 360),
        vessel_type="cargo" if i % 2 else "tanker",
        origin="SGSIN" if on_trip else None,
        destination="NLRTM" if on_trip else None,
        trip_id=f"t{i % 3}" if on_trip else None,
    )


def _batches(sizes):
    out, i = [], 0
    for size in sizes:
        out.append([_record(j) for j in range(i, i + size)])
        i += size
    return out


def _campaign(directory, batches, state, flush_after=None, background=False):
    """Ingest ``batches`` (flushing after batch ``flush_after``),
    updating ``state`` as acks land so a crash mid-campaign leaves the
    bookkeeping of everything that completed.

    ``background=True`` runs flush/compaction jobs on the maintenance
    worker thread instead of inline; ``wait_maintenance`` after every
    batch keeps the global filesystem-op order deterministic (the worker
    only touches disk while the campaign thread is parked), so the same
    fault plans sweep both modes.  A fault that fires inside a
    background job resurfaces — the same exception instance — from the
    ``flush()``/``wait_maintenance()``/``ingest()`` call that observes
    it, which is exactly the never-silent contract under test.  The
    lock-order witness watches the inventory throughout, so every crash
    path is also checked for taking ``_write_lock`` under ``_mem_lock``.
    """
    inventory = LiveInventory(
        directory,
        resolution=RESOLUTION,
        tier_fanout=0,
        background_maintenance=background,
    )
    with lock_order_witness(inventory), inventory:
        for i, batch in enumerate(batches):
            state["attempted"] += len(batch)
            ack = inventory.ingest(batch)
            if ack.durable:
                state["acked"] += ack.accepted
            if i == flush_after:
                inventory.flush()
            if background:
                inventory.wait_maintenance()


def _served_records(inventory):
    """How many records the inventory serves, with the cross-grouping
    consistency check: every record feeds CELL and CELL_TYPE alike, so
    a divergence means a half-applied record."""
    by_set = {}
    for key, summary in inventory.items():
        by_set[key.grouping_set] = by_set.get(key.grouping_set, 0) + summary.records
    cell = by_set.get(GroupingSet.CELL, 0)
    assert cell == by_set.get(GroupingSet.CELL_TYPE, 0), (
        "record applied to one grouping set but not another"
    )
    return cell


def _assert_prefix_equivalence(inventory, served):
    """The served answers equal an in-memory fold of the first
    ``served`` records — the prefix-visibility contract, checked per
    group against the reference memtable."""
    reference = Memtable(RESOLUTION)
    for i in range(served):
        reference.apply(_record(i))
    got = {key: summary.records for key, summary in inventory.items()}
    want = {key: summary.records for key, summary in reference.groups.items()}
    assert got == want


def _verify_recovery(directory, kind, state):
    """Reopen (no injector) and enforce the matrix invariants."""
    try:
        # resolution is passed explicitly: a crash before the very first
        # manifest write leaves a directory with no remembered config.
        with LiveInventory(directory, resolution=RESOLUTION) as inventory:
            served = _served_records(inventory)
            _assert_prefix_equivalence(inventory, served)
    except SSTableError:
        # Typed refusal — acceptable only when the hardware lied (a
        # short append or dropped fsync leaves interior damage no crash
        # could produce); fsck must agree, in whichever file the hole
        # landed: the WAL or a committed table.
        assert kind not in HONEST, f"typed failure from honest fault {kind!r}"
        wal_bad = verify_wal(directory).hard_corruption
        try:
            table_bad = any(
                not verify_table(path).ok for path in manifest_tables(directory)
            )
        except SSTableError:
            table_bad = True  # the manifest itself took the hit
        assert wal_bad or table_bad, "typed error but fsck sees nothing wrong"
        return "typed-error"
    if kind in HONEST:
        assert served >= state["acked"], (
            f"acked record lost: served {served} < acked {state['acked']}"
        )
    assert served <= state["attempted"], (
        f"records invented or double-counted: {served} > {state['attempted']}"
    )
    assert verify_wal(directory).ok  # reopen repaired any torn tail
    return "recovered"


class TestIngestFaultMatrix:
    BATCH_SIZES = (4, 4, 4)
    FLUSH_AFTER = 1

    def _run(self, directory, plan=None, state=None, background=False):
        state = state if state is not None else {"attempted": 0, "acked": 0}
        _campaign(
            directory,
            _batches(self.BATCH_SIZES),
            state,
            flush_after=self.FLUSH_AFTER,
            background=background,
        )
        return state

    # The same sweep runs twice: jobs inline on the campaign thread, and
    # on the maintenance worker — a crash inside a background flush must
    # land in recovered-or-typed exactly like an inline one.
    @pytest.mark.parametrize("background", [False, True], ids=["inline", "background"])
    def test_matrix(self, tmp_path, background):
        probe = tmp_path / "probe"
        counts = record_ops(lambda: self._run(probe, background=background))
        assert counts["write"] > 10 and counts["fsync"] > 10
        assert counts["rename"] >= 2 and counts["unlink"] >= 1
        cases = [
            ("write", index, kind)
            for index in range(counts["write"])
            for kind in ("torn", "short", "crash", "enospc")
        ]
        cases += [
            ("fsync", index, kind)
            for index in range(counts["fsync"])
            for kind in ("crash", "dropped")
        ]
        cases += [("rename", index, "crash") for index in range(counts["rename"])]
        cases += [("unlink", index, "crash") for index in range(counts["unlink"])]

        outcomes = {"recovered": 0, "typed-error": 0}
        for op, index, kind in cases:
            directory = tmp_path / f"{op}{index}-{kind}"
            state = {"attempted": 0, "acked": 0}
            plan = FaultPlan.single(op, index, kind, seed=index)
            with FaultInjector(plan) as injector:
                try:
                    self._run(directory, state=state, background=background)
                except SSTableError:
                    # The write path read its own flush back and caught
                    # the damage in-process — only lying hardware can
                    # produce a hole a crash-free build then trips on.
                    assert kind not in HONEST, (
                        f"in-process corruption from honest fault {kind!r}"
                    )
                except (SimulatedCrash, OSError):
                    pass
            assert injector.triggered, f"fault {op}#{index} never fired"
            outcomes[_verify_recovery(directory, kind, state)] += 1
        # The matrix exercised both legal outcomes and nothing else.
        assert outcomes["recovered"] > len(cases) // 2
        assert sum(outcomes.values()) == len(cases)

    @pytest.mark.parametrize("background", [False, True], ids=["inline", "background"])
    def test_completed_campaign_is_fully_served(self, tmp_path, background):
        state = self._run(tmp_path / "clean", background=background)
        assert state["acked"] == state["attempted"] == sum(self.BATCH_SIZES)
        with LiveInventory(tmp_path / "clean") as inventory:
            served = _served_records(inventory)
            assert served == state["acked"]
            _assert_prefix_equivalence(inventory, served)


class TestTargetedWindows:
    """The three scenarios the fault kinds were added for."""

    def test_short_append_is_caught_never_silent(self, tmp_path):
        """A short WAL append with appends after it leaves interior
        damage; recovery must raise typed (or, if the hole happened to
        land at the tail, truncate) — never serve a silently wrong set."""
        outcomes = set()
        for index in range(1, 14):
            directory = tmp_path / f"short{index}"
            state = {"attempted": 0, "acked": 0}
            plan = FaultPlan.single("write", index, "short", seed=index)
            with FaultInjector(plan) as injector:
                try:
                    _campaign(directory, _batches((6, 6)), state)
                except (SimulatedCrash, OSError, SSTableError):
                    pass
            if not injector.triggered:
                continue
            outcomes.add(_verify_recovery(directory, "short", state))
        # Across the sweep both a typed refusal (interior hole) and a
        # clean recovery (hole at the tail) must appear.
        assert "typed-error" in outcomes

    def test_fsync_dropped_then_crash_stays_consistent(self, tmp_path):
        """The disk drops an fsync, the process dies later: the ack for
        the dropped batch is betrayed by the hardware, but recovery must
        still produce a consistent prefix or a typed error."""
        directory = tmp_path / "lying"
        state = {"attempted": 0, "acked": 0}
        plan = FaultPlan(
            faults=(Fault("fsync", 3, "dropped"), Fault("write", 9, "crash")),
            seed=5,
        )
        with FaultInjector(plan) as injector:
            with pytest.raises(SimulatedCrash):
                _campaign(directory, _batches((4, 4, 4)), state)
        assert len(injector.triggered) == 2
        _verify_recovery(directory, "dropped", state)

    def test_crash_between_flush_publish_and_retire(self, tmp_path):
        """The manifest commits the flushed table, then the process dies
        before the sealed WAL segments are unlinked.  Reopening must
        serve every record exactly once — the stale segments are below
        the manifest's WAL floor and must not replay."""
        directory = tmp_path / "window"
        state = {"attempted": 0, "acked": 0}
        plan = FaultPlan.single("unlink", 0, "crash")
        with FaultInjector(plan) as injector:
            with pytest.raises(SimulatedCrash):
                _campaign(directory, _batches((5, 5)), state, flush_after=0)
        assert injector.crashed
        # The window is real: the table is committed AND the sealed
        # segment is still on disk.
        assert list(Path(directory).glob("tab-*.sst"))
        stale = [seq for seq, _ in list_segments(directory)]
        assert len(stale) >= 2
        with LiveInventory(directory) as inventory:
            served = _served_records(inventory)
            assert served == state["acked"] == 5  # once each, not twice
            _assert_prefix_equivalence(inventory, served)
        # Recovery finished the interrupted retirement: the sealed
        # segment below the manifest's WAL floor is gone (a fresh active
        # segment may have been opened, so compare membership, not count).
        remaining = [seq for seq, _ in list_segments(directory)]
        assert stale[0] not in remaining


class TestCrashAnywhereProperty:
    """Hypothesis drives the campaign shape *and* the crash point."""

    @settings(max_examples=25, deadline=None)
    @given(
        fault=st.sampled_from(
            [
                ("write", "torn"),
                ("write", "crash"),
                ("fsync", "crash"),
                ("rename", "crash"),
                ("unlink", "crash"),
            ]
        ),
        index=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=999),
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        flush_after=st.integers(min_value=0, max_value=3),
        background=st.booleans(),
    )
    def test_acked_prefix_survives_any_crash(
        self, fault, index, seed, sizes, flush_after, background
    ):
        op, kind = fault
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "live"
            state = {"attempted": 0, "acked": 0}
            plan = FaultPlan.single(op, index, kind, seed=seed)
            with FaultInjector(plan) as injector:
                try:
                    _campaign(
                        directory,
                        _batches(sizes),
                        state,
                        flush_after=min(flush_after, len(sizes) - 1),
                        background=background,
                    )
                except (SimulatedCrash, OSError):
                    pass
            if not injector.triggered:
                # Index beyond the campaign's op count: it completed.
                assert state["acked"] == state["attempted"]
            _verify_recovery(directory, kind, state)
