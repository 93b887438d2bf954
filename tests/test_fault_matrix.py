"""The fault matrix: every injected fault is a typed error or a full
recovery — never a silent wrong answer, never a partial table at a
final path.

Sweeps :mod:`repro.testing.faults` over the storage layer:

- every write index × {torn, enospc, crash} during a table build;
- every rename index × crash and every fsync index × crash;
- every read index × {eio, bitflip} during a query campaign;
- a kill-and-resume campaign over the windowed pipeline build,
  asserting the resumed output is byte-identical to an uninterrupted
  build.
"""

import errno

import pytest

from repro.hexgrid import latlng_to_cell
from repro.inventory import (
    CorruptionError,
    GroupKey,
    Inventory,
    SSTableError,
    SSTableReader,
    SSTableWriter,
    verify_table,
    write_inventory,
)
from repro.inventory import fsio
from repro.inventory.summary import CellSummary
from repro.testing import Fault, FaultInjector, FaultPlan, SimulatedCrash, record_ops


def _inventory(cells=20):
    inventory = Inventory(resolution=6)
    for i in range(cells):
        summary = CellSummary()
        summary.update(mmsi=200_000_000 + i, sog=8.0 + i, cog=45.0, heading=45)
        inventory.put(
            GroupKey(cell=latlng_to_cell(5.0 + i * 0.4, 110.0, 6)), summary
        )
    return inventory


def _assert_absent_or_valid(path, inventory) -> str:
    """The crash-safety invariant: the final path holds either nothing
    or a complete, verified table with the right answers."""
    if not path.exists():
        return "absent"
    check = verify_table(path)
    assert check.ok, "partial/corrupt table at final path:\n" + "\n".join(
        check.lines()
    )
    with SSTableReader(path) as reader:
        for key, summary in inventory.items():
            got = reader.get(key)
            assert got is not None and got.records == summary.records, (
                f"wrong answer for {key} after injected fault"
            )
    return "valid"


class TestHarness:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("write", 0, "eio")  # read-only kind on a write
        with pytest.raises(ValueError):
            Fault("rename", 0, "torn")
        with pytest.raises(ValueError):
            Fault("nope", 0, "crash")
        with pytest.raises(ValueError):
            Fault("write", -1, "torn")

    def test_record_ops_counts_a_build(self, tmp_path):
        inventory = _inventory()
        counts = record_ops(lambda: write_inventory(inventory, tmp_path / "t.sst"))
        assert counts["write"] > 0
        assert counts["rename"] == 1  # the table: one file, one commit point
        assert counts["fsync"] > 0

    def test_enospc_is_a_real_errno(self, tmp_path):
        plan = FaultPlan.single("write", 0, "enospc")
        with FaultInjector(plan) as injector:
            with pytest.raises(OSError) as exc_info:
                fsio.atomic_write_bytes(tmp_path / "f", b"payload")
        assert exc_info.value.errno == errno.ENOSPC
        assert injector.triggered == [Fault("write", 0, "enospc")]
        # The failed write cleaned its temp up (no crash was simulated).
        assert list(tmp_path.iterdir()) == []

    def test_torn_write_is_deterministic(self, tmp_path):
        leftovers = []
        for name in ("a", "b"):
            directory = tmp_path / name
            directory.mkdir()
            plan = FaultPlan.single("write", 0, "torn", seed=11)
            with FaultInjector(plan) as injector:
                with pytest.raises(SimulatedCrash):
                    fsio.atomic_write_bytes(directory / "f", b"x" * 4096)
            assert injector.crashed
            leftovers.append((directory / "f.tmp").read_bytes())
        assert leftovers[0] == leftovers[1]
        assert 0 <= len(leftovers[0]) < 4096  # a strict prefix reached disk

    def test_filesystem_freezes_after_crash(self, tmp_path):
        plan = FaultPlan.single("rename", 0, "crash")
        with FaultInjector(plan):
            with pytest.raises(SimulatedCrash):
                fsio.atomic_write_bytes(tmp_path / "f", b"payload")
            # Post-crash, nothing else lands: the temp is orphaned just
            # as a real dead process would orphan it.
            fsio.unlink(tmp_path / "f.tmp")
        assert (tmp_path / "f.tmp").exists()
        assert not (tmp_path / "f").exists()


class TestWriteFaultMatrix:
    """Every write/rename/fsync of a table build, every applicable kind."""

    def test_every_write_fault_leaves_final_path_absent_or_valid(self, tmp_path):
        inventory = _inventory()
        probe = tmp_path / "probe"
        probe.mkdir()
        counts = record_ops(lambda: write_inventory(inventory, probe / "t.sst"))
        cases = [
            ("write", index, kind)
            for index in range(counts["write"])
            for kind in ("torn", "enospc", "crash")
        ]
        cases += [("rename", index, "crash") for index in range(counts["rename"])]
        cases += [("fsync", index, "crash") for index in range(counts["fsync"])]
        assert len(cases) > 10  # the matrix is real, not degenerate

        outcomes = {}
        for op, index, kind in cases:
            directory = tmp_path / f"{op}{index}_{kind}"
            directory.mkdir()
            path = directory / "t.sst"
            plan = FaultPlan.single(op, index, kind, seed=3)
            with FaultInjector(plan) as injector:
                try:
                    write_inventory(inventory, path)
                    error = None
                except (SimulatedCrash, OSError) as exc:
                    error = exc
            assert injector.triggered, f"fault {op}#{index} never fired"
            state = _assert_absent_or_valid(path, inventory)
            if error is None:
                # The build claimed success: the table must exist and
                # answer correctly (e.g. a crash-faulted fsync *after*
                # the commit rename).
                assert state == "valid"
            if isinstance(error, OSError) and not isinstance(error, SimulatedCrash):
                # Process-alive failure (ENOSPC): the writer's error
                # path must have cleaned every staging file up.
                leftovers = [p.name for p in directory.iterdir()]
                assert leftovers == [], f"orphans after {op}#{index}: {leftovers}"
            outcomes[(op, index, kind)] = state if error is None else (
                f"{state}+typed"
            )
        # Zero silent wrong answers: every cell was asserted above.
        assert len(outcomes) == len(cases)


class TestReadFaultMatrix:
    """Every read of a query campaign × {eio, bitflip}: a typed error or
    byte-identical answers — never a changed answer."""

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("read-matrix")
        inventory = _inventory()
        path = directory / "t.sst"
        write_inventory(inventory, path)
        keys = sorted(
            (key for key, _ in inventory.items()), key=lambda k: k.sort_key()
        )
        return path, keys

    @staticmethod
    def _campaign(path, keys):
        with SSTableReader(path) as reader:
            point = [
                summary.records
                for summary in (reader.get(key) for key in keys)
                if summary is not None
            ]
            full = [
                (key.sort_key(), summary.records)
                for key, summary in reader.scan()
            ]
            routes = reader.read_routes()
        return point, full, routes

    def test_every_read_fault_is_typed_or_identical(self, table):
        path, keys = table
        baseline = self._campaign(path, keys)
        assert baseline[0] and baseline[1]
        counts = record_ops(lambda: self._campaign(path, keys))
        assert counts["read"] > 5
        for index in range(counts["read"]):
            for kind in ("eio", "bitflip"):
                plan = FaultPlan.single("read", index, kind, seed=index)
                with FaultInjector(plan) as injector:
                    try:
                        result = self._campaign(path, keys)
                    except SSTableError:
                        continue  # typed: CorruptionError/SSTableError
                assert injector.triggered, f"read fault #{index} never fired"
                assert result == baseline, (
                    f"silent wrong answer under read#{index} {kind}"
                )

    def test_bitflipped_block_names_the_block(self, table):
        path, keys = table
        # The first data-block read of a scan is after the open-time
        # header/footer/index reads; find it by sweeping until a
        # CorruptionError carries a block index.
        counts = record_ops(lambda: self._campaign(path, keys))
        saw_block_error = False
        for index in range(counts["read"]):
            plan = FaultPlan.single("read", index, "bitflip", seed=1)
            with FaultInjector(plan):
                try:
                    self._campaign(path, keys)
                except CorruptionError as exc:
                    if exc.block_index is not None:
                        saw_block_error = True
                        break
                except SSTableError:
                    continue
        assert saw_block_error


class TestKillAndResume:
    """Kill a windowed build mid-flight, resume it, and require output
    byte-identical to an uninterrupted build."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro import WorldConfig, generate_dataset

        return generate_dataset(
            WorldConfig(seed=77, n_vessels=8, days=6.0, report_interval_s=900.0)
        )

    @pytest.fixture(scope="class")
    def reference(self, world, tmp_path_factory):
        from repro import PipelineConfig, build_inventory

        out = tmp_path_factory.mktemp("reference") / "inv.sst"
        result = build_inventory(
            world.positions, world.fleet, world.ports,
            PipelineConfig(), output=out, windows=3,
        )
        return out, result

    def test_killed_build_resumes_byte_identical(
        self, world, reference, tmp_path, monkeypatch
    ):
        import repro.pipeline.run as run_mod
        from repro import PipelineConfig, build_inventory
        from repro.pipeline.manifest import manifest_path

        ref_out, ref_result = reference
        out = tmp_path / "inv.sst"
        # Renames per window: table, manifest.  Crashing rename #2 kills
        # the build at window 1's table publish: window 0 is durable and
        # recorded, window 1 and 2 are not.
        plan = FaultPlan.single("rename", 2, "crash")
        with FaultInjector(plan) as injector:
            with pytest.raises(SimulatedCrash):
                build_inventory(
                    world.positions, world.fleet, world.ports,
                    PipelineConfig(), output=out, windows=3,
                )
        assert injector.crashed
        assert not out.exists()
        assert manifest_path(out).exists()  # the checkpoint survived
        assert (tmp_path / "inv.sst.w0").exists()

        # Resume: window 0 must be reused, windows 1 and 2 rebuilt.
        window_runs = []
        original = run_mod._build_window

        def counting(*args, **kwargs):
            window_runs.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(run_mod, "_build_window", counting)
        result = build_inventory(
            world.positions, world.fleet, world.ports,
            PipelineConfig(), output=out, windows=3, resume=True,
        )
        assert len(window_runs) == 2
        assert out.read_bytes() == ref_out.read_bytes()
        assert result.funnel == ref_result.funnel
        assert result.entries == ref_result.entries
        # Success cleaned the checkpoint and the staging tables up, and
        # the table is one file.
        assert [path.name for path in tmp_path.iterdir()] == ["inv.sst"]

    @pytest.fixture(scope="class")
    def one_window(self, world, tmp_path_factory):
        """An uninterrupted one-window build and the ops it performed."""
        from repro import PipelineConfig, build_inventory

        out = tmp_path_factory.mktemp("one_window") / "inv.sst"
        counts = record_ops(lambda: build_inventory(
            world.positions, world.fleet, world.ports, PipelineConfig(), output=out,
        ))
        return out, counts

    # A one-window build publishes its staged table by rename: the last
    # rename is the table's, the last fsync is the directory's.  (op,
    # position from the end, whether the output exists after the crash.)
    @pytest.mark.parametrize("op, from_end, left", [
        ("rename", 1, False),
        ("fsync", 1, True),
    ])
    def test_crash_in_one_window_publish_resumes_byte_identical(
        self, world, one_window, tmp_path, op, from_end, left
    ):
        from repro import PipelineConfig, build_inventory
        from repro.pipeline.manifest import manifest_path

        ref_out, counts = one_window
        out = tmp_path / "inv.sst"
        plan = FaultPlan.single(op, counts[op] - from_end, "crash")
        with FaultInjector(plan) as injector:
            with pytest.raises(SimulatedCrash):
                build_inventory(
                    world.positions, world.fleet, world.ports,
                    PipelineConfig(), output=out,
                )
        assert injector.crashed
        assert out.exists() == left
        assert manifest_path(out).exists()

        build_inventory(
            world.positions, world.fleet, world.ports,
            PipelineConfig(), output=out, resume=True,
        )
        assert out.read_bytes() == ref_out.read_bytes()
        assert not manifest_path(out).exists()
        assert not list(tmp_path.glob("inv.sst.w*"))

    def test_crash_before_publish_fsync_resumes_without_rebuilding(
        self, world, one_window, tmp_path, monkeypatch
    ):
        # The table is already renamed onto the output: resume checks its
        # bytes against the manifest and only redoes the directory fsync.
        import repro.pipeline.run as run_mod
        from repro import PipelineConfig, build_inventory
        from repro.pipeline.manifest import manifest_path

        ref_out, counts = one_window
        out = tmp_path / "inv.sst"
        plan = FaultPlan.single("fsync", counts["fsync"] - 1, "crash")
        with FaultInjector(plan):
            with pytest.raises(SimulatedCrash):
                build_inventory(
                    world.positions, world.fleet, world.ports,
                    PipelineConfig(), output=out,
                )
        window_runs = []
        original = run_mod._build_window

        def counting(*args, **kwargs):
            window_runs.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(run_mod, "_build_window", counting)
        build_inventory(
            world.positions, world.fleet, world.ports,
            PipelineConfig(), output=out, resume=True,
        )
        assert window_runs == []
        assert out.read_bytes() == ref_out.read_bytes()
        assert not manifest_path(out).exists()
        assert not list(tmp_path.glob("inv.sst.w*"))

    def test_resume_discards_manifest_from_different_inputs(
        self, world, reference, tmp_path, monkeypatch
    ):
        import repro.pipeline.run as run_mod
        from repro import PipelineConfig, build_inventory

        ref_out, _ = reference
        out = tmp_path / "inv.sst"
        plan = FaultPlan.single("rename", 2, "crash")  # window 1's table
        with FaultInjector(plan):
            with pytest.raises(SimulatedCrash):
                build_inventory(
                    world.positions, world.fleet, world.ports,
                    PipelineConfig(), output=out, windows=3,
                )
        # Resume with a different window split: the fingerprint differs,
        # so nothing is reused and every window runs.
        window_runs = []
        original = run_mod._build_window

        def counting(*args, **kwargs):
            window_runs.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(run_mod, "_build_window", counting)
        build_inventory(
            world.positions, world.fleet, world.ports,
            PipelineConfig(), output=out, windows=2, resume=True,
        )
        assert len(window_runs) == 2  # both windows of the new split

    def test_resume_with_damaged_window_rebuilds_it(
        self, world, reference, tmp_path
    ):
        from repro import PipelineConfig, build_inventory

        ref_out, _ = reference
        out = tmp_path / "inv.sst"
        plan = FaultPlan.single("rename", 4, "crash")  # window 2's table
        with FaultInjector(plan):
            with pytest.raises(SimulatedCrash):
                build_inventory(
                    world.positions, world.fleet, world.ports,
                    PipelineConfig(), output=out, windows=3,
                )
        # Bit-rot one surviving staging table: resume must notice the
        # checksum mismatch and rebuild it rather than trust it.
        staged = tmp_path / "inv.sst.w0"
        payload = bytearray(staged.read_bytes())
        payload[len(payload) // 2] ^= 0x10
        staged.write_bytes(bytes(payload))
        build_inventory(
            world.positions, world.fleet, world.ports,
            PipelineConfig(), output=out, windows=3, resume=True,
        )
        assert out.read_bytes() == ref_out.read_bytes()

    def test_resume_without_output_rejected(self, world):
        from repro import PipelineConfig, build_inventory

        with pytest.raises(ValueError):
            build_inventory(
                world.positions, world.fleet, world.ports,
                PipelineConfig(), resume=True,
            )

    def test_resume_with_no_manifest_is_a_clean_build(
        self, world, reference, tmp_path
    ):
        from repro import PipelineConfig, build_inventory

        ref_out, _ = reference
        out = tmp_path / "inv.sst"
        build_inventory(
            world.positions, world.fleet, world.ports,
            PipelineConfig(), output=out, windows=3, resume=True,
        )
        assert out.read_bytes() == ref_out.read_bytes()


class TestWriterErrorPath:
    """A raising ``with SSTableWriter`` body must not leave a partial
    table behind."""

    def test_body_exception_leaves_no_files(self, tmp_path):
        path = tmp_path / "t.sst"
        inventory = _inventory(cells=3)
        with pytest.raises(RuntimeError, match="boom"):
            with SSTableWriter(path) as writer:
                for key, summary in sorted(
                    inventory.items(), key=lambda kv: kv[0].sort_key()
                ):
                    writer.add(key, summary)
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []
        assert not path.exists()

    def test_close_failure_cleans_staging(self, tmp_path):
        path = tmp_path / "t.sst"
        plan = FaultPlan.single("write", 2, "enospc")
        inventory = _inventory(cells=3)
        with FaultInjector(plan):
            with pytest.raises(OSError):
                write_inventory(inventory, path)
        assert list(tmp_path.iterdir()) == []
