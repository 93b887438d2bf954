"""Integration tests: the full pipeline over the shared small world."""

import pytest

from repro import PipelineConfig, build_inventory
from repro.engine import Engine, EngineConfig
from repro.inventory.keys import GroupingSet


class TestFunnel:
    def test_funnel_stages_present_in_order(self, small_result):
        stages = list(small_result.funnel)
        assert stages == [
            "raw", "valid_fields", "feasible", "commercial",
            "with_trip_semantics", "inventory_groups", "inventory_cells",
        ]

    def test_funnel_is_monotone_through_filters(self, small_result):
        funnel = small_result.funnel
        assert funnel["raw"] >= funnel["valid_fields"] >= funnel["feasible"]
        assert funnel["feasible"] >= funnel["commercial"]
        assert funnel["commercial"] >= funnel["with_trip_semantics"] > 0

    def test_cleaning_removed_injected_defects(self, small_world, small_result):
        removed = (
            small_result.funnel["raw"] - small_result.funnel["valid_fields"]
        )
        # Every injected bad-field record must be removed at validation.
        assert removed >= small_world.defects.bad_field

    def test_compression_positive_at_fixture_scale(self, small_result):
        # The paper's 99.7 % needs a year of data; at the 18k-record
        # fixture scale the cells/records ratio is necessarily higher.
        # The full-scale number is measured by bench_table4_compression.
        funnel = small_result.funnel
        compression = 1.0 - funnel["inventory_cells"] / funnel["raw"]
        assert compression > 0.5


class TestInventoryContents:
    def test_all_grouping_sets_populated(self, small_inventory):
        for grouping_set in GroupingSet:
            assert small_inventory.group_count(grouping_set) > 0

    def test_cell_set_counts_records_once(self, small_result):
        assert (
            small_result.inventory.total_records()
            == small_result.funnel["with_trip_semantics"]
        )

    def test_type_breakdown_sums_to_cell_total(self, small_inventory):
        from collections import defaultdict

        per_cell: dict = defaultdict(int)
        cell_totals: dict = {}
        for key, summary in small_inventory.items():
            if key.grouping_set is GroupingSet.CELL:
                cell_totals[key.cell] = summary.records
            elif key.grouping_set is GroupingSet.CELL_TYPE:
                per_cell[key.cell] += summary.records
        for cell, total in cell_totals.items():
            assert per_cell[cell] == total

    def test_speeds_are_plausible(self, small_inventory):
        for _key, summary in small_inventory.items():
            if summary.speed.count:
                assert 0.0 <= summary.speed.mean <= 30.0

    def test_trip_statistics_consistent(self, small_inventory):
        for _key, summary in small_inventory.items():
            assert summary.eto.count == summary.ata.count == summary.records
            if summary.ata.count:
                assert summary.ata.min_value >= 0.0

    def test_od_groups_reference_real_ports(self, small_inventory, small_world):
        port_ids = {port.port_id for port in small_world.ports}
        for key, _summary in small_inventory.items():
            if key.origin is not None:
                assert key.origin in port_ids
                assert key.destination in port_ids


class TestEngineVariants:
    def test_partition_count_does_not_change_result(self, small_world,
                                                    small_result):
        with Engine(EngineConfig(num_partitions=13)) as engine:
            repartitioned = build_inventory(
                small_world.positions, small_world.fleet, small_world.ports,
                PipelineConfig(), engine=engine,
            )
        assert repartitioned.funnel == small_result.funnel
        reference = {
            key: summary.records for key, summary in small_result.inventory.items()
        }
        got = {
            key: summary.records
            for key, summary in repartitioned.inventory.items()
        }
        assert got == reference

    def test_metrics_engine_reports_stage_seconds(self, small_world):
        with Engine(EngineConfig(num_partitions=4, collect_metrics=True)) as engine:
            result = build_inventory(
                small_world.positions, small_world.fleet, small_world.ports,
                PipelineConfig(), engine=engine,
            )
        # bench/build_batch.py sums the first two as the shuffle time.
        assert {
            "group_by_key", "map_side_combine", "aggregate_kernel",
            "aggregate_summaries",
        } <= set(result.stage_seconds)


class TestOnDiskBuild:
    def test_single_window_table_matches_in_memory_build(
        self, tmp_path, small_world, small_result
    ):
        from repro.inventory import SSTableInventory

        out = tmp_path / "inv.sst"
        result = build_inventory(
            small_world.positions, small_world.fleet, small_world.ports,
            PipelineConfig(), output=out,
        )
        assert result.inventory is None
        assert result.output == out
        assert result.entries == len(small_result.inventory)
        assert result.funnel == small_result.funnel
        with SSTableInventory(out) as backend:
            for key, summary in small_result.inventory.items():
                assert backend.get(key).records == summary.records

    def test_windowed_build_compacts_and_cleans_up(
        self, tmp_path, small_world, small_result
    ):
        from repro.inventory import SSTableInventory

        out = tmp_path / "inv.sst"
        result = build_inventory(
            small_world.positions, small_world.fleet, small_world.ports,
            PipelineConfig(), output=out, windows=3,
        )
        assert out.exists()
        # Window staging tables are removed after compaction.
        assert not list(tmp_path.glob("inv.sst.w*"))
        # Raw record counts are window-invariant (cleaning is per record);
        # trip statistics may differ at window boundaries by design.
        assert result.funnel["raw"] == small_result.funnel["raw"]
        assert result.funnel["valid_fields"] == small_result.funnel["valid_fields"]
        with SSTableInventory(out) as backend:
            assert len(backend) == result.entries > 0
            assert backend.resolution == small_result.inventory.resolution

    def test_windows_without_output_rejected(self, small_world):
        with pytest.raises(ValueError):
            build_inventory(
                small_world.positions, small_world.fleet, small_world.ports,
                PipelineConfig(), windows=2,
            )

    def test_zero_windows_rejected(self, tmp_path, small_world):
        with pytest.raises(ValueError):
            build_inventory(
                small_world.positions, small_world.fleet, small_world.ports,
                PipelineConfig(), output=tmp_path / "x.sst", windows=0,
            )


class TestConfigVariants:
    def test_coarser_resolution_fewer_cells(self, small_world, small_result):
        coarse = build_inventory(
            small_world.positions, small_world.fleet, small_world.ports,
            PipelineConfig(resolution=4),
        )
        assert (
            coarse.funnel["inventory_cells"]
            < small_result.funnel["inventory_cells"]
        )

    def test_commercial_filter_off_increases_volume(self, small_world,
                                                    small_result):
        permissive = build_inventory(
            small_world.positions, small_world.fleet, small_world.ports,
            PipelineConfig(commercial_only=False, min_grt=0),
        )
        assert (
            permissive.funnel["commercial"] > small_result.funnel["commercial"]
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(resolution=99)
        with pytest.raises(ValueError):
            PipelineConfig(max_transition_speed_kn=0.0)
