"""Tests for the columnar batch layer (repro.pipeline.batches + kernels).

Three layers of guarantees:

- **round-trip** — ``from_records``/``to_records`` are exact inverses for
  every batch class over hypothesis-generated records (the lossless
  contract the vectorized kernels rely on);
- **batch sketch operations** — ``update_many`` / ``update_components`` /
  ``add_bin_counts`` / ``update_hashed`` are bit-identical to the scalar
  update loops they replace, and the t-digest's deferred merge keeps its
  exact invariants (count/min/max) while staying query-consistent;
- **per-stage oracle** — on the seeded world, vessel by vessel, each
  columnar kernel equals its per-record twin: ``enrich_track``,
  ``annotate_trips`` and ``project_trip`` record for record, and the
  partition fold key for key, in first-touch order, with
  codec-byte-identical summaries.  The kernels are an optimisation of
  the per-record stage functions, never a reinterpretation.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import PipelineConfig
from repro.engine import Engine, EngineConfig
from repro.inventory.codec import encode
from repro.pipeline import cleaning, vectorized
from repro.pipeline.extras import wind_features
from repro.pipeline.features import fan_out, make_create, make_update
from repro.pipeline.geofence import PortIndex
from repro.pipeline.projection import project_trip
from repro.pipeline.trips import annotate_trips
from repro.pipeline.batches import (
    NULL_INT,
    CellBatch,
    CleanBatch,
    RecordBatch,
    TripBatch,
)
from repro.pipeline.records import CellRecord, CleanRecord, TripRecord
from repro.sketches import (
    CircularMoments,
    DirectionHistogram,
    HyperLogLog,
    MomentsSketch,
    TDigest,
)
from repro.sketches.hyperloglog import hash64


# -- record strategies -----------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
HEADING = st.one_of(st.none(), st.integers(min_value=0, max_value=510))
NAME = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=8
)

CLEAN_RECORDS = st.builds(
    CleanRecord,
    mmsi=st.integers(min_value=0, max_value=999_999_999),
    ts=FINITE,
    lat=FINITE,
    lon=FINITE,
    sog=FINITE,
    cog=FINITE,
    heading=HEADING,
    status=st.integers(min_value=0, max_value=15),
    vessel_type=NAME,
    grt=st.integers(min_value=0, max_value=500_000),
)

TRIP_RECORDS = st.builds(
    TripRecord,
    mmsi=st.integers(min_value=0, max_value=999_999_999),
    ts=FINITE,
    lat=FINITE,
    lon=FINITE,
    sog=FINITE,
    cog=FINITE,
    heading=HEADING,
    status=st.integers(min_value=0, max_value=15),
    vessel_type=NAME,
    grt=st.integers(min_value=0, max_value=500_000),
    trip_id=NAME,
    origin=NAME,
    destination=NAME,
    depart_ts=FINITE,
    arrive_ts=FINITE,
)

CELL_RECORDS = st.builds(
    CellRecord,
    mmsi=st.integers(min_value=0, max_value=999_999_999),
    ts=FINITE,
    sog=FINITE,
    cog=FINITE,
    heading=HEADING,
    vessel_type=NAME,
    trip_id=st.one_of(st.none(), NAME),
    origin=st.one_of(st.none(), NAME),
    destination=st.one_of(st.none(), NAME),
    eto_s=FINITE,
    ata_s=FINITE,
    cell=st.integers(min_value=0, max_value=2**52),
    next_cell=st.one_of(st.none(), st.integers(min_value=0, max_value=2**52)),
    extras=st.tuples(),
)


class TestRoundTrip:
    """from_records -> to_records is lossless for every batch shape."""

    @settings(max_examples=60)
    @given(records=st.lists(CLEAN_RECORDS, max_size=20))
    def test_clean_batch(self, records):
        batch = CleanBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records

    @settings(max_examples=60)
    @given(records=st.lists(TRIP_RECORDS, max_size=20))
    def test_trip_batch(self, records):
        batch = TripBatch.from_records(records)
        assert batch.to_records() == records

    @settings(max_examples=60)
    @given(records=st.lists(CELL_RECORDS, max_size=20))
    def test_cell_batch(self, records):
        batch = CellBatch.from_records(records)
        assert batch.to_records() == records

    @settings(max_examples=30)
    @given(records=st.lists(CLEAN_RECORDS, min_size=3, max_size=12),
           data=st.data())
    def test_slice_matches_record_slice(self, records, data):
        start = data.draw(st.integers(0, len(records)))
        stop = data.draw(st.integers(start, len(records)))
        batch = CleanBatch.from_records(records)
        assert batch.slice(start, stop).to_records() == records[start:stop]


class TestValidation:
    def test_negative_optional_int_rejected_not_aliased(self):
        record = CleanRecord(
            mmsi=1, ts=0.0, lat=0.0, lon=0.0, sog=0.0, cog=0.0,
            heading=NULL_INT, status=0, vessel_type="cargo", grt=100,
        )
        with pytest.raises(ValueError, match="negative"):
            CleanBatch.from_records([record])

    def test_mismatched_column_lengths_rejected(self):
        columns = {name: [0] * 2 for name, _ in CleanBatch.SPEC}
        columns["ts"] = [0.0]
        with pytest.raises(ValueError, match="rows"):
            CleanBatch(**columns)

    def test_unknown_column_rejected(self):
        columns = {name: [] for name, _ in CleanBatch.SPEC}
        columns["bogus"] = []
        with pytest.raises(ValueError, match="unknown"):
            CleanBatch(**columns)

    def test_column_and_memoryview_access(self):
        record = CleanRecord(
            mmsi=7, ts=1.5, lat=2.0, lon=3.0, sog=4.0, cog=5.0,
            heading=None, status=0, vessel_type="cargo", grt=100,
        )
        batch = CleanBatch.from_records([record])
        assert list(batch.column("ts")) == [1.5]
        view = batch.memoryview_of("mmsi")
        assert view[0] == 7
        assert batch.column("heading")[0] == NULL_INT
        with pytest.raises(KeyError):
            batch.column("nope")
        with pytest.raises(TypeError):
            batch.memoryview_of("vessel_type")

    def test_empty_batch(self):
        batch = CleanBatch.from_records([])
        assert len(batch) == 0
        assert batch.to_records() == []


class TestMapBatches:
    def test_map_batches_transforms_batchwise(self):
        records = [
            CleanRecord(
                mmsi=i, ts=float(i), lat=0.0, lon=0.0, sog=float(i),
                cog=0.0, heading=None, status=0, vessel_type="cargo", grt=1,
            )
            for i in range(10)
        ]
        batches = [
            CleanBatch.from_records(records[:5]),
            CleanBatch.from_records(records[5:]),
        ]

        def double_sog(batch: RecordBatch) -> RecordBatch:
            columns = {name: batch.column(name) for name, _ in batch.SPEC}
            columns["sog"] = type(columns["sog"])(
                "d", (v * 2 for v in columns["sog"])
            )
            return type(batch)(**columns)

        with Engine(EngineConfig(num_partitions=2)) as eng:
            out = eng.parallelize(batches).map_batches(
                double_sog
            ).collect()
        rows = [r for batch in out for r in batch.to_records()]
        assert [r.sog for r in rows] == [float(i) * 2 for i in range(10)]
        assert [r.mmsi for r in rows] == list(range(10))

    def test_map_batches_counts_rows_not_batches(self):
        batches = [
            CleanBatch.from_records(
                [
                    CleanRecord(
                        mmsi=i, ts=0.0, lat=0.0, lon=0.0, sog=0.0, cog=0.0,
                        heading=None, status=0, vessel_type="t", grt=1,
                    )
                    for i in range(n)
                ]
            )
            for n in (3, 4)
        ]
        with Engine(
            EngineConfig(num_partitions=2, collect_metrics=True)
        ) as eng:
            ds = eng.parallelize(batches).map_batches(
                lambda b: b, label="identity"
            )
            ds.collect()
            stage = next(
                s for s in eng.metrics.stages if s.label == "identity"
            )
        # Row accounting sums the rows *inside* the batches (3 + 4), not
        # the two batch objects — funnel stage counts stay comparable
        # whichever representation flows through.
        assert stage.rows_in == 7
        assert stage.rows_out == 7
        assert stage.partitions == 2


class TestSketchBatchOps:
    """Each batch operation is bit-identical to its scalar update loop."""

    @settings(max_examples=40)
    @given(values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        max_size=300,
    ))
    def test_tdigest_update_many(self, values):
        scalar, batched = TDigest(compression=50), TDigest(compression=50)
        for v in values:
            scalar.update(v)
        batched.update_many(values)
        assert batched.to_dict() == scalar.to_dict()

    @settings(max_examples=40)
    @given(values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        max_size=200,
    ))
    def test_moments_update_many(self, values):
        scalar, batched = MomentsSketch(), MomentsSketch()
        for v in values:
            scalar.update(v)
        batched.update_many(values)
        assert batched.to_dict() == scalar.to_dict()

    @settings(max_examples=40)
    @given(angles=st.lists(
        st.floats(min_value=-720.0, max_value=720.0, allow_nan=False),
        max_size=100,
    ))
    def test_circular_update_components(self, angles):
        import math

        scalar, batched = CircularMoments(), CircularMoments()
        for a in angles:
            scalar.update(a)
        cos_values = [math.cos(math.radians(a)) for a in angles]
        sin_values = [math.sin(math.radians(a)) for a in angles]
        batched.update_components(cos_values, sin_values)
        assert (batched.sum_cos, batched.sum_sin, batched.count) == (
            scalar.sum_cos, scalar.sum_sin, scalar.count,
        )

    @settings(max_examples=40)
    @given(angles=st.lists(
        st.floats(min_value=0.0, max_value=359.9, allow_nan=False),
        max_size=100,
    ))
    def test_histogram_add_bin_counts(self, angles):
        scalar, batched = DirectionHistogram(), DirectionHistogram()
        buckets: dict[int, int] = {}
        for a in angles:
            scalar.update(a)
            index = batched.bin_index(a)
            buckets[index] = buckets.get(index, 0) + 1
        batched.add_bin_counts(buckets.items())
        assert batched.counts == scalar.counts
        assert batched.total == scalar.total

    def test_histogram_bad_bin_index_rejected(self):
        hist = DirectionHistogram()
        with pytest.raises(ValueError):
            hist.add_bin_counts([(hist.num_bins, 1)])

    @settings(max_examples=40)
    @given(values=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=10**12),
            st.text(max_size=12),
        ),
        max_size=200,
    ))
    def test_hll_update_hashed(self, values):
        scalar, batched = HyperLogLog(), HyperLogLog()
        for v in values:
            scalar.update(v)
            batched.update_hashed(hash64(v))
        assert batched.to_dict() == scalar.to_dict()

    @settings(max_examples=30)
    @given(
        left=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                allow_nan=False), max_size=120),
        right=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                 allow_nan=False), max_size=120),
    )
    # Cancellation in the interpolation (-1 vs -2**53) must stay in [min, max].
    @example(left=[], right=[-1.0, -1.0, -9007199254740996.0])
    def test_tdigest_deferred_merge_invariants(self, left, right):
        a, b = TDigest(compression=50), TDigest(compression=50)
        a.update_many(left)
        b.update_many(right)
        a.merge(b)
        combined = left + right
        assert a.count == pytest.approx(len(combined))
        if combined:
            assert a.min_value == min(combined)
            assert a.max_value == max(combined)
            # Queries force compression; the answer must be a plausible
            # quantile regardless of how many merges were deferred.
            assert min(combined) <= a.quantile(0.5) <= max(combined)
            # And serialisation never leaks buffered points.
            state = a.to_dict()
            assert sum(state["weights"]) == pytest.approx(len(combined))

    def test_tdigest_merge_defers_compression_until_needed(self):
        a, b = TDigest(compression=100), TDigest(compression=100)
        a.update_many([float(i) for i in range(10)])
        b.update_many([float(i) for i in range(10, 20)])
        a.merge(b)
        # Small merge: nothing forced a sweep yet.
        assert a._buffer
        a.quantile(0.5)
        assert not a._buffer


# -- per-stage oracle: each kernel against its scalar twin ----------------------


def _vessel_stages(world, config):
    """Every stage's scalar and batched output, vessel by vessel.

    Cleaning runs without an engine (validate → per-vessel sort/dedupe →
    feasibility filter); from there each stage feeds its scalar function
    the scalar output and its kernel the batched output, so a mismatch
    names the first stage that diverges.
    """
    static_by_mmsi = {vessel.mmsi: vessel for vessel in world.fleet}
    port_index = PortIndex(
        world.ports, index_resolution=config.geofence_index_resolution
    )
    by_mmsi: dict[int, list] = {}
    for report in world.positions:
        if cleaning.validate(report):
            by_mmsi.setdefault(report.mmsi, []).append(report)
    summary_config = config.effective_summary
    stages = []
    for mmsi, reports in sorted(by_mmsi.items()):
        track = cleaning.feasibility_filter(
            cleaning.sort_and_dedupe(reports), config.max_transition_speed_kn
        )
        enrich_args = (mmsi, track, static_by_mmsi)
        enrich_kwargs = dict(
            min_grt=config.min_grt, commercial_only=config.commercial_only
        )
        stage = {
            "clean": cleaning.enrich_track(*enrich_args, **enrich_kwargs),
            "clean_batch": vectorized.enrich_track_batch(
                *enrich_args, **enrich_kwargs
            ),
        }
        stages.append(stage)
        if stage["clean"] is None or stage["clean_batch"] is None:
            continue
        stage["trips"] = annotate_trips(
            stage["clean"], port_index, stop_speed_kn=config.stop_speed_kn
        )
        stage["trip_batches"] = vectorized.annotate_trips_batch(
            stage["clean_batch"], port_index, stop_speed_kn=config.stop_speed_kn
        )
        project_kwargs = dict(
            densify=config.densify_transitions,
            extra_features=config.extra_features,
        )
        stage["cells"] = [
            project_trip(list(trip), config.resolution, **project_kwargs)
            for _, trip in groupby(stage["trips"], key=attrgetter("trip_id"))
        ]
        stage["cell_batches"] = [
            vectorized.project_batch(trip, config.resolution, **project_kwargs)
            for trip in stage["trip_batches"]
        ]
        # The scalar map-side combine: fan_out, then create on first
        # touch and update after, in row order.
        create, update = make_create(summary_config), make_update(summary_config)
        fold: dict[tuple, object] = {}
        for cells in stage["cells"]:
            for record in cells:
                for key, row in fan_out(record):
                    summary = fold.get(key)
                    fold[key] = create(row) if summary is None else update(summary, row)
        stage["partials"] = list(fold.items())
        stage["partials_batch"] = list(
            vectorized.aggregate_partition(stage["cell_batches"], summary_config)
        )
    return stages


@pytest.fixture(
    scope="module",
    params=[
        PipelineConfig(),
        PipelineConfig(densify_transitions=True, extra_features=wind_features()),
    ],
    ids=["default", "densify-extras"],
)
def vessel_stages(request, small_world):
    return _vessel_stages(small_world, request.param)


class TestPerStageOracle:
    """Each columnar kernel is bit-identical to its per-record twin."""

    def test_enrich_track_batch_matches_enrich_track(self, vessel_stages):
        for stage in vessel_stages:
            if stage["clean"] is None:
                assert stage["clean_batch"] is None
            else:
                assert stage["clean_batch"].to_records() == stage["clean"]
        assert any(stage["clean"] is None for stage in vessel_stages)

    def test_annotate_trips_batch_matches_annotate_trips(self, vessel_stages):
        annotated = [stage for stage in vessel_stages if "trips" in stage]
        for stage in annotated:
            flattened = [
                record
                for trip in stage["trip_batches"]
                for record in trip.to_records()
            ]
            assert flattened == stage["trips"]
            assert len(stage["trip_batches"]) == len(stage["cells"])
        assert sum(len(stage["trips"]) for stage in annotated) > 0

    def test_project_batch_matches_project_trip(self, vessel_stages):
        rows = 0
        for stage in vessel_stages:
            for batch, cells in zip(
                stage.get("cell_batches", ()), stage.get("cells", ())
            ):
                assert batch.to_records() == cells
                rows += len(cells)
        assert rows > 0

    def test_aggregate_partition_matches_scalar_fold(self, vessel_stages):
        groups = 0
        for stage in vessel_stages:
            if "partials" not in stage:
                continue
            expected, got = stage["partials"], stage["partials_batch"]
            # Same keys in the same first-touch order ...
            assert [key for key, _ in got] == [key for key, _ in expected]
            # ... holding codec-byte-identical sketch states.
            for (key, summary), (_, reference) in zip(got, expected):
                assert encode(summary.to_dict()) == encode(reference.to_dict()), key
            groups += len(expected)
        assert groups > 0
