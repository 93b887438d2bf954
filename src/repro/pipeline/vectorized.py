"""Batch kernels for the pipeline funnel (the columnar hot path).

Each kernel is the struct-of-arrays twin of a scalar stage function and
is **bit-identical** to it by construction: per sketch and per group,
the batched path applies exactly the float/int operations the scalar
path applies, in the same order — it only amortizes everything that is
*not* a sketch operand across a batch or a run of rows:

- trig and bin-index work for course/heading is computed once per row
  and reused across every grouping set the row feeds;
- rows are folded into summaries per *run* (consecutive rows sharing
  cell, next-cell, trip, vessel type, O/D and MMSI — the shape trip
  projection naturally emits), so the per-row costs of the scalar path
  (grouping-set fan-out tuples, kwargs dispatch, per-row dict probes,
  one HyperLogLog hash per row for idempotent members) collapse to
  once-per-run;
- Space-Saving counts use the weighted update, which is exactly
  equivalent to repeated unit updates.

The per-stage oracle (``tests/test_pipeline_batches.py``) pins each
kernel against its scalar twin on a seeded world: equal records for
enrichment, trips and projection, codec-byte-identical partial
summaries in the same first-touch order for aggregation.
"""

from __future__ import annotations

from array import array
from math import cos, radians, sin

from repro.ais.messages import HEADING_NOT_AVAILABLE, PositionReport
from repro.hexgrid import grid_path_cells, latlng_to_cell
from repro.inventory.summary import CellSummary, SummaryConfig
from repro.pipeline.batches import NULL_INT, CellBatch, CleanBatch, TripBatch
from repro.pipeline.cleaning import commercial_vessel
from repro.pipeline.geofence import PortIndex
from repro.sketches.hyperloglog import hash64
from repro.pipeline.trips import DEFAULT_STOP_SPEED_KN, trip_spans
from repro.world.fleet import Vessel


def enrich_track_batch(
    mmsi: int,
    reports: list[PositionReport],
    static_by_mmsi: dict[int, Vessel],
    min_grt: int = 5_000,
    commercial_only: bool = True,
) -> CleanBatch | None:
    """Batch twin of :func:`repro.pipeline.cleaning.enrich_track`.

    Builds the clean columns straight from the protocol reports — no
    intermediate ``CleanRecord`` boxing.  Returns ``None`` for vessels
    the fleet filter drops, exactly as the scalar path does.
    """
    vessel = commercial_vessel(
        mmsi, static_by_mmsi, min_grt=min_grt, commercial_only=commercial_only
    )
    if vessel is None:
        return None
    segment = vessel.segment.value
    n = len(reports)
    return CleanBatch(
        mmsi=array("q", (r.mmsi for r in reports)),
        ts=array("d", (r.epoch_ts for r in reports)),
        lat=array("d", (r.lat for r in reports)),
        lon=array("d", (r.lon for r in reports)),
        sog=array("d", (r.sog for r in reports)),
        cog=array("d", (r.cog for r in reports)),
        heading=array(
            "q",
            (
                NULL_INT if r.heading == HEADING_NOT_AVAILABLE else r.heading
                for r in reports
            ),
        ),
        status=array("q", (r.status for r in reports)),
        vessel_type=[segment] * n,
        grt=array("q", [vessel.grt] * n),
    )


def annotate_trips_batch(
    batch: CleanBatch,
    port_index: PortIndex,
    stop_speed_kn: float = DEFAULT_STOP_SPEED_KN,
) -> list[TripBatch]:
    """Batch twin of :func:`repro.pipeline.trips.annotate_trips`.

    Returns one :class:`TripBatch` per trip, in trip order — the same
    records, in the same order, as the scalar path's flattened
    ``TripRecord`` stream (it shares the :func:`trip_spans` state
    machine outright).
    """
    if not len(batch):
        return []
    lats = batch.lat
    lons = batch.lon
    sogs = batch.sog
    port_at = port_index.port_at
    port_labels = [
        port_at(lats[i], lons[i]) if sogs[i] < stop_speed_kn else None
        for i in range(len(batch))
    ]
    ts = batch.ts
    trips: list[TripBatch] = []
    for counter, (start, end, origin, destination) in enumerate(
        trip_spans(port_labels)
    ):
        n = end - start
        trip_id = f"{batch.mmsi[start]}-{counter:04d}"
        trips.append(
            TripBatch(
                mmsi=batch.mmsi[start:end],
                ts=ts[start:end],
                lat=lats[start:end],
                lon=lons[start:end],
                sog=sogs[start:end],
                cog=batch.cog[start:end],
                heading=batch.heading[start:end],
                status=batch.status[start:end],
                vessel_type=batch.vessel_type[start:end],
                grt=batch.grt[start:end],
                trip_id=[trip_id] * n,
                origin=[origin] * n,
                destination=[destination] * n,
                depart_ts=array("d", [ts[start]]) * n,
                arrive_ts=array("d", [ts[end - 1]]) * n,
            )
        )
    return trips


def project_batch(
    batch: TripBatch,
    resolution: int,
    densify: bool = False,
    extra_features: tuple = (),
) -> CellBatch:
    """Batch twin of :func:`repro.pipeline.projection.project_trip`.

    Row-for-row identical output (including the densified intermediate
    records); ``eto_s``/``ata_s`` are the same float subtractions the
    ``TripRecord`` properties perform.
    """
    n = len(batch)
    lats = batch.lat
    lons = batch.lon
    ts = batch.ts
    cells = [latlng_to_cell(lats[i], lons[i], resolution) for i in range(n)]

    out_index: list[int] = []  # source row of each output row
    out_cell = array("q")
    out_next = array("q")
    out_extras: list[tuple] = []

    next_cell = NULL_INT
    for index in range(n - 1, -1, -1):
        # Scanning backwards makes "next different cell" O(1) per row.
        cell = cells[index]
        if index + 1 < n and cells[index + 1] != cell:
            next_cell = cells[index + 1]
        extras = (
            tuple(
                feature.fn(lats[index], lons[index], ts[index])
                for feature in extra_features
            )
            if extra_features
            else ()
        )
        if densify and next_cell != NULL_INT and next_cell != cell:
            path = grid_path_cells(cell, next_cell)
            if len(path) > 2:
                rows = [(cell, path[1])]
                rows.extend(
                    (intermediate, path[step + 2])
                    for step, intermediate in enumerate(path[1:-1])
                )
                for row_cell, row_next in reversed(rows):
                    out_index.append(index)
                    out_cell.append(row_cell)
                    out_next.append(row_next)
                    out_extras.append(extras)
                continue
        out_index.append(index)
        out_cell.append(cell)
        out_next.append(next_cell)
        out_extras.append(extras)

    out_index.reverse()
    out_cell.reverse()
    out_next.reverse()
    out_extras.reverse()

    sogs = batch.sog
    cogs = batch.cog
    headings = batch.heading
    mmsis = batch.mmsi
    vessel_types = batch.vessel_type
    trip_ids = batch.trip_id
    origins = batch.origin
    destinations = batch.destination
    departs = batch.depart_ts
    arrives = batch.arrive_ts
    return CellBatch(
        mmsi=array("q", (mmsis[i] for i in out_index)),
        ts=array("d", (ts[i] for i in out_index)),
        sog=array("d", (sogs[i] for i in out_index)),
        cog=array("d", (cogs[i] for i in out_index)),
        heading=array("q", (headings[i] for i in out_index)),
        vessel_type=[vessel_types[i] for i in out_index],
        trip_id=[trip_ids[i] for i in out_index],
        origin=[origins[i] for i in out_index],
        destination=[destinations[i] for i in out_index],
        eto_s=array("d", (ts[i] - departs[i] for i in out_index)),
        ata_s=array("d", (arrives[i] - ts[i] for i in out_index)),
        cell=out_cell,
        next_cell=out_next,
        extras=out_extras,
    )


def aggregate_partition(batches, config: SummaryConfig):
    """Fold one partition of :class:`CellBatch` es into partial summaries.

    The batch twin of the engine's map-side combine over
    ``fan_out``/``make_update``: yields ``(key_tuple, CellSummary)``
    pairs in first-touch order — the same order, holding the same sketch
    states bit for bit, as the scalar map-side pass over the flattened
    rows.
    """
    partials: dict[tuple, CellSummary] = {}
    for batch in batches:
        _fold_batch(partials, batch, config)
    return iter(partials.items())


def _fold_batch(
    partials: dict, batch: CellBatch, config: SummaryConfig
) -> None:
    n = len(batch)
    if n == 0:
        return
    cells = batch.cell
    next_cells = batch.next_cell
    mmsis = batch.mmsi
    trip_ids = batch.trip_id
    vessel_types = batch.vessel_type
    origins = batch.origin
    destinations = batch.destination
    sogs = batch.sog
    cogs = batch.cog
    headings = batch.heading
    etos = batch.eto_s
    atas = batch.ata_s
    all_extras = batch.extras
    extra_names = config.extra_names

    # Per-row trig/bin work, computed once and shared by every grouping
    # set the row feeds.
    bin_width = config.direction_bin_deg
    num_bins = int(360.0 / bin_width)
    last_bin = num_bins - 1
    cog_cos: list[float] = []
    cog_sin: list[float] = []
    cog_bin: list[int] = []
    for cog in cogs:
        rad = radians(cog)
        cog_cos.append(cos(rad))
        cog_sin.append(sin(rad))
        index = int((cog % 360.0) / bin_width)
        cog_bin.append(index if index < last_bin else last_bin)
    head_cos: list[float] = [0.0] * n
    head_sin: list[float] = [0.0] * n
    head_bin: list[int] = [0] * n
    any_heading = False
    for i, heading in enumerate(headings):
        if heading != NULL_INT:
            any_heading = True
            rad = radians(heading)
            head_cos[i] = cos(rad)
            head_sin[i] = sin(rad)
            index = int((heading % 360.0) / bin_width)
            head_bin[i] = index if index < last_bin else last_bin

    partials_get = partials.get
    # One trip batch carries one vessel and one trip, so the run loop's
    # MMSI/trip hashes memoise to a handful of BLAKE2b calls per batch.
    memo_mmsi = memo_trip = None
    memo_mmsi_hash = memo_trip_hash = 0
    start = 0
    while start < n:
        cell = cells[start]
        next_cell = next_cells[start]
        trip_id = trip_ids[start]
        vessel_type = vessel_types[start]
        origin = origins[start]
        destination = destinations[start]
        mmsi = mmsis[start]
        stop = start + 1
        while (
            stop < n
            and cells[stop] == cell
            and next_cells[stop] == next_cell
            and mmsis[stop] == mmsi
            and trip_ids[stop] == trip_id
            and vessel_types[stop] == vessel_type
            and origins[stop] == origin
            and destinations[stop] == destination
        ):
            stop += 1
        run = stop - start

        # The BLAKE2b hashes feed every grouping set's HLL unchanged —
        # hoist them out of the per-key loop (and, for runs, out of the
        # per-row repetition: repeated HLL updates of one value are
        # idempotent, so once per run suffices).
        if mmsi != memo_mmsi:
            memo_mmsi, memo_mmsi_hash = mmsi, hash64(mmsi)
        mmsi_hash = memo_mmsi_hash
        if trip_id is None:
            trip_hash = None
        else:
            if trip_id != memo_trip:
                memo_trip, memo_trip_hash = trip_id, hash64(trip_id)
            trip_hash = memo_trip_hash

        # The scalar fan-out order (keys_for_record): CELL, CELL_TYPE,
        # then CELL_OD_TYPE when the record has full O/D semantics —
        # preserved here so partials keep the same first-touch order.
        keys = [(cell, None, None, None), (cell, vessel_type, None, None)]
        if origin is not None and destination is not None:
            keys.append((cell, vessel_type, origin, destination))

        if run == 1:
            # Single-row run (the common case at fine grid resolutions):
            # feed the row's precomputed components straight into each
            # sketch, no slices or count dicts.
            sog = sogs[start]
            eto = etos[start]
            ata = atas[start]
            ccos = cog_cos[start]
            csin = cog_sin[start]
            cbin = cog_bin[start]
            has_heading = headings[start] != NULL_INT
            if has_heading:
                hcos = head_cos[start]
                hsin = head_sin[start]
                hbin = head_bin[start]
            extras = all_extras[start] if extra_names else ()
            for key in keys:
                summary = partials_get(key)
                if summary is None:
                    summary = partials[key] = CellSummary(config)
                summary.records += 1
                summary.ships.update_hashed(mmsi_hash)
                course = summary.course
                course.sum_cos += ccos
                course.sum_sin += csin
                course.count += 1
                hist = summary.course_bins
                hist.counts[cbin] += 1
                hist.total += 1
                if has_heading:
                    heading = summary.heading
                    heading.sum_cos += hcos
                    heading.sum_sin += hsin
                    heading.count += 1
                    hist = summary.heading_bins
                    hist.counts[hbin] += 1
                    hist.total += 1
                summary.speed.update(sog)
                summary.speed_quantiles.update(sog)
                if trip_hash is not None:
                    summary.trips.update_hashed(trip_hash)
                summary.eto.update(eto)
                summary.eto_quantiles.update(eto)
                summary.ata.update(ata)
                summary.ata_quantiles.update(ata)
                if origin is not None:
                    summary.origins.update(origin)
                if destination is not None:
                    summary.destinations.update(destination)
                if next_cell != NULL_INT:
                    summary.transitions.update(next_cell)
                if extras:
                    extras_sketches = summary.extras
                    for name, value in zip(extra_names, extras):
                        if value is not None:
                            extras_sketches[name].update(value)
            start = stop
            continue

        run_cog_cos = cog_cos[start:stop]
        run_cog_sin = cog_sin[start:stop]
        run_cog_bins = _bin_counts(cog_bin, start, stop)
        run_sog = sogs[start:stop]
        run_eto = etos[start:stop]
        run_ata = atas[start:stop]
        run_head_cos: list[float] = []
        run_head_sin: list[float] = []
        run_head_bins: list[tuple[int, int]] = []
        if any_heading:
            indices = [
                i for i in range(start, stop) if headings[i] != NULL_INT
            ]
            if indices:
                run_head_cos = [head_cos[i] for i in indices]
                run_head_sin = [head_sin[i] for i in indices]
                head_counts: dict[int, int] = {}
                for i in indices:
                    b = head_bin[i]
                    head_counts[b] = head_counts.get(b, 0) + 1
                run_head_bins = list(head_counts.items())
        run_extras: list[list[float]] = []
        if extra_names:
            for slot in range(len(extra_names)):
                values = []
                for i in range(start, stop):
                    extras = all_extras[i]
                    if extras:
                        value = extras[slot]
                        if value is not None:
                            values.append(value)
                run_extras.append(values)

        for key in keys:
            summary = partials_get(key)
            if summary is None:
                summary = partials[key] = CellSummary(config)
            summary.records += run
            summary.ships.update_hashed(mmsi_hash)
            summary.course.update_components(run_cog_cos, run_cog_sin)
            summary.course_bins.add_bin_counts(run_cog_bins)
            if run_head_cos:
                summary.heading.update_components(run_head_cos, run_head_sin)
                summary.heading_bins.add_bin_counts(run_head_bins)
            summary.speed.update_many(run_sog)
            summary.speed_quantiles.update_many(run_sog)
            if trip_hash is not None:
                summary.trips.update_hashed(trip_hash)
            summary.eto.update_many(run_eto)
            summary.eto_quantiles.update_many(run_eto)
            summary.ata.update_many(run_ata)
            summary.ata_quantiles.update_many(run_ata)
            if origin is not None:
                summary.origins.update(origin, run)
            if destination is not None:
                summary.destinations.update(destination, run)
            if next_cell != NULL_INT:
                summary.transitions.update(next_cell, run)
            if extra_names:
                extras_sketches = summary.extras
                for name, values in zip(extra_names, run_extras):
                    if values:
                        extras_sketches[name].update_many(values)

        start = stop


def _bin_counts(bins: list[int], start: int, stop: int) -> list[tuple[int, int]]:
    counts: dict[int, int] = {}
    for i in range(start, stop):
        b = bins[i]
        counts[b] = counts.get(b, 0) + 1
    return list(counts.items())
