"""The synthetic maritime world (the proprietary-AIS-archive substitute).

The paper processes a year of MarineTraffic's global AIS archive.  That
archive is proprietary, so this package builds the closest synthetic
equivalent that exercises every code path of the methodology:

- :mod:`repro.world.ports` — ~120 real-coordinate world ports with
  traffic weights and geofence radii (the paper's external port database).
- :mod:`repro.world.waterways` — named waypoints (straits, canals, ocean
  hubs) and the curated sea-lane graph connecting them.
- :mod:`repro.world.routing` — Dijkstra routing over the sea-lane graph,
  with canal-blocking support (the Suez scenario reroutes via the Cape of
  Good Hope *emergently*, because removing the canal edge leaves the Cape
  as the shortest remaining path).
- :mod:`repro.world.fleet` — fleet synthesis: MMSIs with real country
  prefixes, IMO numbers with valid check digits, market segments, GRT and
  design speeds.
- :mod:`repro.world.voyages` — voyage scheduling: vessels loop over a
  small set of home routes, reproducing the route consistency that makes
  lane patterns emerge in real AIS data.
- :mod:`repro.world.simulator` — the AIS track generator: great-circle
  legs, speed profiles, report cadence, GPS/course noise, port dwell, and
  injected data-quality defects (out-of-range fields, duplicates,
  out-of-order timestamps, teleport spikes) for the cleaning stage to
  remove.
- :mod:`repro.world.scenarios` — disruptions (Suez blockage, port
  shutdown) for the anomaly-detection use case.
- :mod:`repro.world.dataset` — the top-level generator producing the
  (positions, fleet, ports) triple the pipeline consumes.
"""
