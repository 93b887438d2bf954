"""The shared input: one synthetic world, as the CLI writes it.

The program only ever sees the archive ``repro generate`` wrote; the
harness reads the same CSV and its ``.fleet.csv`` sidecar back (never
the generator's in-memory objects) so its reference answers are
computed from exactly the bytes the program was given.

The world itself is the same for every ``--seed``: at this scale the
number of voyages a world completes — and with it groups, table size
and build time — swings six-fold with the world seed, which would bury
every run-to-run signal under input variation.  ``--seed`` instead
draws everything the harness chooses: keys, request mix, the ingested
window, the read schedule's keys and the correctness samples.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from bench.config import WORLD_SEED, Scale
from bench.procs import ChildRun, Session


@dataclass(frozen=True)
class Archive:
    """A generated archive and what generating it cost."""

    path: Path
    run: ChildRun

    def positions(self) -> list:
        """The raw reports, read back from the CSV."""
        from repro.ais import read_csv

        return list(read_csv(self.path))

    def fleet(self) -> list:
        """The static vessel reports, read back from the ``.fleet.csv``
        sidecar ``repro generate`` wrote beside the archive."""
        from repro.world.fleet import MarketSegment, Vessel

        parse = {"name": str, "callsign": str, "flag": str,
                 "segment": MarketSegment, "design_speed_kn": float}
        with open(self.path.with_suffix(".fleet.csv"), newline="") as handle:
            return [
                Vessel(**{column: parse.get(column, int)(value) for column, value in row.items()})
                for row in csv.DictReader(handle)
            ]


def generate(session: Session, scale: Scale) -> Archive:
    """``repro generate`` the world into the session dir."""
    path = session.dir / "archive.csv"
    run = session.run_cli(
        "generate",
        "--seed", str(WORLD_SEED),
        "--vessels", str(scale.vessels),
        "--days", str(scale.days),
        "--interval", str(scale.interval_s),
        "--out", str(path),
    )
    return Archive(path, run)


def build(session: Session, scale: Scale, archive: Archive, name: str) -> tuple[Path, ChildRun]:
    """``repro build`` the archive into one table (windows=1)."""
    out = session.dir / name
    run = session.run_cli(
        "build",
        "--archive", str(archive.path),
        "--out", str(out),
        "--resolution", str(scale.resolution),
    )
    return out, run


def table_bytes(table: Path) -> int:
    """Bytes a table occupies, ``.routes`` sidecar included."""
    from repro.inventory.sstable import route_index_path

    routes = route_index_path(table)
    return table.stat().st_size + (routes.stat().st_size if routes.exists() else 0)


def cells_by_traffic(positions: list, resolution: int) -> list[int]:
    """Cells of the raw reports, busiest first (ties by cell id)."""
    from repro.hexgrid import latlng_to_cell

    counts = Counter(
        int(latlng_to_cell(report.lat, report.lon, resolution)) for report in positions
    )
    return [cell for cell, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
