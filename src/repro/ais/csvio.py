"""CSV interchange for decoded position reports.

The reproduction's stand-in for an archived AIS dataset is a CSV with the
NOAA AIS open-data column flavour (MMSI, BaseDateTime, LAT, LON, SOG, COG,
Heading, Status).  Timestamps are ISO-8601 UTC on write and either
ISO-8601 or raw epoch seconds on read.
"""

from __future__ import annotations

import csv
import re
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path

from repro.ais.messages import PositionReport

#: Column order of the interchange format.
CSV_COLUMNS = (
    "MMSI",
    "BaseDateTime",
    "LAT",
    "LON",
    "SOG",
    "COG",
    "Heading",
    "Status",
)


def _format_ts(epoch_ts: float) -> str:
    return (
        datetime.fromtimestamp(epoch_ts, tz=timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%S")
    )


#: The one shape :func:`write_csv` emits, ASCII digits only.
_ISO_SECONDS = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", re.ASCII)
_NAIVE_EPOCH = datetime(1970, 1, 1)


def _parse_ts(text: str) -> float:
    if _ISO_SECONDS.fullmatch(text):
        # The fields strptime below reads, parsed in C; naive minus the
        # naive epoch is the timedelta the aware timestamp() takes, so
        # the float is the same.
        return (datetime.fromisoformat(text) - _NAIVE_EPOCH).total_seconds()
    try:
        return float(text)
    except ValueError:
        pass
    parsed = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    return parsed.replace(tzinfo=timezone.utc).timestamp()


def write_csv(path: str | Path, reports: Iterable[PositionReport]) -> int:
    """Write reports to a CSV file; returns the number of rows written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(
                (
                    report.mmsi,
                    _format_ts(report.epoch_ts),
                    f"{report.lat:.6f}",
                    f"{report.lon:.6f}",
                    f"{report.sog:.1f}",
                    f"{report.cog:.1f}",
                    report.heading,
                    report.status,
                )
            )
            count += 1
    return count


def read_csv(path: str | Path) -> Iterator[PositionReport]:
    """Stream reports from a CSV file written by :func:`write_csv`.

    Rows with unparseable fields are skipped (dirty archives are the
    norm; the cleaning stage handles semantic validation separately).
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            try:
                yield PositionReport(
                    mmsi=int(row["MMSI"]),
                    epoch_ts=_parse_ts(row["BaseDateTime"]),
                    lat=float(row["LAT"]),
                    lon=float(row["LON"]),
                    sog=float(row["SOG"]),
                    cog=float(row["COG"]),
                    heading=int(row["Heading"]),
                    status=int(row["Status"]),
                )
            except (KeyError, TypeError, ValueError):
                # TypeError covers short rows, where DictReader fills the
                # missing trailing fields with None.
                continue
