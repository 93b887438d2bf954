"""AIS protocol substrate: messages, wire codec and validation ranges.

The paper's input is a year of archived AIS positional reports (ITU-R
M.1371 message types 1–3 and 18) plus a static-report inventory used to
attach a vessel type to every position.  This package implements the
protocol layer a real ingestion system needs:

- :mod:`repro.ais.messages` — typed message models (position reports,
  class-B reports, static & voyage data) with protocol sentinel values.
- :mod:`repro.ais.sixbit` — the 6-bit packing layer shared by all AIS
  payloads: bit-level writer/reader, payload armoring, the 6-bit text
  charset.
- :mod:`repro.ais.nmea` — NMEA 0183 framing: ``!AIVDM`` sentences,
  checksums, multi-fragment assembly.
- :mod:`repro.ais.codec` — field layouts for message types 1/2/3, 5, 18
  and 24; encode/decode between models and armored payloads.
- :mod:`repro.ais.csvio` — a NOAA-AIS-style CSV codec for decoded reports
  (the open-data format the reproduction substitutes for the proprietary
  archive).
- :mod:`repro.ais.validation` — the value-range checks of the paper's
  cleaning stage (§3.3.1).
- :mod:`repro.ais.vesseltypes` — AIS ship-type codes → market segments and
  the commercial-fleet predicate.
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so importing one submodule does not
# load its siblings.
_EXPORTS = {
    "repro.ais.nmea": ("NmeaAssembler", "parse_sentence"),
    "repro.ais.codec": (
        "decode_payload",
        "decode_sentences",
        "encode_message",
    ),
    "repro.ais.csvio": ("CSV_COLUMNS", "read_csv", "write_csv"),
    "repro.ais.validation": (
        "is_valid_course",
        "is_valid_heading",
        "is_valid_latitude",
        "is_valid_longitude",
        "is_valid_mmsi",
        "is_valid_position_report",
        "is_valid_speed",
        "is_valid_status",
    ),
    "repro.ais.vesseltypes": (
        "MarketSegment",
        "is_commercial_type",
        "segment_for_type",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
