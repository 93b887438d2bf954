"""Tests for AIS validation predicates, vessel types and CSV I/O."""

from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from repro.ais import (
    CSV_COLUMNS,
    MarketSegment,
    is_commercial_type,
    is_valid_course,
    is_valid_heading,
    is_valid_latitude,
    is_valid_longitude,
    is_valid_mmsi,
    is_valid_position_report,
    is_valid_speed,
    is_valid_status,
    read_csv,
    segment_for_type,
    write_csv,
)
from repro.ais.csvio import _parse_ts
from repro.ais.messages import HEADING_NOT_AVAILABLE, PositionReport


class TestValidation:
    def test_latitude_range_and_sentinel(self):
        assert is_valid_latitude(0.0)
        assert is_valid_latitude(-90.0)
        assert is_valid_latitude(90.0)
        assert not is_valid_latitude(91.0)  # protocol sentinel
        assert not is_valid_latitude(-95.0)

    def test_longitude_range_and_sentinel(self):
        assert is_valid_longitude(180.0)
        assert is_valid_longitude(-180.0)
        assert not is_valid_longitude(181.0)
        assert not is_valid_longitude(300.0)

    def test_speed_range_and_sentinel(self):
        assert is_valid_speed(0.0)
        assert is_valid_speed(102.2)
        assert not is_valid_speed(102.3)
        assert not is_valid_speed(-0.1)

    def test_course_range(self):
        assert is_valid_course(0.0)
        assert is_valid_course(359.9)
        assert not is_valid_course(360.0)  # sentinel

    def test_heading_range(self):
        assert is_valid_heading(0)
        assert is_valid_heading(359)
        assert not is_valid_heading(360)
        assert not is_valid_heading(511)

    def test_status_range(self):
        assert is_valid_status(0)
        assert is_valid_status(15)
        assert not is_valid_status(16)

    def test_mmsi_nine_digits(self):
        assert is_valid_mmsi(235000001)
        assert not is_valid_mmsi(99_999_999)
        assert not is_valid_mmsi(1_000_000_000)

    def _report(self, **overrides):
        fields = dict(
            mmsi=235000001, epoch_ts=0.0, lat=50.0, lon=1.0,
            sog=12.0, cog=45.0, heading=44, status=0,
        )
        fields.update(overrides)
        return PositionReport(**fields)

    def test_valid_report_passes(self):
        assert is_valid_position_report(self._report())

    @pytest.mark.parametrize("field,value", [
        ("lat", 91.0), ("lon", 181.0), ("sog", 102.3),
        ("cog", 360.0), ("status", 16), ("mmsi", 12345),
    ])
    def test_each_bad_field_fails(self, field, value):
        assert not is_valid_position_report(self._report(**{field: value}))

    def test_heading_not_available_is_tolerated(self):
        assert is_valid_position_report(
            self._report(heading=HEADING_NOT_AVAILABLE)
        )

    def test_out_of_range_heading_fails(self):
        assert not is_valid_position_report(self._report(heading=400))


class TestVesselTypes:
    @pytest.mark.parametrize("code,segment", [
        (70, MarketSegment.CARGO),
        (79, MarketSegment.CARGO),
        (71, MarketSegment.CONTAINER),
        (72, MarketSegment.CONTAINER),
        (80, MarketSegment.TANKER),
        (89, MarketSegment.TANKER),
        (60, MarketSegment.PASSENGER),
        (30, MarketSegment.FISHING),
        (37, MarketSegment.PLEASURE),
        (52, MarketSegment.TUG),
        (40, MarketSegment.HIGH_SPEED),
        (0, MarketSegment.OTHER),
        (99, MarketSegment.OTHER),
    ])
    def test_segment_mapping(self, code, segment):
        assert segment_for_type(code) is segment

    def test_unknown_codes_are_other(self):
        assert segment_for_type(None) is MarketSegment.OTHER
        assert segment_for_type(-5) is MarketSegment.OTHER
        assert segment_for_type(150) is MarketSegment.OTHER

    def test_commercial_filter(self):
        assert is_commercial_type(70)
        assert is_commercial_type(84)
        assert is_commercial_type(65)
        assert not is_commercial_type(30)
        assert not is_commercial_type(52)
        assert not is_commercial_type(None)

    def test_segment_str(self):
        assert str(MarketSegment.TANKER) == "tanker"


class TestCsvIO:
    def _reports(self):
        return [
            PositionReport(mmsi=235000001, epoch_ts=1_640_995_200.0, lat=51.5,
                           lon=1.2, sog=14.3, cog=123.4, heading=124, status=0),
            PositionReport(mmsi=538000002, epoch_ts=1_640_995_260.0, lat=-33.9,
                           lon=18.4, sog=0.1, cog=10.0, heading=511, status=5),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "reports.csv"
        written = write_csv(path, self._reports())
        assert written == 2
        back = list(read_csv(path))
        assert len(back) == 2
        assert back[0].mmsi == 235000001
        assert back[0].lat == pytest.approx(51.5)
        assert back[0].epoch_ts == pytest.approx(1_640_995_200.0)
        assert back[1].heading == 511

    def test_header_matches_columns(self, tmp_path):
        path = tmp_path / "reports.csv"
        write_csv(path, self._reports())
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_bad_rows_are_skipped(self, tmp_path):
        path = tmp_path / "reports.csv"
        write_csv(path, self._reports())
        with open(path, "a") as handle:
            handle.write("not,a,valid,row,at,all,x,y\n")
        assert len(list(read_csv(path))) == 2

    def test_epoch_timestamps_accepted(self, tmp_path):
        path = tmp_path / "reports.csv"
        path.write_text(
            ",".join(CSV_COLUMNS)
            + "\n235000001,1640995200,50.0,1.0,10.0,90.0,90,0\n"
        )
        rows = list(read_csv(path))
        assert rows[0].epoch_ts == 1_640_995_200.0


def _strptime_ts(text):
    """The timestamp parser before the fixed-shape fast path."""
    try:
        return float(text)
    except ValueError:
        pass
    parsed = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    return parsed.replace(tzinfo=timezone.utc).timestamp()


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return "raised", type(exc)


_MOMENTS = st.datetimes(
    min_value=datetime(1970, 1, 1), max_value=datetime(2100, 12, 31, 23, 59, 59)
)


class TestTimestampParse:
    @given(moment=_MOMENTS)
    def test_canonical_timestamps_parse_as_strptime(self, moment):
        text = moment.strftime("%Y-%m-%dT%H:%M:%S")
        assert _parse_ts(text) == _strptime_ts(text)

    @given(moment=_MOMENTS, miss=st.sampled_from([
        lambda t: t.replace("-0", "-", 1),  # single-digit month
        lambda t: t[:8] + t[8:].replace("0", "", 1),  # single-digit field
        lambda t: t.replace("T", " "),
        lambda t: t + "Z",
        lambda t: t + "+01:00",
        lambda t: t[:-3],
        lambda t: "0" + t,
        lambda t: t.replace("T", "t"),
        lambda t: t.replace("1", "١"),  # a non-ASCII digit
        lambda t: t[:5] + "02-30" + t[10:],  # Feb 30
        lambda t: t[:11] + "24" + t[13:],
        lambda t: t[:17] + "60",
    ]))
    def test_near_misses_parse_or_fail_as_strptime(self, moment, miss):
        text = miss(moment.strftime("%Y-%m-%dT%H:%M:%S"))
        assert _outcome(_parse_ts, text) == _outcome(_strptime_ts, text)

    @given(text=st.text(alphabet="0123456789-T: .+Ze", max_size=22))
    def test_arbitrary_text_parses_or_fails_as_strptime(self, text):
        assert _outcome(_parse_ts, text) == _outcome(_strptime_ts, text)
