from __future__ import annotations

from datetime import datetime, timedelta

import pytest

import iso_cases
from xbrlcore.iso8601 import parse_point, timeline_position


def at(*fields: int) -> int:
    """The timeline position of the UTC instant ``datetime(*fields)``."""
    return (datetime(*fields) - datetime(1, 1, 1)) // timedelta(microseconds=1)


def test_case_table_is_large_enough():
    assert len(iso_cases.VALID_POINTS) + len(iso_cases.INVALID_POINTS) >= 30


@pytest.mark.parametrize("text", iso_cases.VALID_POINTS)
def test_valid_points_parse(text):
    point = parse_point(text)
    assert point.raw == text


@pytest.mark.parametrize("text", iso_cases.INVALID_POINTS)
def test_invalid_points_raise(text):
    with pytest.raises(ValueError):
        parse_point(text)


def test_date_flags():
    assert parse_point("2008-12-31").is_date
    assert not parse_point("2008-12-31").zoned
    assert not parse_point("2008-12-31T00:00:00").is_date
    assert parse_point("2008-12-31T00:00:00Z").zoned
    assert parse_point("2008-12-31T00:00:00Z").offset_minutes == 0
    assert parse_point("2008-12-31T00:00:00+02:30").offset_minutes == 150
    assert parse_point("2008-12-31T00:00:00-05:00").offset_minutes == -300


def test_a_date_may_carry_a_zone():
    point = parse_point("2008-12-31+02:00")
    assert point.is_date and point.offset_minutes == 120
    assert parse_point("2008-12-31Z").offset_minutes == 0
    assert parse_point("2008-12-31-14:00").offset_minutes == -840
    assert not parse_point("2008-12-31").zoned
    # the day 2008-12-31 at +02:00 ends at 22:00 UTC
    assert timeline_position(point, at_end=True) == at(2008, 12, 31, 22)
    assert timeline_position(point) == at(2008, 12, 30, 22)


def test_hour_24_is_start_of_next_day():
    point = parse_point("2008-12-31T24:00:00")
    assert point.moment == datetime(2009, 1, 1)
    assert point.raw == "2008-12-31T24:00:00"


def test_hour_24_past_the_last_representable_day_is_rejected():
    with pytest.raises(ValueError, match="invalid date-time '9999-12-31T24:00:00'"):
        parse_point("9999-12-31T24:00:00")


def test_date_positions_span_the_whole_day():
    day = parse_point("2008-12-31")
    assert timeline_position(day) == at(2008, 12, 31)
    assert timeline_position(day, at_end=True) == at(2009, 1, 1)


def test_zone_offsets_shift_to_utc():
    point = parse_point("2008-12-31T12:00:00+02:00")
    assert timeline_position(point) == at(2008, 12, 31, 10)


def ends(start: str, end: str) -> tuple[int, int]:
    """The timeline positions of a duration's start and end."""
    return (timeline_position(parse_point(start)),
            timeline_position(parse_point(end), at_end=True))


def mixes_zones(start: str, end: str) -> bool:
    """Whether exactly one end carries a zone (PER-003)."""
    return parse_point(start).zoned != parse_point(end).zoned


def test_duration_ends_order_on_the_timeline():
    # a period ending 2008-12-31 includes that day
    start, end = ends("2008-01-01", "2008-12-31")
    assert start < end and not mixes_zones("2008-01-01", "2008-12-31")
    start, end = ends("2008-12-31", "2008-01-01")
    assert start > end
    # same-day duration occupies a full day, start strictly before end
    start, end = ends("2008-12-31", "2008-12-31")
    assert start < end


def test_mixed_zone_comparison_assumes_utc():
    start, end = ends("2008-01-01T00:00:00Z", "2008-12-31")
    assert start < end and mixes_zones("2008-01-01T00:00:00Z", "2008-12-31")
    assert not mixes_zones("2008-01-01T00:00:00", "2008-12-31")
    assert not mixes_zones("2008-01-01T00:00:00Z", "2008-12-31T00:00:00+01:00")


def test_zoned_equal_instants_compare_equal_across_offsets():
    start, end = ends("2008-06-15T14:00:00+02:00", "2008-06-15T12:00:00Z")
    assert start == end and not mixes_zones("2008-06-15T14:00:00+02:00", "2008-06-15T12:00:00Z")


def test_positions_reach_past_the_ends_of_the_datetime_range():
    # the day 9999-12-31 ends where datetime cannot go
    assert timeline_position(parse_point("9999-12-31"), at_end=True) == \
        at(9999, 12, 31) + 86_400_000_000
    # midnight of the first day at +01:00 is an hour before it in UTC
    assert timeline_position(parse_point("0001-01-01T00:00:00+01:00")) == -3_600_000_000
    start, end = ends("0001-01-01T00:00:00+01:00", "9999-12-31")
    assert start < end and mixes_zones("0001-01-01T00:00:00+01:00", "9999-12-31")
    start, end = ends("9999-12-31T23:59:59.999999-14:00", "9999-12-31")
    assert start > end
