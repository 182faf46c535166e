"""ISO 8601 date and date-time lexing for period values.

Accepted forms are calendar dates (``YYYY-MM-DD``) and date-times
(``YYYY-MM-DDThh:mm:ss`` with optional fractional seconds and an optional
zone, ``Z`` or ``+hh:mm``/``-hh:mm``). ``T24:00:00`` denotes the start of
the following day. Zone offsets are capped at 14:00 as in XML Schema.

Comparison rule for period endpoints: a plain date is the start of that
day in start position and the start of the next day in end position, so a
period ending 2008-12-31 includes the whole day. Zoneless values compared
against zoned ones are assumed to be UTC; callers surface that assumption.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta

_DATE_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})$")
_DATETIME_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})"
    r"T(\d{2}):(\d{2}):(\d{2})(\.\d+)?"
    r"(Z|[+-]\d{2}:\d{2})?$"
)


@dataclass(frozen=True, slots=True)
class TimePoint:
    """A parsed date or date-time, keeping the original lexical form.

    ``moment`` is naive; offsets are carried separately so zoneless and
    zoned values stay distinguishable. ``offset_minutes`` is None when no
    zone was given.
    """

    raw: str
    moment: datetime
    offset_minutes: int | None
    is_date: bool

    @property
    def zoned(self) -> bool:
        return self.offset_minutes is not None


def parse_point(text: str) -> TimePoint:
    """Parse a date or date-time; raises ValueError on any lexical failure."""
    m = _DATE_RE.match(text)
    if m:
        year, month, day = (int(g) for g in m.groups())
        try:
            moment = datetime(year, month, day)
        except ValueError as exc:
            raise ValueError(f"invalid calendar date {text!r}: {exc}") from None
        return TimePoint(raw=text, moment=moment, offset_minutes=None, is_date=True)

    m = _DATETIME_RE.match(text)
    if not m:
        raise ValueError(f"not an ISO 8601 date or date-time: {text!r}")
    year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3))
    hour, minute, second = int(m.group(4)), int(m.group(5)), int(m.group(6))
    frac, zone = m.group(7), m.group(8)
    microsecond = int((frac[1:] + "000000")[:6]) if frac else 0

    rollover = False
    if hour == 24:
        if minute or second or microsecond:
            raise ValueError(f"hour 24 requires zero minutes and seconds: {text!r}")
        hour = 0
        rollover = True
    try:
        moment = datetime(year, month, day, hour, minute, second, microsecond)
    except ValueError as exc:
        raise ValueError(f"invalid date-time {text!r}: {exc}") from None
    if rollover:
        moment += timedelta(days=1)

    offset: int | None = None
    if zone == "Z":
        offset = 0
    elif zone:
        sign = 1 if zone[0] == "+" else -1
        oh, om = int(zone[1:3]), int(zone[4:6])
        if oh > 14 or om > 59 or (oh == 14 and om != 0):
            raise ValueError(f"zone offset out of range in {text!r}")
        offset = sign * (oh * 60 + om)
    return TimePoint(raw=text, moment=moment, offset_minutes=offset, is_date=False)


def timeline_position(point: TimePoint, at_end: bool = False) -> datetime:
    """Position on a common naive-UTC timeline.

    Dates occupy day boundaries (next-day midnight in end position); zoned
    values are shifted to UTC; zoneless values are taken as already UTC.
    """
    moment = point.moment
    if point.is_date and at_end:
        moment += timedelta(days=1)
    if point.offset_minutes:
        moment -= timedelta(minutes=point.offset_minutes)
    return moment


def compare_start_end(start: TimePoint, end: TimePoint) -> tuple[int, bool]:
    """Order a duration's endpoints on the common timeline.

    Returns (cmp, assumed_utc) where cmp is -1/0/1 and assumed_utc is True
    when exactly one endpoint carried a zone, i.e. the zoneless side was
    silently treated as UTC.
    """
    s = timeline_position(start, at_end=False)
    e = timeline_position(end, at_end=True)
    assumed = start.zoned != end.zoned
    cmp = (s > e) - (s < e)
    return cmp, assumed
