"""ISO 8601 date and date-time lexing for period values.

Accepted forms are calendar dates (``YYYY-MM-DD``) and date-times
(``YYYY-MM-DDThh:mm:ss`` with optional fractional seconds), each with an
optional zone, ``Z`` or ``+hh:mm``/``-hh:mm``, as XML Schema's ``xs:date``
and ``xs:dateTime`` allow. ``T24:00:00`` denotes the start of the
following day. Zone offsets are capped at 14:00 as in XML Schema.

Comparison rule for period endpoints: a plain date is the start of that
day in start position and the start of the next day in end position, so a
period ending 2008-12-31 includes the whole day. Zoneless values compared
against zoned ones are assumed to be UTC; callers surface that assumption.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta

from .xmltree import _record

# [0-9] since \d matches any script's digits; fullmatch since $ matches before "\n".
_ZONE = r"(Z|[+-][0-9]{2}:[0-9]{2})?"
_DATE_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})" + _ZONE)
_DATETIME_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
    r"T([0-9]{2}):([0-9]{2}):([0-9]{2})(\.[0-9]+)?" + _ZONE
)


@_record
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


# The compiled constructor: calling it skips the class call's round trip
# through type.__call__ and slot_tp_new (see ``xmltree._record``).
_new_point = TimePoint.__new__


def parse_point(text: str) -> TimePoint:
    """Parse a date or date-time; raises ValueError on any lexical failure."""
    m = _DATE_RE.fullmatch(text)
    if m:
        try:
            moment = datetime(int(m[1]), int(m[2]), int(m[3]))
        except ValueError as exc:
            raise ValueError(f"invalid calendar date {text!r}: {exc}") from None
        return _new_point(TimePoint, text, moment, _offset(m[4], text), True)

    m = _DATETIME_RE.fullmatch(text)
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
        if rollover:
            moment += timedelta(days=1)
    except (ValueError, OverflowError) as exc:  # overflow: 9999-12-31T24:00:00
        raise ValueError(f"invalid date-time {text!r}: {exc}") from None

    return _new_point(TimePoint, text, moment, _offset(zone, text), False)


def _offset(zone: str | None, text: str) -> int | None:
    """Minutes east of UTC for a matched zone; None when there was none."""
    if zone is None:
        return None
    if zone == "Z":
        return 0
    sign = 1 if zone[0] == "+" else -1
    oh, om = int(zone[1:3]), int(zone[4:6])
    if oh > 14 or om > 59 or (oh == 14 and om != 0):
        raise ValueError(f"zone offset out of range in {text!r}")
    return sign * (oh * 60 + om)


def timeline_position(point: TimePoint, at_end: bool = False) -> int:
    """Position on a common UTC timeline, in whole microseconds from
    0001-01-01T00:00:00.

    Dates occupy day boundaries (next-day midnight in end position); zoned
    values are shifted to UTC; zoneless values are taken as already UTC.
    An integer cannot overflow, so the ends of ``datetime``'s range, such
    as 9999-12-31 in end position, still have a position.
    """
    moment = point.moment
    days = moment.toordinal() - 1 + (point.is_date and at_end)
    seconds = (days * 86400 + moment.hour * 3600 + moment.minute * 60 + moment.second
               - (point.offset_minutes or 0) * 60)
    return seconds * 1_000_000 + moment.microsecond

