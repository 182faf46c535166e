"""Period lexical classification table shared by unit and acceptance tests."""

VALID_POINTS = [
    "2008-12-31",
    "2008-01-01",
    "2008-02-29",            # leap year
    "2000-02-29",            # century leap year
    "0001-01-01",
    "9999-12-31",
    "2008-12-31T00:00:00",
    "2008-12-31T23:59:59",
    "2008-12-31T24:00:00",   # start of the next day
    "2008-06-15T12:30:45.5",
    "2008-06-15T12:30:45.123456",
    "2008-12-31T23:59:59Z",
    "2008-12-31T23:59:59+02:00",
    "2008-12-31T23:59:59-05:30",
    "2008-12-31T23:59:59+14:00",
    "2008-12-31T23:59:59-14:00",
    "2008-06-15T00:00:00.000Z",
    "2008-12-31Z",           # xs:date allows a zone
    "2008-12-31+02:00",
    "2008-12-31-14:00",
]

INVALID_POINTS = [
    "2008-13-01",            # month 13
    "2008-02-30",            # no such day
    "2007-02-29",            # not a leap year
    "2100-02-29",            # century non-leap
    "2008-00-10",            # month 0
    "2008-01-00",            # day 0
    "2008-1-01",             # month not zero-padded
    "08-01-01",              # two-digit year
    "2008/01/01",            # wrong separator
    "20081231",              # basic format not accepted
    "2008-12-31 23:59:59",   # space instead of T
    "2008-12-31T24:00:01",   # past the 24:00 boundary
    "2008-12-31T25:00:00",   # hour 25
    "2008-12-31T23:60:00",   # minute 60
    "2008-12-31T23:59:60",   # leap seconds not accepted
    "2008-12-31T23:59",      # seconds required
    "2008-12-31T23:59:59+15:00",  # offset beyond 14 hours
    "2008-12-31T23:59:59+14:30",  # 14-hour offset must be exact
    "2008-12-31T23:59:59+02",     # offset minutes required
    "2008-12-31T23:59:59+0200",   # missing colon
    "2008-12-31+15:00",      # date with an offset beyond 14 hours
    "2008-12-31+02",         # date offset minutes required
    " 2008-12-31",           # leading space
    "2008-12-31 ",           # trailing space
    "",
    "forever",
    "٢٠٠٨-١٢-٣١",            # Arabic-Indic digits
    "２００８-12-31",          # fullwidth digits
    "2008-12-31\n",          # trailing line feed
]

# Cases still invalid after the parser trims element content; the rest are
# whitespace-only defects visible solely to the raw lexer.
INVALID_AFTER_TRIM = [t for t in INVALID_POINTS if t.strip() in INVALID_POINTS]
