"""Canonical timestamp handling.

Two lexical forms are canonical everywhere in the toolkit: a full UTC
instant ``YYYY-MM-DDThh:mm:ssZ`` or a bare date ``YYYY-MM-DD``, with
ASCII digits only and nothing before or after (a trailing line feed
makes a value non-canonical).  The check is one regex match plus integer
calendar arithmetic: years 0001-9999, month lengths with Gregorian leap
years, hours below 24, minutes and seconds below 60 (no leap second),
which is what ``datetime`` accepts.  Carrier formats (exiftool-style
``2011:03:01 16:35:22Z``, PDF ``D:`` strings, ISO 8601 with offsets)
are accepted as inputs and converted.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

from .errors import InvalidTimestamp

#: the two canonical forms; the regex bounds month, day and clock fields,
#: leaving only month lengths to arithmetic
_CANONICAL_RE = re.compile(
    r"(\d{4})-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])"
    r"(?:T([01]\d|2[0-3]):([0-5]\d):([0-5]\d)Z)?",
    re.ASCII,
)
_DISPLAY_RE = re.compile(
    r"(\d{4}):(\d{2}):(\d{2}) (\d{2}):(\d{2}):(\d{2})(Z|[+-]\d{2}:\d{2})", re.ASCII
)
_ISO_OFFSET_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(Z|[+-]\d{2}:\d{2})", re.ASCII
)
#: PDF date strings: each field after the year optional, and an offset
#: of ``Z``, ``+hh``, ``+hh'mm`` or ``+hh'mm'``
PDF_DATE_RE = re.compile(
    r"D:(\d{4})(\d{2})?(\d{2})?(\d{2})?(\d{2})?(\d{2})?"
    r"(Z|[+-]\d{2}(?:'\d{2}'?)?)?",
    re.ASCII,
)
#: days per month of a common year; February gains one in leap years
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _match_canonical(value: str) -> re.Match | None:
    """The match of a canonical *value* that names a real calendar day."""
    m = _CANONICAL_RE.fullmatch(value)
    if m is None:
        return None
    y, mo, d = m.group(1, 2, 3)
    if y == "0000":
        return None
    # every month has 28 days; two ASCII digits compare as their numbers
    if d <= "28":
        return m
    year, month = int(y), int(mo)
    leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return m if int(d) <= _MONTH_DAYS[month - 1] + leap else None


def is_canonical(value: str) -> bool:
    """True when *value* is already in one of the two canonical forms."""
    return _match_canonical(value) is not None


def ensure_canonical(value: str) -> str:
    """Return *value* unchanged if canonical, else raise InvalidTimestamp."""
    if not is_canonical(value):
        raise InvalidTimestamp(f"not a canonical UTC timestamp: {value!r}")
    return value


def normalize(value: str) -> str:
    """Convert any accepted timestamp shape to canonical form.

    Accepted inputs: canonical forms, extractor display form
    ``YYYY:MM:DD hh:mm:ss(Z|±hh:mm)``, ISO 8601 with offset, and PDF
    ``D:YYYYMMDDhhmmss(Z|±hh|±hh'mm')`` strings.  Raises InvalidTimestamp
    for anything else, and for an instant outside years 1-9999 UTC.
    """
    value = value.strip()
    if is_canonical(value):
        return value
    m = (
        _DISPLAY_RE.fullmatch(value)
        or _ISO_OFFSET_RE.fullmatch(value)
        or PDF_DATE_RE.fullmatch(value)
    )
    if m is None:
        raise InvalidTimestamp(f"unrecognized timestamp: {value!r}")
    y, mo, d, h, mi, s, tz = m.groups()
    try:
        dt = datetime(
            int(y), int(mo or 1), int(d or 1), int(h or 0), int(mi or 0), int(s or 0)
        )
        if tz and tz != "Z":
            # hours, then the minutes after a ":" or "'", if any
            offset = timedelta(hours=int(tz[1:3]), minutes=int(tz[4:6] or 0))
            dt = dt - offset if tz[0] == "+" else dt + offset
    except (ValueError, OverflowError) as exc:
        raise InvalidTimestamp(str(exc)) from None
    return dt.isoformat() + "Z"


def as_datetime(value: str) -> datetime:
    """Parse a canonical timestamp into an aware UTC datetime.

    Bare dates count as midnight UTC.
    """
    m = _match_canonical(value)
    if m is None:
        raise InvalidTimestamp(f"not a canonical UTC timestamp: {value!r}")
    return datetime(*(int(g or 0) for g in m.groups()), tzinfo=timezone.utc)
