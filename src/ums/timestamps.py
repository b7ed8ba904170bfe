"""Canonical timestamp handling.

Two lexical forms are canonical everywhere in the toolkit: a full UTC
instant ``YYYY-MM-DDThh:mm:ssZ`` or a bare date ``YYYY-MM-DD``, with
ASCII digits only and nothing before or after (a trailing line feed
makes a value non-canonical).  The check is one regex match plus integer
calendar arithmetic: years 0001-9999, month lengths with Gregorian leap
years, hours below 24, minutes and seconds below 60 (no leap second),
which is what ``datetime`` accepts.

Carrier dates are read here and nowhere else.  :func:`display` turns a
PDF ``D:`` string or an ISO 8601 instant into the exiftool display form
``YYYY:MM:DD hh:mm:ss[Z|+hh:mm]`` that extractors report, and
:func:`normalize` reads that form (and what :func:`display` accepts)
into canonical form.  A carrier instant without a zone is UTC.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from typing import Optional

from .errors import InvalidTimestamp

#: the two canonical forms; the regex bounds month, day and clock fields,
#: leaving only month lengths to arithmetic
_CANONICAL_RE = re.compile(
    r"(\d{4})-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])"
    r"(?:T([01]\d|2[0-3]):([0-5]\d):([0-5]\d)Z)?",
    re.ASCII,
)
#: the display form extractors report; :func:`normalize` reads only this
#: form and the canonical ones
_DISPLAY_RE = re.compile(
    r"(\d{4}):(\d{2}):(\d{2}) (\d{2}):(\d{2}):(\d{2})(Z|[+-]\d{2}:\d{2})?", re.ASCII
)
#: ISO 8601 instants, zone optional
_ISO_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(Z|[+-]\d{2}:\d{2})?", re.ASCII
)
#: PDF date strings: each field after the year optional, and an offset
#: of ``Z``, ``+hh``, ``+hh'mm`` or ``+hh'mm'``
_PDF_DATE_RE = re.compile(
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


def display(value: str) -> Optional[str]:
    """The display form ``YYYY:MM:DD hh:mm:ss[Z|+hh:mm]`` of a PDF ``D:``
    date or an ISO 8601 instant, or None for any other value.

    Fields are copied, not checked (an absent PDF field reads as its
    lowest value), so :func:`normalize` reads the display form exactly
    as it reads *value*.
    """
    pattern = _PDF_DATE_RE if value.startswith("D:") else _ISO_RE
    m = pattern.fullmatch(value)
    if m is None:
        return None
    y, mo, d, h, mi, s, tz = m.groups()
    if tz and tz != "Z":
        # hours, then the minutes after a ":" or "'", if any
        tz = f"{tz[:3]}:{tz[4:6] or '00'}"
    day = f"{y}:{mo or '01'}:{d or '01'}"
    return f"{day} {h or '00'}:{mi or '00'}:{s or '00'}{tz or ''}"


def normalize(value: str) -> str:
    """Convert any accepted timestamp shape to canonical form.

    Accepted inputs, after stripping surrounding whitespace: canonical
    forms, the display form ``YYYY:MM:DD hh:mm:ss[Z|+hh:mm]``, and what
    :func:`display` turns into it.  No zone means UTC.  Raises
    InvalidTimestamp for anything else, and for an instant outside years
    1-9999 UTC.
    """
    value = value.strip()
    if is_canonical(value):
        return value
    m = _DISPLAY_RE.fullmatch(display(value) or value)
    if m is None:
        raise InvalidTimestamp(f"unrecognized timestamp: {value!r}")
    y, mo, d, h, mi, s, tz = m.groups()
    try:
        dt = datetime(int(y), int(mo), int(d), int(h), int(mi), int(s))
        if tz and tz != "Z":
            offset = timedelta(hours=int(tz[1:3]), minutes=int(tz[4:6]))
            dt = dt - offset if tz[0] == "+" else dt + offset
    except (ValueError, OverflowError) as exc:
        raise InvalidTimestamp(str(exc)) from None
    return dt.isoformat() + "Z"


def now() -> str:
    """The current instant in canonical form."""
    instant = datetime.now(timezone.utc).replace(microsecond=0, tzinfo=None)
    return instant.isoformat() + "Z"


def as_datetime(value: str) -> datetime:
    """Parse a canonical timestamp into an aware UTC datetime.

    Bare dates count as midnight UTC.
    """
    m = _match_canonical(value)
    if m is None:
        raise InvalidTimestamp(f"not a canonical UTC timestamp: {value!r}")
    return datetime(*(int(g or 0) for g in m.groups()), tzinfo=timezone.utc)
