"""Value escaping shared by the sidecar format and canonical names.

Three escapes exist: ``\\\\`` for a backslash, ``\\n`` for a line feed,
``\\|`` for a pipe.  Escaped text therefore never contains a raw LF and
never a raw ``|``, which is what makes ``|`` usable as a field separator
in compound values.
"""

from __future__ import annotations

import re

from .errors import InvariantViolation


def escape(value: str) -> str:
    """Escape one value component."""
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("|", "\\|")
    )


#: one field of a compound value: runs of plain text and escape pairs; a
#: backslash at the very end matches alone and stays in the field, for
#: unescape to reject
_FIELD_RE = re.compile(r"(?:[^\\|]+|\\.?)*", re.DOTALL)
#: one escape: a backslash and the character after it, if any
_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)
_UNESCAPED = {"\\": "\\", "n": "\n", "|": "|"}


def _decode_escape(match: re.Match) -> str:
    code = match.group(1)
    try:
        return _UNESCAPED[code]
    except KeyError:
        if code == "":
            raise ValueError("dangling backslash") from None
        raise ValueError(f"bad escape \\{code}") from None


def unescape(value: str) -> str:
    """Decode the escapes; reject stray backslashes."""
    if "\\" not in value:
        return value
    return _ESCAPE_RE.sub(_decode_escape, value)


def split_escaped(value: str, sep: str, part: re.Pattern) -> list[str]:
    """Split escaped text on each *sep* outside an escape; *part* matches
    one escaped part, up to the next such *sep*.  The parts stay escaped."""
    if "\\" not in value:
        return value.split(sep)
    parts: list[str] = []
    match = part.match
    start = 0
    while True:
        end = match(value, start).end()
        parts.append(value[start:end])
        if end == len(value):
            return parts
        start = end + len(sep)


def split_fields(value: str) -> list[str]:
    """Split a compound value on unescaped ``|``; fields stay escaped."""
    return split_escaped(value, "|", _FIELD_RE)


def join_fields(fields: list[str]) -> str:
    """Escape each field and join with ``|``."""
    return "|".join(escape(f) for f in fields)


def decode_fields(value: str, arity: tuple[int, ...], what: str) -> list[str]:
    """Split a sidecar value into fields, check their count against
    *arity* (the allowed counts), and unescape them; a rejection is an
    :class:`InvariantViolation` that names *what* the value is, and the
    sidecar parser names its line."""
    raw = split_fields(value)
    if len(raw) not in arity:
        counts = " or ".join(map(str, arity))
        plural = "" if arity == (1,) else "s"
        raise InvariantViolation(f"{what} needs {counts} field{plural}, got {len(raw)}")
    if "\\" not in value:
        return raw
    try:
        return [unescape(f) for f in raw]
    except ValueError as exc:
        raise InvariantViolation(f"{what}: {exc}") from None
