"""Value escaping shared by the sidecar format and canonical names.

Three escapes exist: ``\\\\`` for a backslash, ``\\n`` for a line feed,
``\\|`` for a pipe.  Escaped text therefore never contains a raw LF and
never a raw ``|``, which is what makes ``|`` usable as a field separator
in compound values.
"""

from __future__ import annotations

import re

from .errors import SidecarSyntaxError


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


def split_fields(value: str) -> list[str]:
    """Split a compound value on unescaped ``|``; fields stay escaped."""
    if "\\" not in value:
        return value.split("|")
    fields: list[str] = []
    match = _FIELD_RE.match
    start = 0
    while True:
        end = match(value, start).end()
        fields.append(value[start:end])
        if end == len(value):
            return fields
        start = end + 1  # past the separating "|"


def join_fields(fields: list[str]) -> str:
    """Escape each field and join with ``|``."""
    return "|".join(escape(f) for f in fields)


def decode_fields(
    value: str, arity: tuple[int, ...], line: int, what: str
) -> list[str]:
    """Split a sidecar value into fields, check their count against
    *arity* (the allowed counts), and unescape them; a failure names
    *line* and *what* the value is."""
    raw = split_fields(value)
    if len(raw) not in arity:
        counts = " or ".join(map(str, arity))
        plural = "" if arity == (1,) else "s"
        raise SidecarSyntaxError(
            line, f"{what} needs {counts} field{plural}, got {len(raw)}"
        )
    if "\\" not in value:
        return raw
    try:
        return [unescape(f) for f in raw]
    except ValueError as exc:
        raise SidecarSyntaxError(line, f"{what}: {exc}") from None
