"""The sidecar file format, version 1.

UTF-8, LF line endings, trailing newline required.  Line 1 is the
``ums: 1`` header, then ``key: value`` lines in fixed key order:
name, synonym*, format+, date, type?, summary?, language*, location*,
creator*, identifier*, access?, subject*, tag*, history*.

Serialization is canonical: the same record always produces the same
bytes, and ``parse_record(canonical_serialize(r)) == r``.

The parser checks grammar: lines, key order, once-only keys, escapes,
field counts and the digits of history seqs.  Every text, identifier,
subject and history value is split, counted and unescaped by
:func:`~ums.escaping.decode_fields` alone; the token keys (format,
language, date, type, access) are passed on raw.  The model checks values:
:class:`UmsRecord`, :class:`ProvenanceEvent`, :class:`IdentifierBinding`,
:class:`Subject` and :func:`access_level` hold the only format, language,
date, type, access, identifier, subject, duplicate and history-order
rules, and each rejection names its field and entry, which the parser
turns into a :class:`SidecarSyntaxError` naming the line.  Strict
parsing also rejects a value the model had to normalize (non-NFC text,
an uppercase format or language, a lowercase identifier system), so
every strict-valid sidecar re-serializes to its own bytes; lenient
parsing keeps such a value and warns.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import fields
from typing import Iterator

from .errors import (
    DuplicateSingletonKey,
    InvalidTimestamp,
    InvariantViolation,
    SidecarSyntaxError,
    UnknownKey,
)
# perfbench/spans.py wraps split_fields and unescape here too, so they stay bound
from .escaping import decode_fields, escape, join_fields, split_fields, unescape  # noqa: F401
from .model import (
    ACCESS_PUBLIC,
    LENIENT,
    REQUIRED_FIELDS,
    SINGLETON_KEYS,
    STRICT,
    IdentifierBinding,
    ProvenanceEvent,
    Subject,
    UmsRecord,
    access_level,
    checked,
    require_complete,
)

SIDECAR_EXTENSION = ".ums"


def serialize_event(event: ProvenanceEvent) -> str:
    """Render one history value; this exact string feeds the digest chain."""
    return (
        f"{event.seq}|{event.timestamp}|{event.kind}|"
        f"{escape(event.payload)}|{event.prev}"
    )


#: each sidecar key in its only admissible order, with the canonical
#: values of a record's entries under it
_CANONICAL = {
    "name": lambda r: (escape(r.name),) if r.name else (),
    "synonym": lambda r: map(escape, r.synonyms),
    "format": lambda r: r.formats,
    "date": lambda r: (r.date,) if r.date is not None else (),
    "type": lambda r: (r.doc_type,) if r.doc_type is not None else (),
    "summary": lambda r: (escape(r.summary),) if r.summary is not None else (),
    "language": lambda r: r.languages,
    "location": lambda r: map(escape, r.locations),
    "creator": lambda r: map(escape, r.creators),
    "identifier": lambda r: [join_fields([b.system, b.id]) for b in r.identifiers],
    "access": lambda r: (str(r.access),) if r.access != ACCESS_PUBLIC else (),
    "subject": lambda r: [
        escape(s.text) if s.source is None else join_fields([s.text, s.source])
        for s in r.subjects
    ],
    "tag": lambda r: map(escape, r.tags),
    "history": lambda r: map(serialize_event, r.history),
}
_KEY_ORDER = tuple(_CANONICAL)
_KEY_POS = {key: pos for pos, key in enumerate(_KEY_ORDER)}
#: record fields are declared in sidecar key order
_KEY_OF_FIELD = dict(zip((f.name for f in fields(UmsRecord)), _KEY_ORDER))
_LINE_STARTS = [(f"\n{key}: ", canonical) for key, canonical in _CANONICAL.items()]
_SEQ_RE = re.compile(r"0|[1-9]\d*", re.ASCII)


def canonical_serialize(record: UmsRecord) -> bytes:
    """Serialize a complete record to canonical sidecar bytes."""
    require_complete(record)
    out = ["ums: 1"]
    for line_start, canonical in _LINE_STARTS:
        out.append(line_start.join(["", *canonical(record)]))
    out.append("\n")
    return "".join(out).encode("utf-8")


def _parse_history_value(value: str, line_no: int) -> ProvenanceEvent:
    seq, ts, kind, payload, prev = decode_fields(value, (5,), line_no, "history")
    if not _SEQ_RE.fullmatch(seq):
        raise SidecarSyntaxError(line_no, f"bad history seq: {seq!r}")
    try:
        return ProvenanceEvent(
            seq=int(seq), timestamp=ts, kind=kind, payload=payload, prev=prev
        )
    except (InvariantViolation, InvalidTimestamp) as exc:
        raise SidecarSyntaxError(line_no, f"history: {exc}") from None


def parse_record_with_warnings(
    data: bytes, mode: str = STRICT
) -> tuple[UmsRecord, list[str]]:
    """Parse sidecar bytes; lenient mode downgrades some rejects to warnings.

    Strict mode accepts exactly the canonical sidecars of valid records
    (an explicit ``access: 0`` aside).  Lenient mode additionally
    tolerates unknown keys, missing required keys and values that are
    not in canonical form, reporting each as a warning string, so
    imperfect files can still be inspected.
    """
    if mode not in (STRICT, LENIENT):
        raise ValueError(f"unknown parse mode: {mode!r}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SidecarSyntaxError(0, f"not UTF-8: {exc}") from None
    if not text.endswith("\n"):
        raise SidecarSyntaxError(max(1, text.count("\n") + 1), "missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != "ums: 1":
        raise SidecarSyntaxError(1, "expected header 'ums: 1'")

    warnings: list[str] = []
    values: dict[str, list[tuple[str, int]]] = {k: [] for k in _KEY_ORDER}
    order_pos = 0

    for line_no, line in enumerate(lines[1:], start=2):
        key, sep, value = line.partition(": ")
        if not sep or not key or value == "":
            raise SidecarSyntaxError(line_no, f"expected 'key: value', got {line!r}")
        pos = _KEY_POS.get(key)
        if pos is None:
            if mode == STRICT:
                raise UnknownKey(line_no, key)
            warnings.append(f"line {line_no}: unknown key {key!r} ignored")
            continue
        if pos < order_pos:
            raise SidecarSyntaxError(line_no, f"key {key!r} out of order")
        if key in SINGLETON_KEYS and values[key]:
            raise DuplicateSingletonKey(line_no, key)
        order_pos = pos
        values[key].append((value, line_no))

    missing = [k for k in REQUIRED_FIELDS if not values[k]]
    if missing:
        if mode == STRICT:
            raise SidecarSyntaxError(
                len(lines), f"missing required key(s): {', '.join(missing)}"
            )
        warnings += [f"missing required key: {k}" for k in missing]

    def decode(key: str, arity: tuple[int, ...]) -> Iterator[list[str]]:
        return (decode_fields(value, arity, line_no, key) for value, line_no in values[key])

    def texts(key: str) -> list[str]:
        return [decode_fields(value, (1,), line_no, key)[0] for value, line_no in values[key]]

    def tokens(key: str) -> tuple[str, ...]:
        return tuple(value for value, _ in values[key])

    # a singleton key holds at most one value
    (name,) = texts("name") or [""]
    (summary,) = texts("summary") or [None]
    (date,) = tokens("date") or [None]
    (doc_type,) = tokens("type") or [None]

    formats, languages = tokens("format"), tokens("language")
    try:
        (access,) = checked("access", tokens("access"), access_level) or (ACCESS_PUBLIC,)
        pairs = list(decode("identifier", (2,)))
        identifiers = checked("identifiers", pairs, lambda p: IdentifierBinding(*p))
        subjects = checked("subjects", decode("subject", (1, 2)), lambda p: Subject(*p))
        history = [_parse_history_value(v, n) for v, n in values["history"]]
        record = UmsRecord(
            name=name,
            synonyms=texts("synonym"),
            formats=formats,
            date=date,
            doc_type=doc_type,
            summary=summary,
            languages=languages,
            locations=texts("location"),
            creators=texts("creator"),
            identifiers=identifiers,
            access=access,
            subjects=subjects,
            tags=texts("tag"),
            history=tuple(history),
        )
    except (InvariantViolation, InvalidTimestamp) as exc:
        line_no = values[_KEY_OF_FIELD[exc.field]][exc.index][1]
        raise SidecarSyntaxError(line_no, str(exc)) from None

    # NFC text decodes to NFC values, so the record then holds the values
    # it was given unless it changed their case; else find the lines
    if not (
        unicodedata.is_normalized("NFC", text)
        and record.formats == formats
        and record.languages == languages
        and [[b.system, b.id] for b in record.identifiers] == pairs
    ):
        for key in _KEY_ORDER:
            for (value, line_no), canonical in zip(values[key], _CANONICAL[key](record)):
                if value != canonical:
                    message = f"{key} is not canonical, expected {canonical!r}"
                    if mode == STRICT:
                        raise SidecarSyntaxError(line_no, message)
                    warnings.append(f"line {line_no}: {message}")
    return record, warnings


def parse_record(data: bytes, mode: str = STRICT) -> UmsRecord:
    """Parse sidecar bytes into a record (see parse_record_with_warnings)."""
    record, _ = parse_record_with_warnings(data, mode)
    return record
