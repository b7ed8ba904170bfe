"""The sidecar file format, version 1.

UTF-8, LF line endings, trailing newline required.  Line 1 is the
``ums: 1`` header, then ``key: value`` lines in fixed key order:
name, synonym*, format+, date, type?, summary?, language*, location*,
creator*, identifier*, access?, subject*, tag*, history*.

Serialization is canonical: the same record always produces the same
bytes, and ``parse_record(canonical_serialize(r)) == r``.

The parser checks grammar: lines, key order, escapes, field counts and
the lexical tokens (lowercase format tags, registered language codes,
canonical dates).  Values that make up a history event are checked by
:class:`ProvenanceEvent` alone; the parser reports its complaint as a
:class:`SidecarSyntaxError` naming the line.
"""

from __future__ import annotations

import re

from .errors import (
    DuplicateSingletonKey,
    InvalidTimestamp,
    InvariantViolation,
    SidecarSyntaxError,
    UnknownKey,
)
from .escaping import decode_fields, escape, join_fields, split_fields, unescape
from .languages import is_language_code
from .model import (
    ACCESS_PUBLIC,
    DOC_TYPES,
    FORMAT_RE,
    LENIENT,
    STRICT,
    IdentifierBinding,
    ProvenanceEvent,
    Subject,
    UmsRecord,
    nfc,
    require_complete,
)
from . import timestamps

SIDECAR_EXTENSION = ".ums"

#: sidecar keys in their only admissible order
_KEY_ORDER = (
    "name",
    "synonym",
    "format",
    "date",
    "type",
    "summary",
    "language",
    "location",
    "creator",
    "identifier",
    "access",
    "subject",
    "tag",
    "history",
)
_KEY_POS = {key: pos for pos, key in enumerate(_KEY_ORDER)}
_SINGLETON_KEYS = frozenset({"name", "date", "type", "summary", "access"})
_SEQ_RE = re.compile(r"0|[1-9]\d*", re.ASCII)


def serialize_event(event: ProvenanceEvent) -> str:
    """Render one history value; this exact string feeds the digest chain."""
    return "|".join(
        (
            str(event.seq),
            event.timestamp,
            event.kind,
            escape(event.payload),
            event.prev,
        )
    )


def canonical_serialize(record: UmsRecord) -> bytes:
    """Serialize a complete record to canonical sidecar bytes."""
    require_complete(record)
    lines = ["ums: 1", f"name: {escape(record.name)}"]
    lines += [f"synonym: {escape(s)}" for s in record.synonyms]
    lines += [f"format: {f}" for f in record.formats]
    lines.append(f"date: {record.date}")
    if record.doc_type is not None:
        lines.append(f"type: {record.doc_type}")
    if record.summary is not None:
        lines.append(f"summary: {escape(record.summary)}")
    lines += [f"language: {c}" for c in record.languages]
    lines += [f"location: {escape(loc)}" for loc in record.locations]
    lines += [f"creator: {escape(c)}" for c in record.creators]
    lines += [
        f"identifier: {join_fields([b.system, b.id])}" for b in record.identifiers
    ]
    if record.access != ACCESS_PUBLIC:
        lines.append(f"access: {record.access}")
    for subj in record.subjects:
        if subj.source is None:
            lines.append(f"subject: {escape(subj.text)}")
        else:
            lines.append(f"subject: {join_fields([subj.text, subj.source])}")
    lines += [f"tag: {escape(t)}" for t in record.tags]
    lines += [f"history: {serialize_event(e)}" for e in record.history]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_history_value(value: str, line_no: int) -> ProvenanceEvent:
    raw = split_fields(value)
    if len(raw) != 5:
        raise SidecarSyntaxError(
            line_no, f"history needs 5 fields, got {len(raw)}"
        )
    seq_s, ts, kind, payload_esc, prev = raw
    if not _SEQ_RE.fullmatch(seq_s):
        raise SidecarSyntaxError(line_no, f"bad history seq: {seq_s!r}")
    try:
        payload = unescape(payload_esc)
    except ValueError as exc:
        raise SidecarSyntaxError(line_no, f"history payload: {exc}") from None
    try:
        return ProvenanceEvent(
            seq=int(seq_s), timestamp=ts, kind=kind, payload=payload, prev=prev
        )
    except (InvariantViolation, InvalidTimestamp) as exc:
        raise SidecarSyntaxError(line_no, f"history: {exc}") from None


def parse_record_with_warnings(
    data: bytes, mode: str = STRICT
) -> tuple[UmsRecord, list[str]]:
    """Parse sidecar bytes; lenient mode downgrades some rejects to warnings.

    Strict mode accepts exactly the grammar.  Lenient mode additionally
    tolerates unknown keys and missing required keys, reporting each as
    a warning string, so imperfect files can still be inspected.
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
        if key in _SINGLETON_KEYS and values[key]:
            raise DuplicateSingletonKey(line_no, key)
        order_pos = pos
        values[key].append((value, line_no))

    missing = [k for k in ("name", "format", "date") if not values[k]]
    if missing:
        if mode == STRICT:
            raise SidecarSyntaxError(
                len(lines), f"missing required key(s): {', '.join(missing)}"
            )
        warnings += [f"missing required key: {k}" for k in missing]

    def decode_one(key: str, value: str, line_no: int) -> str:
        raw = split_fields(value)
        if len(raw) != 1:
            raise SidecarSyntaxError(line_no, f"{key}: unescaped '|' in value")
        try:
            return unescape(raw[0])
        except ValueError as exc:
            raise SidecarSyntaxError(line_no, f"{key}: {exc}") from None

    def decode_simple(key: str) -> list[str]:
        return [decode_one(key, value, line_no) for value, line_no in values[key]]

    # singleton keys hold at most one (value, line) pair
    name = ""
    for value, line_no in values["name"]:
        name = decode_one("name", value, line_no)

    for value, line_no in values["format"]:
        if not FORMAT_RE.fullmatch(value):
            raise SidecarSyntaxError(line_no, f"bad format tag: {value!r}")
    for value, line_no in values["language"]:
        if not is_language_code(value):
            raise SidecarSyntaxError(line_no, f"bad language code: {value!r}")

    date = None
    for value, line_no in values["date"]:
        if not timestamps.is_canonical(value):
            raise SidecarSyntaxError(line_no, f"bad date: {value!r}")
        date = value

    doc_type = None
    for value, line_no in values["type"]:
        if value not in DOC_TYPES:
            raise SidecarSyntaxError(line_no, f"bad type: {value!r}")
        doc_type = value

    summary = None
    for value, line_no in values["summary"]:
        summary = decode_one("summary", value, line_no)

    access = ACCESS_PUBLIC
    for value, line_no in values["access"]:
        if value not in ("0", "1", "2", "3"):
            raise SidecarSyntaxError(line_no, f"bad access level: {value!r}")
        access = int(value)

    identifiers = []
    for value, line_no in values["identifier"]:
        system, ident = decode_fields(value, 2, line_no, "identifier")
        identifiers.append(IdentifierBinding(system=system, id=ident))

    subjects = []
    for value, line_no in values["subject"]:
        raw = split_fields(value)
        if len(raw) not in (1, 2):
            raise SidecarSyntaxError(line_no, "subject needs 1 or 2 fields")
        try:
            parts = [unescape(f) for f in raw]
        except ValueError as exc:
            raise SidecarSyntaxError(line_no, f"subject: {exc}") from None
        subjects.append(Subject(text=parts[0], source=parts[1] if len(parts) == 2 else None))

    history = [_parse_history_value(v, n) for v, n in values["history"]]

    try:
        record = UmsRecord(
            name=name,
            synonyms=tuple(decode_simple("synonym")),
            formats=tuple(v for v, _ in values["format"]),
            date=date,
            doc_type=doc_type,
            summary=summary,
            languages=tuple(v for v, _ in values["language"]),
            locations=tuple(decode_simple("location")),
            creators=tuple(decode_simple("creator")),
            identifiers=tuple(identifiers),
            access=access,
            subjects=tuple(subjects),
            tags=tuple(decode_simple("tag")),
            history=tuple(history),
        )
    except InvariantViolation as exc:
        line_no = _record_error_line(values, identifiers, subjects, history)
        if line_no is None:
            raise
        raise SidecarSyntaxError(line_no, str(exc)) from None
    return record, warnings


def _record_error_line(values, identifiers, subjects, history):
    """The line a record-wide check rejected: the first repeat within a
    list key, or the first history line out of seq order.  Called only
    after :class:`UmsRecord` raised, so valid input pays nothing."""
    built = {"identifier": identifiers, "subject": subjects}
    list_keys = [k for k in _KEY_ORDER if k not in _SINGLETON_KEYS and k != "history"]
    for key in list_keys:
        lines = values[key]
        # every escape was checked while parsing, so unescape cannot fail
        entries = built.get(key) or [nfc(unescape(v)) for v, _ in lines]
        seen = set()
        for entry, (_, line_no) in zip(entries, lines):
            if entry in seen:
                return line_no
            seen.add(entry)
    for seq, (event, (_, line_no)) in enumerate(zip(history, values["history"])):
        if event.seq != seq or (seq == 0 and event.kind != "create"):
            return line_no
    return None


def parse_record(data: bytes, mode: str = STRICT) -> UmsRecord:
    """Parse sidecar bytes into a record (see parse_record_with_warnings)."""
    record, _ = parse_record_with_warnings(data, mode)
    return record
